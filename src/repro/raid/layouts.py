"""RAID-0/4/5 stripe layouts and block placement.

The paper's conversion costs hinge on *where RAID-5 keeps its rotating
parity*: Code 5-6's horizontal parities coincide with a left-(a)symmetric
RAID-5's parity placement (parity of stripe ``i`` on disk ``n-1-i mod
n``), and H-Code's anti-diagonal parities align with a right-layout
RAID-5 (parity of stripe ``i`` on disk ``i mod n``).  All four classic
rotations are implemented, matching the Linux md driver's definitions:

* ``left``/``right`` selects the rotation direction of the parity disk;
* ``symmetric`` means logical data blocks continue immediately after the
  parity disk (wrapping), ``asymmetric`` means they fill disks in
  ascending order skipping the parity disk.
"""

from __future__ import annotations

import enum
from functools import lru_cache

import numpy as np

__all__ = [
    "Raid5Layout", "parity_disk", "data_disk", "locate_block", "cell_role",
    "raid5_placement",
]


class Raid5Layout(enum.Enum):
    """Classic RAID-5 parity rotations (md driver nomenclature)."""

    LEFT_ASYMMETRIC = "left-asymmetric"
    LEFT_SYMMETRIC = "left-symmetric"
    RIGHT_ASYMMETRIC = "right-asymmetric"
    RIGHT_SYMMETRIC = "right-symmetric"

    @property
    def is_left(self) -> bool:
        return self in (Raid5Layout.LEFT_ASYMMETRIC, Raid5Layout.LEFT_SYMMETRIC)

    @property
    def is_symmetric(self) -> bool:
        return self in (Raid5Layout.LEFT_SYMMETRIC, Raid5Layout.RIGHT_SYMMETRIC)


def parity_disk(layout: Raid5Layout, stripe: int, n: int) -> int:
    """Disk holding the parity block of ``stripe`` in an ``n``-disk RAID-5."""
    if n < 2:
        raise ValueError("RAID-5 needs >= 2 disks")
    if layout.is_left:
        return (n - 1) - (stripe % n)
    return stripe % n


def data_disk(layout: Raid5Layout, stripe: int, n: int, k: int) -> int:
    """Disk holding the ``k``-th logical data block of ``stripe``.

    ``k`` ranges over ``0 .. n-2`` (a stripe holds ``n-1`` data blocks).
    """
    if not 0 <= k < n - 1:
        raise ValueError(f"data index {k} outside 0..{n - 2}")
    pd = parity_disk(layout, stripe, n)
    if layout.is_symmetric:
        return (pd + 1 + k) % n
    # asymmetric: ascending disk order, skipping the parity disk
    return k if k < pd else k + 1


def locate_block(layout: Raid5Layout, lba: int, n: int) -> tuple[int, int]:
    """Map logical data block ``lba`` to ``(stripe, disk)``."""
    if lba < 0:
        raise ValueError("negative lba")
    stripe, k = divmod(lba, n - 1)
    return stripe, data_disk(layout, stripe, n, k)


def cell_role(layout: Raid5Layout, stripe: int, disk: int, n: int) -> int | None:
    """Inverse placement: the logical data index of ``(stripe, disk)``.

    Returns ``None`` when the cell is the stripe's parity block.
    """
    pd = parity_disk(layout, stripe, n)
    if disk == pd:
        return None
    if layout.is_symmetric:
        return (disk - pd - 1) % n
    return disk if disk < pd else disk - 1


@lru_cache(maxsize=64)
def raid5_placement(
    layout: Raid5Layout, n: int, stripes: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Whole-array placement table of the first ``stripes`` rows of an
    ``n``-disk RAID-5: ``(stripe_of, disk_of, parity_of)``.

    ``stripe_of[lba], disk_of[lba]`` is :func:`locate_block` of every
    logical block ``0 .. stripes*(n-1)-1`` and ``parity_of[s]`` is
    :func:`parity_disk` of every stripe, computed for all blocks at once.
    The arrays are cached, shared by every caller and read-only.
    """
    if n < 2:
        raise ValueError("RAID-5 needs >= 2 disks")
    stripe = np.arange(stripes, dtype=np.intp)
    parity_of = (n - 1) - stripe % n if layout.is_left else stripe % n
    stripe_of, k = np.divmod(np.arange(stripes * (n - 1), dtype=np.intp), n - 1)
    pd = parity_of[stripe_of]
    if layout.is_symmetric:
        disk_of = (pd + 1 + k) % n
    else:
        disk_of = k + (k >= pd)
    out = (stripe_of, disk_of, parity_of)
    for index in out:
        index.flags.writeable = False
    return out
