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

from repro.codes.geometry import Cell
from repro.codes.registry import get_code

__all__ = [
    "Raid5Layout", "parity_disk", "data_disk", "locate_block", "cell_role",
    "raid5_placement", "address_table", "VolumeGeometry", "volume_geometry",
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


def address_table(disks: np.ndarray, rows: int, blocks_per_disk: int) -> np.ndarray:
    """``(rows * cols, groups)`` :meth:`BlockArray.flat_view` addresses
    of a volume whose column ``c`` of stripe-group ``g`` is on disk
    ``disks[c, g]``: ``[r * cols + c, g]`` is ``disk * blocks_per_disk +
    g * rows + r``, and ``-1`` where ``disks`` is ``-1`` (virtual)."""
    groups = disks.shape[1]
    addr = disks * blocks_per_disk + np.arange(groups) * rows + np.arange(rows)[:, None, None]
    addr[:, disks < 0] = -1
    return addr.reshape(-1, groups)


class VolumeGeometry:
    """Every address table of one online Code 5-6 volume.

    A left-asymmetric RAID-5 on disks ``0 .. m-1`` (``m = p-1``) plus the
    hot-added diagonal disk ``m``; column ``c`` of stripe-group ``g`` is
    block rows ``g*rows ..`` of disk ``c``.  Every table derives from the
    RAID-5's placement (:func:`raid5_placement`, whose parities are Code
    5-6's horizontal ones) and the code's chain table (one diagonal chain
    per residue ``(r + c) mod p``).  Build through the cached
    :func:`volume_geometry`; arrays are read-only.
    """

    layout = Raid5Layout.LEFT_ASYMMETRIC

    def __init__(self, p: int, n_disks: int, groups: int, blocks_per_disk: int):
        rows = p - 1
        self.capacity = groups * rows * (rows - 1)
        stripe_of, disk_of, parity_of = raid5_placement(self.layout, rows, groups * rows)
        group_of, row_of = np.divmod(stripe_of, rows)
        self._located = list(
            zip(group_of.tolist(), row_of.tolist(), disk_of.tolist(), stripe_of.tolist())
        )
        #: ``[stripe]``: the stripe's RAID-5 (horizontal) parity disk
        self.parity_of: tuple[int, ...] = tuple(parity_of.tolist())
        #: ``(rows * p, groups)`` :func:`address_table`, column ``c`` on disk ``c``
        self.addresses = address_table(
            np.repeat(np.arange(p)[:, None], groups, axis=1), rows, blocks_per_disk
        )
        r_tab, c_tab = get_code("code56", p).chain_table().terms(range(rows, 2 * rows))
        r_tab, c_tab = r_tab[:, 1:], c_tab[:, 1:]  # the parity is term 0
        #: ``[prow]``: the square cells of diagonal parity row ``prow``'s chain
        self.chain_cells: tuple[tuple[Cell, ...], ...] = tuple(
            tuple(zip(rs, cs)) for rs, cs in zip(r_tab.tolist(), c_tab.tolist())
        )
        #: ``(p-2, groups * rows)``: column ``group * rows + prow`` holds
        #: the flat rows of that parity's chain (``[prow, j, g]`` reordered)
        self.chain_rows = self.addresses[r_tab * p + c_tab].transpose(1, 2, 0).reshape(p - 2, -1)
        #: ``(rows, n_disks)``: per-disk chain reads of one parity of each row
        self.read_credit = np.zeros((rows, n_disks), dtype=np.int64)
        np.add.at(self.read_credit, (np.arange(rows)[:, None], c_tab), 1)
        #: ``[r][c]``: the diagonal parity row covering square cell ``(r, c)``;
        #: -1 on the horizontal parities, which no diagonal covers
        diagonal = np.full((rows, rows), -1)
        diagonal[r_tab, c_tab] = np.arange(rows)[:, None]
        self.diagonal_row: tuple[tuple[int, ...], ...] = tuple(map(tuple, diagonal.tolist()))
        for table in (self.addresses, self.chain_rows, self.read_credit):
            table.flags.writeable = False

    def locate(self, lba: int) -> tuple[int, int, int, int]:
        """lba -> (group, row, disk, stripe)."""
        if not 0 <= lba < self.capacity:
            raise ValueError(f"lba {lba} outside capacity {self.capacity}")
        return self._located[lba]


@lru_cache(maxsize=16)
def volume_geometry(p: int, n_disks: int, groups: int, blocks_per_disk: int) -> VolumeGeometry:
    """The :class:`VolumeGeometry` of one volume shape, built once."""
    return VolumeGeometry(p, n_disks, groups, blocks_per_disk)
