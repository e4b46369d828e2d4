"""RAID-5 (and degenerate RAID-0/RAID-4) array logic.

One stripe occupies one block per disk; stripe ``s`` lives at block
offset ``s`` on every disk.  This matches the paper's element==block
granularity (Table II) — a "stripe" of a RAID-5 is a row.

The row equation — the XOR of every member of a row is zero — is the one
reconstruction rule of the whole package: a lost or unreadable block is
the XOR of the other members of its row.  :func:`row_xor` (counted) and
:func:`row_xor_raw` (uncounted) rebuild one block from its row; degraded
reads, rebuilds, the conversion engines' reconstruct-on-read
(:class:`repro.faults.degraded.ReconstructingReader`) and the fleet's
rebuild staging all call them.  Checking the equation is one
XOR-reduce over the disks' views, :meth:`Raid5Array.row_residues`, read
by both the audit (:meth:`Raid5Array.verify`) and the scrub; the fill
(:meth:`Raid5Array.format_with`) applies it to every row the same way.
"""

from __future__ import annotations

from collections.abc import Container

import numpy as np

from repro.kernels import resolve_kernel
from repro.raid.array import BlockArray
from repro.raid.layouts import (
    Raid5Layout,
    cell_role,
    data_disk,
    locate_block,
    parity_disk,
    raid5_placement,
)

__all__ = ["Raid5Array", "row_xor", "row_xor_raw"]


def row_xor(array: BlockArray, block: int, width: int, skip: Container[int] = ()) -> np.ndarray:
    """XOR of row ``block`` over disks ``0..width-1`` except ``skip``.

    Counted: one :meth:`BlockArray.read` per member, so failures and
    fault-plane hooks fire exactly as for any other read.  Skipping one
    disk reconstructs that disk's block (the row XORs to zero).
    """
    acc = np.zeros(array.block_size, dtype=np.uint8)
    for d in range(width):
        if d not in skip:
            np.bitwise_xor(acc, array.read(d, block), out=acc)
    return acc


def row_xor_raw(
    array: BlockArray, block: int, width: int, skip: Container[int] = ()
) -> np.ndarray:
    """Uncounted :func:`row_xor` over raw bytes (audits, scans)."""
    acc = np.zeros(array.block_size, dtype=np.uint8)
    for d in range(width):
        if d not in skip:
            np.bitwise_xor(acc, array.raw(d, block), out=acc)
    return acc


class Raid5Array:
    """A RAID-5 volume over a :class:`BlockArray`.

    Parameters
    ----------
    array:
        Physical substrate (its first ``n_disks`` disks are used).
    layout:
        Parity rotation; the paper's default is left-asymmetric.
    n_disks:
        Width of the RAID-5; defaults to the whole array.  The migration
        engine narrows this when extra disks have been hot-added but not
        yet incorporated.
    """

    def __init__(
        self,
        array: BlockArray,
        layout: Raid5Layout = Raid5Layout.LEFT_ASYMMETRIC,
        n_disks: int | None = None,
    ):
        self.array = array
        self.layout = layout
        self.n = array.n_disks if n_disks is None else n_disks
        if self.n < 3:
            raise ValueError("RAID-5 needs >= 3 disks")
        if self.n > array.n_disks:
            raise ValueError("RAID-5 wider than the physical array")

    # ------------------------------------------------------------ geometry
    @property
    def stripes(self) -> int:
        return self.array.blocks_per_disk

    @property
    def capacity_blocks(self) -> int:
        """Logical data blocks."""
        return self.stripes * (self.n - 1)

    def parity_disk(self, stripe: int) -> int:
        return parity_disk(self.layout, stripe, self.n)

    def locate(self, lba: int) -> tuple[int, int]:
        """Logical block -> (stripe, disk)."""
        if not 0 <= lba < self.capacity_blocks:
            raise IndexError(f"lba {lba} outside capacity {self.capacity_blocks}")
        return locate_block(self.layout, lba, self.n)

    # ------------------------------------------------------------- bulk fill
    def format_with(self, data: np.ndarray, stripes: int | None = None) -> None:
        """Write logical data blocks 0..len-1 and compute all parities.

        ``stripes`` limits the fill to the first ``stripes`` rows (the
        source region of an array sized for a larger layout); by default
        every row is filled.  ``data`` must hold exactly the logical
        blocks of those rows.

        One scatter through the cached :func:`raid5_placement` table, then
        one XOR-reduce over the ``n`` disks writes every horizontal parity;
        the parity slots are zeroed first, so prior contents never leak
        into them.  Uncounted (models the array's pre-existing state, not
        migration traffic).
        """
        stripes = self.stripes if stripes is None else stripes
        if not 0 <= stripes <= self.stripes:
            raise ValueError(f"stripes {stripes} outside 0..{self.stripes}")
        data = np.asarray(data, dtype=np.uint8)
        need = (stripes * (self.n - 1), self.array.block_size)
        if data.shape != need:
            raise ValueError(f"need {need} blocks")
        stripe_of, disk_of, parity_of = raid5_placement(self.layout, self.n, stripes)
        region = self.array.bulk_view(slice(0, self.n), slice(0, stripes))
        rows = np.arange(stripes)
        region[disk_of, stripe_of] = data
        region[parity_of, rows] = 0
        region[parity_of, rows] = np.bitwise_xor.reduce(region, axis=0)

    # ------------------------------------------------------------------- I/O
    def read(self, lba: int) -> np.ndarray:
        """Logical read; reconstructs through parity when the disk failed."""
        stripe, disk = self.locate(lba)
        if disk in self.array.failed_disks:
            return row_xor(self.array, stripe, self.n, (disk,))
        return self.array.read(disk, stripe)

    def write(self, lba: int, payload: np.ndarray) -> int:
        """Logical read-modify-write; returns I/Os performed.

        The standard small-write path: read old data + old parity, write
        new data + new parity (4 I/Os).  Degraded variants fall back to
        full-stripe reconstruction of the missing piece.
        """
        stripe, disk = self.locate(lba)
        pd = self.parity_disk(stripe)
        payload = np.asarray(payload, dtype=np.uint8)
        failed = self.array.failed_disks
        ios = 0
        if disk in failed:
            # data disk gone: refresh parity so the write is still durable.
            new_parity = row_xor(self.array, stripe, self.n, (disk, pd))
            np.bitwise_xor(new_parity, payload, out=new_parity)
            self.array.write(pd, stripe, new_parity)
            return self.n - 1  # n-2 row reads + the parity write
        old = self.array.read(disk, stripe)
        ios += 1
        self.array.write(disk, stripe, payload)
        ios += 1
        if pd not in failed:
            old_parity = self.array.read(pd, stripe)
            ios += 1
            delta = np.bitwise_xor(old, payload)
            self.array.write(pd, stripe, np.bitwise_xor(old_parity, delta))
            ios += 1
        return ios

    # ---------------------------------------------------------------- repair
    def rebuild_disk(self, disk: int) -> None:
        """Reconstruct a replaced disk stripe-by-stripe."""
        self.array.replace_disk(disk)
        for stripe in range(self.stripes):
            self.array.write(disk, stripe, row_xor(self.array, stripe, self.n, (disk,)))

    # ----------------------------------------------------------------- audit
    def row_residues(self) -> np.ndarray:
        """Uncounted ``(stripes, block)`` XOR-reduce of the ``n`` disks'
        views: zero where a row's parity holds (:meth:`verify`, scrub)."""
        disks = self.array.bulk_view(slice(0, self.n), slice(None))
        residue = np.empty(disks.shape[1:], dtype=np.uint8)
        resolve_kernel().region_xor_reduce(residue, list(disks))
        return residue

    def verify(self) -> bool:
        """Uncounted parity scrub: every row residue must be zero;
        ``RuntimeError`` while one of the ``n`` disks is failed."""
        self.array.require_healthy("verifying", width=self.n)
        return not self.row_residues().any()

    def parity_map(self) -> list[tuple[int, int]]:
        """(stripe, parity disk) for every stripe — used by the planner."""
        return [(s, self.parity_disk(s)) for s in range(self.stripes)]

    def logical_of(self, stripe: int, disk: int) -> int | None:
        """Inverse mapping; ``None`` for parity cells."""
        k = cell_role(self.layout, stripe, disk, self.n)
        if k is None:
            return None
        return stripe * (self.n - 1) + k

    def data_disk_of(self, stripe: int, k: int) -> int:
        return data_disk(self.layout, stripe, self.n, k)
