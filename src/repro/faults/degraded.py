"""Reconstruct-on-read: degraded-mode I/O for conversion.

The direct Code 5-6 conversion never writes the old RAID-5 columns, so
the horizontal (row) parity stays valid at every instant — the paper's
safe-online property.  That is exactly the invariant that makes
degraded-mode conversion possible: a block on a failed disk (or one
carrying a latent sector error) is the XOR of the other ``m-1`` blocks
of its RAID-5 row, at any point during the conversion.

:class:`ReconstructingReader` is the one fault-aware adapter over the
raid layer's row-XOR seam (:func:`repro.raid.raid5.row_xor` /
:func:`~repro.raid.raid5.row_xor_raw`), consumed by checkpointed offline
conversion and the online converter alike — ``read`` / ``read_ios`` (counted, with
reconstruction fallback and the fault plane's ``reconstructed_blocks``
/ ``degraded_reads`` counters), ``peek`` (uncounted, for
controller-memory fills, parity audits and resume scans) and
``check_ok`` (whether a reused-parity audit of a disk is possible).  For
plans that *do* move data (via-RAID-0/4 and the multi-phase codes) the
row invariant breaks mid-flight, so the adapter is built with
``allow_reconstruction=False`` and simply re-raises — degraded
conversion is refused rather than silently corrupted.
"""

from __future__ import annotations

import numpy as np

from repro.faults.errors import ReadFaultError, TransientIOError
from repro.raid.array import BlockArray, DiskFailure
from repro.raid.raid5 import row_xor, row_xor_raw

__all__ = ["ReconstructingReader", "plan_is_zero_movement"]

#: faults the reader can hide by reconstructing from the RAID-5 row
_RECOVERABLE = (DiskFailure, ReadFaultError, TransientIOError)


def plan_is_zero_movement(plan) -> bool:
    """True when the conversion never writes the old RAID-5 columns.

    Zero data movement (no migrations, no NULL invalidations, no trims)
    and every generated parity landing on a hot-added disk together
    guarantee the RAID-5 row invariant holds throughout — the predicate
    for degraded-mode conversion.
    """
    # every group's work is a cycle work shifted along its disks, so the
    # cycle decides both conditions
    for gw in plan.cycle_works:
        if gw.migrates or gw.null_writes or gw.trims:
            return False
        for loc in gw.parity_writes.values():
            if loc.disk not in plan.new_disks:
                return False
    return True


class ReconstructingReader:
    """Counted reads with RAID-5 row reconstruction on failure.

    Parameters
    ----------
    array:
        The array under conversion.
    m:
        Width of the RAID-5 source region (disks ``0..m-1``); blocks on
        disk ``>= m`` (the hot-added columns) cannot be reconstructed
        from the row and always re-raise.
    allow_reconstruction:
        ``False`` turns the adapter into a transparent pass-through that
        re-raises every fault — used for plans whose row invariant does
        not hold.
    """

    def __init__(self, array: BlockArray, m: int, allow_reconstruction: bool = True):
        self.array = array
        self.m = m
        self.allow = allow_reconstruction

    # ------------------------------------------------------------- counted
    def read(self, disk: int, block: int) -> np.ndarray:
        """One counted read; reconstructs through the row on any fault."""
        return self.read_ios(disk, block)[0]

    def read_ios(self, disk: int, block: int) -> tuple[np.ndarray, int]:
        """:meth:`read` plus its I/O cost: 1, or ``m-1`` when reconstructed."""
        if disk not in self.array.failed_disks:
            try:
                return self.array.read(disk, block), 1
            except _RECOVERABLE:
                if not self.allow or disk >= self.m:
                    raise
        elif not self.allow or disk >= self.m:
            # propagate the array's own failure semantics
            return self.array.read(disk, block), 1
        from repro.obs.tracer import get_tracer

        with get_tracer().span(
            "degraded.reconstruct", cat="faults", track="faults",
            disk=disk, block=block,
        ):
            acc = row_xor(self.array, block, self.m, (disk,))
        plane = self.array.fault_plane
        if plane is not None:
            plane.counters["reconstructed_blocks"] += 1
            plane.counters["degraded_reads"] += self.m - 2  # extra vs 1 read
        return acc, self.m - 1

    # ----------------------------------------------------------- uncounted
    def peek(self, disk: int, block: int) -> np.ndarray:
        """Uncounted raw view/reconstruction (fills, audits, validation)."""
        if disk not in self.array.failed_disks:
            return self.array.raw(disk, block)
        if not self.allow or disk >= self.m:
            raise DiskFailure(f"disk {disk} has failed")
        return row_xor_raw(self.array, block, self.m, (disk,))

    def check_ok(self, disk: int) -> bool:
        """Can a reused-parity audit read this disk's true bytes?"""
        return disk not in self.array.failed_disks
