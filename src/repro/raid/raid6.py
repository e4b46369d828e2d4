"""Code-generic RAID-6 volumes.

A :class:`Raid6Array` binds an :class:`ArrayCode` to a
:class:`BlockArray`: stripe-group ``g`` occupies block rows
``g*rows .. (g+1)*rows - 1``; code column ``c`` maps to a physical disk,
optionally *rotated* per group to emulate the paper's "with load
balancing support" implementation (dedicated parity redistributed every
few stripe-groups, Section V-B).
"""

from __future__ import annotations

import numpy as np

from repro.codes.base import ArrayCode
from repro.codes.decoder import apply_recovery_plan
from repro.codes.geometry import Cell
from repro.raid.array import BlockArray
from repro.raid.layouts import address_table

__all__ = ["Raid6Array"]


class Raid6Array:
    """A RAID-6 volume running any registered array code.

    Parameters
    ----------
    array:
        Physical substrate; must have at least ``code.n_disks`` disks.
    code:
        Any :class:`ArrayCode` (Code 5-6, RDP, ...).
    rotation_period:
        ``None`` disables load balancing (column ``c`` always on disk
        ``c`` — the NLB configuration).  An integer ``k`` rotates the
        column->disk mapping by one position every ``k`` stripe-groups.
    """

    def __init__(self, array: BlockArray, code: ArrayCode, rotation_period: int | None = None):
        self.array = array
        self.code = code
        if rotation_period is not None and rotation_period < 1:
            raise ValueError("rotation_period must be >= 1")
        self.rotation_period = rotation_period
        self._physical_cols = code.layout.physical_cols
        if len(self._physical_cols) > array.n_disks:
            raise ValueError(
                f"{code.name} needs {len(self._physical_cols)} disks, "
                f"array has {array.n_disks}"
            )

    # ------------------------------------------------------------ geometry
    @property
    def rows(self) -> int:
        return self.code.rows

    @property
    def groups(self) -> int:
        return self.array.blocks_per_disk // self.rows

    @property
    def capacity_blocks(self) -> int:
        return self.groups * self.code.num_data

    def rotation(self, group: int) -> int:
        if self.rotation_period is None:
            return 0
        return (group // self.rotation_period) % len(self._physical_cols)

    def disk_of(self, group: int, col: int) -> int:
        """Physical disk hosting code column ``col`` of stripe-group ``group``."""
        cols = self._physical_cols
        try:
            idx = cols.index(col)
        except ValueError:
            raise ValueError(f"column {col} is virtual — it has no disk") from None
        return cols[(idx + self.rotation(group)) % len(cols)]

    def block_of(self, group: int, row: int) -> int:
        return group * self.rows + row

    def locate(self, lba: int) -> tuple[int, Cell]:
        """Logical block -> (stripe-group, cell)."""
        if not 0 <= lba < self.capacity_blocks:
            raise IndexError(f"lba {lba} outside capacity {self.capacity_blocks}")
        group, idx = divmod(lba, self.code.num_data)
        return group, self.code.layout.data_cells[idx]

    # ------------------------------------------------------------- bulk fill
    def format_with(self, data: np.ndarray) -> None:
        """Uncounted: lay out logical data and encode every group."""
        data = np.asarray(data, dtype=np.uint8)
        if data.shape != (self.capacity_blocks, self.array.block_size):
            raise ValueError(
                f"need ({self.capacity_blocks}, {self.array.block_size}) blocks"
            )
        per_group = self.code.num_data
        for g in range(self.groups):
            stripe = self.code.make_stripe(data[g * per_group : (g + 1) * per_group])
            self._store_stripe(g, stripe)

    def _store_stripe(self, group: int, stripe: np.ndarray) -> None:
        for col in self._physical_cols:
            disk = self.disk_of(group, col)
            for row in range(self.rows):
                self.array.raw(disk, self.block_of(group, row))[...] = stripe[row, col]

    # ------------------------------------------------------------------- I/O
    def read(self, lba: int) -> np.ndarray:
        group, (row, col) = self.locate(lba)
        disk = self.disk_of(group, col)
        if disk not in self.array.failed_disks:
            return self.array.read(disk, self.block_of(group, row))
        return self._degraded_read(group, (row, col))

    def _degraded_read(self, group: int, cell: Cell) -> np.ndarray:
        lost = self._lost_cells(group)
        # fast path: one parity chain covers the cell and touches no other
        # lost cell — serve the read with a single XOR pass over the first
        # cheapest such chain (p-2 reads instead of a whole-column rebuild).
        options = self.code.layout.isolating_chains(lost)[cell]
        if options:
            _chain, sources = min(options, key=lambda option: len(option[1]))
            acc = np.zeros(self.array.block_size, dtype=np.uint8)
            for r, c in sources:
                disk = self.disk_of(group, c)
                np.bitwise_xor(
                    acc, self.array.read(disk, self.block_of(group, r)), out=acc
                )
            return acc
        # slow path (e.g. double failure tangles the chains): full plan
        plan = self.code.plan_cell_recovery(tuple(sorted(lost)))
        stripe = self.code.empty_stripe(self.array.block_size)
        for src in plan.read_set:
            disk = self.disk_of(group, src[1])
            stripe[src[0], src[1]] = self.array.read(disk, self.block_of(group, src[0]))
        apply_recovery_plan(plan, stripe)
        return stripe[cell[0], cell[1]].copy()

    def _lost_cells(self, group: int) -> frozenset[Cell]:
        failed = self.array.failed_disks
        virtual = self.code.layout.virtual_cells
        return frozenset(
            (row, col)
            for col in self._physical_cols
            if self.disk_of(group, col) in failed
            for row in range(self.rows)
            if (row, col) not in virtual
        )

    def write(self, lba: int, payload: np.ndarray) -> int:
        """Read-modify-write with delta parity updates; returns I/Os."""
        group, (row, col) = self.locate(lba)
        payload = np.asarray(payload, dtype=np.uint8)
        disk = self.disk_of(group, col)
        failed = self.array.failed_disks
        ios = 0
        if disk in failed:
            raise NotImplementedError(
                "degraded writes route through rebuild in this model"
            )
        old = self.array.read(disk, self.block_of(group, row))
        ios += 1
        self.array.write(disk, self.block_of(group, row), payload)
        ios += 1
        delta = np.bitwise_xor(old, payload)
        for prow, pcol in self.code.layout.write_closure((row, col)):
            pdisk = self.disk_of(group, pcol)
            if pdisk in failed:
                continue
            pblock = self.block_of(group, prow)
            cur_val = self.array.read(pdisk, pblock)
            ios += 1
            self.array.write(pdisk, pblock, np.bitwise_xor(cur_val, delta))
            ios += 1
        return ios

    # ---------------------------------------------------------------- repair
    def rebuild_disks(self, *disks: int) -> None:
        """Reconstruct up to two replaced disks group-by-group."""
        for d in disks:
            self.array.replace_disk(d)
        for group in range(self.groups):
            cols = [
                col for col in self._physical_cols if self.disk_of(group, col) in disks
            ]
            if not cols:
                continue
            plan = self.code.plan_column_recovery(*cols)
            stripe = self.code.empty_stripe(self.array.block_size)
            for src in plan.read_set:
                disk = self.disk_of(group, src[1])
                stripe[src[0], src[1]] = self.array.read(disk, self.block_of(group, src[0]))
            apply_recovery_plan(plan, stripe)
            for col in cols:
                disk = self.disk_of(group, col)
                for row in range(self.rows):
                    if (row, col) in self.code.layout.virtual_cells:
                        continue
                    self.array.write(disk, self.block_of(group, row), stripe[row, col])

    # ----------------------------------------------------------------- audit
    def addresses(self) -> np.ndarray:
        """Uncounted address table for :meth:`ArrayCode.syndromes`:
        ``[r * cols + c, g]`` is the :meth:`BlockArray.flat_view` row of
        cell ``(r, c)`` of group ``g``, on disk ``disk_of(g, c)`` (-1 on
        a virtual column)."""
        disks = np.full((self.code.cols, self.groups), -1, dtype=np.intp)
        for c in self._physical_cols:
            disks[c] = [self.disk_of(g, c) for g in range(self.groups)]
        return address_table(disks, self.rows, self.array.blocks_per_disk)

    def verify(self) -> bool:
        """Uncounted parity check of every group: :meth:`ArrayCode.verify_cells`
        over :meth:`addresses`; ``RuntimeError`` while a disk is failed."""
        self.array.require_healthy("verifying")
        return self.code.verify_cells(self.array.flat_view(), self.addresses())
