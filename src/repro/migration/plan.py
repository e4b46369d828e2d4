"""Conversion plans: one alignment cycle of group work, tiled over the array.

The source RAID-5's rotating parity repeats every
:func:`~repro.migration.approaches.alignment_cycle` groups, so a
conversion is periodic: group ``g + cycle`` does exactly what group
``g`` does, on block addresses moved by a fixed step per disk region.
A plan therefore stores the :class:`GroupWork` of one cycle (tile 0,
at its real addresses), the work of a partial last cycle, and a
:class:`Tiling` saying how addresses move from one tile to the next.

From the same plan the library derives:

* the flat :class:`IOOp` stream (per-disk histograms, write/total I/O
  counts, Figs 13-17),
* the parity-operation tallies (invalid / migrated / new — Figs 9-11),
* the executable recipe the engine replays onto a :class:`BlockArray`
  to produce (and then verify) the converted RAID-6.

The tallies and per-disk counts are the cycle's times the tile count
plus the tail's.  ``group_works``, ``ops``, ``cell_locations`` and
``data_locations`` are views materialised on first use; the compiled
path (:func:`repro.compiled.compile_plan`, the batched verifier) reads
the cycle and the address tables instead and never builds them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from repro.codes.base import ArrayCode
from repro.codes.geometry import Cell
from repro.migration.ops import IOOp, OpKind, Purpose
from repro.raid.layouts import Raid5Layout

__all__ = ["Location", "GroupWork", "AddressTable", "Tiling", "ConversionPlan"]


@dataclass(frozen=True)
class Location:
    """A physical block address."""

    disk: int
    block: int


@dataclass
class GroupWork:
    """Everything the conversion does for one target stripe-group.

    ``reads`` is the *deduplicated* read set (each needed block is read
    once into controller memory, per the paper's I/O accounting).
    ``migrates`` move a block from its old location to a stripe cell
    (old-parity migration in the via-RAID-4 approach, displaced-data
    migration in direct HDP); the read/write pair is counted, the vacated
    slot is trimmed (metadata-only).
    """

    group: int
    phase: int = 0
    #: cell -> where its current content lives (read into memory)
    reads: dict[Cell, Location] = field(default_factory=dict)
    #: purpose per read cell (DATA_READ unless stated)
    read_purposes: dict[Cell, Purpose] = field(default_factory=dict)
    #: cells whose content becomes NULL, with a counted invalidation write
    null_writes: dict[Cell, Location] = field(default_factory=dict)
    #: cells that are NULL without any write (overwritten or metadata-only)
    null_cells: set[Cell] = field(default_factory=set)
    #: freshly generated parity cells to write
    parity_writes: dict[Cell, Location] = field(default_factory=dict)
    #: migrations: cell -> (source location, destination location, read/write purposes)
    migrates: dict[Cell, tuple[Location, Location, Purpose, Purpose]] = field(
        default_factory=dict
    )
    #: vacated slots (metadata trim, zeroed for bit-verifiability)
    trims: list[Location] = field(default_factory=list)
    #: XOR operations performed for this group's parity generation
    xors: int = 0
    #: parity-op tallies for the ratio metrics
    invalid_parities: int = 0
    migrated_parities: int = 0
    new_parities: int = 0

    def ops(self) -> list[IOOp]:
        """Flatten into the countable op stream."""
        out: list[IOOp] = []
        for cell, loc in self.reads.items():
            purpose = self.read_purposes.get(cell, Purpose.DATA_READ)
            out.append(IOOp(OpKind.READ, purpose, loc.disk, loc.block, self.group, self.phase))
        for src, dst, rp, wp in self.migrates.values():
            out.append(IOOp(OpKind.READ, rp, src.disk, src.block, self.group, self.phase))
            out.append(IOOp(OpKind.WRITE, wp, dst.disk, dst.block, self.group, self.phase))
        for loc in self.null_writes.values():
            out.append(
                IOOp(OpKind.WRITE, Purpose.PARITY_INVALIDATE, loc.disk, loc.block, self.group, self.phase)
            )
        for loc in self.parity_writes.values():
            out.append(
                IOOp(OpKind.WRITE, Purpose.NEW_PARITY_WRITE, loc.disk, loc.block, self.group, self.phase)
            )
        for loc in self.trims:
            out.append(IOOp(OpKind.TRIM, Purpose.FREE_SLOT, loc.disk, loc.block, self.group, self.phase))
        return out

    def io_disks(self) -> list[int]:
        """The disk of every counted I/O of :meth:`ops` (TRIMs excluded)."""
        disks = [loc.disk for loc in self.reads.values()]
        for src, dst, _rp, _wp in self.migrates.values():
            disks += (src.disk, dst.disk)
        disks += [loc.disk for loc in self.null_writes.values()]
        disks += [loc.disk for loc in self.parity_writes.values()]
        return disks


@dataclass(frozen=True, eq=False)
class AddressTable:
    """Parallel vectors of ``(group, (row, col)) -> (disk, block)`` entries."""

    group: np.ndarray
    row: np.ndarray
    col: np.ndarray
    disk: np.ndarray
    block: np.ndarray

    def __len__(self) -> int:
        return len(self.group)

    @classmethod
    def of(cls, group, row, col, disk, block) -> AddressTable:
        return cls(*(np.asarray(v, dtype=np.intp) for v in (group, row, col, disk, block)))


@dataclass(frozen=True)
class Tiling:
    """How a plan's cycle repeats: tile ``k`` is the cycle moved ``k`` steps.

    Groups below ``base_groups`` move ``span`` groups per tile; the
    overflow groups above it (HDP's repack targets) move
    ``overflow_step``.  Blocks below ``reserve_from`` move by their
    disk's ``disk_step`` (the source rows, or Code 5-6's diagonal disk
    at ``p-1`` blocks per group); reserved capacity at or above it
    (X-Code's and P-Code's reserve rows, HDP's overflow groups) moves
    ``reserve_step``.  ``tiles`` full cycles are followed by a partial
    one holding the first ``tail`` base groups.
    """

    span: int
    tiles: int
    tail: int
    disk_step: tuple[int, ...]
    reserve_from: int
    reserve_step: int
    base_groups: int
    overflow_step: int = 0

    @classmethod
    def single(cls, groups: int, n_disks: int) -> Tiling:
        """One tile: the cycle is every group, nothing moves."""
        return cls(
            span=groups, tiles=1, tail=0, disk_step=(0,) * n_disks,
            reserve_from=0, reserve_step=0, base_groups=groups,
        )

    @property
    def is_single(self) -> bool:
        return self.tiles == 1 and self.tail == 0

    def group_step(self, group: np.ndarray) -> np.ndarray:
        return np.where(group >= self.base_groups, self.overflow_step, self.span)

    def block_step(self, disk: np.ndarray, block: np.ndarray) -> np.ndarray:
        steps = np.asarray(self.disk_step, dtype=np.intp)
        return np.where(block >= self.reserve_from, self.reserve_step, steps[disk])

    def group(self, group: int, k: int) -> int:
        """Cycle group ``group``, as tile ``k`` numbers it."""
        return group + k * (self.overflow_step if group >= self.base_groups else self.span)

    def location(self, loc: Location, k: int) -> Location:
        """``loc`` of the cycle, as tile ``k`` addresses it."""
        if k == 0:
            return loc
        step = self.reserve_step if loc.block >= self.reserve_from else self.disk_step[loc.disk]
        return Location(loc.disk, loc.block + k * step)

    def expand(self, group: np.ndarray, in_tail: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Entry index into the cycle vector and tile of every tiled entry.

        ``group`` is the cycle vector's (ascending) group per entry;
        ``in_tail`` marks the entries the partial last cycle repeats.
        The result is in ascending tiled-group order: base groups tile
        by tile, then overflow groups tile by tile.
        """
        if self.is_single:
            return np.arange(len(group), dtype=np.intp), np.zeros(len(group), dtype=np.intp)
        idx_parts, k_parts = [], []
        for region in (group < self.base_groups, group >= self.base_groups):
            rows = np.flatnonzero(region)
            tail_rows = rows[in_tail[rows]]
            idx_parts += [np.tile(rows, self.tiles), tail_rows]
            k_parts += [
                np.repeat(np.arange(self.tiles, dtype=np.intp), rows.size),
                np.full(tail_rows.size, self.tiles, dtype=np.intp),
            ]
        return np.concatenate(idx_parts), np.concatenate(k_parts)

    def shift(self, table: AddressTable, idx: np.ndarray, k: np.ndarray) -> AddressTable:
        """Rows ``idx`` of a cycle table, moved to tiles ``k``."""
        group, disk, block = table.group[idx], table.disk[idx], table.block[idx]
        return AddressTable(
            group=group + k * self.group_step(group),
            row=table.row[idx],
            col=table.col[idx],
            disk=disk,
            block=block + k * self.block_step(disk, block),
        )


@dataclass
class ConversionPlan:
    """A complete RAID-5 -> RAID-6 conversion recipe.

    ``cycle_works`` is one alignment cycle of group work at tile 0's
    addresses, ``tail_works`` the partial last cycle's (the cycle's work
    for the tail groups, at tile 0's addresses; HDP's last overflow
    group may differ in its XOR tally only).  ``cycle_cells`` maps each
    cycle ``(group, cell)`` to its physical block; ``cycle_data`` gives
    the converted ``(group, cell)`` and physical block of each of the
    cycle's source LBAs, in LBA order.  :meth:`untiled` turns any plan
    into one tile whose cycle is every group, which is how a hand-built
    or deliberately broken plan is made: its ``group_works`` *are* its
    cycle, so editing them edits the plan.
    """

    code: ArrayCode
    approach: str
    p: int
    m: int
    n: int
    source_layout: Raid5Layout
    groups: int
    data_blocks: int
    cycle_works: list[GroupWork]
    tail_works: list[GroupWork]
    tiling: Tiling
    cycle_cells: AddressTable
    cycle_data: AddressTable
    col_to_disk: dict[int, int]
    new_disks: tuple[int, ...]
    blocks_per_disk: int
    extra_blocks_per_disk: int
    notes: str = ""

    # ------------------------------------------------------------ the tiling
    @cached_property
    def _in_tail(self) -> np.ndarray:
        """Cycle group -> does the partial cycle repeat it."""
        lookup = np.zeros(max((gw.group for gw in self.cycle_works), default=-1) + 1, dtype=bool)
        lookup[[gw.group for gw in self.tail_works]] = True
        return lookup

    def tail_mask(self, group: np.ndarray) -> np.ndarray:
        """Which entries of a cycle group vector the partial cycle repeats."""
        return self._in_tail[group]

    @cached_property
    def cells(self) -> AddressTable:
        """Every physical cell, in ``(group, row, col)`` order."""
        table = self.cycle_cells
        idx, k = self.tiling.expand(table.group, self.tail_mask(table.group))
        return self.tiling.shift(table, idx, k)

    @cached_property
    def data(self) -> AddressTable:
        """Every source LBA's converted cell and physical block, in LBA order."""
        table, tiles = self.cycle_data, self.tiling.tiles
        tail = self.data_blocks - tiles * len(table)
        idx = np.concatenate([np.tile(np.arange(len(table), dtype=np.intp), tiles),
                              np.arange(tail, dtype=np.intp)])
        k = np.concatenate([np.repeat(np.arange(tiles, dtype=np.intp), len(table)),
                            np.full(tail, tiles, dtype=np.intp)])
        return self.tiling.shift(table, idx, k)

    def _shifted(self, gw: GroupWork, k: int) -> GroupWork:
        """A copy of cycle work ``gw`` as tile ``k`` performs it."""
        t = self.tiling

        def at(loc: Location) -> Location:
            return t.location(loc, k)

        return replace(
            gw,
            group=t.group(gw.group, k),
            reads={c: at(loc) for c, loc in gw.reads.items()},
            read_purposes=dict(gw.read_purposes),
            null_writes={c: at(loc) for c, loc in gw.null_writes.items()},
            null_cells=set(gw.null_cells),
            parity_writes={c: at(loc) for c, loc in gw.parity_writes.items()},
            migrates={c: (at(s), at(d), rp, wp) for c, (s, d, rp, wp) in gw.migrates.items()},
            trims=[at(loc) for loc in gw.trims],
        )

    def _materialize(self) -> list[GroupWork]:
        works = [self._shifted(gw, k) for k in range(self.tiling.tiles) for gw in self.cycle_works]
        works += [self._shifted(gw, self.tiling.tiles) for gw in self.tail_works]
        return sorted(works, key=lambda g: (g.group, g.phase))

    def untiled(self) -> ConversionPlan:
        """This plan as one tile whose cycle is a copy of every group's work."""
        return replace(
            self,
            cycle_works=self._materialize(),
            tail_works=[],
            tiling=Tiling.single(self.groups, self.n),
            cycle_cells=self.cells,
            cycle_data=self.data,
        )

    # --------------------------------------------------------- derived views
    @cached_property
    def group_works(self) -> list[GroupWork]:
        """Every group's work, in ``(group, phase)`` order."""
        if self.tiling.is_single:
            return self.cycle_works
        return self._materialize()

    @cached_property
    def cell_locations(self) -> dict[tuple[int, Cell], Location]:
        """``(group, cell) -> Location`` for every physical cell."""
        t = self.cells
        return {
            (g, (r, c)): Location(d, b)
            for g, r, c, d, b in zip(
                t.group.tolist(), t.row.tolist(), t.col.tolist(), t.disk.tolist(), t.block.tolist()
            )
        }

    @cached_property
    def data_locations(self) -> dict[int, tuple[int, Cell]]:
        """Source LBA -> ``(group, cell)`` in the converted array."""
        t = self.data
        return {
            lba: (g, (r, c))
            for lba, (g, r, c) in enumerate(zip(t.group.tolist(), t.row.tolist(), t.col.tolist()))
        }

    @cached_property
    def ops(self) -> list[IOOp]:
        out: list[IOOp] = []
        for gw in sorted(self.group_works, key=lambda g: (g.phase, g.group)):
            out.extend(gw.ops())
        return out

    # --------------------------------------------------------------- tallies
    def _tally(self, count) -> int:
        return self.tiling.tiles * sum(count(gw) for gw in self.cycle_works) + sum(
            count(gw) for gw in self.tail_works
        )

    @property
    def xors(self) -> int:
        return self._tally(lambda gw: gw.xors)

    @property
    def invalid_parities(self) -> int:
        return self._tally(lambda gw: gw.invalid_parities)

    @property
    def migrated_parities(self) -> int:
        return self._tally(lambda gw: gw.migrated_parities)

    @property
    def new_parities(self) -> int:
        return self._tally(lambda gw: gw.new_parities)

    @property
    def read_ios(self) -> int:
        # one READ per read cell and per migration source, as in GroupWork.ops
        return self._tally(lambda gw: len(gw.reads) + len(gw.migrates))

    @property
    def write_ios(self) -> int:
        return self._tally(
            lambda gw: len(gw.migrates) + len(gw.null_writes) + len(gw.parity_writes)
        )

    @property
    def total_ios(self) -> int:
        return self.read_ios + self.write_ios

    def per_disk_ios(self, phase: int | None = None) -> np.ndarray:
        """I/O count per physical disk (optionally one phase only).

        A shift moves blocks, never disks, so this is the cycle's count
        times the tile count plus the tail's.
        """

        def count(works: list[GroupWork]) -> np.ndarray:
            disks = [
                d for gw in works if phase is None or gw.phase == phase for d in gw.io_disks()
            ]
            return np.bincount(np.asarray(disks, dtype=np.intp), minlength=self.n)

        return (self.tiling.tiles * count(self.cycle_works) + count(self.tail_works)).astype(
            np.int64
        )

    @property
    def phases(self) -> tuple[int, ...]:
        return tuple(sorted({gw.phase for gw in self.cycle_works}))

    def describe(self) -> str:
        b = self.data_blocks
        return (
            f"{self.approach} {self.code.name} ({self.m}->{self.n} disks, p={self.p}): "
            f"B={b}, reads={self.read_ios}, writes={self.write_ios}, "
            f"xors={self.xors}, invalid={self.invalid_parities}, "
            f"migrated={self.migrated_parities}, new={self.new_parities}"
        )
