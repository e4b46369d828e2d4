"""Conversion plans: structured, block-accurate descriptions of a migration.

A plan is a list of :class:`GroupWork` items — one per target stripe-group
— plus global metadata.  From the same plan the library derives:

* the flat :class:`IOOp` stream (per-disk histograms, write/total I/O
  counts, Figs 13-17),
* the parity-operation tallies (invalid / migrated / new — Figs 9-11),
* the executable recipe the engine replays onto a :class:`BlockArray`
  to produce (and then verify) the converted RAID-6.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.codes.base import ArrayCode
from repro.codes.geometry import Cell
from repro.migration.ops import IOOp, OpKind, Purpose
from repro.raid.layouts import Raid5Layout

__all__ = ["Location", "GroupWork", "ConversionPlan"]


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


@dataclass
class ConversionPlan:
    """A complete RAID-5 -> RAID-6 conversion recipe.

    ``data_locations`` maps every source logical data block to its
    ``(group, cell)`` in the converted array — the engine's verification
    oracle.  ``cell_locations`` maps ``(group, cell)`` to the physical
    block so stripes can be assembled after conversion.
    """

    code: ArrayCode
    approach: str
    p: int
    m: int
    n: int
    source_layout: Raid5Layout
    groups: int
    data_blocks: int
    group_works: list[GroupWork]
    #: source lba -> (group, cell)
    data_locations: dict[int, tuple[int, Cell]]
    #: (group, cell) -> physical location, for every physical cell
    cell_locations: dict[tuple[int, Cell], Location]
    col_to_disk: dict[int, int]
    new_disks: tuple[int, ...]
    blocks_per_disk: int
    extra_blocks_per_disk: int
    notes: str = ""

    # ------------------------------------------------------------- op stream
    @cached_property
    def ops(self) -> list[IOOp]:
        out: list[IOOp] = []
        for gw in sorted(self.group_works, key=lambda g: (g.phase, g.group)):
            out.extend(gw.ops())
        return out

    # --------------------------------------------------------------- tallies
    @property
    def xors(self) -> int:
        return sum(gw.xors for gw in self.group_works)

    @property
    def invalid_parities(self) -> int:
        return sum(gw.invalid_parities for gw in self.group_works)

    @property
    def migrated_parities(self) -> int:
        return sum(gw.migrated_parities for gw in self.group_works)

    @property
    def new_parities(self) -> int:
        return sum(gw.new_parities for gw in self.group_works)

    @property
    def read_ios(self) -> int:
        # counted from the group-work sizes: one READ per read cell and
        # per migration source, as in :meth:`GroupWork.ops`
        return sum(len(gw.reads) + len(gw.migrates) for gw in self.group_works)

    @property
    def write_ios(self) -> int:
        return sum(
            len(gw.migrates) + len(gw.null_writes) + len(gw.parity_writes)
            for gw in self.group_works
        )

    @property
    def total_ios(self) -> int:
        return self.read_ios + self.write_ios

    def per_disk_ios(self, phase: int | None = None) -> np.ndarray:
        """I/O count per physical disk (optionally one phase only)."""
        counts = np.zeros(self.n, dtype=np.int64)
        for op in self.ops:
            if not op.is_io:
                continue
            if phase is not None and op.phase != phase:
                continue
            counts[op.disk] += 1
        return counts

    @property
    def phases(self) -> tuple[int, ...]:
        return tuple(sorted({gw.phase for gw in self.group_works}))

    def describe(self) -> str:
        b = self.data_blocks
        return (
            f"{self.approach} {self.code.name} ({self.m}->{self.n} disks, p={self.p}): "
            f"B={b}, reads={self.read_ios}, writes={self.write_ios}, "
            f"xors={self.xors}, invalid={self.invalid_parities}, "
            f"migrated={self.migrated_parities}, new={self.new_parities}"
        )
