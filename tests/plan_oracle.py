"""The per-group conversion planner, kept as the oracle for the tiled one.

This is the planner as it was before plans became one alignment cycle
plus a tiling: every builder below walks every stripe-group cell by cell
and records its own ``Location`` objects, LBA by LBA through
:func:`~repro.raid.layouts.locate_block`.  :func:`legacy_plan` returns
the result as a :class:`LegacyPlan` holding explicit ``group_works``,
``data_locations`` and ``cell_locations``; :func:`legacy_compile` lowers
it with the per-group phase compiler of the same era.  The tests compare
:func:`repro.migration.build_plan` and :func:`repro.compiled.compile_plan`
against both.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.codes.base import ArrayCode
from repro.codes.geometry import Cell, ChainKind, CodeLayout, ParityChain
from repro.codes.registry import get_code
from repro.compiled.program import PhaseProgram
from repro.migration.approaches import _resolve_width
from repro.migration.ops import IOOp, Purpose
from repro.migration.plan import GroupWork, Location
from repro.raid.layouts import Raid5Layout, parity_disk

# --------------------------------------------------------------------------
# XOR accounting
# --------------------------------------------------------------------------

def _real_members(
    chain: ParityChain,
    layout: CodeLayout,
    dead_cells: frozenset[Cell],
) -> list[Cell]:
    """Chain members that actually contribute payload (not virtual/NULL)."""
    return [
        m
        for m in chain.members
        if m not in layout.virtual_cells and m not in dead_cells
    ]


def _chain_xors(
    chains: list[ParityChain],
    layout: CodeLayout,
    dead_cells: frozenset[Cell],
) -> int:
    """XORs to evaluate ``chains``, skipping zero-valued members.

    EVENODD gets the smart accounting: its adjuster ``S`` (the shared
    tail of every diagonal chain) is computed once and folded into each
    diagonal with a single extra XOR, as a real controller would.
    """
    if layout.name == "evenodd":
        from repro.codes.evenodd import adjuster_cells

        s_cells = set(adjuster_cells(layout.p))
        live_s = [
            c for c in s_cells
            if c not in layout.virtual_cells and c not in dead_cells
        ]
        total = 0
        s_counted = False
        for chain in chains:
            if chain.kind is ChainKind.HORIZONTAL:
                total += max(len(_real_members(chain, layout, dead_cells)) - 1, 0)
                continue
            if not s_counted:
                total += max(len(live_s) - 1, 0)
                s_counted = True
            diag = [
                m
                for m in _real_members(chain, layout, dead_cells)
                if m not in s_cells
            ]
            total += max(len(diag) - 1, 0) + (1 if live_s and diag else 0)
        return total
    return sum(
        max(len(_real_members(ch, layout, dead_cells)) - 1, 0) for ch in chains
    )


# --------------------------------------------------------------------------
# shared context
# --------------------------------------------------------------------------

class _Context:
    """Shared geometry for one conversion build."""

    def __init__(
        self,
        code: ArrayCode,
        approach: str,
        m: int,
        groups: int,
        source_rows_per_group: int,
        col_to_disk: dict[int, int],
        new_disks: tuple[int, ...],
        reserve_rows: tuple[int, ...] = (),
        source_layout: Raid5Layout = Raid5Layout.LEFT_ASYMMETRIC,
    ):
        self.code = code
        self.layout = code.layout
        self.approach = approach
        self.m = m
        self.n = code.layout.n_disks
        self.groups = groups
        self.rows_pg = source_rows_per_group
        self.col_to_disk = col_to_disk
        self.new_disks = new_disks
        self.reserve_rows = reserve_rows
        self.source_layout = source_layout
        self.source_stripes = groups * source_rows_per_group

    # --- stripe-row -> physical block -------------------------------------
    def block_of(self, group: int, row: int) -> int:
        if row in self.reserve_rows:
            idx = self.reserve_rows.index(row)
            return self.source_stripes + group * len(self.reserve_rows) + idx
        src_idx = sum(1 for r in range(row) if r not in self.reserve_rows)
        return group * self.rows_pg + src_idx

    def loc(self, group: int, cell: Cell) -> Location:
        row, col = cell
        return Location(self.col_to_disk[col], self.block_of(group, row))

    def old_parity_disk(self, source_stripe: int) -> int:
        return parity_disk(self.source_layout, source_stripe, self.m)

    def old_parity_cell(self, group: int, row: int) -> Cell:
        """Stripe cell where the source parity of group-row ``row`` sits."""
        disk = self.old_parity_disk(group * self.rows_pg + row)
        col = next(
            c for c, d in self.col_to_disk.items()
            if d == disk and c in self._source_cols
        )
        return (row, col)

    @property
    def _source_cols(self) -> set[int]:
        return {
            c for c, d in self.col_to_disk.items() if d < self.m
        }

    def cell_locations(self) -> dict[tuple[int, Cell], Location]:
        out: dict[tuple[int, Cell], Location] = {}
        virtual = self.layout.virtual_cells
        for g in range(self.groups):
            for r in range(self.layout.rows):
                for c in self.layout.physical_cols:
                    if (r, c) in virtual:
                        continue
                    out[(g, (r, c))] = self.loc(g, (r, c))
        return out

    @property
    def blocks_per_disk(self) -> int:
        return self.source_stripes + self.groups * len(self.reserve_rows)

    @property
    def extra_blocks_per_disk(self) -> int:
        return self.groups * len(self.reserve_rows)


# --------------------------------------------------------------------------
# direct conversions
# --------------------------------------------------------------------------

def _plan_direct_code56(
    p: int, groups: int, n: int, orientation: str = "left"
) -> LegacyPlan:
    """Code 5-6's conversion (Algorithm 2's conversion thread).

    Source left-asymmetric RAID-5 of ``m = n-1`` disks; one disk is added
    for the diagonal column.  When ``m < p-1`` the leading ``v = p-1-m``
    columns are virtual disks (Section IV-B2): rows whose horizontal
    parity would land on a virtual disk carry no data, so each group
    consumes ``m`` source stripes and the diagonal column still spans all
    ``p-1`` rows.  The rotating parities already *are* the horizontal
    parities, so the only work is generating the diagonal column.

    ``orientation="right"`` converts a *right-asymmetric* RAID-5 with the
    mirrored layout of Fig. 7 (Section IV-B1): same accounting, mirrored
    placement (the horizontal parities sit on the main diagonal).
    """
    m = n - 1
    v = p - 1 - m
    if orientation == "left":
        code = get_code("code56", p, virtual_cols=tuple(range(v)))
        col_to_disk = {c: c - v for c in range(v, p - 1)}
        source_layout = Raid5Layout.LEFT_ASYMMETRIC
        col_of_disk = {d: d + v for d in range(m)}
    else:
        code = get_code("code56-right", p, virtual_cols=tuple(range(m, p - 1)))
        col_to_disk = {c: c for c in range(m)}
        source_layout = Raid5Layout.RIGHT_ASYMMETRIC
        col_of_disk = {d: d for d in range(m)}
    layout = code.layout
    col_to_disk[p - 1] = m
    ctx = _Context(
        code,
        "direct",
        m,
        groups,
        source_rows_per_group=m,
        col_to_disk=col_to_disk,
        new_disks=(m,),
        source_layout=source_layout,
    )

    def loc(g: int, cell: Cell) -> Location:
        row, col = cell
        if col == p - 1:  # diagonal column spans all p-1 rows per group
            return Location(m, g * (p - 1) + row)
        return Location(col_to_disk[col], g * m + row)

    diag_chains = [
        ch
        for ch in layout.chains
        if ch.kind is ChainKind.DIAGONAL
        and _real_members(ch, layout, frozenset())
    ]
    works: list[GroupWork] = []
    for g in range(groups):
        gw = GroupWork(group=g)
        for cell in layout.data_cells:
            gw.reads[cell] = loc(g, cell)
        for ch in diag_chains:
            gw.parity_writes[ch.parity] = loc(g, ch.parity)
        gw.new_parities = len(diag_chains)
        gw.xors = _chain_xors(diag_chains, layout, frozenset())
        works.append(gw)

    from repro.raid.layouts import locate_block

    data_locations: dict[int, tuple[int, Cell]] = {}
    capacity = ctx.source_stripes * (m - 1)
    for lba in range(capacity):
        stripe, disk = locate_block(ctx.source_layout, lba, m)
        g, row = divmod(stripe, m)
        data_locations[lba] = (g, (row, col_of_disk[disk]))

    cell_locs: dict[tuple[int, Cell], Location] = {}
    virtual = layout.virtual_cells
    for g in range(groups):
        for r in range(layout.rows):
            for c in layout.physical_cols:
                if (r, c) in virtual:
                    continue
                cell_locs[(g, (r, c))] = loc(g, (r, c))
    return _finish(
        ctx,
        works,
        data_locations,
        cell_locations=cell_locs,
        blocks_per_disk=groups * (p - 1),
        extra_blocks_per_disk=0,
        notes=f"{v} virtual disk(s)" if v else "",
    )


def _plan_direct_xcode(p: int, groups: int) -> LegacyPlan:
    """X-Code direct conversion (Figure 1(c)).

    Source RAID-5 of ``m = p`` disks; every group takes ``p-2`` source
    rows as its data rows, invalidates the old parities inside them
    (NULL writes) and writes the two parity rows into reserved capacity
    (extra-space ratio ``2/p``).
    """
    m = p
    code = get_code("xcode", p)
    ctx = _Context(
        code,
        "direct",
        m,
        groups,
        source_rows_per_group=p - 2,
        col_to_disk={c: c for c in range(p)},
        new_disks=(),
        reserve_rows=(p - 2, p - 1),
    )
    works: list[GroupWork] = []
    for g in range(groups):
        gw = GroupWork(group=g)
        dead: set[Cell] = set()
        for r in range(p - 2):
            pd = ctx.old_parity_disk(g * (p - 2) + r)
            cell = (r, pd)
            dead.add(cell)
            gw.null_writes[cell] = ctx.loc(g, cell)
            gw.invalid_parities += 1
        for r in range(p - 2):
            for c in range(p):
                if (r, c) not in dead:
                    gw.reads[(r, c)] = ctx.loc(g, (r, c))
        for ch in code.layout.chains:
            gw.parity_writes[ch.parity] = ctx.loc(g, ch.parity)
        gw.new_parities = len(code.layout.chains)
        gw.xors = _chain_xors(list(code.layout.chains), code.layout, frozenset(dead))
        works.append(gw)
    data_locations = _inplace_data_locations(ctx, col_of_disk={d: d for d in range(m)})
    return _finish(ctx, works, data_locations)


def _plan_direct_pcode(p: int, groups: int) -> LegacyPlan:
    """P-Code direct conversion.

    Source RAID-5 of ``m = p-1`` disks; each group takes ``(p-3)/2``
    source rows as stripe rows ``1..``, invalidates old parities, and
    writes the parity row 0 into reserved capacity (ratio ``2/(p-1)``).
    """
    m = p - 1
    code = get_code("pcode", p)
    rows_pg = (p - 3) // 2
    ctx = _Context(
        code,
        "direct",
        m,
        groups,
        source_rows_per_group=rows_pg,
        col_to_disk={c: c for c in range(p - 1)},
        new_disks=(),
        reserve_rows=(0,),
    )
    works: list[GroupWork] = []
    for g in range(groups):
        gw = GroupWork(group=g)
        dead: set[Cell] = set()
        for src_r in range(rows_pg):
            pd = ctx.old_parity_disk(g * rows_pg + src_r)
            cell = (src_r + 1, pd)
            dead.add(cell)
            gw.null_writes[cell] = ctx.loc(g, cell)
            gw.invalid_parities += 1
        for cell in code.layout.data_cells:
            if cell not in dead:
                gw.reads[cell] = ctx.loc(g, cell)
        for ch in code.layout.chains:
            gw.parity_writes[ch.parity] = ctx.loc(g, ch.parity)
        gw.new_parities = len(code.layout.chains)
        gw.xors = _chain_xors(list(code.layout.chains), code.layout, frozenset(dead))
        works.append(gw)
    data_locations = _inplace_data_locations(ctx, col_of_disk={d: d for d in range(m)})
    return _finish(ctx, works, data_locations)


def _plan_direct_hdp(p: int, groups: int) -> LegacyPlan:
    """HDP direct conversion.

    Source left-asymmetric RAID-5 of ``m = p-1`` disks.  The old rotating
    parities sit exactly on HDP's anti-diagonal parity cells, so they are
    invalidated in place (overwritten by the new anti-diagonal parities —
    no NULL write needed).  The horizontal parities take the main
    diagonal, displacing ``p-1`` data blocks per group; displaced blocks
    migrate into reserved capacity organised as *overflow* HDP groups
    (extra-space ratio ``1/(p-2)``).
    """
    m = p - 1
    code = get_code("hdp", p)
    layout = code.layout
    anti_cells = {(i, p - 2 - i) for i in range(p - 1)}
    per_overflow = layout.num_data
    moved_total = groups * (p - 1)
    overflow_groups = -(-moved_total // per_overflow)  # ceil

    ctx = _Context(
        code,
        "direct",
        m,
        groups,
        source_rows_per_group=p - 1,
        col_to_disk={c: c for c in range(p - 1)},
        new_disks=(),
    )
    source_blocks = ctx.source_stripes

    def overflow_loc(og: int, cell: Cell) -> Location:
        return Location(cell[1], source_blocks + og * (p - 1) + cell[0])

    works: list[GroupWork] = []
    data_locations: dict[int, tuple[int, Cell]] = {}
    moved_idx = 0
    overflow_fill: dict[int, list[Cell]] = {og: [] for og in range(overflow_groups)}
    for g in range(groups):
        gw = GroupWork(group=g)
        gw.invalid_parities = p - 1  # old parities on the anti-diagonal
        gw.null_cells.update(anti_cells)
        for cell in layout.data_cells:
            gw.reads[cell] = ctx.loc(g, cell)
        for i in range(p - 1):
            src = ctx.loc(g, (i, i))
            og, slot = divmod(moved_idx, per_overflow)
            dst_cell = layout.data_cells[slot]
            dst = overflow_loc(og, dst_cell)
            gw.migrates[(i, i)] = (
                src,
                dst,
                Purpose.DATA_MIGRATE_READ,
                Purpose.DATA_MIGRATE_WRITE,
            )
            overflow_fill[og].append(dst_cell)
            moved_idx += 1
        for ch in layout.chains:
            gw.parity_writes[ch.parity] = ctx.loc(g, ch.parity)
        gw.new_parities = len(layout.chains)
        gw.xors = _chain_xors(list(layout.chains), layout, frozenset())
        works.append(gw)

    for og in range(overflow_groups):
        gw = GroupWork(group=groups + og)
        filled = set(overflow_fill[og])
        dead = frozenset(set(layout.data_cells) - filled)
        for ch in layout.chains:
            gw.parity_writes[ch.parity] = overflow_loc(og, ch.parity)
        gw.new_parities = len(layout.chains)
        gw.xors = _chain_xors(list(layout.chains), layout, dead)
        works.append(gw)

    moved_idx = 0
    remap: dict[tuple[int, Cell], tuple[int, Cell]] = {}
    for g in range(groups):
        for i in range(p - 1):
            og, slot = divmod(moved_idx, per_overflow)
            remap[(g, (i, i))] = (groups + og, layout.data_cells[slot])
            moved_idx += 1
    base = _inplace_data_locations(ctx, col_of_disk={d: d for d in range(m)})
    for lba, (g, cell) in base.items():
        data_locations[lba] = remap.get((g, cell), (g, cell))

    cell_locs = ctx.cell_locations()
    for og in range(overflow_groups):
        for r in range(layout.rows):
            for c in layout.physical_cols:
                cell_locs[(groups + og, (r, c))] = overflow_loc(og, (r, c))
    return _finish(
        ctx,
        works,
        data_locations,
        cell_locations=cell_locs,
        total_groups=groups + overflow_groups,
        blocks_per_disk=source_blocks + overflow_groups * (p - 1),
        extra_blocks_per_disk=overflow_groups * (p - 1),
        notes=(
            "displaced main-diagonal data is repacked into overflow HDP "
            "groups in reserved capacity"
        ),
    )


# --------------------------------------------------------------------------
# two-step conversions (horizontal codes)
# --------------------------------------------------------------------------

def _horizontal_context(code_name: str, p: int, groups: int, approach: str, n: int) -> _Context:
    """Disk mapping for EVENODD / RDP / H-Code conversions."""
    if code_name == "rdp":
        m = n - 2
        virtual = tuple(range(m, p - 1))
        code = get_code("rdp", p, virtual_cols=virtual)
        col_to_disk = {c: c for c in range(m)}
        col_to_disk[p - 1] = m  # row-parity disk
        col_to_disk[p] = m + 1  # diagonal-parity disk
        new = (m, m + 1)
    elif code_name == "evenodd":
        m = n - 2
        virtual = tuple(range(m, p))
        code = get_code("evenodd", p, virtual_cols=virtual)
        col_to_disk = {c: c for c in range(m)}
        col_to_disk[p] = m
        col_to_disk[p + 1] = m + 1
        new = (m, m + 1)
    elif code_name == "hcode":
        # source disks become square columns 1..p-1 so the old rotating
        # parities land exactly on the anti-diagonal parity cells.
        m = p - 1
        if n == p + 1:
            # column 0 is a brand-new (empty) data disk, column p the new
            # horizontal-parity disk.
            code = get_code("hcode", p)
            col_to_disk = {c: c - 1 for c in range(1, p)}
            col_to_disk[0] = m
            col_to_disk[p] = m + 1
            new = (m, m + 1)
        else:  # n == p: drop column 0 entirely
            code = get_code("hcode", p, virtual_cols=(0,))
            col_to_disk = {c: c - 1 for c in range(1, p)}
            col_to_disk[p] = m
            new = (m,)
    else:  # pragma: no cover - guarded by build_plan
        raise ValueError(code_name)
    return _Context(
        code,
        approach,
        m,
        groups,
        source_rows_per_group=p - 1,
        col_to_disk=col_to_disk,
        new_disks=new,
    )


def _group_source_cells(ctx: _Context, group: int) -> tuple[list[Cell], set[Cell]]:
    """(data cells, old-parity cells) of one group, by stripe position."""
    src_disks = set(range(ctx.m))
    parity_cells = {ctx.old_parity_cell(group, r) for r in range(ctx.rows_pg)}
    data = [
        cell
        for cell in ctx.layout.data_cells
        if cell not in parity_cells
        and ctx.col_to_disk[cell[1]] in src_disks
        and cell[0] < ctx.rows_pg
    ]
    return data, parity_cells


def _plan_via_raid0(code_name: str, p: int, groups: int, n: int) -> LegacyPlan:
    """Degrade to RAID-0 (NULL the old parities), then generate all parities."""
    ctx = _horizontal_context(code_name, p, groups, "via-raid0", n)
    layout = ctx.layout
    works: list[GroupWork] = []
    parity_cells = layout.parity_cells
    empty = {
        cell
        for cell in layout.data_cells
        if ctx.col_to_disk[cell[1]] in ctx.new_disks
    }
    for g in range(groups):
        data_cells, old_parity = _group_source_cells(ctx, g)
        # phase 0: invalidate old parities
        deg = GroupWork(group=g, phase=0)
        dead: set[Cell] = set()
        for cell in old_parity:
            dead.add(cell)
            deg.invalid_parities += 1
            if cell in parity_cells:
                # the slot is about to hold a new parity; skip the NULL write
                deg.null_cells.add(cell)
            else:
                deg.null_writes[cell] = ctx.loc(g, cell)
        works.append(deg)
        # phase 1: read data, generate every parity chain
        upg = GroupWork(group=g, phase=1)
        upg.null_cells.update(dead)
        for cell in data_cells:
            upg.reads[cell] = ctx.loc(g, cell)
        for ch in layout.chains:
            upg.parity_writes[ch.parity] = ctx.loc(g, ch.parity)
        upg.new_parities = len(layout.chains)
        upg.xors = _chain_xors(list(layout.chains), layout, frozenset(dead | empty))
        works.append(upg)
    data_locations = _two_step_data_locations(ctx)
    return _finish(ctx, works, data_locations)


def _plan_via_raid4(code_name: str, p: int, groups: int, n: int) -> LegacyPlan:
    """Migrate old parities to a dedicated disk, then generate diagonals.

    The migrated blocks remain valid horizontal parities (for H-Code they
    move from the anti-diagonal cells to the new column ``p``; for
    RDP/EVENODD from the rotating slots to the new row-parity column).
    """
    ctx = _horizontal_context(code_name, p, groups, "via-raid4", n)
    layout = ctx.layout
    works: list[GroupWork] = []
    horizontal = [ch for ch in layout.chains if ch.kind is ChainKind.HORIZONTAL]
    diagonal = [ch for ch in layout.chains if ch.kind is ChainKind.DIAGONAL]
    empty = {
        cell
        for cell in layout.data_cells
        if ctx.col_to_disk[cell[1]] in ctx.new_disks
    }
    for g in range(groups):
        data_cells, old_parity_cells = _group_source_cells(ctx, g)
        # phase 0: parity migration (degrade to RAID-4)
        deg = GroupWork(group=g, phase=0)
        vacated: set[Cell] = set()
        for r in range(ctx.rows_pg):
            src_cell = ctx.old_parity_cell(g, r)
            dst_cell = horizontal[r].parity
            deg.migrates[dst_cell] = (
                ctx.loc(g, src_cell),
                ctx.loc(g, dst_cell),
                Purpose.PARITY_MIGRATE_READ,
                Purpose.PARITY_MIGRATE_WRITE,
            )
            deg.migrated_parities += 1
            vacated.add(src_cell)
            if src_cell not in layout.parity_cells:
                # the vacated slot becomes a free (NULL) data cell —
                # metadata-only trim, no counted I/O (paper's taxonomy)
                deg.trims.append(ctx.loc(g, src_cell))
                deg.null_cells.add(src_cell)
        works.append(deg)
        # phase 1: generate diagonal/anti-diagonal parities
        upg = GroupWork(group=g, phase=1)
        dead = {c for c in vacated if c not in layout.parity_cells}
        upg.null_cells.update(dead)
        for cell in data_cells:
            upg.reads[cell] = ctx.loc(g, cell)
        # RDP's diagonal chains cover the row-parity column: those blocks
        # were written in phase 0 and must be read back in phase 1 (the
        # two steps are separate whole-array passes).
        needed_parities = {
            mem
            for ch in diagonal
            for mem in ch.members
            if mem in layout.parity_cells and mem not in dead
        }
        for cell in sorted(needed_parities):
            upg.reads[cell] = ctx.loc(g, cell)
            upg.read_purposes[cell] = Purpose.PARITY_MIGRATE_READ
        for ch in diagonal:
            upg.parity_writes[ch.parity] = ctx.loc(g, ch.parity)
        upg.new_parities = len(diagonal)
        upg.xors = _chain_xors(diagonal, layout, frozenset(dead | empty))
        works.append(upg)
    data_locations = _two_step_data_locations(ctx)
    return _finish(ctx, works, data_locations)


# --------------------------------------------------------------------------
# shared assembly
# --------------------------------------------------------------------------

def _inplace_data_locations(ctx: _Context, col_of_disk: dict[int, int]) -> dict[int, tuple[int, Cell]]:
    """Logical map when source data blocks stay at their physical location."""
    from repro.raid.layouts import locate_block

    out: dict[int, tuple[int, Cell]] = {}
    capacity = ctx.source_stripes * (ctx.m - 1)
    rows_pg = ctx.rows_pg
    reserve = set(ctx.reserve_rows)
    src_to_stripe_row = [r for r in range(ctx.layout.rows) if r not in reserve]
    for lba in range(capacity):
        stripe, disk = locate_block(ctx.source_layout, lba, ctx.m)
        g, src_row = divmod(stripe, rows_pg)
        out[lba] = (g, (src_to_stripe_row[src_row], col_of_disk[disk]))
    return out


def _two_step_data_locations(ctx: _Context) -> dict[int, tuple[int, Cell]]:
    inv = {d: c for c, d in ctx.col_to_disk.items()}
    return _inplace_data_locations(ctx, col_of_disk={d: inv[d] for d in range(ctx.m)})


def _finish(
    ctx: _Context,
    works: list[GroupWork],
    data_locations: dict[int, tuple[int, Cell]],
    cell_locations: dict[tuple[int, Cell], Location] | None = None,
    total_groups: int | None = None,
    blocks_per_disk: int | None = None,
    extra_blocks_per_disk: int | None = None,
    notes: str = "",
) -> LegacyPlan:
    return LegacyPlan(
        code=ctx.code,
        approach=ctx.approach,
        p=ctx.layout.p,
        m=ctx.m,
        n=ctx.n,
        source_layout=ctx.source_layout,
        groups=total_groups if total_groups is not None else ctx.groups,
        data_blocks=ctx.source_stripes * (ctx.m - 1),
        group_works=works,
        data_locations=data_locations,
        cell_locations=cell_locations if cell_locations is not None else ctx.cell_locations(),
        col_to_disk=dict(ctx.col_to_disk),
        new_disks=ctx.new_disks,
        blocks_per_disk=blocks_per_disk if blocks_per_disk is not None else ctx.blocks_per_disk,
        extra_blocks_per_disk=(
            extra_blocks_per_disk
            if extra_blocks_per_disk is not None
            else ctx.extra_blocks_per_disk
        ),
        notes=notes,
    )


@dataclass
class LegacyPlan:
    """A conversion plan with every group's work spelled out."""

    code: ArrayCode
    approach: str
    p: int
    m: int
    n: int
    source_layout: Raid5Layout
    groups: int
    data_blocks: int
    group_works: list[GroupWork]
    data_locations: dict[int, tuple[int, Cell]]
    cell_locations: dict[tuple[int, Cell], Location]
    col_to_disk: dict[int, int]
    new_disks: tuple[int, ...]
    blocks_per_disk: int
    extra_blocks_per_disk: int
    notes: str = ""

    @cached_property
    def ops(self) -> list[IOOp]:
        out: list[IOOp] = []
        for gw in sorted(self.group_works, key=lambda g: (g.phase, g.group)):
            out.extend(gw.ops())
        return out

    def tallies(self) -> dict[str, int]:
        works = self.group_works
        return {
            "xors": sum(gw.xors for gw in works),
            "invalid_parities": sum(gw.invalid_parities for gw in works),
            "migrated_parities": sum(gw.migrated_parities for gw in works),
            "new_parities": sum(gw.new_parities for gw in works),
            "read_ios": sum(len(gw.reads) + len(gw.migrates) for gw in works),
            "write_ios": sum(
                len(gw.migrates) + len(gw.null_writes) + len(gw.parity_writes)
                for gw in works
            ),
        }


def legacy_plan(
    code_name: str, approach: str, p: int, groups: int, n_disks: int | None = None
) -> LegacyPlan:
    """The per-group builder's plan for the same arguments as ``build_plan``."""
    n = _resolve_width(code_name, p, n_disks)
    if approach == "direct":
        if code_name == "code56":
            return _plan_direct_code56(p, groups, n)
        if code_name == "code56-right":
            return _plan_direct_code56(p, groups, n, orientation="right")
        builder = {
            "xcode": _plan_direct_xcode,
            "pcode": _plan_direct_pcode,
            "hdp": _plan_direct_hdp,
        }[code_name]
        return builder(p, groups)
    if approach == "via-raid0":
        return _plan_via_raid0(code_name, p, groups, n)
    return _plan_via_raid4(code_name, p, groups, n)


# --------------------------------------------------------------------------
# the per-group phase compiler (index vectors only; no hazard analysis)
# --------------------------------------------------------------------------

def legacy_compile(plan: LegacyPlan) -> list[PhaseProgram]:
    """Every phase of ``plan`` as the per-group compiler emitted it."""
    by_phase: dict[int, list[GroupWork]] = defaultdict(list)
    for gw in sorted(plan.group_works, key=lambda g: (g.phase, g.group)):
        by_phase[gw.phase].append(gw)
    return [_compile_phase(plan, phase, gws) for phase, gws in sorted(by_phase.items())]


def _compile_phase(plan: LegacyPlan, phase: int, gws: list[GroupWork]) -> PhaseProgram:
    layout = plan.code.layout
    rows, cols = layout.rows, layout.cols

    mig_src: list[tuple[int, int]] = []
    mig_dst: list[tuple[int, int]] = []
    nulls: list[tuple[int, int]] = []
    trims: list[tuple[int, int]] = []
    encode_groups = [gw for gw in gws if gw.parity_writes]
    slot_of = {gw.group: i for i, gw in enumerate(encode_groups)}
    for gw in gws:
        for src, dst, _rp, _wp in gw.migrates.values():
            mig_src.append((src.disk, src.block))
            mig_dst.append((dst.disk, dst.block))
        for loc in gw.null_writes.values():
            nulls.append((loc.disk, loc.block))
        for loc in gw.trims:
            trims.append((loc.disk, loc.block))

    reads: list[tuple[int, int, int]] = []
    fills: list[tuple[int, int, int]] = []
    parities: list[tuple[int, int, int]] = []
    checks: list[tuple[int, int, int]] = []
    for gw in encode_groups:
        base = slot_of[gw.group] * rows * cols

        def cell_idx(cell) -> int:
            return base + cell[0] * cols + cell[1]

        for cell, loc in gw.parity_writes.items():
            parities.append((loc.disk, loc.block, cell_idx(cell)))
        for cell, loc in gw.reads.items():
            reads.append((loc.disk, loc.block, cell_idx(cell)))
        touched = set(gw.parity_writes) | set(gw.null_writes) | gw.null_cells | set(gw.reads)
        for cell in layout.data_cells:
            if cell in touched or cell in gw.migrates:
                continue
            loc = plan.cell_locations.get((gw.group, cell))
            if loc is not None:
                fills.append((loc.disk, loc.block, cell_idx(cell)))
        for cell in layout.parity_cells:
            if cell in gw.parity_writes or cell in layout.virtual_cells:
                continue
            loc = plan.cell_locations.get((gw.group, cell))
            if loc is None:
                continue
            checks.append((loc.disk, loc.block, cell_idx(cell)))

    def cols_of(pairs: list, idx: int) -> np.ndarray:
        return np.array([p[idx] for p in pairs], dtype=np.intp)

    return PhaseProgram(
        phase=phase,
        batch=len(encode_groups),
        migrate_src_disk=cols_of(mig_src, 0),
        migrate_src_block=cols_of(mig_src, 1),
        migrate_dst_disk=cols_of(mig_dst, 0),
        migrate_dst_block=cols_of(mig_dst, 1),
        null_disk=cols_of(nulls, 0),
        null_block=cols_of(nulls, 1),
        trim_disk=cols_of(trims, 0),
        trim_block=cols_of(trims, 1),
        read_disk=cols_of(reads, 0),
        read_block=cols_of(reads, 1),
        read_cell=cols_of(reads, 2),
        fill_disk=cols_of(fills, 0),
        fill_block=cols_of(fills, 1),
        fill_cell=cols_of(fills, 2),
        parity_disk=cols_of(parities, 0),
        parity_block=cols_of(parities, 1),
        parity_cell=cols_of(parities, 2),
        check_disk=cols_of(checks, 0),
        check_block=cols_of(checks, 1),
        check_cell=cols_of(checks, 2),
    )
