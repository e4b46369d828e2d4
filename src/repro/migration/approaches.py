"""Plan builders for the three conversion approaches of Section I/V.

* ``direct``      — RAID-5 -> RAID-6 in one pass (Code 5-6, X-Code,
                    P-Code, HDP).
* ``via-raid0``   — degrade to RAID-0 (invalidate old parities with NULL
                    writes), then upgrade by generating *all* new parities
                    (EVENODD, RDP, H-Code).
* ``via-raid4``   — degrade to RAID-4 (migrate old parities to a new
                    dedicated disk, where they remain valid row parities),
                    then generate only the diagonal/anti-diagonal parities
                    (EVENODD, RDP, H-Code).

Disk mapping conventions: source disks keep indices ``0..m-1``; new disks
are appended.  The source RAID-5 is left-asymmetric (the paper's
default), under which the old parity of stripe ``s`` sits on disk
``m-1 - (s mod m)`` — for the aligned pairings this is exactly Code 5-6's
horizontal-parity anti-diagonal, HDP's anti-diagonal parity cells, and
H-Code's anti-diagonal cells once source disks map to square columns
``1..p-1``.

Shortening (``n_disks`` below the canonical width) follows Section IV-B2:
Code 5-6 adds virtual disks as its first columns; RDP/EVENODD shorten
their trailing data columns; H-Code can drop its parity-free column 0.
That is what enables the paper's same-``n`` comparisons (Table IV).

Every builder produces a block-accurate :class:`ConversionPlan`; the
engine executes it and the converted array is verified bit-for-bit, so
these op accounts are not merely counted — they are proven sufficient.
A builder walks only the groups of one :func:`alignment_cycle` and
records how each disk region's addresses move per cycle; the plan tiles
that cycle over every group (see :mod:`repro.migration.plan`).
"""

from __future__ import annotations

import numpy as np

from repro.codes.base import ArrayCode
from repro.codes.geometry import Cell, ChainKind, CodeLayout, ParityChain
from repro.codes.registry import get_code
from repro.migration.ops import Purpose
from repro.migration.plan import AddressTable, ConversionPlan, GroupWork, Location, Tiling
from repro.raid.layouts import Raid5Layout, parity_disk, raid5_placement
from repro.util.primes import is_prime

__all__ = [
    "APPROACHES",
    "supported_conversions",
    "build_plan",
    "canonical_disks",
    "conversions_for_n",
]

APPROACHES: tuple[str, ...] = ("direct", "via-raid0", "via-raid4")

#: which codes each approach supports (the paper's methodology, Sec. V-A)
_SUPPORTED: dict[str, tuple[str, ...]] = {
    "direct": ("code56", "code56-right", "xcode", "pcode", "hdp"),
    "via-raid0": ("evenodd", "rdp", "hcode"),
    "via-raid4": ("evenodd", "rdp", "hcode"),
}


def supported_conversions() -> list[tuple[str, str]]:
    """All (code, approach) pairs the planner implements."""
    return [(code, app) for app, codes in _SUPPORTED.items() for code in codes]


def canonical_disks(code_name: str, p: int) -> int:
    """Post-conversion disk count of the unshortened construction."""
    return {
        "code56": p,
        "code56-right": p,
        "rdp": p + 1,
        "evenodd": p + 2,
        "hcode": p + 1,
        "xcode": p,
        "pcode": p - 1,
        "hdp": p - 1,
    }[code_name]


def conversions_for_n(n: int, max_p: int = 31, min_p: int = 5) -> list[tuple[str, str, int]]:
    """All (code, approach, p) able to produce an ``n``-disk RAID-6.

    Uses the smallest usable prime per code (least shortening), the
    paper's Table IV selection rule.  ``min_p`` defaults to 5 because the
    ``p = 3`` constructions are degenerate (two-row stripes).
    """
    out: list[tuple[str, str, int]] = []
    primes = [q for q in range(min_p, max_p) if is_prime(q)]
    for approach, codes in _SUPPORTED.items():
        for code in codes:
            for p in primes:
                try:
                    _resolve_width(code, p, n)
                except ValueError:
                    continue
                out.append((code, approach, p))
                break
    return out


def alignment_cycle(code_name: str, p: int, n_disks: int | None = None) -> int:
    """Smallest group count over which the conversion is exactly periodic.

    The source RAID-5's rotating parity has period ``m`` stripes; a group
    consumes ``rows_pg`` stripes, so old-parity placement repeats every
    ``m / gcd(rows_pg, m)`` groups.  HDP additionally repacks displaced
    data into one overflow group per ``p-3`` source groups.  Building a
    plan over one full cycle makes every per-``B`` ratio exact.

    The cycle is also the plan's unit: :func:`build_plan` builds the work
    of one cycle and tiles it, shifting block addresses by a fixed step
    per disk region for every further cycle, plus a partial last cycle.
    """
    import math

    n = _resolve_width(code_name, p, n_disks)
    if code_name in ("code56", "code56-right"):
        m, rows_pg = n - 1, n - 1
    elif code_name in ("rdp", "evenodd"):
        m, rows_pg = n - 2, p - 1
    elif code_name == "hcode":
        m, rows_pg = p - 1, p - 1
    elif code_name == "xcode":
        m, rows_pg = p, p - 2
    elif code_name == "pcode":
        m, rows_pg = p - 1, (p - 3) // 2
    else:  # hdp
        m, rows_pg = p - 1, p - 1
    cycle = m // math.gcd(rows_pg, m)
    if code_name == "hdp":
        cycle = cycle * (p - 3) // math.gcd(cycle, p - 3)
    return cycle


def _resolve_width(code_name: str, p: int, n_disks: int | None) -> int:
    """Validate/derive the post-conversion disk count; returns ``n``."""
    canonical = canonical_disks(code_name, p)
    if n_disks is None:
        return canonical
    if n_disks == canonical:
        return n_disks
    if code_name in ("code56", "code56-right"):
        # virtual disks shrink n down to 4 (m >= 3)
        if 4 <= n_disks < canonical:
            return n_disks
        raise ValueError(f"{code_name} at p={p} supports n in 4..{canonical}")
    if code_name in ("rdp", "evenodd"):
        # trailing data columns shorten away; the source RAID-5 (m = n-2)
        # needs at least 3 disks
        if 5 <= n_disks < canonical:
            return n_disks
        raise ValueError(f"{code_name} at p={p} supports n in 5..{canonical}")
    if code_name == "hcode":
        if n_disks == p:  # column 0 dropped
            return n_disks
        raise ValueError(f"hcode at p={p} supports n of {p} or {p + 1}")
    raise ValueError(f"{code_name} cannot be shortened; n is fixed at {canonical}")


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
    """Shared geometry for one conversion build.

    Addresses are the whole array's; the builder walks only the first
    ``span`` groups — one alignment cycle, or every group when there
    are fewer than a cycle's worth — and the plan tiles them.
    """

    def __init__(
        self,
        code: ArrayCode,
        approach: str,
        m: int,
        groups: int,
        cycle: int,
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
        if groups < cycle:
            self.span, self.tiles, self.tail = groups, 1, 0
        else:
            self.span, self.tiles, self.tail = cycle, groups // cycle, groups % cycle
        self.rows_pg = source_rows_per_group
        self.col_to_disk = col_to_disk
        self.new_disks = new_disks
        self.reserve_rows = reserve_rows
        self.source_layout = source_layout
        self.source_stripes = groups * source_rows_per_group
        #: per stripe row: index among the source rows, or among the reserve rows
        self._row_src = np.full(self.layout.rows, -1, dtype=np.intp)
        self._row_res = np.full(self.layout.rows, -1, dtype=np.intp)
        src_rows = [r for r in range(self.layout.rows) if r not in reserve_rows]
        self._row_src[src_rows] = np.arange(len(src_rows))
        self._row_res[list(reserve_rows)] = np.arange(len(reserve_rows))
        self.src_rows = np.asarray(src_rows, dtype=np.intp)
        self._row_block = list(zip(self._row_src.tolist(), self._row_res.tolist()))
        self._col_of_source_disk = {d: c for c, d in col_to_disk.items() if d < m}

    # --- stripe-row -> physical block -------------------------------------
    def block_of(self, group: int, row: int) -> int:
        src, res = self._row_block[row]
        if res >= 0:
            return self.source_stripes + group * len(self.reserve_rows) + res
        return group * self.rows_pg + src

    def loc(self, group: int, cell: Cell) -> Location:
        row, col = cell
        return Location(self.col_to_disk[col], self.block_of(group, row))

    def old_parity_disk(self, source_stripe: int) -> int:
        return parity_disk(self.source_layout, source_stripe, self.m)

    def old_parity_cell(self, group: int, row: int) -> Cell:
        """Stripe cell where the source parity of group-row ``row`` sits."""
        disk = self.old_parity_disk(group * self.rows_pg + row)
        return (row, self._col_of_source_disk[disk])

    def cell_table(self) -> AddressTable:
        """Every physical cell of the cycle's groups, in ``(group, row, col)`` order."""
        rows, cols = _physical_template(self.layout)
        span = self.span
        group = np.repeat(np.arange(span, dtype=np.intp), rows.size)
        row, col = np.tile(rows, span), np.tile(cols, span)
        disk_of_col = np.full(self.layout.cols, -1, dtype=np.intp)
        disk_of_col[list(self.col_to_disk)] = list(self.col_to_disk.values())
        res, src = self._row_res[row], self._row_src[row]
        block = np.where(
            res >= 0,
            self.source_stripes + group * len(self.reserve_rows) + res,
            group * self.rows_pg + src,
        )
        return AddressTable.of(group, row, col, disk_of_col[col], block)

    def tiling(self, **overrides) -> Tiling:
        """Source rows move ``span * rows_pg`` blocks per tile, reserve rows
        ``span * len(reserve_rows)``."""
        fields = dict(
            span=self.span,
            tiles=self.tiles,
            tail=self.tail,
            disk_step=(self.span * self.rows_pg,) * self.n,
            reserve_from=self.source_stripes,
            reserve_step=self.span * len(self.reserve_rows),
            base_groups=self.groups,
        )
        fields.update(overrides)
        return Tiling(**fields)

    def tail_works(self, works: list[GroupWork]) -> list[GroupWork]:
        """The partial last cycle: the cycle's work for its first ``tail`` groups."""
        return [gw for gw in works if gw.group < self.tail]

    @property
    def blocks_per_disk(self) -> int:
        return self.source_stripes + self.groups * len(self.reserve_rows)

    @property
    def extra_blocks_per_disk(self) -> int:
        return self.groups * len(self.reserve_rows)


def _physical_template(layout: CodeLayout) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, cols)`` of a stripe's physical cells, row-major."""
    virtual = layout.virtual_cells
    cells = [
        (r, c) for r in range(layout.rows) for c in layout.physical_cols if (r, c) not in virtual
    ]
    table = np.asarray(cells, dtype=np.intp).reshape(-1, 2)
    return table[:, 0], table[:, 1]


# --------------------------------------------------------------------------
# direct conversions
# --------------------------------------------------------------------------

def _plan_direct_code56(
    p: int, groups: int, n: int, orientation: str = "left"
) -> ConversionPlan:
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
        alignment_cycle("code56", p, n),
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
    xors = _chain_xors(diag_chains, layout, frozenset())
    works: list[GroupWork] = []
    for g in range(ctx.span):
        gw = GroupWork(group=g)
        for cell in layout.data_cells:
            gw.reads[cell] = loc(g, cell)
        for ch in diag_chains:
            gw.parity_writes[ch.parity] = loc(g, ch.parity)
        gw.new_parities = len(diag_chains)
        gw.xors = xors
        works.append(gw)

    data = _inplace_data(ctx, col_of_disk)
    cells = ctx.cell_table()
    diagonal = cells.col == p - 1
    cells = AddressTable.of(
        cells.group, cells.row, cells.col,
        np.where(diagonal, m, cells.disk),
        np.where(diagonal, cells.group * (p - 1), cells.group * m) + cells.row,
    )
    return _finish(
        ctx,
        works,
        data,
        cells=cells,
        tiling=ctx.tiling(
            disk_step=(ctx.span * m,) * m + (ctx.span * (p - 1),),
            reserve_from=groups * (p - 1),
            reserve_step=0,
        ),
        blocks_per_disk=groups * (p - 1),
        extra_blocks_per_disk=0,
        notes=f"{v} virtual disk(s)" if v else "",
    )


def _plan_direct_inplace(
    code_name: str,
    p: int,
    groups: int,
    m: int,
    rows_pg: int,
    first_row: int,
    reserve_rows: tuple[int, ...],
) -> ConversionPlan:
    """In-place direct conversion of X-Code (Figure 1(c)) and P-Code.

    Source RAID-5 of ``m`` disks (X-Code ``p``, P-Code ``p-1``); every
    group takes ``rows_pg`` source rows (``p-2``; ``(p-3)/2``) as its
    data rows, stripe rows ``first_row..`` (0; 1), invalidates the old
    parities inside them (NULL writes) and writes the parity rows
    ``reserve_rows`` into reserved capacity (extra-space ratio ``2/p``;
    ``2/(p-1)``).
    """
    code = get_code(code_name, p)
    ctx = _Context(
        code,
        "direct",
        m,
        groups,
        alignment_cycle(code_name, p),
        source_rows_per_group=rows_pg,
        col_to_disk={c: c for c in range(m)},
        new_disks=(),
        reserve_rows=reserve_rows,
    )
    chains = list(code.layout.chains)
    works: list[GroupWork] = []
    for g in range(ctx.span):
        gw = GroupWork(group=g)
        dead: set[Cell] = set()
        for src_r in range(rows_pg):
            pd = ctx.old_parity_disk(g * rows_pg + src_r)
            cell = (src_r + first_row, pd)
            dead.add(cell)
            gw.null_writes[cell] = ctx.loc(g, cell)
            gw.invalid_parities += 1
        for cell in code.layout.data_cells:
            if cell not in dead:
                gw.reads[cell] = ctx.loc(g, cell)
        for ch in chains:
            gw.parity_writes[ch.parity] = ctx.loc(g, ch.parity)
        gw.new_parities = len(chains)
        gw.xors = _chain_xors(chains, code.layout, frozenset(dead))
        works.append(gw)
    data = _inplace_data(ctx, col_of_disk={d: d for d in range(m)})
    return _finish(ctx, works, data)


def _plan_direct_hdp(p: int, groups: int) -> ConversionPlan:
    """HDP direct conversion.

    Source left-asymmetric RAID-5 of ``m = p-1`` disks.  The old rotating
    parities sit exactly on HDP's anti-diagonal parity cells, so they are
    invalidated in place (overwritten by the new anti-diagonal parities —
    no NULL write needed).  The horizontal parities take the main
    diagonal, displacing ``p-1`` data blocks per group; displaced blocks
    migrate into reserved capacity organised as *overflow* HDP groups
    (extra-space ratio ``1/(p-2)``).  The cycle is a multiple of ``p-3``
    groups, which fill a whole number of overflow groups.
    """
    m = p - 1
    code = get_code("hdp", p)
    layout = code.layout
    chains = list(layout.chains)
    anti_cells = {(i, p - 2 - i) for i in range(p - 1)}
    per_overflow = layout.num_data

    def overflow_groups(base_groups: int) -> int:
        return -(-base_groups * (p - 1) // per_overflow)  # ceil

    ctx = _Context(
        code,
        "direct",
        m,
        groups,
        alignment_cycle("hdp", p),
        source_rows_per_group=p - 1,
        col_to_disk={c: c for c in range(p - 1)},
        new_disks=(),
    )
    source_blocks = ctx.source_stripes

    def overflow_loc(og: int, cell: Cell) -> Location:
        return Location(cell[1], source_blocks + og * (p - 1) + cell[0])

    def overflow_work(og: int, filled: int) -> GroupWork:
        """Overflow group ``og`` holding the first ``filled`` repacked blocks."""
        gw = GroupWork(group=groups + og)
        for ch in chains:
            gw.parity_writes[ch.parity] = overflow_loc(og, ch.parity)
        gw.new_parities = len(chains)
        gw.xors = _chain_xors(chains, layout, frozenset(layout.data_cells[filled:]))
        return gw

    xors = _chain_xors(chains, layout, frozenset())
    works: list[GroupWork] = []
    moved_idx = 0
    for g in range(ctx.span):
        gw = GroupWork(group=g)
        gw.invalid_parities = p - 1  # old parities on the anti-diagonal
        gw.null_cells.update(anti_cells)
        for cell in layout.data_cells:
            gw.reads[cell] = ctx.loc(g, cell)
        for i in range(p - 1):
            src = ctx.loc(g, (i, i))
            og, slot = divmod(moved_idx, per_overflow)
            dst = overflow_loc(og, layout.data_cells[slot])
            gw.migrates[(i, i)] = (
                src,
                dst,
                Purpose.DATA_MIGRATE_READ,
                Purpose.DATA_MIGRATE_WRITE,
            )
            moved_idx += 1
        for ch in chains:
            gw.parity_writes[ch.parity] = ctx.loc(g, ch.parity)
        gw.new_parities = len(chains)
        gw.xors = xors
        works.append(gw)

    def overflow_works(base_groups: int, reuse: list[GroupWork]) -> list[GroupWork]:
        moved = base_groups * (p - 1)
        out = []
        for og in range(overflow_groups(base_groups)):
            filled = min(per_overflow, moved - og * per_overflow)
            out.append(reuse[og] if filled == per_overflow and og < len(reuse) else overflow_work(og, filled))
        return out

    cycle_overflow = overflow_works(ctx.span, [])
    tail = ctx.tail_works(works) + overflow_works(ctx.tail, cycle_overflow)
    works += cycle_overflow

    # displaced main-diagonal data lands in the overflow groups, in order
    data = _inplace_data(ctx, col_of_disk={d: d for d in range(m)})
    diagonal = data.row == data.col
    og, slot = np.divmod(data.group * (p - 1) + data.row, per_overflow)
    dst = np.asarray(layout.data_cells, dtype=np.intp)[slot]
    data = AddressTable.of(
        np.where(diagonal, groups + og, data.group),
        np.where(diagonal, dst[:, 0], data.row),
        np.where(diagonal, dst[:, 1], data.col),
        np.where(diagonal, dst[:, 1], data.disk),
        np.where(diagonal, source_blocks + og * (p - 1) + dst[:, 0], data.block),
    )

    base = ctx.cell_table()
    n_over = len(cycle_overflow)
    rows, cols = _physical_template(layout)
    og = np.repeat(np.arange(n_over, dtype=np.intp), rows.size)
    over_rows, over_cols = np.tile(rows, n_over), np.tile(cols, n_over)
    cells = AddressTable.of(
        *(
            np.concatenate(pair)
            for pair in (
                (base.group, groups + og),
                (base.row, over_rows),
                (base.col, over_cols),
                (base.disk, over_cols),
                (base.block, source_blocks + og * (p - 1) + over_rows),
            )
        )
    )
    total_overflow = overflow_groups(groups)
    return _finish(
        ctx,
        works,
        data,
        tail=tail,
        cells=cells,
        tiling=ctx.tiling(reserve_step=n_over * (p - 1), overflow_step=n_over),
        total_groups=groups + total_overflow,
        blocks_per_disk=source_blocks + total_overflow * (p - 1),
        extra_blocks_per_disk=total_overflow * (p - 1),
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
        alignment_cycle(code_name, p, n),
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


def _plan_via_raid0(code_name: str, p: int, groups: int, n: int) -> ConversionPlan:
    """Degrade to RAID-0 (NULL the old parities), then generate all parities."""
    ctx = _horizontal_context(code_name, p, groups, "via-raid0", n)
    layout = ctx.layout
    chains = list(layout.chains)
    works: list[GroupWork] = []
    parity_cells = layout.parity_cells
    empty = {
        cell
        for cell in layout.data_cells
        if ctx.col_to_disk[cell[1]] in ctx.new_disks
    }
    for g in range(ctx.span):
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
        for ch in chains:
            upg.parity_writes[ch.parity] = ctx.loc(g, ch.parity)
        upg.new_parities = len(chains)
        upg.xors = _chain_xors(chains, layout, frozenset(dead | empty))
        works.append(upg)
    return _finish(ctx, works, _two_step_data(ctx))


def _plan_via_raid4(code_name: str, p: int, groups: int, n: int) -> ConversionPlan:
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
    for g in range(ctx.span):
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
    return _finish(ctx, works, _two_step_data(ctx))


# --------------------------------------------------------------------------
# shared assembly
# --------------------------------------------------------------------------

def _inplace_data(ctx: _Context, col_of_disk: dict[int, int]) -> AddressTable:
    """The cycle's LBAs when source data blocks stay at their physical
    location: one lookup in the RAID-5 placement table."""
    stripe, disk, _parity = raid5_placement(ctx.source_layout, ctx.m, ctx.span * ctx.rows_pg)
    group, src_row = np.divmod(stripe, ctx.rows_pg)
    col = np.zeros(ctx.m, dtype=np.intp)
    col[list(col_of_disk)] = list(col_of_disk.values())
    return AddressTable.of(group, ctx.src_rows[src_row], col[disk], disk, stripe)


def _two_step_data(ctx: _Context) -> AddressTable:
    inv = {d: c for c, d in ctx.col_to_disk.items()}
    return _inplace_data(ctx, col_of_disk={d: inv[d] for d in range(ctx.m)})


def _finish(
    ctx: _Context,
    works: list[GroupWork],
    data: AddressTable,
    tail: list[GroupWork] | None = None,
    cells: AddressTable | None = None,
    tiling: Tiling | None = None,
    total_groups: int | None = None,
    blocks_per_disk: int | None = None,
    extra_blocks_per_disk: int | None = None,
    notes: str = "",
) -> ConversionPlan:
    return ConversionPlan(
        code=ctx.code,
        approach=ctx.approach,
        p=ctx.layout.p,
        m=ctx.m,
        n=ctx.n,
        source_layout=ctx.source_layout,
        groups=total_groups if total_groups is not None else ctx.groups,
        data_blocks=ctx.source_stripes * (ctx.m - 1),
        cycle_works=works,
        tail_works=tail if tail is not None else ctx.tail_works(works),
        tiling=tiling if tiling is not None else ctx.tiling(),
        cycle_cells=cells if cells is not None else ctx.cell_table(),
        cycle_data=data,
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


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def build_plan(
    code_name: str,
    approach: str,
    p: int,
    groups: int = 4,
    n_disks: int | None = None,
) -> ConversionPlan:
    """Build the conversion plan for ``code_name`` under ``approach``.

    Parameters
    ----------
    p:
        Prime code parameter.
    groups:
        Target stripe-groups to convert (scales ``B``; every ratio is
        group-invariant over a full alignment cycle).
    n_disks:
        Post-conversion disk count.  Defaults to the canonical width
        (Section V-A pairing): EVENODD/RDP/H-Code convert a RAID-5 of
        ``p-1`` disks by adding two; Code 5-6 adds one; X-Code converts
        ``p`` disks in place; P-Code and HDP convert ``p-1`` in place.
        Smaller values shorten the code (Table IV's same-``n`` matchups).
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if approach not in _SUPPORTED:
        raise ValueError(f"unknown approach {approach!r}; known: {APPROACHES}")
    if code_name not in _SUPPORTED[approach]:
        raise ValueError(
            f"{code_name} does not support {approach} "
            f"(supported: {_SUPPORTED[approach]})"
        )
    if groups < 1:
        raise ValueError("groups must be >= 1")
    n = _resolve_width(code_name, p, n_disks)
    if approach == "direct":
        if code_name == "code56":
            return _plan_direct_code56(p, groups, n)
        if code_name == "code56-right":
            return _plan_direct_code56(p, groups, n, orientation="right")
        if code_name == "xcode":
            return _plan_direct_inplace("xcode", p, groups, p, p - 2, 0, (p - 2, p - 1))
        if code_name == "pcode":
            return _plan_direct_inplace("pcode", p, groups, p - 1, (p - 3) // 2, 1, (0,))
        return _plan_direct_hdp(p, groups)
    if approach == "via-raid0":
        return _plan_via_raid0(code_name, p, groups, n)
    return _plan_via_raid4(code_name, p, groups, n)
