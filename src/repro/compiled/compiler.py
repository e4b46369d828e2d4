"""Lower a :class:`ConversionPlan` into a :class:`CompiledPlan`.

The audited engine executes stripe-groups one at a time in ``(phase,
group)`` order; the compiled executor batches each phase into a handful
of numpy gathers and scatters.  Compilation walks only the plan's
alignment cycle of group work and tiles the resulting index vectors
over every group with numpy (:class:`~repro.migration.plan.Tiling`).
The two are byte-identical only if
reordering group work within a phase cannot change what any read
observes or which write lands last, so compilation runs a *hazard
analysis* before emitting a program:

* no physical location is written twice in a phase by different groups
  (same-group writes of different kinds keep their engine order);
* a migration read never targets a location an earlier group (or an
  earlier migration of the same group) writes in the same phase;
* a stripe-assembly read of group ``g`` never targets a location a
  *later* group migrates/NULLs/trims, nor one an *earlier* group
  parity-writes (those are the two orderings batching flips);
* reused-parity audit reads never target any location written in the
  phase.

The analysis runs on the full tiled vectors, so a wrong shift that
lands two tiles on one block is caught like any other conflict.  Every
plan the library's planners produce satisfies these (groups own
disjoint block rows; the only cross-group flow — HDP's overflow repack —
is migration-then-encode, which batching preserves).  A hand-built plan
(:meth:`~repro.migration.plan.ConversionPlan.untiled`) that violates
them raises :class:`UnsupportedPlanError` instead of silently
diverging; callers fall back to the audited engine.

Programs are memoised in-process per ``(code, approach, p, m, n,
groups, blocks_per_disk, extra)`` so benchmark sweeps that rebuild
identical plans pay compilation once per process.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict

import numpy as np

from repro.codes.base import ArrayCode
from repro.compiled.program import (
    CompiledPlan,
    FusedPhase,
    PhaseProgram,
    RegionOp,
    RegionTerm,
    SparseTerm,
)
from repro.migration.plan import ConversionPlan, GroupWork

__all__ = [
    "UnsupportedPlanError",
    "compile_plan",
    "lower_program",
    "clear_program_cache",
    "program_cache_info",
    "set_program_cache_dir",
    "program_cache_dir",
]


class UnsupportedPlanError(ValueError):
    """The plan cannot be batched without changing its semantics."""


# write kinds, in the order both the engine (within a group) and the
# executor (within a phase) apply them
_MIGRATE, _NULL, _TRIM, _PARITY = range(4)

_CACHE: dict[tuple, CompiledPlan] = {}
#: module-lifetime cache outcomes (mirrored into the repro.obs registry
#: by record_compiler_cache; kept here so clearing the registry cannot
#: lose the authoritative numbers)
_CACHE_STATS = {"hits": 0, "misses": 0}


# The benchmark harness still imports these two names (``run.py`` calls
# ``set_program_cache_dir(None)``; ``results.py`` records
# ``program_cache_dir()``); there is no on-disk program cache to point.
def set_program_cache_dir(path: None) -> None:
    if path is not None:
        raise ValueError("there is no on-disk program cache")


def program_cache_dir() -> None:
    return None


def plan_cache_key(plan: ConversionPlan) -> tuple:
    """Identity of a planner-built plan (builders are deterministic)."""
    return (
        plan.code.name,
        plan.approach,
        plan.p,
        plan.m,
        plan.n,
        plan.groups,
        plan.blocks_per_disk,
        plan.extra_blocks_per_disk,
        tuple(sorted(plan.code.layout.virtual_cells)),
    )


def clear_program_cache() -> None:
    """Drop compiled programs (hit/miss stats survive; see _CACHE_STATS)."""
    _CACHE.clear()


def program_cache_info() -> dict[str, int]:
    return {"entries": len(_CACHE), **_CACHE_STATS}


def compile_plan(plan: ConversionPlan, use_cache: bool = True) -> CompiledPlan:
    """Compile ``plan`` (memoised); raises :class:`UnsupportedPlanError`."""
    key = plan_cache_key(plan)
    if use_cache and key in _CACHE:
        _CACHE_STATS["hits"] += 1
        return _CACHE[key]
    _CACHE_STATS["misses"] += 1
    by_phase: dict[int, list[GroupWork]] = defaultdict(list)
    for gw in sorted(plan.cycle_works, key=lambda g: (g.phase, g.group)):
        by_phase[gw.phase].append(gw)
    # the cycle's (group, cell) -> (disk, block), for the uncounted
    # fills and the reused-parity audits
    cells = plan.cycle_cells
    cell_of = {
        (g, (r, c)): (d, b)
        for g, r, c, d, b in zip(
            cells.group.tolist(), cells.row.tolist(), cells.col.tolist(),
            cells.disk.tolist(), cells.block.tolist(),
        )
    }
    phases = tuple(
        _compile_phase(plan, phase, gws, cell_of) for phase, gws in sorted(by_phase.items())
    )
    program = CompiledPlan(
        key=key,
        code=plan.code,
        n_disks=plan.n,
        blocks_per_disk=plan.blocks_per_disk,
        phases=phases,
    )
    program = _lowered(program)
    if use_cache:
        _CACHE[key] = program
    return program


def _lowered(program: CompiledPlan) -> CompiledPlan:
    """:func:`lower_program`, refusing a program with an unlowered parity
    phase — the fused path is the executor's only parity tier."""
    program = lower_program(program)
    for ph in program.phases:
        if ph.batch and ph.fused is None:
            raise UnsupportedPlanError(
                f"phase {ph.phase} has parity work the fused lowering cannot "
                "express; run the plan on the audited engine"
            )
    return program


def _compile_phase(
    plan: ConversionPlan,
    phase: int,
    gws: list[GroupWork],
    cell_of: dict[tuple[int, tuple[int, int]], tuple[int, int]],
) -> PhaseProgram:
    """One phase: walk the cycle's group work once, then tile the vectors.

    Every entry is first recorded at tile 0's addresses with its group;
    :meth:`Tiling.expand` repeats it for every tile (and the partial
    last cycle) in ascending group order, and the tiling's group and
    block steps move it.  Slots are ranks among the tiled encoding
    groups, so the result is what compiling every group one by one
    would emit.
    """
    layout = plan.code.layout
    cols = layout.cols
    cps = layout.rows * cols
    bpd = plan.blocks_per_disk
    tiling = plan.tiling

    # cycle entries: (group, disk, block[, disk, block | template cell])
    migs: list[tuple[int, ...]] = []
    nulls: list[tuple[int, ...]] = []
    trims: list[tuple[int, ...]] = []
    reads: list[tuple[int, ...]] = []
    fills: list[tuple[int, ...]] = []
    parities: list[tuple[int, ...]] = []
    checks: list[tuple[int, ...]] = []
    encode_groups: list[int] = []
    for gw in gws:
        g = gw.group
        for src, dst, _rp, _wp in gw.migrates.values():
            migs.append((g, src.disk, src.block, dst.disk, dst.block))
        for loc in gw.null_writes.values():
            nulls.append((g, loc.disk, loc.block))
        for loc in gw.trims:
            trims.append((g, loc.disk, loc.block))
        if not gw.parity_writes:
            continue
        encode_groups.append(g)
        for (r, c), loc in gw.parity_writes.items():
            parities.append((g, loc.disk, loc.block, r * cols + c))
        for (r, c), loc in gw.reads.items():
            reads.append((g, loc.disk, loc.block, r * cols + c))
        # cells the engine pulls uncounted (controller memory, step 5)
        touched = set(gw.parity_writes) | set(gw.null_writes) | gw.null_cells | set(gw.reads)
        for cell in layout.data_cells:
            if cell in touched or cell in gw.migrates:
                continue
            at = cell_of.get((g, cell))
            if at is not None:
                fills.append((g, *at, cell[0] * cols + cell[1]))
        # reused parities the engine audits after encoding (step 7)
        for cell in layout.parity_cells:
            if cell in gw.parity_writes or cell in layout.virtual_cells:
                continue
            at = cell_of.get((g, cell))
            if at is not None:
                checks.append((g, *at, cell[0] * cols + cell[1]))

    def tiled(entries: list[tuple[int, ...]], width: int, addresses: int) -> np.ndarray:
        """Every tile's copy of ``entries``: group and addresses shifted."""
        cycle = np.array(entries, dtype=np.intp).reshape(-1, width)
        idx, k = tiling.expand(cycle[:, 0], plan.tail_mask(cycle[:, 0]))
        out = cycle[idx]
        out[:, 0] += k * tiling.group_step(out[:, 0])
        for a in range(addresses):
            disk, block = out[:, 1 + 2 * a], out[:, 2 + 2 * a]
            block += k * tiling.block_step(disk, block)
        return out

    mig = tiled(migs, 5, 2)
    null = tiled(nulls, 3, 1)
    trim = tiled(trims, 3, 1)
    read = tiled(reads, 4, 1)
    fill = tiled(fills, 4, 1)
    parity = tiled(parities, 4, 1)
    check = tiled(checks, 4, 1)
    slots = tiled([(g,) for g in encode_groups], 1, 0)[:, 0]
    for table in (read, fill, parity, check):
        table[:, 3] += np.searchsorted(slots, table[:, 0]) * cps

    def flat(table: np.ndarray, at: int = 1) -> np.ndarray:
        return table[:, at] * bpd + table[:, at + 1]

    writes = [(flat(mig, 3), mig[:, 0], _MIGRATE), (flat(null), null[:, 0], _NULL),
              (flat(trim), trim[:, 0], _TRIM), (flat(parity), parity[:, 0], _PARITY)]
    _check_hazards(
        np.concatenate([w[0] for w in writes]),
        np.concatenate([w[1] for w in writes]),
        np.concatenate([np.full(w[0].size, w[2], dtype=np.intp) for w in writes]),
        mig_src=(flat(mig), mig[:, 0]),
        gathers=(np.concatenate([flat(read), flat(fill)]),
                 np.concatenate([read[:, 0], fill[:, 0]])),
        check_locs=flat(check),
    )

    return PhaseProgram(
        phase=phase,
        batch=slots.size,
        migrate_src_disk=mig[:, 1].copy(),
        migrate_src_block=mig[:, 2].copy(),
        migrate_dst_disk=mig[:, 3].copy(),
        migrate_dst_block=mig[:, 4].copy(),
        null_disk=null[:, 1].copy(),
        null_block=null[:, 2].copy(),
        trim_disk=trim[:, 1].copy(),
        trim_block=trim[:, 2].copy(),
        read_disk=read[:, 1].copy(),
        read_block=read[:, 2].copy(),
        read_cell=read[:, 3].copy(),
        fill_disk=fill[:, 1].copy(),
        fill_block=fill[:, 2].copy(),
        fill_cell=fill[:, 3].copy(),
        parity_disk=parity[:, 1].copy(),
        parity_block=parity[:, 2].copy(),
        parity_cell=parity[:, 3].copy(),
        check_disk=check[:, 1].copy(),
        check_block=check[:, 2].copy(),
        check_cell=check[:, 3].copy(),
    )


def _check_hazards(
    write_loc: np.ndarray,
    write_group: np.ndarray,
    write_kind: np.ndarray,
    mig_src: tuple[np.ndarray, np.ndarray],
    gathers: tuple[np.ndarray, np.ndarray],
    check_locs: np.ndarray,
) -> None:
    """Prove phase-level batching preserves the engine's group order.

    Runs on the phase's full (tiled) vectors: writes are sorted by
    location, so a shift that lands two tiles on one block shows up as
    a multiply-written location like any other conflict.
    """
    order = np.lexsort((write_kind, write_group, write_loc))
    loc, group, kind = write_loc[order], write_group[order], write_kind[order]
    same = loc[1:] == loc[:-1]
    clash = np.flatnonzero(same & (group[1:] != group[:-1]))
    if clash.size:
        at = loc[clash[0]]
        raise UnsupportedPlanError(
            f"location {int(at)} written by multiple groups "
            f"{sorted(set(group[loc == at].tolist()))} in one phase"
        )
    twice = np.flatnonzero(same & (kind[1:] == kind[:-1]))
    if twice.size:
        raise UnsupportedPlanError(
            f"location {int(loc[twice[0]])} written twice by the same group and kind"
        )
    # one writing group per location now; which kinds it writes there
    written, first, inverse = np.unique(loc, return_index=True, return_inverse=True)
    writer = group[first]
    kinds = np.zeros(written.size, dtype=np.intp)
    np.bitwise_or.at(kinds, inverse, 1 << kind)

    def lookup(locs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(hit, writing group, kind bits) of each read location."""
        pos = np.minimum(np.searchsorted(written, locs), max(written.size - 1, 0))
        if not written.size:
            return np.zeros(locs.size, dtype=bool), pos, pos
        return written[pos] == locs, writer[pos], kinds[pos]

    src, src_group = mig_src
    hit, g_w, bits = lookup(src)
    bad = np.flatnonzero(
        hit & ((g_w < src_group) | ((g_w == src_group) & (bits & (1 << _MIGRATE) != 0)))
    )
    if bad.size:
        i = bad[0]
        raise UnsupportedPlanError(
            f"migration source {int(src[i])} of group {int(src_group[i])} is overwritten "
            f"earlier in the phase (group {int(g_w[i])})"
        )
    at, at_group = gathers
    hit, g_w, bits = lookup(at)
    after_parity = hit & (bits & (1 << _PARITY) != 0) & (g_w < at_group)
    before_write = hit & (bits & ~(1 << _PARITY) != 0) & (g_w > at_group)
    bad = np.flatnonzero(after_parity | before_write)
    if bad.size:
        i = bad[0]
        if after_parity[i]:
            raise UnsupportedPlanError(
                f"stripe read at {int(at[i])} (group {int(at_group[i])}) follows a parity "
                f"write by group {int(g_w[i])}; batching would reorder them"
            )
        raise UnsupportedPlanError(
            f"stripe read at {int(at[i])} (group {int(at_group[i])}) precedes a write by "
            f"later group {int(g_w[i])}; batching would reorder them"
        )
    hit, _g, _bits = lookup(check_locs)
    if hit.any():
        raise UnsupportedPlanError(
            f"reused-parity audit location {int(check_locs[np.argmax(hit)])} "
            "is written in the same phase"
        )


# --------------------------------------------------------------------------
# region-fusion lowering: stripe encode -> kernel-backend RegionOps
# --------------------------------------------------------------------------
#
# Read literally, a phase gathers every read/fill into a (batch, rows,
# cols, block) stripe tensor, runs ArrayCode.encode, and scatters the
# parities back — two full copies of the working set before any XOR
# happens.  The fusion pass removes both: the stripe value of any cell is, by
# construction, the physical block its slot reads/fills (or zero), so
# each parity chain can be computed for all groups at once by XOR-ing
# *views of the block store directly* into a (batch, block) destination.
# The per-slot source addresses of one member almost always form an
# arithmetic sequence (groups own evenly spaced block rows), so the
# operand is a zero-copy strided view; irregular members degrade to a
# gather and partially-sourced members to a scatter_xor, never to a
# wrong answer.  Chains whose parity feeds a later chain are computed in
# encode order and referenced from the scratch buffer, mirroring
# encode's dependency order exactly.


def lower_program(program: CompiledPlan) -> CompiledPlan:
    """Attach the fused region-op IR to every phase of ``program``.

    Fusion replays :meth:`ArrayCode.encode` symbolically, so it is only
    valid for codes using the stock chain-walk encode; a subclass with a
    custom ``encode`` keeps ``fused=None``.  Phases that cannot be
    lowered (no parity work, or a shape the pass does not model) also
    keep ``fused=None`` — lowering itself never fails;
    :func:`compile_plan` refuses any parity phase left unlowered.
    """
    if type(program.code).encode is not ArrayCode.encode:
        return program
    phases = tuple(
        dataclasses.replace(
            ph, fused=_lower_phase(ph, program.code, program.n_disks, program.blocks_per_disk)
        )
        for ph in program.phases
    )
    return dataclasses.replace(program, phases=phases)


def _classify_member(phys: np.ndarray) -> tuple[RegionTerm | None, SparseTerm | None]:
    """One member's per-slot physical addresses -> a term (``-1`` = the
    slot does not source the cell, i.e. its stripe value is zero)."""
    present = phys >= 0
    if not present.any():
        return None, None  # all-zero member: contributes nothing
    if not present.all():
        rows = np.flatnonzero(present).astype(np.intp)
        return None, SparseTerm(rows=rows, indices=phys[present].astype(np.intp))
    if phys.size == 1:
        return RegionTerm(kind="const", start=int(phys[0])), None
    steps = np.diff(phys)
    if (steps == steps[0]).all():
        step = int(steps[0])
        if step == 0:
            return RegionTerm(kind="const", start=int(phys[0])), None
        return RegionTerm(kind="stride", start=int(phys[0]), step=step), None
    return RegionTerm(kind="gather", indices=phys.astype(np.intp)), None


def _lower_phase(
    ph: PhaseProgram, code: ArrayCode, n_disks: int, bpd: int
) -> FusedPhase | None:
    if ph.batch == 0 or (ph.parity_cell.size == 0 and ph.check_cell.size == 0):
        return None
    layout = code.layout
    rows, cols = layout.rows, layout.cols
    cps = rows * cols  # cells per slot
    batch = ph.batch

    # stripe-cell sources: src[template, slot] = flat block id (or -1 = zero)
    src = np.full((cps, batch), -1, dtype=np.int64)
    for cell_v, disk_v, block_v in (
        (ph.read_cell, ph.read_disk, ph.read_block),
        (ph.fill_cell, ph.fill_disk, ph.fill_block),
    ):
        if cell_v.size:
            src[cell_v % cps, cell_v // cps] = disk_v * bpd + block_v

    # chains whose output the phase writes or audits, plus (transitively)
    # the chains those reference as members — in encode order
    out_templates = set((ph.parity_cell % cps).tolist()) | set((ph.check_cell % cps).tolist())
    virtual = layout.virtual_cells
    parity_cells = layout.parity_cells
    member_needs: set[tuple[int, int]] = set()
    needed: list = []
    for chain in reversed(layout.encode_order):
        if chain.parity in virtual:
            continue
        if chain.parity[0] * cols + chain.parity[1] in out_templates or chain.parity in member_needs:
            needed.append(chain)
            for m in chain.members:
                if m in parity_cells and m not in virtual:
                    member_needs.add(m)
    needed.reverse()
    ci_of = {chain.parity: ci for ci, chain in enumerate(needed)}

    ops = []
    for ci, chain in enumerate(needed):
        terms: list[RegionTerm] = []
        sparse: list[SparseTerm] = []
        for m in chain.members:
            if m in virtual:
                continue  # encode skips virtual members (always zero)
            if m in parity_cells:
                terms.append(RegionTerm(kind="ref", ref=ci_of[m]))
                continue
            term, sp = _classify_member(src[m[0] * cols + m[1]])
            if term is not None:
                terms.append(term)
            if sp is not None:
                sparse.append(sp)
        ops.append(
            RegionOp(chain_index=ci, parity=chain.parity, terms=tuple(terms), sparse=tuple(sparse))
        )

    # template cell -> index of the chain computing it (-1: no chain)
    chain_of = np.full(cps, -1, dtype=np.intp)
    for (r, c), ci in ci_of.items():
        chain_of[r * cols + c] = ci

    def scratch_rows(cell_v: np.ndarray) -> np.ndarray | None:
        ci = chain_of[cell_v % cps]
        if (ci < 0).any():  # a parity/check cell with no chain: not lowerable
            return None
        return ci * batch + cell_v // cps

    parity_src = scratch_rows(ph.parity_cell)
    check_src = scratch_rows(ph.check_cell)
    if parity_src is None or check_src is None:
        return None
    return FusedPhase(
        n_chains=len(needed),
        batch=batch,
        ops=tuple(ops),
        parity_src=parity_src,
        check_src=check_src,
        read_credit=np.bincount(ph.read_disk, minlength=n_disks).astype(np.int64),
    )
