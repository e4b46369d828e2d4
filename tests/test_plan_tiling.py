"""The tiled planner equals the per-group planner it replaced.

``build_plan`` walks one alignment cycle and tiles it; the oracle
(:mod:`tests.plan_oracle`) walks every group.  For every conversion pair
at p = 5..23, at 1, cycle, cycle+1 and 48 groups, and for every
shortened width :func:`conversions_for_n` builds for 4-14 disks, the two
must agree on the group work, the op stream, both address maps, every
tally, the per-disk I/O, and the compiled and lowered programs.
"""

import dataclasses
import gc

import numpy as np
import pytest

from repro.compiled import recovery
from repro.compiled.compiler import _lower_phase, compile_plan, lower_program
from repro.compiled.program import CompiledPlan, PhaseProgram
from repro.migration.approaches import (
    alignment_cycle,
    build_plan,
    canonical_disks,
    conversions_for_n,
    supported_conversions,
)
from tests.plan_oracle import legacy_compile, legacy_plan

PRIMES = (5, 7, 11, 13, 17, 19, 23)
#: where the verifier's gather indices are also checked against a dict walk
GATHER_PRIMES = (5, 7, 13)

#: the index-vector fields of a compiled phase
_PHASE_FIELDS = tuple(
    f.name for f in dataclasses.fields(PhaseProgram)
    if f.name.endswith(("_disk", "_block", "_cell"))
)

TALLIES = (
    "xors", "invalid_parities", "migrated_parities", "new_parities", "read_ios", "write_ios",
)

CANONICAL = [(code, approach, p, None) for p in PRIMES for code, approach in supported_conversions()]
SHORTENED = sorted(
    {
        (code, approach, p, n)
        for n in range(4, 15)
        for code, approach, p in conversions_for_n(n)
        if n != canonical_disks(code, p)
    }
)


def _case_id(case) -> str:
    code, approach, p, n = case
    return f"{code}-{approach}-p{p}" + (f"-n{n}" if n else "")


def group_counts(code: str, p: int, n: int | None) -> list[int]:
    cycle = alignment_cycle(code, p, n)
    return sorted({1, cycle, cycle + 1, 48})


def _work_key(gw) -> tuple:
    return (
        gw.group, gw.phase, gw.reads, gw.read_purposes, gw.null_writes, gw.null_cells,
        gw.parity_writes, gw.migrates, gw.trims, gw.xors, gw.invalid_parities,
        gw.migrated_parities, gw.new_parities,
    )


def _op_stream_per_disk(ops, n: int) -> dict[int | None, np.ndarray]:
    """Per-disk I/O counted op by op (the pre-tiling definition), for the
    whole plan and for each phase."""
    io = np.array([(op.disk, op.phase) for op in ops if op.is_io], dtype=np.intp).reshape(-1, 2)
    counts = {None: np.bincount(io[:, 0], minlength=n)}
    for phase in (0, 1):
        counts[phase] = np.bincount(io[io[:, 1] == phase, 0], minlength=n)
    return counts


def _assert_same_term(a, b) -> None:
    assert (a.kind, a.start, a.step, a.ref) == (b.kind, b.start, b.step, b.ref)
    assert (a.indices is None) == (b.indices is None)
    if a.indices is not None:
        assert np.array_equal(a.indices, b.indices)


def assert_same_fused(a, b) -> None:
    """Two FusedPhases equal field for field (None equals None)."""
    assert (a is None) == (b is None)
    if a is None:
        return
    assert (a.n_chains, a.batch) == (b.n_chains, b.batch)
    for name in ("parity_src", "check_src", "read_credit"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name
    assert len(a.ops) == len(b.ops)
    for x, y in zip(a.ops, b.ops):
        assert (x.chain_index, x.parity) == (y.chain_index, y.parity)
        assert len(x.terms) == len(y.terms) and len(x.sparse) == len(y.sparse)
        for s, t in zip(x.terms, y.terms):
            _assert_same_term(s, t)
        for s, t in zip(x.sparse, y.sparse):
            assert np.array_equal(s.rows, t.rows) and np.array_equal(s.indices, t.indices)


def _assert_same_plan(plan, oracle) -> None:
    for name in ("groups", "data_blocks", "blocks_per_disk", "extra_blocks_per_disk", "m", "n"):
        assert getattr(plan, name) == getattr(oracle, name), name
    # tallies and per-disk counts come from the cycle; check them first,
    # before any view is materialised
    for name, value in oracle.tallies().items():
        assert getattr(plan, name) == value, name
    ops = oracle.ops
    for phase, counts in _op_stream_per_disk(ops, oracle.n).items():
        assert np.array_equal(plan.per_disk_ios(phase), counts), phase
    assert [_work_key(gw) for gw in plan.group_works] == [
        _work_key(gw) for gw in oracle.group_works
    ]
    assert plan.ops == ops
    assert list(plan.cell_locations.items()) == list(oracle.cell_locations.items())
    assert plan.data_locations == oracle.data_locations


def _assert_same_program(plan, oracle) -> None:
    program = compile_plan(plan, use_cache=False)
    expected = lower_program(
        CompiledPlan(
            key=program.key,
            code=oracle.code,
            n_disks=oracle.n,
            blocks_per_disk=oracle.blocks_per_disk,
            phases=tuple(legacy_compile(oracle)),
        )
    )
    assert [ph.phase for ph in program.phases] == [ph.phase for ph in expected.phases]
    for got, want in zip(program.phases, expected.phases):
        assert got.batch == want.batch
        for name in _PHASE_FIELDS:
            x, y = getattr(got, name), getattr(want, name)
            assert x.dtype == y.dtype and np.array_equal(x, y), (got.phase, name)
        assert_same_fused(got.fused, want.fused)


@pytest.fixture
def no_gc():
    """The views hold hundreds of thousands of small objects; collecting
    them generation by generation would cost more than the comparison."""
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("case", CANONICAL + SHORTENED, ids=_case_id)
def test_tiled_plan_equals_per_group_oracle(case, no_gc):
    code, approach, p, n = case
    for groups in group_counts(code, p, n):
        plan = build_plan(code, approach, p, groups=groups, n_disks=n)
        oracle = legacy_plan(code, approach, p, groups, n)
        _assert_same_program(plan, oracle)
        if p in GATHER_PRIMES and n is None:
            _assert_same_gather(plan, oracle)
        _assert_same_plan(plan, oracle)


class TestTiling:
    @pytest.mark.parametrize(
        "code,approach,tail", [("xcode", "direct", 9), ("evenodd", "via-raid0", 9),
                               ("hdp", "direct", 8), ("pcode", "direct", 0),
                               ("code56", "direct", 0)],
    )
    def test_partial_cycle_at_the_harness_geometry(self, code, approach, tail):
        plan = build_plan(code, approach, 13, groups=48)
        assert plan.tiling.tail == tail
        assert plan.tiling.tiles == 48 // alignment_cycle(code, 13)

    def test_builders_walk_one_cycle(self):
        for code, approach in supported_conversions():
            plan = build_plan(code, approach, 13, groups=48)
            base = {gw.group for gw in plan.cycle_works if gw.group < 48}
            assert base == set(range(alignment_cycle(code, 13)))

    def test_fewer_groups_than_a_cycle_is_one_tile(self):
        plan = build_plan("xcode", "direct", 13, groups=5)
        assert plan.tiling.is_single and len(plan.cycle_works) == 5
        assert plan.group_works is plan.cycle_works

    def test_untiled_plan_compiles_to_the_same_program(self):
        plan = build_plan("hdp", "direct", 7, groups=13)
        one = plan.untiled()
        assert one.tiling.is_single and one.tail_works == []
        assert len(one.cycle_works) == len(plan.group_works)
        a = compile_plan(plan, use_cache=False)
        b = compile_plan(one, use_cache=False)
        for x, y in zip(a.phases, b.phases):
            for name in _PHASE_FIELDS:
                assert np.array_equal(getattr(x, name), getattr(y, name))
        for name in TALLIES:
            assert getattr(one, name) == getattr(plan, name)

    def test_views_are_not_built_on_the_compiled_path(self):
        """build, compile and the verifier's audit table read the cycle only."""
        plan = build_plan("evenodd", "via-raid4", 13, groups=48)
        compile_plan(plan, use_cache=False)
        recovery._AUDIT_CACHE.clear()
        recovery.audit_table(plan)
        for view in ("group_works", "cell_locations", "data_locations", "ops"):
            assert view not in plan.__dict__, view


# ------------------------------------------------------ per-disk I/O counts

@pytest.mark.parametrize("code,approach", supported_conversions())
@pytest.mark.parametrize("phase", [None, 0, 1])
def test_per_disk_ios_equals_op_stream_count(code, approach, phase):
    p = 7
    plan = build_plan(code, approach, p, groups=alignment_cycle(code, p) + 1)
    assert np.array_equal(plan.per_disk_ios(phase), _op_stream_per_disk(plan.ops, plan.n)[phase])


# ------------------------------------------------------- audit table

def _run_addresses(run, n: int) -> np.ndarray:
    """A classified run expanded back to one address per group (-1: none)."""
    term, sparse = run
    out = np.full(n, -1, dtype=np.intp)
    if sparse is not None:
        out[sparse.rows] = sparse.indices
    elif term.kind == "stride":
        out[:] = term.start + term.step * np.arange(n)
    elif term.kind == "const":
        out[:] = term.start
    else:
        out[:] = term.indices
    return out


def _dict_walk_table(oracle):
    """Per-template store addresses and LBAs, as walking the address dicts
    entry by entry gives them."""
    groups, bpd = oracle.groups, oracle.blocks_per_disk
    stores, lbas = {}, {}
    for (group, cell), loc in oracle.cell_locations.items():
        stores.setdefault(cell, np.full(groups, -1, dtype=np.intp))[group] = (
            loc.disk * bpd + loc.block
        )
    for lba in range(oracle.data_blocks):
        group, cell = oracle.data_locations[lba]
        lbas.setdefault(cell, np.full(groups, -1, dtype=np.intp))[group] = lba
    return stores, lbas


def _assert_same_gather(plan, oracle) -> None:
    """The verifier's audit table, built from the cycle, addresses every
    cell and LBA as the walk over the oracle's dicts does (computed
    afresh, not from the cache)."""
    recovery._AUDIT_CACHE.clear()
    table = recovery.audit_table(plan)
    for got, want in zip((table.stores, table.lbas), _dict_walk_table(oracle)):
        assert got.keys() == want.keys()
        for cell, run in got.items():
            assert np.array_equal(_run_addresses(run, plan.groups), want[cell]), cell


# ------------------------------------------------ lowering's scratch rows

def _loop_scratch_rows(cell_v: np.ndarray, ci_of: dict, cps: int, cols: int, batch: int):
    """The per-cell loop the lowering pass used to map cells to scratch rows."""
    out = np.empty(cell_v.size, dtype=np.intp)
    for i, cell in enumerate(cell_v):
        tmpl = int(cell) % cps
        ci = ci_of.get((tmpl // cols, tmpl % cols))
        if ci is None:
            return None
        out[i] = ci * batch + int(cell) // cps
    return out


@pytest.mark.parametrize("code,approach", supported_conversions())
@pytest.mark.parametrize("p", [5, 13])
def test_vectorized_scratch_rows_equal_the_loop(code, approach, p):
    plan = build_plan(code, approach, p, groups=alignment_cycle(code, p) + 1)
    program = compile_plan(plan, use_cache=False)
    layout = plan.code.layout
    cps = layout.rows * layout.cols
    lowered = 0
    for ph in program.phases:
        fused = _lower_phase(ph, plan.code, program.n_disks, program.blocks_per_disk)
        if fused is None:
            continue
        lowered += 1
        ci_of = {op.parity: op.chain_index for op in fused.ops}
        expected = dataclasses.replace(
            fused,
            parity_src=_loop_scratch_rows(ph.parity_cell, ci_of, cps, layout.cols, ph.batch),
            check_src=_loop_scratch_rows(ph.check_cell, ci_of, cps, layout.cols, ph.batch),
        )
        assert_same_fused(fused, expected)
    assert lowered
