"""The peeling recovery planner against the plain-elimination oracle.

``build_recovery_plan`` peels single-unknown chains and falls back to
elimination only where peeling stalls; ``eliminate_recovery_plan`` writes
every lost cell directly in surviving cells.  For every code and every
single-column, double-column and single-cell loss the two must recover
the same bytes, the planner must never spend more XORs, and it must read
the same surviving cells.  Read sets may differ in two places only, where
elimination's row swaps pick a different chain for some cells: P-Code
single-column losses (summed reads must not grow) and double-column
losses of Code 5-6 over virtual disks (no pattern may read more).
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codes import (
    CODE_NAMES,
    ArrayCode,
    UnrecoverableError,
    apply_recovery_plan,
    build_recovery_plan,
    eliminate_recovery_plan,
    get_code,
)
from repro.migration import build_plan, conversions_for_n

PRIMES = (5, 7, 11, 13)
NAMES = (*CODE_NAMES, "code56-right")


def _shortened_codes() -> dict[str, ArrayCode]:
    """Every shortened layout the conversion planner builds for 4..14 disks."""
    out: dict[str, ArrayCode] = {}
    for n in range(4, 15):
        for name, approach, p in conversions_for_n(n, max_p=14):
            code = build_plan(name, approach, p, groups=1, n_disks=n).code
            lay = code.layout
            if lay.virtual_cols or lay.extra_virtual_cells:
                out.setdefault(f"{name}-p{p}-n{n}", code)
    return out


SHORTENED = _shortened_codes()


def _patterns(code: ArrayCode):
    """(kind, lost cells) for every single-column, double-column and
    single-cell loss of ``code``."""
    lay = code.layout
    virtual = lay.virtual_cells

    def column_cells(cols):
        return tuple((r, c) for c in cols for r in range(lay.rows) if (r, c) not in virtual)

    for k, kind in ((1, "column"), (2, "pair")):
        for cols in itertools.combinations(lay.physical_cols, k):
            yield kind, column_cells(cols)
    for cell in column_cells(lay.physical_cols):
        yield "cell", (cell,)


def _recovered(plan, stripe: np.ndarray) -> np.ndarray:
    broken = stripe.copy()
    for r, c in plan.lost:
        broken[r, c] = 0
    return apply_recovery_plan(plan, broken)


def _read_set_exception(code: ArrayCode, kind: str) -> str | None:
    """How reads are gated where the read set may differ from the oracle's."""
    if code.name == "pcode" and kind == "column":
        return "summed"
    if code.name.startswith("code56") and code.layout.extra_virtual_cells and kind == "pair":
        return "per-pattern"
    return None


def _check_against_oracle(code: ArrayCode, rng: np.random.Generator) -> None:
    data = rng.integers(0, 256, size=(code.num_data, 8), dtype=np.uint8)
    stripe = code.make_stripe(data)
    peel_reads = oracle_reads = 0
    for kind, lost in _patterns(code):
        peel = build_recovery_plan(code.layout, lost)
        oracle = eliminate_recovery_plan(code.layout, lost)
        where = (code.name, kind, lost)
        assert peel.lost == oracle.lost, where
        assert np.array_equal(_recovered(peel, stripe), stripe), where
        assert np.array_equal(
            _recovered(peel, stripe), _recovered(oracle, stripe)
        ), where
        assert peel.total_xors <= oracle.total_xors, where
        exception = _read_set_exception(code, kind)
        if exception is None:
            assert peel.read_set == oracle.read_set, where
        elif exception == "per-pattern":
            assert peel.total_reads <= oracle.total_reads, where
        peel_reads += peel.total_reads
        oracle_reads += oracle.total_reads
    assert peel_reads <= oracle_reads


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("name", NAMES)
def test_matches_elimination_oracle(name, p, rng):
    _check_against_oracle(get_code(name, p), rng)


@pytest.mark.parametrize("key", sorted(SHORTENED))
def test_matches_oracle_on_shortened_layouts(key, rng):
    _check_against_oracle(SHORTENED[key], rng)


def test_shortened_layouts_cover_every_family():
    names = {code.name for code in SHORTENED.values()}
    assert names == {"code56", "code56-right", "evenodd", "rdp", "hcode"}
    assert any(code.layout.extra_virtual_cells for code in SHORTENED.values())


def test_evenodd_peels_after_elimination_and_beats_it():
    """EVENODD's adjuster stalls peeling, yet the mixed plan still costs
    far fewer XORs than plain elimination."""
    p = 13
    code = get_code("evenodd", p)
    peel = oracle = 0
    for f1, f2 in itertools.combinations(code.layout.physical_cols, 2):
        lost = tuple((r, c) for c in (f1, f2) for r in range(code.rows))
        peel += build_recovery_plan(code.layout, lost).total_xors
        oracle += eliminate_recovery_plan(code.layout, lost).total_xors
    assert peel <= 46_461
    assert peel < oracle


def test_peeling_reuses_recovered_cells():
    """A peel step may read a cell an earlier step recovered; elimination
    never does."""
    lay = get_code("code56", 7).layout
    lost = tuple((r, c) for c in (1, 3) for r in range(6))
    reads_lost = lambda plan: any(  # noqa: E731
        src in plan.lost for step in plan.steps for src in step.sources
    )
    assert reads_lost(build_recovery_plan(lay, lost))
    assert not reads_lost(eliminate_recovery_plan(lay, lost))


@st.composite
def partial_loss(draw):
    """A random code and a random set of lost cells spread over up to
    three columns — some recoverable, some not."""
    name = draw(st.sampled_from(NAMES))
    p = draw(st.sampled_from([5, 7]))
    code = get_code(name, p)
    lay = code.layout
    cols = draw(
        st.lists(st.sampled_from(lay.physical_cols), min_size=1, max_size=3, unique=True)
    )
    cells = [(r, c) for c in cols for r in range(lay.rows) if (r, c) not in lay.virtual_cells]
    lost = draw(st.lists(st.sampled_from(cells), min_size=1, max_size=len(cells), unique=True))
    return code, tuple(lost)


@given(partial_loss(), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_raises_exactly_when_the_oracle_raises(case, seed):
    code, lost = case
    try:
        oracle = eliminate_recovery_plan(code.layout, lost)
    except UnrecoverableError:
        with pytest.raises(UnrecoverableError):
            build_recovery_plan(code.layout, lost)
        return
    peel = build_recovery_plan(code.layout, lost)
    assert peel.total_xors <= oracle.total_xors
    data = np.random.default_rng(seed).integers(0, 256, size=(code.num_data, 4), dtype=np.uint8)
    stripe = code.make_stripe(data)
    assert np.array_equal(_recovered(peel, stripe), stripe)
