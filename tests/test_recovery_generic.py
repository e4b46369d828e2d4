"""Hybrid single-disk recovery (Section III-E.4, Figure 6) for every code."""

import itertools

import numpy as np
import pytest

from repro.codes import (
    CODE_NAMES,
    apply_recovery_plan,
    code56_layout,
    get_code,
    get_layout,
)
from repro.codes.geometry import ChainKind
from repro.core import plan_double_column_recovery, plan_hybrid_recovery

ALL_CODES = CODE_NAMES + ("code56-right",)


def chain_kinds(layout, plan):
    """The family of the layout chain each step of ``plan`` reads."""
    kind_of = {frozenset((ch.parity, *ch.members)): ch.kind for ch in layout.chains}
    return [kind_of[frozenset((step.target, *step.sources))] for step in plan.steps]


class TestFigure6:
    def test_paper_numbers_at_p5(self):
        """9 reads instead of 12 per stripe when a data column fails."""
        lay = code56_layout(5)
        for col in range(4):
            h = plan_hybrid_recovery(lay, col)
            assert h.conventional_reads == 12
            assert h.reads == 9
            assert h.read_savings == pytest.approx(0.25)

    def test_savings_positive_for_larger_primes(self):
        for p in (7, 11):
            lay = code56_layout(p)
            for col in range(p - 1):
                h = plan_hybrid_recovery(lay, col)
                assert h.reads < h.conventional_reads

    def test_mixes_both_chain_families(self):
        lay = code56_layout(5)
        h = plan_hybrid_recovery(lay, 1)
        kinds = set(chain_kinds(lay, h.plan))
        assert kinds == {ChainKind.HORIZONTAL, ChainKind.DIAGONAL}


class TestCorrectness:
    @pytest.mark.parametrize("name", ALL_CODES)
    def test_recovers_every_column(self, name, paper_p, rng):
        lay = get_layout(name, paper_p)
        code = get_code(name, paper_p)
        data = rng.integers(0, 256, size=(code.num_data, 8), dtype=np.uint8)
        stripe = code.make_stripe(data)
        for col in lay.physical_cols:
            h = plan_hybrid_recovery(lay, col)
            broken = stripe.copy()
            broken[:, col, :] = 0
            apply_recovery_plan(h.plan, broken)
            assert np.array_equal(broken, stripe), (name, col)

    @pytest.mark.parametrize("p", [5, 7, 11])
    def test_hybrid_plan_recovers_payload(self, p, rng):
        lay = code56_layout(p)
        code = get_code("code56", p)
        data = rng.integers(0, 256, size=(code.num_data, 8), dtype=np.uint8)
        stripe = code.make_stripe(data)
        for col in range(p):
            h = plan_hybrid_recovery(lay, col)
            broken = stripe.copy()
            broken[:, col, :] = 0
            apply_recovery_plan(h.plan, broken)
            assert np.array_equal(broken, stripe), (p, col)

    def test_never_worse_than_conventional(self, paper_p):
        for name in ALL_CODES:
            lay = get_layout(name, paper_p)
            for col in lay.physical_cols:
                h = plan_hybrid_recovery(lay, col)
                assert h.reads <= h.conventional_reads, (name, col)

    def test_diagonal_column_has_no_choice(self):
        lay = code56_layout(5)
        h = plan_hybrid_recovery(lay, 4)
        assert set(chain_kinds(lay, h.plan)) == {ChainKind.DIAGONAL}
        assert h.reads == h.conventional_reads
        assert h.read_savings == 0.0

    def test_conventional_reads_definition(self):
        # p=5: each of the 4 rows reads its 3 surviving square cells, and
        # the diagonal column rebuild reads every data cell once
        lay = code56_layout(5)
        assert plan_hybrid_recovery(lay, 0).conventional_reads == 12
        assert plan_hybrid_recovery(lay, 4).conventional_reads == 12
        # single-family recovery is Algorithm 1's single-column plan
        for p in (5, 7):
            lay = code56_layout(p)
            for col in range(p):
                conventional = plan_double_column_recovery(lay, col).total_reads
                assert plan_hybrid_recovery(lay, col).conventional_reads == conventional

    def test_large_p_exact_search(self, rng):
        """p=19 (2^17 choice vectors per data column) is searched exactly:
        column 3 reads the optimum 226, and the plan round-trips a
        payload."""
        p = 19
        lay = code56_layout(p)
        h = plan_hybrid_recovery(lay, 3)
        assert h.reads == 226
        code = get_code("code56", p)
        data = rng.integers(0, 256, size=(code.num_data, 4), dtype=np.uint8)
        stripe = code.make_stripe(data)
        broken = stripe.copy()
        broken[:, 3, :] = 0
        apply_recovery_plan(h.plan, broken)
        assert np.array_equal(broken, stripe)

    def test_rejects_out_of_range_column(self):
        with pytest.raises(ValueError):
            plan_hybrid_recovery(code56_layout(5), 7)

    def test_rejects_virtual_column(self):
        lay = get_layout("evenodd", 5, virtual_cols=(4,))
        with pytest.raises(ValueError):
            plan_hybrid_recovery(lay, 4)

    def test_shortened_layout_recoverable(self, rng):
        lay = get_layout("code56", 7, virtual_cols=(0,))
        from repro.codes import ArrayCode

        code = ArrayCode(lay)
        data = rng.integers(0, 256, size=(lay.num_data, 8), dtype=np.uint8)
        stripe = code.make_stripe(data)
        for col in lay.physical_cols:
            h = plan_hybrid_recovery(lay, col)
            broken = stripe.copy()
            broken[:, col, :] = 0
            apply_recovery_plan(h.plan, broken)
            assert np.array_equal(broken, stripe)


def product_order_minimum(layout, column):
    """Reference planner: per lost cell, the sorted sources of every chain
    whose only lost term is that cell, horizontal chains first; then the
    first choice vector, in ``itertools.product`` order, with the fewest
    distinct reads.  Returns the plan's steps as ``(target, sources)``."""
    virtual = layout.virtual_cells
    lost = {(r, column) for r in range(layout.rows) if (r, column) not in virtual}
    ranked = {cell: [] for cell in lost}
    for chain in layout.chains:
        terms = [t for t in (chain.parity, *chain.members) if t not in virtual]
        hit = [t for t in terms if t in lost]
        if len(hit) == 1:
            sources = tuple(sorted(t for t in terms if t != hit[0]))
            ranked[hit[0]].append((chain.kind is not ChainKind.HORIZONTAL, sources))
    cells = sorted(lost)
    options = [[s for _rank, s in sorted(ranked[cell])] for cell in cells]

    def reads(choice):
        return len(set().union(*(opts[k] for opts, k in zip(options, choice))))

    best = min(itertools.product(*(range(len(o)) for o in options)), key=reads)
    return [(cell, opts[k]) for cell, opts, k in zip(cells, options, best)]


class TestExactSearch:
    @pytest.mark.parametrize(
        "name, p",
        [(name, p) for p in (5, 7, 11) for name in CODE_NAMES]
        + [("code56", 13), ("rdp", 13)],
    )
    def test_matches_product_order_minimum(self, name, p):
        """The branch-and-bound returns exactly the plan a full
        enumeration's first minimum gives, ties included."""
        lay = get_layout(name, p)
        for col in lay.physical_cols:
            steps = [(s.target, s.sources) for s in plan_hybrid_recovery(lay, col).plan.steps]
            assert steps == product_order_minimum(lay, col), (name, p, col)


class TestKnownResults:
    def test_matches_specialised_code56_optimiser(self):
        """The optimum the former Code 5-6-only planner found by
        enumerating every row/diagonal mix (through p=17): the same
        hybrid and conventional reads on every data column, and the
        diagonal column's unshareable cost."""
        reads = {5: (9, 12), 7: (22, 30), 11: (66, 90), 13: (97, 132), 17: (177, 240)}
        for p, (hybrid, conventional) in reads.items():
            lay = code56_layout(p)
            for col in range(p - 1):
                h = plan_hybrid_recovery(lay, col)
                assert (h.reads, h.conventional_reads) == (hybrid, conventional), (p, col)
            h = plan_hybrid_recovery(lay, p - 1)
            assert h.reads == h.conventional_reads == conventional

    @pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19])
    def test_code56_data_column_closed_form(self, p):
        """Every Code 5-6 data column reads (3p^2 - 10p + 11)/4.  This is a
        conjecture: a fit to the exact optima at p = 5..19, not a proof.
        The p=19 sample holds columns where a greedy single-flip descent
        stops 1-7 reads above the optimum."""
        lay = code56_layout(p)
        for col in (0, 1, 8, 16) if p == 19 else range(p - 1):
            assert plan_hybrid_recovery(lay, col).reads == (3 * p * p - 10 * p + 11) // 4

    def test_rdp_xiang_saving(self):
        """Xiang et al. (SIGMETRICS'10): hybrid recovery of an RDP data
        column reads ~25% less (12 vs 16 at p=5)."""
        lay = get_layout("rdp", 5)
        h = plan_hybrid_recovery(lay, 0)
        assert h.conventional_reads == 16
        assert h.reads == 12
        assert h.read_savings == pytest.approx(0.25)

    def test_code56_paper_numbers(self):
        lay = get_layout("code56", 5)
        h = plan_hybrid_recovery(lay, 1)
        assert (h.reads, h.conventional_reads) == (9, 12)

    def test_parity_only_columns_have_no_choice(self):
        lay = get_layout("rdp", 5)
        h = plan_hybrid_recovery(lay, 5)  # the diagonal column
        assert h.reads == h.conventional_reads

    def test_mirror_symmetry(self):
        """code56-right must save exactly what code56 saves."""
        for p in (5, 7):
            left = get_layout("code56", p)
            right = get_layout("code56-right", p)
            left_reads = sorted(plan_hybrid_recovery(left, c).reads for c in range(p))
            right_reads = sorted(plan_hybrid_recovery(right, c).reads for c in range(p))
            assert left_reads == right_reads
