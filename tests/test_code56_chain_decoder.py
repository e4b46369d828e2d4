"""Algorithm 1 (two recovery chains) as the peel order of the planner.

``plan_double_column_recovery`` is a validating wrapper over
``build_recovery_plan``; these tests pin the paper's walk as properties
of the plan it returns: Theorem 1's starting points are peeled first,
every step extends a walk through one parity chain, and each lost cell
costs exactly ``p-3`` XORs.
"""

import itertools

import numpy as np
import pytest

from repro.codes import (
    apply_recovery_plan,
    build_recovery_plan,
    code56_layout,
    eliminate_recovery_plan,
    get_code,
)
from repro.codes.code56 import horizontal_parity_cell
from repro.codes.geometry import ChainKind
from repro.core.chain_decoder import (
    plan_double_column_recovery,
    recovery_chain_starting_points,
)

PRIMES = (5, 7, 11, 13)


class TestStartingPoints:
    def test_paper_figure5_example(self):
        # p=5, failures in columns 1 and 2: starts are A=(0,1) and E=(3,2)
        assert recovery_chain_starting_points(5, 1, 2) == ((0, 1), (3, 2))

    def test_starting_points_are_diagonally_recoverable(self):
        # each start lies on the diagonal that misses the *other* column
        for p in PRIMES:
            for f1, f2 in itertools.combinations(range(p - 1), 2):
                (r1, c1), (r2, c2) = recovery_chain_starting_points(p, f1, f2)
                assert c1 == f1 and c2 == f2
                # diagonal of start 1 misses column f2
                d1 = (r1 + c1) % p
                assert all((r + f2) % p != d1 for r in range(p - 1))
                d2 = (r2 + c2) % p
                assert all((r + f1) % p != d2 for r in range(p - 1))

    def test_rejects_parity_column(self):
        with pytest.raises(ValueError):
            recovery_chain_starting_points(5, 1, 4)


class TestChainDecoder:
    @pytest.mark.parametrize("p", PRIMES)
    def test_all_double_failures(self, p, rng):
        lay = code56_layout(p)
        code = get_code("code56", p)
        data = rng.integers(0, 256, size=(code.num_data, 8), dtype=np.uint8)
        stripe = code.make_stripe(data)
        for f1, f2 in itertools.combinations(range(p), 2):
            plan = plan_double_column_recovery(lay, f1, f2)
            broken = stripe.copy()
            broken[:, f1, :] = 0
            broken[:, f2, :] = 0
            apply_recovery_plan(plan, broken)
            assert np.array_equal(broken, stripe), (p, f1, f2)

    @pytest.mark.parametrize("p", PRIMES)
    def test_single_failures(self, p, rng):
        lay = code56_layout(p)
        code = get_code("code56", p)
        data = rng.integers(0, 256, size=(code.num_data, 8), dtype=np.uint8)
        stripe = code.make_stripe(data)
        for f in range(p):
            plan = plan_double_column_recovery(lay, f)
            broken = stripe.copy()
            broken[:, f, :] = 0
            apply_recovery_plan(plan, broken)
            assert np.array_equal(broken, stripe)

    @pytest.mark.parametrize("p", PRIMES)
    def test_optimal_decode_complexity(self, p):
        """Every recovered element costs exactly p-3 XORs (Sec. III-E.2)."""
        lay = code56_layout(p)
        for f1, f2 in itertools.combinations(range(p), 2):
            plan = plan_double_column_recovery(lay, f1, f2)
            assert all(step.xor_count == p - 3 for step in plan.steps)
            assert len(plan.steps) == 2 * (p - 1)

    def test_order_insensitive(self):
        lay = code56_layout(5)
        a = plan_double_column_recovery(lay, 3, 1)
        b = plan_double_column_recovery(lay, 1, 3)
        assert a.lost == b.lost

    def test_same_column_twice_is_single(self):
        lay = code56_layout(5)
        plan = plan_double_column_recovery(lay, 2, 2)
        assert len(plan.lost) == 4  # one column only

    def test_agrees_with_generic_decoder_on_values(self, rng):
        p = 7
        lay = code56_layout(p)
        code = get_code("code56", p)
        data = rng.integers(0, 256, size=(code.num_data, 16), dtype=np.uint8)
        stripe = code.make_stripe(data)
        for f1, f2 in itertools.combinations(range(p), 2):
            lost = tuple((r, c) for c in (f1, f2) for r in range(p - 1))
            via_chain = stripe.copy()
            via_chain[:, f1, :] = 0
            via_chain[:, f2, :] = 0
            apply_recovery_plan(plan_double_column_recovery(lay, f1, f2), via_chain)
            via_oracle = stripe.copy()
            via_oracle[:, f1, :] = 0
            via_oracle[:, f2, :] = 0
            apply_recovery_plan(eliminate_recovery_plan(lay, lost), via_oracle)
            assert np.array_equal(via_chain, via_oracle)

    @pytest.mark.parametrize("p", PRIMES)
    def test_is_the_planners_plan(self, p):
        """The wrapper validates and delegates; ArrayCode gets the same plan."""
        lay = code56_layout(p)
        code = get_code("code56", p)
        for cols in itertools.chain(
            itertools.combinations(range(p), 1), itertools.combinations(range(p), 2)
        ):
            lost = tuple((r, c) for c in cols for r in range(p - 1))
            plan = plan_double_column_recovery(lay, *cols)
            assert plan == build_recovery_plan(lay, lost)
            assert plan == code.plan_column_recovery(*cols)

    def test_rejects_other_codes(self):
        from repro.codes import rdp_layout

        with pytest.raises(ValueError):
            plan_double_column_recovery(rdp_layout(5), 0, 1)

    def test_rejects_shortened_layouts(self):
        lay = code56_layout(5, virtual_cols=(0,))
        with pytest.raises(ValueError):
            plan_double_column_recovery(lay, 1, 2)

    def test_rejects_out_of_range(self):
        lay = code56_layout(5)
        with pytest.raises(ValueError):
            plan_double_column_recovery(lay, 0, 5)


class TestAlgorithm1PeelOrder:
    """Algorithm 1 is a property of the peel order, not a second planner."""

    @pytest.mark.parametrize("p", PRIMES)
    def test_starting_points_are_peeled_first(self, p):
        lay = code56_layout(p)
        for f1, f2 in itertools.combinations(range(p - 1), 2):
            plan = plan_double_column_recovery(lay, f1, f2)
            first_two = {step.target for step in plan.steps[:2]}
            assert first_two == set(recovery_chain_starting_points(p, f1, f2)), (p, f1, f2)

    @pytest.mark.parametrize("p", PRIMES)
    def test_every_step_extends_a_walk_by_one_chain(self, p):
        """Each step reads one chain of Eq. 3 or Eq. 5.  Apart from the two
        starts it reuses exactly one recovered cell, recovered through the
        other chain family, and the walks end at the two horizontal-parity
        cells of the failed columns."""
        lay = code56_layout(p)
        kind_of = {frozenset((ch.parity, *ch.members)): ch.kind for ch in lay.chains}
        for f1, f2 in itertools.combinations(range(p - 1), 2):
            plan = plan_double_column_recovery(lay, f1, f2)
            family: dict = {}
            for n, step in enumerate(plan.steps):
                kind = kind_of.get(frozenset((step.target, *step.sources)))
                assert kind is not None, step
                family[step.target] = kind
                reused = [src for src in step.sources if src in family]
                if n < 2:
                    assert reused == [] and family[step.target] is ChainKind.DIAGONAL
                else:
                    assert len(reused) == 1, step
                    assert family[reused[0]] != family[step.target], step
            for f in (f1, f2):
                assert family[horizontal_parity_cell(p, p - 2 - f)] is ChainKind.HORIZONTAL
