"""Unit tests for the generic GF(2) erasure decoder and recovery plans."""

import itertools

import numpy as np
import pytest

from repro.codes import (
    PlanCache,
    RecoveryPlan,
    RecoveryStep,
    UnrecoverableError,
    apply_recovery_plan,
    build_recovery_plan,
    get_code,
)


class TestRecoveryPlanValidation:
    def test_plan_must_cover_lost(self):
        with pytest.raises(ValueError):
            RecoveryPlan(
                lost=((0, 0), (0, 1)),
                steps=(RecoveryStep(target=(0, 0), sources=((0, 2),)),),
            )

    def test_plan_rejects_forward_references(self):
        with pytest.raises(ValueError):
            RecoveryPlan(
                lost=((0, 0), (0, 1)),
                steps=(
                    RecoveryStep(target=(0, 0), sources=((0, 1),)),  # not yet recovered
                    RecoveryStep(target=(0, 1), sources=((0, 2),)),
                ),
            )

    def test_plan_allows_backward_references(self):
        plan = RecoveryPlan(
            lost=((0, 0), (0, 1)),
            steps=(
                RecoveryStep(target=(0, 1), sources=((0, 2),)),
                RecoveryStep(target=(0, 0), sources=((0, 1), (0, 2))),
            ),
        )
        assert plan.total_xors == 1
        assert plan.read_set == frozenset({(0, 2)})
        assert plan.total_reads == 1

    def test_read_set_is_computed_once(self):
        plan = get_code("code56", 5).plan_column_recovery(1, 3)
        assert plan.read_set is plan.read_set
        assert plan.total_reads == len(plan.read_set)


class TestGenericDecoder:
    @pytest.mark.parametrize("name", ["code56", "rdp", "evenodd", "xcode", "pcode", "hcode", "hdp"])
    def test_all_double_column_erasures(self, name, rng):
        code = get_code(name, 5)
        data = rng.integers(0, 256, size=(code.num_data, 8), dtype=np.uint8)
        stripe = code.make_stripe(data)
        for f1, f2 in itertools.combinations(code.layout.physical_cols, 2):
            plan = code.plan_column_recovery(f1, f2)
            broken = stripe.copy()
            broken[:, f1, :] = 0
            broken[:, f2, :] = 0
            apply_recovery_plan(plan, broken)
            assert np.array_equal(broken, stripe), (name, f1, f2)

    def test_triple_erasure_unrecoverable(self):
        code = get_code("rdp", 5)
        lost = tuple(
            (r, c) for c in (0, 1, 2) for r in range(code.rows)
        )
        with pytest.raises(UnrecoverableError):
            build_recovery_plan(code.layout, lost)

    def test_partial_cell_erasure(self, rng):
        code = get_code("code56", 5)
        data = rng.integers(0, 256, size=(code.num_data, 8), dtype=np.uint8)
        stripe = code.make_stripe(data)
        lost = ((0, 0), (2, 3), (1, 4))
        plan = build_recovery_plan(code.layout, lost)
        broken = stripe.copy()
        for r, c in lost:
            broken[r, c, :] = 0
        apply_recovery_plan(plan, broken)
        assert np.array_equal(broken, stripe)

    def test_empty_loss_is_empty_plan(self):
        code = get_code("rdp", 5)
        plan = build_recovery_plan(code.layout, ())
        assert plan.steps == ()

    def test_duplicates_deduplicated(self):
        code = get_code("rdp", 5)
        plan = build_recovery_plan(code.layout, ((0, 0), (0, 0)))
        assert plan.lost == ((0, 0),)

    def test_virtual_cells_skipped(self):
        code = get_code("evenodd", 5, virtual_cols=(4,))
        plan = build_recovery_plan(code.layout, ((0, 4), (1, 4)))
        assert plan.lost == ()  # virtual cells need no recovery

    def test_batched_apply(self, rng):
        code = get_code("rdp", 5)
        data = rng.integers(0, 256, size=(6, code.num_data, 8), dtype=np.uint8)
        stripes = code.make_stripe(data)
        broken = stripes.copy()
        broken[:, :, 0, :] = 0
        broken[:, :, 4, :] = 0
        plan = code.plan_column_recovery(0, 4)
        apply_recovery_plan(plan, broken)
        assert np.array_equal(broken, stripes)


class TestPlanCache:
    def test_cache_returns_same_object(self):
        code = get_code("code56", 5)
        cache = PlanCache(code.layout)
        a = cache.plan_for_columns(1, 3)
        b = cache.plan_for_columns(3, 1)  # order-insensitive
        assert a is b

    def test_cell_plan_sorted_key(self):
        code = get_code("code56", 5)
        cache = PlanCache(code.layout)
        a = cache.plan_for_cells(((1, 1), (0, 0)))
        b = cache.plan_for_cells(((0, 0), (1, 1)))
        assert a is b
