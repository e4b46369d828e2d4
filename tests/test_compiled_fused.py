"""The fused region-op execution path: lowering, scratch, refusals.

Companion to ``test_compiled_engine.py`` (which proves byte identity of
the executor as a whole) and ``test_kernels.py`` (identity per block size):
this file pins down the machinery the fused path adds — when the
lowering pass produces region ops and when compilation must refuse,
that the executor's preallocated scratch is actually reused instead of
churned, that the executor refuses fault planes / failed disks (the
checkpointed executor handles those), and that the obs bridge records
kernel-labelled counters with zero I/O drift.
"""

import dataclasses

import numpy as np
import pytest

from repro.codes.base import ArrayCode
from repro.compiled import (
    UnsupportedPlanError,
    compile_plan,
    execute_compiled,
    execute_plan_compiled,
    lower_program,
)
from repro.compiled import executor as executor_mod
from repro.kernels import ScratchPool
from repro.migration import (
    build_plan,
    execute_plan,
    fused_run_usable,
    prepare_source_array,
)
from repro.migration.approaches import alignment_cycle
from repro.obs.metrics import MetricsRegistry, set_registry


def _cycle_plan(code, approach, p, cycles=1):
    n = build_plan(code, approach, p, groups=1).n
    return build_plan(code, approach, p, groups=alignment_cycle(code, p, n) * cycles)


class TestLowering:
    def test_parity_phases_are_lowered(self):
        program = compile_plan(_cycle_plan("code56", "direct", 5), use_cache=False)
        lowered = [ph for ph in program.phases if ph.fused is not None]
        assert lowered
        for ph in lowered:
            fz = ph.fused
            assert fz.batch == ph.batch
            assert fz.parity_src.shape == ph.parity_cell.shape
            assert fz.check_src.shape == ph.check_cell.shape
            assert np.array_equal(
                fz.read_credit,
                np.bincount(ph.read_disk, minlength=program.n_disks),
            )

    def test_pure_migration_phases_are_not(self):
        program = compile_plan(_cycle_plan("rdp", "via-raid4", 5), use_cache=False)
        for ph in program.phases:
            if ph.batch == 0:
                assert ph.fused is None

    def test_custom_encode_disables_fusion(self):
        """A code subclass with its own ``encode`` cannot be replayed
        symbolically — the gate must keep every phase unfused."""
        program = compile_plan(_cycle_plan("code56", "direct", 5), use_cache=False)

        class WeirdCode(type(program.code)):
            def encode(self, stripe):  # pragma: no cover - never called
                return super().encode(stripe)

        weird = object.__new__(WeirdCode)
        weird.__dict__.update(program.code.__dict__)
        stripped = dataclasses.replace(
            program,
            code=weird,
            phases=tuple(
                dataclasses.replace(ph, fused=None) for ph in program.phases
            ),
        )
        relowered = lower_program(stripped)
        assert all(ph.fused is None for ph in relowered.phases)
        # sanity: the stock encode does get lowered again
        stock = dataclasses.replace(
            program,
            phases=tuple(
                dataclasses.replace(ph, fused=None) for ph in program.phases
            ),
        )
        assert any(ph.fused is not None for ph in lower_program(stock).phases)
        assert type(program.code).encode is ArrayCode.encode

    def test_lowering_is_deterministic(self):
        plan = _cycle_plan("hdp", "direct", 5, cycles=2)
        a = compile_plan(plan, use_cache=False)
        b = compile_plan(plan, use_cache=False)
        for pa, pb in zip(a.phases, b.phases):
            assert (pa.fused is None) == (pb.fused is None)
            if pa.fused is None:
                continue
            assert len(pa.fused.ops) == len(pb.fused.ops)
            for oa, ob in zip(pa.fused.ops, pb.fused.ops):
                assert oa.parity == ob.parity
                assert [t.kind for t in oa.terms] == [t.kind for t in ob.terms]


class TestScratchReuse:
    """Satellite: no per-op temporary churn — one grow-only pool."""

    def _run(self, plan, data, block_size=32):
        array, _ = prepare_source_array(
            plan, np.random.default_rng(0), block_size=block_size
        )
        execute_plan_compiled(plan, array, data)
        return array

    def test_pool_views_share_memory(self):
        pool = ScratchPool()
        pool.reserve(1024)
        a = pool.take((4, 64))
        assert np.shares_memory(a, pool._buf)
        b = pool.take((2, 128))
        assert np.shares_memory(a, b)  # same backing, sequential reuse

    def test_pool_grows_only(self):
        pool = ScratchPool()
        pool.reserve(512)
        buf = pool._buf
        pool.reserve(256)
        assert pool._buf is buf  # shrink request: keep the allocation
        pool.take((8, 8))
        assert pool._buf is buf

    def test_executor_reuses_process_pool_across_runs(self):
        plan = _cycle_plan("code56", "direct", 5, cycles=4)
        _array, data = prepare_source_array(
            plan, np.random.default_rng(0), block_size=32
        )
        self._run(plan, data)  # warm: the pool is now sized for this plan
        buf = executor_mod._SCRATCH._buf
        assert buf.size > 0
        self._run(plan, data)
        assert executor_mod._SCRATCH._buf is buf  # no reallocation churn
        assert np.shares_memory(executor_mod._SCRATCH.take((1, 1)), buf)

    def test_phase_buffers_are_pool_views(self, monkeypatch):
        plan = _cycle_plan("code56", "direct", 5, cycles=2)
        array, data = prepare_source_array(
            plan, np.random.default_rng(1), block_size=16
        )
        takes = []
        orig = ScratchPool.take

        def spy(self, shape):
            out = orig(self, shape)
            takes.append(out)
            return out

        monkeypatch.setattr(ScratchPool, "take", spy)
        execute_plan_compiled(plan, array, data)
        assert takes
        assert all(np.shares_memory(t, executor_mod._SCRATCH._buf) for t in takes)


class _FusedSpy:
    def __init__(self, monkeypatch):
        self.calls = 0
        orig = executor_mod._run_phase_fused

        def spy(*args, **kwargs):
            self.calls += 1
            return orig(*args, **kwargs)

        monkeypatch.setattr(executor_mod, "_run_phase_fused", spy)


class TestFallbacks:
    def _arrays(self, plan, block_size=16, seed=2):
        return prepare_source_array(
            plan, np.random.default_rng(seed), block_size=block_size
        )

    def test_fused_runs_by_default(self, monkeypatch):
        plan = _cycle_plan("code56", "direct", 5)
        array, data = self._arrays(plan)
        spy = _FusedSpy(monkeypatch)
        execute_plan_compiled(plan, array, data)
        assert spy.calls > 0

    def test_compile_refuses_unlowerable_parity_phase(self):
        """A parity phase the fusion pass cannot express has no executor
        tier left to run on: compilation refuses it up front."""
        plan = _cycle_plan("code56", "direct", 5)

        class WeirdCode(type(plan.code)):
            def encode(self, stripe):  # pragma: no cover - never called
                return super().encode(stripe)

        weird = object.__new__(WeirdCode)
        weird.__dict__.update(plan.code.__dict__)
        with pytest.raises(UnsupportedPlanError, match="fused lowering"):
            compile_plan(dataclasses.replace(plan, code=weird), use_cache=False)

    @pytest.mark.parametrize("fault", ["plane", "failed-disk"])
    def test_execute_compiled_refuses_faulted_array(self, fault):
        from repro.faults import FaultPlane, FaultScenario

        plan = _cycle_plan("code56", "direct", 5)
        program = compile_plan(plan, use_cache=False)
        array, data = self._arrays(plan)
        before = array.snapshot()
        if fault == "plane":
            FaultPlane(FaultScenario()).attach(array)
        else:
            array.fail_disk(1)
        with pytest.raises(ValueError, match="execute_checkpointed"):
            execute_compiled(program, array)
        with pytest.raises(ValueError, match="execute_checkpointed"):
            execute_plan_compiled(plan, array, data, program=program)
        assert np.array_equal(array.snapshot(), before)
        assert array.total_ios == 0

    def test_failed_disk_disables_fused(self, monkeypatch):
        plan = _cycle_plan("code56", "direct", 5)
        array, _data = self._arrays(plan)
        array.fail_disk(1)
        assert not fused_run_usable(array)
        array2, _ = self._arrays(plan)
        assert fused_run_usable(array2)


class TestObsBridge:
    def test_kernel_counters_recorded_and_io_exact(self):
        plan = _cycle_plan("code56", "direct", 5, cycles=2)
        audited, data = prepare_source_array(
            plan, np.random.default_rng(3), block_size=32
        )
        execute_plan(plan, audited, data)
        fused, _ = prepare_source_array(
            plan, np.random.default_rng(3), block_size=32
        )
        registry = MetricsRegistry(enabled=True)
        prev = set_registry(registry)
        try:
            result = execute_plan_compiled(plan, fused, data)
        finally:
            set_registry(prev)
        snap = registry.snapshot()
        phases = [
            m for m in snap["counters"]
            if m["name"] == "kernels.fused_phases" and m["labels"]["kernel"] == "numpy"
        ]
        assert phases and phases[0]["value"] > 0
        assert any(
            m["name"] == "kernels.xor_bytes" and m["value"] > 0
            for m in snap["counters"]
        )
        # zero drift: instrumentation must not perturb the counted I/O
        assert np.array_equal(audited.reads, fused.reads)
        assert np.array_equal(audited.writes, fused.writes)
        assert result.measured_reads == plan.read_ios
        assert result.measured_writes == plan.write_ios

    def test_disabled_registry_records_nothing(self):
        plan = _cycle_plan("code56", "direct", 5)
        array, data = prepare_source_array(
            plan, np.random.default_rng(4), block_size=16
        )
        registry = MetricsRegistry(enabled=False)
        prev = set_registry(registry)
        try:
            execute_plan_compiled(plan, array, data)
        finally:
            set_registry(prev)
        assert registry.snapshot()["counters"] == []

