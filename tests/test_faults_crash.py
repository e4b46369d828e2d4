"""Crash-consistent conversion: exhaustive crash-point sweeps + resume.

The acceptance gate for the fault plane: crash the conversion at every
crashable event boundary (clean and torn-write variants), resume from
the journal, and require the final array to be byte-identical to an
uninterrupted run — for offline conversion and the online converter,
exhaustively at p ∈ {5, 7} and sampled at p = 13.
"""

import numpy as np
import pytest

from repro.faults import (
    ConversionCrash,
    ConversionJournal,
    FaultPlane,
    FaultScenario,
    count_crash_events,
    crash_sweep_offline,
    crash_sweep_online,
    execute_checkpointed,
    fault_soak,
    replay_scenario,
    run_to_completion,
)
from repro.migration.approaches import build_plan
from repro.migration.engine import prepare_source_array


class TestCheckpointedExecution:
    def test_healthy_run_matches_plain_execution(self, rng):
        from repro.migration.engine import execute_plan, verify_conversion

        plan = build_plan("code56", "direct", 5, groups=2)
        ref_array, ref_data = prepare_source_array(
            plan, np.random.default_rng(3), block_size=8
        )
        execute_plan(plan, ref_array, ref_data)
        array, data = prepare_source_array(
            plan, np.random.default_rng(3), block_size=8
        )
        run = execute_checkpointed(plan, array, data)
        assert verify_conversion(run.result, check_io_counters=False)
        assert np.array_equal(array.snapshot(), ref_array.snapshot())
        assert run.units_skipped == 0 and run.rollbacks == 0

    def test_counted_io_matches_plan_when_healthy(self):
        plan = build_plan("code56", "direct", 5, groups=2)
        array, data = prepare_source_array(
            plan, np.random.default_rng(3), block_size=8
        )
        run = execute_checkpointed(plan, array, data)
        assert run.result.measured_reads == plan.read_ios
        assert run.result.measured_writes == plan.write_ios

    def test_run_to_completion_retries_through_crashes(self):
        plan = build_plan("code56", "direct", 5, groups=2)
        array, data = prepare_source_array(
            plan, np.random.default_rng(3), block_size=8
        )
        plane = FaultPlane(FaultScenario(crash_at=5, crash_tear=0.5))
        plane.attach(array)
        journal = ConversionJournal()

        def attempt():
            try:
                return execute_checkpointed(plan, array, data, journal)
            except ConversionCrash:
                plane.disarm_crash()  # the "restarted process" has no armed crash
                raise

        run, crashes = run_to_completion(attempt)
        assert crashes == 1
        assert plane.counters["crashes"] == 1

    def test_probe_count_is_deterministic(self):
        plan = build_plan("code56", "direct", 5, groups=2)
        assert count_crash_events(plan) == count_crash_events(plan) > 0


class TestCrashEventNumbering:
    """Pinned probe counts at p=5 (the ``repro chaos --crash-sweep
    --online --p 5`` defaults): every plane-visible op and journal
    barrier of the conversion thread is one crashable event, so a change
    to the plane's ``op`` / ``crash_events_done`` accounting shows here."""

    def test_offline_probe_count(self):
        assert count_crash_events(build_plan("code56", "direct", 5, groups=2)) == 36

    @pytest.mark.parametrize("batch, events", [(1, [40, 40, 40]), (4, [39, 40, 39])])
    def test_online_probe_counts(self, batch, events):
        # crash_points=() runs the reference and the probe, sweeps nothing
        report = crash_sweep_online(5, batch=batch, crash_points=())
        assert report["crash_events"] == events
        assert report["runs"] == 0


class TestOfflineSweeps:
    @pytest.mark.parametrize("p", [5, 7])
    def test_exhaustive_sweep_byte_identical(self, p):
        report = crash_sweep_offline(p)
        assert report["ok"], report["failures"][:2]
        assert report["points_swept"] == report["crash_events"]
        assert report["runs"] == report["crash_events"] * len(report["variants"])
        assert set(report["variants"]) == {"clean", "torn-half", "torn-1-byte"}

    def test_sampled_sweep_large_p(self):
        report = crash_sweep_offline(13, sample=6)
        assert report["ok"], report["failures"][:2]
        assert report["points_swept"] == 6


class TestOnlineSweeps:
    @pytest.mark.parametrize("p", [5, 7])
    def test_exhaustive_sweep_with_app_writes(self, p):
        report = crash_sweep_online(p, schedules=3)
        assert report["ok"], report["failures"][:2]
        assert report["schedules"] == 3
        assert all(n > 0 for n in report["crash_events"])

    def test_sampled_sweep_large_p(self):
        report = crash_sweep_online(13, schedules=3, sample=4, n_requests=4)
        assert report["ok"], report["failures"][:2]


class TestSoakAndReplay:
    def test_short_soak_is_clean(self):
        report = fault_soak(2.0, seed=123, max_iterations=10)
        assert report["ok"], report["failures"][:2]
        assert report["iterations"] == 10
        assert sum(report["by_kind"].values()) == 10

    def test_failure_specs_replay_verbatim(self):
        spec = {
            "kind": "offline-crash",
            "p": 5,
            "groups": 2,
            "block_size": 8,
            "seed": 77,
            "scenario": FaultScenario(seed=77).with_crash(3, 0.5).to_dict(),
        }
        first = replay_scenario(spec)
        second = replay_scenario(spec)
        assert first["ok"] and second["ok"]
        assert first == second

    def test_artifacts_written_for_failures(self, tmp_path):
        from repro.faults import save_failures

        paths = save_failures([{"kind": "offline-crash", "seed": 1}], tmp_path)
        assert len(paths) == 1 and paths[0].exists()


class TestJournalDiscipline:
    def test_stale_committed_unit_rolled_back_and_reexecuted(self):
        plan = build_plan("code56", "direct", 5, groups=2)
        array, data = prepare_source_array(
            plan, np.random.default_rng(3), block_size=8
        )
        journal = ConversionJournal()
        execute_checkpointed(plan, array, data, journal)
        reference = array.snapshot()
        rec = next(iter(journal.records.values()))
        payloads = array.gather_raw(rec.disks, rec.blocks)
        payloads[0, 0] ^= 0xFF
        array.restore_blocks(rec.disks, rec.blocks, payloads)
        plane = FaultPlane(FaultScenario())
        plane.attach(array)
        run = execute_checkpointed(plan, array, data, journal)
        assert run.stale_detected == 1
        assert run.rollbacks == 1
        assert plane.counters["stale_checkpoints"] == 1
        assert np.array_equal(array.snapshot(), reference)

    def test_validate_false_trusts_committed_units(self):
        plan = build_plan("code56", "direct", 5, groups=2)
        array, data = prepare_source_array(
            plan, np.random.default_rng(3), block_size=8
        )
        journal = ConversionJournal()
        execute_checkpointed(plan, array, data, journal)
        rerun = execute_checkpointed(plan, array, data, journal, validate=False)
        assert rerun.units_executed == 0 and rerun.stale_detected == 0

    def test_crash_mid_unit_leaves_unit_in_flight(self):
        plan = build_plan("code56", "direct", 5, groups=2)
        array, data = prepare_source_array(
            plan, np.random.default_rng(3), block_size=8
        )
        plane = FaultPlane(FaultScenario(crash_at=7))
        plane.attach(array)
        journal = ConversionJournal()
        with pytest.raises(ConversionCrash):
            execute_checkpointed(plan, array, data, journal)
        states = {rec.state for rec in journal.records.values()}
        assert "in-flight" in states
