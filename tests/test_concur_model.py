"""Interleaving model checker: exhaustive DFS over Algorithm 2's steps."""

import numpy as np

from repro.migration.online import OnlineCode56Conversion
from repro.staticcheck.concur.model import (
    ModelScenario,
    ModelStats,
    check_scenario,
    model_scenarios,
)


class TestCleanProtocol:
    def test_single_write_scenario_is_clean(self):
        stats, findings = check_scenario(ModelScenario(p=5, groups=2, lbas=(0,)))
        assert findings == []
        assert stats.states > 0
        assert stats.transitions >= stats.states - 1
        assert stats.checks > stats.states  # several invariants per state

    def test_pair_scenario_is_clean(self):
        stats, findings = check_scenario(ModelScenario(p=5, groups=2, lbas=(0, 7)))
        assert findings == []
        assert stats.states > 0

    def test_crashes_are_explored(self):
        """max_crashes=0 removes the crash transitions — strictly fewer
        states than the default single-crash budget."""
        base = ModelScenario(p=5, groups=2, lbas=(3,))
        with_crash, _ = check_scenario(base)
        without, findings = check_scenario(
            ModelScenario(p=5, groups=2, lbas=(3,), max_crashes=0)
        )
        assert findings == []
        assert without.states < with_crash.states

    def test_exploration_is_deterministic(self):
        scenario = ModelScenario(p=5, groups=2, lbas=(5,))
        first, _ = check_scenario(scenario)
        second, _ = check_scenario(scenario)
        assert (first.states, first.transitions, first.checks) == (
            second.states,
            second.transitions,
            second.checks,
        )


class TestScenarioBattery:
    def test_exhaustive_battery_covers_every_lba(self):
        scenarios = model_scenarios(5, exhaustive=True)
        # 2 groups x 4 rows x 3 data disks = 24 single-write scenarios
        # (the fleet pause/spare singles ride on representative LBAs only)
        singles = [
            s for s in scenarios
            if len(s.lbas) == 1 and s.batch == 1 and not s.pauses and not s.spare
        ]
        assert sorted(s.lbas[0] for s in singles) == list(range(24))
        assert any(len(s.lbas) == 2 for s in scenarios)
        assert any(len(s.lbas) == 3 for s in scenarios)

    def test_exhaustive_battery_reproves_batched_budgets(self):
        """ISSUE 9: the batched protocol is re-proved at run budgets
        {2, rows, groups*rows} alongside the per-parity battery."""
        scenarios = model_scenarios(5, exhaustive=True)
        budgets = {s.batch for s in scenarios}
        assert budgets == {1, 2, 4, 8}
        for b in (2, 4, 8):
            batched = [s for s in scenarios if s.batch == b]
            assert any(len(s.lbas) == 1 for s in batched)
            assert any(len(s.lbas) == 2 for s in batched)

    def test_sampled_battery_is_small(self):
        scenarios = model_scenarios(7, exhaustive=False)
        assert 0 < len(scenarios) < 16
        assert all(s.p == 7 for s in scenarios)
        assert any(s.batch > 1 for s in scenarios)

    def test_labels_are_distinct(self):
        scenarios = model_scenarios(5, exhaustive=True)
        labels = [s.label for s in scenarios]
        assert len(set(labels)) == len(labels)

    def test_stats_merge(self):
        a = ModelStats(scenarios=1, states=10, transitions=20, checks=30)
        a.merge(ModelStats(scenarios=2, states=1, transitions=2, checks=3))
        assert (a.scenarios, a.states, a.transitions, a.checks) == (3, 11, 22, 33)


class TestSeededDefects:
    """The checker must catch each planted protocol bug (no vacuous green)."""

    SCENARIO = ModelScenario(p=5, groups=2, lbas=(0, 7))

    def test_lost_diagonal_patch_is_caught(self):
        class LostPatch(OnlineCode56Conversion):
            def _patch_diagonal(self, group, prow, delta, report):
                report.writes_to_converted += 1
                return 2  # claims the I/O, never writes the parity

        _stats, findings = check_scenario(self.SCENARIO, converter_cls=LostPatch)
        assert {f.rule for f in findings} & {"SC-C001", "SC-C003", "SC-C004"}

    def test_mark_before_write_is_caught(self):
        class MarkFirst(OnlineCode56Conversion):
            def generate_run_step(self, report, budget=None):
                run = self.pending_run(budget)
                if run and self.journal is not None:
                    self.journal.mark_many(run)
                return super().generate_run_step(report, budget=budget)

        _stats, findings = check_scenario(self.SCENARIO, converter_cls=MarkFirst)
        assert "SC-C002" in {f.rule for f in findings}

    def test_eager_watermark_is_caught(self):
        class Eager(OnlineCode56Conversion):
            def mark_run_step(self):
                super().mark_run_step()
                if self.journal is not None:
                    ahead = self.pending_parity()
                    if ahead is not None:
                        self.journal.mark(*ahead)

        _stats, findings = check_scenario(self.SCENARIO, converter_cls=Eager)
        assert "SC-C002" in {f.rule for f in findings}

    def test_findings_are_capped_per_scenario(self):
        class LostPatch(OnlineCode56Conversion):
            def _patch_diagonal(self, group, prow, delta, report):
                report.writes_to_converted += 1
                return 2

        _stats, findings = check_scenario(self.SCENARIO, converter_cls=LostPatch)
        assert 0 < len(findings) <= 8


class TestBatchedProtocol:
    """Run/mark transitions: the group-commit window is model-checked."""

    def test_batched_scenarios_are_clean(self):
        for batch in (2, 4, 8):
            stats, findings = check_scenario(
                ModelScenario(p=5, groups=2, lbas=(0,), batch=batch)
            )
            assert findings == []
            assert stats.states > 0

    def test_batched_pair_is_clean(self):
        _stats, findings = check_scenario(
            ModelScenario(p=5, groups=2, lbas=(0, 7), batch=4)
        )
        assert findings == []

    def test_batched_labels_carry_budget(self):
        plain = ModelScenario(p=5, groups=2, lbas=(0,))
        batched = ModelScenario(p=5, groups=2, lbas=(0,), batch=4)
        assert "batch" not in plain.label
        assert "batch=4" in batched.label

    def test_group_commit_before_run_is_caught(self):
        class MarkManyFirst(OnlineCode56Conversion):
            def generate_run_step(self, report, budget=None):
                run = self.pending_run(budget)
                if run and self.journal is not None:
                    self.journal.mark_many(run)
                return super().generate_run_step(report, budget=budget)

        _stats, findings = check_scenario(
            ModelScenario(p=5, groups=2, lbas=(0, 7), batch=2),
            converter_cls=MarkManyFirst,
        )
        assert "SC-C002" in {f.rule for f in findings}

    def test_blind_overlap_check_is_caught(self):
        """A write landing inside the run window must be patched into the
        in-flight parity — disabling the overlap check is a real bug."""

        class BlindOverlap(OnlineCode56Conversion):
            def run_overlaps(self, group, prow):
                return False

        _stats, findings = check_scenario(
            ModelScenario(p=5, groups=2, lbas=(0, 7), batch=4),
            converter_cls=BlindOverlap,
        )
        assert {f.rule for f in findings} & {"SC-C003", "SC-C004"}

    def test_window_crash_is_explored(self):
        """max_crashes=0 removes K/KT from the batched alphabet too."""
        base = ModelScenario(p=5, groups=2, lbas=(3,), batch=2)
        with_crash, _ = check_scenario(base)
        without, findings = check_scenario(
            ModelScenario(p=5, groups=2, lbas=(3,), batch=2, max_crashes=0)
        )
        assert findings == []
        assert without.states < with_crash.states


class TestStepFunctionRefactor:
    """run() is a driver over the explicit transitions — same bytes."""

    def test_step_api_reaches_run_result(self, rng):
        from repro.migration.online import OnlineReport
        from repro.raid import BlockArray, Raid5Array, Raid5Layout

        def build():
            array = BlockArray(4, 8, block_size=8)
            r5 = Raid5Array(array, Raid5Layout.LEFT_ASYMMETRIC)
            data = rng.integers(0, 256, size=(r5.capacity_blocks, 8), dtype=np.uint8)
            r5.format_with(data.copy())
            array.add_disk()
            return array

        rng_state = rng.bit_generator.state
        via_run = build()
        OnlineCode56Conversion(via_run, 5).run([])

        rng.bit_generator.state = rng_state  # same formatted bytes
        via_steps = build()
        conv = OnlineCode56Conversion(via_steps, 5)
        report = OnlineReport()
        while conv.pending_parity() is not None:
            conv.generate_step(report)
            conv.mark_step()
        assert conv.conversion_done
        assert np.array_equal(via_run.snapshot(), via_steps.snapshot())

    def test_thread_state_roundtrip(self, rng):
        from repro.migration.online import OnlineReport
        from repro.raid import BlockArray, Raid5Array, Raid5Layout

        array = BlockArray(4, 8, block_size=8)
        r5 = Raid5Array(array, Raid5Layout.LEFT_ASYMMETRIC)
        data = rng.integers(0, 256, size=(r5.capacity_blocks, 8), dtype=np.uint8)
        r5.format_with(data)
        array.add_disk()
        conv = OnlineCode56Conversion(array, 5)
        report = OnlineReport()
        conv.generate_step(report)
        conv.mark_step()
        saved = conv.thread_state()
        pending_before = conv.pending_parity()
        conv.generate_step(report)
        conv.mark_step()
        conv.restore_thread_state(saved)
        assert conv.pending_parity() == pending_before


class TestRunnerWiring:
    def test_concur_is_registered_but_not_default(self):
        from repro.staticcheck import ANALYZERS, DEFAULT_ANALYZERS

        assert "concur" in ANALYZERS
        assert "concur" not in DEFAULT_ANALYZERS

    def test_selftest_has_no_false_negatives(self):
        from repro.staticcheck.concur.selftest import run_concur_selftest

        checks, findings = run_concur_selftest()
        assert checks >= 8
        assert findings == []


class TestFleetTransitions:
    """The fleet's pause (P), disk-failure (F) and spare-attach (S) rules."""

    def test_pause_resume_is_clean(self):
        stats, findings = check_scenario(
            ModelScenario(p=5, groups=2, lbas=(0, 7), pauses=1)
        )
        assert findings == []
        base, _ = check_scenario(ModelScenario(p=5, groups=2, lbas=(0, 7)))
        assert stats.states > base.states  # P genuinely enlarges the space

    def test_spare_attach_is_clean_on_every_data_disk(self):
        for disk in range(4):
            _, findings = check_scenario(
                ModelScenario(p=5, groups=2, lbas=(3,), spare=True, fail_disk=disk)
            )
            assert findings == [], (disk, findings)

    def test_batched_spare_scenario_is_clean(self):
        _, findings = check_scenario(
            ModelScenario(p=5, groups=2, lbas=(0, 7), batch=2, spare=True, fail_disk=1)
        )
        assert findings == []

    def test_pause_plus_spare_compose(self):
        _, findings = check_scenario(
            ModelScenario(p=5, groups=2, lbas=(0,), pauses=1, spare=True, fail_disk=2)
        )
        assert findings == []

    def test_labels_carry_fleet_alphabet(self):
        paused = ModelScenario(p=5, groups=2, lbas=(0,), pauses=1)
        spared = ModelScenario(p=5, groups=2, lbas=(0,), spare=True, fail_disk=1)
        assert "pauses=1" in paused.label
        assert "spare(d1)" in spared.label

    def test_invalid_spare_disk_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            check_scenario(
                ModelScenario(p=5, groups=2, lbas=(0,), spare=True, fail_disk=4)
            )

    def test_battery_includes_fleet_scenarios(self):
        labels = [s.label for s in model_scenarios(5, exhaustive=True)]
        assert any("pauses=1" in label for label in labels)
        assert any("spare(" in label for label in labels)

    def test_dropped_reconstruct_write_is_caught(self):
        """A converter that swallows writes to failed-disk blocks must
        trip SC-C001 via the reconstruction read — the degraded
        invariants have teeth, not just vacuous skips."""
        from repro.migration.online import OnlineCode56Conversion as _Conv

        class DropReconstructWrite(_Conv):
            def _serve(self, req, clock, report):
                if req.is_write:
                    _g, _r, disk, _stripe = self.locate(req.lba)
                    if disk in self.array.failed_disks:
                        return clock + 1.0  # swallow the write, charge a tick
                return super()._serve(req, clock, report)

        # LBA 1 lives on data disk 1 — the failed one — so its write
        # exercises exactly the reconstruct-write path being swallowed
        _, findings = check_scenario(
            ModelScenario(p=5, groups=2, lbas=(1, 8), spare=True, fail_disk=1),
            converter_cls=DropReconstructWrite,
        )
        assert any(f.rule == "SC-C001" for f in findings)
