"""The self-healing migration fleet: health, QoS, recovery, service gates."""

import numpy as np
import pytest

from repro.faults.events import DiskFailureEvent
from repro.faults.spec import FaultScenario
from repro.fleet import (
    CircuitBreaker,
    FleetConfig,
    FleetVolume,
    QosTarget,
    SparePool,
    TokenBucket,
    VolumeHealth,
    VolumeSpec,
    VolumeState,
    fleet_soak,
    run_fleet,
)
from repro.obs import record_fleet_report
from repro.obs.metrics import MetricsRegistry


def run_volume(spares=None, **spec_kwargs):
    spec_kwargs.setdefault("volume_id", 0)
    vol = FleetVolume(VolumeSpec(**spec_kwargs))
    return vol, vol.run(spares)


class TestHealthMachine:
    def test_happy_path(self):
        h = VolumeHealth()
        assert h.state is VolumeState.PENDING
        h.transition(VolumeState.MIGRATING, 0.0, "admitted")
        h.transition(VolumeState.DEGRADED, 5.0, "disk lost")
        h.transition(VolumeState.REBUILDING, 6.0, "spare attached")
        h.transition(VolumeState.MIGRATING, 9.0, "rebuilt")
        h.transition(VolumeState.COMPLETE, 20.0, "drained")
        assert h.terminal
        assert [t["to"] for t in h.history()] == [
            "migrating", "degraded", "rebuilding", "migrating", "complete",
        ]

    def test_illegal_edges_raise(self):
        h = VolumeHealth()
        with pytest.raises(ValueError):
            h.transition(VolumeState.COMPLETE, 0.0, "skip admission")
        h.transition(VolumeState.MIGRATING, 0.0, "admitted")
        with pytest.raises(ValueError):
            h.transition(VolumeState.REBUILDING, 1.0, "rebuild without degrade")
        with pytest.raises(ValueError):
            h.transition(VolumeState.MIGRATING, 1.0, "self edge")

    def test_terminal_states_are_absorbing(self):
        h = VolumeHealth()
        h.transition(VolumeState.FAILED, 0.0, "dead on arrival")
        for dst in VolumeState:
            with pytest.raises(ValueError):
                h.transition(dst, 1.0, "escape")

    def test_history_records_tick_and_reason(self):
        h = VolumeHealth()
        h.transition(VolumeState.MIGRATING, 3.5, "admitted")
        (entry,) = h.history()
        assert entry == {
            "tick": 3.5, "from": "pending", "to": "migrating",
            "reason": "admitted",
        }


class TestTokenBucket:
    def test_starts_full_and_refills(self):
        b = TokenBucket(rate=2.0, burst=8.0)
        assert b.available(0.0) == 8.0
        b.spend(8.0, 0.0)
        assert b.available(0.0) == 0.0
        assert b.available(2.0) == 4.0
        assert b.available(100.0) == 8.0  # clamped at burst

    def test_delay_until_schedules_refill(self):
        b = TokenBucket(rate=1.0, burst=4.0)
        b.spend(4.0, 0.0)
        assert b.delay_until(3.0, 0.0) == 3.0
        assert b.delay_until(3.0, 5.0) == 0.0

    def test_cost_above_burst_is_satisfiable(self):
        b = TokenBucket(rate=1.0, burst=4.0)
        b.spend(4.0, 0.0)
        # a cost the bucket can never hold is clamped to the burst so
        # the caller waits for a full bucket instead of forever
        assert b.delay_until(100.0, 0.0) == 4.0


class TestCircuitBreaker:
    def test_needs_min_samples_to_trip(self):
        br = CircuitBreaker(QosTarget(p99_ticks=5.0), min_samples=8)
        for t in range(7):
            assert not br.observe(100.0, float(t))
        assert not br.is_open(7.0)
        assert br.observe(100.0, 8.0)
        assert br.is_open(8.5)

    def test_backoff_grows_then_clean_sample_resets(self):
        br = CircuitBreaker(QosTarget(p99_ticks=5.0), min_samples=1)
        br.observe(50.0, 0.0)
        first = br.resume_tick - 0.0
        t = br.resume_tick
        br.observe(50.0, t)
        assert br.resume_tick - t == 2 * first
        t = br.resume_tick
        br.observe(1.0, t)  # clean sample after the pause
        assert not br.is_open(t)
        br.observe(50.0, t + 1)
        assert br.resume_tick - (t + 1) == first  # backoff re-armed

    def test_snapshot_counts(self):
        br = CircuitBreaker(QosTarget(p99_ticks=5.0), min_samples=1)
        br.observe(2.0, 0.0)
        br.observe(50.0, 1.0)
        snap = br.snapshot()
        assert snap["trips"] == 1
        assert len(snap["breaches"]) == 1
        assert snap["open_ticks"] > 0
        assert snap["closed_samples"] == 2


class TestVolumeLifecycle:
    def test_plain_volume_completes_verified(self):
        vol, res = run_volume(seed=7)
        assert res["state"] == "complete"
        assert res["error"] is None
        assert res["verified"] is True
        assert res["divergent_blocks"] == 0
        assert res["requests_served"] == vol.spec.n_requests
        assert res["parities_generated"] == vol.spec.groups * vol.spec.rows
        assert [t["to"] for t in res["transitions"]] == ["migrating", "complete"]

    def test_batched_volume_matches_reference(self):
        _, res = run_volume(seed=7, batch=4)
        assert res["state"] == "complete"
        assert res["verified"] is True
        assert res["divergent_blocks"] == 0

    def test_result_is_deterministic(self):
        _, a = run_volume(seed=3, batch=2)
        _, b = run_volume(seed=3, batch=2)
        assert a == b

    def test_final_image_is_offline_conversion_of_applied_writes(self):
        # the acceptance oracle itself: online bytes == analytically
        # built offline image of (initial data + applied writes)
        vol, res = run_volume(seed=11)
        assert res["divergent_blocks"] == 0
        assert np.array_equal(vol.reference_snapshot(), vol.array.snapshot())


class TestSpareRebuild:
    FAIL = (DiskFailureEvent(time=12.0, disk=1),)

    def test_rebuild_completes_with_zero_divergence(self):
        pool = SparePool(1)
        vol, res = run_volume(spares=pool, seed=5, failures=self.FAIL)
        assert res["state"] == "complete"
        assert res["rebuilds_completed"] == 1
        assert res["divergent_blocks"] == 0
        assert res["verified"] is True
        assert not vol.array.failed_disks
        path = [t["to"] for t in res["transitions"]]
        assert path == ["migrating", "degraded", "rebuilding", "migrating", "complete"]
        assert pool.snapshot() == {"total": 1, "free": 0, "granted": 1, "denied": 0}

    def test_no_spare_drains_degraded(self):
        pool = SparePool(0)
        vol, res = run_volume(spares=pool, seed=5, failures=self.FAIL)
        assert res["state"] == "complete"
        assert res["spare_denied"] == 1
        assert res["rebuilds_completed"] == 0
        assert 1 in vol.array.failed_disks
        # surviving disks still match the offline image exactly
        assert res["divergent_blocks"] == 0
        assert res["degraded_reads"] > 0
        assert res["transitions"][-1]["reason"] == "drained-degraded"

    def test_diagonal_disk_loss_reconverts_on_spare(self):
        pool = SparePool(1)
        fail = (DiskFailureEvent(time=12.0, disk=4),)  # the hot-added disk
        _, res = run_volume(spares=pool, seed=5, failures=fail)
        assert res["state"] == "complete"
        assert res["rebuilds_completed"] == 1
        assert res["divergent_blocks"] == 0
        assert res["verified"] is True

    def test_diagonal_disk_loss_without_spare_fails(self):
        fail = (DiskFailureEvent(time=12.0, disk=4),)
        _, res = run_volume(spares=SparePool(0), seed=5, failures=fail)
        assert res["state"] == "failed"

    def test_double_data_fault_fails_volume(self):
        fail = (
            DiskFailureEvent(time=12.0, disk=1),
            DiskFailureEvent(time=14.0, disk=2),
        )
        _, res = run_volume(spares=SparePool(0), seed=5, failures=fail)
        assert res["state"] == "failed"


class TestQosBreaker:
    def test_tight_target_trips_and_still_converges(self):
        # p99 of 7 ticks is below an interrupted write's service time,
        # so the breaker must trip; conversion pauses, backs off and
        # resumes from the watermark — and the bytes still land exactly
        _, res = run_volume(
            seed=9, groups=6, batch=4, qos=QosTarget(p99_ticks=7.0), n_requests=24
        )
        assert res["state"] == "complete"
        assert res["breaker"]["trips"] >= 1
        assert res["resumes"] >= 1
        assert res["divergent_blocks"] == 0
        assert res["verified"] is True

    def test_loose_target_never_trips(self):
        _, res = run_volume(seed=9, qos=QosTarget(p99_ticks=500.0), n_requests=24)
        assert res["breaker"]["trips"] == 0
        assert res["resumes"] == 0


class TestCrashResume:
    def test_clean_crash_resumes_to_identical_bytes(self):
        scen = FaultScenario(seed=1).with_crash(4)
        vol, res = run_volume(seed=13, scenario=scen)
        assert res["state"] == "complete"
        assert res["crashes"] == 1
        assert res["resumes"] >= 1
        assert res["divergent_blocks"] == 0
        clean_vol, clean_res = run_volume(seed=13)
        assert clean_res["crashes"] == 0
        # crash/resume must land the exact bytes of an uninterrupted run
        assert np.array_equal(vol.array.snapshot(), clean_vol.array.snapshot())

    def test_torn_crash_is_scrubbed_on_resume(self):
        scen = FaultScenario(seed=1).with_crash(4, 0.5)
        _, res = run_volume(seed=13, scenario=scen, batch=2)
        assert res["state"] == "complete"
        assert res["crashes"] == 1
        assert res["divergent_blocks"] == 0
        assert res["verified"] is True


class TestFleetService:
    def test_default_fleet_passes_every_gate(self):
        report = run_fleet(volumes=6, requests_per_volume=8)
        assert report["ok"], report["gates"]
        assert report["volumes_complete"] == 6
        assert report["divergent_blocks"] == 0
        assert report["errors"] == []

    @pytest.mark.parametrize("cfg", [
        pytest.param(
            dict(volumes=8, spares=2, fail_volumes=(2, 5),
                 requests_per_volume=10),
            id="8-volumes",
        ),
        pytest.param(
            dict(volumes=16, spares=4, fail_volumes=(3, 7, 11),
                 requests_per_volume=12, batch=4, seed=2026),
            id="16-volumes",
        ),
    ])
    def test_injected_failures_complete_through_spares(self, cfg):
        # report["ok"] holds even when a failed-disk volume ends "failed",
        # so completion and rebuilds are checked volume by volume
        report = run_fleet(fail_disk=1, **cfg)
        assert report["ok"], report["gates"]
        assert report["volumes_complete"] == cfg["volumes"], report["states"]
        assert report["rebuilds_completed"] >= len(cfg["fail_volumes"])
        for vid in cfg["fail_volumes"]:
            vol = report["volumes"][vid]
            assert vol["state"] == "complete"
            assert vol["rebuilds_completed"] >= 1

    def test_results_independent_of_client_pool_width(self):
        # ``clients`` is a recorded but inert field: every value drains the
        # same serial loop
        cfg = dict(volumes=6, requests_per_volume=8, fail_volumes=(1,), spares=1)
        narrow = run_fleet(clients=1, **cfg)
        wide = run_fleet(clients=6, **cfg)
        for a, b in zip(narrow["volumes"], wide["volumes"]):
            assert a == b

    def test_exhausted_spares_go_to_the_lowest_failing_volume(self):
        # four volumes lose a disk and one spare exists: the drain is
        # serial, so the first failing volume in id order gets it
        cfg = FleetConfig(
            volumes=8, clients=4, spares=1, fail_volumes=(1, 2, 5, 6),
            fail_disk=1, requests_per_volume=10,
        )
        report = run_fleet(cfg)
        assert report["ok"], report["gates"]
        assert report["spares"] == {"total": 1, "free": 0, "granted": 1, "denied": 3}
        vols = report["volumes"]
        assert (vols[1]["rebuilds_completed"], vols[1]["spare_denied"]) == (1, 0)
        for vid in (2, 5, 6):
            assert (vols[vid]["rebuilds_completed"], vols[vid]["spare_denied"]) == (0, 1)
        again = run_fleet(cfg)
        for doc in (report, again):
            doc.pop("elapsed_seconds")
        assert report == again

    def test_tenants_round_robin_and_qos_scored_per_tenant(self):
        report = run_fleet(volumes=6, requests_per_volume=8)
        assert set(report["tenants"]) == {"gold", "silver", "bronze"}
        for t in report["tenants"].values():
            assert t["volumes"] == 2
            assert t["worst_closed_p99"] <= t["p99_target"]

    def test_config_round_trips(self):
        cfg = FleetConfig(
            volumes=5, fail_volumes=(1, 3), fail_disk=2, crash_volumes=(0,),
            transient_rate=0.01,
        )
        assert FleetConfig.from_dict(cfg.to_dict()) == cfg

    def test_spare_exhaustion_is_reported_not_fatal(self):
        report = run_fleet(
            volumes=4, spares=0, fail_volumes=(0, 1), fail_disk=1,
            requests_per_volume=8,
        )
        assert report["spares"]["denied"] == 2
        assert report["gates"]["zero_divergence"]
        states = [v["state"] for v in report["volumes"]]
        assert states.count("complete") == 4


class TestFleetSoak:
    def test_bounded_soak_passes(self):
        out = fleet_soak(seconds=60.0, seed=2, max_iterations=3)
        assert out["ok"], out["failures"]
        assert out["iterations"] == 3
        assert out["totals"]["volumes"] > 0

    def test_soak_is_seed_deterministic(self):
        a = fleet_soak(seconds=60.0, seed=4, max_iterations=2)
        b = fleet_soak(seconds=60.0, seed=4, max_iterations=2)
        assert a["totals"] == b["totals"]


class TestRecordFleetReport:
    def test_snapshot_carries_health_qos_and_recovery(self):
        report = run_fleet(
            volumes=4, spares=1, fail_volumes=(1,), fail_disk=1,
            requests_per_volume=8,
        )
        registry = MetricsRegistry(enabled=True)
        record_fleet_report(report, registry)
        snap = registry.snapshot()
        counters = {
            (s["name"], tuple(sorted(s.get("labels", {}).items()))): s["value"]
            for s in snap["counters"]
        }
        gauges = {
            (s["name"], tuple(sorted(s.get("labels", {}).items()))): s["value"]
            for s in snap["gauges"]
        }
        assert gauges[("fleet.volume_state", (("state", "complete"),))] == 4.0
        assert counters[("fleet.volumes", ())] == 4
        assert counters[("fleet.rebuilds_completed", ())] == report["rebuilds_completed"]
        assert counters[("fleet.spares_attached", ())] == 1
        assert gauges[("fleet.gate", (("gate", "zero_divergence"),))] == 1.0
        for tenant, t in report["tenants"].items():
            key = ("fleet.closed_latency_ticks.worst_p99", (("tenant", tenant),))
            assert gauges[key] == t["worst_closed_p99"]
        hist = {h["name"]: h for h in snap["histograms"]}
        total_samples = sum(v["latency"]["samples"] for v in report["volumes"])
        assert hist["fleet.request_latency_ticks"]["count"] == total_samples
        assert "fleet.volume_state" in registry.render_text()
