"""Chrome trace export: schema, disk tracks vs. simulator ground truth."""

import itertools
import json

import numpy as np
import pytest

from repro.migration import build_plan
from repro.obs.timeline import (
    DISK_PID,
    SPAN_PID,
    build_chrome_trace,
    disk_events,
    load_chrome_trace,
    span_events,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.tracer import Tracer
from repro.simdisk import ServiceFaults, closed_request_schedule, get_preset, simulate_closed
from repro.workloads import conversion_trace, uniform_trace


@pytest.fixture
def schedule():
    plan = build_plan("code56", "direct", p=5)
    trace = conversion_trace(plan, block_size=4096)
    return closed_request_schedule(trace, get_preset("sas-15k"))


def make_spans(n=3):
    t = Tracer(enabled=True)
    for i in range(n):
        with t.span(f"s{i}", cat="test", track="main" if i % 2 == 0 else "other"):
            pass
    return t.spans


class TestSpanEvents:
    def test_empty(self):
        assert span_events([]) == []

    def test_rebased_and_tracked(self):
        events = span_events(make_spans())
        xs = [e for e in events if e["ph"] == "X"]
        assert len(xs) == 3
        assert min(e["ts"] for e in xs) == 0.0
        assert all(e["pid"] == SPAN_PID for e in xs)
        # two tracks -> two distinct tids plus thread_name metadata for each
        names = {
            e["args"]["name"] for e in events if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert names == {"main", "other"}
        assert len({e["tid"] for e in xs}) == 2


class TestDiskEvents:
    def test_one_slice_per_request(self, schedule):
        events = disk_events(schedule)
        xs = [e for e in events if e["ph"] == "X"]
        assert len(xs) == len(schedule)
        assert all(e["pid"] == DISK_PID for e in xs)
        assert {e["name"] for e in xs} <= {"R", "W"}
        # one thread row per disk, tid = disk + 1
        tids = {e["tid"] for e in xs}
        assert tids <= set(range(1, schedule.n_disks + 1))

    def test_component_breakdown_sums_to_duration(self, schedule):
        for e in disk_events(schedule):
            if e["ph"] != "X":
                continue
            parts = e["args"]
            total_ms = parts["seek_ms"] + parts["rotate_ms"] + parts["transfer_ms"]
            assert e["dur"] / 1e3 == pytest.approx(total_ms, abs=1e-2)

    def test_truncation(self, schedule):
        events = disk_events(schedule, max_slices=5)
        assert sum(1 for e in events if e["ph"] == "X") == 5


class TestBuildAndValidate:
    def test_busy_matches_simulator(self):
        """Every SimResult field, recomputed from the exported schedule."""
        plan = build_plan("code56", "direct", p=5)
        trace = conversion_trace(plan, block_size=4096)
        model = get_preset("sas-15k")
        faults = ServiceFaults(seed=3, transient_rate=0.2, retry_penalty_ms=7.0)
        for window, plane in itertools.product((None, 64), (None, faults)):
            schedule = closed_request_schedule(
                trace, model, reorder_window=window, faults=plane
            )
            result = simulate_closed(trace, model, reorder_window=window, faults=plane)
            assert (schedule.fault_ms.any()) == (plane is not None)
            doc = build_chrome_trace(schedule=schedule)
            busy = np.zeros(trace.n_disks)
            np.maximum.at(busy, schedule.disk, schedule.completion_ms)
            np.testing.assert_array_equal(result.per_disk_busy_ms, busy)
            np.testing.assert_allclose(
                doc["otherData"]["per_disk_busy_ms"], busy, rtol=1e-9
            )
            assert result.makespan_ms == busy.max()
            np.testing.assert_array_equal(
                result.per_disk_requests,
                np.bincount(schedule.disk, minlength=trace.n_disks),
            )
            assert result.n_requests == len(trace) == doc["otherData"]["disk_requests"]
            latency = schedule.completion_ms
            assert result.mean_latency_ms == latency.mean()
            assert [result.p50_latency_ms, result.p95_latency_ms, result.p99_latency_ms] == (
                np.percentile(latency, [50, 95, 99]).tolist()
            )

    def test_schema_valid(self, schedule):
        doc = build_chrome_trace(
            spans=make_spans(),
            schedule=schedule,
            metrics={"counters": []},
            meta={"command": "test"},
        )
        assert validate_chrome_trace(doc) == []
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"]["metrics"] == {"counters": []}
        assert doc["otherData"]["command"] == "test"

    def test_truncation_recorded(self, schedule):
        doc = build_chrome_trace(schedule=schedule, max_disk_slices=4)
        other = doc["otherData"]
        assert other["disk_slices_exported"] == 4
        assert other["disk_slices_truncated"] == len(schedule) - 4

    def test_write_and_load_roundtrip(self, tmp_path, schedule):
        path = tmp_path / "trace.json"
        written = write_chrome_trace(path, spans=make_spans(), schedule=schedule)
        loaded = load_chrome_trace(path)
        assert loaded == json.loads(json.dumps(written))
        assert validate_chrome_trace(loaded) == []

    def test_validator_flags_problems(self):
        assert validate_chrome_trace({}) == ["traceEvents missing or not a list"]
        doc = {
            "traceEvents": [
                "not-an-object",
                {"ph": "Z", "pid": 1, "tid": 1, "name": "x"},
                {"ph": "X", "pid": "one", "tid": 1, "name": "x", "ts": -1, "dur": 0},
                {"ph": "X", "pid": 1, "tid": 1, "name": "x", "ts": 0, "dur": 1, "args": []},
            ]
        }
        problems = validate_chrome_trace(doc)
        assert len(problems) >= 4

    def test_uniform_trace_schedule_valid(self):
        rng = np.random.default_rng(9)
        trace = uniform_trace(rng, n_requests=64, n_disks=4, blocks_per_disk=128)
        schedule = closed_request_schedule(trace, get_preset("sas-15k"), n_disks=4)
        doc = build_chrome_trace(schedule=schedule)
        assert validate_chrome_trace(doc) == []
        result = simulate_closed(trace, get_preset("sas-15k"), n_disks=4)
        np.testing.assert_allclose(
            doc["otherData"]["per_disk_busy_ms"], result.per_disk_busy_ms, rtol=1e-9
        )
