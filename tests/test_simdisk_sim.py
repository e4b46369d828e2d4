"""Disk-array simulation engines and schedulers."""

import numpy as np
import pytest

from repro.simdisk import DiskArraySimulator, get_preset, make_scheduler, simulate_closed
from repro.simdisk.scheduler import FcfsQueue, LookQueue, SstfQueue
from repro.workloads import Trace, uniform_trace


@pytest.fixture
def model():
    return get_preset("sata-7200")


def closed_trace(rng, n=200, disks=4):
    return Trace(
        arrival_ms=np.zeros(n),
        disk=rng.integers(0, disks, n).astype(np.int32),
        block=rng.integers(0, 500_000, n),
        is_write=rng.random(n) > 0.5,
        block_size=4096,
    )


class TestClosedLoop:
    def test_event_engine_agrees(self, model, rng):
        trace = closed_trace(rng)
        a = simulate_closed(trace, model)
        b = DiskArraySimulator(model, 4, scheduler="fcfs").run(trace)
        assert a.makespan_ms == pytest.approx(b.makespan_ms)
        assert np.allclose(a.per_disk_busy_ms, b.per_disk_busy_ms)

    def test_makespan_is_busiest_disk(self, model, rng):
        trace = closed_trace(rng)
        res = simulate_closed(trace, model)
        assert res.makespan_ms == pytest.approx(res.per_disk_busy_ms.max())

    def test_empty_trace(self, model):
        trace = Trace(
            arrival_ms=np.zeros(0),
            disk=np.zeros(0, dtype=np.int32),
            block=np.zeros(0, dtype=np.int64),
            is_write=np.zeros(0, dtype=bool),
        )
        res = simulate_closed(trace, model, n_disks=4)
        assert res.makespan_ms == 0.0

    def test_sequential_much_faster_than_random(self, model):
        n = 1000
        seq = Trace(
            arrival_ms=np.zeros(n),
            disk=np.zeros(n, dtype=np.int32),
            block=np.arange(n),
            is_write=np.zeros(n, dtype=bool),
            block_size=4096,
        )
        rng = np.random.default_rng(3)
        rand = Trace(
            arrival_ms=np.zeros(n),
            disk=np.zeros(n, dtype=np.int32),
            block=rng.integers(0, 10_000_000, n),
            is_write=np.zeros(n, dtype=bool),
            block_size=4096,
        )
        t_seq = simulate_closed(seq, model).makespan_ms
        t_rand = simulate_closed(rand, model).makespan_ms
        assert t_rand > 10 * t_seq


class TestEventDriven:
    def test_open_arrivals_respect_time(self, model, rng):
        trace = uniform_trace(rng, 50, 3, 100_000, interarrival_ms=100.0)
        res = DiskArraySimulator(model, 3).run(trace)
        # with sparse arrivals the makespan is arrival-dominated
        assert res.makespan_ms >= float(trace.arrival_ms.max())

    def test_sstf_beats_fcfs_on_random_queue(self, model, rng):
        trace = closed_trace(rng, n=400, disks=2)
        fcfs = DiskArraySimulator(model, 2, scheduler="fcfs").run(trace)
        sstf = DiskArraySimulator(model, 2, scheduler="sstf").run(trace)
        assert sstf.makespan_ms < fcfs.makespan_ms

    def test_look_beats_fcfs_on_random_queue(self, model, rng):
        trace = closed_trace(rng, n=400, disks=2)
        fcfs = DiskArraySimulator(model, 2, scheduler="fcfs").run(trace)
        look = DiskArraySimulator(model, 2, scheduler="look").run(trace)
        assert look.makespan_ms < fcfs.makespan_ms

    def test_heterogeneous_models(self, rng):
        trace = closed_trace(rng, n=100, disks=2)
        fast, slow = get_preset("sas-15k"), get_preset("sata-7200")
        res = DiskArraySimulator(slow, 2, models=[fast, slow]).run(trace)
        assert res.n_requests == 100

    def test_model_list_length_checked(self, model):
        with pytest.raises(ValueError):
            DiskArraySimulator(model, 3, models=[model])

    def test_latency_stats_present(self, model, rng):
        trace = closed_trace(rng, n=100, disks=4)
        res = DiskArraySimulator(model, 4).run(trace)
        assert res.mean_latency_ms > 0
        assert res.p99_latency_ms >= res.mean_latency_ms
        assert res.makespan_s == pytest.approx(res.makespan_ms / 1e3)


class TestSchedulerQueues:
    def test_factory(self):
        assert isinstance(make_scheduler("fcfs"), FcfsQueue)
        assert isinstance(make_scheduler("sstf"), SstfQueue)
        assert isinstance(make_scheduler("look"), LookQueue)
        with pytest.raises(KeyError):
            make_scheduler("cfq")

    class _Req:
        def __init__(self, block):
            self.block = block

    def test_fcfs_order(self):
        q = FcfsQueue()
        for b in (5, 1, 9):
            q.push(self._Req(b))
        assert [q.pop(0).block for _ in range(3)] == [5, 1, 9]

    def test_sstf_picks_nearest(self):
        q = SstfQueue()
        for b in (100, 5, 60):
            q.push(self._Req(b))
        assert q.pop(50).block == 60
        assert q.pop(60).block == 100

    def test_look_sweeps(self):
        q = LookQueue()
        for b in (10, 90, 50):
            q.push(self._Req(b))
        # head at 40 moving up: 50, 90, then reverse to 10
        assert q.pop(40).block == 50
        assert q.pop(50).block == 90
        assert q.pop(90).block == 10


class TestReorderWindow:
    def test_reordering_never_hurts_much_and_often_helps(self, model, rng):
        trace = closed_trace(rng, n=600, disks=3)
        plain = simulate_closed(trace, model)
        sorted64 = simulate_closed(trace, model, reorder_window=64)
        assert sorted64.makespan_ms <= plain.makespan_ms

    def test_window_one_is_identity(self, model, rng):
        trace = closed_trace(rng, n=200, disks=3)
        a = simulate_closed(trace, model)
        b = simulate_closed(trace, model, reorder_window=1)
        assert a.makespan_ms == pytest.approx(b.makespan_ms)

    def test_invalid_window(self, model, rng):
        trace = closed_trace(rng, n=10, disks=2)
        with pytest.raises(ValueError):
            simulate_closed(trace, model, reorder_window=0)

    def test_huge_window_is_full_sort(self, model, rng):
        trace = closed_trace(rng, n=200, disks=1)
        res = simulate_closed(trace, model, reorder_window=10_000)
        blocks = np.sort(trace.per_disk_blocks(0))
        expect = model.service_ms_vector(blocks, trace.block_size).sum()
        assert res.makespan_ms == pytest.approx(expect)

    def test_matches_per_window_reference(self, model, rng):
        """The single-lexsort pass equals the explicit per-window sort."""
        trace = closed_trace(rng, n=500, disks=4)
        for window in (2, 7, 64):
            res = simulate_closed(trace, model, reorder_window=window)
            busy = np.zeros(4)
            lats = []
            for d in range(4):
                blocks = trace.per_disk_blocks(d).copy()
                for s in range(0, blocks.size, window):
                    blocks[s : s + window].sort()
                comp = np.cumsum(model.service_ms_vector(blocks, trace.block_size))
                busy[d] = comp[-1]
                lats.append(comp)
            assert np.allclose(res.per_disk_busy_ms, busy)
            lat = np.concatenate(lats)
            assert res.mean_latency_ms == pytest.approx(lat.mean())
            assert res.p99_latency_ms == pytest.approx(np.percentile(lat, 99))


class TestVectorisedClosedLoop:
    def test_staggered_arrivals_keep_stable_order(self, model, rng):
        """Ties in arrival_ms must replay in trace order (stable sort)."""
        n = 300
        trace = Trace(
            arrival_ms=rng.integers(0, 5, n).astype(np.float64),
            disk=rng.integers(0, 3, n).astype(np.int32),
            block=rng.integers(0, 500_000, n),
            is_write=np.zeros(n, dtype=bool),
            block_size=4096,
        )
        res = simulate_closed(trace, model)
        busy = np.zeros(3)
        for d in range(3):
            blocks = trace.per_disk_blocks(d)
            busy[d] = model.service_ms_vector(blocks, trace.block_size).sum()
        assert np.allclose(res.per_disk_busy_ms, busy)

    def test_requests_beyond_n_disks_are_dropped(self, model, rng):
        trace = closed_trace(rng, n=100, disks=6)
        res = simulate_closed(trace, model, n_disks=3)
        assert res.per_disk_busy_ms.shape == (3,)
        ref = np.zeros(3)
        for d in range(3):
            ref[d] = model.service_ms_vector(
                trace.per_disk_blocks(d), trace.block_size
            ).sum()
        assert np.allclose(res.per_disk_busy_ms, ref)

    def test_all_requests_dropped(self, model):
        trace = Trace(
            arrival_ms=np.zeros(2),
            disk=np.array([5, 6], dtype=np.int32),
            block=np.array([0, 1], dtype=np.int64),
            is_write=np.zeros(2, dtype=bool),
        )
        res = simulate_closed(trace, model, n_disks=3)
        assert res.n_requests == 0 and res.makespan_ms == 0.0

    def test_dropped_requests_are_not_counted(self, model):
        trace = Trace(
            arrival_ms=np.zeros(3),
            disk=np.array([0, 5, 1], dtype=np.int32),
            block=np.array([0, 1, 2], dtype=np.int64),
            is_write=np.zeros(3, dtype=bool),
        )
        res = simulate_closed(trace, model, n_disks=3)
        assert res.n_requests == res.per_disk_requests.sum() == 2

    def test_idle_disks_report_zero_busy(self, model):
        trace = Trace(
            arrival_ms=np.zeros(3),
            disk=np.array([2, 2, 2], dtype=np.int32),
            block=np.array([5, 1, 9], dtype=np.int64),
            is_write=np.zeros(3, dtype=bool),
        )
        res = simulate_closed(trace, model, n_disks=4)
        assert res.per_disk_busy_ms[0] == 0.0
        assert res.per_disk_busy_ms[2] > 0.0


class TestLatencyDigest:
    """Satellite: p50/p95 + per-disk request counts from both engines."""

    def test_closed_loop_fields_populated(self, model, rng):
        trace = closed_trace(rng, n=300, disks=4)
        res = simulate_closed(trace, model)
        assert res.p50_latency_ms > 0
        assert res.p50_latency_ms <= res.p95_latency_ms <= res.p99_latency_ms
        assert res.per_disk_requests is not None
        assert res.per_disk_requests.sum() == res.n_requests == 300
        counts = np.bincount(trace.disk, minlength=4)
        assert np.array_equal(res.per_disk_requests, counts)

    def test_event_engine_fields_populated(self, model, rng):
        trace = closed_trace(rng, n=300, disks=4)
        res = DiskArraySimulator(model, 4, scheduler="fcfs").run(trace)
        assert res.p50_latency_ms > 0
        assert res.p50_latency_ms <= res.p95_latency_ms <= res.p99_latency_ms
        assert res.per_disk_requests is not None
        assert res.per_disk_requests.sum() == 300

    def test_engines_agree_on_digest(self, model, rng):
        """Closed-loop FCFS and the event engine see identical latencies."""
        trace = closed_trace(rng, n=250, disks=4)
        a = simulate_closed(trace, model)
        b = DiskArraySimulator(model, 4, scheduler="fcfs").run(trace)
        assert a.p50_latency_ms == pytest.approx(b.p50_latency_ms)
        assert a.p95_latency_ms == pytest.approx(b.p95_latency_ms)
        assert a.p99_latency_ms == pytest.approx(b.p99_latency_ms)
        assert np.array_equal(a.per_disk_requests, b.per_disk_requests)

    def test_latency_summary_dict(self, model, rng):
        trace = closed_trace(rng, n=50, disks=2)
        res = simulate_closed(trace, model)
        summary = res.latency_summary()
        assert summary["mean_latency_ms"] == pytest.approx(res.mean_latency_ms)
        assert summary["p50_latency_ms"] == pytest.approx(res.p50_latency_ms)
        assert summary["p95_latency_ms"] == pytest.approx(res.p95_latency_ms)
        assert summary["p99_latency_ms"] == pytest.approx(res.p99_latency_ms)
        assert summary["n_requests"] == res.n_requests
        assert summary["per_disk_requests"] == [int(c) for c in res.per_disk_requests]

    def test_empty_trace_digest(self, model):
        trace = Trace(
            arrival_ms=np.zeros(0),
            disk=np.zeros(0, dtype=np.int32),
            block=np.zeros(0, dtype=np.int64),
            is_write=np.zeros(0, dtype=bool),
        )
        res = simulate_closed(trace, model, n_disks=2)
        assert res.p50_latency_ms == 0.0 and res.p95_latency_ms == 0.0
