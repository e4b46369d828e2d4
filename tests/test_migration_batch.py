"""Batched online conversion: fused runs, group commit, overlap check.

The contract under test is strict equivalence: for every batch budget,
the fused converter must be **byte-identical** to the audited
per-parity path — same final array, same per-disk I/O counters, same
foreground latencies and stalls — while spending fewer journal flushes
(one ``mark_many`` per run).  The audited reference runs under an empty
:class:`FaultPlane`, which forces the per-parity generator and changes
no byte or counter.  Crash/resume at and inside run boundaries
rides the chaos sweep; degraded arrays must fall back to the audited
generator without losing the run/mark protocol.
"""

import numpy as np
import pytest

from repro.faults.journal import OnlineJournal
from repro.faults.plane import FaultPlane
from repro.migration import build_plan, prepare_source_array
from repro.migration import batch as batch_mod
from repro.migration.batch import fused_run_usable, run_read_credit
from repro.migration.online import OnlineCode56Conversion, OnlineRequest


def _online_array(p=5, groups=2, seed=0, block_size=8):
    plan = build_plan("code56", "direct", p, groups=groups)
    array, _data = prepare_source_array(
        plan, np.random.default_rng(seed), block_size=block_size
    )
    return array


def _audited(array):
    """``array`` under an empty fault plane: every run takes the audited
    per-parity loop, the oracle the fused path must match."""
    array.attach_fault_plane(FaultPlane())
    return array


def _tile_keys(p, block_size):
    """Keys per gather tile of :func:`execute_run_fused` at ``p``."""
    return max(1, batch_mod._TILE_BYTES // ((p - 2) * block_size))


def _requests(p=5, groups=2, seed=1, n=12, block_size=8):
    rng = np.random.default_rng(seed)
    capacity = groups * (p - 1) * (p - 2)
    reqs, t = [], 0.0
    for _ in range(n):
        t += float(rng.integers(1, 6))
        is_write = bool(rng.random() < 0.7)
        reqs.append(OnlineRequest(
            time=t,
            lba=int(rng.integers(capacity)),
            is_write=is_write,
            payload=(rng.integers(0, 256, size=block_size, dtype=np.uint8)
                     if is_write else None),
        ))
    return reqs


class TestQuietBatchedIdentity:
    """No application traffic: fused runs == audited path, exactly."""

    @pytest.mark.parametrize(
        "batch,p,groups,block_size",
        [pytest.param(batch, 5, 2, 8, id=str(batch)) for batch in (2, 4, 8)]
        # 48 parities of 4 KiB: several gather tiles and a partial last one
        + [pytest.param(48, 13, 4, 4096, id="p13-4KiB")],
    )
    def test_bytes_counters_and_ticks_identical(self, batch, p, groups, block_size):
        if block_size == 4096:
            tile = _tile_keys(p, block_size)
            assert tile < batch and batch % tile
        ref = _audited(_online_array(p, groups, block_size=block_size))
        ref_report = OnlineCode56Conversion(ref, p).run([])

        arr = _online_array(p, groups, block_size=block_size)
        conv = OnlineCode56Conversion(arr, p, batch=batch)
        report = conv.run([])

        assert conv.verify()
        assert np.array_equal(ref.snapshot(), arr.snapshot())
        assert np.array_equal(ref.reads, arr.reads)
        assert np.array_equal(ref.writes, arr.writes)
        assert report.conversion_ticks == ref_report.conversion_ticks
        assert report.parities_generated == ref_report.parities_generated

    @pytest.mark.parametrize(
        "p,groups,block_size,tile_keys",
        [
            # 24 B chains: shrink the tile to 3 keys so runs cross it
            pytest.param(5, 6, 8, 3, id="p5-8B"),
            pytest.param(13, 4, 4096, None, id="p13-4KiB"),
        ],
    )
    @pytest.mark.parametrize("shape", ["one", "sub-tile", "k-tiles", "k-tiles+partial"])
    def test_run_shapes_against_tile(
        self, monkeypatch, xor_calls, p, groups, block_size, tile_keys, shape
    ):
        """Runs of one parity, less than a tile, exactly k tiles and k
        tiles plus a partial tile: one kernel call per tile, and bytes,
        counters and ticks equal the audited loop's."""
        if tile_keys is not None:
            monkeypatch.setattr(batch_mod, "_TILE_BYTES", tile_keys * (p - 2) * block_size)
        tile = _tile_keys(p, block_size)
        batch = {
            "one": 1,
            "sub-tile": tile - 1,
            "k-tiles": 2 * tile,
            "k-tiles+partial": 2 * tile + 1,
        }[shape]
        assert 1 <= batch <= groups * (p - 1)

        ref = _audited(_online_array(p, groups, block_size=block_size))
        ref_report = OnlineCode56Conversion(ref, p).run([])
        arr = _online_array(p, groups, block_size=block_size)
        xor_calls.clear()
        report = OnlineCode56Conversion(arr, p, batch=batch).run([])

        full_runs, last_run = divmod(groups * (p - 1), batch)
        assert report.max_run == batch
        assert len(xor_calls) == full_runs * -(-batch // tile) + -(-last_run // tile)
        assert np.array_equal(ref.snapshot(), arr.snapshot())
        assert np.array_equal(ref.reads, arr.reads)
        assert np.array_equal(ref.writes, arr.writes)
        assert report.conversion_ticks == ref_report.conversion_ticks

    def test_batched_report_accounting(self):
        arr = _online_array()
        conv = OnlineCode56Conversion(arr, 5, batch=4)
        report = conv.run([])
        assert report.runs_committed == 2  # 8 parities / budget 4
        assert report.max_run == 4

    def test_executor_choice_by_array_state(self, xor_calls):
        """A fault plane forces the audited loop (no kernel call); on a
        healthy array every run, one parity long included, takes the
        fused path (one kernel call per run); same bytes and counters."""
        ref = _audited(_online_array())
        ref_report = OnlineCode56Conversion(ref, 5, batch=1).run([])
        assert len(xor_calls) == 0
        assert ref_report.runs_committed == 8 and ref_report.max_run == 1

        for batch, runs in ((1, 8), (2, 4)):
            xor_calls.clear()
            arr = _online_array()
            report = OnlineCode56Conversion(arr, 5, batch=batch).run([])
            assert len(xor_calls) == report.runs_committed == runs
            assert np.array_equal(ref.snapshot(), arr.snapshot())
            assert np.array_equal(ref.reads, arr.reads)
            assert np.array_equal(ref.writes, arr.writes)
            assert report.conversion_ticks == ref_report.conversion_ticks

    def test_group_commit_is_one_flush_per_run(self):
        journal = OnlineJournal(2, 4)
        arr = _online_array()
        OnlineCode56Conversion(arr, 5, journal=journal, batch=4).run([])
        assert journal.appends == 2
        assert journal.count() == 8

        per_parity = OnlineJournal(2, 4)
        arr2 = _online_array()
        OnlineCode56Conversion(arr2, 5, journal=per_parity, batch=1).run([])
        assert per_parity.appends == 8


class TestOfflineOracle:
    """Every run budget lands on the audited offline engine's image."""

    @pytest.mark.parametrize("p", [5, 7, 13])
    @pytest.mark.parametrize("budget", ["1", "2", "rows", "all"])
    def test_quiet_online_equals_offline_direct(self, p, budget):
        from repro.migration import execute_plan

        groups, rows = 3, p - 1
        batch = {"1": 1, "2": 2, "rows": rows, "all": groups * rows}[budget]
        plan = build_plan("code56", "direct", p, groups=groups)
        offline, data = prepare_source_array(plan, np.random.default_rng(p), block_size=16)
        execute_plan(plan, offline, data)

        online, _ = prepare_source_array(plan, np.random.default_rng(p), block_size=16)
        conv = OnlineCode56Conversion(online, p, batch=batch)
        conv.run([])
        assert conv.verify()
        assert np.array_equal(offline.snapshot(), online.snapshot())


class TestBatchedUnderWrites:
    """Application traffic: byte identity AND identical foreground latency."""

    @pytest.mark.parametrize("batch", [2, 3, 4, 24])
    def test_identical_to_per_parity(self, batch):
        reqs = _requests()
        ref = _audited(_online_array())
        ref_report = OnlineCode56Conversion(ref, 5).run(reqs)

        arr = _online_array()
        conv = OnlineCode56Conversion(arr, 5, batch=batch)
        report = conv.run(reqs)

        assert conv.verify()
        assert np.array_equal(ref.snapshot(), arr.snapshot())
        assert np.array_equal(ref.reads, arr.reads)
        assert np.array_equal(ref.writes, arr.writes)
        # the deadline-shrunk batch claims exactly the per-parity
        # schedule's work per interval, so the foreground (stall +
        # service) is not merely "no worse" — it is identical
        assert report.request_latencies == ref_report.request_latencies
        assert report.request_stalls == ref_report.request_stalls

    def test_shrinks_are_counted(self):
        arr = _online_array()
        conv = OnlineCode56Conversion(arr, 5, batch=24)
        report = conv.run(_requests())
        assert report.batch_shrinks > 0
        assert report.max_run <= 24


class TestDegradedFallback:
    """Fault plane / failed disks force the audited per-parity generator."""

    def test_fused_unusable_on_failed_disk(self):
        arr = _online_array()
        arr.fail_disk(1)
        assert not fused_run_usable(arr)

    def test_fused_usable_on_healthy_array(self):
        assert fused_run_usable(_online_array())

    def test_fused_unusable_under_a_plane_or_sanitizer(self):
        from repro.staticcheck.concur.sanitizer import BlockSanitizer

        assert not fused_run_usable(_audited(_online_array()))
        arr = _online_array()
        arr.attach_sanitizer(BlockSanitizer())
        assert not fused_run_usable(arr)

    def test_degraded_batched_matches_degraded_per_parity(self):
        ref = _online_array()
        ref.fail_disk(1)
        ref_report = OnlineCode56Conversion(ref, 5).run([])

        arr = _online_array()
        arr.fail_disk(1)
        conv = OnlineCode56Conversion(arr, 5, batch=4)
        report = conv.run([])

        assert np.array_equal(ref.snapshot(), arr.snapshot())
        assert report.degraded_reads == ref_report.degraded_reads
        assert report.conversion_ticks == ref_report.conversion_ticks
        assert report.runs_committed == 2  # run/mark protocol survives fallback


class TestRunProtocol:
    """The explicit run transitions the model checker drives."""

    def test_pending_run_is_pure(self):
        conv = OnlineCode56Conversion(_online_array(), 5, batch=4)
        first = conv.pending_run()
        assert first == ((0, 0), (0, 1), (0, 2), (0, 3))
        assert conv.pending_run() == first  # no cursor movement
        assert conv.pending_run(budget=2) == first[:2]

    def test_generate_twice_without_mark_raises(self):
        from repro.migration.online import OnlineReport

        conv = OnlineCode56Conversion(_online_array(), 5, batch=2)
        conv.generate_run_step(OnlineReport())
        with pytest.raises(RuntimeError):
            conv.generate_run_step(OnlineReport())

    def test_mark_without_run_raises(self):
        conv = OnlineCode56Conversion(_online_array(), 5, batch=2)
        with pytest.raises(RuntimeError):
            conv.mark_run_step()

    def test_run_overlap_membership(self):
        from repro.migration.online import OnlineReport

        conv = OnlineCode56Conversion(_online_array(), 5, batch=3)
        assert not conv.run_overlaps(0, 0)  # nothing in flight
        conv.generate_run_step(OnlineReport())
        assert conv.in_flight_run == ((0, 0), (0, 1), (0, 2))
        assert conv.run_overlaps(0, 1)
        assert not conv.run_overlaps(0, 3)  # past the run interval
        assert not conv.run_overlaps(1, 0)
        conv.mark_run_step()
        assert conv.in_flight_run is None
        assert not conv.run_overlaps(0, 1)

    def test_thread_state_roundtrip_with_run(self):
        from repro.migration.online import OnlineReport

        conv = OnlineCode56Conversion(_online_array(), 5, batch=2)
        conv.generate_run_step(OnlineReport())
        saved = conv.thread_state()
        assert saved[2] == ((0, 0), (0, 1))
        conv.mark_run_step()
        conv.restore_thread_state(saved)
        assert conv.in_flight_run == ((0, 0), (0, 1))
        assert conv.run_overlaps(0, 0)
        conv.mark_run_step()  # restored run is committable

    def test_gapped_run_skips_generated_entries(self):
        """A run claimed around already-generated parities exercises the
        fancy-indexed (non-contiguous) fused gather."""
        from repro.migration.online import OnlineReport

        ref = _audited(_online_array())
        OnlineCode56Conversion(ref, 5).run([])

        arr = _online_array()
        conv = OnlineCode56Conversion(arr, 5, batch=8)
        report = OnlineReport()
        # pre-generate (0,1) and (0,2) per-parity, leaving a gap
        conv._generated[0, 1] = True
        conv._generated[0, 2] = True
        run = conv.pending_run()
        assert run[:2] == ((0, 0), (0, 3))
        conv.generate_run_step(report)
        conv.mark_run_step()
        # regenerate the two skipped entries so bytes are complete
        conv._generated[0, 1] = False
        conv._generated[0, 2] = False
        conv._cursor = 0
        conv.generate_run_step(report)
        conv.mark_run_step()
        assert conv.verify()
        assert np.array_equal(ref.snapshot(), arr.snapshot())

    def test_tiled_resume_over_journal_holes(self, xor_calls):
        """A resume whose journal marks leave holes claims one run of
        non-contiguous keys spanning several gather tiles and ending in a
        partial one.  Bytes, per-disk counters and ticks equal the
        audited loop's."""
        p, groups, bs = 13, 8, 4096
        rows = p - 1
        done = _online_array(p, groups, block_size=bs)
        OnlineCode56Conversion(done, p).run([])
        marked = [(g, r) for g in range(groups) for r in range(rows) if (g + r) % 3 == 0]

        def resumed(array):
            journal = OnlineJournal(groups, rows)
            for g, r in marked:
                array.raw(p - 1, g * rows + r)[...] = done.raw(p - 1, g * rows + r)
                journal.mark(g, r)
            return OnlineCode56Conversion(array, p, journal=journal, batch=groups * rows)

        ref = resumed(_audited(_online_array(p, groups, block_size=bs)))
        ref_report = ref.run([])
        conv = resumed(_online_array(p, groups, block_size=bs))
        run = conv.pending_run()
        tile = _tile_keys(p, bs)
        assert len(run) > tile and len(run) % tile
        assert run[:3] == ((0, 1), (0, 2), (0, 4))
        xor_calls.clear()
        report = conv.run([])

        assert report.runs_committed == 1
        assert len(xor_calls) == -(-len(run) // tile)
        assert conv.verify()
        assert np.array_equal(ref.array.snapshot(), conv.array.snapshot())
        assert np.array_equal(ref.array.reads, conv.array.reads)
        assert np.array_equal(ref.array.writes, conv.array.writes)
        assert report.conversion_ticks == ref_report.conversion_ticks

    def test_batch_zero_rejected(self):
        with pytest.raises(ValueError):
            OnlineCode56Conversion(_online_array(), 5, batch=0)


class TestReadCredit:
    def test_credit_matches_audited_reads(self):
        arr = _online_array()
        ref = _audited(_online_array())
        OnlineCode56Conversion(ref, 5, batch=1).run([])
        OnlineCode56Conversion(arr, 5, batch=8).run([])
        credit = run_read_credit(arr, 5, np.arange(8))  # groups 0-1, rows 0-3
        assert credit.sum() == 8 * 3  # (p-2) chain reads per parity
        assert np.array_equal(credit, ref.reads)  # a quiet run reads chains only
        assert np.array_equal(arr.reads, ref.reads)


class TestCrashResumeAtRunBoundaries:
    """Chaos sweep with batch > 1: crashes land inside commit windows."""

    @pytest.mark.parametrize("batch", [2, 4])
    def test_sweep_is_clean(self, batch):
        from repro.faults.chaos import crash_sweep_online

        report = crash_sweep_online(
            5, groups=2, schedules=2, batch=batch, sample=8
        )
        assert report["ok"], report["failures"]
        assert report["batch"] == batch

    def test_soak_spec_replays(self):
        from repro.faults.chaos import _online_single, replay_scenario
        from repro.faults.spec import FaultScenario

        scenario = FaultScenario(seed=3).with_crash(9, 0.5)
        spec = {
            "kind": "online-crash", "p": 5, "groups": 2, "block_size": 8,
            "seed": 3, "schedule": 1, "n_requests": 6, "batch": 4,
            "scenario": scenario.to_dict(),
        }
        direct = _online_single(
            5, 2, 3, 1, 8, scenario, None, n_requests=6, batch=4
        )
        assert direct["ok"]
        assert replay_scenario(spec)["ok"]


class TestObsBridge:
    def test_record_online_report_histogram(self):
        from repro.obs import record_online_report
        from repro.obs.metrics import MetricsRegistry

        arr = _online_array()
        conv = OnlineCode56Conversion(arr, 5, batch=4)
        report = conv.run(_requests())
        registry = MetricsRegistry()
        registry.enabled = True
        record_online_report(report, registry)
        hist = registry.histogram("online.request_latency_ticks")
        assert hist.count == len(report.request_latencies)
        foreground = [s + l for s, l in
                      zip(report.request_stalls, report.request_latencies)]
        assert hist.sum == pytest.approx(sum(foreground))
        p99 = registry.gauge("online.request_latency_ticks.p99")
        assert p99.value >= 0.0
        snap = registry.snapshot()
        assert any(
            h["name"] == "online.request_latency_ticks"
            for h in snap["histograms"]
        )
