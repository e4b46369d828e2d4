"""The sweep runner: byte-identity, retry/fallback, observability merge.

The real-pool test spawns actual workers (the production spawn context);
the failure-mode tests inject fake executors so worker death, poisoned
chunks and hangs are exercised deterministically and fast.
"""

import dataclasses
from concurrent.futures import Future

import pytest

from repro.sweep import SweepError, SweepSpec, Workload, run_sweep
from repro.sweep.runner import _run_chunk

TINY = SweepSpec(
    primes=(5,),
    pairs=(("code56", "direct"), ("evenodd", "via-raid0")),
    workloads=(Workload.analysis(), Workload.execute(block_size=8)),
    seed=11,
)


class TestSerial:
    def test_results_cover_every_task_in_order(self):
        res = run_sweep(TINY, workers=0)
        tasks = TINY.tasks()
        assert len(res.results) == len(tasks)
        assert [r["task"] for r in res.results] == [t.task_id for t in tasks]

    def test_serial_rerun_is_byte_identical(self):
        assert run_sweep(TINY, workers=0).digest() == run_sweep(TINY, workers=0).digest()

    def test_seed_changes_execute_digests_only(self):
        a = run_sweep(TINY, workers=0)
        b = run_sweep(dataclasses.replace(TINY, seed=12), workers=0)
        assert a.digest() != b.digest()
        per_task = zip(a.results, b.results)
        for ra, rb in per_task:
            if ra["workload"] == "analysis":
                assert ra["result"] == rb["result"]  # closed-form: seed-free
            else:
                assert ra["result"]["digest"] != rb["result"]["digest"]

    def test_execute_tasks_verify(self):
        res = run_sweep(TINY, workers=0)
        for r in res.by_workload("execute"):
            assert r["result"]["verified"]

    def test_unsupported_cells_become_skip_records(self):
        spec = SweepSpec(primes=(4,), pairs=(("code56", "direct"),))
        res = run_sweep(spec, workers=0)
        assert len(res.results) == 1
        assert "skipped" in res.results[0]
        # skips are part of the canonical payload (deterministic digest)
        assert res.digest() == run_sweep(spec, workers=0).digest()

    def test_serial_collects_spans_and_metrics(self):
        res = run_sweep(TINY, workers=0)
        assert len(res.spans) >= len(TINY.tasks())
        snap = res.registry.snapshot()
        names = {c["name"] for c in snap["counters"]}
        assert "sweep.tasks" in names

    def test_oversized_execute_blocks_rejected(self, tmp_path):
        from repro.compiled import program_cache_dir

        before = program_cache_dir()
        spec = SweepSpec(primes=(5,), workloads=(Workload.execute(block_size=128),))
        with pytest.raises(ValueError, match="POOL_BLOCK_SIZE"):
            run_sweep(spec, workers=0, cache_dir=tmp_path)
        # rejected before any process state was touched
        assert program_cache_dir() == before


class TestRealPool:
    def test_two_workers_byte_identical_with_obs_merge(self, tmp_path):
        serial = run_sweep(TINY, workers=0)
        par = run_sweep(TINY, workers=2, cache_dir=tmp_path)
        assert par.digest() == serial.digest()
        assert par.payload_json() == serial.payload_json()
        assert par.retried_chunks == 0 and par.fallback_tasks == 0
        # worker spans merged under per-process tracks
        assert par.spans and all(s.track.startswith("worker-") for s in par.spans)
        names = {c["name"] for c in par.registry.snapshot()["counters"]}
        assert "sweep.tasks" in names
        # both workers compiled into the shared disk tier
        assert par.cache["compiled_total"] >= 1
        assert list(tmp_path.glob("*.npz"))
        # warm rerun: every program served from cache, still identical
        warm = run_sweep(TINY, workers=2, cache_dir=tmp_path)
        assert warm.digest() == serial.digest()
        assert warm.cache["compiled_total"] == 0


# ------------------------------------------------------------ fake executors

class _InlineExecutor:
    """Runs chunks in-process; optionally fails the first N submissions."""

    def __init__(self, poison_first: int = 0, hang: bool = False):
        self.poison_first = poison_first
        self.hang = hang
        self.submitted = 0

    def submit(self, fn, chunk):
        self.submitted += 1
        fut = Future()
        if self.hang:
            return fut  # never resolves -> exercises the timeout path
        if self.submitted <= self.poison_first:
            fut.set_exception(RuntimeError("worker died"))
        else:
            fut.set_result(fn(chunk))
        return fut

    def shutdown(self, wait=True, cancel_futures=False):
        pass


ANALYSIS = SweepSpec(primes=(5,), workloads=(Workload.analysis(),), seed=0)


class TestFailureModes:
    def test_poisoned_chunk_retried_on_fresh_pool(self):
        pools = []

        def factory(n, initargs):
            pools.append(_InlineExecutor(poison_first=len(pools) == 0 and 99 or 0))
            return pools[-1]

        res = run_sweep(ANALYSIS, workers=2, executor_factory=factory, retries=2)
        assert res.digest() == run_sweep(ANALYSIS, workers=0).digest()
        assert res.retried_chunks > 0
        assert res.fallback_tasks == 0
        assert len(pools) == 2  # first pool poisoned, second clean

    def test_exhausted_retries_fall_back_to_parent(self):
        res = run_sweep(
            ANALYSIS, workers=2, retries=1,
            executor_factory=lambda n, a: _InlineExecutor(poison_first=99),
        )
        assert res.fallback_tasks == len(ANALYSIS.tasks())
        assert res.digest() == run_sweep(ANALYSIS, workers=0).digest()

    def test_exhausted_retries_raise_when_fallback_disabled(self):
        with pytest.raises(SweepError, match="failed after"):
            run_sweep(
                ANALYSIS, workers=2, retries=1, fallback_serial=False,
                executor_factory=lambda n, a: _InlineExecutor(poison_first=99),
            )

    def test_hung_pool_times_out_and_falls_back(self):
        res = run_sweep(
            ANALYSIS, workers=2, retries=0, task_timeout=0.05,
            executor_factory=lambda n, a: _InlineExecutor(hang=True),
        )
        assert res.fallback_tasks == len(ANALYSIS.tasks())
        assert res.digest() == run_sweep(ANALYSIS, workers=0).digest()

    def test_chunking_covers_all_tasks(self):
        res = run_sweep(
            ANALYSIS, workers=2, chunksize=1,
            executor_factory=lambda n, a: _InlineExecutor(),
        )
        assert res.digest() == run_sweep(ANALYSIS, workers=0).digest()


def test_run_chunk_wire_format():
    """The worker response carries indexed records plus obs snapshots."""
    tasks = ANALYSIS.tasks()
    response = _run_chunk([t.to_dict() for t in tasks[:2]])
    assert {r["index"] for r in response["results"]} == {0, 1}
    assert set(response) >= {"pid", "results", "metrics", "spans", "cache"}
