"""Process-pool sweep execution with deterministic, byte-identical merging.

:func:`run_sweep` fans a :class:`~repro.sweep.spec.SweepSpec`'s task grid
out over a :class:`concurrent.futures.ProcessPoolExecutor` (or runs it
inline with ``workers=0``) and merges the results **in task order**, so
the merged payload of a parallel run is byte-for-byte identical to the
serial run — the scheduling is invisible in the output, which is what
lets CI assert equality instead of "roughly equal".

Mechanics:

* **chunked dispatch** — tasks ship to workers in contiguous chunks
  (fewer IPC round-trips); results come back tagged with their task
  index, so arrival order is irrelevant;
* **one source-data pool** — the ``execute`` workload's logical payload
  is one seed-deterministic random pool (:func:`data_pool`), which every
  pool worker regenerates from the seed at start-up and serial runs
  build once — identical bytes either way;
* **timeout / retry** — a chunk that times out, dies with its worker, or
  raises is retried on a fresh pool up to ``retries`` times, then (by
  default) recomputed inline by the parent, so a flaky worker degrades
  throughput, never results;
* **observability merge** — each worker snapshots its private metrics
  registry and tracer per chunk; the parent folds them into one registry
  (:func:`repro.obs.merge_snapshot`) and one span list with per-worker
  tracks, exportable as a single Perfetto timeline.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from multiprocessing import get_context

import numpy as np

from repro.obs import (
    MetricsRegistry,
    Tracer,
    merge_snapshot,
    record_array_io,
    record_sim_result,
    spans_from_dicts,
)
from repro.obs.tracer import SpanRecord
from repro.sweep.spec import SweepSpec, SweepTask, derive_seed

__all__ = ["SweepError", "SweepResult", "run_sweep", "run_task", "POOL_BLOCKS"]

#: logical blocks in the source-data pool; ``execute`` tasks tile
#: it to their plan's data_blocks, so any grid size is covered
POOL_BLOCKS = 4096
#: byte width of the pool — execute tasks read the leading ``block_size``
#: columns, so every block size shares one pool
POOL_BLOCK_SIZE = 64


class SweepError(RuntimeError):
    """A task could not be completed within the retry budget."""


# --------------------------------------------------------------------------
# task execution (pure: runs identically in a worker or in the parent)
# --------------------------------------------------------------------------

def data_pool(seed: int) -> np.ndarray:
    """The seed-deterministic ``(POOL_BLOCKS, POOL_BLOCK_SIZE)`` payload."""
    return np.random.default_rng(derive_seed(seed, "source-data-pool")).integers(
        0, 256, size=(POOL_BLOCKS, POOL_BLOCK_SIZE), dtype=np.uint8
    )


def _task_plan(task: SweepTask):
    from repro.analysis.costmodel import comparison_width
    from repro.migration import build_plan
    from repro.migration.approaches import alignment_cycle

    n = comparison_width(task.code, task.p)
    return build_plan(
        task.code, task.approach, task.p,
        groups=alignment_cycle(task.code, task.p, n), n_disks=n,
    )


def run_task(task: SweepTask, pool: np.ndarray | None = None, pool_seed: int = 0) -> dict:
    """Execute one grid cell; returns a JSON-safe record.

    ``pool`` is the source-data payload for ``execute`` tasks
    (generated from ``pool_seed`` when absent).  Unsupported (code, p)
    combinations come back as ``{"skipped": ...}`` — a deterministic
    record, so serial and parallel merges agree on the full grid, holes
    included.
    """
    opts = task.workload.options
    base = {
        "task": task.task_id,
        "code": task.code,
        "approach": task.approach,
        "p": task.p,
        "workload": task.workload.name,
        "label": task.label,
    }
    try:
        plan = _task_plan(task)
    except ValueError as exc:
        return {**base, "skipped": str(exc)}

    from repro.obs import get_registry

    registry = get_registry()
    registry.counter("sweep.tasks", workload=task.workload.name).inc()

    kind = task.workload.kind
    if kind == "analysis":
        from dataclasses import asdict

        from repro.analysis import metrics_from_plan

        return {**base, "result": asdict(metrics_from_plan(plan))}

    if kind == "sim":
        from repro.simdisk import get_preset, simulate_closed
        from repro.workloads import conversion_trace

        trace = conversion_trace(
            plan,
            total_data_blocks=opts["total_blocks"],
            block_size=opts["block_size"],
            lb_rotation_period=opts["lb"],
        )
        res = simulate_closed(
            trace, get_preset(opts["disk"]), reorder_window=opts["reorder_window"]
        )
        record_sim_result(res, registry)
        return {
            **base,
            "result": {
                "makespan_s": res.makespan_s,
                "n_requests": res.n_requests,
                "mean_latency_ms": res.mean_latency_ms,
                "p99_latency_ms": res.p99_latency_ms,
            },
        }

    if kind == "execute":
        from repro.compiled import execute_plan_compiled
        from repro.migration import prepare_source_array, verify_conversion

        block_size = opts["block_size"]
        if pool is None:
            pool = data_pool(pool_seed)
        data = pool[np.arange(plan.data_blocks) % POOL_BLOCKS, :block_size]
        rng = np.random.default_rng(task.seed)
        array, data = prepare_source_array(plan, rng, block_size=block_size, data=data)
        result = execute_plan_compiled(plan, array, data)
        ok = verify_conversion(result, np.random.default_rng(task.seed))
        record_array_io(array, registry, prefix="sweep.array")
        return {
            **base,
            "result": {
                "verified": bool(ok),
                "reads": [int(r) for r in array.reads],
                "writes": [int(w) for w in array.writes],
                "digest": hashlib.sha256(array.snapshot().tobytes()).hexdigest(),
            },
        }

    if kind == "appsim":
        from repro.analysis.costmodel import comparison_width
        from repro.simdisk import get_preset, simulate_closed
        from repro.workloads import sequential_trace, uniform_trace, zipf_trace

        n = comparison_width(task.code, task.p)
        pattern = opts["pattern"]
        if pattern == "sequential":
            trace = sequential_trace(opts["n_requests"], n)
        else:
            gen = uniform_trace if pattern == "uniform" else zipf_trace
            trace = gen(task.seed, opts["n_requests"], n, opts["blocks_per_disk"])
        res = simulate_closed(trace, get_preset(opts["disk"]))
        record_sim_result(res, registry)
        return {
            **base,
            "result": {
                "makespan_s": res.makespan_s,
                "n_requests": res.n_requests,
                "mean_latency_ms": res.mean_latency_ms,
                "p99_latency_ms": res.p99_latency_ms,
                "trace_sha256": hashlib.sha256(
                    trace.disk.tobytes() + trace.block.tobytes() + trace.is_write.tobytes()
                ).hexdigest(),
            },
        }

    raise ValueError(f"unknown workload kind {kind!r}")  # pragma: no cover


# --------------------------------------------------------------------------
# worker side
# --------------------------------------------------------------------------

_WORKER_STATE: dict = {}


def _worker_init(pool_seed: int) -> None:
    """Pool initializer: private obs state and the source-data pool."""
    from repro.obs import set_registry, set_tracer

    registry = MetricsRegistry(enabled=True)
    tracer = Tracer(enabled=True)
    set_registry(registry)
    set_tracer(tracer)
    _WORKER_STATE.update(registry=registry, tracer=tracer, pool=data_pool(pool_seed))


def _run_chunk(task_dicts: list[dict]) -> dict:
    """Execute a chunk of tasks; returns per-task records plus obs state."""
    from repro.obs import get_registry, get_tracer

    registry: MetricsRegistry = _WORKER_STATE.get("registry") or get_registry()
    tracer: Tracer = _WORKER_STATE.get("tracer") or get_tracer()
    out = []
    for d in task_dicts:
        task = SweepTask.from_dict(d)
        with tracer.span("task", cat="sweep.task", task=task.task_id):
            record = run_task(task, pool=_WORKER_STATE.get("pool"))
        out.append({"index": task.index, "record": record})
    response = {
        "pid": os.getpid(),
        "results": out,
        "metrics": registry.snapshot(),
        "spans": [s.to_dict() for s in tracer.spans],
    }
    # per-chunk obs state is merged exactly once by the parent; reset so
    # the next chunk from this process reports only its own work
    registry.clear()
    tracer.clear()
    return response


# --------------------------------------------------------------------------
# parent side
# --------------------------------------------------------------------------

@dataclass
class SweepResult:
    """Merged outcome of one sweep run (ordered, JSON-safe)."""

    spec: SweepSpec
    workers: int
    results: list[dict]
    wall_s: float
    registry: MetricsRegistry
    spans: list[SpanRecord] = field(default_factory=list)
    retried_chunks: int = 0
    fallback_tasks: int = 0

    def payload(self) -> dict:
        """The canonical (scheduling-invariant) output of the sweep."""
        return {"spec": self.spec.to_dict(), "tasks": self.results}

    def payload_json(self) -> str:
        return json.dumps(self.payload(), sort_keys=True)

    def digest(self) -> str:
        return hashlib.sha256(self.payload_json().encode()).hexdigest()

    def by_workload(self, name: str) -> list[dict]:
        return [r for r in self.results if r["workload"] == name and "result" in r]


def _chunked(items: list, size: int) -> list[list]:
    return [items[i : i + size] for i in range(0, len(items), size)]


def run_sweep(
    spec: SweepSpec,
    workers: int = 0,
    *,
    chunksize: int | None = None,
    task_timeout: float | None = None,
    retries: int = 2,
    fallback_serial: bool = True,
    mp_context: str = "spawn",
    executor_factory=None,
) -> SweepResult:
    """Run every task of ``spec``; ``workers=0`` executes inline.

    ``task_timeout`` bounds how long the parent waits without *any* chunk
    completing (seconds).  A chunk that fails — timeout, worker crash,
    exception — is retried on a fresh pool up to ``retries`` times;
    remaining tasks then run inline in the parent when ``fallback_serial``
    (else :class:`SweepError`).  Results are merged by task index, so the
    payload is byte-identical however the work was scheduled.

    ``executor_factory`` (tests) builds the pool given ``(workers,
    initargs)``; by default a spawn-context :class:`ProcessPoolExecutor`.
    """
    from repro.obs import set_registry, set_tracer

    if any(
        w.kind == "execute" and w.options["block_size"] > POOL_BLOCK_SIZE
        for w in spec.workloads
    ):
        raise ValueError(
            f"execute block_size must be <= POOL_BLOCK_SIZE ({POOL_BLOCK_SIZE})"
        )
    t0 = time.perf_counter()
    tasks = spec.tasks()
    registry = MetricsRegistry(enabled=True)
    spans: list[SpanRecord] = []
    results: list[dict | None] = [None] * len(tasks)
    retried = 0
    fellback = 0

    needs_pool = any(w.kind == "execute" for w in spec.workloads)
    local_pool = data_pool(spec.seed) if needs_pool else None
    if workers <= 0:
        # mirror the worker environment: a private registry/tracer so
        # hot-path metrics and spans land in this run's snapshot
        tracer = Tracer(enabled=True)
        prev_reg, prev_tr = set_registry(registry), set_tracer(tracer)
        try:
            for task in tasks:
                with tracer.span("task", cat="sweep.task", task=task.task_id):
                    results[task.index] = run_task(
                        task, pool=local_pool, pool_seed=spec.seed
                    )
        finally:
            set_registry(prev_reg)
            set_tracer(prev_tr)
        spans.extend(tracer.spans)
    else:
        chunks = _chunked(
            [t.to_dict() for t in tasks],
            chunksize or max(1, -(-len(tasks) // (workers * 4))),
        )
        init_args = (spec.seed,)
        if executor_factory is None:
            def executor_factory(n, initargs):
                return ProcessPoolExecutor(
                    max_workers=n,
                    mp_context=get_context(mp_context),
                    initializer=_worker_init,
                    initargs=initargs,
                )

        pending = list(range(len(chunks)))
        attempt = 0
        while pending:
            if attempt > retries:
                if not fallback_serial:
                    raise SweepError(
                        f"{len(pending)} chunk(s) failed after {retries} retries"
                    )
                for ci in pending:
                    for d in chunks[ci]:
                        task = SweepTask.from_dict(d)
                        results[task.index] = run_task(
                            task, pool=local_pool, pool_seed=spec.seed
                        )
                        fellback += 1
                pending = []
                break
            executor = executor_factory(min(workers, len(pending)), init_args)
            failed: list[int] = []
            try:
                futures = {executor.submit(_run_chunk, chunks[ci]): ci for ci in pending}
                not_done = set(futures)
                while not_done:
                    done, not_done = wait(
                        not_done, timeout=task_timeout, return_when=FIRST_COMPLETED
                    )
                    if not done:  # task_timeout with nothing finishing
                        failed.extend(futures[f] for f in not_done)
                        for f in not_done:
                            f.cancel()
                        break
                    for fut in done:
                        ci = futures[fut]
                        try:
                            response = fut.result()
                        except Exception:
                            failed.append(ci)
                            continue
                        for item in response["results"]:
                            results[item["index"]] = item["record"]
                        merge_snapshot(response["metrics"], registry)
                        spans.extend(
                            spans_from_dicts(
                                response["spans"],
                                track_prefix=f"worker-{response['pid']}/",
                            )
                        )
            finally:
                executor.shutdown(wait=not failed, cancel_futures=True)
            if failed:
                retried += len(failed)
            pending = sorted(failed)
            attempt += 1

    assert all(r is not None for r in results)
    return SweepResult(
        spec=spec,
        workers=workers,
        results=results,  # type: ignore[arg-type]
        wall_s=time.perf_counter() - t0,
        registry=registry,
        spans=spans,
        retried_chunks=retried,
        fallback_tasks=fellback,
    )
