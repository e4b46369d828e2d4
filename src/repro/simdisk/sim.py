"""Trace-driven disk-array simulation (the DiskSim substitute).

Two execution engines over the same :class:`DiskModel`:

* :func:`simulate_closed` — fully vectorised closed-loop FCFS: every
  request is queued from the start and each disk drains its queue in
  trace order.  This is exactly how the paper evaluates conversion time
  ("the overall time to handle all I/O requests in these traces"), and
  it scales to the 0.6M-block Figure 19 workloads in milliseconds.
* :class:`DiskArraySimulator` — event-driven with open arrivals and a
  pluggable per-disk scheduler (FCFS / SSTF / LOOK), for latency studies
  and the online-conversion experiments.  On a closed-loop FCFS workload
  it reproduces :func:`simulate_closed` exactly (tested).

Both report the same :class:`SimResult` (makespan, per-disk busy time
and request counts, p50/p95/p99 latency).  For observability,
:func:`closed_request_schedule` exposes the closed-loop engine's full
per-request schedule — start, seek/rotate/transfer breakdown,
completion — which ``repro.obs.timeline`` renders as one Perfetto track
per disk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.simdisk.disk import DiskModel
from repro.simdisk.events import EventQueue
from repro.simdisk.faults import ServiceFaults, validate_trace
from repro.simdisk.scheduler import make_scheduler
from repro.workloads.trace import Trace

__all__ = ["SimResult", "DiskSchedule", "simulate_closed", "closed_request_schedule", "DiskArraySimulator"]


def _percentiles(values: np.ndarray) -> tuple[float, float, float, float]:
    """(mean, p50, p95, p99) of a latency vector (0s when empty)."""
    if values.size == 0:
        return 0.0, 0.0, 0.0, 0.0
    p50, p95, p99 = np.percentile(values, [50, 95, 99])
    return float(values.mean()), float(p50), float(p95), float(p99)


@dataclass(frozen=True)
class SimResult:
    """Outcome of one simulation run (times in ms)."""

    makespan_ms: float
    per_disk_busy_ms: np.ndarray
    n_requests: int
    mean_latency_ms: float
    p99_latency_ms: float
    p50_latency_ms: float = 0.0
    p95_latency_ms: float = 0.0
    per_disk_requests: np.ndarray | None = None

    @property
    def makespan_s(self) -> float:
        return self.makespan_ms / 1e3

    def latency_summary(self) -> dict:
        """JSON-ready latency/throughput digest of the run."""
        return {
            "n_requests": self.n_requests,
            "makespan_ms": self.makespan_ms,
            "mean_latency_ms": self.mean_latency_ms,
            "p50_latency_ms": self.p50_latency_ms,
            "p95_latency_ms": self.p95_latency_ms,
            "p99_latency_ms": self.p99_latency_ms,
            "per_disk_busy_ms": [float(b) for b in self.per_disk_busy_ms],
            "per_disk_requests": (
                [int(c) for c in self.per_disk_requests]
                if self.per_disk_requests is not None
                else None
            ),
        }


def simulate_closed(
    trace: Trace,
    model: DiskModel,
    n_disks: int | None = None,
    reorder_window: int | None = None,
    faults: ServiceFaults | None = None,
) -> SimResult:
    """Closed-loop FCFS makespan (vectorised).

    ``reorder_window`` models command queueing (NCQ) / controller
    write-back: within every window of that many queued requests, each
    disk serves blocks in ascending order — bounded elevator reordering.
    ``None`` replays the trace order verbatim.

    ``faults`` layers seeded transient-retry penalties on top of the
    mechanical service times (see :class:`ServiceFaults`); penalties are
    keyed by trace index, so the event-driven engine charges the same
    requests identically.

    Latency here is time-in-system under saturation — dominated by queue
    position; reported for completeness, the headline output is the
    makespan.
    """
    schedule = closed_request_schedule(trace, model, n_disks, reorder_window, faults)
    if faults is not None:
        faults.record(schedule.fault_ms)
    return schedule.sim_result()


@dataclass(frozen=True)
class DiskSchedule:
    """Full per-request schedule of a closed-loop run (times in ms).

    Arrays are aligned: entry ``i`` is one served request, in per-disk
    queue-service order (disk-major).  ``request_index`` maps back to the
    originating position in the trace.  ``start + seek + rotate +
    transfer == completion`` per entry; per-disk busy time equals the
    segment's last completion (identical to :func:`simulate_closed`,
    tested).
    """

    n_disks: int
    block_size: int
    disk: np.ndarray
    block: np.ndarray
    is_write: np.ndarray
    request_index: np.ndarray
    start_ms: np.ndarray
    seek_ms: np.ndarray
    rotate_ms: np.ndarray
    transfer_ms: np.ndarray
    completion_ms: np.ndarray
    #: per-entry transient-retry penalty (zeros unless faults were passed);
    #: with faults, the invariant becomes start + seek + rotate + transfer
    #: + fault == completion
    fault_ms: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.disk)

    @property
    def service_ms(self) -> np.ndarray:
        return self.completion_ms - self.start_ms

    def per_disk_busy_ms(self) -> np.ndarray:
        """Each disk's last completion (entries are disk-major)."""
        busy = np.zeros(self.n_disks)
        if len(self):
            ends = np.flatnonzero(np.append(self.disk[1:] != self.disk[:-1], True))
            busy[self.disk[ends]] = self.completion_ms[ends]
        return busy

    def sim_result(self) -> SimResult:
        """The :class:`SimResult` this schedule reduces to; its
        ``n_requests`` counts the served requests (requests beyond the
        array are dropped from the schedule), as ``per_disk_requests``
        does."""
        busy = self.per_disk_busy_ms()
        requests = np.bincount(self.disk, minlength=self.n_disks).astype(np.int64)
        if not len(self):
            return SimResult(0.0, busy, 0, 0.0, 0.0, per_disk_requests=requests)
        mean, p50, p95, p99 = _percentiles(self.completion_ms)
        return SimResult(
            makespan_ms=float(busy.max()),
            per_disk_busy_ms=busy,
            n_requests=len(self),
            mean_latency_ms=mean,
            p99_latency_ms=p99,
            p50_latency_ms=p50,
            p95_latency_ms=p95,
            per_disk_requests=requests,
        )


def closed_request_schedule(
    trace: Trace,
    model: DiskModel,
    n_disks: int | None = None,
    reorder_window: int | None = None,
    faults: ServiceFaults | None = None,
) -> DiskSchedule:
    """The closed-loop engine's schedule, one entry per served request.

    Takes the same arguments as :func:`simulate_closed`, which reduces
    this schedule to a :class:`SimResult` (:meth:`DiskSchedule.sim_result`);
    the per-request start times and seek/rotate/transfer decomposition
    are the raw material for the Perfetto disk timeline.
    """
    if reorder_window is not None and reorder_window < 1:
        raise ValueError("reorder_window must be >= 1")
    n = n_disks if n_disks is not None else trace.n_disks
    validate_trace(trace, model, n)
    # One stable sort groups every disk's queue in arrival order; requests
    # beyond disk ``n`` are dropped.
    disk = np.asarray(trace.disk)
    idx = np.flatnonzero(disk < n)
    idx = idx[np.lexsort((np.asarray(trace.arrival_ms)[idx], disk[idx]))]
    d_sorted = disk[idx]
    blocks = np.asarray(trace.block, dtype=np.int64)[idx]
    first = np.ones(idx.size, dtype=bool)  # segment starts (one segment per disk)
    np.not_equal(d_sorted[1:], d_sorted[:-1], out=first[1:])
    seg_starts = np.flatnonzero(first)
    counts = np.diff(np.append(seg_starts, idx.size))
    if reorder_window is not None and reorder_window > 1:
        # bounded elevator: ascending blocks within each window of the
        # per-disk queue — one argsort pass, no per-window copy+sort.
        pos = np.arange(idx.size) - np.repeat(seg_starts, counts)
        perm = np.lexsort((blocks, pos // reorder_window, d_sorted))
        blocks = blocks[perm]
        idx = idx[perm]
    seek, rot, xfer = model.service_components_vector(blocks, trace.block_size, first=first)
    fault = faults.delays_ms(len(trace))[idx] if faults is not None else np.zeros(idx.size)
    service = seek + rot + xfer + fault
    # per-disk cumulative completion via one global cumsum minus the
    # running total at each disk's segment start
    cum = np.cumsum(service)
    completion = cum - np.repeat(np.where(seg_starts > 0, cum[seg_starts - 1], 0.0), counts)
    is_write = np.asarray(trace.is_write, dtype=bool)[idx]
    return DiskSchedule(
        n_disks=n,
        block_size=trace.block_size,
        disk=d_sorted,
        block=blocks,
        is_write=is_write,
        request_index=idx,
        start_ms=completion - service,
        seek_ms=seek,
        rotate_ms=rot,
        transfer_ms=xfer,
        completion_ms=completion,
        fault_ms=fault,
    )


@dataclass
class _Request:
    arrival: float
    disk: int
    block: int
    is_write: bool
    index: int
    completion: float = np.nan


class DiskArraySimulator:
    """Event-driven array simulator with open arrivals.

    Parameters
    ----------
    model:
        Disk model shared by all spindles (heterogeneous arrays can pass
        ``models`` instead).
    n_disks:
        Array width.
    scheduler:
        Per-disk queue discipline: ``"fcfs"``, ``"sstf"`` or ``"look"``.

    When the default metrics registry is enabled (``repro.obs``), each
    run records per-disk busy-time gauges, served-request counters and a
    queue-depth histogram observed at every arrival.
    """

    def __init__(
        self,
        model: DiskModel,
        n_disks: int,
        scheduler: str = "fcfs",
        models: list[DiskModel] | None = None,
    ):
        if models is not None and len(models) != n_disks:
            raise ValueError("models must have one entry per disk")
        self.models = models if models is not None else [model] * n_disks
        self.n_disks = n_disks
        self.scheduler_name = scheduler

    def run(self, trace: Trace, faults: ServiceFaults | None = None) -> SimResult:
        from repro.obs.metrics import get_registry  # lazy: avoids import cycle

        registry = get_registry()
        collect = registry.enabled
        validate_trace(trace, self.models[0], self.n_disks, require_disk_in_range=True)
        if faults is not None:
            fault_delays = faults.delays_ms(len(trace))
            faults.record(fault_delays)
        else:
            fault_delays = None
        queues = [make_scheduler(self.scheduler_name) for _ in range(self.n_disks)]
        head: list[int | None] = [None] * self.n_disks
        busy_until = np.zeros(self.n_disks)
        idle = [True] * self.n_disks
        busy_time = np.zeros(self.n_disks)
        served = np.zeros(self.n_disks, dtype=np.int64)
        depth_hist = registry.histogram("simdisk.queue_depth") if collect else None

        requests = [
            _Request(float(trace.arrival_ms[i]), int(trace.disk[i]), int(trace.block[i]),
                     bool(trace.is_write[i]), i)
            for i in range(len(trace))
        ]
        events = EventQueue()
        for req in requests:
            events.push(req.arrival, "arrive", req)

        def start(disk: int, now: float) -> None:
            q = queues[disk]
            if not q:
                idle[disk] = True
                return
            idle[disk] = False
            req = q.pop(head[disk] if head[disk] is not None else 0)
            service = self.models[disk].service_ms(head[disk], req.block, trace.block_size)
            if fault_delays is not None:
                service += fault_delays[req.index]
            head[disk] = req.block
            busy_time[disk] += service
            served[disk] += 1
            req.completion = now + service
            events.push(req.completion, "complete", (disk, req))

        while events:
            ev = events.pop()
            if ev.kind == "arrive":
                req = ev.payload
                queues[req.disk].push(req)
                if depth_hist is not None:
                    depth_hist.observe(len(queues[req.disk]))
                if idle[req.disk]:
                    start(req.disk, ev.time)
            else:  # complete
                disk, _req = ev.payload
                start(disk, ev.time)

        completions = np.array([r.completion for r in requests])
        if np.isnan(completions).any():
            raise RuntimeError("simulation ended with unserved requests")
        latencies = completions - trace.arrival_ms
        mean, p50, p95, p99 = _percentiles(latencies)
        if collect:
            labels = {"scheduler": self.scheduler_name}
            registry.counter("simdisk.requests", **labels).inc(len(requests))
            for d in range(self.n_disks):
                registry.gauge("simdisk.busy_ms", disk=d, **labels).set(busy_time[d])
                registry.counter("simdisk.served", disk=d, **labels).inc(int(served[d]))
        return SimResult(
            makespan_ms=float(completions.max()) if len(completions) else 0.0,
            per_disk_busy_ms=busy_time,
            n_requests=len(trace),
            mean_latency_ms=mean,
            p99_latency_ms=p99,
            p50_latency_ms=p50,
            p95_latency_ms=p95,
            per_disk_requests=served,
        )
