"""Chrome trace-event export: real spans + simulated disk timelines.

Renders two kinds of activity into one Perfetto-viewable JSON file
(`chrome://tracing` / https://ui.perfetto.dev, the "JSON trace event
format"):

* **spans** recorded by :class:`repro.obs.tracer.Tracer` — plan /
  compile / execute / verify phases, online conversion-thread vs.
  application-write interleaving — one thread row per logical track;
* **simulated disk activity** from a :class:`~repro.simdisk.sim
  .DiskSchedule` — one thread row per disk, each request a complete
  ("X") slice whose args carry the seek/rotate/transfer breakdown from
  :meth:`DiskModel.service_components_vector`.

Everything is plain trace-event JSON: ``{"traceEvents": [...]}`` with
``ph: "X"`` duration events (``ts``/``dur`` in microseconds) and
``ph: "M"`` metadata naming the processes and threads.  Extra payloads
(the metrics snapshot) ride in the top-level ``otherData`` object, which
viewers ignore.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

from repro.obs.tracer import SpanRecord
from repro.simdisk.sim import DiskSchedule

__all__ = [
    "SPAN_PID",
    "DISK_PID",
    "span_events",
    "disk_events",
    "build_chrome_trace",
    "write_chrome_trace",
    "load_chrome_trace",
    "validate_chrome_trace",
]

#: trace-event process ids: one process for real (wall-clock) spans, one
#: for the simulated disks (simulated milliseconds — a different clock,
#: so a different process keeps the time bases visually separate).
SPAN_PID = 1
DISK_PID = 2

#: cap on exported disk slices — a Figure-19 trace has ~1.6M requests,
#: far beyond what a JSON viewer loads; exporters truncate per disk and
#: record the truncation in ``otherData``.
DEFAULT_MAX_DISK_SLICES = 200_000


def _meta(pid: int, name: str, tid: int | None = None, thread: str | None = None) -> list[dict]:
    events = []
    if thread is None:
        events.append(
            {"ph": "M", "pid": pid, "tid": 0, "name": "process_name", "args": {"name": name}}
        )
    else:
        events.append(
            {"ph": "M", "pid": pid, "tid": tid, "name": "thread_name", "args": {"name": thread}}
        )
    return events


def span_events(spans: Iterable[SpanRecord], pid: int = SPAN_PID) -> list[dict]:
    """Trace events for recorded spans: one thread row per track.

    Timestamps are rebased so the earliest span starts at t=0 (Perfetto
    displays relative time anyway; rebasing keeps the JSON small and the
    numbers readable).
    """
    spans = list(spans)
    if not spans:
        return []
    epoch = min(s.start_s for s in spans)
    tracks = sorted({s.track for s in spans})
    tid_of = {track: i + 1 for i, track in enumerate(tracks)}
    events = _meta(pid, "repro (wall clock)")
    for track, tid in tid_of.items():
        events += _meta(pid, "", tid=tid, thread=track)
    for s in spans:
        events.append(
            {
                "name": s.name,
                "cat": s.cat,
                "ph": "X",
                "pid": pid,
                "tid": tid_of[s.track],
                "ts": round((s.start_s - epoch) * 1e6, 3),
                "dur": round(s.dur_s * 1e6, 3),
                "args": dict(s.args),
            }
        )
    return events


def disk_events(
    schedule: DiskSchedule,
    pid: int = DISK_PID,
    max_slices: int | None = DEFAULT_MAX_DISK_SLICES,
) -> list[dict]:
    """Trace events for a simulated run: one thread row per disk.

    Each served request becomes a complete slice at its simulated start
    time (``ts``/``dur`` in microseconds of *simulated* time, 1 sim-ms ==
    1 trace-ms) with the seek/rotate/transfer breakdown in ``args``.
    """
    events = _meta(pid, "simulated disks")
    for d in range(schedule.n_disks):
        events += _meta(pid, "", tid=d + 1, thread=f"disk {d}")
    n = len(schedule)
    limit = n if max_slices is None else min(n, max_slices)
    for i in range(limit):
        events.append(
            {
                "name": "W" if schedule.is_write[i] else "R",
                "cat": "disk",
                "ph": "X",
                "pid": pid,
                "tid": int(schedule.disk[i]) + 1,
                "ts": round(float(schedule.start_ms[i]) * 1e3, 3),
                "dur": round(float(schedule.completion_ms[i] - schedule.start_ms[i]) * 1e3, 3),
                "args": {
                    "block": int(schedule.block[i]),
                    "seek_ms": round(float(schedule.seek_ms[i]), 6),
                    "rotate_ms": round(float(schedule.rotate_ms[i]), 6),
                    "transfer_ms": round(float(schedule.transfer_ms[i]), 6),
                },
            }
        )
    return events


def build_chrome_trace(
    spans: Iterable[SpanRecord] | None = None,
    schedule: DiskSchedule | None = None,
    metrics: dict | None = None,
    max_disk_slices: int | None = DEFAULT_MAX_DISK_SLICES,
    meta: dict | None = None,
) -> dict:
    """Assemble the trace-event JSON object from its parts."""
    events: list[dict] = []
    if spans is not None:
        events += span_events(spans)
    if schedule is not None:
        events += disk_events(schedule, max_slices=max_disk_slices)
    other: dict = dict(meta or {})
    if schedule is not None:
        n = len(schedule)
        exported = n if max_disk_slices is None else min(n, max_disk_slices)
        other["disk_requests"] = n
        other["disk_slices_exported"] = exported
        if exported < n:
            other["disk_slices_truncated"] = n - exported
        other["per_disk_busy_ms"] = [float(b) for b in schedule.per_disk_busy_ms()]
    if metrics is not None:
        other["metrics"] = metrics
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def write_chrome_trace(
    path: str | Path,
    spans: Iterable[SpanRecord] | None = None,
    schedule: DiskSchedule | None = None,
    metrics: dict | None = None,
    max_disk_slices: int | None = DEFAULT_MAX_DISK_SLICES,
    meta: dict | None = None,
) -> dict:
    """Write the trace JSON to ``path``; returns the written object."""
    doc = build_chrome_trace(
        spans=spans,
        schedule=schedule,
        metrics=metrics,
        max_disk_slices=max_disk_slices,
        meta=meta,
    )
    Path(path).write_text(json.dumps(doc) + "\n")
    return doc


def load_chrome_trace(path: str | Path) -> dict:
    return json.loads(Path(path).read_text())


def validate_chrome_trace(doc: dict) -> list[str]:
    """Check ``doc`` against the trace-event schema; returns problems.

    Not a full JSON-schema validation — the format is loosely specified —
    but everything Perfetto's importer requires of the events we emit:
    the ``traceEvents`` array, per-event ``ph``/``pid``/``tid``/``name``,
    and non-negative numeric ``ts``/``dur`` on complete events.
    """
    problems: list[str] = []
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            problems.append(f"event {i}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in ("X", "B", "E", "M", "i", "C"):
            problems.append(f"event {i}: unknown ph {ph!r}")
            continue
        for key in ("pid", "tid"):
            if not isinstance(ev.get(key), int):
                problems.append(f"event {i}: {key} missing or not an int")
        if not isinstance(ev.get("name"), str):
            problems.append(f"event {i}: name missing")
        if ph == "X":
            for key in ("ts", "dur"):
                v = ev.get(key)
                if not isinstance(v, (int, float)) or v < 0:
                    problems.append(f"event {i}: {key} missing or negative")
            if "args" in ev and not isinstance(ev["args"], dict):
                problems.append(f"event {i}: args not an object")
    return problems
