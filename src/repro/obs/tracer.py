"""Span tracer: nestable wall-clock spans with named logical tracks.

A :class:`Tracer` hands out context-managed :class:`Span` objects backed
by :func:`time.perf_counter`.  Spans nest naturally (Perfetto renders
containment from the timestamps of slices on the same track) and carry a
``track`` name so logically concurrent actors — the online converter's
conversion thread vs. the application writes, real spans vs. simulated
disks — land on separate rows of the timeline.

Disabled cost is one attribute check plus a shared no-op context
manager: instrumented code calls ``tracer.span(...)`` unconditionally
and pays nothing measurable when tracing is off (see
``tests/test_perf_floors.py`` for the gate against the compiled
engine).
"""

from __future__ import annotations

from time import perf_counter

__all__ = ["SpanRecord", "Span", "Tracer", "get_tracer", "set_tracer"]


class SpanRecord:
    """One finished span (times in seconds since an arbitrary epoch)."""

    __slots__ = ("name", "cat", "track", "start_s", "dur_s", "args")

    def __init__(self, name: str, cat: str, track: str, start_s: float, dur_s: float, args: dict):
        self.name = name
        self.cat = cat
        self.track = track
        self.start_s = start_s
        self.dur_s = dur_s
        self.args = args

    @property
    def end_s(self) -> float:
        return self.start_s + self.dur_s

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "cat": self.cat,
            "track": self.track,
            "start_s": self.start_s,
            "dur_s": self.dur_s,
            "args": dict(self.args),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<span {self.track}/{self.name} {self.dur_s * 1e3:.3f}ms>"


class _NullSpan:
    """Shared do-nothing span for disabled tracers."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def set(self, **args) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Span:
    """A live span; records itself on the tracer when the block exits."""

    __slots__ = ("_tracer", "name", "cat", "track", "args", "_start")

    def __init__(self, tracer: "Tracer", name: str, cat: str, track: str, args: dict):
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.track = track
        self.args = args

    def set(self, **args) -> None:
        """Attach or update span arguments mid-flight."""
        self.args.update(args)

    def __enter__(self) -> "Span":
        self._start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        dur = perf_counter() - self._start
        if exc_type is not None:
            self.args.setdefault("error", exc_type.__name__)
        self._tracer._record(
            SpanRecord(self.name, self.cat, self.track, self._start, dur, self.args)
        )


class Tracer:
    """Collects :class:`SpanRecord` objects while enabled."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.spans: list[SpanRecord] = []
        self._track = "main"

    # ------------------------------------------------------------ recording
    def span(self, name: str, cat: str = "repro", track: str | None = None, **args):
        """Open a span; use as ``with tracer.span("execute", groups=4):``.

        Returns the shared no-op span when tracing is disabled, so the
        call is safe (and cheap) on any hot path.
        """
        if not self.enabled:
            return _NULL_SPAN
        return Span(self, name, cat, track if track is not None else self._track, args)

    def instant(self, name: str, cat: str = "repro", track: str | None = None, **args) -> None:
        """Record a zero-duration marker."""
        if not self.enabled:
            return
        self._record(
            SpanRecord(name, cat, track if track is not None else self._track,
                       perf_counter(), 0.0, args)
        )

    def _record(self, record: SpanRecord) -> None:
        self.spans.append(record)

    # ------------------------------------------------------------- lifecycle
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def clear(self) -> None:
        self.spans.clear()

    def set_track(self, track: str) -> str:
        """Set the default track for subsequent spans; returns the old one."""
        prev, self._track = self._track, track
        return prev

    # -------------------------------------------------------------- queries
    def __len__(self) -> int:
        return len(self.spans)

    def by_name(self, name: str) -> list[SpanRecord]:
        return [s for s in self.spans if s.name == name]

    def total_s(self, name: str) -> float:
        return sum(s.dur_s for s in self.spans if s.name == name)


_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-wide default tracer (disabled until enabled)."""
    return _TRACER


def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the default tracer (tests); returns the previous one."""
    global _TRACER
    prev, _TRACER = _TRACER, tracer
    return prev
