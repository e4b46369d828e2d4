"""Replayable fault scenarios: a seed plus an explicit schedule.

A :class:`FaultScenario` is the *complete* description of one fault
run — every deterministic schedule entry (sector errors, torn writes,
transients, disk failures, the armed crash point) plus the seed that
drives any rate-based draws.  It round-trips through JSON unchanged, so
a failure observed in CI ships as a file that reproduces the exact same
byte-level behaviour locally (``repro chaos --replay scenario.json``).

Schedule entries are indexed by the plane's **op counter** (every
plane-visible per-block I/O advances it by one);
the crash point is indexed by the **crashable-event counter**, which
only advances inside the conversion thread's ``crashable()`` sections
and at journal barriers — so an exhaustive crash sweep enumerates
exactly the conversion's own op boundaries.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

__all__ = [
    "RetryPolicy",
    "SectorError",
    "TornWrite",
    "TransientFault",
    "DiskFailureAt",
    "FaultScenario",
]


@dataclass(frozen=True)
class RetryPolicy:
    """How the plane retries transient I/O errors.

    ``max_retries`` consecutive failed attempts exhaust the budget and
    surface a :class:`~repro.faults.errors.TransientIOError`; each retry
    adds ``backoff_base_ticks * backoff_multiplier**(attempt-1)`` to the
    plane's accumulated backoff time (metrics only — the in-memory array
    has no clock).
    """

    max_retries: int = 3
    backoff_base_ticks: float = 1.0
    backoff_multiplier: float = 2.0


@dataclass(frozen=True)
class SectorError:
    """A latent sector error: reads of (disk, block) fail until rewritten."""

    disk: int
    block: int


@dataclass(frozen=True)
class TornWrite:
    """The write at plane-op index ``op`` is torn.

    Only the first ``keep_fraction`` of the payload reaches the platter;
    the tail keeps the previous contents (a partial-sector update, the
    classic write-hole ingredient).  The op still completes and counts.
    """

    op: int
    keep_fraction: float = 0.5


@dataclass(frozen=True)
class TransientFault:
    """The I/O at plane-op index ``op`` fails ``failures`` times first."""

    op: int
    failures: int = 1


@dataclass(frozen=True)
class DiskFailureAt:
    """Disk ``disk`` dies at the boundary before plane-op index ``op``."""

    op: int
    disk: int


#: every registered schedule-entry type, keyed by its scenario field —
#: the round-trip methods iterate this, so registering a new event type
#: here is all it takes to make it replayable from JSON artifacts
_SCHEDULE_FIELDS = {
    "sector_errors": SectorError,
    "torn_writes": TornWrite,
    "transients": TransientFault,
    "disk_failures": DiskFailureAt,
}

#: per-entry field coercions (dataclass annotation -> JSON primitive);
#: schedule entries are routinely built from numpy scalars (rng draws),
#: which ``json.dumps`` rejects — normalise at the boundary instead of
#: scattering ``default=int`` over every dump site
_FIELD_TYPES: dict[type, dict[str, type]] = {
    SectorError: {"disk": int, "block": int},
    TornWrite: {"op": int, "keep_fraction": float},
    TransientFault: {"op": int, "failures": int},
    DiskFailureAt: {"op": int, "disk": int},
}


def _jsonify(value: Any) -> Any:
    """Best-effort coercion of a meta value to a JSON-stable primitive."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, (int, float)):
        return value
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    return value


def _entry_dict(entry: Any) -> dict:
    kinds = _FIELD_TYPES[type(entry)]
    return {name: kind(getattr(entry, name)) for name, kind in kinds.items()}


def _entry_from(entry_cls: type, doc: dict) -> Any:
    kinds = _FIELD_TYPES[entry_cls]
    return entry_cls(**{name: kind(doc[name]) for name, kind in kinds.items() if name in doc})


@dataclass(frozen=True)
class FaultScenario:
    """One seed + schedule bundle; the unit of fault replay."""

    seed: int = 0
    sector_errors: tuple[SectorError, ...] = ()
    torn_writes: tuple[TornWrite, ...] = ()
    transients: tuple[TransientFault, ...] = ()
    disk_failures: tuple[DiskFailureAt, ...] = ()
    #: probability that any single I/O draws a 1-failure transient
    transient_rate: float = 0.0
    #: crashable-event index to die at (None = never crash)
    crash_at: int | None = None
    #: fraction of the in-flight write applied at the crash (None = clean)
    crash_tear: float | None = None
    retry: RetryPolicy = RetryPolicy()
    #: free-form workload parameters (kept verbatim for replay harnesses)
    meta: dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------ round-trip
    def to_dict(self) -> dict:
        doc: dict[str, Any] = {
            "seed": int(self.seed),
            "transient_rate": float(self.transient_rate),
            "crash_at": None if self.crash_at is None else int(self.crash_at),
            "crash_tear": None if self.crash_tear is None else float(self.crash_tear),
            "retry": {
                "max_retries": int(self.retry.max_retries),
                "backoff_base_ticks": float(self.retry.backoff_base_ticks),
                "backoff_multiplier": float(self.retry.backoff_multiplier),
            },
            "meta": {str(k): _jsonify(v) for k, v in self.meta.items()},
        }
        for name in _SCHEDULE_FIELDS:
            doc[name] = [_entry_dict(e) for e in getattr(self, name)]
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "FaultScenario":
        crash_at = doc.get("crash_at")
        crash_tear = doc.get("crash_tear")
        kwargs: dict[str, Any] = {
            "seed": int(doc.get("seed", 0)),
            "transient_rate": float(doc.get("transient_rate", 0.0)),
            "crash_at": None if crash_at is None else int(crash_at),
            "crash_tear": None if crash_tear is None else float(crash_tear),
            "retry": RetryPolicy(**doc.get("retry", {})),
            "meta": dict(doc.get("meta", {})),
        }
        for name, entry_cls in _SCHEDULE_FIELDS.items():
            kwargs[name] = tuple(_entry_from(entry_cls, e) for e in doc.get(name, []))
        return cls(**kwargs)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultScenario":
        return cls.from_dict(json.loads(text))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "FaultScenario":
        return cls.from_json(Path(path).read_text())

    # -------------------------------------------------------------- variants
    def with_crash(self, at_event: int, tear: float | None = None) -> "FaultScenario":
        """The same scenario armed to crash at ``at_event`` (sweep helper)."""
        from dataclasses import replace

        return replace(self, crash_at=at_event, crash_tear=tear)

    def without_crash(self) -> "FaultScenario":
        """The same scenario with the crash disarmed (resume helper)."""
        from dataclasses import replace

        return replace(self, crash_at=None, crash_tear=None)
