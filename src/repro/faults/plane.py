"""The fault-injection plane: deterministic faults under every I/O.

A :class:`FaultPlane` attaches to a :class:`~repro.raid.array.BlockArray`
(``array.attach_fault_plane(plane)``) and is consulted by every counted
per-block I/O through one ``is not None`` check, so a detached array
pays nothing.  The counted bulk ops refuse an array with a plane
attached (:class:`ValueError`): every fault is observed, and handled,
one block at a time.  Given a
:class:`~repro.faults.spec.FaultScenario` it injects, deterministically:

* **latent sector errors** — reads of a bad (disk, block) raise
  :class:`~repro.faults.errors.ReadFaultError` until the block is
  rewritten (the write "remaps the sector" and clears the error);
* **transient I/O errors** — retried internally per the scenario's
  :class:`~repro.faults.spec.RetryPolicy` with exponential backoff
  accounting; an exhausted budget raises
  :class:`~repro.faults.errors.TransientIOError`;
* **torn writes** — the scheduled write persists only a prefix of its
  payload (the op still completes and counts);
* **whole-disk failures** — quantised to op boundaries, surfacing as the
  array's own :class:`~repro.raid.array.DiskFailure`;
* **crash points** — inside a :meth:`crashable` section the armed
  crashable event raises :class:`~repro.faults.errors.ConversionCrash`
  *before* the op completes, and an in-flight write can be torn.

Two counters index the schedules: ``op`` advances on every plane-visible
I/O, everywhere; ``crash_events_done`` advances only inside
``crashable()`` sections (the conversion thread) plus explicit
:meth:`crash_point` barriers, so crash sweeps enumerate exactly the
conversion's own boundaries and never tear application I/O.

Failed attempts (retries, refused reads, crashed ops) never touch the
array's I/O counters — those keep counting *logical, completed* I/O so
the paper's figures stay comparable; the plane's own counters hold the
fault accounting and are bridged into :mod:`repro.obs` post-run.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

import numpy as np

from repro.faults.errors import ConversionCrash, ReadFaultError, TransientIOError
from repro.faults.spec import FaultScenario
from repro.util.retry import total_backoff

__all__ = ["FaultPlane"]


_COUNTERS = (
    "sector_errors_hit",
    "sector_errors_cleared",
    "transients",
    "retries",
    "retries_exhausted",
    "torn_writes",
    "disk_failures",
    "crashes",
    "degraded_reads",
    "reconstructed_blocks",
    "stale_checkpoints",
)


class FaultPlane:
    """Deterministic, seedable fault injector for one array."""

    def __init__(self, scenario: FaultScenario | None = None):
        self.scenario = scenario if scenario is not None else FaultScenario()
        self._rng = np.random.default_rng(self.scenario.seed)
        self._array = None
        #: plane-visible I/Os seen so far (schedule index)
        self.op = 0
        #: crashable events completed (crash-point index)
        self.crash_events_done = 0
        self._crashable_depth = 0
        self._crash_at: int | None = self.scenario.crash_at
        self._crash_tear: float | None = self.scenario.crash_tear
        # latent sector errors as flat keys (disk * blocks_per_disk + block)
        self._bad: set[int] = set()
        self._torn: dict[int, float] = {
            t.op: t.keep_fraction for t in self.scenario.torn_writes
        }
        self._transient: dict[int, int] = {
            t.op: t.failures for t in self.scenario.transients
        }
        self._fail_at: dict[int, list[int]] = {}
        for f in self.scenario.disk_failures:
            self._fail_at.setdefault(f.op, []).append(f.disk)
        self.counters: dict[str, int] = {name: 0 for name in _COUNTERS}
        self.backoff_ticks = 0.0
        self._bpd = 0  # blocks_per_disk of the attached array

    # ------------------------------------------------------------ attachment
    def attach(self, array) -> None:
        """Bind to ``array`` (also registers the plane on the array)."""
        self._array = array
        self._bpd = array.blocks_per_disk
        self._bad = {
            e.disk * self._bpd + e.block for e in self.scenario.sector_errors
        }
        array.attach_fault_plane(self)

    def detach(self) -> None:
        if self._array is not None:
            self._array.attach_fault_plane(None)
            self._array = None

    # --------------------------------------------------------- crash control
    def disarm_crash(self) -> None:
        self._crash_at = None
        self._crash_tear = None

    @contextmanager
    def crashable(self) -> Iterator[None]:
        """Mark a region whose ops are legal crash points.

        Wrap the conversion thread's I/O only: application requests are
        served atomically with respect to crash injection (the write
        hole of the *host* I/O stack is out of scope — the sweep
        exercises the conversion's own recovery logic).
        """
        self._crashable_depth += 1
        try:
            yield
        finally:
            self._crashable_depth -= 1

    def crash_point(self, label: str = "") -> None:
        """A synthetic crashable instant (e.g. the journal-commit barrier).

        Counts as one crashable event whether armed or not, so probe and
        sweep runs agree on the event numbering.
        """
        if not self._crashable_depth:
            return
        if self._crash_at is not None and self.crash_events_done == self._crash_at:
            self._die(label or "barrier")
        self.crash_events_done += 1

    def _die(self, label: str) -> ConversionCrash:
        self.counters["crashes"] += 1
        from repro.obs.tracer import get_tracer

        get_tracer().instant("fault.crash", cat="faults", track="faults",
                             event=self.crash_events_done, label=label)
        raise ConversionCrash(self.crash_events_done, label)

    def _crash_now(self) -> bool:
        return (
            self._crashable_depth > 0
            and self._crash_at is not None
            and self.crash_events_done == self._crash_at
        )

    # ------------------------------------------------------- shared helpers
    def _fire_disk_failures(self) -> None:
        """Fail disks scheduled at or before the current op (boundary model).

        Failure instants are quantised to op boundaries: a failure
        scheduled at op ``k`` fires as plane-visible I/O ``k`` (0-based)
        begins, so that I/O already observes the failed disk.
        """
        if not self._fail_at:
            return
        due = sorted(o for o in self._fail_at if o <= self.op)
        for op in due:
            for d in self._fail_at.pop(op):
                if self._array is not None and d not in self._array.failed_disks:
                    self._array.fail_disk(d)
                    self.counters["disk_failures"] += 1
                    from repro.obs.tracer import get_tracer

                    get_tracer().instant("fault.disk-failure", cat="faults",
                                         track="faults", disk=d, op=self.op)

    def _check_not_failed(self, disk: int) -> None:
        if self._array is not None and disk in self._array.failed_disks:
            from repro.raid.array import DiskFailure

            raise DiskFailure(f"disk {disk} has failed")

    def _transient_gate(self, disk: int, block: int, failures: int) -> None:
        """Retry ``failures`` consecutive transient errors, or give up."""
        self.counters["transients"] += 1
        policy = self.scenario.retry
        if failures > policy.max_retries:
            self.counters["retries"] += policy.max_retries
            self._accrue_backoff(policy.max_retries)
            self.counters["retries_exhausted"] += 1
            raise TransientIOError(disk, block, policy.max_retries + 1)
        self.counters["retries"] += failures
        self._accrue_backoff(failures)

    def _accrue_backoff(self, retries: int) -> None:
        policy = self.scenario.retry
        self.backoff_ticks += total_backoff(
            retries, policy.backoff_base_ticks, policy.backoff_multiplier
        )

    def _drawn_transient_failures(self) -> int:
        """Rate-based transient draw for the current op (0 = healthy)."""
        rate = self.scenario.transient_rate
        if rate and self._rng.random() < rate:
            return 1
        return 0

    def _tear(self, payload: np.ndarray, old: np.ndarray, keep: float) -> np.ndarray:
        torn = np.asarray(old, dtype=np.uint8).copy()
        cut = max(1, int(round(keep * torn.shape[-1])))
        torn[:cut] = np.asarray(payload, dtype=np.uint8)[:cut]
        self.counters["torn_writes"] += 1
        return torn

    # -------------------------------------------------------- single-op hooks
    def on_read(self, disk: int, block: int) -> None:
        """Consulted by ``BlockArray.read`` before counting; may raise."""
        self._fire_disk_failures()
        self._check_not_failed(disk)
        if self._crash_now():
            self._die(f"read d{disk}b{block}")
        op = self.op
        self.op += 1
        if self._crashable_depth:
            self.crash_events_done += 1
        failures = self._transient.pop(op, 0) or self._drawn_transient_failures()
        if failures:
            self._transient_gate(disk, block, failures)
        if (disk * self._bpd + block) in self._bad:
            self.counters["sector_errors_hit"] += 1
            raise ReadFaultError(disk, block)

    def on_write(
        self, disk: int, block: int, payload: np.ndarray, old: np.ndarray
    ) -> tuple[np.ndarray | None, ConversionCrash | None]:
        """Consulted by single-block writes before counting.

        Returns ``(payload, crash)``: the (possibly torn) payload to
        persist, and — when the armed crash fires here — the exception
        the array must raise after persisting the torn bytes (``payload``
        is ``None`` for a clean-boundary crash).  May raise directly for
        disk failures and exhausted transients.
        """
        self._fire_disk_failures()
        self._check_not_failed(disk)
        if self._crash_now():
            try:
                self._die(f"write d{disk}b{block}")
            except ConversionCrash as crash:
                if self._crash_tear is not None:
                    return self._tear(payload, old, self._crash_tear), crash
                return None, crash
        op = self.op
        self.op += 1
        if self._crashable_depth:
            self.crash_events_done += 1
        failures = self._transient.pop(op, 0) or self._drawn_transient_failures()
        if failures:
            self._transient_gate(disk, block, failures)
        keep = self._torn.pop(op, None)
        if keep is not None:
            payload = self._tear(payload, old, keep)
        key = disk * self._bpd + block
        if key in self._bad:
            self._bad.discard(key)
            self.counters["sector_errors_cleared"] += 1
        return payload, None

    # ------------------------------------------------------------- reporting
    def snapshot(self) -> dict:
        """JSON-ready fault accounting (the obs bridge's source)."""
        doc = dict(self.counters)
        doc["backoff_ticks"] = self.backoff_ticks
        doc["ops_seen"] = self.op
        doc["crashable_events"] = self.crash_events_done
        doc["outstanding_sector_errors"] = len(self._bad)
        return doc
