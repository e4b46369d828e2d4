"""One fleet volume: array + converter + health + QoS, as a tick-domain task.

A :class:`FleetVolume` owns everything about one migrating volume — the
:class:`~repro.raid.array.BlockArray` and its pages, the
:class:`~repro.migration.online.OnlineCode56Conversion`, its
:class:`~repro.faults.journal.OnlineJournal` watermark, the fault plane,
the health state machine and the QoS arbitration — and replays a seeded
foreground schedule against the conversion in one deterministic
cooperative loop.  Volumes share **no** mutable state except the
:class:`~repro.fleet.spares.SparePool`, and the fleet service drains
them one at a time in volume order, so the per-volume results (hence
the merged fleet report) are bit-stable for a given config.

The background scheduler inside :meth:`run` arbitrates three kinds of
work between foreground arrivals:

1. **rebuild** (priority): a staged row-XOR reconstruction of a failed
   data disk onto its hot spare.  Staging interleaves with foreground
   traffic (the disk stays failed, so reads keep reconstructing);
   foreground writes that land in already-staged stripes dirty them for
   re-staging; the final commit — replace the disk, write the staged
   image — is one atomic slice bounded by the stripe count.  Rebuild
   spends token-bucket bandwidth but ignores the circuit breaker:
   restoring redundancy outranks latency.
2. **conversion**: Algorithm 2 runs (``batch`` parities at most),
   token-bucket-gated and paused while the breaker is open.  A pause
   discards the in-memory converter; resume constructs a fresh one from
   the journal, which re-validates every mark — literally "resume from
   the journal watermark", the same transition the model checker proves
   safe (its ``P`` rule).
3. **scrub**: idle-slack parity verification once conversion has
   drained (:meth:`ScrubCursor.step`), plus one full pass before the
   volume reports complete (:meth:`ScrubCursor.sweep`, the whole volume
   in one tiled :meth:`ArrayCode.syndromes` gather).

Provisioning is whole-array work too: the seeded data lands through one
vectorized RAID-5 fill (:meth:`Raid5Array.format_with`).  The fleet
service constructs each volume just before it drives it, so a volume
holds memory only while it runs.

Completion is audited two ways: the converter's own Code 5-6 stripe
audit, and a byte-for-byte comparison against the analytically
constructed offline-conversion image of the final logical data (RAID-5
rows + Code 5-6 diagonals over the truth model) — zero divergence means
the online migration landed exactly where an offline conversion of the
same writes would have.  The stripe audit is one tiled
:meth:`ArrayCode.syndromes` gather over the store in place.  The
reference image is streamed: one stripe-group at a time, one reused
``(p, rows, block)`` buffer is filled from the cached
:func:`~repro.raid.layouts.raid5_placement` table and the code's chain
table (:meth:`ArrayCode.chain_table`), with XOR arithmetic of its own,
and compared with an uncounted view of that group.  The whole image is
never built and the seeded data never copied.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from repro.faults.errors import ConversionCrash
from repro.faults.events import DiskFailureEvent
from repro.faults.plane import FaultPlane
from repro.faults.spec import FaultScenario
from repro.fleet.health import VolumeHealth, VolumeState
from repro.fleet.qos import CircuitBreaker, QosTarget, TokenBucket
from repro.fleet.spares import ScrubCursor, SparePool
from repro.raid.array import BlockArray
from repro.raid.layouts import Raid5Layout, raid5_placement
from repro.raid.raid5 import Raid5Array, row_xor

__all__ = ["VolumeSpec", "FleetVolume"]

#: resume attempts per volume before declaring the crash schedule hostile
_MAX_CRASH_RESUMES = 8


@dataclass(frozen=True)
class VolumeSpec:
    """Deterministic recipe for one fleet volume (all seeds explicit)."""

    volume_id: int
    p: int = 5
    groups: int = 2
    block_size: int = 8
    seed: int = 0
    tenant: str = "default"
    n_requests: int = 12
    batch: int = 1
    qos: QosTarget = QosTarget()
    #: background-bandwidth bucket (tokens/tick, burst)
    bucket_rate: float = 1.0
    bucket_burst: float = 32.0
    #: time-domain disk failures handled by the fleet (spare + rebuild)
    failures: tuple[DiskFailureEvent, ...] = ()
    #: plane-level faults (sector errors, transients, crash points)
    scenario: FaultScenario = field(default_factory=FaultScenario)

    @property
    def rows(self) -> int:
        return self.p - 1

    @property
    def capacity_blocks(self) -> int:
        return self.groups * self.rows * (self.p - 2)


class FleetVolume:
    """One volume's full migration lifecycle under live traffic."""

    def __init__(self, spec: VolumeSpec):
        from repro.migration.online import OnlineCode56Conversion, OnlineReport

        self.spec = spec
        self._conv_cls = OnlineCode56Conversion
        p, rows, bs = spec.p, spec.rows, spec.block_size
        self.m = p - 1
        stripes = spec.groups * rows
        data_rng = np.random.default_rng((spec.seed, spec.volume_id, 0))
        self.data = data_rng.integers(
            0, 256, size=(spec.capacity_blocks, bs), dtype=np.uint8
        )
        # p disks up front: the hot-added diagonal disk is column m
        self.array = BlockArray(p, stripes, block_size=bs)
        self.layout = Raid5Layout.LEFT_ASYMMETRIC
        Raid5Array(self.array, self.layout, n_disks=self.m).format_with(self.data)
        from repro.faults.journal import OnlineJournal

        self.journal = OnlineJournal(spec.groups, rows)
        self.plane = FaultPlane(spec.scenario)
        self.plane.attach(self.array)
        self.conv = OnlineCode56Conversion(
            self.array, p, journal=self.journal, batch=spec.batch
        )
        self.report = OnlineReport()
        self.requests = self._request_schedule()
        self.health = VolumeHealth()
        self.breaker = CircuitBreaker(spec.qos)
        self.bucket = TokenBucket(spec.bucket_rate, spec.bucket_burst)
        self.scrub = ScrubCursor(self.conv)
        #: truth model: lba -> last applied payload
        self.applied: dict[int, np.ndarray] = {}
        self.crashes = 0
        self.resumes = 0
        self.rebuilds_completed = 0
        self.spare_denied = 0
        self.finish_tick = 0.0
        self.error: str | None = None
        # rebuild staging state (active while a data-disk rebuild runs)
        self._rebuild_disk: int | None = None
        self._staged: np.ndarray | None = None
        self._stage_cursor = 0
        self._dirty: set[int] = set()

    # ------------------------------------------------------------- schedule
    def _request_schedule(self) -> list:
        """Seeded write-heavy foreground schedule.

        Inter-arrival draws dominate the worst-case healthy service time
        (~10 ticks for an interrupted degraded write), so the schedule
        is feasible by construction: foreground latency only climbs when
        *background* work crowds it out, which is exactly what the QoS
        breaker arbitrates (an overloaded open-loop client would breach
        any target even with conversion fully paused).
        """
        from repro.migration.online import OnlineRequest

        spec = self.spec
        rng = np.random.default_rng((spec.seed, spec.volume_id, 1))
        reqs = []
        t = 0.0
        for _ in range(spec.n_requests):
            t += float(rng.integers(6, 14))
            is_write = bool(rng.random() < 0.7)
            reqs.append(
                OnlineRequest(
                    time=t,
                    lba=int(rng.integers(spec.capacity_blocks)),
                    is_write=is_write,
                    payload=(
                        rng.integers(0, 256, size=spec.block_size, dtype=np.uint8)
                        if is_write
                        else None
                    ),
                )
            )
        return reqs

    # ------------------------------------------------------------ main loop
    def run(self, spares: SparePool | None = None) -> dict:
        """Drive the volume to a terminal state; returns its result doc."""
        try:
            self.health.transition(VolumeState.MIGRATING, 0.0, "admitted")
            clock = self._drive(spares)
            self.finish_tick = clock
            if self.health.state in (VolumeState.MIGRATING, VolumeState.REBUILDING):
                self.health.transition(VolumeState.COMPLETE, clock, "drained")
            elif self.health.state is VolumeState.DEGRADED:
                # pool exhausted: drained on reconstruct-on-read alone
                self.health.transition(
                    VolumeState.COMPLETE, clock, "drained-degraded"
                )
        except Exception as exc:  # noqa: BLE001 - a volume failure is a result
            self.error = f"{type(exc).__name__}: {exc}"
            if not self.health.terminal:
                self.health.transition(
                    VolumeState.FAILED, self.finish_tick, self.error
                )
        finally:
            self.plane.detach()
        return self.result()

    def _drive(self, spares: SparePool | None) -> float:
        clock = 0.0
        events: list[tuple[float, int, object]] = [
            (r.time, 1, r) for r in self.requests
        ]
        for f in self.spec.failures:
            events.append((f.time, 0, f))
        events.sort(key=lambda e: (e[0], e[1]))
        for _time, _prio, event in events:
            if self.health.terminal:
                break
            clock = self._background_until(event.time, clock)
            stall = max(0.0, clock - event.time)
            clock = max(clock, event.time)
            if isinstance(event, DiskFailureEvent):
                self._on_disk_failure(event.disk, clock, spares)
                continue
            start = clock
            clock = self.conv.serve_request(event, clock, self.report)
            self.report.request_latencies.append(clock - start)
            self.report.request_stalls.append(stall)
            if event.is_write:
                self.applied[event.lba] = np.asarray(event.payload, dtype=np.uint8)
                if (
                    self._rebuild_disk is not None
                    and self._staged is not None
                ):
                    _g, _r, _d, stripe = self.conv.geometry.locate(event.lba)
                    if stripe < self._stage_cursor:
                        self._dirty.add(stripe)
            self.breaker.observe(stall + (clock - start), clock)
        if not self.health.terminal:
            clock = self._background_until(float("inf"), clock)
            clock = self._final_scrub(clock)
            self.report.finish_tick = clock
            self.report.parities_generated = self.journal.count()
        return clock

    # ----------------------------------------------------- background work
    def _background_until(self, deadline: float, clock: float) -> float:
        """Rebuild, then conversion, then idle scrub — up to ``deadline``."""
        while not self.health.terminal:
            if clock >= deadline:
                return clock
            if self._rebuild_disk is not None:
                clock, progressed = self._rebuild_slice(deadline, clock)
                if progressed:
                    continue
                return clock
            if not self.conv.conversion_done:
                clock, progressed = self._convert_slice(deadline, clock)
                if progressed:
                    continue
                return clock
            # conversion drained: scrub the idle slack of this window
            if deadline == float("inf"):
                return clock
            while clock < deadline:
                cost = self.scrub.step()
                if cost == 0 or clock + cost > deadline:
                    break
                clock += cost
            return max(clock, deadline) if deadline != float("inf") else clock
        return clock

    def _convert_slice(self, deadline: float, clock: float) -> tuple[float, bool]:
        """One conversion run (or pause/refill wait); (clock, progressed)."""
        if self.breaker.is_open(clock):
            resume = self.breaker.resume_tick
            assert resume is not None
            if resume >= deadline:
                return clock, False  # paused past this window
            clock = resume
            self._resume_from_watermark("breaker-reopen")
        est = self.conv._parity_cost_estimate()
        delay = self.bucket.delay_until(est, clock)
        if delay > 0.0:
            if clock + delay >= deadline:
                return clock, False  # starved past this window
            clock += delay
        tokens = int(self.bucket.available(clock) // est)
        budget = max(1, min(self.conv.run_budget(deadline, clock), tokens))
        cost = self._convert_step(budget)
        if cost == 0:
            return clock, False
        self.bucket.spend(cost, clock)
        self.report.conversion_ticks += cost
        return clock + cost, True

    def _convert_step(self, budget: int) -> int:
        """One run plus its group commit, under the crash plane."""
        for _attempt in range(_MAX_CRASH_RESUMES):
            try:
                with self.plane.crashable():
                    return self.conv.convert_run(self.report, budget)
            except ConversionCrash:
                self.crashes += 1
                self.plane.disarm_crash()
                self._resume_from_watermark("crash-resume")
        raise RuntimeError("conversion crash kept re-firing after resume")

    def _resume_from_watermark(self, reason: str) -> None:
        """Discard the in-memory converter; trust only journal + bytes."""
        self.resumes += 1
        self.conv = self._conv_cls(
            self.array, self.spec.p, journal=self.journal, batch=self.spec.batch
        )
        self.scrub.conv = self.conv

    # -------------------------------------------------------------- rebuild
    def _on_disk_failure(
        self, disk: int, clock: float, spares: SparePool | None
    ) -> None:
        failed_data = {d for d in self.array.failed_disks if d < self.m}
        if disk == self.m:
            # the hot-added diagonal disk died: its parities are gone.
            # With a spare: swap it in and let journal re-validation drop
            # every stale mark — the conversion regenerates from scratch,
            # nothing on the old disks was touched (the paper's restart).
            if failed_data:
                self.array.fail_disk(disk)
                self.health.transition(
                    VolumeState.FAILED, clock, "diagonal-disk-lost-while-degraded"
                )
                return
            self.health.transition(VolumeState.DEGRADED, clock, "diagonal-disk-lost")
            if spares is None or not spares.claim():
                self.spare_denied += 1
                self.health.transition(
                    VolumeState.FAILED, clock, "diagonal-disk-lost-no-spare"
                )
                return
            self.health.transition(VolumeState.REBUILDING, clock, "spare-attached")
            self.array.fail_disk(disk)
            self.array.replace_disk(disk)  # zeroed spare
            self._resume_from_watermark("diagonal-spare")  # drops stale marks
            self.rebuilds_completed += 1
            self.health.transition(VolumeState.MIGRATING, clock, "reconverting")
            return
        if failed_data:
            self.array.fail_disk(disk)
            self.health.transition(
                VolumeState.FAILED, clock, f"double-fault:d{sorted(failed_data)[0]}+d{disk}"
            )
            return
        self.array.fail_disk(disk)
        self.report.failures_survived += 1
        was_rebuilding = self.health.state is VolumeState.REBUILDING
        self.health.transition(
            VolumeState.DEGRADED, clock,
            f"data-disk-lost:d{disk}" + ("-mid-rebuild" if was_rebuilding else ""),
        )
        if spares is None or not spares.claim():
            self.spare_denied += 1
            return  # reconstruct-on-read until (if ever) a spare frees up
        self.health.transition(VolumeState.REBUILDING, clock, "spare-attached")
        stripes = self.spec.groups * self.spec.rows
        self._rebuild_disk = disk
        self._staged = np.zeros((stripes, self.spec.block_size), dtype=np.uint8)
        self._stage_cursor = 0
        self._dirty = set()

    def _rebuild_slice(self, deadline: float, clock: float) -> tuple[float, bool]:
        """Stage (interleaved) or commit (atomic) the rebuild; bucket-gated."""
        disk = self._rebuild_disk
        staged = self._staged
        assert disk is not None and staged is not None
        stripes = staged.shape[0]
        per_stripe = self.m - 1  # row reads; the reconstruction XOR is free
        if self._stage_cursor < stripes or self._dirty:
            delay = self.bucket.delay_until(per_stripe, clock)
            if delay > 0.0:
                if clock + delay >= deadline:
                    return clock, False
                clock += delay
            if clock + per_stripe > deadline:
                return clock, False
            stripe = self._dirty.pop() if self._dirty else self._stage_cursor
            staged[stripe] = row_xor(self.array, stripe, self.m, (disk,))
            if stripe == self._stage_cursor:
                self._stage_cursor += 1
            self.bucket.spend(per_stripe, clock)
            return clock + per_stripe, True
        # commit: one atomic slice — replace the disk and write the image.
        # Bounded by the stripe count; foreground sees at most this stall.
        commit_cost = stripes
        delay = self.bucket.delay_until(commit_cost, clock)
        if delay > 0.0:
            if clock + delay >= deadline:
                return clock, False
            clock += delay
        self.array.replace_disk(disk)
        for stripe in range(stripes):
            self.array.write(disk, stripe, staged[stripe])
        self.bucket.spend(commit_cost, clock)
        self._rebuild_disk = None
        self._staged = None
        self.rebuilds_completed += 1
        self.health.transition(
            VolumeState.MIGRATING, clock + commit_cost, f"rebuilt:d{disk}"
        )
        # the journal survived; re-validation is a no-op for data-disk
        # rebuilds (diagonal parities were never lost) but keeps the
        # resume path uniform
        self._resume_from_watermark("post-rebuild")
        return clock + commit_cost, True

    # ----------------------------------------------------------- completion
    def _final_scrub(self, clock: float) -> float:
        """One full scrub pass (:meth:`ScrubCursor.sweep`) before reporting
        complete."""
        if self.health.terminal or self.array.failed_disks:
            return clock
        return clock + self.scrub.sweep()

    def _reference_groups(self) -> Iterator[tuple[int, np.ndarray]]:
        """``(group, image)`` of every stripe-group in turn: ``image`` is
        the group's ``(p, rows, block)`` offline-conversion image of the
        final logical data, one buffer refilled for every group (read it
        before drawing the next).

        RAID-5 data placement + horizontal parities + Code 5-6 diagonal
        parities computed analytically over the truth model — exactly
        the bytes an offline conversion of the post-write image
        produces (both parity families are determined by the data).
        Independent of the converter and of :meth:`ArrayCode.syndromes`:
        the seeded data lands through the cached :func:`raid5_placement`
        table and the applied writes over it, each horizontal parity is
        one XOR-reduce over the ``m`` RAID-5 disks, and the diagonal
        chains, whose cells the code's chain table lists, are reduced
        together.
        """
        spec = self.spec
        rows, m = spec.rows, self.m
        per_group = rows * (m - 1)  # LBAs of one group, stripe by stripe
        stripe_of, disk_of, parity_of = raid5_placement(self.layout, m, spec.groups * rows)
        chain_rows, chain_cols = self.conv.code.chain_table().terms(range(rows, 2 * rows))
        chain_rows, chain_cols = chain_rows[:, 1:], chain_cols[:, 1:]
        applied = np.array(sorted(self.applied), dtype=np.intp)
        image = np.empty((spec.p, rows, spec.block_size), dtype=np.uint8)
        local = np.arange(rows)
        for group in range(spec.groups):
            lo, base = group * per_group, group * rows
            span = slice(lo, lo + per_group)
            image[disk_of[span], stripe_of[span] - base] = self.data[span]
            first, last = np.searchsorted(applied, [lo, lo + per_group])
            for lba in applied[first:last].tolist():
                image[disk_of[lba], stripe_of[lba] - base] = self.applied[lba]
            # with each row's parity slot zeroed, the row XOR over all m
            # disks is the horizontal parity
            parity = parity_of[base : base + rows]
            image[parity, local] = 0
            image[parity, local] = np.bitwise_xor.reduce(image[:m], axis=0)
            np.bitwise_xor.reduce(image[chain_cols, chain_rows], axis=1, out=image[m])
            yield group, image

    def reference_snapshot(self) -> np.ndarray:
        """The whole ``(p, stripes, block)`` offline-conversion image,
        every group of :meth:`_reference_groups` stacked (for tests; the
        audit streams it)."""
        spec = self.spec
        rows = spec.rows
        expect = np.empty((spec.p, spec.groups * rows, spec.block_size), dtype=np.uint8)
        for group, image in self._reference_groups():
            expect[:, group * rows : (group + 1) * rows] = image
        return expect

    def divergent_blocks(self) -> int:
        """Blocks differing from the offline-conversion reference.

        Failed (unrebuilt) disks hold stale bytes by design and are
        excluded; every surviving disk must match exactly.  The array is
        compared in place (an uncounted view), one group's reference
        image at a time into one reused byte mask: the whole image is
        never built and the seeded data never copied.
        """
        spec = self.spec
        failed = self.array.failed_disks
        live = np.array([disk not in failed for disk in range(spec.p)])
        got = self.array.bulk_view(slice(0, spec.p), slice(None))
        got = got.reshape(spec.p, spec.groups, spec.rows, spec.block_size)
        differs = np.empty((spec.p, spec.rows, spec.block_size), dtype=bool)
        divergent = 0
        for group, image in self._reference_groups():
            np.not_equal(image, got[:, group], out=differs)
            divergent += int(np.count_nonzero(differs.any(axis=-1)[live]))
        return divergent

    def result(self) -> dict:
        """JSON-ready per-volume outcome (the fleet report's unit)."""
        complete = self.health.state is VolumeState.COMPLETE
        verified = False
        divergent = -1
        if complete:
            divergent = self.divergent_blocks()
            verified = (
                bool(self.conv.verify()) if not self.array.failed_disks else False
            )
        lat = [
            s + l
            for s, l in zip(self.report.request_stalls, self.report.request_latencies)
        ]
        arr = np.asarray(lat) if lat else None
        return {
            "volume_id": self.spec.volume_id,
            "tenant": self.spec.tenant,
            "state": self.health.state.value,
            "transitions": self.health.history(),
            "error": self.error,
            "requests_served": len(self.report.request_latencies),
            "writes_applied": len(self.applied),
            "parities_generated": self.journal.count(),
            "conversion_ticks": self.report.conversion_ticks,
            "finish_tick": self.finish_tick,
            "crashes": self.crashes,
            "resumes": self.resumes,
            "rebuilds_completed": self.rebuilds_completed,
            "spare_denied": self.spare_denied,
            "degraded_reads": self.report.degraded_reads,
            "failures_survived": self.report.failures_survived,
            "batch": self.spec.batch,
            "verified": verified,
            "divergent_blocks": divergent,
            "latency": {
                "samples": len(lat),
                "ticks": [float(x) for x in lat],
                "p50": float(np.percentile(arr, 50)) if arr is not None else 0.0,
                "p95": float(np.percentile(arr, 95)) if arr is not None else 0.0,
                "p99": float(np.percentile(arr, 99)) if arr is not None else 0.0,
            },
            "breaker": self.breaker.snapshot(),
            "scrub": self.scrub.snapshot(),
            "qos_p99_ticks": self.spec.qos.p99_ticks,
            "fault_counters": {k: v for k, v in self.plane.counters.items() if v},
        }
