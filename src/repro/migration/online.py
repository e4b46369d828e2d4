"""Online conversion (Algorithm 2): migration concurrent with app I/O.

The paper's Algorithm 2 runs two logical threads:

* the **conversion thread** walks the diagonal-parity column block by
  block — for each not-yet-generated diagonal parity it reads the
  chain's data blocks, XORs, and writes the parity;
* the **application thread** serves user requests.  Reads never conflict
  (the conversion only writes the new column).  A write *interrupts* the
  conversion, performs its read-modify-write — updating the horizontal
  parity always, and the diagonal parity only if that parity has already
  been generated — then resumes the conversion.

We model time in ``Te`` ticks (one block access each, the paper's cost
unit) with a cooperative scheduler: between request arrivals the
conversion thread makes progress; a write stalls it for the duration of
its own I/Os.  The end state is verified: all parities consistent and
every logical block equal to the ground-truth model after the same write
sequence.

The conversion thread is a **resumable step function** over *runs*:
between application events it claims up to ``batch`` pending parities,
writes them, then commits their journal marks.  A budget of 1 is the
paper-faithful per-parity interleave; larger budgets are the same
protocol with longer runs.  The transitions are exposed individually so
external schedulers (the interleaving model checker in
:mod:`repro.staticcheck.concur`) can drive arbitrary interleavings of
conversion progress, application writes, crash points and journal
flushes:

* :meth:`~OnlineCode56Conversion.pending_run` — the next (up to a
  budget) pending parities, in cursor order, without mutating state;
* :meth:`~OnlineCode56Conversion.generate_run_step` — generate every
  parity of the run.  Every run on a healthy array (no fault plane, no
  failed disk, no sanitizer), one parity long or longer, goes through
  :func:`repro.migration.batch.execute_run_fused` (region XOR through
  the kernel, counted bulk write, credited reads); every other run goes
  through the audited per-parity loop, the only sound choice when
  something observes each counted I/O.  The run stays *in flight* —
  bytes landed, nothing marked;
* :meth:`~OnlineCode56Conversion.mark_run_step` — the group commit: one
  journal flush (:meth:`OnlineJournal.mark_many`) for the whole run,
  only after every parity write landed.  Write-ahead ordering is
  preserved run-wide: a crash mid-run leaves correct-but-unmarked
  parities, regenerated idempotently on resume;
* :meth:`~OnlineCode56Conversion.serve_request` — one application
  request (a write interrupts the conversion, Algorithm 2);
* :meth:`~OnlineCode56Conversion.thread_state` /
  :meth:`~OnlineCode56Conversion.restore_thread_state` — snapshot and
  restore the conversion thread's in-memory state (cursor + generated
  bitmap + in-flight run) for depth-first state-space exploration.

:meth:`~OnlineCode56Conversion.pending_parity`,
:meth:`~OnlineCode56Conversion.generate_step` and
:meth:`~OnlineCode56Conversion.mark_step` are one-parity wrappers over
the same transitions.

Application writes that arrive while a run is in flight are detected by
a vectorized overlap check against the run's address interval
(:meth:`~OnlineCode56Conversion.run_overlaps`): an overlapping write
patches the already-written (unmarked) parity — XOR commutes, so resume
stays idempotent — and the scheduler *shrinks* each run
(:meth:`~OnlineCode56Conversion.run_budget`) so it never overshoots a
request arrival by more than one parity's cost (foreground latency is
bounded exactly as in the per-parity interleave).

:meth:`~OnlineCode56Conversion.run` is a driver over exactly these
transitions, so the cooperative-scheduler behaviour and the model
checker explore the same code.

Note the per-chain read pattern costs ``(p-2)`` reads per parity versus
the offline engine's shared whole-group read — the price of fine-grained
interruptibility; both totals are reported.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.codes.registry import get_code
from repro.faults.degraded import ReconstructingReader
from repro.faults.events import DiskFailureEvent
from repro.migration.batch import execute_run_fused, fused_run_usable
from repro.obs.tracer import get_tracer
from repro.raid.array import BlockArray
from repro.raid.layouts import volume_geometry

__all__ = [
    "OnlineRequest",
    "DiskFailureEvent",  # re-exported; the dataclass lives in repro.faults.events
    "OnlineReport",
    "OnlineCode56Conversion",
]


@dataclass(frozen=True)
class OnlineRequest:
    """One application request against the logical volume."""

    time: float  # in Te ticks
    lba: int
    is_write: bool
    payload: np.ndarray | None = None  # required for writes


@dataclass
class OnlineReport:
    """Outcome of an online conversion run."""

    conversion_ticks: int = 0  # I/O ticks spent by the conversion thread
    app_ticks: int = 0  # I/O ticks spent serving requests
    interruptions: int = 0  # writes that pre-empted the conversion
    parities_generated: int = 0
    writes_to_converted: int = 0  # writes that also patched a diagonal parity
    writes_to_unconverted: int = 0
    finish_tick: float = 0.0
    request_latencies: list[float] = field(default_factory=list)
    #: per-request queueing stall behind the conversion thread (the
    #: conversion's overshoot past the arrival instant); foreground
    #: latency = ``request_stalls[i] + request_latencies[i]``
    request_stalls: list[float] = field(default_factory=list)
    #: extra reads spent reconstructing blocks of failed disks
    degraded_reads: int = 0
    failures_survived: int = 0
    #: run accounting (one run per generate/mark pair)
    runs_committed: int = 0
    max_run: int = 0
    #: runs clipped below the batch budget (an approaching request, or
    #: the fleet's token bucket)
    batch_shrinks: int = 0


class OnlineCode56Conversion:
    """Algorithm 2 on an in-memory array.

    Parameters
    ----------
    array:
        Physical array holding a left-asymmetric RAID-5 on disks
        ``0..m-1``; disk ``m`` must be the hot-added blank disk.
    p:
        Prime parameter; ``m`` must equal ``p - 1`` (Step 1's check —
        virtual-disk setups convert offline through the plan engine).
    journal:
        Optional :class:`repro.faults.journal.OnlineJournal` watermark.
        When supplied, each generated diagonal parity is marked (only
        *after* its write lands), and construction doubles as **resume**:
        every marked parity is re-validated against a recomputed chain
        XOR — a valid mark is trusted, a stale one (e.g. a torn parity
        write, or a mark that outlived the bytes) is dropped and the
        parity regenerated.  The mark is a hint; the bytes are the
        authority.
    batch:
        Conversion-run budget: how many pending parities the conversion
        thread may claim between application events.  ``1`` (default) is
        the paper-faithful per-parity interleave; larger budgets claim
        longer runs and group-commit their journal marks.  Deadline-aware
        shrinking keeps foreground latency bounded exactly as at budget 1.
    """

    def __init__(
        self,
        array: BlockArray,
        p: int,
        block_size: int | None = None,
        journal=None,
        batch: int = 1,
    ):
        self.array = array
        self.p = p
        self.m = p - 1
        if batch < 1:
            raise ValueError(f"batch budget must be >= 1, got {batch}")
        self.batch = int(batch)
        if array.n_disks < p:
            raise ValueError("add the new disk (Step 2) before converting")
        self.code = get_code("code56", p)
        self.rows = p - 1
        self.groups = array.blocks_per_disk // self.rows
        #: every address table of the volume (placement, chains, credit)
        self.geometry = volume_geometry(p, array.n_disks, self.groups, array.blocks_per_disk)
        self.layout = self.geometry.layout
        #: reconstruct-on-read through the RAID-5 row (failed disks, LSEs)
        self._reader = ReconstructingReader(array, self.m)
        # generated[g][i] — diagonal parity (i, p-1) of group g written?
        self._generated = np.zeros((self.groups, self.rows), dtype=bool)
        self._total = self.groups * self.rows
        #: parities marked generated: ``self._generated.sum()``, kept
        #: as a running count
        self._done = 0
        self._cursor = 0  # next (group * rows + row) to generate
        #: in-flight run: parities written but not yet marked (None = idle)
        self._run: tuple[tuple[int, int], ...] | None = None
        self._run_keys: np.ndarray | None = None  # cursor keys, ascending
        self.journal = journal
        #: completed events — a resume harness slices its event lists by
        #: these (app serves are never crash-interrupted, so every event
        #: before the crash was applied in full)
        self.requests_served = 0
        self.failures_applied = 0
        if journal is not None:
            if journal.shape != (self.groups, self.rows):
                raise ValueError(
                    f"journal shape {journal.shape} does not match "
                    f"({self.groups}, {self.rows})"
                )
            self._validate_journal(journal)
            self._done = int(self._generated.sum())

    def _validate_journal(self, journal) -> None:
        """Trust-but-verify resume: recompute every marked parity's chain."""
        stale = 0
        for group, row in np.argwhere(journal.marked()).tolist():
            # chain blocks on a failed disk are row-reconstructed
            expect = np.zeros(self.array.block_size, dtype=np.uint8)
            for r, c in self.geometry.chain_cells[row]:
                np.bitwise_xor(expect, self._reader.peek(c, group * self.rows + r), out=expect)
            if np.array_equal(self.array.raw(self.m, group * self.rows + row), expect):
                self._generated[group, row] = True
            else:
                journal.unmark(group, row)  # stale: regenerate, never trust
                stale += 1
        if stale:
            plane = self.array.fault_plane
            if plane is not None:
                plane.counters["stale_checkpoints"] += stale

    # ----------------------------------------------------------- geometry
    @property
    def capacity_blocks(self) -> int:
        return self.geometry.capacity

    def locate(self, lba: int) -> tuple[int, int, int, int]:
        """lba -> (group, row, disk, stripe), from :attr:`geometry`."""
        return self.geometry.locate(lba)

    # ------------------------------------------------------------- running
    def run(
        self,
        requests: list[OnlineRequest],
        failures: list[DiskFailureEvent] | None = None,
    ) -> OnlineReport:
        """Interleave the conversion with ``requests`` (sorted by time).

        ``failures`` injects whole-disk losses mid-conversion.  A failed
        *data* disk degrades but never stops the migration: chain reads
        of its blocks reconstruct through the horizontal parity (this is
        Table VI's "High" reliability made executable — the direct
        conversion keeps single-failure tolerance throughout).  Losing
        the hot-added diagonal disk aborts with ``RuntimeError`` (replace
        it and restart; nothing on the old disks was touched).
        """
        tracer = get_tracer()
        report = OnlineReport()
        events: list[tuple[float, int, object]] = [
            (r.time, 1, r) for r in requests
        ]
        for f in failures or []:
            events.append((f.time, 0, f))
        events.sort(key=lambda e: (e[0], e[1]))
        clock = 0.0

        for _time, _prio, event in events:
            # conversion thread runs until the event arrives
            clock = self._convert_until(event.time, clock, report)
            # foreground stall: conversion-thread overshoot past arrival
            stall = max(0.0, clock - event.time)
            clock = max(clock, event.time)
            if isinstance(event, DiskFailureEvent):
                tracer.instant(
                    "disk-failure", cat="online", track="application", disk=event.disk
                )
                if event.disk == self.m:
                    raise RuntimeError(
                        "the new diagonal-parity disk failed mid-conversion; "
                        "replace it and restart the conversion"
                    )
                self.array.fail_disk(event.disk)
                report.failures_survived += 1
                self.failures_applied += 1
                continue
            start = clock
            with tracer.span(
                "app.write" if event.is_write else "app.read",
                cat="online", track="application", lba=event.lba, tick=start,
            ) as span:
                clock = self._serve(event, clock, report)
                span.set(ticks=clock - start)
            report.request_latencies.append(clock - start)
            report.request_stalls.append(stall)
            self.requests_served += 1
        # drain the remaining conversion work
        clock = self._convert_until(float("inf"), clock, report)
        report.finish_tick = clock
        report.parities_generated = int(self._generated.sum())
        if report.parities_generated != self._total:
            raise RuntimeError("conversion finished with ungenerated parities")
        return report

    # --------------------------------------------------- conversion thread
    @property
    def conversion_done(self) -> bool:
        """Every diagonal parity generated (the thread has nothing left)."""
        return self._done == self._total

    def pending_parity(self) -> tuple[int, int] | None:
        """Next ``(group, row)`` the conversion thread will generate, or
        None when it has drained (a one-parity :meth:`pending_run`)."""
        run = self.pending_run(1)
        return run[0] if run else None

    def generate_step(self, report: OnlineReport) -> int:
        """Transition: generate the pending parity as a one-parity run
        (:meth:`generate_run_step` at budget 1)."""
        return self.generate_run_step(report, budget=1)

    def mark_step(self) -> None:
        """Transition: commit the one-parity run (:meth:`mark_run_step`)."""
        self.mark_run_step()

    @property
    def in_flight_run(self) -> tuple[tuple[int, int], ...] | None:
        """The run whose parity bytes landed but whose marks have not."""
        return self._run

    def pending_run(self, budget: int | None = None) -> tuple[tuple[int, int], ...]:
        """Next up-to-``budget`` pending parities in cursor order.

        Pure query — neither the cursor nor the generated bitmap moves
        (the commit happens in :meth:`mark_run_step`).  Empty when the
        thread has drained.
        """
        limit = self.batch if budget is None else int(budget)
        total = self._total
        run: list[tuple[int, int]] = []
        cur = self._cursor
        while cur < total and len(run) < limit:
            group, row = divmod(cur, self.rows)
            if not self._generated[group, row]:
                run.append((group, row))
            cur += 1
        return tuple(run)

    def generate_run_step(self, report: OnlineReport, budget: int | None = None) -> int:
        """Transition: claim a run and write every parity in it — array only.

        On a healthy array (:func:`repro.migration.batch.
        fused_run_usable`) every run, whatever its length, is lowered to
        fused region ops (:func:`repro.migration.batch.
        execute_run_fused` — counted bulk write, credited reads, zero
        counter drift).  Every other run goes through the audited
        per-parity generator: under a fault plane or with failed disks
        it keeps degraded reconstruction and crash/fault hooks firing at
        every I/O, and under a sanitizer it shadow-records every read.
        Either way nothing is marked: the run stays in flight until
        :meth:`mark_run_step`, and the whole window is the crash window
        — a crash leaves correct-but-unmarked parities, regenerated
        idempotently on resume.  Returns the I/O cost in ticks.
        """
        if self._run is not None:
            raise RuntimeError("a parity run is already in flight; mark it first")
        run = self.pending_run(budget)
        if not run:
            return 0
        keys = self._keys(run)
        if fused_run_usable(self.array):
            cost = execute_run_fused(self.array, self.p, keys)
        else:
            cost = 0
            for group, row in run:
                cost += self._generate_parity(group, row, report)
        self._run = run
        self._run_keys = keys
        return cost

    def mark_run_step(self) -> None:
        """Transition: group-commit the in-flight run's journal marks.

        One journal flush (:meth:`OnlineJournal.mark_many`) for the
        whole run — issued only after every parity write in the run has
        landed, preserving write-ahead ordering run-wide — then the
        cursor advances past the run.
        """
        run, keys = self._run, self._run_keys
        if run is None:
            raise RuntimeError("no parity run in flight")
        self._generated.reshape(-1)[keys] = True
        self._done += len(run)
        if self.journal is not None:
            self.journal.mark_many(keys)
        self._cursor = max(self._cursor, int(keys[-1]) + 1)
        self._run = None
        self._run_keys = None

    def run_overlaps(self, group: int, prow: int) -> bool:
        """Vectorized overlap check of one parity against the in-flight run.

        An interval pre-filter on the run's cursor-key range, then an
        exact vectorized membership test — the conflict detector the
        write path uses to patch parities whose bytes landed but whose
        marks have not.
        """
        keys = self._run_keys
        if keys is None:
            return False
        key = group * self.rows + prow
        if key < int(keys[0]) or key > int(keys[-1]):
            return False
        return bool(np.any(keys == key))

    def thread_state(self) -> tuple[int, np.ndarray, tuple[tuple[int, int], ...] | None]:
        """Snapshot of the conversion thread (cursor, generated, in-flight run)."""
        return self._cursor, self._generated.copy(), self._run

    def restore_thread_state(
        self, state: tuple[int, np.ndarray, tuple[tuple[int, int], ...] | None]
    ) -> None:
        """Restore a :meth:`thread_state` snapshot (model-checker rewind)."""
        cursor, generated, run = state
        self._cursor = int(cursor)
        self._generated[...] = generated
        self._done = int(generated.sum())
        self._run = run
        self._run_keys = None if run is None else self._keys(run)

    def _keys(self, run: tuple[tuple[int, int], ...]) -> np.ndarray:
        """Cursor keys ``group * rows + row`` of ``run``, ascending."""
        return np.fromiter((g * self.rows + r for g, r in run), dtype=np.intp, count=len(run))

    def _parity_cost_estimate(self) -> int:
        """Upper bound on one parity's tick cost: ``p-1`` healthy, plus
        ``m-2`` per failed data disk (a degraded chain read costs ``m-1``
        instead of 1).  Used to size deadline-shrunk batches — an upper
        bound guarantees a shrunk run never undershoots the claim."""
        est = self.p - 1
        failed_data = sum(1 for d in self.array.failed_disks if d < self.m)
        return est + failed_data * (self.m - 2)

    def run_budget(self, deadline: float, clock: float) -> int:
        """Parities the next run may claim before ``deadline``.

        ``min(batch, ceil((deadline - clock) / cost_estimate))``, and
        always at least 1 (guaranteed progress), so a run overshoots a
        request arrival by strictly less than one parity's cost — the
        per-parity interleave's foreground-latency bound at any budget.
        """
        if deadline == float("inf"):
            return self.batch
        room = math.ceil((deadline - clock) / self._parity_cost_estimate())
        return max(1, min(self.batch, room))

    def convert_run(self, report: OnlineReport, budget: int) -> int:
        """Generate one run, pass its pre-mark crash point, commit it.

        The crash point sits in the write-done/marks-missing window: a
        crash there leaves correct but unmarked parities, regenerated
        idempotently on resume.  Returns the run's I/O cost in ticks, 0
        when the thread has drained.
        """
        cost = self.generate_run_step(report, budget=budget)
        if cost == 0:
            return 0
        run = self._run
        assert run is not None
        plane = self.array.fault_plane
        if plane is not None:
            plane.crash_point(f"pre-mark-run:g{run[0][0]}r{run[0][1]}x{len(run)}")
        report.runs_committed += 1
        report.max_run = max(report.max_run, len(run))
        if budget < self.batch and len(run) == budget:
            report.batch_shrinks += 1
        self.mark_run_step()
        return cost

    def _convert_until(self, deadline: float, clock: float, report: OnlineReport) -> float:
        """Run the conversion thread, one deadline-shrunk run at a time,
        until ``clock`` reaches ``deadline`` or the thread drains."""
        if self.conversion_done:
            return clock
        start_tick, start_parities = clock, self._done
        plane = self.array.fault_plane
        # only the conversion thread is crashable: an armed crash kills a
        # parity generation at an I/O boundary, never an app serve
        with get_tracer().span(
            "convert", cat="online", track="conversion", tick=clock,
        ) as span, (plane.crashable() if plane is not None else nullcontext()):
            while True:  # at least one run per call: guaranteed progress
                cost = self.convert_run(report, self.run_budget(deadline, clock))
                if cost == 0:
                    break
                report.conversion_ticks += cost
                clock += cost
                if clock >= deadline:
                    break
            span.set(
                ticks=clock - start_tick,
                parities=self._done - start_parities,
            )
        return clock

    def _read_block(self, disk: int, block: int, report: OnlineReport) -> tuple[np.ndarray, int]:
        """Read a square-column block, reconstructing if its disk failed.

        Degraded path (:class:`~repro.faults.degraded.ReconstructingReader`):
        XOR the other ``m-1`` blocks of the RAID-5 stripe (data plus old
        parity) — costs ``m-1`` reads instead of 1.  The same recovery
        hides latent sector errors and exhausted transient faults
        surfaced by the fault plane; blocks on the hot-added disk
        (``disk >= m``) have no covering row and re-raise.
        """
        value, ios = self._reader.read_ios(disk, block)
        report.degraded_reads += ios - 1
        return value, ios

    def _generate_parity(self, group: int, parity_row: int, report: OnlineReport) -> int:
        acc = np.zeros(self.array.block_size, dtype=np.uint8)
        ios = 0
        for r, c in self.geometry.chain_cells[parity_row]:
            block = group * self.rows + r
            value, cost = self._read_block(c, block, report)
            np.bitwise_xor(acc, value, out=acc)
            ios += cost
        self.array.write(self.m, group * self.rows + parity_row, acc)
        return ios + 1

    # -------------------------------------------------- application thread
    def serve_request(
        self, req: OnlineRequest, clock: float, report: OnlineReport
    ) -> float:
        """Transition: serve one application request (Algorithm 2).

        A write interrupts the conversion thread and performs its
        read-modify-write against the horizontal parity (always) and the
        diagonal parity (only if already generated).  Returns the clock
        after the request's I/Os.
        """
        return self._serve(req, clock, report)

    def _patch_diagonal(
        self, group: int, prow: int, delta: np.ndarray, report: OnlineReport
    ) -> int:
        """RMW the generated diagonal parity of ``(group, prow)`` by ``delta``.

        Separated from :meth:`_serve` so defect-injection harnesses (the
        concur selftest) can override exactly the step whose omission
        loses a write.  Returns the I/O cost.
        """
        block = group * self.rows + prow
        dp = self.array.read(self.m, block)
        self.array.write(self.m, block, np.bitwise_xor(dp, delta))
        report.writes_to_converted += 1
        return 2

    def _serve(self, req: OnlineRequest, clock: float, report: OnlineReport) -> float:
        geometry = self.geometry
        group, row, disk, stripe = geometry.locate(req.lba)
        failed = self.array.failed_disks
        if not req.is_write:
            _value, ios = self._read_block(disk, stripe, report)
            report.app_ticks += ios
            return clock + ios
        if req.payload is None:
            raise ValueError("write request needs a payload")
        # Algorithm 2: a write interrupts the conversion thread.
        report.interruptions += 1
        ios = 0
        payload = np.asarray(req.payload, dtype=np.uint8)
        old, cost = self._read_block(disk, stripe, report)
        ios += cost
        delta = np.bitwise_xor(old, payload)
        if disk not in failed:
            self.array.write(disk, stripe, payload)
            ios += 1
        # else: the block's new content lives only through the parities
        # until the disk is rebuilt (a reconstruct-write).
        # horizontal parity (always exists: it is the old RAID-5 parity)
        pd = geometry.parity_of[stripe]
        if pd not in failed:
            hp = self.array.read(pd, stripe)
            ios += 1
            self.array.write(pd, stripe, np.bitwise_xor(hp, delta))
            ios += 1
        # diagonal parity if already generated — or written by the
        # in-flight run (bytes landed, marks pending): the vectorized
        # overlap check keeps batched runs and app writes coherent.  XOR
        # commutes, so a crash before the run's marks still resumes
        # idempotently (the regenerated chain folds the new data in).
        prow = geometry.diagonal_row[row][disk]
        if self._generated[group, prow] or self.run_overlaps(group, prow):
            ios += self._patch_diagonal(group, prow, delta, report)
        else:
            report.writes_to_unconverted += 1
        report.app_ticks += ios
        return clock + ios

    # ---------------------------------------------------------------- audit
    def verify(self) -> bool:
        """Uncounted whole-array audit of the converted RAID-6.

        One :meth:`ArrayCode.verify_cells` over the store's pages in
        place (:meth:`BlockArray.flat_view`) and the geometry's address
        table (:attr:`VolumeGeometry.addresses`): every chain is checked
        for every group without copying a stripe.

        Requires a healthy array — rebuild failed disks first (e.g. via
        ``Raid6Array.rebuild_disks``); a degraded array's failed columns
        hold stale bytes that only the erasure code can interpret.
        """
        self.array.require_healthy("verifying")
        return self.code.verify_cells(self.array.flat_view(), self.geometry.addresses)
