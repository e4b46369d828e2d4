"""Crash-consistent conversion: checkpointed execution and resume.

Offline conversion is wrapped in a write-ahead discipline, one
stripe-group *unit* at a time:

1. ``journal.begin(unit)`` logs the pre-image of every block the unit
   will write (captured out of band, like controller NVRAM);
2. the unit executes inside the fault plane's ``crashable()`` section,
   so an armed crash can kill it before *any* of its op boundaries —
   including the synthetic barriers right after ``begin`` and right
   before ``commit`` (the classic torn-ordering windows);
3. ``journal.commit(unit)`` seals it with a digest of the bytes written.

Resume re-walks the unit list: validated committed units are skipped,
everything else (in-flight, stale, tampered) is rolled back from its
pre-images and re-executed.  Re-execution is byte-deterministic because
rollback first restores the exact pre-unit state — so a conversion
resumed after a crash at any boundary converges to the byte-identical
final array (the crash-sweep tests enumerate every boundary).

Every unit runs the audited group code
(:func:`~repro.migration.engine._execute_group`), with each read going
through a :class:`~repro.faults.degraded.ReconstructingReader`, which
turns disk failures and read faults into RAID-5 row reconstructions for
zero-movement plans (direct Code 5-6) and refuses anything else.  The
fault plane observes every one of those reads and writes.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro.faults.degraded import ReconstructingReader, plan_is_zero_movement
from repro.faults.errors import ConversionCrash
from repro.faults.journal import ConversionJournal
from repro.faults.plane import FaultPlane
from repro.faults.spec import FaultScenario
from repro.migration.engine import ConversionResult, _execute_group
from repro.migration.plan import ConversionPlan
from repro.raid.array import BlockArray

__all__ = [
    "CheckpointedRun",
    "execute_checkpointed",
    "run_to_completion",
    "count_crash_events",
]

@dataclass
class CheckpointedRun:
    """Outcome of one (possibly resumed) checkpointed execution."""

    result: ConversionResult
    journal: ConversionJournal
    units_executed: int
    units_skipped: int
    rollbacks: int
    stale_detected: int
    degraded: bool


# --------------------------------------------------------------------- units
def _group_units(plan: ConversionPlan):
    """(key, group-work, written-disks, written-blocks) in execution order."""
    units = []
    for gw in sorted(plan.group_works, key=lambda g: (g.phase, g.group)):
        disks: list[int] = []
        blocks: list[int] = []
        for _src, dst, _rp, _wp in gw.migrates.values():
            disks.append(dst.disk)
            blocks.append(dst.block)
        for loc in gw.null_writes.values():
            disks.append(loc.disk)
            blocks.append(loc.block)
        for loc in gw.trims:
            disks.append(loc.disk)
            blocks.append(loc.block)
        for loc in gw.parity_writes.values():
            disks.append(loc.disk)
            blocks.append(loc.block)
        units.append(
            (
                ("group", gw.phase, gw.group),
                gw,
                np.asarray(disks, dtype=np.intp),
                np.asarray(blocks, dtype=np.intp),
            )
        )
    return units


# ------------------------------------------------------------------ executor
def execute_checkpointed(
    plan: ConversionPlan,
    array: BlockArray,
    data: np.ndarray,
    journal: ConversionJournal | None = None,
    *,
    validate: bool = True,
) -> CheckpointedRun:
    """Run (or resume) a conversion under the write-ahead journal.

    Pass the journal of a crashed run to resume it.  ``validate=False``
    trusts committed units blindly (only the seeded-fault selftest does
    this, to prove that validation is what catches stale checkpoints).
    """
    from repro.obs.tracer import get_tracer

    degraded = bool(array.failed_disks)
    if degraded:
        lost_new = sorted(set(array.failed_disks) & set(plan.new_disks))
        if lost_new:
            raise ValueError(
                f"hot-added disk(s) {lost_new} failed — the generated parities "
                "have nowhere to land; replace the disk and restart"
            )
        if not plan_is_zero_movement(plan):
            raise ValueError(
                "degraded conversion requires a zero-movement plan (direct "
                "Code 5-6): data-moving conversions break the RAID-5 row "
                "invariant that reconstruct-on-read depends on"
            )
    if journal is None:
        journal = ConversionJournal()
    units = _group_units(plan)
    reader = ReconstructingReader(
        array, plan.m, allow_reconstruction=plan_is_zero_movement(plan)
    )
    plane = array.fault_plane
    fresh = not journal.records
    if fresh:
        array.reset_counters()

    executed = skipped = rollbacks = stale = 0
    tracer = get_tracer()
    with tracer.span(
        "execute.checkpointed", cat="faults", code=plan.code.name, approach=plan.approach, resumed=not fresh,
        degraded=degraded,
    ), (plane.crashable() if plane is not None else nullcontext()):
        for key, gw, wdisks, wblocks in units:
            rec = journal.get(key)
            if rec is not None and rec.state == "committed":
                if not validate or journal.validate(key, array):
                    skipped += 1
                    continue
                # a committed unit whose bytes no longer match is never
                # trusted: undo and redo it from the logged pre-images
                stale += 1
                if plane is not None:
                    plane.counters["stale_checkpoints"] += 1
                journal.rollback(key, array)
                rollbacks += 1
            elif rec is not None:  # crashed in flight
                journal.rollback(key, array)
                rollbacks += 1
            journal.begin(key, wdisks, wblocks, array.gather_raw(wdisks, wblocks))
            if plane is not None:
                plane.crash_point(f"begin:{key}")
            _execute_group(plan, gw, array, io=reader)
            if plane is not None:
                plane.crash_point(f"pre-commit:{key}")
            journal.commit(
                key, ConversionJournal.digest_of(array.gather_raw(wdisks, wblocks))
            )
            executed += 1

    result = ConversionResult(
        array=array,
        plan=plan,
        data=data,
        measured_reads=array.total_reads,
        measured_writes=array.total_writes,
    )
    return CheckpointedRun(
        result=result,
        journal=journal,
        units_executed=executed,
        units_skipped=skipped,
        rollbacks=rollbacks,
        stale_detected=stale,
        degraded=degraded,
    )


def run_to_completion(attempt, max_crashes: int = 10_000):
    """Call ``attempt()`` until it stops raising :class:`ConversionCrash`.

    Returns ``(value, crashes)``.  ``attempt`` must be resumable — e.g.
    a closure over one journal that disarms (or re-arms) the crash
    between calls; ``max_crashes`` guards against a harness that re-arms
    the same crash point forever.
    """
    crashes = 0
    while True:
        try:
            return attempt(), crashes
        except ConversionCrash:
            crashes += 1
            if crashes > max_crashes:
                raise


def count_crash_events(
    plan: ConversionPlan,
    *,
    block_size: int = 8,
    seed: int = 0,
    scenario: FaultScenario | None = None,
) -> int:
    """Probe run: how many crashable events does this conversion have?

    Runs the checkpointed executor once on a throwaway array with the
    crash disarmed and returns the crashable-event count — the range an
    exhaustive crash sweep enumerates.  ``scenario`` (minus its crash)
    must match the sweep's, so faulted runs count the same events.
    """
    from repro.migration import prepare_source_array

    array, data = prepare_source_array(
        plan, np.random.default_rng(seed), block_size=block_size
    )
    base = scenario.without_crash() if scenario is not None else FaultScenario()
    plane = FaultPlane(base)
    plane.attach(array)
    execute_checkpointed(plan, array, data)
    plane.detach()
    return plane.crash_events_done
