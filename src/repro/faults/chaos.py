"""Chaos harness: exhaustive crash-point sweeps and seeded fault soaks.

The crash sweeps are the executable form of the crash-consistency claim:
for *every* crashable event boundary of a conversion (counted by a probe
run), kill the conversion there, resume it from its journal, and demand
the resumed array be **byte-identical** to an uninterrupted run.  Each
crash point is swept under several write-interleaving variants — a clean
kill, a half-torn in-flight write, a one-byte-torn write — and, for the
online converter, under several seeded application-write schedules.

Every run is reproducible from a plain-data spec (seed + fault
schedule): failures come back as JSON-ready dicts that
:func:`replay_scenario` re-executes verbatim, and the CLI saves as
artifacts.  :func:`fault_soak` drives randomized mixed scenarios —
sector errors, transient storms, torn writes healed by the scrubber,
mid-run disk failures, crash/resume — for a wall-clock budget.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.faults.checkpoint import count_crash_events, execute_checkpointed
from repro.faults.errors import ConversionCrash
from repro.faults.journal import ConversionJournal, OnlineJournal
from repro.faults.plane import FaultPlane
from repro.faults.spec import FaultScenario, SectorError, TornWrite, TransientFault

__all__ = [
    "CRASH_VARIANTS",
    "crash_sweep_offline",
    "crash_sweep_online",
    "fault_soak",
    "replay_scenario",
    "save_failures",
]

#: write-interleaving variants per crash point: how the in-flight write
#: is left behind.  ``None`` = clean kill (no write in flight), ``0.5``
#: = half the new payload landed, ``0.0`` = a single new byte landed.
CRASH_VARIANTS: tuple[tuple[str, float | None], ...] = (
    ("clean", None),
    ("torn-half", 0.5),
    ("torn-1-byte", 0.0),
)


def _select_points(n_events: int, crash_points, sample: int | None):
    if crash_points is not None:
        return [int(k) for k in crash_points]
    if sample is not None and sample < n_events:
        return [int(k) for k in np.linspace(0, n_events - 1, sample).round()]
    return list(range(n_events))


# ------------------------------------------------------------------ offline
def _offline_reference(plan, seed: int, block_size: int) -> np.ndarray:
    from repro.migration import execute_plan, prepare_source_array

    array, data = prepare_source_array(
        plan, np.random.default_rng(seed), block_size=block_size
    )
    execute_plan(plan, array, data)
    return array.snapshot()


def _offline_single(
    plan,
    seed: int,
    block_size: int,
    scenario: FaultScenario,
    reference: np.ndarray,
) -> dict:
    """One crash(+faults)/resume cycle; byte-compared against reference."""
    from repro.migration import prepare_source_array, verify_conversion

    array, data = prepare_source_array(
        plan, np.random.default_rng(seed), block_size=block_size
    )
    plane = FaultPlane(scenario)
    plane.attach(array)
    journal = ConversionJournal()
    crashed = 0
    run = None
    for _attempt in range(2 + len(scenario.disk_failures)):
        try:
            run = execute_checkpointed(plan, array, data, journal)
            break
        except ConversionCrash:
            crashed += 1
            plane.disarm_crash()
    if run is None:  # pragma: no cover - crash kept re-firing
        return {"ok": False, "crashed": crashed, "error": "did not complete"}
    verified = verify_conversion(run.result, check_io_counters=False)
    identical = bool(np.array_equal(array.snapshot(), reference))
    plane.detach()
    return {
        "ok": verified and identical,
        "verified": verified,
        "byte_identical": identical,
        "crashed": crashed,
        "units_skipped": run.units_skipped,
        "rollbacks": run.rollbacks,
        "counters": {k: v for k, v in plane.counters.items() if v},
    }


def crash_sweep_offline(
    p: int = 5,
    *,
    groups: int = 2,
    block_size: int = 8,
    seed: int = 0,
    crash_points=None,
    sample: int | None = None,
    artifacts_dir: str | Path | None = None,
) -> dict:
    """Crash the offline conversion at every event boundary and resume.

    Sweeps ``crash_points`` (default: all crashable events, found by a
    probe run; ``sample`` takes an evenly spaced subset for big ``p``)
    under every :data:`CRASH_VARIANTS` interleaving.  A point passes when
    the resumed conversion verifies *and* its bytes equal an
    uninterrupted run's.  Failures (if any) are returned as replayable
    specs and optionally saved under ``artifacts_dir``.
    """
    from repro.migration.approaches import build_plan

    plan = build_plan("code56", "direct", p, groups=groups)
    reference = _offline_reference(plan, seed, block_size)
    n_events = count_crash_events(plan, block_size=block_size, seed=seed)
    points = _select_points(n_events, crash_points, sample)
    runs = 0
    failures: list[dict] = []
    for k in points:
        for label, tear in CRASH_VARIANTS:
            scenario = FaultScenario(seed=seed).with_crash(k, tear)
            outcome = _offline_single(plan, seed, block_size, scenario, reference)
            runs += 1
            if not outcome["ok"]:
                failures.append(
                    {
                        "kind": "offline-crash",
                        "p": p,
                        "groups": groups,
                        "block_size": block_size,
                        "seed": seed,
                        "variant": label,
                        "scenario": scenario.to_dict(),
                        "outcome": outcome,
                    }
                )
    report = {
        "kind": "crash-sweep-offline",
        "p": p,
        "groups": groups,
        "crash_events": n_events,
        "points_swept": len(points),
        "variants": [label for label, _ in CRASH_VARIANTS],
        "runs": runs,
        "failures": failures,
        "ok": not failures,
    }
    if artifacts_dir is not None and failures:
        save_failures(failures, artifacts_dir)
    return report


# ------------------------------------------------------------------- online
def _online_array(p: int, groups: int, seed: int, block_size: int):
    """A formatted left-asymmetric RAID-5 plus the blank diagonal disk."""
    from repro.migration.approaches import build_plan
    from repro.migration import prepare_source_array

    plan = build_plan("code56", "direct", p, groups=groups)
    array, data = prepare_source_array(
        plan, np.random.default_rng(seed), block_size=block_size
    )
    return array, data


def _online_requests(p: int, groups: int, schedule_seed, n_requests: int, block_size: int):
    """A seeded write-heavy application schedule."""
    from repro.migration.online import OnlineRequest

    rng = np.random.default_rng(schedule_seed)
    capacity = groups * (p - 1) * (p - 2)
    reqs = []
    t = 0.0
    for _ in range(n_requests):
        t += float(rng.integers(1, 6))
        is_write = bool(rng.random() < 0.7)
        reqs.append(
            OnlineRequest(
                time=t,
                lba=int(rng.integers(capacity)),
                is_write=is_write,
                payload=(
                    rng.integers(0, 256, size=block_size, dtype=np.uint8)
                    if is_write
                    else None
                ),
            )
        )
    return reqs


def _online_single(
    p: int,
    groups: int,
    seed: int,
    schedule: int,
    block_size: int,
    scenario: FaultScenario,
    reference: np.ndarray | None,
    n_requests: int = 8,
    batch: int = 1,
) -> dict:
    """One online crash/resume cycle under an app-write schedule."""
    from repro.migration.online import OnlineCode56Conversion

    array, _data = _online_array(p, groups, seed, block_size)
    requests = _online_requests(p, groups, (seed, schedule), n_requests, block_size)
    plane = FaultPlane(scenario)
    plane.attach(array)
    journal = OnlineJournal(groups, p - 1)
    served = 0
    crashed = 0
    verified = False
    for _attempt in range(3):
        conv = OnlineCode56Conversion(array, p, journal=journal, batch=batch)
        try:
            conv.run(requests[served:])
            verified = conv.verify()
            break
        except ConversionCrash:
            crashed += 1
            served += conv.requests_served
            plane.disarm_crash()
    identical = (
        bool(np.array_equal(array.snapshot(), reference))
        if reference is not None
        else True
    )
    plane.detach()
    return {
        "ok": verified and identical,
        "verified": verified,
        "byte_identical": identical,
        "crashed": crashed,
        "counters": {k: v for k, v in plane.counters.items() if v},
    }


def crash_sweep_online(
    p: int = 5,
    *,
    groups: int = 2,
    block_size: int = 8,
    seed: int = 0,
    schedules: int = 3,
    n_requests: int = 8,
    batch: int = 1,
    crash_points=None,
    sample: int | None = None,
    artifacts_dir: str | Path | None = None,
) -> dict:
    """Crash Algorithm 2 at every conversion-thread boundary and resume.

    For each of ``schedules`` seeded application-write interleavings:
    run uninterrupted for the reference bytes, probe the crashable-event
    count, then crash at each point (clean and torn-parity variants),
    resume via the :class:`OnlineJournal` watermark, and require verify
    + byte-identity.  Only the conversion thread is crashable — served
    app requests are durable, so the resume harness replays exactly the
    unserved suffix (``requests_served``).

    The reference run has no fault plane, so every run of it goes
    through the fused path; every crash/resume run has one and takes
    the audited per-parity loop, so byte-identity also proves fused ==
    audited.  ``batch > 1`` sweeps longer runs: crashes land inside
    group-commit windows (whole runs of correct-but-unmarked parities),
    and the reference stays a budget-1 run — byte-identity then also
    proves batched == per-parity.
    """
    from repro.migration.online import OnlineCode56Conversion

    runs = 0
    failures: list[dict] = []
    events_per_schedule = []
    for schedule in range(schedules):
        array, _ = _online_array(p, groups, seed, block_size)
        requests = _online_requests(p, groups, (seed, schedule), n_requests, block_size)
        ref_conv = OnlineCode56Conversion(array, p)
        ref_conv.run(requests)
        if not ref_conv.verify():  # pragma: no cover - sanity
            raise AssertionError("reference online run failed verification")
        reference = array.snapshot()

        probe_array, _ = _online_array(p, groups, seed, block_size)
        plane = FaultPlane(FaultScenario(seed=seed))
        plane.attach(probe_array)
        OnlineCode56Conversion(probe_array, p, batch=batch).run(requests)
        n_events = plane.crash_events_done
        plane.detach()
        events_per_schedule.append(n_events)

        points = _select_points(n_events, crash_points, sample)
        for k in points:
            for label, tear in CRASH_VARIANTS[:2]:  # clean + torn-half
                scenario = FaultScenario(seed=seed).with_crash(k, tear)
                outcome = _online_single(
                    p, groups, seed, schedule, block_size, scenario, reference,
                    n_requests=n_requests, batch=batch,
                )
                runs += 1
                if not outcome["ok"]:
                    failures.append(
                        {
                            "kind": "online-crash",
                            "p": p,
                            "groups": groups,
                            "block_size": block_size,
                            "seed": seed,
                            "schedule": schedule,
                            "n_requests": n_requests,
                            "batch": batch,
                            "variant": label,
                            "scenario": scenario.to_dict(),
                            "outcome": outcome,
                        }
                    )
    report = {
        "kind": "crash-sweep-online",
        "p": p,
        "groups": groups,
        "schedules": schedules,
        "batch": batch,
        "crash_events": events_per_schedule,
        "runs": runs,
        "failures": failures,
        "ok": not failures,
    }
    if artifacts_dir is not None and failures:
        save_failures(failures, artifacts_dir)
    return report


# --------------------------------------------------------------------- soak
def _soak_scenario(rng: np.random.Generator, p: int, kind: str) -> FaultScenario:
    """Draw one randomized fault schedule (reproducible from its fields)."""
    m = p - 1
    # distinct blocks: two sector errors in one RAID-5 row would be a
    # double fault — genuinely unrecoverable, not a harness bug
    blocks = rng.permutation((p - 1) * 2)[: int(rng.integers(0, 3))]
    sector_errors = tuple(
        SectorError(int(rng.integers(m)), int(b)) for b in blocks
    )
    transients = tuple(
        TransientFault(op=int(rng.integers(0, 200)), failures=int(rng.integers(1, 3)))
        for _ in range(int(rng.integers(0, 3)))
    )
    scenario = FaultScenario(
        seed=int(rng.integers(1 << 31)),
        sector_errors=sector_errors,
        transients=transients,
        meta={"kind": kind},
    )
    return scenario


def fault_soak(
    seconds: float = 120.0,
    *,
    seed: int = 0,
    p_values: tuple[int, ...] = (5, 7),
    block_size: int = 8,
    max_iterations: int | None = None,
    artifacts_dir: str | Path | None = None,
) -> dict:
    """Seeded randomized fault campaign for a wall-clock budget.

    Each iteration draws a scenario kind — offline crash/resume, mixed sector-error/transient injection, degraded conversion
    with a failed disk (rebuilt and fully verified afterwards), a torn
    parity write healed by the RAID-6 scrubber, or an online
    crash/resume — runs it, and verifies the end state.  Everything
    derives from ``seed``, so a failing iteration is reproducible from
    the returned spec alone.
    """
    from repro.migration.approaches import build_plan

    rng = np.random.default_rng(seed)
    deadline = time.monotonic() + seconds
    kinds = ("offline-crash", "offline-faults", "degraded", "torn-scrub", "online-crash")
    tally = {k: 0 for k in kinds}
    iterations = 0
    failures: list[dict] = []

    while time.monotonic() < deadline:
        if max_iterations is not None and iterations >= max_iterations:
            break
        iterations += 1
        p = int(rng.choice(p_values))
        kind = kinds[iterations % len(kinds)]
        tally[kind] += 1
        groups = 2
        plan = build_plan("code56", "direct", p, groups=groups)
        run_seed = int(rng.integers(1 << 31))
        spec = {
            "kind": kind,
            "p": p,
            "groups": groups,
            "block_size": block_size,
            "seed": run_seed,
        }
        try:
            if kind == "online-crash":
                schedule = int(rng.integers(3))
                batch = int(rng.choice((1, 2, p - 1)))
                scenario = FaultScenario(seed=run_seed).with_crash(
                    int(rng.integers(1, 30)), 0.5 if rng.random() < 0.5 else None
                )
                spec.update(
                    schedule=schedule, scenario=scenario.to_dict(),
                    n_requests=6, batch=batch,
                )
                ok = _online_single(
                    p, groups, run_seed, schedule, block_size, scenario, None,
                    n_requests=6, batch=batch,
                )["ok"]
            elif kind == "torn-scrub":
                # a torn parity write is silent corruption: the conversion
                # completes, the scrubber must locate and repair it
                scenario = FaultScenario(
                    seed=run_seed,
                    torn_writes=(TornWrite(op=int(rng.integers(10, 40)), keep_fraction=0.5),),
                )
                spec["scenario"] = scenario.to_dict()
                ok = _run_torn_scrub(plan, run_seed, block_size, scenario)
            elif kind == "degraded":
                failed_disk = int(rng.integers(p - 1))
                # transients only: they always recover within the retry
                # budget.  A sector error on a *second* disk of the same
                # row would be a double fault — beyond RAID-5's tolerance
                # mid-conversion, and correctly fatal rather than a bug.
                scenario = FaultScenario(
                    seed=int(rng.integers(1 << 31)),
                    transients=tuple(
                        TransientFault(op=int(rng.integers(0, 200)), failures=1)
                        for _ in range(int(rng.integers(0, 3)))
                    ),
                    meta={"kind": kind},
                )
                spec.update(failed_disk=failed_disk, scenario=scenario.to_dict())
                ok = _run_degraded(plan, run_seed, block_size, scenario, failed_disk)
            else:
                scenario = _soak_scenario(rng, p, kind)
                if kind == "offline-crash":
                    scenario = scenario.with_crash(
                        int(rng.integers(40)), 0.5 if rng.random() < 0.5 else None
                    )
                spec["scenario"] = scenario.to_dict()
                reference = _offline_reference(plan, run_seed, block_size)
                ok = _offline_single(
                    plan, run_seed, block_size, scenario, reference
                )["ok"]
        except Exception as exc:  # noqa: BLE001 - soak reports, never aborts
            ok = False
            spec["error"] = f"{type(exc).__name__}: {exc}"
        if not ok:
            failures.append(spec)
    report = {
        "kind": "fault-soak",
        "seed": seed,
        "seconds": seconds,
        "iterations": iterations,
        "by_kind": tally,
        "failures": failures,
        "ok": not failures,
    }
    if artifacts_dir is not None and failures:
        save_failures(failures, artifacts_dir)
    return report


def _run_torn_scrub(plan, seed, block_size, scenario) -> bool:
    from repro.migration import prepare_source_array, verify_conversion
    from repro.raid.scrub import scrub_raid6

    array, data = prepare_source_array(
        plan, np.random.default_rng(seed), block_size=block_size
    )
    plane = FaultPlane(scenario)
    plane.attach(array)
    run = execute_checkpointed(plan, array, data)
    plane.detach()
    raid6 = _as_raid6(plan, array)
    report = scrub_raid6(raid6, repair=True)
    if plane.counters["torn_writes"] and not report.repaired:
        return False
    if report.unlocatable_groups:
        return False
    return verify_conversion(run.result, check_io_counters=False)


def _run_degraded(plan, seed, block_size, scenario, failed_disk) -> bool:
    from repro.migration import prepare_source_array, verify_conversion

    array, data = prepare_source_array(
        plan, np.random.default_rng(seed), block_size=block_size
    )
    array.fail_disk(failed_disk)
    plane = FaultPlane(scenario)
    plane.attach(array)
    run = execute_checkpointed(plan, array, data)
    plane.detach()
    raid6 = _as_raid6(plan, array)
    raid6.rebuild_disks(failed_disk)
    return verify_conversion(run.result, check_io_counters=False) and raid6.verify()


def _as_raid6(plan, array):
    """The converted array as a Raid6Array (direct plans: column == disk)."""
    from repro.codes.registry import get_code
    from repro.raid.raid6 import Raid6Array

    return Raid6Array(array, get_code("code56", plan.p))


# ------------------------------------------------------------------- replay
def replay_scenario(spec: dict) -> dict:
    """Re-execute a failure spec saved by a sweep or soak, verbatim."""
    from repro.migration.approaches import build_plan

    kind = spec["kind"]
    scenario = FaultScenario.from_dict(spec["scenario"]) if "scenario" in spec else FaultScenario()
    p, groups = spec["p"], spec.get("groups", 2)
    block_size = spec.get("block_size", 8)
    seed = spec["seed"]
    plan = build_plan("code56", "direct", p, groups=groups)
    if kind in ("offline-crash", "offline-faults"):
        reference = _offline_reference(plan, seed, block_size)
        return _offline_single(plan, seed, block_size, scenario, reference)
    if kind == "online-crash":
        return _online_single(
            p, groups, seed, spec.get("schedule", 0), block_size, scenario, None,
            n_requests=spec.get("n_requests", 8),
            batch=spec.get("batch", 1),
        )
    if kind == "torn-scrub":
        ok = _run_torn_scrub(plan, seed, block_size, scenario)
        return {"ok": ok}
    if kind == "degraded":
        ok = _run_degraded(plan, seed, block_size, scenario, spec["failed_disk"])
        return {"ok": ok}
    raise ValueError(f"unknown scenario kind {kind!r}")


def save_failures(failures: list[dict], artifacts_dir: str | Path) -> list[Path]:
    """Write each failure spec as a replayable JSON artifact."""
    out = Path(artifacts_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, spec in enumerate(failures):
        path = out / f"fault-scenario-{i:03d}.json"
        path.write_text(json.dumps(spec, indent=2, default=int))
        paths.append(path)
    return paths
