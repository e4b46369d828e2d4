"""The migration fleet service: a serial drain, spares, and the merged report.

:class:`FleetService` turns a :class:`FleetConfig` into a fleet of
:class:`~repro.fleet.volume.FleetVolume` tasks and drains them one at a
time, in volume order: each volume is provisioned (data, RAID-5 fill,
converter, and a :class:`~repro.raid.array.BlockArray` that owns its
pages), driven to a result and freed before the next is built, so one
volume holds memory at once.  Hot spares go through the
:class:`~repro.fleet.spares.SparePool`, which therefore grants them to
the lowest-id failing volumes first, and the per-volume results merge
into one JSON-ready fleet report with explicit pass/fail gates:

* ``all_terminal`` — every volume reached a terminal health state;
* ``zero_divergence`` — every completed volume's surviving disks match
  the offline-conversion image of its final logical data byte-for-byte;
* ``qos_ok`` — no volume's foreground p99, measured over samples taken
  while its circuit breaker was closed, exceeded its tenant's target;
* ``no_errors`` — no volume died on an unexpected exception.

Because the drain is one loop, the merged report is deterministic for a
given config, spare exhaustion included — which is exactly what the
seeded soak (:func:`fleet_soak`) relies on when it attaches the config
to every failing gate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from repro.faults.events import DiskFailureEvent
from repro.faults.spec import FaultScenario
from repro.fleet.qos import QosTarget
from repro.fleet.spares import SparePool
from repro.fleet.volume import FleetVolume, VolumeSpec

__all__ = ["FleetConfig", "FleetService", "run_fleet", "fleet_soak"]

#: tenant ring: (name, foreground p99 ceiling in ticks) — volumes are
#: assigned round-robin, so every fleet exercises every QoS class
DEFAULT_TENANTS: tuple[tuple[str, float], ...] = (
    ("gold", 40.0),
    ("silver", 60.0),
    ("bronze", 90.0),
)


@dataclass(frozen=True)
class FleetConfig:
    """Deterministic recipe for one fleet run."""

    volumes: int = 8
    #: selects nothing: the fleet drains one volume at a time.  Kept so
    #: that recorded configs (reports, soak failures) still replay.
    clients: int = 1
    p: int = 5
    groups: int = 2
    block_size: int = 8
    seed: int = 0
    requests_per_volume: int = 12
    batch: int = 1
    spares: int = 2
    #: volume ids that lose a disk mid-migration
    fail_volumes: tuple[int, ...] = ()
    #: disk to fail (None = seeded per-volume choice over all p disks,
    #: diagonal disk included)
    fail_disk: int | None = None
    #: plane-level transient rate applied to every volume
    transient_rate: float = 0.0
    #: volume ids whose conversion crashes once (seeded crash point)
    crash_volumes: tuple[int, ...] = ()
    tenants: tuple[tuple[str, float], ...] = DEFAULT_TENANTS
    bucket_rate: float = 1.0
    bucket_burst: float = 32.0

    def to_dict(self) -> dict:
        return {
            "volumes": self.volumes,
            "clients": self.clients,
            "p": self.p,
            "groups": self.groups,
            "block_size": self.block_size,
            "seed": self.seed,
            "requests_per_volume": self.requests_per_volume,
            "batch": self.batch,
            "spares": self.spares,
            "fail_volumes": list(self.fail_volumes),
            "fail_disk": self.fail_disk,
            "transient_rate": self.transient_rate,
            "crash_volumes": list(self.crash_volumes),
            "tenants": [list(t) for t in self.tenants],
            "bucket_rate": self.bucket_rate,
            "bucket_burst": self.bucket_burst,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "FleetConfig":
        kwargs = dict(doc)
        kwargs["fail_volumes"] = tuple(kwargs.get("fail_volumes", ()))
        kwargs["crash_volumes"] = tuple(kwargs.get("crash_volumes", ()))
        kwargs["tenants"] = tuple(
            (str(n), float(q)) for n, q in kwargs.get("tenants", DEFAULT_TENANTS)
        )
        return cls(**kwargs)


class FleetService:
    """Runs one fleet config to completion and merges the report."""

    def __init__(self, config: FleetConfig):
        self.config = config
        self.spares = SparePool(config.spares)

    # ------------------------------------------------------------- planning
    def build_specs(self) -> list[VolumeSpec]:
        cfg = self.config
        specs = []
        for i in range(cfg.volumes):
            tenant, p99 = cfg.tenants[i % len(cfg.tenants)]
            failures: tuple[DiskFailureEvent, ...] = ()
            if i in cfg.fail_volumes:
                rng = np.random.default_rng((cfg.seed, i, 2))
                disk = (
                    cfg.fail_disk
                    if cfg.fail_disk is not None
                    else int(rng.integers(cfg.p))
                )
                failures = (
                    DiskFailureEvent(time=float(rng.integers(5, 30)), disk=disk),
                )
            scenario = FaultScenario(
                seed=cfg.seed * 1000 + i, transient_rate=cfg.transient_rate
            )
            if i in cfg.crash_volumes:
                rng = np.random.default_rng((cfg.seed, i, 3))
                scenario = scenario.with_crash(int(rng.integers(1, 8)))
            specs.append(
                VolumeSpec(
                    volume_id=i,
                    p=cfg.p,
                    groups=cfg.groups,
                    block_size=cfg.block_size,
                    seed=cfg.seed,
                    tenant=tenant,
                    n_requests=cfg.requests_per_volume,
                    batch=cfg.batch,
                    qos=QosTarget(p99_ticks=p99),
                    bucket_rate=cfg.bucket_rate,
                    bucket_burst=cfg.bucket_burst,
                    failures=failures,
                    scenario=scenario,
                )
            )
        return specs

    # ------------------------------------------------------------ execution
    def run(self) -> dict:
        specs = self.build_specs()
        started = time.perf_counter()
        results = [FleetVolume(spec).run(self.spares) for spec in specs]
        elapsed = time.perf_counter() - started
        return self._merge(results, elapsed)

    # ------------------------------------------------------------ reporting
    def _merge(self, results: list[dict], elapsed: float) -> dict:
        states: dict[str, int] = {}
        tenants: dict[str, dict] = {}
        divergent = 0
        qos_violations = []
        errors = []
        for r in results:
            states[r["state"]] = states.get(r["state"], 0) + 1
            t = tenants.setdefault(
                r["tenant"],
                {"volumes": 0, "worst_closed_p99": 0.0, "p99_target": r["qos_p99_ticks"]},
            )
            t["volumes"] += 1
            closed_p99 = r["breaker"]["closed_p99"]
            t["worst_closed_p99"] = max(t["worst_closed_p99"], closed_p99)
            if r["qos_p99_ticks"] is not None and closed_p99 > r["qos_p99_ticks"]:
                qos_violations.append(
                    {"volume_id": r["volume_id"], "tenant": r["tenant"],
                     "closed_p99": closed_p99, "target": r["qos_p99_ticks"]}
                )
            if r["state"] == "complete":
                divergent += max(0, r["divergent_blocks"])
            if r["error"] is not None:
                errors.append({"volume_id": r["volume_id"], "error": r["error"]})
        complete = states.get("complete", 0)
        gates = {
            "all_terminal": all(r["state"] in ("complete", "failed") for r in results),
            "zero_divergence": divergent == 0,
            "qos_ok": not qos_violations,
            "no_errors": not errors,
        }
        return {
            "config": self.config.to_dict(),
            "elapsed_seconds": elapsed,
            "gates": gates,
            "ok": all(gates.values()),
            "volumes_total": len(results),
            "volumes_complete": complete,
            "states": states,
            "tenants": tenants,
            "divergent_blocks": divergent,
            "qos_violations": qos_violations,
            "errors": errors,
            "breaker_trips": sum(r["breaker"]["trips"] for r in results),
            "breaker_open_ticks": sum(r["breaker"]["open_ticks"] for r in results),
            "rebuilds_completed": sum(r["rebuilds_completed"] for r in results),
            "crashes": sum(r["crashes"] for r in results),
            "resumes": sum(r["resumes"] for r in results),
            "degraded_reads": sum(r["degraded_reads"] for r in results),
            "stripes_scrubbed": sum(r["scrub"]["stripes_scrubbed"] for r in results),
            "scrub_errors": sum(r["scrub"]["errors_found"] for r in results),
            "spares": self.spares.snapshot(),
            "volumes": results,
        }


def run_fleet(config: FleetConfig | None = None, **overrides) -> dict:
    """Run one fleet to completion; convenience wrapper over the service."""
    cfg = config or FleetConfig()
    if overrides:
        cfg = replace(cfg, **overrides)
    return FleetService(cfg).run()


def fleet_soak(
    seconds: float = 10.0,
    seed: int = 0,
    max_iterations: int | None = None,
) -> dict:
    """Chaos-mode soak: randomized fleets until the clock runs out.

    Every iteration draws a fleet config from a seeded rng — volume
    count, spare-pool size, injected disk failures
    (diagonal disk included), transient rates, crash points, batch
    tier — runs it, and scores the gates.  ``qos_ok`` is only scored
    when no fault injection ran (a pool-exhausted degraded volume is
    *supposed* to be slow); the byte gates are unconditional.  Failures
    carry the full config dict, and the drain is serial, so any soak hit
    replays exactly, spare exhaustion included, with
    ``run_fleet(FleetConfig.from_dict(cfg))``.
    """
    deadline = time.monotonic() + seconds
    iterations = 0
    failures: list[dict] = []
    totals = {
        "volumes": 0, "complete": 0, "rebuilds": 0, "breaker_trips": 0,
        "crashes": 0, "divergent_blocks": 0, "scrub_errors": 0,
    }
    while time.monotonic() < deadline:
        if max_iterations is not None and iterations >= max_iterations:
            break
        rng = np.random.default_rng((seed, iterations))
        volumes = int(rng.integers(4, 9))
        n_fail = int(rng.integers(0, 3))
        cfg = FleetConfig(
            volumes=volumes,
            groups=int(rng.integers(2, 4)),
            seed=seed * 10_000 + iterations,
            requests_per_volume=int(rng.integers(8, 25)),
            batch=int(rng.choice((1, 4))),
            spares=int(rng.integers(0, 4)),
            fail_volumes=tuple(
                int(v) for v in rng.choice(volumes, size=n_fail, replace=False)
            ),
            transient_rate=float(rng.choice((0.0, 0.0, 0.02))),
            crash_volumes=tuple(
                int(v) for v in rng.choice(volumes, size=int(rng.integers(0, 2)),
                                           replace=False)
            ),
        )
        report = run_fleet(cfg)
        injected = bool(cfg.fail_volumes or cfg.crash_volumes or cfg.transient_rate)
        gates = dict(report["gates"])
        if injected:
            gates.pop("qos_ok")
        ok = all(gates.values())
        iterations += 1
        totals["volumes"] += report["volumes_total"]
        totals["complete"] += report["volumes_complete"]
        totals["rebuilds"] += report["rebuilds_completed"]
        totals["breaker_trips"] += report["breaker_trips"]
        totals["crashes"] += report["crashes"]
        totals["divergent_blocks"] += report["divergent_blocks"]
        totals["scrub_errors"] += report["scrub_errors"]
        if not ok:
            failures.append(
                {
                    "iteration": iterations - 1,
                    "config": cfg.to_dict(),
                    "gates": report["gates"],
                    "qos_violations": report["qos_violations"],
                    "errors": report["errors"],
                    "divergent_blocks": report["divergent_blocks"],
                }
            )
    return {
        "seed": seed,
        "seconds": seconds,
        "iterations": iterations,
        "totals": totals,
        "failures": failures,
        "ok": not failures,
    }
