"""The four benchmark workloads: set-up, one repeat, and its checks.

Each workload builds its world from a seed once, then runs repeats.  A
repeat times the conversion and the verification separately, checks
every unit it converted (a unit is one conversion, one migration or one
fleet volume) and returns a fingerprint per unit; the harness compares
each fingerprint with the warm-up repeat's, so a result that drifts
between repeats counts as a failed unit.

``root`` is a context-manager factory wrapped around each timed region:
``contextlib.nullcontext`` for untraced repeats, ``Tracer.root`` for
traced ones.
"""

from __future__ import annotations

from contextlib import AbstractContextManager, contextmanager
from dataclasses import dataclass, field, replace
from time import perf_counter, thread_time
from typing import Callable, NamedTuple

import numpy as np

from repro.compiled import clear_program_cache, program_cache_info
from repro.faults.journal import OnlineJournal
from repro.fleet import FleetConfig, FleetService, FleetVolume
from repro.migration import OnlineCode56Conversion, OnlineRequest, supported_conversions
from repro import compiled, migration

P = 13
BLOCK = 4096

Root = Callable[[], AbstractContextManager]

#: per-volume fleet result keys that must not change between drains
#: (everything but wall-clock), as in benchmarks/bench_fleet.py
FLEET_KEYS = (
    "state", "transitions", "requests_served", "writes_applied",
    "parities_generated", "conversion_ticks", "finish_tick", "crashes",
    "resumes", "rebuilds_completed", "degraded_reads", "verified",
    "divergent_blocks", "latency", "breaker", "qos_p99_ticks",
)


@dataclass
class Repeat:
    """What one repeat measured and found."""

    convert_s: float
    verify_s: float
    mb: float
    #: one entry per unit: did every check on it pass
    unit_ok: list[bool]
    #: one entry per unit: what must be identical in every repeat
    unit_fingerprint: list
    #: array I/Os (reads + writes) issued by the repeat
    ios: int | None = None
    #: foreground latency samples, stall + service, in Te ticks
    fg_ticks: list[float] | None = None
    finish_ticks: float | None = None
    #: exact counts taken from the returned reports and journals
    counts: dict[str, float] = field(default_factory=dict)


def _p99(values) -> float:
    return float(np.percentile(values, 99)) if len(values) else 0.0


class Offline:
    """Every supported conversion pair, as ``repro convert`` runs it."""

    def __init__(self, seed: int, smoke: bool):
        self.groups = 2 if smoke else 48
        self.pairs = supported_conversions()
        self.plans = [migration.build_plan(c, a, P, groups=self.groups) for c, a in self.pairs]
        rows = max(plan.data_blocks for plan in self.plans)
        # one seeded pool of user data; pair k converts its first data_blocks rows
        self.data = np.random.default_rng(seed).integers(0, 256, size=(rows, BLOCK), dtype=np.uint8)
        self.mb = sum(plan.data_blocks for plan in self.plans) * BLOCK / 1e6
        #: set to corrupt one diagonal parity in the next repeat (self-test)
        self.plant_fault = False
        self.config = {"p": P, "groups": self.groups, "block_size": BLOCK, "pairs": len(self.pairs)}

    def repeat(self, root: Root) -> Repeat:
        convert_s = verify_s = 0.0
        unit_ok, prints = [], []
        ios = 0
        misses = program_cache_info()["misses"]
        for (code, approach), plan in zip(self.pairs, self.plans):
            # a fresh source world per pair: restoring it is not timed
            array, data = migration.prepare_source_array(
                plan, None, block_size=BLOCK, data=self.data[: plan.data_blocks]
            )
            clear_program_cache()
            t0 = perf_counter()
            with root():
                plan_t = migration.build_plan(code, approach, P, groups=self.groups)
                program = compiled.compile_plan(plan_t)
                result = compiled.execute_plan_compiled(plan_t, array, data, program=program)
            t1 = perf_counter()
            if self.plant_fault and code == "code56":
                loc = plan_t.cell_locations[(0, (0, P - 1))]  # a diagonal parity
                array.raw(loc.disk, loc.block)[0] ^= 0xFF
                self.plant_fault = False
            with root():
                ok = migration.verify_conversion(result, check_io_counters=True)
            t2 = perf_counter()
            convert_s += t1 - t0
            verify_s += t2 - t1
            ios += array.total_ios
            unit_ok.append(bool(ok))
            prints.append((tuple(array.reads.tolist()), tuple(array.writes.tolist())))
        return Repeat(
            convert_s=convert_s,
            verify_s=verify_s,
            mb=self.mb,
            unit_ok=unit_ok,
            unit_fingerprint=prints,
            ios=ios,
            counts={"compiled.cache.misses": program_cache_info()["misses"] - misses},
        )


class Online:
    """One Code 5-6 volume migrated online (Algorithm 2), batched."""

    def __init__(self, groups: int, n_requests: int, seed: int):
        self.groups = groups
        self.rows = P - 1
        plan = migration.build_plan("code56", "direct", P, groups=groups)
        self.array, data = migration.prepare_source_array(
            plan, np.random.default_rng([seed, 0]), block_size=BLOCK
        )
        self.snapshot = self.array.snapshot()
        self.mb = data.nbytes / 1e6
        self.batch = groups * self.rows  # the whole array
        self.requests = open_loop_requests(
            n_requests, capacity=len(data), rng=np.random.default_rng([seed, 1])
        )
        #: set to corrupt one diagonal parity in the next repeat (self-test)
        self.plant_fault = False
        self.config = {
            "p": P, "groups": groups, "block_size": BLOCK, "batch": self.batch,
            "requests": n_requests, "write_share": 0.7, "interarrival_ticks": [1, 47],
        }

    def repeat(self, root: Root) -> Repeat:
        array = self.array
        array.restore(self.snapshot)
        array.reset_counters()
        journal = OnlineJournal(self.groups, self.rows)
        t0 = perf_counter()
        with root():
            conv = OnlineCode56Conversion(array, P, journal=journal, batch=self.batch)
            report = conv.run(self.requests)
        t1 = perf_counter()
        if self.plant_fault:
            array.raw(P - 1, 0)[0] ^= 0xFF  # diagonal parity of group 0, row 0
            self.plant_fault = False
        with root():
            ok = conv.verify()
        t2 = perf_counter()
        ok = bool(ok) and journal.count() == self.groups * self.rows
        stalls, services = report.request_stalls, report.request_latencies
        runs = report.runs_committed
        fingerprint = (
            report.finish_tick, report.conversion_ticks, report.app_ticks,
            report.interruptions, runs, report.batch_shrinks,
            tuple(services), tuple(stalls),
            tuple(array.reads.tolist()), tuple(array.writes.tolist()),
        )
        return Repeat(
            convert_s=t1 - t0,
            verify_s=t2 - t1,
            mb=self.mb,
            unit_ok=[ok],
            unit_fingerprint=[fingerprint],
            ios=array.total_ios,
            fg_ticks=[s + v for s, v in zip(stalls, services)] if self.requests else None,
            finish_ticks=report.finish_tick,
            counts={
                "faults.journal.flushes": journal.appends,
                "online.runs": runs,
                "online.parities_per_run": report.parities_generated / runs if runs else 0.0,
                "online.fg_stall_p99_ticks": _p99(stalls),
                "online.fg_service_p99_ticks": _p99(services),
            },
        )


def open_loop_requests(n: int, capacity: int, rng: np.random.Generator) -> list[OnlineRequest]:
    """Open-loop foreground load: arrivals on a fixed schedule, not on replies.

    Inter-arrival times are uniform integers in [1, 48) Te ticks (mean
    24.5); 70% are writes of one fresh block; LBAs are uniform.
    """
    requests, t = [], 0.0
    for _ in range(n):
        t += float(rng.integers(1, 48))
        is_write = bool(rng.random() < 0.7)
        requests.append(
            OnlineRequest(
                time=t,
                lba=int(rng.integers(capacity)),
                is_write=is_write,
                payload=rng.integers(0, 256, size=BLOCK, dtype=np.uint8) if is_write else None,
            )
        )
    return requests


class _Audit(NamedTuple):
    """One fleet volume's closing audit: its cost and what it reported."""

    cpu_s: float
    runs: int
    parities: int
    flushes: int
    stalls: list[float]
    services: list[float]


@contextmanager
def _volume_audits():
    """Records each fleet volume's closing audit while the block runs.

    ``FleetVolume.result`` runs the per-volume completion audit (the Code
    5-6 stripe check and the divergence check against an offline image)
    inside the pool's worker threads.  Its cost is taken as thread CPU
    time, which leaves out the time a worker waits for the interpreter
    lock while the other worker runs.  Yields the list of :class:`_Audit`.
    """
    original = FleetVolume.__dict__["result"]
    audits: list[_Audit] = []

    def result(volume: FleetVolume) -> dict:
        t0 = thread_time()
        doc = original(volume)
        cpu_s = thread_time() - t0
        report, journal = volume.report, volume.journal
        audits.append(_Audit(
            cpu_s, report.runs_committed, journal.count(), journal.appends,
            list(report.request_stalls), list(report.request_latencies),
        ))
        return doc

    FleetVolume.result = result
    try:
        yield audits
    finally:
        FleetVolume.result = original


#: the fleet drained by ``fleet-faulted``; its seed comes from ``--seed``
FLEET = FleetConfig(
    volumes=64, clients=2, p=P, groups=4, block_size=BLOCK, requests_per_volume=32,
    batch=4, spares=4, fail_volumes=(7, 23, 61), fail_disk=1,
)
SMOKE_FLEET = replace(FLEET, volumes=8, groups=1, requests_per_volume=8, fail_volumes=(1, 3, 6))


class Fleet:
    """A faulted fleet drained by ``FleetService`` on a two-client pool."""

    def __init__(self, seed: int, smoke: bool):
        self.cfg = replace(SMOKE_FLEET if smoke else FLEET, seed=seed)
        cfg = self.cfg
        self.mb = cfg.volumes * cfg.groups * (cfg.p - 1) * (cfg.p - 2) * cfg.block_size / 1e6
        self.config = cfg.to_dict()

    def repeat(self, root: Root) -> Repeat:
        cfg = self.cfg
        with _volume_audits() as audits:
            t0 = perf_counter()
            with root():
                report = FleetService(cfg).run()
            t1 = perf_counter()
        volumes = report["volumes"]
        drain_ok = (
            report["ok"]
            and report["volumes_complete"] == cfg.volumes
            and report["divergent_blocks"] == 0
            and report["rebuilds_completed"] >= len(cfg.fail_volumes)
        )
        unit_ok = [
            drain_ok and v["state"] == "complete" and v["divergent_blocks"] == 0
            and v["error"] is None and v["verified"]
            for v in volumes
        ]
        stalls = [s for a in audits for s in a.stalls]
        services = [s for a in audits for s in a.services]
        runs = sum(a.runs for a in audits)
        return Repeat(
            convert_s=t1 - t0,
            verify_s=sum(a.cpu_s for a in audits),
            mb=self.mb,
            unit_ok=unit_ok,
            unit_fingerprint=[tuple(repr(v[k]) for k in FLEET_KEYS) for v in volumes],
            fg_ticks=[t for v in volumes for t in v["latency"]["ticks"]],
            finish_ticks=max(v["finish_tick"] for v in volumes),
            counts={
                "faults.journal.flushes": sum(a.flushes for a in audits),
                "online.runs": runs,
                "online.parities_per_run": sum(a.parities for a in audits) / runs if runs else 0.0,
                "online.fg_stall_p99_ticks": _p99(stalls),
                "online.fg_service_p99_ticks": _p99(services),
                "fleet.breaker_trips": report["breaker_trips"],
                "fleet.rebuilds": report["rebuilds_completed"],
                "fleet.resumes": report["resumes"],
                "fleet.degraded_reads": report["degraded_reads"],
                "fleet.stripes_scrubbed": report["stripes_scrubbed"],
            },
        )


DEFAULT_SEEDS = {"offline": 0, "online-idle": 0, "online-busy": 1, "fleet-faulted": 2026}
#: workloads that can plant a corrupted diagonal parity (the self-test)
PLANTABLE = ("offline", "online-idle", "online-busy")


def make(name: str, seed: int, smoke: bool):
    """Build workload ``name``'s world from ``seed``."""
    if name == "offline":
        return Offline(seed, smoke)
    if name == "online-idle":
        return Online(4 if smoke else 192, 0, seed)
    if name == "online-busy":
        return Online(4 if smoke else 96, 60 if smoke else 1500, seed)
    if name == "fleet-faulted":
        return Fleet(seed, smoke)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(DEFAULT_SEEDS)}")
