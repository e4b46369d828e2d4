"""Bridges from subsystem state into the metrics registry.

The execution layers keep their own authoritative tallies — per-disk
read/write counters on :class:`~repro.raid.array.BlockArray`, op
accounting on :class:`~repro.migration.plan.ConversionPlan`, cache stats
in :mod:`repro.compiled.compiler`, latency summaries on
:class:`~repro.simdisk.sim.SimResult`.  These functions copy them into a
:class:`~repro.obs.metrics.MetricsRegistry` snapshot after a run, so the
``--metrics`` dump is one coherent namespace without adding bookkeeping
to any hot path.
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry, get_registry

__all__ = [
    "record_array_io",
    "record_conversion",
    "record_online_report",
    "record_sim_result",
    "record_compiler_cache",
    "record_staticcheck",
    "record_fault_plane",
    "record_fleet_report",
]

#: foreground-latency buckets in Te ticks — online requests cost whole
#: ticks (1 for a read, a handful for an interrupted write); queueing
#: stalls behind a conversion run scale with the backlog and reach
#: hundreds of ticks on conversion-dominated schedules
ONLINE_LATENCY_BUCKETS_TICKS: tuple[float, ...] = (
    1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0, 48.0, 64.0,
    128.0, 256.0, 512.0, 1024.0,
)


def record_array_io(array, registry: MetricsRegistry | None = None, prefix: str = "array") -> None:
    """Per-disk and total read/write counters from a :class:`BlockArray`."""
    registry = registry if registry is not None else get_registry()
    stats = array.io_stats()
    for d, (r, w) in enumerate(zip(stats["reads"], stats["writes"])):
        registry.counter(f"{prefix}.reads", disk=d).inc(r)
        registry.counter(f"{prefix}.writes", disk=d).inc(w)
    registry.counter(f"{prefix}.reads.total").inc(stats["total_reads"])
    registry.counter(f"{prefix}.writes.total").inc(stats["total_writes"])


def record_conversion(result, registry: MetricsRegistry | None = None) -> None:
    """Measured vs. planned I/O of a :class:`ConversionResult`.

    ``conversion.reads.total`` / ``conversion.writes.total`` are the
    *measured* array counters; ``conversion.planned_*`` come from the
    plan's op accounting — equal whenever the engine is faithful (that
    equality is exactly what :func:`verify_conversion` enforces).
    """
    registry = registry if registry is not None else get_registry()
    plan = result.plan
    record_array_io(result.array, registry, prefix="conversion")
    registry.counter("conversion.planned_reads").inc(plan.read_ios)
    registry.counter("conversion.planned_writes").inc(plan.write_ios)
    for name, value in (
        ("code", plan.code.name),
        ("approach", plan.approach),
    ):
        registry.gauge("conversion.info", key=name, value=value).set(1.0)
    registry.gauge("conversion.p").set(plan.p)
    registry.gauge("conversion.groups").set(plan.groups)
    registry.gauge("conversion.data_blocks").set(plan.data_blocks)


def record_online_report(
    report, registry: MetricsRegistry | None = None, prefix: str = "online"
) -> None:
    """Counters, run accounting and the foreground-latency histogram
    of an :class:`~repro.migration.online.OnlineReport`.

    Foreground latency is what the application observed: the queueing
    stall behind the conversion thread plus the request's own service
    ticks (``request_stalls[i] + request_latencies[i]``).  It lands in a
    tick-bucketed histogram so ``repro stats`` renders p50/p95/p99 — the
    number a longer run budget must not regress.
    """
    registry = registry if registry is not None else get_registry()
    for name, value in (
        ("conversion_ticks", report.conversion_ticks),
        ("app_ticks", report.app_ticks),
        ("interruptions", report.interruptions),
        ("parities_generated", report.parities_generated),
        ("writes_to_converted", report.writes_to_converted),
        ("writes_to_unconverted", report.writes_to_unconverted),
        ("degraded_reads", report.degraded_reads),
        ("failures_survived", report.failures_survived),
        ("runs_committed", report.runs_committed),
        ("batch_shrinks", report.batch_shrinks),
    ):
        registry.counter(f"{prefix}.{name}").inc(int(value))
    registry.gauge(f"{prefix}.finish_tick").set(float(report.finish_tick))
    registry.gauge(f"{prefix}.max_run").set(float(report.max_run))
    hist = registry.histogram(
        f"{prefix}.request_latency_ticks", buckets=ONLINE_LATENCY_BUCKETS_TICKS
    )
    stalls = report.request_stalls or [0.0] * len(report.request_latencies)
    for stall, service in zip(stalls, report.request_latencies):
        hist.observe(stall + service)
    for q in (50, 95, 99):
        registry.gauge(f"{prefix}.request_latency_ticks.p{q}").set(hist.percentile(q))


def record_sim_result(result, registry: MetricsRegistry | None = None, prefix: str = "sim") -> None:
    """Makespan, per-disk busy/requests and latency digest of a sim run."""
    registry = registry if registry is not None else get_registry()
    registry.gauge(f"{prefix}.makespan_ms").set(result.makespan_ms)
    registry.counter(f"{prefix}.requests").inc(result.n_requests)
    for q, v in (
        ("mean", result.mean_latency_ms),
        ("p50", result.p50_latency_ms),
        ("p95", result.p95_latency_ms),
        ("p99", result.p99_latency_ms),
    ):
        registry.gauge(f"{prefix}.latency_ms", quantile=q).set(v)
    for d, busy in enumerate(result.per_disk_busy_ms):
        registry.gauge(f"{prefix}.busy_ms", disk=d).set(float(busy))
    if result.per_disk_requests is not None:
        for d, c in enumerate(result.per_disk_requests):
            registry.counter(f"{prefix}.disk_requests", disk=d).inc(int(c))


def record_compiler_cache(registry: MetricsRegistry | None = None) -> None:
    """Plan-compiler cache entries/hits/misses (module-lifetime stats)."""
    from repro.compiled.compiler import program_cache_info

    registry = registry if registry is not None else get_registry()
    info = program_cache_info()
    registry.gauge("compiler.cache.entries").set(info["entries"])
    for key, value in info.items():
        if key == "entries":
            continue
        c = registry.counter(f"compiler.cache.{key}")
        c.reset()
        c.inc(value)


def record_fault_plane(plane, registry: MetricsRegistry | None = None) -> None:
    """Injection/recovery tallies of a :class:`~repro.faults.FaultPlane`.

    Counter-shaped entries (faults hit, retries, reconstructions, …)
    land as ``faults.<name>`` counters; the scalar odometers (ops seen,
    crashable events, accumulated backoff, outstanding sector errors)
    as gauges — together they are the ``repro stats`` fault section.
    """
    registry = registry if registry is not None else get_registry()
    snap = plane.snapshot()
    gauges = {
        "backoff_ticks",
        "ops_seen",
        "crashable_events",
        "outstanding_sector_errors",
    }
    for name, value in snap.items():
        if name in gauges:
            registry.gauge(f"faults.{name}").set(float(value))
        else:
            registry.counter(f"faults.{name}").inc(int(value))


def record_fleet_report(
    report: dict, registry: MetricsRegistry | None = None, prefix: str = "fleet"
) -> None:
    """Health, QoS and recovery tallies of one fleet report.

    Volume health lands as state-labelled ``fleet.volume_state`` gauges
    (a point-in-time census of the fleet), breaker/rebuild/crash
    recovery as counters, and per-tenant closed-state foreground
    latency — the number the QoS gate scores — as quantile-labelled
    gauges plus one merged tick-bucketed histogram, so ``repro stats``
    renders the fleet section next to the online-conversion one.
    """
    registry = registry if registry is not None else get_registry()
    for state, count in report["states"].items():
        registry.gauge(f"{prefix}.volume_state", state=state).set(float(count))
    for name in (
        "breaker_trips",
        "rebuilds_completed",
        "crashes",
        "resumes",
        "degraded_reads",
        "stripes_scrubbed",
        "scrub_errors",
        "divergent_blocks",
    ):
        registry.counter(f"{prefix}.{name}").inc(int(report[name]))
    registry.counter(f"{prefix}.volumes").inc(int(report["volumes_total"]))
    registry.counter(f"{prefix}.volumes_complete").inc(int(report["volumes_complete"]))
    registry.gauge(f"{prefix}.breaker_open_ticks").set(float(report["breaker_open_ticks"]))
    spares = report["spares"]
    registry.gauge(f"{prefix}.spares_free").set(float(spares["free"]))
    registry.counter(f"{prefix}.spares_attached").inc(int(spares["granted"]))
    registry.counter(f"{prefix}.spares_denied").inc(int(spares["denied"]))
    for gate, ok in report["gates"].items():
        registry.gauge(f"{prefix}.gate", gate=gate).set(1.0 if ok else 0.0)
    for tenant, t in report["tenants"].items():
        registry.gauge(
            f"{prefix}.closed_latency_ticks.worst_p99", tenant=tenant
        ).set(float(t["worst_closed_p99"]))
        if t["p99_target"] is not None:
            registry.gauge(
                f"{prefix}.qos_target_ticks.p99", tenant=tenant
            ).set(float(t["p99_target"]))
    hist = registry.histogram(
        f"{prefix}.request_latency_ticks", buckets=ONLINE_LATENCY_BUCKETS_TICKS
    )
    for vol in report["volumes"]:
        lat = vol["latency"]
        for q in (50, 95, 99):
            registry.gauge(
                f"{prefix}.volume_latency_ticks.p{q}",
                volume=vol["volume_id"], tenant=vol["tenant"],
            ).set(float(lat[f"p{q}"]))
        for sample in lat["ticks"]:
            hist.observe(sample)


def record_staticcheck(report, registry: MetricsRegistry | None = None) -> None:
    """Checks/findings/durations of a :class:`~repro.staticcheck.CheckReport`.

    Findings are counted per ``(analyzer, rule)`` label pair so a metrics
    dashboard distinguishes a lint regression from a broken proof.
    """
    registry = registry if registry is not None else get_registry()
    for analyzer, n in report.checks.items():
        registry.counter("staticcheck.checks", analyzer=analyzer).inc(n)
    for finding in report.findings:
        registry.counter(
            "staticcheck.findings", analyzer=finding.analyzer, rule=finding.rule
        ).inc()
    for analyzer, seconds in report.durations.items():
        registry.gauge("staticcheck.duration_s", analyzer=analyzer).set(seconds)
    registry.counter("staticcheck.internal_errors").inc(len(report.internal_errors))
    registry.gauge("staticcheck.exit_code").set(report.exit_code)
