"""Command-line interface: ``python -m repro <command>``.

Operational front-end over the library — inspect layouts, certify codes,
run verified conversions, and replay migrations through the disk
simulator without writing any Python.

Observability: ``convert`` and ``simulate`` accept ``--trace out.json``
(Chrome trace-event JSON viewable in Perfetto: real plan/compile/execute/
verify spans plus one simulated-activity track per disk) and
``--metrics`` (metrics snapshot dump); ``stats`` summarises a saved
trace file.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _package_version() -> str:
    try:
        from importlib.metadata import PackageNotFoundError, version

        return version("repro")
    except PackageNotFoundError:
        from repro import __version__

        return __version__


def _cmd_info(args: argparse.Namespace) -> int:
    from repro.codes import CODE_CATALOG, get_code

    p = args.p
    print(f"registered array codes at p={p}")
    print(f"{'code':>14} {'family':>10} {'disks':>6} {'data':>5} {'eff':>6} "
          f"{'upd':>5}  citation")
    for name, info in sorted(CODE_CATALOG.items()):
        try:
            code = get_code(name, p)
        except ValueError as exc:
            print(f"{name:>14} (unavailable at p={p}: {exc})")
            continue
        pens = [code.layout.update_penalty(c) for c in code.layout.data_cells]
        print(
            f"{name:>14} {info.family:>10} {code.n_disks:>6} {code.num_data:>5} "
            f"{code.storage_efficiency():>6.2f} {sum(pens) / len(pens):>5.2f}  {info.citation}"
        )
    return 0


def _cmd_layout(args: argparse.Namespace) -> int:
    from repro.codes import get_layout

    layout = get_layout(args.code, args.p, virtual_cols=tuple(args.virtual))
    print(layout.describe())
    print(f"data cells: {layout.num_data}, parity cells: {layout.num_parity}, "
          f"encode XORs/stripe: {layout.xor_count_total()}")
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    from repro.codes import certify_mds, get_layout

    layout = get_layout(args.code, args.p, virtual_cols=tuple(args.virtual))
    report = certify_mds(layout, tolerance=args.tolerance)
    print(f"{args.code} p={args.p} (tolerance {args.tolerance}): "
          f"recoverable={report.is_mds} storage-optimal={report.storage_optimal}")
    if report.failed_pairs:
        print(f"unrecoverable column pairs: {report.failed_pairs}")
    return 0 if report.is_mds else 1


def _cmd_convert(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.analysis import metrics_from_plan
    from repro.migration import (
        build_plan,
        execute_plan,
        prepare_source_array,
        verify_conversion,
    )
    from repro.migration.approaches import alignment_cycle

    code = args.code_opt or args.code
    approach = args.approach_opt or args.approach
    if code is None or approach is None:
        print("convert: code and approach are required "
              "(positional or --code/--approach)", file=sys.stderr)
        return 2

    if args.online:
        return _convert_online(args, code, approach)

    tracer = obs.get_tracer()
    registry = obs.get_registry()
    observing = args.trace is not None or args.metrics is not None
    if args.trace is not None:
        tracer.clear()
        tracer.enable()
    if observing:
        registry.clear()
        registry.enabled = True
    try:
        with tracer.span("plan", cat="cli", code=code, approach=approach, p=args.p):
            groups = args.groups or alignment_cycle(code, args.p, args.n)
            plan = build_plan(code, approach, args.p, groups=groups, n_disks=args.n)
        rng = np.random.default_rng(args.seed)
        with tracer.span("prepare", cat="cli", blocks=plan.data_blocks):
            array, data = prepare_source_array(plan, rng, block_size=args.block_size)
        plane = None
        if args.inject is not None:
            from repro.faults import (
                ConversionCrash,
                ConversionJournal,
                FaultPlane,
                FaultScenario,
                execute_checkpointed,
            )

            spec = args.inject.strip()
            scenario = (
                FaultScenario.from_json(spec)
                if spec.startswith("{")
                else FaultScenario.load(spec)
            )
            plane = FaultPlane(scenario)
            plane.attach(array)
            journal = ConversionJournal()
            crashes = 0
            with tracer.span("execute.injected", cat="cli"):
                while True:
                    try:
                        run = execute_checkpointed(plan, array, data, journal)
                        break
                    except ConversionCrash:
                        crashes += 1
                        plane.disarm_crash()
            result = run.result
            ok = verify_conversion(result, rng, check_io_counters=False)
            print(f"fault injection: {crashes} crash(es), "
                  f"{run.units_skipped} unit(s) resumed from journal, "
                  f"{run.rollbacks} rollback(s)")
            fired = {k: v for k, v in plane.counters.items() if v}
            if fired:
                print("fault counters: "
                      + ", ".join(f"{k}={v}" for k, v in sorted(fired.items())))
        elif args.engine == "compiled":
            from repro.compiled import compile_plan, execute_plan_compiled

            with tracer.span("compile", cat="cli"):
                program = compile_plan(plan)
            result = execute_plan_compiled(plan, array, data, program=program)
            ok = verify_conversion(result, rng)
        else:
            result = execute_plan(plan, array, data)
            ok = verify_conversion(result, rng)

        schedule = None
        if args.trace is not None:
            from repro.simdisk import closed_request_schedule, get_preset, simulate_closed
            from repro.workloads import conversion_trace

            with tracer.span("timeline", cat="cli", disk=args.disk):
                stream = conversion_trace(plan, block_size=4096)
                model = get_preset(args.disk)
                schedule = closed_request_schedule(stream, model)
                sim_res = simulate_closed(stream, model)
            obs.record_sim_result(sim_res, registry, prefix="sim")
        if observing:
            obs.record_conversion(result, registry)
            obs.record_compiler_cache(registry)
            if plane is not None:
                obs.record_fault_plane(plane, registry)

        m = metrics_from_plan(plan)
        print(plan.describe())
        print(f"verified: {ok}")
        print(f"ratios (of B): invalid={m.invalid_parity_ratio:.3f} "
              f"migrated={m.migration_ratio:.3f} new={m.new_parity_ratio:.3f} "
              f"extra-space={m.extra_space_ratio:.3f}")
        print(f"costs  (of B): xors={m.computation_cost:.3f} writes={m.write_ios:.3f} "
              f"total={m.total_ios:.3f} time-nlb={m.time_nlb:.3f} time-lb={m.time_lb:.3f}")

        if args.trace is not None:
            doc = obs.write_chrome_trace(
                args.trace,
                spans=tracer.spans,
                schedule=schedule,
                metrics=registry.snapshot(),
                meta={"command": "convert", "code": code, "approach": approach,
                      "p": args.p,
                      "engine": args.engine if plane is None else "checkpointed"},
            )
            print(f"trace: {args.trace} ({len(doc['traceEvents'])} events; "
                  f"open in https://ui.perfetto.dev)")
        if args.metrics is not None:
            if args.metrics != "-":
                from pathlib import Path

                Path(args.metrics).write_text(registry.render_json() + "\n")
                print(f"metrics: {args.metrics}")
            print("-- metrics snapshot --")
            print(registry.render_text())
        return 0 if ok else 1
    finally:
        if args.trace is not None:
            tracer.disable()
        if observing:
            registry.enabled = False


def _convert_online(args: argparse.Namespace, code: str, approach: str) -> int:
    """``repro convert --online``: Algorithm 2 live migration.

    Runs the online converter under a seeded application-write schedule,
    verifies the result, and prints the foreground-latency percentiles
    (stall + service) alongside the run accounting.
    """
    from repro import obs
    from repro.faults.journal import OnlineJournal
    from repro.migration import build_plan, prepare_source_array
    from repro.migration.online import OnlineCode56Conversion, OnlineRequest

    if code != "code56" or approach != "direct":
        print("convert --online: Algorithm 2 converts code56/direct only",
              file=sys.stderr)
        return 2

    tracer = obs.get_tracer()
    registry = obs.get_registry()
    observing = args.trace is not None or args.metrics is not None
    if args.trace is not None:
        tracer.clear()
        tracer.enable()
    if observing:
        registry.clear()
        registry.enabled = True
    try:
        with tracer.span("plan", cat="cli", code=code, approach=approach, p=args.p):
            plan = build_plan(code, approach, args.p, groups=args.groups or 2)
        rng = np.random.default_rng(args.seed)
        with tracer.span("prepare", cat="cli", blocks=plan.data_blocks):
            array, _data = prepare_source_array(plan, rng, block_size=args.block_size)

        capacity = plan.groups * (args.p - 1) * (args.p - 2)
        requests = []
        t = 0.0
        for _ in range(args.requests):
            t += float(rng.integers(1, 6))
            is_write = bool(rng.random() < 0.7)
            requests.append(OnlineRequest(
                time=t,
                lba=int(rng.integers(capacity)),
                is_write=is_write,
                payload=(rng.integers(0, 256, size=args.block_size, dtype=np.uint8)
                         if is_write else None),
            ))

        journal = OnlineJournal(plan.groups, args.p - 1)
        conv = OnlineCode56Conversion(array, args.p, journal=journal, batch=args.batch)
        with tracer.span("convert.online", cat="cli", batch=args.batch,
                         requests=len(requests)):
            report = conv.run(requests)
        ok = bool(conv.verify())

        foreground = [s + l for s, l in
                      zip(report.request_stalls, report.request_latencies)]
        print(f"online conversion: p={args.p} groups={plan.groups} "
              f"bs={args.block_size} batch={args.batch}")
        print(f"verified: {ok}")
        print(f"ticks: conversion={report.conversion_ticks} app={report.app_ticks} "
              f"finish={report.finish_tick:.0f}")
        print(f"parities: {report.parities_generated} generated, "
              f"{report.interruptions} interruption(s), "
              f"{report.writes_to_converted} write(s) patched a diagonal")
        print(f"runs: {report.runs_committed} committed "
              f"(max {report.max_run} parities, "
              f"{report.batch_shrinks} deadline shrink(s)), "
              f"journal appends={journal.appends}")
        if foreground:
            q = np.percentile(foreground, [50, 95, 99])
            print(f"foreground latency (ticks): p50={q[0]:.1f} "
                  f"p95={q[1]:.1f} p99={q[2]:.1f} max={max(foreground):.1f}")
        if observing:
            obs.record_online_report(report, registry)
            obs.record_array_io(array, registry, prefix="online.array")
        if args.trace is not None:
            doc = obs.write_chrome_trace(
                args.trace,
                spans=tracer.spans,
                metrics=registry.snapshot(),
                meta={"command": "convert", "online": True, "code": code,
                      "approach": approach, "p": args.p, "batch": args.batch},
            )
            print(f"trace: {args.trace} ({len(doc['traceEvents'])} events; "
                  f"open in https://ui.perfetto.dev)")
        if args.metrics is not None:
            if args.metrics != "-":
                from pathlib import Path

                Path(args.metrics).write_text(registry.render_json() + "\n")
                print(f"metrics: {args.metrics}")
            print("-- metrics snapshot --")
            print(registry.render_text())
        return 0 if ok else 1
    finally:
        if args.trace is not None:
            tracer.disable()
        if observing:
            registry.enabled = False


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.analysis.costmodel import comparison_width
    from repro.migration import build_plan, supported_conversions
    from repro.migration.approaches import alignment_cycle
    from repro.simdisk import closed_request_schedule, get_preset, simulate_closed
    from repro.workloads import conversion_trace

    tracer = obs.get_tracer()
    registry = obs.get_registry()
    observing = args.trace is not None or args.metrics is not None
    if args.trace is not None:
        tracer.clear()
        tracer.enable()
    if observing:
        registry.clear()
        registry.enabled = True
    try:
        model = get_preset(args.disk)
        rows = []
        export = None  # (label, trace) rendered into --trace disk tracks
        for code, approach in supported_conversions():
            if code == "code56-right":
                continue
            try:
                n = comparison_width(code, args.p)
                plan = build_plan(
                    code, approach, args.p,
                    groups=alignment_cycle(code, args.p, n), n_disks=n,
                )
            except ValueError:
                continue
            trace = conversion_trace(
                plan,
                total_data_blocks=args.blocks,
                block_size=args.block_size,
                lb_rotation_period=args.lb,
            )
            label = f"{approach}({code})"
            with tracer.span("simulate", cat="cli", config=label, requests=len(trace)):
                res = simulate_closed(trace, model)
            if observing:
                obs.record_sim_result(res, registry, prefix=f"sim.{label}")
            if export is None or (code, approach) == ("code56", "direct"):
                export = (label, trace)
            rows.append((label, res.makespan_s))
        rows.sort(key=lambda r: r[1])
        print(f"simulated conversion makespan: p={args.p}, B={args.blocks}, "
              f"bs={args.block_size}, disk={args.disk}, "
              f"{'LB period ' + str(args.lb) if args.lb else 'NLB'}")
        base = rows[0][1]
        for label, secs in rows:
            print(f"  {label:>36}: {secs:9.1f}s ({secs / base:5.2f}x)")
        if args.trace is not None and export is not None:
            label, trace = export
            with tracer.span("timeline", cat="cli", config=label):
                schedule = closed_request_schedule(trace, model)
            doc = obs.write_chrome_trace(
                args.trace,
                spans=tracer.spans,
                schedule=schedule,
                metrics=registry.snapshot(),
                meta={"command": "simulate", "config": label, "p": args.p,
                      "disk": args.disk, "blocks": args.blocks},
            )
            print(f"trace: {args.trace} ({len(doc['traceEvents'])} events, "
                  f"disk tracks: {label})")
        if args.metrics is not None:
            if args.metrics != "-":
                from pathlib import Path

                Path(args.metrics).write_text(registry.render_json() + "\n")
                print(f"metrics: {args.metrics}")
            print("-- metrics snapshot --")
            print(registry.render_text())
        return 0
    finally:
        if args.trace is not None:
            tracer.disable()
        if observing:
            registry.enabled = False


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.obs import render_summary, summarise_trace

    try:
        summary = summarise_trace(args.trace_file)
    except FileNotFoundError:
        print(f"stats: {args.trace_file}: no such file", file=sys.stderr)
        return 1
    except ValueError as exc:  # includes JSONDecodeError
        print(f"stats: {args.trace_file}: {exc}", file=sys.stderr)
        return 1
    print(render_summary(summary, top=args.top))
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    from repro.codes import get_layout
    from repro.core import plan_hybrid_recovery

    layout = get_layout(args.code, args.p)
    cols = [args.column] if args.column is not None else list(layout.physical_cols)
    print(f"single-disk recovery reads per stripe for {args.code} p={args.p}")
    for col in cols:
        h = plan_hybrid_recovery(layout, col)
        print(f"  column {col}: hybrid={h.reads} conventional={h.conventional_reads} "
              f"saved={h.read_savings:.0%}")
    return 0


def _cmd_scrub_demo(args: argparse.Namespace) -> int:
    from repro.codes import get_code
    from repro.raid import BlockArray, Raid6Array, scrub_raid6

    rng = np.random.default_rng(args.seed)
    code = get_code(args.code, args.p)
    array = BlockArray(code.n_disks, args.groups * code.rows, block_size=64)
    raid6 = Raid6Array(array, code)
    raid6.format_with(
        rng.integers(0, 256, size=(raid6.capacity_blocks, 64), dtype=np.uint8)
    )
    for _ in range(args.corruptions):
        g = int(rng.integers(0, raid6.groups))
        cell = code.layout.data_cells[int(rng.integers(0, code.num_data))]
        disk = raid6.disk_of(g, cell[1])
        array.raw(disk, raid6.block_of(g, cell[0]))[0] ^= 0xFF
    report = scrub_raid6(raid6)
    print(f"scrub of {args.code} p={args.p}: {report.groups_checked} groups checked")
    print(f"  inconsistent: {report.inconsistent_groups}")
    print(f"  located     : {report.located}")
    print(f"  repaired    : {report.repaired}")
    print(f"  unlocatable : {report.unlocatable_groups}")
    consistent = raid6.verify()
    print(f"array consistent after repair: {consistent}")
    return 0 if consistent else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Crash-point sweeps, fault soaks and scenario replay (repro.faults)."""
    import json as _json

    from repro.faults import (
        crash_sweep_offline,
        crash_sweep_online,
        fault_soak,
        replay_scenario,
    )

    if args.replay is not None:
        from pathlib import Path

        spec = (
            _json.loads(args.replay)
            if args.replay.strip().startswith("{")
            else _json.loads(Path(args.replay).read_text())
        )
        outcome = replay_scenario(spec)
        ok = bool(outcome.get("ok"))
        print(f"replay {spec.get('kind', '?')}: {'PASS' if ok else 'FAIL'}")
        for k, v in sorted(outcome.items()):
            if k != "ok":
                print(f"  {k}: {v}")
        return 0 if ok else 1

    reports = []
    run_sweep = args.crash_sweep or args.soak is None
    if run_sweep:
        reports.append(
            crash_sweep_offline(
                args.p, groups=args.groups, block_size=args.block_size,
                seed=args.seed, sample=args.sample, artifacts_dir=args.artifacts,
            )
        )
        if args.online:
            reports.append(
                crash_sweep_online(
                    args.p, groups=args.groups, block_size=args.block_size,
                    seed=args.seed, schedules=args.schedules, batch=args.batch,
                    sample=args.sample, artifacts_dir=args.artifacts,
                )
            )
    if args.soak is not None:
        reports.append(
            fault_soak(
                args.soak, seed=args.seed, block_size=args.block_size,
                max_iterations=args.max_iterations, artifacts_dir=args.artifacts,
            )
        )

    ok = all(r["ok"] for r in reports)
    for r in reports:
        kind = r["kind"]
        status = "PASS" if r["ok"] else f"FAIL ({len(r['failures'])} failures)"
        if kind == "crash-sweep-offline":
            print(f"{kind} p={r['p']}: {r['runs']} runs over "
                  f"{r['points_swept']}/{r['crash_events']} crash points "
                  f"x {len(r['variants'])} variants — {status}")
        elif kind == "crash-sweep-online":
            print(f"{kind} p={r['p']} batch={r['batch']}: {r['runs']} runs over "
                  f"{r['schedules']} schedules (crash events per schedule: "
                  f"{r['crash_events']}) — {status}")
        else:
            by_kind = ", ".join(f"{k}={v}" for k, v in r["by_kind"].items() if v)
            print(f"{kind} seed={r['seed']}: {r['iterations']} iterations "
                  f"({by_kind}) — {status}")
    if not ok and args.artifacts:
        print(f"replayable failure specs saved under {args.artifacts}/")
    return 0 if ok else 1


def _cmd_fleet(args: argparse.Namespace) -> int:
    """Self-healing migration fleet runs and chaos soaks (repro.fleet)."""
    import json as _json
    from pathlib import Path

    from repro.fleet.service import (
        DEFAULT_TENANTS,
        FleetConfig,
        fleet_soak,
        run_fleet,
    )

    if args.soak is not None:
        soak = fleet_soak(
            args.soak, seed=args.seed, max_iterations=args.max_iterations
        )
        t = soak["totals"]
        status = "PASS" if soak["ok"] else f"FAIL ({len(soak['failures'])} failures)"
        print(
            f"fleet-soak seed={soak['seed']}: {soak['iterations']} fleets, "
            f"{t['volumes']} volumes ({t['complete']} complete, "
            f"{t['rebuilds']} rebuilds, {t['crashes']} crash-resumes, "
            f"{t['divergent_blocks']} divergent blocks) — {status}"
        )
        for fail in soak["failures"]:
            print(f"  iteration {fail['iteration']}: gates {fail['gates']}")
            print(f"    replay config: {_json.dumps(fail['config'])}")
        if args.report is not None:
            Path(args.report).write_text(_json.dumps(soak, indent=2) + "\n")
            print(f"soak report written to {args.report}")
        return 0 if soak["ok"] else 1

    tenants = DEFAULT_TENANTS
    if args.qos_p99 is not None:
        tenants = tuple((name, args.qos_p99) for name, _ in DEFAULT_TENANTS)
    config = FleetConfig(
        volumes=args.volumes,
        p=args.p,
        groups=args.groups,
        block_size=args.block_size,
        seed=args.seed,
        requests_per_volume=args.requests,
        batch=args.batch,
        spares=args.spares,
        fail_volumes=tuple(args.fail_volumes or ()),
        fail_disk=args.fail_disk,
        transient_rate=args.transient_rate,
        crash_volumes=tuple(args.crash_volumes or ()),
        tenants=tenants,
    )
    report = run_fleet(config)
    states = ", ".join(f"{k}={v}" for k, v in sorted(report["states"].items()))
    gates = ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in report["gates"].items())
    print(
        f"fleet p={config.p} volumes={report['volumes_total']} "
        f"spares={config.spares}: {states}"
    )
    print(
        f"  rebuilds={report['rebuilds_completed']} "
        f"breaker-trips={report['breaker_trips']} "
        f"crash-resumes={report['crashes']} "
        f"degraded-reads={report['degraded_reads']} "
        f"scrubbed={report['stripes_scrubbed']}"
    )
    for tenant, t in sorted(report["tenants"].items()):
        print(
            f"  tenant {tenant}: {t['volumes']} volumes, closed p99 "
            f"{t['worst_closed_p99']:.1f} ticks (target {t['p99_target']})"
        )
    print(f"  gates: {gates}")
    if args.report is not None:
        Path(args.report).write_text(_json.dumps(report, indent=2) + "\n")
        print(f"fleet report written to {args.report}")
    if args.metrics:
        from repro.obs import get_registry, record_fleet_report

        registry = get_registry()
        record_fleet_report(report, registry)
        print(registry.render_text())
    return 0 if report["ok"] else 1


def _cmd_check(args: argparse.Namespace) -> int:
    """Static verification gate; exit 0 clean / 1 findings / 2 internal."""
    from repro.obs import get_registry
    from repro.staticcheck import EXIT_INTERNAL_ERROR, run_checks
    from repro.staticcheck.runner import DEFAULT_ANALYZERS, QUICK_PRIMES

    primes = tuple(args.primes) if args.primes else (QUICK_PRIMES if args.quick else None)
    analyzers = tuple(args.analyzer) if args.analyzer else None
    if args.concur and "concur" not in (analyzers or ()):
        analyzers = (analyzers or DEFAULT_ANALYZERS) + ("concur",)
    registry = get_registry()
    metrics_on = registry.enabled
    if args.metrics:
        registry.enabled = True
    try:
        report = run_checks(primes=primes, analyzers=analyzers, registry=registry)
    except KeyError as exc:
        print(f"check: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR
    finally:
        registry.enabled = metrics_on
    print(report.to_json() if args.json else report.render_text())
    if args.metrics:
        print("metrics snapshot")
        print(registry.render_text())
    return report.exit_code


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Parallel evaluation grid; writes BENCH_sweep.json (serial vs pool).

    Runs the requested grid three times — serial baseline, cold parallel,
    warm parallel (same program-cache directory) — asserts the merged
    payloads are byte-identical, and reports wall-clock plus compiler
    cache counters.  Exit 1 on any digest mismatch.
    """
    import json
    import os
    import tempfile
    from pathlib import Path

    from repro import obs
    from repro.sweep import SweepSpec, Workload, run_sweep

    kinds = {
        "analysis": Workload.analysis,
        "sim": lambda: Workload.sim(
            total_blocks=args.blocks, block_size=args.block_size, lb=args.lb
        ),
        "execute": lambda: Workload.execute(block_size=args.exec_block_size),
        "appsim-uniform": lambda: Workload.appsim("uniform", n_requests=args.appsim_requests),
        "appsim-zipf": lambda: Workload.appsim("zipf", n_requests=args.appsim_requests),
        "appsim-sequential": lambda: Workload.appsim(
            "sequential", n_requests=args.appsim_requests
        ),
    }
    try:
        workloads = tuple(kinds[name]() for name in args.workloads)
    except KeyError as exc:
        print(f"sweep: unknown workload {exc}; known: {sorted(kinds)}", file=sys.stderr)
        return 2

    spec = SweepSpec(primes=tuple(args.primes), workloads=workloads, seed=args.seed)
    n_tasks = len(spec.tasks())
    workers = args.workers if args.workers is not None else (os.cpu_count() or 1)
    print(f"sweep: {n_tasks} tasks "
          f"({len(spec.resolved_pairs())} series x {len(args.primes)} primes x "
          f"{len(workloads)} workloads), workers={workers}")

    serial = run_sweep(spec, workers=0)
    print(f"  serial   : {serial.wall_s:8.2f}s  digest {serial.digest()[:16]}  "
          f"compiled {serial.cache['parent']['compiled']}")

    bench = {
        "bench": "sweep",
        "host_cpus": os.cpu_count(),
        "workers": workers,
        "n_tasks": n_tasks,
        "spec": spec.to_dict(),
        "serial": {"wall_s": serial.wall_s, "digest": serial.digest(),
                   "cache": serial.cache},
    }
    result = serial
    identical = True
    if workers > 0:
        tmp = None
        if args.cache_dir is not None:
            cache_dir = Path(args.cache_dir)
            cache_dir.mkdir(parents=True, exist_ok=True)
        else:
            tmp = tempfile.TemporaryDirectory(prefix="repro-sweep-cache-")
            cache_dir = Path(tmp.name)
        try:
            cold = run_sweep(spec, workers=workers, chunksize=args.chunksize,
                             cache_dir=cache_dir)
            print(f"  parallel : {cold.wall_s:8.2f}s  digest {cold.digest()[:16]}  "
                  f"compiled {cold.cache['compiled_total']}  "
                  f"(retried {cold.retried_chunks} chunks, "
                  f"{cold.fallback_tasks} tasks inline)")
            warm = run_sweep(spec, workers=workers, chunksize=args.chunksize,
                             cache_dir=cache_dir)
            print(f"  warm     : {warm.wall_s:8.2f}s  digest {warm.digest()[:16]}  "
                  f"compiled {warm.cache['compiled_total']}")
        finally:
            if tmp is not None:
                tmp.cleanup()
        identical = serial.digest() == cold.digest() == warm.digest()
        bench["parallel"] = {
            "wall_s": cold.wall_s, "digest": cold.digest(), "cache": cold.cache,
            "retried_chunks": cold.retried_chunks,
            "fallback_tasks": cold.fallback_tasks,
        }
        bench["warm"] = {
            "wall_s": warm.wall_s, "digest": warm.digest(),
            "compiled_total": warm.cache["compiled_total"], "cache": warm.cache,
        }
        bench["speedup"] = serial.wall_s / cold.wall_s if cold.wall_s else None
        result = cold
    bench["identical"] = identical

    out = Path(args.out)
    out.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    print(f"  wrote {out}"
          + (f"  (speedup {bench['speedup']:.2f}x at {workers} workers, "
             f"{bench['host_cpus']} host cpus)" if "speedup" in bench else ""))

    if args.trace is not None:
        doc = obs.write_chrome_trace(
            args.trace, spans=result.spans, metrics=result.registry.snapshot(),
            meta={"command": "sweep", "workers": result.workers,
                  "n_tasks": n_tasks},
        )
        print(f"  trace: {args.trace} ({len(doc['traceEvents'])} events; "
              f"open in https://ui.perfetto.dev)")
    if args.metrics is not None:
        if args.metrics != "-":
            Path(args.metrics).write_text(result.registry.render_json() + "\n")
            print(f"  metrics: {args.metrics}")
        else:
            print("-- merged metrics snapshot --")
            print(result.registry.render_text())

    if not identical:
        print("sweep: parallel payload differs from serial baseline",
              file=sys.stderr)
        return 1
    return 0


def _cmd_efficiency(args: argparse.Namespace) -> int:
    from repro.analysis import efficiency_sweep

    print(f"{'m':>4} {'p':>4} {'v':>3} {'Code 5-6':>9} {'MDS':>7} {'penalty':>8}")
    for e in efficiency_sweep(range(3, args.max_m + 1)):
        print(f"{e.m:>4} {e.p:>4} {e.v:>3} {e.paper_efficiency:>9.4f} "
              f"{e.mds_efficiency:>7.4f} {e.penalty:>7.2%}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Code 5-6 RAID level migration (ICPP 2015 reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {_package_version()}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="list registered codes")
    p_info.add_argument("--p", type=int, default=5)
    p_info.set_defaults(func=_cmd_info)

    p_layout = sub.add_parser("layout", help="render a stripe layout")
    p_layout.add_argument("code")
    p_layout.add_argument("--p", type=int, default=5)
    p_layout.add_argument("--virtual", type=int, nargs="*", default=[])
    p_layout.set_defaults(func=_cmd_layout)

    p_cert = sub.add_parser("certify", help="exhaustively certify MDS")
    p_cert.add_argument("code")
    p_cert.add_argument("--p", type=int, default=5)
    p_cert.add_argument("--virtual", type=int, nargs="*", default=[])
    p_cert.add_argument("--tolerance", type=int, default=2,
                        help="erasures to certify (3 for STAR)")
    p_cert.set_defaults(func=_cmd_certify)

    p_conv = sub.add_parser("convert", help="run + verify a conversion")
    p_conv.add_argument("code", nargs="?", default=None)
    p_conv.add_argument("approach", nargs="?",
                        choices=["direct", "via-raid0", "via-raid4"], default=None)
    p_conv.add_argument("--code", dest="code_opt", default=None,
                        help="alternative to the positional code")
    p_conv.add_argument("--approach", dest="approach_opt", default=None,
                        choices=["direct", "via-raid0", "via-raid4"],
                        help="alternative to the positional approach")
    p_conv.add_argument("--p", type=int, default=5)
    p_conv.add_argument("--n", type=int, default=None)
    p_conv.add_argument("--groups", type=int, default=None)
    p_conv.add_argument("--block-size", type=int, default=16)
    p_conv.add_argument("--seed", type=int, default=0)
    p_conv.add_argument("--engine", choices=["audited", "compiled"], default="compiled",
                        help="executor for a healthy run: batched compiled "
                             "(default) or per-block audited; --inject always "
                             "runs the checkpointed per-group executor")
    p_conv.add_argument("--online", action="store_true",
                        help="live-migrate via Algorithm 2 under a seeded "
                             "application-write schedule (code56/direct only)")
    p_conv.add_argument("--batch", type=int, default=1,
                        help="online: parity-run budget per conversion slice "
                             "(>1 claims longer runs with one journal flush each)")
    p_conv.add_argument("--requests", type=int, default=16,
                        help="online: seeded application requests to interleave")
    p_conv.add_argument("--disk", default="sata-7200",
                        help="disk preset for the --trace simulated timeline")
    p_conv.add_argument("--trace", default=None, metavar="PATH",
                        help="write a Perfetto-viewable Chrome trace-event JSON")
    p_conv.add_argument("--metrics", nargs="?", const="-", default=None, metavar="PATH",
                        help="dump the metrics snapshot (optionally also as JSON to PATH)")
    p_conv.add_argument("--inject", default=None, metavar="SCENARIO",
                        help="fault scenario (JSON file or inline JSON): run the "
                             "conversion under the fault plane with journaled "
                             "crash recovery")
    p_conv.set_defaults(func=_cmd_convert)

    p_sim = sub.add_parser("simulate", help="simulated conversion makespans")
    p_sim.add_argument("--p", type=int, default=5)
    p_sim.add_argument("--blocks", type=int, default=60_000)
    p_sim.add_argument("--block-size", type=int, default=4096)
    p_sim.add_argument("--disk", default="sata-7200")
    p_sim.add_argument("--lb", type=int, default=16,
                       help="LB rotation period (0 = dedicated layout)")
    p_sim.add_argument("--trace", default=None, metavar="PATH",
                       help="write a Chrome trace-event JSON (disk tracks for "
                            "the direct(code56) configuration)")
    p_sim.add_argument("--metrics", nargs="?", const="-", default=None, metavar="PATH",
                       help="dump the metrics snapshot (optionally also as JSON to PATH)")
    p_sim.set_defaults(func=_cmd_simulate)

    p_stats = sub.add_parser("stats", help="summarise a saved --trace JSON")
    p_stats.add_argument("trace_file")
    p_stats.add_argument("--top", type=int, default=15,
                         help="span names to list, by total wall time")
    p_stats.set_defaults(func=_cmd_stats)

    p_rec = sub.add_parser("recover", help="hybrid single-disk recovery stats")
    p_rec.add_argument("code")
    p_rec.add_argument("--p", type=int, default=5)
    p_rec.add_argument("--column", type=int, default=None)
    p_rec.set_defaults(func=_cmd_recover)

    p_scrub = sub.add_parser("scrub", help="inject + locate + heal silent corruption")
    p_scrub.add_argument("code", nargs="?", default="code56")
    p_scrub.add_argument("--p", type=int, default=5)
    p_scrub.add_argument("--groups", type=int, default=6)
    p_scrub.add_argument("--corruptions", type=int, default=2)
    p_scrub.add_argument("--seed", type=int, default=0)
    p_scrub.set_defaults(func=_cmd_scrub_demo)

    p_chaos = sub.add_parser(
        "chaos", help="crash-point sweeps + seeded fault soaks (repro.faults)"
    )
    p_chaos.add_argument("--crash-sweep", action="store_true",
                         help="sweep every crash point of offline conversion "
                              "(default action when --soak is not given)")
    p_chaos.add_argument("--online", action="store_true",
                         help="also sweep the online converter's crash points")
    p_chaos.add_argument("--soak", type=float, default=None, metavar="SECONDS",
                         help="seeded randomized fault campaign for a time budget")
    p_chaos.add_argument("--replay", default=None, metavar="SPEC",
                         help="re-run a saved failure spec (JSON file or inline)")
    p_chaos.add_argument("--p", type=int, default=5)
    p_chaos.add_argument("--groups", type=int, default=2)
    p_chaos.add_argument("--block-size", type=int, default=8)
    p_chaos.add_argument("--seed", type=int, default=0)
    p_chaos.add_argument("--schedules", type=int, default=3,
                         help="online sweep: app-write interleavings per point")
    p_chaos.add_argument("--batch", type=int, default=1,
                         help="online sweep: converter run budget (crashes land "
                              "inside group-commit windows when > 1)")
    p_chaos.add_argument("--sample", type=int, default=None,
                         help="sweep an evenly spaced subset of crash points "
                              "(default: exhaustive)")
    p_chaos.add_argument("--max-iterations", type=int, default=None,
                         help="soak: stop after N iterations even within budget")
    p_chaos.add_argument("--artifacts", default=None, metavar="DIR",
                         help="save replayable failure specs here")
    p_chaos.set_defaults(func=_cmd_chaos)

    p_fleet = sub.add_parser(
        "fleet", help="self-healing multi-volume migration fleet (repro.fleet)"
    )
    p_fleet.add_argument("--volumes", type=int, default=8,
                         help="volumes to migrate")
    p_fleet.add_argument("--p", type=int, default=5)
    p_fleet.add_argument("--groups", type=int, default=2)
    p_fleet.add_argument("--block-size", type=int, default=8)
    p_fleet.add_argument("--seed", type=int, default=0)
    p_fleet.add_argument("--requests", type=int, default=12,
                         help="foreground requests per volume")
    p_fleet.add_argument("--batch", type=int, default=1,
                         help="converter run budget per volume")
    p_fleet.add_argument("--spares", type=int, default=2,
                         help="hot-spare pool size shared by the fleet")
    p_fleet.add_argument("--fail-volumes", type=int, nargs="+", default=None,
                         metavar="ID",
                         help="volume ids that lose a disk mid-migration")
    p_fleet.add_argument("--fail-disk", type=int, default=None,
                         help="disk to fail (default: seeded per-volume pick)")
    p_fleet.add_argument("--crash-volumes", type=int, nargs="+", default=None,
                         metavar="ID",
                         help="volume ids whose conversion crashes once")
    p_fleet.add_argument("--transient-rate", type=float, default=0.0,
                         help="per-I/O transient fault probability")
    p_fleet.add_argument("--qos-p99", type=float, default=None,
                         help="override every tenant's foreground p99 target "
                              "(ticks; default: tenant ring 40/60/90)")
    p_fleet.add_argument("--soak", type=float, default=None, metavar="SECONDS",
                         help="chaos mode: randomized fleets for a time budget")
    p_fleet.add_argument("--max-iterations", type=int, default=None,
                         help="soak: stop after N fleets even within budget")
    p_fleet.add_argument("--report", default=None, metavar="PATH",
                         help="write the JSON fleet/soak report here")
    p_fleet.add_argument("--metrics", action="store_true",
                         help="print the metrics registry after recording")
    p_fleet.set_defaults(func=_cmd_fleet)

    p_sweep = sub.add_parser(
        "sweep", help="parallel evaluation grid (serial vs process pool)"
    )
    p_sweep.add_argument("--workers", type=int, default=None,
                         help="pool size (default: host cpu count; 0 = serial only)")
    p_sweep.add_argument("--primes", type=int, nargs="+", default=[5, 7, 11, 13])
    p_sweep.add_argument(
        "--workloads", nargs="+", default=["analysis", "sim"],
        help="grid workloads: analysis sim execute "
             "appsim-{uniform,zipf,sequential}",
    )
    p_sweep.add_argument("--blocks", type=int, default=600_000,
                         help="sim workload: total data blocks (Fig 19 uses 0.6M)")
    p_sweep.add_argument("--block-size", type=int, default=4096,
                         help="sim workload: migration I/O size in bytes")
    p_sweep.add_argument("--lb", type=int, default=16,
                         help="sim workload: LB rotation period (0 = dedicated)")
    p_sweep.add_argument("--exec-block-size", type=int, default=8,
                         help="execute workload: bytes per block")
    p_sweep.add_argument("--appsim-requests", type=int, default=20_000)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--chunksize", type=int, default=None,
                         help="tasks per worker dispatch (default: auto)")
    p_sweep.add_argument("--cache-dir", default=None, metavar="PATH",
                         help="persistent compiled-program cache directory "
                              "(default: fresh temp dir per invocation)")
    p_sweep.add_argument("--out", default="BENCH_sweep.json", metavar="PATH")
    p_sweep.add_argument("--trace", default=None, metavar="PATH",
                         help="write the merged Perfetto timeline "
                              "(per-worker span tracks)")
    p_sweep.add_argument("--metrics", nargs="?", const="-", default=None,
                         metavar="PATH",
                         help="dump the merged metrics snapshot")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_eff = sub.add_parser("efficiency", help="Eq. 6 storage-efficiency sweep")
    p_eff.add_argument("--max-m", type=int, default=20)
    p_eff.set_defaults(func=_cmd_efficiency)

    p_check = sub.add_parser(
        "check", help="static verification (GF(2) prover, dataflow, lint)"
    )
    p_check.add_argument(
        "--analyzer",
        action="append",
        choices=("concur", "dataflow", "lint", "prover", "selftest"),
        help="run only this analyzer (repeatable; default: all but concur)",
    )
    p_check.add_argument(
        "--concur", action="store_true",
        help="also run the concurrency plane (interleaving model checker, "
        "happens-before race detector, sanitizer smoke, seeded defects)",
    )
    p_check.add_argument(
        "--primes", type=int, nargs="+", metavar="P",
        help="prover prime sweep (default: every prime 5..31)",
    )
    p_check.add_argument(
        "--quick", action="store_true", help="small prime sweep (5, 7)"
    )
    p_check.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    p_check.add_argument(
        "--metrics", action="store_true",
        help="also print the staticcheck metrics snapshot",
    )
    p_check.set_defaults(func=_cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "lb", None) == 0:
        args.lb = None
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
