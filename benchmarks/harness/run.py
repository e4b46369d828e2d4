"""Outside-in benchmark of the repo's three migration paths.

Four workloads, each in its own process: ``offline`` (every supported
conversion pair, as ``repro convert`` runs it), ``online-idle`` and
``online-busy`` (one Code 5-6 volume migrated online, without and with
open-loop foreground traffic) and ``fleet-faulted`` (a fleet drained
while three volumes lose a disk).  See README.md in this directory.

Usage, from the repository root::

    python3 benchmarks/harness/run.py --workload all            # every workload
    python3 benchmarks/harness/run.py --workload all --trace 1  # per-layer split
    python3 benchmarks/harness/run.py --workload offline --seed 3 --seconds 15 --trace 0
    python3 benchmarks/harness/run.py --workload online-idle --smoke
    python3 benchmarks/harness/run.py compare BASE.json NEW.json

A single-workload run prints its metrics and, as its last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` holding the
metrics BENCHMARK.json names (end-to-end ones untraced, per-layer ones
with ``--trace 1``).  It exits nonzero when any check fails.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here, before any import

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import results  # noqa: E402
import spans  # noqa: E402

SRC = results.REPO_ROOT / "src"

WORKLOADS = ("offline", "online-idle", "online-busy", "fleet-faulted")

#: set-ups measured in fresh child processes, besides the run's own
EXTRA_SETUPS = 2
#: fewest timed repeats in a full run, however long each one takes
MIN_REPEATS = 3
#: per-child limit; a first run may take long, every later one ~40 s
CHILD_TIMEOUT_S = 900


def _use_checkout_source() -> None:
    """Import ``repro`` from this checkout's ``src``, or stop."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'repro'} not found; run from a full checkout of the repository")
    sys.path.insert(0, str(SRC))


def _child(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *args],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )


def _setup_in_child(name: str, seed: int) -> float:
    proc = _child(["--workload", name, "--seed", str(seed), "--setup-only"])
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise RuntimeError(f"set-up of {name} failed in a child process")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def _failed_units(rep, reference) -> int:
    return sum(
        1
        for ok, fp, ref in zip(rep.unit_ok, rep.unit_fingerprint, reference.unit_fingerprint)
        if not ok or fp != ref
    )


def _e2e_metrics(setups, warm, repeats, attempted, failed) -> dict:
    unit = {name: spec[0] for name, spec in results.E2E.items()}
    m = {
        "setup_s": results.summary(setups, "s"),
        "convert_MBps": results.summary([r.mb / r.convert_s for r in repeats], unit["convert_MBps"]),
        "verify_MBps": results.summary([r.mb / r.verify_s for r in repeats], unit["verify_MBps"]),
    }
    # the checks hold every repeat identical to the warm-up in these
    if warm.fg_ticks is not None:
        n = len(warm.fg_ticks)
        m["fg_p50_ticks"] = results.single(results.percentile(warm.fg_ticks, 50), "ticks", n)
        m["fg_p99_ticks"] = results.single(results.percentile(warm.fg_ticks, 99), "ticks", n)
    if warm.finish_ticks is not None:
        m["finish_ticks"] = results.single(warm.finish_ticks, "ticks")
    if warm.ios is not None:
        m["array_ios_per_MB"] = results.single(warm.ios / warm.mb, unit["array_ios_per_MB"])
    m["failed_ratio"] = results.single(failed / attempted, "ratio", attempted)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    m["peak_rss_MB"] = results.single(rss_mb, "MB")
    return m


def _layer_metrics(traced, untraced) -> dict:
    """Per-layer split: medians over the traced repeats.

    Self times of all threads are summed and scaled so that they
    apportion the traced wall time; on one thread the scale is 1.  The
    main thread's wait on the fleet pool is left out, since the worker
    threads' spans cover that interval.
    """
    rows = []
    for rep, trace in traced:
        self_s, incl = trace["self_s"], trace["incl_s"]
        calls, amounts = trace["calls"], trace["amounts"]
        e2e = incl[spans.ROOT]
        busy = sum(v for k, v in self_s.items() if k != spans.WAIT)
        rows.append({
            **{f"{layer}.s": self_s.get(layer, 0.0) * e2e / busy for layer in spans.LAYERS},
            "trace.e2e.s": e2e,
            "fleet.pool.overlap": (
                incl.get("fleet.volume", 0.0) / incl["fleet.service"] if "fleet.service" in incl else 0.0
            ),
            "kernels.xor.calls": calls.get(spans.KERNEL_LAYER, 0),
            "kernels.xor.GB": amounts.get("kernels.xor.bytes", 0.0) / 1e9,
            "raid.block_io.calls": calls.get("raid.block_io", 0),
            "raid.bulk_io.blocks": amounts.get("raid.bulk_io.blocks", 0.0),
            "migration.online.resume.calls": calls.get("migration.online.resume", 0),
            "fleet.scrub.steps": calls.get("fleet.scrub", 0),
            **rep.counts,
        })
    units = results.PER_LAYER
    derived = {f"{layer}.share" for layer in spans.LAYERS}
    derived |= {"unattributed.s", "unattributed.share", "trace.overhead"}
    m = {
        name: results.summary([r.get(name, 0.0) for r in rows], unit)
        for name, (unit, _better) in units.items()
        if name not in derived
    }
    n = len(rows)
    e2e = m["trace.e2e.s"]["median"]
    claimed = 0.0
    for layer in spans.LAYERS:
        s = m[f"{layer}.s"]["median"]
        claimed += s
        m[f"{layer}.share"] = results.single(s / e2e, "fraction", n)
    m["unattributed.s"] = results.single(e2e - claimed, "s", n)
    m["unattributed.share"] = results.single((e2e - claimed) / e2e, "fraction", n)
    traced_convert = results.summary([rep.convert_s for rep, _ in traced], "s")["median"]
    untraced_convert = results.summary([rep.convert_s for rep in untraced], "s")["median"]
    m["trace.overhead"] = results.single(traced_convert / untraced_convert - 1.0, "ratio", n)
    return {name: m[name] for name in units}


def run_workload(args) -> int:
    _use_checkout_source()
    import workloads
    from repro.compiled import set_program_cache_dir

    set_program_cache_dir(None)  # no on-disk program cache: every compile is timed
    import_s = perf_counter() - T0
    name = args.workload
    seed = workloads.DEFAULT_SEEDS[name] if args.seed is None else args.seed
    if args.plant_fault and name not in workloads.PLANTABLE:
        sys.exit(f"error: --plant-fault works on {', '.join(workloads.PLANTABLE)}")

    # set-up = imports + world build + one untimed warm-up repeat; the
    # child processes measure it cold, as this process does
    setups = []
    if not (args.setup_only or args.smoke or args.trace):
        setups = [_setup_in_child(name, seed) for _ in range(EXTRA_SETUPS)]
    t = perf_counter()
    wl = workloads.make(name, seed, args.smoke)
    warm = wl.repeat(nullcontext)
    setups.insert(0, import_s + perf_counter() - t)
    warm_ok = all(warm.unit_ok)
    if args.setup_only:
        print(json.dumps({"setup_s": setups[0], "correct": warm_ok}))
        return 0 if warm_ok else 1

    tracer = spans.Tracer() if args.trace else None
    patches = spans.LayerPatches(tracer) if tracer else None
    wl.plant_fault = args.plant_fault
    untraced, traced = [], []
    attempted = failed = 0
    start = perf_counter()
    while True:
        began = perf_counter()
        rep = wl.repeat(nullcontext)
        untraced.append(rep)
        batch = [rep]
        if tracer is not None:
            with patches.installed():
                rep = wl.repeat(tracer.root)
            traced.append((rep, tracer.take()))
            batch.append(rep)
        for rep in batch:
            attempted += len(rep.unit_ok)
            failed += _failed_units(rep, warm)
        took = perf_counter() - began
        if args.smoke or (
            len(untraced) >= MIN_REPEATS and perf_counter() - start + took > args.seconds
        ):
            break

    if tracer is None:
        metrics = _e2e_metrics(setups, warm, untraced, attempted, failed)
        section = "end_to_end"
    else:
        metrics = _layer_metrics(traced, untraced)
        section = "per_layer"
    correct = warm_ok and failed == 0
    host = results.host_block()
    doc = {
        "seed": seed,
        "config": wl.config,
        "repeats": len(untraced),
        "attempted": attempted,
        "failed": failed,
        "correct": correct,
        "metrics": metrics,
    }
    if args.out:
        out = {
            "schema": results.SCHEMA,
            "host": host,
            "mode": "traced" if tracer else "untraced",
            "smoke": args.smoke,
            "seconds": args.seconds,
            "workloads": {name: doc},
        }
        Path(args.out).write_text(json.dumps(out, indent=2) + "\n")

    print(results.host_line(host))
    print("\n".join(results.table(name, doc)))
    if warm.fg_ticks is not None and tracer is None:
        print("  foreground latency = stall + service in Te ticks from each request's "
              "arrival tick; the clock is simulated, so generator lateness is 0 by construction")
    names = [m["name"] for m in results.load_benchmark()[section]]
    missing = [n for n in names if n not in metrics]
    if missing:
        sys.exit(f"error: BENCHMARK.json names metrics this run did not produce: {missing}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n]["median"], "unit": metrics[n]["unit"]} for n in names},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, one fresh process each, one after another."""
    mode = "traced" if args.trace else "untraced"
    out = Path(args.out) if args.out else results.HARNESS_DIR / "results" / f"{mode}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    combined: dict = {}
    ok = True
    for name in WORKLOADS:
        part = out.with_name(f"{out.stem}.{name}.part.json")
        cmd = ["--workload", name, "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", str(part)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        if args.smoke:
            cmd.append("--smoke")
        print(f"running {name} ...", flush=True)
        proc = _child(cmd)
        if proc.returncode != 0:
            ok = False
            sys.stderr.write(proc.stdout + proc.stderr)
        if not part.exists():
            continue
        doc = json.loads(part.read_text())
        part.unlink()
        if not combined:
            combined = {k: v for k, v in doc.items() if k != "workloads"}
            combined["workloads"] = {}
        combined["workloads"].update(doc["workloads"])
    if not combined:
        return 1
    out.write_text(json.dumps(combined, indent=2) + "\n")
    print(results.host_line(combined["host"]))
    for name, doc in combined["workloads"].items():
        print("\n".join(results.table(name, doc)))
    print(f"results written to {out}")
    return 0 if ok and all(d["correct"] for d in combined["workloads"].values()) else 1


def run_compare(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare", description="Compare two result files.")
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    lines, ok = results.compare(
        json.loads(args.base.read_text()), json.loads(args.new.read_text()), results.load_benchmark()
    )
    print("\n".join(lines))
    return 0 if ok else 1


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        return run_compare(argv[1:])
    benchmark = results.load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("all", *WORKLOADS))
    parser.add_argument("--seed", type=int, help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"],
                        help="how long the timed repeats run (at least %d repeats)" % MIN_REPEATS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer split instead of end-to-end metrics")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one timed repeat")
    parser.add_argument("--out", help="write the result file (JSON) here")
    parser.add_argument("--plant-fault", action="store_true",
                        help="corrupt one diagonal parity in the first timed repeat")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
