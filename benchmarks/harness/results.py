"""Metric catalogue, summaries, the result-file schema and ``compare``.

A result file (``SCHEMA``) holds one host block and, per workload, its
seed, configuration, unit counts and every metric as
``{"unit", "median", "q1", "q3", "n"}``.  Single-workload runs and the
all-workload command write the same schema, and ``compare`` reads it.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

import spans

SCHEMA = "repro-migration-harness/1"
HARNESS_DIR = Path(__file__).resolve().parent
REPO_ROOT = HARNESS_DIR.parent.parent
BENCHMARK_FILE = REPO_ROOT / "BENCHMARK.json"

#: end-to-end metrics: name -> (unit, better, rule).  "bounded" metrics
#: take their regression bound from BENCHMARK.json; "exact" ones are
#: deterministic outputs and must not move at all.
E2E: dict[str, tuple[str, str, str]] = {
    "setup_s": ("s", "lower", "bounded"),
    "convert_MBps": ("MB/s", "higher", "bounded"),
    "verify_MBps": ("MB/s", "higher", "bounded"),
    "peak_rss_MB": ("MB", "lower", "bounded"),
    "fg_p50_ticks": ("ticks", "lower", "exact"),
    "fg_p99_ticks": ("ticks", "lower", "exact"),
    "finish_ticks": ("ticks", "lower", "exact"),
    "array_ios_per_MB": ("IO/MB", "lower", "exact"),
    "failed_ratio": ("ratio", "lower", "exact"),
}

#: per-layer metrics of the traced run: name -> (unit, better)
PER_LAYER: dict[str, tuple[str, str]] = {}
for _layer in spans.LAYERS:
    _better = "higher" if _layer == spans.KERNEL_LAYER else "lower"
    PER_LAYER[f"{_layer}.s"] = ("s", "lower")
    PER_LAYER[f"{_layer}.share"] = ("fraction", _better)
PER_LAYER.update({
    "unattributed.s": ("s", "lower"),
    "unattributed.share": ("fraction", "lower"),
    "trace.e2e.s": ("s", "lower"),
    "trace.overhead": ("ratio", "lower"),
    "fleet.pool.overlap": ("ratio", "higher"),
    "compiled.cache.misses": ("count", "lower"),
    "kernels.xor.calls": ("count", "lower"),
    "kernels.xor.GB": ("GB", "lower"),
    "raid.block_io.calls": ("count", "lower"),
    "raid.bulk_io.blocks": ("count", "lower"),
    "faults.journal.flushes": ("count", "lower"),
    "migration.online.resume.calls": ("count", "lower"),
    "fleet.scrub.steps": ("count", "lower"),
    "online.runs": ("count", "lower"),
    "online.parities_per_run": ("count", "higher"),
    "online.fg_stall_p99_ticks": ("ticks", "lower"),
    "online.fg_service_p99_ticks": ("ticks", "lower"),
    "fleet.breaker_trips": ("count", "lower"),
    "fleet.rebuilds": ("count", "lower"),
    "fleet.resumes": ("count", "lower"),
    "fleet.degraded_reads": ("count", "lower"),
    "fleet.stripes_scrubbed": ("count", "lower"),
})


def summary(values, unit: str) -> dict:
    """Median, quartiles (``statistics.quantiles``, n=4) and sample count."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("no samples")
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"unit": unit, "median": median, "q1": q1, "q3": q3, "n": len(values)}


def single(value: float, unit: str, n: int = 1) -> dict:
    """One value: deterministic (checked identical across repeats) or derived."""
    value = float(value)
    return {"unit": unit, "median": value, "q1": value, "q3": value, "n": n}


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


# ---------------------------------------------------------------- host block
def _git(*args: str) -> str | None:
    if not (REPO_ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", *args], cwd=REPO_ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def host_block() -> dict:
    """Where and from what a result came; the same block in every result file."""
    from repro.compiled import program_cache_dir
    from repro.kernels import available_kernels, resolve_kernel

    status = _git("status", "--porcelain")
    return {
        "cpu_count": os.cpu_count(),
        "sched_affinity": sorted(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "kernels_available": available_kernels(),
        "kernel_resolved": resolve_kernel().name,
        "git_commit": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "program_cache_dir": None if program_cache_dir() is None else str(program_cache_dir()),
        "repro_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
    }


def host_line(host: dict) -> str:
    commit = host["git_commit"] or "unknown"
    dirty = {True: " (dirty)", False: "", None: ""}[host["git_dirty"]]
    cache = "off" if host["program_cache_dir"] is None else host["program_cache_dir"]
    env = ", ".join(f"{k}={v}" for k, v in host["repro_env"].items()) or "none"
    return (
        f"host: {host['cpu_count']} cpus, affinity {host['sched_affinity']}, "
        f"python {host['python']}, numpy {host['numpy']}, kernels "
        f"{host['kernels_available']} -> {host['kernel_resolved']}, commit "
        f"{commit[:12]}{dirty}, on-disk program cache {cache}, REPRO_* env {env}"
    )


# ------------------------------------------------------------------ printing
def table(name: str, doc: dict) -> list[str]:
    lines = [
        f"{name} (seed {doc['seed']}): {doc['repeats']} repeats, "
        f"{doc['attempted']} units attempted, {doc['failed']} failed"
    ]
    for metric, m in doc["metrics"].items():
        lines.append(
            f"  {metric:<32} {m['unit']:>8}  median {m['median']:<12.6g} "
            f"IQR [{m['q1']:.6g}, {m['q3']:.6g}]  n={m['n']}"
        )
    return lines


# ------------------------------------------------------------------ compare
def load_benchmark() -> dict:
    return json.loads(BENCHMARK_FILE.read_text())


def verdict(base: dict, new: dict, better: str, bound: float | None) -> str:
    """better / worse / unchanged / unresolved for one end-to-end metric.

    ``bound`` None means the metric is exact.  Otherwise the medians are
    compared against the bound, unless either side's IQR, as a share of
    its median, exceeds the bound: then the metric is unresolved, except
    when the two IQRs do not overlap at all.
    """
    a, b = base["median"], new["median"]
    sign = 1.0 if better == "higher" else -1.0
    if bound is None:
        if a == b:
            return "unchanged"
        return "better" if sign * (b - a) > 0 else "worse"
    spread = max((m["q3"] - m["q1"]) / abs(m["median"]) if m["median"] else 0.0 for m in (base, new))
    if spread > bound:
        if new["q1"] > base["q3"]:
            return "better" if sign > 0 else "worse"
        if new["q3"] < base["q1"]:
            return "worse" if sign > 0 else "better"
        return "unresolved"
    change = sign * (b - a) / abs(a) if a else 0.0
    if change < -bound:
        return "worse"
    if change > bound:
        return "better"
    return "unchanged"


def compare(base_doc: dict, new_doc: dict, benchmark: dict) -> tuple[list[str], bool]:
    """One line per metric both files report; False if any e2e metric is worse.

    Per-layer metrics carry no bound, so for them only the change is shown.
    """
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    lines, ok = [], True
    for workload, base_w in base_doc["workloads"].items():
        new_w = new_doc["workloads"].get(workload)
        if new_w is None:
            lines.append(f"{workload}: missing from the second file")
            ok = False
            continue
        for metric, base_m in base_w["metrics"].items():
            new_m = new_w["metrics"].get(metric)
            if new_m is None:
                lines.append(f"{workload:<14} {metric:<32} missing from the second file")
                ok = False
                continue
            a, b = base_m["median"], new_m["median"]
            head = f"{workload:<14} {metric:<32} {a:<12.6g} -> {b:<12.6g} {base_m['unit']:<8}"
            if metric not in E2E:
                change = f"{(b - a) / abs(a):+.1%}" if a else ("+0" if a == b else "new")
                lines.append(f"{head} [per-layer, no bound] {change}")
                continue
            _unit, better, rule = E2E[metric]
            bound = bounds.get(metric) if rule == "bounded" else None
            v = verdict(base_m, new_m, better, bound)
            ok = ok and v != "worse"
            lines.append(f"{head} [{'exact' if bound is None else f'bound {bound:g}'}] {v}")
    return lines, ok
