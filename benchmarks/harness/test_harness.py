"""Self-test of the migration benchmark harness, in smoke mode.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/harness -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import results
import spans

HARNESS = Path(__file__).resolve().parent
RUN = HARNESS / "run.py"
BENCHMARK = results.load_benchmark()
WORKLOADS = ("offline", "online-idle", "online-busy", "fleet-faulted")
SINGLE_THREADED = ("offline", "online-idle", "online-busy")

#: which end-to-end metrics each workload reports
APPLIES = {
    "offline": {"verify_MBps", "array_ios_per_MB"},
    "online-idle": {"verify_MBps", "finish_ticks", "array_ios_per_MB"},
    "online-busy": {"verify_MBps", "fg_p50_ticks", "fg_p99_ticks", "finish_ticks", "array_ios_per_MB"},
    "fleet-faulted": {"verify_MBps", "fg_p50_ticks", "fg_p99_ticks", "finish_ticks"},
}
ALL_WORKLOADS = {"setup_s", "convert_MBps", "failed_ratio", "peak_rss_MB"}


def _run(*args: str, cwd: Path | None = None) -> tuple[subprocess.CompletedProcess, dict | None]:
    proc = subprocess.run(
        [sys.executable, str(RUN if cwd is None else cwd / "benchmarks/harness/run.py"), *args],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )
    lines = proc.stdout.strip().splitlines()
    last = None
    if lines and lines[-1].startswith("{"):
        last = json.loads(lines[-1])
    return proc, last


def _smoke(workload: str, trace: int, tmp_path: Path, *extra: str) -> tuple[subprocess.CompletedProcess, dict, dict]:
    out = tmp_path / f"{workload}-{trace}.json"
    proc, last = _run("--workload", workload, "--smoke", "--trace", str(trace), "--out", str(out), *extra)
    assert last is not None, proc.stdout + proc.stderr
    doc = json.loads(out.read_text())
    return proc, last, doc["workloads"][workload]


def test_benchmark_file_matches_the_metric_catalogue():
    for m in BENCHMARK["end_to_end"]:
        unit, better, rule = results.E2E[m["name"]]
        assert (m["unit"], m["better"], rule) == (unit, better, "bounded")
        assert 0 < m["bound"] <= 0.25
    bounded = {name for name, spec in results.E2E.items() if spec[2] == "bounded"}
    assert {m["name"] for m in BENCHMARK["end_to_end"]} == bounded
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]} == results.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_smoke_emits_every_metric(workload, tmp_path):
    proc, last, doc = _smoke(workload, 0, tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    for m in BENCHMARK["end_to_end"]:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]
        assert last["metrics"][m["name"]]["value"] > 0
    assert set(doc["metrics"]) == ALL_WORKLOADS | APPLIES[workload]
    for name, m in doc["metrics"].items():
        assert m["unit"] == results.E2E[name][0]
        assert m["q1"] <= m["median"] <= m["q3"] and m["n"] >= 1
    assert doc["metrics"]["failed_ratio"]["median"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_split_adds_up(workload, tmp_path):
    proc, last, doc = _smoke(workload, 1, tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for m in BENCHMARK["per_layer"]:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]
    metrics = {name: m["median"] for name, m in doc["metrics"].items()}
    claimed = sum(metrics[f"{layer}.s"] for layer in spans.LAYERS)
    assert claimed + metrics["unattributed.s"] == pytest.approx(metrics["trace.e2e.s"], rel=1e-9)
    if workload in SINGLE_THREADED:
        assert metrics["unattributed.share"] <= 0.05
        assert metrics["fleet.pool.overlap"] == 0
    else:
        assert metrics["fleet.pool.overlap"] > 0
        assert metrics["kernels.xor.calls"] == 0  # fault planes bypass the kernel tier


@pytest.mark.parametrize("workload", ("offline", "online-idle"))
def test_planted_parity_fault_is_caught(workload, tmp_path):
    proc, last, doc = _smoke(workload, 0, tmp_path, "--plant-fault")
    assert proc.returncode != 0
    assert not last["correct"] and last["failed"] >= 1
    assert doc["metrics"]["failed_ratio"]["median"] > 0


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(results.BENCHMARK_FILE, tmp_path / "BENCHMARK.json")
    shutil.copytree(HARNESS, tmp_path / "benchmarks/harness",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc, last = _run("--workload", "offline", "--seed", "1", "--seconds", "1", "--trace", "0",
                      cwd=tmp_path)
    assert proc.returncode != 0
    assert last is None


def test_tracer_self_times_telescope_per_thread():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.002))
    outer = tracer.wrap("outer", lambda: (inner(), time.sleep(0.002)))
    worker = threading.Thread(target=tracer.wrap("worker", lambda: (inner(), outer())))
    with tracer.root():
        outer()
        worker.start()
        worker.join(timeout=10)
    assert not worker.is_alive()
    totals = tracer.take()
    self_s, incl = totals["self_s"], totals["incl_s"]
    assert totals["calls"] == {"inner": 3, "outer": 2, "worker": 1, spans.ROOT: 1}
    # each thread's self times add up to its top span; the worker's spans
    # nest under the worker, never under the main thread's root
    assert sum(self_s.values()) == pytest.approx(incl[spans.ROOT] + incl["worker"], rel=1e-9)
    assert self_s[spans.ROOT] >= incl["worker"] * 0.9  # the join is the root's own time
    assert tracer.take()["calls"] == {}


def test_compare_verdicts():
    def m(median, q1=None, q3=None):
        return {"unit": "MB/s", "median": median, "q1": q1 or median, "q3": q3 or median, "n": 5}

    assert results.verdict(m(100), m(95), "higher", 0.1) == "unchanged"
    assert results.verdict(m(100), m(85), "higher", 0.1) == "worse"
    assert results.verdict(m(100), m(120), "higher", 0.1) == "better"
    assert results.verdict(m(100, 80, 120), m(101, 80, 120), "higher", 0.1) == "unresolved"
    assert results.verdict(m(100, 95, 130), m(50, 40, 60), "higher", 0.1) == "worse"
    assert results.verdict(m(17), m(17), "lower", None) == "unchanged"
    assert results.verdict(m(17), m(18), "lower", None) == "worse"
    doc = {"workloads": {"offline": {"metrics": {"convert_MBps": m(100), "fg_p99_ticks": m(17)}}}}
    lines, ok = results.compare(doc, doc, BENCHMARK)
    assert ok and all(line.endswith("unchanged") for line in lines)
