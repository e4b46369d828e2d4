"""Batched online conversion vs the audited per-parity interleave.

The paper's headline claim is *online* migration speed (Algorithm 2):
the conversion thread fills diagonal parities between application
events.  At run budget 1 each run is one parity, generated on the
audited loop (each chain gathered cell-by-cell through Python) with one
journal mark per parity; longer budgets (``repro.migration.batch``)
lower a run of pending parities to fused ``RegionOp``s through the XOR
kernel and group-commit the marks in one flush.  This bench times both
at the paper's scale (p=13, 4 KiB blocks) and gates the ratio.

Three sections, all landing in ``BENCH_online.json``:

* **quiet throughput** — no application traffic, per batch budget;
  byte/counter identity vs the per-parity oracle is
  asserted inside the timing loop, so a fast-but-wrong run cannot pass.
* **foreground latency** — a deterministic seeded request schedule;
  the deadline-shrunk batch claims exactly the per-parity schedule's
  work per interval, so batched p50/p95/p99 (stall + service) must not
  regress — in fact they are identical, and the bench asserts p99.
* **pair identity** — every supported (code, approach) pair at p=13
  re-checked audited-vs-fused, proving the batched lowering did not
  perturb the shared kernel tier the offline engine rides on.

One gate: whole-array batched >= 3x per-parity.  Even a 1-cpu runner
clears this — the per-parity path pays a Python round-trip per chain
cell, the fused run one vectorised reduction per region.

Set ``REPRO_BENCH_SMOKE=1`` for the CI-sized run.
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.compiled import execute_plan_compiled
from repro.kernels import available_kernels
from repro.migration import (
    build_plan,
    execute_plan,
    prepare_source_array,
    supported_conversions,
)
from repro.migration.online import OnlineCode56Conversion, OnlineRequest

P = 13
BLOCK = 4096
SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
GROUPS = 24 if SMOKE else 96
ROUNDS = 2 if SMOKE else 3
#: budgets per run — one group's row span, eight groups, the whole array
BATCHES = {"rows": P - 1, "8-group": 8 * (P - 1), "array": GROUPS * (P - 1)}
MIN_SPEEDUP = 3.0
OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_online.json"


def _host_report() -> dict:
    return {"cpus": os.cpu_count(), "kernels_available": available_kernels()}


def _source(groups: int = GROUPS, seed: int = 0):
    plan = build_plan("code56", "direct", P, groups=groups)
    array, data = prepare_source_array(
        plan, np.random.default_rng(seed), block_size=BLOCK
    )
    return plan, array, data


def _requests(n: int, seed: int = 1) -> list[OnlineRequest]:
    rng = np.random.default_rng(seed)
    capacity = GROUPS * (P - 1) * (P - 2)
    reqs, t = [], 0.0
    for _ in range(n):
        t += float(rng.integers(1, 6))
        is_write = bool(rng.random() < 0.7)
        reqs.append(
            OnlineRequest(
                time=t,
                lba=int(rng.integers(capacity)),
                is_write=is_write,
                payload=(
                    rng.integers(0, 256, size=BLOCK, dtype=np.uint8)
                    if is_write
                    else None
                ),
            )
        )
    return reqs


def _quiet_throughput() -> list[dict]:
    """Per-parity vs batched conversion of an idle array, per budget.

    Baseline rounds are interleaved with batched rounds inside every
    row so host-speed drift between rows cannot skew a ratio; both
    sides run the full production protocol including the journal (one
    mark flush per parity vs one ``mark_many`` per run).
    """
    from repro.faults.journal import OnlineJournal

    _plan, array, _data = _source()
    snapshot = array.snapshot()
    parities = GROUPS * (P - 1)

    def one_round(batch):
        array.restore(snapshot)
        array.reset_counters()
        journal = OnlineJournal(GROUPS, P - 1)
        conv = OnlineCode56Conversion(array, P, journal=journal, batch=batch)
        t0 = time.perf_counter()
        conv.run([])
        dt = time.perf_counter() - t0
        assert conv.verify()
        return dt, journal.appends

    # oracle bytes/counters from the audited per-parity path
    base_s, base_appends = one_round(1)
    oracle = array.snapshot()
    oracle_reads, oracle_writes = array.reads.copy(), array.writes.copy()

    rows = []
    for name, batch in BATCHES.items():
        label = f"online batch={name}"
        best_base, best_fused, appends = base_s, float("inf"), 0
        for _ in range(ROUNDS):
            fused_s, appends = one_round(batch)
            assert np.array_equal(array.snapshot(), oracle), f"{label}: bytes differ"
            assert np.array_equal(array.reads, oracle_reads), f"{label}: reads differ"
            assert np.array_equal(array.writes, oracle_writes), f"{label}: writes differ"
            best_fused = min(best_fused, fused_s)
            interleaved, _ = one_round(1)
            best_base = min(best_base, interleaved)
        rows.append(
            {
                "batch": name,
                "batch_budget": batch,
                "parities": parities,
                "per_parity_s": round(best_base, 4),
                "batched_s": round(best_fused, 4),
                "per_parity_parities_per_s": round(parities / best_base, 1),
                "batched_parities_per_s": round(parities / best_fused, 1),
                "per_parity_journal_appends": base_appends,
                "batched_journal_appends": appends,
                "speedup": round(best_base / best_fused, 2),
                "byte_identical": True,
                "counter_identical": True,
            }
        )
    return rows


def _foreground_latency() -> dict:
    """Foreground (stall + service) percentiles under live traffic."""
    n = 64 if SMOKE else 256
    reqs = _requests(n)

    def percentiles(batch):
        _plan, array, _data = _source()
        report = OnlineCode56Conversion(array, P, batch=batch).run(reqs)
        fg = np.asarray(report.request_stalls) + np.asarray(
            report.request_latencies
        )
        return {
            "p50": float(np.percentile(fg, 50)),
            "p95": float(np.percentile(fg, 95)),
            "p99": float(np.percentile(fg, 99)),
            "runs_committed": report.runs_committed,
            "batch_shrinks": report.batch_shrinks,
        }

    base = percentiles(1)
    batched = percentiles(BATCHES["array"])
    assert batched["p99"] <= base["p99"], (
        f"batched foreground p99 {batched['p99']} regressed "
        f"per-parity {base['p99']}"
    )
    return {"requests": n, "per_parity": base, "batched": batched}


def _pair_identity() -> list[dict]:
    """Audited vs fused bytes for every supported (code, approach) pair.

    The batched online lowering shares the kernel tier with the offline
    compiled engine; this re-proves nothing drifted for the other 10
    pairs the online converter itself cannot run.
    """
    rows = []
    for code, approach in supported_conversions():
        plan = build_plan(code, approach, P, groups=2)
        audited, data = prepare_source_array(
            plan, np.random.default_rng(2), block_size=512
        )
        fused, _ = prepare_source_array(
            plan, np.random.default_rng(2), block_size=512
        )
        execute_plan(plan, audited, data)
        execute_plan_compiled(plan, fused, data)
        ok = bool(
            np.array_equal(audited.snapshot(), fused.snapshot())
            and np.array_equal(audited.reads, fused.reads)
            and np.array_equal(audited.writes, fused.writes)
        )
        assert ok, f"{code}/{approach}: fused bytes drifted from audited"
        rows.append({"code": code, "approach": approach, "byte_identical": ok})
    return rows


def _run() -> dict:
    host = _host_report()
    return {
        "meta": {
            "p": P,
            "block_size": BLOCK,
            "groups": GROUPS,
            "batches": BATCHES,
            "smoke": SMOKE,
            "host": host,
            "min_speedup": MIN_SPEEDUP,
        },
        "throughput": _quiet_throughput(),
        "foreground": _foreground_latency(),
        "pair_identity": _pair_identity(),
    }


def bench_online(benchmark, show):
    report = benchmark.pedantic(_run, rounds=1, iterations=1)
    rows = report["throughput"]
    best = max(r["speedup"] for r in rows)
    worst_array = min(r["speedup"] for r in rows if r["batch"] == "array")
    report["summary"] = {
        "best_speedup": best,
        "worst_whole_array_speedup": worst_array,
        "foreground_p99_per_parity": report["foreground"]["per_parity"]["p99"],
        "foreground_p99_batched": report["foreground"]["batched"]["p99"],
        "pairs_byte_identical": all(
            r["byte_identical"] for r in report["pair_identity"]
        ),
    }
    OUT_PATH.write_text(json.dumps(report, indent=2) + "\n")

    meta = report["meta"]
    lines = [
        f"batched online conversion vs per-parity, p={P} bs={BLOCK} "
        f"g={meta['groups']} (BENCH_online.json; smoke={meta['smoke']}, "
        f"host={meta['host']['cpus']} cpu(s))"
    ]
    for r in rows:
        lines.append(
            f"batch={r['batch']:>7}: "
            f"{r['per_parity_parities_per_s']:>8,.0f} -> "
            f"{r['batched_parities_per_s']:>10,.0f} parities/s  "
            f"({r['speedup']:.2f}x)"
        )
    fg = report["foreground"]
    lines.append(
        f"foreground p50/p95/p99: per-parity "
        f"{fg['per_parity']['p50']:.0f}/{fg['per_parity']['p95']:.0f}/"
        f"{fg['per_parity']['p99']:.0f} ticks, batched "
        f"{fg['batched']['p50']:.0f}/{fg['batched']['p95']:.0f}/"
        f"{fg['batched']['p99']:.0f} ticks "
        f"({fg['batched']['runs_committed']} runs, "
        f"{fg['batched']['batch_shrinks']} shrinks)"
    )
    lines.append(
        f"{len(report['pair_identity'])} (code, approach) pairs "
        f"byte-identical; best speedup {best}x"
    )
    show("\n".join(lines))

    assert worst_array >= MIN_SPEEDUP, (
        f"whole-array batched speedup {worst_array}x < floor {MIN_SPEEDUP}x"
    )
