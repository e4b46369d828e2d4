"""Same-run speed floors: every ratio is timed against its baseline here.

Each floor compares two paths timed in this process, interleaved, never
against a number recorded by another run.  Byte and counter identity
with the audited path is asserted inside the timing loops, so a fast but
wrong path cannot pass a floor.

* whole-array batched online conversion >= 3x the audited budget-1
  run/mark loop, and the fused budget-1 loop >= 1.1x it (p=13, 4 KiB
  blocks, 24 groups; the audited loop runs under an empty fault plane,
  which forces it);
* the compiled offline engine >= 10x the audited engine on every
  (code, approach) pair (p=13, ~192 groups);
* planning and compiling 48 groups costs < 2.5x one alignment cycle,
  summed over every pair at p=13 (a plan is one cycle, tiled);
* the Fig-19-scale ``simulate_closed`` (0.6M data blocks) under 1 s,
  FCFS and NCQ-64;
* the disabled tracer costs < 5% of a compiled run, both as the direct
  null-span cost and against paired baseline runs whose ``span()`` is a
  bare ``nullcontext``;
* a fleet drain at the ``fleet-faulted`` geometry peaks below 70 MB
  resident (each volume owns its pages only while a client runs it, and
  its divergence audit streams the offline image one group at a time).
"""

import json
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

import repro
from repro.compiled import compile_plan, execute_plan_compiled
from repro.faults.journal import OnlineJournal
from repro.faults.plane import FaultPlane
from repro.migration import (
    build_plan,
    execute_plan,
    prepare_source_array,
    supported_conversions,
)
from repro.migration.approaches import alignment_cycle
from repro.migration.online import OnlineCode56Conversion
from repro.obs.tracer import Tracer, get_tracer, set_tracer
from repro.simdisk import get_preset, simulate_closed
from repro.workloads import conversion_trace

P = 13


# ------------------------------------------------------------ online runs

ONLINE_BLOCK = 4096
ONLINE_GROUPS = 24
#: best of several rounds: a fused run takes a few ms and is memory bound,
#: so one slow round on a shared host would sink the ratio
ONLINE_ROUNDS = 9
MIN_ONLINE_SPEEDUP = 3.0
#: fused against audited, both at one parity per run.  Measured at
#: 1.35-1.68x (8 runs of this test on a 2-CPU x86 host; best of 5
#: rounds dipped to 1.21x once); the floor leaves room for a noisy
#: shared host and stays above parity
MIN_FUSED_BUDGET_ONE_SPEEDUP = 1.1


@pytest.fixture(scope="module")
def online_source():
    """The p=13 source array and its snapshot, restored before each round."""
    plan = build_plan("code56", "direct", P, groups=ONLINE_GROUPS)
    array, _ = prepare_source_array(
        plan, np.random.default_rng(0), block_size=ONLINE_BLOCK
    )
    return array, array.snapshot()


def _online_round(array, snapshot, batch: int, audited: bool) -> float:
    """Seconds to drain the array at ``batch``; ``audited`` attaches an
    empty fault plane, which forces the audited per-parity loop."""
    array.restore(snapshot)
    array.reset_counters()
    array.attach_fault_plane(FaultPlane() if audited else None)
    journal = OnlineJournal(ONLINE_GROUPS, P - 1)
    conv = OnlineCode56Conversion(array, P, journal=journal, batch=batch)
    t0 = perf_counter()
    conv.run([])
    elapsed = perf_counter() - t0
    array.attach_fault_plane(None)
    assert conv.verify()
    return elapsed


def _online_speedup(online_source, batch: int) -> float:
    """Best audited budget-1 round over best fused round at ``batch``,
    interleaved; every fused round must land on the audited bytes and
    per-disk counters."""
    array, snapshot = online_source
    base_s = _online_round(array, snapshot, 1, audited=True)
    oracle = array.snapshot()
    oracle_reads, oracle_writes = array.reads.copy(), array.writes.copy()

    fused_s = float("inf")
    for _ in range(ONLINE_ROUNDS):
        fused_s = min(fused_s, _online_round(array, snapshot, batch, audited=False))
        assert np.array_equal(array.snapshot(), oracle)
        assert np.array_equal(array.reads, oracle_reads)
        assert np.array_equal(array.writes, oracle_writes)
        base_s = min(base_s, _online_round(array, snapshot, 1, audited=True))
    return base_s / fused_s


def test_whole_array_online_run_beats_budget_one(online_source, record_property):
    speedup = _online_speedup(online_source, ONLINE_GROUPS * (P - 1))
    record_property("speedup", speedup)
    assert speedup >= MIN_ONLINE_SPEEDUP, (
        f"whole-array batched speedup {speedup:.2f}x < {MIN_ONLINE_SPEEDUP}x"
    )


def test_fused_budget_one_beats_audited_loop(online_source, record_property):
    """One parity per run, the paper's interleave: the fused path must
    beat the audited loop it replaced on a healthy array."""
    speedup = _online_speedup(online_source, 1)
    record_property("speedup", speedup)
    assert speedup >= MIN_FUSED_BUDGET_ONE_SPEEDUP, (
        f"fused budget-1 speedup {speedup:.2f}x < {MIN_FUSED_BUDGET_ONE_SPEEDUP}x"
    )


# -------------------------------------------------------- offline engines

ENGINE_BLOCK = 32
ENGINE_GROUPS = 192
COMPILED_REPEATS = 5
MIN_COMPILED_SPEEDUP = 10.0


def _cycle_groups(code: str, approach: str) -> int:
    """The smallest whole number of alignment cycles >= ENGINE_GROUPS."""
    cycle = alignment_cycle(code, P, build_plan(code, approach, P, groups=1).n)
    return cycle * -(-ENGINE_GROUPS // cycle)


@pytest.fixture(scope="module")
def engine_configs():
    """Per pair: (plan, array, data, source snapshot), cache-warm programs."""
    configs = []
    for code, approach in supported_conversions():
        plan = build_plan(code, approach, P, groups=_cycle_groups(code, approach))
        array, data = prepare_source_array(
            plan, np.random.default_rng(0), block_size=ENGINE_BLOCK
        )
        compile_plan(plan)
        configs.append((plan, array, data, array.snapshot()))
    return configs


def _time_compiled(plan, array, data, snapshot) -> float:
    array.restore(snapshot)
    array.reset_counters()
    t0 = perf_counter()
    execute_plan_compiled(plan, array, data, program=compile_plan(plan))
    return perf_counter() - t0


def test_compiled_engine_beats_audited_on_every_pair(engine_configs, record_property):
    speedups = {}
    for plan, array, data, snapshot in engine_configs:
        label = f"{plan.code.name}/{plan.approach}"
        array.restore(snapshot)
        t0 = perf_counter()
        audited = execute_plan(plan, array, data)
        audited_s = perf_counter() - t0
        expect = array.snapshot()
        expect_reads, expect_writes = array.reads.copy(), array.writes.copy()

        compiled_s = min(
            _time_compiled(plan, array, data, snapshot) for _ in range(COMPILED_REPEATS)
        )
        assert np.array_equal(array.snapshot(), expect), label
        assert np.array_equal(array.reads, expect_reads), label
        assert np.array_equal(array.writes, expect_writes), label
        assert array.total_reads + array.total_writes == audited.measured_total, label

        speedups[label] = audited_s / compiled_s

    worst = min(speedups, key=speedups.get)
    record_property("worst_speedup", speedups[worst])
    assert speedups[worst] >= MIN_COMPILED_SPEEDUP, (
        f"{worst}: compiled speedup {speedups[worst]:.1f}x < {MIN_COMPILED_SPEEDUP}x"
    )


# ------------------------------------------------ planning is per cycle

PLAN_GROUPS = 48
PLAN_ROUNDS = 9
#: measured at 1.1-1.3x on a 2-CPU x86 host; per-group planning was 6x
MAX_PLAN_RATIO = 2.5


def _plan_and_compile_s(groups_of) -> float:
    """Seconds to build and compile (uncached) every pair at p=13."""
    t0 = perf_counter()
    for code, approach in supported_conversions():
        plan = build_plan(code, approach, P, groups=groups_of(code))
        program = compile_plan(plan, use_cache=False)
        reads = sum(ph.read_disk.size + ph.migrate_src_disk.size for ph in program.phases)
        writes = sum(
            ph.parity_disk.size + ph.null_disk.size + ph.migrate_dst_disk.size
            for ph in program.phases
        )
        assert (reads, writes) == (plan.read_ios, plan.write_ios), (code, approach)
    return perf_counter() - t0


def test_planning_48_groups_costs_about_one_cycle(record_property):
    """Paired, interleaved rounds: 48 groups against one alignment cycle
    per pair; the ratio is the median of the per-round ratios."""
    legs = {
        "full": lambda code: PLAN_GROUPS,
        "cycle": lambda code: alignment_cycle(code, P),
    }
    ratios = []
    for i in range(PLAN_ROUNDS):
        seconds = {}
        for leg in (("full", "cycle") if i % 2 else ("cycle", "full")):
            seconds[leg] = _plan_and_compile_s(legs[leg])
        ratios.append(seconds["full"] / seconds["cycle"])
    ratio = float(np.median(ratios))
    record_property("plan_ratio", ratio)
    assert ratio < MAX_PLAN_RATIO, (
        f"planning {PLAN_GROUPS} groups costs {ratio:.2f}x one alignment cycle "
        f"(ceiling {MAX_PLAN_RATIO}x)"
    )


# ------------------------------------------------- Fig-19 trace simulation

@pytest.mark.parametrize("window", [None, 64], ids=["fcfs", "ncq64"])
def test_fig19_scale_simulation_under_one_second(window, record_property):
    p = 5
    plan = build_plan("code56", "direct", p, groups=alignment_cycle("code56", p, p))
    trace = conversion_trace(
        plan, total_data_blocks=600_000, block_size=4096, lb_rotation_period=16
    )
    model = get_preset("sata-7200")
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        simulate_closed(trace, model, reorder_window=window)
        best = min(best, perf_counter() - t0)
    record_property("seconds", best)
    assert best < 1.0, f"simulate_closed took {best:.3f}s"


# ------------------------------------------------- tracer overhead

OBS_REPEATS = 9
MAX_OVERHEAD_PCT = 5.0
NULL_SPAN_CALLS = 200_000


class _BareTracer(Tracer):
    """The baseline: every ``span()`` is a bare ``nullcontext``."""

    def span(self, *args, **kwargs):
        return nullcontext()


def _null_span_s() -> float:
    """Seconds per disabled ``Tracer.span()`` call, best of five."""
    tracer = Tracer(enabled=False)
    best = float("inf")
    for _ in range(5):
        t0 = perf_counter()
        for _ in range(NULL_SPAN_CALLS):
            with tracer.span("x", cat="bench"):
                pass
        best = min(best, perf_counter() - t0)
    return best / NULL_SPAN_CALLS


def test_disabled_tracer_overhead_under_five_percent(engine_configs, record_property):
    """Each disabled run is timed right beside a baseline run, in
    alternating order, and the overhead is the median of those paired
    ratios: on a shared host a few-ms run is bimodal, so the best of N
    per leg lands in different modes and swings by several percent."""
    bare, off, on = _BareTracer(), Tracer(enabled=False), Tracer(enabled=True)
    ratios = []
    fastest_off, max_spans = float("inf"), 0
    prev = get_tracer()
    try:
        for config in engine_configs:
            for i in range(OBS_REPEATS):
                legs = {}
                for tracer in ((bare, off) if i % 2 else (off, bare)):
                    set_tracer(tracer)
                    legs[tracer] = _time_compiled(*config)
                ratios.append(legs[off] / legs[bare])
                fastest_off = min(fastest_off, legs[off])
                set_tracer(on)
                on.clear()
                _time_compiled(*config)
                assert len(on) > 0, "enabled run recorded no spans"
                max_spans = max(max_spans, len(on))
    finally:
        set_tracer(prev)

    paired_pct = (float(np.median(ratios)) - 1) * 100
    record_property("paired_pct", paired_pct)
    assert paired_pct < MAX_OVERHEAD_PCT, (
        f"disabled tracer costs {paired_pct:.1f}% over the nullcontext "
        f"baseline (median of {len(ratios)} paired runs)"
    )
    null_pct = max_spans * _null_span_s() / fastest_off * 100
    record_property("null_span_pct", null_pct)
    assert null_pct < MAX_OVERHEAD_PCT, (
        f"{max_spans} disabled spans cost {null_pct:.2f}% of the fastest run"
    )


# ------------------------------------------------------------ fleet memory

#: the serial drain's measured VmHWM (47.8 MB, 2-CPU x86 host) plus 25%
MAX_FLEET_RSS_MB = 60.0

#: a child drains the fleet and reports its *own* peak RSS.  Neither
#: rusage field works here: RUSAGE_CHILDREN folds in every other test's
#: subprocesses, and Linux carries the spawning process's peak into the
#: child's RUSAGE_SELF ``ru_maxrss`` across exec, so a child of a 400 MB
#: test process reads 400 MB.  ``VmHWM`` is the peak of the child's own
#: address space.
_FLEET_DRAIN = """
import json
from repro.fleet.service import FleetConfig, run_fleet

report = run_fleet(FleetConfig(
    volumes=64, p=13, groups=4, block_size=4096,
    requests_per_volume=32, batch=4, spares=4, seed=2026,
    fail_volumes=(7, 23, 61), fail_disk=1,
))
with open("/proc/self/status") as status:
    hwm_kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(json.dumps({"ok": report["ok"], "peak_rss_MB": hwm_kb * 1024 / 1e6}))
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc")
def test_fleet_drain_peak_rss_under_bound(record_property):
    proc = subprocess.run(
        [sys.executable, "-c", _FLEET_DRAIN],
        capture_output=True,
        text=True,
        timeout=300,
        env={"PYTHONPATH": str(Path(repro.__file__).parents[1])},
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    record_property("peak_rss_MB", doc["peak_rss_MB"])
    assert doc["ok"], "fleet drain failed a gate"
    assert doc["peak_rss_MB"] < MAX_FLEET_RSS_MB, (
        f"fleet drain peaked at {doc['peak_rss_MB']:.0f} MB resident"
    )
