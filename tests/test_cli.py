"""Command-line interface."""

import json
import subprocess
import sys

import pytest

import repro
from repro.cli import _package_version, main
from repro.obs import load_chrome_trace, validate_chrome_trace


def run_cli(*argv):
    return main(list(argv))


class TestInProcess:
    def test_info(self, capsys):
        assert run_cli("info", "--p", "7") == 0
        out = capsys.readouterr().out
        assert "code56" in out and "evenodd" in out

    def test_layout(self, capsys):
        assert run_cli("layout", "code56", "--p", "5") == 0
        out = capsys.readouterr().out
        assert "data cells: 12" in out

    def test_layout_with_virtual(self, capsys):
        assert run_cli("layout", "code56", "--p", "5", "--virtual", "0") == 0
        out = capsys.readouterr().out
        assert "data cells: 6" in out

    def test_certify_pass(self, capsys):
        assert run_cli("certify", "rdp", "--p", "5") == 0
        assert "recoverable=True" in capsys.readouterr().out

    def test_convert_verified(self, capsys):
        assert run_cli("convert", "code56", "direct", "--p", "5") == 0
        out = capsys.readouterr().out
        assert "verified: True" in out
        assert "total=1.333" in out

    def test_convert_two_step(self, capsys):
        assert run_cli("convert", "rdp", "via-raid4", "--p", "5") == 0
        assert "verified: True" in capsys.readouterr().out

    def test_convert_compiled_engine(self, capsys):
        assert run_cli(
            "convert", "code56", "direct", "--p", "5", "--engine", "compiled"
        ) == 0
        out = capsys.readouterr().out
        assert "verified: True" in out
        assert "total=1.333" in out

    def test_recover(self, capsys):
        assert run_cli("recover", "code56", "--p", "5", "--column", "1") == 0
        assert "hybrid=9" in capsys.readouterr().out

    def test_simulate_small(self, capsys):
        assert run_cli("simulate", "--blocks", "1200", "--p", "5") == 0
        out = capsys.readouterr().out
        assert "direct(code56)" in out

    def test_simulate_nlb(self, capsys):
        assert run_cli("simulate", "--blocks", "1200", "--lb", "0") == 0
        assert "NLB" in capsys.readouterr().out

    def test_efficiency(self, capsys):
        assert run_cli("efficiency", "--max-m", "8") == 0
        out = capsys.readouterr().out
        assert "penalty" in out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            run_cli("frobnicate")


class TestSubprocess:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "certify", "code56", "--p", "5"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "recoverable=True" in proc.stdout


class TestScrubCommand:
    def test_scrub_heals(self, capsys):
        assert run_cli("scrub", "code56", "--p", "5", "--corruptions", "2") == 0
        out = capsys.readouterr().out
        assert "repaired" in out and "True" in out

    def test_scrub_other_codes(self, capsys):
        assert run_cli("scrub", "rdp", "--p", "5", "--corruptions", "1") == 0


class TestFaultInjectionCli:
    def test_convert_with_inline_scenario(self, capsys):
        scenario = json.dumps(
            {"seed": 5, "crash_at": 8, "crash_tear": 0.5,
             "transients": [{"op": 3, "failures": 1}]}
        )
        assert run_cli(
            "convert", "code56", "direct", "--p", "5", "--groups", "2",
            "--inject", scenario,
        ) == 0
        out = capsys.readouterr().out
        assert "verified: True" in out
        assert "fault injection: 1 crash(es)" in out
        assert "crashes=1" in out

    def test_convert_with_scenario_file_and_metrics(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"seed": 1, "sector_errors":
                                    [{"disk": 2, "block": 2}]}))
        assert run_cli(
            "convert", "code56", "direct", "--p", "5", "--groups", "2",
            "--inject", str(path), "--metrics",
        ) == 0
        out = capsys.readouterr().out
        assert "faults.sector_errors_hit" in out
        assert "faults.reconstructed_blocks" in out

    def test_chaos_sampled_sweep(self, capsys):
        assert run_cli(
            "chaos", "--crash-sweep", "--sample", "3",
        ) == 0
        out = capsys.readouterr().out
        assert "crash-sweep-offline" in out and "PASS" in out

    def test_chaos_soak_bounded(self, capsys):
        assert run_cli(
            "chaos", "--soak", "60", "--max-iterations", "5", "--seed", "42",
        ) == 0
        out = capsys.readouterr().out
        assert "fault-soak" in out and "5 iterations" in out

    def test_chaos_replay_inline(self, capsys):
        spec = json.dumps({
            "kind": "offline-crash", "p": 5,
            "groups": 2, "block_size": 8, "seed": 3,
            "scenario": {"seed": 3, "crash_at": 4, "crash_tear": 0.5},
        })
        assert run_cli("chaos", "--replay", spec) == 0
        assert "replay offline-crash: PASS" in capsys.readouterr().out


class TestCertifyTolerance:
    def test_star_triple(self, capsys):
        assert run_cli("certify", "star", "--p", "5", "--tolerance", "3") == 0
        assert "recoverable=True" in capsys.readouterr().out

    def test_raid6_code_fails_triple(self, capsys):
        assert run_cli("certify", "rdp", "--p", "5", "--tolerance", "3") == 1


class TestVersion:
    def test_version_flag_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("--version")
        assert exc.value.code == 0
        assert _package_version() in capsys.readouterr().out

    def test_package_version_matches_module_fallback(self):
        # installed metadata (if any) or the module constant; either way
        # it is a non-empty dotted version string
        v = _package_version()
        assert v and v[0].isdigit()
        assert repro.__version__[0].isdigit()


class TestObservability:
    """The acceptance path: convert --trace --metrics end to end."""

    def test_convert_trace_and_metrics(self, capsys, tmp_path):
        trace_path = tmp_path / "t.json"
        metrics_path = tmp_path / "m.json"
        assert run_cli(
            "convert", "--code", "code56", "--approach", "direct", "--p", "7",
            "--trace", str(trace_path), "--metrics", str(metrics_path),
        ) == 0
        out = capsys.readouterr().out
        assert "verified: True" in out
        assert "metrics snapshot" in out

        doc = load_chrome_trace(trace_path)
        assert validate_chrome_trace(doc) == []
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        # real execution spans...
        assert {"plan", "compile", "execute", "verify"} <= names
        # ...and simulated per-disk activity slices
        assert names & {"R", "W"}

        # metrics counters equal the plan's op accounting exactly
        metrics = json.loads(metrics_path.read_text())
        counters = {
            (c["name"], tuple(sorted(c["labels"].items()))): c["value"]
            for c in metrics["counters"]
        }
        reads = counters[("conversion.reads.total", ())]
        writes = counters[("conversion.writes.total", ())]
        assert reads == counters[("conversion.planned_reads", ())]
        assert writes == counters[("conversion.planned_writes", ())]

        from repro.migration import build_plan
        from repro.migration.approaches import alignment_cycle

        plan = build_plan("code56", "direct", 7,
                          groups=alignment_cycle("code56", 7, None))
        assert reads == plan.read_ios
        assert writes == plan.write_ios

    def test_convert_metrics_stdout_only(self, capsys):
        assert run_cli("convert", "code56", "direct", "--p", "5", "--metrics") == 0
        out = capsys.readouterr().out
        assert "conversion.reads.total" in out

    def test_convert_audited_engine_traces_too(self, capsys, tmp_path):
        trace_path = tmp_path / "t.json"
        assert run_cli(
            "convert", "code56", "direct", "--p", "5",
            "--engine", "audited", "--trace", str(trace_path),
        ) == 0
        doc = load_chrome_trace(trace_path)
        assert validate_chrome_trace(doc) == []
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert {"plan", "execute", "verify"} <= names

    def test_convert_missing_args_exit_2(self, capsys):
        assert run_cli("convert", "--p", "5") == 2
        assert "required" in capsys.readouterr().err

    def test_convert_tracing_disabled_after_run(self, tmp_path):
        from repro.obs import get_registry, get_tracer

        assert run_cli("convert", "code56", "direct", "--p", "5",
                       "--trace", str(tmp_path / "t.json")) == 0
        assert not get_tracer().enabled
        assert not get_registry().enabled

    def test_simulate_trace_and_metrics(self, capsys, tmp_path):
        trace_path = tmp_path / "sim.json"
        assert run_cli(
            "simulate", "--blocks", "1200", "--p", "5",
            "--trace", str(trace_path), "--metrics",
        ) == 0
        out = capsys.readouterr().out
        assert "direct(code56)" in out
        assert "sim.direct(code56).requests" in out
        doc = load_chrome_trace(trace_path)
        assert validate_chrome_trace(doc) == []
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert "simulate" in names
        assert names & {"R", "W"}

    def test_stats_roundtrip(self, capsys, tmp_path):
        trace_path = tmp_path / "t.json"
        assert run_cli("convert", "code56", "direct", "--p", "5",
                       "--trace", str(trace_path)) == 0
        capsys.readouterr()
        assert run_cli("stats", str(trace_path)) == 0
        out = capsys.readouterr().out
        assert "execute" in out and "disk" in out

    def test_stats_missing_file_exit_1(self, capsys, tmp_path):
        assert run_cli("stats", str(tmp_path / "nope.json")) == 1
        assert "no such file" in capsys.readouterr().err

    def test_stats_invalid_json_exit_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli("stats", str(bad)) == 1
        assert "bad.json" in capsys.readouterr().err

    def test_stats_not_a_trace_exit_1(self, capsys, tmp_path):
        bad = tmp_path / "plain.json"
        bad.write_text('{"hello": 1}')
        assert run_cli("stats", str(bad)) == 1


class TestSweepCli:
    def test_serial_only_writes_bench(self, capsys, tmp_path):
        out = tmp_path / "BENCH_sweep.json"
        assert run_cli(
            "sweep", "--workers", "0", "--primes", "5",
            "--workloads", "analysis", "--out", str(out),
        ) == 0
        bench = json.loads(out.read_text())
        assert bench["bench"] == "sweep"
        assert bench["identical"] is True
        assert bench["n_tasks"] == len(bench["spec"]["pairs"])
        assert "serial" in bench and "parallel" not in bench
        assert bench["host_cpus"] >= 1

    def test_unknown_workload_exit_2(self, capsys, tmp_path):
        assert run_cli(
            "sweep", "--workers", "0", "--workloads", "fuzz",
            "--out", str(tmp_path / "b.json"),
        ) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_parallel_bench_and_trace(self, capsys, tmp_path):
        out = tmp_path / "BENCH_sweep.json"
        trace = tmp_path / "sweep_trace.json"
        cache = tmp_path / "cache"
        assert run_cli(
            "sweep", "--workers", "2", "--primes", "5",
            "--workloads", "analysis", "execute",
            "--out", str(out), "--trace", str(trace),
            "--cache-dir", str(cache),
        ) == 0
        bench = json.loads(out.read_text())
        assert bench["identical"] is True
        assert bench["serial"]["digest"] == bench["parallel"]["digest"]
        assert bench["parallel"]["digest"] == bench["warm"]["digest"]
        # cold parallel compiled the grid's programs; the warm rerun
        # served every one from the persistent cache
        assert bench["parallel"]["cache"]["compiled_total"] >= 1
        assert bench["warm"]["compiled_total"] == 0
        assert bench["speedup"] > 0
        assert list(cache.glob("*.npz"))
        validate_chrome_trace(load_chrome_trace(trace))
