"""Seeded-defect selftest: the concur plane must catch every plant.

Mirrors :mod:`repro.staticcheck.selftest`: each probe injects one
deliberate concurrency defect and asserts the matching tool reports it.
A probe whose defect goes *unreported* is itself a finding (**SC-S002**)
— a silent verification plane is worse than none, because it converts
"unchecked" into "checked and passed".

Probes:

* **lost diagonal patch** — a converter whose write path drops the
  diagonal-parity RMW (the exact Algorithm 2 lost-write window); the
  model checker must flag SC-C001/C003/C004.
* **mark-before-write** — the run's ``mark_many`` flush lands before
  its parity writes; a torn crash then leaves a marked-but-stale
  watermark that the model checker's post-crash SC-C002 sweep must
  flag.  Probed at run budgets 1 (the per-parity interleave) and 2.
* **eager watermark** — the journal runs one entry ahead of generation;
  same SC-C002 obligation.
* **racy cache write** — a worker-context function publishing a shared
  file without the atomic-rename idiom; the AST race detector must flag
  SC-R002 (plus SC-R001/R004 probes for the other rules).
* **unfenced interleaving** — the sanitizer smoke with its sync edges
  dropped; the vector-clock recorder must report the write conflicts.
"""

from __future__ import annotations

import textwrap

from repro.staticcheck.report import Finding

__all__ = ["run_concur_selftest"]


def _miss(probe: str, expected: str) -> Finding:
    return Finding(
        analyzer="concur",
        rule="SC-S002",
        location=f"selftest:{probe}",
        message=(
            f"seeded defect was NOT reported (expected {expected}) — "
            "the concur plane has a false-negative blind spot"
        ),
        severity="error",
    )


def _model_probes() -> tuple[int, list[Finding]]:
    from repro.migration.online import OnlineCode56Conversion
    from repro.staticcheck.concur.model import ModelScenario, check_scenario

    class LostDiagonalPatch(OnlineCode56Conversion):
        """Defect: the write path forgets the diagonal-parity RMW."""

        def _patch_diagonal(self, group, prow, delta, report):
            report.writes_to_converted += 1
            return 2  # claims the I/O, never touches the parity

    class MarkBeforeWrite(OnlineCode56Conversion):
        """Defect: the run's journal marks precede its parity writes."""

        def generate_run_step(self, report, budget=None):
            run = self.pending_run(budget)
            if run and self.journal is not None:
                self.journal.mark_many(run)
            return super().generate_run_step(report, budget=budget)

    class EagerWatermark(OnlineCode56Conversion):
        """Defect: the watermark runs one entry ahead of generation."""

        def mark_run_step(self):
            super().mark_run_step()
            if self.journal is not None:
                ahead = self.pending_parity()
                if ahead is not None:
                    self.journal.mark(*ahead)

    scenario = ModelScenario(p=5, groups=2, lbas=(0, 7))
    batched = ModelScenario(p=5, groups=2, lbas=(0, 7), batch=2)
    probes = (
        ("lost-diagonal-patch", scenario, LostDiagonalPatch,
         {"SC-C001", "SC-C003", "SC-C004"}),
        ("mark-before-write", scenario, MarkBeforeWrite, {"SC-C002"}),
        ("mark-before-write@batch=2", batched, MarkBeforeWrite, {"SC-C002"}),
        ("eager-watermark", scenario, EagerWatermark, {"SC-C002"}),
    )
    findings: list[Finding] = []
    for name, scen, cls, expected in probes:
        _stats, caught = check_scenario(scen, converter_cls=cls)
        if not {f.rule for f in caught} & expected:
            findings.append(_miss(name, " or ".join(sorted(expected))))
    return len(probes), findings


def _race_probes() -> tuple[int, list[Finding]]:
    from repro.staticcheck.concur.races import analyze_source

    probes = (
        ("worker-global-write", "SC-R001", """
            _CACHE: dict = {}

            def worker(x):
                _CACHE[x] = compute(x)

            def go(executor, xs):
                for x in xs:
                    executor.submit(worker, x)
        """),
        ("racy-cache-write", "SC-R002", """
            def worker(cache_path, payload):
                with open(cache_path, "w") as fh:
                    fh.write(payload)

            def go(executor):
                executor.submit(worker, "programs.json", "{}")
        """),
        ("worker-singleton-swap", "SC-R004", """
            def worker(task):
                from repro.obs import set_registry
                set_registry(None)

            def go(executor, task):
                executor.submit(worker, task)
        """),
    )
    findings: list[Finding] = []
    for name, rule, source in probes:
        caught = analyze_source(textwrap.dedent(source), f"selftest/{name}.py")
        if rule not in {f.rule for f in caught}:
            findings.append(_miss(name, rule))
    return len(probes), findings


def _sanitizer_probe() -> tuple[int, list[Finding]]:
    from repro.staticcheck.concur.sanitizer import sanitized_online_smoke

    findings: list[Finding] = []
    if sanitized_online_smoke(fenced=False).violations == []:
        findings.append(_miss("unfenced-interleaving", "a vector-clock race"))
    return 1, findings


def run_concur_selftest() -> tuple[int, list[Finding]]:
    """Every seeded concurrency defect must be caught (zero false negatives)."""
    checks = 0
    findings: list[Finding] = []
    for probe in (_model_probes, _race_probes, _sanitizer_probe):
        c, f = probe()
        checks += c
        findings.extend(f)
    return checks, findings
