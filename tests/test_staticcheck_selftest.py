"""Seeded faults: zero false negatives on the fault corpus."""

import numpy as np

from repro.codes.registry import CODE_CATALOG
from repro.compiled.compiler import compile_plan, plan_cache_key
from repro.migration.approaches import build_plan
from repro.staticcheck.dataflow import analyze_program
from repro.staticcheck.prover import prove_code
from repro.staticcheck.selftest import (
    _copy_program,
    crash_recovery_checks,
    mutated_fused_programs,
    mutated_layouts,
    mutated_programs,
    run_selftest,
)


class TestFaultCorpus:
    def test_covers_every_catalog_code(self):
        names = [name for name, _layout in mutated_layouts()]
        assert names == sorted(CODE_CATALOG)

    def test_every_layout_fault_detected(self):
        for name, broken in mutated_layouts():
            _checks, findings = prove_code(name, 5, layout=broken)
            assert findings, f"prover missed the seeded fault in {name}"

    def test_every_program_fault_detected(self):
        cases = mutated_programs()
        assert len(cases) >= 5
        for description, plan, program in cases:
            _checks, findings = analyze_program(plan, program)
            assert findings, f"dataflow missed: {description}"

    def test_every_fused_fault_detected(self):
        from repro.staticcheck.dataflow import analyze_fused

        cases = mutated_fused_programs()
        assert len(cases) >= 3
        for description, plan, program in cases:
            _checks, findings = analyze_fused(plan, program)
            assert findings, f"SC-D006 missed: {description}"

    def test_every_crash_recovery_drill_passes(self):
        drills = crash_recovery_checks()
        # the offline journal plus the online watermark
        assert len(drills) == 2
        for description, recovered in drills:
            assert recovered, f"recovery drill failed: {description}"

    def test_selftest_green_on_healthy_tree(self):
        checks, findings = run_selftest()
        expected = (
            len(mutated_layouts())
            + len(mutated_programs())
            + len(mutated_fused_programs())
            + len(crash_recovery_checks())
        )
        assert checks == expected
        assert findings == []


class TestNoCachePoisoning:
    def test_mutations_do_not_leak_into_cache(self):
        """mutated_programs must not corrupt the shared program cache."""
        plan = build_plan("code56", "direct", 5, groups=2)
        before = compile_plan(plan)  # seeds / reads the cache
        snapshot = [ph.parity_block.copy() for ph in before.phases]
        mutated_programs()
        after = compile_plan(build_plan("code56", "direct", 5, groups=2))
        assert plan_cache_key(plan) == after.key
        for snap, ph in zip(snapshot, after.phases):
            assert np.array_equal(snap, ph.parity_block)

    def test_copy_program_is_deep(self):
        plan = build_plan("code56", "direct", 5, groups=2)
        base = compile_plan(plan, use_cache=False)
        clone = _copy_program(base)
        clone.phases[0].parity_block[0] += 1
        assert base.phases[0].parity_block[0] != clone.phases[0].parity_block[0]
