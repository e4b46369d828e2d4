"""Compiled execution layer vs the audited engine.

The compiled executor must be *indistinguishable* from the audited
engine from outside: byte-identical arrays, identical per-disk read and
write counters, and a passing full audit — for every supported
(code, approach) pair.  Plans that cannot be batched faithfully must be
rejected at compile time, never silently diverged from.
"""

import dataclasses

import numpy as np
import pytest

from repro.codes.decoder import apply_recovery_plan
from repro.compiled import (
    UnsupportedPlanError,
    assemble_all_groups,
    batch_recover_columns,
    clear_program_cache,
    compile_plan,
    execute_compiled,
    execute_plan_compiled,
    plan_cache_key,
)
from repro.migration import (
    build_plan,
    execute_plan,
    prepare_source_array,
    supported_conversions,
    verify_conversion,
)
from repro.migration.approaches import alignment_cycle
from repro.migration.engine import assemble_group
from repro.migration.plan import Location
from repro.raid import BlockArray

CONVERSIONS = supported_conversions()


def _cycle_plan(code, approach, p, cycles=1, block_size=8):
    n = build_plan(code, approach, p, groups=1).n
    groups = alignment_cycle(code, p, n) * cycles
    return build_plan(code, approach, p, groups=groups)


def _both_engines(plan, block_size=8, seed=0):
    audited, data = prepare_source_array(
        plan, np.random.default_rng(seed), block_size=block_size
    )
    execute_plan(plan, audited, data)
    compiled, _ = prepare_source_array(
        plan, np.random.default_rng(seed), block_size=block_size
    )
    result = execute_plan_compiled(plan, compiled, data)
    return audited, compiled, result


class TestEquivalence:
    # groups=None is one alignment cycle; p=13 runs two groups of 512 B blocks
    @pytest.mark.parametrize("p,groups,block_size", [
        pytest.param(5, None, 8, id="5"),
        pytest.param(7, None, 8, id="7"),
        pytest.param(13, 2, 512, id="13"),
    ])
    @pytest.mark.parametrize("code,approach", CONVERSIONS)
    def test_bytes_counters_and_audit(self, code, approach, p, groups, block_size):
        if groups is None:
            plan = _cycle_plan(code, approach, p)
        else:
            plan = build_plan(code, approach, p, groups=groups)
        audited, compiled, result = _both_engines(plan, block_size=block_size)
        assert np.array_equal(audited.snapshot(), compiled.snapshot())
        assert np.array_equal(audited.reads, compiled.reads)
        assert np.array_equal(audited.writes, compiled.writes)
        assert result.measured_reads == plan.read_ios
        assert result.measured_writes == plan.write_ios
        assert verify_conversion(result)

    def test_multiple_cycles_and_block_sizes(self):
        for bs in (1, 8, 64):
            plan = _cycle_plan("code56", "direct", 5, cycles=3)
            audited, compiled, _ = _both_engines(plan, block_size=bs)
            assert np.array_equal(audited.snapshot(), compiled.snapshot())
            assert np.array_equal(audited.reads, compiled.reads)
            assert np.array_equal(audited.writes, compiled.writes)

    def test_geometry_mismatch_rejected(self):
        plan = _cycle_plan("code56", "direct", 5)
        program = compile_plan(plan)
        wrong = BlockArray(plan.n + 1, plan.blocks_per_disk, 8)
        with pytest.raises(ValueError, match="geometry"):
            execute_compiled(program, wrong)


class TestProgramCache:
    def test_identical_plans_share_programs(self):
        clear_program_cache()
        a = compile_plan(_cycle_plan("rdp", "via-raid0", 5))
        b = compile_plan(_cycle_plan("rdp", "via-raid0", 5))
        assert a is b
        assert plan_cache_key(_cycle_plan("rdp", "via-raid0", 5)) == a.key

    def test_distinct_plans_do_not_collide(self):
        a = compile_plan(_cycle_plan("evenodd", "via-raid0", 5))
        b = compile_plan(_cycle_plan("evenodd", "via-raid4", 5))
        assert a is not b and a.key != b.key

    def test_cache_bypass(self):
        plan = _cycle_plan("xcode", "direct", 5)
        a = compile_plan(plan)
        b = compile_plan(plan, use_cache=False)
        assert a is not b


class TestHazardRejection:
    # The conflicts are planted in a one-tile plan (``untiled``): its
    # group works are its cycle, so editing them edits what compiles.
    def test_cross_group_write_conflict(self):
        plan = build_plan("code56", "direct", 5, groups=2).untiled()
        works = sorted(plan.group_works, key=lambda g: (g.phase, g.group))
        donor, victim = works[0], works[1]
        cell, loc = next(iter(donor.parity_writes.items()))
        vcell = next(iter(victim.parity_writes))
        victim.parity_writes[vcell] = Location(loc.disk, loc.block)
        with pytest.raises(UnsupportedPlanError, match="multiple groups"):
            compile_plan(plan, use_cache=False)

    def test_cross_tile_collision(self):
        # a tiling whose steps do not move the source rows lands every
        # tile on tile 0's blocks; the hazard check sees the tiled vectors
        plan = build_plan("code56", "direct", 5, groups=2)
        assert plan.tiling.tiles == 2
        frozen = dataclasses.replace(
            plan, tiling=dataclasses.replace(plan.tiling, disk_step=(0,) * plan.n)
        )
        with pytest.raises(UnsupportedPlanError, match="multiple groups"):
            compile_plan(frozen, use_cache=False)

    def test_audited_parity_overwritten(self):
        plan = build_plan("code56", "direct", 5, groups=2).untiled()
        works = sorted(plan.group_works, key=lambda g: (g.phase, g.group))
        gw = works[0]
        # redirect a parity write onto a reused (audited) RAID-5 parity
        reused = next(
            plan.cell_locations[(gw.group, cell)]
            for cell in plan.code.layout.parity_cells
            if cell not in gw.parity_writes
            and cell not in plan.code.layout.virtual_cells
            and (gw.group, cell) in plan.cell_locations
        )
        cell = next(iter(gw.parity_writes))
        gw.parity_writes[cell] = Location(reused.disk, reused.block)
        with pytest.raises(UnsupportedPlanError):
            compile_plan(plan, use_cache=False)


class TestBatchedRecovery:
    @pytest.mark.parametrize("code,approach", [("code56", "direct"), ("hdp", "direct")])
    def test_assemble_matches_per_group(self, code, approach):
        plan = _cycle_plan(code, approach, 5)
        array, data = prepare_source_array(plan, np.random.default_rng(3), block_size=8)
        execute_plan(plan, array, data)
        stripes = assemble_all_groups(plan, array)
        assert stripes.shape[0] == plan.groups
        for g in range(plan.groups):
            assert np.array_equal(stripes[g], assemble_group(plan, array, g))

    def test_batch_recover_matches_loop(self):
        plan = _cycle_plan("code56", "direct", 5)
        array, data = prepare_source_array(plan, np.random.default_rng(4), block_size=8)
        execute_plan(plan, array, data)
        code = plan.code
        stripes = assemble_all_groups(plan, array)
        cols = code.layout.physical_cols
        for c1, c2 in [(cols[0], cols[2]), (cols[1], cols[-1])]:
            recovery = code.plan_column_recovery(c1, c2)
            batched = batch_recover_columns(recovery, stripes.copy(), c1, c2)
            for g in range(plan.groups):
                broken = stripes[g].copy()
                broken[:, c1, :] = 0
                broken[:, c2, :] = 0
                apply_recovery_plan(recovery, broken)
                assert np.array_equal(batched[g], broken)
            assert np.array_equal(batched, stripes)

    def test_batch_recover_requires_4d(self):
        plan = _cycle_plan("code56", "direct", 5)
        recovery = plan.code.plan_column_recovery(0, 1)
        with pytest.raises(ValueError, match="groups"):
            batch_recover_columns(recovery, np.zeros((4, 5, 8), dtype=np.uint8), 0, 1)
