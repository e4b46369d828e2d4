"""Scrubbing plane-injected corruption after a faulty conversion.

A torn diagonal-parity write that survives the conversion (no crash, so
no journal rollback) is silent corruption; ``scrub_raid6(repair=True)``
must locate and repair a single such error, and must report a chain
carrying *two* errors as unlocatable instead of silently "fixing" it.
"""

import numpy as np

from repro.codes.registry import get_code
from repro.faults import (
    FaultPlane,
    FaultScenario,
    TornWrite,
    execute_checkpointed,
)
from repro.migration.approaches import build_plan
from repro.migration.engine import prepare_source_array, verify_conversion
from repro.raid.raid6 import Raid6Array
from repro.raid.scrub import scrub_raid6

# in the audited engine's op stream at p=5, groups=2, ops 12-15 are group
# 0's four diagonal-parity writes (12 chain reads precede them)
FIRST_PARITY_WRITE_OP = 12


def convert_with_faults(scenario, seed=0):
    plan = build_plan("code56", "direct", 5, groups=2)
    array, data = prepare_source_array(
        plan, np.random.default_rng(seed), block_size=8
    )
    plane = FaultPlane(scenario)
    plane.attach(array)
    run = execute_checkpointed(plan, array, data)
    plane.detach()
    raid6 = Raid6Array(array, get_code("code56", plan.p))
    return plan, array, run, raid6, plane


class TestSingleErrorRepair:
    def test_torn_parity_located_and_repaired(self):
        scenario = FaultScenario(
            torn_writes=(TornWrite(op=FIRST_PARITY_WRITE_OP, keep_fraction=0.5),)
        )
        plan, array, run, raid6, plane = convert_with_faults(scenario)
        assert plane.counters["torn_writes"] == 1
        assert not raid6.verify()  # the tear really corrupted a parity
        report = scrub_raid6(raid6, repair=True)
        assert len(report.repaired) == 1
        assert not report.unlocatable_groups
        group, cell = report.repaired[0]
        assert group == 0 and cell[1] == 4  # a diagonal-parity cell
        assert raid6.verify()
        assert verify_conversion(run.result, check_io_counters=False)

    def test_each_single_error_group_repaired_independently(self):
        # one torn parity in each group: two single-error chains
        scenario = FaultScenario(
            torn_writes=(
                TornWrite(op=FIRST_PARITY_WRITE_OP, keep_fraction=0.5),
                TornWrite(op=FIRST_PARITY_WRITE_OP + 17, keep_fraction=0.5),
            )
        )
        plan, array, run, raid6, plane = convert_with_faults(scenario)
        assert plane.counters["torn_writes"] == 2
        report = scrub_raid6(raid6, repair=True)
        assert len(report.repaired) == 2
        assert not report.unlocatable_groups
        assert raid6.verify()


class TestTwoErrorChain:
    def test_reported_unlocatable_not_silently_fixed(self):
        scenario = FaultScenario(
            torn_writes=(TornWrite(op=FIRST_PARITY_WRITE_OP, keep_fraction=0.5),)
        )
        plan, array, run, raid6, plane = convert_with_faults(scenario)
        assert plane.counters["torn_writes"] == 1
        # second error in the SAME diagonal chain: corrupt one of the torn
        # parity's data members (chain of parity cell (0, 4))
        code = raid6.code
        chain = next(
            c for c in code.layout.chains if c.parity == (0, 4)
        )
        r, c = next(m for m in chain.members if m not in code.layout.virtual_cells)
        disk = raid6.disk_of(0, c)
        block = raid6.block_of(0, r)
        before = array.snapshot()
        array.raw(disk, block)[-1] ^= 0x01
        tampered = array.snapshot()
        report = scrub_raid6(raid6, repair=True)
        assert 0 in report.unlocatable_groups
        # nothing in the ambiguous group was "repaired" behind our back
        assert not any(g == 0 for g, _cell in report.repaired)
        assert np.array_equal(array.snapshot(), tampered)
        assert not raid6.verify()


class TestCrashTearIsJournalHealed:
    def test_crash_torn_write_rolled_back_not_scrub_visible(self):
        """A tear from a crash is healed by the journal, not the scrubber."""
        from repro.faults import ConversionCrash, ConversionJournal

        plan = build_plan("code56", "direct", 5, groups=2)
        array, data = prepare_source_array(
            plan, np.random.default_rng(0), block_size=8
        )
        # half-way through the conversion's 36 crashable events
        plane = FaultPlane(FaultScenario(crash_at=18, crash_tear=0.5))
        plane.attach(array)
        journal = ConversionJournal()
        while True:
            try:
                run = execute_checkpointed(plan, array, data, journal)
                break
            except ConversionCrash:
                plane.disarm_crash()
        plane.detach()
        raid6 = Raid6Array(array, get_code("code56", plan.p))
        assert scrub_raid6(raid6, repair=False).clean
        assert raid6.verify()
