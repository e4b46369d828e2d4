"""Degraded-mode conversion: RAID-5 → RAID-6 with a failed disk.

The direct Code 5-6 conversion never writes the old RAID-5 columns, so
row parity stays valid throughout and a failed data disk is survivable
via reconstruct-on-read.  The converted array must then rebuild the
failed disk and pass both the decoder's verification and the scrubber.
"""

import numpy as np
import pytest

from repro.codes.registry import get_code
from repro.faults import (
    ConversionJournal,
    FaultPlane,
    FaultScenario,
    ReadFaultError,
    ReconstructingReader,
    SectorError,
    execute_checkpointed,
    plan_is_zero_movement,
)
from repro.migration.approaches import build_plan
from repro.migration.engine import prepare_source_array, verify_conversion
from repro.raid.raid6 import Raid6Array
from repro.raid.scrub import scrub_raid6


def degraded_setup(p=5, groups=2, seed=0, bs=8, failed_disk=1):
    plan = build_plan("code56", "direct", p, groups=groups)
    array, data = prepare_source_array(
        plan, np.random.default_rng(seed), block_size=bs
    )
    if failed_disk is not None:
        array.fail_disk(failed_disk)
    return plan, array, data


class TestZeroMovementPredicate:
    def test_direct_conversion_qualifies(self):
        assert plan_is_zero_movement(build_plan("code56", "direct", 5, groups=2))

    @pytest.mark.parametrize("code", ["evenodd", "rdp"])
    def test_data_moving_plans_do_not(self, code):
        assert not plan_is_zero_movement(build_plan(code, "via-raid4", 5, groups=2))


class TestDegradedConversion:
    @pytest.mark.parametrize("failed_disk", [0, 2])
    def test_completes_and_rebuilds(self, failed_disk, rng):
        plan, array, data = degraded_setup(failed_disk=failed_disk)
        plane = FaultPlane(FaultScenario())
        plane.attach(array)
        run = execute_checkpointed(plan, array, data)
        assert run.degraded
        assert plane.counters["reconstructed_blocks"] > 0
        plane.detach()
        raid6 = Raid6Array(array, get_code("code56", plan.p))
        raid6.rebuild_disks(failed_disk)
        assert verify_conversion(run.result, check_io_counters=False)
        assert raid6.verify()
        assert scrub_raid6(raid6).clean

    def test_crash_resume_while_degraded(self):
        plan, array, data = degraded_setup()
        ref_plan, ref_array, ref_data = degraded_setup()
        execute_checkpointed(ref_plan, ref_array, ref_data)
        plane = FaultPlane(FaultScenario(crash_at=6, crash_tear=0.5))
        plane.attach(array)
        journal = ConversionJournal()
        from repro.faults import ConversionCrash

        crashes = 0
        while True:
            try:
                run = execute_checkpointed(plan, array, data, journal)
                break
            except ConversionCrash:
                crashes += 1
                plane.disarm_crash()
        assert crashes == 1
        plane.detach()
        assert np.array_equal(array.snapshot(), ref_array.snapshot())
        assert verify_conversion(run.result, check_io_counters=False)

    def test_failed_new_disk_is_refused(self):
        plan, array, data = degraded_setup(failed_disk=4)  # the diagonal column
        with pytest.raises(ValueError, match="hot-added"):
            execute_checkpointed(plan, array, data)

    def test_data_moving_plan_is_refused_degraded(self):
        plan = build_plan("rdp", "via-raid4", 5, groups=2)
        array, data = prepare_source_array(
            plan, np.random.default_rng(0), block_size=8
        )
        array.fail_disk(1)
        with pytest.raises(ValueError, match="zero"):
            execute_checkpointed(plan, array, data)

    def test_sector_errors_reconstructed_through_row(self):
        # cell (2, 2) lies on a stored diagonal, so the conversion reads it
        plan, array, data = degraded_setup(failed_disk=None)
        plane = FaultPlane(FaultScenario(sector_errors=(SectorError(2, 2),)))
        plane.attach(array)
        run = execute_checkpointed(plan, array, data)
        assert plane.counters["sector_errors_hit"] >= 1
        assert plane.counters["reconstructed_blocks"] >= 1
        assert verify_conversion(run.result, check_io_counters=False)


class TestReconstructingReader:
    def test_reconstructs_failed_disk(self, rng):
        plan, array, _data = degraded_setup(failed_disk=1)
        reader = ReconstructingReader(array, m=4)
        # the row invariant: the reconstruction equals the XOR of the rest
        expect = np.zeros(8, dtype=np.uint8)
        for d in (0, 2, 3):
            expect ^= array.raw(d, 0)
        assert np.array_equal(reader.read(1, 0), expect)

    def test_pass_through_mode_reraises(self):
        plan, array, _data = degraded_setup(failed_disk=1)
        reader = ReconstructingReader(array, m=4, allow_reconstruction=False)
        from repro.raid.array import DiskFailure

        with pytest.raises(DiskFailure):
            reader.read(1, 0)

    def test_sector_error_hidden_by_reconstruction(self, rng):
        plan = build_plan("code56", "direct", 5, groups=2)
        array, _ = prepare_source_array(
            plan, np.random.default_rng(0), block_size=8
        )
        truth = array.raw(2, 3).copy()
        plane = FaultPlane(FaultScenario(sector_errors=(SectorError(2, 3),)))
        plane.attach(array)
        reader = ReconstructingReader(array, m=4)
        assert np.array_equal(reader.read(2, 3), truth)
        with pytest.raises(ReadFaultError):
            ReconstructingReader(array, m=4, allow_reconstruction=False).read(2, 3)

    def test_check_ok_tracks_failed_disks(self):
        plan, array, _data = degraded_setup(failed_disk=1)
        reader = ReconstructingReader(array, m=4)
        assert not reader.check_ok(1)
        assert reader.check_ok(0)
