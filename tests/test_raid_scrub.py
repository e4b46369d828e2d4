"""Parity scrubbing and silent-corruption localisation."""

import numpy as np
import pytest

from repro.codes import get_code
from repro.raid import BlockArray, Raid5Array, Raid6Array
from repro.raid.scrub import scrub_raid5, scrub_raid6


@pytest.fixture
def raid5(rng):
    arr = BlockArray(5, 8, block_size=8)
    r5 = Raid5Array(arr)
    r5.format_with(rng.integers(0, 256, size=(r5.capacity_blocks, 8), dtype=np.uint8))
    return r5


def make_raid6(rng, name="code56", p=5, groups=4):
    code = get_code(name, p)
    arr = BlockArray(code.n_disks, groups * code.rows, block_size=8)
    r6 = Raid6Array(arr, code)
    data = rng.integers(0, 256, size=(r6.capacity_blocks, 8), dtype=np.uint8)
    r6.format_with(data)
    return r6, data


class TestRaid5Scrub:
    def test_clean_array(self, raid5):
        report = scrub_raid5(raid5)
        assert report.clean
        assert report.stripes_checked == 8

    def test_detects_but_cannot_locate(self, raid5):
        raid5.array.raw(2, 3)[0] ^= 0x40  # silent corruption
        report = scrub_raid5(raid5)
        assert report.inconsistent_stripes == [3]
        # RAID-5 exposes only the stripe, not the block — the motivation
        # for RAID-6's second chain.


class TestRaid6Scrub:
    @pytest.mark.parametrize("name", ["code56", "rdp", "xcode", "hdp"])
    def test_clean_array(self, name, rng):
        r6, _ = make_raid6(rng, name)
        report = scrub_raid6(r6)
        assert report.clean

    @pytest.mark.parametrize("name", ["code56", "rdp", "evenodd", "hcode", "xcode", "hdp"])
    def test_locates_and_repairs_single_corruption(self, name, rng):
        r6, data = make_raid6(rng, name)
        # corrupt one random DATA cell of group 1
        cell = r6.code.layout.data_cells[3]
        disk = r6.disk_of(1, cell[1])
        r6.array.raw(disk, r6.block_of(1, cell[0]))[0] ^= 0xA5
        report = scrub_raid6(r6)
        assert report.located == [(1, cell)]
        assert report.repaired == [(1, cell)]
        assert r6.verify()
        for lba in range(r6.capacity_blocks):
            assert np.array_equal(r6.read(lba), data[lba])

    def test_locates_corrupt_parity(self, rng):
        r6, _ = make_raid6(rng)
        pcell = next(iter(r6.code.layout.parity_cells))
        disk = r6.disk_of(0, pcell[1])
        r6.array.raw(disk, r6.block_of(0, pcell[0]))[0] ^= 1
        report = scrub_raid6(r6)
        assert report.located == [(0, pcell)]
        assert r6.verify()

    def test_repair_flag_off(self, rng):
        r6, _ = make_raid6(rng)
        cell = r6.code.layout.data_cells[0]
        disk = r6.disk_of(0, cell[1])
        r6.array.raw(disk, r6.block_of(0, cell[0]))[0] ^= 1
        report = scrub_raid6(r6, repair=False)
        assert report.located and not report.repaired
        assert not r6.verify()  # untouched

    def test_double_corruption_is_unlocatable(self, rng):
        r6, _ = make_raid6(rng)
        c1, c2 = r6.code.layout.data_cells[0], r6.code.layout.data_cells[7]
        for cell in (c1, c2):
            disk = r6.disk_of(2, cell[1])
            r6.array.raw(disk, r6.block_of(2, cell[0]))[0] ^= 0x11
        report = scrub_raid6(r6)
        assert 2 in report.inconsistent_groups
        assert 2 in report.unlocatable_groups
        assert not report.repaired

    def test_independent_groups_handled_separately(self, rng):
        r6, data = make_raid6(rng, groups=5)
        for g in (0, 4):
            cell = r6.code.layout.data_cells[g]
            disk = r6.disk_of(g, cell[1])
            r6.array.raw(disk, r6.block_of(g, cell[0]))[0] ^= 0xF0
        report = scrub_raid6(r6)
        assert sorted(g for g, _ in report.repaired) == [0, 4]
        assert r6.verify()


class TestScrubAfterMigration:
    """Scrubbing the *product* of a RAID-5 -> Code 5-6 conversion.

    The paper's endgame: the migrated array must be a first-class
    RAID-6 — scrub-clean straight out of the converter, and able to
    locate/repair silent corruption that RAID-5 could only detect.
    """

    def _converted(self, rng, groups=4):
        from repro.codes import get_code
        from repro.migration import build_plan, execute_plan, prepare_source_array

        plan = build_plan("code56", "direct", 5, groups=groups)
        array, data = prepare_source_array(plan, rng)
        execute_plan(plan, array, data)
        return Raid6Array(array, get_code("code56", 5)), data

    def test_fresh_conversion_is_scrub_clean(self, rng):
        r6, data = self._converted(rng)
        report = scrub_raid6(r6)
        assert report.clean
        assert report.groups_checked == 4
        for lba in range(r6.capacity_blocks):
            assert np.array_equal(r6.read(lba), data[lba])

    def test_post_conversion_corruption_is_healed(self, rng):
        r6, data = self._converted(rng)
        cell = r6.code.layout.data_cells[5]
        disk = r6.disk_of(2, cell[1])
        r6.array.raw(disk, r6.block_of(2, cell[0]))[0] ^= 0x3C
        report = scrub_raid6(r6)
        assert report.located == [(2, cell)]
        assert report.repaired == [(2, cell)]
        assert r6.verify()
        for lba in range(r6.capacity_blocks):
            assert np.array_equal(r6.read(lba), data[lba])

    def test_corrupt_migrated_horizontal_parity_located(self, rng):
        """The horizontal parities were *inherited* from the RAID-5, not
        rewritten — corruption there must still be locatable."""
        from repro.codes.geometry import ChainKind

        r6, _ = self._converted(rng)
        # Code 5-6 horizontal parities rotate with the RAID-5 layout, so
        # select by chain kind rather than by column
        pcell = next(
            ch.parity
            for ch in r6.code.layout.chains
            if ch.kind is ChainKind.HORIZONTAL
        )
        disk = r6.disk_of(1, pcell[1])
        r6.array.raw(disk, r6.block_of(1, pcell[0]))[0] ^= 0x80
        report = scrub_raid6(r6)
        assert report.located == [(1, pcell)]
        assert r6.verify()


class TestDegradedScrub:
    """A failed disk's raw bytes are stale by design: with disk 4 (the
    diagonal disk at p=5) failed, a write skips the diagonal update, and
    a scrub would "locate" the stale parity and write into the dead disk."""

    def test_scrub_and_verify_refuse_a_failed_disk(self, rng):
        r6, _ = make_raid6(rng)
        r6.array.fail_disk(4)
        r6.write(0, rng.integers(0, 256, 8, dtype=np.uint8))
        before = r6.array.snapshot()
        with pytest.raises(RuntimeError, match=r"rebuild failed disks \[4\]"):
            scrub_raid6(r6)
        with pytest.raises(RuntimeError, match=r"rebuild failed disks \[4\]"):
            r6.verify()
        assert np.array_equal(r6.array.snapshot(), before)
        r6.rebuild_disks(4)
        assert scrub_raid6(r6).clean and r6.verify()

    def test_raid5_scrub_and_verify_refuse_a_failed_disk(self, raid5, rng):
        """Disk 0's new data lives only in the refreshed parity — a correct
        degraded state whose stale raw bytes must not read as corruption."""
        raid5.array.fail_disk(0)
        raid5.write(0, rng.integers(0, 256, 8, dtype=np.uint8))
        with pytest.raises(RuntimeError, match=r"rebuild failed disks \[0\] before scrubbing"):
            scrub_raid5(raid5)
        with pytest.raises(RuntimeError, match=r"rebuild failed disks \[0\] before verifying"):
            raid5.verify()
        raid5.rebuild_disk(0)
        assert scrub_raid5(raid5).clean and raid5.verify()

    def test_raid5_ignores_a_failed_disk_beyond_its_width(self, raid5):
        raid5.array.add_disk()
        raid5.array.fail_disk(5)
        assert scrub_raid5(raid5).clean and raid5.verify()

    def test_migrator_refuses_a_degraded_source(self, rng):
        from repro.core import Code56Migrator

        r5 = Raid5Array(BlockArray(4, 8, block_size=8))
        r5.format_with(rng.integers(0, 256, size=(r5.capacity_blocks, 8), dtype=np.uint8))
        migrator = Code56Migrator(r5.array, p=5)
        migrator.check_source()
        r5.array.fail_disk(2)
        with pytest.raises(RuntimeError, match=r"rebuild failed disks \[2\]"):
            migrator.check_source()
