"""Runtime vector-clock sanitizer behind the counted BlockArray I/O API."""

import numpy as np
import pytest

from repro.migration.online import OnlineCode56Conversion
from repro.raid import BlockArray, Raid5Array, Raid5Layout
from repro.staticcheck.concur.sanitizer import (
    BlockSanitizer,
    SharedStateRaceError,
    sanitized_online_smoke,
)


class TestVectorClocks:
    def test_same_actor_is_program_ordered(self):
        san = BlockSanitizer()
        san.record_write(0, 0)
        san.record_read(0, 0)
        san.record_write(0, 0)
        assert san.violations == []

    def test_unfenced_cross_actor_write_read_races(self):
        san = BlockSanitizer()
        with san.actor("a"):
            san.record_write(0, 0)
        with san.actor("b"):
            san.record_read(0, 0)
        assert [v.kind for v in san.violations] == ["write-read"]
        assert san.violations[0].prior_actor == "a"

    def test_fence_orders_the_pair(self):
        san = BlockSanitizer()
        with san.actor("a"):
            san.record_write(0, 0)
        san.fence("a", "b")
        with san.actor("b"):
            san.record_read(0, 0)
        assert san.violations == []

    def test_read_write_conflict(self):
        san = BlockSanitizer()
        with san.actor("a"):
            san.record_read(1, 2)
        with san.actor("b"):
            san.record_write(1, 2)
        assert [v.kind for v in san.violations] == ["read-write"]

    def test_write_write_conflict(self):
        san = BlockSanitizer()
        with san.actor("a"):
            san.record_write(1, 2)
        with san.actor("b"):
            san.record_write(1, 2)
        assert "write-write" in [v.kind for v in san.violations]

    def test_distinct_regions_never_conflict(self):
        san = BlockSanitizer()
        with san.actor("a"):
            san.record_write(0, 0)
        with san.actor("b"):
            san.record_write(0, 1)
            san.record_write(1, 0)
        assert san.violations == []

    def test_fence_is_directional(self):
        """a->b orders b after a, but not a after b."""
        san = BlockSanitizer()
        with san.actor("b"):
            san.record_write(0, 0)
        san.fence("a", "b")  # wrong direction for this conflict
        with san.actor("a"):
            san.record_read(0, 0)
        assert [v.kind for v in san.violations] == ["write-read"]

    def test_strict_mode_raises(self):
        san = BlockSanitizer(strict=True)
        with san.actor("a"):
            san.record_write(0, 0)
        with san.actor("b"), pytest.raises(SharedStateRaceError):
            san.record_read(0, 0)


def build_array(rng, p=5, groups=2, bs=8):
    m = p - 1
    array = BlockArray(m, groups * (p - 1), block_size=bs)
    r5 = Raid5Array(array, Raid5Layout.LEFT_ASYMMETRIC)
    data = rng.integers(0, 256, size=(r5.capacity_blocks, bs), dtype=np.uint8)
    r5.format_with(data.copy())
    array.add_disk()
    return array


class TestBlockArrayIntegration:
    def test_detached_is_the_default(self, rng):
        assert build_array(rng).sanitizer is None

    def test_counters_identical_with_and_without_sanitizer(self, rng):
        """Acceptance gate: attaching the shadow recorder must not move
        the I/O counters (or the bytes) by a single unit."""
        state = rng.bit_generator.state
        plain = build_array(rng)
        OnlineCode56Conversion(plain, 5).run([])

        rng.bit_generator.state = state
        shadowed = build_array(rng)
        san = BlockSanitizer()
        shadowed.attach_sanitizer(san)
        OnlineCode56Conversion(shadowed, 5).run([])

        assert np.array_equal(plain.reads, shadowed.reads)
        assert np.array_equal(plain.writes, shadowed.writes)
        assert np.array_equal(plain.snapshot(), shadowed.snapshot())
        assert san.ops > 0  # and it really was recording

    def test_counted_io_is_shadowed(self, rng):
        array = build_array(rng)
        san = BlockSanitizer()
        array.attach_sanitizer(san)
        array.read(0, 0)
        array.write(0, 0, np.zeros(8, dtype=np.uint8))
        assert san.ops == 2

    def test_uncounted_io_is_invisible(self, rng):
        """raw/snapshot are recovery-scan accessors — never recorded."""
        array = build_array(rng)
        san = BlockSanitizer()
        array.attach_sanitizer(san)
        array.raw(0, 0)
        array.snapshot()
        assert san.ops == 0

    def test_bulk_io_is_shadowed_per_block(self, rng):
        array = build_array(rng)
        san = BlockSanitizer()
        array.attach_sanitizer(san)
        disks = np.array([0, 1, 2])
        blocks = np.array([0, 0, 0])
        array.read_blocks(disks, blocks)
        assert san.ops == 3


class TestOnlineSmoke:
    def test_fenced_run_is_violation_free(self):
        san = sanitized_online_smoke(fenced=True)
        assert san.violations == []
        assert san.ops > 0

    def test_every_chain_read_is_shadowed(self, monkeypatch):
        """A sanitized array is not fused-usable (a fused run credits its
        chain reads without recording them), so the budget-1 smoke runs
        the audited loop and records every read: 8 parities x 3 chain
        reads, 2 per app write (4 writes) and 2 diagonal patches."""
        reads = []
        record_read = BlockSanitizer.record_read

        def counted(self, disk, block):
            reads.append((disk, block))
            record_read(self, disk, block)

        monkeypatch.setattr(BlockSanitizer, "record_read", counted)
        san = sanitized_online_smoke(fenced=True)
        assert len(reads) == 8 * 3 + 4 * 2 + 2
        assert san.ops == 52

    def test_unfenced_run_races(self):
        san = sanitized_online_smoke(fenced=False)
        assert len(san.violations) > 0
        kinds = {v.kind for v in san.violations}
        assert kinds <= {"write-read", "read-write", "write-write"}
        actors = {v.actor for v in san.violations} | {
            v.prior_actor for v in san.violations
        }
        assert actors <= {"main", "conversion", "app"}

    def test_violation_describe_names_the_region(self):
        san = sanitized_online_smoke(fenced=False)
        text = san.violations[0].describe()
        assert "race on (disk" in text and "fence" in text
