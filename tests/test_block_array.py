"""BlockArray: storage, failure injection, I/O accounting."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.raid import BlockArray, DiskFailure


@pytest.fixture
def arr():
    return BlockArray(4, 8, block_size=16)


class TestBasicIO:
    def test_write_read_roundtrip(self, arr, rng):
        payload = rng.integers(0, 256, 16, dtype=np.uint8)
        arr.write(2, 3, payload)
        assert np.array_equal(arr.read(2, 3), payload)

    def test_read_returns_copy(self, arr, rng):
        payload = rng.integers(0, 256, 16, dtype=np.uint8)
        arr.write(0, 0, payload)
        got = arr.read(0, 0)
        got[0] ^= 0xFF
        assert np.array_equal(arr.read(0, 0), payload)

    def test_counters(self, arr, rng):
        payload = rng.integers(0, 256, 16, dtype=np.uint8)
        arr.write(1, 0, payload)
        arr.write(1, 1, payload)
        arr.read(1, 0)
        arr.write_zero(3, 0)
        assert arr.writes[1] == 2
        assert arr.reads[1] == 1
        assert arr.writes[3] == 1
        assert arr.total_ios == 4
        arr.reset_counters()
        assert arr.total_ios == 0

    def test_raw_and_snapshot_uncounted(self, arr):
        arr.raw(0, 0)
        arr.snapshot()
        assert arr.total_ios == 0

    def test_bounds(self, arr, rng):
        payload = rng.integers(0, 256, 16, dtype=np.uint8)
        with pytest.raises(IndexError):
            arr.read(4, 0)
        with pytest.raises(IndexError):
            arr.read(0, 8)
        with pytest.raises(ValueError):
            arr.write(0, 0, payload[:8])

    def test_write_zero(self, arr, rng):
        arr.write(0, 0, rng.integers(0, 256, 16, dtype=np.uint8))
        arr.write_zero(0, 0)
        assert not arr.read(0, 0).any()


class TestBulkIO:
    def test_read_blocks_counts_and_values(self, arr, rng):
        payloads = rng.integers(0, 256, (3, 16), dtype=np.uint8)
        for i, (d, b) in enumerate([(0, 1), (0, 5), (2, 7)]):
            arr.write(d, b, payloads[i])
        arr.reset_counters()
        got = arr.read_blocks([0, 0, 2], [1, 5, 7])
        assert np.array_equal(got, payloads)
        assert arr.reads.tolist() == [2, 0, 1, 0]
        assert arr.total_writes == 0

    def test_read_blocks_returns_copy(self, arr, rng):
        payload = rng.integers(0, 256, 16, dtype=np.uint8)
        arr.write(1, 2, payload)
        got = arr.read_blocks([1], [2])
        got[0, 0] ^= 0xFF
        assert np.array_equal(arr.read(1, 2), payload)

    def test_write_blocks_last_wins_and_counts_duplicates(self, arr, rng):
        payloads = rng.integers(0, 256, (2, 16), dtype=np.uint8)
        arr.write_blocks([3, 3], [0, 0], payloads)
        assert np.array_equal(arr.raw(3, 0), payloads[1])  # queue order
        assert arr.writes[3] == 2  # both physical writes counted

    def test_write_zero_and_trim(self, arr, rng):
        arr.write(0, 0, rng.integers(1, 256, 16, dtype=np.uint8))
        arr.write(1, 1, rng.integers(1, 256, 16, dtype=np.uint8))
        arr.reset_counters()
        arr.write_zero_blocks([0], [0])
        arr.trim_blocks([1], [1])
        assert not arr.raw(0, 0).any() and not arr.raw(1, 1).any()
        assert arr.writes.tolist() == [1, 0, 0, 0]  # trim is uncounted

    def test_gather_raw_uncounted(self, arr, rng):
        payload = rng.integers(0, 256, 16, dtype=np.uint8)
        arr.write(2, 3, payload)
        arr.reset_counters()
        assert np.array_equal(arr.gather_raw([2], [3])[0], payload)
        assert arr.total_ios == 0

    def test_bulk_bounds_and_shapes(self, arr):
        with pytest.raises(ValueError, match="same length"):
            arr.read_blocks([0, 1], [0])
        with pytest.raises(IndexError):
            arr.read_blocks([4], [0])
        with pytest.raises(IndexError):
            arr.read_blocks([0], [8])
        with pytest.raises(ValueError, match="payloads"):
            arr.write_blocks([0], [0], np.zeros((2, 16), dtype=np.uint8))

    def test_bulk_respects_failures(self, arr):
        arr.fail_disk(2)
        with pytest.raises(DiskFailure):
            arr.read_blocks([0, 2], [0, 0])

    def test_empty_bulk_is_noop(self, arr):
        assert arr.read_blocks([], []).shape == (0, 16)
        arr.write_blocks([], [], np.zeros((0, 16), dtype=np.uint8))
        assert arr.total_ios == 0

    def test_bulk_view_is_a_view(self, arr):
        view = arr.bulk_view(slice(0, 2), slice(0, 4))
        view[...] = 7
        assert arr.raw(1, 3)[0] == 7
        assert arr.total_ios == 0
        with pytest.raises(TypeError):
            arr.bulk_view([0, 1], slice(0, 4))

    def test_credit_ios(self, arr):
        arr.credit_ios(reads=[1, 2, 0, 0], writes=[0, 0, 0, 3])
        assert arr.reads.tolist() == [1, 2, 0, 0]
        assert arr.writes[3] == 3
        with pytest.raises(ValueError, match="shape"):
            arr.credit_ios(reads=[1, 2])
        with pytest.raises(ValueError, match="non-negative"):
            arr.credit_ios(writes=[0, 0, -1, 0])

    def test_restore(self, arr, rng):
        arr.write(0, 0, rng.integers(1, 256, 16, dtype=np.uint8))
        snap = arr.snapshot()
        arr.write_zero(0, 0)
        arr.reset_counters()
        arr.restore(snap)
        assert np.array_equal(arr.snapshot(), snap)
        assert arr.total_ios == 0
        with pytest.raises(ValueError, match="shape"):
            arr.restore(snap[:1])


class TestFailures:
    def test_failed_disk_rejects_io(self, arr, rng):
        arr.fail_disk(1)
        with pytest.raises(DiskFailure):
            arr.read(1, 0)
        with pytest.raises(DiskFailure):
            arr.write(1, 0, rng.integers(0, 256, 16, dtype=np.uint8))
        assert arr.failed_disks == {1}

    def test_replace_clears_contents(self, arr, rng):
        arr.write(1, 0, rng.integers(1, 256, 16, dtype=np.uint8))
        arr.fail_disk(1)
        arr.replace_disk(1)
        assert not arr.read(1, 0).any()
        assert arr.failed_disks == frozenset()


class TestTopology:
    def test_add_disk(self, arr):
        idx = arr.add_disk()
        assert idx == 4
        assert arr.n_disks == 5
        assert not arr.read(4, 0).any()
        assert arr.reads[4] == 1

    def test_add_disk_keeps_contents(self, arr, rng):
        payload = rng.integers(0, 256, 16, dtype=np.uint8)
        arr.write(3, 7, payload)
        arr.add_disk()
        assert np.array_equal(arr.raw(3, 7), payload)
        arr.write(4, 7, payload)
        assert np.array_equal(arr.snapshot()[4, 7], payload)

    def test_remove_disk(self, arr):
        arr.add_disk()
        arr.remove_disk()
        assert arr.n_disks == 4

    def test_remove_last_disk_rejected(self):
        tiny = BlockArray(1, 2, 8)
        with pytest.raises(ValueError):
            tiny.remove_disk()

    def test_counters_follow_topology(self, arr):
        arr.add_disk()
        assert len(arr.reads) == 5
        arr.remove_disk()
        assert len(arr.reads) == 4

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            BlockArray(0, 4, 8)
        with pytest.raises(ValueError):
            BlockArray(4, 0, 8)


#: builds, touches and frees six offline-sized arrays (13 disks x 624
#: blocks x 4 KiB, 33 MB each); prints the resident-memory growth in MB
_CHURN = """
from repro.raid import BlockArray

def rss_mb():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024

start = rss_mb()
for _ in range(6):
    array = BlockArray(13, 624, 4096)
    array.bulk_view(slice(None), slice(None)).fill(0x5A)
    del array
print(rss_mb() - start)
"""


class TestOwnedStore:
    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc")
    def test_freed_arrays_give_their_pages_back(self):
        """A freed store is unmapped: whatever the heap allocator keeps
        after earlier arrays, resident memory returns to where it was."""
        proc = subprocess.run(
            [sys.executable, "-c", _CHURN],
            capture_output=True,
            text=True,
            timeout=120,
            env={"PYTHONPATH": str(Path(repro.__file__).parents[1])},
        )
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) < 5.0, proc.stdout
