"""Shared-memory BlockArray backing: cross-process bytes, crash cleanup.

The child helpers live at module level because the sweep's spawn context
(the only start method whose semantics match production workers) imports
the test module fresh in each child.
"""

import multiprocessing as mp
import os

import numpy as np
import pytest

from repro.raid.array import BlockArray
from repro.sweep import SharedNDArray, ShmHandle

SPAWN = mp.get_context("spawn")


# ------------------------------------------------------------ child targets

def _child_fill(handle_dict, value):
    seg = SharedNDArray.attach(handle_dict)
    seg.ndarray[...] = value
    seg.close()


def _child_block_write(handle_dict):
    seg = SharedNDArray.attach(handle_dict)
    array = BlockArray.over(seg.ndarray)
    array.write(1, 2, np.full(array.block_size, 0xAB, dtype=np.uint8))
    seg.close()


def _child_crash(handle_dict):
    seg = SharedNDArray.attach(handle_dict)
    seg.ndarray[0, 0] = 99
    os._exit(1)  # simulate a worker dying without any cleanup


def _run_child(target, *args):
    proc = SPAWN.Process(target=target, args=args)
    proc.start()
    proc.join(timeout=60)
    assert not proc.is_alive()
    return proc.exitcode


# ----------------------------------------------------------------- in-process

class TestSharedNDArray:
    def test_create_zeroed_and_round_trip(self):
        with SharedNDArray.create((3, 4), np.uint8) as seg:
            assert seg.ndarray.shape == (3, 4)
            assert not seg.ndarray.any()
            seg.ndarray[...] = 7
            assert (seg.ndarray == 7).all()

    def test_from_array_copies_bytes(self):
        src = np.arange(24, dtype=np.uint8).reshape(2, 12)
        with SharedNDArray.from_array(src) as seg:
            np.testing.assert_array_equal(seg.ndarray, src)
            # it is a copy: mutating the source does not leak in
            src[...] = 0
            assert seg.ndarray.sum() > 0

    def test_handle_round_trip(self):
        with SharedNDArray.create((2, 2), np.uint8) as seg:
            handle = ShmHandle.from_dict(seg.handle.to_dict())
            assert handle == seg.handle

    def test_attach_sees_same_bytes(self):
        with SharedNDArray.create((4,), np.uint8) as seg:
            seg.ndarray[...] = (1, 2, 3, 4)
            other = SharedNDArray.attach(seg.handle)
            np.testing.assert_array_equal(other.ndarray, [1, 2, 3, 4])
            other.ndarray[0] = 9
            assert seg.ndarray[0] == 9
            other.close()

    def test_attacher_cannot_unlink(self):
        with SharedNDArray.create((2,), np.uint8) as seg:
            other = SharedNDArray.attach(seg.handle)
            with pytest.raises(ValueError, match="creating side"):
                other.unlink()
            other.close()

    def test_close_is_idempotent(self):
        seg = SharedNDArray.create((2,), np.uint8)
        seg.close()
        seg.close()
        seg._owner and seg.unlink()

    def test_unlink_destroys_segment(self):
        seg = SharedNDArray.create((2,), np.uint8)
        handle = seg.handle
        seg.unlink()
        with pytest.raises(FileNotFoundError):
            SharedNDArray.attach(handle)


# --------------------------------------------------------------- cross-process

class TestCrossProcess:
    def test_child_writes_visible_to_parent(self):
        with SharedNDArray.create((8, 8), np.uint8) as seg:
            assert _run_child(_child_fill, seg.handle.to_dict(), 0x5A) == 0
            assert (seg.ndarray == 0x5A).all()

    def test_block_array_bytes_identical_across_processes(self):
        seg = SharedNDArray.create((3, 4, 16), np.uint8)
        array = BlockArray.over(seg.ndarray)
        try:
            assert _run_child(_child_block_write, seg.handle.to_dict()) == 0
            np.testing.assert_array_equal(
                array.read(1, 2), np.full(16, 0xAB, dtype=np.uint8)
            )
            # counted I/O stays per-process (counters are not shared state)
            assert array.total_reads == 1
        finally:
            seg.unlink()

    def test_parent_cleanup_survives_worker_crash(self):
        seg = SharedNDArray.create((4, 4), np.uint8)
        handle = seg.handle
        assert _run_child(_child_crash, handle.to_dict()) == 1
        assert seg.ndarray[0, 0] == 99  # the write before the crash landed
        seg.unlink()  # parent cleanup works even though the child never closed
        with pytest.raises(FileNotFoundError):
            SharedNDArray.attach(handle)


# -------------------------------------------------- BlockArray external store

class TestExternalBuffer:
    def test_over_infers_geometry(self):
        buf = np.zeros((3, 5, 8), dtype=np.uint8)
        array = BlockArray.over(buf)
        assert (array.n_disks, array.blocks_per_disk, array.block_size) == (3, 5, 8)
        assert array.external_buffer

    def test_writes_land_in_the_buffer(self):
        buf = np.zeros((2, 3, 4), dtype=np.uint8)
        array = BlockArray.over(buf)
        array.write(1, 1, np.array([9, 9, 9, 9], dtype=np.uint8))
        assert (buf[1, 1] == 9).all()

    def test_resize_rejected_when_externally_backed(self):
        array = BlockArray.over(np.zeros((2, 2, 2), dtype=np.uint8))
        with pytest.raises(ValueError, match="externally backed"):
            array.add_disk()
        with pytest.raises(ValueError, match="externally backed"):
            array.remove_disk()

    def test_owned_array_still_resizes(self):
        array = BlockArray(2, 2, block_size=2)
        assert not array.external_buffer
        array.add_disk()
        assert array.n_disks == 3

    def test_bad_buffers_rejected(self):
        with pytest.raises(ValueError, match="uint8"):
            BlockArray.over(np.zeros((2, 2, 2), dtype=np.int32))
        with pytest.raises(ValueError, match="3-D"):
            BlockArray.over(np.zeros((4, 4), dtype=np.uint8))
        ro = np.zeros((2, 2, 2), dtype=np.uint8)
        ro.setflags(write=False)
        with pytest.raises(ValueError, match="writable"):
            BlockArray.over(ro)
