"""Traces and generators."""

import numpy as np
import pytest

from repro.migration import build_plan
from repro.migration.approaches import alignment_cycle
from repro.migration.ops import OpKind
from repro.workloads import (
    Trace,
    conversion_trace,
    sequential_trace,
    uniform_trace,
    zipf_trace,
)


class TestTraceContainer:
    def test_from_lists(self):
        t = Trace.from_lists([(0.0, 1, 100, False), (1.0, 0, 5, True)], block_size=8192)
        assert len(t) == 2
        assert t.reads == 1 and t.writes == 1
        assert t.n_disks == 2
        assert t.block_size == 8192

    def test_from_empty(self):
        t = Trace.from_lists([])
        assert len(t) == 0
        assert t.n_disks == 0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Trace(
                arrival_ms=np.zeros(2),
                disk=np.zeros(1, dtype=np.int32),
                block=np.zeros(2, dtype=np.int64),
                is_write=np.zeros(2, dtype=bool),
            )

    def test_save_load_roundtrip(self, tmp_path, rng):
        t = uniform_trace(rng, 50, 4, 1000)
        path = tmp_path / "trace.npz"
        t.save(path)
        back = Trace.load(path)
        assert np.array_equal(back.disk, t.disk)
        assert np.array_equal(back.block, t.block)
        assert np.array_equal(back.is_write, t.is_write)
        assert back.block_size == t.block_size

    def test_per_disk_blocks_stable_order(self):
        t = Trace.from_lists(
            [(0.0, 0, 5, False), (0.0, 0, 3, False), (0.0, 1, 7, False)]
        )
        assert list(t.per_disk_blocks(0)) == [5, 3]

    def test_describe(self, rng):
        assert "reqs" in uniform_trace(rng, 5, 2, 10).describe()


class TestConversionTrace:
    def test_request_count_matches_plan(self):
        plan = build_plan("code56", "direct", 5, groups=2)
        t = conversion_trace(plan)
        ios = sum(1 for op in plan.ops if op.kind is not OpKind.TRIM)
        assert len(t) == ios
        assert t.reads == plan.read_ios
        assert t.writes == plan.write_ios

    def test_tiling_scales_requests(self):
        plan = build_plan("code56", "direct", 5, groups=1)
        t = conversion_trace(plan, total_data_blocks=plan.data_blocks * 7)
        assert len(t) == 7 * plan.total_ios
        assert t.meta["tiles"] == 7

    def test_tiles_do_not_collide(self):
        plan = build_plan("code56", "direct", 5, groups=1)
        t = conversion_trace(plan, total_data_blocks=plan.data_blocks * 3)
        keys = set(zip(t.disk.tolist(), t.block.tolist(), t.is_write.tolist()))
        assert len(keys) == len(t)  # every (disk, block, rw) unique

    def test_phase_major_ordering(self):
        """All degrade ops across tiles precede all upgrade ops."""
        plan = build_plan("rdp", "via-raid4", 5, groups=1)
        t = conversion_trace(plan, total_data_blocks=plan.data_blocks * 3)
        # phase 0 of via-raid4 = parity migrations: read old slot + write
        # to the new row-parity disk (disk m). The first third of the
        # trace must contain every write to disk m's migration region.
        writes_disk4 = np.flatnonzero((t.disk == 4) & t.is_write)
        n_phase0_writes = 3 * plan.m  # one per row per tile... p-1 rows
        assert (writes_disk4[: n_phase0_writes] < len(t) // 2).all()

    def test_lb_rotation_spreads_parity_writes(self):
        plan = build_plan("code56", "direct", 5, groups=4)
        nlb = conversion_trace(plan, total_data_blocks=plan.data_blocks * 8)
        lb = conversion_trace(
            plan, total_data_blocks=plan.data_blocks * 8, lb_rotation_period=4
        )
        nlb_write_disks = set(nlb.disk[nlb.is_write].tolist())
        lb_write_disks = set(lb.disk[lb.is_write].tolist())
        assert nlb_write_disks == {4}
        assert len(lb_write_disks) > 1

    def test_bad_rotation_period(self):
        plan = build_plan("code56", "direct", 5, groups=1)
        with pytest.raises(ValueError):
            conversion_trace(plan, lb_rotation_period=0)

    def test_conversion_reads_are_sequential_per_disk(self):
        plan = build_plan("code56", "direct", 5, groups=4)
        t = conversion_trace(plan)
        for d in range(4):  # data disks
            blocks = t.per_disk_blocks(d)
            assert (np.diff(blocks) >= 0).all()  # monotone scan


class TestSyntheticTraces:
    def test_uniform_bounds(self, rng):
        t = uniform_trace(rng, 500, 4, 1000, read_fraction=0.8)
        assert t.disk.max() < 4
        assert t.block.max() < 1000
        assert 0.6 < t.reads / len(t) < 0.95
        assert (np.diff(t.arrival_ms) >= 0).all()

    def test_zipf_skews_hot_blocks(self, rng):
        t = zipf_trace(rng, 2000, 4, 10_000, skew=1.5)
        flat = t.disk.astype(np.int64) + 4 * t.block
        _, counts = np.unique(flat, return_counts=True)
        assert counts.max() > 10  # a genuinely hot block exists

    def test_sequential_walks_stripes(self):
        t = sequential_trace(12, 4)
        assert list(t.disk[:4]) == [0, 1, 2, 3]
        assert list(t.block[:8]) == [0, 0, 0, 0, 1, 1, 1, 1]


class TestRebuildTrace:
    def test_counts_match_plan(self):
        from repro.codes import get_layout
        from repro.core import plan_hybrid_recovery
        from repro.workloads.rebuild import rebuild_trace

        lay = get_layout("code56", 5)
        h = plan_hybrid_recovery(lay, 1)
        t = rebuild_trace(lay, h.plan, 1, groups=10)
        assert t.reads == 10 * h.reads
        assert t.writes == 10 * (lay.rows)  # whole column rewritten

    def test_writes_target_replacement_disk(self):
        from repro.codes import get_layout
        from repro.core import plan_hybrid_recovery
        from repro.workloads.rebuild import rebuild_trace

        lay = get_layout("rdp", 5)
        h = plan_hybrid_recovery(lay, 2)
        t = rebuild_trace(lay, h.plan, 2, groups=4)
        assert set(t.disk[t.is_write].tolist()) == {2}
        assert 2 not in set(t.disk[~t.is_write].tolist())

    def test_rejects_mismatched_plan(self):
        import pytest

        from repro.codes import get_layout
        from repro.core import plan_hybrid_recovery
        from repro.workloads.rebuild import rebuild_trace

        lay = get_layout("code56", 5)
        h = plan_hybrid_recovery(lay, 1)
        with pytest.raises(ValueError):
            rebuild_trace(lay, h.plan, 2, groups=4)


class TestDisksimFormat:
    def test_roundtrip(self, tmp_path, rng):
        from repro.workloads import load_disksim, save_disksim, uniform_trace

        t = uniform_trace(rng, 40, 4, 1000, block_size=4096)
        path = tmp_path / "migration.trace"
        save_disksim(t, path)
        back = load_disksim(path, block_size=4096)
        assert np.array_equal(back.disk, t.disk)
        assert np.array_equal(back.block, t.block)
        assert np.array_equal(back.is_write, t.is_write)
        assert np.allclose(back.arrival_ms, t.arrival_ms, atol=1e-5)

    def test_format_fields(self, tmp_path):
        from repro.workloads import Trace, save_disksim

        t = Trace.from_lists([(1.5, 2, 7, False)], block_size=4096)
        path = tmp_path / "one.trace"
        save_disksim(t, path)
        fields = path.read_text().split()
        # arrival, devno, sector (7 * 8 sectors of 512B), size, read flag
        assert fields == ["1.500000", "2", "56", "8", "1"]

    def test_skips_comments(self, tmp_path):
        from repro.workloads import load_disksim

        path = tmp_path / "c.trace"
        path.write_text("# header\n0.0 1 8 8 0\n\n")
        t = load_disksim(path, block_size=4096)
        assert len(t) == 1
        assert t.is_write[0]
        assert t.block[0] == 1
