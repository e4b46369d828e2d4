"""Algorithm 2: online conversion concurrent with application I/O."""

import numpy as np
import pytest

from repro.migration import OnlineCode56Conversion, OnlineReport, OnlineRequest
from repro.raid import BlockArray, Raid5Array, Raid5Layout


def make_source(p=5, groups=4, bs=8, rng=None):
    m = p - 1
    array = BlockArray(m, groups * (p - 1), block_size=bs)
    r5 = Raid5Array(array, Raid5Layout.LEFT_ASYMMETRIC)
    data = rng.integers(0, 256, size=(r5.capacity_blocks, bs), dtype=np.uint8)
    r5.format_with(data)
    array.add_disk()
    return array, data


class TestQuietConversion:
    def test_no_requests(self, rng):
        array, _ = make_source(rng=rng)
        conv = OnlineCode56Conversion(array, 5)
        report = conv.run([])
        assert conv.verify()
        assert report.interruptions == 0
        assert report.parities_generated == 16  # 4 groups x 4 rows

    def test_conversion_io_cost(self, rng):
        """Per parity: p-2 chain reads + 1 write = p-1 ticks."""
        p = 7
        array, _ = make_source(p=p, groups=3, rng=rng)
        conv = OnlineCode56Conversion(array, p)
        report = conv.run([])
        per_parity = p - 1
        assert report.conversion_ticks == 3 * (p - 1) * per_parity

    def test_requires_added_disk(self, rng):
        m = 4
        array = BlockArray(m, 8, block_size=8)
        with pytest.raises(ValueError):
            OnlineCode56Conversion(array, 5)


class TestAddressing:
    @pytest.mark.parametrize("is_write", [True, False])
    @pytest.mark.parametrize("lba", [-1, 36, 37])
    def test_lba_outside_capacity_rejected_before_io(self, lba, is_write, rng):
        """p=5 over 13 blocks per disk: 3 whole groups, capacity 36 — the
        trailing RAID-5 stripe is not converted, so its LBAs (and negative
        ones) are refused before any block or parity is touched."""
        array = BlockArray(4, 13, block_size=8)
        r5 = Raid5Array(array, Raid5Layout.LEFT_ASYMMETRIC)
        r5.format_with(rng.integers(0, 256, size=(r5.capacity_blocks, 8), dtype=np.uint8))
        array.add_disk()
        conv = OnlineCode56Conversion(array, 5)
        assert (conv.groups, conv.capacity_blocks) == (3, 36)
        before = array.snapshot()
        report = OnlineReport()
        req = OnlineRequest(
            time=0.0, lba=lba, is_write=is_write,
            payload=np.full(8, 0xAB, dtype=np.uint8) if is_write else None,
        )
        with pytest.raises(ValueError, match="outside capacity"):
            conv.serve_request(req, 0.0, report)
        assert np.array_equal(array.snapshot(), before)
        assert array.total_ios == 0
        assert report.interruptions == 0 and report.app_ticks == 0


class TestConcurrentIO:
    def test_reads_do_not_interrupt(self, rng):
        array, data = make_source(rng=rng)
        conv = OnlineCode56Conversion(array, 5)
        reqs = [OnlineRequest(time=float(t), lba=t % 10, is_write=False) for t in range(5)]
        report = conv.run(reqs)
        assert report.interruptions == 0
        assert report.app_ticks == 5
        assert conv.verify()

    def test_writes_interrupt_and_stay_consistent(self, rng):
        array, data = make_source(groups=6, rng=rng)
        conv = OnlineCode56Conversion(array, 5)
        truth = data.copy()
        reqs = []
        for t in (1.0, 30.0, 70.0, 120.0, 350.0):
            lba = int(rng.integers(0, len(truth)))
            payload = rng.integers(0, 256, size=8, dtype=np.uint8)
            truth[lba] = payload
            reqs.append(OnlineRequest(time=t, lba=lba, is_write=True, payload=payload))
        report = conv.run(reqs)
        assert report.interruptions == 5
        assert conv.verify()
        # all logical data reflects the writes
        r5_like = Raid5Array(array, Raid5Layout.LEFT_ASYMMETRIC, n_disks=4)
        for lba in range(len(truth)):
            assert np.array_equal(r5_like.read(lba), truth[lba])

    def test_early_writes_hit_unconverted_region(self, rng):
        array, data = make_source(groups=8, rng=rng)
        conv = OnlineCode56Conversion(array, 5)
        payload = rng.integers(0, 256, size=8, dtype=np.uint8)
        # lba in the LAST group, written before conversion reaches it
        last_lba = conv.capacity_blocks - 1
        report = conv.run([OnlineRequest(time=0.0, lba=last_lba, is_write=True, payload=payload)])
        assert report.writes_to_unconverted == 1
        assert report.writes_to_converted == 0
        assert conv.verify()

    def test_late_writes_patch_generated_parity(self, rng):
        array, data = make_source(groups=4, rng=rng)
        conv = OnlineCode56Conversion(array, 5)
        payload = rng.integers(0, 256, size=8, dtype=np.uint8)
        report = conv.run([OnlineRequest(time=1e9, lba=0, is_write=True, payload=payload)])
        assert report.writes_to_converted == 1
        assert conv.verify()

    def test_write_costs_more_in_converted_region(self, rng):
        """Converted: 6 ticks (data RMW + 2 parity RMWs); unconverted: 4."""
        array, _ = make_source(groups=4, rng=rng)
        conv = OnlineCode56Conversion(array, 5)
        payload = np.zeros(8, dtype=np.uint8)
        late = OnlineRequest(time=1e9, lba=0, is_write=True, payload=payload)
        report = conv.run([late])
        assert report.request_latencies[0] == 6

    def test_write_without_payload_rejected(self, rng):
        array, _ = make_source(rng=rng)
        conv = OnlineCode56Conversion(array, 5)
        with pytest.raises(ValueError):
            conv.run([OnlineRequest(time=0.0, lba=0, is_write=True)])


class TestLatencyAccounting:
    def test_latencies_recorded_per_request(self, rng):
        array, _ = make_source(rng=rng)
        conv = OnlineCode56Conversion(array, 5)
        reqs = [OnlineRequest(time=float(i * 10), lba=i, is_write=False) for i in range(4)]
        report = conv.run(reqs)
        assert len(report.request_latencies) == 4
        assert all(lat >= 1 for lat in report.request_latencies)

    def test_finish_tick_covers_all_work(self, rng):
        array, _ = make_source(rng=rng)
        conv = OnlineCode56Conversion(array, 5)
        report = conv.run([])
        assert report.finish_tick == report.conversion_ticks
