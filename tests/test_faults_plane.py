"""The fault-injection plane: deterministic faults under BlockArray I/O."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import (
    ConversionCrash,
    DiskFailureAt,
    FaultPlane,
    FaultScenario,
    ReadFaultError,
    RetryPolicy,
    SectorError,
    TornWrite,
    TransientFault,
    TransientIOError,
)
from repro.raid.array import BlockArray, DiskFailure


def fresh_array(rng, n_disks=5, blocks=8, bs=8):
    array = BlockArray(n_disks, blocks, block_size=bs)
    for d in range(n_disks):
        for b in range(blocks):
            array.write(d, b, rng.integers(0, 256, size=bs, dtype=np.uint8))
    return array


def attach(array, **scenario_kwargs):
    plane = FaultPlane(FaultScenario(**scenario_kwargs))
    plane.attach(array)
    return plane


class TestScenarioRoundTrip:
    def test_json_round_trip_is_identity(self):
        scenario = FaultScenario(
            seed=42,
            sector_errors=(SectorError(1, 3), SectorError(2, 0)),
            torn_writes=(TornWrite(5, 0.25),),
            transients=(TransientFault(7, failures=2),),
            disk_failures=(DiskFailureAt(11, disk=0),),
            transient_rate=0.01,
            crash_at=9,
            crash_tear=0.5,
            retry=RetryPolicy(max_retries=5, backoff_base_ticks=2.0),
            meta={"p": 5},
        )
        assert FaultScenario.from_json(scenario.to_json()) == scenario

    def test_crash_variants(self):
        base = FaultScenario(seed=1)
        armed = base.with_crash(4, 0.5)
        assert (armed.crash_at, armed.crash_tear) == (4, 0.5)
        assert armed.without_crash() == base

    def test_every_registered_event_type_round_trips(self):
        # one entry of every type in _SCHEDULE_FIELDS; a newly
        # registered event type that misses its _FIELD_TYPES coercions
        # fails here before it ships in a CI artifact
        from repro.faults.spec import _SCHEDULE_FIELDS

        scenario = FaultScenario(
            sector_errors=(SectorError(0, 1),),
            torn_writes=(TornWrite(2, 0.75),),
            transients=(TransientFault(3, failures=1),),
            disk_failures=(DiskFailureAt(4, disk=2),),
        )
        doc = scenario.to_dict()
        for name in _SCHEDULE_FIELDS:
            assert len(doc[name]) == 1, f"{name} dropped in to_dict"
        assert FaultScenario.from_dict(doc) == scenario

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_property_round_trip_over_full_grammar(self, data):
        # numpy scalars are deliberately mixed in: schedule entries are
        # routinely built straight from rng draws and the boundary must
        # coerce them to JSON primitives
        def op(coerce=False):
            v = data.draw(st.integers(0, 10_000))
            return np.int64(v) if coerce and data.draw(st.booleans()) else v

        scenario = FaultScenario(
            seed=op(coerce=True),
            sector_errors=tuple(
                SectorError(op(coerce=True), op())
                for _ in range(data.draw(st.integers(0, 3)))
            ),
            torn_writes=tuple(
                TornWrite(op(), data.draw(st.floats(0.0, 1.0)))
                for _ in range(data.draw(st.integers(0, 3)))
            ),
            transients=tuple(
                TransientFault(op(), failures=data.draw(st.integers(1, 5)))
                for _ in range(data.draw(st.integers(0, 3)))
            ),
            disk_failures=tuple(
                DiskFailureAt(op(), disk=op(coerce=True))
                for _ in range(data.draw(st.integers(0, 3)))
            ),
            transient_rate=data.draw(st.floats(0.0, 1.0)),
            crash_at=data.draw(st.none() | st.integers(0, 100)),
            crash_tear=data.draw(st.none() | st.floats(0.0, 1.0)),
            retry=RetryPolicy(
                max_retries=data.draw(st.integers(0, 8)),
                backoff_base_ticks=data.draw(st.floats(0.0, 16.0)),
                backoff_multiplier=data.draw(st.floats(1.0, 4.0)),
            ),
            meta={
                "p": op(coerce=True),
                "note": data.draw(st.text(max_size=12)),
                "flag": data.draw(st.booleans()),
                "nested": [op(coerce=True), None],
            },
        )
        restored = FaultScenario.from_json(scenario.to_json())
        # numpy scalars compare == to their Python values, so dataclass
        # equality holds; the JSON text itself must also be stable
        assert restored == scenario
        assert restored.to_json() == FaultScenario.from_json(restored.to_json()).to_json()


class TestSectorErrors:
    def test_read_fails_until_rewritten(self, rng):
        array = fresh_array(rng)
        plane = attach(array, sector_errors=(SectorError(1, 2),))
        with pytest.raises(ReadFaultError) as exc:
            array.read(1, 2)
        assert (exc.value.disk, exc.value.block) == (1, 2)
        assert plane.counters["sector_errors_hit"] == 1
        # the write remaps the sector and clears the error
        payload = rng.integers(0, 256, size=8, dtype=np.uint8)
        array.write(1, 2, payload)
        assert plane.counters["sector_errors_cleared"] == 1
        assert np.array_equal(array.read(1, 2), payload)

    def test_other_blocks_unaffected(self, rng):
        array = fresh_array(rng)
        attach(array, sector_errors=(SectorError(1, 2),))
        array.read(1, 3)
        array.read(0, 2)

    def test_counted_bulk_ops_refuse_a_plane(self, rng):
        # the plane observes per-block I/O only: each counted bulk op
        # raises before it counts, advances the plane or touches a byte
        array = fresh_array(rng)
        plane = attach(array, sector_errors=(SectorError(2, 1),))
        disks, blocks = np.array([0, 2, 3]), np.array([1, 1, 1])
        before = array.snapshot()
        reads, writes = array.reads.copy(), array.writes.copy()
        ops = (
            lambda: array.read_blocks(disks, blocks),
            lambda: array.write_blocks(disks, blocks, np.zeros((3, 8), np.uint8)),
            lambda: array.write_zero_blocks(disks, blocks),
        )
        with plane.crashable():
            for op in ops:
                with pytest.raises(ValueError, match="fault plane"):
                    op()
        assert np.array_equal(array.reads, reads)
        assert np.array_equal(array.writes, writes)
        assert (plane.op, plane.crash_events_done) == (0, 0)
        assert plane.counters["sector_errors_hit"] == 0
        assert np.array_equal(array.snapshot(), before)


class TestTransients:
    def test_retried_within_budget(self, rng):
        array = fresh_array(rng)
        plane = attach(array, transients=(TransientFault(op=0, failures=2),))
        array.read(0, 0)  # succeeds after 2 internal retries
        assert plane.counters["transients"] == 1
        assert plane.counters["retries"] == 2
        assert plane.counters["retries_exhausted"] == 0

    def test_exhausted_budget_raises(self, rng):
        array = fresh_array(rng)
        plane = attach(array, transients=(TransientFault(op=0, failures=4),))
        with pytest.raises(TransientIOError) as exc:
            array.read(0, 0)
        assert exc.value.attempts == 4  # max_retries + 1
        assert plane.counters["retries_exhausted"] == 1

    def test_exponential_backoff_accounting(self, rng):
        array = fresh_array(rng)
        plane = attach(
            array,
            transients=(TransientFault(op=0, failures=3),),
            retry=RetryPolicy(max_retries=3, backoff_base_ticks=1.0,
                              backoff_multiplier=2.0),
        )
        array.read(0, 0)
        assert plane.backoff_ticks == 1.0 + 2.0 + 4.0

    def test_rate_based_transients_are_seed_deterministic(self, rng):
        def run(seed):
            array = fresh_array(np.random.default_rng(0))
            plane = attach(array, seed=seed, transient_rate=0.3)
            for b in range(8):
                array.read(0, b)
            return plane.counters["transients"]

        assert run(7) == run(7)


class TestTornWrites:
    def test_prefix_persisted_suffix_stale(self, rng):
        array = fresh_array(rng)
        old = array.read(0, 0).copy()
        plane = attach(array, torn_writes=(TornWrite(op=0, keep_fraction=0.5),))
        new = old ^ 0xFF
        array.write(0, 0, new)
        assert plane.counters["torn_writes"] == 1
        stored = array.read(0, 0)
        assert np.array_equal(stored[:4], new[:4])
        assert np.array_equal(stored[4:], old[4:])

    def test_zero_keep_fraction_keeps_one_byte(self, rng):
        array = fresh_array(rng)
        old = array.read(0, 0).copy()
        attach(array, torn_writes=(TornWrite(op=0, keep_fraction=0.0),))
        array.write(0, 0, old ^ 0xFF)
        stored = array.read(0, 0)
        assert stored[0] == old[0] ^ 0xFF
        assert np.array_equal(stored[1:], old[1:])


class TestDiskFailures:
    def test_fires_at_op_boundary(self, rng):
        array = fresh_array(rng)
        plane = attach(array, disk_failures=(DiskFailureAt(op=2, disk=1),))
        array.read(1, 0)  # op 0
        array.read(1, 1)  # op 1
        with pytest.raises(DiskFailure):
            array.read(1, 2)  # boundary before op 2: disk is gone
        assert plane.counters["disk_failures"] == 1
        assert array.failed_disks == {1}

    def test_other_disks_keep_serving(self, rng):
        array = fresh_array(rng)
        attach(array, disk_failures=(DiskFailureAt(op=0, disk=3),))
        array.read(0, 0)


class TestCrashPoints:
    def test_crash_only_inside_crashable_sections(self, rng):
        array = fresh_array(rng)
        plane = attach(array, crash_at=0)
        array.read(0, 0)  # app I/O: never crashable
        with plane.crashable():
            with pytest.raises(ConversionCrash):
                array.read(0, 1)
        assert plane.counters["crashes"] == 1

    def test_crash_tear_leaves_partial_write(self, rng):
        array = fresh_array(rng)
        old = array.read(0, 0).copy()
        plane = attach(array, crash_at=0, crash_tear=0.5)
        new = old ^ 0xFF
        with plane.crashable(), pytest.raises(ConversionCrash):
            array.write(0, 0, new)
        stored = array.read(0, 0)
        assert np.array_equal(stored[:4], new[:4])
        assert np.array_equal(stored[4:], old[4:])

    def test_crash_point_barrier_counts_once(self, rng):
        array = fresh_array(rng)
        plane = attach(array)
        with plane.crashable():
            plane.crash_point("commit")
            array.read(0, 0)
        assert plane.crash_events_done == 2

    def test_probe_and_armed_run_agree_on_numbering(self, rng):
        def events(crash_at):
            array = fresh_array(np.random.default_rng(0))
            plane = FaultPlane(FaultScenario(crash_at=crash_at))
            plane.attach(array)
            with plane.crashable():
                try:
                    for b in range(4):
                        array.read(0, b)
                        plane.crash_point(f"b{b}")
                except ConversionCrash:
                    pass
            return plane.crash_events_done

        probe = events(None)
        assert probe == 8
        for k in range(probe):
            assert events(k) == k


class TestOverheadAndDetach:
    def test_detached_array_has_no_plane(self, rng):
        array = fresh_array(rng)
        plane = attach(array)
        assert array.fault_plane is plane
        plane.detach()
        assert array.fault_plane is None
        array.read(0, 0)
        assert plane.op == 0

    def test_faultless_plane_is_transparent(self, rng):
        array = fresh_array(rng)
        mirror = BlockArray(5, 8, block_size=8)
        mirror.restore_blocks(
            np.repeat(np.arange(5), 8), np.tile(np.arange(8), 5),
            array.gather_raw(np.repeat(np.arange(5), 8), np.tile(np.arange(8), 5)),
        )
        attach(array)
        payload = rng.integers(0, 256, size=8, dtype=np.uint8)
        array.write(2, 3, payload)
        mirror.write(2, 3, payload)
        assert np.array_equal(array.snapshot(), mirror.snapshot())

    def test_snapshot_reports_outstanding_errors(self, rng):
        array = fresh_array(rng)
        plane = attach(array, sector_errors=(SectorError(0, 0), SectorError(1, 1)))
        doc = plane.snapshot()
        assert doc["outstanding_sector_errors"] == 2
        assert doc["ops_seen"] == 0
