"""Whole-array fleet set-up and close-out against their per-block originals.

The RAID-5 fill, the final scrub pass and the breaker's quantile check
each replaced a per-block (or per-quantile) loop.  Every test here runs
the loop it replaced, written out in full, beside the new code and
demands identical bytes, counters and return values; the determinism
gate pins whole fleet drains to digests recorded before the change.
"""

from __future__ import annotations

import hashlib
import json
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.journal import OnlineJournal
from repro.fleet import CircuitBreaker, FleetConfig, FleetVolume, QosTarget, ScrubCursor, run_fleet
from repro.migration import build_plan, prepare_source_array, supported_conversions
from repro.migration.online import OnlineCode56Conversion
from repro.raid import BlockArray, Raid5Array, Raid5Layout
from repro.raid.raid5 import row_xor_raw


# --------------------------------------------------------------------- fill
def per_block_fill(array: BlockArray, layout: Raid5Layout, n: int, data, stripes: int) -> None:
    """The per-LBA placement loop plus per-stripe parity loop the fill replaced."""
    raid5 = Raid5Array(array, layout, n_disks=n)
    for lba in range(len(data)):
        stripe, disk = raid5.locate(lba)
        array.raw(disk, stripe)[...] = data[lba]
    for stripe in range(stripes):
        pd = raid5.parity_disk(stripe)
        array.raw(pd, stripe)[...] = row_xor_raw(array, stripe, n, (pd,))


def holding(prior: np.ndarray) -> BlockArray:
    """An array whose disks start out holding ``prior`` (uncounted)."""
    array = BlockArray(*prior.shape)
    array.restore(prior)
    return array


class TestFillIdentity:
    @pytest.mark.parametrize("layout", list(Raid5Layout))
    @pytest.mark.parametrize("width", range(3, 15))
    def test_format_with_matches_per_block_loops(self, layout, width):
        rng = np.random.default_rng((width, list(Raid5Layout).index(layout)))
        disks, stripes, bs = width + 2, 2 * width + 1, 8
        # nonzero prior contents everywhere: parity slots must be overwritten
        prior = rng.integers(0, 256, size=(disks, stripes, bs), dtype=np.uint8)
        data = rng.integers(0, 256, size=(stripes * (width - 1), bs), dtype=np.uint8)
        want = holding(prior)
        per_block_fill(want, layout, width, data, stripes)
        got = holding(prior)
        Raid5Array(got, layout, n_disks=width).format_with(data)
        assert np.array_equal(got.snapshot(), want.snapshot())
        assert got.total_ios == 0
        assert Raid5Array(got, layout, n_disks=width).verify()

    @pytest.mark.parametrize("layout", list(Raid5Layout))
    def test_partial_fill_leaves_later_rows_alone(self, layout):
        rng = np.random.default_rng(5)
        prior = rng.integers(0, 256, size=(7, 9, 8), dtype=np.uint8)
        data = rng.integers(0, 256, size=(4 * 4, 8), dtype=np.uint8)
        want = holding(prior)
        per_block_fill(want, layout, 5, data, 4)
        got = holding(prior)
        Raid5Array(got, layout, n_disks=5).format_with(data, stripes=4)
        assert np.array_equal(got.snapshot(), want.snapshot())

    def test_fill_rejects_mismatched_data(self):
        raid5 = Raid5Array(BlockArray(4, 4, block_size=8))
        with pytest.raises(ValueError):
            raid5.format_with(np.zeros((5, 8), dtype=np.uint8), stripes=2)
        with pytest.raises(ValueError):
            raid5.format_with(np.zeros((15, 8), dtype=np.uint8), stripes=5)

    @pytest.mark.parametrize("p", (5, 13))
    @pytest.mark.parametrize("code,approach", supported_conversions())
    def test_prepare_source_array_matches_per_block_loops(self, code, approach, p):
        plan = build_plan(code, approach, p, groups=2)
        array, data = prepare_source_array(plan, np.random.default_rng(p), block_size=16)
        want = BlockArray(plan.n, plan.blocks_per_disk, 16)
        per_block_fill(
            want, plan.source_layout, plan.m, data, plan.data_blocks // (plan.m - 1)
        )
        assert np.array_equal(array.snapshot(), want.snapshot())
        assert not array.reads.any() and not array.writes.any()


# -------------------------------------------------------------------- sweep
P, GROUPS, BS = 7, 3, 16


def converted(journal: bool = True) -> OnlineCode56Conversion:
    """A fully converted Code 5-6 volume (every diagonal journal-marked)."""
    rng = np.random.default_rng(17)
    array = BlockArray(P, GROUPS * (P - 1), block_size=BS)
    raid5 = Raid5Array(array, n_disks=P - 1)
    raid5.format_with(rng.integers(0, 256, size=(raid5.capacity_blocks, BS), dtype=np.uint8))
    conv = OnlineCode56Conversion(
        array, P, journal=OnlineJournal(GROUPS, P - 1) if journal else None
    )
    conv.run([])
    return conv


def assert_sweep_equals_steps(conv, start: int) -> None:
    swept, stepped = ScrubCursor(conv), ScrubCursor(conv)
    for cursor in (swept, stepped):
        for _ in range(start):
            cursor.step()
    cost = swept.sweep()
    assert cost == sum(stepped.step() for _ in range(stepped.stripes))
    assert swept.snapshot() == stepped.snapshot()
    assert swept.errors == stepped.errors
    # both cursors end where they started
    assert swept.step() == stepped.step()
    assert swept.snapshot() == stepped.snapshot()


class TestSweepIdentity:
    @pytest.mark.parametrize("start", (0, 1, 7, P - 1 + 2))
    def test_clean_volume(self, start):
        assert_sweep_equals_steps(converted(), start)

    @pytest.mark.parametrize("start", (0, 11))
    def test_planted_corruptions(self, start):
        conv = converted()
        m, rows = conv.m, conv.rows
        conv.array.raw(2, 4)[0] ^= 0x5A  # horizontal (and its diagonal chain)
        conv.array.raw(m, 1)[3] ^= 0x01  # diagonal, marked row
        conv.array.raw(m, rows + 3)[5] ^= 0x80  # diagonal, row unmarked below
        conv.array.raw(m, 2 * rows)[0] ^= 0x02  # diagonal, marked, next group
        conv.journal.unmark(1, 3)
        conv.journal.unmark(2, 5)
        assert_sweep_equals_steps(conv, start)
        cursor = ScrubCursor(conv)
        cursor.sweep()
        kinds = {kind for _stripe, kind in cursor.errors}
        assert kinds == {"horizontal", "diagonal"}
        assert (rows + 3, "diagonal") not in cursor.errors

    @pytest.mark.parametrize("start", (0, 5))
    def test_without_journal(self, start):
        conv = converted(journal=False)
        conv.array.raw(0, 3)[1] ^= 0x10
        conv.array.raw(conv.m, 2)[1] ^= 0x10  # never checked: no journal
        assert_sweep_equals_steps(conv, start)

    @pytest.mark.parametrize("disk", (1, P - 1))
    def test_with_failed_disk(self, disk):
        conv = converted()
        conv.array.raw(0, 3)[1] ^= 0x10
        conv.array.fail_disk(disk)
        assert_sweep_equals_steps(conv, 4)


# ------------------------------------------------------------------ breaker
class ThreeCallBreaker(CircuitBreaker):
    """The breaker as it was: all three windowed quantiles, one call each."""

    __slots__ = ()

    def observe(self, latency: float, tick: float) -> bool:
        if self.is_open(tick):
            self.open_latencies.append(float(latency))
            return False
        self.closed_latencies.append(float(latency))
        self._lat.append(float(latency))
        if len(self._lat) > self.window:
            del self._lat[: len(self._lat) - self.window]
        if len(self._lat) < self.min_samples:
            return False
        window = np.asarray(self._lat)
        p50, p95, p99 = (float(np.percentile(window, q)) for q in (50, 95, 99))
        breach = None
        for name, value, limit in (
            ("p50", p50, self.target.p50_ticks),
            ("p95", p95, self.target.p95_ticks),
            ("p99", p99, self.target.p99_ticks),
        ):
            if limit is not None and value > limit:
                breach = name
                break
        if breach is None:
            if self._open_until is not None and tick >= self._open_until:
                self._open_until = None
                self._backoff.reset()
            return False
        return self._trip(breach, tick)


def breaker_state(b: CircuitBreaker) -> tuple:
    return (b.trips, b.breaches, b.open_ticks, b.closed_latencies, b.open_latencies)


limits = st.one_of(st.none(), st.floats(1.0, 60.0, allow_nan=False))
latency = st.one_of(st.integers(0, 80).map(float), st.floats(0.0, 120.0, allow_nan=False))


class TestBreakerIdentity:
    @given(
        p50=limits, p95=limits, p99=limits,
        stream=st.lists(st.tuples(latency, st.integers(0, 40)), min_size=1, max_size=120),
        window=st.integers(4, 40), min_samples=st.integers(1, 12),
    )
    @settings(max_examples=150, deadline=None)
    def test_one_call_equals_three(self, p50, p95, p99, stream, window, min_samples):
        target = QosTarget(p50_ticks=p50, p95_ticks=p95, p99_ticks=p99)
        new = CircuitBreaker(target, window=window, min_samples=min_samples)
        old = ThreeCallBreaker(target, window=window, min_samples=min_samples)
        tick = 0.0
        for value, gap in stream:
            tick += gap
            assert new.observe(value, tick) == old.observe(value, tick)
            assert breaker_state(new) == breaker_state(old)
        assert new.snapshot() == old.snapshot()

    @pytest.mark.parametrize("mask", range(8))
    def test_every_constrained_combination(self, mask):
        """All 8 subsets of {p50, p95, p99}, on one tripping stream."""
        caps = [20.0 if mask & (1 << i) else None for i in range(3)]
        target = QosTarget(p50_ticks=caps[0], p95_ticks=caps[1], p99_ticks=caps[2])
        rng = np.random.default_rng(mask)
        new, old = CircuitBreaker(target), ThreeCallBreaker(target)
        for tick, value in enumerate(rng.integers(0, 60, size=400).astype(float)):
            assert new.observe(value, float(tick)) == old.observe(value, float(tick))
        assert breaker_state(new) == breaker_state(old)
        assert (new.trips > 0) == (mask != 0)

    @pytest.mark.parametrize("seed", range(10))
    def test_max_shortcut_keeps_the_percentile_verdict(self, seed):
        """``breached_by`` skips ``np.percentile`` when no sample exceeds
        the tightest limit; its verdict equals every constrained quantile
        computed by ``np.percentile``, also when the window's maximum
        equals a limit."""
        rng = np.random.default_rng(seed)
        skipped = computed = 0
        for _ in range(300):
            caps = [None if rng.random() < 0.3 else float(rng.integers(1, 60)) for _ in range(3)]
            target = QosTarget(p50_ticks=caps[0], p95_ticks=caps[1], p99_ticks=caps[2])
            window = rng.integers(0, 80, size=int(rng.integers(1, 33))).astype(float)
            set_caps = [c for c in caps if c is not None]
            if set_caps and rng.random() < 0.5:
                cap = set_caps[int(rng.integers(len(set_caps)))]
                window = np.minimum(window, cap)
                window[int(rng.integers(len(window)))] = cap
            want = None
            for name, q, limit in zip(("p50", "p95", "p99"), (50, 95, 99), caps):
                if limit is not None and float(np.percentile(window, q)) > limit:
                    want = name
                    break
            assert target.breached_by(window.tolist()) == want
            if set_caps and window.max() <= min(set_caps):
                skipped += 1
            else:
                computed += 1
        assert skipped and computed


# ---------------------------------------------------------------- admission
def test_at_most_clients_volumes_alive(monkeypatch):
    # the drain is serial, so one volume is alive whatever ``clients`` says
    # (at most ``clients`` for every valid value); the field is recorded but
    # inert, so every value gives the same report
    cfg = FleetConfig(volumes=10, seed=3, spares=2, fail_volumes=(4,))
    live: weakref.WeakSet = weakref.WeakSet()
    peak = [0]
    original = FleetVolume.__init__

    def counted(self, *args, **kwargs):
        original(self, *args, **kwargs)
        live.add(self)
        peak[0] = max(peak[0], len(live))

    monkeypatch.setattr(FleetVolume, "__init__", counted)
    reports = [run_fleet(replace(cfg, clients=clients)) for clients in (1, 2, 8)]
    assert peak[0] == 1
    for doc in reports:
        doc.pop("elapsed_seconds")
        doc["config"].pop("clients")
    assert reports[0] == reports[1] == reports[2]


# ----------------------------------------------------- determinism gate
#: per-volume result keys that must not move (everything but wall clock);
#: the fleet-faulted benchmark fingerprints the same keys
FLEET_KEYS = (
    "state", "transitions", "requests_served", "writes_applied",
    "parities_generated", "conversion_ticks", "finish_tick", "crashes",
    "resumes", "rebuilds_completed", "degraded_reads", "verified",
    "divergent_blocks", "latency", "breaker", "qos_p99_ticks",
)
#: the fleet the ``fleet-faulted`` benchmark drains
HARNESS_FLEET = FleetConfig(
    volumes=64, p=13, groups=4, block_size=4096, requests_per_volume=32,
    batch=4, spares=4, fail_volumes=(7, 23, 61), fail_disk=1, seed=2026,
)
#: crashes, transients and seeded disk losses (diagonal disk included)
FAULTY_FLEET = FleetConfig(
    volumes=16, seed=7, requests_per_volume=16, batch=4, spares=4,
    fail_volumes=(2, 9), crash_volumes=(1, 5, 12), transient_rate=0.02,
)
#: digests of each volume's FLEET_KEYS, fault counters and scrub snapshot,
#: recorded from the per-block fill, per-stripe final scrub and
#: three-call breaker
HARNESS_DIGEST = "ff34fc699681cfb5e4aeabb80303356cb4f4061d32a1252287e30601ea49424b"
FAULTY_DIGEST = "0a7899b9c5828ec3e1b98c02daf33d241ba3d4bf3cd21d9e437970b2a60bd37e"


def fleet_digest(report: dict) -> str:
    doc = [
        [repr(v[k]) for k in FLEET_KEYS + ("fault_counters", "scrub")]
        for v in report["volumes"]
    ]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


class TestFleetDeterminismGate:
    @pytest.mark.parametrize("clients", (1, 2))
    @pytest.mark.parametrize("batch", (1, 4))
    def test_harness_fleet(self, clients, batch):
        # ``clients`` is inert: both values must reproduce the one digest
        report = run_fleet(replace(HARNESS_FLEET, clients=clients, batch=batch))
        assert report["ok"]
        assert fleet_digest(report) == HARNESS_DIGEST

    @pytest.mark.parametrize("clients", (1, 2))
    def test_faulty_fleet(self, clients):
        report = run_fleet(replace(FAULTY_FLEET, clients=clients))
        assert report["ok"] and report["crashes"] == 3
        assert fleet_digest(report) == FAULTY_DIGEST
