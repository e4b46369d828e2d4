"""Whole-array audits: every batched verifier catches planted corruption.

The online converter, ``Raid6Array``, ``Raid5Array``, ``verify_conversion``,
both scrubs and the fleet's offline-image oracle each check a whole array
with a few tensor operations; the chain checks all go through
``ArrayCode.syndromes``, whose residues are tested here directly.  The
per-group (and per-LBA) loops they replaced are kept here as oracles: on
every clean and every corrupted array, the batched verifier and its loop
must agree (a scrub in every report field and every repaired byte).
``verify_conversion`` proves its recovery plans over the code's codeword
space; the payload replay it replaced is kept here too, and the proof
must reject everything the replay rejects, and more.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from repro.codes import CODE_CATALOG, get_code
from repro.codes import base
from repro.codes.base import SYNDROME_TILE_BYTES, ArrayCode
from repro.codes.code56 import diagonal_chain_cells
from repro.codes.decoder import apply_recovery_plan, run_recovery_steps
from repro.codes.geometry import ChainKind
from repro.compiled import execute_plan_compiled, recovery
from repro.faults.events import DiskFailureEvent
from repro.fleet import FleetVolume, SparePool, VolumeSpec
from repro.migration import build_plan, prepare_source_array, verify_conversion
from repro.migration.approaches import alignment_cycle, supported_conversions
from repro.migration.engine import assemble_group
from repro.migration.online import OnlineCode56Conversion
from repro.migration.ops import OpKind
from repro.raid import BlockArray, Raid5Array, Raid6Array
from repro.raid.layouts import locate_block, parity_disk
from repro.raid.raid5 import row_xor_raw
from repro.raid.scrub import Raid6ScrubReport, scrub_raid5, scrub_raid6

PRIMES = (5, 7, 13)
GROUPS = 3
BS = 16


# ------------------------------------------------------------------ oracles
def online_verify_loop(conv: OnlineCode56Conversion) -> bool:
    """The per-group audit ``OnlineCode56Conversion.verify`` replaced."""
    stripe = conv.code.empty_stripe(conv.array.block_size)
    for g in range(conv.groups):
        for r in range(conv.rows):
            for c in range(conv.p - 1):
                stripe[r, c] = conv.array.raw(c, g * conv.rows + r)
            stripe[r, conv.p - 1] = conv.array.raw(conv.m, g * conv.rows + r)
        if not conv.code.verify(stripe):
            return False
    return True


def assemble_stripe(raid6: Raid6Array, group: int) -> np.ndarray:
    """Gather one group's stripe, raw (virtual columns zero-filled): the
    ``Raid6Array.assemble_stripe`` the loops below were written against."""
    stripe = raid6.code.empty_stripe(raid6.array.block_size)
    for col in raid6.code.layout.physical_cols:
        for row in range(raid6.rows):
            stripe[row, col] = raid6.array.raw(raid6.disk_of(group, col), raid6.block_of(group, row))
    return stripe


def raid6_verify_loop(raid6: Raid6Array) -> bool:
    """The per-group scrub ``Raid6Array.verify`` replaced."""
    return all(raid6.code.verify(assemble_stripe(raid6, g)) for g in range(raid6.groups))


def scrub_raid6_loop(raid6: Raid6Array, repair: bool = True) -> Raid6ScrubReport:
    """The per-group scrub ``scrub_raid6`` replaced: each group assembled
    into a stripe, its chains XORed one at a time, and a located cell
    rebuilt by replaying its recovery plan over the stripe."""
    report = Raid6ScrubReport()
    code = raid6.code
    virtual = code.layout.virtual_cells
    signatures: dict = {}
    for idx, chain in enumerate(code.layout.chains):
        for cell in (chain.parity, *chain.members):
            signatures.setdefault(cell, set()).add(idx)
    for group in range(raid6.groups):
        report.groups_checked += 1
        stripe = assemble_stripe(raid6, group)
        violated, syndromes = [], []
        for idx, chain in enumerate(code.layout.chains):
            acc = stripe[chain.parity[0], chain.parity[1]].copy()
            for cell in chain.members:
                if cell not in virtual:
                    np.bitwise_xor(acc, stripe[cell[0], cell[1]], out=acc)
            if acc.any():
                violated.append(idx)
                syndromes.append(acc)
        if not violated:
            continue
        report.inconsistent_groups.append(group)
        same_delta = all(np.array_equal(s, syndromes[0]) for s in syndromes)
        candidates = [
            cell
            for cell, sig in signatures.items()
            if sig == set(violated) and cell not in virtual
        ]
        if not same_delta or len(candidates) != 1:
            report.unlocatable_groups.append(group)
            continue
        cell = candidates[0]
        report.located.append((group, cell))
        if repair:
            apply_recovery_plan(code.plan_cell_recovery((cell,)), stripe)
            disk = raid6.disk_of(group, cell[1])
            raid6.array.raw(disk, raid6.block_of(group, cell[0]))[...] = stripe[
                cell[0], cell[1]
            ]
            report.repaired.append((group, cell))
    return report


def raid5_scrub_loop(raid5: Raid5Array) -> list[int]:
    """The per-stripe scrub ``Raid5Array.row_residues`` replaced, behind
    both ``Raid5Array.verify`` and ``scrub_raid5``."""
    return [s for s in range(raid5.stripes) if row_xor_raw(raid5.array, s, raid5.n).any()]


def raid5_verify_loop(raid5: Raid5Array) -> bool:
    return not raid5_scrub_loop(raid5)


def conversion_parity_loop(result) -> bool:
    """Per-group parity check of a converted array (``assemble_group``)."""
    plan = result.plan
    return all(
        plan.code.verify(assemble_group(plan, result.array, g)) for g in range(plan.groups)
    )


def payload_replay(result, rng=None, failure_trials: int = 3) -> bool:
    """The failure trials ``verify_conversion`` ran before it proved its
    plans: each plan replayed over the stored payload of every group,
    the lost cells rebuilt into scratch and compared with the store.
    Draws the same column pairs from ``rng`` as the audit does."""
    plan, array = result.plan, result.array
    code = plan.code
    stored = recovery.audit_table(plan).lookup(array)
    rng = np.random.default_rng(0) if rng is None else rng
    cols = code.layout.physical_cols
    for _ in range(failure_trials):
        f1, f2 = rng.choice(len(cols), size=2, replace=False)
        trial = code.plan_column_recovery(cols[int(f1)], cols[int(f2)])
        row = {cell: i for i, cell in enumerate(trial.lost)}
        scratch = np.zeros((len(row), plan.groups, array.block_size), dtype=np.uint8)

        def source(cell):
            i = row.get(cell)
            return stored(cell) if i is None else scratch[i]

        run_recovery_steps(trial, source, lambda cell: scratch[row[cell]])
        for got, want in zip(scratch, map(stored, trial.lost)):
            if not (not got.any() if want is None else np.array_equal(got, want)):
                return False
    return True


def reference_loop(vol: FleetVolume) -> np.ndarray:
    """The per-LBA offline image ``FleetVolume.reference_snapshot`` replaced."""
    spec = vol.spec
    rows, m, bs = spec.rows, vol.m, spec.block_size
    stripes = spec.groups * rows
    final = vol.data.copy()
    for lba, payload in vol.applied.items():
        final[lba] = payload
    expect = np.zeros((spec.p, stripes, bs), dtype=np.uint8)
    for lba in range(spec.capacity_blocks):
        stripe, disk = locate_block(vol.layout, lba, m)
        expect[disk, stripe] = final[lba]
    for stripe in range(stripes):
        pd = parity_disk(vol.layout, stripe, m)
        acc = np.zeros(bs, dtype=np.uint8)
        for d in range(m):
            if d != pd:
                np.bitwise_xor(acc, expect[d, stripe], out=acc)
        expect[pd, stripe] = acc
    for group in range(spec.groups):
        for row in range(rows):
            acc = np.zeros(bs, dtype=np.uint8)
            for r, c in diagonal_chain_cells(spec.p, row):
                np.bitwise_xor(acc, expect[c, group * rows + r], out=acc)
            expect[m, group * rows + row] = acc
    return expect


def divergent_loop(vol: FleetVolume) -> int:
    """The snapshot comparison ``FleetVolume.divergent_blocks`` replaced."""
    expect, got = reference_loop(vol), vol.array.snapshot()
    return sum(
        int(np.any(expect[d] != got[d], axis=-1).sum())
        for d in range(vol.spec.p)
        if d not in vol.array.failed_disks
    )


# -------------------------------------------------------------- planting
def planted_cells(layout, groups: int) -> dict:
    """``kind -> (group, cell)``: a data cell of group 0, the last-row
    horizontal parity and a diagonal parity of the last group, and (on a
    shortened code) a virtual cell stored on a physical column."""
    virtual = layout.virtual_cells

    def parity_of(kind):
        return max(
            ch.parity for ch in layout.chains if ch.kind is kind and ch.parity not in virtual
        )

    cells = {
        "data": (0, layout.data_cells[0]),
        "horizontal": (groups - 1, parity_of(ChainKind.HORIZONTAL)),
        "diagonal": (groups - 1, parity_of(ChainKind.DIAGONAL)),
    }
    if layout.extra_virtual_cells:
        cells["virtual"] = (groups - 1, max(layout.extra_virtual_cells))
    return cells


def assert_flip_caught(array: BlockArray, disk: int, block: int, *verifiers) -> None:
    """Clean passes; one flipped byte fails every verifier; restoring passes."""
    assert all(v() for v in verifiers)
    array.raw(disk, block)[0] ^= 0x5A
    assert not any(v() for v in verifiers)
    array.raw(disk, block)[0] ^= 0x5A
    assert all(v() for v in verifiers)


# ---------------------------------------------------------- online verify
@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("kind", ["data", "horizontal", "diagonal"])
def test_online_verify_catches_planted_flip(p, kind):
    plan = build_plan("code56", "direct", p, groups=GROUPS)
    array, _ = prepare_source_array(plan, np.random.default_rng(p), block_size=BS)
    conv = OnlineCode56Conversion(array, p, batch=GROUPS * (p - 1))
    conv.run([])
    group, (row, col) = planted_cells(conv.code.layout, GROUPS)[kind]
    # columns 0..p-2 are disks 0..p-2, column p-1 the diagonal disk m
    assert_flip_caught(
        array, col, group * conv.rows + row, conv.verify, lambda: online_verify_loop(conv)
    )


def test_online_verify_is_a_view_not_a_copy():
    plan = build_plan("code56", "direct", 5, groups=GROUPS)
    array, _ = prepare_source_array(plan, np.random.default_rng(0), block_size=BS)
    conv = OnlineCode56Conversion(array, 5, batch=4)
    conv.run([])
    seen = []
    original = conv.code.verify_cells

    def spy(store, addr):
        seen.append((store, addr))
        return original(store, addr)

    conv.code.verify_cells = spy
    assert conv.verify()
    ((store, addr),) = seen
    assert store.shape == (array.n_disks * array.blocks_per_disk, BS)
    assert addr.shape == (4 * 5, GROUPS)
    assert np.shares_memory(store, array.bulk_view(slice(0, 5), slice(None)))


def test_online_verify_refuses_failed_disks():
    plan = build_plan("code56", "direct", 5, groups=GROUPS)
    array, _ = prepare_source_array(plan, np.random.default_rng(0), block_size=BS)
    conv = OnlineCode56Conversion(array, 5, batch=4)
    conv.run([])
    array.fail_disk(2)
    with pytest.raises(RuntimeError, match="rebuild failed disks"):
        conv.verify()


# ---------------------------------------------------------- Raid6Array
@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("rotation", [None, 1, 2])
@pytest.mark.parametrize("virtual_cols", [(), (0,)], ids=["full", "shortened"])
def test_raid6_verify_catches_planted_flips(p, rotation, virtual_cols):
    code = get_code("code56", p, virtual_cols=virtual_cols)
    # disks are numbered by column, so a virtual column leaves one unused
    array = BlockArray(code.cols, GROUPS * code.rows, block_size=BS)
    raid6 = Raid6Array(array, code, rotation_period=rotation)
    rng = np.random.default_rng(p)
    raid6.format_with(rng.integers(0, 256, size=(raid6.capacity_blocks, BS), dtype=np.uint8))
    cells = planted_cells(code.layout, GROUPS)
    assert ("virtual" in cells) == bool(virtual_cols)
    for group, (row, col) in cells.values():
        assert_flip_caught(
            array, raid6.disk_of(group, col), raid6.block_of(group, row),
            raid6.verify, lambda: raid6_verify_loop(raid6),
        )


@pytest.mark.parametrize("code_name", ["rdp", "evenodd", "xcode", "hdp"])
def test_raid6_verify_agrees_with_loop_on_other_codes(code_name):
    code = get_code(code_name, 7)
    array = BlockArray(code.n_disks, GROUPS * code.rows, block_size=BS)
    raid6 = Raid6Array(array, code, rotation_period=1)
    rng = np.random.default_rng(7)
    raid6.format_with(rng.integers(0, 256, size=(raid6.capacity_blocks, BS), dtype=np.uint8))
    for group in range(GROUPS):
        for col in code.layout.physical_cols:
            assert_flip_caught(
                array, raid6.disk_of(group, col), raid6.block_of(group, code.rows - 1),
                raid6.verify, lambda: raid6_verify_loop(raid6),
            )


@pytest.mark.parametrize("rotation", [None, 1, 2])
@pytest.mark.parametrize("virtual_cols", [(), (0,)], ids=["full", "shortened"])
def test_raid6_addresses_follow_the_rotation(rotation, virtual_cols):
    """Every physical cell's address reads the block ``disk_of`` and
    ``block_of`` name, in place; a virtual column reads as zero (-1)."""
    code = get_code("code56", 5, virtual_cols=virtual_cols)
    array = BlockArray(code.cols, GROUPS * code.rows, block_size=BS)
    flat = array.flat_view()
    flat[...] = np.random.default_rng(0).integers(0, 256, size=flat.shape, dtype=np.uint8)
    raid6 = Raid6Array(array, code, rotation_period=rotation)
    addr = raid6.addresses()
    assert addr.shape == (code.rows * code.cols, GROUPS)
    for g in range(GROUPS):
        for r in range(code.rows):
            for c in range(code.cols):
                a = addr[r * code.cols + c, g]
                if c in code.layout.virtual_cols:
                    assert a == -1
                    continue
                block = array.raw(raid6.disk_of(g, c), raid6.block_of(g, r))
                assert np.shares_memory(flat[a], block) and np.array_equal(flat[a], block)


# ---------------------------------------------------------- syndromes
SCRUB_CODES = [(name, ()) for name in CODE_CATALOG] + [("code56", (0,))]
SCRUB_IDS = [name + ("-shortened" if virtual else "") for name, virtual in SCRUB_CODES]


@pytest.mark.parametrize("p", [5, 7])
@pytest.mark.parametrize("name,virtual_cols", SCRUB_CODES, ids=SCRUB_IDS)
def test_syndromes_name_exactly_the_flipped_cells_chains(name, virtual_cols, p):
    """One cell of one group flipped by a random nonzero delta: the
    violated chains are that cell's chain signature, in that group only,
    each residue is the delta, and ``verify_cells`` fails exactly when a
    residue is nonzero.  Virtual cells included: every one lies on a
    chain, so garbage stored in one shows in the residues too."""
    code = get_code(name, p, virtual_cols=virtual_cols)
    layout = code.layout
    rng = np.random.default_rng(p)
    groups = 4
    stripes = code.make_stripe(
        rng.integers(0, 256, size=(groups, code.num_data, BS), dtype=np.uint8)
    )

    # the stripes as a block store: cell (r, c) of group g is row
    # (g * rows + r) * cols + c
    store = stripes.reshape(-1, BS)
    addr = np.arange(len(store)).reshape(groups, -1).T

    def violated():
        """chain index -> (groups where it is violated, their residues)."""
        bad = code.syndromes(store, addr)
        assert bad.shape == (len(layout.chains), groups)
        return {
            idx: (hit, [code.residue(store, addr, idx, g) for g in hit])
            for idx in range(len(layout.chains))
            if (hit := np.flatnonzero(bad[idx]).tolist())
        }

    assert violated() == {} and code.verify_cells(store, addr)
    real = [rc for rc in (*layout.data_cells, *sorted(layout.parity_cells))
            if rc not in layout.virtual_cells]
    for rc in real + sorted(layout.virtual_cells):
        group = int(rng.integers(groups))
        delta = rng.integers(0, 256, size=BS, dtype=np.uint8)
        delta[int(rng.integers(BS))] |= 0x01
        stripes[group, rc[0], rc[1]] ^= delta
        signature = {
            idx for idx, ch in enumerate(layout.chains) if rc == ch.parity or rc in ch.members
        }
        seen = violated()
        assert set(seen) == signature, rc
        for bad_groups, (residue,) in seen.values():
            assert bad_groups == [group]
            assert np.array_equal(residue, delta)
        assert seen and not code.verify_cells(store, addr)
        # ``chains=`` checks just the chains asked for, in the order asked
        pick = sorted(signature)[::-1]
        assert np.array_equal(code.syndromes(store, addr, chains=pick),
                              code.syndromes(store, addr)[pick])
        stripes[group, rc[0], rc[1]] ^= delta
    assert violated() == {} and code.verify_cells(store, addr)


@pytest.mark.parametrize("budget", [2 * BS, 5 * BS, 24 * BS, 96 * BS, 648 * BS, None],
                         ids=lambda b: f"tile{b}")
@pytest.mark.parametrize("name,virtual_cols", SCRUB_CODES, ids=SCRUB_IDS)
def test_syndromes_tiles_agree_with_the_chain_loop(monkeypatch, name, virtual_cols, budget):
    """Every tile shape — one chain of one group one term at a time, runs
    of terms, several chains and groups, the whole pass in one tile —
    gives the violation map a per-chain, per-group XOR loop gives, with
    holes (-1 addresses) reading as zero."""
    if budget is not None:
        monkeypatch.setattr(base, "SYNDROME_TILE_BYTES", budget)
    code = get_code(name, 7, virtual_cols=virtual_cols)
    rng = np.random.default_rng(len(name))
    groups = 9
    stripes = code.make_stripe(
        rng.integers(0, 256, size=(groups, code.num_data, BS), dtype=np.uint8)
    )
    for _ in range(6):
        stripes[int(rng.integers(groups)), int(rng.integers(code.rows)),
                int(rng.integers(code.cols)), int(rng.integers(BS))] ^= 0x21
    store = stripes.reshape(-1, BS)
    addr = np.arange(len(store)).reshape(groups, -1).T.copy()
    holes = [r * code.cols + c for r, c in sorted(code.layout.virtual_cells)]
    addr[holes] = -1
    want = np.zeros((len(code.layout.chains), groups), dtype=bool)
    for idx, chain in enumerate(code.layout.chains):
        for g in range(groups):
            acc = np.zeros(BS, dtype=np.uint8)
            for r, c in (chain.parity, *chain.members):
                if (r, c) not in code.layout.virtual_cells:
                    acc ^= stripes[g, r, c]
            want[idx, g] = acc.any()
    assert want.any() and not want.all()
    assert np.array_equal(code.syndromes(store, addr), want)
    pick = [int(i) for i in rng.permutation(len(code.layout.chains))[:5]]
    assert np.array_equal(code.syndromes(store, addr, chains=pick), want[pick])


# ---------------------------------------------------------- scrub_raid6
SCRUB_GROUPS = 5
SCRUB_CASES = ["data", "parity", "two-in-one-group", "several-groups"]


def _scrub_flips(code, case: str, rng) -> list:
    """``[(group, cell)]`` to corrupt for one scrub case."""
    layout = code.layout
    parity = sorted(layout.parity_cells - layout.virtual_cells)
    real = list(layout.data_cells) + parity

    def pick(cells):
        return cells[int(rng.integers(len(cells)))]

    if case == "data":
        return [(1, pick(layout.data_cells))]
    if case == "parity":
        return [(SCRUB_GROUPS - 1, pick(parity))]
    if case == "two-in-one-group":
        a, b = rng.choice(len(real), size=2, replace=False)
        return [(2, real[int(a)]), (2, real[int(b)])]
    return [(g, pick(real)) for g in (0, 2, SCRUB_GROUPS - 1)]


def _scrub_pair(code, rotation, flips, seed) -> tuple[Raid6Array, Raid6Array]:
    """Two identical formatted, corrupted arrays."""
    pair = []
    for _ in range(2):
        rng = np.random.default_rng(seed)
        array = BlockArray(code.cols, SCRUB_GROUPS * code.rows, block_size=BS)
        raid6 = Raid6Array(array, code, rotation_period=rotation)
        raid6.format_with(
            rng.integers(0, 256, size=(raid6.capacity_blocks, BS), dtype=np.uint8)
        )
        for group, (r, c) in flips:
            block = array.raw(raid6.disk_of(group, c), raid6.block_of(group, r))
            block[int(rng.integers(BS))] ^= int(rng.integers(1, 256))
        pair.append(raid6)
    return pair[0], pair[1]


@pytest.mark.parametrize("case", SCRUB_CASES)
@pytest.mark.parametrize("rotation", [None, 1, 3])
@pytest.mark.parametrize("p", [5, 7])
@pytest.mark.parametrize("name,virtual_cols", SCRUB_CODES, ids=SCRUB_IDS)
def test_scrub_raid6_matches_loop(name, virtual_cols, p, rotation, case):
    """Every report field and every stored byte equal the per-group
    loop's, with repair on and off."""
    code = get_code(name, p, virtual_cols=virtual_cols)
    seed = 1000 * SCRUB_CODES.index((name, virtual_cols)) + 100 * (rotation or 0)
    seed += 10 * SCRUB_CASES.index(case) + p
    flips = _scrub_flips(code, case, np.random.default_rng(seed))
    for repair in (True, False):
        got, want = _scrub_pair(code, rotation, flips, seed)
        report = scrub_raid6(got, repair=repair)
        assert report == scrub_raid6_loop(want, repair=repair)
        assert np.array_equal(got.array.snapshot(), want.array.snapshot())
        assert report.groups_checked == SCRUB_GROUPS
        if case in ("data", "parity"):
            assert report.located == flips
            assert report.repaired == (flips if repair else [])
            assert got.verify() == repair


def test_scrub_raid6_reports_garbage_in_a_virtual_cell():
    """A shortened code stores nothing in a virtual cell; bytes found
    there make the groups inconsistent and unlocatable, as ``verify``
    fails, and nothing is repaired.  (The loop skipped virtual members
    and called such an array clean.)"""
    code = get_code("code56", 5, virtual_cols=(0,))
    group, (r, c) = planted_cells(code.layout, SCRUB_GROUPS)["virtual"]
    raid6, old = _scrub_pair(code, None, [], 0)
    for array in (raid6.array, old.array):
        array.raw(raid6.disk_of(group, c), raid6.block_of(group, r))[0] ^= 0x5A
    before = raid6.array.snapshot()
    assert not raid6.verify()
    assert scrub_raid6_loop(old).clean
    report = scrub_raid6(raid6)
    assert report.inconsistent_groups == report.unlocatable_groups == [group]
    assert not report.located and not report.repaired
    assert np.array_equal(raid6.array.snapshot(), before)


# ---------------------------------------------------------- Raid5Array
@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("kind", ["data", "horizontal"])
def test_raid5_verify_catches_planted_flip(p, kind):
    # the source RAID-5 of a Code 5-6 conversion: m = p-1 disks of p
    plan = build_plan("code56", "direct", p, groups=GROUPS)
    array, _ = prepare_source_array(plan, np.random.default_rng(p), block_size=BS)
    raid5 = Raid5Array(array, plan.source_layout, n_disks=plan.m)
    array.raw(plan.m, 0)[...] = 0xFF  # the blank hot-added disk is outside the RAID-5
    last = raid5.stripes - 1
    disk, block = {
        "data": raid5.locate(0)[::-1],
        "horizontal": (raid5.parity_disk(last), last),
    }[kind]
    assert_flip_caught(array, disk, block, raid5.verify, lambda: raid5_verify_loop(raid5))


@pytest.mark.parametrize("p", PRIMES)
def test_scrub_raid5_matches_loop(p):
    plan = build_plan("code56", "direct", p, groups=GROUPS)
    array, _ = prepare_source_array(plan, np.random.default_rng(p), block_size=BS)
    raid5 = Raid5Array(array, plan.source_layout, n_disks=plan.m)
    rng = np.random.default_rng(p)
    for _ in range(3):
        disk, block = int(rng.integers(plan.m)), int(rng.integers(raid5.stripes))
        array.raw(disk, block)[int(rng.integers(BS))] ^= int(rng.integers(1, 256))
    report = scrub_raid5(raid5)
    assert report.stripes_checked == raid5.stripes
    assert report.inconsistent_stripes == raid5_scrub_loop(raid5) != []


# ---------------------------------------------------------- verify_conversion
def conversion_flip_sites(plan) -> dict[str, list[tuple[int, int]]]:
    """``name -> [(disk, block)]``: the blocks to corrupt in a converted array.

    The first and last stored cell of each kind (data, and the parity of
    each chain kind) in the first group, the last base group and the last
    group, plus the first and last cell of every region the plan's
    :class:`Tiling` moves by its own step: reserved capacity (X-Code's
    and P-Code's reserve rows, HDP's overflow groups), the overflow
    groups themselves, and each hot-added disk (Code 5-6's diagonal disk).
    """
    cells, tiling, layout = plan.cells, plan.tiling, plan.code.layout
    kind_of = {cell: "data" for cell in layout.data_cells}
    kind_of.update({chain.parity: chain.kind.name.lower() for chain in layout.chains})
    kind = np.array([kind_of[(r, c)] for r, c in zip(cells.row, cells.col)])
    regions = {
        f"{k}@group{g}": (kind == k) & (cells.group == g)
        for k in sorted(set(kind_of.values()))
        for g in sorted({0, tiling.base_groups - 1, plan.groups - 1})
    }
    regions["reserve"] = cells.block >= tiling.reserve_from
    regions["overflow"] = cells.group >= tiling.base_groups
    regions.update({f"disk{d}": cells.disk == d for d in plan.new_disks})
    return {
        name: [(int(cells.disk[i]), int(cells.block[i])) for i in hits[[0, -1]]]
        for name, hits in ((name, np.flatnonzero(mask)) for name, mask in regions.items())
        if hits.size
    }


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("shortened", [False, True])
def test_verify_conversion_catches_planted_flips(p, shortened):
    n_disks = p - 1 if shortened else None  # one virtual disk when shortened
    plan = build_plan("code56", "direct", p, groups=GROUPS, n_disks=n_disks)
    array, data = prepare_source_array(plan, np.random.default_rng(p), block_size=BS)
    result = execute_plan_compiled(plan, array, data)
    cells = planted_cells(plan.code.layout, GROUPS)
    assert ("virtual" in cells) == shortened
    for kind, (group, cell) in cells.items():
        if kind == "virtual":
            # a virtual cell has no physical block: it reads as zero
            assert (group, cell) not in plan.cell_locations
            continue
        loc = plan.cell_locations[(group, cell)]
        assert_flip_caught(
            array, loc.disk, loc.block,
            lambda: verify_conversion(result), lambda: conversion_parity_loop(result),
        )


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("code,approach", supported_conversions())
def test_verify_conversion_catches_planted_flips_on_every_pair(code, approach, p):
    """Every pair, tiled with a partial last cycle where the cycle allows
    one: a flip in any cell kind or tiled region fails both the in-place
    audit and the per-group oracle, so no region can be read at a wrong
    stride unnoticed."""
    cycle = alignment_cycle(code, p)
    plan = build_plan(code, approach, p, groups=2 * cycle + 1)
    assert plan.tiling.tail == (1 if cycle > 1 else 0)
    array, data = prepare_source_array(plan, np.random.default_rng(p), block_size=BS)
    result = execute_plan_compiled(plan, array, data)
    sites = conversion_flip_sites(plan)
    assert ("reserve" in sites) == bool(plan.tiling.reserve_step)
    assert ("overflow" in sites) == bool(plan.tiling.overflow_step)
    assert verify_conversion(result) and conversion_parity_loop(result)
    for name, blocks in sites.items():
        for disk, block in blocks:
            array.raw(disk, block)[0] ^= 0x5A
            assert not verify_conversion(result), (name, disk, block)
            assert not conversion_parity_loop(result), (name, disk, block)
            array.raw(disk, block)[0] ^= 0x5A
            assert verify_conversion(result), (name, disk, block)
            assert conversion_parity_loop(result), (name, disk, block)


def test_verify_conversion_catches_a_bad_recovery_plan(monkeypatch):
    """The column-only comparison still sees a repair that goes wrong."""
    plan = build_plan("code56", "direct", 7, groups=GROUPS)
    array, data = prepare_source_array(plan, np.random.default_rng(7), block_size=BS)
    result = execute_plan_compiled(plan, array, data)
    assert verify_conversion(result) and payload_replay(result)
    _bad_recovery_plans(monkeypatch)
    assert not verify_conversion(result)
    assert not payload_replay(result)


def test_recovery_proof_rejects_a_plan_the_payload_replay_accepts(monkeypatch):
    """A plan that also XORs in a data cell holding zero in every group
    rebuilds this array's payload, so the replay passes it; on any
    codeword with that cell nonzero it is wrong, so the proof fails it."""
    plan = build_plan("code56", "direct", 7, groups=GROUPS)
    template = plan.code.layout.data_cells[0]
    lbas = np.flatnonzero((plan.data.row == template[0]) & (plan.data.col == template[1]))
    assert len(lbas) == GROUPS  # the template holds an LBA in every group
    data = np.random.default_rng(7).integers(0, 256, (plan.data_blocks, BS), dtype=np.uint8)
    data[lbas] = 0
    array, data = prepare_source_array(plan, None, block_size=BS, data=data)
    result = execute_plan_compiled(plan, array, data)
    assert verify_conversion(result) and payload_replay(result)

    original = ArrayCode.plan_column_recovery
    spared = []

    def also_xor_the_zero_cell(self, *cols):
        trial = original(self, *cols)
        if template in trial.lost:
            return trial
        spared.append(cols)
        steps = list(trial.steps)
        i = next(i for i, s in enumerate(steps) if template not in s.sources)
        steps[i] = replace(steps[i], sources=steps[i].sources + (template,))
        return replace(trial, steps=tuple(steps))

    monkeypatch.setattr(ArrayCode, "plan_column_recovery", also_xor_the_zero_cell)
    assert payload_replay(result)
    assert spared  # at least one trial ran the altered plan
    assert not verify_conversion(result)


def test_verify_conversion_trials_leave_stripes_intact():
    """Far more trials than column pairs all pass: no trial disturbs what
    a later one reads."""
    plan = build_plan("code56", "direct", 5, groups=GROUPS)
    array, data = prepare_source_array(plan, np.random.default_rng(5), block_size=BS)
    result = execute_plan_compiled(plan, array, data)
    # far more trials than column pairs: every pair repeats, in both orders
    assert verify_conversion(result, rng=np.random.default_rng(1), failure_trials=40)
    assert payload_replay(result, rng=np.random.default_rng(1), failure_trials=40)


def _bad_recovery_plans(monkeypatch) -> None:
    """Make every column recovery plan drop one source of one step."""
    original = ArrayCode.plan_column_recovery

    def drop_one_source(self, *cols):
        recovery = original(self, *cols)
        steps = list(recovery.steps)
        i = next(i for i, s in enumerate(steps) if len(s.sources) >= 2)
        steps[i] = replace(steps[i], sources=steps[i].sources[1:])
        return replace(recovery, steps=tuple(steps))

    monkeypatch.setattr(ArrayCode, "plan_column_recovery", drop_one_source)


@pytest.mark.parametrize("outcome", ["pass", "bad-data", "bad-trial"])
def test_verify_conversion_only_reads_the_array(outcome, monkeypatch):
    """Passing or failing, the audit leaves every byte and counter as it was."""
    plan = build_plan("code56", "direct", 7, groups=GROUPS)
    array, data = prepare_source_array(plan, np.random.default_rng(7), block_size=BS)
    result = execute_plan_compiled(plan, array, data)
    if outcome == "bad-data":
        loc = plan.cell_locations[planted_cells(plan.code.layout, GROUPS)["data"]]
        array.raw(loc.disk, loc.block)[0] ^= 0x5A
    if outcome == "bad-trial":
        _bad_recovery_plans(monkeypatch)
    before = array.snapshot(), array.reads.copy(), array.writes.copy()
    assert verify_conversion(result) == (outcome == "pass")
    after = array.snapshot(), array.reads, array.writes
    assert all(np.array_equal(x, y) for x, y in zip(before, after))


@pytest.mark.parametrize("code,approach", supported_conversions())
def test_verify_conversion_peak_memory_is_under_half_the_array(code, approach):
    """The audit reads the store in place: at the offline benchmark's size
    its traced allocations peak below half the array's bytes (a stripe
    tensor alone would be one whole array)."""
    plan = build_plan(code, approach, 13, groups=48)
    array, data = prepare_source_array(plan, np.random.default_rng(0), block_size=4096)
    result = execute_plan_compiled(plan, array, data)
    recovery._AUDIT_CACHE.clear()  # the table's build counts too
    tracemalloc.start()
    try:
        assert verify_conversion(result)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    array_bytes = array.n_disks * array.blocks_per_disk * array.block_size
    assert peak <= 0.5 * array_bytes, peak / array_bytes


@pytest.mark.parametrize("groups", [1, 3])
@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("code,approach", supported_conversions())
def test_planned_io_counts_without_the_op_stream(code, approach, p, groups):
    plan = build_plan(code, approach, p, groups=groups)
    array, data = prepare_source_array(plan, np.random.default_rng(p), block_size=8)
    result = execute_plan_compiled(plan, array, data)
    assert verify_conversion(result, check_io_counters=True)
    assert "ops" not in plan.__dict__  # the op stream was never built
    assert plan.read_ios == sum(op.kind is OpKind.READ for op in plan.ops)
    assert plan.write_ios == sum(op.kind is OpKind.WRITE for op in plan.ops)


# ---------------------------------------------------------- fleet oracle
def _volume(p: int, seed: int, **kwargs) -> FleetVolume:
    return FleetVolume(VolumeSpec(volume_id=seed, p=p, groups=GROUPS, seed=seed, **kwargs))


@pytest.mark.parametrize("p", [5, 7])
def test_reference_snapshot_matches_loop_without_writes(p):
    vol = _volume(p, seed=3)
    assert not vol.applied
    assert np.array_equal(vol.reference_snapshot(), reference_loop(vol))


@pytest.mark.parametrize("p", [5, 7])
def test_reference_snapshot_matches_loop_after_writes(p):
    vol = _volume(p, seed=11, n_requests=40)
    res = vol.run()
    assert res["state"] == "complete" and vol.applied
    assert np.array_equal(vol.reference_snapshot(), reference_loop(vol))
    assert res["divergent_blocks"] == divergent_loop(vol) == 0


@pytest.mark.parametrize("spares", [1, 0], ids=["rebuilt", "still-failed"])
def test_reference_snapshot_matches_loop_after_disk_failure(spares):
    vol = _volume(5, seed=5, failures=(DiskFailureEvent(time=12.0, disk=1),))
    res = vol.run(SparePool(spares))
    assert res["state"] == "complete"
    assert bool(vol.array.failed_disks) == (spares == 0)
    assert np.array_equal(vol.reference_snapshot(), reference_loop(vol))
    assert res["divergent_blocks"] == divergent_loop(vol) == 0


def test_divergent_blocks_counts_like_snapshot_loop():
    vol = _volume(7, seed=2, failures=(DiskFailureEvent(time=12.0, disk=1),))
    vol.run(SparePool(0))
    assert vol.array.failed_disks == {1}
    for disk, block in ((0, 0), (0, 1), (3, 5), (6, GROUPS * 6 - 1), (1, 2)):
        vol.array.raw(disk, block)[-1] ^= 0x01
    # the flip on failed disk 1 is stale by design and not counted
    assert vol.divergent_blocks() == divergent_loop(vol) == 4


# ---------------------------------------------------------- allocation guards
def _traced_peak(fn):
    """``(fn(), peak bytes tracemalloc saw numpy and Python allocate)``."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_divergent_blocks_streams_its_image():
    """At the ``fleet-faulted`` geometry (p=13, 4 groups, 4 KiB blocks) the
    audit holds one group's image, not the 6.6 MB whole-volume image."""
    vol = FleetVolume(VolumeSpec(
        volume_id=7, p=13, groups=4, block_size=4096, seed=2026, n_requests=32, batch=4,
    ))
    assert vol.run()["state"] == "complete" and vol.applied
    divergent, peak = _traced_peak(vol.divergent_blocks)
    assert divergent == 0
    assert peak < 2_000_000, peak


@pytest.mark.parametrize("groups", [4, 192])
def test_syndromes_pass_allocates_at_most_two_tiles(groups):
    """A syndrome pass never materialises its ``(chains, groups, block)``
    residue: at 4 KiB blocks its peak stays within two tile budgets at
    any group count.  Every group's addresses name one encoded stripe,
    so the store stays one stripe big."""
    code = get_code("code56", 13)
    rng = np.random.default_rng(0)
    stripe = code.make_stripe(rng.integers(0, 256, size=(code.num_data, 4096), dtype=np.uint8))
    store = stripe.reshape(-1, 4096)
    addr = np.repeat(np.arange(len(store))[:, None], groups, axis=1)
    violated, peak = _traced_peak(lambda: code.syndromes(store, addr))
    assert violated.shape == (len(code.layout.chains), groups) and not violated.any()
    assert peak <= 2 * SYNDROME_TILE_BYTES, peak
    stripe[0, 0, 0] ^= 1
    assert code.syndromes(store, addr).any(axis=0).all()
