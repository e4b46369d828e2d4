"""The shared chain tables every caller reads: which chain a degraded read
uses (`CodeLayout.isolating_chains`) and which parities a write touches
(`CodeLayout.write_closure`), checked against test-local oracles."""

from collections import Counter

import numpy as np
import pytest

from repro.analysis.degraded import degraded_read_profile
from repro.codes import CODE_NAMES, get_code
from repro.raid import BlockArray, Raid6Array

CASES = [(name, p) for p in (5, 7) for name in CODE_NAMES]


def make(code, rng, bs=8):
    arr = BlockArray(code.n_disks, code.rows, block_size=bs)  # one group
    r6 = Raid6Array(arr, code)  # no rotation: column c lives on disk c
    data = rng.integers(0, 256, size=(r6.capacity_blocks, bs), dtype=np.uint8)
    r6.format_with(data)
    return r6, data


def first_cheapest_chain(layout, cell, lost):
    """Sources of the first chain, in layout order, with the fewest other
    terms among those whose only lost (non-virtual) term is ``cell``."""
    best = None
    for chain in layout.chains:
        terms = [t for t in (chain.parity, *chain.members) if t not in layout.virtual_cells]
        if [t for t in terms if t in lost] == [cell]:
            sources = [t for t in terms if t != cell]
            if best is None or len(sources) < len(best):
                best = sources
    return best


def touched_parities(layout, cell):
    """Every parity a write to ``cell`` reaches through chain membership."""
    touched, frontier = set(), [cell]
    while frontier:
        cur = frontier.pop()
        for chain in layout.chains:
            if cur in chain.members and chain.parity not in touched:
                touched.add(chain.parity)
                frontier.append(chain.parity)
    return touched


@pytest.mark.parametrize("name, p", CASES)
def test_degraded_read_uses_first_cheapest_chain(name, p, rng):
    code = get_code(name, p)
    layout = code.layout
    for col in layout.physical_cols:
        r6, data = make(code, rng)
        r6.array.fail_disk(col)
        lost = {(r, col) for r in range(layout.rows) if (r, col) not in layout.virtual_cells}
        profile = degraded_read_profile(layout, col)
        for lba, cell in enumerate(layout.data_cells):
            if cell[1] != col:
                continue
            sources = first_cheapest_chain(layout, cell, lost)
            r6.array.reset_counters()
            assert np.array_equal(r6.read(lba), data[lba]), (name, p, cell)
            expected = Counter(c for _r, c in sources)
            got = {d: int(n) for d, n in enumerate(r6.array.reads) if n}
            assert got == expected, (name, p, cell)
            assert profile.per_cell_reads[cell] == len(sources), (name, p, cell)


@pytest.mark.parametrize("name, p", CASES)
def test_write_paths_touch_one_closure(name, p, rng):
    code = get_code(name, p)
    layout = code.layout
    stripe = code.make_stripe(
        rng.integers(0, 256, size=(code.num_data, 8), dtype=np.uint8)
    )
    for failed in (None, *layout.physical_cols):
        r6, data = make(code, rng)
        if failed is not None:
            r6.array.fail_disk(failed)
        for lba, cell in enumerate(layout.data_cells):
            if cell[1] == failed:
                continue
            touched = touched_parities(layout, cell)
            assert set(layout.write_closure(cell)) == touched
            assert layout.update_penalty(cell) == len(touched)
            if failed is None:
                before = stripe.copy()
                new = stripe[cell[0], cell[1]] ^ 0xFF
                assert code.update_block(stripe, cell, new) == len(touched)
                changed = {
                    (r, c)
                    for r in range(layout.rows)
                    for c in range(layout.cols)
                    if not np.array_equal(before[r, c], stripe[r, c])
                }
                assert changed == touched | {cell}, (name, p, cell)
            r6.array.reset_counters()
            r6.write(lba, data[lba] ^ 0xFF)
            written = [t for t in touched if t[1] != failed]
            expected = Counter([cell[1], *(c for _r, c in written)])
            got = {d: int(n) for d, n in enumerate(r6.array.writes) if n}
            assert got == expected, (name, p, failed, cell)
        if failed is None:
            assert r6.verify(), (name, p)
