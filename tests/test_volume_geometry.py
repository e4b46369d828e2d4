"""VolumeGeometry: every address table of the online Code 5-6 volume
against the scalar arithmetic it replaces.

The oracles are the scalar placement functions (``locate_block``,
``parity_disk``), the per-parity chain (``diagonal_chain_cells``), the
closed-form diagonal row ``((r + c) % p + 1) % p``, the chain-row and
read-credit formulas recomputed straight from ``chain_table()``, and the
``disk_of`` loop ``Raid6Array.addresses()`` used to run.
"""

import numpy as np
import pytest

from repro.codes import get_code
from repro.codes.code56 import diagonal_chain_cells, horizontal_parity_cell
from repro.codes.registry import CODE_NAMES, disks_for
from repro.raid import BlockArray, Raid6Array
from repro.raid.layouts import (
    Raid5Layout,
    locate_block,
    parity_disk,
    volume_geometry,
)

SHAPES = [(p, groups) for p in (5, 7, 13) for groups in (1, 4)]


def _geometry(p, groups, n_disks=None):
    return volume_geometry(p, p if n_disks is None else n_disks, groups, groups * (p - 1))


@pytest.mark.parametrize("p,groups", SHAPES)
class TestTablesEqualTheirOracles:
    def test_locate_is_locate_block_and_divmod(self, p, groups):
        geo, m, rows = _geometry(p, groups), p - 1, p - 1
        assert geo.capacity == groups * rows * (m - 1)
        for lba in range(geo.capacity):
            stripe, disk = locate_block(Raid5Layout.LEFT_ASYMMETRIC, lba, m)
            group, row = divmod(stripe, rows)
            assert geo.locate(lba) == (group, row, disk, stripe)
        for bad in (-1, geo.capacity):
            with pytest.raises(ValueError):
                geo.locate(bad)

    def test_parity_disks_are_parity_disk(self, p, groups):
        geo = _geometry(p, groups)
        assert geo.parity_of == tuple(
            parity_disk(Raid5Layout.LEFT_ASYMMETRIC, s, p - 1) for s in range(groups * (p - 1))
        )

    def test_address_table_is_column_times_bpd(self, p, groups):
        geo, rows, bpd = _geometry(p, groups), p - 1, groups * (p - 1)
        assert geo.addresses.shape == (rows * p, groups)
        for g in range(groups):
            for r in range(rows):
                for c in range(p):
                    assert geo.addresses[r * p + c, g] == c * bpd + g * rows + r

    def test_chain_cells_are_diagonal_chain_cells(self, p, groups):
        geo = _geometry(p, groups)
        assert geo.chain_cells == tuple(diagonal_chain_cells(p, prow) for prow in range(p - 1))

    def test_diagonal_row_is_the_closed_form(self, p, groups):
        """Every data cell maps to ``((r + c) % p + 1) % p``; the
        horizontal parities sit on the anti-diagonal ``r + c = p-2``,
        which the closed form sends to ``p-1`` (no parity row) and the
        table marks ``-1``."""
        geo = _geometry(p, groups)
        parities = {horizontal_parity_cell(p, r) for r in range(p - 1)}
        for r in range(p - 1):
            for c in range(p - 1):
                expect = -1 if (r, c) in parities else ((r + c) % p + 1) % p
                assert geo.diagonal_row[r][c] == expect

    def test_chain_rows_and_credit_from_chain_table(self, p, groups):
        geo, rows, bpd = _geometry(p, groups, n_disks=p + 1), p - 1, groups * (p - 1)
        r_tab, c_tab = get_code("code56", p).chain_table().terms(range(rows, 2 * rows))
        r_tab, c_tab = r_tab[:, 1:], c_tab[:, 1:]
        keys = np.arange(groups * rows)
        prows = keys % rows
        expect = (c_tab * bpd + r_tab)[prows].T + (keys - prows)
        assert np.array_equal(geo.chain_rows, expect)
        credit = np.zeros((rows, p + 1), dtype=np.int64)
        for prow in range(rows):
            for c in c_tab[prow]:
                credit[prow, c] += 1
        assert np.array_equal(geo.read_credit, credit)

    def test_tables_are_read_only_and_cached(self, p, groups):
        geo = _geometry(p, groups)
        assert _geometry(p, groups) is geo
        for table in (geo.addresses, geo.chain_rows, geo.read_credit):
            assert not table.flags.writeable


def _disk_of_addresses(raid6):
    """The address table ``Raid6Array.addresses()`` built with one
    ``disk_of`` call per (group, column) before the shared helper."""
    groups, rows = np.arange(raid6.groups), np.arange(raid6.rows)[:, None]
    addr = np.full((raid6.rows, raid6.code.cols, raid6.groups), -1, dtype=np.intp)
    for c in raid6.code.layout.physical_cols:
        disks = np.array([raid6.disk_of(g, c) for g in groups], dtype=np.intp)
        addr[:, c] = disks * raid6.array.blocks_per_disk + groups * raid6.rows + rows
    return addr.reshape(-1, raid6.groups)


@pytest.mark.parametrize("rotation", [None, 1, 3])
@pytest.mark.parametrize("name", CODE_NAMES)
def test_raid6_addresses_equal_the_disk_of_loop(name, rotation):
    code = get_code(name, 7)
    array = BlockArray(disks_for(name, 7), 5 * code.rows, block_size=8)
    raid6 = Raid6Array(array, code, rotation_period=rotation)
    assert np.array_equal(raid6.addresses(), _disk_of_addresses(raid6))


def test_raid6_addresses_of_a_shortened_code():
    code = get_code("code56", 7, virtual_cols=(0, 2))
    raid6 = Raid6Array(BlockArray(code.cols, 4 * code.rows, block_size=8), code, rotation_period=1)
    addr = raid6.addresses()
    assert np.array_equal(addr, _disk_of_addresses(raid6))
    assert (addr.reshape(code.rows, code.cols, -1)[:, [0, 2]] == -1).all()
