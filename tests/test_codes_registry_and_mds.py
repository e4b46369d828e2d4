"""Registry factory, MDS certifier and codeword basis."""

import itertools

import numpy as np
import pytest

from repro.codes import (
    CODE_CATALOG,
    CODE_NAMES,
    certify_mds,
    check_double_erasures,
    disks_for,
    get_code,
    get_layout,
)
from repro.codes.geometry import ChainKind, CodeLayout, ParityChain
from repro.codes.mds import codeword_basis, recovers_codewords
from repro.util.gf2 import gf2_rank


class TestRegistry:
    def test_all_paper_codes_present(self):
        assert set(CODE_NAMES) == {
            "code56", "rdp", "evenodd", "hcode", "xcode", "pcode", "hdp",
        }
        assert set(CODE_NAMES) <= set(CODE_CATALOG)

    def test_unknown_code(self):
        with pytest.raises(KeyError):
            get_layout("nope", 5)

    def test_disks_for(self):
        assert disks_for("code56", 5) == 5
        assert disks_for("rdp", 5) == 6
        assert disks_for("evenodd", 5) == 7
        assert disks_for("hcode", 5) == 6
        assert disks_for("xcode", 5) == 5
        assert disks_for("pcode", 5) == 4
        assert disks_for("hdp", 5) == 4

    def test_catalog_disks_match_layouts(self):
        for name in CODE_NAMES:
            assert get_layout(name, 7).n_disks == disks_for(name, 7)

    def test_shorten_guard(self):
        with pytest.raises(ValueError):
            get_layout("xcode", 5, virtual_cols=(0,))

    def test_get_code_wraps_layout(self):
        code = get_code("rdp", 5)
        assert code.name == "rdp"
        assert code.p == 5


class TestCertifier:
    def test_all_codes_certify(self, paper_p):
        for name in CODE_NAMES:
            report = certify_mds(get_layout(name, paper_p))
            assert bool(report), (name, paper_p, report.failed_pairs)

    def test_broken_layout_detected(self):
        """A single-parity 'RAID-5' layout is not double-erasure safe."""
        p = 5
        chains = [
            ParityChain(
                parity=(i, p - 1),
                members=tuple((i, j) for j in range(p - 1)),
                kind=ChainKind.HORIZONTAL,
            )
            for i in range(p - 1)
        ]
        lay = CodeLayout(name="raid5ish", p=p, rows=p - 1, cols=p, chains=chains)
        failures = check_double_erasures(lay)
        assert failures  # every data-column pair is unrecoverable
        report = certify_mds(lay)
        assert not report.is_mds
        assert not bool(report)

    def test_report_records_failed_pairs(self):
        p = 5
        chains = [
            ParityChain(
                parity=(i, p - 1),
                members=tuple((i, j) for j in range(p - 1)),
                kind=ChainKind.HORIZONTAL,
            )
            for i in range(p - 1)
        ]
        lay = CodeLayout(name="raid5ish", p=p, rows=p - 1, cols=p, chains=chains)
        report = certify_mds(lay)
        assert (0, 1) in report.failed_pairs


def _basis_vectors(identity: np.ndarray, dim: int) -> np.ndarray:
    """Unpack an identity stripe into ``(dim, rows, cols, 1)`` 0/1 stripes."""
    bits = np.unpackbits(identity, axis=-1, bitorder="little")
    assert not bits[..., dim:].any()  # packbits pads with zero bits only
    return np.moveaxis(bits[..., :dim], -1, 0)[..., None]


class TestCodewordBasis:
    @pytest.mark.parametrize("p", [5, 7, 13])
    @pytest.mark.parametrize("name", sorted(CODE_CATALOG))
    def test_basis_spans_the_codewords(self, name, p):
        """One basis vector per data cell, each a codeword, all independent,
        and vector ``i`` the codeword whose only nonzero data cell is
        ``data_cells[i]``."""
        code = get_code(name, p)
        layout = code.layout
        identity = code.codeword_basis()
        dim = len(layout.data_cells)
        assert identity.shape == (code.rows, code.cols, (dim + 7) // 8)
        vectors = _basis_vectors(identity, dim)
        assert code.verify(vectors)  # every basis vector is a codeword
        assert gf2_rank(vectors.reshape(dim, -1)) == dim
        rows, cols = np.array(layout.data_cells).T
        assert np.array_equal(vectors[:, rows, cols, 0], np.eye(dim, dtype=np.uint8))
        assert np.array_equal(vectors, code.make_stripe(np.eye(dim, dtype=np.uint8)[..., None]))

    def test_basis_is_built_once_per_code(self):
        code = get_code("code56", 7)
        identity = code.codeword_basis()
        assert code.codeword_basis() is identity
        assert not identity.flags.writeable
        assert get_code("code56", 7).codeword_basis() is not identity
        assert np.array_equal(codeword_basis(code.layout), identity)

    def test_shortened_basis_zeroes_virtual_cells(self):
        code = get_code("code56", 7, virtual_cols=(0,))
        identity = code.codeword_basis()
        assert len(code.layout.data_cells) < len(get_code("code56", 7).layout.data_cells)
        for r, c in code.layout.virtual_cells:
            assert not identity[r, c].any()
        assert code.verify(_basis_vectors(identity, len(code.layout.data_cells)))

    @pytest.mark.parametrize("p", [5, 7])
    @pytest.mark.parametrize("name", sorted(CODE_CATALOG))
    def test_proof_accepts_every_column_pair(self, name, p):
        """No false rejections: the planner's plan for every column pair
        is proved over the identity stripe."""
        code = get_code(name, p)
        identity = code.codeword_basis()
        for pair in itertools.combinations(code.layout.physical_cols, 2):
            assert recovers_codewords(code.plan_column_recovery(*pair), identity), pair
