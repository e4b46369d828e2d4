"""MDS certification of a :class:`CodeLayout`.

A RAID-6 array code is MDS when (a) it stores exactly ``n - 2`` disks'
worth of data on ``n`` disks and (b) any two whole-column erasures are
recoverable.  ``certify_mds`` checks both by attempting to *plan* the
recovery of every column pair with plain GF(2) elimination — planning
succeeds iff the system is uniquely solvable, so no payload needs to be
touched.  Tests additionally round-trip payloads through the plans for
defence in depth.

:func:`codeword_basis` packs a basis of the code's codewords into one
*identity stripe*, and :func:`recovers_codewords` replays a recovery
plan over it.  Recovery is linear over GF(2), so a plan that rebuilds
the lost cells of every basis vector rebuilds them for every codeword:
one replay over a few bytes per cell proves the plan for all payloads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from repro.codes.decoder import (
    UnrecoverableError,
    _equations,
    eliminate_recovery_plan,
    run_recovery_steps,
)
from repro.codes.geometry import CodeLayout
from repro.codes.plans import RecoveryPlan
from repro.util.gf2 import gf2_elimination

__all__ = [
    "MdsReport",
    "certify_mds",
    "check_double_erasures",
    "codeword_basis",
    "recovers_codewords",
]


@dataclass(frozen=True)
class MdsReport:
    """Outcome of a certification run."""

    layout_name: str
    p: int
    is_mds: bool
    storage_optimal: bool
    failed_pairs: tuple[tuple[int, ...], ...]

    def __bool__(self) -> bool:
        return self.is_mds and self.storage_optimal


def check_erasures(layout: CodeLayout, tolerance: int = 2) -> list[tuple[int, ...]]:
    """Return every ``tolerance``-sized column set whose erasure is
    unrecoverable."""
    failures: list[tuple[int, ...]] = []
    cols = layout.physical_cols
    for combo in itertools.combinations(cols, tolerance):
        lost = tuple(
            (r, c)
            for c in combo
            for r in range(layout.rows)
            if (r, c) not in layout.virtual_cells
        )
        try:
            eliminate_recovery_plan(layout, lost)
        except UnrecoverableError:
            failures.append(combo)
    return failures


def check_double_erasures(layout: CodeLayout) -> list[tuple[int, int]]:
    """Return every physical column pair whose erasure is unrecoverable."""
    return [tuple(c) for c in check_erasures(layout, 2)]  # type: ignore[misc]


def certify_mds(layout: CodeLayout, tolerance: int = 2) -> MdsReport:
    """Exhaustively certify ``tolerance``-erasure recovery and the
    storage bound.

    ``storage_optimal`` compares data cells against the MDS capacity
    ``(n - tolerance) * rows`` of the *physical* stripe; shortened
    layouts with extra virtual cells (e.g. Code 5-6 over virtual disks)
    legitimately fall below it and report ``storage_optimal=False``
    while still being erasure-recoverable.
    """
    failed = tuple(tuple(c) for c in check_erasures(layout, tolerance))
    n = layout.n_disks
    capacity = (n - tolerance) * layout.rows
    return MdsReport(
        layout_name=layout.name,
        p=layout.p,
        is_mds=not failed,
        storage_optimal=layout.num_data == capacity,
        failed_pairs=failed,
    )


def codeword_basis(layout: CodeLayout) -> npt.NDArray[np.uint8]:
    """The code's identity stripe: a basis of its codewords, bit-packed.

    The codewords are the null space over GF(2) of the chain equations
    (each chain's non-virtual cells XOR to zero), with virtual cells
    forced to zero.  Returns ``(rows, cols, ceil(d / 8))`` uint8 for a
    space of dimension ``d``: bit ``i`` (little-endian within each byte)
    of cell ``c``'s block is ``c``'s coordinate in basis vector ``i``,
    and virtual cells are zero.  Parity cells come first among the
    unknowns, so where the data determine the parities (every registered
    code) the free coordinates are the data cells, and basis vector
    ``i`` is the codeword whose only nonzero data cell is
    ``layout.data_cells[i]``.
    """
    virtual = layout.virtual_cells
    cells = sorted(layout.parity_cells - virtual) + list(layout.data_cells)
    index = {cell: j for j, cell in enumerate(cells)}
    checks = np.zeros((len(layout.chains), len(cells)), dtype=np.uint8)
    for row, terms in enumerate(_equations(layout)):
        checks[row, [index[cell] for cell in terms]] = 1
    rref, _, pivots = gf2_elimination(checks)
    free = np.setdiff1d(np.arange(len(cells)), pivots)
    basis = np.zeros((len(free), len(cells)), dtype=np.uint8)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = rref[: len(pivots)][:, free].T
    rows, cols = np.array(cells).T
    stripe = np.zeros((layout.rows, layout.cols, (len(free) + 7) // 8), dtype=np.uint8)
    stripe[rows, cols] = np.packbits(basis, axis=0, bitorder="little").T
    return stripe


def recovers_codewords(plan: RecoveryPlan, identity: npt.NDArray[np.uint8]) -> bool:
    """True when ``plan`` rebuilds its lost cells in every codeword.

    Runs the plan once over ``identity`` (a :func:`codeword_basis`):
    survivors are read from it in place, each lost cell is rebuilt into
    its own scratch row, and every row must equal the lost cell's packed
    block.  A plan right on a basis is right on the whole space.
    """
    row = {cell: i for i, cell in enumerate(plan.lost)}
    scratch = np.zeros((len(row), identity.shape[-1]), dtype=np.uint8)

    def source(cell):
        i = row.get(cell)
        return identity[cell] if i is None else scratch[i]

    run_recovery_steps(plan, source, lambda cell: scratch[row[cell]])
    return all(np.array_equal(scratch[i], identity[cell]) for cell, i in row.items())
