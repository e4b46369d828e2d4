"""MDS certification of a :class:`CodeLayout`.

A RAID-6 array code is MDS when (a) it stores exactly ``n - 2`` disks'
worth of data on ``n`` disks and (b) any two whole-column erasures are
recoverable.  ``certify_mds`` checks both by attempting to *plan* the
recovery of every column pair with plain GF(2) elimination — planning
succeeds iff the system is uniquely solvable, so no payload needs to be
touched.  Tests additionally round-trip payloads through the plans for
defence in depth.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.codes.decoder import UnrecoverableError, eliminate_recovery_plan
from repro.codes.geometry import CodeLayout

__all__ = ["MdsReport", "certify_mds", "check_double_erasures"]


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
