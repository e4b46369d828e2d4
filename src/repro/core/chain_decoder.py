"""Algorithm 1 of the paper: Code 5-6 double-erasure reconstruction.

Algorithm 1 recovers two failed columns by *walking two recovery
chains*, and that walk is exactly the peel order of the library's one
planner, :func:`repro.codes.decoder.build_recovery_plan`:

* **Case I** — the diagonal parity column ``p-1`` is one of the failures:
  every horizontal chain has a single unknown, so the square column is
  rebuilt row by row, then each diagonal parity from its diagonal.
* **Case II** — two square columns ``f1 < f2 <= p-2`` fail: exactly two
  diagonal chains have a single lost member (the diagonals that *miss*
  column ``f2`` and ``f1`` respectively), so they are peeled first,
  giving the starting points ``C(f2-f1-1, f1)`` and
  ``C(p-1-(f2-f1), f2)``.  Each recovered cell leaves its horizontal
  chain with one unknown (its sibling in the other failed column), whose
  recovery in turn opens the next diagonal, until the walks end at the
  horizontal-parity cells ``C(p-2-f2, f2)`` and ``C(p-2-f1, f1)``.

Every step uses one parity chain of ``p-2`` surviving or recovered
cells, so each lost element costs ``p-3`` XORs — the optimal decoding
complexity claimed in Section III-E.  This module keeps the paper's
entry point as a validating wrapper over the planner and Theorem 1's
starting points.
"""

from __future__ import annotations

from repro.codes.decoder import build_recovery_plan
from repro.codes.geometry import Cell, CodeLayout
from repro.codes.plans import RecoveryPlan

__all__ = ["plan_double_column_recovery", "recovery_chain_starting_points"]


def recovery_chain_starting_points(p: int, f1: int, f2: int) -> tuple[Cell, Cell]:
    """The two data cells recoverable immediately (Theorem 1's proof).

    ``C(f2-f1-1, f1)`` lies on the diagonal that misses column ``f2``;
    ``C(p-1-(f2-f1), f2)`` lies on the diagonal that misses ``f1``.
    """
    if not 0 <= f1 < f2 <= p - 2:
        raise ValueError("starting points exist only for two square columns")
    return (f2 - f1 - 1, f1), (p - 1 - (f2 - f1), f2)


def plan_double_column_recovery(layout: CodeLayout, f1: int, f2: int | None = None) -> RecoveryPlan:
    """Algorithm 1's recovery plan for failed columns ``f1`` (and ``f2``).

    Handles single failures too (either a square column or the diagonal
    column), so callers can use one entry point for any disk-loss event.
    """
    if layout.name != "code56":
        raise ValueError("the chain decoder is specific to Code 5-6")
    if layout.virtual_cols:
        raise ValueError(
            "Algorithm 1 assumes a full prime stripe; decode shortened "
            "stripes with build_recovery_plan"
        )
    p = layout.p
    cols = {f1} if f2 is None else {f1, f2}
    for f in cols:
        if not 0 <= f <= p - 1:
            raise ValueError(f"column {f} outside stripe of {p} columns")
    lost = tuple((r, c) for c in sorted(cols) for r in range(p - 1))
    return build_recovery_plan(layout, lost)
