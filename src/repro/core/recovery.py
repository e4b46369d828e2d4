"""Hybrid single-disk recovery (Section III-E.4, Figure 6).

When one column fails, every lost cell can be rebuilt from any parity
chain that covers it with no other unknown — for a Code 5-6 square
column, its horizontal chain or its diagonal chain.  Choosing a mix lets
reads be *shared* between the chosen chains (a surviving cell on both a
chosen row and a chosen diagonal is read once), cutting recovery read
I/O — the approach Xiang et al. proposed for RDP, which the paper
applies to Code 5-6 and notes "can be used in many MDS codes".  At
``p = 5`` the paper reports 9 reads instead of 12 per stripe for Code
5-6 (a 25% reduction; the paper rounds the per-element read saving to
"up to 33%": 12/9 = 1.33x); for RDP it gives Xiang et al.'s 12 vs 16.

:func:`plan_hybrid_recovery` works on any registered layout and is
exact at every size: one depth-first branch-and-bound over the lost
cells' chain choices returns the first minimum in product order, the
plan an exhaustive enumeration would pick.  Code 5-6 data columns read
9, 22, 66, 97, 177 and 226 at p = 5, 7, 11, 13, 17 and 19, which fits
(3p² − 10p + 11)/4 — a conjecture from those optima, not a proof.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.codes.geometry import Cell, ChainKind, CodeLayout
from repro.codes.plans import RecoveryPlan, RecoveryStep

__all__ = ["HybridRecovery", "plan_hybrid_recovery"]


@dataclass(frozen=True)
class HybridRecovery:
    """A scored single-column recovery strategy."""

    column: int
    plan: RecoveryPlan
    reads: int
    #: reads of the single-family recovery (horizontal chains where they
    #: cover the column)
    conventional_reads: int

    @property
    def read_savings(self) -> float:
        """Fraction of conventional reads avoided (paper's Fig. 6 metric)."""
        if self.conventional_reads == 0:
            return 0.0
        return 1.0 - self.reads / self.conventional_reads


def _candidates(layout: CodeLayout, lost: frozenset[Cell]) -> dict[Cell, list[tuple[Cell, ...]]]:
    """Per lost cell: the sorted sources of every chain that isolates it
    (:meth:`CodeLayout.isolating_chains`), horizontal-family chains first,
    so the first option of every cell is the conventional pick."""
    return {
        cell: [
            sources
            for _rank, sources in sorted(
                (chain.kind is not ChainKind.HORIZONTAL, tuple(sorted(sources)))
                for chain, sources in options
            )
        ]
        for cell, options in layout.isolating_chains(lost).items()
    }


def _first_minimum(masks: list[list[int]]) -> tuple[int, ...]:
    """The first choice vector, in product order, whose union of option
    masks has the fewest bits (what ``min(product(...), key=score)``
    returns), by depth-first branch-and-bound: cells and options are
    walked in order, a leaf wins only on a strict improvement, and a
    child is entered only while its bits so far (a lower bound) are
    fewer than the incumbent's.  Adding the largest cheapest new-bit
    count of any remaining cell to that bound pruned few more nodes and
    made the Code 5-6 p=19 search about five times slower.
    """
    last = len(masks) - 1
    choice = [0] * len(masks)
    best: tuple[int, ...] = ()
    best_reads: float = float("inf")

    def descend(i: int, union: int) -> None:
        nonlocal best, best_reads
        for k, m in enumerate(masks[i]):
            child = union | m
            reads = child.bit_count()
            if reads < best_reads:
                choice[i] = k
                if i == last:
                    best, best_reads = tuple(choice), reads
                else:
                    descend(i + 1, child)

    if masks:
        descend(0, 0)
    return best


def plan_hybrid_recovery(layout: CodeLayout, column: int) -> HybridRecovery:
    """Minimise distinct reads to rebuild one failed column of ``layout``.

    Among the plans with the fewest reads it returns the first in product
    order over the sorted lost cells' option lists, so every tie breaks
    towards horizontal chains on the earliest cells.
    """
    if column not in layout.physical_cols:
        raise ValueError(f"column {column} is not a physical column of {layout.name}")
    lost = frozenset(
        (r, column)
        for r in range(layout.rows)
        if (r, column) not in layout.virtual_cells
    )
    cands = _candidates(layout, lost)
    uncovered = [cell for cell, options in cands.items() if not options]
    if uncovered:
        raise ValueError(
            f"{layout.name}: cells {uncovered} have no single-unknown chain — "
            "not a single-failure-correcting layout?"
        )
    cells = sorted(cands)
    option_lists = [cands[c] for c in cells]

    # a read set is a bitmask over the surviving cells, so a choice
    # vector scores as the popcount of its options' union
    bit: dict[Cell, int] = {}
    masks = [
        [sum(1 << bit.setdefault(t, len(bit)) for t in sources) for sources in options]
        for options in option_lists
    ]

    def score(choice: tuple[int, ...]) -> int:
        reads = 0
        for options, k in zip(masks, choice):
            reads |= options[k]
        return reads.bit_count()

    best = _first_minimum(masks)
    steps = tuple(
        RecoveryStep(target=cell, sources=options[k])
        for cell, options, k in zip(cells, option_lists, best)
    )
    return HybridRecovery(
        column=column,
        plan=RecoveryPlan(lost=tuple(cells), steps=steps),
        reads=score(best),
        conventional_reads=score((0,) * len(cells)),
    )
