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

:func:`plan_hybrid_recovery` works on any registered layout: it
enumerates every choice vector up to :data:`_EXHAUSTIVE_COMBOS` (every
Code 5-6 column through ``p = 17``) and falls back to a greedy
single-flip descent from the conventional pick beyond that.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.codes.geometry import Cell, ChainKind, CodeLayout
from repro.codes.plans import RecoveryPlan, RecoveryStep

__all__ = ["HybridRecovery", "plan_hybrid_recovery"]

#: exhaustive search bound on the number of choice combinations
_EXHAUSTIVE_COMBOS = 1 << 15


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


def _candidates(layout: CodeLayout, lost: set[Cell]) -> dict[Cell, list[tuple[Cell, ...]]]:
    """Per lost cell: every source-set (one per usable chain).

    A chain is usable for a cell when the cell is its parity (recompute)
    or a member (solve), and no *other* lost cell appears among the
    remaining terms.  Horizontal-family chains come first: the first
    option of every cell is the conventional pick.
    """
    ranked: dict[Cell, list[tuple[bool, tuple[Cell, ...]]]] = {cell: [] for cell in lost}
    virtual = layout.virtual_cells
    for chain in layout.chains:
        terms = [t for t in (chain.parity, *chain.members) if t not in virtual]
        hit = [t for t in terms if t in lost]
        if len(hit) != 1:
            continue  # covers none, or cannot isolate a single unknown
        target = hit[0]
        sources = tuple(sorted(t for t in terms if t != target))
        ranked[target].append((chain.kind is not ChainKind.HORIZONTAL, sources))
    return {cell: [s for _rank, s in sorted(opts)] for cell, opts in ranked.items()}


def plan_hybrid_recovery(layout: CodeLayout, column: int) -> HybridRecovery:
    """Minimise distinct reads to rebuild one failed column of ``layout``."""
    if column not in layout.physical_cols:
        raise ValueError(f"column {column} is not a physical column of {layout.name}")
    lost = {
        (r, column)
        for r in range(layout.rows)
        if (r, column) not in layout.virtual_cells
    }
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
        [sum(1 << bit.setdefault(t, len(bit)) for t in set(sources)) for sources in options]
        for options in option_lists
    ]

    def score(choice: tuple[int, ...]) -> int:
        reads = 0
        for options, k in zip(masks, choice):
            reads |= options[k]
        return reads.bit_count()

    conventional = (0,) * len(cells)
    combos = 1
    for options in option_lists:
        combos *= len(options)
    if combos <= _EXHAUSTIVE_COMBOS:
        best = min(itertools.product(*(range(len(o)) for o in option_lists)), key=score)
    else:
        # greedy descent: flip one cell's choice at a time while it helps
        best = conventional
        best_reads = score(best)
        improved = True
        while improved:
            improved = False
            for i, options in enumerate(option_lists):
                for k in range(len(options)):
                    if k == best[i]:
                        continue
                    trial = best[:i] + (k,) + best[i + 1:]
                    r = score(trial)
                    if r < best_reads:
                        best, best_reads = trial, r
                        improved = True

    steps = tuple(
        RecoveryStep(target=cell, sources=options[k])
        for cell, options, k in zip(cells, option_lists, best)
    )
    return HybridRecovery(
        column=column,
        plan=RecoveryPlan(lost=tuple(cells), steps=steps),
        reads=score(best),
        conventional_reads=score(conventional),
    )
