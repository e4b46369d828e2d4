"""Erasure decoding for any :class:`CodeLayout`: one peeling planner.

:func:`build_recovery_plan` is the planner every consumer uses.  It
*peels*: while some parity chain has exactly one unknown cell, that cell
is the XOR of the chain's other non-virtual cells, and recovering it may
leave another chain with a single unknown.  Chains are taken first-in,
first-out, seeded in layout order, so each step reuses cells recovered by
earlier steps.  For Code 5-6 this order *is* the paper's Algorithm 1: the
first two chains ready are the diagonals that miss one failed column
(Theorem 1's starting points), and every lost cell costs ``p-3`` XORs.

Where peeling stalls (EVENODD's adjuster couples every diagonal), the
planner runs GF(2) elimination over the residual unknowns, emits the one
solved cell with the fewest sources, and goes back to peeling.  A pattern
is unrecoverable exactly when that elimination is rank deficient.

:func:`eliminate_recovery_plan` is plain elimination over the whole
pattern: every lost cell written directly in surviving cells, reusing
nothing.  It is the oracle the planner is tested against and the rank
check :mod:`repro.codes.mds` certifies with.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from functools import lru_cache

import numpy as np

from repro.codes.geometry import Cell, CodeLayout
from repro.codes.plans import RecoveryPlan, RecoveryStep
from repro.util.gf2 import gf2_elimination


class UnrecoverableError(Exception):
    """The erasure pattern exceeds the code's correction capability."""


def _normalise(layout: CodeLayout, lost_cells: tuple[Cell, ...]) -> tuple[Cell, ...]:
    """Deduplicate ``lost_cells`` in order and drop virtual (always-zero) cells."""
    virtual = layout.virtual_cells
    return tuple(cell for cell in dict.fromkeys(lost_cells) if cell not in virtual)


def _equations(layout: CodeLayout) -> list[tuple[Cell, ...]]:
    """Each chain's non-virtual cells (parity and members), in layout order;
    their XOR is zero."""
    virtual = layout.virtual_cells
    return [
        tuple(cell for cell in (chain.parity, *chain.members) if cell not in virtual)
        for chain in layout.chains
    ]


def _eliminate(
    layout: CodeLayout, unknowns: tuple[Cell, ...], equations: list[tuple[Cell, ...]]
) -> list[RecoveryStep]:
    """Solve ``unknowns`` by GF(2) elimination over ``equations``.

    Every cell that is not an unknown counts as known; equations without
    an unknown are skipped.  Returns one step per unknown, in pivot order,
    writing it in known cells only; raises :class:`UnrecoverableError`
    when the unknowns are not uniquely determined.
    """
    index = {cell: i for i, cell in enumerate(unknowns)}
    rows: list[np.ndarray] = []
    sources: list[set[Cell]] = []
    for terms in equations:
        coeffs = np.zeros(len(unknowns), dtype=np.uint8)
        known: set[Cell] = set()
        for cell in terms:
            i = index.get(cell)
            if i is None:
                known.add(cell)
            else:
                coeffs[i] = 1
        if coeffs.any():
            rows.append(coeffs)
            sources.append(known)
    if not rows:
        raise UnrecoverableError(f"no chain touches the lost cells {unknowns}")

    _, transform, pivots = gf2_elimination(np.vstack(rows))
    if len(pivots) < len(unknowns):
        raise UnrecoverableError(
            f"{layout.name}: erasure pattern {unknowns} is not recoverable"
        )

    steps: list[RecoveryStep] = []
    for out_row, col in enumerate(pivots):
        # full column rank: rref row `out_row` is the unit vector of `col`
        combined: set[Cell] = set()
        for eq in np.nonzero(transform[out_row])[0]:
            combined.symmetric_difference_update(sources[eq])
        steps.append(RecoveryStep(target=unknowns[col], sources=tuple(sorted(combined))))
    return steps


def eliminate_recovery_plan(layout: CodeLayout, lost_cells: tuple[Cell, ...]) -> RecoveryPlan:
    """Plain GF(2) elimination: each lost cell as the XOR of surviving cells.

    The oracle :func:`build_recovery_plan` is checked against, and the
    rank check behind :func:`repro.codes.mds.certify_mds`.
    """
    lost = _normalise(layout, lost_cells)
    if not lost:
        return RecoveryPlan(lost=(), steps=())
    return RecoveryPlan(lost=lost, steps=tuple(_eliminate(layout, lost, _equations(layout))))


def build_recovery_plan(layout: CodeLayout, lost_cells: tuple[Cell, ...]) -> RecoveryPlan:
    """Plan the recovery of ``lost_cells`` (order-insensitive, deduplicated).

    Peels single-unknown chains, falling back to elimination over the
    residual unknowns only where peeling stalls (see the module
    docstring).  Raises :class:`UnrecoverableError` when the cells cannot
    be uniquely determined from the surviving cells — e.g. three full
    columns of an MDS RAID-6 code.
    """
    lost = _normalise(layout, lost_cells)
    if not lost:
        return RecoveryPlan(lost=(), steps=())
    equations = _equations(layout)
    unknown = set(lost)
    chains_of: dict[Cell, list[int]] = {cell: [] for cell in lost}
    pending = [0] * len(equations)  # unknown cells left in each chain
    for i, terms in enumerate(equations):
        for cell in terms:
            if cell in unknown:
                chains_of[cell].append(i)
                pending[i] += 1
    ready = deque(i for i, n in enumerate(pending) if n == 1)
    steps: list[RecoveryStep] = []

    def solve(step: RecoveryStep) -> None:
        steps.append(step)
        unknown.discard(step.target)
        for i in chains_of[step.target]:
            pending[i] -= 1
            if pending[i] == 1:
                ready.append(i)

    while unknown:
        while ready:
            terms = equations[ready.popleft()]
            targets = [cell for cell in terms if cell in unknown]
            if len(targets) != 1:
                continue  # solved meanwhile through another chain
            target = targets[0]
            solve(RecoveryStep(target, tuple(sorted(c for c in terms if c != target))))
        if unknown:
            residual = tuple(cell for cell in lost if cell in unknown)
            solve(min(_eliminate(layout, residual, equations), key=lambda s: len(s.sources)))
    return RecoveryPlan(lost=lost, steps=tuple(steps))


def apply_recovery_plan(plan: RecoveryPlan, stripe: np.ndarray) -> np.ndarray:
    """Execute ``plan`` in place on ``stripe``.

    ``stripe`` has shape ``(rows, cols, block)`` or ``(batch, rows, cols,
    block)``; lost cells are overwritten with their recovered content.
    """

    def cell(rc: Cell) -> np.ndarray:
        return stripe[..., rc[0], rc[1], :]

    run_recovery_steps(plan, cell, cell)
    return stripe


def run_recovery_steps(
    plan: RecoveryPlan,
    source: Callable[[Cell], np.ndarray | None],
    target: Callable[[Cell], np.ndarray],
) -> None:
    """Execute ``plan``'s steps through cell lookups.

    Each step XORs ``source(cell)`` of its sources into ``target(cell)``
    of its target; a source looked up as ``None`` reads as zero.  A
    stripe is one lookup for both sides (:func:`apply_recovery_plan`); a
    verifier can read surviving cells in place and write the lost ones
    to scratch instead.
    """
    for step in plan.steps:
        out = target(step.target)
        views = [v for v in map(source, step.sources) if v is not None]
        if not views:
            out[...] = 0
            continue
        np.copyto(out, views[0])
        for v in views[1:]:
            np.bitwise_xor(out, v, out=out)


class PlanCache:
    """Per-layout memoisation of recovery plans keyed by erasure pattern."""

    def __init__(self, layout: CodeLayout, maxsize: int = 4096):
        self._layout = layout

        @lru_cache(maxsize=maxsize)
        def _plan(lost: tuple[Cell, ...]) -> RecoveryPlan:
            return build_recovery_plan(layout, lost)

        self._plan = _plan

    def plan_for_cells(self, lost_cells: tuple[Cell, ...]) -> RecoveryPlan:
        return self._plan(tuple(sorted(set(lost_cells))))

    def plan_for_columns(self, *cols: int) -> RecoveryPlan:
        cells = tuple(
            (r, c)
            for c in sorted(set(cols))
            for r in range(self._layout.rows)
            if (r, c) not in self._layout.virtual_cells
        )
        return self._plan(cells)
