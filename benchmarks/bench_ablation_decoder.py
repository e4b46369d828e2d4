"""Ablation - the peeling planner vs plain GF(2) elimination, every code.

The library has one recovery planner, ``build_recovery_plan``: it peels
chains with a single unknown cell, reusing cells it already recovered,
and falls back to elimination only where peeling stalls (EVENODD's
adjuster).  For Code 5-6 its peel order is the paper's Algorithm 1.  The
oracle, ``eliminate_recovery_plan``, writes every lost cell directly in
surviving cells.  This bench quantifies the design choice over every
double-column failure of every code: XORs per recovered element, and
planning time.
"""

import itertools

from repro.codes import CODE_NAMES, build_recovery_plan, eliminate_recovery_plan, get_layout
from repro.core.chain_decoder import plan_double_column_recovery

PRIMES = (5, 7, 11, 13)


def _double_column_losses(layout):
    for f1, f2 in itertools.combinations(layout.physical_cols, 2):
        yield tuple((r, c) for c in (f1, f2) for r in range(layout.rows))


def _xor_comparison():
    rows = []
    for name in CODE_NAMES:
        for p in PRIMES:
            lay = get_layout(name, p)
            peel_x = elim_x = cells = 0
            for lost in _double_column_losses(lay):
                peel_x += build_recovery_plan(lay, lost).total_xors
                elim_x += eliminate_recovery_plan(lay, lost).total_xors
                cells += len(lost)
            rows.append((name, p, peel_x / cells, elim_x / cells, peel_x, elim_x))
    return rows


def bench_ablation_chain_vs_generic_xors(benchmark, show):
    rows = benchmark(_xor_comparison)
    lines = [
        "Ablation - XORs per recovered element, double-column failures",
        f"{'code':>8} {'p':>3} {'peel':>7} {'elimination':>12} {'ratio':>6} "
        f"{'peel total':>11} {'elim total':>11}",
    ]
    for name, p, peel, elim, peel_x, elim_x in rows:
        lines.append(
            f"{name:>8} {p:>3} {peel:>7.2f} {elim:>12.2f} {elim / peel:>5.1f}x "
            f"{peel_x:>11} {elim_x:>11}"
        )
    show("\n".join(lines))
    for name, p, peel, elim, peel_x, elim_x in rows:
        assert peel_x < elim_x  # peeling always beats direct expressions
        if name == "code56":
            assert peel == p - 3  # Algorithm 1 is XOR-optimal
            lay = get_layout(name, p)
            chain_x = sum(
                plan_double_column_recovery(lay, f1, f2).total_xors
                for f1, f2 in itertools.combinations(range(p), 2)
            )
            assert chain_x == peel_x  # the Alg. 1 entry point is the planner
    by = {(name, p): peel_x for name, p, _, _, peel_x, _ in rows}
    assert by[("evenodd", 13)] <= 46_461


def bench_ablation_chain_planning_speed(benchmark):
    lay = get_layout("code56", 13)
    losses = list(_double_column_losses(lay))

    def plan_all():
        return [build_recovery_plan(lay, lost) for lost in losses]

    plans = benchmark(plan_all)
    assert len(plans) == len(losses)


def bench_ablation_generic_planning_speed(benchmark):
    lay = get_layout("code56", 13)
    losses = list(_double_column_losses(lay))

    def plan_all():
        return [eliminate_recovery_plan(lay, lost) for lost in losses]

    plans = benchmark(plan_all)
    assert len(plans) == len(losses)
