"""Figure 6 - hybrid single-disk recovery read I/O.

When one Code 5-6 data column fails, mixing horizontal and diagonal
recovery chains shares reads between chains: 9 reads per stripe instead
of 12 at p = 5 (the paper rounds the ratio 12/9 = 1.33x to "up to 33%"
fewer reads).  The benchmark measures the optimiser itself and prints
per-p read counts; each row's optimum matches the conjectured closed
form (3p² − 10p + 11)/4, a fit to these exact optima, not a proof.
"""

from repro.codes import code56_layout
from repro.core import plan_hybrid_recovery

PRIMES = (5, 7, 11, 13, 17, 19)


def _sweep():
    rows = []
    for p in PRIMES:
        lay = code56_layout(p)
        per_col = [plan_hybrid_recovery(lay, col) for col in range(p - 1)]
        hybrid = max(h.reads for h in per_col)
        conventional = per_col[0].conventional_reads
        rows.append((p, hybrid, conventional, 1 - hybrid / conventional))
    return rows


def bench_fig06_single_recovery(benchmark, show):
    rows = benchmark(_sweep)
    lines = [
        "Figure 6 - single-disk recovery reads per stripe (hybrid vs conventional)",
        f"{'p':>4} {'hybrid':>8} {'conventional':>13} {'saved':>8}",
    ]
    for p, hyb, conv, saved in rows:
        lines.append(f"{p:>4} {hyb:>8} {conv:>13} {saved:>7.0%}")
    show("\n".join(lines))
    by_p = {p: (h, c) for p, h, c, _ in rows}
    assert by_p[5] == (9, 12)  # the paper's exact numbers
    for p, hyb, conv, _ in rows:
        assert hyb < conv
        assert hyb == (3 * p * p - 10 * p + 11) // 4, p
