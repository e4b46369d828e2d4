"""Ablation - audited per-block engine vs vectorised bulk conversion.

The plan engine performs (and counts) every block I/O individually so
the result can be audited against the paper's accounting; a production
converter streams extents.  This bench measures the Python-level cost of
that auditability three ways: the audited engine, the batched online
converter run quiet with a whole-array run budget (the hand-fused
Code 5-6 lowering, ``repro.migration.batch``), and the general compiled
executor (``repro.compiled``) that batches *any* supported conversion.
All three produce byte-identical arrays (tested in
``tests/test_migration_batch.py`` / ``tests/test_compiled_engine.py``).
"""

import numpy as np

from repro.compiled import compile_plan, execute_plan_compiled
from repro.migration import build_plan, execute_plan, prepare_source_array
from repro.migration.online import OnlineCode56Conversion

P = 7
GROUPS = 60
BLOCK = 512

def _source():
    plan = build_plan("code56", "direct", P, groups=GROUPS)
    array, data = prepare_source_array(plan, np.random.default_rng(0), block_size=BLOCK)
    return plan, array, data


def bench_engine_per_block(benchmark):
    plan, array, data = _source()
    snapshot = array.snapshot()

    def run():
        array.restore(snapshot)
        array.reset_counters()
        execute_plan(plan, array, data)

    benchmark(run)
    assert array.total_writes == GROUPS * (P - 1)


def bench_engine_vectorised(benchmark):
    plan, array, data = _source()
    snapshot = array.snapshot()
    whole_array = GROUPS * (P - 1)  # one fused run covers every parity

    def run():
        array.restore(snapshot)
        array.reset_counters()
        OnlineCode56Conversion(array, P, batch=whole_array).run([])

    benchmark(run)
    assert array.total_writes == GROUPS * (P - 1)


def bench_engine_compiled(benchmark):
    plan, array, data = _source()
    snapshot = array.snapshot()
    program = compile_plan(plan)  # compile once; the cache does this anyway

    def run():
        array.restore(snapshot)
        execute_plan_compiled(plan, array, data, program=program)

    benchmark(run)
    assert array.total_writes == GROUPS * (P - 1)


def bench_vectorised_at_scale(benchmark, show):
    """The fused run lowering at a million-block scale (pure conversion
    math), then one check of every chain: a wrong gather-tile boundary
    leaves a diagonal parity stale."""
    p, groups, bs = 7, 5000, 512  # 5000 groups * 30 data blocks = 150k blocks
    from repro.codes import get_code
    from repro.migration.batch import execute_run_fused
    from repro.raid.layouts import volume_geometry

    plan = build_plan("code56", "direct", p, groups=groups)
    array, _data = prepare_source_array(plan, np.random.default_rng(1), block_size=bs)
    run_all = np.arange(groups * (p - 1))  # every parity's cursor key

    def run():
        array.reset_counters()
        execute_run_fused(array, p, run_all)
        return len(run_all)

    written = benchmark(run)
    geometry = volume_geometry(p, array.n_disks, groups, array.blocks_per_disk)
    assert get_code("code56", p).verify_cells(array.flat_view(), geometry.addresses)
    data_mb = groups * (p - 1) * (p - 2) * bs / 1e6
    show(
        f"vectorised Code 5-6 conversion: {data_mb:.0f}MB of data, "
        f"{written} parities per round"
    )
