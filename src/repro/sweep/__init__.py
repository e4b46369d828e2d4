"""repro.sweep — the parallel evaluation-grid engine.

Declares the paper's evaluation space as a :class:`SweepSpec` (primes ×
(code, approach) pairs × workloads), lowers it to deterministic seeded
:class:`SweepTask` cells, and executes them either inline or across a
process pool (:func:`run_sweep`) with byte-identical merged output.

Supporting pieces:

* :mod:`repro.sweep.spec`   — the task model (pure, order-stable);
* :mod:`repro.sweep.runner` — chunked process-pool execution with
  timeout/retry, serial fallback, and cross-process metric/span merging.
"""

from repro.sweep.runner import (
    POOL_BLOCKS,
    SweepError,
    SweepResult,
    data_pool,
    run_sweep,
    run_task,
)
from repro.sweep.spec import SweepSpec, SweepTask, Workload, derive_seed, paper_grid_pairs

__all__ = [
    "SweepSpec",
    "SweepTask",
    "Workload",
    "derive_seed",
    "paper_grid_pairs",
    "run_sweep",
    "run_task",
    "data_pool",
    "SweepResult",
    "SweepError",
    "POOL_BLOCKS",
]
