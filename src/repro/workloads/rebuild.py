"""Rebuild (single-disk recovery) I/O traces.

Turns a recovery plan into the disk-level I/O stream of rebuilding one
failed column across many stripe-groups: per group, read the plan's
(deduplicated) read set from the surviving disks, write the recovered
blocks to the replacement disk.  Replayed through the simulator this
yields the MTTR — the quantity the paper's Section III-E.4 argues hybrid
recovery improves ("decreases the recovery time (MTTR) and thus
increases the reliability of the disk array").
"""

from __future__ import annotations

import numpy as np

from repro.codes.geometry import CodeLayout
from repro.codes.plans import RecoveryPlan
from repro.workloads.trace import Trace

__all__ = ["rebuild_trace"]


def rebuild_trace(
    layout: CodeLayout,
    plan: RecoveryPlan,
    column: int,
    groups: int,
    block_size: int = 4096,
) -> Trace:
    """Trace of rebuilding ``column`` over ``groups`` stripe-groups.

    The plan must recover exactly that column (e.g. from
    :func:`repro.core.plan_hybrid_recovery` or a column plan from
    :func:`repro.codes.build_recovery_plan`).  Disk = code column
    (identity mapping, the NLB layout); the replacement disk receives the
    writes.
    """
    lost_cols = {c for _r, c in plan.lost}
    if lost_cols != {column}:
        raise ValueError(f"plan recovers columns {sorted(lost_cols)}, not {column}")
    reads = sorted(plan.read_set)
    writes = sorted(plan.lost)
    rows = layout.rows
    cells = reads + writes
    per_group = len(cells)
    n = groups * per_group

    # one tiled per-group pattern instead of a Python loop over groups
    pat_disk = np.array([c for _r, c in cells], dtype=np.int32)
    pat_row = np.array([r for r, _c in cells], dtype=np.int64)
    pat_write = np.zeros(per_group, dtype=bool)
    pat_write[len(reads):] = True
    disk = np.tile(pat_disk, groups)
    block = np.tile(pat_row, groups) + np.repeat(
        np.arange(groups, dtype=np.int64) * rows, per_group
    )
    is_write = np.tile(pat_write, groups)
    return Trace(
        arrival_ms=np.zeros(n),
        disk=disk,
        block=block,
        is_write=is_write,
        block_size=block_size,
        name=f"rebuild-{layout.name}-col{column}",
        meta={"layout": layout.name, "column": column, "groups": groups},
    )
