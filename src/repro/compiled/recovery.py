"""Batched stripe assembly and recovery over whole arrays.

The audited path assembles and repairs one stripe-group at a time;
rebuild and verification workloads touch *every* group, so this module
turns the plan's tiled ``(group, cell) -> (disk, block)`` table into
one gather index (and its ``lba -> (disk, block)`` table into a
second), both cached per plan identity, and runs
:func:`apply_recovery_plan` across the whole ``(groups, rows, cols,
block)`` batch in a single pass — the recovery-side counterpart of the
compiled conversion executor.  The repair writes only the failed
columns, so a verifier can save those columns, repair in place and
compare them alone instead of copying the whole tensor.
"""

from __future__ import annotations

import numpy as np

from repro.codes.decoder import apply_recovery_plan
from repro.codes.plans import RecoveryPlan
from repro.migration.plan import ConversionPlan
from repro.raid.array import BlockArray

__all__ = ["assemble_all_groups", "batch_recover_columns", "data_gather_indices"]

#: cache of gather indices per plan identity (see compiler.plan_cache_key)
_GATHER_CACHE: dict[tuple, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
#: cache of data-location indices per plan identity
_DATA_CACHE: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}


def _gather_indices(plan: ConversionPlan) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    from repro.compiled.compiler import plan_cache_key

    key = plan_cache_key(plan)
    cached = _GATHER_CACHE.get(key)
    if cached is not None:
        return cached
    rows, cols = plan.code.rows, plan.code.cols
    cells = plan.cells
    out = ((cells.group * rows + cells.row) * cols + cells.col, cells.disk, cells.block)
    _GATHER_CACHE[key] = out
    return out


def data_gather_indices(plan: ConversionPlan) -> tuple[np.ndarray, np.ndarray]:
    """``(disks, blocks)`` of every source logical block, in LBA order.

    Read from the plan's tiled data table (the cycle's LBAs shifted to
    every tile) and cached per plan identity like the stripe gather, so
    verification compares ``gather_raw(disks, blocks)`` with the ground
    truth as is.
    """
    from repro.compiled.compiler import plan_cache_key

    key = plan_cache_key(plan)
    cached = _DATA_CACHE.get(key)
    if cached is not None:
        return cached
    data = plan.data
    _DATA_CACHE[key] = (data.disk, data.block)
    return data.disk, data.block


def assemble_all_groups(plan: ConversionPlan, array: BlockArray) -> np.ndarray:
    """Uncounted gather of every converted stripe-group at once.

    Returns ``(groups, rows, cols, block)``; cells without a physical
    location (virtual disks) are zero.  Batched equivalent of calling
    :func:`repro.migration.engine.assemble_group` per group.
    """
    cells, disks, blocks = _gather_indices(plan)
    stripes = np.zeros(
        (plan.groups, plan.code.rows, plan.code.cols, array.block_size), dtype=np.uint8
    )
    stripes.reshape(-1, array.block_size)[cells] = array.gather_raw(disks, blocks)
    return stripes


def batch_recover_columns(
    recovery: RecoveryPlan, stripes: np.ndarray, *cols: int
) -> np.ndarray:
    """Zero the failed columns of every stripe and repair them in one pass.

    ``stripes`` is ``(groups, rows, cols, block)`` and is modified in
    place; returns it.  One vectorised XOR per recovery step covers all
    groups (versus one :func:`apply_recovery_plan` call per group).
    """
    if stripes.ndim != 4:
        raise ValueError("stripes must be (groups, rows, cols, block)")
    for c in cols:
        stripes[:, :, c, :] = 0
    return apply_recovery_plan(recovery, stripes)
