"""Batched stripe assembly and recovery over whole arrays.

The audited path assembles and repairs one stripe-group at a time;
rebuild and verification workloads touch *every* group, so this module
compiles the ``(group, cell) -> (disk, block)`` map of a conversion plan
into one gather index (and the ``lba -> (disk, block)`` map into a
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
    cells, disks, blocks = [], [], []
    for (group, (r, c)), loc in plan.cell_locations.items():
        cells.append((group * rows + r) * cols + c)
        disks.append(loc.disk)
        blocks.append(loc.block)
    out = (
        np.array(cells, dtype=np.intp),
        np.array(disks, dtype=np.intp),
        np.array(blocks, dtype=np.intp),
    )
    _GATHER_CACHE[key] = out
    return out


def data_gather_indices(plan: ConversionPlan) -> tuple[np.ndarray, np.ndarray]:
    """``(disks, blocks)`` of every source logical block, in LBA order.

    ``plan.data_locations`` resolved through ``plan.cell_locations`` and
    cached per plan identity like the stripe gather, so verification
    compares ``gather_raw(disks, blocks)`` with the ground truth as is.
    """
    from repro.compiled.compiler import plan_cache_key

    key = plan_cache_key(plan)
    cached = _DATA_CACHE.get(key)
    if cached is not None:
        return cached
    locations = plan.data_locations
    if sorted(locations) != list(range(len(locations))):
        raise ValueError("plan.data_locations must map LBAs 0..n-1")
    disks = np.empty(len(locations), dtype=np.intp)
    blocks = np.empty(len(locations), dtype=np.intp)
    for lba, (group, cell) in locations.items():
        loc = plan.cell_locations[(group, cell)]
        disks[lba] = loc.disk
        blocks[lba] = loc.block
    _DATA_CACHE[key] = (disks, blocks)
    return disks, blocks


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
