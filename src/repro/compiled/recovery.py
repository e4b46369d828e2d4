"""Whole-array recovery-side passes over a converted array, read in place.

Read per ``(row, col)`` template, the plan's tiled ``(group, cell) ->
(disk, block)`` table is one flat store address per group, and the
lowering pass's operand classifier (:func:`~repro.compiled.compiler.
_classify_member`) turns that vector into a ``stride``, ``const``,
``gather`` or ``sparse`` run (every cell of every supported pair is a
``stride`` run at p=13 and 48 groups).  :func:`audit_table` does this
once per plan identity for every cell template, and for every data
template classifies the run of source LBAs it holds the same way.
:meth:`AuditTable.lookup` then reads any cell of every group as a
zero-copy ``(groups, block)`` view of the store (gather and sparse runs
copy only what they address), so
:func:`~repro.migration.engine.verify_conversion` checks data and parity
chains without building a stripe tensor.  Its recovery trials read no
payload at all (:func:`repro.codes.mds.recovers_codewords`).

:func:`assemble_all_groups` and :func:`batch_recover_columns` are the
tensor forms of the same reads: every stripe-group gathered into one
``(groups, rows, cols, block)`` tensor, and a double-erasure repair of
it in one :func:`apply_recovery_plan` pass.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.codes.decoder import apply_recovery_plan
from repro.codes.geometry import Cell
from repro.codes.plans import RecoveryPlan
from repro.compiled.compiler import _classify_member, plan_cache_key
from repro.compiled.program import RegionTerm, SparseTerm
from repro.migration.plan import ConversionPlan
from repro.raid.array import BlockArray

__all__ = [
    "AuditTable",
    "assemble_all_groups",
    "audit_table",
    "batch_recover_columns",
]

#: one classified per-group address vector, as ``_classify_member`` returns it
Run = tuple[RegionTerm | None, SparseTerm | None]

#: a cell -> ``(groups, block)`` payload lookup; ``None`` reads as zero
CellLookup = Callable[[Cell], "np.ndarray | None"]

#: cache of audit tables per plan identity (see compiler.plan_cache_key)
_AUDIT_CACHE: dict[tuple, AuditTable] = {}


def read_run(run: Run, rows: np.ndarray, n: int) -> np.ndarray | None:
    """The ``(n, block)`` rows of ``rows`` that ``run`` addresses.

    ``stride`` and ``const`` runs are views; ``gather`` and ``sparse``
    runs copy what they address (a sparse run's other slots are zero).
    ``None`` when the run addresses nothing.
    """
    term, sparse = run
    if sparse is not None:
        out = np.zeros((n, rows.shape[1]), dtype=rows.dtype)
        out[sparse.rows] = rows[sparse.indices]
        return out
    if term is None:
        return None
    if term.kind == "stride":
        return rows[term.start :: term.step][:n]
    if term.kind == "const":
        return np.broadcast_to(rows[term.start], (n, rows.shape[1]))
    return rows[term.indices]


@dataclass(frozen=True)
class AuditTable:
    """Every cell template of a plan, classified over its groups.

    ``addr[r * cols + c, g]`` is the flat store address (``disk * bpd +
    block``, a row of :meth:`BlockArray.flat_view`) of cell ``(r, c)``
    in group ``g``, -1 where the group stores none: the table
    :meth:`ArrayCode.verify_cells` reads.  ``stores[cell]`` is its row
    for ``cell`` classified as a run; ``lbas[cell]`` is, for a data
    template, the run of source LBAs it holds in the groups that hold
    one.  Templates no group stores are absent: they read as zero.
    """

    groups: int
    data_blocks: int
    addr: np.ndarray
    stores: dict[Cell, Run]
    lbas: dict[Cell, Run]

    def lookup(self, array: BlockArray) -> CellLookup:
        """``cell -> (groups, block)`` reads of ``array``'s store, in place."""
        store = array.flat_view()

        def stored(cell: Cell) -> np.ndarray | None:
            run = self.stores.get(cell)
            return None if run is None else read_run(run, store, self.groups)

        return stored

    def data_intact(self, stored: CellLookup, data: np.ndarray) -> bool:
        """Every data template's stored run equals its ground-truth run."""
        if data.shape[0] != self.data_blocks:
            return False
        for cell, (term, sparse) in self.lbas.items():
            got = stored(cell)
            if sparse is None:
                ok = np.array_equal(got, read_run((term, None), data, self.groups))
            else:
                ok = np.array_equal(got[sparse.rows], data[sparse.indices])
            if not ok:
                return False
        return True


def audit_table(plan: ConversionPlan) -> AuditTable:
    """The plan's :class:`AuditTable`, built from its tiled tables and cached.

    Raises ``ValueError`` if the data table places an LBA anywhere but
    at its cell's store address, or two LBAs on one cell: the data check
    reads the data through the cell runs.
    """
    key = plan_cache_key(plan)
    cached = _AUDIT_CACHE.get(key)
    if cached is not None:
        return cached
    cols, groups, bpd = plan.code.cols, plan.groups, plan.blocks_per_disk
    cells, data = plan.cells, plan.data
    addr = np.full((plan.code.rows * cols, groups), -1, dtype=np.int64)
    addr[cells.row * cols + cells.col, cells.group] = cells.disk * bpd + cells.block
    lba = np.full_like(addr, -1)
    template = data.row * cols + data.col
    lba[template, data.group] = np.arange(len(data))
    if np.count_nonzero(lba >= 0) != len(data) or not np.array_equal(
        addr[template, data.group], data.disk * bpd + data.block
    ):
        raise ValueError("the plan's data table disagrees with its cell table")

    def classify(table: np.ndarray) -> dict[Cell, Run]:
        runs = {}
        for t, vector in enumerate(table):
            run = _classify_member(vector)
            if run[0] is not None or run[1] is not None:
                runs[divmod(t, cols)] = run
        return runs

    addr.flags.writeable = False
    table = AuditTable(groups, len(data), addr, classify(addr), classify(lba))
    _AUDIT_CACHE[key] = table
    return table


def assemble_all_groups(plan: ConversionPlan, array: BlockArray) -> np.ndarray:
    """Uncounted gather of every converted stripe-group at once.

    Returns ``(groups, rows, cols, block)``; cells without a physical
    location (virtual disks) are zero.  Batched equivalent of calling
    :func:`repro.migration.engine.assemble_group` per group.
    """
    table = audit_table(plan)
    stored = table.lookup(array)
    stripes = np.zeros(
        (plan.groups, plan.code.rows, plan.code.cols, array.block_size), dtype=np.uint8
    )
    for r, c in table.stores:
        stripes[:, r, c, :] = stored((r, c))
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
