"""Conversion engine: executes a :class:`ConversionPlan` on a real array.

The engine is the proof that a plan's op accounting is *sufficient*: it
performs exactly the plan's reads, migrations, NULL writes and parity
writes against a :class:`BlockArray` holding a freshly formatted RAID-5,
then verification re-reads the converted array and checks that

* every source logical block is intact at its mapped location,
* every stripe-group satisfies all parity chains,
* random double-disk failures are recoverable (the array really is a
  RAID-6 now).

The first two checks read the array in place, with no per-group loop
and no stripe tensor: the plan's cached audit table
(:func:`repro.compiled.recovery.audit_table`) gives every stripe cell as
a zero-copy ``(groups, block)`` view of the store.  Data cells are
compared with their runs of the ground truth, and the parity chains are
checked through the same table's block addresses
(:meth:`ArrayCode.verify_cells`: one tiled gather per chain term).
Once both pass, every group is a codeword, so the failure trials do not
touch the array at all: each trial's recovery plan is replayed over the
code's identity stripe (:meth:`ArrayCode.codeword_basis`, a bit-packed
basis of every codeword), which proves it for every payload at once
(:func:`repro.codes.mds.recovers_codewords`).  Verification never
writes the array.

I/O counters on the :class:`BlockArray` are compared against the plan's
planned reads and writes (counted from the group-work sizes, as the op
stream would count them), so the metrics reported for the paper's
figures are the I/Os actually needed — nothing is counted that was not
performed, and nothing was performed that is not counted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.codes.mds import recovers_codewords
from repro.migration.plan import ConversionPlan, GroupWork
from repro.obs.tracer import get_tracer
from repro.raid.array import BlockArray
from repro.raid.raid5 import Raid5Array

__all__ = ["ConversionResult", "prepare_source_array", "execute_plan", "verify_conversion"]


@dataclass
class ConversionResult:
    """Executed conversion: the array, the plan, and measured I/O."""

    array: BlockArray
    plan: ConversionPlan
    data: np.ndarray  # source logical blocks (ground truth)
    measured_reads: int
    measured_writes: int

    @property
    def measured_total(self) -> int:
        return self.measured_reads + self.measured_writes

    def per_disk_ios(self) -> np.ndarray:
        return self.array.reads + self.array.writes


def prepare_source_array(
    plan: ConversionPlan,
    rng: np.random.Generator,
    block_size: int = 8,
    data: np.ndarray | None = None,
) -> tuple[BlockArray, np.ndarray]:
    """Build the pre-conversion world: a formatted RAID-5 plus blank disks.

    The array is sized for the converted layout (reserved capacity and
    hot-added disks included); the RAID-5 occupies the source region,
    filled uncounted by :meth:`Raid5Array.format_with`, so every I/O
    counter starts at zero.
    ``data`` supplies the logical payload explicitly (``(data_blocks,
    block_size)`` uint8 — e.g. a slice of a sweep worker's private data
    pool in :mod:`repro.sweep.runner`, or the payload handed to
    :func:`repro.core.upgrade_to_raid6`); by default it is drawn from
    ``rng``.
    """
    array = BlockArray(plan.n, plan.blocks_per_disk, block_size)
    source = Raid5Array(array, plan.source_layout, n_disks=plan.m)
    if data is None:
        data = rng.integers(
            0, 256, size=(plan.data_blocks, block_size), dtype=np.uint8
        )
    else:
        data = np.asarray(data, dtype=np.uint8)
        if data.shape != (plan.data_blocks, block_size):
            raise ValueError(
                f"data must be ({plan.data_blocks}, {block_size}), got {data.shape}"
            )
    source.format_with(data, stripes=plan.data_blocks // (plan.m - 1))
    return array, data


def _execute_group(
    plan: ConversionPlan, gw: GroupWork, array: BlockArray, io=None
) -> None:
    """Execute one stripe-group's work.

    ``io`` is an optional adapter supplying ``read(disk, block)``
    (counted), ``peek(disk, block)`` (uncounted) and ``check_ok(disk)``
    — e.g. :class:`repro.faults.degraded.ReconstructingReader`, which
    reconstructs through the RAID-5 row when a disk has failed or a read
    faults.  ``None`` keeps the array's direct (and fastest) path.
    """
    code = plan.code
    layout = code.layout
    read = array.read if io is None else io.read
    peek = array.raw if io is None else io.peek
    # 1. migrations (parity to new disk / data to overflow)
    for _dst_cell, (src, dst, _rp, _wp) in gw.migrates.items():
        payload = read(src.disk, src.block)
        array.write(dst.disk, dst.block, payload)
    # 2. NULL invalidation writes
    for _cell, loc in gw.null_writes.items():
        array.write_zero(loc.disk, loc.block)
    # 3. trims (metadata only; zeroed uncounted for bit-verifiability)
    for loc in gw.trims:
        array.raw(loc.disk, loc.block)[...] = 0
    if not gw.parity_writes:
        return  # pure degrade step: nothing to generate
    # 4. reads into an in-memory stripe
    stripe = code.empty_stripe(array.block_size)
    for cell, loc in gw.reads.items():
        stripe[cell[0], cell[1]] = read(loc.disk, loc.block)
    # 5. cells the plan did not read but the encoder's value check needs:
    #    data written earlier by migrations of other groups (HDP overflow)
    #    is still in controller memory — pulled uncounted.
    touched = set(gw.parity_writes) | set(gw.null_writes) | gw.null_cells | set(gw.reads)
    for cell in layout.data_cells:
        if cell in touched or cell in gw.migrates:
            continue
        loc = plan.cell_locations.get((gw.group, cell))
        if loc is not None:
            stripe[cell[0], cell[1]] = peek(loc.disk, loc.block)
    # 6. encode and write the generated parities
    code.encode(stripe)
    for cell, loc in gw.parity_writes.items():
        array.write(loc.disk, loc.block, stripe[cell[0], cell[1]])
    # 7. consistency: every parity the plan did NOT generate (Code 5-6's
    #    reused RAID-5 parities; via-RAID-4's migrated row parities) must
    #    already hold the value the encoder computes — the paper's claim
    #    that old parities stay valid under these conversions.
    for cell in layout.parity_cells:
        if cell in gw.parity_writes or cell in layout.virtual_cells:
            continue
        loc = plan.cell_locations.get((gw.group, cell))
        if loc is None:
            continue
        if io is not None and not io.check_ok(loc.disk):
            continue  # the disk's true bytes are gone; nothing to audit
        if not np.array_equal(stripe[cell[0], cell[1]], array.raw(loc.disk, loc.block)):
            raise AssertionError(
                f"pre-existing parity at {cell} of group {gw.group} does not "
                "match the recomputed value — old parity was not valid"
            )


def execute_plan(
    plan: ConversionPlan,
    array: BlockArray,
    data: np.ndarray,
) -> ConversionResult:
    """Run every group-work item in phase order; returns measured I/O."""
    tracer = get_tracer()
    array.reset_counters()
    with tracer.span(
        "execute", cat="engine", engine="audited",
        code=plan.code.name, approach=plan.approach, groups=plan.groups,
    ):
        for gw in sorted(plan.group_works, key=lambda g: (g.phase, g.group)):
            with tracer.span(
                f"phase{gw.phase}.group{gw.group}", cat="engine.group",
                phase=gw.phase, group=gw.group,
            ):
                _execute_group(plan, gw, array)
    return ConversionResult(
        array=array,
        plan=plan,
        data=data,
        measured_reads=array.total_reads,
        measured_writes=array.total_writes,
    )


def assemble_group(plan: ConversionPlan, array: BlockArray, group: int) -> np.ndarray:
    """Uncounted gather of a converted stripe-group."""
    code = plan.code
    stripe = code.empty_stripe(array.block_size)
    for r in range(code.rows):
        for c in code.layout.physical_cols:
            loc = plan.cell_locations.get((group, (r, c)))
            if loc is not None:  # virtual cells have no physical block
                stripe[r, c] = array.raw(loc.disk, loc.block)
    return stripe


def verify_conversion(
    result: ConversionResult,
    rng: np.random.Generator | None = None,
    failure_trials: int = 3,
    check_io_counters: bool = True,
) -> bool:
    """Full post-conversion audit (see module docstring).

    Checks data and parity over all groups at once through the plan's
    audit table: each data template is compared with its run of
    ``data`` through a ``cell -> (groups, block)`` lookup of views into
    the store, and the parity chains are checked over the table's block
    addresses (:meth:`ArrayCode.verify_cells`).  Each
    double-failure trial then replays its recovery plan over the code's
    identity stripe instead of the store: the parity check has shown
    every group to be a codeword, and a plan that rebuilds the lost
    cells of a basis of the codewords rebuilds them in every group, for
    this payload and any other.  The array is only read.  The planned
    I/O totals are counted from the group-work sizes, so the plan's op
    stream is never materialised.
    """
    # imported here: repro.compiled imports this module for ConversionResult
    from repro.compiled.recovery import audit_table

    tracer = get_tracer()
    plan, array, data = result.plan, result.array, result.data
    code = plan.code
    with tracer.span(
        "verify", cat="engine", code=plan.code.name, approach=plan.approach,
        groups=plan.groups, trials=failure_trials,
    ):
        table = audit_table(plan)
        stored = table.lookup(array)
        # 1. every logical block intact (each data run against the ground truth)
        with tracer.span("verify.data", cat="engine"):
            if not table.data_intact(stored, data):
                return False
        # 2. every stripe-group parity-consistent (one tiled gather per chain term)
        with tracer.span("verify.parity", cat="engine"):
            if not code.verify_cells(array.flat_view(), table.addr):
                return False
        # 3. double-failure recoverability, proved rather than replayed.
        #    Check 2 put every group in the code's codeword space, so
        #    each trial's plan runs once over the identity stripe (a basis
        #    of that space, a few bytes per cell): right there, it is right
        #    for every group and every payload.
        if rng is None:
            rng = np.random.default_rng(0)
        cols = code.layout.physical_cols
        with tracer.span("verify.recovery", cat="engine", trials=failure_trials):
            identity = code.codeword_basis()
            for _ in range(failure_trials):
                f1, f2 = rng.choice(len(cols), size=2, replace=False)
                failed = [cols[int(f1)], cols[int(f2)]]
                if not recovers_codewords(code.plan_column_recovery(*failed), identity):
                    return False
        # 4. measured I/O == planned I/O.  Crash-resumed and degraded runs
        #    legitimately spend extra I/O (rollback re-execution, row
        #    reconstruction) — they pass check_io_counters=False and keep
        #    every byte-level check above.
        if check_io_counters:
            if result.measured_reads != plan.read_ios:
                return False
            if result.measured_writes != plan.write_ios:
                return False
        return True
