"""Execute compiled conversion programs against a healthy :class:`BlockArray`.

The executor replays a :class:`CompiledPlan` phase by phase through the
array's counted bulk-I/O API: migrations as one counted gather and one
counted scatter, NULL invalidations and trims in bulk, and the parity
work on the fused path — the phase's
:class:`~repro.compiled.program.FusedPhase` region ops XOR strided views
of the block store directly into a reused scratch buffer through the
:class:`~repro.kernels.base.XorKernel` that :func:`~repro.kernels.
resolve_kernel` returns.  Counted reads
are credited via :meth:`BlockArray.credit_ios` (the views bypass the
counted gather); parity writes stay on the counted
:meth:`BlockArray.write_blocks`.

Every parity phase is lowered (:func:`~repro.compiled.compiler.
compile_plan` refuses a plan otherwise), so there is no second tier.
The views bypass the counted read hooks that fault planes and failed
disks observe, so :func:`execute_compiled` refuses such arrays:
:func:`repro.faults.execute_checkpointed` is the fault-aware entry
point, and runs every stripe-group on the audited engine's group code.

Byte-identical to the audited engine with identical per-disk counters
(tested for every supported conversion); only the Python and
memory-traffic overhead differs.
"""

from __future__ import annotations

import numpy as np

from repro.compiled.compiler import compile_plan
from repro.compiled.program import CompiledPlan, PhaseProgram
from repro.kernels import ScratchPool, resolve_kernel
from repro.migration.batch import fused_run_usable
from repro.migration.engine import ConversionResult
from repro.migration.plan import ConversionPlan
from repro.obs.metrics import get_registry
from repro.obs.tracer import get_tracer
from repro.raid.array import BlockArray

__all__ = ["execute_compiled", "execute_plan_compiled"]

#: process-wide fused output buffer, sized once per program
_SCRATCH = ScratchPool()


#: per-chain destination-tile budget for the cross-op slot tiling below
_SLOT_TILE_BYTES = 1 << 17


def _run_phase_fused(ph: PhaseProgram, array: BlockArray) -> None:
    kernel = resolve_kernel()
    fz = ph.fused
    bs = array.block_size
    batch = fz.batch
    store = array.flat_view()
    out = _SCRATCH.take((fz.n_chains * batch, bs))

    # Cache-block across *chains*, not within one: the phase's chains all
    # read the same per-group source region, so computing every chain for
    # a tile of groups before advancing reuses those blocks from cache
    # instead of streaming the full source extent once per chain.
    tile = max(1, min(batch, _SLOT_TILE_BYTES // bs))

    def operand(term, lo: int, hi: int) -> np.ndarray:
        if term.kind == "stride":
            return store[term.start + lo * term.step :: term.step][: hi - lo]
        if term.kind == "const":
            return store[term.start : term.start + 1]
        if term.kind == "gather":
            return store[term.indices[lo:hi]]
        return out[term.ref * batch + lo : term.ref * batch + hi]  # 'ref'

    xor_bytes = 0
    for lo in range(0, batch, tile):
        hi = min(batch, lo + tile)
        for op in fz.ops:
            dst = out[op.chain_index * batch + lo : op.chain_index * batch + hi]
            kernel.region_xor_reduce(dst, [operand(t, lo, hi) for t in op.terms], init=True)
            xor_bytes += len(op.terms) * dst.nbytes
            for sp in op.sparse:
                # sp.rows is sorted; select the slots of this tile
                a, b = np.searchsorted(sp.rows, (lo, hi))
                if a < b:
                    kernel.scatter_xor(dst, sp.rows[a:b] - lo, store[sp.indices[a:b]])
                    xor_bytes += int(b - a) * bs

    # the views above replaced the counted stripe gather; credit the
    # identical per-disk read traffic (duplicates and all)
    array.credit_ios(reads=fz.read_credit)
    if ph.parity_disk.size:
        array.write_blocks(ph.parity_disk, ph.parity_block, out[fz.parity_src])
    if ph.check_disk.size:
        actual = array.gather_raw(ph.check_disk, ph.check_block)
        expect = out[fz.check_src]
        if not np.array_equal(expect, actual):
            bad = np.flatnonzero((expect != actual).any(axis=1))
            raise AssertionError(
                f"pre-existing parity at {bad.size} location(s) of phase "
                f"{ph.phase} does not match the recomputed value — old "
                "parity was not valid"
            )

    registry = get_registry()
    if registry.enabled:
        registry.counter("kernels.fused_phases", kernel=kernel.name).inc()
        registry.counter("kernels.region_ops", kernel=kernel.name).inc(len(fz.ops))
        registry.counter("kernels.xor_bytes", kernel=kernel.name).inc(xor_bytes)


def _run_phase(ph: PhaseProgram, array: BlockArray) -> None:
    # 1. migrations: bulk read → bulk write (counted, queue order)
    if ph.migrate_src_disk.size:
        payload = array.read_blocks(ph.migrate_src_disk, ph.migrate_src_block)
        array.write_blocks(ph.migrate_dst_disk, ph.migrate_dst_block, payload)
    # 2. NULL invalidation writes
    if ph.null_disk.size:
        array.write_zero_blocks(ph.null_disk, ph.null_block)
    # 3. metadata trims (uncounted)
    if ph.trim_disk.size:
        array.trim_blocks(ph.trim_disk, ph.trim_block)
    # 4. parity generation and reused-parity audit, fused
    if ph.fused is not None:
        _run_phase_fused(ph, array)


def execute_compiled(program: CompiledPlan, array: BlockArray) -> None:
    """Run every phase of ``program`` on ``array`` (counters accumulate).

    The array must be healthy: an attached fault plane or sanitizer or a
    failed disk raises :class:`ValueError` (use
    :func:`repro.faults.execute_checkpointed`).
    """
    if (array.n_disks, array.blocks_per_disk) != (program.n_disks, program.blocks_per_disk):
        raise ValueError(
            f"array geometry {(array.n_disks, array.blocks_per_disk)} does not "
            f"match program {(program.n_disks, program.blocks_per_disk)}"
        )
    if not fused_run_usable(array):
        raise ValueError(
            "execute_compiled needs a healthy array (no fault plane, no "
            "sanitizer, no failed disks); use repro.faults.execute_checkpointed, "
            "the fault-aware entry point"
        )
    # size the scratch pool once for the largest phase, so no phase
    # allocates (no per-op temporary churn)
    _SCRATCH.reserve(
        max(
            (ph.fused.n_chains * ph.batch * array.block_size
             for ph in program.phases if ph.fused is not None),
            default=0,
        )
    )
    tracer = get_tracer()
    for ph in program.phases:
        with tracer.span(
            f"phase{ph.phase}", cat="compiled.phase", phase=ph.phase, batch=ph.batch,
            migrates=int(ph.migrate_src_disk.size), nulls=int(ph.null_disk.size),
            parities=int(ph.parity_disk.size),
        ):
            _run_phase(ph, array)


def execute_plan_compiled(
    plan: ConversionPlan,
    array: BlockArray,
    data: np.ndarray,
    program: CompiledPlan | None = None,
) -> ConversionResult:
    """Drop-in replacement for :func:`repro.migration.execute_plan`.

    Compiles ``plan`` (cached across calls) and executes it in bulk;
    raises :class:`~repro.compiled.compiler.UnsupportedPlanError` when
    the plan cannot be batched faithfully — fall back to the audited
    engine in that case.
    """
    tracer = get_tracer()
    if program is None:
        with tracer.span(
            "compile", cat="compiled", code=plan.code.name, approach=plan.approach,
            groups=plan.groups,
        ):
            program = compile_plan(plan)
    array.reset_counters()
    with tracer.span(
        "execute", cat="compiled", engine="compiled", code=plan.code.name,
        approach=plan.approach, groups=plan.groups,
    ):
        execute_compiled(program, array)
    return ConversionResult(
        array=array,
        plan=plan,
        data=data,
        measured_reads=array.total_reads,
        measured_writes=array.total_writes,
    )
