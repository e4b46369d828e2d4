"""Index-program IR for compiled conversion execution.

A :class:`CompiledPlan` is a :class:`~repro.migration.plan.ConversionPlan`
lowered to flat numpy index vectors: per phase, the counted migrations,
NULL writes and trims become gather/scatter index pairs, and every
stripe-group that generates parity contributes rows to one batched
``(groups, rows, cols, block)`` stripe layout — cell vectors naming its
gathers (counted reads, uncounted controller-memory pulls), parity
scatters and audits — which the lowering pass turns into fused region
ops (:class:`FusedPhase`) that the executor runs without ever
materialising the tensor.  Executing the program performs *exactly*
the audited engine's I/O — same bytes, same per-disk counters —
without any per-block Python.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.codes.base import ArrayCode

__all__ = [
    "RegionTerm",
    "SparseTerm",
    "RegionOp",
    "FusedPhase",
    "PhaseProgram",
    "CompiledPlan",
]


def _empty() -> np.ndarray:
    return np.zeros(0, dtype=np.intp)


# ---------------------------------------------------------------------------
# fused region-reduction IR (the lowering pass's output; see
# repro.compiled.compiler.lower_program)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegionTerm:
    """One full-height operand of a :class:`RegionOp`.

    Kinds address the flat block store ``store[disk * bpd + block]``:

    * ``stride`` — slots read an arithmetic sequence of block addresses;
      executes as the zero-copy view ``store[start::step][:batch]``.
    * ``const`` — every slot reads the same block; a one-row broadcast.
    * ``gather`` — irregular addresses; ``indices`` holds one flat block
      id per slot (the only kind that still copies its operand).
    * ``ref`` — the output of earlier chain ``ref`` in the same phase's
      scratch buffer (a parity used as a member of a later chain).
    """

    kind: str
    start: int = 0
    step: int = 0
    indices: np.ndarray | None = None
    ref: int = -1


@dataclass(frozen=True)
class SparseTerm:
    """A partial-height operand: only ``rows`` of the destination get a
    contribution (``dst[rows[i]] ^= store[indices[i]]``), the other slots
    see the implicit zero of an absent stripe cell.  Executed with
    :meth:`~repro.kernels.base.XorKernel.scatter_xor`.
    """

    rows: np.ndarray
    indices: np.ndarray


@dataclass(frozen=True)
class RegionOp:
    """One parity chain for every group of the phase, as a region reduction.

    Writes rows ``[chain_index * batch, (chain_index + 1) * batch)`` of
    the phase scratch buffer with the XOR of all ``terms`` (and then the
    ``sparse`` remainders).  ``parity`` is the stripe cell the chain
    computes — carried for the staticcheck cross-validation, not needed
    at execution time.
    """

    chain_index: int
    parity: tuple[int, int]
    terms: tuple[RegionTerm, ...]
    sparse: tuple[SparseTerm, ...]


@dataclass(frozen=True)
class FusedPhase:
    """A phase's parity work lowered to kernel-backend region ops.

    ``parity_src`` / ``check_src`` map the program's ``parity_*`` /
    ``check_*`` vectors (same order) to rows of the ``(n_chains * batch,
    block)`` scratch buffer; ``read_credit`` is the per-disk read count
    the classic path would have performed with
    :meth:`~repro.raid.array.BlockArray.read_blocks` (the fused path
    views the store in place and credits the same I/O).
    """

    n_chains: int
    batch: int
    ops: tuple[RegionOp, ...]
    parity_src: np.ndarray
    check_src: np.ndarray
    read_credit: np.ndarray


@dataclass(frozen=True)
class PhaseProgram:
    """One conversion phase as flat index vectors.

    ``*_disk`` / ``*_block`` address the :class:`BlockArray`;
    ``*_cell`` are flat indices into the phase's batched stripe tensor
    (``slot * rows * cols + row * cols + col``).  All vectors of one
    category have equal length.
    """

    phase: int
    #: groups that generate parity this phase (batch size of the stripe tensor)
    batch: int
    # counted migrations: gather sources, scatter destinations (payload copy)
    migrate_src_disk: np.ndarray = field(default_factory=_empty)
    migrate_src_block: np.ndarray = field(default_factory=_empty)
    migrate_dst_disk: np.ndarray = field(default_factory=_empty)
    migrate_dst_block: np.ndarray = field(default_factory=_empty)
    # counted NULL invalidation writes
    null_disk: np.ndarray = field(default_factory=_empty)
    null_block: np.ndarray = field(default_factory=_empty)
    # uncounted metadata trims
    trim_disk: np.ndarray = field(default_factory=_empty)
    trim_block: np.ndarray = field(default_factory=_empty)
    # counted reads feeding the stripe tensor
    read_disk: np.ndarray = field(default_factory=_empty)
    read_block: np.ndarray = field(default_factory=_empty)
    read_cell: np.ndarray = field(default_factory=_empty)
    # uncounted fills (data already in controller memory / on disk, reused)
    fill_disk: np.ndarray = field(default_factory=_empty)
    fill_block: np.ndarray = field(default_factory=_empty)
    fill_cell: np.ndarray = field(default_factory=_empty)
    # counted writes of freshly generated parities
    parity_disk: np.ndarray = field(default_factory=_empty)
    parity_block: np.ndarray = field(default_factory=_empty)
    parity_cell: np.ndarray = field(default_factory=_empty)
    # reused-parity consistency audit (uncounted compare, engine step 7)
    check_disk: np.ndarray = field(default_factory=_empty)
    check_block: np.ndarray = field(default_factory=_empty)
    check_cell: np.ndarray = field(default_factory=_empty)
    #: kernel-backend lowering of the parity work (None: no parity work;
    #: compile_plan refuses an unlowered parity phase); derived from the
    #: vectors above, so it is never serialised, always recomputed
    fused: FusedPhase | None = None


@dataclass(frozen=True)
class CompiledPlan:
    """A fully lowered conversion: phases plus the geometry they assume."""

    key: tuple
    code: ArrayCode
    n_disks: int
    blocks_per_disk: int
    phases: tuple[PhaseProgram, ...]

    def describe(self) -> str:
        reads = sum(p.read_disk.size + p.migrate_src_disk.size for p in self.phases)
        writes = sum(
            p.parity_disk.size + p.null_disk.size + p.migrate_dst_disk.size
            for p in self.phases
        )
        return (
            f"compiled {self.key[0]}/{self.key[1]} p={self.key[2]}: "
            f"{len(self.phases)} phase(s), {reads} reads, {writes} writes"
        )
