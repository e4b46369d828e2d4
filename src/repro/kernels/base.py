"""The :class:`XorKernel` backend interface.

All parity arithmetic in this library is XOR over uint8 regions.  The
compiled engine lowers conversion phases into *region reduction ops*
(:class:`~repro.compiled.program.RegionOp`) whose byte work is exactly
two primitives:

* :meth:`XorKernel.region_xor_reduce` — ``dst = src0 ^ src1 ^ ...`` (or
  ``dst ^= ...``) over equally shaped ``(rows, block)`` regions, where
  sources are typically zero-copy strided views of the
  :class:`~repro.raid.array.BlockArray` store;
* :meth:`XorKernel.scatter_xor` — ``dst[rows] ^= payload`` for the
  sparse remainder that does not coalesce into a strided region.

A kernel implements those two methods and nothing else; everything
above the seam (lowering, hazard analysis, I/O accounting, fault
semantics) is kernel-independent, so the same verified program runs on
any implementation.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections.abc import Sequence

import numpy as np

__all__ = ["XorKernel", "ScratchPool"]


class XorKernel(ABC):
    """One XOR execution tier.

    Instances are stateless and shared; both methods must be
    deterministic and byte-exact (XOR is associative and commutative, so
    any evaluation order produces identical bytes — a kernel may tile or
    parallelise freely).
    """

    #: label on the kernel's metrics (``numpy``)
    name: str = "abstract"

    @abstractmethod
    def region_xor_reduce(
        self,
        dst: np.ndarray,
        sources: Sequence[np.ndarray],
        init: bool = True,
    ) -> None:
        """XOR-reduce ``sources`` into ``dst`` (all ``(rows, block)`` uint8).

        ``init=True`` overwrites ``dst`` with the reduction of
        ``sources`` (an empty sequence zeroes it); ``init=False``
        accumulates ``dst ^= src`` for every source.  Sources may be
        non-contiguous strided views or broadcast rows, or one stacked
        ``(k, rows, block)`` ndarray; ``dst`` is always a writable
        C-contiguous region and never aliases a source.
        """

    @abstractmethod
    def scatter_xor(self, dst: np.ndarray, rows: np.ndarray, payload: np.ndarray) -> None:
        """Sparse accumulate: ``dst[rows[i]] ^= payload[i]`` for each i.

        ``rows`` contains unique indices (one term contributes at most
        once per destination row), so no read-modify-write collision
        handling is required.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<XorKernel {self.name}>"


class ScratchPool:
    """Grow-only scratch backing for fused-kernel destinations.

    One flat uint8 allocation is reused for every output region (and
    across calls within a process), eliminating per-phase / per-run
    large-allocation churn.  ``take`` returns a shaped view of the pool —
    callers must be done with the previous view before taking the next.
    """

    def __init__(self) -> None:
        self._buf = np.empty(0, dtype=np.uint8)

    def reserve(self, nbytes: int) -> None:
        if self._buf.size < nbytes:
            self._buf = np.empty(nbytes, dtype=np.uint8)

    def take(self, shape: tuple[int, ...]) -> np.ndarray:
        n = math.prod(shape)
        self.reserve(n)
        return self._buf[:n].reshape(shape)
