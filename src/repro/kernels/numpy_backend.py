"""The XOR kernel: cache-blocked in-place numpy XOR.

The reduction walks the destination in row tiles sized to stay resident
in cache while every source is folded in (the ISA-L
``galois_region_xor`` idiom: the destination tile is written once per
source but only leaves cache once), instead of streaming the full region
per operand.  Sources are consumed as the views the lowering pass built
— strided, broadcast or gathered — so no operand is copied.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.kernels.base import XorKernel

__all__ = ["NumpyXorKernel"]

#: destination tile budget; with the operand tile this keeps the working
#: set ~2x this figure, comfortably inside a typical L2
TILE_BYTES = 1 << 20


class NumpyXorKernel(XorKernel):
    """Pure numpy kernel — the one :func:`repro.kernels.resolve_kernel`
    returns."""

    name = "numpy"

    def __init__(self, tile_bytes: int = TILE_BYTES):
        if tile_bytes < 1:
            raise ValueError("tile_bytes must be positive")
        self._tile_bytes = tile_bytes

    def region_xor_reduce(
        self,
        dst: np.ndarray,
        sources: Sequence[np.ndarray],
        init: bool = True,
    ) -> None:
        if isinstance(sources, np.ndarray):
            # one stacked (k, rows, block) cube — a gathered small run —
            # is one reduction, with no per-source view or tile loop
            if init:
                np.bitwise_xor.reduce(sources, axis=0, out=dst)
            else:
                np.bitwise_xor(dst, np.bitwise_xor.reduce(sources, axis=0), out=dst)
            return
        if not sources:
            if init:
                dst[...] = 0
            return
        rows, width = dst.shape

        def _tile_of(src: np.ndarray, lo: int, hi: int) -> np.ndarray:
            # full-height operands are sliced; single-row / 1-D operands
            # broadcast against every destination tile
            if src.ndim == 2 and src.shape[0] == rows:
                return src[lo:hi]
            return src

        tile = max(1, self._tile_bytes // max(width, 1))
        for lo in range(0, rows, tile):
            hi = min(lo + tile, rows)
            out = dst[lo:hi]
            it = iter(sources)
            if init:
                np.copyto(out, _tile_of(next(it), lo, hi))
            for src in it:
                np.bitwise_xor(out, _tile_of(src, lo, hi), out=out)

    def scatter_xor(self, dst: np.ndarray, rows: np.ndarray, payload: np.ndarray) -> None:
        sel = dst[rows]
        np.bitwise_xor(sel, payload, out=sel)
        dst[rows] = sel
