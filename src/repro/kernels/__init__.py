"""The XOR kernel behind the fused execution paths.

The compiled engine's lowering pass (:mod:`repro.compiled.compiler`)
and the online converter's fused runs (:mod:`repro.migration.batch`)
turn per-block XOR chains into contiguous-region reduction ops; this
package executes them.  :class:`~repro.kernels.base.XorKernel` is the
two-primitive seam and :class:`~repro.kernels.numpy_backend.
NumpyXorKernel` its one implementation.

:func:`resolve_kernel` returns the single cached instance every fused
XOR goes through, so wrapping its two primitives (as a profiler does)
observes every call.
"""

from repro.kernels.base import ScratchPool, XorKernel
from repro.kernels.numpy_backend import NumpyXorKernel

__all__ = [
    "XorKernel",
    "ScratchPool",
    "NumpyXorKernel",
    "resolve_kernel",
    "available_kernels",
]

_KERNEL = NumpyXorKernel()


def resolve_kernel() -> XorKernel:
    """The process's XOR kernel (one cached instance)."""
    return _KERNEL


def available_kernels() -> list[str]:
    """Names of the kernels this build can run."""
    return [_KERNEL.name]
