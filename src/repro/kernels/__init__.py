"""Pluggable XOR kernel backends for the compiled engine.

The compiled engine's lowering pass (:mod:`repro.compiled.compiler`)
turns per-block XOR chains into contiguous-region reduction ops; this
package supplies the execution tiers for those ops.  See
:class:`~repro.kernels.base.XorKernel` for the two-primitive contract
and :mod:`repro.kernels.registry` for selection (``numpy`` | ``numba`` |
``auto``).
"""

from repro.kernels.base import KernelUnavailableError, ScratchPool, XorKernel
from repro.kernels.numba_backend import NumbaXorKernel
from repro.kernels.numpy_backend import NumpyXorKernel
from repro.kernels.registry import (
    KERNEL_CHOICES,
    available_kernels,
    get_default_kernel,
    get_kernel,
    kernel_info,
    register_kernel,
    resolve_kernel,
    set_default_kernel,
)

__all__ = [
    "XorKernel",
    "KernelUnavailableError",
    "ScratchPool",
    "NumpyXorKernel",
    "NumbaXorKernel",
    "KERNEL_CHOICES",
    "register_kernel",
    "get_kernel",
    "resolve_kernel",
    "available_kernels",
    "kernel_info",
    "set_default_kernel",
    "get_default_kernel",
]
