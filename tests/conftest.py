"""Shared fixtures for the test suite."""

import numpy as np
import pytest

#: primes used for exhaustive certification (13 keeps runtimes sane)
SMALL_PRIMES = (5, 7, 11, 13)

#: the paper's comparison primes
PAPER_PRIMES = (5, 7)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0xC0DE56)


@pytest.fixture(params=PAPER_PRIMES)
def paper_p(request) -> int:
    return request.param


@pytest.fixture
def xor_calls():
    """Counts ``region_xor_reduce`` calls on the process's one kernel
    (the instance :func:`repro.kernels.resolve_kernel` returns)."""
    from repro.kernels import resolve_kernel

    kernel = resolve_kernel()
    original = kernel.region_xor_reduce
    calls: list[int] = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    kernel.region_xor_reduce = counted
    try:
        yield calls
    finally:
        del kernel.region_xor_reduce
