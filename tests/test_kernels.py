"""The XOR kernel: unit semantics and byte identity.

The kernel seam only earns its keep if the fused paths built on it are
bit-for-bit the audited engine: the identity suite runs every supported
(code, approach) pair through the fused executor at block sizes from
sub-cache-line to well past the kernel's tile budget, demands the
audited engine's exact bytes and per-disk counters, and checks the XOR
work really went through the one kernel :func:`resolve_kernel` returns.
Tests are parametrized over :func:`available_kernels` (one kernel), so
their ids name it.
"""

import numpy as np
import pytest

from repro.compiled import execute_plan_compiled
from repro.kernels import (
    NumpyXorKernel,
    XorKernel,
    available_kernels,
    resolve_kernel,
)
from repro.migration import (
    build_plan,
    execute_plan,
    prepare_source_array,
    supported_conversions,
    verify_conversion,
)
from repro.migration.approaches import alignment_cycle

CONVERSIONS = supported_conversions()
KERNELS = available_kernels()
#: sub-tile, one-page, the bench floor, and past the numpy tile budget
BLOCK_SIZES = (16, 512, 4096, 65536)


def _cycle_plan(code, approach, p, cycles=1):
    n = build_plan(code, approach, p, groups=1).n
    return build_plan(code, approach, p, groups=alignment_cycle(code, p, n) * cycles)


class TestRegistry:
    """The seam's two lookups: ``resolve_kernel`` and ``available_kernels``."""

    def test_numpy_always_available(self):
        assert KERNELS == ["numpy"]

    def test_auto_resolves_to_available_backend(self):
        kernel = resolve_kernel()
        assert isinstance(kernel, XorKernel)
        assert kernel.name in KERNELS

    def test_instances_are_cached(self):
        assert resolve_kernel() is resolve_kernel()


def _reference_reduce(dst, sources, init):
    ref = np.zeros_like(dst) if init else dst.copy()
    for src in sources:
        ref ^= np.broadcast_to(src, dst.shape) if src.shape != dst.shape else src
    return ref


class TestKernelSemantics:
    """Unit contract of region_xor_reduce / scatter_xor, per backend."""

    @pytest.fixture(params=KERNELS)
    def kernel(self, request):
        kernel = resolve_kernel()
        assert kernel.name == request.param
        return kernel

    def test_reduce_matches_reference(self, kernel):
        rng = np.random.default_rng(0)
        rows, width = 37, 48
        sources = [rng.integers(0, 256, (rows, width), dtype=np.uint8) for _ in range(5)]
        dst = np.empty((rows, width), dtype=np.uint8)
        kernel.region_xor_reduce(dst, sources, init=True)
        assert np.array_equal(dst, _reference_reduce(dst, sources, init=True))

    def test_reduce_accumulates_without_init(self, kernel):
        rng = np.random.default_rng(1)
        dst = rng.integers(0, 256, (9, 32), dtype=np.uint8)
        before = dst.copy()
        sources = [rng.integers(0, 256, (9, 32), dtype=np.uint8) for _ in range(3)]
        kernel.region_xor_reduce(dst, sources, init=False)
        assert np.array_equal(dst, _reference_reduce(before, sources, init=False))

    def test_empty_sources_zero_with_init(self, kernel):
        dst = np.full((4, 16), 0xEE, dtype=np.uint8)
        kernel.region_xor_reduce(dst, [], init=True)
        assert not dst.any()
        dst = np.full((4, 16), 0xEE, dtype=np.uint8)
        kernel.region_xor_reduce(dst, [], init=False)
        assert (dst == 0xEE).all()

    def test_stacked_cube_matches_reference(self, kernel):
        """One ``(k, rows, width)`` ndarray of sources (a gathered run)
        reduces exactly like the list of its slices, with and without
        init, and an empty cube zeroes only with init."""
        rng = np.random.default_rng(6)
        cube = rng.integers(0, 256, (11, 3, 40), dtype=np.uint8)
        dst = np.empty((3, 40), dtype=np.uint8)
        kernel.region_xor_reduce(dst, cube, init=True)
        assert np.array_equal(dst, _reference_reduce(dst, list(cube), init=True))
        before = rng.integers(0, 256, (3, 40), dtype=np.uint8)
        dst = before.copy()
        kernel.region_xor_reduce(dst, cube, init=False)
        assert np.array_equal(dst, _reference_reduce(before, list(cube), init=False))
        kernel.region_xor_reduce(dst, cube[:0], init=False)
        assert np.array_equal(dst, _reference_reduce(before, list(cube), init=False))
        kernel.region_xor_reduce(dst, cube[:0], init=True)
        assert not dst.any()

    def test_broadcast_single_row_source(self, kernel):
        """A (1, width) operand folds into every destination row — the
        'const' term of the fused IR."""
        rng = np.random.default_rng(2)
        rows, width = 23, 40
        full = rng.integers(0, 256, (rows, width), dtype=np.uint8)
        one = rng.integers(0, 256, (1, width), dtype=np.uint8)
        dst = np.empty((rows, width), dtype=np.uint8)
        kernel.region_xor_reduce(dst, [full, one], init=True)
        assert np.array_equal(dst, full ^ one)

    def test_strided_views_supported(self, kernel):
        """Zero-copy store views (the 'stride' term) need no contiguity."""
        rng = np.random.default_rng(3)
        backing = rng.integers(0, 256, (64, 24), dtype=np.uint8)
        a, b = backing[::4][:8], backing[1::4][:8]
        dst = np.empty((8, 24), dtype=np.uint8)
        kernel.region_xor_reduce(dst, [a, b], init=True)
        assert np.array_equal(dst, a ^ b)

    def test_reduce_tiles_past_tile_budget(self):
        """Destinations larger than the tile budget are still exact."""
        rng = np.random.default_rng(4)
        kernel = NumpyXorKernel(tile_bytes=128)  # force many tiles
        rows, width = 50, 33
        sources = [
            rng.integers(0, 256, (rows, width), dtype=np.uint8),
            rng.integers(0, 256, (1, width), dtype=np.uint8),  # broadcast
            rng.integers(0, 256, (rows, width), dtype=np.uint8),
        ]
        dst = np.empty((rows, width), dtype=np.uint8)
        kernel.region_xor_reduce(dst, sources, init=True)
        assert np.array_equal(dst, _reference_reduce(dst, sources, init=True))

    def test_scatter_xor(self, kernel):
        rng = np.random.default_rng(5)
        dst = rng.integers(0, 256, (16, 20), dtype=np.uint8)
        before = dst.copy()
        rows = np.array([1, 4, 11], dtype=np.intp)
        payload = rng.integers(0, 256, (3, 20), dtype=np.uint8)
        kernel.scatter_xor(dst, rows, payload)
        expect = before.copy()
        expect[rows] ^= payload
        assert np.array_equal(dst, expect)


class TestByteIdentity:
    """Fused executor == the audited engine, exactly, through the kernel."""

    @pytest.mark.parametrize("block_size", BLOCK_SIZES)
    @pytest.mark.parametrize("kernel_name", KERNELS)
    @pytest.mark.parametrize("code,approach", CONVERSIONS)
    def test_all_pairs_all_backends_all_block_sizes(
        self, code, approach, kernel_name, block_size, xor_calls
    ):
        plan = _cycle_plan(code, approach, 5)
        audited, data = prepare_source_array(
            plan, np.random.default_rng(7), block_size=block_size
        )
        execute_plan(plan, audited, data)
        fused, _ = prepare_source_array(
            plan, np.random.default_rng(7), block_size=block_size
        )
        result = execute_plan_compiled(plan, fused, data)
        assert resolve_kernel().name == kernel_name
        assert xor_calls  # the parity work went through the kernel
        assert np.array_equal(audited.snapshot(), fused.snapshot())
        assert np.array_equal(audited.reads, fused.reads)
        assert np.array_equal(audited.writes, fused.writes)
        assert result.measured_reads == plan.read_ios
        assert result.measured_writes == plan.write_ios
        assert verify_conversion(result)

    @pytest.mark.parametrize("kernel_name", KERNELS)
    def test_multi_cycle_batches_get_stride_terms(self, kernel_name, xor_calls):
        """Batches past the alignment cycle exercise strided operands."""
        plan = _cycle_plan("code56", "direct", 5, cycles=8)
        audited, data = prepare_source_array(
            plan, np.random.default_rng(8), block_size=64
        )
        execute_plan(plan, audited, data)
        fused, _ = prepare_source_array(
            plan, np.random.default_rng(8), block_size=64
        )
        execute_plan_compiled(plan, fused, data)
        assert resolve_kernel().name == kernel_name
        assert xor_calls
        assert np.array_equal(audited.snapshot(), fused.snapshot())
        assert np.array_equal(audited.reads, fused.reads)
        assert np.array_equal(audited.writes, fused.writes)


class TestOnlineBackendMatrix:
    """Online conversion through the kernel == the audited loop's bytes.

    The live-migration analogue of TestByteIdentity: batch sizes x
    {healthy, degraded} x crash/resume at run boundaries, always
    byte-compared against a budget-1 run under an empty fault plane
    (which forces the audited per-parity loop).  Every healthy run goes
    through the kernel; degraded and fault-planed runs never touch it.
    """

    @staticmethod
    def _array(block_size=8, seed=0):
        plan = build_plan("code56", "direct", 5, groups=2)
        array, _data = prepare_source_array(
            plan, np.random.default_rng(seed), block_size=block_size
        )
        return array

    @staticmethod
    def _requests(n=10, seed=2, block_size=8):
        from repro.migration.online import OnlineRequest

        rng = np.random.default_rng(seed)
        reqs, t = [], 0.0
        for _ in range(n):
            t += float(rng.integers(1, 6))
            is_write = bool(rng.random() < 0.7)
            reqs.append(OnlineRequest(
                time=t, lba=int(rng.integers(24)), is_write=is_write,
                payload=(rng.integers(0, 256, size=block_size, dtype=np.uint8)
                         if is_write else None),
            ))
        return reqs

    @pytest.mark.parametrize("block_size", (16, 4096))
    @pytest.mark.parametrize("batch", (2, 4, 8))
    @pytest.mark.parametrize("kernel_name", KERNELS)
    def test_healthy_identity(self, kernel_name, batch, block_size, xor_calls):
        from repro.faults.plane import FaultPlane
        from repro.migration.online import OnlineCode56Conversion

        plan = build_plan("code56", "direct", 5, groups=2)
        ref, _ = prepare_source_array(
            plan, np.random.default_rng(0), block_size=block_size
        )
        ref.attach_fault_plane(FaultPlane())
        OnlineCode56Conversion(ref, 5).run(self._requests(block_size=block_size))
        assert xor_calls == []  # the reference is the audited loop

        arr, _ = prepare_source_array(
            plan, np.random.default_rng(0), block_size=block_size
        )
        conv = OnlineCode56Conversion(arr, 5, batch=batch)
        report = conv.run(self._requests(block_size=block_size))

        assert conv.verify()
        assert resolve_kernel().name == kernel_name
        assert len(xor_calls) > 0 and report.max_run > 1
        assert np.array_equal(ref.snapshot(), arr.snapshot())
        assert np.array_equal(ref.reads, arr.reads)
        assert np.array_equal(ref.writes, arr.writes)

    @pytest.mark.parametrize("kernel_name", KERNELS)
    def test_degraded_identity(self, kernel_name, xor_calls):
        from repro.migration.online import OnlineCode56Conversion

        ref = self._array()
        ref.fail_disk(2)
        OnlineCode56Conversion(ref, 5).run([])

        arr = self._array()
        arr.fail_disk(2)
        OnlineCode56Conversion(arr, 5, batch=4).run([])
        assert xor_calls == []  # failed disk: the audited loop only
        assert np.array_equal(ref.snapshot(), arr.snapshot())

    @pytest.mark.parametrize("kernel_name", KERNELS)
    def test_crash_resume_at_run_boundaries(self, kernel_name):
        from repro.faults.chaos import crash_sweep_online

        report = crash_sweep_online(5, groups=2, schedules=1, batch=4, sample=6)
        assert resolve_kernel().name == kernel_name
        assert report["ok"], report["failures"]
