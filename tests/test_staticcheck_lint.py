"""AST lint rules: private buffers, hot-path loops, deprecated imports."""

import textwrap

from repro.staticcheck.lint import lint_source, run_lint


def lint(source, rel="some/module.py"):
    return lint_source(textwrap.dedent(source), rel)


class TestPrivateBufferRule:
    def test_flags_store_access(self):
        findings = lint("x = array._store[0]")
        assert [f.rule for f in findings] == ["SC-L001"]

    def test_flags_failed_access(self):
        findings = lint("if 3 in self.array._failed: pass")
        assert [f.rule for f in findings] == ["SC-L001"]

    def test_allows_inside_array_module(self):
        assert lint("self._store[disk] = 0", rel="raid/array.py") == []

    def test_similar_names_not_flagged(self):
        # raid6.py's _store_stripe helper must not trip the exact-attr rule
        assert lint("self._store_stripe(g, stripe)") == []

    def test_location_has_line_number(self):
        findings = lint("\n\nx = a._store")
        assert findings[0].location == "some/module.py:3"


class TestHotPathRule:
    HOT = "compiled/executor.py"

    def test_flags_per_block_loop(self):
        findings = lint(
            """
            for b in range(n):
                array.write(d, b, payload)
            """,
            rel=self.HOT,
        )
        assert [f.rule for f in findings] == ["SC-L002"]

    def test_read_and_write_zero_also_flagged(self):
        for call in ("array.read(d, b)", "array.write_zero(d, b)"):
            findings = lint(
                f"for b in range(n):\n    {call}\n", rel=self.HOT
            )
            assert [f.rule for f in findings] == ["SC-L002"], call

    def test_bulk_calls_allowed(self):
        findings = lint(
            """
            for ph in range(phases):
                array.read_blocks(disks, blocks)
            """,
            rel=self.HOT,
        )
        assert findings == []

    def test_non_hot_module_allowed(self):
        findings = lint(
            """
            for b in range(n):
                array.write(d, b, payload)
            """,
            rel="migration/engine.py",
        )
        assert findings == []

    def test_non_range_loop_allowed(self):
        findings = lint(
            """
            for cell, loc in gw.reads.items():
                array.read(loc.disk, loc.block)
            """,
            rel=self.HOT,
        )
        assert findings == []


class TestDeprecatedImportRule:
    def test_flags_from_import(self):
        findings = lint("from repro.migration.fast import fast_convert_code56")
        assert [f.rule for f in findings] == ["SC-L003"]

    def test_flags_module_import(self):
        findings = lint("import repro.migration.fast")
        assert [f.rule for f in findings] == ["SC-L003"]

    def test_flags_from_package_import(self):
        findings = lint("from repro.migration import fast")
        assert [f.rule for f in findings] == ["SC-L003"]

    def test_no_allowance_anywhere(self):
        """The shim is deleted — even the old allowance set members
        (the package __init__ and the shim itself) are flagged now."""
        for rel in ("migration/__init__.py", "migration/fast.py"):
            findings = lint("from repro.migration import fast", rel=rel)
            assert [f.rule for f in findings] == ["SC-L003"], rel

    def test_batch_module_is_hot_path(self):
        from repro.staticcheck.lint import HOT_PATH_MODULES

        assert "migration/batch.py" in HOT_PATH_MODULES
        assert "migration/fast.py" not in HOT_PATH_MODULES
        findings = lint(
            """
            for b in range(n):
                array.write(d, b, payload)
            """,
            rel="migration/batch.py",
        )
        assert [f.rule for f in findings] == ["SC-L002"]

    def test_other_migration_imports_allowed(self):
        assert lint("from repro.migration import build_plan") == []


class TestMultiprocessingBoundaryRule:
    def test_flags_import_multiprocessing(self):
        findings = lint("import multiprocessing")
        assert [f.rule for f in findings] == ["SC-L004"]

    def test_flags_submodule_import(self):
        findings = lint("import multiprocessing.shared_memory")
        assert [f.rule for f in findings] == ["SC-L004"]

    def test_flags_from_import(self):
        findings = lint("from multiprocessing import shared_memory")
        assert [f.rule for f in findings] == ["SC-L004"]

    def test_flags_concurrent_futures(self):
        for src in (
            "import concurrent.futures",
            "from concurrent.futures import ProcessPoolExecutor",
            "from concurrent import futures",
        ):
            findings = lint(src)
            assert [f.rule for f in findings] == ["SC-L004"], src

    def test_allowed_inside_sweep_package(self):
        for rel in ("sweep/runner.py", "sweep/__init__.py", "sweep/spec.py"):
            assert lint("import multiprocessing", rel=rel) == []
            assert lint("from concurrent.futures import wait", rel=rel) == []

    def test_flags_pools_in_fleet(self):
        findings = lint("from concurrent.futures import ThreadPoolExecutor", rel="fleet/service.py")
        assert [f.rule for f in findings] == ["SC-L004"]

    def test_unrelated_imports_not_flagged(self):
        assert lint("import threading") == []
        assert lint("from concurrent import nonsense") == []

    def test_message_points_at_the_sweep_runner(self):
        findings = lint("import multiprocessing")
        assert "repro.sweep" in findings[0].message


class TestKernelXorRule:
    def test_flags_xor_on_bulk_view_result(self):
        findings = lint(
            """
            def f(array):
                region = array.bulk_view(a, b)
                np.bitwise_xor(acc, region[0], out=acc)
            """
        )
        assert [f.rule for f in findings] == ["SC-L005"]

    def test_flags_xor_on_gather_raw_result(self):
        findings = lint(
            """
            def f(array):
                payload = array.gather_raw(disks, blocks)
                np.bitwise_xor(payload, other, out=payload)
            """
        )
        assert [f.rule for f in findings] == ["SC-L005"]

    def test_flags_xor_on_flat_view_result(self):
        findings = lint(
            """
            def f(array):
                store = array.flat_view()
                np.bitwise_xor(acc, store[rows], out=acc)
            """
        )
        assert [f.rule for f in findings] == ["SC-L005"]

    def test_taint_propagates_through_views(self):
        findings = lint(
            """
            def f(array):
                region = array.bulk_view(a, b).reshape(m, g, r, bs)
                acc = region[0]
                np.bitwise_xor(acc, x, out=acc)
            """
        )
        assert [f.rule for f in findings] == ["SC-L005"]

    def test_flags_inline_accessor_argument(self):
        findings = lint("np.bitwise_xor(acc, array.bulk_view(a, b), out=acc)")
        assert [f.rule for f in findings] == ["SC-L005"]

    def test_flags_xor_helpers_too(self):
        findings = lint(
            """
            def f(array):
                store = array.bulk_view(a, b)
                xor_into(store[0], views)
            """
        )
        assert [f.rule for f in findings] == ["SC-L005"]

    def test_fresh_result_of_a_call_on_storage_is_clean(self):
        # residue() reads the store but returns fresh memory; XORing it
        # into a one-block buffer is not bulk-storage XOR
        findings = lint(
            """
            def repair(raid6, code, addr, idx, group, block):
                store = raid6.array.flat_view()
                delta = code.residue(store, addr, idx, group)
                np.bitwise_xor(block, delta, out=block)
            """,
            rel="raid/scrub.py",
        )
        assert findings == []

    def test_taint_propagates_through_transpose_and_lists(self):
        findings = lint(
            """
            def f(array):
                cols = array.bulk_view(a, b).T
                xor_reduce([cols[0], cols[1]], out=acc)
            """
        )
        assert [f.rule for f in findings] == ["SC-L005"]

    def test_allowed_inside_kernels_package(self):
        findings = lint(
            """
            def f(array):
                store = array.bulk_view(a, b)
                np.bitwise_xor(store[0], x, out=store[0])
            """,
            rel="kernels/numpy_backend.py",
        )
        assert findings == []

    def test_untainted_xor_allowed(self):
        findings = lint(
            """
            def f(stripe):
                np.bitwise_xor(out, stripe[r, c], out=out)
            """
        )
        assert findings == []

    def test_taint_is_function_local(self):
        findings = lint(
            """
            def g(array):
                region = array.bulk_view(a, b)

            def h(region):
                np.bitwise_xor(acc, region, out=acc)
            """
        )
        assert findings == []

    def test_kernel_seam_call_allowed(self):
        findings = lint(
            """
            def f(array, kernel):
                region = array.bulk_view(a, b)
                kernel.region_xor_reduce(dst, [region[0]], init=True)
            """
        )
        assert findings == []


class TestNondeterminismRule:
    DET = "core/conversion.py"

    def rules(self, source, rel=DET):
        return [f.rule for f in lint(source, rel=rel)]

    def test_flags_wall_clock(self):
        src = """
            import time

            def stamp():
                return time.time()
        """
        assert self.rules(src) == ["SC-L006"]

    def test_flags_time_ns_via_alias(self):
        src = """
            import time as clock

            def stamp():
                return clock.time_ns()
        """
        assert self.rules(src) == ["SC-L006"]

    def test_monotonic_deadline_allowed(self):
        src = """
            import time

            def wait(budget):
                return time.monotonic() + budget
        """
        assert self.rules(src) == []

    def test_flags_stdlib_random(self):
        src = """
            import random

            def pick(xs):
                return random.choice(xs)
        """
        assert self.rules(src) == ["SC-L006"]

    def test_flags_random_from_import(self):
        assert self.rules("from random import Random") == ["SC-L006"]

    def test_flags_os_urandom(self):
        src = """
            import os

            def salt():
                return os.urandom(8)
        """
        assert self.rules(src, rel="compiled/compiler.py") == ["SC-L006"]

    def test_flags_legacy_np_random(self):
        src = """
            import numpy as np

            def noise(n):
                return np.random.rand(n)
        """
        assert self.rules(src) == ["SC-L006"]

    def test_flags_unseeded_default_rng(self):
        src = """
            import numpy as np

            def rng():
                return np.random.default_rng()
        """
        assert self.rules(src) == ["SC-L006"]

    def test_seeded_default_rng_allowed(self):
        src = """
            import numpy as np

            def rng(seed):
                return np.random.default_rng(seed)
        """
        assert self.rules(src) == []

    def test_unseeded_from_imported_ctor_flagged(self):
        src = """
            from numpy.random import default_rng

            def rng():
                return default_rng()
        """
        assert self.rules(src, rel="faults/plane.py") == ["SC-L006"]

    def test_generator_annotation_allowed(self):
        src = """
            import numpy as np

            def soak(rng: np.random.Generator):
                return rng.random()
        """
        assert self.rules(src, rel="faults/chaos.py") == []

    def test_outside_deterministic_packages_not_flagged(self):
        src = """
            import time

            def stamp():
                return time.time()
        """
        assert self.rules(src, rel="obs/tracer.py") == []


class TestRepoIsClean:
    def test_run_lint_over_src(self):
        checks, findings = run_lint()
        assert checks > 0
        assert findings == []
