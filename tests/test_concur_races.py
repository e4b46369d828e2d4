"""AST happens-before race detector over the process-crossing modules."""

import textwrap

from repro.staticcheck.concur.races import analyze_source, run_races


def scan(source, rel="sweep/probe.py"):
    return analyze_source(textwrap.dedent(source), rel)


def rules(source, rel="sweep/probe.py"):
    return [f.rule for f in scan(source, rel)]


class TestWorkerGlobalWrites:
    def test_flags_worker_write_to_module_global(self):
        src = """
            _CACHE: dict = {}

            def worker(x):
                _CACHE[x] = x * 2

            def go(executor, xs):
                for x in xs:
                    executor.submit(worker, x)
        """
        assert set(rules(src)) == {"SC-R001"}

    def test_flags_global_statement_rebind(self):
        src = """
            _COUNT = {}

            def worker(x):
                global _COUNT
                _COUNT = {}

            def go(executor, x):
                executor.submit(worker, x)
        """
        assert "SC-R001" in rules(src)

    def test_initializer_established_read_allowed(self):
        """The sweep runner's idiom: the pool initializer populates the
        global, workers only read it — ordered by pool start."""
        src = """
            _STATE: dict = {}

            def _init(handle):
                _STATE["handle"] = handle

            def worker(task):
                return _STATE["handle"], task

            def go(handle, tasks):
                from concurrent.futures import ProcessPoolExecutor
                with ProcessPoolExecutor(2, initializer=_init,
                                         initargs=(handle,)) as pool:
                    return list(pool.map(worker, tasks))
        """
        assert rules(src) == []

    def test_non_worker_write_allowed(self):
        src = """
            _CACHE: dict = {}

            def build():
                _CACHE["k"] = 1
        """
        assert rules(src) == []

    def test_transitive_worker_context(self):
        """A helper called from a worker inherits the worker context."""
        src = """
            _CACHE: dict = {}

            def helper(x):
                _CACHE[x] = x

            def worker(x):
                helper(x)

            def go(executor, x):
                executor.submit(worker, x)
        """
        assert "SC-R001" in rules(src)


class TestFilePublishes:
    def test_flags_shared_path_write(self):
        src = """
            def worker(path, payload):
                with open(path, "w") as fh:
                    fh.write(payload)

            def go(executor):
                executor.submit(worker, "cache.json", "{}")
        """
        assert "SC-R002" in rules(src)

    def test_atomic_rename_publish_allowed(self):
        """The compiled-program cache idiom: pid-private temp, then
        os.replace — atomic on POSIX, no torn reads."""
        src = """
            import os

            def worker(path, payload):
                tmp = f"{path}.{os.getpid()}.tmp"
                with open(tmp, "w") as fh:
                    fh.write(payload)
                os.replace(tmp, path)

            def go(executor):
                executor.submit(worker, "cache.json", "{}")
        """
        assert rules(src) == []

    def test_write_text_flagged(self):
        src = """
            def worker(path, payload):
                path.write_text(payload)

            def go(executor, path):
                executor.submit(worker, path, "{}")
        """
        assert "SC-R002" in rules(src)


class TestSingletonMutators:
    def test_flags_worker_registry_swap(self):
        src = """
            def worker(task):
                from repro.obs import set_registry
                set_registry(None)

            def go(executor, task):
                executor.submit(worker, task)
        """
        assert rules(src) == ["SC-R004"]

    def test_initializer_singleton_setup_allowed(self):
        src = """
            def _init(cache_dir):
                from repro.compiled import set_program_cache_dir
                set_program_cache_dir(cache_dir)

            def go(cache_dir):
                from concurrent.futures import ProcessPoolExecutor
                return ProcessPoolExecutor(2, initializer=_init,
                                           initargs=(cache_dir,))
        """
        assert rules(src) == []


class TestRepoIsClean:
    def test_run_races_over_scope(self):
        checks, findings = run_races()
        assert checks > 0
        assert findings == []
