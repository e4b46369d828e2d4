"""Project-specific AST lint over ``src/repro``.

Three rules that generic linters cannot express, each guarding an
invariant earlier PRs fought for:

* **SC-L001** — ``BlockArray``'s private buffers (``_store``,
  ``_failed``) are only touched inside ``raid/array.py``.  Everything
  else must go through the counted/bulk I/O API, or the I/O accounting
  that the paper's figures are built on silently drifts.
* **SC-L002** — no per-block Python loop performs counted I/O inside a
  hot-path module (the compiled executor and the bulk helpers exist
  precisely to batch those): a ``for ... in range(...)`` whose body
  calls ``.read(`` / ``.write(`` / ``.write_zero(`` is flagged.
* **SC-L003** — no imports of ``repro.migration.fast`` anywhere: the
  deprecated shim is deleted (its fused lowering lives on as
  ``repro.migration.batch`` behind the kernel tier), and the allowance
  set is empty so not even a compatibility re-export may revive it.
* **SC-L004** — ``multiprocessing`` (and ``concurrent.futures``) is
  imported only inside ``repro.sweep``.  Process and thread pools live
  behind one audited boundary, the sweep runner; a stray
  ``import multiprocessing`` elsewhere bypasses its determinism and
  cleanup guarantees.
* **SC-L005** — no direct ``np.bitwise_xor`` (nor the ``xor_reduce`` /
  ``xor_into`` helpers) on ``BlockArray`` storage outside
  ``repro.kernels``.  A function-local taint pass marks every name
  bound to an alias of ``bulk_view`` / ``flat_view`` / ``gather_raw``
  (the bulk storage accessors) data — the accessor's result and its
  subscripts, ``.T`` and view methods, not the fresh array another call
  computes from it — and flags XOR calls touching tainted data:
  hot-path XOR on the store must go through the
  :class:`~repro.kernels.base.XorKernel`
  that :func:`~repro.kernels.resolve_kernel` returns, or the kernel's
  instrumentation (and any profiler wrapping it) is silently bypassed.
* **SC-L006** — no nondeterminism primitives in the deterministic
  packages (``repro.core``, ``repro.compiled``, ``repro.migration``,
  ``repro.faults``).  Every run there must replay bit-identically from
  an explicit seed — the fault plane's crash schedules, the sweep's
  merged results and the model checker's state hashes all depend on
  it.  Flagged: ``time.time`` / ``time.time_ns``, any stdlib
  ``random`` usage, ``os.urandom``, ``np.random.*`` legacy global-state
  calls, and *unseeded* ``np.random.default_rng()``.  Allowed:
  ``time.monotonic`` / ``perf_counter`` (deadlines, not data) and
  seeded ``default_rng(seed)`` / ``Generator`` / ``SeedSequence``.

The rules operate purely on the AST — no imports of the linted modules
— so a syntax-level violation is caught even in code that is never
executed by the test suite.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.staticcheck.report import Finding

__all__ = [
    "PRIVATE_BUFFER_ATTRS",
    "HOT_PATH_MODULES",
    "lint_source",
    "run_lint",
]

#: BlockArray internals nobody else may name
PRIVATE_BUFFER_ATTRS = frozenset({"_store", "_failed"})
#: modules allowed to touch them (the class lives there)
_PRIVATE_ALLOWED = frozenset({"raid/array.py"})

#: modules whose docstrings promise batched I/O — per-block loops banned
HOT_PATH_MODULES = frozenset(
    {"compiled/executor.py", "util/blocks.py", "migration/batch.py"}
)
_PER_BLOCK_CALLS = frozenset({"read", "write", "write_zero"})

_DEPRECATED_MODULE = "repro.migration.fast"
#: the module is deleted — no file may import it, not even a shim
_DEPRECATED_ALLOWED: frozenset[str] = frozenset()

#: process-management modules confined to the sweep package
_MP_MODULES = frozenset({"multiprocessing", "concurrent.futures"})
#: the one package allowed to spawn workers: the sweep runner
_MP_ALLOWED_PREFIXES = ("sweep/",)

#: bulk storage accessors whose results are BlockArray storage (taint roots)
_STORAGE_ACCESSORS = frozenset({"bulk_view", "flat_view", "gather_raw"})
#: ndarray methods whose result aliases their receiver's memory
_VIEW_METHODS = frozenset({"reshape", "view", "transpose", "swapaxes"})
#: XOR entry points that must not touch tainted storage directly
_XOR_CALLS = frozenset({"bitwise_xor", "xor_reduce", "xor_into"})
#: the one package whose job is XORing the store
_XOR_ALLOWED_PREFIX = "kernels/"

#: packages whose behaviour must replay bit-identically from a seed
_DETERMINISTIC_PREFIXES = ("core/", "compiled/", "migration/", "faults/")
#: wall-clock readers banned there (monotonic/perf_counter stay legal)
_TIME_BANNED = frozenset({"time", "time_ns"})
#: np.random names that carry an explicit seed (everything else is
#: legacy global-state API)
_NP_RANDOM_ALLOWED = frozenset({"default_rng", "Generator", "SeedSequence"})

#: rules evaluated per file (the per-file check count)
RULES = ("SC-L001", "SC-L002", "SC-L003", "SC-L004", "SC-L005", "SC-L006")


class _Linter(ast.NodeVisitor):
    def __init__(self, rel_path: str):
        self.rel = rel_path
        self.findings: list[Finding] = []
        #: stack of per-scope tainted-name sets (module scope at [0])
        self._tainted: list[set[str]] = [set()]
        #: local binding -> dotted module it names (``np`` -> ``numpy``)
        self._mod_alias: dict[str, str] = {}
        #: local bindings of ``numpy.random.default_rng`` (from-imports)
        self._rng_ctors: set[str] = set()

    def _flag(self, rule: str, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                analyzer="lint",
                rule=rule,
                location=f"{self.rel}:{getattr(node, 'lineno', 0)}",
                message=message,
            )
        )

    # ------------------------------------------------------------ SC-L001
    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr in PRIVATE_BUFFER_ATTRS and self.rel not in _PRIVATE_ALLOWED:
            self._flag(
                "SC-L001",
                node,
                f"direct access to BlockArray private buffer `.{node.attr}` — "
                "use the counted/bulk I/O API (read/write/bulk_view/raw)",
            )
        self.generic_visit(node)

    # ------------------------------------------------------------ SC-L002
    def visit_For(self, node: ast.For) -> None:
        if self.rel in HOT_PATH_MODULES and self._is_range_loop(node):
            call = self._per_block_io_call(node)
            if call is not None:
                self._flag(
                    "SC-L002",
                    node,
                    f"per-block `{call}` inside a range() loop in a hot-path "
                    "module — batch it through the bulk I/O API",
                )
        self.generic_visit(node)

    @staticmethod
    def _is_range_loop(node: ast.For) -> bool:
        it = node.iter
        return (
            isinstance(it, ast.Call)
            and isinstance(it.func, ast.Name)
            and it.func.id == "range"
        )

    @staticmethod
    def _per_block_io_call(node: ast.For) -> str | None:
        for child in ast.walk(node):
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr in _PER_BLOCK_CALLS
            ):
                return f".{child.func.attr}()"
        return None

    # ------------------------------------------------------------ SC-L005
    def _storage_derived(self, expr: ast.AST) -> bool:
        """True if ``expr`` aliases BlockArray storage: a ``bulk_view`` /
        ``flat_view`` / ``gather_raw`` call, a tainted name, a subscript,
        ``.T`` or view method (``reshape`` / ``view`` / ``transpose`` /
        ``swapaxes``) of one, or a list, tuple or comprehension of them.
        Any other call returns fresh memory, even when it takes storage
        as an argument (``code.residue(store, ...)``)."""
        if isinstance(expr, ast.Name):
            return expr.id in self._tainted[-1]
        if isinstance(expr, (ast.Subscript, ast.Starred)):
            return self._storage_derived(expr.value)
        if isinstance(expr, ast.Attribute):
            return expr.attr == "T" and self._storage_derived(expr.value)
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute):
            if expr.func.attr in _STORAGE_ACCESSORS:
                return True
            return expr.func.attr in _VIEW_METHODS and self._storage_derived(
                expr.func.value
            )
        if isinstance(expr, (ast.List, ast.Tuple)):
            return any(self._storage_derived(e) for e in expr.elts)
        if isinstance(expr, (ast.ListComp, ast.GeneratorExp)):
            return self._storage_derived(expr.elt)
        return False

    def _taint_targets(self, targets: list[ast.expr]) -> None:
        for tgt in targets:
            for node in ast.walk(tgt):
                if isinstance(node, ast.Name):
                    self._tainted[-1].add(node.id)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._tainted.append(set())
        self.generic_visit(node)
        self._tainted.pop()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._storage_derived(node.value):
            self._taint_targets(node.targets)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None and self._storage_derived(node.value):
            self._taint_targets([node.target])
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        name = None
        if isinstance(node.func, ast.Attribute):
            name = node.func.attr
        elif isinstance(node.func, ast.Name):
            name = node.func.id
        if (
            name in _XOR_CALLS
            and not self.rel.startswith(_XOR_ALLOWED_PREFIX)
            and any(
                self._storage_derived(arg)
                for arg in [*node.args, *(kw.value for kw in node.keywords)]
            )
        ):
            self._flag(
                "SC-L005",
                node,
                f"direct `{name}` on BlockArray storage (bulk_view/gather_raw "
                "data) outside repro.kernels — route it through the XorKernel "
                "(repro.kernels.resolve_kernel)",
            )
        self._check_nondet_call(node)
        self.generic_visit(node)

    # ------------------------------------------------------------ SC-L006
    @property
    def _deterministic(self) -> bool:
        return self.rel.startswith(_DETERMINISTIC_PREFIXES)

    def _resolve_module_attr(self, func: ast.expr) -> tuple[str, str] | None:
        """Resolve ``alias.a.b(...)`` to ``("module.a", "b")`` when the
        base name is a tracked module alias, else ``None``."""
        parts: list[str] = []
        node = func
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name) or not parts:
            return None
        base = self._mod_alias.get(node.id)
        if base is None:
            return None
        parts.reverse()
        return ".".join([base, *parts[:-1]]), parts[-1]

    def _flag_nondet(self, node: ast.AST, what: str, fix: str) -> None:
        self._flag(
            "SC-L006",
            node,
            f"nondeterminism primitive {what} in a deterministic package — "
            f"{fix}",
        )

    def _check_nondet_call(self, node: ast.Call) -> None:
        if not self._deterministic:
            return
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in self._rng_ctors
            and not node.args
            and not node.keywords
        ):
            self._flag_nondet(
                node, "unseeded `default_rng()`", "pass an explicit seed"
            )
            return
        resolved = self._resolve_module_attr(node.func)
        if resolved is None:
            return
        module, attr = resolved
        if module == "time" and attr in _TIME_BANNED:
            self._flag_nondet(
                node,
                f"`time.{attr}()`",
                "inject the clock, or use time.monotonic for deadlines",
            )
        elif module == "random":
            self._flag_nondet(
                node,
                f"stdlib `random.{attr}()`",
                "use a seeded np.random.default_rng(seed)",
            )
        elif module == "os" and attr == "urandom":
            self._flag_nondet(
                node, "`os.urandom()`", "use a seeded np.random.default_rng(seed)"
            )
        elif module == "numpy.random":
            if attr not in _NP_RANDOM_ALLOWED:
                self._flag_nondet(
                    node,
                    f"legacy global-state `np.random.{attr}()`",
                    "use a seeded np.random.default_rng(seed)",
                )
            elif attr == "default_rng" and not node.args and not node.keywords:
                self._flag_nondet(
                    node, "unseeded `default_rng()`", "pass an explicit seed"
                )

    def _record_import(self, alias: ast.alias) -> None:
        bound = alias.asname or alias.name.split(".", 1)[0]
        self._mod_alias[bound] = alias.name if alias.asname else bound

    def _check_nondet_from(self, node: ast.ImportFrom, module: str) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name
            if module == "time" and alias.name in _TIME_BANNED:
                if self._deterministic:
                    self._flag_nondet(
                        node,
                        f"`from time import {alias.name}`",
                        "inject the clock, or use time.monotonic for deadlines",
                    )
            elif module == "random":
                if self._deterministic:
                    self._flag_nondet(
                        node,
                        f"`from random import {alias.name}`",
                        "use a seeded np.random.default_rng(seed)",
                    )
            elif module == "os" and alias.name == "urandom":
                if self._deterministic:
                    self._flag_nondet(
                        node,
                        "`from os import urandom`",
                        "use a seeded np.random.default_rng(seed)",
                    )
            elif module == "numpy.random":
                if alias.name == "default_rng":
                    self._rng_ctors.add(bound)
                elif alias.name not in _NP_RANDOM_ALLOWED and self._deterministic:
                    self._flag_nondet(
                        node,
                        f"legacy global-state `from numpy.random import "
                        f"{alias.name}`",
                        "use a seeded np.random.default_rng(seed)",
                    )

    # ------------------------------------------------- SC-L003 / SC-L004
    def _check_mp(self, node: ast.AST, module: str) -> None:
        top = module.split(".", 1)[0]
        if (
            (module in _MP_MODULES or top == "multiprocessing")
            and not self.rel.startswith(_MP_ALLOWED_PREFIXES)
        ):
            self._flag(
                "SC-L004",
                node,
                f"import of `{module}` outside repro.sweep — "
                "process pools go through the sweep runner "
                "(repro.sweep.run_sweep)",
            )

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == _DEPRECATED_MODULE and self.rel not in _DEPRECATED_ALLOWED:
                self._flag(
                    "SC-L003",
                    node,
                    "import of deleted repro.migration.fast — use "
                    "repro.migration.batch or the compiled engine",
                )
            self._check_mp(node, alias.name)
            self._record_import(alias)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        if self.rel not in _DEPRECATED_ALLOWED:
            if module == _DEPRECATED_MODULE or (
                module == "repro.migration"
                and any(alias.name == "fast" for alias in node.names)
            ):
                self._flag(
                    "SC-L003",
                    node,
                    "import of deleted repro.migration.fast — use "
                    "repro.migration.batch or the compiled engine",
                )
        self._check_mp(node, module)
        self._check_nondet_from(node, module)
        if module == "concurrent" and not self.rel.startswith(_MP_ALLOWED_PREFIXES):
            # `from concurrent import futures` names the pool machinery too
            for alias in node.names:
                if alias.name == "futures":
                    self._check_mp(node, "concurrent.futures")
        self.generic_visit(node)


def lint_source(source: str, rel_path: str) -> list[Finding]:
    """Lint one module's source; ``rel_path`` is relative to ``repro/``."""
    tree = ast.parse(source, filename=rel_path)
    linter = _Linter(rel_path.replace("\\", "/"))
    linter.visit(tree)
    return linter.findings


def run_lint(package_root: Path | None = None) -> tuple[int, list[Finding]]:
    """Lint every module under ``repro`` (or ``package_root``)."""
    if package_root is None:
        import repro

        package_root = Path(repro.__file__).resolve().parent
    findings: list[Finding] = []
    checks = 0
    for path in sorted(package_root.rglob("*.py")):
        rel = path.relative_to(package_root).as_posix()
        if rel.startswith("staticcheck/"):
            # the analyzers name the forbidden symbols in their own rules
            continue
        checks += len(RULES)
        findings.extend(lint_source(path.read_text(), rel))
    return checks, findings
