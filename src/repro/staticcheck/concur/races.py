"""AST happens-before race detector (SC-R rules).

Static shared-state taint analysis over the one package that crosses a
process boundary: the sweep pool (``repro.sweep``).  The compiled-program
cache and the crash journals are in-memory (no pool, initializer or
file), so no rule can fire there and they are out of scope.  The
question each rule asks is the happens-before question: *is this access
to shared state ordered by an explicit synchronization edge?*  The edges
this codebase recognises:

* **pool initializer** — ``ProcessPoolExecutor(initializer=f)`` runs
  ``f`` in the worker before any submitted task; state ``f`` populates
  is ordered before every task read;
* **process spawn/join** — arguments pickled into ``submit`` and results
  returned through futures are copies, not shares;
* **file atomic-rename** — ``os.replace(tmp, final)`` publishes a fully
  written file in one atomic step; readers see old or new, never torn.

Rules (all purely syntactic — nothing is imported or executed):

* **SC-R001** — a *worker-context* function (one submitted to a pool,
  or reachable from one through module-local calls) writes a
  module-level mutable global, or reads one that no pool initializer
  establishes.  Unordered cross-process state is a silent fork: each
  worker mutates its own copy and the parent sees none of it — or, with
  a fork start-method, a genuine data race.
* **SC-R002** — a shared file is published non-atomically: a write-mode
  ``open`` / ``write_text`` / ``write_bytes`` whose target is neither
  pid-private (its name derives from ``os.getpid()`` / ``mkstemp``) nor
  later pushed through ``os.replace``/``os.rename``.  A concurrent
  reader of such a file can observe a torn write.
* **SC-R004** — a worker-context function other than the initializer
  calls a process-wide singleton mutator (``set_registry`` /
  ``set_tracer``).
  Swapping a singleton mid-task races every other task in the same
  worker; the initializer is the one ordered place to do it.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.staticcheck.report import Finding

__all__ = ["RULES", "DEFAULT_SCOPE", "analyze_source", "run_races"]

RULES = ("SC-R001", "SC-R002", "SC-R004")

#: files (relative to the ``repro`` package root) the detector scans:
#: everything that touches process pools
DEFAULT_SCOPE = ("sweep/",)

#: module-level values considered shared mutable state
_MUTABLE_CALLS = frozenset(
    {"dict", "list", "set", "defaultdict", "Counter", "OrderedDict", "bytearray"}
)
#: method calls that mutate a dict/list/set in place
_MUTATORS = frozenset(
    {
        "update", "clear", "setdefault", "pop", "popitem",
        "append", "extend", "insert", "remove", "discard", "add",
    }
)
#: process-wide singleton mutators (SC-R004)
_SINGLETON_MUTATORS = frozenset({"set_registry", "set_tracer"})
#: functions whose results name a pid/temp-private path (SC-R002)
_PRIVATE_PATH_CALLS = frozenset(
    {"getpid", "mkstemp", "mkdtemp", "NamedTemporaryFile", "TemporaryDirectory"}
)


def _call_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _root_name(expr: ast.expr) -> str | None:
    """The base ``Name`` of an attribute/subscript chain (``a.b[c].d`` → a)."""
    node = expr
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _contains_call(expr: ast.AST, names: frozenset) -> bool:
    return any(
        isinstance(node, ast.Call) and _call_name(node.func) in names
        for node in ast.walk(expr)
    )


class _Module:
    """One file's shared-state model: globals, workers, call graph."""

    def __init__(self, tree: ast.Module, rel: str):
        self.rel = rel
        self.tree = tree
        self.functions: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {}
        self.mutable_globals: set[str] = set()
        self.initializers: set[str] = set()
        self.worker_roots: set[str] = set()
        self._scan()

    def _scan(self) -> None:
        # module-level mutable globals
        for node in self.tree.body:
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            if value is None or not self._is_mutable(value):
                continue
            for tgt in targets:
                if isinstance(tgt, ast.Name):
                    self.mutable_globals.add(tgt.id)
        # every function definition, by bare name (module-local graph)
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions.setdefault(node.name, node)
        # worker roots and initializers
        for node in ast.walk(self.tree):
            if not isinstance(node, ast.Call):
                continue
            for kw in node.keywords:
                if kw.arg == "initializer":
                    name = _call_name(kw.value) or (
                        kw.value.id if isinstance(kw.value, ast.Name) else None
                    )
                    if name:
                        self.initializers.add(name)
            attr = node.func.attr if isinstance(node.func, ast.Attribute) else None
            if attr in ("submit", "map") and node.args:
                first = node.args[0]
                name = first.id if isinstance(first, ast.Name) else None
                if name:
                    self.worker_roots.add(name)

    @staticmethod
    def _is_mutable(value: ast.expr) -> bool:
        if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                              ast.ListComp, ast.SetComp)):
            return True
        return (
            isinstance(value, ast.Call)
            and _call_name(value.func) in _MUTABLE_CALLS
        )

    def worker_context(self) -> set[str]:
        """Worker roots plus their module-local call-graph closure."""
        frontier = list(self.worker_roots)
        closure: set[str] = set()
        while frontier:
            name = frontier.pop()
            if name in closure or name not in self.functions:
                continue
            closure.add(name)
            for node in ast.walk(self.functions[name]):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                    if node.func.id in self.functions:
                        frontier.append(node.func.id)
        return closure

    def initializer_established(self) -> set[str]:
        """Mutable globals an initializer populates (the sync edge)."""
        out: set[str] = set()
        for name in self.initializers:
            fn = self.functions.get(name)
            if fn is None:
                continue
            for node in ast.walk(fn):
                written = self._global_write(node)
                if written in self.mutable_globals:
                    out.add(written)
        return out

    def _global_write(self, node: ast.AST) -> str | None:
        """Name of the mutable global this node writes, if any."""
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for tgt in targets:
                if isinstance(tgt, ast.Subscript):
                    root = _root_name(tgt)
                    if root in self.mutable_globals:
                        return root
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _MUTATORS:
                root = _root_name(node.func.value)
                if root in self.mutable_globals:
                    return root
        return None


class _FunctionChecker:
    """SC-R001/R004 inside one worker-context function."""

    def __init__(self, module: _Module, fn, established: set[str],
                 is_initializer: bool, findings: list[Finding]):
        self.module = module
        self.fn = fn
        self.established = established
        self.is_initializer = is_initializer
        self.findings = findings
        # prepass: local bindings (params + plain-name assigns without a
        # `global` declaration) and explicit globals — so the flagging
        # pass below is order-independent
        self.global_decls: set[str] = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Global):
                self.global_decls.update(node.names)
        self.locals: set[str] = {
            a.arg
            for a in [*fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs]
        }
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign):
                for tgt in node.targets:
                    if isinstance(tgt, ast.Name) and tgt.id not in self.global_decls:
                        self.locals.add(tgt.id)

    def _flag(self, rule: str, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                analyzer="concur",
                rule=rule,
                location=f"{self.module.rel}:{getattr(node, 'lineno', 0)}",
                message=message,
            )
        )

    def _is_shared_global(self, name: str | None) -> bool:
        return (
            name is not None
            and name in self.module.mutable_globals
            and name not in self.locals
        )

    def check(self) -> None:
        fn_label = f"{self.fn.name}()"
        for node in ast.walk(self.fn):
            # ------------------------------------------------- SC-R001
            if not self.is_initializer:
                written = self.module._global_write(node)
                if written is None and isinstance(node, ast.Assign):
                    # `global X; X = ...` rebinds the module state too
                    for tgt in node.targets:
                        if (
                            isinstance(tgt, ast.Name)
                            and tgt.id in self.global_decls
                            and tgt.id in self.module.mutable_globals
                        ):
                            written = tgt.id
                if written is not None and not self._is_local(written):
                    self._flag(
                        "SC-R001",
                        node,
                        f"worker-context {fn_label} writes shared module "
                        f"state `{written}` without a synchronization edge — "
                        "populate it in the pool initializer or return the "
                        "value through the future",
                    )
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    if (
                        self._is_shared_global(node.id)
                        and node.id not in self.established
                    ):
                        self._flag(
                            "SC-R001",
                            node,
                            f"worker-context {fn_label} reads shared module "
                            f"state `{node.id}` that no pool initializer "
                            "establishes — there is no happens-before edge "
                            "ordering the write it expects",
                        )
            # ------------------------------------------------- SC-R004
            if isinstance(node, ast.Call) and not self.is_initializer:
                name = _call_name(node.func)
                if name in _SINGLETON_MUTATORS:
                    self._flag(
                        "SC-R004",
                        node,
                        f"worker-context {fn_label} calls `{name}` — "
                        "process-wide singletons may only be swapped in the "
                        "pool initializer (the one ordered point before "
                        "tasks run)",
                    )

    def _is_local(self, name: str) -> bool:
        # a `global X` declaration makes writes target the module state;
        # otherwise a plain local binding shadows the global name
        if name in self.global_decls:
            return False
        return name in self.locals


def _check_file_publishes(module: _Module, findings: list[Finding]) -> None:
    """SC-R002 over every function (shared files race across processes)."""
    for fn in module.functions.values():
        private: set[str] = set()
        replaced: set[str] = set()
        writes: list[tuple[ast.AST, str | None, ast.expr]] = []
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and _contains_call(
                node.value, _PRIVATE_PATH_CALLS
            ):
                for tgt in node.targets:
                    if isinstance(tgt, ast.Name):
                        private.add(tgt.id)
            if isinstance(node, ast.Call):
                name = _call_name(node.func)
                if name in ("replace", "rename") and node.args:
                    # os.replace(tmp, final) / tmp_path.replace(final)
                    if isinstance(node.func, ast.Attribute) and _root_name(
                        node.func.value
                    ) not in ("os", None):
                        if len(node.args) == 1:  # Path.replace(target)
                            root = _root_name(node.func.value)
                            if root:
                                replaced.add(root)
                    else:
                        root = (
                            node.args[0].id
                            if isinstance(node.args[0], ast.Name)
                            else None
                        )
                        if root:
                            replaced.add(root)
                if name == "open" and node.args:
                    mode = None
                    if len(node.args) > 1 and isinstance(node.args[1], ast.Constant):
                        mode = node.args[1].value
                    for kw in node.keywords:
                        if kw.arg == "mode" and isinstance(kw.value, ast.Constant):
                            mode = kw.value.value
                    if isinstance(mode, str) and any(c in mode for c in "wax"):
                        writes.append((node, _root_name(node.args[0]), node.args[0]))
                if name in ("write_text", "write_bytes") and isinstance(
                    node.func, ast.Attribute
                ):
                    writes.append(
                        (node, _root_name(node.func.value), node.func.value)
                    )
        for node, root, target in writes:
            if root in private or root in replaced:
                continue
            if _contains_call(target, _PRIVATE_PATH_CALLS):
                continue
            findings.append(
                Finding(
                    analyzer="concur",
                    rule="SC-R002",
                    location=f"{module.rel}:{getattr(node, 'lineno', 0)}",
                    message=(
                        f"{fn.name}() publishes a file non-atomically — "
                        "write to a pid-private temp name (os.getpid / "
                        "mkstemp) and os.replace() it into place so "
                        "concurrent readers never see a torn file"
                    ),
                )
            )


def analyze_source(source: str, rel_path: str) -> list[Finding]:
    """Run every SC-R rule over one module's source."""
    tree = ast.parse(source, filename=rel_path)
    module = _Module(tree, rel_path.replace("\\", "/"))
    findings: list[Finding] = []
    established = module.initializer_established()
    worker = module.worker_context()
    for name in sorted(worker | module.initializers):
        fn = module.functions.get(name)
        if fn is None:
            continue
        _FunctionChecker(
            module,
            fn,
            established,
            is_initializer=(name in module.initializers),
            findings=findings,
        ).check()
    _check_file_publishes(module, findings)
    return findings


def run_races(
    package_root: Path | None = None, scope: tuple[str, ...] = DEFAULT_SCOPE
) -> tuple[int, list[Finding]]:
    """Scan the in-scope modules; returns (checks, findings)."""
    if package_root is None:
        import repro

        package_root = Path(repro.__file__).resolve().parent
    findings: list[Finding] = []
    checks = 0
    for path in sorted(package_root.rglob("*.py")):
        rel = path.relative_to(package_root).as_posix()
        if not any(
            rel == entry or (entry.endswith("/") and rel.startswith(entry))
            for entry in scope
        ):
            continue
        checks += len(RULES)
        findings.extend(analyze_source(path.read_text(), rel))
    return checks, findings
