"""Per-layer span tracing of the repro package, applied from outside it.

End-to-end numbers are measured with nothing patched.  For the traced
run, :class:`LayerPatches` swaps the public entry points of each layer
(``repro.migration``, ``repro.compiled``, ``repro.kernels``,
``repro.raid``, ``repro.faults`` and ``repro.fleet``) for wrappers that
record a span around the call, and restores the originals afterwards.
A layer's *self time* is its spans' duration minus the part covered by
nested spans, so on one thread the self times of every layer plus the
harness's own root span add up to the root's duration exactly.

Each thread keeps its own span stack, so spans opened inside the fleet's
worker threads nest under the worker's ``FleetVolume.run`` and never
under whatever the main thread happens to be doing.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

#: the harness's own span around each timed region; its self time is the
#: part of the end-to-end time that no layer claims
ROOT = "unattributed"
#: the main thread blocked on the fleet's worker pool: waiting, not work,
#: so it is kept out of the busy total that layer shares divide
WAIT = "fleet.pool.wait"


def _index_count(args, kwargs) -> float:
    """Blocks addressed by a bulk call: the length of its ``disks`` vector."""
    disks = args[1] if len(args) > 1 else kwargs["disks"]
    return float(np.size(disks))


def _source_bytes(args, kwargs) -> float:
    """Bytes a ``region_xor_reduce(dst, sources)`` call reads."""
    sources = args[1] if len(args) > 1 else kwargs["sources"]
    return float(sum(s.nbytes for s in sources))


def _payload_bytes(args, kwargs) -> float:
    """Bytes a ``scatter_xor(dst, rows, payload)`` call reads."""
    payload = args[2] if len(args) > 2 else kwargs["payload"]
    return float(payload.nbytes)


#: (layer, "module" or "module:Class", attributes) — every public call
#: the traced run times.  Several attributes may share one layer.
TARGETS: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("migration.plan", "repro.migration.approaches", ("build_plan",)),
    ("compiled.compile", "repro.compiled.compiler", ("compile_plan",)),
    ("compiled.lower", "repro.compiled.compiler", ("lower_program",)),
    ("compiled.execute", "repro.compiled.executor", ("execute_plan_compiled", "execute_compiled")),
    ("compiled.recovery", "repro.compiled.recovery", ("assemble_all_groups", "batch_recover_columns")),
    ("migration.verify", "repro.migration.engine", ("verify_conversion",)),
    ("migration.verify", "repro.migration.online:OnlineCode56Conversion", ("verify",)),
    ("migration.online.drive", "repro.migration.online:OnlineCode56Conversion", ("run",)),
    ("migration.online.resume", "repro.migration.online:OnlineCode56Conversion", ("__init__",)),
    (
        "migration.online.step",
        "repro.migration.online:OnlineCode56Conversion",
        ("generate_run_step", "mark_run_step", "generate_step", "mark_step",
         "pending_run", "pending_parity"),
    ),
    ("faults.journal", "repro.faults.journal:OnlineJournal", ("mark", "mark_many")),
    ("raid.block_io", "repro.raid.array:BlockArray", ("read", "write", "write_zero")),
    (
        "raid.bulk_io",
        "repro.raid.array:BlockArray",
        ("read_blocks", "write_blocks", "write_zero_blocks", "trim_blocks",
         "gather_raw", "restore_blocks", "credit_ios"),
    ),
    ("fleet.service", "repro.fleet.service:FleetService", ("run",)),
    ("fleet.provision", "repro.fleet.volume:FleetVolume", ("__init__",)),
    ("fleet.volume", "repro.fleet.volume:FleetVolume", ("run",)),
    ("fleet.audit", "repro.fleet.volume:FleetVolume", ("divergent_blocks",)),
    ("fleet.scrub", "repro.fleet.spares:ScrubCursor", ("step",)),
    (WAIT, "concurrent.futures:Future", ("result",)),
)

#: the XOR primitives of the kernel that ``resolve_kernel()`` returns
KERNEL_LAYER = "kernels.xor"
KERNEL_ATTRS = ("region_xor_reduce", "scatter_xor")

#: (attribute) -> (amount name, per-call amount); summed per repeat
AMOUNTS = {
    **{
        attr: ("raid.bulk_io.blocks", _index_count)
        for attr in ("read_blocks", "write_blocks", "write_zero_blocks",
                     "trim_blocks", "gather_raw", "restore_blocks")
    },
    "region_xor_reduce": ("kernels.xor.bytes", _source_bytes),
    "scatter_xor": ("kernels.xor.bytes", _payload_bytes),
}

#: every timed layer, in report order (the root and the wait excluded)
LAYERS: tuple[str, ...] = tuple(
    dict.fromkeys(
        [layer for layer, _where, _attrs in TARGETS if layer != WAIT] + [KERNEL_LAYER]
    )
)


class _Book:
    """One thread's open spans and totals."""

    __slots__ = ("stack", "self_s", "incl_s", "calls", "amounts")

    def __init__(self) -> None:
        #: open spans, innermost last: [start, time covered by children]
        self.stack: list[list[float]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.amounts: dict[str, float] = defaultdict(float)


class Tracer:
    """Collects span self times, call counts and amounts, per thread."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._books: list[_Book] = []

    def _book(self) -> _Book:
        book = getattr(self._local, "book", None)
        if book is None:
            book = self._local.book = _Book()
            with self._lock:
                self._books.append(book)
        return book

    def _enter(self) -> tuple[_Book, list[float]]:
        book = self._book()
        frame = [perf_counter(), 0.0]
        book.stack.append(frame)
        return book, frame

    @staticmethod
    def _exit(book: _Book, frame: list[float], layer: str) -> None:
        duration = perf_counter() - frame[0]
        stack = book.stack
        stack.pop()
        book.self_s[layer] += duration - frame[1]
        book.incl_s[layer] += duration
        book.calls[layer] += 1
        if stack:
            stack[-1][1] += duration

    def wrap(self, layer: str, fn, amount=None):
        """``fn`` with a span of ``layer`` around every call.

        ``amount`` is an optional ``(name, fn(args, kwargs))`` pair whose
        per-call values are summed under ``name``.
        """
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            book, frame = enter()
            try:
                return fn(*args, **kwargs)
            finally:
                leave(book, frame, layer)
                if amount is not None:
                    book.amounts[amount[0]] += amount[1](args, kwargs)

        return traced

    @contextmanager
    def root(self):
        """The harness's span around one timed region (layer :data:`ROOT`)."""
        book, frame = self._enter()
        try:
            yield
        finally:
            self._exit(book, frame, ROOT)

    def take(self) -> dict[str, dict[str, float]]:
        """Totals over every thread since the last take; resets them.

        Call only while no span is open (between repeats).
        """
        with self._lock:
            books, self._books = self._books, []
            self._local = threading.local()
        out: dict[str, dict[str, float]] = {
            "self_s": defaultdict(float),
            "incl_s": defaultdict(float),
            "calls": defaultdict(float),
            "amounts": defaultdict(float),
        }
        for book in books:
            if book.stack:
                raise RuntimeError("take() called with a span still open")
            for key in out:
                for name, value in getattr(book, key).items():
                    out[key][name] += value
        return {key: dict(values) for key, values in out.items()}


class LayerPatches:
    """Installs and removes the tracer's wrappers on the layer entry points.

    Module-level functions are replaced in every loaded module that holds
    a reference to them (``from x import f`` copies the reference), so
    the scan runs at each :meth:`install`; methods are replaced on their
    class, and the kernel's primitives on the resolved kernel instance.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list[tuple[object, str, object, bool]] = []

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("layer patches are already installed")
        tracer = self.tracer
        functions: dict[int, object] = {}
        for layer, where, attrs in TARGETS:
            module_name, _, class_name = where.partition(":")
            module = importlib.import_module(module_name)
            for attr in attrs:
                amount = AMOUNTS.get(attr)
                if class_name:
                    owner = getattr(module, class_name)
                    self._set(owner, attr, tracer.wrap(layer, owner.__dict__[attr], amount))
                else:
                    fn = getattr(module, attr)
                    functions[id(fn)] = tracer.wrap(layer, fn, amount)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for name, value in list(namespace.items()):
                wrapper = functions.get(id(value))
                if wrapper is not None:
                    self._set(module, name, wrapper)
        from repro.kernels import resolve_kernel

        kernel = resolve_kernel()
        for attr in KERNEL_ATTRS:
            wrapper = tracer.wrap(KERNEL_LAYER, getattr(kernel, attr), AMOUNTS.get(attr))
            setattr(kernel, attr, wrapper)
            self._undo.append((kernel, attr, None, False))

    def _set(self, owner: object, name: str, wrapper: object) -> None:
        self._undo.append((owner, name, vars(owner)[name], True))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original, restore = self._undo.pop()
            if restore:
                setattr(owner, name, original)
            else:
                delattr(owner, name)  # instance attribute over the class method

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()
