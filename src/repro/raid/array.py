"""In-memory disk arrays with per-disk I/O accounting.

:class:`BlockArray` is the physical substrate every RAID class and the
migration engine run on: a bank of fixed-size block devices backed by one
numpy array, with failure injection and exact read/write counters per
disk.  The counters are what turn executed conversions into the paper's
I/O metrics (Figs 13-17) without any separate bookkeeping.

Two I/O granularities share the same counting discipline:

* per-block :meth:`read` / :meth:`write` / :meth:`write_zero` — what the
  audited migration engine uses, one counter tick per call;
* counted bulk ops :meth:`read_blocks` / :meth:`write_blocks` /
  :meth:`write_zero_blocks` — one numpy gather/scatter over arbitrary
  ``(disk, block)`` index vectors, counting exactly one I/O per element
  (so a compiled execution of the same plan lands on identical per-disk
  counters).  They refuse an array with a fault plane attached: the
  plane observes per-block I/O only.

Bulk engines that perform their arithmetic in place (batched XOR over
region views) use :meth:`bulk_view` + :meth:`credit_ios` instead of
reaching into the private store.

Every array owns its store: a private anonymous memory mapping, advised
for huge pages and faulted in at construction.  Freeing the array unmaps
it, so its pages go back to the system at once, whatever the heap
allocator did with earlier arrays; huge pages keep bulk XORs over it as
fast as over a heap array.
"""

from __future__ import annotations

import math
import mmap
from typing import NoReturn

import numpy as np

__all__ = ["DiskFailure", "BlockArray"]

#: counted bulk ops of at most this many elements check and count on
#: Python ints: four numpy reductions and a ``bincount`` cost more than
#: the whole op for the one-to-three-block writes of an online run
_SMALL_BULK = 16

_UINT8 = np.dtype(np.uint8)


class DiskFailure(Exception):
    """Raised when touching a failed disk."""


def _mapped_zeros(shape: tuple[int, ...]) -> np.ndarray:
    """A zeroed uint8 array of ``shape`` on its own private anonymous
    mapping, faulted in; the mapping is unmapped when the array is freed."""
    mapping = mmap.mmap(-1, math.prod(shape), flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    if hasattr(mmap, "MADV_HUGEPAGE"):
        mapping.madvise(mmap.MADV_HUGEPAGE)
    store = np.frombuffer(mapping, dtype=np.uint8).reshape(shape)
    store.fill(0)
    return store


class BlockArray:
    """A bank of ``n`` block devices of ``blocks_per_disk`` blocks each.

    Blocks are uint8 payloads of ``block_size`` bytes.  All accesses go
    through :meth:`read` / :meth:`write`, which enforce failure state and
    count I/Os; bulk snapshots for verification use :meth:`snapshot`
    (not counted — it models an out-of-band check, not array traffic).
    The store is a private anonymous mapping of its own (see the module
    docstring), so freeing the array returns its pages to the system.
    """

    def __init__(self, n_disks: int, blocks_per_disk: int, block_size: int = 16):
        if n_disks < 1 or blocks_per_disk < 1 or block_size < 1:
            raise ValueError("array dimensions must be positive")
        self.block_size = block_size
        self._set_store(_mapped_zeros((n_disks, blocks_per_disk, block_size)))
        #: the failed disks; replaced (never mutated) on every change, so
        #: :attr:`failed_disks` hands it out without a copy
        self._failed: frozenset[int] = frozenset()
        self.reads = np.zeros(n_disks, dtype=np.int64)
        self.writes = np.zeros(n_disks, dtype=np.int64)
        #: optional repro.faults.FaultPlane; None keeps every op fault-free
        self._fault_plane = None
        #: optional concurrency sanitizer; None skips all shadow recording
        self._sanitizer = None

    def _set_store(self, store: np.ndarray) -> None:
        """Install ``store`` with its flat view and its shape as ints,
        which the per-block and small bulk checks read."""
        self._store = store
        self._flat = store.reshape(-1, self.block_size)
        self._n_disks, self._bpd = store.shape[:2]

    # ------------------------------------------------------------ properties
    @property
    def n_disks(self) -> int:
        return self._n_disks

    @property
    def blocks_per_disk(self) -> int:
        return self._bpd

    @property
    def failed_disks(self) -> frozenset[int]:
        return self._failed

    @property
    def total_reads(self) -> int:
        return int(self.reads.sum())

    @property
    def total_writes(self) -> int:
        return int(self.writes.sum())

    @property
    def total_ios(self) -> int:
        return self.total_reads + self.total_writes

    def reset_counters(self) -> None:
        self.reads[:] = 0
        self.writes[:] = 0

    # ---------------------------------------------------------- fault plane
    @property
    def fault_plane(self):
        """The attached :class:`~repro.faults.plane.FaultPlane`, or None."""
        return self._fault_plane

    def attach_fault_plane(self, plane) -> None:
        """Install (or, with ``None``, remove) a fault-injection plane.

        Every counted per-block I/O consults the plane before touching the
        store or the counters, and the counted bulk ops refuse to run
        while one is attached; a detached array pays a single ``is None``
        test per op, so the injection-disabled overhead is unmeasurable.
        """
        self._fault_plane = plane

    # ----------------------------------------------------------- sanitizer
    @property
    def sanitizer(self):
        """The attached :class:`~repro.staticcheck.concur.sanitizer.
        BlockSanitizer`, or None."""
        return self._sanitizer

    def attach_sanitizer(self, sanitizer) -> None:
        """Install (or, with ``None``, remove) a shared-state sanitizer.

        Every *completed* counted I/O is shadow-recorded against the
        sanitizer's vector clocks; uncounted access (``raw`` /
        ``snapshot`` / ``gather_raw`` / ``restore_blocks``) stays
        invisible, mirroring its out-of-band role.  Detached, each op
        pays one ``is None`` test and the I/O counters are untouched.
        """
        self._sanitizer = sanitizer

    # ------------------------------------------------------------------- I/O
    def _check(self, disk: int, block: int) -> None:
        if 0 <= disk < self._n_disks and 0 <= block < self._bpd and disk not in self._failed:
            return
        if not 0 <= disk < self.n_disks:
            raise IndexError(f"disk {disk} outside 0..{self.n_disks - 1}")
        if disk in self._failed:
            raise DiskFailure(f"disk {disk} has failed")
        if not 0 <= block < self.blocks_per_disk:
            raise IndexError(f"block {block} outside disk of {self.blocks_per_disk}")

    def read(self, disk: int, block: int) -> np.ndarray:
        """Read one block (returns a copy; counted).

        With a fault plane attached the read may raise a typed fault
        (sector error, exhausted transient, crash) *instead of* counting:
        only completed I/O ticks the counters.
        """
        self._check(disk, block)
        if self._fault_plane is not None:
            self._fault_plane.on_read(disk, block)
        self.reads[disk] += 1
        if self._sanitizer is not None:
            self._sanitizer.record_read(disk, block)
        return self._store[disk, block].copy()

    def write(self, disk: int, block: int, payload: np.ndarray) -> None:
        """Write one block (counted; a fault plane may tear or crash it)."""
        self._check(disk, block)
        if not (type(payload) is np.ndarray and payload.dtype is _UINT8):
            payload = np.asarray(payload, dtype=np.uint8)
        if payload.shape != (self.block_size,):
            raise ValueError(f"payload must be ({self.block_size},), got {payload.shape}")
        if self._fault_plane is not None:
            payload, crash = self._fault_plane.on_write(
                disk, block, payload, self._store[disk, block]
            )
            if crash is not None:
                # the in-flight write's torn bytes hit the platter, but the
                # op never completed — nothing is counted
                if payload is not None:
                    self._store[disk, block] = payload
                raise crash
        self.writes[disk] += 1
        self._store[disk, block] = payload
        if self._sanitizer is not None:
            self._sanitizer.record_write(disk, block)

    def write_zero(self, disk: int, block: int) -> None:
        """Write a NULL block (parity invalidation; counted as a write)."""
        self._check(disk, block)
        if self._fault_plane is not None:
            # delegates to write(), which also shadow-records
            self.write(disk, block, np.zeros(self.block_size, dtype=np.uint8))
            return
        self.writes[disk] += 1
        self._store[disk, block] = 0
        if self._sanitizer is not None:
            self._sanitizer.record_write(disk, block)

    # -------------------------------------------------------------- bulk I/O
    def _check_bulk(self, disks, blocks) -> tuple[np.ndarray, np.ndarray, np.ndarray | list[int]]:
        """Checked ``disks`` and ``blocks`` of a bulk op, and their
        :meth:`flat_view` rows."""
        disks = np.asarray(disks, dtype=np.intp).ravel()
        blocks = np.asarray(blocks, dtype=np.intp).ravel()
        if disks.shape != blocks.shape:
            raise ValueError("disks and blocks must have the same length")
        if disks.size <= _SMALL_BULK:
            d, b = disks.tolist(), blocks.tolist()
            if not d or (
                0 <= min(d) and max(d) < self._n_disks
                and 0 <= min(b) and max(b) < self._bpd
                and self._failed.isdisjoint(d)
            ):
                return disks, blocks, [x * self._bpd + y for x, y in zip(d, b)]
        if disks.min() < 0 or disks.max() >= self.n_disks:
            raise IndexError("disk index outside array")
        if blocks.min() < 0 or blocks.max() >= self.blocks_per_disk:
            raise IndexError("block index outside disk")
        if self._failed and np.isin(disks, sorted(self._failed)).any():
            hit = sorted(set(int(d) for d in disks) & self._failed)
            raise DiskFailure(f"disk(s) {hit} have failed")
        return disks, blocks, disks * self._bpd + blocks

    @staticmethod
    def _count(counter: np.ndarray, disks: np.ndarray) -> None:
        """One I/O per element of ``disks`` on ``counter``."""
        if disks.size <= _SMALL_BULK:
            for d in disks.tolist():
                counter[d] += 1
        else:
            counter += np.bincount(disks, minlength=counter.size)

    def _refuse_plane(self, op: str) -> NoReturn:
        raise ValueError(
            f"{op} is counted bulk I/O, which the fault plane does not "
            "observe; detach the plane or use per-block I/O"
        )

    def read_blocks(self, disks, blocks) -> np.ndarray:
        """Bulk counted read: one gather, one counted I/O per element.

        Returns a fresh ``(k, block_size)`` array.  Duplicate locations
        are each counted (they model repeated physical reads).  Raises
        :class:`ValueError` while a fault plane is attached.
        """
        if self._fault_plane is not None:
            self._refuse_plane("read_blocks")
        disks, blocks, rows = self._check_bulk(disks, blocks)
        self._count(self.reads, disks)
        if self._sanitizer is not None:
            self._sanitizer.record_reads(disks, blocks)
        return self._flat[rows]

    def write_blocks(self, disks, blocks, payloads: np.ndarray) -> None:
        """Bulk counted write: one scatter, one counted I/O per element.

        ``payloads`` is ``(k, block_size)``.  When the same location
        appears more than once, the last payload wins (queue order).
        Raises :class:`ValueError` while a fault plane is attached.
        """
        if self._fault_plane is not None:
            self._refuse_plane("write_blocks")
        disks, blocks, rows = self._check_bulk(disks, blocks)
        payloads = np.asarray(payloads, dtype=np.uint8)
        if payloads.shape != (disks.size, self.block_size):
            raise ValueError(
                f"payloads must be ({disks.size}, {self.block_size}), got {payloads.shape}"
            )
        self._count(self.writes, disks)
        self._flat[rows] = payloads
        if self._sanitizer is not None:
            self._sanitizer.record_writes(disks, blocks)

    def write_zero_blocks(self, disks, blocks) -> None:
        """Bulk counted NULL writes (parity invalidation).

        Raises :class:`ValueError` while a fault plane is attached.
        """
        if self._fault_plane is not None:
            self._refuse_plane("write_zero_blocks")
        disks, blocks, rows = self._check_bulk(disks, blocks)
        self._count(self.writes, disks)
        self._flat[rows] = 0
        if self._sanitizer is not None:
            self._sanitizer.record_writes(disks, blocks)

    def trim_blocks(self, disks, blocks) -> None:
        """Bulk metadata-only trim: zeroes the slots, uncounted.

        Mirrors the engine's treatment of vacated slots — freed for
        bit-verifiability without generating array traffic.
        """
        disks, blocks, rows = self._check_bulk(disks, blocks)
        self._flat[rows] = 0

    def gather_raw(self, disks, blocks) -> np.ndarray:
        """Bulk uncounted gather (verification / controller memory).

        The vectorised counterpart of :meth:`raw`; failure state is not
        consulted (out-of-band access, like :meth:`snapshot`).
        """
        disks = np.asarray(disks, dtype=np.intp).ravel()
        blocks = np.asarray(blocks, dtype=np.intp).ravel()
        return self._flat[disks * self._bpd + blocks]

    def restore_blocks(self, disks, blocks, payloads: np.ndarray) -> None:
        """Bulk uncounted scatter (journal rollback / stable-storage undo).

        The write-side counterpart of :meth:`gather_raw`: failure state
        and the fault plane are not consulted — this models the recovery
        path re-applying journaled pre-images out of band, not array
        traffic.  Duplicate locations must carry identical payloads
        (pre-images of one unit do by construction); the last one wins.
        """
        disks = np.asarray(disks, dtype=np.intp).ravel()
        blocks = np.asarray(blocks, dtype=np.intp).ravel()
        payloads = np.asarray(payloads, dtype=np.uint8)
        if disks.shape != blocks.shape:
            raise ValueError("disks and blocks must have the same length")
        if payloads.shape != (disks.size, self.block_size):
            raise ValueError(
                f"payloads must be ({disks.size}, {self.block_size}), got {payloads.shape}"
            )
        self._flat[disks * self._bpd + blocks] = payloads

    def bulk_view(self, disks: slice, blocks: slice) -> np.ndarray:
        """Uncounted ndarray *view* of a rectangular region.

        For bulk conversion engines that XOR in place over large extents;
        the caller accounts the equivalent per-block traffic through
        :meth:`credit_ios`.  Both arguments must be slices so the result
        is a true view (no copy).
        """
        if not isinstance(disks, slice) or not isinstance(blocks, slice):
            raise TypeError("bulk_view takes slices (views only); use gather_raw for fancy indexing")
        return self._store[disks, blocks]

    def flat_view(self) -> np.ndarray:
        """Uncounted ``(n_disks * blocks_per_disk, block_size)`` view of the
        whole store: block ``b`` of disk ``d`` is row ``d *
        blocks_per_disk + b``, the address :meth:`ArrayCode.syndromes`
        tables use."""
        return self._flat

    def credit_ios(self, reads=None, writes=None) -> None:
        """Add per-disk I/O counts performed out-of-band by a bulk engine.

        ``reads`` / ``writes`` are length-``n_disks`` non-negative integer
        vectors (or None).  This keeps the counting discipline intact for
        engines that bypass the counted entry points for speed: the
        credited totals must equal the per-block I/Os the audited path
        would have performed (enforced by the equivalence tests).
        """
        if reads is not None:
            self._credit("reads", reads, self.reads)
        if writes is not None:
            self._credit("writes", writes, self.writes)

    @staticmethod
    def _credit(name: str, vec, counter: np.ndarray) -> None:
        vec = np.asarray(vec, dtype=np.int64)
        if vec.shape != counter.shape:
            raise ValueError(f"{name} must have shape {counter.shape}, got {vec.shape}")
        if np.minimum.reduce(vec) < 0:
            raise ValueError(f"{name} must be non-negative")
        counter += vec

    def restore(self, snapshot: np.ndarray) -> None:
        """Uncounted restore of a :meth:`snapshot` (benchmark/test reset)."""
        snapshot = np.asarray(snapshot, dtype=np.uint8)
        if snapshot.shape != self._store.shape:
            raise ValueError(
                f"snapshot shape {snapshot.shape} does not match array {self._store.shape}"
            )
        self._store[...] = snapshot

    # ------------------------------------------------------- failure control
    def fail_disk(self, disk: int) -> None:
        if not 0 <= disk < self.n_disks:
            raise IndexError(f"disk {disk} outside array")
        self._failed = self._failed | {disk}

    def require_healthy(self, action: str, width: int | None = None) -> None:
        """Refuse an audit while a disk is failed: its raw bytes are stale.

        ``width`` limits the check to disks ``0..width-1``, the columns
        the audited code spans (a RAID-5 ignores a hot-added disk)."""
        failed = sorted(d for d in self._failed if width is None or d < width)
        if failed:
            raise RuntimeError(f"rebuild failed disks {failed} before {action}")

    def replace_disk(self, disk: int) -> None:
        """Swap in a blank disk (clears failure state and contents)."""
        if not 0 <= disk < self.n_disks:
            raise IndexError(f"disk {disk} outside array")
        self._failed = self._failed - {disk}
        self._store[disk] = 0

    def add_disk(self) -> int:
        """Hot-add a blank disk; returns its index (RAID level migration)."""
        store = _mapped_zeros((self.n_disks + 1,) + self._store.shape[1:])
        store[:-1] = self._store
        self._set_store(store)
        self.reads = np.append(self.reads, 0)
        self.writes = np.append(self.writes, 0)
        return self.n_disks - 1

    def remove_disk(self) -> None:
        """Drop the last disk (RAID-6 -> RAID-5 downgrade)."""
        if self.n_disks == 1:
            raise ValueError("cannot remove the last disk")
        last = self.n_disks - 1
        self._failed = self._failed - {last}
        self._set_store(self._store[:-1])
        self.reads = self.reads[:-1]
        self.writes = self.writes[:-1]

    # ----------------------------------------------------------- inspection
    def io_stats(self) -> dict:
        """JSON-ready view of the I/O counters (for ``repro.obs``).

        The counters themselves stay the single source of truth; this is
        the export format the metrics bridge and the CLI dumps share.
        """
        return {
            "reads": [int(r) for r in self.reads],
            "writes": [int(w) for w in self.writes],
            "total_reads": self.total_reads,
            "total_writes": self.total_writes,
            "total_ios": self.total_ios,
        }

    def snapshot(self) -> np.ndarray:
        """Uncounted copy of the whole array (verification only)."""
        return self._store.copy()

    def raw(self, disk: int, block: int) -> np.ndarray:
        """Uncounted view of a block (verification only)."""
        return self._store[disk, block]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<BlockArray {self.n_disks}x{self.blocks_per_disk} "
            f"bs={self.block_size} failed={sorted(self._failed)}>"
        )
