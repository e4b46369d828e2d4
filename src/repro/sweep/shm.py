"""Shared-memory ndarray plumbing for the sweep pool.

:class:`SharedNDArray` wraps :class:`multiprocessing.shared_memory.
SharedMemory` with a numpy dtype/shape so pool workers can map the same
bytes the parent wrote — the sweep's source-data pool and any
shared-backed :class:`~repro.raid.array.BlockArray` cross the process
boundary as a tiny :class:`ShmHandle` (name + shape + dtype) instead of
a pickled payload.

Lifetime discipline: the **creator owns the segment** — it (and only it)
calls :meth:`unlink`; attachers call :meth:`close` when done.  Attaching
deregisters the segment from the child's ``resource_tracker`` so a
worker exiting (even crashing) neither destroys the segment under the
parent nor spews leak warnings; the parent's ``unlink`` in its
``finally`` block is the single point of truth, which is what makes
cleanup robust to worker crashes (tested).

This module is the only place in ``repro`` allowed to import
``multiprocessing`` (lint rule SC-L004 enforces that boundary).
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory

import numpy as np

__all__ = ["ShmHandle", "SharedNDArray"]


@dataclass(frozen=True)
class ShmHandle:
    """Pickle-cheap address of a shared ndarray (name, shape, dtype)."""

    name: str
    shape: tuple[int, ...]
    dtype: str

    def to_dict(self) -> dict:
        return {"name": self.name, "shape": list(self.shape), "dtype": self.dtype}

    @classmethod
    def from_dict(cls, d: dict) -> "ShmHandle":
        return cls(name=d["name"], shape=tuple(d["shape"]), dtype=d["dtype"])


class SharedNDArray:
    """A numpy array over a shared-memory segment (creator or attacher)."""

    def __init__(self, shm: shared_memory.SharedMemory, shape: tuple[int, ...],
                 dtype: np.dtype, owner: bool):
        self._shm = shm
        self._owner = owner
        self._closed = False
        self.ndarray = np.ndarray(shape, dtype=dtype, buffer=shm.buf)

    # ----------------------------------------------------------- lifecycle
    @classmethod
    def create(cls, shape: tuple[int, ...], dtype=np.uint8) -> "SharedNDArray":
        dtype = np.dtype(dtype)
        size = max(1, int(np.prod(shape)) * dtype.itemsize)
        shm = shared_memory.SharedMemory(create=True, size=size)
        out = cls(shm, tuple(shape), dtype, owner=True)
        out.ndarray[...] = 0
        return out

    @classmethod
    def from_array(cls, array: np.ndarray) -> "SharedNDArray":
        """Create a segment holding a copy of ``array``."""
        out = cls.create(array.shape, array.dtype)
        out.ndarray[...] = array
        return out

    @classmethod
    def attach(cls, handle: ShmHandle | dict) -> "SharedNDArray":
        """Map an existing segment (worker side); never destroys it."""
        if isinstance(handle, dict):
            handle = ShmHandle.from_dict(handle)
        # SharedMemory registers every mapping with the resource tracker,
        # even plain attaches (fixed only in 3.13's track=False).  Spawned
        # workers share the parent's tracker process, so an attach-side
        # register/unregister would clobber the creator's registration and
        # spew KeyErrors at exit — suppress registration entirely instead:
        # the creator's unlink remains the single point of destruction.
        orig_register = resource_tracker.register
        resource_tracker.register = lambda *a, **kw: None
        try:
            shm = shared_memory.SharedMemory(name=handle.name)
        finally:
            resource_tracker.register = orig_register
        return cls(shm, tuple(handle.shape), np.dtype(handle.dtype), owner=False)

    @property
    def handle(self) -> ShmHandle:
        return ShmHandle(
            name=self._shm.name,
            shape=tuple(self.ndarray.shape),
            dtype=self.ndarray.dtype.str,
        )

    def close(self) -> None:
        """Unmap (both sides); idempotent."""
        if self._closed:
            return
        self._closed = True
        self.ndarray = None  # drop the buffer view before closing the map
        try:
            self._shm.close()
        except BufferError:
            # a BlockArray (or other view) still maps the segment; the
            # mapping is released when that view is collected — unlink
            # still marks the segment for destruction either way
            pass

    def unlink(self) -> None:
        """Destroy the segment (creator only; idempotent)."""
        if not self._owner:
            raise ValueError("only the creating side may unlink a segment")
        self.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass

    def __enter__(self) -> "SharedNDArray":
        return self

    def __exit__(self, *exc) -> None:
        if self._owner:
            self.unlink()
        else:
            self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "owner" if self._owner else "attached"
        return f"<SharedNDArray {self._shm.name} {state} closed={self._closed}>"

