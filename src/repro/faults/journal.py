"""Conversion journals: the stable storage that makes crash recovery work.

Two journal shapes, one per conversion style:

* :class:`ConversionJournal` — a write-ahead undo/commit log for the
  offline conversion.  Before a unit of work (one stripe-group) touches
  the array, ``begin`` records the pre-images of every block the unit
  will write; after the unit's last write, ``commit`` seals it with a
  SHA-256 digest of the bytes actually written.  On restart, a
  committed unit whose digest still matches the array is skipped;
  anything else — an in-flight unit, or a committed unit whose bytes no
  longer match (a stale or tampered checkpoint) — is **rolled back from
  its pre-images and re-executed, never trusted**.
* :class:`OnlineJournal` — a watermark bitmap of generated diagonal
  parities for Algorithm 2.  Entries are marked only *after* the parity
  write completes (write-ahead ordering), and a resuming converter
  re-derives trust by recomputing each marked chain — a mark is a hint,
  the bytes are the authority.

Journal traffic is deliberately uncounted on the array: the journal
models a separate stable device (NVRAM / a log partition), and the
paper's I/O figures measure array traffic only.  The journals track
their own op/byte tallies for the fault report instead.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np
import numpy.typing as npt

from repro.raid.array import BlockArray

__all__ = ["JournalKey", "JournalRecord", "ConversionJournal", "OnlineJournal"]

IN_FLIGHT = "in-flight"
COMMITTED = "committed"

#: unit identifier — ``("group", phase, group)`` for offline conversion
JournalKey = tuple[object, ...]


@dataclass
class JournalRecord:
    """One unit's undo record plus (after commit) its content digest."""

    key: JournalKey
    disks: npt.NDArray[np.intp]
    blocks: npt.NDArray[np.intp]
    preimages: npt.NDArray[np.uint8]
    digest: str | None = None
    state: str = IN_FLIGHT


@dataclass
class ConversionJournal:
    """Write-ahead undo/commit log for checkpointed offline conversion."""

    records: dict[JournalKey, JournalRecord] = field(default_factory=dict)
    #: stable-storage accounting (not array I/O)
    bytes_logged: int = 0
    appends: int = 0

    @staticmethod
    def digest_of(payloads: npt.ArrayLike) -> str:
        """Content digest of a unit's written blocks (order-sensitive)."""
        return hashlib.sha256(np.ascontiguousarray(payloads).tobytes()).hexdigest()

    # ------------------------------------------------------------- WAL ops
    def begin(
        self,
        key: JournalKey,
        disks: npt.ArrayLike,
        blocks: npt.ArrayLike,
        preimages: npt.ArrayLike,
    ) -> None:
        """Log a unit's undo record before it touches the array."""
        disk_ids = np.asarray(disks, dtype=np.intp).ravel().copy()
        block_ids = np.asarray(blocks, dtype=np.intp).ravel().copy()
        images = np.asarray(preimages, dtype=np.uint8).copy()
        self.records[key] = JournalRecord(key, disk_ids, block_ids, images)
        self.bytes_logged += images.nbytes
        self.appends += 1

    def commit(self, key: JournalKey, digest: str) -> None:
        rec = self.records[key]
        rec.digest = digest
        rec.state = COMMITTED
        self.appends += 1

    # ------------------------------------------------------------ recovery
    def get(self, key: JournalKey) -> JournalRecord | None:
        return self.records.get(key)

    def committed(self, key: JournalKey) -> bool:
        rec = self.records.get(key)
        return rec is not None and rec.state == COMMITTED

    def validate(self, key: JournalKey, array: BlockArray) -> bool:
        """Does the array still hold the bytes the unit committed?

        Uses the uncounted gather — validation is the recovery path's
        out-of-band scan, not array traffic.
        """
        rec = self.records[key]
        if rec.state != COMMITTED or rec.digest is None:
            return False
        return self.digest_of(array.gather_raw(rec.disks, rec.blocks)) == rec.digest

    def rollback(self, key: JournalKey, array: BlockArray) -> None:
        """Restore the unit's pre-images (undo), reopening it for re-execution."""
        rec = self.records[key]
        array.restore_blocks(rec.disks, rec.blocks, rec.preimages)
        rec.digest = None
        rec.state = IN_FLIGHT

    # ------------------------------------------------------------ reporting
    def snapshot(self) -> dict[str, object]:
        states: dict[str, int] = {}
        for rec in self.records.values():
            states[rec.state] = states.get(rec.state, 0) + 1
        return {
            "units": len(self.records),
            "states": states,
            "appends": self.appends,
            "bytes_logged": self.bytes_logged,
        }


class OnlineJournal:
    """Watermark of generated diagonal parities (Algorithm 2 checkpoint)."""

    def __init__(self, groups: int, rows: int):
        self._marked: npt.NDArray[np.bool_] = np.zeros((groups, rows), dtype=bool)
        self.appends = 0

    @property
    def shape(self) -> tuple[int, int]:
        rows, cols = self._marked.shape
        return int(rows), int(cols)

    def mark(self, group: int, row: int) -> None:
        """Record parity (group, row) as generated — call *after* its write."""
        self._marked[group, row] = True
        self.appends += 1

    def mark_many(self, entries: Iterable[tuple[int, int]] | npt.NDArray[np.intp]) -> None:
        """Group-commit a run of ``(group, row)`` marks in one log append.

        ``entries`` may also be an integer ndarray of flat keys ``group *
        rows + row`` (the online converter's cursor keys).  The batched
        converter's journal flush: issued only after *every* parity write
        in the run has landed (write-ahead ordering held run-wide), so a
        crash anywhere before this call leaves the whole run unmarked —
        correct bytes, regenerated idempotently on resume.  One
        ``appends`` tick models the single stable-storage flush.
        """
        if isinstance(entries, np.ndarray):
            keys = entries
        else:
            rows = self._marked.shape[1]
            keys = [g * rows + r for g, r in entries]
        if not len(keys):
            return
        self._marked.reshape(-1)[keys] = True
        self.appends += 1

    def unmark(self, group: int, row: int) -> None:
        """Drop a mark that failed validation (stale checkpoint)."""
        self._marked[group, row] = False

    def is_marked(self, group: int, row: int) -> bool:
        return bool(self._marked[group, row])

    def marked(self) -> npt.NDArray[np.bool_]:
        return self._marked.copy()

    def restore_marks(self, marked: npt.NDArray[np.bool_]) -> None:
        """Overwrite the bitmap with a :meth:`marked` snapshot.

        State-space rewind for the interleaving model checker — not a
        log append, so ``appends`` is untouched.
        """
        if marked.shape != self._marked.shape:
            raise ValueError(
                f"snapshot shape {marked.shape} does not match {self._marked.shape}"
            )
        self._marked[...] = marked

    def count(self) -> int:
        return int(self._marked.sum())
