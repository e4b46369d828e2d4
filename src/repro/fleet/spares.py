"""Hot-spare pool and scrub scheduling for the fleet.

The :class:`SparePool` is the only piece of fleet state shared between
volume workers, so it is the one place that takes a lock.  A volume that
loses a data disk asks for a spare; if one is granted the volume rebuilds
onto it (row-XOR reconstruction through the still-maintained RAID-5
horizontal parity — valid mid-migration, because Algorithm 2's write
path updates that parity on every write) and returns to migrating.
Pool-exhausted volumes stay degraded and keep converting through
reconstruct-on-read.

:class:`ScrubCursor` is the idle-slack parity verifier: one stripe per
step — the horizontal row XOR plus, when the diagonal parity of that
stripe's row is journal-marked, its Code 5-6 chain XOR.  The fleet
scheduler feeds it whatever ticks are left between request arrivals once
conversion has drained, so silent corruption surfaces while the volume
is still under management instead of at the next full audit.  Its
:meth:`~ScrubCursor.sweep` does a whole pass of steps in one tensor
pass: the final scrub before a volume reports complete.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.codes.code56 import diagonal_chain_index
from repro.raid.raid5 import row_xor_raw

__all__ = ["SparePool", "ScrubCursor"]


class SparePool:
    """A counted pool of hot spares shared by every volume worker.

    Grant order is first-come-first-served under a lock; the *outcome*
    per volume is deterministic whenever the pool is sized for the fault
    scenario (every claim granted), which is what seeded soaks assert.
    """

    def __init__(self, spares: int):
        if spares < 0:
            raise ValueError("spare count must be non-negative")
        self._lock = threading.Lock()
        self._free = int(spares)
        self.total = int(spares)
        self.granted = 0
        self.denied = 0

    def claim(self) -> bool:
        """Take one spare; False when the pool is exhausted."""
        with self._lock:
            if self._free == 0:
                self.denied += 1
                return False
            self._free -= 1
            self.granted += 1
            return True

    @property
    def free(self) -> int:
        with self._lock:
            return self._free

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "total": self.total,
                "free": self._free,
                "granted": self.granted,
                "denied": self.denied,
            }


class ScrubCursor:
    """Round-robin background parity verification over one volume.

    Each :meth:`step` checks one stripe out-of-band (raw reads — scrub
    is the recovery plane's scan, not counted array traffic) and costs
    the caller ``m`` ticks of idle slack, the stripe-read budget a real
    scrubber would spend, plus one tick when it also checks the row's
    diagonal parity.  :meth:`sweep` is ``stripes`` steps in one pass:
    the fleet's final scrub before a volume reports complete.
    """

    def __init__(self, conv) -> None:
        self.conv = conv
        self._stripe = 0
        self.stripes_scrubbed = 0
        self.errors_found = 0
        #: (stripe, kind) of every inconsistency seen
        self.errors: list[tuple[int, str]] = []

    @property
    def stripes(self) -> int:
        return self.conv.groups * self.conv.rows

    def _checks(self) -> tuple[bool, bool]:
        """Which parities a scrub may check now: (horizontal, diagonal).

        Neither while a RAID-5 row member is failed (its raw bytes are
        stale by design; rows are checked again once rebuilt); diagonals
        only with a journal and a live diagonal disk.
        """
        conv = self.conv
        failed = conv.array.failed_disks
        horizontal = not any(d < conv.m for d in failed)
        return horizontal, horizontal and conv.journal is not None and conv.m not in failed

    def _record(self, stripe: int, kind: str) -> None:
        self.errors_found += 1
        self.errors.append((stripe, kind))

    def step(self) -> int:
        """Scrub the next stripe; returns the tick cost (0 if no stripes)."""
        total = self.stripes
        if total == 0:
            return 0
        conv = self.conv
        array, m = conv.array, conv.m
        stripe = self._stripe
        self._stripe = (stripe + 1) % total
        self.stripes_scrubbed += 1
        horizontal, diagonal = self._checks()
        cost = m
        # horizontal parity: XOR over the RAID-5 row must balance
        if horizontal and row_xor_raw(array, stripe, m).any():
            self._record(stripe, "horizontal")
        # diagonal parity of this stripe's row, once journal-marked
        group, row = divmod(stripe, conv.rows)
        if diagonal and conv.journal.is_marked(group, row):
            cost += 1
            if not np.array_equal(conv.chain_xor_uncounted(group, row), array.raw(m, stripe)):
                self._record(stripe, "diagonal")
        return cost

    def sweep(self) -> int:
        """One full pass from the cursor: ``stripes`` calls to :meth:`step`.

        Same tick cost, counters and error list (same order), computed
        for the whole volume at once: one row XOR-reduce over the RAID-5
        disks and one reduction of every diagonal chain of every group,
        the latter checked only for journal-marked rows.  The cursor ends
        where it started.
        """
        total = self.stripes
        if total == 0:
            return 0
        conv = self.conv
        m, rows = conv.m, conv.rows
        horizontal, diagonal = self._checks()
        view = conv.array.bulk_view(slice(0, m + 1), slice(0, total))
        bad_h = np.zeros(total, dtype=bool)
        bad_d = np.zeros(total, dtype=bool)
        marked = 0
        if horizontal:
            bad_h = np.bitwise_xor.reduce(view[:m], axis=0).any(axis=-1)
        if diagonal:
            chain_rows, chain_cols = diagonal_chain_index(conv.p)
            square = view[:m].reshape(m, conv.groups, rows, -1)
            # (rows, p-2, groups, block) -> XOR of each chain, per group
            chains = np.bitwise_xor.reduce(square[chain_cols, :, chain_rows], axis=1)
            parity = view[m].reshape(conv.groups, rows, -1)
            mask = conv.journal.marked()
            bad_d = (np.any(chains.transpose(1, 0, 2) != parity, axis=-1) & mask).ravel()
            marked = int(mask.sum())
        for stripe in np.flatnonzero(np.roll(bad_h | bad_d, -self._stripe)):
            stripe = (int(stripe) + self._stripe) % total
            if bad_h[stripe]:
                self._record(stripe, "horizontal")
            if bad_d[stripe]:
                self._record(stripe, "diagonal")
        self.stripes_scrubbed += total
        return m * total + marked

    def snapshot(self) -> dict:
        return {
            "stripes_scrubbed": self.stripes_scrubbed,
            "errors_found": self.errors_found,
            "errors": [list(e) for e in self.errors],
        }
