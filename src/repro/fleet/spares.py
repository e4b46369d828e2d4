"""Hot-spare pool and scrub scheduling for the fleet.

The :class:`SparePool` is the only piece of fleet state shared between
volumes.  A volume that loses a data disk asks for a spare; if one is
granted the volume rebuilds onto it (row-XOR reconstruction through the
still-maintained RAID-5 horizontal parity — valid mid-migration, because
Algorithm 2's write path updates that parity on every write) and returns
to migrating.  Pool-exhausted volumes stay degraded and keep converting
through reconstruct-on-read.

:class:`ScrubCursor` is the idle-slack parity verifier.  It owns no
chain arithmetic: every check is one :meth:`ArrayCode.syndromes` call
over the store's pages in place, through the volume's address table
(:attr:`~repro.raid.layouts.VolumeGeometry.addresses`), and its boolean
map of violated chains is masked by the journal.  A :meth:`~ScrubCursor.step`
checks one stripe — that row's horizontal chain plus, when the diagonal
parity of that row is journal-marked, its diagonal chain — over one
group.  The fleet
scheduler feeds it whatever ticks are left between request arrivals once
conversion has drained, so silent corruption surfaces while the volume
is still under management instead of at the next full audit.
:meth:`~ScrubCursor.sweep` is the same call over every group and chain:
a whole pass of steps, the final scrub before a volume reports complete.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SparePool", "ScrubCursor"]

#: what a Code 5-6 chain checks, by ``chain index // rows``
_KINDS = ("horizontal", "diagonal")


class SparePool:
    """A counted pool of hot spares shared by every volume of a fleet.

    Claims are granted in call order.  The fleet drains its volumes one
    at a time in volume order, so the lowest-id failing volumes get the
    spares and the rest are denied, whatever the pool size.
    """

    def __init__(self, spares: int):
        if spares < 0:
            raise ValueError("spare count must be non-negative")
        self.free = int(spares)
        self.total = int(spares)
        self.granted = 0
        self.denied = 0

    def claim(self) -> bool:
        """Take one spare; False when the pool is exhausted."""
        if self.free == 0:
            self.denied += 1
            return False
        self.free -= 1
        self.granted += 1
        return True

    def snapshot(self) -> dict:
        return {
            "total": self.total,
            "free": self.free,
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

    def _violated(self, groups: slice, chains: list[int]) -> np.ndarray:
        """:meth:`ArrayCode.syndromes` of ``chains`` over ``groups``, read
        in place through the volume's address table."""
        conv = self.conv
        addr = conv.geometry.addresses[:, groups]
        return conv.code.syndromes(conv.array.flat_view(), addr, chains)

    def step(self) -> int:
        """Scrub the next stripe; returns the tick cost (0 if no stripes)."""
        total = self.stripes
        if total == 0:
            return 0
        conv = self.conv
        stripe = self._stripe
        self._stripe = (stripe + 1) % total
        self.stripes_scrubbed += 1
        horizontal, diagonal = self._checks()
        cost = conv.m
        # this stripe's row chain, then its diagonal once journal-marked
        group, row = divmod(stripe, conv.rows)
        chains = [row] if horizontal else []
        if diagonal and conv.journal.is_marked(group, row):
            cost += 1
            chains.append(conv.rows + row)
        if chains:
            for idx, hit in zip(chains, self._violated(slice(group, group + 1), chains)):
                if hit[0]:
                    self._record(stripe, _KINDS[idx // conv.rows])
        return cost

    def sweep(self) -> int:
        """One full pass from the cursor: ``stripes`` calls to :meth:`step`.

        Same tick cost, counters and error list (same order), computed
        for the whole volume at once: one :meth:`ArrayCode.syndromes`
        call over every group, the row chains and (journal permitting)
        the diagonal chains, its map masked by the journal so that only
        marked rows count diagonals.  The cursor ends where it started.
        """
        total = self.stripes
        if total == 0:
            return 0
        conv = self.conv
        m, rows = conv.m, conv.rows
        horizontal, diagonal = self._checks()
        bad = np.zeros((2, conv.groups, rows), dtype=bool)  # [_KINDS, group, row]
        chains = [*range(rows)] if horizontal else []
        if diagonal:
            chains += range(rows, 2 * rows)
        if chains:
            picked = np.array(chains)
            bad[picked // rows, :, picked % rows] = self._violated(slice(None), chains)
        mask = conv.journal.marked() if diagonal else np.zeros((conv.groups, rows), dtype=bool)
        bad[1] &= mask
        bad = bad.reshape(2, total)
        for stripe in np.flatnonzero(np.roll(bad.any(axis=0), -self._stripe)):
            stripe = (int(stripe) + self._stripe) % total
            for kind in np.flatnonzero(bad[:, stripe]):
                self._record(stripe, _KINDS[kind])
        self.stripes_scrubbed += total
        return m * total + int(mask.sum())

    def snapshot(self) -> dict:
        return {
            "stripes_scrubbed": self.stripes_scrubbed,
            "errors_found": self.errors_found,
            "errors": [list(e) for e in self.errors],
        }
