"""Volume health state machine for the migration fleet.

Every fleet volume carries an explicit :class:`VolumeState`; transitions
are driven by the fault plane (disk failures), the spare pool (attach /
rebuild) and the journal watermark (conversion progress).  The machine
enforces legality — an illegal transition is a fleet bug, surfaced
immediately rather than laundered into a bad report — and keeps a
tick-stamped transition log so a soak failure reads as a timeline.

::

                 admit                drain
    PENDING ──> MIGRATING ───────────────────────> COMPLETE
                   │  ▲                              ▲
         disk loss │  │ rebuilt (spare)              │
                   ▼  │                              │
                DEGRADED ──> REBUILDING ─────────────┘
                   │   spare attach      (drain while healthy again)
                   │ diagonal-disk loss, double fault
                   ▼
                 FAILED

``DEGRADED`` volumes keep migrating (reconstruct-on-read); ``FAILED`` is
terminal.  A degraded volume that never gets a spare may still drain —
it completes in ``DEGRADED`` state with its surviving bytes verified.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

__all__ = ["VolumeState", "HealthTransition", "VolumeHealth"]


class VolumeState(Enum):
    """Lifecycle states of one fleet volume."""

    PENDING = "pending"  # queued behind the volumes before it
    MIGRATING = "migrating"  # conversion in progress, array healthy
    DEGRADED = "degraded"  # a data disk failed; reconstruct-on-read
    REBUILDING = "rebuilding"  # spare attached, row-XOR rebuild running
    COMPLETE = "complete"  # conversion drained and verified
    FAILED = "failed"  # unrecoverable (diagonal disk / double fault)


#: legal edges of the machine (see the module diagram)
_LEGAL: dict[VolumeState, frozenset[VolumeState]] = {
    VolumeState.PENDING: frozenset({VolumeState.MIGRATING, VolumeState.FAILED}),
    VolumeState.MIGRATING: frozenset(
        {VolumeState.DEGRADED, VolumeState.COMPLETE, VolumeState.FAILED}
    ),
    VolumeState.DEGRADED: frozenset(
        {VolumeState.REBUILDING, VolumeState.COMPLETE, VolumeState.FAILED}
    ),
    VolumeState.REBUILDING: frozenset(
        {VolumeState.MIGRATING, VolumeState.DEGRADED, VolumeState.FAILED}
    ),
    VolumeState.COMPLETE: frozenset(),
    VolumeState.FAILED: frozenset(),
}


@dataclass(frozen=True)
class HealthTransition:
    """One tick-stamped edge of a volume's health history."""

    tick: float
    src: VolumeState
    dst: VolumeState
    reason: str


@dataclass
class VolumeHealth:
    """State + transition log of one volume."""

    state: VolumeState = VolumeState.PENDING
    log: list[HealthTransition] = field(default_factory=list)

    def transition(self, dst: VolumeState, tick: float, reason: str) -> None:
        """Take one edge; raises ``ValueError`` on an illegal transition."""
        if dst not in _LEGAL[self.state]:
            raise ValueError(
                f"illegal health transition {self.state.value} -> {dst.value} "
                f"({reason!r} at tick {tick})"
            )
        self.log.append(HealthTransition(tick, self.state, dst, reason))
        self.state = dst

    @property
    def terminal(self) -> bool:
        return not _LEGAL[self.state]

    def history(self) -> list[dict]:
        """JSON-ready transition log (the soak report's timeline)."""
        return [
            {
                "tick": t.tick,
                "from": t.src.value,
                "to": t.dst.value,
                "reason": t.reason,
            }
            for t in self.log
        ]
