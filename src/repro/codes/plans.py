"""Precomputed recovery plans.

Erasure decoding splits into two phases: a *planning* phase that depends
only on the geometry and the erasure pattern (which cells are lost), and
an *apply* phase that XORs payload blocks.  Planning is done once per
pattern by the peeling planner (:mod:`repro.codes.decoder`) and cached;
applying is pure vectorised numpy.  This mirrors how production
erasure-code libraries (jerasure, ISA-L) separate schedule generation
from data movement.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.codes.geometry import Cell


@dataclass(frozen=True)
class RecoveryStep:
    """Recover ``target`` as the XOR of ``sources`` (all must be intact
    or recovered by an earlier step)."""

    target: Cell
    sources: tuple[Cell, ...]

    @property
    def xor_count(self) -> int:
        return max(len(self.sources) - 1, 0)


@dataclass(frozen=True)
class RecoveryPlan:
    """Ordered steps that rebuild every lost cell of an erasure pattern."""

    lost: tuple[Cell, ...]
    steps: tuple[RecoveryStep, ...]

    def __post_init__(self) -> None:
        targets = [s.target for s in self.steps]
        if set(targets) != set(self.lost):
            raise ValueError("plan does not cover exactly the lost cells")
        recovered: set[Cell] = set()
        lost = set(self.lost)
        for step in self.steps:
            for src in step.sources:
                if src in lost and src not in recovered:
                    raise ValueError(
                        f"step for {step.target} reads {src} before it is recovered"
                    )
            recovered.add(step.target)

    @property
    def total_xors(self) -> int:
        return sum(s.xor_count for s in self.steps)

    @cached_property
    def read_set(self) -> frozenset[Cell]:
        """Distinct *surviving* cells the plan reads (recovered intermediates
        excluded) — the paper's single-disk-recovery read-I/O metric.
        Computed once per plan: rebuild and degraded reads consult it for
        every stripe-group."""
        lost = set(self.lost)
        return frozenset(src for s in self.steps for src in s.sources if src not in lost)

    @property
    def total_reads(self) -> int:
        return len(self.read_set)
