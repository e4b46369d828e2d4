"""Parity scrubbing and silent-corruption localisation.

The paper's motivation leans on Undetected Disk Errors and Latent
Sector Errors (Table I's ASER rows): RAID arrays scrub periodically to
catch them.  This module implements scrubbing over both array types:

* **RAID-5** can only *detect* an inconsistent stripe (one parity
  equation — no way to tell which block rotted);
* a code-based **RAID-6** has two independent chains through every data
  cell, so a single corrupt block is *locatable*: the set of violated
  chains uniquely identifies it (and all violated syndromes must carry
  the same XOR delta).  Located blocks are repaired in place by erasure
  decoding — exactly why migrating an aging RAID-5 to RAID-6 also
  protects against silent corruption, not just whole-disk loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.codes.decoder import apply_recovery_plan
from repro.codes.geometry import Cell
from repro.raid.raid5 import Raid5Array, row_xor_raw
from repro.raid.raid6 import Raid6Array

__all__ = ["Raid5ScrubReport", "Raid6ScrubReport", "scrub_raid5", "scrub_raid6"]


@dataclass
class Raid5ScrubReport:
    """Outcome of a RAID-5 scrub: detection only."""

    stripes_checked: int = 0
    inconsistent_stripes: list[int] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.inconsistent_stripes


@dataclass
class Raid6ScrubReport:
    """Outcome of a RAID-6 scrub: detection, localisation, repair."""

    groups_checked: int = 0
    inconsistent_groups: list[int] = field(default_factory=list)
    located: list[tuple[int, Cell]] = field(default_factory=list)
    repaired: list[tuple[int, Cell]] = field(default_factory=list)
    unlocatable_groups: list[int] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.inconsistent_groups


def scrub_raid5(raid5: Raid5Array) -> Raid5ScrubReport:
    """Verify every stripe's parity equation (uncounted maintenance I/O)."""
    report = Raid5ScrubReport()
    for stripe in range(raid5.stripes):
        report.stripes_checked += 1
        if row_xor_raw(raid5.array, stripe, raid5.n).any():
            report.inconsistent_stripes.append(stripe)
    return report


def _violated_chains(code, stripe: np.ndarray) -> tuple[list[int], list[np.ndarray]]:
    """Indices and syndromes of unsatisfied chains in one stripe."""
    violated: list[int] = []
    syndromes: list[np.ndarray] = []
    virtual = code.layout.virtual_cells
    for idx, chain in enumerate(code.layout.chains):
        acc = stripe[chain.parity[0], chain.parity[1]].copy()
        for cell in chain.members:
            if cell not in virtual:
                np.bitwise_xor(acc, stripe[cell[0], cell[1]], out=acc)
        if acc.any():
            violated.append(idx)
            syndromes.append(acc)
    return violated, syndromes


def _chain_signature(code) -> dict[Cell, frozenset[int]]:
    """Cell -> indices of the chains whose equation contains it."""
    sig: dict[Cell, set[int]] = {}
    for idx, chain in enumerate(code.layout.chains):
        for cell in (chain.parity, *chain.members):
            sig.setdefault(cell, set()).add(idx)
    return {cell: frozenset(s) for cell, s in sig.items()}


def scrub_raid6(raid6: Raid6Array, repair: bool = True) -> Raid6ScrubReport:
    """Scrub every stripe-group; locate and optionally repair single
    corrupt blocks.

    Localisation succeeds when exactly one cell's chain signature matches
    the violated set *and* every violated syndrome carries the same
    delta; multi-block corruption within a group is reported as
    unlocatable (a rebuild-level event).
    """
    report = Raid6ScrubReport()
    code = raid6.code
    signatures = _chain_signature(code)
    for group in range(raid6.groups):
        report.groups_checked += 1
        stripe = raid6.assemble_stripe(group)
        violated, syndromes = _violated_chains(code, stripe)
        if not violated:
            continue
        report.inconsistent_groups.append(group)
        violated_set = frozenset(violated)
        same_delta = all(np.array_equal(s, syndromes[0]) for s in syndromes)
        candidates = [
            cell
            for cell, sig in signatures.items()
            if sig == violated_set and cell not in code.layout.virtual_cells
        ]
        if not same_delta or len(candidates) != 1:
            report.unlocatable_groups.append(group)
            continue
        cell = candidates[0]
        report.located.append((group, cell))
        if repair:
            plan = code.plan_cell_recovery((cell,))
            apply_recovery_plan(plan, stripe)
            disk = raid6.disk_of(group, cell[1])
            raid6.array.raw(disk, raid6.block_of(group, cell[0]))[...] = stripe[
                cell[0], cell[1]
            ]
            report.repaired.append((group, cell))
    return report
