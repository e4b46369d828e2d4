"""Parity scrubbing and silent-corruption localisation.

The paper's motivation leans on Undetected Disk Errors and Latent
Sector Errors (Table I's ASER rows): RAID arrays scrub periodically to
catch them.  Each scrub is one whole-array residue pass, with Python
work only where a residue is nonzero:

* **RAID-5** reads :meth:`Raid5Array.row_residues`, as its ``verify``
  does, and can only *detect* an inconsistent stripe;
* a code-based **RAID-6** reads :meth:`ArrayCode.syndromes` over
  :meth:`Raid6Array.addresses`, a boolean map of the violated chains
  of every group.  Two independent chains run through every data cell,
  so a single corrupt block is *locatable*: the violated chains are its
  chain signature and all carry the same XOR delta
  (:meth:`ArrayCode.residue`, recomputed for the violated pairs only),
  which is XORed back into the block to repair it — why migrating an
  aging RAID-5 to RAID-6 also protects against silent corruption.

Both refuse a degraded array (``RuntimeError``): a failed disk's stale
bytes would read as corruption, and a RAID-6 scrub would "locate" and
repair them on a disk that is gone.  A RAID-5 checks only the failures
among its own ``n`` disks, so a failed hot-added disk does not block it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.codes.geometry import Cell
from repro.raid.raid5 import Raid5Array
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
    """Verify every stripe's parity equation (uncounted maintenance I/O).
    Raises ``RuntimeError`` while one of the RAID-5's disks is failed."""
    raid5.array.require_healthy("scrubbing", width=raid5.n)
    bad = raid5.row_residues().any(axis=-1)
    return Raid5ScrubReport(raid5.stripes, np.flatnonzero(bad).tolist())


def _chain_signature(code) -> dict[Cell, frozenset[int]]:
    """Non-virtual cell -> indices of the chains whose equation contains it."""
    sig: dict[Cell, set[int]] = {}
    for idx, chain in enumerate(code.layout.chains):
        for cell in (chain.parity, *chain.members):
            sig.setdefault(cell, set()).add(idx)
    return {c: frozenset(s) for c, s in sig.items() if c not in code.layout.virtual_cells}


def scrub_raid6(raid6: Raid6Array, repair: bool = True) -> Raid6ScrubReport:
    """Scrub every stripe-group; locate and optionally repair single
    corrupt blocks.

    Localisation succeeds when exactly one cell's chain signature matches
    the violated set *and* every violated syndrome carries the same
    delta; multi-block corruption within a group is reported as
    unlocatable (a rebuild-level event).  Raises ``RuntimeError`` while a
    disk is failed.
    """
    raid6.array.require_healthy("scrubbing")
    code = raid6.code
    store, addr = raid6.array.flat_view(), raid6.addresses()
    violated = code.syndromes(store, addr)
    report = Raid6ScrubReport(raid6.groups, np.flatnonzero(violated.any(axis=0)).tolist())
    signatures = _chain_signature(code)
    for group in report.inconsistent_groups:
        chains = np.flatnonzero(violated[:, group]).tolist()
        deltas = [code.residue(store, addr, idx, group) for idx in chains]
        violated_set, delta = frozenset(chains), deltas[0]
        candidates = [cell for cell, sig in signatures.items() if sig == violated_set]
        if len(candidates) != 1 or any(not np.array_equal(d, delta) for d in deltas):
            report.unlocatable_groups.append(group)
            continue
        (row, col), = candidates
        report.located.append((group, (row, col)))
        if repair:
            # only this cell is wrong, so every chain through it is off by
            # delta: XOR it back into the one stored block
            block = raid6.array.raw(raid6.disk_of(group, col), raid6.block_of(group, row))
            np.bitwise_xor(block, delta, out=block)
            report.repaired.append((group, (row, col)))
    return report
