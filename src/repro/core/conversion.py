"""High-level bidirectional RAID-5 <-> RAID-6 migration API (Section IV).

This is the library's front door for the paper's headline capability:

* :func:`upgrade_to_raid6` — offline/batch conversion through the plan
  engine (verified end state, measured I/O), handling any ``m >= 3`` via
  virtual disks;
* :class:`Code56Migrator` — stateful facade that also runs the *online*
  conversion of Algorithm 2 (concurrent application I/O) and the trivial
  reverse migration (drop the diagonal column).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.codes.registry import get_code
from repro.core.virtual import virtual_disk_plan
from repro.migration.approaches import build_plan
from repro.migration.engine import (
    ConversionResult,
    execute_plan,
    prepare_source_array,
    verify_conversion,
)
from repro.migration.online import (
    DiskFailureEvent,
    OnlineCode56Conversion,
    OnlineReport,
    OnlineRequest,
)
from repro.migration.plan import ConversionPlan
from repro.raid.array import BlockArray
from repro.raid.layouts import Raid5Layout
from repro.raid.raid5 import Raid5Array
from repro.raid.raid6 import Raid6Array

__all__ = ["MigrationOutcome", "upgrade_to_raid6", "downgrade_to_raid5", "Code56Migrator"]


@dataclass
class MigrationOutcome:
    """A completed (and audited) RAID-5 -> RAID-6 migration."""

    plan: ConversionPlan
    result: ConversionResult
    verified: bool

    @property
    def total_ios(self) -> int:
        return self.result.measured_total

    @property
    def summary(self) -> str:
        return (
            f"{self.plan.describe()} | measured {self.result.measured_reads}R/"
            f"{self.result.measured_writes}W | verified={self.verified}"
        )


def upgrade_to_raid6(
    m: int,
    groups: int = 4,
    block_size: int = 16,
    rng: np.random.Generator | None = None,
    data: np.ndarray | None = None,
) -> MigrationOutcome:
    """Convert a freshly built ``m``-disk RAID-5 to a Code 5-6 RAID-6.

    Builds the source array (filled with ``data`` or random payloads),
    executes the direct conversion plan, and audits the result.  ``m``
    may be any width >= 3; non-prime ``m+1`` engages virtual disks.
    """
    vplan = virtual_disk_plan(m)
    plan = build_plan("code56", "direct", vplan.p, groups=groups, n_disks=m + 1)
    if rng is None:
        rng = np.random.default_rng(0)
    array, payload = prepare_source_array(plan, rng, block_size=block_size, data=data)
    result = execute_plan(plan, array, payload)
    verified = verify_conversion(result)
    return MigrationOutcome(plan=plan, result=result, verified=verified)


def downgrade_to_raid5(array: BlockArray, p: int) -> Raid5Array:
    """RAID-6 -> RAID-5 (Algorithm 2's reverse direction).

    Step 1: check ``n == p`` and that the Code 5-6 parities are
    consistent; Step 2: delete the last (diagonal-parity) disk.  No data
    or parity I/O is needed — the remaining columns *are* a
    left-asymmetric RAID-5.
    """
    if array.n_disks != p:
        raise ValueError(f"expected a Code 5-6 array of {p} disks, got {array.n_disks}")
    code = get_code("code56", p)
    probe = Raid6Array(array, code)
    if not probe.verify():
        raise ValueError("array is not a consistent Code 5-6 RAID-6; refusing to downgrade")
    array.remove_disk()
    raid5 = Raid5Array(array, Raid5Layout.LEFT_ASYMMETRIC, n_disks=p - 1)
    if not raid5.verify():  # pragma: no cover - implied by the Code 5-6 check
        raise AssertionError("downgraded array lost RAID-5 consistency")
    return raid5


class Code56Migrator:
    """Stateful migration driver bound to a live array.

    Typical use (see ``examples/migrate_raid5_to_raid6.py``)::

        migrator = Code56Migrator(array, p=5)
        migrator.add_parity_disk()          # Step 2
        report = migrator.convert_online(requests)   # Step 3
        raid6 = migrator.as_raid6()
    """

    def __init__(self, array: BlockArray, p: int):
        self.array = array
        self.p = p
        self.m = p - 1
        self._online: OnlineCode56Conversion | None = None

    def check_source(self) -> None:
        """Algorithm 2, Step 1: the array must be an m = p-1 RAID-5."""
        raid5 = Raid5Array(self.array, Raid5Layout.LEFT_ASYMMETRIC, n_disks=self.m)
        if not raid5.verify():
            raise ValueError("source is not a consistent left-asymmetric RAID-5")

    def add_parity_disk(self) -> int:
        """Algorithm 2, Step 2: hot-add the diagonal-parity disk."""
        if self.array.n_disks >= self.p:
            return self.p - 1
        return self.array.add_disk()

    def convert_online(
        self,
        requests: list[OnlineRequest] | None = None,
        failures: list[DiskFailureEvent] | None = None,
    ) -> OnlineReport:
        """Algorithm 2, Step 3: conversion concurrent with app I/O.

        ``failures`` injects disk losses mid-conversion; the migration
        completes degraded and the audit is deferred until the failed
        disks are rebuilt (``as_raid6().rebuild_disks(...)``).
        """
        self._online = OnlineCode56Conversion(self.array, self.p)
        report = self._online.run(requests or [], failures=failures)
        if not self.array.failed_disks:
            if not self._online.verify():
                raise AssertionError("online conversion left inconsistent parities")
        return report

    def as_raid6(self, rotation_period: int | None = None) -> Raid6Array:
        return Raid6Array(self.array, get_code("code56", self.p), rotation_period)

    def revert(self) -> Raid5Array:
        """RAID-6 -> RAID-5: drop the diagonal column."""
        return downgrade_to_raid5(self.array, self.p)
