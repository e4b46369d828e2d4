"""The paper's contribution: Code 5-6 algorithms beyond raw geometry.

* :mod:`repro.core.chain_decoder` — Algorithm 1 (two recovery chains, the
  peel order of :func:`repro.codes.build_recovery_plan`)
* :mod:`repro.core.recovery` — hybrid single-disk recovery (Fig. 6), for
  every registered code
* :mod:`repro.core.conversion` — bidirectional migration (Algorithm 2)
* :mod:`repro.core.virtual` — virtual disks for any array width
"""

from repro.core.chain_decoder import plan_double_column_recovery, recovery_chain_starting_points
from repro.core.conversion import (
    Code56Migrator,
    MigrationOutcome,
    downgrade_to_raid5,
    upgrade_to_raid6,
)
from repro.core.recovery import HybridRecovery, plan_hybrid_recovery
from repro.core.virtual import VirtualDiskPlan, virtual_disk_plan

__all__ = [
    "plan_double_column_recovery",
    "recovery_chain_starting_points",
    "Code56Migrator",
    "MigrationOutcome",
    "downgrade_to_raid5",
    "upgrade_to_raid6",
    "HybridRecovery",
    "plan_hybrid_recovery",
    "VirtualDiskPlan",
    "virtual_disk_plan",
]
