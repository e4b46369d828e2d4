"""Quickstart: encode, fail, recover, migrate.

Walks the library's front door end to end:

1. build a Code 5-6 stripe, kill two disks, recover (MDS property);
2. plan Algorithm 1's two-chain recovery (the decoder's peel order) and
   the hybrid single-disk recovery;
3. convert a 4-disk RAID-5 into a 5-disk Code 5-6 RAID-6 and show the
   paper's headline accounting (B reads + B/3 writes).
"""

import numpy as np

import repro
from repro.core import plan_double_column_recovery, plan_hybrid_recovery


def main() -> None:
    rng = np.random.default_rng(42)

    # ---------------------------------------------------------- 1. the code
    p = 5
    code = repro.get_code("code56", p=p)
    print(code.layout.describe())
    print(f"data blocks per stripe: {code.num_data}, "
          f"storage efficiency: {code.storage_efficiency():.2f}\n")

    data = rng.integers(0, 256, size=(code.num_data, 4096), dtype=np.uint8)
    stripe = code.make_stripe(data)
    assert code.verify(stripe)

    broken = stripe.copy()
    broken[:, 1, :] = 0
    broken[:, 3, :] = 0
    code.decode_columns(broken, 1, 3)
    assert np.array_equal(broken, stripe)
    print("double-disk failure (cols 1 & 3): fully recovered ✓")

    # ------------------ 2. Algorithm 1 (the decoder's peel order) and Fig. 6
    plan = plan_double_column_recovery(code.layout, 1, 2)
    per_cell = plan.total_xors / len(plan.lost)
    print(f"Algorithm 1 plan for cols (1,2): {len(plan.steps)} chain steps, "
          f"{plan.total_xors} XORs ({per_cell:g} per lost element = p-3 = {p - 3}, optimal)")

    hybrid = plan_hybrid_recovery(code.layout, 1)
    print(f"hybrid single-disk recovery of col 1: {hybrid.reads} reads vs "
          f"{hybrid.conventional_reads} conventional "
          f"({hybrid.read_savings:.0%} fewer — the paper's Fig. 6)\n")

    # ------------------------------------------------------- 3. the upgrade
    outcome = repro.upgrade_to_raid6(m=4, groups=8, block_size=512)
    print("RAID-5 (4 disks) -> RAID-6 (5 disks) via Code 5-6:")
    print(" ", outcome.summary)
    b = outcome.plan.data_blocks
    print(f"  reads = B = {outcome.result.measured_reads}, "
          f"writes = B/3 = {outcome.result.measured_writes}, "
          f"total = 4B/3 = {outcome.total_ios} (B = {b})")


if __name__ == "__main__":
    main()
