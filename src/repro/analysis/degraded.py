"""Degraded-read cost model: serving reads with a failed disk.

After a disk fails and before its rebuild completes, reads of its blocks
reconstruct through a parity chain.  The cost per such read is the
cheapest single chain covering the block — another axis where layouts
differ (and another consequence of the conversion choice, since the
converted array lives with this profile for years).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.codes.geometry import Cell, CodeLayout

__all__ = ["DegradedReadProfile", "degraded_read_profile", "degraded_read_table"]


@dataclass(frozen=True)
class DegradedReadProfile:
    """Per-column degraded-read costs for one layout."""

    layout_name: str
    column: int
    #: reads needed to serve each lost data cell (cheapest chain)
    per_cell_reads: dict[Cell, int]
    #: fraction of the stripe's data living on this column
    data_fraction: float

    @property
    def avg_reads_per_degraded_read(self) -> float:
        if not self.per_cell_reads:
            return 0.0
        return sum(self.per_cell_reads.values()) / len(self.per_cell_reads)

    @property
    def expected_read_cost(self) -> float:
        """Expected physical reads per logical read under this failure."""
        avg = self.avg_reads_per_degraded_read
        return self.data_fraction * avg + (1 - self.data_fraction) * 1.0


def degraded_read_profile(layout: CodeLayout, column: int) -> DegradedReadProfile:
    """Cost profile for reads while ``column`` is failed (pre-rebuild)."""
    if column not in layout.physical_cols:
        raise ValueError(f"column {column} is not physical in {layout.name}")
    lost = frozenset(
        (r, column)
        for r in range(layout.rows)
        if (r, column) not in layout.virtual_cells
    )
    data_lost = [c for c in lost if c in set(layout.data_cells)]
    isolating = layout.isolating_chains(lost)
    per_cell: dict[Cell, int] = {}
    for cell in data_lost:
        if not isolating[cell]:
            raise ValueError(f"{layout.name}: cell {cell} unrecoverable alone")
        # the first cheapest chain, the one a degraded Raid6Array read uses
        per_cell[cell] = min(len(sources) for _chain, sources in isolating[cell])
    return DegradedReadProfile(
        layout_name=layout.name,
        column=column,
        per_cell_reads=per_cell,
        data_fraction=len(data_lost) / max(layout.num_data, 1),
    )


def degraded_read_table(layout: CodeLayout) -> list[DegradedReadProfile]:
    """One profile per physical column (averaging basis for comparisons)."""
    return [degraded_read_profile(layout, c) for c in layout.physical_cols]
