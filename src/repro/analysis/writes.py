"""Write-path cost analysis: single writes and partial stripe writes.

Table III's "single write performance" column generalises to *partial
stripe writes* — the workload H-Code was designed for and one of the
reasons the paper scores conversion candidates on write behaviour.  For
``w`` consecutive logical blocks inside one stripe the controller picks
the cheaper of:

* **read-modify-write**: read the old data and each touched parity,
  apply XOR deltas (``2w + 2 * |touched parities|`` I/Os);
* **reconstruct-write**: read the untouched data, recompute every parity
  from scratch (``(D - w) + w + P`` I/Os).

Costs count I/O operations (the paper's ``Te`` unit); consecutive means
consecutive in the layout's row-major data order, matching how logical
addresses map onto stripes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.codes.geometry import CodeLayout

__all__ = ["PartialWriteCost", "partial_write_cost", "average_partial_write_cost"]


@dataclass(frozen=True)
class PartialWriteCost:
    """I/O cost of one partial-stripe write."""

    layout_name: str
    start: int
    length: int
    parities_touched: int
    rmw_ios: int
    reconstruct_ios: int

    @property
    def ios(self) -> int:
        """The controller picks the cheaper path."""
        return min(self.rmw_ios, self.reconstruct_ios)

    @property
    def uses_reconstruct(self) -> bool:
        return self.reconstruct_ios < self.rmw_ios


def partial_write_cost(layout: CodeLayout, start: int, length: int) -> PartialWriteCost:
    """Cost of writing ``length`` consecutive data blocks from ``start``."""
    data = layout.data_cells
    if not 0 <= start < len(data):
        raise ValueError(f"start {start} outside 0..{len(data) - 1}")
    if not 1 <= length <= len(data) - start:
        raise ValueError(f"length {length} does not fit the stripe from {start}")
    cells = list(data[start : start + length])
    touched = {
        parity
        for cell in cells
        for parity in layout.write_closure(cell)
        if parity not in layout.virtual_cells
    }
    rmw = 2 * length + 2 * len(touched)
    reconstruct = (len(data) - length) + length + layout.num_parity
    return PartialWriteCost(
        layout_name=layout.name,
        start=start,
        length=length,
        parities_touched=len(touched),
        rmw_ios=rmw,
        reconstruct_ios=reconstruct,
    )


def average_partial_write_cost(layout: CodeLayout, length: int) -> float:
    """Mean best-path I/O over every aligned start position."""
    data_count = len(layout.data_cells)
    if not 1 <= length <= data_count:
        raise ValueError(f"length {length} outside 1..{data_count}")
    starts = range(data_count - length + 1)
    total = sum(partial_write_cost(layout, s, length).ios for s in starts)
    return total / len(starts)
