"""Stripe geometry shared by every array code.

An array code is described *declaratively* as a grid of cells plus a set
of parity chains.  Encoding, generic decoding, MDS certification, update
analysis and conversion planning all operate on this one representation,
so each concrete code (Code 5-6, RDP, EVENODD, ...) only has to state its
layout — no per-code encode/decode logic is duplicated.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

Cell = tuple[int, int]  # (row, col) within one stripe


class CellKind(enum.Enum):
    """Role of a cell inside a stripe."""

    DATA = "data"
    HORIZONTAL = "horizontal"  # row/horizontal parity (P)
    DIAGONAL = "diagonal"  # diagonal/anti-diagonal parity (Q)
    VIRTUAL = "virtual"  # shortened (imaginary, always-zero) cell


class ChainKind(enum.Enum):
    """Family a parity chain belongs to (used for update/recovery policy)."""

    HORIZONTAL = "horizontal"
    DIAGONAL = "diagonal"


@dataclass(frozen=True)
class ParityChain:
    """One parity equation: ``stripe[parity] = XOR(stripe[m] for m in members)``.

    ``members`` may include other parity cells (RDP's diagonals cover the
    row-parity column; HDP's anti-diagonals cover horizontal parities), in
    which case the layout's ``encode_order`` resolves dependencies.
    """

    parity: Cell
    members: tuple[Cell, ...]
    kind: ChainKind

    def __post_init__(self) -> None:
        if self.parity in self.members:
            raise ValueError(f"chain parity {self.parity} listed among its members")
        if len(set(self.members)) != len(self.members):
            raise ValueError(f"chain at {self.parity} has duplicate members")

    @property
    def xor_count(self) -> int:
        """XOR operations needed to evaluate this chain once."""
        return max(len(self.members) - 1, 0)


#: a chain that isolates one lost cell, with the chain's surviving terms
Isolation = tuple[ParityChain, tuple[Cell, ...]]


@dataclass
class CodeLayout:
    """Complete declarative geometry of one stripe.

    Attributes
    ----------
    name:
        Registry name of the code (``"code56"``, ``"rdp"``, ...).
    p:
        The prime parameter the construction is built from.
    rows, cols:
        Stripe dimensions; ``cols`` equals the number of disks ``n``.
    chains:
        All parity equations.
    virtual_cols:
        Columns that are *shortened away* (treated as all-zero, occupying
        no physical disk).  Used both for fitting codes to non-prime disk
        counts and for the paper's virtual-disk conversion trick.
    extra_virtual_cells:
        Individual cells that are virtual although their column is
        physical.  The paper's virtual-disk rule (Section IV-B2) makes a
        data cell virtual when its parity lands on a virtual disk; those
        cells live on real disks but hold no data (NULL).
    """

    name: str
    p: int
    rows: int
    cols: int
    chains: list[ParityChain]
    virtual_cols: frozenset[int] = field(default_factory=frozenset)
    extra_virtual_cells: frozenset[Cell] = field(default_factory=frozenset)
    _write_closures: dict[Cell, tuple[Cell, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _isolating: dict[frozenset[Cell], Mapping[Cell, tuple[Isolation, ...]]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        seen: set[Cell] = set()
        for chain in self.chains:
            if chain.parity in seen:
                raise ValueError(f"two chains share parity cell {chain.parity}")
            seen.add(chain.parity)
            for cell in (chain.parity, *chain.members):
                r, c = cell
                if not (0 <= r < self.rows and 0 <= c < self.cols):
                    raise ValueError(f"cell {cell} outside {self.rows}x{self.cols} stripe")

    # ------------------------------------------------------------------ sets
    @cached_property
    def parity_cells(self) -> frozenset[Cell]:
        return frozenset(chain.parity for chain in self.chains)

    @cached_property
    def virtual_cells(self) -> frozenset[Cell]:
        by_col = frozenset(
            (r, c) for r in range(self.rows) for c in self.virtual_cols
        )
        return by_col | self.extra_virtual_cells

    @cached_property
    def data_cells(self) -> tuple[Cell, ...]:
        """All real (non-parity, non-virtual) cells, row-major."""
        return tuple(
            (r, c)
            for r in range(self.rows)
            for c in range(self.cols)
            if (r, c) not in self.parity_cells and (r, c) not in self.virtual_cells
        )

    @cached_property
    def physical_cols(self) -> tuple[int, ...]:
        return tuple(c for c in range(self.cols) if c not in self.virtual_cols)

    @property
    def n_disks(self) -> int:
        return len(self.physical_cols)

    @property
    def num_data(self) -> int:
        return len(self.data_cells)

    @property
    def num_parity(self) -> int:
        return len(self.parity_cells)

    # ----------------------------------------------------------- cell lookup
    def kind(self, cell: Cell) -> CellKind:
        r, c = cell
        if cell in self.virtual_cells:
            return CellKind.VIRTUAL
        chain = self.chain_of_parity.get(cell)
        if chain is None:
            return CellKind.DATA
        if chain.kind is ChainKind.HORIZONTAL:
            return CellKind.HORIZONTAL
        return CellKind.DIAGONAL

    @cached_property
    def chain_of_parity(self) -> dict[Cell, ParityChain]:
        return {chain.parity: chain for chain in self.chains}

    @cached_property
    def chains_of_cell(self) -> dict[Cell, tuple[ParityChain, ...]]:
        """Chains each cell participates in as a *member*."""
        out: dict[Cell, list[ParityChain]] = {}
        for chain in self.chains:
            for m in chain.members:
                out.setdefault(m, []).append(chain)
        return {cell: tuple(chains) for cell, chains in out.items()}

    def write_closure(self, cell: Cell) -> tuple[Cell, ...]:
        """Parity cells a write to ``cell`` touches, in depth-first order.

        Follows chains transitively (a parity member of another chain
        propagates the update), popping the most recently touched parity
        first.  Cached per cell.
        """
        closure = self._write_closures.get(cell)
        if closure is None:
            touched: dict[Cell, None] = {}
            frontier = [cell]
            while frontier:
                for chain in self.chains_of_cell.get(frontier.pop(), ()):
                    if chain.parity not in touched:
                        touched[chain.parity] = None
                        frontier.append(chain.parity)
            closure = self._write_closures[cell] = tuple(touched)
        return closure

    def update_penalty(self, cell: Cell) -> int:
        """Parity writes triggered by a single write to ``cell``
        (:meth:`write_closure`).  Optimal is 2 for RAID-6."""
        return len(self.write_closure(cell))

    def isolating_chains(self, lost: frozenset[Cell]) -> Mapping[Cell, tuple[Isolation, ...]]:
        """Per lost cell: every chain whose only lost term is that cell.

        Each entry pairs the chain with its sources, the chain's other
        non-virtual terms in chain order (parity first); entries follow
        the layout's chain order, and a cell no chain isolates maps to
        ``()``.  Cached per lost set (read-only).
        """
        table = self._isolating.get(lost)
        if table is None:
            virtual = self.virtual_cells
            found: dict[Cell, list[Isolation]] = {cell: [] for cell in sorted(lost)}
            for chain in self.chains:
                terms = [t for t in (chain.parity, *chain.members) if t not in virtual]
                hit = [t for t in terms if t in lost]
                if len(hit) == 1:
                    found[hit[0]].append((chain, tuple(t for t in terms if t != hit[0])))
            table = self._isolating[lost] = MappingProxyType(
                {cell: tuple(opts) for cell, opts in found.items()}
            )
        return table

    # ---------------------------------------------------------- encode order
    @cached_property
    def encode_order(self) -> tuple[ParityChain, ...]:
        """Chains sorted so every parity member is computed before use."""
        ready: set[Cell] = set(self.data_cells) | self.virtual_cells
        pending = list(self.chains)
        order: list[ParityChain] = []
        while pending:
            progress = []
            for chain in pending:
                if all(m in ready or m not in self.parity_cells for m in chain.members):
                    progress.append(chain)
            if not progress:
                cycle = [c.parity for c in pending]
                raise ValueError(f"cyclic parity dependency among {cycle}")
            for chain in progress:
                order.append(chain)
                ready.add(chain.parity)
                pending.remove(chain)
        return tuple(order)

    # ------------------------------------------------------------- summaries
    def column_cells(self, col: int) -> tuple[Cell, ...]:
        return tuple((r, col) for r in range(self.rows))

    def xor_count_total(self) -> int:
        """XORs to encode one full stripe (virtual members are free)."""
        total = 0
        for chain in self.chains:
            real = [m for m in chain.members if m not in self.virtual_cells]
            total += max(len(real) - 1, 0)
        return total

    def describe(self) -> str:
        """Human-readable ASCII rendering of the stripe layout."""
        glyph = {
            CellKind.DATA: " D ",
            CellKind.HORIZONTAL: " H ",
            CellKind.DIAGONAL: " Q ",
            CellKind.VIRTUAL: " . ",
        }
        lines = [f"{self.name} (p={self.p}) {self.rows}x{self.cols}"]
        for r in range(self.rows):
            lines.append("".join(glyph[self.kind((r, c))] for c in range(self.cols)))
        return "\n".join(lines)
