"""The :class:`ArrayCode` runtime: encode / verify / decode / update.

All concrete codes are a :class:`CodeLayout` (pure geometry) wrapped in
this one class.  Payloads are numpy uint8 arrays shaped either
``(rows, cols, block_size)`` for one stripe or ``(batch, rows, cols,
block_size)`` for many stripes at once; the batch axis is broadcast
through every XOR so multi-stripe encoding costs one numpy reduction per
chain, not per stripe.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator

import numpy as np
import numpy.typing as npt

from repro.codes.decoder import PlanCache, apply_recovery_plan
from repro.codes.geometry import Cell, CodeLayout
from repro.codes.mds import codeword_basis
from repro.codes.plans import RecoveryPlan

#: payload arrays are always uint8 blocks
Stripe = npt.NDArray[np.uint8]


class ArrayCode:
    """Runtime for one XOR array code.

    Parameters
    ----------
    layout:
        Declarative stripe geometry.
    """

    def __init__(self, layout: CodeLayout):
        self.layout = layout
        self._plans = PlanCache(layout)
        self._basis: Stripe | None = None

    # ------------------------------------------------------------ properties
    @property
    def name(self) -> str:
        return self.layout.name

    @property
    def p(self) -> int:
        return self.layout.p

    @property
    def rows(self) -> int:
        return self.layout.rows

    @property
    def cols(self) -> int:
        return self.layout.cols

    @property
    def n_disks(self) -> int:
        return self.layout.n_disks

    @property
    def num_data(self) -> int:
        return self.layout.num_data

    def storage_efficiency(self) -> float:
        """Fraction of physical cells that hold user data."""
        physical = self.rows * self.layout.n_disks
        return self.layout.num_data / physical

    # -------------------------------------------------------------- stripes
    def empty_stripe(self, block_size: int = 16, batch: int | None = None) -> Stripe:
        shape: tuple[int, ...] = (self.rows, self.cols, block_size)
        if batch is not None:
            shape = (batch,) + shape
        return np.zeros(shape, dtype=np.uint8)

    def make_stripe(self, data_blocks: npt.ArrayLike) -> Stripe:
        """Lay out ``data_blocks`` into an encoded stripe.

        ``data_blocks`` is ``(num_data, block)`` or ``(batch, num_data,
        block)``, assigned to data cells in row-major order.
        """
        blocks: Stripe = np.asarray(data_blocks, dtype=np.uint8)
        batched = blocks.ndim == 3
        if blocks.shape[-2] != self.num_data:
            raise ValueError(
                f"{self.name} stripe holds {self.num_data} data blocks, "
                f"got {blocks.shape[-2]}"
            )
        stripe = self.empty_stripe(
            block_size=blocks.shape[-1],
            batch=blocks.shape[0] if batched else None,
        )
        for i, (r, c) in enumerate(self.layout.data_cells):
            stripe[..., r, c, :] = blocks[..., i, :]
        self.encode(stripe)
        return stripe

    def extract_data(self, stripe: Stripe) -> Stripe:
        """Inverse of :meth:`make_stripe`: gather the data blocks."""
        cells = self.layout.data_cells
        out: Stripe = np.empty(
            stripe.shape[:-3] + (len(cells), stripe.shape[-1]), dtype=np.uint8
        )
        for i, (r, c) in enumerate(cells):
            out[..., i, :] = stripe[..., r, c, :]
        return out

    # --------------------------------------------------------------- encode
    def encode(self, stripe: Stripe) -> Stripe:
        """Fill every parity cell of ``stripe`` in dependency order."""
        self._check_shape(stripe)
        virtual = self.layout.virtual_cells
        for chain in self.layout.encode_order:
            if chain.parity in virtual:
                # A parity on a virtual disk holds nothing; the virtual-cell
                # rules guarantee its real members XOR to zero (verified by
                # ``verify``), so the slot simply stays zero.
                continue
            members = [m for m in chain.members if m not in virtual]
            out = stripe[..., chain.parity[0], chain.parity[1], :]
            if not members:
                out[...] = 0
                continue
            first = stripe[..., members[0][0], members[0][1], :]
            np.copyto(out, first)
            for r, c in members[1:]:
                np.bitwise_xor(out, stripe[..., r, c, :], out=out)
        return stripe

    def verify(self, stripe: Stripe) -> bool:
        """True when every parity chain holds and virtual cells are zero."""
        self._check_shape(stripe)

        def cell(rc: Cell) -> Stripe:
            return stripe[..., rc[0], rc[1], :]

        return self.verify_cells(cell, stripe.shape[:-3] + stripe.shape[-1:])

    def verify_cells(
        self, cell: Callable[[Cell], Stripe | None], shape: tuple[int, ...]
    ) -> bool:
        """:meth:`verify` over a cell lookup instead of a stripe tensor.

        ``cell((r, c))`` returns that cell's payload, shaped ``shape``
        (e.g. ``(groups, block)``: one block per stripe), or ``None`` for
        a cell that reads as zero.  Virtual cells must read as zero and
        every :meth:`syndromes` residue must be zero, so a lookup
        returning views of a store checks the store in place.
        """
        for rc in self.layout.virtual_cells:
            value = cell(rc)
            if value is not None and value.any():
                return False
        return not any(residue.any() for _, residue in self.syndromes(cell, shape))

    def syndromes(
        self,
        cell: Callable[[Cell], Stripe | None],
        shape: tuple[int, ...],
        chains: Iterable[int] | None = None,
    ) -> Iterator[tuple[int, Stripe]]:
        """Yield ``(chain index, residue)`` for each of ``chains`` (default:
        all, in order) over the lookup :meth:`verify_cells` takes: the XOR
        of every term the lookup returns (virtual cells too), zero where
        the chain holds and the delta where one term is wrong.  Residues
        share one accumulator, valid until the next is drawn."""
        layout = self.layout
        acc: Stripe = np.empty(shape, dtype=np.uint8)
        for idx in range(len(layout.chains)) if chains is None else chains:
            chain = layout.chains[idx]
            parity = cell(chain.parity)
            if parity is None:
                acc[...] = 0
            else:
                np.copyto(acc, parity)
            for member in chain.members:
                value = cell(member)
                if value is not None:
                    np.bitwise_xor(acc, value, out=acc)
            yield idx, acc

    # --------------------------------------------------------------- decode
    def codeword_basis(self) -> Stripe:
        """The code's read-only identity stripe, built once per code
        (:func:`repro.codes.mds.codeword_basis`)."""
        if self._basis is None:
            basis = codeword_basis(self.layout)
            basis.flags.writeable = False
            self._basis = basis
        return self._basis

    def plan_column_recovery(self, *cols: int) -> RecoveryPlan:
        """Recovery plan for whole-column (disk) failures."""
        return self._plans.plan_for_columns(*cols)

    def plan_cell_recovery(self, cells: tuple[Cell, ...]) -> RecoveryPlan:
        """Recovery plan for an arbitrary set of lost cells."""
        return self._plans.plan_for_cells(cells)

    def decode_columns(self, stripe: Stripe, *cols: int) -> Stripe:
        """Rebuild the full content of failed columns in place."""
        self._check_shape(stripe)
        plan = self.plan_column_recovery(*cols)
        return apply_recovery_plan(plan, stripe)

    def decode_cells(self, stripe: Stripe, cells: tuple[Cell, ...]) -> Stripe:
        self._check_shape(stripe)
        plan = self.plan_cell_recovery(cells)
        return apply_recovery_plan(plan, stripe)

    # --------------------------------------------------------------- update
    def update_block(self, stripe: Stripe, cell: Cell, new_value: npt.ArrayLike) -> int:
        """Read-modify-write a single data block, patching parities.

        Uses the delta method (optimal update): parity ^= old ^ new along
        every chain the cell participates in, propagating through parity
        members transitively.  Returns the number of parity cells written
        (the paper's *single write performance* metric; 2 is optimal).
        """
        self._check_shape(stripe)
        r, c = cell
        if (r, c) in self.layout.parity_cells:
            raise ValueError(f"{cell} is a parity cell; write data cells only")
        if (r, c) in self.layout.virtual_cells:
            raise ValueError(f"{cell} is virtual; it holds no data")
        value: Stripe = np.asarray(new_value, dtype=np.uint8)
        delta = np.bitwise_xor(stripe[..., r, c, :], value)
        stripe[..., r, c, :] = value
        touched: list[Cell] = []
        frontier: list[Cell] = [cell]
        seen: set[Cell] = set()
        while frontier:
            cur = frontier.pop()
            for chain in self.layout.chains_of_cell.get(cur, ()):
                if chain.parity in seen:
                    continue
                seen.add(chain.parity)
                pr, pc = chain.parity
                np.bitwise_xor(stripe[..., pr, pc, :], delta, out=stripe[..., pr, pc, :])
                touched.append(chain.parity)
                frontier.append(chain.parity)
        return len(touched)

    # -------------------------------------------------------------- helpers
    def _check_shape(self, stripe: Stripe) -> None:
        if stripe.ndim not in (3, 4):
            raise ValueError("stripe must be (rows, cols, block) or (batch, rows, cols, block)")
        if stripe.shape[-3] != self.rows or stripe.shape[-2] != self.cols:
            raise ValueError(
                f"stripe shape {stripe.shape[-3:-1]} does not match "
                f"{self.name} geometry {(self.rows, self.cols)}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ArrayCode {self.name} p={self.p} {self.rows}x{self.cols}>"
