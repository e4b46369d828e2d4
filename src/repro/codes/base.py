"""The :class:`ArrayCode` runtime: encode / verify / decode / update.

All concrete codes are a :class:`CodeLayout` (pure geometry) wrapped in
this one class.  Payloads are numpy uint8 arrays shaped either
``(rows, cols, block_size)`` for one stripe or ``(batch, rows, cols,
block_size)`` for many stripes at once; the batch axis is broadcast
through every XOR so multi-stripe encoding costs one numpy reduction per
chain, not per stripe.

Chain checks read no stripe tensor: :meth:`ArrayCode.syndromes` reads a
flat ``(blocks, block)`` store through a ``(cells, groups)`` block-address
table, one tiled gather per chain term, with the chains taken from the
code's one :class:`ChainTable`.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from repro.codes.decoder import PlanCache, apply_recovery_plan
from repro.codes.geometry import Cell, CodeLayout
from repro.codes.mds import codeword_basis
from repro.codes.plans import RecoveryPlan

#: payload arrays are always uint8 blocks
Stripe = npt.NDArray[np.uint8]

#: ``(rows * cols, groups)`` store rows of every cell of every group; -1
#: reads as zero
Addresses = npt.NDArray[np.intp]

#: bytes one :meth:`ArrayCode.syndromes` tile holds, its accumulator and
#: gather buffer half each.  Measured at p=13 with 4 KiB blocks against
#: the per-chain loop it replaced (Code 5-6 at 4 to 192 groups, RDP,
#: STAR, X-Code and HDP at 48, on a 2-CPU x86 host): at 256 KiB the
#: gather lost at 192 groups and on HDP; at 512 KiB it matched or beat
#: the loop everywhere but HDP (7.7 ms against 7.0); 1 MiB gained
#: little more.
SYNDROME_TILE_BYTES = 1 << 19


@dataclass(frozen=True)
class ChainFamily:
    """Every chain of one term count: term ``j`` of the family's chain
    ``i`` is cell ``(rows[i, j], cols[i, j])``, address-table row
    ``cells[i, j]``; the parity is term 0.  Read-only."""

    rows: npt.NDArray[np.intp]
    cols: npt.NDArray[np.intp]
    cells: npt.NDArray[np.intp]


@dataclass(frozen=True)
class ChainTable:
    """A layout's chains as index arrays, one :class:`ChainFamily` per
    term count; ``where[chain]`` is ``(family, slot)``.  Virtual terms
    stay in: garbage stored where a shortened code holds nothing shows in
    its chains."""

    families: tuple[ChainFamily, ...]
    where: npt.NDArray[np.intp]

    @classmethod
    def of(cls, layout: CodeLayout) -> ChainTable:
        by_terms: dict[int, list[int]] = {}
        for idx, chain in enumerate(layout.chains):
            by_terms.setdefault(len(chain.members) + 1, []).append(idx)
        where = np.empty((len(layout.chains), 2), dtype=np.intp)
        families = []
        for f, chains in enumerate(by_terms.values()):
            terms = np.array(
                [[layout.chains[i].parity, *layout.chains[i].members] for i in chains],
                dtype=np.intp,
            )
            where[chains, 0], where[chains, 1] = f, np.arange(len(chains))
            rows, cols = terms[..., 0], terms[..., 1]
            family = ChainFamily(rows, cols, rows * layout.cols + cols)
            for array in vars(family).values():
                array.flags.writeable = False
            families.append(family)
        where.flags.writeable = False
        return cls(tuple(families), where)

    def terms(self, chains: Iterable[int]) -> tuple[npt.NDArray[np.intp], npt.NDArray[np.intp]]:
        """``(rows, cols)`` of ``chains``, which must share a term count."""
        family, slots = self.where[np.fromiter(chains, np.intp)].T
        if len(set(family.tolist())) != 1:
            raise ValueError("chains of different term counts have no common table")
        chosen = self.families[family[0]]
        return chosen.rows[slots], chosen.cols[slots]


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
        self._chains: ChainTable | None = None

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
        blocks = stripe.reshape(-1, stripe.shape[-1])
        cells = self.rows * self.cols
        addr = np.arange(blocks.shape[0]).reshape(-1, cells).T
        return self.verify_cells(blocks, addr)

    def verify_cells(self, store: Stripe, addr: Addresses) -> bool:
        """:meth:`verify` over a block store instead of a stripe tensor.

        ``store`` is ``(blocks, block)``; ``addr[r * cols + c, g]`` is
        the store row holding cell ``(r, c)`` of group ``g``, or -1 for a
        cell that reads as zero.  Virtual cells must read as zero and no
        :meth:`syndromes` chain may be violated, so a view of an array's
        pages checks the array in place.
        """
        virtual = [r * self.cols + c for r, c in self.layout.virtual_cells]
        held = addr[virtual]
        held = held[held >= 0]
        if held.size and np.take(store, held, axis=0).any():
            return False
        return not self.syndromes(store, addr).any()

    def chain_table(self) -> ChainTable:
        """Every chain's terms as index arrays, built once per code."""
        if self._chains is None:
            self._chains = ChainTable.of(self.layout)
        return self._chains

    def syndromes(
        self, store: Stripe, addr: Addresses, chains: Iterable[int] | None = None
    ) -> npt.NDArray[np.bool_]:
        """Which chains are violated in which groups, as a boolean
        ``(len(chains), groups)`` map over ``chains`` (default: all, in
        order), read through the address table :meth:`verify_cells` takes.

        A chain is violated where the XOR of all its terms (virtual cells
        too) is nonzero.  Each chain family is reduced into a reused
        accumulator, tiled over chains and groups, with one gather per
        term — or per run of terms, as many as the gather buffer holds —
        so that accumulator and buffer together hold at most
        :data:`SYNDROME_TILE_BYTES`.  No residue is kept; :meth:`residue`
        recomputes one.
        """
        table = self.chain_table()
        where = table.where if chains is None else table.where[np.fromiter(chains, np.intp)]
        groups, block = addr.shape[1], store.shape[1]
        violated = np.zeros((len(where), groups), dtype=bool)
        if not groups:
            return violated
        holes = addr.min() < 0
        half = SYNDROME_TILE_BYTES // 2
        for f, family in enumerate(table.families):
            pos = np.flatnonzero(where[:, 0] == f)
            if not pos.size:
                continue
            cells = family.cells[where[pos, 1]]
            k, terms = cells.shape
            # tile: `span` chains x `width` groups; gather `depth` terms at once
            span = max(1, min(k, half // block))
            width = max(1, min(groups, half // (span * block)))
            depth = max(1, min(terms, half // (span * width * block)))
            acc = np.empty(span * width * block, dtype=np.uint8)
            buf = np.empty(depth * acc.size, dtype=np.uint8)
            for c0 in range(0, k, span):
                for g0 in range(0, groups, width):
                    tile = addr[cells[c0 : c0 + span], g0 : g0 + width]
                    kc, _, gg = tile.shape
                    out = acc[: kc * gg * block].reshape(kc, gg, block)
                    for j0 in range(0, terms, depth):
                        rows = tile[:, j0 : j0 + depth]
                        n = rows.shape[1]
                        chunk = buf[: kc * n * gg * block].reshape(kc, n, gg, block)
                        store.take(rows, axis=0, out=chunk, mode="clip")
                        if holes:
                            chunk[rows < 0] = 0
                        if j0 == 0:
                            np.bitwise_xor.reduce(chunk, axis=1, out=out)
                            continue
                        for i in range(n):
                            np.bitwise_xor(out, chunk[:, i], out=out)
                    violated[pos[c0 : c0 + span], g0 : g0 + width] = out.any(axis=-1)
        return violated

    def residue(self, store: Stripe, addr: Addresses, chain: int, group: int) -> Stripe:
        """The XOR of every term of ``chain`` in ``group``: zero where the
        chain holds, the delta where one term is wrong."""
        table = self.chain_table()
        family, slot = table.where[chain]
        rows = addr[table.families[family].cells[slot], group]
        terms = np.take(store, rows, axis=0, mode="clip")
        terms[rows < 0] = 0
        return np.bitwise_xor.reduce(terms, axis=0)

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

    # --------------------------------------------------------------- update
    def update_block(self, stripe: Stripe, cell: Cell, new_value: npt.ArrayLike) -> int:
        """Read-modify-write a single data block, patching parities.

        Uses the delta method (optimal update): parity ^= old ^ new on
        every parity of :meth:`CodeLayout.write_closure`, which follows
        parity members transitively.  Returns the number of parity cells
        written (the paper's *single write performance* metric; 2 is
        optimal).
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
        touched = self.layout.write_closure(cell)
        for pr, pc in touched:
            np.bitwise_xor(stripe[..., pr, pc, :], delta, out=stripe[..., pr, pc, :])
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
