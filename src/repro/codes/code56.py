"""Code 5-6 stripe geometry (the paper's contribution, Section III).

A Code 5-6 stripe is a ``(p-1) x p`` matrix for prime ``p``:

* columns ``0 .. p-2`` form a ``(p-1) x (p-1)`` square that is *exactly*
  a left-asymmetric RAID-5 over ``p-1`` disks — the horizontal parity of
  row ``i`` sits on the anti-diagonal cell ``(i, p-2-i)`` (Eq. 1);
* column ``p-1`` holds one diagonal parity per row (Eq. 2).

Diagonal geometry: give every square cell the diagonal id
``d = (r + c) mod p``.  The anti-diagonal of horizontal parities is
precisely diagonal ``d = p-2``, so every other diagonal contains only
data cells — ``p-2`` of them.  The diagonal parity stored at
``(i, p-1)`` covers diagonal ``d = (i-1) mod p``; as ``i`` runs over
``0 .. p-2``, ``d`` runs over every value except ``p-2``.  This is the
closed form of the paper's Eq. 2 (its example ``C(1,4) = C(0,0) ^
C(3,2) ^ C(2,3)`` is diagonal ``d = 0``).

Consequences proved in tests: each chain XORs ``p-2`` cells (``p-3``
XOR ops, the optimum), each data cell feeds exactly one horizontal and
one diagonal chain (optimal update penalty 2), and the code is MDS.
"""

from __future__ import annotations

from functools import lru_cache

from repro.codes.geometry import Cell, ChainKind, CodeLayout, ParityChain
from repro.util.primes import is_prime

__all__ = [
    "code56_layout",
    "code56_right_layout",
    "horizontal_parity_cell",
    "diagonal_of_cell",
    "diagonal_chain_cells",
    "DIAGONAL_COLUMN",
]

#: Symbolic alias: the diagonal parity always lives in the last column.
DIAGONAL_COLUMN = -1


def horizontal_parity_cell(p: int, row: int) -> Cell:
    """Cell holding the horizontal parity of ``row`` (Eq. 1 placement)."""
    return (row, p - 2 - row)


def diagonal_of_cell(p: int, cell: Cell) -> int:
    """Diagonal id of a square cell: ``(r + c) mod p``."""
    r, c = cell
    return (r + c) % p


@lru_cache(maxsize=None)
def diagonal_chain_cells(p: int, parity_row: int) -> tuple[Cell, ...]:
    """Square cells covered by the diagonal parity at ``(parity_row, p-1)``.

    These are the cells with ``(r + c) mod p == (parity_row - 1) mod p``;
    all are data cells because diagonal ``p-2`` (the horizontal-parity
    anti-diagonal) never appears here.
    """
    d = (parity_row - 1) % p
    return tuple(
        (r, c)
        for r in range(p - 1)
        for c in range(p - 1)
        if (r + c) % p == d
    )


def code56_layout(p: int, virtual_cols: tuple[int, ...] = ()) -> CodeLayout:
    """Build the Code 5-6 layout for prime ``p``.

    ``virtual_cols`` marks shortened data columns (Section IV-B2's virtual
    disks); they must lie in the square (the parity columns cannot be
    virtual) and are excluded from chains at encode time by the runtime,
    not here — geometry keeps the full prime structure.
    """
    if not is_prime(p):
        raise ValueError(f"Code 5-6 requires prime p, got {p}")
    if p < 5:
        raise ValueError("Code 5-6 needs p >= 5 (at least 3 data columns)")
    for c in virtual_cols:
        if not 0 <= c < p - 1:
            raise ValueError(f"virtual column {c} outside data square of p={p}")

    # Virtual-element rule (Section IV-B2): every cell on a virtual disk is
    # virtual, and so is every data cell whose horizontal parity sits on a
    # virtual disk.  Each square column holds exactly one horizontal parity
    # (row p-2-c), so virtual column c additionally voids the data of that
    # row.
    extra: set[Cell] = set()
    for c in virtual_cols:
        parity_row = p - 2 - c
        for j in range(p - 1):
            if j != c:
                extra.add((parity_row, j))

    chains: list[ParityChain] = []
    for i in range(p - 1):
        parity = horizontal_parity_cell(p, i)
        members = tuple((i, j) for j in range(p - 1) if j != parity[1])
        chains.append(ParityChain(parity=parity, members=members, kind=ChainKind.HORIZONTAL))
    for i in range(p - 1):
        chains.append(
            ParityChain(
                parity=(i, p - 1),
                members=diagonal_chain_cells(p, i),
                kind=ChainKind.DIAGONAL,
            )
        )
    return CodeLayout(
        name="code56",
        p=p,
        rows=p - 1,
        cols=p,
        chains=chains,
        virtual_cols=frozenset(virtual_cols),
        extra_virtual_cells=frozenset(extra),
    )


def code56_right_layout(p: int, virtual_cols: tuple[int, ...] = ()) -> CodeLayout:
    """The mirrored Code 5-6 for right-(a)symmetric RAID-5s (Fig. 7).

    Section IV-B1: when the source RAID-5 rotates its parity rightwards
    (parity of stripe ``i`` on disk ``i mod m``), the matching Code 5-6
    variant mirrors the data square horizontally: the horizontal parity
    of row ``i`` sits on the *main* diagonal ``(i, i)`` and the diagonal
    chains run along ``(r - c) mod p``.  Obtained from the left layout by
    the column reflection ``c -> p-2-c`` (the diagonal column stays
    last), so it inherits every optimality property and the MDS proof by
    symmetry — and is certified independently in the tests.

    ``virtual_cols`` are given in *right-layout* coordinates.
    """
    mirrored = tuple(p - 2 - c for c in virtual_cols)
    base = code56_layout(p, virtual_cols=mirrored)

    def reflect(cell: Cell) -> Cell:
        r, c = cell
        return (r, p - 2 - c) if c != p - 1 else (r, c)

    chains = [
        ParityChain(
            parity=reflect(ch.parity),
            members=tuple(sorted(reflect(m) for m in ch.members)),
            kind=ch.kind,
        )
        for ch in base.chains
    ]
    return CodeLayout(
        name="code56-right",
        p=p,
        rows=p - 1,
        cols=p,
        chains=chains,
        virtual_cols=frozenset(virtual_cols),
        extra_virtual_cells=frozenset(reflect(c) for c in base.extra_virtual_cells),
    )
