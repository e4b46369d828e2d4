"""Fused run lowering for the online converter (Algorithm 2).

Between application events the online conversion thread claims a *run*
of pending diagonal parities (:meth:`OnlineCode56Conversion.pending_run`)
and, when the run has at least two parities and the array is healthy,
hands it to :func:`execute_run_fused`: the run is grouped by parity row,
each row's chain becomes one fused XOR reduction over strided
``bulk_view`` slices of the block store (the ISA-L region-op idiom),
reduced through the :class:`~repro.kernels.base.XorKernel` that
:func:`~repro.kernels.resolve_kernel` returns into a reused scratch
pool, and written back through the *counted*
:meth:`BlockArray.write_blocks` bulk API.  Reads are credited via
:meth:`BlockArray.credit_ios` with exactly the per-disk totals the
audited per-parity path performs — zero counter drift.

The lowering never runs when a fault plane is attached or a disk has
failed (:func:`fused_run_usable`, the same gate the offline compiled
executor applies): the views bypass the counted read hooks that crash
points, sector errors and degraded reconstruction hang off, so those
runs take the audited per-parity generator inside
:meth:`OnlineCode56Conversion.generate_run_step`, whose chain reads go
through :class:`~repro.faults.degraded.ReconstructingReader` — same
run/mark protocol, full fault semantics.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.codes.registry import get_code
from repro.kernels import ScratchPool, resolve_kernel
from repro.obs.metrics import get_registry
from repro.raid.array import BlockArray

__all__ = ["fused_run_usable", "execute_run_fused", "run_read_credit"]


_SCRATCH = ScratchPool()

#: destination-tile budget — keep each fused reduction's working set in
#: cache rather than streaming a giant run extent once per chain cell
_RUN_TILE_BYTES = 1 << 17

#: below this many destination bytes a run is overhead-bound (one or two
#: groups per row): gather the whole chain cube in one fancy index and
#: reduce it in a single kernel call instead of a reduction per row
_GATHER_RUN_BYTES = 1 << 17


@lru_cache(maxsize=None)
def _diagonal_members(p: int) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, cols)[prow, j]``: the square cell at position ``j`` of
    the chain of diagonal parity row ``prow``, read once per prime from
    the Code 5-6 chain table (:meth:`ArrayCode.chain_table`: chains
    ``p-1 .. 2p-3`` of the layout, the parity at term 0).  Read-only."""
    rows = p - 1
    r_tab, c_tab = get_code("code56", p).chain_table().terms(range(rows, 2 * rows))
    members = r_tab[:, 1:], c_tab[:, 1:]
    for table in members:
        table.flags.writeable = False
    return members


def fused_run_usable(array: BlockArray) -> bool:
    """Fused execution — online runs here and offline phases in
    :mod:`repro.compiled.executor` — bypasses the counted read path, so
    it is only sound when nothing observes it: no fault plane
    (crash/tear hooks fire on counted reads) and no failed disks
    (counted reads raise ``DiskFailure``; views would silently serve
    stale bytes)."""
    return array.fault_plane is None and not array.failed_disks


def run_read_credit(array: BlockArray, p: int, run: tuple[tuple[int, int], ...]) -> np.ndarray:
    """Per-disk read totals the audited path would perform for ``run``."""
    _r_tab, c_tab = _diagonal_members(p)
    prows = np.fromiter((r for _g, r in run), dtype=np.intp, count=len(run))
    return np.bincount(c_tab[prows].ravel(), minlength=array.n_disks)


def execute_run_fused(
    array: BlockArray,
    p: int,
    run: tuple[tuple[int, int], ...],
) -> int:
    """Generate every diagonal parity of ``run`` in fused region ops.

    ``run`` is a cursor-ordered tuple of ``(group, row)`` pairs.  Returns
    the conversion-thread cost in Te ticks — ``(p-1)`` per parity, the
    same ``(p-2)`` chain reads + 1 write the audited path bills on a
    healthy array.  Byte- and counter-identical to looping
    ``_generate_parity`` over the run.
    """
    if not run:
        return 0
    kernel = resolve_kernel()
    m = p - 1
    rows = p - 1
    bs = array.block_size
    n = len(run)

    max_group = max(g for g, _r in run)
    span = slice(0, (max_group + 1) * rows)
    # (disk, group, row, block) view of the square region
    region = array.bulk_view(slice(0, m), span).reshape(m, max_group + 1, rows, bs)

    out = _SCRATCH.take((n, bs))
    out_blocks = np.empty(n, dtype=np.intp)
    xor_bytes = 0

    if n * bs <= _GATHER_RUN_BYTES:
        # overhead-bound small run (a group or two per row): one
        # fancy-indexed gather pulls the whole (chain, n, bs) cube, one
        # kernel call reduces it — no per-row Python loop
        r_tab, c_tab = _diagonal_members(p)
        g_arr = np.fromiter((g for g, _r in run), dtype=np.intp, count=n)
        prows = np.fromiter((r for _g, r in run), dtype=np.intp, count=n)
        np.multiply(g_arr, rows, out=out_blocks)
        out_blocks += prows
        cube = region[c_tab[prows].T, g_arr[None, :], r_tab[prows].T, :]
        kernel.region_xor_reduce(out[:n], list(cube), init=True)
        xor_bytes = cube.nbytes
    else:
        # streaming run: group entries by parity row — a cursor-ordered
        # run keeps each row's groups sorted (contiguous when dense) —
        # and reduce strided views straight off the block store, tiled
        # to keep the destination working set in cache
        by_row: dict[int, list[int]] = {}
        for g, r in run:
            by_row.setdefault(r, []).append(g)
        r_tab, c_tab = _diagonal_members(p)
        pos = 0
        for prow in sorted(by_row):
            gs = by_row[prow]
            chain = tuple(zip(r_tab[prow].tolist(), c_tab[prow].tolist()))
            k = len(gs)
            out_blocks[pos : pos + k] = np.asarray(gs, dtype=np.intp) * rows + prow
            contiguous = k == gs[-1] - gs[0] + 1
            idx = None if contiguous else np.asarray(gs, dtype=np.intp)
            tile = max(1, min(k, _RUN_TILE_BYTES // bs))
            for lo in range(0, k, tile):
                hi = min(k, lo + tile)
                dst = out[pos + lo : pos + hi]
                if contiguous:
                    g0 = gs[0]
                    sources = [region[c, g0 + lo : g0 + hi, r, :] for r, c in chain]
                else:
                    sources = [region[c][idx[lo:hi], r, :] for r, c in chain]
                kernel.region_xor_reduce(dst, sources, init=True)
                xor_bytes += len(chain) * dst.nbytes
            pos += k

    # the views above replaced the counted chain reads; credit the
    # identical per-disk totals, then write parities through the counted
    # bulk API (one flush for the whole run)
    array.credit_ios(reads=run_read_credit(array, p, run))
    array.write_blocks(np.full(n, m, dtype=np.intp), out_blocks, out[:n])

    registry = get_registry()
    if registry.enabled:
        registry.counter("online.fused_runs", kernel=kernel.name).inc()
        registry.counter("online.fused_parities", kernel=kernel.name).inc(n)
        registry.counter("online.fused_xor_bytes", kernel=kernel.name).inc(xor_bytes)
    return n * (p - 1)
