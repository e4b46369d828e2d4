"""Fused run lowering for the online converter (Algorithm 2).

Between application events the online conversion thread claims a *run*
of pending diagonal parities (:meth:`OnlineCode56Conversion.pending_run`)
and, when the array is healthy, hands it — one parity long or longer —
to :func:`execute_run_fused`.  A small run gathers its whole chain cube
from :meth:`BlockArray.flat_view` through the volume's chain-row table
(:attr:`~repro.raid.layouts.VolumeGeometry.chain_rows`) and reduces it
in one kernel call; a long run is grouped by parity row, each row's
chain one fused XOR reduction over strided ``bulk_view`` slices of the
block store (the ISA-L region-op idiom).  Either way the XOR goes
through the :class:`~repro.kernels.base.XorKernel` that
:func:`~repro.kernels.resolve_kernel` returns, and the parities are
written back through the *counted* :meth:`BlockArray.write_blocks` bulk
API.  Reads are credited via :meth:`BlockArray.credit_ios` with exactly
the per-disk totals the audited per-parity path performs — zero counter
drift.

The lowering never runs when a fault plane or a sanitizer is attached
or a disk has failed (:func:`fused_run_usable`, the same gate the
offline compiled executor applies): the gathers bypass the counted read
hooks that crash points, sector errors, degraded reconstruction and
shadow recording hang off, so those runs take the audited per-parity
generator inside :meth:`OnlineCode56Conversion.generate_run_step`,
whose chain reads go through
:class:`~repro.faults.degraded.ReconstructingReader` — same run/mark
protocol, full fault semantics.
"""

from __future__ import annotations

import numpy as np

from repro.kernels import ScratchPool, resolve_kernel
from repro.obs.metrics import get_registry
from repro.raid.array import BlockArray
from repro.raid.layouts import VolumeGeometry, volume_geometry

__all__ = ["fused_run_usable", "execute_run_fused", "run_read_credit"]


_SCRATCH = ScratchPool()

#: destination-tile budget — keep each fused reduction's working set in
#: cache rather than streaming a giant run extent once per chain cell
_RUN_TILE_BYTES = 1 << 17

#: below this many destination bytes a run is overhead-bound (one or two
#: groups per row): gather the whole chain cube in one fancy index and
#: reduce it in a single kernel call instead of a reduction per row
_GATHER_RUN_BYTES = 1 << 17


def fused_run_usable(array: BlockArray) -> bool:
    """Fused execution — online runs here and offline phases in
    :mod:`repro.compiled.executor` — bypasses the counted read path, so
    it is only sound when nothing observes it: no fault plane
    (crash/tear hooks fire on counted reads), no failed disks (counted
    reads raise ``DiskFailure``; views would silently serve stale
    bytes) and no sanitizer (credited reads are not shadow-recorded)."""
    return array.fault_plane is None and not array.failed_disks and array.sanitizer is None


def _geometry(array: BlockArray, p: int) -> VolumeGeometry:
    """The cached :class:`VolumeGeometry` of ``array`` converted at ``p``."""
    bpd = array.blocks_per_disk
    return volume_geometry(p, array.n_disks, bpd // (p - 1), bpd)


def run_read_credit(array: BlockArray, p: int, keys: np.ndarray) -> np.ndarray:
    """Per-disk read totals the audited path would perform for the run
    at cursor ``keys`` (see :func:`execute_run_fused`)."""
    return np.add.reduce(_geometry(array, p).read_credit[keys % (p - 1)])


def execute_run_fused(array: BlockArray, p: int, keys: np.ndarray) -> int:
    """Generate every diagonal parity of a run in fused region ops.

    ``keys`` is the run as ascending cursor keys ``group * (p-1) +
    row`` (the block of the parity on the diagonal disk).  Returns the
    conversion-thread cost in Te ticks — ``(p-1)`` per parity, the same
    ``(p-2)`` chain reads + 1 write the audited path bills on a healthy
    array.  Byte- and counter-identical to looping ``_generate_parity``
    over the run.
    """
    n = len(keys)
    if not n:
        return 0
    kernel = resolve_kernel()
    geometry = _geometry(array, p)
    m = rows = p - 1
    bs = array.block_size

    if n * bs <= _GATHER_RUN_BYTES:
        # overhead-bound small run (a group or two per row): one fancy
        # index of the flat store through the cached chain table pulls
        # the whole (chain, n, bs) cube, one kernel call reduces it — no
        # region set-up and no per-row Python loop
        out = np.empty((n, bs), dtype=np.uint8)
        out_blocks = keys
        cube = array.flat_view()[geometry.chain_rows[:, keys]]
        kernel.region_xor_reduce(out, cube, init=True)
        xor_bytes = cube.nbytes
    else:
        # streaming run: group entries by parity row — a cursor-ordered
        # run keeps each row's groups sorted (contiguous when dense) —
        # and reduce strided views straight off the block store, tiled
        # to keep the destination working set in cache
        out = _SCRATCH.take((n, bs))
        groups, prows = np.divmod(keys, rows)
        max_group = int(groups.max())
        span = slice(0, (max_group + 1) * rows)
        # (disk, group, row, block) view of the square region
        region = array.bulk_view(slice(0, m), span).reshape(m, max_group + 1, rows, bs)
        out_blocks = np.empty(n, dtype=np.intp)
        xor_bytes = 0
        by_row: dict[int, list[int]] = {}
        for g, r in zip(groups.tolist(), prows.tolist()):
            by_row.setdefault(r, []).append(g)
        pos = 0
        for prow in sorted(by_row):
            gs = by_row[prow]
            chain = geometry.chain_cells[prow]
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

    # the gather or views above replaced the counted chain reads; credit the
    # identical per-disk totals, then write parities through the counted
    # bulk API (one flush for the whole run)
    array.credit_ios(reads=run_read_credit(array, p, keys))
    array.write_blocks(np.full(n, m, dtype=np.intp), out_blocks, out)

    registry = get_registry()
    if registry.enabled:
        registry.counter("online.fused_runs", kernel=kernel.name).inc()
        registry.counter("online.fused_parities", kernel=kernel.name).inc(n)
        registry.counter("online.fused_xor_bytes", kernel=kernel.name).inc(xor_bytes)
    return n * (p - 1)
