"""Fused run lowering for the online converter (Algorithm 2).

Between application events the online conversion thread claims a *run*
of pending diagonal parities (:meth:`OnlineCode56Conversion.pending_run`)
and, when the array is healthy, hands it — one parity long or longer —
to :func:`execute_run_fused`.  The run is one tiled gather: each tile
of its keys pulls a ``(chain, keys, block)`` cube from
:meth:`BlockArray.flat_view` through the volume's chain-row table
(:attr:`~repro.raid.layouts.VolumeGeometry.chain_rows`) and reduces it
in one call of the :class:`~repro.kernels.base.XorKernel` that
:func:`~repro.kernels.resolve_kernel` returns.  The parities are
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

from repro.kernels import resolve_kernel
from repro.obs.metrics import get_registry
from repro.raid.array import BlockArray
from repro.raid.layouts import VolumeGeometry, volume_geometry

__all__ = ["fused_run_usable", "execute_run_fused", "run_read_credit"]


#: chain-cube bytes per gather tile: a long run's cube is gathered and
#: reduced in cache-sized tiles, not materialised whole (256 KiB tied
#: or beat 128 KiB-1 MiB on every run shape measured)
_TILE_BYTES = 1 << 18


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
    """Generate every diagonal parity of a run in tiled chain-cube gathers.

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
    chain_rows = _geometry(array, p).chain_rows
    store = array.flat_view()
    bs = array.block_size
    # one fancy index of the flat store through the cached chain table
    # pulls a tile's (chain, keys, bs) cube; one kernel call reduces it
    tile = max(1, _TILE_BYTES // (len(chain_rows) * bs))
    out = np.empty((n, bs), dtype=np.uint8)
    for lo in range(0, n, tile):
        cube = store[chain_rows[:, keys[lo : lo + tile]]]
        kernel.region_xor_reduce(out[lo : lo + tile], cube, init=True)

    # the gathers replaced the counted chain reads; credit the identical
    # per-disk totals, then write parities through the counted bulk API
    # (one flush for the whole run)
    array.credit_ios(reads=run_read_credit(array, p, keys))
    array.write_blocks(np.full(n, p - 1, dtype=np.intp), keys, out)

    registry = get_registry()
    if registry.enabled:
        registry.counter("online.fused_runs", kernel=kernel.name).inc()
        registry.counter("online.fused_parities", kernel=kernel.name).inc(n)
        registry.counter("online.fused_xor_bytes", kernel=kernel.name).inc(
            len(chain_rows) * out.nbytes
        )
    return n * (p - 1)
