"""repro.faults — deterministic fault injection and crash-consistent recovery.

The robustness layer for the conversion stack:

* :mod:`repro.faults.errors` — typed fault exceptions;
* :mod:`repro.faults.spec` — replayable (seed + schedule) scenarios;
* :mod:`repro.faults.events` — time-domain online events
  (:class:`DiskFailureEvent`, promoted out of ``migration/online.py``);
* :mod:`repro.faults.plane` — the :class:`FaultPlane` that injects
  sector errors, transients, torn writes, disk failures and crash
  points under :class:`~repro.raid.array.BlockArray` I/O;
* :mod:`repro.faults.degraded` — reconstruct-on-read for degraded-mode
  conversion;
* :mod:`repro.faults.journal` — the conversion journals (write-ahead
  undo records for offline conversion, a validated watermark for the
  online converter);
* :mod:`repro.faults.checkpoint` — crash-consistent execution and
  resume for offline conversion, one stripe-group unit at a time;
* :mod:`repro.faults.chaos` — crash-point sweeps and seeded fault
  soaks (the ``repro chaos`` backend).

The heavyweight modules (journal/checkpoint/degraded/chaos pull in the
conversion executors) load lazily so that ``repro.migration`` can import
the light ones without a cycle.
"""

from __future__ import annotations

from repro.faults.errors import (
    ConversionCrash,
    FaultError,
    ReadFaultError,
    TransientIOError,
)
from repro.faults.events import DiskFailureEvent
from repro.faults.plane import FaultPlane
from repro.faults.spec import (
    DiskFailureAt,
    FaultScenario,
    RetryPolicy,
    SectorError,
    TornWrite,
    TransientFault,
)

__all__ = [
    # errors
    "FaultError",
    "ReadFaultError",
    "TransientIOError",
    "ConversionCrash",
    # events
    "DiskFailureEvent",
    # spec
    "FaultScenario",
    "RetryPolicy",
    "SectorError",
    "TornWrite",
    "TransientFault",
    "DiskFailureAt",
    # plane
    "FaultPlane",
    # lazy (heavy) surface
    "ReconstructingReader",
    "ConversionJournal",
    "OnlineJournal",
    "CheckpointedRun",
    "execute_checkpointed",
    "run_to_completion",
    "count_crash_events",
    "crash_sweep_offline",
    "crash_sweep_online",
    "fault_soak",
    "replay_scenario",
    "save_failures",
    "plan_is_zero_movement",
]

_LAZY = {
    "ReconstructingReader": ("repro.faults.degraded", "ReconstructingReader"),
    "ConversionJournal": ("repro.faults.journal", "ConversionJournal"),
    "OnlineJournal": ("repro.faults.journal", "OnlineJournal"),
    "CheckpointedRun": ("repro.faults.checkpoint", "CheckpointedRun"),
    "execute_checkpointed": ("repro.faults.checkpoint", "execute_checkpointed"),
    "run_to_completion": ("repro.faults.checkpoint", "run_to_completion"),
    "count_crash_events": ("repro.faults.checkpoint", "count_crash_events"),
    "crash_sweep_offline": ("repro.faults.chaos", "crash_sweep_offline"),
    "crash_sweep_online": ("repro.faults.chaos", "crash_sweep_online"),
    "fault_soak": ("repro.faults.chaos", "fault_soak"),
    "replay_scenario": ("repro.faults.chaos", "replay_scenario"),
    "save_failures": ("repro.faults.chaos", "save_failures"),
    "plan_is_zero_movement": ("repro.faults.degraded", "plan_is_zero_movement"),
}


def __getattr__(name: str):
    try:
        module, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    value = getattr(importlib.import_module(module), attr)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
