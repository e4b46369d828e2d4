"""Self-healing migration fleet: many volumes, one service.

``repro.fleet`` layers a long-running multi-volume migration service on
top of the batched online converter: per-volume health state machines
(:mod:`~repro.fleet.health`), hot-spare arbitration and idle-slack
scrubbing (:mod:`~repro.fleet.spares`), token-bucket + circuit-breaker
QoS arbitration between foreground I/O and background conversion
(:mod:`~repro.fleet.qos`), the per-volume cooperative driver
(:mod:`~repro.fleet.volume`) and the serial service, one volume at a
time, with its gated fleet report (:mod:`~repro.fleet.service`).

Heavy submodules load lazily so ``import repro.fleet`` stays cheap for
callers that only want the spec types.
"""

from __future__ import annotations

__all__ = [
    "VolumeState",
    "HealthTransition",
    "VolumeHealth",
    "QosTarget",
    "TokenBucket",
    "CircuitBreaker",
    "SparePool",
    "ScrubCursor",
    "VolumeSpec",
    "FleetVolume",
    "FleetConfig",
    "FleetService",
    "run_fleet",
    "fleet_soak",
]

_LAZY = {
    "VolumeState": "repro.fleet.health",
    "HealthTransition": "repro.fleet.health",
    "VolumeHealth": "repro.fleet.health",
    "QosTarget": "repro.fleet.qos",
    "TokenBucket": "repro.fleet.qos",
    "CircuitBreaker": "repro.fleet.qos",
    "SparePool": "repro.fleet.spares",
    "ScrubCursor": "repro.fleet.spares",
    "VolumeSpec": "repro.fleet.volume",
    "FleetVolume": "repro.fleet.volume",
    "FleetConfig": "repro.fleet.service",
    "FleetService": "repro.fleet.service",
    "run_fleet": "repro.fleet.service",
    "fleet_soak": "repro.fleet.service",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.fleet' has no attribute {name!r}")
    import importlib

    module = importlib.import_module(module_name)
    value = getattr(module, name)
    globals()[name] = value
    return value
