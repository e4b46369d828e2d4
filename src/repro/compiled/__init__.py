"""Compiled execution layer: conversion plans as NumPy index programs.

``compile_plan`` lowers any :class:`ConversionPlan` — every code and
approach the planners support — into flat gather/scatter index vectors
plus fused parity region ops; ``execute_plan_compiled`` replays the
program against a healthy :class:`BlockArray` through the counted bulk-I/O API,
producing the byte-identical array and per-disk counters of the audited
engine at a fraction of the wall time.  On the read side,
``recovery.audit_table`` classifies every converted stripe cell as a
run over groups, so verification reads the array in place through
zero-copy views; ``assemble_all_groups`` / ``batch_recover_columns``
are the whole-array tensor forms of the same reads.  See
``docs/architecture.md`` ("Compiled execution layer").
"""

from repro.compiled.compiler import (
    UnsupportedPlanError,
    clear_program_cache,
    compile_plan,
    lower_program,
    plan_cache_key,
    program_cache_dir,
    program_cache_info,
    set_program_cache_dir,
)
from repro.compiled.executor import execute_compiled, execute_plan_compiled
from repro.compiled.program import (
    CompiledPlan,
    FusedPhase,
    PhaseProgram,
    RegionOp,
    RegionTerm,
    SparseTerm,
)
from repro.compiled.recovery import assemble_all_groups, batch_recover_columns

__all__ = [
    "CompiledPlan",
    "FusedPhase",
    "PhaseProgram",
    "RegionOp",
    "RegionTerm",
    "SparseTerm",
    "UnsupportedPlanError",
    "assemble_all_groups",
    "batch_recover_columns",
    "clear_program_cache",
    "compile_plan",
    "execute_compiled",
    "execute_plan_compiled",
    "lower_program",
    "plan_cache_key",
    "program_cache_dir",
    "program_cache_info",
    "set_program_cache_dir",
]
