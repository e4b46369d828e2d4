"""Erasure-code framework: geometry, runtime, decoding, baselines.

The paper's contribution (Code 5-6) and all six comparison codes are
declared as :class:`CodeLayout` geometries and run through one shared
:class:`ArrayCode` engine.  Use :func:`get_code` to construct any of
them by name.
"""

from repro.codes.base import ArrayCode
from repro.codes.code56 import code56_layout
from repro.codes.decoder import (
    PlanCache,
    UnrecoverableError,
    apply_recovery_plan,
    build_recovery_plan,
    eliminate_recovery_plan,
)
from repro.codes.evenodd import evenodd_layout
from repro.codes.geometry import Cell, CellKind, ChainKind, CodeLayout, ParityChain
from repro.codes.hcode import hcode_layout
from repro.codes.hdp import hdp_layout
from repro.codes.mds import MdsReport, certify_mds, check_double_erasures
from repro.codes.pcode import pcode_layout
from repro.codes.plans import RecoveryPlan, RecoveryStep
from repro.codes.rdp import rdp_layout
from repro.codes.reed_solomon import ReedSolomonRaid6
from repro.codes.registry import CODE_CATALOG, CODE_NAMES, CodeInfo, disks_for, get_code, get_layout
from repro.codes.xcode import xcode_layout

__all__ = [
    "ArrayCode",
    "Cell",
    "CellKind",
    "ChainKind",
    "CodeLayout",
    "ParityChain",
    "RecoveryPlan",
    "RecoveryStep",
    "PlanCache",
    "UnrecoverableError",
    "apply_recovery_plan",
    "build_recovery_plan",
    "eliminate_recovery_plan",
    "MdsReport",
    "certify_mds",
    "check_double_erasures",
    "CODE_CATALOG",
    "CODE_NAMES",
    "CodeInfo",
    "disks_for",
    "get_code",
    "get_layout",
    "code56_layout",
    "rdp_layout",
    "evenodd_layout",
    "xcode_layout",
    "pcode_layout",
    "hcode_layout",
    "hdp_layout",
    "ReedSolomonRaid6",
]

from repro.codes.cauchy import CauchyReedSolomon
from repro.codes.code56 import code56_right_layout

__all__ += ["CauchyReedSolomon", "code56_right_layout"]

from repro.codes.mds import check_erasures
from repro.codes.star import star_layout

__all__ += ["check_erasures", "star_layout"]
