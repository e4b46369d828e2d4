"""Seeded-fault self-test: prove the checkers are not vacuously green.

A static checker that always says CLEAN is indistinguishable from one
that checks nothing.  This module plants known faults — one broken
parity equation per catalog code, and corrupted index vectors in a
compiled conversion program — and demands the prover/dataflow analyzer
flag every single one.  An undetected fault is itself a finding
(**SC-S001**), so a regression that blinds an analyzer turns the gate
red instead of silently weakening it.

The mutations are deliberately *minimal* (one dropped chain member, one
off-by-one block index): if the analyzers catch these, they catch
anything coarser.
"""

from __future__ import annotations

import dataclasses
from dataclasses import replace

import numpy as np

from repro.codes.geometry import CodeLayout, ParityChain
from repro.codes.registry import CODE_CATALOG, get_layout
from repro.staticcheck.report import Finding

__all__ = [
    "mutated_layouts",
    "mutated_programs",
    "crash_recovery_checks",
    "run_selftest",
]


def _drop_member(layout: CodeLayout) -> CodeLayout:
    """Remove one real member from the first chain that has any.

    The dropped term changes one parity equation; for a storage-optimal
    code this must break either two-erasure recoverability (SC-P001) or
    parity determinism (SC-P002).
    """
    virtual = layout.virtual_cells
    for i, chain in enumerate(layout.chains):
        real = [m for m in chain.members if m not in virtual]
        if not real:
            continue
        members = tuple(m for m in chain.members if m != real[0])
        chains = list(layout.chains)
        chains[i] = ParityChain(chain.parity, members, chain.kind)
        return CodeLayout(
            name=layout.name,
            p=layout.p,
            rows=layout.rows,
            cols=layout.cols,
            chains=chains,
            virtual_cols=layout.virtual_cols,
            extra_virtual_cells=layout.extra_virtual_cells,
        )
    raise AssertionError(f"{layout.name}: no chain with real members to mutate")


def mutated_layouts(p: int = 5) -> list[tuple[str, CodeLayout]]:
    """One broken-parity-equation variant of every catalog code."""
    return [
        (name, _drop_member(get_layout(name, p))) for name in sorted(CODE_CATALOG)
    ]


def _copy_program(program):
    """Deep-copy a CompiledPlan so mutations cannot leak anywhere."""
    phases = tuple(
        dataclasses.replace(
            ph,
            **{
                f.name: getattr(ph, f.name).copy()
                for f in dataclasses.fields(ph)
                if isinstance(getattr(ph, f.name), np.ndarray)
            },
        )
        for ph in program.phases
    )
    return replace(program, phases=phases)


def _first_phase_with(program, vector: str):
    for i, ph in enumerate(program.phases):
        if getattr(ph, vector).size:
            return i, ph
    raise AssertionError(f"program has no {vector} entries to mutate")


def mutated_programs() -> list[tuple[str, object, object]]:
    """(description, plan, corrupted program) triples.

    Built fresh with ``use_cache=False``: the compiler cache hands out
    shared ndarray-backed programs, and mutating a cached program would
    poison every later compile of the same plan.
    """
    from repro.compiled.compiler import compile_plan
    from repro.migration.approaches import build_plan

    cases: list[tuple[str, object, object]] = []

    plan = build_plan("code56", "direct", 5, groups=2)
    base = compile_plan(plan, use_cache=False)

    prog = _copy_program(base)
    _i, ph = _first_phase_with(prog, "parity_block")
    ph.parity_block[0] = (ph.parity_block[0] + 1) % plan.blocks_per_disk
    cases.append(("code56/direct: parity write retargeted one block off", plan, prog))

    prog = _copy_program(base)
    _i, ph = _first_phase_with(prog, "read_disk")
    ph.read_disk[0] = (ph.read_disk[0] + 1) % plan.n
    cases.append(("code56/direct: stripe read redirected to wrong disk", plan, prog))

    prog = _copy_program(base)
    _i, ph = _first_phase_with(prog, "read_block")
    ph.read_block[0] = plan.blocks_per_disk  # one past the end
    cases.append(("code56/direct: read index out of bounds", plan, prog))

    mplan = build_plan("rdp", "via-raid4", 5, groups=4)
    mbase = compile_plan(mplan, use_cache=False)
    prog = _copy_program(mbase)
    _i, ph = _first_phase_with(prog, "migrate_dst_block")
    ph.migrate_dst_block[0] = (ph.migrate_dst_block[0] + 1) % mplan.blocks_per_disk
    cases.append(("rdp/via-raid4: migration lands on the wrong block", mplan, prog))

    prog = _copy_program(mbase)
    _i, ph = _first_phase_with(prog, "migrate_src_disk")
    ph.migrate_src_disk[0] = (ph.migrate_src_disk[0] + 1) % mplan.n
    cases.append(("rdp/via-raid4: migration reads the wrong source disk", mplan, prog))

    return cases


def _replace_first_fused(program, fn):
    """Rebuild ``program`` with ``fn`` applied to its first FusedPhase.

    The fused IR is frozen dataclasses, so this never mutates shared
    state — every corrupted variant is a fresh object graph.
    """
    phases = []
    done = False
    for ph in program.phases:
        if ph.fused is not None and not done:
            ph = dataclasses.replace(ph, fused=fn(ph.fused))
            done = True
        phases.append(ph)
    if not done:
        raise AssertionError("program has no fused phase to corrupt")
    return replace(program, phases=tuple(phases))


def mutated_fused_programs() -> list[tuple[str, object, object]]:
    """(description, plan, program-with-corrupted-fused-IR) triples.

    Each variant is a lowering bug the fused executor would happily run
    — wrong bytes or wrong counters with no crash — so SC-D006 is the
    only line of defence and must catch every one.
    """
    from repro.compiled.compiler import compile_plan
    from repro.migration.approaches import build_plan

    # groups past the alignment cycle so stride terms exist
    plan = build_plan("code56", "direct", 5, groups=8)
    base = compile_plan(plan, use_cache=False)
    cases: list[tuple[str, object, object]] = []

    def shift(fz):
        ops = list(fz.ops)
        for i, op in enumerate(ops):
            for j, t in enumerate(op.terms):
                if t.kind == "stride":
                    terms = list(op.terms)
                    terms[j] = dataclasses.replace(t, start=t.start + 1)
                    ops[i] = dataclasses.replace(op, terms=tuple(terms))
                    return dataclasses.replace(fz, ops=tuple(ops))
        raise AssertionError("no stride term")

    cases.append(
        ("code56/direct: fused stride operand shifted one block", plan,
         _replace_first_fused(base, shift))
    )

    def drop(fz):
        ops = list(fz.ops)
        ops[0] = dataclasses.replace(ops[0], terms=ops[0].terms[1:])
        return dataclasses.replace(fz, ops=tuple(ops))

    cases.append(
        ("code56/direct: fused chain lost an XOR operand", plan,
         _replace_first_fused(base, drop))
    )

    def credit(fz):
        rc = fz.read_credit.copy()
        rc[0] += 1
        return dataclasses.replace(fz, read_credit=rc)

    cases.append(
        ("code56/direct: fused read credit drifts from counted I/O", plan,
         _replace_first_fused(base, credit))
    )
    return cases


def crash_recovery_checks() -> list[tuple[str, bool]]:
    """Plant stale checkpoints; demand detection plus re-execution.

    A committed journal unit whose bytes no longer match its digest, or
    an online watermark mark with no parity behind it, must be rolled
    back / unmarked and re-executed — never trusted.  Each drill returns
    ``(description, recovered)`` where ``recovered`` requires both the
    detection *and* byte-level reconvergence with an untampered run, so
    a recovery path that silently trusts (or silently diverges) fails.
    """
    from repro.faults import (
        ConversionJournal,
        FaultPlane,
        FaultScenario,
        OnlineJournal,
        execute_checkpointed,
    )
    from repro.migration.approaches import build_plan
    from repro.migration.engine import prepare_source_array
    from repro.migration.online import OnlineCode56Conversion

    checks: list[tuple[str, bool]] = []
    plan = build_plan("code56", "direct", 5, groups=2)

    array, data = prepare_source_array(plan, np.random.default_rng(11), block_size=8)
    journal = ConversionJournal()
    execute_checkpointed(plan, array, data, journal)
    reference = array.snapshot()

    # control: with the journal intact, resume skips every unit
    rerun = execute_checkpointed(plan, array, data, journal)
    control = rerun.stale_detected == 0 and rerun.units_executed == 0

    # flip one byte a committed unit wrote; its digest is now a lie
    rec = next(r for r in journal.records.values() if r.state == "committed")
    payloads = array.gather_raw(rec.disks, rec.blocks)
    payloads[0, 0] ^= 0xFF
    array.restore_blocks(rec.disks, rec.blocks, payloads)
    resumed = execute_checkpointed(plan, array, data, journal)
    recovered = (
        control
        and resumed.stale_detected >= 1
        and resumed.rollbacks >= 1
        and bool(np.array_equal(array.snapshot(), reference))
    )
    checks.append(("offline: tampered committed checkpoint re-executed", recovered))

    # online: a mark with no parity bytes behind it must be dropped
    array, _data = prepare_source_array(plan, np.random.default_rng(11), block_size=8)
    plane = FaultPlane(FaultScenario())
    plane.attach(array)
    journal = OnlineJournal(plan.groups, 4)
    journal.mark(0, 0)  # claims a diagonal parity that was never generated
    conv = OnlineCode56Conversion(array, 5, journal=journal)
    dropped = (
        not journal.is_marked(0, 0)
        and plane.counters["stale_checkpoints"] >= 1
    )
    conv.run([])
    plane.detach()
    checks.append(
        ("online: stale watermark mark dropped and parity regenerated",
         dropped and conv.verify())
    )
    return checks


def run_selftest() -> tuple[int, list[Finding]]:
    """Every seeded fault must be detected; each miss is an SC-S001."""
    from repro.staticcheck.dataflow import analyze_fused, analyze_program
    from repro.staticcheck.prover import prove_code

    findings: list[Finding] = []
    checks = 0

    for name, broken in mutated_layouts(p=5):
        checks += 1
        _c, caught = prove_code(name, 5, layout=broken)
        if not caught:
            findings.append(
                Finding(
                    analyzer="selftest",
                    rule="SC-S001",
                    location=f"{name}@p=5",
                    message=(
                        "prover missed a seeded fault: one member dropped from a "
                        "parity chain went undetected — the MDS proof is vacuous"
                    ),
                )
            )

    for description, plan, program in mutated_programs():
        checks += 1
        _c, caught = analyze_program(plan, program)
        if not caught:
            findings.append(
                Finding(
                    analyzer="selftest",
                    rule="SC-S001",
                    location=description,
                    message=(
                        "dataflow analyzer missed a seeded fault: a corrupted "
                        "compiled index program went undetected"
                    ),
                )
            )

    for description, plan, program in mutated_fused_programs():
        checks += 1
        _c, caught = analyze_fused(plan, program)
        if not caught:
            findings.append(
                Finding(
                    analyzer="selftest",
                    rule="SC-S001",
                    location=description,
                    message=(
                        "dataflow analyzer missed a seeded fault: a corrupted "
                        "fused region-op lowering went undetected (SC-D006 is "
                        "vacuous)"
                    ),
                )
            )

    for description, recovered in crash_recovery_checks():
        checks += 1
        if not recovered:
            findings.append(
                Finding(
                    analyzer="selftest",
                    rule="SC-S001",
                    location=description,
                    message=(
                        "recovery drill failed: a deliberately stale checkpoint "
                        "was trusted (or resume diverged) instead of being "
                        "detected and re-executed"
                    ),
                )
            )
    return checks, findings
