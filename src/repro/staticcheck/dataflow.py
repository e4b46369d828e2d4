"""Def/use dataflow analysis of conversion plans and compiled programs.

The audited engine executes group work strictly in ``(phase, group)``
order; the compiled executor batches whole phases.  Both are only
correct if the plan's reads and writes admit that schedule — which this
module verifies *statically*, from the plan alone, independently of the
compiler's own hazard pass (:func:`repro.compiled.compiler._check_hazards`
guards compilation; this analyzer is the checker that would catch a bug
in either the planners or that guard).

Obligations, per phase (phases are hard barriers — a phase-``k`` read of
a location written in phase ``k-1`` is always correctly sequenced):

* **SC-D001** write-once: no physical block is written twice in a phase
  (a second write would make the result depend on group scheduling);
* **SC-D002** read sequencing: every read observes either pre-phase
  state or the one write the engine order puts before it — migration
  sources must not be clobbered by earlier groups, stripe-assembly reads
  must not race later-group migrations/NULLs/trims or earlier-group
  parity writes, and reused-parity audit reads must see untouched blocks;
* **SC-D003** parity coverage: every physical parity cell of the target
  code is established (freshly written, migrated in, or NULL) or audited
  in place, and every chain a group encodes has all its real members
  available in controller memory;
* **SC-D004** address-map sanity: ``cell_locations`` is injective and in
  bounds — two stripe cells sharing a physical block can never verify;
* **SC-D005** program fidelity: the compiled index program performs
  exactly the plan's operation multiset (nothing dropped, duplicated,
  or retargeted) with every index in bounds and cell roles preserved;
* **SC-D006** fusion fidelity: each phase's fused region ops (the
  kernel-backend lowering) expand — term by term, ``ref`` chains
  resolved transitively — to exactly the multiset of physical source
  blocks that a symbolic replay of the unfused stripe-tensor path
  (assembly from the read/fill vectors, then the stock chain-walk
  encode) XORs into every parity/check output, with ``parity_src`` /
  ``check_src`` addressing the scratch rows the cell vectors name and
  ``read_credit`` equal to the classic path's counted read traffic.

Separately, :func:`check_online_lost_writes` drives the *online*
converter (Algorithm 2) through every (write-address, conversion-
progress) interleaving at a small size and verifies no write is lost
and no parity left stale — the lost-write-window check.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import TYPE_CHECKING

import numpy as np

from repro.codes.geometry import CodeLayout
from repro.migration.plan import ConversionPlan, GroupWork, Location
from repro.staticcheck.report import Finding

if TYPE_CHECKING:  # runtime imports stay lazy (analyzer convention)
    from repro.compiled.program import CompiledPlan

__all__ = [
    "analyze_plan",
    "analyze_program",
    "analyze_fused",
    "analyze_conversion",
    "check_online_lost_writes",
    "run_dataflow",
]

# write kinds in engine order within a group (mirrors the executor)
_MIGRATE, _NULL, _TRIM, _PARITY = range(4)
_KIND_NAME = {_MIGRATE: "migrate", _NULL: "null", _TRIM: "trim", _PARITY: "parity"}


def _label(plan: ConversionPlan) -> str:
    return f"{plan.code.name}/{plan.approach}@p={plan.p}"


def _flat(loc: Location, bpd: int) -> int:
    return loc.disk * bpd + loc.block


def _fill_cells(plan: ConversionPlan, gw: GroupWork) -> list[tuple[tuple[int, int], Location]]:
    """Data cells the engine pulls uncounted into the stripe buffer (step 5)."""
    layout = plan.code.layout
    touched = set(gw.parity_writes) | set(gw.null_writes) | gw.null_cells | set(gw.reads)
    out: list[tuple[tuple[int, int], Location]] = []
    for cell in layout.data_cells:
        if cell in touched or cell in gw.migrates:
            continue
        loc = plan.cell_locations.get((gw.group, cell))
        if loc is not None:
            out.append((cell, loc))
    return out


def _audit_cells(plan: ConversionPlan, gw: GroupWork) -> list[tuple[tuple[int, int], Location]]:
    """Reused parity cells the engine audits after encoding (step 7)."""
    layout = plan.code.layout
    out: list[tuple[tuple[int, int], Location]] = []
    for cell in layout.parity_cells:
        if cell in gw.parity_writes or cell in layout.virtual_cells:
            continue
        loc = plan.cell_locations.get((gw.group, cell))
        if loc is not None:
            out.append((cell, loc))
    return out


def analyze_plan(plan: ConversionPlan) -> tuple[int, list[Finding]]:
    """Discharge SC-D001..SC-D004 for one conversion plan."""
    layout = plan.code.layout
    bpd = plan.blocks_per_disk
    where = _label(plan)
    findings: list[Finding] = []
    checks = 0

    def flag(rule: str, message: str) -> None:
        findings.append(
            Finding(analyzer="dataflow", rule=rule, location=where, message=message)
        )

    # ---------------------------------------------- SC-D004: address map
    seen: dict[int, tuple[int, tuple[int, int]]] = {}
    for (g, cell), loc in plan.cell_locations.items():
        checks += 1
        if not (0 <= loc.disk < plan.n and 0 <= loc.block < bpd):
            flag(
                "SC-D004",
                f"cell {cell} of group {g} mapped out of bounds: "
                f"disk {loc.disk} block {loc.block} "
                f"(array is {plan.n} disks x {bpd} blocks)",
            )
            continue
        key = _flat(loc, bpd)
        if key in seen:
            og, ocell = seen[key]
            flag(
                "SC-D004",
                f"cells {ocell} (group {og}) and {cell} (group {g}) share "
                f"physical block disk {loc.disk} block {loc.block}",
            )
        else:
            seen[key] = (g, cell)

    # ------------------------------------------ per-phase def/use graph
    by_phase: dict[int, list[GroupWork]] = defaultdict(list)
    for gw in sorted(plan.group_works, key=lambda g: (g.phase, g.group)):
        by_phase[gw.phase].append(gw)

    for phase, gws in sorted(by_phase.items()):
        writes: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for gw in gws:
            for _src, dst, _rp, _wp in gw.migrates.values():
                writes[_flat(dst, bpd)].append((gw.group, _MIGRATE))
            for loc in gw.null_writes.values():
                writes[_flat(loc, bpd)].append((gw.group, _NULL))
            for loc in gw.trims:
                writes[_flat(loc, bpd)].append((gw.group, _TRIM))
            for loc in gw.parity_writes.values():
                writes[_flat(loc, bpd)].append((gw.group, _PARITY))

        # SC-D001: write-once per phase
        for key, entries in writes.items():
            checks += 1
            if len(entries) > 1:
                detail = ", ".join(
                    f"group {g} {_KIND_NAME[k]}" for g, k in entries
                )
                flag(
                    "SC-D001",
                    f"phase {phase}: disk {key // bpd} block {key % bpd} "
                    f"written {len(entries)} times ({detail})",
                )

        # SC-D002: every read is correctly sequenced under both schedules
        def read_hazard(key: int, g: int, mode: str) -> tuple[int, int] | None:
            for g_w, kind in writes.get(key, ()):
                if mode == "migration":
                    # engine: groups in order, migrates first within a
                    # group — any earlier write, or a same-group migrate
                    # (gather/scatter batching), clobbers the source
                    if g_w < g or (g_w == g and kind == _MIGRATE):
                        return g_w, kind
                elif mode == "stripe":
                    # stripe assembly reads happen after all earlier
                    # groups' work and before this group's parity write
                    if kind == _PARITY:
                        if g_w < g:
                            return g_w, kind
                    elif g_w > g:
                        return g_w, kind
                else:  # audit: must observe pre-phase content
                    return g_w, kind
            return None

        for gw in gws:
            for cell, (src, _dst, _rp, _wp) in gw.migrates.items():
                checks += 1
                hz = read_hazard(_flat(src, bpd), gw.group, "migration")
                if hz is not None:
                    flag(
                        "SC-D002",
                        f"phase {phase}: migration source of cell {cell} "
                        f"(group {gw.group}, disk {src.disk} block {src.block}) is "
                        f"overwritten by group {hz[0]} {_KIND_NAME[hz[1]]}",
                    )
            stripe_reads = list(gw.reads.items()) + _fill_cells(plan, gw)
            for cell, loc in stripe_reads:
                checks += 1
                hz = read_hazard(_flat(loc, bpd), gw.group, "stripe")
                if hz is not None:
                    flag(
                        "SC-D002",
                        f"phase {phase}: stripe read of cell {cell} "
                        f"(group {gw.group}, disk {loc.disk} block {loc.block}) races "
                        f"group {hz[0]} {_KIND_NAME[hz[1]]}",
                    )
            for cell, loc in _audit_cells(plan, gw):
                if not gw.parity_writes:
                    continue  # group encodes nothing; no audit happens
                checks += 1
                hz = read_hazard(_flat(loc, bpd), gw.group, "audit")
                if hz is not None:
                    flag(
                        "SC-D002",
                        f"phase {phase}: reused-parity audit of cell {cell} "
                        f"(group {gw.group}) reads disk {loc.disk} block {loc.block} "
                        f"which group {hz[0]} {_KIND_NAME[hz[1]]}-writes in the phase",
                    )

    # ---------------------------------- SC-D003: parity coverage per group
    gws_of_group: dict[int, list[GroupWork]] = defaultdict(list)
    for gw in plan.group_works:
        gws_of_group[gw.group].append(gw)

    real_parities = [
        cell for cell in layout.parity_cells if cell not in layout.virtual_cells
    ]
    for g, gws in sorted(gws_of_group.items()):
        audited = any(gw.parity_writes for gw in gws)
        for pc in real_parities:
            if (g, pc) not in plan.cell_locations:
                continue
            checks += 1
            established = any(
                pc in gw.parity_writes
                or pc in gw.migrates
                or pc in gw.null_writes
                or pc in gw.null_cells
                for gw in gws
            )
            if not established and not audited:
                flag(
                    "SC-D003",
                    f"parity cell {pc} of group {g} is never generated, migrated, "
                    "nulled, nor audited — its content is unconstrained",
                )
        # member availability for every chain the group encodes
        for gw in gws:
            if not gw.parity_writes:
                checks += 1
                if gw.reads:
                    flag(
                        "SC-D003",
                        f"group {gw.group} (phase {gw.phase}) plans {len(gw.reads)} "
                        "read(s) but encodes nothing — the engine never performs "
                        "them, so op accounting would diverge from execution",
                    )
                continue
            available = (
                set(gw.reads)
                | set(gw.migrates)
                | set(gw.null_writes)
                | gw.null_cells
                | layout.virtual_cells
                | layout.parity_cells  # computed in encode_order
            )
            for chain in layout.chains:
                if chain.parity in layout.virtual_cells:
                    continue
                for member in chain.members:
                    checks += 1
                    if member in available:
                        continue
                    if (gw.group, member) in plan.cell_locations:
                        continue  # engine step 5 fills it uncounted
                    flag(
                        "SC-D003",
                        f"group {gw.group} encodes parity {chain.parity} but member "
                        f"{member} is neither read, migrated, NULL, nor addressable",
                    )
    return checks, findings


def _index_multisets(
    plan: ConversionPlan, gws: list[GroupWork]
) -> dict[str, Counter[tuple[int, ...]]]:
    """The operation multisets one phase of the engine performs."""
    expect: dict[str, Counter[tuple[int, ...]]] = {
        k: Counter()
        for k in ("migrate", "null", "trim", "read", "fill", "parity", "check")
    }
    for gw in gws:
        for src, dst, _rp, _wp in gw.migrates.values():
            expect["migrate"][(src.disk, src.block, dst.disk, dst.block)] += 1
        for loc in gw.null_writes.values():
            expect["null"][(loc.disk, loc.block)] += 1
        for loc in gw.trims:
            expect["trim"][(loc.disk, loc.block)] += 1
        if gw.parity_writes:
            for _cell, loc in gw.reads.items():
                expect["read"][(loc.disk, loc.block)] += 1
            for _cell, loc in _fill_cells(plan, gw):
                expect["fill"][(loc.disk, loc.block)] += 1
            for _cell, loc in gw.parity_writes.items():
                expect["parity"][(loc.disk, loc.block)] += 1
            for _cell, loc in _audit_cells(plan, gw):
                expect["check"][(loc.disk, loc.block)] += 1
    return expect


def analyze_program(
    plan: ConversionPlan, program: CompiledPlan
) -> tuple[int, list[Finding]]:
    """SC-D005: the compiled program is the plan, exactly.

    Cross-validates every index vector of every :class:`PhaseProgram`
    against the operation multisets derived from the plan, checks all
    indices stay in bounds, and checks scatter/gather cell slots land on
    cells of the right kind.
    """
    layout: CodeLayout = plan.code.layout
    rows, cols = layout.rows, layout.cols
    bpd = plan.blocks_per_disk
    where = _label(plan)
    findings: list[Finding] = []
    checks = 0

    def flag(message: str) -> None:
        findings.append(
            Finding(analyzer="dataflow", rule="SC-D005", location=where, message=message)
        )

    checks += 1
    if program.n_disks != plan.n or program.blocks_per_disk != bpd:
        flag(
            f"program geometry ({program.n_disks} disks x {program.blocks_per_disk}) "
            f"differs from plan ({plan.n} x {bpd})"
        )
        return checks, findings

    by_phase: dict[int, list[GroupWork]] = defaultdict(list)
    for gw in sorted(plan.group_works, key=lambda g: (g.phase, g.group)):
        by_phase[gw.phase].append(gw)

    checks += 1
    if tuple(ph.phase for ph in program.phases) != tuple(sorted(by_phase)):
        flag(
            f"program phases {[ph.phase for ph in program.phases]} != "
            f"plan phases {sorted(by_phase)}"
        )
        return checks, findings

    vectors = {
        "migrate": ("migrate_src_disk", "migrate_src_block", "migrate_dst_disk", "migrate_dst_block"),
        "null": ("null_disk", "null_block"),
        "trim": ("trim_disk", "trim_block"),
        "read": ("read_disk", "read_block"),
        "fill": ("fill_disk", "fill_block"),
        "parity": ("parity_disk", "parity_block"),
        "check": ("check_disk", "check_block"),
    }
    cell_vectors = {
        "read": ("read_cell", "read_disk"),
        "fill": ("fill_cell", "fill_disk"),
        "parity": ("parity_cell", "parity_disk"),
        "check": ("check_cell", "check_disk"),
    }

    for ph in program.phases:
        gws = by_phase[ph.phase]
        expect = _index_multisets(plan, gws)
        encode_groups = sum(1 for gw in gws if gw.parity_writes)
        checks += 1
        if ph.batch != encode_groups:
            flag(
                f"phase {ph.phase}: batch={ph.batch} but the plan encodes "
                f"{encode_groups} group(s)"
            )
        for op, names in vectors.items():
            arrays = [getattr(ph, name) for name in names]
            checks += 1
            got: Counter[tuple[int, ...]] = (
                Counter(zip(*(a.tolist() for a in arrays)))
                if arrays[0].size
                else Counter()
            )
            if got != expect[op]:
                missing = expect[op] - got
                extra = got - expect[op]
                flag(
                    f"phase {ph.phase}: {op} ops diverge from the plan "
                    f"(missing {sorted(missing.elements())[:4]}, "
                    f"extra {sorted(extra.elements())[:4]})"
                )
            # bounds: disks and blocks address the physical array
            for name, arr in zip(names, arrays):
                checks += 1
                if arr.size == 0:
                    continue
                limit = plan.n if name.endswith("disk") else bpd
                if int(arr.min()) < 0 or int(arr.max()) >= limit:
                    flag(
                        f"phase {ph.phase}: {name} index out of bounds "
                        f"[{int(arr.min())}, {int(arr.max())}] vs limit {limit}"
                    )

        stripe_cells = rows * cols
        for op, (cell_name, _disk_name) in cell_vectors.items():
            cells = getattr(ph, cell_name)
            checks += 1
            if cells.size == 0:
                continue
            if int(cells.min()) < 0 or int(cells.max()) >= ph.batch * stripe_cells:
                flag(
                    f"phase {ph.phase}: {cell_name} outside the "
                    f"{ph.batch}-stripe buffer"
                )
                continue
            rc = np.stack(
                [(cells % stripe_cells) // cols, (cells % stripe_cells) % cols], axis=1
            )
            for r, c in map(tuple, rc.tolist()):
                cell = (int(r), int(c))
                ok = (
                    cell in layout.parity_cells
                    if op in ("parity", "check")
                    else cell not in layout.virtual_cells
                )
                if not ok:
                    flag(
                        f"phase {ph.phase}: {cell_name} targets {cell}, which is "
                        + ("not a parity cell" if op in ("parity", "check") else "virtual")
                    )
                    break
    return checks, findings


def analyze_fused(
    plan: ConversionPlan, program: CompiledPlan
) -> tuple[int, list[Finding]]:
    """SC-D006: the fused region ops *are* the stripe-tensor encode.

    The lowering pass (:func:`repro.compiled.compiler.lower_program`)
    replays the encode symbolically to build each phase's
    :class:`~repro.compiled.program.FusedPhase`.  This checker validates
    that IR independently: it expands every region op back to per-slot
    multisets of flat physical block ids (``stride`` / ``const`` /
    ``gather`` terms from their address arithmetic, ``sparse`` rows from
    their scatter lists, ``ref`` terms by substituting the referenced
    chain's own expansion) and compares them against the multisets a
    symbolic replay of the *unfused* program produces — stripe assembly
    from the read/fill index vectors, then the stock chain-walk encode
    over ``layout.encode_order``.  A lowering bug that drops, duplicates
    or retargets even one block of one slot breaks multiset equality.

    Also discharged per fused phase: ``parity_src`` / ``check_src``
    address exactly the (chain, slot) scratch rows the program's cell
    vectors name, every expanded block id is in bounds, ``ref`` terms
    only point at already-computed chains, and ``read_credit`` equals
    ``bincount(read_disk)`` — the counted traffic the classic path
    would have performed.
    """
    layout: CodeLayout = plan.code.layout
    rows, cols = layout.rows, layout.cols
    cps = rows * cols
    bpd = plan.blocks_per_disk
    n_blocks = plan.n * bpd
    where = _label(plan)
    findings: list[Finding] = []
    checks = 0

    def flag(message: str) -> None:
        findings.append(
            Finding(analyzer="dataflow", rule="SC-D006", location=where, message=message)
        )

    for ph in program.phases:
        fz = ph.fused
        if fz is None:
            continue  # no parity work (compile_plan refuses unlowered parity)
        checks += 1
        if fz.batch != ph.batch:
            flag(f"phase {ph.phase}: fused batch {fz.batch} != program batch {ph.batch}")
            continue
        batch = ph.batch

        # ---- reference: symbolic stripe assembly + chain-walk encode
        src: dict[tuple[int, int], int] = {}  # (slot, template cell) -> block id
        for cell_v, disk_v, block_v in (
            (ph.read_cell, ph.read_disk, ph.read_block),
            (ph.fill_cell, ph.fill_disk, ph.fill_block),
        ):
            for cell, d, b in zip(cell_v.tolist(), disk_v.tolist(), block_v.tolist()):
                src[(cell // cps, cell % cps)] = d * bpd + b
        ref_exp: dict[tuple[int, tuple[int, int]], Counter[int]] = {}
        for chain in layout.encode_order:
            if chain.parity in layout.virtual_cells:
                continue
            for slot in range(batch):
                acc: Counter[int] = Counter()
                for m in chain.members:
                    if m in layout.virtual_cells:
                        continue
                    if m in layout.parity_cells:
                        acc.update(ref_exp[(slot, m)])
                    else:
                        blk = src.get((slot, m[0] * cols + m[1]))
                        if blk is not None:
                            acc[blk] += 1
                ref_exp[(slot, chain.parity)] = acc

        # ---- independent expansion of the fused region ops
        fz_exp: dict[tuple[int, int], Counter[int]] = {}  # (slot, chain_index) -> Counter
        parity_of: dict[int, tuple[int, int]] = {}
        for op in fz.ops:
            checks += 1
            if op.chain_index in parity_of:
                flag(f"phase {ph.phase}: chain index {op.chain_index} appears twice")
                continue
            parity_of[op.chain_index] = op.parity
            broken = False
            for slot in range(batch):
                acc = Counter()
                for t in op.terms:
                    if t.kind == "stride":
                        acc[t.start + slot * t.step] += 1
                    elif t.kind == "const":
                        acc[t.start] += 1
                    elif t.kind == "gather":
                        acc[int(t.indices[slot])] += 1
                    elif t.kind == "ref":
                        prev = fz_exp.get((slot, t.ref))
                        if prev is None:
                            flag(
                                f"phase {ph.phase}: chain {op.chain_index} references "
                                f"chain {t.ref}, which is not computed before it"
                            )
                            broken = True
                            break
                        acc.update(prev)
                    else:
                        flag(f"phase {ph.phase}: unknown term kind {t.kind!r}")
                        broken = True
                        break
                if broken:
                    break
                for sp in op.sparse:
                    for j in np.flatnonzero(sp.rows == slot):
                        acc[int(sp.indices[j])] += 1
                bad = [b for b in acc if not 0 <= b < n_blocks]
                if bad:
                    flag(
                        f"phase {ph.phase}: chain {op.chain_index} slot {slot} "
                        f"sources out-of-bounds block id(s) {sorted(bad)[:4]}"
                    )
                    broken = True
                    break
                fz_exp[(slot, op.chain_index)] = acc
            if broken:
                parity_of.pop(op.chain_index, None)

        # ---- outputs: scratch-row mapping + multiset equality
        for name, cell_v, src_rows in (
            ("parity", ph.parity_cell, fz.parity_src),
            ("check", ph.check_cell, fz.check_src),
        ):
            checks += 1
            if src_rows.shape[0] != cell_v.shape[0]:
                flag(
                    f"phase {ph.phase}: {name}_src has {src_rows.shape[0]} rows "
                    f"for {cell_v.shape[0]} {name} cells"
                )
                continue
            for i in range(cell_v.size):
                checks += 1
                slot, tmpl = divmod(int(cell_v[i]), cps)
                cell = (tmpl // cols, tmpl % cols)
                ci, row_slot = divmod(int(src_rows[i]), batch)
                if row_slot != slot or parity_of.get(ci) != cell:
                    flag(
                        f"phase {ph.phase}: {name}_src[{i}] addresses chain "
                        f"{parity_of.get(ci)} slot {row_slot}, but the program's "
                        f"{name} cell is {cell} slot {slot}"
                    )
                    continue
                got = fz_exp.get((slot, ci))
                want = ref_exp.get((slot, cell))
                if got != want:
                    missing = (want or Counter()) - (got or Counter())
                    extra = (got or Counter()) - (want or Counter())
                    flag(
                        f"phase {ph.phase}: fused {name} {cell} slot {slot} XORs "
                        f"the wrong blocks (missing {sorted(missing.elements())[:4]}, "
                        f"extra {sorted(extra.elements())[:4]})"
                    )

        # ---- counter fidelity of the bypassed read path
        checks += 1
        expect_credit = np.bincount(ph.read_disk, minlength=plan.n)
        if fz.read_credit.shape != expect_credit.shape or not np.array_equal(
            fz.read_credit, expect_credit
        ):
            flag(
                f"phase {ph.phase}: read_credit {fz.read_credit.tolist()} != "
                f"counted stripe reads {expect_credit.tolist()} — fused I/O "
                "accounting would drift from the audited engine"
            )
    return checks, findings


def analyze_conversion(
    code_name: str, approach: str, p: int, groups: int | None = None
) -> tuple[int, list[Finding]]:
    """Build the (code, approach, p) plan + program and analyze all three
    layers: the plan (SC-D001..4), the index program (SC-D005), and the
    fused region-op lowering (SC-D006)."""
    from repro.compiled.compiler import compile_plan
    from repro.migration.approaches import alignment_cycle, build_plan

    if groups is None:
        groups = alignment_cycle(code_name, p, None)
    plan = build_plan(code_name, approach, p, groups=groups)
    program = compile_plan(plan)
    checks, findings = analyze_plan(plan)
    c2, f2 = analyze_program(plan, program)
    c3, f3 = analyze_fused(plan, program)
    return checks + c2 + c3, findings + f2 + f3


def check_online_lost_writes(
    p: int = 5, groups: int = 2, block_size: int = 4
) -> tuple[int, list[Finding]]:
    """Exhaustive lost-write-window check on the online converter.

    For every logical block address and every conversion-progress
    boundary (the write arrives after exactly ``k`` diagonal parities
    are generated, ``k = 1 .. total``), run Algorithm 2 with that single
    interleaving and verify (a) the final array is a consistent Code 5-6
    (no stale parity escaped the generated-bitmap gate) and (b) every
    logical block reads back as written (no lost write).  The sweep
    covers writes to converted and unconverted regions, both sides of
    each diagonal-parity boundary, and every (row, disk) geometry class.
    """
    from repro.raid.array import BlockArray
    from repro.raid.raid5 import Raid5Array
    from repro.migration.online import OnlineCode56Conversion, OnlineRequest
    from repro.raid.layouts import Raid5Layout

    m = p - 1
    rows = p - 1
    total = groups * rows
    per_parity = p - 1  # (p-2) chain reads + 1 parity write
    where = f"online-code56@p={p},groups={groups}"
    findings: list[Finding] = []
    checks = 0

    base = np.arange(groups * rows * (m - 1) * block_size, dtype=np.uint8)
    data = (base.reshape(-1, block_size) * 3 + 1).astype(np.uint8)
    capacity = data.shape[0]
    payload = np.full(block_size, 0xA5, dtype=np.uint8)

    for lba in range(capacity):
        for k in range(1, total + 1):
            checks += 1
            array = BlockArray(m, groups * rows, block_size=block_size)
            r5 = Raid5Array(array, Raid5Layout.LEFT_ASYMMETRIC)
            r5.format_with(data.copy())
            array.add_disk()
            conv = OnlineCode56Conversion(array, p)
            req = OnlineRequest(
                time=float(k * per_parity), lba=lba, is_write=True, payload=payload
            )
            conv.run([req])
            stale = not conv.verify()
            readback = Raid5Array(
                array, Raid5Layout.LEFT_ASYMMETRIC, n_disks=m
            )
            lost = [
                other
                for other in range(capacity)
                if not np.array_equal(
                    readback.read(other),
                    payload if other == lba else data[other],
                )
            ]
            if stale or lost:
                what = []
                if stale:
                    what.append("a parity is stale (lost update window)")
                if lost:
                    what.append(f"block(s) {lost[:4]} corrupted")
                findings.append(
                    Finding(
                        analyzer="dataflow",
                        rule="SC-D010",
                        location=where,
                        message=(
                            f"write to lba {lba} interleaved after {k} generated "
                            f"parities: " + "; ".join(what)
                        ),
                    )
                )
    return checks, findings


def run_dataflow(primes: tuple[int, ...] = (5, 7)) -> tuple[int, list[Finding]]:
    """All 11 (code, approach) pairs at each prime, plus the online check."""
    from repro.migration.approaches import supported_conversions

    checks = 0
    findings: list[Finding] = []
    for code_name, approach in supported_conversions():
        for p in primes:
            c, f = analyze_conversion(code_name, approach, p)
            checks += c
            findings.extend(f)
    c, f = check_online_lost_writes()
    checks += c
    findings.extend(f)
    return checks, findings
