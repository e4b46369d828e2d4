"""Exhaustive small-scope interleaving model checker for Algorithm 2.

The online converter (:class:`repro.migration.online.
OnlineCode56Conversion`) exposes its protocol as explicit transitions —
``generate_run_step`` / ``mark_run_step`` / ``serve_request`` plus the
journal flush and crash windows between them.  This module drives those
transitions through **every** interleaving at a small scope (the
small-scope hypothesis: protocol bugs show up at p=5 with one or two
in-flight writes) via depth-first search with state hashing and
sleep-set partial-order reduction, checking four machine-readable
safety invariants at every reachable state:

* **SC-C001 — no lost write**: every applied write's logical data block
  holds exactly its payload; every untouched block holds the initial
  image.
* **SC-C002 — watermark soundness**: at every *post-crash, pre-resume*
  state, every journal-marked diagonal parity's bytes equal its chain
  XOR.  A healthy torn crash leaves the in-flight parity *unmarked*
  (write-ahead ordering), so a marked-but-stale entry can only come
  from a protocol that journals before the bytes land.
* **SC-C003 — resume idempotence**: from every reachable state, draining
  normally and crash-resuming-then-draining produce byte-identical,
  fully verified final arrays (any crash prefix is recoverable).
* **SC-C004 — parity-chain consistency**: at every state, every
  horizontal (RAID-5) parity equals the XOR of its row, and every
  *generated* diagonal parity equals its chain XOR.

Transition alphabet, the same at every run budget (``batch``; 1 is the
paper's per-parity interleave).  The conversion step is split at the
run/mark boundary, so the in-flight window — parity bytes landed, group
commit pending — is an explicit reachable state that application writes
interleave into (exercising the converter's vectorized overlap check):

* ``GEN`` — :meth:`generate_run_step`: claim and write a run of up to
  ``batch`` parities (the fused lowering for runs of two or more on
  these healthy model arrays, the audited loop for one);
* ``MARK`` — :meth:`mark_run_step`: the single group-commit flush;
* ``CRASH-WINDOW`` — crash *inside* the window: the run's bytes stand,
  every mark of the run is lost, reboot and resume (a clean crash
  before the commit is ``GEN`` followed by this);
* ``CRASH-TORN`` — generate a run, its last parity write tears
  mid-block (half old bytes, half new), crash before the commit;
* ``WRITE i`` — serve application write ``i`` (Algorithm 2 interrupt).

Fleet scenarios add the self-healing service's transitions
(:mod:`repro.fleet`), so the breaker pause and the hot-spare rebuild are
*proved*, not just soak-tested:

* ``PAUSE`` (``pauses > 0``) — the QoS circuit breaker trips between
  steps: the in-memory converter is discarded and a fresh one resumes
  from the journal watermark (the fleet's backoff/resume edge — exactly
  a crash-resume without the crash, so every watermark obligation
  carries over);
* ``FAIL`` (``spare=True``) — data disk ``fail_disk`` dies; conversion
  and application writes continue degraded (reconstruct-on-read,
  reconstruct-writes through the parities);
* ``SPARE`` — a hot spare is attached: the failed column is rebuilt by
  row XOR through the still-maintained horizontal parity, and the
  converter re-instantiates from the journal (the fleet's post-rebuild
  resume).

While the disk is failed, SC-C001 checks the failed column *through
reconstruction* (the write-path invariant that makes the rebuild
correct), SC-C004's horizontal check is skipped (with one column
erased it is definitionally satisfiable — reconstruction and the check
would be the same XOR), and chain XORs reconstruct failed cells.

Partial-order reduction is sound here because the independent pairs
commute *by construction*: two writes to distinct LBAs touch disjoint
data blocks and XOR-patch parities (XOR commutes).  Only distinct-LBA
write pairs are treated as independent; ``GEN``/``MARK`` interact with
every write through the overlap window, and crash and fleet
transitions reshape the whole thread state, so all of those stay
dependent — conservative, hence still sound.  Sleep sets never remove
*states* from the exploration, only redundant transitions, so
per-state invariants keep their full coverage.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from repro.staticcheck.report import Finding

__all__ = [
    "ModelScenario",
    "ModelStats",
    "check_scenario",
    "model_scenarios",
    "run_model_check",
]

#: invariant rules discharged per state
RULES = ("SC-C001", "SC-C002", "SC-C003", "SC-C004")

#: cap on findings per scenario — one protocol bug floods every state it
#: reaches; a handful of witnesses is what a human needs
_MAX_FINDINGS_PER_SCENARIO = 8


@dataclass(frozen=True)
class ModelScenario:
    """One small-scope exploration: geometry plus an in-flight write set."""

    p: int
    groups: int
    lbas: tuple[int, ...]  # distinct LBAs, one write each
    block_size: int = 4
    max_crashes: int = 1
    #: evaluate SC-C003 at every state (else only at post-crash states)
    resume_everywhere: bool = True
    #: run budget the explorer hands to ``generate_run_step`` (1 is the
    #: per-parity interleave)
    batch: int = 1
    #: breaker pauses the explorer may interleave (each discards the
    #: in-memory converter and resumes from the journal watermark)
    pauses: int = 0
    #: enable the FAIL/SPARE pair: ``fail_disk`` may die at any point
    #: and a hot spare may be attached (row-XOR rebuild) at any later one
    spare: bool = False
    #: which data disk the FAIL transition kills (must be < p-1)
    fail_disk: int = 0

    @property
    def label(self) -> str:
        suffix = f",batch={self.batch}" if self.batch != 1 else ""
        if self.pauses:
            suffix += f",pauses={self.pauses}"
        if self.spare:
            suffix += f",spare(d{self.fail_disk})"
        return (
            f"online-code56@p={self.p},groups={self.groups},"
            f"writes={list(self.lbas)}{suffix}"
        )


@dataclass
class ModelStats:
    """Exploration size counters (reported via the obs registry)."""

    scenarios: int = 0
    states: int = 0
    transitions: int = 0
    checks: int = 0

    def merge(self, other: "ModelStats") -> None:
        self.scenarios += other.scenarios
        self.states += other.states
        self.transitions += other.transitions
        self.checks += other.checks


def _initial_data(capacity: int, block_size: int) -> npt.NDArray[np.uint8]:
    base = np.arange(capacity * block_size, dtype=np.uint8)
    return (base.reshape(capacity, block_size) * 3 + 1).astype(np.uint8)


def _write_payload(i: int, block_size: int) -> npt.NDArray[np.uint8]:
    return np.full(block_size, (0xA5 + 0x11 * i) & 0xFF, dtype=np.uint8)


class _Explorer:
    """DFS over one scenario's interleaving graph."""

    def __init__(self, scenario: ModelScenario, converter_cls=None):
        from repro.faults.journal import OnlineJournal
        from repro.migration.online import OnlineCode56Conversion
        from repro.raid.array import BlockArray
        from repro.raid.layouts import Raid5Layout
        from repro.raid.raid5 import Raid5Array

        self.scenario = scenario
        self.converter_cls = converter_cls or OnlineCode56Conversion
        p, groups, bs = scenario.p, scenario.groups, scenario.block_size
        self.p, self.m, self.rows = p, p - 1, p - 1
        self.layout = Raid5Layout.LEFT_ASYMMETRIC
        capacity = groups * self.rows * (self.m - 1)
        if len(set(scenario.lbas)) != len(scenario.lbas):
            raise ValueError("scenario LBAs must be distinct (unordered writes)")
        if any(lba >= capacity for lba in scenario.lbas):
            raise ValueError(f"LBA out of range (capacity {capacity})")
        if scenario.spare and not 0 <= scenario.fail_disk < self.m:
            raise ValueError(
                f"fail_disk must name a data-array column (< {self.m})"
            )
        self.data = _initial_data(capacity, bs)
        self.payloads = [
            _write_payload(i, bs) for i in range(len(scenario.lbas))
        ]
        self.array = BlockArray(self.m, groups * self.rows, block_size=bs)
        Raid5Array(self.array, self.layout).format_with(self.data.copy())
        self.array.add_disk()
        self.journal = OnlineJournal(groups, self.rows)
        self.conv = self.converter_cls(self.array, p, journal=self.journal)
        self.applied: frozenset[int] = frozenset()
        self.crashes = 0
        self.pauses_done = 0
        self.failed = False
        self.findings: list[Finding] = []
        self.stats = ModelStats(scenarios=1)
        #: state hash -> sleep sets already explored from it
        self._memo: dict[bytes, list[frozenset]] = {}

    # ----------------------------------------------------- state plumbing
    def _capture(self):
        return (
            self.array.snapshot(),
            self.journal.marked(),
            self.conv.thread_state(),
            self.applied,
            self.crashes,
            self.pauses_done,
            self.array.failed_disks,
        )

    def _restore(self, state) -> None:
        arr, marks, thread, applied, crashes, pauses_done, failed = state
        self.array.restore(arr)
        self.journal.restore_marks(marks)
        self.conv.restore_thread_state(thread)
        self.applied = applied
        self.crashes = crashes
        self.pauses_done = pauses_done
        # snapshot/restore cover bytes only; failure state is explorer
        # bookkeeping (BlockArray has no public "un-replace" — this is
        # state rollback, not a modelled transition)
        self.array._failed = frozenset(failed)
        self.failed = self.scenario.fail_disk in failed if self.scenario.spare else False

    def _hash(self) -> bytes:
        cursor, generated, run = self.conv.thread_state()
        h = hashlib.sha256()
        h.update(self.array.snapshot().tobytes())
        h.update(self.journal.marked().tobytes())
        h.update(cursor.to_bytes(4, "little"))
        h.update(generated.tobytes())
        h.update(repr(run).encode())
        mask = 0
        for i in self.applied:
            mask |= 1 << i
        h.update(mask.to_bytes(4, "little"))
        h.update(self.crashes.to_bytes(2, "little"))
        h.update(bytes([self.pauses_done, 1 if self.failed else 0]))
        return h.digest()

    # ------------------------------------------------------- transitions
    def _enabled(self) -> list[tuple]:
        out: list[tuple] = []
        in_window = self.conv.in_flight_run is not None
        pending = not in_window and self.conv.pending_parity() is not None
        if in_window:
            out.append(("M",))
            if self.crashes < self.scenario.max_crashes:
                out.append(("K",))
        elif pending:
            out.append(("G",))
            if self.crashes < self.scenario.max_crashes:
                out.append(("KT",))
        if self.pauses_done < self.scenario.pauses and pending:
            # the fleet commits an in-flight run before pausing, so the
            # pause edge only exists between committed steps
            out.append(("P",))
        if self.scenario.spare:
            if not self.failed:
                out.append(("F",))
            elif not in_window:
                out.append(("S",))
        for i in range(len(self.payloads)):
            if i not in self.applied:
                out.append(("W", i))
        return out

    def _independent(self, a: tuple, b: tuple) -> bool:
        # only distinct-LBA writes commute; GEN/MARK interact with every
        # write through the in-flight overlap window, and crashes and the
        # fleet transitions reshape thread state, converter identity or
        # geometry (conservative, sound)
        return a[0] == "W" and b[0] == "W" and a[1] != b[1]

    def _serve_write(self, i: int) -> None:
        from repro.migration.online import OnlineReport, OnlineRequest

        lba = self.scenario.lbas[i]
        req = OnlineRequest(
            time=0.0, lba=lba, is_write=True, payload=self.payloads[i]
        )
        self.conv.serve_request(req, 0.0, OnlineReport())
        self.applied = self.applied | {i}

    def _apply(self, t: tuple) -> None:
        from repro.migration.online import OnlineReport

        self.stats.transitions += 1
        kind = t[0]
        if kind == "W":
            self._serve_write(t[1])
            return
        if kind == "G":
            self.conv.generate_run_step(OnlineReport(), budget=self.scenario.batch)
            return
        if kind == "M":
            self.conv.mark_run_step()
            return
        if kind == "K":
            # crash inside the group-commit window: the run's parity
            # bytes stand, its marks were never flushed, the thread dies
            self.crashes += 1
            self._check_watermark()
            self.conv = self.converter_cls(self.array, self.p, journal=self.journal)
            return
        if kind == "P":
            # breaker pause: the fleet discards the converter and later
            # resumes from the watermark — same recovery obligation as a
            # clean crash, minus the crash budget
            self.pauses_done += 1
            self.conv = self.converter_cls(self.array, self.p, journal=self.journal)
            return
        if kind == "F":
            self.failed = True
            self.array.fail_disk(self.scenario.fail_disk)
            return
        if kind == "S":
            self._attach_spare()
            return
        # KT: the run's parity writes land, the last one tears, the marks
        # are lost with the process, then reboot
        run = self.conv.pending_run(self.scenario.batch)
        assert run
        group, prow = run[-1]
        block = group * self.rows + prow
        pre = self.array.raw(self.m, block).copy()
        self.conv.generate_run_step(OnlineReport(), budget=self.scenario.batch)
        torn = self.array.raw(self.m, block).copy()
        half = torn.shape[0] // 2
        torn[half:] = pre[half:]
        self.array.restore_blocks([self.m], [block], torn[None, :])
        self.crashes += 1
        # the in-memory converter died with the crash; the journal and
        # the array survive.  Check SC-C002 on exactly that wreckage.
        self._check_watermark()
        self.conv = self.converter_cls(self.array, self.p, journal=self.journal)

    def _attach_spare(self) -> None:
        """SPARE: replace the failed column, rebuild it by row XOR.

        The rebuild writes through :meth:`~repro.raid.array.BlockArray.
        restore_blocks` (the out-of-band recovery scatter) and the
        converter re-instantiates from the journal — the fleet's
        post-rebuild resume (:meth:`repro.fleet.volume.FleetVolume.
        _rebuild_slice`).
        """
        disk = self.scenario.fail_disk
        self.array.replace_disk(disk)
        stripes = self.scenario.groups * self.rows
        for stripe in range(stripes):
            self.array.restore_blocks(
                [disk], [stripe], self._reconstruct(disk, stripe)[None, :]
            )
        self.failed = False
        self.conv = self.converter_cls(self.array, self.p, journal=self.journal)

    # -------------------------------------------------------- invariants
    def _flag(self, rule: str, message: str) -> None:
        if len(self.findings) >= _MAX_FINDINGS_PER_SCENARIO:
            return
        self.findings.append(
            Finding(
                analyzer="concur",
                rule=rule,
                location=self.scenario.label,
                message=message,
            )
        )

    def _truth(self, lba: int) -> npt.NDArray[np.uint8]:
        for i in self.applied:
            if self.scenario.lbas[i] == lba:
                return self.payloads[i]
        return self.data[lba]

    def _reconstruct(self, disk: int, block: int) -> npt.NDArray[np.uint8]:
        """Row-XOR reconstruction of one cell of a failed data column."""
        acc = np.zeros(self.scenario.block_size, dtype=np.uint8)
        for d in range(self.m):
            if d != disk:
                np.bitwise_xor(acc, self.array.raw(d, block), out=acc)
        return acc

    def _cell(self, disk: int, block: int) -> npt.NDArray[np.uint8]:
        """A cell's logical bytes: raw, or reconstructed while failed."""
        if self.failed and disk == self.scenario.fail_disk:
            return self._reconstruct(disk, block)
        return self.array.raw(disk, block)

    def _chain_xor(self, group: int, prow: int) -> npt.NDArray[np.uint8]:
        from repro.codes.code56 import diagonal_chain_cells

        acc = np.zeros(self.scenario.block_size, dtype=np.uint8)
        for r, c in diagonal_chain_cells(self.p, prow):
            np.bitwise_xor(
                acc, self._cell(c, group * self.rows + r), out=acc
            )
        return acc

    def _check_watermark(self) -> None:
        """SC-C002 at a post-crash, pre-resume state."""
        self.stats.checks += 1
        for group in range(self.scenario.groups):
            for row in range(self.rows):
                if not self.journal.is_marked(group, row):
                    continue
                expect = self._chain_xor(group, row)
                got = self.array.raw(self.m, group * self.rows + row)
                if not np.array_equal(got, expect):
                    self._flag(
                        "SC-C002",
                        f"after a crash, journal-marked diagonal parity "
                        f"(g{group}, r{row}) does not match its chain XOR — "
                        "the watermark ran ahead of the bytes (mark must "
                        "follow the parity write)",
                    )
                    return

    def _check_state(self, trail: str) -> None:
        """SC-C001 + SC-C004 at one reachable state."""
        from repro.raid.layouts import locate_block, parity_disk

        self.stats.checks += 1
        # SC-C001: every logical data block reads back as the truth
        # model — through row-XOR reconstruction for a failed column
        # (the invariant that makes the hot-spare rebuild correct)
        for lba in range(self.data.shape[0]):
            stripe, disk = locate_block(self.layout, lba, self.m)
            if not np.array_equal(self._cell(disk, stripe), self._truth(lba)):
                self._flag(
                    "SC-C001",
                    f"lost write: lba {lba} diverges from the applied-write "
                    f"truth model after [{trail}]",
                )
                break
        # SC-C004: horizontal parity of every stripe; generated diagonals.
        # Skipped while a column is erased: with one member missing the
        # row equation is the reconstruction definition itself (vacuous);
        # SC-C001 above carries the degraded-mode obligation instead.
        stripes = self.scenario.groups * self.rows
        if not self.failed:
            for stripe in range(stripes):
                pd = parity_disk(self.layout, stripe, self.m)
                acc = np.zeros(self.scenario.block_size, dtype=np.uint8)
                for d in range(self.m):
                    if d != pd:
                        np.bitwise_xor(acc, self.array.raw(d, stripe), out=acc)
                if not np.array_equal(self.array.raw(pd, stripe), acc):
                    self._flag(
                        "SC-C004",
                        f"horizontal parity of stripe {stripe} inconsistent "
                        f"after [{trail}]",
                    )
                    break
        _cursor, generated, run = self.conv.thread_state()
        # an in-flight run's bytes have landed; they must already be
        # chain-consistent (this is what proves the overlap check patches
        # writes into unmarked in-window parities)
        for g, r in run or ():
            generated[g, r] = True
        for group in range(self.scenario.groups):
            for row in range(self.rows):
                if not generated[group, row]:
                    continue
                expect = self._chain_xor(group, row)
                got = self.array.raw(self.m, group * self.rows + row)
                if not np.array_equal(got, expect):
                    self._flag(
                        "SC-C004",
                        f"generated diagonal parity (g{group}, r{row}) "
                        f"inconsistent with its chain after [{trail}] — a "
                        "write to its chain was not patched through",
                    )
                    return

    def _drain(self) -> tuple[npt.NDArray[np.uint8], bool]:
        """Deterministic completion: remaining writes in order, then convert."""
        from repro.migration.online import OnlineReport

        if self.conv.in_flight_run is not None:
            self.conv.mark_run_step()
        if self.failed:
            # the audit needs a healthy array: attach the spare first
            # (the fleet's own drain does the same before verifying)
            self._attach_spare()
        for i in range(len(self.payloads)):
            if i not in self.applied:
                self._serve_write(i)
        report = OnlineReport()
        while self.conv.pending_parity() is not None:
            self.conv.generate_step(report)
            self.conv.mark_step()
        return self.array.snapshot(), bool(self.conv.verify())

    def _check_resume(self, trail: str) -> None:
        """SC-C003: drain-normally == crash-resume-then-drain, both verified."""
        self.stats.checks += 1
        state = self._capture()
        normal, normal_ok = self._drain()
        self._restore(state)
        self.conv = self.converter_cls(self.array, self.p, journal=self.journal)
        resumed, resumed_ok = self._drain()
        self._restore(state)
        if not normal_ok or not resumed_ok:
            which = "normal" if not normal_ok else "crash-resumed"
            self._flag(
                "SC-C003",
                f"the {which} completion from state [{trail}] fails the "
                "full Code 5-6 audit",
            )
        elif not np.array_equal(normal, resumed):
            self._flag(
                "SC-C003",
                f"resume is not idempotent: crash-resume-then-drain from "
                f"state [{trail}] diverges from draining normally",
            )

    # -------------------------------------------------------------- DFS
    def explore(self) -> None:
        sys.setrecursionlimit(max(sys.getrecursionlimit(), 10_000))
        self._dfs(frozenset(), "init")

    def _visit(self, key: bytes, sleep: frozenset) -> str:
        """Memoize (state, sleep set).

        ``"new"`` — first sight: check invariants and expand.
        ``"skip"`` — a prior visit explored with a sleep set no larger
        than this one, so every awake transition was already taken.
        ``"expand"`` — state already invariant-checked, but this visit
        wakes transitions a prior one slept through: re-expand only.
        """
        seen = self._memo.get(key)
        if seen is None:
            self._memo[key] = [sleep]
            self.stats.states += 1
            return "new"
        for prior in seen:
            if prior <= sleep:
                return "skip"
        seen[:] = [s for s in seen if not (sleep <= s)]
        seen.append(sleep)
        return "expand"

    def _dfs(self, sleep: frozenset, trail: str) -> None:
        if len(self.findings) >= _MAX_FINDINGS_PER_SCENARIO:
            return
        status = self._visit(self._hash(), sleep)
        if status == "skip":
            return
        if status == "new":
            self._check_state(trail)
            if self.scenario.resume_everywhere or self.crashes:
                self._check_resume(trail)
        enabled = self._enabled()
        explored: list[tuple] = []
        for t in enabled:
            if t in sleep:
                continue
            state = self._capture()
            self._apply(t)
            child_sleep = frozenset(
                u
                for u in set(sleep) | set(explored)
                if self._independent(u, t)
            )
            self._dfs(child_sleep, f"{trail} {self._fmt(t)}")
            self._restore(state)
            explored.append(t)

    @staticmethod
    def _fmt(t: tuple) -> str:
        if t[0] == "W":
            return f"W{t[1]}"
        return {
            "G": "gen",
            "M": "mark",
            "K": "window-crash",
            "KT": "torn-crash",
            "P": "pause",
            "F": "fail",
            "S": "spare",
        }[t[0]]


def check_scenario(
    scenario: ModelScenario, converter_cls=None
) -> tuple[ModelStats, list[Finding]]:
    """Explore one scenario exhaustively; returns (stats, findings)."""
    ex = _Explorer(scenario, converter_cls=converter_cls)
    ex.explore()
    return ex.stats, ex.findings


def _representative_lbas(p: int, groups: int) -> list[int]:
    """One LBA per (row, data-disk) class of group 0, plus group 1's first."""
    from repro.raid.layouts import Raid5Layout, locate_block

    m = p - 1
    rows = p - 1
    capacity = groups * rows * (m - 1)
    seen: set[tuple[int, int]] = set()
    out: list[int] = []
    for lba in range(rows * (m - 1)):  # group 0
        stripe, disk = locate_block(Raid5Layout.LEFT_ASYMMETRIC, lba, m)
        cls = (stripe % rows, disk)
        if cls not in seen:
            seen.add(cls)
            out.append(lba)
    if groups > 1 and rows * (m - 1) < capacity:
        out.append(rows * (m - 1))  # first LBA of group 1
    return out


def model_scenarios(p: int, exhaustive: bool) -> list[ModelScenario]:
    """The scenario battery for one prime.

    ``exhaustive`` (p=5): two groups; a single-write scenario for *every*
    LBA (subsuming the SC-D010 boundary sweep — the DFS covers every
    conversion-progress point, plus every crash placement), pair
    scenarios over representative (row, disk) geometry classes, one
    triple, and the batched protocol re-proved for every run budget of
    {2, rows, groups*rows} — a two-parity run, one full parity row span,
    and a single run covering the whole conversion — over the same
    representative singles plus a pair subset.  Fleet transitions ride
    the same battery: breaker-pause singles over every representative
    LBA, fail/spare singles cycling the failed column over every data
    disk, one pause+spare pair, and batched pause/spare variants.
    Sampled (p=7): one group, a spread of single writes, a couple of
    pairs, two batched scenarios, and one pause + one spare single.
    """
    rows = p - 1
    m = p - 1
    if exhaustive:
        groups = 2
        capacity = groups * rows * (m - 1)
        singles = [
            ModelScenario(p=p, groups=groups, lbas=(lba,))
            for lba in range(capacity)
        ]
        reps = _representative_lbas(p, groups)
        pairs = [
            ModelScenario(p=p, groups=groups, lbas=(a, b))
            for i, a in enumerate(reps)
            for b in reps[i + 1 :]
        ]
        triple = [ModelScenario(p=p, groups=groups, lbas=tuple(reps[:3]))]
        batch_sizes = (2, rows, groups * rows)
        batched = [
            ModelScenario(p=p, groups=groups, lbas=(lba,), batch=bsz)
            for bsz in batch_sizes
            for lba in reps
        ] + [
            ModelScenario(p=p, groups=groups, lbas=(a, b), batch=bsz)
            for bsz in batch_sizes
            for i, a in enumerate(reps[:4])
            for b in reps[i + 1 : 4]
        ]
        fleet = (
            [
                ModelScenario(p=p, groups=groups, lbas=(lba,), pauses=1)
                for lba in reps
            ]
            + [
                ModelScenario(
                    p=p, groups=groups, lbas=(lba,), spare=True,
                    fail_disk=i % m,
                )
                for i, lba in enumerate(reps)
            ]
            + [
                ModelScenario(
                    p=p, groups=groups, lbas=(reps[0], reps[1]),
                    pauses=1, spare=True, fail_disk=1,
                ),
                ModelScenario(
                    p=p, groups=groups, lbas=(reps[0],), batch=rows, pauses=1,
                ),
                ModelScenario(
                    p=p, groups=groups, lbas=(reps[0],), batch=2,
                    spare=True, fail_disk=2,
                ),
            ]
        )
        return singles + pairs + triple + batched + fleet
    groups = 1
    capacity = groups * rows * (m - 1)
    step = max(1, capacity // 6)
    sampled = list(range(0, capacity, step))
    singles = [
        ModelScenario(p=p, groups=groups, lbas=(lba,), resume_everywhere=False)
        for lba in sampled
    ]
    pairs = [
        ModelScenario(
            p=p, groups=groups, lbas=(sampled[0], sampled[-1]),
            resume_everywhere=False,
        ),
        ModelScenario(
            p=p, groups=groups, lbas=(sampled[1], sampled[2]),
            resume_everywhere=False,
        ),
    ]
    batched = [
        ModelScenario(
            p=p, groups=groups, lbas=(sampled[0],), batch=rows,
            resume_everywhere=False,
        ),
        ModelScenario(
            p=p, groups=groups, lbas=(sampled[0], sampled[-1]), batch=2,
            resume_everywhere=False,
        ),
    ]
    fleet = [
        ModelScenario(
            p=p, groups=groups, lbas=(sampled[0],), pauses=1,
            resume_everywhere=False,
        ),
        ModelScenario(
            p=p, groups=groups, lbas=(sampled[-1],), spare=True, fail_disk=1,
            resume_everywhere=False,
        ),
    ]
    return singles + pairs + batched + fleet


def run_model_check(
    primes: tuple[int, ...] = (5, 7)
) -> tuple[int, list[Finding], ModelStats]:
    """Model-check the online protocol at each prime (5 exhaustive)."""
    stats = ModelStats()
    findings: list[Finding] = []
    for p in primes:
        for scenario in model_scenarios(p, exhaustive=(p == 5)):
            s, f = check_scenario(scenario)
            stats.merge(s)
            findings.extend(f)
    return stats.checks, findings, stats
