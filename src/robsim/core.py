"""Cycle-stepped out-of-order core with a bounded reorder buffer.

Each cycle runs five phases in a fixed order: commit, issue,
complete/resolve, dispatch, fetch/decode. The ordering encodes the timing
conventions the traces rely on:

* an entry never issues the cycle it dispatches (issue runs earlier in
  the cycle than dispatch);
* a result completing at cycle c wakes consumers for issue at c+1 and
  commits no earlier than c+1;
* a branch resolves one cycle after its operand is ready, and on a
  mispredict the squash lands that cycle with fetch redirected the next.

Fetch runs ahead of a full reorder buffer into a small decode queue, so
back-pressure from a jammed ROB is visible as dispatch stalls rather
than fetch stalls. REP opcodes expand at decode, reading the counter
from the youngest in-flight producer (bypass) and stalling decode until
that value exists; under the operand-independent fill mitigation a
tainted counter instead yields a fixed predicted expansion that is
verified, and on mismatch squashed and re-expanded, once the true count
is known.

Squash rolls back the producer map and fetch point but never the cache:
fills, evictions, and MSHR state persist, which is precisely the
observation surface the attack scenarios probe.

An entry's stage is read off its cycle stamps (dispatch, exec_start,
complete, then commit or squash), each written once; no status is kept.
"""

from __future__ import annotations

import csv
import io
import random
from bisect import insort
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .cache import AccessOutcome, AccessResult, CacheConfig, CacheState
from .defenses import REP_PREDICTED_COUNT, DefensePolicy, dom_gate, esp_check
from .isa import (
    DEFAULT_EXPANSION_CAP,
    KIND_BY_OPCODE,
    Imm,
    MacroInstruction,
    Mem,
    MicroOp,
    Opcode,
    Program,
    Reg,
    REP_OPCODES,
    UopKind,
    rep_expansion_count,
)


@dataclass(frozen=True)
class CoreConfig:
    rob_size: int = 64
    decode_width: int = 4
    commit_width: int = 4
    load_ports: int = 1
    alu_ports: int = 1
    alu_latency: int = 1
    expansion_cap: int = DEFAULT_EXPANSION_CAP
    max_cycles: int = 200_000

    def __post_init__(self) -> None:
        for name in (
            "rob_size",
            "decode_width",
            "commit_width",
            "load_ports",
            "alu_ports",
            "alu_latency",
            "expansion_cap",
            "max_cycles",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class MachineConfig:
    core: CoreConfig = field(default_factory=CoreConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    jitter_amplitude: int = 0  # +/- cycles added to fresh miss latency
    jitter_seed: int = 0


class BranchPredictor:
    """Forced-outcome table first, 2-bit counters for everything else.

    Forced entries model a trained predictor deterministically; they are
    never updated. Counters start weakly not-taken.
    """

    def __init__(self, forced: Mapping[int, bool] | None = None):
        self.forced: dict[int, bool] = dict(forced or {})
        self.counters: dict[int, int] = {}

    def predict(self, instr: int) -> bool:
        if instr in self.forced:
            return self.forced[instr]
        return self.counters.get(instr, 1) >= 2

    def update(self, instr: int, taken: bool) -> None:
        if instr in self.forced:
            return
        state = self.counters.get(instr, 1)
        self.counters[instr] = min(3, state + 1) if taken else max(0, state - 1)


@dataclass
class MemEvent:
    cycle: int
    instr: int | None  # None for fills
    rob_seq: int | None
    address: int
    kind: str  # hit | miss | coalesced | deferred_hit | fill
    deferred: bool = False
    applied: bool = True  # deferred effects flip this at commit


@dataclass
class RobEntry:
    uop: MicroOp
    macro: MacroInstruction
    instance: int
    predicted_taken: bool | None = None
    src: tuple[tuple[int, "RobEntry | None"], ...] = ()
    dest: int | None = None
    checkpoint: dict[int, "RobEntry"] | None = None
    rob_seq: int = -1
    dispatch_cycle: int | None = None
    ready_cycle: int | None = None
    exec_start_cycle: int | None = None
    complete_cycle: int | None = None
    commit_cycle: int | None = None
    squash_cycle: int | None = None
    shadow: int | None = None
    predicted: bool = False  # unverified predicted-REP micro-op
    osp: bool = False
    esp_cycle: int | None = None
    address: int | None = None
    result: int | None = None
    outcome: str | None = None
    latency: int | None = None
    pending: int = 0
    dependents: list["RobEntry"] = field(default_factory=list)
    mem_event: MemEvent | None = None

    @property
    def instr(self) -> int:
        return self.macro.id

    @property
    def opcode(self) -> Opcode:
        return self.macro.opcode

    @property
    def seq(self) -> int:
        return self.uop.seq

    @property
    def complete(self) -> bool:
        return self.complete_cycle is not None

    @property
    def squashed(self) -> bool:
        return self.squash_cycle is not None

    @property
    def producers(self) -> tuple["RobEntry", ...]:
        return tuple(p for _, p in self.src if p is not None)

    def value_of(self, reg: int, regfile: dict[int, int]) -> int:
        for r, producer in self.src:
            if r == reg:
                if producer is not None:
                    assert producer.result is not None
                    return producer.result
                return regfile.get(reg, 0)
        return regfile.get(reg, 0)


def _is_speculation_source(entry: RobEntry) -> bool:
    if entry.uop.kind is UopKind.BRANCH_RESOLVE and not entry.complete:
        return True
    return entry.predicted and entry.uop.seq == 0


def compute_shadows(entries: Iterable[RobEntry]) -> list[int | None]:
    """Shadow of each entry: rob_seq of the oldest unresolved speculation
    source ahead of it (unresolved branch or unverified predicted REP),
    or None. Pure; the simulator maintains the same assignment
    incrementally and tests compare the two.
    """
    shadows: list[int | None] = []
    oldest: int | None = None
    for entry in entries:
        shadows.append(oldest)
        if oldest is None and _is_speculation_source(entry):
            oldest = entry.rob_seq
    return shadows


@dataclass
class RepExpansion:
    instr: int
    opcode: Opcode
    predicted: bool
    requested: int | None  # true 2n / 5n+12 count; set at verification if predicted
    target: int  # micro-ops this instance emits (predicted: REP_PREDICTED_COUNT)
    capped: bool = False
    emitted: int = 0
    verified: bool | None = None
    # predicted only: the in-flight counter, the producer map to squash back
    # to, and the emitted micro-ops
    counter_producer: RobEntry | None = None
    checkpoint: dict[int, RobEntry] | None = None
    entries: list[RobEntry] = field(default_factory=list)


@dataclass
class SquashRecord:
    cycle: int
    source_instr: int
    kind: str  # branch | rep_verify
    removed: int


@dataclass
class SimStats:
    cycles: int = 0
    committed_uops: int = 0
    squashes: int = 0
    squash_log: list[SquashRecord] = field(default_factory=list)
    dispatch_stalls: int = 0
    decode_stalls: int = 0
    load_port_stalls: int = 0
    peak_occupancy: int = 0


CSV_FIELDS = [
    "instance",
    "instr",
    "opcode",
    "seq",
    "rob_seq",
    "dispatch",
    "ready",
    "exec_start",
    "complete",
    "commit",
    "shadow",
    "squashed",
    "predicted",
    "esp_cycle",
    "address",
    "outcome",
    "latency",
    "result",
]


@dataclass
class Trace:
    records: list[RobEntry]
    occupancy: list[int]
    mem_events: list[MemEvent]
    rep_expansions: list[RepExpansion]
    warnings: list[str]
    stats: SimStats

    def committed(self) -> list[RobEntry]:
        return [e for e in self.records if e.commit_cycle is not None]

    def committed_for(self, instr: int) -> list[RobEntry]:
        return [e for e in self.committed() if e.instr == instr]

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(CSV_FIELDS)
        for e in self.records:
            writer.writerow(
                [
                    e.instance,
                    e.instr,
                    e.opcode.value,
                    e.seq,
                    e.rob_seq if e.rob_seq >= 0 else "",
                    _cell(e.dispatch_cycle),
                    _cell(e.ready_cycle),
                    _cell(e.exec_start_cycle),
                    _cell(e.complete_cycle),
                    _cell(e.commit_cycle),
                    _cell(e.shadow),
                    int(e.squashed),
                    int(e.predicted),
                    _cell(e.esp_cycle),
                    _cell(e.address),
                    e.outcome or "",
                    _cell(e.latency),
                    _cell(e.result),
                ]
            )
        return out.getvalue()


def _cell(value: int | None) -> int | str:
    return value if value is not None else ""


class SimulationLimitError(RuntimeError):
    """Cycle budget exhausted; `snapshot` holds (rob_seq, instr, opcode,
    dispatch, exec_start, complete) of each entry still in the ROB."""

    def __init__(self, cycle: int, occupancy: int, snapshot: list[tuple]):
        super().__init__(
            f"no forward progress after {cycle} cycles (rob occupancy {occupancy})"
        )
        self.cycle = cycle
        self.occupancy = occupancy
        self.snapshot = snapshot


class Simulator:
    """One program run on one core/cache pair under one defense policy."""

    def __init__(
        self,
        program: Program,
        machine: MachineConfig | None = None,
        policy: DefensePolicy | None = None,
        predictor: BranchPredictor | None = None,
    ):
        program.validate()
        self.program = program
        self.machine = machine or MachineConfig()
        self.config = self.machine.core
        self.policy = policy or DefensePolicy()
        self.predictor = predictor or BranchPredictor()
        self.cache = CacheState(self.machine.cache)
        self.regs: dict[int, int] = {}
        self.mem_values: dict[int, int] = dict(program.data_init)
        self.cycle = 0
        self.pc = 0
        self.rob: deque[RobEntry] = deque()
        self.stats = SimStats()

        self._queue: deque[RobEntry] = deque()
        self._prod_map: dict[int, RobEntry] = {}
        self._unresolved: list[int] = []
        self._completions: dict[int, list[RobEntry]] = {}
        self._mem_queue: list[RobEntry] = []
        self._alu_queue: list[RobEntry] = []
        self._next_seq = 0
        self._redirect_stall = False
        self._expansion: RepExpansion | None = None
        self._rep_override: tuple[int, int] | None = None
        self._live_reps: list[RepExpansion] = []
        self._records: list[RobEntry] = []
        self._occupancy: list[int] = []
        self._mem_events: list[MemEvent] = []
        self._rep_log: list[RepExpansion] = []
        self._warnings: list[str] = []
        self._rng = random.Random(self.machine.jitter_seed)

    # ------------------------------------------------------------------
    # public surface

    @property
    def halted(self) -> bool:
        return (
            self.pc >= len(self.program)
            and self._expansion is None
            and not self._queue
            and not self.rob
        )

    def step(self) -> None:
        """Advance one cycle through the five phases."""
        self.cycle += 1
        for addr in self.cache.process_fills(self.cycle):
            self._mem_events.append(MemEvent(self.cycle, None, None, addr, "fill"))
        self._commit()
        self._issue()
        self._complete()
        self._dispatch()
        self._fetch_decode()
        occ = len(self.rob)
        self._occupancy.append(occ)
        if occ > self.stats.peak_occupancy:
            self.stats.peak_occupancy = occ
        assert occ <= self.config.rob_size

    def run(self) -> Trace:
        while not self.halted:
            if self.cycle >= self.config.max_cycles:
                snapshot = [
                    (e.rob_seq, e.instr, e.opcode.value, e.dispatch_cycle,
                     e.exec_start_cycle, e.complete_cycle)
                    for e in self.rob
                ]
                raise SimulationLimitError(self.cycle, len(self.rob), snapshot)
            self.step()
        self.stats.cycles = self.cycle
        return Trace(
            records=self._records,
            occupancy=self._occupancy,
            mem_events=self._mem_events,
            rep_expansions=self._rep_log,
            warnings=self._warnings,
            stats=self.stats,
        )

    # ------------------------------------------------------------------
    # commit

    def _commit(self) -> None:
        committed = 0
        while committed < self.config.commit_width and self.rob:
            entry = self.rob[0]
            if entry.complete_cycle is None or entry.complete_cycle >= self.cycle:
                break
            if entry.predicted:
                break  # predicted REP fill may still be squashed by verification
            assert entry.shadow is None
            entry.commit_cycle = self.cycle
            if entry.dest is not None and entry.result is not None:
                self.regs[entry.dest] = entry.result
                if self._prod_map.get(entry.dest) is entry:
                    del self._prod_map[entry.dest]
            if entry.uop.kind is UopKind.MEM_WRITE and entry.address is not None:
                self.mem_values[entry.address] = entry.result or 0
            if entry.outcome == "deferred_hit":
                assert entry.address is not None and entry.mem_event is not None
                self.cache.touch(entry.address)
                entry.mem_event.applied = True
            self.rob.popleft()
            self.stats.committed_uops += 1
            committed += 1

    # ------------------------------------------------------------------
    # issue

    def _issue(self) -> None:
        self._issue_alu()
        self._issue_mem()

    def _issue_alu(self) -> None:
        issued = 0
        i = 0
        queue = self._alu_queue
        while issued < self.config.alu_ports and i < len(queue):
            entry = queue[i]
            if entry.squashed:
                queue.pop(i)
                continue
            if entry.ready_cycle is None or entry.ready_cycle > self.cycle:
                i += 1
                continue
            queue.pop(i)
            entry.exec_start_cycle = self.cycle
            entry.result = self._alu_result(entry)
            self._schedule_completion(entry, self.cycle + self.config.alu_latency - 1)
            issued += 1

    def _issue_mem(self) -> None:
        issued = 0
        i = 0
        queue = self._mem_queue
        while issued < self.config.load_ports and i < len(queue):
            entry = queue[i]
            if entry.squashed:
                queue.pop(i)
                continue
            if entry.ready_cycle is None or entry.ready_cycle > self.cycle:
                i += 1
                continue
            if entry.address is None:
                entry.address = self._effective_address(entry)
            deferred = False  # a gated load runs only on a hit, effects deferred
            if self.policy.gates_loads and entry.shadow is not None:
                if entry.uop.kind is UopKind.MEM_WRITE:
                    i += 1  # shadowed stores always wait for the shadow
                    continue
                deferred = not self._lifted(entry)
                if deferred and not dom_gate(entry, self.cache):
                    i += 1
                    continue
            extra = 0
            if self.machine.jitter_amplitude and not deferred:
                amp = self.machine.jitter_amplitude
                extra = self._rng.randint(-amp, amp)
            result = self.cache.access(
                entry.address, self.cycle, deferred_effects=deferred, extra_latency=extra
            )
            if result.outcome is AccessOutcome.MSHR_STALL:
                self.stats.load_port_stalls += 1
                issued += 1  # the rejected attempt still occupied the port
                i += 1
                continue
            queue.pop(i)
            self._start_access(entry, result, deferred)
            issued += 1

    def _start_access(self, entry: RobEntry, result: AccessResult, deferred: bool) -> None:
        """Stamp an accepted access, log its event and schedule completion;
        a deferred hit's event stays unapplied until commit touches the line."""
        assert entry.address is not None
        if deferred:
            assert result.outcome is AccessOutcome.HIT
            outcome = "deferred_hit"
        else:
            outcome = "coalesced" if result.coalesced else result.outcome.value
        entry.exec_start_cycle = self.cycle
        entry.latency = result.latency
        entry.outcome = outcome
        if entry.uop.kind is UopKind.MEM_READ:
            entry.result = self.mem_values.get(entry.address, 0)
        else:
            entry.result = entry.value_of(entry.macro.operands[0].index, self.regs)
        event = MemEvent(
            self.cycle,
            entry.instr,
            entry.rob_seq,
            entry.address,
            outcome,
            deferred=deferred,
            applied=not deferred,
        )
        entry.mem_event = event
        self._mem_events.append(event)
        self._schedule_completion(entry, self.cycle + result.latency - 1)

    def _lifted(self, entry: RobEntry) -> bool:
        if not self.policy.lifts_invariant:
            return False
        if entry.esp_cycle is not None:
            return True
        if esp_check(entry, self.policy.safe_sets, self.rob):
            entry.esp_cycle = self.cycle
            return True
        return False

    def _alu_result(self, entry: RobEntry) -> int:
        macro = entry.macro
        if macro.opcode is Opcode.ALU:
            total = 0
            for op in macro.operands[1:]:
                if isinstance(op, Reg):
                    total += entry.value_of(op.index, self.regs)
                elif isinstance(op, Imm):
                    total += op.value
            return total
        if macro.opcode is Opcode.SETSHIFT:
            src = entry.value_of(macro.operands[1].index, self.regs)
            shift = macro.operands[2].value
            return src << shift
        raise AssertionError(f"non-alu opcode {macro.opcode} on alu port")

    def _effective_address(self, entry: RobEntry) -> int:
        mem = entry.macro.operands[1]
        assert isinstance(mem, Mem)
        base = 0
        if mem.base is not None:
            base = entry.value_of(mem.base.index, self.regs)
        return base + mem.offset

    # ------------------------------------------------------------------
    # complete / resolve / verify

    def _schedule_completion(self, entry: RobEntry, when: int) -> None:
        if when <= self.cycle:
            when = self.cycle  # completes this cycle; processed in phase 3
        self._completions.setdefault(when, []).append(entry)

    def _complete(self) -> None:
        due = self._completions.pop(self.cycle, [])
        due.sort(key=lambda e: e.rob_seq)
        for entry in due:
            if entry.squashed:
                continue
            entry.complete_cycle = self.cycle
            self._wake_dependents(entry)
            if entry.uop.kind is UopKind.BRANCH_RESOLVE:
                self._resolve_branch(entry)
        self._verify_predicted_reps()

    def _wake_dependents(self, producer: RobEntry) -> None:
        for dep in producer.dependents:
            if dep.squashed:
                continue
            dep.pending -= 1
            if dep.pending == 0:
                dep.ready_cycle = self.cycle + 1
                self._enqueue_ready(dep)

    def _resolve_branch(self, entry: RobEntry) -> None:
        cond = entry.value_of(entry.macro.operands[0].index, self.regs)
        taken = cond == 0  # branch-if-zero
        entry.result = int(taken)
        self.predictor.update(entry.instr, taken)
        self._release_shadow(entry.rob_seq)
        if taken == entry.predicted_taken:
            return
        target = (
            self.program.target_of(entry.macro) if taken else entry.instr + 1
        )
        assert target is not None
        assert entry.checkpoint is not None
        self._squash_after(entry.rob_seq, entry.checkpoint, target, "branch", entry.instr)

    def _verify_predicted_reps(self) -> None:
        for rep in self._live_reps:
            if rep.emitted < rep.target:
                continue  # prediction still streaming into the queue
            first = rep.entries[0]
            if first.dispatch_cycle is None or first.shadow is not None:
                continue
            producer = rep.counter_producer
            assert producer is not None  # predicted only for an in-flight counter
            if not producer.complete:
                continue
            value = producer.result or 0
            requested = rep_expansion_count(rep.opcode, value)
            true_target = min(requested, self.config.expansion_cap)
            rep.requested = requested
            if true_target == rep.emitted:
                rep.verified = True
                for entry in rep.entries:
                    entry.predicted = False
                self._release_shadow(first.rob_seq)
            else:
                rep.verified = False
                assert rep.checkpoint is not None
                self._rep_override = (rep.instr, value)
                self._squash_after(
                    first.rob_seq - 1,
                    rep.checkpoint,
                    rep.instr,
                    "rep_verify",
                    rep.instr,
                )
                break  # every later expansion is younger, so squashed with it
        self._live_reps = [r for r in self._live_reps if r.verified is None]

    def _release_shadow(self, seq: int) -> None:
        try:
            self._unresolved.remove(seq)
        except ValueError:
            return  # already released (resolved source later squashed)
        # only the oldest source shadows anything, so its successor in
        # the shadow is the next oldest
        nxt = self._unresolved[0] if self._unresolved else None
        for entry in self.rob:
            if entry.shadow == seq:
                if nxt is not None and nxt < entry.rob_seq:
                    entry.shadow = nxt
                else:
                    entry.shadow = None

    def _squash_after(
        self,
        boundary_seq: int,
        checkpoint: dict[int, RobEntry],
        new_pc: int,
        kind: str,
        source_instr: int,
    ) -> None:
        removed = 0
        for queued in self._queue:
            queued.squash_cycle = self.cycle
            removed += 1
        self._queue.clear()
        self._expansion = None
        while self.rob and self.rob[-1].rob_seq > boundary_seq:
            entry = self.rob.pop()
            entry.squash_cycle = self.cycle
            removed += 1
        self._unresolved = [s for s in self._unresolved if s <= boundary_seq]
        # the squash ends the expansion being decoded: one that emitted
        # nothing never will
        self._live_reps = [
            r for r in self._live_reps if r.entries and not r.entries[0].squashed
        ]
        self._prod_map = dict(checkpoint)
        self.pc = new_pc
        self._redirect_stall = True
        self.stats.squashes += 1
        self.stats.squash_log.append(
            SquashRecord(self.cycle, source_instr, kind, removed)
        )

    # ------------------------------------------------------------------
    # dispatch

    def _dispatch(self) -> None:
        while self._queue and len(self.rob) < self.config.rob_size:
            entry = self._queue.popleft()
            entry.rob_seq = self._next_seq
            self._next_seq += 1
            entry.dispatch_cycle = self.cycle
            entry.shadow = self._unresolved[0] if self._unresolved else None
            self.rob.append(entry)
            if _is_speculation_source(entry):
                self._unresolved.append(entry.rob_seq)
            pending = 0
            latest = entry.dispatch_cycle
            for producer in entry.producers:
                if producer.complete:
                    assert producer.complete_cycle is not None
                    latest = max(latest, producer.complete_cycle + 1)
                else:
                    producer.dependents.append(entry)
                    pending += 1
            entry.pending = pending
            if pending == 0:
                entry.ready_cycle = latest
                self._enqueue_ready(entry)
            if (
                self.policy.lifts_invariant
                and entry.uop.kind in (UopKind.MEM_READ, UopKind.MEM_WRITE)
            ):
                self._lifted(entry)  # stamps esp at dispatch for empty safe sets
        if self._queue and len(self.rob) >= self.config.rob_size:
            self.stats.dispatch_stalls += 1

    def _enqueue_ready(self, entry: RobEntry) -> None:
        kind = entry.uop.kind
        if kind in (UopKind.MEM_READ, UopKind.MEM_WRITE):
            insort(self._mem_queue, entry, key=lambda e: e.rob_seq)
        elif kind is UopKind.ALU:
            insort(self._alu_queue, entry, key=lambda e: e.rob_seq)
        elif kind is UopKind.BRANCH_RESOLVE:
            start = max(entry.ready_cycle or 0, entry.dispatch_cycle or 0)
            entry.exec_start_cycle = start
            self._schedule_completion(entry, start + 1)
        else:  # NOP-class: jump, fence, pad, rep filler
            entry.complete_cycle = entry.dispatch_cycle

    # ------------------------------------------------------------------
    # fetch / decode

    def _fetch_decode(self) -> None:
        if self._redirect_stall:
            self._redirect_stall = False
            return
        slots = self.config.decode_width
        while slots > 0 and len(self._queue) < 2 * self.config.decode_width:
            if self._expansion is not None:
                self._emit_rep_uop(self._expansion)
                slots -= 1
                continue
            if self.pc >= len(self.program):
                break
            macro = self.program.instructions[self.pc]
            if macro.opcode is Opcode.FENCE and (self.rob or self._queue):
                self.stats.decode_stalls += 1  # a fence decodes once drained
                break
            if macro.opcode in REP_OPCODES:
                if not self._begin_rep(macro):
                    self.stats.decode_stalls += 1
                    break
                continue  # zero-count expansion advances pc without a slot
            self._decode_simple(macro)
            slots -= 1

    def _decode_simple(self, macro: MacroInstruction) -> None:
        entry = self._push_uop(macro, 0, KIND_BY_OPCODE[macro.opcode])
        if macro.opcode is Opcode.BRANCH:
            predicted = self.predictor.predict(macro.id)
            entry.predicted_taken = predicted
            entry.checkpoint = dict(self._prod_map)
            if predicted:
                target = self.program.target_of(macro)
                assert target is not None
                self.pc = target
            else:
                self.pc = macro.id + 1
        elif macro.opcode is Opcode.JUMP:
            target = self.program.target_of(macro)
            assert target is not None
            self.pc = target
        else:
            self.pc = macro.id + 1

    def _push_uop(
        self,
        macro: MacroInstruction,
        seq: int,
        kind: UopKind,
        predicted: bool = False,
    ) -> RobEntry:
        src: list[tuple[int, RobEntry | None]] = []
        if seq == 0 and macro.opcode not in REP_OPCODES:
            seen: set[int] = set()
            for reg in macro.source_regs():
                if reg.index in seen:
                    continue
                seen.add(reg.index)
                src.append((reg.index, self._prod_map.get(reg.index)))
        dest = macro.dest_reg()
        entry = RobEntry(
            uop=MicroOp(macro.id, seq, kind),
            macro=macro,
            instance=len(self._records),
            src=tuple(src),
            dest=dest.index if dest is not None else None,
            predicted=predicted,
        )
        if dest is not None:
            self._prod_map[dest.index] = entry
        self._queue.append(entry)
        self._records.append(entry)
        return entry

    def _begin_rep(self, macro: MacroInstruction) -> bool:
        """Start expanding a REP macro. False means decode stalls."""
        counter_reg = macro.operands[0].index
        producer = self._prod_map.get(counter_reg)
        override: int | None = None
        if self._rep_override is not None and self._rep_override[0] == macro.id:
            override = self._rep_override[1]
            self._rep_override = None
        if override is None and producer is not None and self.policy.predicted_fill:
            rep = RepExpansion(
                instr=macro.id,
                opcode=macro.opcode,
                predicted=True,
                requested=None,
                target=REP_PREDICTED_COUNT,
                counter_producer=producer,
                checkpoint=dict(self._prod_map),
            )
            self._live_reps.append(rep)
        else:
            if override is not None:
                value = override
            elif producer is not None:
                if not producer.complete:
                    return False  # counter not yet bypassable
                value = producer.result or 0
            else:
                value = self.regs.get(counter_reg, 0)
            requested = rep_expansion_count(macro.opcode, value)
            target = min(requested, self.config.expansion_cap)
            rep = RepExpansion(
                instr=macro.id,
                opcode=macro.opcode,
                predicted=False,
                requested=requested,
                target=target,
                capped=requested > target,
            )
            if rep.capped:
                self._warnings.append(
                    f"instr {macro.id}: rep expansion {requested} capped at {target}"
                )
        self._rep_log.append(rep)
        self.pc = macro.id + 1
        if rep.target:
            self._expansion = rep
        return True

    def _emit_rep_uop(self, rep: RepExpansion) -> None:
        """Emit the next micro-op of the active expansion, ending it at target."""
        macro = self.program.instructions[rep.instr]
        entry = self._push_uop(macro, rep.emitted, UopKind.NOP, predicted=rep.predicted)
        rep.emitted += 1
        if rep.predicted:
            rep.entries.append(entry)
        if rep.emitted >= rep.target:
            self._expansion = None


def run(
    program: Program,
    machine: MachineConfig | None = None,
    policy: DefensePolicy | None = None,
    predictor: BranchPredictor | None = None,
) -> Trace:
    """Run a program to halt and return its trace."""
    return Simulator(program, machine, policy, predictor).run()


__all__ = [
    "BranchPredictor",
    "CoreConfig",
    "MachineConfig",
    "MemEvent",
    "RepExpansion",
    "RobEntry",
    "SimStats",
    "SimulationLimitError",
    "Simulator",
    "SquashRecord",
    "Trace",
    "compute_shadows",
    "run",
]
