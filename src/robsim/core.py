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

A run is primed by its program alone: `Simulator.__init__` makes every
`.warm` line resident, then evicts every `.flush` line, and fixes the
direction of every `.predict` branch, so a program's text replays its run.

A squash recomputes the producer map from the surviving ROB and
redirects fetch, but never rolls back the cache: fills, evictions, and
MSHR state persist, which is precisely the observation surface the attack
scenarios probe.

An entry's stage is read off its cycle stamps (dispatch, exec_start,
complete, then commit or squash), each written once; no status is kept.
Whether an entry is shadowed is read off `_unresolved`, the rob_seqs of
the unresolved speculation sources in age order: it is, exactly when the
oldest of them is older than the entry. The `shadow` column records that
source for a squashed entry, stamped once at the squash.

`Simulator.step()` advances exactly one cycle and returns whether any
phase acted; it is the oracle the event-skipping `run()` is tested against.
A cycle in which no phase acted changes nothing a later cycle reads (fills
land before the phases; a load's address is memoised and squashed entries
leave the issue queues), so every later cycle repeats it until the next
completion or fill. `run()` records those cycles in one go: the same
occupancy and the same dispatch and decode stalls each, never past
max_cycles.

`step()` enters a phase only when it has work: fills only when the
earliest MSHR fill is due; commit only when the ROB head completed before
this cycle; complete only when a completion is due this cycle or a
predicted REP awaits verification; fetch only when a redirect is pending,
or when the decode queue has room and an expansion is active or the pc is
inside the program; issue and dispatch only when their queue is non-empty.
A NOP-class micro-op (jump, fence, pad, REP filler) reads no register and
never issues: dispatch stamps it ready and complete in its own cycle.

A producer's list of waiting consumers is made when the first of them
dispatches and set to None once it has woken them or is squashed, so a
finished run holds no reference cycle and is freed by reference counting
alone. What decode and issue read off an instruction (its micro-op, source
and destination registers and ALU plan) is worked out once per instruction
object, and the branch targets once per program object: so once per
program, not per run. Per micro-op, decode builds one RobEntry (a REP
filler also its numbered MicroOp) naming the in-flight producer of each
source register, and the later phases stamp that entry in place.
"""

from __future__ import annotations

import csv
import io
import random
from bisect import insort
from collections import deque
from dataclasses import dataclass, field
from itertools import repeat
from typing import Mapping

from .cache import AccessOutcome, AccessResult, CacheConfig, CacheState
from .defenses import REP_PREDICTED_COUNT, DefensePolicy, esp_check
from .isa import (
    DEFAULT_EXPANSION_CAP,
    MacroInstruction,
    Mem,
    MicroOp,
    Opcode,
    Program,
    REP_OPCODES,
    UopKind,
    rep_expansion_count,
)


# Enum members bound to module names: a class attribute read of one costs
# about 0.1 us on CPython 3.11, and every micro-op takes several.
_MEM_READ, _MEM_WRITE, _ALU = UopKind.MEM_READ, UopKind.MEM_WRITE, UopKind.ALU
_BRANCH_RESOLVE, _NOP = UopKind.BRANCH_RESOLVE, UopKind.NOP
_BRANCH, _JUMP, _FENCE = Opcode.BRANCH, Opcode.JUMP, Opcode.FENCE


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

    def __post_init__(self) -> None:
        if self.jitter_amplitude < 0:
            raise ValueError("jitter amplitude cannot be negative")


class BranchPredictor:
    """Forced-outcome table first, 2-bit counters for everything else.

    Forced entries (the program's `.predict` directives, by instruction id)
    model a trained predictor deterministically; they are never updated.
    Counters start weakly not-taken.
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


@dataclass(slots=True)
class MemEvent:
    cycle: int
    instr: int | None  # None for fills
    rob_seq: int | None
    address: int
    kind: str  # hit | miss | coalesced | deferred_hit | fill
    deferred: bool = False
    applied: bool = True  # deferred effects flip this at commit


@dataclass(slots=True)
class RobEntry:
    uop: MicroOp
    macro: MacroInstruction
    instance: int
    src: tuple[tuple[int, "RobEntry | None"], ...] = ()
    dest: int | None = None
    predicted: bool = False  # unverified predicted-REP micro-op
    predicted_taken: bool | None = None
    rob_seq: int = -1
    dispatch_cycle: int | None = None
    ready_cycle: int | None = None
    exec_start_cycle: int | None = None
    complete_cycle: int | None = None
    commit_cycle: int | None = None
    squash_cycle: int | None = None
    shadow: int | None = None  # set at squash: oldest unresolved source ahead of it
    osp: bool = False
    esp_cycle: int | None = None
    address: int | None = None
    result: int | None = None
    outcome: str | None = None
    latency: int | None = None
    pending: int = 0
    # consumers waiting on this result: a list from the first waiter on,
    # None again once woken or squashed
    dependents: list["RobEntry"] | None = None
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
            if r == reg and producer is not None:
                assert producer.result is not None
                return producer.result
        return regfile.get(reg, 0)


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
    # predicted only: the in-flight counter and the emitted micro-ops
    counter_producer: RobEntry | None = None
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
    stats: SimStats
    cache: CacheState  # the run's final cache

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
    ):
        self.program = program
        self._targets = program.targets  # validates the program on first use
        self._n_instr = len(program)
        self.machine = machine or MachineConfig()
        self.config = self.machine.core
        self.policy = policy or DefensePolicy()
        self._gates_loads = self.policy.gates_loads
        self._lifts = self.policy.lifts_invariant
        self._predicted_fill = self.policy.predicted_fill
        self.predictor = BranchPredictor(
            {program.labels[name]: taken for name, taken in program.predict.items()}
        )
        self.cache = CacheState(self.machine.cache)
        for addr in program.warm:
            self.cache.warm(addr)
        for addr in program.flush:
            self.cache.flush(addr)
        self.regs: dict[int, int] = {}
        self.mem_values: dict[int, int] = dict(program.data_init)
        self.cycle = 0
        self.pc = 0
        self.rob: deque[RobEntry] = deque()
        self.stats = SimStats()

        self._queue: deque[RobEntry] = deque()  # decoded, waiting for dispatch
        self._queue_size = 2 * self.config.decode_width
        self._prod_map: dict[int, RobEntry] = {}
        self._unresolved: list[int] = []
        self._completions: dict[int, list[RobEntry]] = {}
        self._mem_queue: list[RobEntry] = []
        self._alu_queue: list[RobEntry] = []
        self._next_seq = 0
        self._redirect_stall = False
        self._expansion: RepExpansion | None = None
        self._counted_rep: int | None = None  # REP refetched after its prediction failed
        self._live_reps: list[RepExpansion] = []
        self._records: list[RobEntry] = []
        self._occupancy: list[int] = []
        self._mem_events: list[MemEvent] = []
        self._rep_log: list[RepExpansion] = []
        jitter = self.machine.jitter_amplitude  # no generator when nothing draws
        self._rng = random.Random(self.machine.jitter_seed) if jitter else None
        self._never = self.config.max_cycles + 1  # an event past every cycle run
        self._next_fill = self._never  # earliest fill cycle of the MSHRs

    # ------------------------------------------------------------------
    # public surface

    @property
    def halted(self) -> bool:
        return (
            self.pc >= self._n_instr
            and self._expansion is None
            and not self._queue
            and not self.rob
        )

    def step(self) -> bool:
        """Advance one cycle through the five phases; a phase with no work
        is not entered. True when any phase acted."""
        self.cycle = cycle = self.cycle + 1
        if self._next_fill <= cycle:
            cache = self.cache
            for addr in cache.process_fills(cycle):
                self._mem_events.append(MemEvent(cycle, None, None, addr, "fill"))
            self._next_fill = min((m.fill_cycle for m in cache.mshrs), default=self._never)
        acted = False
        rob = self.rob
        if rob and (done := rob[0].complete_cycle) is not None and done < cycle:
            acted = self._commit()
        if self._alu_queue:
            acted |= self._issue_alu()
        if self._mem_queue:
            acted |= self._issue_mem()
        if cycle in self._completions or self._live_reps:
            acted |= self._complete()
        queue = self._queue
        if queue:
            acted |= self._dispatch()
        if self._redirect_stall or (
            len(queue) < self._queue_size
            and (self._expansion is not None or self.pc < self._n_instr)
        ):
            acted |= self._fetch_decode()
        occ = len(rob)
        self._occupancy.append(occ)
        if occ > self.stats.peak_occupancy:
            self.stats.peak_occupancy = occ
        assert occ <= self.config.rob_size
        return acted

    def run(self) -> Trace:
        """Step to halt, repeating idle cycles in one go (see the module
        docstring)."""
        stats = self.stats
        max_cycles = self.config.max_cycles
        n_instr, queue, rob = self._n_instr, self._queue, self.rob
        while self.pc < n_instr or self._expansion is not None or queue or rob:
            if self.cycle >= max_cycles:
                snapshot = [
                    (e.rob_seq, e.instr, e.opcode.value, e.dispatch_cycle,
                     e.exec_start_cycle, e.complete_cycle)
                    for e in self.rob
                ]
                raise SimulationLimitError(self.cycle, len(self.rob), snapshot)
            dispatch_stalls, decode_stalls = stats.dispatch_stalls, stats.decode_stalls
            if not self.step():
                self._repeat_idle(
                    stats.dispatch_stalls - dispatch_stalls,
                    stats.decode_stalls - decode_stalls,
                )
        stats.cycles = self.cycle
        return Trace(
            records=self._records,
            occupancy=self._occupancy,
            mem_events=self._mem_events,
            rep_expansions=self._rep_log,
            stats=stats,
            cache=self.cache,
        )

    def _repeat_idle(self, dispatch_stalls: int, decode_stalls: int) -> None:
        """Repeat the idle cycle just stepped, with its dispatch and decode
        stalls, up to just before the next completion or fill; never past
        max_cycles."""
        event = min(min(self._completions, default=self._never), self._next_fill)
        repeats = min(event - 1, self.config.max_cycles) - self.cycle
        self.cycle += repeats
        self._occupancy.extend(repeat(len(self.rob), repeats))
        self.stats.dispatch_stalls += dispatch_stalls * repeats
        self.stats.decode_stalls += decode_stalls * repeats

    # ------------------------------------------------------------------
    # commit

    def _commit(self) -> bool:
        rob, cycle, width = self.rob, self.cycle, self.config.commit_width
        regs, prod_map = self.regs, self._prod_map
        committed = 0
        while committed < width and rob:
            entry = rob[0]
            done = entry.complete_cycle
            if done is None or done >= cycle:
                break
            if entry.predicted:
                break  # predicted REP fill may still be squashed by verification
            assert not self._unresolved or self._unresolved[0] >= entry.rob_seq
            entry.commit_cycle = cycle
            dest = entry.dest
            if dest is not None and entry.result is not None:
                regs[dest] = entry.result
                if prod_map.get(dest) is entry:
                    del prod_map[dest]
            if entry.uop.kind is _MEM_WRITE and entry.address is not None:
                self.mem_values[entry.address] = entry.result or 0
            if entry.outcome == "deferred_hit":
                assert entry.address is not None and entry.mem_event is not None
                self.cache.touch(entry.address)
                entry.mem_event.applied = True
            rob.popleft()
            committed += 1
        self.stats.committed_uops += committed
        return committed > 0

    # ------------------------------------------------------------------
    # issue

    def _issue_alu(self) -> bool:
        queue, cycle, ports = self._alu_queue, self.cycle, self.config.alu_ports
        done = cycle + self.config.alu_latency - 1  # not before this cycle: latency >= 1
        completions, regs = self._completions, self.regs
        issued = 0
        while issued < ports and queue:
            entry = queue.pop(0)
            if entry.squash_cycle is not None:
                continue
            entry.exec_start_cycle = cycle
            weights, total, shift = entry.macro.alu_plan
            for (reg, producer), weight in zip(entry.src, weights):
                total += weight * (regs.get(reg, 0) if producer is None else producer.result)
            entry.result = total << shift
            completions.setdefault(done, []).append(entry)
            issued += 1
        return issued > 0

    def _issue_mem(self) -> bool:
        issued = 0
        i = 0
        queue = self._mem_queue
        oldest = self._unresolved[0] if self._unresolved else None
        while issued < self.config.load_ports and i < len(queue):
            entry = queue[i]
            if entry.squash_cycle is not None:
                queue.pop(i)
                continue
            if entry.address is None:
                entry.address = self._effective_address(entry)
            deferred = False  # a gated load runs only on a hit, effects deferred
            if self._gates_loads and oldest is not None and oldest < entry.rob_seq:
                if entry.uop.kind is _MEM_WRITE:
                    i += 1  # shadowed stores always wait for the shadow
                    continue
                deferred = not self._lifted(entry, oldest)
                if deferred and not self.cache.resident(entry.address):
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
                issued += 1  # the rejected attempt still occupied the port
                i += 1
                continue
            if result.fill_cycle is not None and result.fill_cycle < self._next_fill:
                self._next_fill = result.fill_cycle
            queue.pop(i)
            self._start_access(entry, result, deferred)
            issued += 1
        return issued > 0

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
        if entry.uop.kind is _MEM_READ:
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
        # latency >= 1, so due no earlier than this cycle's complete phase
        self._completions.setdefault(self.cycle + result.latency - 1, []).append(entry)

    def _lifted(self, entry: RobEntry, oldest: int | None) -> bool:
        if not self._lifts:
            return False
        if entry.esp_cycle is not None:
            return True
        if esp_check(entry, self.policy.safe_sets, self.rob, oldest):
            entry.esp_cycle = self.cycle
            return True
        return False

    def _effective_address(self, entry: RobEntry) -> int:
        mem = entry.macro.operands[1]
        assert isinstance(mem, Mem)
        base = 0
        if mem.base is not None:
            base = entry.value_of(mem.base.index, self.regs)
        return base + mem.offset

    # ------------------------------------------------------------------
    # complete / resolve / verify

    def _complete(self) -> bool:
        cycle = self.cycle
        due = self._completions.pop(cycle, None)
        if due is not None:
            if len(due) > 1:
                due.sort(key=lambda e: e.rob_seq)
            for entry in due:
                if entry.squash_cycle is not None:
                    continue
                entry.complete_cycle = cycle
                waiting = entry.dependents
                if waiting is not None:
                    entry.dependents = None
                    for dep in waiting:
                        if dep.squash_cycle is None:
                            dep.pending -= 1
                            if not dep.pending:
                                dep.ready_cycle = cycle + 1
                                self._enqueue_ready(dep)
                if entry.uop.kind is _BRANCH_RESOLVE:
                    self._resolve_branch(entry)
        acted = due is not None
        if self._live_reps:
            acted |= self._verify_predicted_reps()
        return acted

    def _resolve_branch(self, entry: RobEntry) -> None:
        cond = entry.value_of(entry.macro.operands[0].index, self.regs)
        taken = cond == 0  # branch-if-zero
        entry.result = int(taken)
        self.predictor.update(entry.instr, taken)
        self._unresolved.remove(entry.rob_seq)
        if taken == entry.predicted_taken:
            return
        target = self._targets[entry.instr] if taken else entry.instr + 1
        assert target is not None
        self._squash_after(entry.rob_seq, target, "branch", entry.instr)

    def _verifiable(self, rep: RepExpansion) -> bool:
        """A predicted expansion is checked once it has streamed in full, its
        first micro-op is dispatched and unshadowed, and its counter exists."""
        if rep.emitted < rep.target:
            return False
        first = rep.entries[0]
        # a dispatched first micro-op is itself unresolved, so the list is not empty
        if first.dispatch_cycle is None or self._unresolved[0] < first.rob_seq:
            return False
        assert rep.counter_producer is not None  # predicted only for an in-flight counter
        return rep.counter_producer.complete_cycle is not None

    def _verify_predicted_reps(self) -> bool:
        checked = False
        for rep in self._live_reps:
            if not self._verifiable(rep):
                continue
            checked = True
            first = rep.entries[0]
            value = rep.counter_producer.result or 0
            requested = rep_expansion_count(rep.opcode, value)
            true_target = min(requested, self.config.expansion_cap)
            rep.requested = requested
            if true_target == rep.emitted:
                rep.verified = True
                for entry in rep.entries:
                    entry.predicted = False
                self._unresolved.remove(first.rob_seq)
            else:
                rep.verified = False
                self._counted_rep = rep.instr
                self._squash_after(first.rob_seq - 1, rep.instr, "rep_verify", rep.instr)
                break  # every later expansion is younger, so squashed with it
        self._live_reps = [r for r in self._live_reps if r.verified is None]
        return checked

    def _squash_after(
        self, boundary_seq: int, new_pc: int, kind: str, source_instr: int
    ) -> None:
        removed = 0
        for queued in self._queue:
            queued.squash_cycle = self.cycle
            removed += 1
        self._queue.clear()
        self._expansion = None
        oldest = self._unresolved[0] if self._unresolved else None
        while self.rob and self.rob[-1].rob_seq > boundary_seq:
            entry = self.rob.pop()
            entry.squash_cycle = self.cycle
            entry.dependents = None
            if oldest is not None and oldest < entry.rob_seq:
                entry.shadow = oldest
            removed += 1
        self._unresolved = [s for s in self._unresolved if s <= boundary_seq]
        # the squash ends the expansion being decoded: one that emitted
        # nothing never will
        self._live_reps = [
            r for r in self._live_reps if r.entries and not r.entries[0].squashed
        ]
        # every survivor has dispatched; the youngest writer of each register wins
        self._prod_map = {e.dest: e for e in self.rob if e.dest is not None}
        self.pc = new_pc
        self._redirect_stall = True
        self.stats.squashes += 1
        self.stats.squash_log.append(
            SquashRecord(self.cycle, source_instr, kind, removed)
        )

    # ------------------------------------------------------------------
    # dispatch

    def _dispatch(self) -> bool:
        queue, rob, rob_size = self._queue, self.rob, self.config.rob_size
        cycle, unresolved, lifts = self.cycle, self._unresolved, self._lifts
        first = seq = self._next_seq
        while queue and len(rob) < rob_size:
            entry = queue.popleft()
            entry.rob_seq = seq
            entry.dispatch_cycle = cycle
            rob.append(entry)
            uop = entry.uop
            kind = uop.kind
            # a speculation source: a branch (unresolved until it completes,
            # never at dispatch) or the first micro-op of a predicted REP
            if kind is _BRANCH_RESOLVE or (entry.predicted and uop.seq == 0):
                unresolved.append(seq)
            seq += 1
            if kind is _NOP:  # jump, fence, pad, rep filler: no sources
                entry.ready_cycle = entry.complete_cycle = cycle
                continue
            pending = 0
            latest = cycle
            for _, producer in entry.src:
                if producer is None:
                    continue
                done = producer.complete_cycle
                if done is None:
                    if producer.dependents is None:
                        producer.dependents = [entry]
                    else:
                        producer.dependents.append(entry)
                    pending += 1
                elif done >= latest:
                    latest = done + 1
            if pending:
                entry.pending = pending
            else:
                entry.ready_cycle = latest
                self._enqueue_ready(entry)
            if lifts and (kind is _MEM_READ or kind is _MEM_WRITE):
                # the full ESP check on every memory micro-op: stamps esp at
                # dispatch when its safe set is empty or every older in-flight
                # instance of a member is at OSP (none in flight: settled)
                self._lifted(entry, unresolved[0] if unresolved else None)
        self._next_seq = seq
        if queue:
            self.stats.dispatch_stalls += 1  # the ROB is full
        return seq > first

    def _enqueue_ready(self, entry: RobEntry) -> None:
        """Queue an entry whose operands exist, ready this cycle or the next,
        so it may issue in the next issue phase. Queues stay in rob_seq
        order; an entry younger than every queued one is appended."""
        ready = entry.ready_cycle
        assert ready is not None and entry.dispatch_cycle <= ready <= self.cycle + 1
        kind = entry.uop.kind
        if kind is _BRANCH_RESOLVE:
            entry.exec_start_cycle = ready
            self._completions.setdefault(ready + 1, []).append(entry)
            return
        queue = self._alu_queue if kind is _ALU else self._mem_queue
        if not queue or queue[-1].rob_seq < entry.rob_seq:
            queue.append(entry)
        else:
            insort(queue, entry, key=lambda e: e.rob_seq)

    # ------------------------------------------------------------------
    # fetch / decode

    def _fetch_decode(self) -> bool:
        if self._redirect_stall:
            self._redirect_stall = False
            return True
        start = pc = self.pc
        width = self.config.decode_width
        queue, instructions = self._queue, self.program.instructions
        records, prod_map = self._records, self._prod_map
        slots = width
        while slots and len(queue) < self._queue_size:
            rep = self._expansion
            if rep is not None:
                entry = RobEntry(  # a filler reads and writes no register
                    MicroOp(rep.instr, rep.emitted, _NOP), instructions[rep.instr],
                    len(records), (), None, rep.predicted,
                )
                queue.append(entry)
                records.append(entry)
                rep.emitted += 1
                if rep.predicted:
                    rep.entries.append(entry)
                if rep.emitted >= rep.target:
                    self._expansion = None
                slots -= 1
                continue
            if pc >= self._n_instr:
                break
            macro = instructions[pc]
            opcode = macro.opcode
            if opcode is _FENCE and (self.rob or queue):
                self.stats.decode_stalls += 1  # a fence decodes once drained
                break
            if opcode in REP_OPCODES:
                if not self._begin_rep(macro):
                    self.stats.decode_stalls += 1
                    break
                pc += 1
                continue  # zero-count expansion advances pc without a slot
            uop, src_regs, dest = macro.decoded
            src = tuple([(r, prod_map.get(r)) for r in src_regs]) if src_regs else ()
            entry = RobEntry(uop, macro, len(records), src, dest)
            if dest is not None:
                prod_map[dest] = entry  # the youngest producer of its register
            queue.append(entry)
            records.append(entry)
            if opcode is _BRANCH:
                predicted = self.predictor.predict(pc)
                entry.predicted_taken = predicted
                pc = self._targets[pc] if predicted else pc + 1
            elif opcode is _JUMP:
                pc = self._targets[pc]
            else:
                pc += 1
            slots -= 1
        self.pc = pc
        return slots < width or pc != start

    def _begin_rep(self, macro: MacroInstruction) -> bool:
        """Start expanding a REP macro; the caller moves the pc past it and
        fetch streams its micro-ops. False means decode stalls: its
        in-flight counter must be bypassed first (not a re-expansion, no
        predicted fill)."""
        counter_reg = macro.operands[0].index
        producer = self._prod_map.get(counter_reg)
        counted = self._counted_rep == macro.id
        if counted:
            self._counted_rep = None
        elif not self._predicted_fill and producer is not None and not producer.complete:
            return False
        if not counted and producer is not None and self._predicted_fill:
            rep = RepExpansion(
                instr=macro.id,
                opcode=macro.opcode,
                predicted=True,
                requested=None,
                target=REP_PREDICTED_COUNT,
                counter_producer=producer,
            )
            self._live_reps.append(rep)
        else:
            # a re-expansion reads what its check read: the squash kept the
            # counter's producer, in flight or committed to the register file
            if producer is not None:
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
        self._rep_log.append(rep)
        if rep.target:
            self._expansion = rep
        return True


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
]
