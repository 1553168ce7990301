"""Cycle-stepped out-of-order core with a bounded reorder buffer.

Each cycle runs five phases in a fixed order: commit, issue,
complete/resolve, dispatch, fetch/decode. The ordering encodes the timing
conventions the traces rely on:

* an entry never issues the cycle it dispatches (issue runs earlier in
  the cycle than dispatch);
* a result completing at cycle c wakes consumers for issue at c+1 and
  commits no earlier than c+1;
* a branch resolves one cycle after its operand is ready, and on a
  mispredict the squash lands that cycle with fetch redirected the next;
* a squash is final: consumers wake after the cycle's squashes, so no
  stamp of a squashed entry is later than its squash cycle, and a
  consumer squashed in the cycle its last producer completes has no ready.

Fetch runs ahead of a full reorder buffer into a small decode queue, so
back-pressure from a jammed ROB is visible as dispatch stalls rather
than fetch stalls. Dispatch has no width of its own: each cycle it moves,
in order, every queued micro-op that fits into the ROB. The queue holds
2 * decode_width micro-ops, so up to that many dispatch in one cycle,
more than decode_width when commit frees several ROB entries behind a
stall. REP opcodes expand at decode, reading the counter from the
youngest in-flight producer (bypass) and stalling decode until that
value exists; under the operand-independent fill mitigation a
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

Each run fact is stored once. A memory access is read off its record
(address, issue cycle as exec_start, outcome, latency); the trace's
`mem_events` log holds only the fills, each a `MemEvent` of cycle and line.
A deferred access is one whose outcome is `deferred_hit`: it leaves the
replacement order alone at issue, and commit `touch`es its line, so its
update was applied exactly when its record committed.

An entry's stage is read off its cycle stamps (dispatch, exec_start,
complete, then commit or squash), each written once; no status is kept.
Whether an entry is shadowed is read off `_unresolved`, the rob_seqs of
the unresolved speculation sources in age order: it is, exactly when the
oldest of them is older than the entry. The `shadow` column records that
source for a squashed entry, stamped once at the squash.

One private per-cycle body, `Simulator._advance`, runs every cycle of
`step()` and of `run()`, with the core's queues, maps and config loaded
into local names once. Commit, ALU issue, completion with consumer
wake-up, dispatch and fetch/decode are inline in it; the rare paths stay
methods: `_issue_mem`, `_resolve_branch`, `_verify_predicted_reps`,
`_squash_after`, `_begin_rep`, `_lifted` (the ESP check) and
`_enqueue_ready` (the one route of a source-ready entry). Each container
it holds is changed only in place, so a squash leaves it no stale copy.
`step()` runs the body for exactly one cycle and returns whether any phase
acted. `run()` runs it to halt, handing each cycle in which no phase
acted to `_repeat_idle`. Such a cycle changes nothing a later cycle reads
(fills land before the phases; a load's address is memoised and squashed
entries leave the issue queues), so every later cycle repeats it until
the next completion or fill; `_repeat_idle` records them in one go, the
same occupancy and dispatch and decode stalls each, never past
max_cycles. That skip is all that tells `run()` from repeated `step()`.

The body enters a phase only when it has work: fills only when
`cache.next_fill`, the earliest MSHR fill the cache keeps, is due; commit
only when the ROB head completed before this cycle; complete only when a
completion is due this cycle or a predicted REP awaits verification; fetch
only when a redirect is pending, or when the decode queue has room and an
expansion is active or the pc is inside the program; issue and dispatch
only when their queue is non-empty.
A NOP-class micro-op (jump, fence, pad, REP filler) reads no register and
never issues: dispatch stamps it ready and complete in its own cycle, and
appends any other ready entry to its issue queue (it is the youngest).

A producer's list of waiting consumers is made when the first of them
dispatches and set to None once it has woken them or is squashed, so a
finished run holds no reference cycle and is freed by reference counting
alone. What decode and issue read off an instruction (its micro-op, source
and destination registers, ALU and memory plans) is worked out once per
instruction object, and the branch targets once per program object: so
once per program, not per run. Per micro-op, decode builds one RobEntry
(a REP filler also its numbered MicroOp), whose position in the trace's
records is its `instance` column, and whose `src` holds the in-flight
producer of each register of `decoded.src`, in that order (None: the
register file's value), and the later phases stamp that entry in place.
"""

from __future__ import annotations

import csv
import io
from bisect import insort
from collections import deque
from dataclasses import dataclass, field, fields
from itertools import repeat
from operator import attrgetter
from typing import Mapping

from .cache import CacheConfig, CacheState, refuse_unknown_keys, require_integer
from .defenses import REP_PREDICTED_COUNT, DefensePolicy, esp_check
from .isa import (
    ADDRESS_SPACE,
    DEFAULT_EXPANSION_CAP,
    MacroInstruction,
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
_rob_seq = attrgetter("rob_seq")


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
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        for name, value in values.items():
            require_integer(value, name)
        for name, value in values.items():
            if value < 1:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class MachineConfig:
    core: CoreConfig = field(default_factory=CoreConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    # a fresh miss of a line takes miss_cycles + cache.miss_offset(jitter_seed,
    # line, jitter_amplitude) cycles, the offset in [-amplitude, amplitude];
    # amplitude < miss_cycles - hit_cycles keeps a jittered miss slower than a hit
    jitter_amplitude: int = 0
    jitter_seed: int = 0

    def __post_init__(self) -> None:
        require_integer(self.jitter_amplitude, "jitter_amplitude")
        require_integer(self.jitter_seed, "jitter_seed")
        if self.jitter_amplitude < 0:
            raise ValueError("jitter amplitude cannot be negative")
        gap = self.cache.miss_cycles - self.cache.hit_cycles
        if self.jitter_amplitude >= gap:
            raise ValueError(
                f"jitter amplitude {self.jitter_amplitude} must be below "
                f"miss_cycles - hit_cycles = {gap}, or a jittered miss can be "
                "as fast as a hit"
            )

    @classmethod
    def from_mapping(cls, mapping: Mapping) -> MachineConfig:
        """The machine that a config's `core`, `cache`, `jitter` and `seed`
        keys describe, a missing key at its default. Each refusal is a
        ValueError naming the key (`core.rob_size must be an integer, got
        64.5`, `bad core config: max_cycles must be positive`)."""
        refuse_unknown_keys(mapping, MACHINE_KEYS, "machine")
        values = {}
        for key, section_class in (("core", CoreConfig), ("cache", CacheConfig)):
            section = mapping.get(key, {})
            if not isinstance(section, Mapping):
                raise ValueError(f"{key} must be a mapping of keys to integers, got {section!r}")
            refuse_unknown_keys(section, {f.name for f in fields(section_class)}, key)
            try:
                values[key] = section_class(**section)
            except TypeError as exc:  # it names the field that is no integer
                raise ValueError(f"{key}.{exc}") from None
            except ValueError as exc:
                raise ValueError(f"bad {key} config: {exc}") from None
        try:
            for key, name in (("jitter", "jitter_amplitude"), ("seed", "jitter_seed")):
                if key in mapping:
                    values[name] = require_integer(mapping[key], key)
        except TypeError as exc:
            raise ValueError(str(exc)) from None
        return cls(**values)


# the keys of a config mapping that MachineConfig.from_mapping reads
MACHINE_KEYS = ("core", "cache", "jitter", "seed")


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
    """A line filling at `cycle`; an access is read off its record."""

    cycle: int
    address: int
    kind: str = "fill"


@dataclass(slots=True)
class RobEntry:
    uop: MicroOp
    macro: MacroInstruction
    # the in-flight producer of each register in macro.decoded.src, in
    # that order; None where the register file holds the value
    src: tuple["RobEntry | None", ...] = ()
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

    def value_of(self, slot: int, regfile: dict[int, int]) -> int:
        """The value of source register `slot` of macro.decoded.src: its
        producer's result, else the register file's."""
        producer = self.src[slot]
        if producer is None:
            return regfile.get(self.macro.decoded.src[slot], 0)
        assert producer.result is not None
        return producer.result


@dataclass
class RepExpansion:
    instr: int
    predicted: bool
    requested: int | None  # true 2n / 5n+12 count; set at verification if predicted
    target: int  # micro-ops this instance emits (predicted: REP_PREDICTED_COUNT)
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
    """What a run leaves: each decoded micro-op's record, in decode order
    (its position is its `instance`), holding every stamp and the outcome
    of its memory access; the end-of-cycle occupancy; the fills, in the
    order they landed, as `mem_events`; each REP expansion; the run's
    counters, its program and its final cache."""

    records: list[RobEntry]
    occupancy: list[int]
    mem_events: list[MemEvent]
    rep_expansions: list[RepExpansion]
    stats: SimStats
    program: Program
    cache: CacheState  # the run's final cache

    def committed(self) -> list[RobEntry]:
        return [e for e in self.records if e.commit_cycle is not None]

    def committed_for(self, instr: int) -> list[RobEntry]:
        return [e for e in self.committed() if e.macro.id == instr]

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(CSV_FIELDS)
        for instance, e in enumerate(self.records):
            writer.writerow(
                [
                    instance,
                    e.macro.id,
                    e.macro.opcode.value,
                    e.uop.seq,
                    e.rob_seq if e.rob_seq >= 0 else "",
                    _cell(e.dispatch_cycle),
                    _cell(e.ready_cycle),
                    _cell(e.exec_start_cycle),
                    _cell(e.complete_cycle),
                    _cell(e.commit_cycle),
                    _cell(e.shadow),
                    int(e.squash_cycle is not None),
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
        self.machine = machine = machine or MachineConfig()
        self.config = self.machine.core
        self.policy = policy = policy or DefensePolicy()
        self._gates_loads = policy.gates_loads
        self._lifts = policy.lifts_invariant
        if self._lifts:  # an overlay shares its program's instruction list
            analyzed = policy.analysis.program.instructions
            if analyzed is not program.instructions and analyzed != program.instructions:
                raise ValueError("the policy's safe sets are of another program")
        self._predicted_fill = policy.predicted_fill
        self.predictor = BranchPredictor(
            {program.labels[name]: taken for name, taken in program.predict.items()}
        )
        self.cache = CacheState(
            machine.cache, jitter_amplitude=machine.jitter_amplitude, jitter_seed=machine.jitter_seed
        )
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
        """Advance exactly one cycle, with no idle-cycle skipping; True when
        any phase acted."""
        return self._advance(to_halt=False)

    def run(self) -> Trace:
        """Advance to halt, repeating idle cycles in one go (see the module
        docstring)."""
        self._advance(to_halt=True)
        stats = self.stats
        stats.cycles = self.cycle
        return Trace(
            records=self._records,
            occupancy=self._occupancy,
            mem_events=self._mem_events,
            rep_expansions=self._rep_log,
            stats=stats,
            program=self.program,
            cache=self.cache,
        )

    def _repeat_idle(self, dispatch_stalls: int, decode_stalls: int) -> None:
        """Repeat the idle cycle just run, with its dispatch and decode
        stalls, up to just before the next completion or fill; never past
        max_cycles."""
        event = min((self.cache.next_fill, *self._completions))
        repeats = min(event - 1, self.config.max_cycles) - self.cycle
        self.cycle += repeats
        self._occupancy.extend(repeat(len(self.rob), repeats))
        self.stats.dispatch_stalls += dispatch_stalls * repeats
        self.stats.decode_stalls += decode_stalls * repeats

    # ------------------------------------------------------------------
    # the per-cycle body

    def _advance(self, to_halt: bool) -> bool:
        """The per-cycle body behind step() and run() (see the module
        docstring). With to_halt, cycles until the program halts, handing
        each idle cycle to _repeat_idle; without, exactly one cycle.
        Returns whether the last cycle's phases acted. A plain loop, not a
        generator: a suspended frame would keep the simulator alive."""
        config, stats = self.config, self.stats
        commit_width, alu_ports = config.commit_width, config.alu_ports
        alu_latency, rob_size = config.alu_latency, config.rob_size
        decode_width, max_cycles = config.decode_width, config.max_cycles
        rob, queue, queue_size = self.rob, self._queue, self._queue_size
        prod_map, unresolved, live_reps = self._prod_map, self._unresolved, self._live_reps
        completions, alu_queue, mem_queue = self._completions, self._alu_queue, self._mem_queue
        records, occupancy, regs = self._records, self._occupancy, self.regs
        cache, mem_events = self.cache, self._mem_events
        instructions, targets, n_instr = self.program.instructions, self._targets, self._n_instr
        predict, enqueue_ready, lifts = self.predictor.predict, self._enqueue_ready, self._lifts
        cycle = self.cycle
        while True:
            if to_halt:
                if self.pc >= n_instr and self._expansion is None and not queue and not rob:
                    return False
                if cycle >= max_cycles:
                    snapshot = [
                        (e.rob_seq, e.macro.id, e.macro.opcode.value, e.dispatch_cycle,
                         e.exec_start_cycle, e.complete_cycle)
                        for e in rob
                    ]
                    raise SimulationLimitError(cycle, len(rob), snapshot)
            self.cycle = cycle = cycle + 1
            acted = dispatch_stalled = decode_stalled = False

            if cache.next_fill <= cycle:
                for addr in cache.process_fills(cycle):
                    mem_events.append(MemEvent(cycle, addr))

            # commit: in order, from the head, once complete before this cycle
            committed = 0
            while rob and committed < commit_width:
                entry = rob[0]
                done = entry.complete_cycle
                if done is None or done >= cycle or entry.predicted:
                    break  # a predicted REP fill may still be squashed by verification
                assert not unresolved or unresolved[0] >= entry.rob_seq
                entry.commit_cycle = cycle
                dest = entry.dest
                if dest is not None and entry.result is not None:
                    regs[dest] = entry.result
                    if prod_map.get(dest) is entry:
                        del prod_map[dest]
                if entry.uop.kind is _MEM_WRITE and entry.address is not None:
                    self.mem_values[entry.address] = entry.result or 0
                if entry.outcome == "deferred_hit":
                    cache.touch(entry.address)
                rob.popleft()
                committed += 1
            if committed:
                stats.committed_uops += committed
                acted = True

            # issue: ALU inline, memory through _issue_mem
            if alu_queue:
                done = cycle + alu_latency - 1  # not before this cycle: latency >= 1
                issued = 0
                while issued < alu_ports and alu_queue:
                    entry = alu_queue.pop(0)
                    if entry.squash_cycle is not None:
                        continue
                    entry.exec_start_cycle = cycle
                    plan, total, shift = entry.macro.alu_plan
                    for producer, (reg, weight) in zip(entry.src, plan):
                        value = regs.get(reg, 0) if producer is None else producer.result
                        total += weight * value
                    entry.result = total << shift
                    completions.setdefault(done, []).append(entry)
                    issued += 1
                if issued:
                    acted = True
            if mem_queue and self._issue_mem():
                acted = True

            # complete / resolve / verify, then wake consumers once the
            # cycle's squashes are done, so no squashed entry is woken
            due = completions.pop(cycle, None)
            if due is not None:
                acted = True
                if len(due) > 1:
                    due.sort(key=_rob_seq)
                for entry in due:
                    if entry.squash_cycle is None:
                        entry.complete_cycle = cycle
                        if entry.uop.kind is _BRANCH_RESOLVE:
                            self._resolve_branch(entry)
            if live_reps and self._verify_predicted_reps():
                acted = True
            if due is not None:
                for entry in due:
                    if (waiting := entry.dependents) is not None:
                        entry.dependents = None
                        for dep in waiting:
                            dep.pending -= 1
                            if not dep.pending and dep.squash_cycle is None:
                                dep.ready_cycle = cycle + 1
                                enqueue_ready(dep)

            # dispatch: in order into the ROB while it has room
            if queue:
                first = seq = self._next_seq
                room = rob_size - len(rob)
                stop = first + (room if room < len(queue) else len(queue))
                while seq < stop:
                    entry = queue.popleft()
                    entry.rob_seq = seq
                    entry.dispatch_cycle = cycle
                    rob.append(entry)
                    uop = entry.uop
                    kind = uop.kind
                    # a speculation source: a branch (unresolved until it
                    # completes, never at dispatch) or the first micro-op of
                    # a predicted REP
                    if kind is _BRANCH_RESOLVE or (entry.predicted and uop.seq == 0):
                        unresolved.append(seq)
                    seq += 1
                    if kind is _NOP:  # jump, fence, pad, rep filler: no sources
                        entry.ready_cycle = entry.complete_cycle = cycle
                        continue
                    pending = 0
                    latest = cycle
                    for producer in entry.src:
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
                        enqueue_ready(entry)
                    if lifts and (kind is _MEM_READ or kind is _MEM_WRITE):
                        # the full ESP check on every memory micro-op: stamps
                        # esp at dispatch when its safe set is empty or every
                        # older in-flight instance of a member is at OSP (none
                        # in flight: settled)
                        self._lifted(entry, unresolved[0] if unresolved else None)
                self._next_seq = seq
                if seq > first:
                    acted = True
                if queue:
                    stats.dispatch_stalls += 1  # the ROB is full
                    dispatch_stalled = True

            # fetch / decode: a redirect costs this cycle, then up to
            # decode_width micro-ops into the decode queue
            if self._redirect_stall:
                self._redirect_stall = False
                acted = True
            elif (room := queue_size - len(queue)) > 0 and (
                self._expansion is not None or self.pc < n_instr
            ):
                start = pc = self.pc
                rep = self._expansion
                # decode adds to the queue and nothing else takes from it
                free = slots = room if room < decode_width else decode_width
                while slots:
                    if rep is not None:
                        entry = RobEntry(  # a filler reads and writes no register
                            MicroOp(rep.instr, rep.emitted, _NOP), instructions[rep.instr],
                            (), None, rep.predicted,
                        )
                        queue.append(entry)
                        records.append(entry)
                        rep.emitted += 1
                        if rep.predicted:
                            rep.entries.append(entry)
                        if rep.emitted >= rep.target:
                            self._expansion = rep = None
                        slots -= 1
                        continue
                    if pc >= n_instr:
                        break
                    macro = instructions[pc]
                    opcode = macro.opcode
                    if opcode is _FENCE and (rob or queue):
                        stats.decode_stalls += 1  # a fence decodes once drained
                        decode_stalled = True
                        break
                    if opcode in REP_OPCODES:
                        if not self._begin_rep(macro):
                            stats.decode_stalls += 1
                            decode_stalled = True
                            break
                        rep = self._expansion
                        pc += 1
                        continue  # zero-count expansion advances pc without a slot
                    uop, src_regs, dest = macro.decoded
                    if len(src_regs) == 1:  # most micro-ops; a 1-tuple builds fastest
                        src = (prod_map.get(src_regs[0]),)
                    else:
                        src = tuple(map(prod_map.get, src_regs))
                    entry = RobEntry(uop, macro, src, dest)
                    if dest is not None:
                        prod_map[dest] = entry  # the youngest producer of its register
                    queue.append(entry)
                    records.append(entry)
                    if opcode is _BRANCH:
                        predicted = predict(pc)
                        entry.predicted_taken = predicted
                        pc = targets[pc] if predicted else pc + 1
                    elif opcode is _JUMP:
                        pc = targets[pc]
                    else:
                        pc += 1
                    slots -= 1
                self.pc = pc
                if slots < free or pc != start:
                    acted = True

            occ = len(rob)
            occupancy.append(occ)
            if occ > stats.peak_occupancy:
                stats.peak_occupancy = occ
            assert occ <= rob_size
            if not to_halt:
                return acted
            if not acted:
                self._repeat_idle(dispatch_stalled, decode_stalled)
                cycle = self.cycle

    # ------------------------------------------------------------------
    # the phases' rare paths: memory issue, branch resolution, REP
    # verification and squash, REP decode, ESP, wake-up

    def _issue_mem(self) -> bool:
        """Issue up to load_ports memory micro-ops, oldest first; stamp each
        accepted access on its entry and schedule its completion. A deferred
        hit leaves the replacement order alone until commit touches the line."""
        queue, cycle, cache, regs = self._mem_queue, self.cycle, self.cache, self.regs
        oldest = self._unresolved[0] if self._unresolved else None
        issued = i = 0
        while issued < self.config.load_ports and i < len(queue):
            entry = queue[i]
            if entry.squash_cycle is not None:
                queue.pop(i)
                continue
            address = entry.address
            if address is None:  # memoised: a held access keeps its address
                slot, address = entry.macro.mem_plan
                if slot is not None:  # a run-time address wraps into the address space
                    address = (address + entry.value_of(slot, regs)) % ADDRESS_SPACE
                entry.address = address
            deferred = False  # a gated load runs only on a hit, effects deferred
            if self._gates_loads and oldest is not None and oldest < entry.rob_seq:
                if entry.uop.kind is _MEM_WRITE:
                    i += 1  # shadowed stores always wait for the shadow
                    continue
                deferred = not self._lifted(entry, oldest)
                if deferred and not cache.resident(address):
                    i += 1
                    continue
            outcome, latency = cache.access(address, cycle, deferred)
            if outcome == "mshr_stall":
                issued += 1  # the rejected attempt still occupied the port
                i += 1
                continue
            queue.pop(i)
            entry.exec_start_cycle = cycle
            entry.latency = latency
            entry.outcome = outcome
            if entry.uop.kind is _MEM_READ:
                entry.result = self.mem_values.get(address, 0)
            else:  # a store's value register comes first in its sources
                entry.result = entry.value_of(0, regs)
            # latency >= 1, so due no earlier than this cycle's complete phase
            self._completions.setdefault(cycle + latency - 1, []).append(entry)
            issued += 1
        return issued > 0

    def _lifted(self, entry: RobEntry, oldest: int | None) -> bool:
        if not self._lifts:
            return False
        if entry.esp_cycle is not None:
            return True
        if esp_check(entry, self.policy.safe_sets, self.rob, oldest):
            entry.esp_cycle = self.cycle
            return True
        return False

    def _resolve_branch(self, entry: RobEntry) -> None:
        # a branch's one source is its condition; it branches if zero
        taken = entry.value_of(0, self.regs) == 0
        entry.result = int(taken)
        instr = entry.macro.id
        self.predictor.update(instr, taken)
        self._unresolved.remove(entry.rob_seq)
        if taken == entry.predicted_taken:
            return
        target = self._targets[instr] if taken else instr + 1
        assert target is not None
        self._squash_after(entry.rob_seq, target, "branch", instr)

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
        live_reps = self._live_reps
        for rep in live_reps:
            if not self._verifiable(rep):
                continue
            checked = True
            first = rep.entries[0]
            value = rep.counter_producer.result or 0
            requested = rep_expansion_count(self.program.instructions[rep.instr].opcode, value)
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
        live_reps[:] = [r for r in live_reps if r.verified is None]
        return checked

    def _squash_after(
        self, boundary_seq: int, new_pc: int, kind: str, source_instr: int
    ) -> None:
        """Squash every entry younger than boundary_seq and redirect fetch
        to new_pc; every container is changed in place."""
        removed = 0
        for queued in self._queue:
            queued.squash_cycle = self.cycle
            removed += 1
        self._queue.clear()
        self._expansion = None
        unresolved = self._unresolved
        oldest = unresolved[0] if unresolved else None
        while self.rob and self.rob[-1].rob_seq > boundary_seq:
            entry = self.rob.pop()
            entry.squash_cycle = self.cycle
            entry.dependents = None
            if oldest is not None and oldest < entry.rob_seq:
                entry.shadow = oldest
            removed += 1
        unresolved[:] = [s for s in unresolved if s <= boundary_seq]
        # the squash ends the expansion being decoded: one that emitted
        # nothing never will
        self._live_reps[:] = [
            r for r in self._live_reps if r.entries and r.entries[0].squash_cycle is None
        ]
        # every survivor has dispatched; the youngest writer of each register wins
        prod_map = self._prod_map
        prod_map.clear()
        prod_map.update((e.dest, e) for e in self.rob if e.dest is not None)
        self.pc = new_pc
        self._redirect_stall = True
        self.stats.squashes += 1
        self.stats.squash_log.append(
            SquashRecord(self.cycle, source_instr, kind, removed)
        )

    def _enqueue_ready(self, entry: RobEntry) -> None:
        """The one route of a source-ready entry, at dispatch or woken by
        its last producer: a branch resolves the cycle after it is ready,
        the rest join their issue queue, kept in rob_seq order."""
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
            insort(queue, entry, key=_rob_seq)

    def _begin_rep(self, macro: MacroInstruction) -> bool:
        """Start expanding a REP macro; the caller moves the pc past it and
        fetch streams its micro-ops. False means decode stalls: its
        in-flight counter must be bypassed first (not a re-expansion, no
        predicted fill)."""
        counter_reg = macro.decoded.src[0]
        producer = self._prod_map.get(counter_reg)
        counted = self._counted_rep == macro.id
        if counted:
            self._counted_rep = None
        elif not self._predicted_fill and producer is not None and producer.complete_cycle is None:
            return False
        if not counted and producer is not None and self._predicted_fill:
            rep = RepExpansion(
                instr=macro.id,
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
            rep = RepExpansion(instr=macro.id, predicted=False, requested=requested, target=target)
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
