"""Attack program builders, receivers, and the secret-recovery loop.

Every scenario shares one skeleton: a long-latency "window" load whose
dependent branch stays unresolved for tens of cycles, a secret fetched
from a warm line (so a hit-only policy still lets the attacker read it),
secret-conditioned contention, and a measurement instruction whose
timing or cache footprint a blind receiver converts back into the bit.

``fsi_v1_loop``   secret gates a loop that jams the reorder buffer, so
                  the probe load cannot start until the window branch
                  resolves and squashes; probe latency flips hit/miss.
``fsi_v1_rep``    same jam produced by a rep-string expansion whose
                  micro-op count is the shifted secret.
``fsi_v1_straight`` fixed 10-uop gadget vs a 3-uop short path; the probe
                  still executes early but its completion cycle shifts
                  with the fetched path length. This variant exists so
                  path balancing has something it can legally rewrite.
``fsi_v2_order``  direct-mapped conflict pair: which of two loads fills
                  last decides the survivor tag in the set.
``bsi_mshr``      the inverse direction: younger speculative misses fill
                  the miss-handling table and stall an older bound-to-
                  commit load. Kept as a comparison baseline.

The secret is an input of a run, not of the program. Both secrets run the
same instructions: a builder makes the program once per (name, machine)
without it, and ``with_secret`` overlays the bit as the initial value at
``SECRET_ADDR`` (and, for ``fsi_v1_straight``, as the trained gate's
prediction) without parsing again. So one ``prepare``, and one static
analysis of the program, serves both secrets of every cell.

Receivers are deliberately blind: ``infer_secret`` sees the observation
and the receiver configuration, never the ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property

from .analysis import (
    PathProfile,
    analyze_all_branches,
    balance_paths,
    compute_safe_sets,
    conservative_filter,
)
from .cache import CacheConfig
from .core import BranchPredictor, MachineConfig, RobEntry, Simulator, Trace
from .defenses import (
    DefenseMode,
    DefensePolicy,
    Mitigation,
    certify_balanced,
)
from .isa import Opcode, Program, REP_OPCODES, parse_program

SCENARIO_NAMES = (
    "fsi_v1_loop",
    "fsi_v1_rep",
    "fsi_v1_straight",
    "fsi_v2_order",
    "bsi_mshr",
)

SECRET_ADDR = 8
WINDOW_ADDR = 16
PROBE_ADDR = 40
CONFLICT_ADDR_A = 12
CONFLICT_ADDR_B = 76
BSI_TARGET_OFFSET = 50
BSI_GADGET_BASE = 20
WINDOW_CHAIN = 20  # dependent alu chain keeping the window branch open


class ScenarioError(ValueError):
    pass


class ReceiverKind(Enum):
    TIMING_THRESHOLD = "timing_threshold"
    SET_ORDER = "set_order"


class ObservationKind(Enum):
    PROBE_LATENCY = "probe_latency"  # access latency of the committed probe
    COMPLETION_DELAY = "completion_delay"  # completion minus first-ready, inclusive
    COMPLETION_CYCLE = "completion_cycle"  # absolute completion cycle
    SET_ORDER = "set_order"  # mru-first tags of the conflict set


@dataclass(frozen=True)
class Receiver:
    kind: ReceiverKind
    threshold: float | None = None
    set_index: int | None = None
    signal_tag: int | None = None  # tag at the head means secret=1


@dataclass
class Scenario:
    name: str
    program: Program
    machine: MachineConfig
    receiver: Receiver
    observation: ObservationKind
    forced_predictions: dict[int, bool]
    warm_addresses: tuple[int, ...] = ()
    flush_addresses: tuple[int, ...] = ()
    probe_label: str | None = "target"
    balance_branch: int | None = None  # secret-selected branch, if its paths pad
    trained_gate: int | None = None  # predicted in its real direction: taken iff secret == 0
    ground_truth_secret: int | None = None  # set by with_secret; None until then

    @property
    def probe_instr(self) -> int | None:
        if self.probe_label is None:
            return None
        return self.program.labels[self.probe_label]


@dataclass(frozen=True)
class ScenarioReport:
    """One trial's outcome; its cell (scenario, defense, mitigations) is
    held by whoever collects the reports."""

    trial: int
    observation: object
    inferred_secret: int
    ground_truth: int
    occupancy_peak: int


REPORT_FIELDS = [
    "trial",
    "scenario",
    "defense",
    "mitigations",
    "observation",
    "inferred",
    "truth",
    "occupancy_peak",
]


def _check_secret(secret: int) -> None:
    if secret not in (0, 1):
        raise ScenarioError(f"secret must be 0 or 1, got {secret!r}")


def _check_v1_config(machine: MachineConfig) -> None:
    if machine.core.rob_size > machine.core.expansion_cap:
        raise ScenarioError(
            "rob_size exceeds the rep expansion cap; the jam cannot fill the buffer"
        )


def _window_prologue() -> list[str]:
    lines = [
        f".data {WINDOW_ADDR} 0",
        f"load r2, [{WINDOW_ADDR}]",
    ]
    lines += ["alu r2, r2, 0"] * WINDOW_CHAIN
    lines.append(f"load r1, [{SECRET_ADDR}]")
    return lines


def build_fsi_v1(variant: str, machine: MachineConfig | None = None) -> Scenario:
    """Forward-interference attack: v1 timing receiver, three gadget shapes."""
    machine = machine or MachineConfig()
    _check_v1_config(machine)
    if variant == "loop":
        return _build_v1_loop(machine)
    if variant == "rep":
        return _build_v1_rep(machine)
    if variant == "straight":
        return _build_v1_straight(machine)
    raise ScenarioError(f"unknown fsi_v1 variant {variant!r}")


def _timing_receiver(cache: CacheConfig) -> Receiver:
    threshold = (cache.hit_cycles + cache.miss_cycles) / 2
    return Receiver(ReceiverKind.TIMING_THRESHOLD, threshold=threshold)


def _build_v1_loop(machine: MachineConfig) -> Scenario:
    trips = machine.core.rob_size
    lines = _window_prologue()
    lines += [
        "branch r2, target",  # window branch: forced not-taken, actually taken
        "branch r1, target",  # secret gate: taken skips the jam
        f"alu r7, r7, {trips}",
        "loop: alu r3, r3, 1",
        "alu r7, r7, -1",
        "branch r7, target",
        "jump loop",
        f"target: load r4, [{PROBE_ADDR}]",
    ]
    program = parse_program("\n".join(lines))
    window_branch = WINDOW_CHAIN + 2
    gate_branch = window_branch + 1
    return Scenario(
        name="fsi_v1_loop",
        program=program,
        machine=machine,
        receiver=_timing_receiver(machine.cache),
        observation=ObservationKind.PROBE_LATENCY,
        forced_predictions={window_branch: False, gate_branch: False},
        warm_addresses=(SECRET_ADDR,),
        flush_addresses=(PROBE_ADDR, WINDOW_ADDR),
        balance_branch=gate_branch,
    )


def _build_v1_rep(machine: MachineConfig) -> Scenario:
    lines = _window_prologue()
    lines += [
        "branch r2, target",
        "setshift r1, r1, 10",  # repetition factor: secret << 10
        "rep_movs r1",
        f"target: load r4, [{PROBE_ADDR}]",
    ]
    program = parse_program("\n".join(lines))
    window_branch = WINDOW_CHAIN + 2
    return Scenario(
        name="fsi_v1_rep",
        program=program,
        machine=machine,
        receiver=_timing_receiver(machine.cache),
        observation=ObservationKind.PROBE_LATENCY,
        forced_predictions={window_branch: False},
        warm_addresses=(SECRET_ADDR,),
        flush_addresses=(PROBE_ADDR, WINDOW_ADDR),
        balance_branch=None,  # the length channel is the expansion, not a branch
    )


STRAIGHT_LONG_UOPS = 10
STRAIGHT_SHORT_UOPS = 3


def _build_v1_straight(machine: MachineConfig) -> Scenario:
    lines = [
        f".data {WINDOW_ADDR} 1",  # nonzero: the window branch is correctly
        f"load r2, [{WINDOW_ADDR}]",  # not taken, so the probe commits in place
    ]
    lines += ["alu r2, r2, 0"] * WINDOW_CHAIN
    lines += [
        f"load r1, [{SECRET_ADDR}]",
        "branch r2, target",
        "branch r1, short",
    ]
    lines += ["alu r3, r3, 1"] * STRAIGHT_LONG_UOPS
    lines += [
        "jump target",
        "short: alu r6, r6, 1",
        "alu r6, r6, 1",
        "alu r6, r6, 1",
        f"target: load r4, [{PROBE_ADDR}]",
    ]
    program = parse_program("\n".join(lines))
    window_branch = WINDOW_CHAIN + 2
    gate_branch = window_branch + 1
    # the probe is fetched 24+short or 24+long+1 uops into the stream; with no
    # decode stalls its completion cycle follows directly, and the receiver
    # thresholds at the midpoint of the two structural outcomes
    core, cache = machine.core, machine.cache
    stream_base = gate_branch + 1
    completions = []
    for path in (STRAIGHT_SHORT_UOPS, STRAIGHT_LONG_UOPS + 1):
        decode = 1 + (stream_base + path) // core.decode_width
        completions.append(decode + 2 + cache.miss_cycles - 1)
    receiver = Receiver(
        ReceiverKind.TIMING_THRESHOLD, threshold=sum(completions) / 2
    )
    return Scenario(
        name="fsi_v1_straight",
        program=program,
        machine=machine,
        receiver=receiver,
        observation=ObservationKind.COMPLETION_CYCLE,
        forced_predictions={window_branch: False},  # correct: the window value is nonzero
        warm_addresses=(SECRET_ADDR,),
        flush_addresses=(PROBE_ADDR, WINDOW_ADDR),
        balance_branch=gate_branch,
        trained_gate=gate_branch,
    )


def build_fsi_v2(machine: MachineConfig | None = None) -> Scenario:
    """Replacement-state receiver: fill order of a conflicting pair."""
    machine = machine or MachineConfig()
    cache = machine.cache
    if cache.ways != 1:
        raise ScenarioError("fsi_v2_order needs a direct-mapped cache (ways=1)")
    if CONFLICT_ADDR_A % cache.num_sets != CONFLICT_ADDR_B % cache.num_sets:
        raise ScenarioError(
            f"addresses {CONFLICT_ADDR_A} and {CONFLICT_ADDR_B} do not map to "
            f"the same set of a {cache.num_sets}-set cache"
        )
    gadget = machine.core.rob_size + 16
    lines = _window_prologue()
    lines += [
        "branch r2, normal",  # forced not-taken, actually taken
        "branch r1, target",  # secret gate
    ]
    lines += ["alu r3, r3, 1"] * gadget
    lines += [
        f"normal: load r5, [{CONFLICT_ADDR_A}]",
        f"target: load r4, [{CONFLICT_ADDR_B}]",
    ]
    program = parse_program("\n".join(lines))
    window_branch = WINDOW_CHAIN + 2
    gate_branch = window_branch + 1
    return Scenario(
        name="fsi_v2_order",
        program=program,
        machine=machine,
        receiver=Receiver(
            ReceiverKind.SET_ORDER,
            set_index=CONFLICT_ADDR_A % cache.num_sets,
            signal_tag=CONFLICT_ADDR_B,
        ),
        observation=ObservationKind.SET_ORDER,
        forced_predictions={window_branch: False, gate_branch: False},
        warm_addresses=(SECRET_ADDR,),
        flush_addresses=(CONFLICT_ADDR_A, CONFLICT_ADDR_B, WINDOW_ADDR),
        # padding equalizes timing, but this receiver reads replacement
        # state; the channel survives any pad count, so balancing is out
        balance_branch=None,
    )


def build_bsi_mshr(machine: MachineConfig | None = None) -> Scenario:
    """Backward interference: speculative misses stall an older load."""
    machine = machine or MachineConfig()
    entries = machine.cache.mshr_entries
    if entries is not None and entries < 2:
        raise ScenarioError("bsi_mshr needs at least two miss-table entries")
    gadget = entries if entries is not None else 10
    shift = 12
    stride = machine.cache.num_sets
    if (1 << shift) % stride != 0:
        raise ScenarioError("gadget shift must preserve set mapping")
    lines = [
        f".data {WINDOW_ADDR} 0",
        f"load r2, [{WINDOW_ADDR}]",
        f"load r1, [{SECRET_ADDR}]",
        f"setshift r5, r1, {shift}",  # secret=1 retargets the gadget to cold tags
        "alu r2, r2, 0",
        "alu r2, r2, 0",
        f"measure: load r9, [r2+{BSI_TARGET_OFFSET}]",
        "branch r2, done",  # forced not-taken, actually taken
    ]
    lines += [f"load r6, [r5+{BSI_GADGET_BASE + i}]" for i in range(gadget)]
    lines.append("done: nop")
    program = parse_program("\n".join(lines))
    branch = 6
    warm = (SECRET_ADDR,) + tuple(BSI_GADGET_BASE + i for i in range(gadget))
    return Scenario(
        name="bsi_mshr",
        program=program,
        machine=machine,
        receiver=Receiver(
            ReceiverKind.TIMING_THRESHOLD,
            threshold=float(machine.cache.miss_cycles),
        ),
        observation=ObservationKind.COMPLETION_DELAY,
        forced_predictions={branch: False},
        warm_addresses=warm,
        flush_addresses=(WINDOW_ADDR,),
        probe_label="measure",
        balance_branch=None,  # the channel is address selection, not path length
    )


_BUILDERS = {
    "fsi_v1_loop": lambda m: build_fsi_v1("loop", m),
    "fsi_v1_rep": lambda m: build_fsi_v1("rep", m),
    "fsi_v1_straight": lambda m: build_fsi_v1("straight", m),
    "fsi_v2_order": build_fsi_v2,
    "bsi_mshr": build_bsi_mshr,
}


def build_scenario(
    name: str, secret: int, machine: MachineConfig | None = None
) -> Scenario:
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ScenarioError(
            f"unknown scenario {name!r}; expected one of {', '.join(SCENARIO_NAMES)}"
        ) from None
    return with_secret(builder(machine), secret)


def with_secret(scenario: Scenario, secret: int) -> Scenario:
    """The scenario run with `secret`. Its program shares every instruction
    and label; only the initial value at SECRET_ADDR and the trained gate's
    prediction, if the scenario has one, follow the secret."""
    _check_secret(secret)
    program = replace(
        scenario.program, data_init={**scenario.program.data_init, SECRET_ADDR: secret}
    )
    forced = scenario.forced_predictions
    if scenario.trained_gate is not None:
        forced = {**forced, scenario.trained_gate: secret == 0}
    return replace(
        scenario, program=program, forced_predictions=forced, ground_truth_secret=secret
    )


@dataclass(eq=False)
class ProgramAnalysis:
    """Safe sets and path profiles of one program as written.

    Each is computed on first use and then kept, so every cell of a sweep
    that runs the program shares one analysis.
    """

    program: Program
    cap: int

    @cached_property
    def safe_sets(self) -> dict[int, frozenset[int]]:
        return compute_safe_sets(self.program)

    @cached_property
    def profiles(self) -> dict[int, PathProfile]:
        return analyze_all_branches(self.program, self.cap)


def prepare(
    scenario: Scenario,
    mode: DefenseMode,
    mitigations: frozenset[Mitigation] | set[Mitigation] = frozenset(),
    analysis: ProgramAnalysis | None = None,
) -> tuple[Scenario, DefensePolicy]:
    """Derive the defense policy for a scenario, rewriting it if balancing.

    `analysis`, when given, is of `scenario.program` and is shared with
    other cells; without it the program is analyzed afresh.
    """
    program, policy = prepare_program(
        scenario.program,
        mode,
        mitigations,
        name=scenario.name,
        cap=scenario.machine.core.expansion_cap,
        balance_branch=scenario.balance_branch,
        analysis=analysis,
    )
    if program is not scenario.program:
        scenario = replace_program(scenario, program)
    return scenario, policy


def prepare_program(
    program: Program,
    mode: DefenseMode,
    mitigations: frozenset[Mitigation] | set[Mitigation],
    *,
    name: str,
    cap: int,
    balance_branch: int | None = None,
    analysis: ProgramAnalysis | None = None,
) -> tuple[Program, DefensePolicy]:
    """Check that each mitigation applies to `program`, then derive its policy.

    Safe sets come from `analysis` (of the program as written) when given,
    else from the program itself; conservative_invariance widens them
    behind unequal branches. path_balancing pads `balance_branch` and
    certifies the result, or refuses when there is no such branch or its
    paths are variable-length; the rewritten program is analyzed afresh.
    Returns the program the policy describes, rewritten if balanced.
    """
    mitigations = frozenset(mitigations)
    if Mitigation.CONSERVATIVE_INVARIANCE in mitigations and mode is not DefenseMode.DOM_PLUS_INVARSPEC:
        raise ScenarioError(
            "conservative_invariance filters safe sets and applies only "
            "under dom_plus_invarspec"
        )
    if Mitigation.OPERAND_INDEPENDENT_FILL in mitigations and not any(
        i.opcode in REP_OPCODES for i in program.instructions
    ):
        raise ScenarioError(
            f"{name}: operand_independent_fill does not apply; "
            "the program contains no rep expansion"
        )
    certificate = None
    if Mitigation.PATH_BALANCING in mitigations:
        if balance_branch is None:
            raise ScenarioError(
                f"{name}: path balancing does not apply; the secret "
                "does not select between fixed-length paths"
            )
        program = balance_paths(program, balance_branch)
        certificate = certify_balanced(program, balance_branch)
        analysis = None  # it describes the program as written
    if analysis is None:
        analysis = ProgramAnalysis(program, cap)
    assert analysis.program is program and analysis.cap == cap
    safe_sets = None
    if mode is DefenseMode.DOM_PLUS_INVARSPEC:
        safe_sets = analysis.safe_sets
        if Mitigation.CONSERVATIVE_INVARIANCE in mitigations:
            safe_sets = conservative_filter(safe_sets, analysis.profiles, len(program))
    policy = DefensePolicy(
        mode=mode,
        mitigations=mitigations,
        safe_sets=safe_sets,
        balance_certificate=certificate,
    )
    return program, policy


def replace_program(scenario: Scenario, program: Program) -> Scenario:
    """Scenario with a rewritten program.

    Balancing only inserts uops after the balanced branch, so every id the
    scenario references (forced branches, the balanced branch itself) is
    stable; the probe relocates but is tracked by label. Verified here.
    """
    branches = [*scenario.forced_predictions]
    if scenario.trained_gate is not None:
        branches.append(scenario.trained_gate)
    for branch in branches:
        if program.instructions[branch].opcode is not Opcode.BRANCH:
            raise ScenarioError(
                f"rewrite moved branch {branch}; scenario ids no longer hold"
            )
    if scenario.probe_label is not None and scenario.probe_label not in program.labels:
        raise ScenarioError(f"rewrite dropped label {scenario.probe_label!r}")
    return replace(scenario, program=program)


def run_single(
    scenario: Scenario, policy: DefensePolicy, trial: int = 0
) -> tuple[Trace, ScenarioReport]:
    """One independent run: fresh core and cache, then the blind receiver."""
    if scenario.ground_truth_secret is None:
        raise ScenarioError(f"{scenario.name}: no secret to run with; apply with_secret")
    machine = scenario.machine
    if machine.jitter_amplitude:
        machine = replace(machine, jitter_seed=machine.jitter_seed + trial)
    sim = Simulator(
        scenario.program,
        machine,
        policy,
        BranchPredictor(scenario.forced_predictions),
    )
    for addr in scenario.warm_addresses:
        sim.cache.warm(addr)
    for addr in scenario.flush_addresses:
        sim.cache.flush(addr)
    trace = sim.run()
    observation = _observe(scenario, sim, trace)
    report = ScenarioReport(
        trial=trial,
        observation=observation,
        inferred_secret=infer_secret(observation, scenario.receiver),
        ground_truth=scenario.ground_truth_secret,
        occupancy_peak=trace.stats.peak_occupancy,
    )
    return trace, report


def run_trials(
    scenario: Scenario, policy: DefensePolicy, n_trials: int
) -> list[ScenarioReport]:
    if n_trials < 1:
        raise ScenarioError(f"n_trials must be at least 1, got {n_trials}")
    return [run_single(scenario, policy, t)[1] for t in range(n_trials)]


def _committed_probe(scenario: Scenario, trace: Trace) -> RobEntry:
    instr = scenario.probe_instr
    assert instr is not None
    entries = trace.committed_for(instr)
    if not entries:
        raise ScenarioError(f"{scenario.name}: probe instruction never committed")
    return entries[-1]


def _observe(scenario: Scenario, sim: Simulator, trace: Trace):
    kind = scenario.observation
    if kind is ObservationKind.SET_ORDER:
        assert scenario.receiver.set_index is not None
        return tuple(sim.cache.snapshot_set(scenario.receiver.set_index))
    probe = _committed_probe(scenario, trace)
    if kind is ObservationKind.PROBE_LATENCY:
        return probe.latency
    if kind is ObservationKind.COMPLETION_DELAY:
        assert probe.complete_cycle is not None and probe.ready_cycle is not None
        return probe.complete_cycle - probe.ready_cycle + 1
    if kind is ObservationKind.COMPLETION_CYCLE:
        return probe.complete_cycle
    raise AssertionError(f"unhandled observation kind {kind}")


def infer_secret(observation, receiver: Receiver) -> int:
    """Blind decoder: observation plus receiver config, nothing else."""
    if receiver.kind is ReceiverKind.TIMING_THRESHOLD:
        assert receiver.threshold is not None
        return 1 if observation > receiver.threshold else 0
    if receiver.kind is ReceiverKind.SET_ORDER:
        return 1 if observation and observation[0] == receiver.signal_tag else 0
    raise AssertionError(f"unhandled receiver kind {receiver.kind}")


def format_observation(observation) -> str:
    if isinstance(observation, tuple):
        return "|".join(str(tag) for tag in observation)
    return str(observation)


__all__ = [
    "ObservationKind",
    "ProgramAnalysis",
    "Receiver",
    "ReceiverKind",
    "REPORT_FIELDS",
    "SCENARIO_NAMES",
    "Scenario",
    "ScenarioError",
    "ScenarioReport",
    "build_bsi_mshr",
    "build_fsi_v1",
    "build_fsi_v2",
    "build_scenario",
    "infer_secret",
    "prepare",
    "prepare_program",
    "run_single",
    "run_trials",
    "with_secret",
]
