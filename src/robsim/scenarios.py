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

Receivers are deliberately blind: ``infer_secret`` sees the observation
and the receiver configuration, never the ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

from .analysis import analyze_all_branches, balance_paths, compute_safe_sets, conservative_filter
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
    ground_truth_secret: int
    forced_predictions: dict[int, bool]
    warm_addresses: tuple[int, ...] = ()
    flush_addresses: tuple[int, ...] = ()
    probe_label: str | None = "target"
    balance_branch: int | None = None  # secret-selected branch, if its paths pad

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


def _check_secret(secret: int) -> int:
    if secret not in (0, 1):
        raise ScenarioError(f"secret must be 0 or 1, got {secret!r}")
    return secret


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


def build_fsi_v1(
    variant: str, secret: int, machine: MachineConfig | None = None
) -> Scenario:
    """Forward-interference attack: v1 timing receiver, three gadget shapes."""
    machine = machine or MachineConfig()
    _check_secret(secret)
    _check_v1_config(machine)
    if variant == "loop":
        return _build_v1_loop(secret, machine)
    if variant == "rep":
        return _build_v1_rep(secret, machine)
    if variant == "straight":
        return _build_v1_straight(secret, machine)
    raise ScenarioError(f"unknown fsi_v1 variant {variant!r}")


def _timing_receiver(cache: CacheConfig) -> Receiver:
    threshold = (cache.hit_cycles + cache.miss_cycles) / 2
    return Receiver(ReceiverKind.TIMING_THRESHOLD, threshold=threshold)


def _build_v1_loop(secret: int, machine: MachineConfig) -> Scenario:
    trips = machine.core.rob_size
    lines = _window_prologue()
    lines += [
        f".data {SECRET_ADDR} {secret}",
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
    exit_branch = gate_branch + 3
    return Scenario(
        name="fsi_v1_loop",
        program=program,
        machine=machine,
        receiver=_timing_receiver(machine.cache),
        observation=ObservationKind.PROBE_LATENCY,
        ground_truth_secret=secret,
        forced_predictions={window_branch: False, gate_branch: False},
        warm_addresses=(SECRET_ADDR,),
        flush_addresses=(PROBE_ADDR, WINDOW_ADDR),
        balance_branch=gate_branch,
    )


def _build_v1_rep(secret: int, machine: MachineConfig) -> Scenario:
    lines = _window_prologue()
    lines += [
        f".data {SECRET_ADDR} {secret}",
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
        ground_truth_secret=secret,
        forced_predictions={window_branch: False},
        warm_addresses=(SECRET_ADDR,),
        flush_addresses=(PROBE_ADDR, WINDOW_ADDR),
        balance_branch=None,  # the length channel is the expansion, not a branch
    )


STRAIGHT_LONG_UOPS = 10
STRAIGHT_SHORT_UOPS = 3


def _build_v1_straight(secret: int, machine: MachineConfig) -> Scenario:
    lines = [
        f".data {WINDOW_ADDR} 1",  # nonzero: the window branch is correctly
        f"load r2, [{WINDOW_ADDR}]",  # not taken, so the probe commits in place
    ]
    lines += ["alu r2, r2, 0"] * WINDOW_CHAIN
    lines += [
        f"load r1, [{SECRET_ADDR}]",
        f".data {SECRET_ADDR} {secret}",
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
        ground_truth_secret=secret,
        forced_predictions={
            window_branch: False,  # correct: the window value is nonzero
            gate_branch: secret == 0,  # trained gate predicts its real direction
        },
        warm_addresses=(SECRET_ADDR,),
        flush_addresses=(PROBE_ADDR, WINDOW_ADDR),
        balance_branch=gate_branch,
    )


def build_fsi_v2(
    secret: int,
    machine: MachineConfig | None = None,
    addr_a: int = CONFLICT_ADDR_A,
    addr_b: int = CONFLICT_ADDR_B,
) -> Scenario:
    """Replacement-state receiver: fill order of a conflicting pair."""
    machine = machine or MachineConfig()
    _check_secret(secret)
    cache = machine.cache
    if cache.ways != 1:
        raise ScenarioError("fsi_v2_order needs a direct-mapped cache (ways=1)")
    if addr_a == addr_b:
        raise ScenarioError("conflict pair is degenerate: A == B")
    if addr_a % cache.num_sets != addr_b % cache.num_sets:
        raise ScenarioError(
            f"addresses {addr_a} and {addr_b} do not map to the same set"
        )
    gadget = machine.core.rob_size + 16
    lines = _window_prologue()
    lines += [
        f".data {SECRET_ADDR} {secret}",
        "branch r2, normal",  # forced not-taken, actually taken
        "branch r1, target",  # secret gate
    ]
    lines += ["alu r3, r3, 1"] * gadget
    lines += [
        f"normal: load r5, [{addr_a}]",
        f"target: load r4, [{addr_b}]",
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
            set_index=addr_a % cache.num_sets,
            signal_tag=addr_b,
        ),
        observation=ObservationKind.SET_ORDER,
        ground_truth_secret=secret,
        forced_predictions={window_branch: False, gate_branch: False},
        warm_addresses=(SECRET_ADDR,),
        flush_addresses=(addr_a, addr_b, WINDOW_ADDR),
        # padding equalizes timing, but this receiver reads replacement
        # state; the channel survives any pad count, so balancing is out
        balance_branch=None,
    )


def build_bsi_mshr(secret: int, machine: MachineConfig | None = None) -> Scenario:
    """Backward interference: speculative misses stall an older load."""
    machine = machine or MachineConfig()
    _check_secret(secret)
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
        f".data {SECRET_ADDR} {secret}",
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
        ground_truth_secret=secret,
        forced_predictions={branch: False},
        warm_addresses=warm,
        flush_addresses=(WINDOW_ADDR,),
        probe_label="measure",
        balance_branch=None,  # the channel is address selection, not path length
    )


_BUILDERS = {
    "fsi_v1_loop": lambda s, m: build_fsi_v1("loop", s, m),
    "fsi_v1_rep": lambda s, m: build_fsi_v1("rep", s, m),
    "fsi_v1_straight": lambda s, m: build_fsi_v1("straight", s, m),
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
    return builder(secret, machine)


def prepare(
    scenario: Scenario,
    mode: DefenseMode,
    mitigations: frozenset[Mitigation] | set[Mitigation] = frozenset(),
) -> tuple[Scenario, DefensePolicy]:
    """Derive the defense policy for a scenario, rewriting it if balancing.

    Safe sets come from the program itself; conservative_invariance widens
    them behind unequal branches. path_balancing pads the secret-selected
    branch and certifies the result, or refuses when no such branch exists
    or its paths are variable-length.
    """
    mitigations = frozenset(mitigations)
    program = scenario.program
    if Mitigation.CONSERVATIVE_INVARIANCE in mitigations and mode is not DefenseMode.DOM_PLUS_INVARSPEC:
        raise ScenarioError(
            "conservative_invariance filters safe sets and applies only "
            "under dom_plus_invarspec"
        )
    if Mitigation.OPERAND_INDEPENDENT_FILL in mitigations and not any(
        i.opcode in REP_OPCODES for i in program.instructions
    ):
        raise ScenarioError(
            f"{scenario.name}: operand_independent_fill does not apply; "
            "the program contains no rep expansion"
        )
    certificate = None
    if Mitigation.PATH_BALANCING in mitigations:
        if scenario.balance_branch is None:
            raise ScenarioError(
                f"{scenario.name}: path balancing does not apply; the secret "
                "does not select between fixed-length paths"
            )
        program = balance_paths(program, scenario.balance_branch)
        certificate = certify_balanced(program, [scenario.balance_branch])
        scenario = replace_program(scenario, program)
    safe_sets = None
    if mode is DefenseMode.DOM_PLUS_INVARSPEC:
        safe_sets = compute_safe_sets(program)
        if Mitigation.CONSERVATIVE_INVARIANCE in mitigations:
            profiles = analyze_all_branches(program, scenario.machine.core.expansion_cap)
            safe_sets = conservative_filter(safe_sets, profiles, len(program))
    policy = DefensePolicy(
        mode=mode,
        mitigations=mitigations,
        safe_sets=safe_sets,
        balance_certificate=certificate,
    )
    return scenario, policy


def replace_program(scenario: Scenario, program: Program) -> Scenario:
    """Scenario with a rewritten program.

    Balancing only inserts uops after the balanced branch, so every id the
    scenario references (forced branches, the balanced branch itself) is
    stable; the probe relocates but is tracked by label. Verified here.
    """
    for branch in scenario.forced_predictions:
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
    "run_single",
    "run_trials",
]
