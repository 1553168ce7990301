"""Attack program builders, receivers, and one run of the secret recovery.

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

The attacker's priming is part of each program: ``.warm`` the secret
line, ``.flush`` the probe and window lines, ``.predict`` the branches
labeled ``window:`` (and ``gate:``) not taken. ``Simulator`` applies it, so
a prepared scenario's printed program replays its trial 0 under ``robsim sim``,
but only when it was built for the default ``MachineConfig`` at jitter 0.
``sim`` always runs the default machine, so a program built for another
does not replay: ``fsi_v1_loop`` built at ROB 768 with secret 1 peaks at
306 entries in ``run_single`` and at 64 under ``sim``.

The secret is an input of a run, not of the program's instructions. Both
secrets run the same instructions: a builder makes the program once per
(name, machine) without it, and ``with_secret`` overlays the bit as the
initial value at ``SECRET_ADDR`` (and, for ``fsi_v1_straight``, as the
``.predict`` direction of its trained gate) without parsing again. So one
``prepare``, and one static analysis of the program, serves both secrets of
every cell, and ``robsim.experiment.judge`` runs the two. The secret lives
only in the program's data: ``run_single`` reads the ground truth back from
``SECRET_ADDR`` and refuses a program that has none there.

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
)
from .cache import CacheConfig
from .core import MachineConfig, RobEntry, Simulator, Trace
from .defenses import (
    DefenseMode,
    DefensePolicy,
    Mitigation,
    certify_balanced,
)
from .isa import Program, REP_OPCODES, parse_program

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


class ObservationKind(Enum):
    PROBE_LATENCY = "probe_latency"  # access latency of the committed probe
    COMPLETION_DELAY = "completion_delay"  # completion minus first-ready, inclusive
    COMPLETION_CYCLE = "completion_cycle"  # absolute completion cycle
    SET_ORDER = "set_order"  # mru-first tags of the conflict set


@dataclass(frozen=True)
class Receiver:
    """What the receiver observes and how it decodes it: a SET_ORDER
    snapshot by the tag at its head, every other kind by `threshold`."""

    observation: ObservationKind
    threshold: float | None = None
    set_index: int | None = None
    signal_tag: int | None = None  # tag at the head means secret=1


@dataclass
class Scenario:
    name: str
    program: Program
    machine: MachineConfig
    receiver: Receiver
    probe_label: str = "target"
    balance_branch: int | None = None  # secret-selected branch, if its paths pad
    trained_gate: str | None = None  # label predicted in its real direction: taken iff secret == 0

    @property
    def probe_instr(self) -> int:
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


def _check_secret(secret: int) -> None:
    if secret not in (0, 1):
        raise ScenarioError(f"secret must be 0 or 1, got {secret!r}")


def _check_v1_config(machine: MachineConfig) -> None:
    if machine.core.rob_size > machine.core.expansion_cap:
        raise ScenarioError(
            "rob_size exceeds the rep expansion cap; the jam cannot fill the buffer"
        )


def _setup(flush: tuple[int, ...], predict: tuple[str, ...], warm=(SECRET_ADDR,)) -> list[str]:
    """Directives priming a run: `warm` lines resident, then `flush` lines
    evicted, and each labeled branch in `predict` forced not taken."""
    return [*(f".warm {a}" for a in warm), *(f".flush {a}" for a in flush),
            *(f".predict {label} not_taken" for label in predict)]


def _window_prologue(window_value: int = 0) -> list[str]:
    lines = [
        f".data {WINDOW_ADDR} {window_value}",
        f"load r2, [{WINDOW_ADDR}]",
    ]
    lines += ["alu r2, r2, 0"] * WINDOW_CHAIN
    lines.append(f"load r1, [{SECRET_ADDR}]")
    return lines


def _latency_receiver(cache: CacheConfig) -> Receiver:
    threshold = (cache.hit_cycles + cache.miss_cycles) / 2
    return Receiver(ObservationKind.PROBE_LATENCY, threshold=threshold)


def _build_v1_loop(machine: MachineConfig) -> Scenario:
    """Forward interference, v1 timing receiver: a secret-gated loop jams the ROB."""
    _check_v1_config(machine)
    trips = machine.core.rob_size
    lines = _setup((PROBE_ADDR, WINDOW_ADDR), ("window", "gate")) + _window_prologue()
    lines += [
        "window: branch r2, target",  # forced not-taken, actually taken
        "gate: branch r1, target",  # secret gate: taken skips the jam
        f"alu r7, r7, {trips}",
        "loop: alu r3, r3, 1",
        "alu r7, r7, -1",
        "branch r7, target",
        "jump loop",
        f"target: load r4, [{PROBE_ADDR}]",
    ]
    program = parse_program("\n".join(lines))
    return Scenario(
        name="fsi_v1_loop",
        program=program,
        machine=machine,
        receiver=_latency_receiver(machine.cache),
        balance_branch=program.labels["gate"],
    )


def _build_v1_rep(machine: MachineConfig) -> Scenario:
    """Forward interference, v1 timing receiver: a secret-sized REP fills the ROB."""
    _check_v1_config(machine)
    lines = _setup((PROBE_ADDR, WINDOW_ADDR), ("window",)) + _window_prologue()
    lines += [
        "window: branch r2, target",
        "setshift r1, r1, 10",  # repetition factor: secret << 10
        "rep_movs r1",
        f"target: load r4, [{PROBE_ADDR}]",
    ]
    return Scenario(
        name="fsi_v1_rep",
        program=parse_program("\n".join(lines)),
        machine=machine,
        receiver=_latency_receiver(machine.cache),
        balance_branch=None,  # the length channel is the expansion, not a branch
    )


STRAIGHT_LONG_UOPS = 10
STRAIGHT_SHORT_UOPS = 3


def _build_v1_straight(machine: MachineConfig) -> Scenario:
    """Forward interference, v1 timing receiver: secret-selected straight-line paths."""
    _check_v1_config(machine)
    # the window value is nonzero: the window branch is correctly predicted
    # not taken, so the probe commits in place; with_secret trains the gate
    lines = _setup((PROBE_ADDR, WINDOW_ADDR), ("window",)) + _window_prologue(1)
    lines += [
        "window: branch r2, target",
        "gate: branch r1, short",
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
    gate_branch = program.labels["gate"]
    # the probe is fetched 24+short or 24+long+1 uops into the stream; with no
    # decode stalls its completion cycle follows directly, and the receiver
    # thresholds at the midpoint of the two structural outcomes
    core, cache = machine.core, machine.cache
    stream_base = gate_branch + 1
    completions = []
    for path in (STRAIGHT_SHORT_UOPS, STRAIGHT_LONG_UOPS + 1):
        decode = 1 + (stream_base + path) // core.decode_width
        completions.append(decode + 2 + cache.miss_cycles - 1)
    return Scenario(
        name="fsi_v1_straight",
        program=program,
        machine=machine,
        receiver=Receiver(ObservationKind.COMPLETION_CYCLE, threshold=sum(completions) / 2),
        balance_branch=gate_branch,
        trained_gate="gate",
    )


def _build_fsi_v2(machine: MachineConfig) -> Scenario:
    """Replacement-state receiver: fill order of a conflicting pair."""
    cache = machine.cache
    if cache.ways != 1:
        raise ScenarioError("fsi_v2_order needs a direct-mapped cache (ways=1)")
    if CONFLICT_ADDR_A % cache.num_sets != CONFLICT_ADDR_B % cache.num_sets:
        raise ScenarioError(
            f"addresses {CONFLICT_ADDR_A} and {CONFLICT_ADDR_B} do not map to "
            f"the same set of a {cache.num_sets}-set cache"
        )
    gadget = machine.core.rob_size + 16
    flush = (CONFLICT_ADDR_A, CONFLICT_ADDR_B, WINDOW_ADDR)
    lines = _setup(flush, ("window", "gate")) + _window_prologue()
    lines += [
        "window: branch r2, normal",  # forced not-taken, actually taken
        "gate: branch r1, target",  # secret gate
    ]
    lines += ["alu r3, r3, 1"] * gadget
    lines += [
        f"normal: load r5, [{CONFLICT_ADDR_A}]",
        f"target: load r4, [{CONFLICT_ADDR_B}]",
    ]
    return Scenario(
        name="fsi_v2_order",
        program=parse_program("\n".join(lines)),
        machine=machine,
        receiver=Receiver(
            ObservationKind.SET_ORDER,
            set_index=CONFLICT_ADDR_A % cache.num_sets,
            signal_tag=CONFLICT_ADDR_B,
        ),
        # padding equalizes timing, but this receiver reads replacement
        # state; the channel survives any pad count, so balancing is out
        balance_branch=None,
    )


def _build_bsi_mshr(machine: MachineConfig) -> Scenario:
    """Backward interference: speculative misses stall an older load."""
    entries = machine.cache.mshr_entries
    if entries is not None and entries < 2:
        raise ScenarioError("bsi_mshr needs at least two miss-table entries")
    gadget = entries if entries is not None else 10
    shift = 12
    stride = machine.cache.num_sets
    if (1 << shift) % stride != 0:
        raise ScenarioError("gadget shift must preserve set mapping")
    warm = (SECRET_ADDR,) + tuple(BSI_GADGET_BASE + i for i in range(gadget))
    lines = _setup((WINDOW_ADDR,), ("window",), warm) + [
        f".data {WINDOW_ADDR} 0",
        f"load r2, [{WINDOW_ADDR}]",
        f"load r1, [{SECRET_ADDR}]",
        f"setshift r5, r1, {shift}",  # secret=1 retargets the gadget to cold tags
        "alu r2, r2, 0",
        "alu r2, r2, 0",
        f"measure: load r9, [r2+{BSI_TARGET_OFFSET}]",
        "window: branch r2, done",  # forced not-taken, actually taken
    ]
    lines += [f"load r6, [r5+{BSI_GADGET_BASE + i}]" for i in range(gadget)]
    lines.append("done: nop")
    return Scenario(
        name="bsi_mshr",
        program=parse_program("\n".join(lines)),
        machine=machine,
        receiver=Receiver(
            ObservationKind.COMPLETION_DELAY,
            threshold=float(machine.cache.miss_cycles),
        ),
        probe_label="measure",
        balance_branch=None,  # the channel is address selection, not path length
    )


_BUILDERS = {
    "fsi_v1_loop": _build_v1_loop,
    "fsi_v1_rep": _build_v1_rep,
    "fsi_v1_straight": _build_v1_straight,
    "fsi_v2_order": _build_fsi_v2,
    "bsi_mshr": _build_bsi_mshr,
}

SCENARIO_NAMES = tuple(_BUILDERS)


def build_scenario(
    name: str, secret: int, machine: MachineConfig | None = None
) -> Scenario:
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ScenarioError(
            f"unknown scenario {name!r}; expected one of {', '.join(SCENARIO_NAMES)}"
        ) from None
    return with_secret(builder(machine or MachineConfig()), secret)


def with_secret(scenario: Scenario, secret: int) -> Scenario:
    """The scenario run with `secret`. Its program is an overlay that shares
    every instruction and label, and so the resolved branch targets; only
    the initial value at SECRET_ADDR and the trained gate's `.predict`
    direction, if the scenario has one, follow the secret."""
    _check_secret(secret)
    predict = {} if scenario.trained_gate is None else {scenario.trained_gate: secret == 0}
    program = scenario.program.overlay(data_init={SECRET_ADDR: secret}, predict=predict)
    return replace(scenario, program=program)


class ProgramAnalysis:
    """Safe sets and path profiles of one program as written.

    Each is computed on first use and then kept, so every cell of a sweep
    that runs the program shares one analysis; both use the CFG and
    post-dominator tree that robsim.analysis keeps on the program.
    """

    def __init__(self, program: Program, cap: int):
        self.program = program
        self.cap = cap  # the expansion cap the path profiles count to

    @cached_property
    def safe_sets(self) -> dict[int, int]:
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
    return replace(scenario, program=program), policy


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

    The policy holds `analysis` (of the program as written) when given,
    else an analysis of the program itself, and derives its safe sets from
    it. path_balancing pads `balance_branch` and certifies the result, or
    refuses when there is no such branch or its paths are variable-length;
    the rewritten program is analyzed afresh. Returns the program the
    policy describes, rewritten if balanced.
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
        program = balance_paths(program, balance_branch, cap)
        certificate = certify_balanced(program, balance_branch, cap)
        analysis = None  # it describes the program as written
    if analysis is None:
        analysis = ProgramAnalysis(program, cap)
    assert analysis.program is program and analysis.cap == cap
    return program, DefensePolicy(mode, mitigations, analysis, certificate)


def run_single(
    scenario: Scenario, policy: DefensePolicy, trial: int = 0
) -> tuple[Trace, ScenarioReport]:
    """One independent run: fresh core and cache, then the blind receiver."""
    secret = scenario.program.data_init.get(SECRET_ADDR)
    if secret is None:
        raise ScenarioError(f"{scenario.name}: no secret to run with; apply with_secret")
    machine = scenario.machine
    if machine.jitter_amplitude:
        machine = replace(machine, jitter_seed=machine.jitter_seed + trial)
    trace = Simulator(scenario.program, machine, policy).run()
    observation = _observe(scenario, trace)
    report = ScenarioReport(
        trial=trial,
        observation=observation,
        inferred_secret=infer_secret(observation, scenario.receiver),
        ground_truth=secret,
        occupancy_peak=trace.stats.peak_occupancy,
    )
    return trace, report


def _committed_probe(scenario: Scenario, trace: Trace) -> RobEntry:
    """The probe instruction's last committed instance."""
    probe = scenario.probe_instr
    for entry in reversed(trace.records):
        if entry.commit_cycle is not None and entry.macro.id == probe:
            return entry
    raise ScenarioError(f"{scenario.name}: probe instruction never committed")


def _observe(scenario: Scenario, trace: Trace):
    kind = scenario.receiver.observation
    if kind is ObservationKind.SET_ORDER:
        assert scenario.receiver.set_index is not None
        return tuple(trace.cache.snapshot_set(scenario.receiver.set_index))
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
    if receiver.observation is ObservationKind.SET_ORDER:
        return 1 if observation and observation[0] == receiver.signal_tag else 0
    assert receiver.threshold is not None
    return 1 if observation > receiver.threshold else 0


__all__ = [
    "ObservationKind",
    "ProgramAnalysis",
    "Receiver",
    "SCENARIO_NAMES",
    "Scenario",
    "ScenarioError",
    "ScenarioReport",
    "build_scenario",
    "infer_secret",
    "prepare",
    "prepare_program",
    "run_single",
    "with_secret",
]
