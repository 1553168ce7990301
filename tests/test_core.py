"""Pipeline timing, squash, shadow, and rep-expansion behavior of the core."""

from __future__ import annotations

import collections
import dataclasses
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from audit import audit, audit_memory, reference_offset
from hypothesis import strategies as st
from test_analysis import cyclic_programs, dag_programs, members

from robsim import defenses, scenarios
from robsim.analysis import AnalysisError
from robsim.cache import CacheConfig
from robsim.core import (
    CoreConfig,
    MachineConfig,
    RobEntry,
    SimulationLimitError,
    Simulator,
)
from robsim.defenses import DefenseMode, DefensePolicy, Mitigation
from robsim.experiment import config_from_mapping, run_experiment
from robsim.isa import (
    ADDRESS_SPACE,
    REP_OPCODES,
    Label,
    MacroInstruction,
    Mem,
    Opcode,
    Program,
    Reg,
    UopKind,
    parse_program,
    print_program,
)
from robsim.scenarios import (
    SCENARIO_NAMES,
    ProgramAnalysis,
    ScenarioError,
    build_scenario,
    prepare,
    run_single,
    with_secret,
)

# the benchmark's invarspec_rob768 sweep, one trial per secret
INVARSPEC_ROB768_SWEEP = {
    "scenarios": list(SCENARIO_NAMES),
    "defenses": ["dom_plus_invarspec"],
    "mitigations": [
        "none", "conservative_invariance", "path_balancing", "operand_independent_fill",
    ],
    "trials": 1,
    "jitter": 2,
    "core": {"rob_size": 768},
}


def make_sim(text, *, core=None, cache=None, policy=None, jitter=0, seed=0):
    machine = MachineConfig(
        core=core or CoreConfig(),
        cache=cache or CacheConfig(),
        jitter_amplitude=jitter,
        jitter_seed=seed,
    )
    return Simulator(parse_program(text), machine, policy)


def simulate(text, **kwargs):
    return make_sim(text, **kwargs).run()


def only(entries):
    assert len(entries) == 1
    return entries[0]


def test_single_uop_opcodes_decode_to_their_kind():
    text = """
    .data 8 0
    load r1, [8]
    store r1, [12]
    alu r2, r1, 3
    setshift r3, r2, 4
    branch r1, next
    next: jump end
    end: fence
    nop
    """
    kinds = {
        Opcode.LOAD: UopKind.MEM_READ,
        Opcode.STORE: UopKind.MEM_WRITE,
        Opcode.ALU: UopKind.ALU,
        Opcode.SETSHIFT: UopKind.ALU,
        Opcode.BRANCH: UopKind.BRANCH_RESOLVE,
        Opcode.JUMP: UopKind.NOP,
        Opcode.FENCE: UopKind.NOP,
        Opcode.NOP: UopKind.NOP,
    }
    assert set(kinds) == set(Opcode) - set(REP_OPCODES)
    trace = simulate(text)
    assert {e.macro.opcode for e in trace.records} == set(kinds)
    for e in trace.records:
        assert e.uop.kind is kinds[e.macro.opcode]
        assert (e.uop.parent, e.uop.seq) == (e.macro.id, 0)


@pytest.mark.parametrize(
    "make, message",
    [
        # a fractional decode width never counts its slots down to 0, so decode never ends
        (lambda: CoreConfig(decode_width=2.5), "decode_width must be an integer, got 2.5"),
        (lambda: CoreConfig(commit_width=1.5), "commit_width must be an integer, got 1.5"),
        (lambda: CoreConfig(rob_size=True), "rob_size must be an integer, got True"),
        (lambda: CacheConfig(num_sets=8.0), "num_sets must be an integer, got 8.0"),
        (lambda: CacheConfig(ways=True), "ways must be an integer, got True"),
        (lambda: CacheConfig(mshr_entries=2.0), "mshr_entries must be an integer, got 2.0"),
        (lambda: MachineConfig(jitter_amplitude=1.5),
         "jitter_amplitude must be an integer, got 1.5"),
        (lambda: MachineConfig(jitter_seed="3"), "jitter_seed must be an integer, got '3'"),
    ],
    ids=["float_decode_width", "float_commit_width", "bool_rob_size", "float_num_sets",
         "bool_ways", "float_mshr_entries", "float_jitter", "str_seed"],
)
def test_machine_configs_refuse_a_value_that_is_not_an_integer(make, message):
    with pytest.raises(TypeError, match=re.escape(message)):
        make()


def test_machine_from_an_empty_mapping_is_the_default_machine():
    assert MachineConfig.from_mapping({}) == MachineConfig()
    machine = MachineConfig.from_mapping(
        {"core": {"rob_size": 768}, "cache": {"ways": 2}, "jitter": 2, "seed": 7}
    )
    assert machine == MachineConfig(
        core=CoreConfig(rob_size=768), cache=CacheConfig(ways=2), jitter_amplitude=2, jitter_seed=7
    )


@pytest.mark.parametrize(
    "mapping, message",
    [
        ({"colour": 3, "rob_size": 64}, "unknown machine keys: colour, rob_size"),
        ({"core": {"robsize": 32}}, "unknown core keys: robsize"),
        ({"cache": {1: 2}}, "unknown cache keys: 1"),
        ({"core": 5}, "core must be a mapping of keys to integers, got 5"),
        ({"cache": [1]}, "cache must be a mapping of keys to integers, got [1]"),
        ({"core": {"max_cycles": "100"}}, "core.max_cycles must be an integer, got '100'"),
        ({"cache": {"ways": True}}, "cache.ways must be an integer, got True"),
        ({"core": {"max_cycles": 0}}, "bad core config: max_cycles must be positive"),
        ({"cache": {"ways": 0}}, "bad cache config: cache geometry must be positive"),
        ({"jitter": 2.5}, "jitter must be an integer, got 2.5"),
        ({"seed": None}, "seed must be an integer, got None"),
        ({"jitter": -2}, "jitter amplitude cannot be negative"),
        ({"jitter": 8, "cache": {"miss_cycles": 10}},
         "jitter amplitude 8 must be below miss_cycles - hit_cycles = 7"),
    ],
    ids=["unknown_key", "unknown_core_key", "int_cache_key", "int_core", "list_cache",
         "str_max_cycles", "bool_ways", "zero_max_cycles", "zero_ways", "float_jitter",
         "null_seed", "negative_jitter", "jitter_at_gap"],
)
def test_machine_from_a_mapping_refuses_with_a_value_error(mapping, message):
    # only ValueError, so every command line path reports it and exits 1
    with pytest.raises(ValueError, match=re.escape(message)) as caught:
        MachineConfig.from_mapping(mapping)
    assert type(caught.value) is ValueError


def test_single_alu_timing():
    trace = simulate("alu r1, r1, 5")
    entry = only(trace.records)
    assert entry.dispatch_cycle == 2
    assert entry.exec_start_cycle == 3
    assert entry.complete_cycle == 3
    assert entry.commit_cycle == 4
    assert entry.commit_cycle == entry.dispatch_cycle + 1 + 1  # alu latency 1
    assert entry.result == 5
    assert trace.stats.cycles == 4


def test_alu_sums_every_source_operand_and_setshift_shifts():
    # a register named twice counts twice; immediates alone sum too
    sim = make_sim("alu r2, r0, 3\nalu r1, r2, r2\nsetshift r3, r1, 2\nalu r4, 1, 2")
    sim.run()
    assert sim.regs == {2: 3, 1: 6, 3: 24, 4: 3}


def test_alu_latency_config_shifts_completion():
    core = CoreConfig(alu_latency=3)
    trace = simulate("alu r1, r1, 5", core=core)
    entry = only(trace.records)
    assert entry.complete_cycle == entry.exec_start_cycle + 2
    assert entry.commit_cycle == entry.dispatch_cycle + 3 + 1


def test_dependent_alu_chain_one_per_cycle():
    lines = [f"alu r1, r1, 1" for _ in range(6)]
    trace = simulate("\n".join(lines))
    completes = [e.complete_cycle for e in trace.records]
    assert completes == sorted(completes)
    assert all(b - a == 1 for a, b in zip(completes, completes[1:]))
    assert trace.records[-1].result == 6
    assert trace.stats.squashes == 0


def test_empty_program_halts_immediately():
    trace = simulate("")
    assert trace.records == []
    assert trace.stats.cycles == 0
    assert trace.occupancy == []


def test_commit_is_in_order_and_bounded():
    core = CoreConfig(commit_width=2)
    lines = ["alu r%d, r%d, 1" % (i, i) for i in range(8)]
    trace = simulate("\n".join(lines), core=core)
    commits = [e.commit_cycle for e in trace.committed()]
    assert commits == sorted(commits)
    from collections import Counter

    assert max(Counter(commits).values()) <= 2
    assert trace.stats.committed_uops == 8


def test_mispredicted_branch_squashes_wrong_path():
    text = """
    .data 8 0
    .predict br not_taken
    load r1, [8]
    br: branch r1, skip
    alu r2, r2, 1
    skip: alu r3, r3, 1
    """
    trace = simulate(text)
    assert trace.stats.squashes == 1
    record = trace.stats.squash_log[0]
    assert record.kind == "branch"
    assert record.source_instr == 1
    assert record.removed == 2
    # the wrong-path alu never commits; the refetched join-point alu does
    assert trace.committed_for(2) == []
    refetched = only(trace.committed_for(3))
    assert refetched.dispatch_cycle == record.cycle + 2
    wrong_path = [e for e in trace.records if e.macro.id == 3 and e.squash_cycle is not None]
    assert len(wrong_path) == 1


@pytest.mark.parametrize(
    "text, mitigations, kind, producer, consumer",
    [
        # the producer completes in the cycle the older mispredicted branch
        # resolves, and the branch squashes its consumer on the wrong path
        ("""
        .predict br not_taken
        alu r3, r0, 0
        br: branch r0, skip
        alu r4, r3, 1
        skip: nop
        """, frozenset(), "branch", 0, 2),
        # the counter completes, and the failed check of the predicted REP
        # in that cycle squashes the counter's consumer past the REP
        ("""
        load r5, [64]
        alu r1, r5, 3
        rep_lods r1
        alu r4, r1, 1
        """, frozenset({Mitigation.OPERAND_INDEPENDENT_FILL}), "rep_verify", 1, 3),
    ],
    ids=["branch", "rep_verify"],
)
def test_a_consumer_squashed_in_its_wake_cycle_is_never_ready(
    text, mitigations, kind, producer, consumer
):
    trace = audited_run(make_sim(text, policy=DefensePolicy(mitigations=mitigations)))
    squash = only(trace.stats.squash_log)
    assert squash.kind == kind
    woken = next(e for e in trace.records if e.macro.id == consumer)  # the wrong-path copy
    assert only(trace.committed_for(producer)).complete_cycle == squash.cycle
    assert woken.squash_cycle == squash.cycle
    assert woken.dispatch_cycle is not None and woken.ready_cycle is None


def test_correctly_predicted_branch_does_not_squash():
    text = """
    .data 8 7
    .warm 8
    .predict br not_taken
    load r1, [8]
    br: branch r1, skip
    alu r2, r2, 1
    skip: alu r3, r3, 1
    """
    trace = simulate(text)
    assert trace.stats.squashes == 0
    assert len(trace.committed_for(2)) == 1
    assert len(trace.committed_for(3)) == 1


def test_taken_branch_redirects_fetch_at_decode():
    text = """
    .data 8 0
    .warm 8
    .predict br taken
    load r1, [8]
    br: branch r1, skip
    alu r2, r2, 1
    skip: alu r3, r3, 1
    """
    trace = simulate(text)
    # predicted taken and actually taken: instruction 2 is never fetched
    assert trace.stats.squashes == 0
    assert [e.macro.id for e in trace.records] == [0, 1, 3]


def test_branch_counter_training():
    text = """
    .data 8 0
    .warm 8
    load r1, [8]
    branch r1, skip
    alu r2, r2, 1
    skip: alu r3, r3, 1
    """
    sim = make_sim(text)
    sim.run()
    # counters start weakly not-taken (1); one taken outcome bumps to 2
    assert sim.predictor.counters[1] == 2
    assert sim.predictor.predict(1) is True


def test_predicted_branch_never_trains():
    text = """
    .data 8 0
    .warm 8
    .predict br not_taken
    load r1, [8]
    br: branch r1, skip
    alu r2, r2, 1
    skip: alu r3, r3, 1
    """
    sim = make_sim(text)
    sim.run()
    assert sim.predictor.predict(1) is False
    assert 1 not in sim.predictor.counters


def test_full_rob_back_pressures_dispatch():
    core = CoreConfig(rob_size=4)
    lines = ["load r1, [8]"] + ["alu r2, r2, 1"] * 8
    trace = simulate("\n".join(lines), core=core)
    assert trace.stats.peak_occupancy == 4
    assert max(trace.occupancy) == 4
    assert trace.stats.dispatch_stalls > 0
    assert trace.stats.committed_uops == 9


def test_dispatch_moves_every_queued_entry_that_fits():
    # dispatch has no width: when the miss commits, the ROB frees two
    # entries and both queued alus (2 * decode_width) dispatch in one cycle
    text = ".flush 16\nload r1, [16]\n" + "alu r2, r2, 1\n" * 5
    core = CoreConfig(rob_size=2, decode_width=1, commit_width=4)
    trace = simulate(text, core=core)
    per_cycle = collections.Counter(e.dispatch_cycle for e in trace.records)
    assert per_cycle[63] == 2 == max(per_cycle.values())


def test_occupancy_sampled_every_cycle():
    trace = simulate("alu r1, r1, 1\nalu r2, r2, 1")
    assert len(trace.occupancy) == trace.stats.cycles


def _is_speculation_source(entry: RobEntry) -> bool:
    if entry.uop.kind is UopKind.BRANCH_RESOLVE and entry.complete_cycle is None:
        return True
    return entry.predicted and entry.uop.seq == 0


def compute_shadows(entries: list[RobEntry]) -> list[int | None]:
    """Shadow of each entry, recomputed from scratch: rob_seq of the oldest
    unresolved speculation source ahead of it (unresolved branch or
    unverified predicted REP), or None. The reference the simulator's
    `_unresolved` is checked against."""
    shadows: list[int | None] = []
    oldest: int | None = None
    for entry in entries:
        shadows.append(oldest)
        if oldest is None and _is_speculation_source(entry):
            oldest = entry.rob_seq
    return shadows


def check_shadows(sim: Simulator) -> list[int | None]:
    """Assert that `_unresolved` lists exactly the speculation sources in
    the ROB, oldest first, and that the shadows read off its head match
    `compute_shadows`; return them."""
    live = list(sim.rob)
    unresolved = sim._unresolved
    assert unresolved == [e.rob_seq for e in live if _is_speculation_source(e)]
    oldest = unresolved[0] if unresolved else None
    shadows = [oldest if oldest is not None and oldest < e.rob_seq else None for e in live]
    assert shadows == compute_shadows(live)
    return shadows


def check_producer_map(sim: Simulator) -> None:
    """Assert that `_prod_map` maps each register to the youngest in-flight
    entry (ROB, then decode queue) that writes it, by identity."""
    youngest = {e.dest: e for e in [*sim.rob, *sim._queue] if e.dest is not None}
    assert sim._prod_map.keys() == youngest.keys()
    assert all(sim._prod_map[r] is e for r, e in youngest.items())


def test_shadows_match_recomputation_every_cycle():
    text = """
    .data 8 1
    .data 16 1
    .data 24 1
    load r1, [8]
    load r2, [16]
    load r5, [24]
    branch r1, end
    branch r2, end
    branch r5, end
    alu r3, r3, 1
    end: nop
    """
    sim = make_sim(text)
    saw_reassignment = False
    while not sim.halted:
        sim.step()
        shadows = check_shadows(sim)
        check_producer_map(sim)
        if any(s is not None and s > sim.rob[0].rob_seq for s in shadows):
            saw_reassignment = True
    # the oldest branch resolves first, so survivors fall to the next oldest
    assert saw_reassignment
    assert sim.stats.squashes == 0


def test_producer_map_matches_recomputation_on_the_reference_grid():
    cells = cycles = 0
    for scenario, policy in prepared_cells(MachineConfig(jitter_amplitude=2), [frozenset()]):
        sim = scenario_sim(scenario, policy)
        while not sim.halted:
            sim.step()
            check_producer_map(sim)
        cells += 1
        cycles += len(sim._occupancy)
    assert cells == 30
    assert cycles > 3000


def _check_lifecycle(trace, machine: MachineConfig) -> collections.Counter:
    """Assert the stamp invariants an entry's derived stage rests on, and
    audit the run's memory, which applies a deferred hit's replacement
    update exactly when its record commits; count deferred hits by whether
    their update was applied."""
    deferred = collections.Counter()
    for e in trace.records:
        stamps = [
            c
            for c in (e.dispatch_cycle, e.exec_start_cycle, e.complete_cycle)
            if c is not None
        ]
        assert stamps == sorted(stamps), e
        assert (e.squash_cycle is None) == (e.commit_cycle is not None), e
        if e.commit_cycle is not None:
            assert e.complete_cycle is not None and e.complete_cycle < e.commit_cycle
            assert e.shadow is None
        if e.outcome == "deferred_hit":
            deferred[e.commit_cycle is not None] += 1
    kinds = audit_memory(trace, machine)
    assert kinds["deferred_hit"] == sum(deferred.values())
    return deferred


def test_squashed_entries_never_commit():
    text = """
    .data 8 0
    .predict br not_taken
    load r1, [8]
    br: branch r1, out
    alu r2, r2, 1
    alu r4, r4, 1
    out: nop
    """
    trace = simulate(text)
    assert any(e.squash_cycle is not None for e in trace.records)
    _check_lifecycle(trace, MachineConfig())
    # a shadowed hit on the correct path: its deferred update lands at commit
    committed_hit = """
    .data 16 1
    .warm 8
    load r1, [16]
    branch r1, done
    load r2, [8]
    done: nop
    """
    dom = DefensePolicy(mode=DefenseMode.DOM)
    deferred = _check_lifecycle(simulate(committed_hit, policy=dom), MachineConfig())
    # trial 0 of both secrets of every scenario x mode x mitigation that applies
    machine = MachineConfig(jitter_amplitude=2)
    for name in SCENARIO_NAMES:
        for mode in DefenseMode:
            for mitigations in [frozenset()] + [frozenset({m}) for m in Mitigation]:
                for secret in (0, 1):
                    try:
                        scenario, policy = prepare(
                            build_scenario(name, secret, machine), mode, mitigations
                        )
                    except (ScenarioError, AnalysisError):
                        continue
                    trace = run_single(scenario, policy, 0)[0]
                    deferred += _check_lifecycle(trace, scenario.machine)
    # both fates of a deferred hit are covered: applied at commit, dropped by squash
    assert deferred[True] and deferred[False]


def test_squash_preserves_cache_fills():
    text = """
    .data 8 0
    .predict br not_taken
    load r1, [8]
    br: branch r1, away
    load r2, [64]
    away: nop
    """
    sim = make_sim(text)
    trace = sim.run()
    wrong_path = only([e for e in trace.records if e.macro.id == 2])
    assert wrong_path.squash_cycle is not None
    assert wrong_path.outcome == "miss"
    assert sim.cache.resident(64)
    assert any(e.kind == "fill" and e.address == 64 for e in trace.mem_events)


def test_run_setup_flushes_after_every_warm_line():
    # wherever the directives sit, a line both warmed and flushed starts
    # cold; a line only warmed hits
    text = """
    .flush 40
    .warm 40
    .warm 8
    load r1, [40]
    load r2, [8]
    """
    sim = make_sim(text)
    assert not sim.cache.resident(40) and sim.cache.resident(8)
    cold, warm = sim.run().records
    assert (cold.outcome, warm.outcome) == ("miss", "hit")


def test_load_port_serializes_independent_loads():
    text = """
    .warm 8
    .warm 72
    load r1, [8]
    load r2, [72]
    """
    trace = simulate(text)
    first, second = trace.records
    assert second.exec_start_cycle == first.exec_start_cycle + 1


def test_full_mshr_table_stalls_and_retries():
    cache = CacheConfig(mshr_entries=1)
    text = """
    load r1, [8]
    load r2, [72]
    """
    sim = make_sim(text, cache=cache)
    first, second = sim.run().records
    # the second miss retries until the first fill frees its table entry
    assert second.exec_start_cycle == first.exec_start_cycle + 60
    assert sim.cache.mshr_stalls > 0


def test_unbounded_mshr_table_never_stalls():
    cache = CacheConfig(mshr_entries=None)
    text = """
    load r1, [8]
    load r2, [72]
    """
    sim = make_sim(text, cache=cache)
    first, second = sim.run().records
    assert second.exec_start_cycle == first.exec_start_cycle + 1
    assert sim.cache.mshr_stalls == 0


def test_delay_policy_holds_shadowed_cold_load():
    text = """
    .data 8 1
    .warm 8
    .predict br not_taken
    load r1, [8]
    br: branch r1, end
    load r2, [64]
    end: nop
    """
    baseline = simulate(text)
    open_load = only([e for e in baseline.records if e.macro.id == 2])
    branch = only([e for e in baseline.records if e.macro.id == 1])
    assert open_load.exec_start_cycle < branch.complete_cycle

    policy = DefensePolicy(mode=DefenseMode.DOM)
    guarded = simulate(text, policy=policy)
    held_load = only([e for e in guarded.records if e.macro.id == 2])
    branch = only([e for e in guarded.records if e.macro.id == 1])
    assert held_load.exec_start_cycle > branch.complete_cycle
    assert held_load.outcome == "miss"


SHADOWED_COLD_LOAD = """
.data 16 0
.predict br not_taken
load r1, [16]
br: branch r1, done
load r2, [40]
alu r3, r3, 1
done: nop
"""


def invarspec_policy(program, mitigations=frozenset()):
    """The dom_plus_invarspec policy of `program`, its safe sets derived."""
    analysis = ProgramAnalysis(program, CoreConfig().expansion_cap)
    return DefensePolicy(DefenseMode.DOM_PLUS_INVARSPEC, frozenset(mitigations), analysis)


def test_control_dependent_load_is_held_until_its_branch_resolves():
    program = parse_program(SHADOWED_COLD_LOAD)
    policy = invarspec_policy(program)
    assert 1 in members(policy.safe_sets[2])  # the load is control dependent on branch 1
    held = Simulator(program, None, policy).run()
    load = only([e for e in held.records if e.macro.id == 2])
    assert load.esp_cycle is None and load.exec_start_cycle is None


def test_invariant_load_lifts_at_dispatch_and_stamps_the_cycle():
    # a load past the reconvergence point that reads no register: its
    # derived safe set is empty, so its wrong-path instance lifts at once
    program = parse_program(SHADOWED_COLD_LOAD + "load r4, [48]\n")
    policy = invarspec_policy(program)
    assert policy.safe_sets[5] == 0
    lifted = Simulator(program, None, policy).run()
    load = [e for e in lifted.records if e.macro.id == 5][0]
    branch = only([e for e in lifted.records if e.macro.id == 1])
    assert load.esp_cycle == load.dispatch_cycle == 3 and branch.complete_cycle == 64
    assert load.outcome == "miss" and load.exec_start_cycle < branch.complete_cycle


def test_lifting_follows_osp_through_a_complete_but_shadowed_member():
    # the wrong-path load reads the ALU's r2, so its safe set holds the ALU,
    # which completes at once but stays shadowed by the branch, and (closed)
    # the branch and its 60-cycle miss: nothing reaches OSP before the squash
    text = """
    load r1, [16]
    branch r1, skip
    alu r2, r2, 1
    skip: load r3, [r2+40]
    """
    program = parse_program(text)
    policy = invarspec_policy(program)
    assert members(policy.safe_sets[3]) == {0, 1, 2}
    trace = Simulator(program, None, policy).run()
    branch = only([e for e in trace.records if e.rob_seq == 1])
    alu = only([e for e in trace.records if e.rob_seq == 2])
    wrong = only([e for e in trace.records if e.rob_seq == 3])
    assert alu.complete_cycle < branch.complete_cycle == wrong.squash_cycle
    assert wrong.macro.id == 3 and wrong.squash_cycle is not None
    assert wrong.esp_cycle is None and wrong.exec_start_cycle is None


def test_conservative_filter_holds_a_load_fed_from_past_the_branch():
    # branch b (1 micro-op one way, none the other) waits on a 60-cycle
    # miss; the load at the top of the next trip reads r5 from past b's
    # reconvergence point T. The filter puts b in T's safe set, not in the
    # load's, so only T's OSP, reached through ESP, holds the load
    text = """
    .data 16 0
    .predict b taken
    load r2, [16]
    alu r3, 3
    top: branch r3, exit
    alu r3, r3, -1
    load r6, [r5+24]
    b: branch r2, T
    alu r7, r7, 1
    T: alu r5, r5, 1
    jump top
    exit: nop
    """
    program = parse_program(text)
    for mitigations, held in ((set(), False), ({Mitigation.CONSERVATIVE_INVARIANCE}, True)):
        policy = invarspec_policy(program, mitigations)
        assert 5 not in members(policy.safe_sets[4])
        assert (5 in members(policy.safe_sets[7])) is held
        trace = Simulator(program, None, policy).run()
        branch = [e for e in trace.records if e.macro.id == 5][0]
        shadowed = [e for e in trace.records if e.macro.id == 4 and e.rob_seq > branch.rob_seq]
        assert shadowed[0].commit_cycle is not None
        issued = [e.exec_start_cycle for e in shadowed if e.exec_start_cycle is not None]
        # unfiltered, the next trip's load lifts and misses in b's shadow
        assert (min(issued) > branch.complete_cycle) is held, mitigations


def test_simulator_refuses_safe_sets_of_another_program():
    program = parse_program(SHADOWED_COLD_LOAD)
    policy = invarspec_policy(program)
    other = parse_program(SHADOWED_COLD_LOAD.replace("[40]", "[44]"))
    with pytest.raises(ValueError, match="another program"):
        Simulator(other, None, policy)
    # an overlay shares the instruction list; a second parse has an equal one
    Simulator(program.overlay(data_init={16: 1}, predict={}), None, policy)
    Simulator(parse_program(SHADOWED_COLD_LOAD), None, policy)
    # a policy that never lifts reads no safe sets
    Simulator(other, None, DefensePolicy(DefenseMode.DOM, analysis=policy.analysis))


def test_shadowed_hit_defers_replacement_update_to_commit():
    text = """
    .data 8 1
    .warm 12
    .warm 8
    .predict br not_taken
    load r1, [8]
    br: branch r1, end
    load r2, [12]
    end: nop
    """
    cache = CacheConfig(num_sets=4, ways=2)
    policy = DefensePolicy(mode=DefenseMode.DOM)
    sim = make_sim(text, cache=cache, policy=policy)
    shadowed = None
    while not sim.halted:
        sim.step()
        if shadowed is None:
            done = [e for e in sim._records if e.macro.id == 2 and e.complete_cycle is not None]
            if done:
                shadowed = done[0]
                assert shadowed.outcome == "deferred_hit"
                # executed, but the line must not look recently used yet
                assert sim.cache.snapshot_set(0) == [8, 12]
    assert shadowed is not None
    assert sim.cache.snapshot_set(0) == [12, 8]
    assert only([e for e in sim._records if e.outcome == "deferred_hit"]) is shadowed
    assert shadowed.commit_cycle is not None


def test_shadowed_store_waits_for_resolution():
    text = """
    .data 8 1
    .warm 8
    .warm 64
    .predict br not_taken
    load r1, [8]
    br: branch r1, end
    store r2, [64]
    end: nop
    """
    policy = DefensePolicy(mode=DefenseMode.DOM)
    trace = simulate(text, policy=policy)
    store = only([e for e in trace.records if e.macro.id == 2])
    branch = only([e for e in trace.records if e.macro.id == 1])
    assert store.exec_start_cycle > branch.complete_cycle


def test_store_writes_memory_at_commit():
    text = """
    .warm 32
    alu r1, r1, 9
    store r1, [32]
    load r2, [32]
    fence
    """
    sim = make_sim(text)
    trace = sim.run()
    assert sim.mem_values[32] == 9
    assert trace.stats.squashes == 0


def test_a_run_time_address_wraps_into_the_address_space():
    # r2 = 0, so [r2-16] is 2^20 - 16 for the cache, the trace and memory;
    # its line's miss is jittered like any other
    text = """
    .data 0xffff0 7
    load r1, [r2-16]
    alu r3, 5
    store r3, [r2-16]
    """
    sim = make_sim(text, jitter=2, seed=1)
    trace = audited_run(sim)
    top = ADDRESS_SPACE - 16
    assert [e.address for e in trace.records if e.address is not None] == [top, top]
    assert trace.records[0].result == 7
    assert sim.mem_values == {top: 5}
    assert sim.cache.resident(top)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: no store-to-load forwarding")
@pytest.mark.parametrize("mode", [DefenseMode.UNPROTECTED, DefenseMode.DOM])
def test_load_reads_an_older_stores_value(mode):
    text = """
    alu r1, r0, 5
    store r1, [16]
    load r2, [16]
    """
    sim = make_sim(text, policy=DefensePolicy(mode=mode))
    sim.run()
    assert sim.regs[2] == 5


def test_fence_drains_before_younger_work():
    text = """
    .warm 8
    load r1, [8]
    fence
    alu r2, r2, 1
    """
    trace = simulate(text)
    load, fence, alu = (only([e for e in trace.records if e.macro.id == i]) for i in range(3))
    assert alu.dispatch_cycle > load.commit_cycle
    assert trace.stats.decode_stalls > 0
    # the fence waits for older work only: younger work dispatches with it
    assert alu.dispatch_cycle == fence.dispatch_cycle < fence.commit_cycle


def test_rep_movs_expands_to_twice_the_counter():
    text = """
    alu r1, r1, 2
    rep_movs r1
    """
    trace = simulate(text)
    rep = only(trace.rep_expansions)
    assert rep.requested == 4
    assert rep.emitted == 4
    assert rep.target == rep.requested  # not capped
    uops = [e for e in trace.records if e.macro.id == 1]
    assert [u.uop.seq for u in uops] == [0, 1, 2, 3]
    assert all(u.uop.kind is UopKind.NOP and u.uop.parent == 1 for u in uops)
    assert trace.stats.committed_uops == 5


def test_rep_lods_expansion_formula():
    text = """
    alu r1, r1, 3
    rep_lods r1
    """
    trace = simulate(text)
    rep = only(trace.rep_expansions)
    assert rep.requested == 5 * 3 + 12
    assert rep.emitted == 27


def test_rep_decode_waits_for_inflight_counter():
    text = """
    alu r1, r1, 2
    rep_movs r1
    """
    trace = simulate(text)
    assert trace.stats.decode_stalls >= 1


def test_rep_reads_youngest_inflight_producer():
    text = """
    alu r1, r1, 3
    alu r1, r1, 2
    rep_movs r1
    """
    trace = simulate(text)
    rep = only(trace.rep_expansions)
    assert rep.requested == 10


def test_rep_expansion_cap_truncates_with_warning():
    core = CoreConfig(expansion_cap=8)
    text = """
    alu r1, r1, 100
    rep_movs r1
    """
    trace = simulate(text, core=core)
    rep = only(trace.rep_expansions)
    assert rep.requested == 200
    assert rep.emitted == 8
    assert not rep.predicted and rep.requested > rep.target  # capped


def test_rep_with_zero_counter_emits_nothing():
    trace = simulate("rep_movs r1")
    rep = only(trace.rep_expansions)
    assert rep.requested == 0
    assert rep.emitted == 0
    assert trace.records == []
    assert trace.stats.cycles == 1


def test_predicted_rep_verifies_clean_on_exact_match():
    policy = DefensePolicy(mitigations=frozenset({Mitigation.OPERAND_INDEPENDENT_FILL}))
    text = """
    alu r1, r1, 4
    rep_movs r1
    """
    trace = simulate(text, policy=policy)
    rep = only(trace.rep_expansions)
    assert rep.predicted
    assert rep.verified is True
    assert rep.emitted == 8
    assert trace.stats.squashes == 0
    assert trace.stats.decode_stalls == 0
    assert len(trace.committed_for(1)) == 8


def test_predicted_rep_mismatch_squashes_and_reexpands():
    policy = DefensePolicy(mitigations=frozenset({Mitigation.OPERAND_INDEPENDENT_FILL}))
    text = """
    alu r1, r1, 3
    rep_lods r1
    """
    trace = simulate(text, policy=policy)
    predicted, reissued = trace.rep_expansions
    assert predicted.verified is False
    assert predicted.emitted == 8
    assert reissued.requested == 27
    assert not reissued.predicted
    assert trace.stats.squashes == 1
    assert trace.stats.squash_log[0].kind == "rep_verify"
    assert len(trace.committed_for(1)) == 27
    assert all(not e.predicted for e in trace.committed_for(1))
    # the counter committed before the refetch: the count is the register's
    assert only(trace.committed_for(0)).commit_cycle <= trace.stats.squash_log[0].cycle


def test_predicted_rep_reexpands_from_a_counter_still_in_flight():
    # an older miss holds the counter's producer uncommitted past the
    # refetch, so the re-expansion reads the count off the producer
    policy = DefensePolicy(mitigations=frozenset({Mitigation.OPERAND_INDEPENDENT_FILL}))
    text = """
    load r5, [64]
    alu r1, r1, 3
    rep_lods r1
    """
    trace = simulate(text, policy=policy)
    predicted, reissued = trace.rep_expansions
    assert predicted.verified is False
    assert not reissued.predicted and reissued.requested == 27
    assert [s.kind for s in trace.stats.squash_log] == ["rep_verify"]
    refetched = trace.committed_for(2)
    assert len(refetched) == 27
    assert only(trace.committed_for(1)).commit_cycle > refetched[0].dispatch_cycle


def test_rep_refetched_after_a_squash_reads_its_committed_counter():
    # the counter's producer commits while the branch waits on its miss, so
    # the REP refetched at the branch target expands from the register file
    # and the mitigation adds no verification squash
    text = """
    .data 16 0
    .flush 16
    alu r1, r0, 3
    load r2, [16]
    branch r2, L
    nop
    nop
    L: rep_movs r1
    nop
    """
    policy = DefensePolicy(mitigations=frozenset({Mitigation.OPERAND_INDEPENDENT_FILL}))
    trace = simulate(text, policy=policy)
    wrong_path, refetched = trace.rep_expansions
    assert wrong_path.predicted and wrong_path.verified is None
    assert not refetched.predicted and refetched.requested == 6
    assert [s.kind for s in trace.stats.squash_log] == ["branch"]
    assert trace.stats.cycles == simulate(text).stats.cycles == 68


def test_predicted_rep_is_verified_only_once_no_older_source_shadows_it():
    # the branch waits on a miss while the REP's counter, decoded ahead of
    # it, completes at once: the check must still wait for the branch
    text = """
    .data 16 1
    load r2, [16]
    alu r1, r1, 4
    branch r2, end
    rep_movs r1
    end: nop
    """
    policy = DefensePolicy(mitigations=frozenset({Mitigation.OPERAND_INDEPENDENT_FILL}))
    sim = make_sim(text, policy=policy)
    sim.step()  # decodes the load, the counter and the branch, and starts the expansion
    counter, branch = sim._records[1], sim._records[2]
    rep = only(sim._rep_log)
    counter_done_in_shadow = False
    while not sim.halted:
        verified = rep.verified
        sim.step()
        if counter.complete_cycle is not None and branch.complete_cycle is None:
            counter_done_in_shadow = True
        if verified is None and rep.verified is not None:
            first = rep.entries[0].rob_seq
            assert not [s for s in sim._unresolved if s < first], (sim.cycle, sim._unresolved)
    assert counter_done_in_shadow
    assert only(sim._rep_log).verified is True


def test_predicted_rep_commits_only_once_verified():
    # at decode width 1 the first micro-ops complete before the last one is
    # decoded, so only the pending check holds them back from commit
    policy = DefensePolicy(mitigations=frozenset({Mitigation.OPERAND_INDEPENDENT_FILL}))
    sim = make_sim("alu r1, r1, 4\nrep_movs r1", core=CoreConfig(decode_width=1), policy=policy)
    while not sim.halted:
        sim.step()
        for rep in sim._rep_log:
            if rep.verified is None:
                assert all(e.commit_cycle is None for e in rep.entries), sim.cycle
    assert only(sim._rep_log).verified is True


def test_untainted_rep_ignores_fill_prediction():
    policy = DefensePolicy(mitigations=frozenset({Mitigation.OPERAND_INDEPENDENT_FILL}))
    text = """
    .data 0 0
    rep_movs r1
    """
    trace = simulate(text, policy=policy)
    rep = only(trace.rep_expansions)
    assert not rep.predicted
    assert rep.requested == 0


def test_runaway_program_raises_limit_error():
    core = CoreConfig(max_cycles=50)
    with pytest.raises(SimulationLimitError) as info:
        simulate("spin: jump spin", core=core)
    assert info.value.cycle == 50
    # the 60-cycle miss at the head has issued but not completed
    with pytest.raises(SimulationLimitError) as info:
        simulate("load r1, [8]\nspin: jump spin", core=core)
    # (rob_seq, instr, opcode, dispatch, exec_start, complete) per stuck entry
    assert info.value.snapshot[0] == (0, 0, "load", 2, 3, None)


def test_trace_is_deterministic_for_fixed_seed():
    text = """
    .data 8 0
    .predict br not_taken
    load r1, [8]
    br: branch r1, skip
    load r2, [64]
    skip: alu r3, r3, 1
    """
    a = simulate(text, jitter=3, seed=11)
    b = simulate(text, jitter=3, seed=11)
    assert a.to_csv() == b.to_csv()
    assert a.occupancy == b.occupancy


def test_jitter_perturbs_miss_latency():
    latencies = set()
    for seed in range(6):
        trace = simulate("load r1, [8]", jitter=4, seed=seed)
        entry = only(trace.records)
        assert entry.outcome == "miss"
        assert 56 <= entry.latency <= 64
        latencies.add(entry.latency)
    assert len(latencies) > 1


def test_a_fresh_miss_stays_slower_than_a_hit_at_the_largest_jitter():
    # 56 is the largest amplitude the default 60/3-cycle cache accepts
    latencies = {
        only(simulate("load r1, [8]", jitter=56, seed=seed).records).latency
        for seed in range(200)
    }
    assert CacheConfig().hit_cycles < 60 - 56 <= min(latencies)
    assert max(latencies) <= 60 + 56 and len(latencies) > 50


def test_zero_jitter_is_exact():
    entry = only(simulate("load r1, [8]").records)
    assert entry.latency == 60


def test_compute_shadows_no_sources():
    assert compute_shadows([]) == []


# ----------------------------------------------------------------------
# idle-cycle skipping: run() against the one-cycle stepper


def stepped_run(sim: Simulator):
    """run() with idle-cycle skipping off, so every cycle is a pass of the
    per-cycle body: the oracle for skipping."""
    sim._repeat_idle = lambda dispatch_stalls, decode_stalls: None
    return sim.run()


def public_stepped_run(sim: Simulator):
    """The public step() until the program halts or reaches max_cycles,
    then run(), which at either point advances no cycle: it returns the
    trace, or raises the limit error that run() alone would raise."""
    while not sim.halted and sim.cycle < sim.config.max_cycles:
        sim.step()
    return sim.run()


def audited_run(sim: Simulator):
    """`sim.run()`, its trace checked by the audit."""
    trace = sim.run()
    audit(trace, sim.machine)
    return trace


def run_outcome(go, sim: Simulator):
    """run_state of `go(sim)`, or the fields of the limit error it raises."""
    try:
        return run_state(go(sim))
    except SimulationLimitError as exc:
        return (exc.cycle, exc.occupancy, exc.snapshot)


def memory_log(trace) -> list[dict]:
    """Every fill and access of a run as one log, in the core's own order:
    for each cycle, its fills as they landed, then its accesses by rob_seq.
    Each is a dict of cycle, instr, rob_seq, address, kind, deferred and
    applied, rebuilt for an access from its record: a deferred hit is
    applied exactly when its record commits."""
    log = [
        {"cycle": f.cycle, "instr": None, "rob_seq": None, "address": f.address,
         "kind": f.kind, "deferred": False, "applied": True}
        for f in trace.mem_events
    ]
    for e in trace.records:
        if e.outcome is not None:
            deferred = e.outcome == "deferred_hit"
            log.append({
                "cycle": e.exec_start_cycle, "instr": e.macro.id, "rob_seq": e.rob_seq,
                "address": e.address, "kind": e.outcome, "deferred": deferred,
                "applied": not deferred or e.commit_cycle is not None,
            })
    # stable: a cycle's fills keep the order they landed in
    return sorted(log, key=lambda ev: (ev["cycle"], ev["rob_seq"] is not None, ev["rob_seq"] or 0))


def run_state(trace) -> dict:
    """Everything a run leaves behind that a reader of its trace can see, in
    the shape the core once stored it: each access also as a memory event,
    and each expansion with its opcode, whether it was capped, and the
    instance (record position) of each predicted micro-op."""
    cache = trace.cache
    instance = {id(e): i for i, e in enumerate(trace.records)}
    return {
        "csv": trace.to_csv(),
        "occupancy": trace.occupancy,
        "mem_events": memory_log(trace),
        "stats": dataclasses.asdict(trace.stats),
        "reps": [
            (r.instr, trace.program.instructions[r.instr].opcode, r.predicted, r.requested,
             r.target, not r.predicted and r.requested > r.target,
             r.emitted, r.verified, [instance[id(e)] for e in r.entries])
            for r in trace.rep_expansions
        ],
        "cache": (cache.sets, list(cache.mshrs.items()),
                  cache.hits, cache.misses, cache.coalesced_misses, cache.mshr_stalls),
    }


def assert_skipping_matches_stepper(make):
    """`make()` builds a fresh simulator; run it skipping and stepping."""
    fast, slow = make(), make()
    assert run_state(fast.run()) == run_state(stepped_run(slow))


def counting_steps(monkeypatch):
    """Count the cycles run() steps one at a time: every simulated cycle
    but those `_repeat_idle` covers. Returns `stepped(cycles)`, the cycles
    stepped among `cycles` simulated by runs since this call."""
    skipped = [0]
    repeat_idle = Simulator._repeat_idle

    def counted(self, dispatch_stalls, decode_stalls):
        before = self.cycle
        repeat_idle(self, dispatch_stalls, decode_stalls)
        skipped[0] += self.cycle - before

    monkeypatch.setattr(Simulator, "_repeat_idle", counted)
    return lambda cycles: cycles - skipped[0]


def scenario_sim(scenario, policy) -> Simulator:
    """Trial 0 of a prepared scenario; its program carries its setup."""
    return Simulator(scenario.program, scenario.machine, policy)


def prepared_cells(machine, mitigation_sets):
    """(scenario, policy) of both secrets of every scenario x mode x
    mitigation set that applies, built and analyzed as a sweep does."""
    for name in SCENARIO_NAMES:
        base = build_scenario(name, 0, machine)
        analysis = ProgramAnalysis(base.program, machine.core.expansion_cap)
        for mode in DefenseMode:
            for mitigations in mitigation_sets:
                try:
                    scenario, policy = prepare(base, mode, mitigations, analysis)
                except (ScenarioError, AnalysisError):
                    continue
                for secret in (0, 1):
                    yield with_secret(scenario, secret), policy


ALL_MITIGATION_SETS = [frozenset()] + [frozenset({m}) for m in Mitigation]


@pytest.mark.parametrize("rob_size", [64, 768])
@pytest.mark.parametrize("jitter", [0, 5])
def test_skipping_matches_stepper_on_every_scenario_cell(rob_size, jitter):
    machine = MachineConfig(core=CoreConfig(rob_size=rob_size), jitter_amplitude=jitter)
    cells = 0
    for scenario, policy in prepared_cells(machine, ALL_MITIGATION_SETS):
        assert_skipping_matches_stepper(lambda: scenario_sim(scenario, policy))
        cells += 1
    assert cells == 52


@pytest.mark.parametrize("rob_size", [64, 768])
@pytest.mark.parametrize("jitter", [0, 5])
def test_public_stepper_matches_run_on_every_scenario_cell(rob_size, jitter):
    # run() drives the per-cycle body itself, so step() is checked on its own
    machine = MachineConfig(core=CoreConfig(rob_size=rob_size), jitter_amplitude=jitter)
    cells = 0
    for scenario, policy in prepared_cells(machine, ALL_MITIGATION_SETS):
        fast, slow = scenario_sim(scenario, policy), scenario_sim(scenario, policy)
        assert run_state(fast.run()) == run_state(public_stepped_run(slow))
        cells += 1
    assert cells == 52


@pytest.mark.parametrize("rob_size", [64, 768])
@pytest.mark.parametrize("jitter", [0, 2])
def test_nop_class_micro_ops_complete_at_dispatch_on_every_scenario_cell(rob_size, jitter):
    # jump, fence, pad and rep filler never issue; one left in the decode
    # queue by a squash has neither stamp
    machine = MachineConfig(core=CoreConfig(rob_size=rob_size), jitter_amplitude=jitter)
    cells = nops = 0
    for scenario, policy in prepared_cells(machine, ALL_MITIGATION_SETS):
        trace, _ = run_single(scenario, policy)
        for e in trace.records:
            if e.uop.kind is UopKind.NOP:
                assert e.complete_cycle == e.dispatch_cycle, (scenario.name, e)
                nops += e.dispatch_cycle is not None
        cells += 1
    assert cells == 52 and nops > 0


@pytest.mark.parametrize("rob_size", [64, 768])
@pytest.mark.parametrize("jitter", [0, 2])
def test_memory_rules_hold_on_every_scenario_cell(rob_size, jitter):
    machine = MachineConfig(core=CoreConfig(rob_size=rob_size), jitter_amplitude=jitter)
    cells = 0
    kinds: collections.Counter = collections.Counter()
    for scenario, policy in prepared_cells(machine, ALL_MITIGATION_SETS):
        kinds += audit(scenario_sim(scenario, policy).run(), scenario.machine)
        cells += 1
    assert cells == 52
    assert {"hit", "deferred_hit", "miss", "fill"} <= kinds.keys(), kinds  # no scenario coalesces


@pytest.mark.parametrize("seed", range(4))
def test_memory_rules_hold_on_coalesced_misses_under_jitter(seed):
    # the second load joins the first one's MSHR a cycle later; the third
    # computes its address first, so joins later still
    text = "load r1, [8]\nload r2, [8]\nalu r3, 0\nalu r3, r3, 0\nload r4, [r3+8]"
    kinds = audit(simulate(text, jitter=2, seed=seed), make_sim(text, jitter=2, seed=seed).machine)
    assert kinds == {"miss": 1, "coalesced": 2, "fill": 1}


@pytest.mark.parametrize(
    "tamper, core, message",
    [
        (lambda load, alu, nop: setattr(nop, "exec_start_cycle", nop.dispatch_cycle),
         CoreConfig(), r"rob_seq 2 \(instr 2.0\)"),
        (lambda load, alu, nop: setattr(alu, "ready_cycle", load.complete_cycle),
         CoreConfig(), "its producer completes at 62"),
        (lambda load, alu, nop: setattr(load, "squash_cycle", load.commit_cycle),
         CoreConfig(), "must commit or be squashed"),
        (lambda load, alu, nop: setattr(nop, "commit_cycle", alu.commit_cycle - 1),
         CoreConfig(), "commit out of rob_seq order"),
        (lambda load, alu, nop: None, CoreConfig(commit_width=1),
         "more than 1 commits in a cycle"),
        (lambda load, alu, nop: None, CoreConfig(decode_width=1),
         "more than 2 dispatches in a cycle"),
    ],
    ids=["nop_issued", "ready_at_producer_completion", "committed_and_squashed",
         "commit_out_of_order", "commit_past_width", "dispatch_past_queue"],
)
def test_audit_refuses_a_trace_that_breaks_a_pipeline_rule(tamper, core, message):
    # the alu waits on the load; the alu and the nop commit in one cycle,
    # and all three dispatch in one cycle
    trace = simulate("load r1, [8]\nalu r2, r1, 1\nnop")
    audit(trace, MachineConfig())
    tamper(*trace.records)
    with pytest.raises(AssertionError, match=message):
        audit(trace, MachineConfig(core=core))


def test_audit_recounts_occupancy_from_the_stamps():
    trace = simulate("load r1, [8]\nalu r2, r1, 1\nnop")
    trace.occupancy[5] += 1
    with pytest.raises(AssertionError, match="occupancy at cycle 6: sampled 4, recounted 3"):
        audit(trace, MachineConfig())


def test_jitter_seed_moves_a_trace_only_under_jitter():
    # at jitter 0 no miss offset is computed, so no seed reaches the trace
    for jitter in (0, 2):
        csvs = {0: [], 7: []}
        for scenario, policy in prepared_cells(MachineConfig(), [frozenset()]):
            for seed in csvs:
                machine = dataclasses.replace(
                    scenario.machine, jitter_amplitude=jitter, jitter_seed=seed
                )
                csvs[seed].append(Simulator(scenario.program, machine, policy).run().to_csv())
        assert len(csvs[0]) == 30
        if jitter:
            assert csvs[0] != csvs[7]
        else:
            assert csvs[0] == csvs[7]


def test_reference_grid_steps_fewer_than_sixty_percent_of_cycles(monkeypatch):
    steps = counting_steps(monkeypatch)
    cycles = 0
    for jitter in (0, 2):
        for scenario, policy in prepared_cells(
            MachineConfig(jitter_amplitude=jitter), [frozenset()]
        ):
            cycles += run_single(scenario, policy, 0)[0].stats.cycles
    assert steps(cycles) < 0.6 * cycles


def test_jammed_rob_stalls_dispatch_across_the_miss(monkeypatch):
    text = "\n".join(["load r1, [8]"] + ["alu r2, r2, 1"] * 12)
    make = lambda: make_sim(text, core=CoreConfig(rob_size=4))
    assert_skipping_matches_stepper(make)
    steps = counting_steps(monkeypatch)
    trace = make().run()
    assert trace.stats.dispatch_stalls >= 55  # a full ROB behind the 60-cycle miss
    assert steps(trace.stats.cycles) < trace.stats.cycles - 50


@pytest.mark.parametrize(
    "text",
    [
        "load r1, [8]\nfence\nalu r2, r2, 1",
        "load r1, [8]\nrep_movs r1\nalu r2, r2, 1",
    ],
    ids=["fence_drain", "rep_counter"],
)
def test_blocked_decode_counts_each_skipped_cycle(text, monkeypatch):
    assert_skipping_matches_stepper(lambda: make_sim(text))
    steps = counting_steps(monkeypatch)
    trace = simulate(text)
    assert trace.stats.decode_stalls >= 55
    assert steps(trace.stats.cycles) < trace.stats.cycles - 50


def test_mshr_retries_are_stepped_and_each_miss_keeps_its_lines_jitter(monkeypatch):
    # a refused retry moves no offset: each miss takes the offset of its line
    text = "load r1, [8]\nload r2, [72]\nload r3, [136]"
    make = lambda: make_sim(text, cache=CacheConfig(mshr_entries=1), jitter=5, seed=3)
    assert_skipping_matches_stepper(make)
    steps = counting_steps(monkeypatch)
    sim = make()
    trace = sim.run()
    retries = sim.cache.mshr_stalls
    assert retries > 100  # each load waits out the fill before it
    assert steps(trace.stats.cycles) > retries
    latencies = [e.latency for e in trace.records]
    assert latencies == [60 + reference_offset(3, line, 5) for line in (8, 72, 136)]
    assert len(set(latencies)) > 1


def test_predicted_rep_verifies_under_a_jammed_rob(monkeypatch):
    # the expansion streams in full while a miss jams the ROB; its check is
    # the only work left, one cycle later
    text = "load r0, [8]\nalu r1, r1, 3\nrep_movs r1"
    policy = DefensePolicy(mitigations=frozenset({Mitigation.OPERAND_INDEPENDENT_FILL}))
    make = lambda: make_sim(text, core=CoreConfig(rob_size=8), policy=policy)
    assert_skipping_matches_stepper(make)
    steps = counting_steps(monkeypatch)
    trace = make().run()
    rep = trace.rep_expansions[0]
    assert rep.predicted and rep.verified is False
    assert trace.stats.squash_log[0].cycle == 4
    assert steps(trace.stats.cycles) < trace.stats.cycles - 50


def test_clean_rep_verification_alone_in_its_cycle_is_stepped():
    # a full ROB holds the first predicted micro-op back until the miss
    # commits; its clean check, a cycle later, is then all that happens, and
    # the expansion commits the cycle after
    text = "load r0, [8]\nalu r1, r1, 4\nnop\nnop\nrep_movs r1"
    policy = DefensePolicy(mitigations=frozenset({Mitigation.OPERAND_INDEPENDENT_FILL}))
    make = lambda: make_sim(text, core=CoreConfig(rob_size=4), policy=policy)
    assert_skipping_matches_stepper(make)
    trace = make().run()
    assert trace.rep_expansions[0].verified is True
    first = trace.records[4]
    assert first.commit_cycle == first.dispatch_cycle + 2


@pytest.mark.parametrize("k", [2, 3, 4])
def test_alus_woken_together_issue_one_per_cycle(k):
    # at ALU latency 4 each issue after the first is all that happens in its cycle
    text = "\n".join(["load r1, [8]"] + [f"alu r{i + 2}, r1, {i}" for i in range(k)])
    make = lambda: make_sim(text, core=CoreConfig(alu_latency=4))
    assert_skipping_matches_stepper(make)
    starts = [e.exec_start_cycle for e in make().run().records[1:]]
    assert starts == list(range(starts[0], starts[0] + k))


@pytest.mark.parametrize("max_cycles", [30, 61, 62, 63])
def test_cycle_limit_inside_an_idle_stretch(max_cycles):
    text = "load r1, [8]\nalu r2, r1, 1\nspin: jump spin"
    core = CoreConfig(max_cycles=max_cycles)
    errors = []
    for go in (Simulator.run, stepped_run):
        with pytest.raises(SimulationLimitError) as info:
            go(make_sim(text, core=core))
        errors.append((info.value.cycle, info.value.occupancy, info.value.snapshot))
    assert errors[0] == errors[1]
    assert errors[0][0] == max_cycles


def seed_rep_counters(program: Program) -> Program:
    """The program with `alu rC, 4` just before each REP on rC, unlabeled so
    that a branch to the REP skips it. A predicted rep_movs (2 x 4 micro-ops)
    then verifies clean, and a REP at a squash target may find the seed
    committed."""
    lines = []
    # a drawn program has no directives: one printed line per instruction
    for instr, line in zip(program.instructions, print_program(program).splitlines(), strict=True):
        if instr.opcode in REP_OPCODES:
            lines.append(f"alu {instr.operands[0]}, 4")
        lines.append(line)
    return parse_program("\n".join(lines))


SHADOW_WARM = (24, 25, 26, 27)  # lines a shadow program warms; no other draw warms them


def seed_registers(program: Program) -> Program:
    """The program behind `alu rK, K + 1` for each register r0-r5 that a
    drawn program uses: a backward branch then falls through unless the
    loop writes zero to its register, so most loops end."""
    prologue = "".join(f"alu r{k}, {k + 1}\n" for k in range(6))
    return parse_program(prologue + print_program(program))


@st.composite
def shadow_programs(draw):
    """A load that misses, a second load to its line that coalesces with
    it, alus on r3-r5 that complete before the miss, and a branch on the
    first load's value, so that what follows runs in the branch's shadow:
    on the fall-through path and past the target, loads to warm lines
    (under dom, shadowed hits whose effects wait for commit), loads to cold
    lines, and alus and loads that read the loaded value or r3-r5 (past the
    target, a chain that can reach OSP while the branch is unresolved)."""
    cold = st.integers(min_value=16, max_value=19)
    line = draw(cold)
    lines = [f".warm {w}" for w in SHADOW_WARM]
    lines += [f".data {line} {draw(st.integers(min_value=0, max_value=1))}"]
    lines += [f"load r1, [{line}]", f"load r2, [{line}]"]
    lines += [f"alu r{k}, r{k}, 1" for k in range(3, 6) if draw(st.booleans())]
    lines.append("gate: branch r1, join")
    for part in ("", "join: "):
        for _ in range(draw(st.integers(min_value=1, max_value=4))):
            kind = draw(st.sampled_from(["warm", "warm", "cold", "alu", "based"]))
            reg = f"r{draw(st.integers(min_value=3, max_value=5))}"
            src = f"r{draw(st.integers(min_value=2, max_value=5))}"
            if kind == "warm":
                body = f"load {reg}, [{draw(st.sampled_from(SHADOW_WARM))}]"
            elif kind == "cold":
                body = f"load {reg}, [{draw(cold)}]"
            elif kind == "based":
                body = f"load {reg}, [{src}+{draw(st.sampled_from(SHADOW_WARM))}]"
            else:
                body = f"alu {reg}, {src}, 1"
            lines.append(part + body)
            part = ""
    return parse_program("\n".join(lines) + "\n")


@st.composite
def machine_runs(draw):
    """A random program with warm lines and forced predictions, a policy
    derived from the program's analysis (dom_plus_invarspec half the time
    with conservative_invariance) and a machine whose cache has 2 or 64
    sets of 1, 2 or 4 ways, so that fills evict by replacement order. A
    program with a loop starts with nonzero registers, half the programs
    with a REP seed its counter, and half end in an independent load.
    About one machine in ten stops at a cycle limit of 20-400, so that the
    limit error stays covered; the others allow 2000 cycles, which every
    program that does not loop forever finishes in."""
    program = draw(st.one_of(dag_programs(), cyclic_programs(), shadow_programs()))
    if any(t is not None and t <= i for i, t in enumerate(program.targets)):
        program = seed_registers(program)
    has_rep = any(i.opcode in REP_OPCODES for i in program.instructions)
    if has_rep and draw(st.booleans()):
        program = seed_rep_counters(program)
    # a load past every reconvergence point, so with an empty safe set; the
    # simpler draw has it
    if draw(st.sampled_from((True, False))):
        line = draw(st.integers(min_value=0, max_value=15))
        program = parse_program(print_program(program) + f"load r1, [{line}]\n")
    branches = [i.label for i in program.instructions if i.opcode is Opcode.BRANCH]
    predict = draw(st.dictionaries(st.sampled_from(branches), st.booleans())) if branches else {}
    mode = draw(st.sampled_from(list(DefenseMode)))
    mitigations = frozenset()
    if has_rep and draw(st.booleans()):
        mitigations = frozenset({Mitigation.OPERAND_INDEPENDENT_FILL})
    if mode is DefenseMode.DOM_PLUS_INVARSPEC and draw(st.booleans()):
        mitigations |= {Mitigation.CONSERVATIVE_INVARIANCE}
    machine = MachineConfig(
        core=CoreConfig(
            rob_size=draw(st.sampled_from([4, 8, 64])),
            decode_width=draw(st.sampled_from([1, 4])),
            commit_width=draw(st.sampled_from([1, 4])),
            load_ports=draw(st.sampled_from([1, 2])),
            alu_ports=draw(st.sampled_from([1, 2])),
            alu_latency=draw(st.sampled_from([1, 4])),
            max_cycles=draw(st.integers(20, 400)) if draw(st.integers(0, 9)) == 5 else 2_000,
        ),
        cache=CacheConfig(
            num_sets=draw(st.sampled_from([2, 64])),
            ways=draw(st.sampled_from([1, 2, 4])),
            mshr_entries=draw(st.integers(min_value=1, max_value=2)),
        ),
        jitter_amplitude=draw(st.sampled_from([0, 3])),
        jitter_seed=draw(st.integers(min_value=0, max_value=3)),
    )
    warm = program.warm + tuple(draw(st.sets(st.integers(min_value=0, max_value=15))))
    program = dataclasses.replace(program, warm=warm, predict=predict)
    analysis = ProgramAnalysis(program, machine.core.expansion_cap)
    return program, DefensePolicy(mode, mitigations, analysis), machine


@settings(max_examples=100, deadline=None)
@given(machine_runs())
def test_skipping_matches_stepper_on_random_programs(run_args):
    program, policy, machine = run_args
    outcomes = [
        run_outcome(go, Simulator(program, machine, policy)) for go in (audited_run, stepped_run)
    ]
    assert outcomes[0] == outcomes[1]


@settings(max_examples=100, deadline=None)
@given(shadow_programs(), st.sampled_from([1, 2, 4]))
def test_memory_rules_hold_on_shadowed_hits_in_shared_sets(program, ways):
    # in two sets each warm line shares its set with another and with two
    # cold lines, so a fill evicts by the replacement order that a dom-gated
    # hit must leave alone until it commits, and a later access shows it
    machine = MachineConfig(cache=CacheConfig(num_sets=2, ways=ways))
    audited_run(Simulator(program, machine, DefensePolicy(mode=DefenseMode.DOM)))


@settings(max_examples=100, deadline=None)
@given(machine_runs())
def test_public_stepper_matches_run_on_random_programs(run_args):
    program, policy, machine = run_args
    outcomes = [
        run_outcome(go, Simulator(program, machine, policy))
        for go in (Simulator.run, public_stepped_run)
    ]
    assert outcomes[0] == outcomes[1]


@settings(max_examples=100, deadline=None)
@given(machine_runs())
def test_shadows_match_recomputation_on_random_programs(run_args):
    program, policy, machine = run_args
    sim = Simulator(program, machine, policy)
    while not sim.halted and sim.cycle < machine.core.max_cycles:
        sim.step()
        check_shadows(sim)
        check_producer_map(sim)


def osp_with_producer_walk(entry, rob, safe_sets, oldest):
    """`robsim.defenses.osp_reached` with the walk over value producers it
    once had: a shadowed complete entry at ESP is OSP only once each
    in-flight producer in its `src` is. With derived safe sets that walk
    cannot decide, since ESP already holds every producer at OSP."""
    if entry.osp:
        return True
    if entry.complete_cycle is None:
        return False
    if oldest is None or entry.rob_seq <= oldest:
        entry.osp = True
        return True
    if not defenses.esp_check(entry, safe_sets, rob, oldest):
        return False
    for producer in entry.src:
        if producer is not None and not osp_with_producer_walk(producer, rob, safe_sets, oldest):
            return False
    entry.osp = True
    return True


def with_producer_walk(go):
    """`go()` with esp_check reaching OSP through `osp_with_producer_walk`."""
    with mock.patch.object(defenses, "osp_reached", osp_with_producer_walk):
        return go()


@settings(max_examples=100, deadline=None)
@given(machine_runs())
def test_osp_needs_no_producer_walk_on_random_programs(run_args):
    program, policy, machine = run_args
    go = lambda: run_outcome(Simulator.run, Simulator(program, machine, policy))
    assert go() == with_producer_walk(go)


def test_osp_needs_no_producer_walk_on_a_shadowed_chain():
    # the load's safe set holds the join's ALU, complete but shadowed by the
    # branch, whose producer is the ALU before the branch: the walk runs on
    # that producer, in flight behind the miss, and agrees with ESP
    text = """
    load r1, [16]
    alu r3, r3, 1
    branch r1, join
    alu r4, r4, 1
    join: alu r5, r3, 1
    load r6, [r5+24]
    """
    program = parse_program(text)
    policy = invarspec_policy(program)
    walked = []

    def walk(entry, rob, safe_sets, oldest):
        reached = osp_with_producer_walk(entry, rob, safe_sets, oldest)
        if reached and oldest is not None and entry.rob_seq > oldest:  # shadowed
            walked.append((entry.macro.id, [p.macro.id for p in entry.src if p is not None]))
        return reached

    go = lambda: run_state(Simulator(program, None, policy).run())
    with mock.patch.object(defenses, "osp_reached", walk):
        walked_state = go()
    assert walked_state == go()
    assert (4, [1]) in walked


@pytest.mark.parametrize("jitter", [0, 2])
def test_osp_needs_no_producer_walk_on_every_lifting_scenario_cell(jitter):
    machine = MachineConfig(jitter_amplitude=jitter)
    cells = 0
    for scenario, policy in prepared_cells(machine, ALL_MITIGATION_SETS):
        if policy.lifts_invariant:
            for trial in range(3):
                go = lambda: run_state(run_single(scenario, policy, trial)[0])
                assert go() == with_producer_walk(go), (scenario.name, policy.mitigations)
            cells += 1
    assert cells == 24  # both secrets of 5 + 5 + 1 + 1 applicable mitigation sets


@pytest.mark.parametrize(
    "program, message",
    [
        (Program([MacroInstruction(1, Opcode.NOP, ())]), "not dense"),
        (Program([MacroInstruction(0, Opcode.JUMP, (Label("nowhere"),))]), "unresolved label"),
        (Program([MacroInstruction(0, Opcode.NOP, ())], data_init={ADDRESS_SPACE: 1}),
         "data address 0x100000 outside address space"),
        (Program([MacroInstruction(0, Opcode.NOP, ())], warm=(ADDRESS_SPACE,)),
         "warm address 0x100000 outside address space"),
        (Program([MacroInstruction(0, Opcode.NOP, ())], flush=(-1,)),
         "flush address -0x1 outside address space"),
        (Program([MacroInstruction(0, Opcode.NOP, ()),
                  MacroInstruction(1, Opcode.LOAD, (Reg(1), Mem(None, -16)))]),
         "address -0x10 outside address space in instruction 1"),
        (Program([MacroInstruction(0, Opcode.STORE, (Reg(1), Mem(None, ADDRESS_SPACE)))]),
         "address 0x100000 outside address space in instruction 0"),
        (Program([MacroInstruction(0, Opcode.NOP, ())], predict={"nowhere": True}),
         "unresolved label 'nowhere' in .predict"),
        (Program([MacroInstruction(0, Opcode.NOP, (), "x")], {"x": 0}, predict={"x": False}),
         "'x' names a nop, not a branch"),
    ],
    ids=["non_dense_ids", "unresolved_label", "data_outside_address_space",
         "warm_outside_address_space", "flush_outside_address_space",
         "load_outside_address_space", "store_outside_address_space",
         "predict_unknown_label", "predict_non_branch"],
)
def test_simulator_rejects_an_invalid_program(program, message):
    with pytest.raises(ValueError, match=message):
        Simulator(program)


def test_program_is_validated_once_for_many_simulators(monkeypatch):
    calls = []
    validate = Program.validate
    monkeypatch.setattr(Program, "validate", lambda self: calls.append(1) or validate(self))
    program = Program([MacroInstruction(0, Opcode.NOP, ())])
    for _ in range(3):
        Simulator(program).run()
    assert len(calls) == 1


def test_program_is_validated_once_per_sweep(monkeypatch, tmp_path):
    # each distinct instruction list once, not once per (cell, secret):
    # every scenario's by parse_program, which keeps the targets it
    # resolves, and the one path_balancing rewrites by validate()
    checked = []
    validate, parse = Program.validate, scenarios.parse_program

    def parsed(text):
        program = parse(text)
        checked.append(program.instructions)
        return program

    monkeypatch.setattr(
        Program, "validate", lambda self: checked.append(self.instructions) or validate(self)
    )
    monkeypatch.setattr(scenarios, "parse_program", parsed)
    result = run_experiment(config_from_mapping(INVARSPEC_ROB768_SWEEP, tmp_path))
    assert result.exit_code == 0
    assert len({id(instructions) for instructions in checked}) == len(checked)
    assert len(checked) == len(SCENARIO_NAMES) + 1

