"""Pipeline timing, squash, shadow, and rep-expansion behavior of the core."""

from __future__ import annotations

import collections
import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_analysis import cyclic_programs, dag_programs, members

from robsim.analysis import AnalysisError, compute_safe_sets
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
    Opcode,
    Program,
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
    assert {e.opcode for e in trace.records} == set(kinds)
    for e in trace.records:
        assert e.uop.kind is kinds[e.opcode]
        assert (e.uop.parent, e.uop.seq) == (e.instr, 0)


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
    wrong_path = [e for e in trace.records if e.instr == 3 and e.squashed]
    assert len(wrong_path) == 1


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
    assert [e.instr for e in trace.records] == [0, 1, 3]


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


def test_occupancy_sampled_every_cycle():
    trace = simulate("alu r1, r1, 1\nalu r2, r2, 1")
    assert len(trace.occupancy) == trace.stats.cycles


def _is_speculation_source(entry: RobEntry) -> bool:
    if entry.uop.kind is UopKind.BRANCH_RESOLVE and not entry.complete:
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


def _check_lifecycle(trace) -> collections.Counter:
    """Assert the stamp invariants an entry's derived stage rests on;
    count deferred hits by whether their replacement update was applied."""
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
            event = e.mem_event
            assert event is not None and event.kind == "deferred_hit" and event.deferred
            assert event.applied == (e.commit_cycle is not None), e
            deferred[event.applied] += 1
    events = [ev for ev in trace.mem_events if ev.kind == "deferred_hit"]
    assert len(events) == sum(deferred.values())
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
    assert any(e.squashed for e in trace.records)
    _check_lifecycle(trace)
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
    deferred = _check_lifecycle(simulate(committed_hit, policy=dom))
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
                    deferred += _check_lifecycle(run_single(scenario, policy, 0)[0])
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
    wrong_path = only([e for e in trace.records if e.instr == 2])
    assert wrong_path.squashed
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
    open_load = only([e for e in baseline.records if e.instr == 2])
    branch = only([e for e in baseline.records if e.instr == 1])
    assert open_load.exec_start_cycle < branch.complete_cycle

    policy = DefensePolicy(mode=DefenseMode.DOM)
    guarded = simulate(text, policy=policy)
    held_load = only([e for e in guarded.records if e.instr == 2])
    branch = only([e for e in guarded.records if e.instr == 1])
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


def test_invariant_load_lifts_at_dispatch_and_stamps_the_cycle():
    program = parse_program(SHADOWED_COLD_LOAD)
    analyzed = compute_safe_sets(program)
    assert 1 in members(analyzed[2])  # the load is control dependent on branch 1

    policy = DefensePolicy(mode=DefenseMode.DOM_PLUS_INVARSPEC, safe_sets=analyzed)
    held = simulate(SHADOWED_COLD_LOAD, policy=policy)
    load = only([e for e in held.records if e.instr == 2])
    assert load.esp_cycle is None and load.exec_start_cycle is None

    empty = {i: 0 for i in range(len(program))}
    policy = DefensePolicy(mode=DefenseMode.DOM_PLUS_INVARSPEC, safe_sets=empty)
    lifted = simulate(SHADOWED_COLD_LOAD, policy=policy)
    load = only([e for e in lifted.records if e.instr == 2])
    branch = only([e for e in lifted.records if e.instr == 1])
    assert load.esp_cycle == load.dispatch_cycle < branch.complete_cycle
    assert load.outcome == "miss" and load.exec_start_cycle < branch.complete_cycle


def test_lifting_follows_osp_through_a_complete_but_shadowed_member():
    # the wrong-path load's only safe-set member is the ALU, which completes
    # at once but stays shadowed by the branch, whose own member is the
    # 60-cycle miss: nothing on the chain reaches OSP before the squash
    text = """
    load r1, [16]
    branch r1, skip
    alu r2, r2, 1
    skip: load r3, [40]
    """
    safe_sets = {0: 0, 1: 1 << 0, 2: 1 << 1, 3: 1 << 2}
    policy = DefensePolicy(mode=DefenseMode.DOM_PLUS_INVARSPEC, safe_sets=safe_sets)
    trace = simulate(text, policy=policy)
    branch = only([e for e in trace.records if e.rob_seq == 1])
    alu = only([e for e in trace.records if e.rob_seq == 2])
    wrong = only([e for e in trace.records if e.rob_seq == 3])
    assert alu.complete_cycle < branch.complete_cycle == wrong.squash_cycle
    assert wrong.instr == 3 and wrong.squashed
    assert wrong.esp_cycle is None and wrong.exec_start_cycle is None


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
            done = [e for e in sim._records if e.instr == 2 and e.complete]
            if done:
                shadowed = done[0]
                assert shadowed.outcome == "deferred_hit"
                # executed, but the line must not look recently used yet
                assert sim.cache.snapshot_set(0) == [8, 12]
    assert shadowed is not None
    assert sim.cache.snapshot_set(0) == [12, 8]
    event = only([e for e in sim._mem_events if e.kind == "deferred_hit"])
    assert event.applied


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
    store = only([e for e in trace.records if e.instr == 2])
    branch = only([e for e in trace.records if e.instr == 1])
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
    load = only([e for e in trace.records if e.instr == 0])
    alu = only([e for e in trace.records if e.instr == 2])
    assert alu.dispatch_cycle > load.commit_cycle
    assert trace.stats.decode_stalls > 0


def test_rep_movs_expands_to_twice_the_counter():
    text = """
    alu r1, r1, 2
    rep_movs r1
    """
    trace = simulate(text)
    rep = only(trace.rep_expansions)
    assert rep.requested == 4
    assert rep.emitted == 4
    assert not rep.capped
    uops = [e for e in trace.records if e.instr == 1]
    assert [u.seq for u in uops] == [0, 1, 2, 3]
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
    assert rep.capped


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


def test_zero_jitter_is_exact():
    entry = only(simulate("load r1, [8]").records)
    assert entry.latency == 60


def test_compute_shadows_no_sources():
    assert compute_shadows([]) == []


# ----------------------------------------------------------------------
# idle-cycle skipping: run() against the one-cycle stepper


def stepped_run(sim: Simulator):
    """run() with one step() per cycle: the oracle for idle-cycle skipping."""
    sim._repeat_idle = lambda dispatch_stalls, decode_stalls: None
    return sim.run()


def run_state(trace) -> dict:
    """Everything a run leaves behind that a reader of its trace can see."""
    cache = trace.cache
    return {
        "csv": trace.to_csv(),
        "occupancy": trace.occupancy,
        "mem_events": [dataclasses.asdict(e) for e in trace.mem_events],
        "stats": dataclasses.asdict(trace.stats),
        "reps": [
            (r.instr, r.opcode, r.predicted, r.requested, r.target, r.capped,
             r.emitted, r.verified, [e.instance for e in r.entries])
            for r in trace.rep_expansions
        ],
        "cache": (cache.sets, [(m.addr, m.fill_cycle) for m in cache.mshrs],
                  cache.hits, cache.misses, cache.coalesced_misses, cache.mshr_stalls),
    }


def assert_skipping_matches_stepper(make):
    """`make()` builds a fresh simulator; run it skipping and stepping."""
    fast, slow = make(), make()
    assert run_state(fast.run()) == run_state(stepped_run(slow))


def counting_steps(monkeypatch) -> list[int]:
    calls = [0]
    step = Simulator.step

    def counted(self):
        calls[0] += 1
        return step(self)

    monkeypatch.setattr(Simulator, "step", counted)
    return calls


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


def test_reference_grid_steps_fewer_than_sixty_percent_of_cycles(monkeypatch):
    steps = counting_steps(monkeypatch)
    cycles = 0
    for jitter in (0, 2):
        for scenario, policy in prepared_cells(
            MachineConfig(jitter_amplitude=jitter), [frozenset()]
        ):
            cycles += run_single(scenario, policy, 0)[0].stats.cycles
    assert steps[0] < 0.6 * cycles


def test_jammed_rob_stalls_dispatch_across_the_miss(monkeypatch):
    text = "\n".join(["load r1, [8]"] + ["alu r2, r2, 1"] * 12)
    make = lambda: make_sim(text, core=CoreConfig(rob_size=4))
    assert_skipping_matches_stepper(make)
    steps = counting_steps(monkeypatch)
    trace = make().run()
    assert trace.stats.dispatch_stalls >= 55  # a full ROB behind the 60-cycle miss
    assert steps[0] < trace.stats.cycles - 50


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
    assert steps[0] < trace.stats.cycles - 50


def test_mshr_retries_are_stepped_and_draw_jitter(monkeypatch):
    text = "load r1, [8]\nload r2, [72]\nload r3, [136]"
    make = lambda: make_sim(text, cache=CacheConfig(mshr_entries=1), jitter=5, seed=3)
    assert_skipping_matches_stepper(make)
    steps = counting_steps(monkeypatch)
    sim = make()
    trace = sim.run()
    retries = sim.cache.mshr_stalls
    assert retries > 100  # each load waits out the fill before it
    assert steps[0] > retries
    latencies = [e.latency for e in trace.records]
    assert len(set(latencies)) > 1 and all(55 <= lat <= 65 for lat in latencies)


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
    assert steps[0] < trace.stats.cycles - 50


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


@st.composite
def machine_runs(draw):
    """A random program with warm lines and forced predictions, a policy
    and a machine. Half the programs with a REP seed its counter."""
    program = draw(st.one_of(dag_programs(), cyclic_programs()))
    has_rep = any(i.opcode in REP_OPCODES for i in program.instructions)
    if has_rep and draw(st.booleans()):
        program = seed_rep_counters(program)
    branches = [i.label for i in program.instructions if i.opcode is Opcode.BRANCH]
    predict = draw(st.dictionaries(st.sampled_from(branches), st.booleans())) if branches else {}
    mode = draw(st.sampled_from(list(DefenseMode)))
    mitigations = frozenset()
    if has_rep and draw(st.booleans()):
        mitigations = frozenset({Mitigation.OPERAND_INDEPENDENT_FILL})
    safe_sets = None
    if mode is DefenseMode.DOM_PLUS_INVARSPEC:
        safe_sets = draw(st.sampled_from([
            compute_safe_sets(program),
            {i: 0 for i in range(len(program))},
        ]))
    machine = MachineConfig(
        core=CoreConfig(
            rob_size=draw(st.sampled_from([4, 8, 64])),
            decode_width=draw(st.sampled_from([1, 4])),
            commit_width=draw(st.sampled_from([1, 4])),
            load_ports=draw(st.sampled_from([1, 2])),
            alu_ports=draw(st.sampled_from([1, 2])),
            alu_latency=draw(st.sampled_from([1, 4])),
            max_cycles=draw(st.one_of(st.just(2_000), st.integers(20, 400))),
        ),
        cache=CacheConfig(mshr_entries=draw(st.integers(min_value=1, max_value=2))),
        jitter_amplitude=draw(st.sampled_from([0, 3])),
        jitter_seed=draw(st.integers(min_value=0, max_value=3)),
    )
    warm = tuple(draw(st.sets(st.integers(min_value=0, max_value=15))))
    program = dataclasses.replace(program, warm=warm, predict=predict)
    policy = DefensePolicy(mode=mode, mitigations=mitigations, safe_sets=safe_sets)
    return program, policy, machine


@settings(max_examples=100, deadline=None)
@given(machine_runs())
def test_skipping_matches_stepper_on_random_programs(run_args):
    program, policy, machine = run_args
    outcomes = []
    for go in (Simulator.run, stepped_run):
        sim = Simulator(program, machine, policy)
        try:
            outcomes.append(run_state(go(sim)))
        except SimulationLimitError as exc:
            outcomes.append((exc.cycle, exc.occupancy, exc.snapshot))
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
        (Program([MacroInstruction(0, Opcode.NOP, ())], predict={"nowhere": True}),
         "unresolved label 'nowhere' in .predict"),
        (Program([MacroInstruction(0, Opcode.NOP, (), "x")], {"x": 0}, predict={"x": False}),
         "'x' names a nop, not a branch"),
    ],
    ids=["non_dense_ids", "unresolved_label", "data_outside_address_space",
         "warm_outside_address_space", "flush_outside_address_space",
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
    # each distinct instruction list once: every scenario's, and the one
    # path_balancing rewrites; not once per (cell, secret)
    validated = []
    validate = Program.validate
    monkeypatch.setattr(
        Program, "validate", lambda self: validated.append(self.instructions) or validate(self)
    )
    result = run_experiment(config_from_mapping(INVARSPEC_ROB768_SWEEP, tmp_path))
    assert result.exit_code == 0
    assert len({id(instructions) for instructions in validated}) == len(validated)
    assert len(validated) == len(SCENARIO_NAMES) + 1

