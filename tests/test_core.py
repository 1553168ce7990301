"""Pipeline timing, squash, shadow, and rep-expansion behavior of the core."""

from __future__ import annotations

import collections

import pytest

from robsim.analysis import AnalysisError, compute_safe_sets
from robsim.cache import CacheConfig
from robsim.core import (
    BranchPredictor,
    CoreConfig,
    MachineConfig,
    SimulationLimitError,
    Simulator,
    compute_shadows,
    run,
)
from robsim.defenses import DefenseMode, DefensePolicy, Mitigation
from robsim.isa import REP_OPCODES, Opcode, UopKind, parse_program
from robsim.scenarios import SCENARIO_NAMES, ScenarioError, build_scenario, prepare, run_single


def make_sim(
    text,
    *,
    core=None,
    cache=None,
    policy=None,
    forced=None,
    jitter=0,
    seed=0,
    warm=(),
):
    machine = MachineConfig(
        core=core or CoreConfig(),
        cache=cache or CacheConfig(),
        jitter_amplitude=jitter,
        jitter_seed=seed,
    )
    sim = Simulator(
        parse_program(text),
        machine,
        policy,
        BranchPredictor(forced),
    )
    for addr in warm:
        sim.cache.warm(addr)
    return sim


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
    load r1, [8]
    branch r1, skip
    alu r2, r2, 1
    skip: alu r3, r3, 1
    """
    trace = simulate(text, forced={1: False})
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
    load r1, [8]
    branch r1, skip
    alu r2, r2, 1
    skip: alu r3, r3, 1
    """
    trace = simulate(text, forced={1: False}, warm=[8])
    assert trace.stats.squashes == 0
    assert len(trace.committed_for(2)) == 1
    assert len(trace.committed_for(3)) == 1


def test_taken_branch_redirects_fetch_at_decode():
    text = """
    .data 8 0
    load r1, [8]
    branch r1, skip
    alu r2, r2, 1
    skip: alu r3, r3, 1
    """
    trace = simulate(text, forced={1: True}, warm=[8])
    # predicted taken and actually taken: instruction 2 is never fetched
    assert trace.stats.squashes == 0
    assert [e.instr for e in trace.records] == [0, 1, 3]


def test_branch_counter_training():
    text = """
    .data 8 0
    load r1, [8]
    branch r1, skip
    alu r2, r2, 1
    skip: alu r3, r3, 1
    """
    sim = make_sim(text, warm=[8])
    sim.run()
    # counters start weakly not-taken (1); one taken outcome bumps to 2
    assert sim.predictor.counters[1] == 2
    assert sim.predictor.predict(1) is True


def test_forced_predictions_never_train():
    text = """
    .data 8 0
    load r1, [8]
    branch r1, skip
    alu r2, r2, 1
    skip: alu r3, r3, 1
    """
    sim = make_sim(text, forced={1: False}, warm=[8])
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
        live = list(sim.rob)
        assert [e.shadow for e in live] == compute_shadows(live)
        if any(e.shadow is not None and e.shadow > live[0].rob_seq for e in live):
            saw_reassignment = True
    # the oldest branch resolves first, so survivors fall to the next oldest
    assert saw_reassignment
    assert sim.stats.squashes == 0


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
    load r1, [8]
    branch r1, out
    alu r2, r2, 1
    alu r4, r4, 1
    out: nop
    """
    trace = simulate(text, forced={1: False})
    assert any(e.squashed for e in trace.records)
    _check_lifecycle(trace)
    # a shadowed hit on the correct path: its deferred update lands at commit
    committed_hit = """
    .data 16 1
    load r1, [16]
    branch r1, done
    load r2, [8]
    done: nop
    """
    dom = DefensePolicy(mode=DefenseMode.DOM)
    deferred = _check_lifecycle(simulate(committed_hit, policy=dom, warm=[8]))
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
    load r1, [8]
    branch r1, away
    load r2, [64]
    away: nop
    """
    sim = make_sim(text, forced={1: False})
    trace = sim.run()
    wrong_path = only([e for e in trace.records if e.instr == 2])
    assert wrong_path.squashed
    assert wrong_path.outcome == "miss"
    assert sim.cache.resident(64)
    assert any(e.kind == "fill" and e.address == 64 for e in trace.mem_events)


def test_load_port_serializes_independent_loads():
    text = """
    load r1, [8]
    load r2, [72]
    """
    trace = simulate(text, warm=[8, 72])
    first, second = trace.records
    assert second.exec_start_cycle == first.exec_start_cycle + 1


def test_full_mshr_table_stalls_and_retries():
    cache = CacheConfig(mshr_entries=1)
    text = """
    load r1, [8]
    load r2, [72]
    """
    trace = simulate(text, cache=cache)
    first, second = trace.records
    # the second miss retries until the first fill frees its table entry
    assert second.exec_start_cycle == first.exec_start_cycle + 60
    assert trace.stats.load_port_stalls > 0


def test_unbounded_mshr_table_never_stalls():
    cache = CacheConfig(mshr_entries=None)
    text = """
    load r1, [8]
    load r2, [72]
    """
    trace = simulate(text, cache=cache)
    first, second = trace.records
    assert second.exec_start_cycle == first.exec_start_cycle + 1
    assert trace.stats.load_port_stalls == 0


def test_delay_policy_holds_shadowed_cold_load():
    text = """
    .data 8 1
    load r1, [8]
    branch r1, end
    load r2, [64]
    end: nop
    """
    baseline = simulate(text, forced={1: False}, warm=[8])
    open_load = only([e for e in baseline.records if e.instr == 2])
    branch = only([e for e in baseline.records if e.instr == 1])
    assert open_load.exec_start_cycle < branch.complete_cycle

    policy = DefensePolicy(mode=DefenseMode.DOM)
    guarded = simulate(text, forced={1: False}, warm=[8], policy=policy)
    held_load = only([e for e in guarded.records if e.instr == 2])
    branch = only([e for e in guarded.records if e.instr == 1])
    assert held_load.exec_start_cycle > branch.complete_cycle
    assert held_load.outcome == "miss"


SHADOWED_COLD_LOAD = """
.data 16 0
load r1, [16]
branch r1, done
load r2, [40]
alu r3, r3, 1
done: nop
"""


def test_invariant_load_lifts_at_dispatch_and_stamps_the_cycle():
    program = parse_program(SHADOWED_COLD_LOAD)
    analyzed = compute_safe_sets(program)
    assert analyzed[2]  # the load is control dependent on branch 1

    policy = DefensePolicy(mode=DefenseMode.DOM_PLUS_INVARSPEC, safe_sets=analyzed)
    held = simulate(SHADOWED_COLD_LOAD, forced={1: False}, policy=policy)
    load = only([e for e in held.records if e.instr == 2])
    assert load.esp_cycle is None and load.exec_start_cycle is None

    empty = {i: frozenset() for i in range(len(program))}
    policy = DefensePolicy(mode=DefenseMode.DOM_PLUS_INVARSPEC, safe_sets=empty)
    lifted = simulate(SHADOWED_COLD_LOAD, forced={1: False}, policy=policy)
    load = only([e for e in lifted.records if e.instr == 2])
    branch = only([e for e in lifted.records if e.instr == 1])
    assert load.esp_cycle == load.dispatch_cycle < branch.complete_cycle
    assert load.outcome == "miss" and load.exec_start_cycle < branch.complete_cycle


def test_shadowed_hit_defers_replacement_update_to_commit():
    text = """
    .data 8 1
    load r1, [8]
    branch r1, end
    load r2, [12]
    end: nop
    """
    cache = CacheConfig(num_sets=4, ways=2)
    policy = DefensePolicy(mode=DefenseMode.DOM)
    sim = make_sim(text, cache=cache, policy=policy, forced={1: False}, warm=[12, 8])
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
    load r1, [8]
    branch r1, end
    store r2, [64]
    end: nop
    """
    policy = DefensePolicy(mode=DefenseMode.DOM)
    trace = simulate(text, forced={1: False}, warm=[8, 64], policy=policy)
    store = only([e for e in trace.records if e.instr == 2])
    branch = only([e for e in trace.records if e.instr == 1])
    assert store.exec_start_cycle > branch.complete_cycle


def test_store_writes_memory_at_commit():
    text = """
    alu r1, r1, 9
    store r1, [32]
    load r2, [32]
    fence
    """
    sim = make_sim(text, warm=[32])
    trace = sim.run()
    assert sim.mem_values[32] == 9
    assert trace.stats.squashes == 0


def test_fence_drains_before_younger_work():
    text = """
    load r1, [8]
    fence
    alu r2, r2, 1
    """
    trace = simulate(text, warm=[8])
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
    assert any("capped" in w for w in trace.warnings)


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
    load r1, [8]
    branch r1, skip
    load r2, [64]
    skip: alu r3, r3, 1
    """
    a = simulate(text, forced={1: False}, jitter=3, seed=11)
    b = simulate(text, forced={1: False}, jitter=3, seed=11)
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


def test_run_convenience_matches_simulator():
    program = parse_program("alu r1, r1, 1")
    trace = run(program)
    assert trace.stats.committed_uops == 1
