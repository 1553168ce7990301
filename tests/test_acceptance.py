"""Acceptance suite: one test per shipped guarantee, each a single verdict.

Every test here is an end-to-end check of a headline property at its stated
tolerance; the unit suites cover the mechanisms behind them. Numbered names
keep the `pytest -v` output readable as a checklist.
"""

from __future__ import annotations

import random
import time

import pytest
from test_analysis import members

from robsim.analysis import (
    BalanceError,
    balance_paths,
    build_dependence_graph,
    compute_safe_sets,
)
from robsim.cache import CacheConfig
from robsim.core import MachineConfig, Simulator
from robsim.defenses import DefenseMode, DefensePolicy, Mitigation
from robsim.experiment import judge
from robsim.isa import Opcode, parse_program, rep_expansion_count
from robsim.scenarios import (
    SCENARIO_NAMES,
    build_scenario,
    prepare,
    run_single,
)

UNPROT = DefenseMode.UNPROTECTED
DOM = DefenseMode.DOM
INVAR = DefenseMode.DOM_PLUS_INVARSPEC

HIT = CacheConfig().hit_cycles
MISS = CacheConfig().miss_cycles
ROB = MachineConfig().core.rob_size


def by_secret(scenario, policy, trials):
    """Secret 0's and secret 1's reports of one prepared cell; `judge`
    yields secret 0's trials first."""
    reports = [report for _, report in judge(scenario, policy, trials)]
    return reports[:trials], reports[trials:]


def run_cell(name, mode, mitigations=frozenset(), trials=1):
    scenario, policy = prepare(build_scenario(name, 0), mode, mitigations)
    return by_secret(scenario, policy, trials)


def first_trials(name, mode, mitigations=frozenset(), machine=None):
    """The prepared scenario, and trial 0's trace under each secret."""
    scenario, policy = prepare(build_scenario(name, 0, machine), mode, mitigations)
    return scenario, [trace for trace, _ in judge(scenario, policy, 1)]


def observations_of(streams):
    return [[r.observation for r in reports] for reports in streams]


def observation_streams(name, mode, mitigations=frozenset(), trials=25):
    return observations_of(run_cell(name, mode, mitigations, trials))


def assert_recovered(streams, expected):
    """Every trial of each secret observes that secret's expected value and
    decodes back to the secret."""
    for secret, reports in enumerate(streams):
        assert {r.observation for r in reports} == {expected[secret]}
        assert all(r.inferred_secret == secret for r in reports)


def test_criterion_1_loop_latency_dichotomy_and_recovery():
    start = time.perf_counter()
    assert_recovered(run_cell("fsi_v1_loop", UNPROT, trials=1000), (HIT, MISS))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"2x1000 trials took {elapsed:.1f}s"


def test_criterion_2_rep_breaks_lifted_defense():
    scenario, policy = prepare(build_scenario("fsi_v1_rep", 0), INVAR)
    assert members(policy.safe_sets[scenario.probe_instr]) == frozenset()
    assert_recovered(by_secret(scenario, policy, 1000), (HIT, MISS))
    _, (trace, report) = judge(scenario, policy, 1)  # secret 1's trial 0
    assert report.occupancy_peak == ROB
    assert trace.rep_expansions[0].requested == 2 * (1 << 10)


def test_criterion_3_conflict_set_order_exact():
    assert_recovered(run_cell("fsi_v2_order", UNPROT, trials=100), ((12,), (76,)))


def test_criterion_4_dom_baseline_blocks_v1():
    for name in ("fsi_v1_loop", "fsi_v1_rep"):
        scenario, policy = prepare(build_scenario(name, 0), DOM)
        streams = observations_of(by_secret(scenario, policy, 50))
        assert streams[0] == streams[1], name


def test_criterion_5_mshr_contention_and_negative_control():
    unbounded = MachineConfig(cache=CacheConfig(mshr_entries=None))
    completions = []
    for machine in (None, unbounded):
        scenario, traces = first_trials("bsi_mshr", UNPROT, machine=machine)
        completions.append(
            [t.committed_for(scenario.probe_instr)[-1].complete_cycle for t in traces]
        )
    (s0, s1), (unbounded_s0, unbounded_s1) = completions
    assert s1 >= s0 + 1
    assert unbounded_s0 == unbounded_s1


def test_criterion_6_conservative_filter_restores_protection():
    for name in ("fsi_v1_loop", "fsi_v1_rep"):
        leaky = observation_streams(name, INVAR)
        assert leaky[0] != leaky[1], f"{name} should leak unfiltered"
        filtered = observation_streams(
            name, INVAR, {Mitigation.CONSERVATIVE_INVARIANCE}
        )
        assert filtered[0] == filtered[1], name


def test_criterion_7_path_balancing_on_straight_variant():
    unbalanced = observation_streams("fsi_v1_straight", UNPROT)
    assert unbalanced[0] != unbalanced[1]
    scenario, policy = prepare(
        build_scenario("fsi_v1_straight", 0),
        UNPROT,
        {Mitigation.PATH_BALANCING},
    )
    dispatches = [
        trace.committed_for(scenario.probe_instr)[-1].dispatch_cycle
        for trace, _ in judge(scenario, policy, 1)
    ]
    assert dispatches[0] == dispatches[1]
    streams = observations_of(by_secret(scenario, policy, 25))
    assert streams[0] == streams[1]

    loop = build_scenario("fsi_v1_loop", 0)
    with pytest.raises(BalanceError, match="variable-length"):
        balance_paths(loop.program, loop.balance_branch)
    rep = build_scenario("fsi_v1_rep", 0)
    rep_branch = rep.program.labels["window"]
    with pytest.raises(BalanceError, match="variable-length"):
        balance_paths(rep.program, rep_branch)


def test_criterion_8_operand_independent_fill():
    _, traces = first_trials("fsi_v1_rep", INVAR, {Mitigation.OPERAND_INDEPENDENT_FILL})
    assert traces[0].occupancy == traces[1].occupancy

    policy = DefensePolicy(mitigations=frozenset({Mitigation.OPERAND_INDEPENDENT_FILL}))
    mismatched = parse_program(".data 8 3\nload r1, [8]\nrep_movs r1\n")
    sim = Simulator(mismatched, policy=policy)
    trace = sim.run()
    assert any(s.kind == "rep_verify" for s in trace.stats.squash_log)
    assert trace.rep_expansions[-1].requested == 6

    matched = parse_program(".data 8 4\nload r1, [8]\nrep_movs r1\n")
    sim = Simulator(matched, policy=policy)
    trace = sim.run()
    assert not any(s.kind == "rep_verify" for s in trace.stats.squash_log)
    assert trace.rep_expansions[0].verified


def test_criterion_9a_determinism():
    machine = MachineConfig(jitter_amplitude=2, jitter_seed=11)
    for name in SCENARIO_NAMES:
        csvs = []
        for _ in range(2):
            scenario, policy = prepare(build_scenario(name, 1, machine), UNPROT)
            trace, _ = run_single(scenario, policy, trial=3)
            csvs.append((trace.to_csv(), trace.occupancy))
        assert csvs[0] == csvs[1], name


def test_criterion_9b_rob_occupancy_bound():
    for name in SCENARIO_NAMES:
        for mode in (UNPROT, DOM, INVAR):
            for trace in first_trials(name, mode)[1]:
                assert max(trace.occupancy) <= ROB, (name, mode)


def test_criterion_9c_squash_completeness():
    seen_squashes = 0
    for name in SCENARIO_NAMES:
        for trace in first_trials(name, UNPROT)[1]:
            seen_squashes += len(trace.stats.squash_log)
            for record in trace.records:
                if record.squash_cycle is not None:
                    assert record.commit_cycle is None
                if record.commit_cycle is not None:
                    assert record.squash_cycle is None
    assert seen_squashes > 0


def _random_program(rng: random.Random) -> str:
    n = rng.randint(4, 32)
    lines = []
    for i in range(n):
        kind = rng.choice(["alu", "load", "store", "branch", "nop"])
        if i >= n - 1 and kind == "branch":
            kind = "alu"
        r1, r2 = f"r{rng.randint(0, 4)}", f"r{rng.randint(0, 4)}"
        if kind == "branch":
            lines.append(f"l{i}: branch {r1}, l{rng.randint(i + 1, n - 1)}")
        elif kind == "alu":
            lines.append(f"l{i}: alu {r1}, {r2}, {rng.randint(0, 7)}")
        elif kind == "load":
            lines.append(f"l{i}: load {r1}, [{r2}+{rng.randint(0, 63)}]")
        elif kind == "store":
            lines.append(f"l{i}: store {r1}, [{rng.randint(0, 63)}]")
        else:
            lines.append(f"l{i}: nop")
    return "\n".join(lines) + "\n"


def test_criterion_9d_safe_sets_match_brute_force():
    rng = random.Random(2024)
    for _ in range(40):
        program = parse_program(_random_program(rng))
        graph = build_dependence_graph(program)
        n = len(program)
        reach = [set(graph.sources(i)) for i in range(n)]
        changed = True
        while changed:
            changed = False
            for i in range(n):
                extra = set().union(*(reach[j] for j in reach[i])) if reach[i] else set()
                if not extra <= reach[i]:
                    reach[i] |= extra
                    changed = True
        sets = compute_safe_sets(program)
        for i in range(n):
            assert members(sets[i]) == frozenset(reach[i])


def test_criterion_9e_expansion_formulas():
    for n in (0, 1, 7, 100):
        assert rep_expansion_count(Opcode.REP_MOVS, n) == 2 * n
        assert rep_expansion_count(Opcode.REP_LODS, n) == 5 * n + 12
