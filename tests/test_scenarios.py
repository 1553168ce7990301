"""End-to-end attack scenarios: builders, dichotomies, defenses, receivers."""

from __future__ import annotations

import gc
from dataclasses import replace

import pytest
from test_analysis import members
from test_core import ALL_MITIGATION_SETS, prepared_cells

from robsim import analysis, defenses, scenarios
from robsim.analysis import BalanceError
from robsim.cache import CacheConfig
from robsim.core import CoreConfig, MachineConfig, Simulator
from robsim.defenses import REP_PREDICTED_COUNT, DefenseMode, Mitigation
from robsim.experiment import REPORT_FIELDS, CellResult, format_observation, judge, reports_csv
from robsim.isa import Opcode, parse_program, print_program
from robsim.scenarios import (
    SCENARIO_NAMES,
    SECRET_ADDR,
    WINDOW_CHAIN,
    ObservationKind,
    Receiver,
    Scenario,
    ScenarioError,
    _BUILDERS,
    build_scenario,
    infer_secret,
    prepare,
    run_single,
    with_secret,
)

UNPROT = DefenseMode.UNPROTECTED
DOM = DefenseMode.DOM
INVAR = DefenseMode.DOM_PLUS_INVARSPEC


def observe(name, secret, mode=UNPROT, mitigations=frozenset(), machine=None):
    scenario, policy = prepare(build_scenario(name, secret, machine), mode, mitigations)
    trace, report = run_single(scenario, policy)
    return trace, report


def first_reports(name, mode=UNPROT, mitigations=frozenset(), machine=None):
    """Trial 0's report under secret 0 and under secret 1, from one prepared cell."""
    scenario, policy = prepare(build_scenario(name, 0, machine), mode, mitigations)
    return [report for _, report in judge(scenario, policy, 1)]


def observations(name, mode=UNPROT, mitigations=frozenset(), machine=None):
    return [r.observation for r in first_reports(name, mode, mitigations, machine)]


# --- builders ---------------------------------------------------------------


def test_scenario_names_cover_builders():
    for name in SCENARIO_NAMES:
        scenario = build_scenario(name, 0)
        assert scenario.name == name


def test_unknown_scenario_rejected():
    with pytest.raises(ScenarioError, match="unknown scenario"):
        build_scenario("fsi_v3", 0)


def test_secret_must_be_a_bit():
    with pytest.raises(ScenarioError, match="secret"):
        build_scenario("fsi_v1_loop", 2)


def test_secret_lives_in_initial_memory():
    for name in SCENARIO_NAMES:
        for secret in (0, 1):
            scenario = build_scenario(name, secret)
            assert scenario.program.data_init[SECRET_ADDR] == secret
            assert SECRET_ADDR in scenario.program.warm


def _differing_keys(a: dict, b: dict) -> set:
    return {k for k in a.keys() | b.keys() if a.get(k) != b.get(k)}


@pytest.mark.parametrize("rob", [64, 768])
def test_secret_overlay_changes_only_the_secret(rob):
    machine = MachineConfig(core=CoreConfig(rob_size=rob))
    for name in SCENARIO_NAMES:
        base = build_scenario(name, 0, machine)
        s0, s1 = (with_secret(base, s) for s in (0, 1))
        assert s0.program.instructions is s1.program.instructions is base.program.instructions
        assert s0.program.labels is s1.program.labels is base.program.labels
        assert s0.program.targets is s1.program.targets is base.program.targets
        assert s0.program.analyses is s1.program.analyses is base.program.analyses
        assert _differing_keys(s0.program.data_init, s1.program.data_init) == {SECRET_ADDR}
        assert s0.program.warm == s1.program.warm == base.program.warm
        assert s0.program.flush == s1.program.flush == base.program.flush
        gates = _differing_keys(s0.program.predict, s1.program.predict)
        if name == "fsi_v1_straight":
            assert gates == {"gate"}
            gate = s0.program.labels["gate"]
            assert gate == WINDOW_CHAIN + 3  # branch r1, short
            assert s0.program.instructions[gate].opcode is Opcode.BRANCH
            assert (s0.program.predict["gate"], s1.program.predict["gate"]) == (True, False)
        else:
            assert gates == set()
        assert (s0.program.data_init[SECRET_ADDR], s1.program.data_init[SECRET_ADDR]) == (0, 1)
        # the overlay gives what building with the secret gives
        built = build_scenario(name, 1, machine)
        assert built.program == s1.program
        for bad in (-1, 2):
            with pytest.raises(ScenarioError, match="secret"):
                with_secret(base, bad)


def test_secret_overlay_refuses_a_trained_gate_that_is_not_a_branch():
    # the overlay keeps the shared targets but still checks the .predict it adds
    scenario = replace(build_scenario("fsi_v1_straight", 0), trained_gate="target")
    for secret in (0, 1):
        with pytest.raises(ValueError, match="'target' names a load, not a branch"):
            with_secret(scenario, secret)


@pytest.mark.parametrize("rob", [64, 768])
def test_a_finished_run_leaves_no_cyclic_garbage(rob):
    # producers drop their consumer lists once woken or squashed, so every
    # run frees by reference counting alone
    machine = MachineConfig(core=CoreConfig(rob_size=rob), jitter_amplitude=2)
    gc.collect()
    gc.disable()
    try:
        for name in SCENARIO_NAMES:
            for mode in DefenseMode:
                for secret in (0, 1):
                    scenario, policy = prepare(build_scenario(name, secret, machine), mode)
                    trace, _ = run_single(scenario, policy)
                    assert all(e.dependents is None for e in trace.records)
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0


def test_a_program_and_its_overlays_share_one_analysis(monkeypatch):
    # the analysis is kept on the program, so neither a second prepare nor a
    # prepare of the other secret's overlay computes it again
    calls = {"compute_safe_sets": 0, "analyze_all_branches": 0}

    def counted(name):
        real = getattr(scenarios, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(scenarios, name, wrapper)

    counted("compute_safe_sets")
    counted("analyze_all_branches")
    conservative = {Mitigation.CONSERVATIVE_INVARIANCE}
    scenario = build_scenario("fsi_v1_loop", 0)
    _, filtered = prepare(scenario, INVAR, conservative)
    _, plain = prepare(scenario, INVAR)
    _, other = prepare(with_secret(scenario, 1), INVAR, conservative)
    assert calls == {"compute_safe_sets": 1, "analyze_all_branches": 1}
    assert other.safe_sets == filtered.safe_sets != plain.safe_sets


def test_run_needs_a_secret():
    scenario = _BUILDERS["fsi_v1_loop"](MachineConfig())
    assert SECRET_ADDR not in scenario.program.data_init
    _, policy = prepare(scenario, UNPROT)
    with pytest.raises(ScenarioError, match="no secret"):
        run_single(scenario, policy)


def test_probe_resolves_through_label():
    scenario = build_scenario("fsi_v1_loop", 0)
    probe = scenario.program.instructions[scenario.probe_instr]
    assert probe.opcode is Opcode.LOAD
    assert probe.label == "target"


def test_predicted_labels_name_branches():
    for name in SCENARIO_NAMES:
        for secret in (0, 1):
            program = build_scenario(name, secret).program
            assert "window" in program.predict
            for label in program.predict:
                assert program.instructions[program.labels[label]].opcode is Opcode.BRANCH


@pytest.mark.parametrize("rob", [64, 768])
def test_printed_program_replays_trial_zero(rob):
    # every prepared cell's text round-trips, and the re-parsed program run
    # on a fresh core traces exactly what run_single traces
    machine = MachineConfig(core=CoreConfig(rob_size=rob))
    cells = 0
    for scenario, policy in prepared_cells(machine, ALL_MITIGATION_SETS):
        printed = print_program(scenario.program)
        reparsed = parse_program(printed)
        assert reparsed == scenario.program
        assert print_program(reparsed) == printed
        replay = Simulator(reparsed, machine, policy).run()
        assert replay.to_csv() == run_single(scenario, policy, 0)[0].to_csv()
        cells += 1
    assert cells == 52


def test_v1_rejects_rob_larger_than_expansion_cap():
    machine = MachineConfig(core=CoreConfig(rob_size=128, expansion_cap=100))
    for name in ("fsi_v1_loop", "fsi_v1_rep", "fsi_v1_straight"):
        with pytest.raises(ScenarioError, match="expansion cap"):
            build_scenario(name, 0, machine)


def test_v2_requires_direct_mapped_cache():
    machine = MachineConfig(cache=CacheConfig(ways=2))
    with pytest.raises(ScenarioError, match="direct-mapped"):
        build_scenario("fsi_v2_order", 0, machine)


def test_v2_rejects_non_conflicting_pair():
    # the pair 12/76 shares a set of 64, not of 128 (`cache: {num_sets: 128}`)
    machine = MachineConfig(cache=CacheConfig(num_sets=128))
    with pytest.raises(ScenarioError, match="same set of a 128-set cache"):
        build_scenario("fsi_v2_order", 0, machine)


def test_bsi_needs_two_mshr_entries():
    machine = MachineConfig(cache=CacheConfig(mshr_entries=1))
    with pytest.raises(ScenarioError, match="miss-table"):
        build_scenario("bsi_mshr", 0, machine)


# --- unprotected dichotomies ------------------------------------------------


def test_loop_latency_dichotomy():
    assert observations("fsi_v1_loop") == [3, 60]


def test_rep_latency_dichotomy():
    assert observations("fsi_v1_rep") == [3, 60]


def test_straight_completion_dichotomy():
    obs = observations("fsi_v1_straight")
    assert obs[0] < obs[1]
    threshold = build_scenario("fsi_v1_straight", 0).receiver.threshold
    assert obs[0] < threshold < obs[1]


def test_v2_set_order_dichotomy():
    obs = observations("fsi_v2_order")
    assert obs[0] == (12,)
    assert obs[1] == (76,)


def test_bsi_stall_dichotomy():
    obs = observations("bsi_mshr")
    assert obs[1] >= obs[0] + 1
    assert obs[0] == 60


def test_bsi_unbounded_mshr_is_negative_control():
    machine = MachineConfig(cache=CacheConfig(mshr_entries=None))
    obs = observations("bsi_mshr", machine=machine)
    assert obs[0] == obs[1]


def test_jam_fills_reorder_buffer():
    for name in ("fsi_v1_loop", "fsi_v1_rep"):
        _, report = observe(name, 1)
        assert report.occupancy_peak == MachineConfig().core.rob_size


def test_jam_delays_probe_past_branch_resolution():
    trace, _ = observe("fsi_v1_loop", 1)
    scenario = build_scenario("fsi_v1_loop", 1)
    probe = trace.committed_for(scenario.probe_instr)[-1]
    window = trace.committed_for(scenario.program.labels["window"])[-1]
    assert probe.dispatch_cycle > window.complete_cycle


def test_idle_gate_lets_probe_run_ahead_of_resolution():
    trace, _ = observe("fsi_v1_loop", 0)
    scenario = build_scenario("fsi_v1_loop", 0)
    window = trace.committed_for(scenario.program.labels["window"])[-1]
    speculative = [
        r
        for r in trace.records
        if r.macro.id == scenario.probe_instr and r.squash_cycle is not None and r.complete_cycle
    ]
    assert speculative
    assert speculative[0].complete_cycle < window.complete_cycle


@pytest.mark.check("verdicts")
def test_unprotected_recovery_is_exact():
    for name in SCENARIO_NAMES:
        for secret, report in enumerate(first_reports(name)):
            assert report.inferred_secret == secret, name


# --- defense modes ----------------------------------------------------------


@pytest.mark.check("verdicts")
def test_dom_observations_identical_across_secrets():
    for name in SCENARIO_NAMES:
        obs = observations(name, mode=DOM)
        assert obs[0] == obs[1], name


@pytest.mark.check("verdicts")
def test_invarspec_lifting_reopens_fsi():
    for name in ("fsi_v1_loop", "fsi_v1_rep", "fsi_v1_straight", "fsi_v2_order"):
        obs = observations(name, mode=INVAR)
        assert obs[0] != obs[1], name


@pytest.mark.check("verdicts")
def test_invarspec_keeps_bsi_closed():
    obs = observations("bsi_mshr", mode=INVAR)
    assert obs[0] == obs[1]


def test_invarspec_recovery_is_exact_for_fsi():
    for name in ("fsi_v1_loop", "fsi_v1_rep", "fsi_v2_order"):
        for secret, report in enumerate(first_reports(name, mode=INVAR)):
            assert report.inferred_secret == secret, name


def test_dom_policy_carries_no_safe_sets():
    _, policy = prepare(build_scenario("fsi_v1_loop", 0), DOM)
    assert policy.safe_sets is None
    assert not policy.lifts_invariant


def test_invarspec_policy_covers_every_instruction():
    scenario, policy = prepare(build_scenario("fsi_v1_loop", 0), INVAR)
    assert set(policy.safe_sets) == set(range(len(scenario.program)))


def test_probe_safe_set_is_empty_without_filtering():
    scenario, policy = prepare(build_scenario("fsi_v1_rep", 0), INVAR)
    assert members(policy.safe_sets[scenario.probe_instr]) == frozenset()


# --- mitigations ------------------------------------------------------------


@pytest.mark.check("verdicts")
def test_conservative_filter_closes_every_scenario():
    for name in SCENARIO_NAMES:
        obs = observations(name, mode=INVAR, mitigations={Mitigation.CONSERVATIVE_INVARIANCE})
        assert obs[0] == obs[1], name


def test_conservative_filter_prepares_a_1024_entry_rob():
    # fsi_v2_order grows to 1066 instructions; the path walk must not
    # recurse once per instruction on the gadget
    machine = MachineConfig(core=CoreConfig(rob_size=1024))
    scenario = build_scenario("fsi_v2_order", 0, machine)
    assert len(scenario.program) == 1066
    _, policy = prepare(scenario, INVAR, {Mitigation.CONSERVATIVE_INVARIANCE})
    probe = scenario.probe_instr
    assert set(policy.safe_sets) == set(range(1066))
    assert WINDOW_CHAIN + 3 in members(policy.safe_sets[probe])  # the secret gate


def test_conservative_filter_grows_probe_safe_set():
    scenario, policy = prepare(
        build_scenario("fsi_v1_loop", 0), INVAR, {Mitigation.CONSERVATIVE_INVARIANCE}
    )
    assert scenario.program.labels["window"] in members(policy.safe_sets[scenario.probe_instr])


@pytest.mark.check("verdicts")
def test_balancing_closes_straight_variant():
    obs = observations(
        "fsi_v1_straight", mitigations={Mitigation.PATH_BALANCING}
    )
    assert obs[0] == obs[1]


def test_path_balancing_profiles_at_the_machine_cap(monkeypatch):
    # balance_paths profiles before and after padding, the certificate once
    caps = {"balance": [], "certify": []}
    profile, certify_profiles = analysis.analyze_paths, defenses.analyze_all_branches
    monkeypatch.setattr(analysis, "analyze_paths", lambda program, branch, cap: (
        caps["balance"].append(cap) or profile(program, branch, cap)))
    monkeypatch.setattr(defenses, "analyze_all_branches", lambda program, cap: (
        caps["certify"].append(cap) or certify_profiles(program, cap)))
    machine = MachineConfig(core=CoreConfig(expansion_cap=512))
    prepare(build_scenario("fsi_v1_straight", 0, machine), INVAR, {Mitigation.PATH_BALANCING})
    assert caps == {"balance": [512, 512], "certify": [512]}


def test_balancing_equalizes_probe_dispatch():
    cycles = []
    for secret in (0, 1):
        scenario, policy = prepare(
            build_scenario("fsi_v1_straight", secret),
            UNPROT,
            {Mitigation.PATH_BALANCING},
        )
        trace, _ = run_single(scenario, policy)
        cycles.append(trace.committed_for(scenario.probe_instr)[-1].dispatch_cycle)
    assert cycles[0] == cycles[1]


def test_balancing_relocates_probe_but_keeps_branch_ids():
    base = build_scenario("fsi_v1_straight", 0)
    scenario, policy = prepare(base, UNPROT, {Mitigation.PATH_BALANCING})
    assert scenario.probe_instr > base.probe_instr
    for label in ("window", "gate"):
        assert scenario.program.labels[label] == base.program.labels[label]
    assert scenario.program.predict == base.program.predict
    assert policy.balance_certificate is not None


def test_balancing_refuses_loop_paths():
    with pytest.raises(BalanceError, match="variable-length"):
        prepare(build_scenario("fsi_v1_loop", 0), UNPROT, {Mitigation.PATH_BALANCING})


def test_balancing_refuses_scenarios_without_balance_branch():
    for name in ("fsi_v1_rep", "bsi_mshr", "fsi_v2_order"):
        with pytest.raises(ScenarioError, match="does not apply"):
            prepare(build_scenario(name, 0), UNPROT, {Mitigation.PATH_BALANCING})


@pytest.mark.check("verdicts")
def test_predicted_fill_closes_rep_channel():
    obs = observations(
        "fsi_v1_rep", mode=INVAR, mitigations={Mitigation.OPERAND_INDEPENDENT_FILL}
    )
    assert obs[0] == obs[1]


def test_predicted_fill_occupancy_series_identical():
    series = []
    for secret in (0, 1):
        scenario, policy = prepare(
            build_scenario("fsi_v1_rep", secret),
            INVAR,
            {Mitigation.OPERAND_INDEPENDENT_FILL},
        )
        trace, _ = run_single(scenario, policy)
        series.append(trace.occupancy)
    assert series[0] == series[1]


def test_predicted_fill_emits_fixed_count():
    scenario, policy = prepare(
        build_scenario("fsi_v1_rep", 1), INVAR, {Mitigation.OPERAND_INDEPENDENT_FILL}
    )
    trace, _ = run_single(scenario, policy)
    expansion = trace.rep_expansions[0]
    assert expansion.predicted
    assert expansion.emitted == REP_PREDICTED_COUNT


# --- trials and receivers ---------------------------------------------------


def test_judge_refuses_zero_trials_before_it_is_iterated():
    # refused at the call: a cell that ran no trials would read as no leak
    scenario, policy = prepare(build_scenario("fsi_v1_loop", 0), UNPROT)
    with pytest.raises(ScenarioError, match="n_trials"):
        judge(scenario, policy, 0)


def test_trials_are_deterministic_without_jitter():
    scenario, policy = prepare(build_scenario("fsi_v1_loop", 0), UNPROT)
    reports = [report for _, report in judge(scenario, policy, 4)]
    # secret 0's trials, then secret 1's, each observing one value
    order = [(secret, trial) for secret in (0, 1) for trial in range(4)]
    assert [(r.ground_truth, r.trial) for r in reports] == order
    assert {(r.ground_truth, r.observation) for r in reports} == {(0, 3), (1, 60)}


def test_jitter_spreads_observations_across_trials():
    machine = MachineConfig(jitter_amplitude=4)
    scenario, policy = prepare(build_scenario("fsi_v1_loop", 0, machine), UNPROT)
    reports = [report for _, report in judge(scenario, policy, 12)][12:]  # secret 1's
    values = {r.observation for r in reports}
    assert len(values) > 1
    assert all(56 <= v <= 64 for v in values)
    assert all(r.inferred_secret == 1 for r in reports)


def test_infer_timing_threshold():
    receiver = Receiver(ObservationKind.PROBE_LATENCY, threshold=31.5)
    assert infer_secret(60, receiver) == 1
    assert infer_secret(3, receiver) == 0
    assert infer_secret(31, receiver) == 0
    assert infer_secret(32, receiver) == 1


def test_infer_set_order():
    receiver = Receiver(ObservationKind.SET_ORDER, signal_tag=76)
    assert infer_secret((76,), receiver) == 1
    assert infer_secret((12,), receiver) == 0
    assert infer_secret((), receiver) == 0


def test_report_inference_matches_blind_decoder():
    for name in SCENARIO_NAMES:
        scenario, policy = prepare(build_scenario(name, 1), UNPROT)
        _, report = run_single(scenario, policy)
        assert report.inferred_secret == infer_secret(
            report.observation, scenario.receiver
        )


def test_reports_serialize_to_csv():
    cells = []
    for mitigations in ({Mitigation.CONSERVATIVE_INVARIANCE}, set()):
        scenario, policy = prepare(build_scenario("fsi_v2_order", 0), INVAR, mitigations)
        cells.append(
            CellResult(
                "fsi_v2_order",
                INVAR,
                frozenset(mitigations),
                "ok",
                reports=[report for _, report in judge(scenario, policy, 1)],
            )
        )
    lines = reports_csv(cells).strip().splitlines()
    assert lines[0] == ",".join(REPORT_FIELDS)
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[1] == "fsi_v2_order"
    assert first[2] == "dom_plus_invarspec"
    assert first[3] == "conservative_invariance"
    assert first[4] == "76"
    unmitigated = lines[3].split(",")
    assert unmitigated[3] == "none"


def test_set_snapshots_join_with_pipes():
    assert format_observation((76, 12)) == "76|12"
    assert format_observation(60) == "60"
