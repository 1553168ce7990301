"""Experiment driver and CLI: config, sweeps, artifacts, exit codes."""

from __future__ import annotations

import csv
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from test_core import INVARSPEC_ROB768_SWEEP

from robsim import analysis, experiment
from robsim.cli import main
from robsim.cache import CacheConfig
from robsim.core import MachineConfig, SimulationLimitError
from robsim.defenses import DefenseMode, Mitigation
from robsim.experiment import (
    EXIT_OK,
    EXIT_SECURITY,
    EXIT_SIM_FAULT,
    CellResult,
    ConfigError,
    ExperimentConfig,
    config_from_mapping,
    judge,
    load_config_file,
    mitigation_label,
    occupancy_csv,
    parse_mitigation_set,
    run_cell,
    run_experiment,
)
from robsim.isa import print_program
from robsim.scenarios import (
    SCENARIO_NAMES,
    SECRET_ADDR,
    build_scenario,
    prepare,
    run_single,
)


def make_config(tmp_path, **overrides):
    mapping = {
        "scenarios": ["fsi_v1_loop"],
        "defenses": ["unprotected"],
        "trials": 3,
    }
    mapping.update(overrides)
    return config_from_mapping(mapping, tmp_path / "out")


# --- configuration ----------------------------------------------------------


def test_config_defaults(tmp_path):
    config = config_from_mapping({"scenarios": ["bsi_mshr"]}, tmp_path)
    assert config.defenses == tuple(DefenseMode)
    assert config.mitigation_sets == (frozenset(),)
    assert config.n_trials == 100
    assert config.machine == MachineConfig()


def test_config_without_a_scenario_key_sweeps_every_scenario(tmp_path, capsys):
    # a key left out keeps ExperimentConfig's default; an empty list is refused
    assert config_from_mapping({}, tmp_path).scenarios == SCENARIO_NAMES
    out = tmp_path / "out"
    assert run_cli("run", "--trials", "1", "--out", str(out)) == EXIT_OK
    with open(out / "summary.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 15
    assert sorted({(r["scenario"], r["defense"]) for r in rows}) == sorted(
        (name, d.value) for name in SCENARIO_NAMES for d in DefenseMode
    )


def test_config_rejects_unknown_keys(tmp_path):
    with pytest.raises(ConfigError, match="unknown config keys: colour"):
        config_from_mapping({"scenarios": ["bsi_mshr"], "colour": 3}, tmp_path)


def test_config_rejects_unknown_core_keys(tmp_path):
    with pytest.raises(ConfigError, match="unknown core keys"):
        config_from_mapping(
            {"scenarios": ["bsi_mshr"], "core": {"robsize": 32}}, tmp_path
        )


def test_config_rejects_bad_cache_values(tmp_path):
    with pytest.raises(ConfigError, match="bad cache config"):
        config_from_mapping(
            {"scenarios": ["bsi_mshr"], "cache": {"ways": 0}}, tmp_path
        )


def test_config_rejects_empty_scenarios(tmp_path):
    with pytest.raises(ConfigError, match="empty"):
        config_from_mapping({"scenarios": []}, tmp_path)


def test_config_rejects_unknown_scenario(tmp_path):
    with pytest.raises(ConfigError, match="unknown scenario"):
        config_from_mapping({"scenarios": ["fsi_v9"]}, tmp_path)


def test_config_rejects_unknown_defense(tmp_path):
    with pytest.raises(ConfigError, match="unknown defense"):
        config_from_mapping(
            {"scenarios": ["bsi_mshr"], "defenses": ["fences"]}, tmp_path
        )


def test_config_rejects_zero_trials(tmp_path):
    with pytest.raises(ConfigError, match="trials"):
        config_from_mapping({"scenarios": ["bsi_mshr"], "trials": 0}, tmp_path)


def test_config_requires_output_dir():
    with pytest.raises(ConfigError, match="output directory"):
        config_from_mapping({"scenarios": ["bsi_mshr"]})


def test_core_overrides_reach_machine(tmp_path):
    config = config_from_mapping(
        {"scenarios": ["bsi_mshr"], "core": {"rob_size": 32}, "seed": 7, "jitter": 2},
        tmp_path,
    )
    assert config.machine.core.rob_size == 32
    assert config.machine.jitter_seed == 7
    assert config.machine.jitter_amplitude == 2


def test_negative_jitter_is_refused_by_the_machine(tmp_path, capsys):
    with pytest.raises(ValueError, match="jitter amplitude cannot be negative"):
        MachineConfig(jitter_amplitude=-2)
    with pytest.raises(ConfigError, match="jitter amplitude cannot be negative"):
        config_from_mapping({"scenarios": ["bsi_mshr"], "jitter": -2}, tmp_path)
    code = run_cli("run", "--scenario", "bsi_mshr", "--jitter", "-2", "--out", str(tmp_path))
    assert code == 1
    assert "jitter amplitude cannot be negative" in capsys.readouterr().err


def test_jitter_below_the_miss_hit_gap_is_accepted():
    # default cache: 60-cycle miss, 3-cycle hit, so a 4-cycle miss at worst
    assert MachineConfig(jitter_amplitude=56).jitter_amplitude == 56
    cache = CacheConfig(hit_cycles=5, miss_cycles=9)
    assert MachineConfig(cache=cache, jitter_amplitude=3).jitter_amplitude == 3


def test_jitter_at_the_miss_hit_gap_is_refused(tmp_path, capsys):
    message = r"jitter amplitude 57 must be below miss_cycles - hit_cycles = 57"
    with pytest.raises(ValueError, match=message):
        MachineConfig(jitter_amplitude=57)
    with pytest.raises(ValueError, match="= 4"):
        MachineConfig(cache=CacheConfig(hit_cycles=5, miss_cycles=9), jitter_amplitude=4)
    with pytest.raises(ConfigError, match=message):
        config_from_mapping({"scenarios": ["bsi_mshr"], "jitter": 57}, tmp_path)
    with pytest.raises(ConfigError, match="= 7"):
        config_from_mapping(
            {"scenarios": ["bsi_mshr"], "jitter": 8, "cache": {"miss_cycles": 10}}, tmp_path
        )
    code = run_cli("run", "--scenario", "bsi_mshr", "--jitter", "57", "--out", str(tmp_path))
    assert code == 1
    assert "jitter amplitude 57 must be below" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides, key, got",
    [
        ({"jitter": 2.7}, "jitter", "2.7"),
        ({"seed": True}, "seed", "True"),
        ({"trials": "3"}, "trials", "'3'"),
        ({"core": {"rob_size": 64.5}}, "core.rob_size", "64.5"),
        ({"core": {"max_cycles": "100"}}, "core.max_cycles", "'100'"),
        ({"core": {"alu_latency": None}}, "core.alu_latency", "None"),
        ({"cache": {"ways": True}}, "cache.ways", "True"),
        ({"cache": {"mshr_entries": 2.0}}, "cache.mshr_entries", "2.0"),
    ],
    ids=["float_jitter", "bool_seed", "str_trials", "float_rob_size", "str_max_cycles",
         "null_alu_latency", "bool_ways", "float_mshr_entries"],
)
def test_config_refuses_a_non_integer_value(tmp_path, overrides, key, got):
    with pytest.raises(ConfigError, match=re.escape(f"{key} must be an integer, got {got}")):
        make_config(tmp_path, **overrides)


@pytest.mark.parametrize("section", ["core", "cache"])
def test_config_refuses_a_section_that_is_not_a_mapping(tmp_path, section):
    with pytest.raises(ConfigError, match=f"{section} must be a mapping of keys to integers, got 5"):
        make_config(tmp_path, **{section: 5})


def test_config_allows_unbounded_mshrs(tmp_path):
    config = make_config(tmp_path, cache={"mshr_entries": None})
    assert config.machine.cache.mshr_entries is None


BOTH_SETS = frozenset({Mitigation.CONSERVATIVE_INVARIANCE, Mitigation.PATH_BALANCING})


@pytest.mark.parametrize(
    "key, value, outcome",
    [
        ("scenarios", "bsi_mshr", ("bsi_mshr",)),
        ("defenses", "dom", (DefenseMode.DOM,)),
        ("mitigations", "path_balancing", (frozenset({Mitigation.PATH_BALANCING}),)),
        # `robsim run --mitigation a --mitigation b` passes one list of names
        ("mitigations", [["conservative_invariance", "path_balancing"]], (BOTH_SETS,)),
        ("scenarios", [], "scenario list is empty"),
        ("defenses", [], "defense list is empty"),
        ("mitigations", [], "mitigation list is empty"),
        ("scenarios", 5, "scenarios must be a list of names or one name, got 5"),
        ("defenses", 5, "defenses must be a list of names or one name, got 5"),
        ("mitigations", 5, "mitigations must be a list of names or one name, got 5"),
        ("mitigations", [5], "mitigation name must be a string, got 5"),
        ("scenarios", ["bsi_mshr", "fsi_v1_loop", "bsi_mshr"],
         "scenario 'bsi_mshr' is listed more than once"),
        ("defenses", ["dom", "dom"], "defense 'dom' is listed more than once"),
        ("mitigations", ["none", ""], "mitigation set 'none' is listed more than once"),
        ("mitigations", ["conservative_invariance+path_balancing",
                         "path_balancing+conservative_invariance"],
         "mitigation set 'conservative_invariance+path_balancing' is listed more than once"),
    ],
    ids=["bare_scenario", "bare_defense", "bare_mitigation", "cli_mitigation_list",
         "empty_scenarios", "empty_defenses", "empty_mitigations", "int_scenarios",
         "int_defenses", "int_mitigations", "int_mitigation_name", "repeated_scenario",
         "repeated_defense", "repeated_empty_set", "repeated_reordered_set"],
)
def test_config_reads_each_name_list_one_way(tmp_path, key, value, outcome):
    """A bare name is a one-entry list; an empty list, or a value that is
    neither, is refused naming what is wrong."""
    if isinstance(outcome, str):
        with pytest.raises(ConfigError, match=re.escape(outcome)):
            make_config(tmp_path, **{key: value})
    else:
        config = make_config(tmp_path, **{key: value})
        field = "mitigation_sets" if key == "mitigations" else key
        assert getattr(config, field) == outcome


def test_cli_refuses_a_name_list_that_is_not_a_list(tmp_path, capsys):
    config = tmp_path / "exp.yaml"
    config.write_text("scenarios: 5\n")
    code = run_cli("run", "--config", str(config), "--out", str(tmp_path / "out"))
    assert code == 1
    err = capsys.readouterr().err
    assert "robsim: error: scenarios must be a list of names or one name, got 5" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "text, message",
    [("1: 2\n", "unknown config keys: 1"), ("core: {1: 2}\n", "unknown core keys: 1")],
    ids=["top_level", "core"],
)
def test_cli_refuses_a_key_that_is_not_a_string(tmp_path, capsys, text, message):
    config = tmp_path / "exp.yaml"
    config.write_text(text)
    assert run_cli("run", "--config", str(config), "--out", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err == f"robsim: error: {message}\n"


def test_cli_refuses_a_repeated_scenario(tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli("run", "--scenario", "bsi_mshr", "--scenario", "bsi_mshr", "--out", str(out))
    assert code == 1
    err = capsys.readouterr().err
    assert "robsim: error: scenario 'bsi_mshr' is listed more than once" in err
    assert not out.exists()


def test_cli_refuses_a_non_integer_config_value(tmp_path, capsys):
    config = tmp_path / "exp.yaml"
    config.write_text("scenarios: [fsi_v2_order]\ncore: {rob_size: 64.5}\n")
    code = run_cli("run", "--config", str(config), "--out", str(tmp_path / "out"))
    assert code == 1
    assert "core.rob_size must be an integer, got 64.5" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, outcome",
    [
        ("scenarios: [bsi_mshr]\ntrials: 2\n", {"scenarios": ["bsi_mshr"], "trials": 2}),
        ("", {}),
        ("scenarios: [bsi_mshr\n", "malformed config"),
        ("- a\n", "must be a mapping"),
    ],
    ids=["mapping", "empty", "malformed", "list"],
)
def test_load_config_file(tmp_path, text, outcome):
    """An empty file is an empty mapping; malformed YAML, or a document that
    is not a mapping, is a ConfigError."""
    path = tmp_path / "exp.yaml"
    path.write_text(text)
    if isinstance(outcome, str):
        with pytest.raises(ConfigError, match=outcome):
            load_config_file(path)
    else:
        assert load_config_file(path) == outcome


# Run in a fresh interpreter: the test process has imported yaml already.
_NO_YAML_UNTIL_A_CONFIG_FILE = """
import sys
import robsim, robsim.cli
from robsim.experiment import config_from_mapping, load_config_file, run_experiment
run_experiment(config_from_mapping(
    {"scenarios": ["bsi_mshr"], "defenses": ["dom"], "trials": 1}, sys.argv[1]))
assert "yaml" not in sys.modules, "yaml loaded without a config file"
assert load_config_file(sys.argv[2]) == {"trials": 2}
"""


def test_yaml_is_loaded_only_to_read_a_config_file(tmp_path):
    config = tmp_path / "exp.yaml"
    config.write_text("trials: 2\n")
    env = {**os.environ, "PYTHONPATH": str(Path(experiment.__file__).parents[1])}
    subprocess.run(
        [sys.executable, "-c", _NO_YAML_UNTIL_A_CONFIG_FILE, str(tmp_path / "out"), str(config)],
        env=env,
        check=True,
        timeout=60,
    )


def test_mitigation_set_parsing():
    assert parse_mitigation_set("none") == frozenset()
    assert parse_mitigation_set("") == frozenset()
    combined = parse_mitigation_set("conservative_invariance+path_balancing")
    assert combined == {Mitigation.CONSERVATIVE_INVARIANCE, Mitigation.PATH_BALANCING}
    assert parse_mitigation_set(["path_balancing"]) == {Mitigation.PATH_BALANCING}
    with pytest.raises(ConfigError, match="unknown mitigation"):
        parse_mitigation_set("prayer")


def test_mitigation_labels_sort():
    label = mitigation_label(
        frozenset({Mitigation.PATH_BALANCING, Mitigation.CONSERVATIVE_INVARIANCE})
    )
    assert label == "conservative_invariance+path_balancing"
    assert mitigation_label(frozenset()) == "none"


# --- sweep behavior ---------------------------------------------------------


def test_cell_cardinality(tmp_path):
    config = make_config(
        tmp_path,
        scenarios=["fsi_v1_rep", "bsi_mshr"],
        defenses=["unprotected", "dom"],
        mitigations=["none", "operand_independent_fill"],
    )
    result = run_experiment(config)
    assert len(result.cells) == 2 * 2 * 2
    keys = {(c.scenario, c.defense, c.mitigations) for c in result.cells}
    assert len(keys) == len(result.cells)


def test_leak_cells_marked(tmp_path):
    result = run_experiment(make_config(tmp_path))
    cell = result.cells[0]
    assert cell.status == "ok"
    assert cell.leak is True
    assert not cell.expected_clean
    assert not cell.violation
    assert result.exit_code == EXIT_OK


def test_dom_cells_promise_and_deliver(tmp_path):
    result = run_experiment(make_config(tmp_path, defenses=["dom"]))
    cell = result.cells[0]
    assert cell.expected_clean
    assert cell.leak is False
    assert result.exit_code == EXIT_OK


@pytest.mark.check("verdicts")
@pytest.mark.parametrize("jitter", [0, 2, 20, 40])
def test_every_reference_unprotected_cell_leaks_under_jitter(jitter):
    """Each scenario's own receiver decodes its channel on the unprotected
    machine, so a clean cell of the same scenario under a defense means the
    defense closed it. Above about 40 the demonstrations start to fade: with
    these seeds bsi_mshr's window miss outlasts its gadget misses at 48 and
    56, and fsi_v2_order reads clean at 52, so a clean cell of theirs at
    such noise proves nothing."""
    machine = MachineConfig(jitter_amplitude=jitter)
    for name in SCENARIO_NAMES:
        scenario = build_scenario(name, 0, machine)
        cell = run_cell(scenario, DefenseMode.UNPROTECTED, frozenset(), 3)
        assert cell.status == "ok" and cell.leak is True, name


@pytest.mark.check("jitter_clean")
@pytest.mark.parametrize("jitter", [2, 20, 56])
def test_every_expected_clean_cell_stays_clean_under_jitter(jitter):
    # 56 is the largest amplitude the default cache accepts; trials 0-2 run
    # at jitter seeds 0-2
    machine = MachineConfig(jitter_amplitude=jitter)
    mitigation_sets = [frozenset()] + [frozenset({m}) for m in Mitigation]
    promised = 0
    for name in SCENARIO_NAMES:
        scenario = build_scenario(name, 0, machine)
        for defense in DefenseMode:
            for mitigations in mitigation_sets:
                cell = run_cell(scenario, defense, mitigations, 3)
                if cell.expected_clean:
                    promised += 1
                    assert cell.status == "ok" and cell.leak is False, (
                        name, defense.value, mitigation_label(mitigations))
    assert promised == 16


def test_inapplicable_mitigation_yields_na_row(tmp_path):
    config = make_config(
        tmp_path,
        defenses=["unprotected"],
        mitigations=["none", "operand_independent_fill"],
    )
    result = run_experiment(config)
    statuses = {mitigation_label(c.mitigations): c.status for c in result.cells}
    assert statuses == {"none": "ok", "operand_independent_fill": "not_applicable"}
    na = [c for c in result.cells if c.status == "not_applicable"][0]
    assert "does not apply" in na.note
    assert not na.reports


def test_all_inapplicable_is_usage_error(tmp_path):
    config = make_config(tmp_path, mitigations=["path_balancing"])
    with pytest.raises(ConfigError, match="no runnable cells"):
        run_experiment(config)


def test_cycle_limit_becomes_fault_exit(tmp_path):
    config = make_config(tmp_path, core={"max_cycles": 30})
    result = run_experiment(config)
    assert result.cells[0].status == "fault"
    assert "cycle limit" in result.cells[0].note
    assert result.exit_code == EXIT_SIM_FAULT
    # a fault cell keeps the promise its defense makes
    config = make_config(tmp_path / "dom", defenses=["dom"], core={"max_cycles": 30})
    result = run_experiment(config)
    (cell,) = result.cells
    assert cell.status == "fault"
    assert cell.expected_clean
    with open(result.config.out_dir / "summary.csv", newline="") as f:
        row = next(csv.DictReader(f))
    assert (row["status"], row["expected_clean"]) == ("fault", "1")


def test_fault_cell_keeps_the_secrets_that_finished(tmp_path, monkeypatch):
    real = experiment.run_single

    def limited(scenario, policy, trial):
        if scenario.program.data_init[SECRET_ADDR] == 1:
            raise SimulationLimitError(30, 64, [])
        return real(scenario, policy, trial)

    monkeypatch.setattr(experiment, "run_single", limited)
    result = run_experiment(make_config(tmp_path))
    (cell,) = result.cells
    assert (cell.status, cell.leak) == ("fault", None)
    assert cell.note == "cycle limit: no forward progress after 30 cycles (rob occupancy 64)"
    assert [(r.ground_truth, r.trial) for r in cell.reports] == [(0, 0), (0, 1), (0, 2)]
    assert set(cell.occupancy) == {0}
    occ = sorted(p.name for p in (result.config.out_dir / "occupancy").iterdir())
    assert occ == ["fsi_v1_loop__unprotected__none__s0.csv"]
    with open(result.config.out_dir / "summary.csv", newline="") as f:
        row = next(csv.DictReader(f))
    # secret 0's stats cover its three trials; secret 1 has no reports
    assert (row["trials"], row["mean_s0"], row["min_s0"], row["max_s0"]) == ("3", "3", "3", "3")
    assert [row[f"{stat}_s1"] for stat in ("mean", "min", "max")] == ["", "", ""]
    assert result.exit_code == EXIT_SIM_FAULT


def test_judge_runs_each_trial_of_both_secrets_through_run_single(monkeypatch):
    scenario, policy = prepare(build_scenario("fsi_v1_loop", 0), DefenseMode.UNPROTECTED)
    real = experiment.run_single
    calls = []

    def counted(scenario, policy, trial):
        calls.append((scenario.program.data_init[SECRET_ADDR], trial))
        return real(scenario, policy, trial)

    monkeypatch.setattr(experiment, "run_single", counted)
    pairs = judge(scenario, policy, 3)
    assert calls == []  # nothing runs until the pairs are read
    assert len(list(pairs)) == 6
    assert calls == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]


def test_broken_promise_exits_security(tmp_path, monkeypatch):
    real = experiment.run_cell

    def sabotaged(scenario, defense, mitigations, n_trials):
        cell = real(scenario, defense, mitigations, n_trials)
        cell.leak = True
        return cell

    monkeypatch.setattr(experiment, "run_cell", sabotaged)
    result = run_experiment(make_config(tmp_path, defenses=["dom"]))
    assert result.cells[0].violation
    assert result.exit_code == EXIT_SECURITY


def test_sweep_builds_one_postdominator_tree_per_program(tmp_path, monkeypatch):
    # every scenario's program, and the one path_balancing rewrites: the
    # safe sets, the profiles, balancing and the certificate share each tree,
    # which is built over the program's basic blocks
    config = config_from_mapping(INVARSPEC_ROB768_SWEEP, tmp_path)
    programs = [build_scenario(name, 0, config.machine).program for name in SCENARIO_NAMES]
    balanced, _ = prepare(build_scenario("fsi_v1_straight", 0, config.machine),
                          DefenseMode.DOM_PLUS_INVARSPEC, {Mitigation.PATH_BALANCING})
    programs.append(balanced.program)
    blocks = [len(analysis.control_flow(program).block_succ) for program in programs]
    built = []
    tree = analysis._postdominator_tree
    monkeypatch.setattr(analysis, "_postdominator_tree",
                        lambda succ, preds: built.append(len(succ)) or tree(succ, preds))
    assert run_experiment(config).exit_code == EXIT_OK
    assert len(built) == len(programs)  # one tree per program
    assert sorted(built) == sorted(blocks)


def test_occupancy_csv_is_what_csv_writer_writes():
    series = [0, 3, 12, 7, 7]
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["cycle", "occupancy"])
    writer.writerows(enumerate(series, start=1))
    assert occupancy_csv(series) == out.getvalue()
    assert occupancy_csv([]) == "cycle,occupancy\r\n"


def test_artifacts_byte_identical_across_runs(tmp_path):
    texts = []
    for sub in ("a", "b"):
        mapping = {
            "scenarios": ["fsi_v1_loop", "fsi_v2_order"],
            "defenses": ["unprotected", "dom"],
            "trials": 2,
            "seed": 5,
        }
        config = config_from_mapping(mapping, tmp_path / sub)
        result = run_experiment(config)
        texts.append([p.read_text() for p in sorted(result.artifacts, key=lambda p: p.name)])
    assert texts[0] == texts[1]


def test_reports_csv_has_all_trials(tmp_path):
    config = make_config(tmp_path, scenarios=["bsi_mshr"], trials=4)
    result = run_experiment(config)
    rows = list(csv.DictReader((config.out_dir / "reports.csv").read_text().splitlines()))
    assert len(rows) == 4 * 2
    assert {r["truth"] for r in rows} == {"0", "1"}


def test_summary_accuracy_matches_raw_recomputation(tmp_path):
    config = make_config(
        tmp_path, scenarios=["fsi_v1_loop", "bsi_mshr"], defenses=["unprotected"], trials=5
    )
    result = run_experiment(config)
    raw = list(csv.DictReader((config.out_dir / "reports.csv").read_text().splitlines()))
    summary = list(csv.DictReader((config.out_dir / "summary.csv").read_text().splitlines()))
    for row in summary:
        mine = [r for r in raw if r["scenario"] == row["scenario"]]
        acc = sum(r["inferred"] == r["truth"] for r in mine) / len(mine)
        assert float(row["accuracy"]) == pytest.approx(acc)


def test_summary_row_per_cell_with_two_means(tmp_path):
    config = make_config(tmp_path, trials=2)
    result = run_experiment(config)
    rows = list(csv.DictReader((config.out_dir / "summary.csv").read_text().splitlines()))
    assert len(rows) == 1
    row = rows[0]
    assert row["mean_s0"] == "3"
    assert row["mean_s1"] == "60"
    assert row["leak"] == "1"
    assert row["violation"] == "0"


def test_set_order_cells_skip_numeric_stats(tmp_path):
    config = make_config(tmp_path, scenarios=["fsi_v2_order"], trials=2)
    result = run_experiment(config)
    row = list(csv.DictReader((config.out_dir / "summary.csv").read_text().splitlines()))[0]
    assert row["mean_s0"] == ""
    assert row["accuracy"] == "1.0000"


def test_occupancy_series_written_per_secret(tmp_path):
    config = make_config(tmp_path, trials=2)
    result = run_experiment(config)
    occ = sorted(p.name for p in (config.out_dir / "occupancy").iterdir())
    assert occ == [
        "fsi_v1_loop__unprotected__none__s0.csv",
        "fsi_v1_loop__unprotected__none__s1.csv",
    ]
    rows = list(csv.DictReader((config.out_dir / "occupancy" / occ[1]).read_text().splitlines()))
    assert rows[0]["cycle"] == "1"
    assert max(int(r["occupancy"]) for r in rows) == 64


def test_cell_violation_property():
    conservative = frozenset({Mitigation.CONSERVATIVE_INVARIANCE})
    promised = [
        CellResult("x", DefenseMode.DOM, frozenset(), "ok", leak=True),
        CellResult("x", DefenseMode.UNPROTECTED, conservative, "fault", leak=True),
    ]
    unpromised = [
        CellResult("x", DefenseMode.UNPROTECTED, frozenset(), "ok", leak=True),
        CellResult("x", DefenseMode.DOM, frozenset(), "not_applicable"),
    ]
    for cell in promised:
        assert cell.expected_clean and cell.violation
        cell.leak = False
        assert not cell.violation
    for cell in unpromised:
        assert not cell.expected_clean and not cell.violation


# --- command line -----------------------------------------------------------


def run_cli(*argv):
    return main(list(argv))


def test_cli_run_with_flags(tmp_path, capsys):
    code = run_cli(
        "run",
        "--scenario",
        "bsi_mshr",
        "--defense",
        "dom",
        "--trials",
        "2",
        "--out",
        str(tmp_path / "out"),
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "bsi_mshr x dom x none: clean" in out
    assert (tmp_path / "out" / "summary.csv").exists()


def test_cli_flags_override_config(tmp_path):
    config = tmp_path / "exp.yaml"
    config.write_text("scenarios: [fsi_v1_loop]\ntrials: 50\nout: ignored\n")
    code = run_cli(
        "run",
        "--config",
        str(config),
        "--scenario",
        "bsi_mshr",
        "--defense",
        "unprotected",
        "--trials",
        "1",
        "--out",
        str(tmp_path / "out"),
    )
    assert code == EXIT_OK
    rows = list(csv.DictReader((tmp_path / "out" / "reports.csv").read_text().splitlines()))
    assert {r["scenario"] for r in rows} == {"bsi_mshr"}
    assert len(rows) == 2


def test_cli_usage_errors(tmp_path, capsys):
    assert run_cli("run", "--trials", "1") == 1  # no output directory
    assert run_cli("run", "--scenario", "nope", "--out", str(tmp_path)) == 1
    assert run_cli("frobnicate") == 1
    assert "error" in capsys.readouterr().err


def test_cli_missing_config_file(tmp_path):
    assert run_cli("run", "--config", str(tmp_path / "nope.yaml"), "--out", "x") == 1


def test_cli_refuses_a_malformed_config_file(tmp_path, capsys):
    config = tmp_path / "exp.yaml"
    config.write_text("scenarios: [bsi_mshr\n")
    assert run_cli("run", "--config", str(config), "--out", str(tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert f"robsim: error: malformed config {config}" in err
    assert "Traceback" not in err


def test_cli_fault_exit(tmp_path):
    config = tmp_path / "exp.yaml"
    config.write_text(
        "scenarios: [fsi_v1_loop]\ndefenses: [unprotected]\ntrials: 1\n"
        "core: {max_cycles: 30}\n"
    )
    code = run_cli("run", "--config", str(config), "--out", str(tmp_path / "out"))
    assert code == EXIT_SIM_FAULT


def test_cli_refuses_a_config_out_that_is_not_a_path(tmp_path, capsys):
    config = tmp_path / "exp.yaml"
    config.write_text("scenarios: [bsi_mshr]\nout: 5\n")
    assert run_cli("run", "--config", str(config)) == 1
    assert capsys.readouterr().err == "robsim: error: out must be a directory path, got 5\n"


def test_cli_run_refuses_an_out_that_is_a_file_before_the_sweep(tmp_path, capsys, monkeypatch):
    def no_cell(*args):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(experiment, "run_cell", no_cell)
    out = tmp_path / "taken"
    out.write_text("")
    assert run_cli("run", "--scenario", "bsi_mshr", "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith(f"robsim: error: cannot write {out}: ")


@pytest.mark.parametrize(
    "command, flag",
    [("sim", "--trace"), ("sim", "--occupancy"), ("analyze", "--out")],
)
def test_cli_reports_an_unwritable_output_path(command, flag, tmp_path, capsys):
    program = tmp_path / "p.asm"
    program.write_text("load r1, [8]\n")
    path = tmp_path / "missing" / "out.csv"
    assert run_cli(command, str(program), flag, str(path)) == 1
    assert capsys.readouterr().err.startswith(f"robsim: error: cannot write {path}: ")


def test_cli_sim_writes_trace(tmp_path, capsys):
    program = tmp_path / "p.asm"
    program.write_text(".data 8 1\nload r1, [8]\nalu r2, r1, 2\n")
    trace = tmp_path / "trace.csv"
    occupancy = tmp_path / "occ.csv"
    code = run_cli(
        "sim", str(program), "--trace", str(trace), "--occupancy", str(occupancy)
    )
    assert code == 0
    assert "2 uops committed" in capsys.readouterr().out
    assert trace.read_text().startswith("instance,instr,opcode")
    assert occupancy.read_text().startswith("cycle,occupancy")


def test_cli_sim_replays_a_printed_scenario(tmp_path):
    # the printed program carries its warm, flush and predicted branches,
    # so sim writes the trace of the sweep's trial 0
    for defense in (DefenseMode.UNPROTECTED, DefenseMode.DOM_PLUS_INVARSPEC):
        for secret in (0, 1):
            scenario, policy = prepare(build_scenario("fsi_v1_loop", secret), defense)
            program = tmp_path / f"loop{secret}.asm"
            program.write_text(print_program(scenario.program))
            trace = tmp_path / "trace.csv"
            args = ("sim", str(program), "--defense", defense.value, "--trace", str(trace))
            assert run_cli(*args) == 0
            assert trace.read_bytes() == run_single(scenario, policy, 0)[0].to_csv().encode()


def test_cli_sim_lists_valid_defenses(tmp_path, capsys):
    program = tmp_path / "p.asm"
    program.write_text("nop\n")
    assert run_cli("sim", str(program), "--defense", "bogus") == 1
    assert capsys.readouterr().err == (
        "robsim: error: unknown defense 'bogus'; expected one of "
        "unprotected, dom, dom_plus_invarspec\n"
    )


def test_cli_sim_parse_error(tmp_path, capsys):
    program = tmp_path / "p.asm"
    program.write_text("frob r1, r2\n")
    assert run_cli("sim", str(program)) == 1
    assert "line 1" in capsys.readouterr().err


def test_cli_sim_reads_max_cycles_as_the_config_does(tmp_path, capsys):
    program = tmp_path / "p.asm"
    program.write_text("nop\n")
    message = "bad core config: max_cycles must be positive"
    with pytest.raises(ConfigError, match=message):
        make_config(tmp_path, core={"max_cycles": 0})
    assert run_cli("sim", str(program), "--max-cycles", "0") == 1
    assert capsys.readouterr().err == f"robsim: error: {message}\n"


def test_cli_sim_cycle_limit(tmp_path):
    program = tmp_path / "p.asm"
    program.write_text("spin: jump spin\n")
    assert run_cli("sim", str(program), "--max-cycles", "40") == EXIT_SIM_FAULT


def test_cli_analyze_round_trip(tmp_path, capsys):
    program = tmp_path / "p.asm"
    program.write_text(
        ".data 8 1\nload r1, [8]\nbranch r1, done\nalu r2, r2, 1\ndone: load r3, [40]\n"
    )
    report = tmp_path / "analysis.txt"
    assert run_cli("analyze", str(program), "--out", str(report)) == 0
    assert run_cli("analyze", str(program)) == 0
    assert capsys.readouterr().out == report.read_text()
    assert report.read_text().splitlines() == [
        "# robsim analysis v4",
        "ss 0",
        "ss 1 0",
        "ss 2 0 1",
        "ss 3",
        "profile 1 3 0 1 0",
    ]
    assert run_cli("sim", str(program), "--defense", "dom_plus_invarspec") == 0


SHADOWED_LOAD_PROGRAM = """\
.data 16 0
load r1, [16]
branch r1, done
load r2, [40]
alu r3, r3, 1
done: nop
"""


def test_cli_sim_analyzes_the_program_it_runs(tmp_path, capsys):
    # a report whose ss 2 line is emptied would lift the wrong-path load at
    # instruction 2 the moment it dispatches; sim takes no such file
    program = tmp_path / "p.asm"
    program.write_text(SHADOWED_LOAD_PROGRAM)
    report = tmp_path / "p.txt"
    assert run_cli("analyze", str(program), "--out", str(report)) == 0
    text = report.read_text()
    assert "\nss 2 0 1\n" in text
    report.write_text(text.replace("\nss 2 0 1\n", "\nss 2\n"))
    trace = tmp_path / "trace.csv"
    args = ("sim", str(program), "--defense", "dom_plus_invarspec", "--trace", str(trace))
    assert run_cli(*args, "--safe-sets", str(report)) == 1
    assert "unrecognized arguments: --safe-sets" in capsys.readouterr().err
    assert not trace.exists()

    assert run_cli(*args) == 0
    rows = csv.DictReader(trace.read_text().splitlines())
    load = [r for r in rows if r["instr"] == "2"]
    assert load and all(r["esp_cycle"] == "" and r["outcome"] != "miss" for r in load)


def _sim_cycles(capsys, *argv) -> int:
    assert run_cli("sim", *argv) == 0
    return int(capsys.readouterr().out.split()[0])


def test_cli_sim_conservative_invariance_filters_safe_sets(tmp_path, capsys):
    # fsi_v1_loop's program as written, with its warm, flush and predicted
    # branches: the filtered safe sets keep the probe gated until the window
    # branch resolves, so both secrets take as long
    invar = ("--defense", "dom_plus_invarspec")
    conservative = ("--mitigation", "conservative_invariance")
    for secret, unfiltered in ((0, 90), (1, 147)):
        program = tmp_path / f"loop{secret}.asm"
        program.write_text(print_program(build_scenario("fsi_v1_loop", secret).program))
        assert _sim_cycles(capsys, str(program), *invar) == unfiltered
        assert _sim_cycles(capsys, str(program), *invar, *conservative) == 147


def test_cli_sim_refuses_mitigations_that_do_not_apply(tmp_path, capsys):
    program = tmp_path / "p.asm"
    program.write_text(SHADOWED_LOAD_PROGRAM)
    for defense in ("unprotected", "dom"):
        code = run_cli(
            "sim", str(program), "--defense", defense,
            "--mitigation", "conservative_invariance",
        )
        assert code == 1
        assert "applies only under dom_plus_invarspec" in capsys.readouterr().err
    assert run_cli("sim", str(program), "--mitigation", "operand_independent_fill") == 1
    assert "contains no rep expansion" in capsys.readouterr().err
    assert run_cli("sim", str(program), "--mitigation", "path_balancing") == 1
    assert capsys.readouterr().err == (
        "robsim: error: sim runs programs as written; balance one with "
        "robsim.balance_paths or study balanced scenarios through run\n"
    )


def test_cli_analyze_refuses_instruction_that_cannot_reach_exit(tmp_path, capsys):
    program = tmp_path / "p.asm"
    program.write_text("spin: jump spin\n")
    assert run_cli("analyze", str(program)) == 1
    assert "instruction 0 cannot reach the program exit" in capsys.readouterr().err


def test_cli_run_combines_repeated_mitigations_into_one_cell(tmp_path, capsys):
    code = run_cli(
        "run",
        "--scenario",
        "fsi_v1_straight",
        "--defense",
        "dom_plus_invarspec",
        "--mitigation",
        "conservative_invariance",
        "--mitigation",
        "path_balancing",
        "--trials",
        "1",
        "--out",
        str(tmp_path / "out"),
    )
    assert code == EXIT_OK
    cells = [line for line in capsys.readouterr().out.splitlines() if " x " in line]
    assert cells == [
        "fsi_v1_straight x dom_plus_invarspec x "
        "conservative_invariance+path_balancing: clean"
    ]


def test_cli_analyze_stdout(tmp_path, capsys):
    program = tmp_path / "p.asm"
    program.write_text("alu r1, r1, 1\n")
    assert run_cli("analyze", str(program)) == 0
    assert "ss 0" in capsys.readouterr().out
