"""Batch experiment driver: config, sweeps, CSV artifacts, exit status.

A run is a sweep over (scenario, defense, mitigation-set) cells. Each
scenario is built, and its program analyzed, once per sweep; each cell
prepares it once and `judge`, the one loop that runs a prepared scenario
under both secret values, executes n trials of each while the blind
receiver recovers the bit. The cell is then held to its security promise:
dom mode and any applicable active mitigation promise secret-independent
observations, and a broken promise is reported as a distinct exit status
so CI can gate on it.

Artifacts are deterministic byte-for-byte given the same config: a raw
report CSV, a per-cell summary CSV, and one occupancy time series per
(cell, secret) for the representative first trial. This module owns both
CSV schemas: `REPORT_FIELDS` with `reports_csv`, the one writer of
reports.csv, and `SUMMARY_FIELDS` with `summary_csv`, the one writer of
summary.csv (both documented in docs/csv_schemas.md).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Mapping

from .analysis import AnalysisError
from .cache import refuse_unknown_keys, require_integer
from .core import MACHINE_KEYS, MachineConfig, SimulationLimitError, Trace
from .defenses import DefenseMode, DefensePolicy, Mitigation
from .scenarios import (
    SCENARIO_NAMES,
    ProgramAnalysis,
    Scenario,
    ScenarioError,
    ScenarioReport,
    build_scenario,
    prepare,
    run_single,
    with_secret,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SIM_FAULT = 2
EXIT_SECURITY = 3

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

SUMMARY_FIELDS = [
    "scenario",
    "defense",
    "mitigations",
    "status",
    "trials",
    "mean_s0",
    "min_s0",
    "max_s0",
    "mean_s1",
    "min_s1",
    "max_s1",
    "accuracy",
    "leak",
    "expected_clean",
    "violation",
    "note",
]


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    out_dir: Path
    scenarios: tuple[str, ...] = SCENARIO_NAMES
    defenses: tuple[DefenseMode, ...] = tuple(DefenseMode)
    mitigation_sets: tuple[frozenset[Mitigation], ...] = (frozenset(),)
    n_trials: int = 100
    machine: MachineConfig = field(default_factory=MachineConfig)

    def __post_init__(self) -> None:
        if not self.scenarios:
            raise ConfigError("scenario list is empty")
        for name in self.scenarios:
            if name not in SCENARIO_NAMES:
                raise ConfigError(
                    f"unknown scenario {name!r}; expected one of {', '.join(SCENARIO_NAMES)}"
                )
        if not self.defenses:
            raise ConfigError("defense list is empty")
        if not self.mitigation_sets:
            raise ConfigError("mitigation list is empty")
        # a repeated entry would run its cells again and overwrite their files
        for kind, names in (
            ("scenario", self.scenarios),
            ("defense", [d.value for d in self.defenses]),
            ("mitigation set", [mitigation_label(m) for m in self.mitigation_sets]),
        ):
            repeated = [name for i, name in enumerate(names) if name in names[:i]]
            if repeated:
                raise ConfigError(f"{kind} {repeated[0]!r} is listed more than once")
        if self.n_trials < 1:
            raise ConfigError(f"trials must be at least 1, got {self.n_trials}")


def parse_defense(name: str) -> DefenseMode:
    try:
        return DefenseMode(name)
    except ValueError:
        valid = ", ".join(m.value for m in DefenseMode)
        raise ConfigError(f"unknown defense {name!r}; expected one of {valid}") from None


def parse_mitigation_set(spec: str | list[str]) -> frozenset[Mitigation]:
    """'none' or '+'-joined mitigation names; a list of names also works.
    A name that is not a string is refused."""
    names = spec.split("+") if isinstance(spec, str) else spec
    out = set()
    for name in names if isinstance(names, list) else [names]:
        if not isinstance(name, str):
            raise ConfigError(f"mitigation name must be a string, got {name!r}")
        if name in ("", "none"):
            continue
        try:
            out.add(Mitigation(name))
        except ValueError:
            valid = ", ".join(m.value for m in Mitigation)
            raise ConfigError(
                f"unknown mitigation {name!r}; expected one of {valid}"
            ) from None
    return frozenset(out)


def mitigation_label(mitigations: frozenset[Mitigation]) -> str:
    if not mitigations:
        return "none"
    return "+".join(sorted(m.value for m in mitigations))


_SWEEP_KEYS = ("scenarios", "defenses", "mitigations", "trials", "out")


def _name_list(mapping: Mapping, key: str) -> list:
    """The `key` list of the sweep; a bare string is a one-entry list."""
    value = mapping[key]
    if isinstance(value, str):
        return [value]
    if not isinstance(value, list):
        raise ConfigError(f"{key} must be a list of names or one name, got {value!r}")
    return value


def config_from_mapping(
    mapping: Mapping, out_dir: Path | None = None
) -> ExperimentConfig:
    """The sweep that `mapping` describes, `out_dir` in place of its `out`
    key. A key it lacks keeps `ExperimentConfig`'s default, and the
    machine's keys are read by `MachineConfig.from_mapping`."""
    try:
        refuse_unknown_keys(mapping, _SWEEP_KEYS + MACHINE_KEYS, "config")
        values = {}
        if "scenarios" in mapping:
            values["scenarios"] = tuple(_name_list(mapping, "scenarios"))
        if "defenses" in mapping:
            values["defenses"] = tuple(map(parse_defense, _name_list(mapping, "defenses")))
        if "mitigations" in mapping:
            specs = _name_list(mapping, "mitigations")
            values["mitigation_sets"] = tuple(map(parse_mitigation_set, specs))
        out = out_dir or mapping.get("out")
        if out is None:
            raise ConfigError("output directory is required (out: or --out)")
        if not isinstance(out, (str, Path)):
            raise ConfigError(f"out must be a directory path, got {out!r}")
        machine = {key: mapping[key] for key in MACHINE_KEYS if key in mapping}
        values["machine"] = MachineConfig.from_mapping(machine)
        if "trials" in mapping:
            values["n_trials"] = require_integer(mapping["trials"], "trials")
        return ExperimentConfig(Path(out), **values)
    except (TypeError, ValueError) as exc:  # each names the key it refuses
        raise ConfigError(str(exc)) from None


def load_config_file(path: str | Path) -> dict:
    # Imported by its one reader, so a process that reads no config file
    # does not pay PyYAML's import time and memory.
    import yaml

    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        data = yaml.safe_load(raw)
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from None
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must be a mapping")
    return data


# --- sweep ------------------------------------------------------------------


@dataclass
class CellResult:
    scenario: str
    defense: DefenseMode
    mitigations: frozenset[Mitigation]
    status: str  # ok | not_applicable | fault
    reports: list[ScenarioReport] = field(default_factory=list)
    occupancy: dict[int, list[int]] = field(default_factory=dict)
    leak: bool | None = None
    note: str = ""

    @property
    def expected_clean(self) -> bool:
        """Whether the cell promises secret-independent observations: dom
        gates every shadowed access, and a mitigation that survived the
        applicability check claims to close its channel under any mode. A
        fault cell keeps its configuration's promise."""
        return self.status != "not_applicable" and (
            self.defense is DefenseMode.DOM or bool(self.mitigations)
        )

    @property
    def violation(self) -> bool:
        return bool(self.leak) and self.expected_clean


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    cells: list[CellResult]
    exit_code: int
    artifacts: list[Path] = field(default_factory=list)


def judge(
    scenario: Scenario, policy: DefensePolicy, n_trials: int
) -> Iterator[tuple[Trace, ScenarioReport]]:
    """Run the prepared `scenario` under `policy` for n trials of each secret.

    Yields (trace, report) pairs lazily: secret 0's trials 0..n-1, then
    secret 1's, so a fault ends the stream after the trials that finished
    and no trace outlives its use. A count below one is refused here, not
    when the stream is read, since no trials would read as no leak.
    """
    if n_trials < 1:
        raise ScenarioError(f"n_trials must be at least 1, got {n_trials}")
    runs = [with_secret(scenario, secret) for secret in (0, 1)]
    return (run_single(run, policy, trial) for run in runs for trial in range(n_trials))


def run_cell(
    scenario: Scenario,
    analysis: ProgramAnalysis,
    defense: DefenseMode,
    mitigations: frozenset[Mitigation],
    n_trials: int,
) -> CellResult:
    """Prepare `scenario` once for the cell, then `judge` it.

    `analysis` is of `scenario.program` and shared with the scenario's
    other cells.
    """
    name = scenario.name
    try:
        scenario, policy = prepare(scenario, defense, mitigations, analysis)
    except (ScenarioError, AnalysisError) as exc:
        return CellResult(name, defense, mitigations, "not_applicable", note=str(exc))
    cell = CellResult(name, defense, mitigations, "ok")
    try:
        for trace, report in judge(scenario, policy, n_trials):
            if report.trial == 0:
                cell.occupancy[report.ground_truth] = trace.occupancy
            cell.reports.append(report)
    except SimulationLimitError as exc:
        cell.status, cell.note = "fault", f"cycle limit: {exc}"
        return cell
    observations = [r.observation for r in cell.reports]
    cell.leak = observations[:n_trials] != observations[n_trials:]
    return cell


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    make_out_dir(config.out_dir)  # before the sweep: a bad path costs no run
    machine = config.machine
    grid = [(d, m) for d in config.defenses for m in config.mitigation_sets]
    cells = []
    for name in config.scenarios:
        try:
            # the cells overlay each secret on the prepared scenario
            scenario = build_scenario(name, 0, machine)
        except ScenarioError as exc:
            cells += [CellResult(name, d, m, "not_applicable", note=str(exc)) for d, m in grid]
            continue
        analysis = ProgramAnalysis(scenario.program, machine.core.expansion_cap)
        cells += [run_cell(scenario, analysis, d, m, config.n_trials) for d, m in grid]
    if all(c.status == "not_applicable" for c in cells):
        raise ConfigError(
            "no runnable cells: " + "; ".join(c.note for c in cells if c.note)
        )
    if any(c.status == "fault" for c in cells):
        code = EXIT_SIM_FAULT
    elif any(c.violation for c in cells):
        code = EXIT_SECURITY
    else:
        code = EXIT_OK
    result = ExperimentResult(config, cells, code)
    result.artifacts = write_artifacts(result)
    return result


# --- artifacts --------------------------------------------------------------


def summary_csv(cells: list[CellResult]) -> str:
    """One row per cell (schema: docs/csv_schemas.md); a stat with no
    numeric observations behind it is left empty."""
    out = io.StringIO()
    writer = csv.DictWriter(out, SUMMARY_FIELDS, restval="")
    writer.writeheader()
    for cell in cells:
        row = {
            "scenario": cell.scenario,
            "defense": cell.defense.value,
            "mitigations": mitigation_label(cell.mitigations),
            "status": cell.status,
            "trials": len(cell.reports),
            "leak": "" if cell.leak is None else int(cell.leak),
            "expected_clean": int(cell.expected_clean),
            "violation": int(cell.violation),
            "note": cell.note,
        }
        if cell.reports:
            matches = sum(r.inferred_secret == r.ground_truth for r in cell.reports)
            row["accuracy"] = f"{matches / len(cell.reports):.4f}"
        for secret in (0, 1):
            # a set-order snapshot is not a number
            values = [
                float(r.observation)
                for r in cell.reports
                if r.ground_truth == secret and not isinstance(r.observation, tuple)
            ]
            if values:
                row[f"mean_s{secret}"] = f"{sum(values) / len(values):.6g}"
                row[f"min_s{secret}"] = f"{min(values):.6g}"
                row[f"max_s{secret}"] = f"{max(values):.6g}"
        writer.writerow(row)
    return out.getvalue()


def format_observation(observation) -> str:
    """One reports.csv observation: a set-order snapshot's tags joined by pipes."""
    if isinstance(observation, tuple):
        return "|".join(str(tag) for tag in observation)
    return str(observation)


def reports_csv(cells: list[CellResult]) -> str:
    """One row per trial of every cell (schema: docs/csv_schemas.md)."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(REPORT_FIELDS)
    for cell in cells:
        label = mitigation_label(cell.mitigations)
        for r in cell.reports:
            writer.writerow(
                [
                    r.trial,
                    cell.scenario,
                    cell.defense.value,
                    label,
                    format_observation(r.observation),
                    r.inferred_secret,
                    r.ground_truth,
                    r.occupancy_peak,
                ]
            )
    return out.getvalue()


def occupancy_csv(series: list[int]) -> str:
    """One `cycle,occupancy` row per cycle, from cycle 1, as csv.writer
    writes two ints (no quoting, CRLF line ends)."""
    rows = [f"{cycle},{occ}\r\n" for cycle, occ in enumerate(series, start=1)]
    return "cycle,occupancy\r\n" + "".join(rows)


def make_out_dir(path: Path) -> None:
    """Create an output directory; a failure is a ConfigError naming it."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None


def write_output(path: str | Path, text: str) -> None:
    """Write one output file; a failure is a ConfigError naming the path."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None


def write_artifacts(result: ExperimentResult) -> list[Path]:
    out_dir = result.config.out_dir
    occ_dir = out_dir / "occupancy"
    make_out_dir(occ_dir)
    written = []
    reports_path = out_dir / "reports.csv"
    write_output(reports_path, reports_csv(result.cells))
    written.append(reports_path)
    summary_path = out_dir / "summary.csv"
    write_output(summary_path, summary_csv(result.cells))
    written.append(summary_path)
    for cell in result.cells:
        label = mitigation_label(cell.mitigations)
        for secret, series in sorted(cell.occupancy.items()):
            name = f"{cell.scenario}__{cell.defense.value}__{label}__s{secret}.csv"
            path = occ_dir / name
            write_output(path, occupancy_csv(series))
            written.append(path)
    return written


__all__ = [
    "CellResult",
    "ConfigError",
    "EXIT_OK",
    "EXIT_SECURITY",
    "EXIT_SIM_FAULT",
    "EXIT_USAGE",
    "ExperimentConfig",
    "ExperimentResult",
    "REPORT_FIELDS",
    "SUMMARY_FIELDS",
    "config_from_mapping",
    "format_observation",
    "judge",
    "load_config_file",
    "mitigation_label",
    "occupancy_csv",
    "parse_defense",
    "parse_mitigation_set",
    "reports_csv",
    "run_cell",
    "run_experiment",
    "summary_csv",
]
