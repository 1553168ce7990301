"""Cycle-level out-of-order pipeline simulator with speculation defenses.

The package models a small ROB-based core (in-order dispatch and commit,
out-of-order issue, branch misprediction squash, rep-string micro-op
expansion) over a set-associative cache with finite MSHRs, plus defensive
execution modes and the static analyses they depend on. On top of the
simulator sit contention scenario builders and a sweep driver that runs
scenario x defense x mitigation grids and reports which cells leak.

Typical entry points:

* :func:`parse_program` / :class:`Simulator` for running a program directly,
* :func:`build_scenario` / :func:`prepare` / :func:`judge` for the
  builtin contention scenarios (``judge`` runs both secrets),
* :func:`run_experiment` with an :class:`ExperimentConfig` for full sweeps,
* ``robsim`` (see :mod:`robsim.cli`) for the command line.
"""

from .analysis import (
    AnalysisError,
    BalanceError,
    PathProfile,
    analyze_all_branches,
    balance_paths,
    compute_safe_sets,
    conservative_filter,
    dump_analysis,
)
from .cache import CacheConfig, CacheState
from .core import (
    BranchPredictor,
    CoreConfig,
    MachineConfig,
    RobEntry,
    SimulationLimitError,
    Simulator,
    Trace,
)
from .defenses import (
    BalanceCertificate,
    DefenseMode,
    DefensePolicy,
    Mitigation,
    certify_balanced,
)
from .experiment import (
    EXIT_OK,
    EXIT_SECURITY,
    EXIT_SIM_FAULT,
    EXIT_USAGE,
    CellResult,
    ConfigError,
    ExperimentConfig,
    judge,
    load_config_file,
    run_experiment,
    write_artifacts,
)
from .isa import (
    ExpansionError,
    MacroInstruction,
    Opcode,
    ParseError,
    Program,
    parse_program,
    print_program,
    rep_expansion_count,
)
from .scenarios import (
    SCENARIO_NAMES,
    ObservationKind,
    Receiver,
    Scenario,
    ScenarioError,
    ScenarioReport,
    build_scenario,
    infer_secret,
    prepare,
    run_single,
    with_secret,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisError",
    "BalanceCertificate",
    "BalanceError",
    "BranchPredictor",
    "CacheConfig",
    "CacheState",
    "CellResult",
    "ConfigError",
    "CoreConfig",
    "DefenseMode",
    "DefensePolicy",
    "EXIT_OK",
    "EXIT_SECURITY",
    "EXIT_SIM_FAULT",
    "EXIT_USAGE",
    "ExpansionError",
    "ExperimentConfig",
    "MacroInstruction",
    "MachineConfig",
    "Mitigation",
    "ObservationKind",
    "Opcode",
    "ParseError",
    "PathProfile",
    "Program",
    "Receiver",
    "RobEntry",
    "SCENARIO_NAMES",
    "Scenario",
    "ScenarioError",
    "ScenarioReport",
    "SimulationLimitError",
    "Simulator",
    "Trace",
    "analyze_all_branches",
    "balance_paths",
    "build_scenario",
    "certify_balanced",
    "compute_safe_sets",
    "conservative_filter",
    "dump_analysis",
    "infer_secret",
    "judge",
    "load_config_file",
    "parse_program",
    "prepare",
    "print_program",
    "rep_expansion_count",
    "run_experiment",
    "run_single",
    "with_secret",
    "write_artifacts",
]
