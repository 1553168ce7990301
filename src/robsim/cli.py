"""Command-line front end.

Three subcommands: `run` sweeps attack scenarios against defense modes and
writes CSV artifacts, `sim` executes one assembly program and dumps its
trace, `analyze` prints the static analysis (safe sets and path profiles)
of a program.

Exit codes: 0 ok, 1 usage or config error, 2 simulation fault (cycle
limit), 3 security-property violation (a cell that promised
secret-independent observations leaked).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .analysis import analyze_all_branches, compute_safe_sets, dump_analysis
from .core import MachineConfig, SimulationLimitError, Simulator
from .defenses import Mitigation
from .experiment import (
    EXIT_SIM_FAULT,
    EXIT_USAGE,
    ConfigError,
    config_from_mapping,
    load_config_file,
    mitigation_label,
    occupancy_csv,
    parse_defense,
    parse_mitigation_set,
    run_experiment,
    write_output,
)
from .isa import parse_program
from .scenarios import prepare_program


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="robsim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="sweep scenarios x defenses, write CSV artifacts")
    run.add_argument("--config", help="YAML experiment config")
    run.add_argument(
        "--scenario",
        action="append",
        default=None,
        help="scenario name (repeatable; overrides config; default every scenario)",
    )
    run.add_argument("--defense", help="defense mode (overrides config)")
    run.add_argument(
        "--mitigation",
        action="append",
        default=None,
        help="mitigation name (repeatable; combined into one set)",
    )
    run.add_argument("--trials", type=int, help="trials per cell and secret")
    run.add_argument("--seed", type=int, help="jitter seed base")
    run.add_argument(
        "--jitter",
        type=int,
        help="amplitude a of a fresh miss's jitter, an offset in [-a, a] fixed by the "
        "trial's seed and the line (docs/csv_schemas.md); 0 up to miss_cycles - hit_cycles - 1",
    )
    run.add_argument("--out", help="output directory")

    sim = sub.add_parser("sim", help="run one assembly program, dump the trace")
    sim.add_argument("program", help="assembly file")
    sim.add_argument("--defense", default="unprotected", help="defense mode")
    sim.add_argument(
        "--mitigation", action="append", default=None, help="mitigation (repeatable)"
    )
    sim.add_argument("--trace", help="write the uop lifecycle CSV here")
    sim.add_argument("--occupancy", help="write the per-cycle occupancy CSV here")
    sim.add_argument("--max-cycles", type=int, help="abort after this many cycles")

    analyze = sub.add_parser(
        "analyze", help="print the safe sets and path profiles of a program"
    )
    analyze.add_argument("program", help="assembly file")
    analyze.add_argument("--out", help="report path (default stdout)")
    return parser


def _load_program(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read program {path}: {exc}") from None
    return parse_program(text)


def _cmd_run(args: argparse.Namespace) -> int:
    mapping = load_config_file(args.config) if args.config else {}
    flags = {  # each flag given overrides its config key
        "scenarios": args.scenario,
        "defenses": [args.defense] if args.defense else None,
        "mitigations": None if args.mitigation is None else [args.mitigation],
        "trials": args.trials,
        "seed": args.seed,
        "jitter": args.jitter,
    }
    mapping.update((key, value) for key, value in flags.items() if value is not None)
    config = config_from_mapping(mapping, Path(args.out) if args.out else None)
    result = run_experiment(config)
    for cell in result.cells:
        label = mitigation_label(cell.mitigations)
        tag = cell.status
        if cell.violation:
            tag = "VIOLATION"
        elif cell.leak:
            tag = "leak"
        elif cell.status == "ok":
            tag = "clean"
        print(f"{cell.scenario} x {cell.defense.value} x {label}: {tag}")
    print(f"artifacts in {config.out_dir}")
    return result.exit_code


def _cmd_sim(args: argparse.Namespace) -> int:
    program = _load_program(args.program)
    mode = parse_defense(args.defense)
    mitigations = parse_mitigation_set(args.mitigation or [])
    if Mitigation.PATH_BALANCING in mitigations:
        raise ConfigError(
            "sim runs programs as written; balance one with robsim.balance_paths "
            "or study balanced scenarios through run"
        )
    core = {} if args.max_cycles is None else {"max_cycles": args.max_cycles}
    machine = MachineConfig.from_mapping({"core": core})
    _, policy = prepare_program(
        program,
        mode,
        mitigations,
        name=args.program,
        cap=machine.core.expansion_cap,
    )
    sim = Simulator(program, machine, policy)
    trace = sim.run()
    if args.trace:
        write_output(args.trace, trace.to_csv())
    if args.occupancy:
        write_output(args.occupancy, occupancy_csv(trace.occupancy))
    stats = trace.stats
    print(
        f"{len(trace.occupancy)} cycles, {stats.committed_uops} uops committed, "
        f"peak occupancy {stats.peak_occupancy}"
    )
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    program = _load_program(args.program)
    safe_sets = compute_safe_sets(program)
    profiles = analyze_all_branches(program)
    text = dump_analysis(safe_sets, profiles)
    if args.out:
        write_output(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sim":
            return _cmd_sim(args)
        return _cmd_analyze(args)
    except (_UsageError, ValueError) as exc:  # config, scenario, analysis and parse errors
        print(f"robsim: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SimulationLimitError as exc:
        print(f"robsim: simulation fault: {exc}", file=sys.stderr)
        return EXIT_SIM_FAULT


if __name__ == "__main__":
    sys.exit(main())
