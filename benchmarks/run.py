"""robsim sweep benchmark: one workload, end-to-end or traced per-layer metrics.

    python3 benchmarks/run.py --workload ref_jitter2 --seed 0 --seconds 30 --trace 0

Run from anywhere; the package is imported from ``src/`` beside this
directory. The last line of standard output is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
list the same metrics with their units. ``attempted`` and ``failed`` count
sweep cells, and a cell fails when its (status, leak, violation) or trial
count differs from the table pinned in ``workloads.py``.

``--trace 0`` reports the end-to-end metrics: set-up time (median of fresh
processes), then ``run_experiment`` repeated untraced for ``--seconds``
seconds, reporting the median repeat in reference seconds (see
``REFERENCE_KERNEL_S``) and, on the lines before the JSON, in host
seconds. ``--trace 1`` reports the per-layer metrics from the traced pass
in ``tracing.py`` and checks that tracing changes no output, that its
counts repeat exactly, and that the seed reaches the program.

Exits 2 without a result when the package or a wrapped function is missing,
or a span the workload must call recorded no call.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import replace
from pathlib import Path
from time import monotonic, perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

HELD_OUT_SEED = 7919  # the traced run's second seed; keep it out of tuning
MIN_REPEATS = 3  # untraced sweeps, however short --seconds is
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60

# Host speed on a shared machine swings by up to half over minutes, and the
# sweep slows with it. A fixed pure-Python kernel that uses no robsim code,
# timed between consecutive sweeps, slows in step, so sweep time over kernel
# time stays put. The gated sweep metrics are in reference seconds: host
# seconds scaled to a host on which the kernel takes REFERENCE_KERNEL_S.
# setup_s stays in host seconds: process start and imports do not slow in
# step with the kernel, and scaling them made their spread wider.
REFERENCE_KERNEL_S = 0.075

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_ref_s": "s",
    "trials_per_ref_s": "1/s",
    "sim_cycles_per_ref_s": "cycles/s",
    "peak_rss_mb": "MB",
}

# What a fresh `robsim run` pays before its sweep starts: interpreter start,
# importing robsim (and PyYAML through it), building the workload config.
# The child prints when it is done on CLOCK_MONOTONIC, which the parent
# shares, so waiting for the child to exit adds nothing to the figure.
_SETUP_CHILD = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from workloads import WORKLOADS
WORKLOADS[sys.argv[3]].config(int(sys.argv[4]), sys.argv[5])
import time
print(time.monotonic())
"""


class _Slot:
    __slots__ = ("key", "value")


def reference_kernel() -> float:
    """Host seconds for a fixed loop of the work robsim does: allocation,
    attribute access and dict updates, as in the core, then set unions, as
    in the analysis. It stays under a few MB, so it moves no peak RSS."""
    start = perf_counter()
    table: dict[int, int] = {}
    total = 0
    for i in range(120_000):
        slot = _Slot()
        slot.key = i % 101
        slot.value = i
        table[slot.key] = table.get(slot.key, 0) + slot.value
        total += len(table) & 3
    for _ in range(40):
        merged: set[int] = set()
        for i in range(0, 2_500, 20):
            merged |= frozenset(range(i, i + 200))
    return perf_counter() - start


class BenchmarkError(RuntimeError):
    """The benchmark cannot measure this checkout; no result is printed."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--trials", type=int, default=None,
                   help="override the workload's trials per secret (smoke test)")
    return p.parse_args(argv)


def import_package():
    if not (SRC / "robsim" / "__init__.py").is_file():
        raise BenchmarkError(f"robsim sources not found under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import robsim

    if Path(robsim.__file__).resolve().parent != SRC / "robsim":
        raise BenchmarkError(f"imported robsim from {robsim.__file__}, not from {SRC}")


class Sweeps:
    """Runs a workload's sweep in scratch directories and gates its verdicts."""

    def __init__(self, workload, scratch: Path):
        self.workload = workload
        self.scratch = scratch
        self.attempted = 0
        self.failed = 0

    def run(self, config):
        """One run_experiment call: (result or None, wall seconds, reports and summary CSV)."""
        from robsim.experiment import run_experiment

        out = Path(tempfile.mkdtemp(dir=self.scratch))
        config = replace(config, out_dir=out)
        gc.collect()
        start = perf_counter()
        try:
            result = run_experiment(config)
        except Exception:  # a raising sweep fails every cell; keep measuring
            traceback.print_exc()
            result = None
        wall = perf_counter() - start
        self.attempted += len(self.workload.verdicts)
        csvs = None
        if result is None:
            self.failed += len(self.workload.verdicts)
        else:
            problems = self.workload.cell_failures(result)
            for line in problems:
                print(f"verdict gate: {line}", file=sys.stderr)
            self.failed += len(problems)
            csvs = (out / "reports.csv").read_bytes(), (out / "summary.csv").read_bytes()
        shutil.rmtree(out)
        return result, wall, csvs

    @property
    def failed_cell_ratio(self) -> float:
        return self.failed / self.attempted


def measure_setup(workload_name: str, seed: int, scratch: Path) -> float:
    """Median time from starting a fresh process until it has built the config.

    One unmeasured process first, so every measured one finds compiled bytecode.
    """
    argv = [sys.executable, "-c", _SETUP_CHILD, str(SRC), str(HERE), workload_name,
            str(seed), str(scratch / "setup-out")]
    times = []
    for _ in range(SETUP_REPEATS + 1):
        start = monotonic()
        done = subprocess.run(argv, check=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True)
        times.append(float(done.stdout) - start)
    return statistics.median(times[1:])


def end_to_end(args, workload, scratch: Path):
    from tracing import Tracer

    setup_s = measure_setup(args.workload, args.seed, scratch)
    config = workload.config(args.seed, scratch, args.trials)
    sweeps = Sweeps(workload, scratch)
    # Warm-up pass, traced for the exact simulated-cycle count of this config.
    with Tracer() as tracer:
        result, _, _ = sweeps.run(config)
    sim_cycles = tracer.counts["core.sim_cycles"]
    trials = sum(len(c.reports) for c in result.cells) if result else 0
    walls, kernels = [], [reference_kernel()]
    deadline = perf_counter() + args.seconds
    while len(walls) < MIN_REPEATS or perf_counter() < deadline:
        walls.append(sweeps.run(config)[1])
        kernels.append(reference_kernel())
    # each sweep against the mean of the kernels just before and after it
    wall_ref_s = REFERENCE_KERNEL_S * statistics.median(
        2 * wall / (before + after) for wall, before, after in zip(walls, kernels, kernels[1:]))
    wall_s = statistics.median(walls)
    metrics = {
        "setup_s": setup_s,
        "wall_ref_s": wall_ref_s,
        "trials_per_ref_s": trials / wall_ref_s,
        "sim_cycles_per_ref_s": sim_cycles / wall_ref_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"{len(walls)} untraced sweeps of {trials} trials; "
          f"failed_cell_ratio {sweeps.failed_cell_ratio:.6g} ratio "
          f"({sweeps.failed}/{sweeps.attempted} cells)")
    print(f"reference kernel {1000 * statistics.median(kernels):.4g} ms "
          f"(reference {1000 * REFERENCE_KERNEL_S:.4g} ms); in host seconds:")
    for name, value, unit in (("wall_s", wall_s, "s"),
                              ("trials_per_s", trials / wall_s, "1/s"),
                              ("sim_cycles_per_s", sim_cycles / wall_s, "cycles/s")):
        print(f"{name:32} {value:.6g} {unit}")
    return sweeps, [], {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}


def per_layer(args, workload, scratch: Path):
    from tracing import PER_LAYER_UNITS, Tracer, scaling_probe

    config = workload.config(args.seed, scratch, args.trials)
    held_out = HELD_OUT_SEED if args.seed != HELD_OUT_SEED else HELD_OUT_SEED + 1
    sweeps = Sweeps(workload, scratch)
    untraced, traced, tracers = [], [], []
    for _ in range(2):  # alternate, so neither side gets all the warm-up
        untraced.append(sweeps.run(config))
        tracers.append(Tracer())
        with tracers[-1]:
            traced.append(sweeps.run(config))
    with Tracer() as other_seed:
        sweeps.run(workload.config(held_out, scratch, args.trials))

    first, second = tracers
    first.require(workload.required_spans)
    problems = []
    if any(csvs != untraced[0][2] for _, _, csvs in untraced + traced):
        problems.append("traced reports.csv/summary.csv differ from the untraced run's")
    counts, again = first.exact_counts(), second.exact_counts()
    moved = sorted(k for k in counts.keys() | again.keys() if counts.get(k) != again.get(k))
    if moved:
        problems.append(f"counts did not repeat at the same seed: {', '.join(moved)}")
    seed_moves = other_seed.exact_counts() != counts
    if workload.jitter and not seed_moves:
        problems.append(f"no count moved between seed {args.seed} and {held_out}")
    if not workload.jitter and seed_moves:
        problems.append(f"jitter-0 counts moved between seed {args.seed} and {held_out}")
    for line in problems:
        print(f"traced run: {line}", file=sys.stderr)

    metrics = first.metrics()
    metrics.update(scaling_probe())
    metrics["failed_cell_ratio"] = sweeps.failed_cell_ratio
    metrics["trace.overhead_s"] = min(w for _, w, _ in traced) - min(w for _, w, _ in untraced)
    print(f"held-out seed {held_out}; {len(problems)} traced-run check(s) failed")
    return sweeps, problems, {k: (metrics[k], unit) for k, unit in PER_LAYER_UNITS.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_package()
    except (BenchmarkError, ImportError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    from tracing import SpanError
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    measure = per_layer if args.trace else end_to_end
    scratch = Path(tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT))
    try:
        sweeps, problems, metrics = measure(args, WORKLOADS[args.workload], scratch)
    except (SpanError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"{name:32} {value:.6g} {unit}")
    print(json.dumps({
        "correct": sweeps.failed == 0 and not problems,
        "attempted": sweeps.attempted,
        "failed": sweeps.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
