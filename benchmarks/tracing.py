"""Per-layer spans and counts for the traced run, taken from outside the package.

``Tracer`` replaces the package's public functions at the names its modules
call them by (``robsim.experiment.prepare``, ``robsim.core.Simulator.run``,
...) with timed wrappers, and puts the originals back on exit. Nothing under
``src/`` changes, and the spans follow whatever call structure the sweep
has. Times are host time and inclusive of nested spans; counts come from
each ``Trace`` and ``CacheState`` and are exact.
"""

from __future__ import annotations

import functools
import math
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

import robsim.core
import robsim.defenses
import robsim.experiment
import robsim.scenarios
from robsim.analysis import AnalysisError
from robsim.core import CoreConfig, MachineConfig
from robsim.defenses import DefenseMode, Mitigation
from robsim.isa import UopKind
from robsim.scenarios import ScenarioError, build_scenario, prepare

# span -> (owner, attribute it is called through)
SPANS = {
    "isa.parse": (robsim.scenarios, "parse_program"),
    "scenarios.build": (robsim.experiment, "build_scenario"),
    "scenarios.prepare": (robsim.experiment, "prepare"),
    "analysis.safe_sets": (robsim.scenarios, "compute_safe_sets"),
    "analysis.path_profiles": (robsim.scenarios, "analyze_all_branches"),
    "analysis.certify_profiles": (robsim.defenses, "analyze_all_branches"),
    "analysis.balance": (robsim.scenarios, "balance_paths"),
    "core.trial": (robsim.experiment, "run_single"),
    "core.run": (robsim.core.Simulator, "run"),
    "experiment.write_artifacts": (robsim.experiment, "write_artifacts"),
    "experiment.summary_csv": (robsim.experiment, "summary_csv"),
    "experiment.reports_csv": (robsim.experiment, "reports_csv"),
}
ANALYSIS_SPANS = ("analysis.safe_sets", "analysis.path_profiles",
                  "analysis.certify_profiles", "analysis.balance")

PROBE_ROB_SIZES = (128, 256, 512, 768, 1024)
PROBE_REPEATS = 3

_MEMORY_KINDS = (UopKind.MEM_READ, UopKind.MEM_WRITE)
_TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
_TAIL_BEYOND = 10

# name -> unit, in print order
PER_LAYER_UNITS = {
    "analysis.safe_sets_ms": "ms",
    "analysis.path_profiles_ms": "ms",
    "analysis.balance_ms": "ms",
    "analysis.calls": "count",
    "analysis.instructions_analyzed": "count",
    **{f"analysis.scale_ms.rob{rob}": "ms" for rob in PROBE_ROB_SIZES},
    "analysis.scaling_failures": "count",
    "scenarios.build_ms": "ms",
    "scenarios.prepare_ms": "ms",
    "scenarios.prepare_ms_max": "ms",
    "scenarios.prepare_calls": "count",
    "isa.parse_ms": "ms",
    "core.run_ms": "ms",
    "core.trial_ms_p50": "ms",
    "core.trial_ms_tail": "ms",
    "core.trial_ms_tail_pct": "%",
    "core.trial_samples": "count",
    "core.us_per_sim_cycle": "us/cycle",
    "core.sim_cycles": "cycles",
    "core.uops_decoded": "count",
    "core.uops_committed": "count",
    "core.commit_ratio": "ratio",
    "core.ipc": "uops/cycle",
    "core.squashes": "count",
    "core.dispatch_stall_cycles": "cycles",
    "core.decode_stall_cycles": "cycles",
    "core.load_issue_wait_cycles": "cycles",
    "core.peak_occupancy": "entries",
    "core.idle_cycle_ratio": "ratio",
    "cache.accesses": "count",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.coalesced": "count",
    "cache.mshr_stalls": "count",
    "cache.fills": "count",
    "cache.hit_ratio": "ratio",
    "defenses.esp_lifts": "count",
    "defenses.deferred_hits": "count",
    "defenses.deferred_applied": "count",
    "experiment.write_artifacts_ms": "ms",
    "experiment.summary_csv_ms": "ms",
    "experiment.reports_csv_ms": "ms",
    "experiment.artifact_bytes": "bytes",
    "failed_cell_ratio": "ratio",
    "trace.overhead_s": "s",
}


class SpanError(RuntimeError):
    """A wrapped name is gone or was never called: the package moved it."""


class Tracer:
    """Context manager that records spans and counts while the sweep runs."""

    def __init__(self) -> None:
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.counts: Counter[str] = Counter()
        self._saved: list[tuple[object, str, object]] = []
        self._hook_s = 0.0  # time spent counting, kept out of every span

    def __enter__(self) -> "Tracer":
        hooks = {"core.run": self._count_run,
                 "experiment.write_artifacts": self._count_artifacts}
        for span, (owner, attr) in SPANS.items():
            original = getattr(owner, attr, None)
            if original is None:
                self.__exit__()
                raise SpanError(f"{span}: {owner.__name__}.{attr} no longer exists")
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._timed(span, original, hooks.get(span)))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _timed(self, span, fn, on_result):
        durations = self.durations[span]
        analysis = span in ANALYSIS_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if analysis:
                self.counts["analysis.instructions_analyzed"] += len(args[0])
            hooks_before = self._hook_s
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                durations.append(perf_counter() - start - (self._hook_s - hooks_before))
            if on_result is not None:
                hook_start = perf_counter()
                on_result(args, out)
                self._hook_s += perf_counter() - hook_start
            return out

        return wrapper

    def _count_run(self, args, trace) -> None:
        sim = args[0]
        c = self.counts
        stats = trace.stats
        c["core.sim_cycles"] += stats.cycles
        c["core.uops_decoded"] += len(trace.records)
        c["core.uops_committed"] += stats.committed_uops
        c["core.squashes"] += stats.squashes
        c["core.dispatch_stall_cycles"] += stats.dispatch_stalls
        c["core.decode_stall_cycles"] += stats.decode_stalls
        c["core.peak_occupancy"] = max(c["core.peak_occupancy"], stats.peak_occupancy)
        active = {s.cycle for s in stats.squash_log}
        for event in trace.mem_events:
            active.add(event.cycle)
            if event.kind == "fill":
                c["cache.fills"] += 1
            elif event.deferred and event.applied:
                c["defenses.deferred_applied"] += 1
        for e in trace.records:
            active.update((e.dispatch_cycle, e.exec_start_cycle, e.complete_cycle,
                           e.commit_cycle, e.squash_cycle))
            if (e.uop.kind in _MEMORY_KINDS and e.exec_start_cycle is not None
                    and e.ready_cycle is not None):
                c["core.load_issue_wait_cycles"] += e.exec_start_cycle - e.ready_cycle
            if e.esp_cycle is not None:
                c["defenses.esp_lifts"] += 1
            if e.outcome == "deferred_hit":
                c["defenses.deferred_hits"] += 1
        busy = sum(1 for cycle in active if cycle is not None and 1 <= cycle <= stats.cycles)
        c["core.idle_cycles"] += stats.cycles - busy
        cache = sim.cache
        c["cache.hits"] += cache.hits
        c["cache.misses"] += cache.misses
        c["cache.coalesced"] += cache.coalesced_misses
        c["cache.mshr_stalls"] += cache.mshr_stalls

    def _count_artifacts(self, args, paths) -> None:
        self.counts["experiment.artifact_bytes"] += sum(p.stat().st_size for p in paths)

    def require(self, spans) -> None:
        """Raise unless every span in `spans` recorded a call."""
        silent = sorted(span for span in spans if not self.durations[span])
        if silent:
            raise SpanError(f"wrapped spans recorded no call: {', '.join(silent)}")

    def exact_counts(self) -> dict[str, int]:
        """Every count that must repeat exactly for the same config and seed."""
        out = dict(self.counts)
        for span in SPANS:
            out[f"{span}.calls"] = len(self.durations[span])
        return out

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics this trace supports (all but probe, ratio, overhead)."""
        c = self.counts

        def ms(*spans):
            return 1000 * sum(sum(self.durations[s]) for s in spans)

        trials = sorted(self.durations["core.trial"])
        tail_pct, tail = _tail(trials)
        cycles = c["core.sim_cycles"]
        accesses = c["cache.hits"] + c["cache.misses"] + c["cache.coalesced"] + c["cache.mshr_stalls"]
        prepares = self.durations["scenarios.prepare"]
        return {
            "analysis.safe_sets_ms": ms("analysis.safe_sets"),
            "analysis.path_profiles_ms": ms("analysis.path_profiles", "analysis.certify_profiles"),
            "analysis.balance_ms": ms("analysis.balance"),
            "analysis.calls": sum(len(self.durations[s]) for s in ANALYSIS_SPANS),
            "analysis.instructions_analyzed": c["analysis.instructions_analyzed"],
            "scenarios.build_ms": ms("scenarios.build"),
            "scenarios.prepare_ms": ms("scenarios.prepare"),
            "scenarios.prepare_ms_max": 1000 * max(prepares),
            "scenarios.prepare_calls": len(prepares),
            "isa.parse_ms": ms("isa.parse"),
            "core.run_ms": ms("core.run"),
            "core.trial_ms_p50": 1000 * statistics.median(trials),
            "core.trial_ms_tail": 1000 * tail,
            "core.trial_ms_tail_pct": tail_pct,
            "core.trial_samples": len(trials),
            "core.us_per_sim_cycle": 1000 * ms("core.run") / cycles,
            "core.sim_cycles": cycles,
            "core.uops_decoded": c["core.uops_decoded"],
            "core.uops_committed": c["core.uops_committed"],
            "core.commit_ratio": c["core.uops_committed"] / c["core.uops_decoded"],
            "core.ipc": c["core.uops_committed"] / cycles,
            "core.squashes": c["core.squashes"],
            "core.dispatch_stall_cycles": c["core.dispatch_stall_cycles"],
            "core.decode_stall_cycles": c["core.decode_stall_cycles"],
            "core.load_issue_wait_cycles": c["core.load_issue_wait_cycles"],
            "core.peak_occupancy": c["core.peak_occupancy"],
            "core.idle_cycle_ratio": c["core.idle_cycles"] / cycles,
            "cache.accesses": accesses,
            "cache.hits": c["cache.hits"],
            "cache.misses": c["cache.misses"],
            "cache.coalesced": c["cache.coalesced"],
            "cache.mshr_stalls": c["cache.mshr_stalls"],
            "cache.fills": c["cache.fills"],
            "cache.hit_ratio": c["cache.hits"] / accesses,
            "defenses.esp_lifts": c["defenses.esp_lifts"],
            "defenses.deferred_hits": c["defenses.deferred_hits"],
            "defenses.deferred_applied": c["defenses.deferred_applied"],
            "experiment.write_artifacts_ms": ms("experiment.write_artifacts"),
            "experiment.summary_csv_ms": ms("experiment.summary_csv"),
            "experiment.reports_csv_ms": ms("experiment.reports_csv"),
            "experiment.artifact_bytes": c["experiment.artifact_bytes"],
        }


def _tail(ordered: list[float]) -> tuple[float, float]:
    """Highest listed percentile (nearest rank) with at least ten samples beyond it.

    With too few samples for any, the median.
    """
    n = len(ordered)
    for pct in _TAIL_PERCENTILES:
        rank = max(math.ceil(pct / 100 * n), 1)
        if n - rank >= _TAIL_BEYOND:
            return pct, ordered[rank - 1]
    return 50.0, statistics.median(ordered)


def scaling_probe() -> dict[str, float]:
    """Host time of prepare(fsi_v2_order, dom_plus_invarspec, conservative_invariance)
    as the ROB, and with it the program, grows.

    A size whose analysis raises is timed up to the failure and counted in
    analysis.scaling_failures.
    """
    out: dict[str, float] = {}
    failures = 0
    mitigations = frozenset({Mitigation.CONSERVATIVE_INVARIANCE})
    for rob in PROBE_ROB_SIZES:
        scenario = build_scenario("fsi_v2_order", 0, MachineConfig(core=CoreConfig(rob_size=rob)))
        times = []
        failed = None
        for _ in range(PROBE_REPEATS):
            start = perf_counter()
            try:
                prepare(scenario, DefenseMode.DOM_PLUS_INVARSPEC, mitigations)
            except (RecursionError, AnalysisError, ScenarioError) as exc:
                failed = exc
            times.append(perf_counter() - start)
        if failed is not None:
            failures += 1
            print(f"scaling probe: rob {rob} ({len(scenario.program)} instructions) "
                  f"failed with {type(failed).__name__}: {failed}", file=sys.stderr)
        out[f"analysis.scale_ms.rob{rob}"] = 1000 * statistics.median(times)
    out["analysis.scaling_failures"] = failures
    return out
