"""The traced benchmark still finds every name and field it reads.

``benchmarks/tracing.Tracer`` wraps package functions at the names the
package calls them by and reads ``Trace``, ``MemEvent``, ``SimStats`` and
``CacheState`` fields. A refactor that moves or drops one of those fails
here, at one trial per secret of each benchmark workload, rather than only
when the benchmark runs. The span call counts also pin that a sweep parses
each scenario program once, prepares each cell once, and analyzes each
distinct program at most once.

``Trace.mem_events`` holds the fills only, and every access is read off
its record. The tracer counts ``cache.fills`` off that log; its
``defenses.deferred_applied`` looks there for applied deferred accesses,
so it reads 0 until it counts them off the records (ROADMAP item 8).
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

from tracing import PER_LAYER_UNITS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from robsim.defenses import Mitigation  # noqa: E402
from robsim.experiment import run_experiment  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_workload_passes_its_checks(name, tmp_path):
    workload = WORKLOADS[name]
    config = workload.config(0, tmp_path / "out", trials=1)
    with Tracer() as tracer:
        result = run_experiment(config)
    tracer.require(workload.required_spans)
    assert workload.cell_failures(result) == []
    metrics = tracer.metrics()
    assert set(metrics) <= set(PER_LAYER_UNITS)
    assert all(math.isfinite(value) for value in metrics.values())
    assert metrics["core.trial_samples"] == 2 * len(
        [c for c in result.cells if c.status == "ok"]
    )
    calls = {span: len(times) for span, times in tracer.durations.items()}
    assert calls["isa.parse"] == len(config.scenarios)
    assert calls["scenarios.prepare"] == len(result.cells)
    # each scenario program, plus each program path_balancing rewrites
    balanced = [c for c in result.cells if Mitigation.PATH_BALANCING in c.mitigations]
    assert calls["analysis.safe_sets"] <= len(config.scenarios) + len(balanced)
    if any(Mitigation.CONSERVATIVE_INVARIANCE in m for m in config.mitigation_sets):
        assert calls["analysis.path_profiles"] <= len(config.scenarios)
    else:
        assert calls["analysis.path_profiles"] == 0
