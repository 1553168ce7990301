"""Smoke test of the benchmark itself, at two trials per secret.

    python3 benchmarks/smoke_test.py

For every workload in BENCHMARK.json and both trace modes, checks that the
verdict gate passes and that every metric BENCHMARK.json names is printed,
once as a line with its unit and once in the final JSON object. Then checks
that, copied to a directory without ``src/``, the benchmark exits non-zero
and prints no result. Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SMOKE_TRIALS = "2"
TIMEOUT_S = 300


def run(command, cwd):
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_workload(spec, name, trace) -> list[str]:
    done = run(spec["command"] + ["--workload", name, "--seed", "0", "--seconds", "0",
                                  "--trace", str(trace), "--trials", SMOKE_TRIALS], ROOT)
    if done.returncode != 0:
        return [f"exit code {done.returncode}: {done.stderr.strip()}"]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"verdict gate failed: {done.stderr.strip()}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in wanted}:
        problems.append(f"metrics {sorted(result['metrics'])} are not the ones BENCHMARK.json names")
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1] if line.strip()}
    for metric in wanted:
        got = result["metrics"].get(metric["name"], {})
        if got.get("unit") != metric["unit"] or printed.get(metric["name"]) != metric["unit"]:
            problems.append(f"{metric['name']} not printed with unit {metric['unit']}")
    return problems


def check_without_sources(spec) -> list[str]:
    bare = Path(tempfile.mkdtemp(prefix=".bench_tmp-smoke-", dir=ROOT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        name = spec["workloads"][0]["name"]
        done = run(spec["command"] + ["--workload", name, "--seed", "0", "--seconds", "1",
                                      "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare)
    if done.returncode == 0 or '"correct"' in done.stdout:
        return ["without src/ the benchmark did not fail cleanly"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    checks = [(f"{w['name']} --trace {trace}", check_workload, (spec, w["name"], trace))
              for w in spec["workloads"] for trace in (0, 1)]
    checks.append(("without sources", check_without_sources, (spec,)))
    for label, check, check_args in checks:
        problems = check(*check_args)
        print(f"{label}: {'ok' if not problems else 'FAILED'}")
        if problems:
            print("\n".join(problems))
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
