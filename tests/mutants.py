"""Deliberate defense bugs, and which correctness checks notice each one.

`MUTANTS` lists single-site mutants of the package: each replaces one
`old` text, which must occur exactly once in its file (the tier-1 test
`test_mutants.py` checks that, so a refactor that moves a site fails
loudly instead of testing nothing), by `new`, and names the promise the
change breaks, and records in `killed_by` the checks that kill it today.

Run as a script, it applies each mutant to a temporary copy of the tree
and runs only the checks that know what is correct, never the golden
digests or the benchmark counts, which notice any change at all. It
prints a kill matrix, mutant by check, where `X` means some test of the
check failed:

    python tests/mutants.py            # every mutant, a few seconds each
    python tests/mutants.py M1 M12     # the named ones

The unmutated tree runs first and must pass every check. The matrix is a
gate: the exit status is 1 when the unmutated tree fails a check or a
mutant survives a check that its `killed_by` names, and 0 otherwise. A
check that kills a mutant its row does not name is printed as a note, so
that the row can be widened.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    promise: str  # what the change breaks
    killed_by: frozenset[str]  # the checks that kill it today: a kill lost fails main


_SHADOWED_STORE = """\
                if entry.uop.kind is _MEM_WRITE:
                    i += 1  # shadowed stores always wait for the shadow"""

_HIT = """\
            if deferred_effects:
                return "deferred_hit", self.config.hit_cycles
            way_list.remove(addr)
            way_list.insert(0, addr)
"""
_HIT_UPDATED_AT_ISSUE = """\
            way_list.remove(addr)
            way_list.insert(0, addr)
            if deferred_effects:
                return "deferred_hit", self.config.hit_cycles
"""

MUTANTS = (
    Mutant(
        "M1", "src/robsim/core.py",
        "self._gates_loads and oldest is not None and oldest < entry.rob_seq",
        "self._gates_loads and oldest is not None and oldest + 1 < entry.rob_seq",
        "dom gates every memory access behind an unresolved speculation source "
        "(here the micro-op right behind the oldest one goes ungated)",
        frozenset(),
    ),
    Mutant(
        "M2", "src/robsim/defenses.py",
        "if oldest is None or entry.rob_seq <= oldest:",
        "if oldest is None or entry.rob_seq <= oldest + 1:",
        "a complete entry reaches OSP unconditionally only when no source "
        "shadows it (here one entry past the shadow too, so a load whose "
        "source conservative_invariance holds behind a branch lifts early)",
        frozenset({"lifts"}),
    ),
    Mutant(
        "M4", "src/robsim/cache.py",
        _HIT,
        _HIT_UPDATED_AT_ISSUE,
        "a dom-gated hit leaves the replacement order alone until it commits "
        "(here it updates the LRU order at issue)",
        frozenset({"audits"}),
    ),
    Mutant(
        "M5", "src/robsim/analysis.py",
        "for i in range(start, program_len):",
        "for i in range(start + 1, program_len):",
        "conservative_invariance puts the branch in the safe set of every "
        "instruction from the reconvergence point on (here not of that point)",
        frozenset({"verdicts", "jitter_clean", "lifts"}),
    ),
    Mutant(
        "M6", "src/robsim/analysis.py",
        "if not (profile.variable or profile.min_uops != profile.max_uops):",
        "if profile.variable or profile.min_uops == profile.max_uops:",
        "conservative_invariance widens behind a variable-length branch too",
        frozenset({"verdicts", "jitter_clean"}),
    ),
    Mutant(
        "M7", "src/robsim/core.py",
        "if done is None or done >= cycle or entry.predicted:",
        "if done is None or done >= cycle:",
        "a predicted REP filler commits only once its expansion is verified",
        frozenset({"audits"}),
    ),
    Mutant(
        "M8", "src/robsim/defenses.py",
        "if members >> other.macro.id & 1 and not osp_reached(other, rob, safe_sets, oldest):",
        "if members >> other.macro.id & 1 and (oldest is None or other.rob_seq <= oldest)"
        " and not osp_reached(other, rob, safe_sets, oldest):",
        "ESP waits for every older in-flight safe-set member, shadowed ones included",
        frozenset({"lifts"}),
    ),
    Mutant(
        "M9", "src/robsim/core.py",
        "if first.dispatch_cycle is None or self._unresolved[0] < first.rob_seq:",
        "if first.dispatch_cycle is None:",
        "a predicted REP is verified only once no older source shadows it",
        frozenset({"audits"}),
    ),
    Mutant(
        "M10", "src/robsim/analysis.py",
        "control[i] = set(guards[k])",
        "control[i] = set()",
        "a safe set holds the branches an instruction is control dependent on",
        frozenset({"verdicts", "jitter_clean"}),
    ),
    Mutant(
        "M11", "src/robsim/core.py",
        _SHADOWED_STORE,
        _SHADOWED_STORE.replace("is _MEM_WRITE:", "is _MEM_WRITE and False:"),
        "a shadowed store waits for the shadow to clear under dom",
        frozenset(),
    ),
    Mutant(
        "M12", "src/robsim/core.py",
        "if deferred and not cache.resident(address):",
        "if False and deferred and not cache.resident(address):",
        "dom lets a shadowed, unlifted access run only on a hit",
        frozenset({"verdicts", "jitter_clean", "lifts"}),
    ),
    Mutant(
        "M13", "src/robsim/core.py",
        "if esp_check(entry, self.policy.safe_sets, self.rob, oldest):",
        "if True:",
        "invarspec lifts an access only once it reaches ESP",
        frozenset({"verdicts", "jitter_clean", "lifts"}),
    ),
    Mutant(
        "M14", "src/robsim/cache.py",
        "miss_offset(self.jitter_seed, addr, self.jitter_amplitude)",
        "miss_offset(self.jitter_seed, self.hits + self.misses + self.mshr_stalls,"
        " self.jitter_amplitude)",
        "a miss's jitter depends on the trial seed and the line only "
        "(here on draw order, a per-cache access counter, so on the secret)",
        frozenset({"audits", "jitter_clean"}),
    ),
)

# Each check: tests that state what is correct, not what the code did
# before (no golden digest, no benchmark count, no pinned unit example).
# The audits check rules off a finished run's trace, or off the core's
# state after each step; lifts states when dom_plus_invarspec may lift an
# access.
CHECKS = {
    "verdicts": (
        "tests/test_scenarios.py::test_unprotected_recovery_is_exact",
        "tests/test_scenarios.py::test_dom_observations_identical_across_secrets",
        "tests/test_scenarios.py::test_invarspec_lifting_reopens_fsi",
        "tests/test_scenarios.py::test_invarspec_keeps_bsi_closed",
        "tests/test_scenarios.py::test_conservative_filter_closes_every_scenario",
        "tests/test_scenarios.py::test_balancing_closes_straight_variant",
        "tests/test_scenarios.py::test_predicted_fill_closes_rep_channel",
        "tests/test_acceptance.py::test_criterion_4_dom_baseline_blocks_v1",
        "tests/test_acceptance.py::test_criterion_6_conservative_filter_restores_protection",
        "tests/test_experiment.py::test_every_reference_unprotected_cell_leaks_under_jitter",
    ),
    "audits": (
        "tests/test_core.py::test_memory_rules_hold_on_every_scenario_cell",
        "tests/test_core.py::test_memory_rules_hold_on_coalesced_misses_under_jitter",
        "tests/test_core.py::test_skipping_matches_stepper_on_random_programs",
        "tests/test_core.py::test_memory_rules_hold_on_shadowed_hits_in_shared_sets",
        "tests/test_core.py::test_predicted_rep_is_verified_only_once_no_older_source_shadows_it",
        "tests/test_core.py::test_predicted_rep_commits_only_once_verified",
    ),
    "jitter_clean": (
        "tests/test_experiment.py::test_every_expected_clean_cell_stays_clean_under_jitter",
    ),
    "lifts": (
        "tests/test_core.py::test_conservative_filter_holds_a_load_fed_from_past_the_branch",
    ),
}


def apply(mutant: Mutant, root: Path) -> None:
    """Rewrite the mutant's file under `root`; its old text must occur once."""
    path = root / mutant.file
    text = path.read_text()
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.name}: old text occurs {count} times in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new))


def killing_checks(root: Path) -> set[str]:
    """The checks with a failing test in the tree at `root`, in one pytest run."""
    nodes = [node for tests in CHECKS.values() for node in tests]
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--tb=no",
         "-rfE", "--hypothesis-seed=0", *nodes],
        cwd=root, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    failed = [  # "FAILED <node id> - <message>"
        line.split(" ", 1)[1].split(" - ", 1)[0] for line in run.stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    ]
    if run.returncode not in (0, 1) or (run.returncode == 1 and not failed):
        raise RuntimeError(f"pytest exited {run.returncode}:\n{run.stdout}{run.stderr}")
    return {
        check for check, tests in CHECKS.items()
        if any(node == test or node.startswith(test + "[") for node in failed for test in tests)
    }


def copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", "*.pyc")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", dest)


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory(prefix="robsim-mutants-") as scratch:
        baseline = Path(scratch) / "none"
        copy_tree(baseline)
        if killing_checks(baseline):
            print("the unmutated tree fails a check; no matrix", file=sys.stderr)
            return 1
        rows, lost = [], []
        for mutant in chosen:
            tree = Path(scratch) / mutant.name
            copy_tree(tree)
            apply(mutant, tree)
            killed = killing_checks(tree)
            shutil.rmtree(tree)
            rows.append((mutant.name, killed))
            print(f"{mutant.name}: {', '.join(sorted(killed)) or 'survives'}", flush=True)
            survived, gained = mutant.killed_by - killed, killed - mutant.killed_by
            if survived:
                lost.append(f"{mutant.name} survives {', '.join(sorted(survived))}")
            if gained:
                print(f"note: {mutant.name} is newly killed by {', '.join(sorted(gained))}; "
                      "widen its killed_by")
    print("\n| mutant | " + " | ".join(CHECKS) + " |")
    print("|---|" + "---|" * len(CHECKS))
    for name, killed in rows:
        marks = " | ".join("X" if check in killed else "-" for check in CHECKS)
        print(f"| {name} | {marks} |")
    for line in lost:
        print(f"{line}, which its killed_by says kills it", file=sys.stderr)
    return 1 if lost else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
