"""The benchmark's workloads and the verdicts each one must produce.

A workload is one ``run_experiment`` config. The benchmark's ``--seed``
becomes the config's jitter seed; nothing else about the inputs varies.

``ref_jitter2`` and ``ref_jitter0`` are the ROADMAP reference grid (every
scenario under every defense, no mitigation) with and without miss-latency
jitter. Host time there is almost all per-trial simulation. At jitter 0
every trial of a (cell, secret) pair is identical, so a trial-replication
shortcut gains there and must not move ``ref_jitter2``.

``invarspec_rob768`` runs ``dom_plus_invarspec`` under every mitigation set
with a 768-entry ROB. ``fsi_v2_order`` then grows to about 810
instructions, so static analysis (``prepare``) takes most of the host
time, and every mitigation path in the core and the analysis runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from robsim.experiment import (
    EXIT_OK,
    ExperimentConfig,
    ExperimentResult,
    config_from_mapping,
    mitigation_label,
)

SCENARIOS = ("fsi_v1_loop", "fsi_v1_rep", "fsi_v1_straight", "fsi_v2_order", "bsi_mshr")

# (status, leak, violation) of one cell
LEAK = ("ok", True, False)
CLEAN = ("ok", False, False)
NOT_APPLICABLE = ("not_applicable", None, False)

Verdicts = Mapping[tuple[str, str, str], tuple[str, "bool | None", bool]]

# dom closes every channel of the reference grid; dom_plus_invarspec reopens
# all of them except bsi_mshr's.
REFERENCE_VERDICTS: Verdicts = {
    ("fsi_v1_loop", "unprotected", "none"): LEAK,
    ("fsi_v1_loop", "dom", "none"): CLEAN,
    ("fsi_v1_loop", "dom_plus_invarspec", "none"): LEAK,
    ("fsi_v1_rep", "unprotected", "none"): LEAK,
    ("fsi_v1_rep", "dom", "none"): CLEAN,
    ("fsi_v1_rep", "dom_plus_invarspec", "none"): LEAK,
    ("fsi_v1_straight", "unprotected", "none"): LEAK,
    ("fsi_v1_straight", "dom", "none"): CLEAN,
    ("fsi_v1_straight", "dom_plus_invarspec", "none"): LEAK,
    ("fsi_v2_order", "unprotected", "none"): LEAK,
    ("fsi_v2_order", "dom", "none"): CLEAN,
    ("fsi_v2_order", "dom_plus_invarspec", "none"): LEAK,
    ("bsi_mshr", "unprotected", "none"): LEAK,
    ("bsi_mshr", "dom", "none"): CLEAN,
    ("bsi_mshr", "dom_plus_invarspec", "none"): CLEAN,
}

# Each mitigation closes the channel wherever it applies. path_balancing
# applies only to the fixed-length diamond of fsi_v1_straight (the loop
# gadget is variable-length), operand_independent_fill only to the rep gadget.
_INV = "dom_plus_invarspec"
INVARSPEC_VERDICTS: Verdicts = {
    ("fsi_v1_loop", _INV, "none"): LEAK,
    ("fsi_v1_loop", _INV, "conservative_invariance"): CLEAN,
    ("fsi_v1_loop", _INV, "path_balancing"): NOT_APPLICABLE,
    ("fsi_v1_loop", _INV, "operand_independent_fill"): NOT_APPLICABLE,
    ("fsi_v1_rep", _INV, "none"): LEAK,
    ("fsi_v1_rep", _INV, "conservative_invariance"): CLEAN,
    ("fsi_v1_rep", _INV, "path_balancing"): NOT_APPLICABLE,
    ("fsi_v1_rep", _INV, "operand_independent_fill"): CLEAN,
    ("fsi_v1_straight", _INV, "none"): LEAK,
    ("fsi_v1_straight", _INV, "conservative_invariance"): CLEAN,
    ("fsi_v1_straight", _INV, "path_balancing"): CLEAN,
    ("fsi_v1_straight", _INV, "operand_independent_fill"): NOT_APPLICABLE,
    ("fsi_v2_order", _INV, "none"): LEAK,
    ("fsi_v2_order", _INV, "conservative_invariance"): CLEAN,
    ("fsi_v2_order", _INV, "path_balancing"): NOT_APPLICABLE,
    ("fsi_v2_order", _INV, "operand_independent_fill"): NOT_APPLICABLE,
    ("bsi_mshr", _INV, "none"): CLEAN,
    ("bsi_mshr", _INV, "conservative_invariance"): CLEAN,
    ("bsi_mshr", _INV, "path_balancing"): NOT_APPLICABLE,
    ("bsi_mshr", _INV, "operand_independent_fill"): NOT_APPLICABLE,
}

# Spans every sweep calls; the mitigation-only analysis spans are required
# where a workload runs mitigations.
BASE_SPANS = frozenset({
    "isa.parse",
    "scenarios.build",
    "scenarios.prepare",
    "analysis.safe_sets",
    "core.trial",
    "core.run",
    "experiment.write_artifacts",
    "experiment.summary_csv",
    "experiment.reports_csv",
})
MITIGATION_SPANS = frozenset({
    "analysis.path_profiles",
    "analysis.certify_profiles",
    "analysis.balance",
})


@dataclass(frozen=True)
class Workload:
    name: str
    mapping: Mapping  # run_experiment config without seed and output dir
    verdicts: Verdicts
    required_spans: frozenset[str]

    @property
    def jitter(self) -> int:
        return self.mapping["jitter"]

    def config(self, seed: int, out_dir: Path, trials: int | None = None) -> ExperimentConfig:
        mapping = dict(self.mapping, seed=seed)
        if trials is not None:
            mapping["trials"] = trials
        return config_from_mapping(mapping, out_dir)

    def cell_failures(self, result: ExperimentResult) -> list[str]:
        """One line per cell whose verdict or trial count is not the pinned one."""
        n_trials = result.config.n_trials
        problems = []
        seen = set()
        for cell in result.cells:
            key = (cell.scenario, cell.defense.value, mitigation_label(cell.mitigations))
            seen.add(key)
            got = (cell.status, cell.leak, cell.violation)
            want = self.verdicts.get(key)
            trials = len(cell.reports)
            want_trials = 2 * n_trials if cell.status == "ok" else 0
            if got != want or trials != want_trials:
                problems.append(
                    f"{'/'.join(key)}: got {got} with {trials} trials, "
                    f"expected {want} with {want_trials}"
                )
        problems += [f"{'/'.join(key)}: cell missing" for key in self.verdicts.keys() - seen]
        if not problems and result.exit_code != EXIT_OK:
            problems.append(f"run_experiment exit code {result.exit_code}")
        return problems


_REFERENCE = {
    "scenarios": list(SCENARIOS),
    "defenses": ["unprotected", "dom", "dom_plus_invarspec"],
    "mitigations": ["none"],
    "trials": 10,
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload("ref_jitter2", dict(_REFERENCE, jitter=2), REFERENCE_VERDICTS, BASE_SPANS),
        Workload("ref_jitter0", dict(_REFERENCE, jitter=0), REFERENCE_VERDICTS, BASE_SPANS),
        Workload(
            "invarspec_rob768",
            {
                "scenarios": list(SCENARIOS),
                "defenses": [_INV],
                "mitigations": [
                    "none",
                    "conservative_invariance",
                    "path_balancing",
                    "operand_independent_fill",
                ],
                "trials": 3,
                "jitter": 2,
                "core": {"rob_size": 768},
            },
            INVARSPEC_VERDICTS,
            BASE_SPANS | MITIGATION_SPANS,
        ),
    )
}
