"""Golden digests: the sweep's artifacts and trial-0 traces, byte for byte.

Pins the sha256 of every artifact that `run_experiment` writes for the
reference grid (5 scenarios x 3 defenses, 10 trials per secret, jitter 0
and jitter 2) and for the dom_plus_invarspec x mitigation grid (5 trials,
jitter 2), plus trial 0's uop lifecycle CSV for both secrets of every
applicable scenario x mode x mitigation cell. The static analysis is
pinned too, at sizes the sweeps never reach: the safe-set and path-profile
records of every scenario's program at ROB 64, ROB 768 and ROB 1024 (the
benchmark's largest scaling-probe size), and their conservative_filter
widening.

The core is also pinned on a fixed corpus of generated programs, because
the scenarios have no store, no fence, no ALU latency 4 and no second port,
and the skip-vs-stepper tests cannot catch a change to `step()` itself (it
is their oracle). Each corpus program (`random.Random(k)`, k < 150) mixes
alu, setshift, load, store, forward and backward branches with `.predict`,
jump, fence and rep opcodes, plus `.warm` and `.flush` lines. It runs under
every defense mode, with and without operand_independent_fill, at jitter 0
and 3, on a machine shape drawn from the option lists of
`test_core.machine_runs`. One sha256 covers `run_state` of every run, or
its `SimulationLimitError` snapshot. A load does not yet see an older
store's value (ROADMAP item 1); the fix re-baselines this digest on purpose.

A change that alters any of these bytes on purpose re-baselines here:
`PYTHONPATH=src python tests/test_golden.py` prints the current digests
in the literal form used below.
"""

from __future__ import annotations

import hashlib
import random
import tempfile
from pathlib import Path

from test_core import run_state

from robsim.analysis import (
    AnalysisError,
    analyze_all_branches,
    balance_paths,
    compute_safe_sets,
    conservative_filter,
    dump_analysis,
)
from robsim.cache import CacheConfig
from robsim.core import CoreConfig, MachineConfig, SimulationLimitError, Simulator
from robsim.defenses import DefenseMode, DefensePolicy, Mitigation
from robsim.experiment import (
    config_from_mapping,
    mitigation_label,
    parse_mitigation_set,
    run_experiment,
)
from robsim.isa import Program, parse_program
from robsim.scenarios import SCENARIO_NAMES, ScenarioError, build_scenario, prepare, run_single

MITIGATION_SPECS = (
    "none",
    "conservative_invariance",
    "path_balancing",
    "operand_independent_fill",
)

SWEEPS = {
    "ref_jitter0": {
        "defenses": [m.value for m in DefenseMode],
        "mitigations": ["none"],
        "trials": 10,
        "jitter": 0,
    },
    "ref_jitter2": {
        "defenses": [m.value for m in DefenseMode],
        "mitigations": ["none"],
        "trials": 10,
        "jitter": 2,
    },
    "invarspec_mitigations": {
        "defenses": ["dom_plus_invarspec"],
        "mitigations": list(MITIGATION_SPECS),
        "trials": 5,
        "jitter": 2,
    },
}

TRACE_JITTER = 2

ANALYSIS_ROB_SIZES = (64, 768, 1024)

CORPUS_SIZE = 150
CORPUS_JITTERS = (0, 3)
CORPUS_KINDS = ("alu", "alu", "setshift", "load", "load", "store", "branch",
                "branch", "jump", "fence", "rep_movs", "rep_lods")


def _sha(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def artifact_digests(sweep: str) -> dict[str, str]:
    """sha256 of each artifact of one sweep, keyed by its path under out/."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        mapping = dict(SWEEPS[sweep], scenarios=list(SCENARIO_NAMES), seed=0)
        result = run_experiment(config_from_mapping(mapping, out))
        return {
            path.relative_to(out).as_posix(): _sha(path.read_bytes())
            for path in result.artifacts
        }


def trace_digests() -> dict[str, str]:
    """sha256 of trial 0's Trace.to_csv() for both secrets of every cell
    that applies, keyed scenario/mode/mitigations/s<secret>."""
    machine = MachineConfig(jitter_amplitude=TRACE_JITTER)
    out = {}
    for name in SCENARIO_NAMES:
        for mode in DefenseMode:
            for spec in MITIGATION_SPECS:
                mitigations = parse_mitigation_set(spec)
                for secret in (0, 1):
                    try:
                        scenario, policy = prepare(
                            build_scenario(name, secret, machine), mode, mitigations
                        )
                    except (ScenarioError, AnalysisError):
                        continue
                    trace, _ = run_single(scenario, policy, 0)
                    key = f"{name}/{mode.value}/{mitigation_label(mitigations)}/s{secret}"
                    out[key] = _sha(trace.to_csv())
    return out


def _records(text: str) -> str:
    """The ss/profile records of an analysis report, without its header."""
    return "\n".join(
        line for line in text.splitlines() if line.split()[0] in ("ss", "profile")
    )


def analysis_digests() -> dict[str, str]:
    """sha256 of the analysis records of each scenario's program (and of the
    path-balanced fsi_v1_straight), keyed scenario/rob<size>/s<secret>, and
    of its conservative_filter safe sets under the same key + /conservative."""
    out = {}
    for rob in ANALYSIS_ROB_SIZES:
        machine = MachineConfig(core=CoreConfig(rob_size=rob))
        for name in SCENARIO_NAMES + ("fsi_v1_straight/balanced",):
            for secret in (0, 1):
                scenario = build_scenario(name.split("/")[0], secret, machine)
                program = scenario.program
                if name.endswith("/balanced"):
                    program = balance_paths(program, scenario.balance_branch)
                sets = compute_safe_sets(program)
                profiles = analyze_all_branches(program)
                filtered = conservative_filter(sets, profiles, len(program))
                key = f"{name}/rob{rob}/s{secret}"
                out[key] = _sha(_records(dump_analysis(sets, profiles)))
                out[f"{key}/conservative"] = _sha(
                    _records(dump_analysis(filtered, {}))
                )
    return out


def _address(rng: random.Random, reg: str) -> str:
    offset = rng.randrange(16)
    return f"[{offset}]" if rng.random() < 0.5 else f"[{reg}+{offset}]"


def corpus_program(k: int) -> Program:
    """Corpus program k: 3 to 24 labeled instructions over r0-r5 and lines
    0-15. A backward branch tests a register decremented just before it,
    so most loops end once it passes 0; half the rep opcodes follow an
    unlabeled write of 4 to their counter."""
    rng = random.Random(k)
    n = rng.randint(3, 24)
    lines = [f".warm {a}" for a in rng.sample(range(16), rng.randint(0, 4))]
    lines += [f".flush {a}" for a in rng.sample(range(16), rng.randint(0, 2))]
    body = []
    for i in range(n):
        kind = rng.choice(CORPUS_KINDS)
        reg, reg2 = f"r{rng.randrange(6)}", f"r{rng.randrange(6)}"
        if kind == "branch":
            target = rng.randrange(n)
            if target <= i:
                body.append(f"    alu {reg}, {reg}, -1")
            text = f"branch {reg}, l{target}"
            if rng.random() < 0.5:
                lines.append(f".predict l{i} {rng.choice(('taken', 'not_taken'))}")
        elif kind == "jump":
            text = f"jump l{rng.randint(i + 1, n - 1)}" if i < n - 1 else "nop"
        elif kind == "alu":
            text = f"alu {reg}, {reg2}, {rng.randrange(10)}"
        elif kind == "setshift":
            text = f"setshift {reg}, {reg2}, {rng.randrange(3)}"
        elif kind in ("load", "store"):
            text = f"{kind} {reg}, {_address(rng, reg2)}"
        elif kind == "fence":
            text = "fence"
        else:
            if rng.random() < 0.5:  # a counter of 4: a predicted rep_movs verifies clean
                body.append(f"    alu {reg}, 4")
            text = f"{kind} {reg}"
        body.append(f"l{i}: {text}")
    return parse_program("\n".join(lines + body) + "\n")


def _corpus_machine(rng: random.Random, jitter: int, seed: int) -> MachineConfig:
    return MachineConfig(
        core=CoreConfig(
            rob_size=rng.choice((4, 8, 64)),
            decode_width=rng.choice((1, 4)),
            commit_width=rng.choice((1, 4)),
            load_ports=rng.choice((1, 2)),
            alu_ports=rng.choice((1, 2)),
            alu_latency=rng.choice((1, 4)),
            max_cycles=rng.choice((2_000, rng.randint(20, 400))),
        ),
        cache=CacheConfig(mshr_entries=rng.choice((1, 2))),
        jitter_amplitude=jitter,
        jitter_seed=seed,
    )


def corpus_digest() -> str:
    """sha256 over every corpus run's run_state, or its limit snapshot."""
    digest = hashlib.sha256()
    for k in range(CORPUS_SIZE):
        program = corpus_program(k)
        rng = random.Random(-1 - k)  # machine shapes, apart from the program's draws
        safe_sets = compute_safe_sets(program)
        for mode in DefenseMode:
            for mitigations in (frozenset(), frozenset({Mitigation.OPERAND_INDEPENDENT_FILL})):
                policy = DefensePolicy(
                    mode, mitigations, safe_sets if mode is DefenseMode.DOM_PLUS_INVARSPEC else None
                )
                for jitter in CORPUS_JITTERS:
                    sim = Simulator(program, _corpus_machine(rng, jitter, k), policy)
                    try:
                        state = run_state(sim.run())
                    except SimulationLimitError as exc:
                        state = (exc.cycle, exc.occupancy, exc.snapshot)
                    digest.update(repr(state).encode())
    return digest.hexdigest()


EXPECTED_ARTIFACTS: dict[str, dict[str, str]] = {
    "ref_jitter0": {
        "reports.csv": "cf9876974118607a34f4b38941701f31374edc07b54cc2e4eaf702446ae850db",
        "summary.csv": "fbd10d9333076ace7a6d628ad83efe3d07ba37c51617637faaa0b96a577b66a2",
        "occupancy/fsi_v1_loop__unprotected__none__s0.csv": "5623770e2df97a3446ad35fc8a76aef63cc92324442553e9a0cebcd59ed1ba14",
        "occupancy/fsi_v1_loop__unprotected__none__s1.csv": "8d00aefdfdc237664dbd0612acdb99cfee0d05f798491fb271f7f3f9ee91c8b0",
        "occupancy/fsi_v1_loop__dom__none__s0.csv": "9cf87a125ad02393d6743f8f5ce0b7ca37af6ee4e0cdd59fe54c1395c312eb43",
        "occupancy/fsi_v1_loop__dom__none__s1.csv": "8d00aefdfdc237664dbd0612acdb99cfee0d05f798491fb271f7f3f9ee91c8b0",
        "occupancy/fsi_v1_loop__dom_plus_invarspec__none__s0.csv": "5623770e2df97a3446ad35fc8a76aef63cc92324442553e9a0cebcd59ed1ba14",
        "occupancy/fsi_v1_loop__dom_plus_invarspec__none__s1.csv": "8d00aefdfdc237664dbd0612acdb99cfee0d05f798491fb271f7f3f9ee91c8b0",
        "occupancy/fsi_v1_rep__unprotected__none__s0.csv": "e27a9a317ccef25fe039c11481f8b1f0afeeddfa8a3457d224caf773f6ab8df3",
        "occupancy/fsi_v1_rep__unprotected__none__s1.csv": "379463f947ad4dc7856370faac27c78bbf0571a5203e461ab8b220fd9580bc2f",
        "occupancy/fsi_v1_rep__dom__none__s0.csv": "6421d0f1d6938ca5343d229030d106418fe3946b64b79574a8831b5c3dde6f03",
        "occupancy/fsi_v1_rep__dom__none__s1.csv": "379463f947ad4dc7856370faac27c78bbf0571a5203e461ab8b220fd9580bc2f",
        "occupancy/fsi_v1_rep__dom_plus_invarspec__none__s0.csv": "e27a9a317ccef25fe039c11481f8b1f0afeeddfa8a3457d224caf773f6ab8df3",
        "occupancy/fsi_v1_rep__dom_plus_invarspec__none__s1.csv": "379463f947ad4dc7856370faac27c78bbf0571a5203e461ab8b220fd9580bc2f",
        "occupancy/fsi_v1_straight__unprotected__none__s0.csv": "95a032b0ebe4d90d30e536d06db8cadf2be9b58b3c1adfc4274330d89eac6331",
        "occupancy/fsi_v1_straight__unprotected__none__s1.csv": "9ee3dbb9b5bbd43b7c86d85b0ba524ce77cbf7335771eea622aeab2f330ab843",
        "occupancy/fsi_v1_straight__dom__none__s0.csv": "a83a85b0f62e8fba25e17d2cafb2ab25f0bd6f893cf6a06959d49d1319c37db4",
        "occupancy/fsi_v1_straight__dom__none__s1.csv": "9a8598966e1acc28ac40928d1cdb2a68ab907f263be1924fd5a8635831eb6dcc",
        "occupancy/fsi_v1_straight__dom_plus_invarspec__none__s0.csv": "95a032b0ebe4d90d30e536d06db8cadf2be9b58b3c1adfc4274330d89eac6331",
        "occupancy/fsi_v1_straight__dom_plus_invarspec__none__s1.csv": "9ee3dbb9b5bbd43b7c86d85b0ba524ce77cbf7335771eea622aeab2f330ab843",
        "occupancy/fsi_v2_order__unprotected__none__s0.csv": "fee5c23ec1c548f40c7e8a1e8131c4db73d501524aac4074d27eec2d1d1d4b75",
        "occupancy/fsi_v2_order__unprotected__none__s1.csv": "f24dde475ddceb06cebcf769c4eff972905b599777e022cf66629f6a1c7d497d",
        "occupancy/fsi_v2_order__dom__none__s0.csv": "fe26e89a1e53e7e7d80a38990452785310a3af066ac7ea8df312d882a34105fb",
        "occupancy/fsi_v2_order__dom__none__s1.csv": "f24dde475ddceb06cebcf769c4eff972905b599777e022cf66629f6a1c7d497d",
        "occupancy/fsi_v2_order__dom_plus_invarspec__none__s0.csv": "fee5c23ec1c548f40c7e8a1e8131c4db73d501524aac4074d27eec2d1d1d4b75",
        "occupancy/fsi_v2_order__dom_plus_invarspec__none__s1.csv": "f24dde475ddceb06cebcf769c4eff972905b599777e022cf66629f6a1c7d497d",
        "occupancy/bsi_mshr__unprotected__none__s0.csv": "b3aef177006b42743b6bfa20bc78f9b59e0100acbbe8acccaaec389d2020366a",
        "occupancy/bsi_mshr__unprotected__none__s1.csv": "db7364daeae80ed7ba6e28e816e86acd2169bdda8686f358c020c1bcb842a470",
        "occupancy/bsi_mshr__dom__none__s0.csv": "b3aef177006b42743b6bfa20bc78f9b59e0100acbbe8acccaaec389d2020366a",
        "occupancy/bsi_mshr__dom__none__s1.csv": "b3aef177006b42743b6bfa20bc78f9b59e0100acbbe8acccaaec389d2020366a",
        "occupancy/bsi_mshr__dom_plus_invarspec__none__s0.csv": "b3aef177006b42743b6bfa20bc78f9b59e0100acbbe8acccaaec389d2020366a",
        "occupancy/bsi_mshr__dom_plus_invarspec__none__s1.csv": "b3aef177006b42743b6bfa20bc78f9b59e0100acbbe8acccaaec389d2020366a",
    },
    "ref_jitter2": {
        "reports.csv": "e7c6eea2023d625b1e351ad5635fc7be818740ba0c7780879154e9acd18c1933",
        "summary.csv": "8caaaad829e693c40ae44c75087cb9f698ed312381b57360c4fbc9c94c100087",
        "occupancy/fsi_v1_loop__unprotected__none__s0.csv": "3eda6a4086b6ee5efbafaa325b803d0da61f9d38200d4786cd1ea5794e4b8118",
        "occupancy/fsi_v1_loop__unprotected__none__s1.csv": "f342c4a2dacae4aedad88aed777332210aa1855de80412d6403d2fdb7834f4e3",
        "occupancy/fsi_v1_loop__dom__none__s0.csv": "90b3bed3f79b9f03dfe7564bffc10a5f5cd9edbc297efd04f70b358a536c8161",
        "occupancy/fsi_v1_loop__dom__none__s1.csv": "f342c4a2dacae4aedad88aed777332210aa1855de80412d6403d2fdb7834f4e3",
        "occupancy/fsi_v1_loop__dom_plus_invarspec__none__s0.csv": "3eda6a4086b6ee5efbafaa325b803d0da61f9d38200d4786cd1ea5794e4b8118",
        "occupancy/fsi_v1_loop__dom_plus_invarspec__none__s1.csv": "f342c4a2dacae4aedad88aed777332210aa1855de80412d6403d2fdb7834f4e3",
        "occupancy/fsi_v1_rep__unprotected__none__s0.csv": "e23d8003a1fe5b8835616036720360aa8fc1fb449517c94303ecc104277226d5",
        "occupancy/fsi_v1_rep__unprotected__none__s1.csv": "34e94789534b6b3d3afe007c6e7a0b174eca391a8f6d9283d5172c689df35808",
        "occupancy/fsi_v1_rep__dom__none__s0.csv": "8d5b52cf3aed94b9394bca82ae38ec43cc9132820c0567a617f8df3d1e28b52c",
        "occupancy/fsi_v1_rep__dom__none__s1.csv": "34e94789534b6b3d3afe007c6e7a0b174eca391a8f6d9283d5172c689df35808",
        "occupancy/fsi_v1_rep__dom_plus_invarspec__none__s0.csv": "e23d8003a1fe5b8835616036720360aa8fc1fb449517c94303ecc104277226d5",
        "occupancy/fsi_v1_rep__dom_plus_invarspec__none__s1.csv": "34e94789534b6b3d3afe007c6e7a0b174eca391a8f6d9283d5172c689df35808",
        "occupancy/fsi_v1_straight__unprotected__none__s0.csv": "0711c86d9a2acc3e170e4775dfb4735630a294a29443abe355fc62c4a0054350",
        "occupancy/fsi_v1_straight__unprotected__none__s1.csv": "61a18a21d6cf07775d38eb9e0fb1ea39bf6af15cc24d6e90a27ef5fdf58b3792",
        "occupancy/fsi_v1_straight__dom__none__s0.csv": "b997b6c3a283e49509c5975155926c7eac8df760f8fd0c81f2bc4141a65b16e8",
        "occupancy/fsi_v1_straight__dom__none__s1.csv": "d4a5d3ed6f07e222d484027fdb060a1dda978e6db621c7cb4f8f39726abd36b5",
        "occupancy/fsi_v1_straight__dom_plus_invarspec__none__s0.csv": "0711c86d9a2acc3e170e4775dfb4735630a294a29443abe355fc62c4a0054350",
        "occupancy/fsi_v1_straight__dom_plus_invarspec__none__s1.csv": "61a18a21d6cf07775d38eb9e0fb1ea39bf6af15cc24d6e90a27ef5fdf58b3792",
        "occupancy/fsi_v2_order__unprotected__none__s0.csv": "642950fe817e22c8786a07b98631433f83cf033604f9642064dc42a2abd6facc",
        "occupancy/fsi_v2_order__unprotected__none__s1.csv": "cd07dab39aa2534c53b9436ed467ce5efa997ffa87557e606f570f9e798c9c29",
        "occupancy/fsi_v2_order__dom__none__s0.csv": "ee52d014853a5649eed65baf3348ed26558c14c4d78509b26bea5196110cebfb",
        "occupancy/fsi_v2_order__dom__none__s1.csv": "cd07dab39aa2534c53b9436ed467ce5efa997ffa87557e606f570f9e798c9c29",
        "occupancy/fsi_v2_order__dom_plus_invarspec__none__s0.csv": "642950fe817e22c8786a07b98631433f83cf033604f9642064dc42a2abd6facc",
        "occupancy/fsi_v2_order__dom_plus_invarspec__none__s1.csv": "cd07dab39aa2534c53b9436ed467ce5efa997ffa87557e606f570f9e798c9c29",
        "occupancy/bsi_mshr__unprotected__none__s0.csv": "46b3ce40a86463e9a6f162957e239615a1a2cc90153207b2e7dcb762baa6e317",
        "occupancy/bsi_mshr__unprotected__none__s1.csv": "1786b207a5087ec9d328644b0f5c31672e7b76c0481cf87c9b55e9c2292b5b91",
        "occupancy/bsi_mshr__dom__none__s0.csv": "1786b207a5087ec9d328644b0f5c31672e7b76c0481cf87c9b55e9c2292b5b91",
        "occupancy/bsi_mshr__dom__none__s1.csv": "1786b207a5087ec9d328644b0f5c31672e7b76c0481cf87c9b55e9c2292b5b91",
        "occupancy/bsi_mshr__dom_plus_invarspec__none__s0.csv": "1786b207a5087ec9d328644b0f5c31672e7b76c0481cf87c9b55e9c2292b5b91",
        "occupancy/bsi_mshr__dom_plus_invarspec__none__s1.csv": "1786b207a5087ec9d328644b0f5c31672e7b76c0481cf87c9b55e9c2292b5b91",
    },
    "invarspec_mitigations": {
        "reports.csv": "df7e69fad42d1f87e04e904b50dc1d35760ba8ac231241b2947ec032c3da3015",
        "summary.csv": "2b3c8cbaa56815ae48bc5d12affefab32b3932066f4e1dd910d7ff7f84740083",
        "occupancy/fsi_v1_loop__dom_plus_invarspec__none__s0.csv": "3eda6a4086b6ee5efbafaa325b803d0da61f9d38200d4786cd1ea5794e4b8118",
        "occupancy/fsi_v1_loop__dom_plus_invarspec__none__s1.csv": "f342c4a2dacae4aedad88aed777332210aa1855de80412d6403d2fdb7834f4e3",
        "occupancy/fsi_v1_loop__dom_plus_invarspec__conservative_invariance__s0.csv": "90b3bed3f79b9f03dfe7564bffc10a5f5cd9edbc297efd04f70b358a536c8161",
        "occupancy/fsi_v1_loop__dom_plus_invarspec__conservative_invariance__s1.csv": "f342c4a2dacae4aedad88aed777332210aa1855de80412d6403d2fdb7834f4e3",
        "occupancy/fsi_v1_rep__dom_plus_invarspec__none__s0.csv": "e23d8003a1fe5b8835616036720360aa8fc1fb449517c94303ecc104277226d5",
        "occupancy/fsi_v1_rep__dom_plus_invarspec__none__s1.csv": "34e94789534b6b3d3afe007c6e7a0b174eca391a8f6d9283d5172c689df35808",
        "occupancy/fsi_v1_rep__dom_plus_invarspec__conservative_invariance__s0.csv": "8d5b52cf3aed94b9394bca82ae38ec43cc9132820c0567a617f8df3d1e28b52c",
        "occupancy/fsi_v1_rep__dom_plus_invarspec__conservative_invariance__s1.csv": "34e94789534b6b3d3afe007c6e7a0b174eca391a8f6d9283d5172c689df35808",
        "occupancy/fsi_v1_rep__dom_plus_invarspec__operand_independent_fill__s0.csv": "944342cb931454c6b401d06490d0a61645f3e4ce629a853948e9b155ef8587cf",
        "occupancy/fsi_v1_rep__dom_plus_invarspec__operand_independent_fill__s1.csv": "944342cb931454c6b401d06490d0a61645f3e4ce629a853948e9b155ef8587cf",
        "occupancy/fsi_v1_straight__dom_plus_invarspec__none__s0.csv": "0711c86d9a2acc3e170e4775dfb4735630a294a29443abe355fc62c4a0054350",
        "occupancy/fsi_v1_straight__dom_plus_invarspec__none__s1.csv": "61a18a21d6cf07775d38eb9e0fb1ea39bf6af15cc24d6e90a27ef5fdf58b3792",
        "occupancy/fsi_v1_straight__dom_plus_invarspec__conservative_invariance__s0.csv": "b997b6c3a283e49509c5975155926c7eac8df760f8fd0c81f2bc4141a65b16e8",
        "occupancy/fsi_v1_straight__dom_plus_invarspec__conservative_invariance__s1.csv": "d4a5d3ed6f07e222d484027fdb060a1dda978e6db621c7cb4f8f39726abd36b5",
        "occupancy/fsi_v1_straight__dom_plus_invarspec__path_balancing__s0.csv": "61a18a21d6cf07775d38eb9e0fb1ea39bf6af15cc24d6e90a27ef5fdf58b3792",
        "occupancy/fsi_v1_straight__dom_plus_invarspec__path_balancing__s1.csv": "61a18a21d6cf07775d38eb9e0fb1ea39bf6af15cc24d6e90a27ef5fdf58b3792",
        "occupancy/fsi_v2_order__dom_plus_invarspec__none__s0.csv": "642950fe817e22c8786a07b98631433f83cf033604f9642064dc42a2abd6facc",
        "occupancy/fsi_v2_order__dom_plus_invarspec__none__s1.csv": "cd07dab39aa2534c53b9436ed467ce5efa997ffa87557e606f570f9e798c9c29",
        "occupancy/fsi_v2_order__dom_plus_invarspec__conservative_invariance__s0.csv": "ee52d014853a5649eed65baf3348ed26558c14c4d78509b26bea5196110cebfb",
        "occupancy/fsi_v2_order__dom_plus_invarspec__conservative_invariance__s1.csv": "cd07dab39aa2534c53b9436ed467ce5efa997ffa87557e606f570f9e798c9c29",
        "occupancy/bsi_mshr__dom_plus_invarspec__none__s0.csv": "1786b207a5087ec9d328644b0f5c31672e7b76c0481cf87c9b55e9c2292b5b91",
        "occupancy/bsi_mshr__dom_plus_invarspec__none__s1.csv": "1786b207a5087ec9d328644b0f5c31672e7b76c0481cf87c9b55e9c2292b5b91",
        "occupancy/bsi_mshr__dom_plus_invarspec__conservative_invariance__s0.csv": "1786b207a5087ec9d328644b0f5c31672e7b76c0481cf87c9b55e9c2292b5b91",
        "occupancy/bsi_mshr__dom_plus_invarspec__conservative_invariance__s1.csv": "1786b207a5087ec9d328644b0f5c31672e7b76c0481cf87c9b55e9c2292b5b91",
    },
}

EXPECTED_TRACES: dict[str, str] = {
    "fsi_v1_loop/unprotected/none/s0": "bb399b4aa0cd848f2fd306b7b0ff24ff09e0655838e44ee09df9527162ef0c38",
    "fsi_v1_loop/unprotected/none/s1": "e037e667772d90ae0920aa5a11a7c70b459141b65678047a4fa7019ae687833c",
    "fsi_v1_loop/dom/none/s0": "4948148e3e80b7f933c277e7a6a702313cdb86fbb35fd2b5d7efbda26f7109ae",
    "fsi_v1_loop/dom/none/s1": "e037e667772d90ae0920aa5a11a7c70b459141b65678047a4fa7019ae687833c",
    "fsi_v1_loop/dom_plus_invarspec/none/s0": "f69d525e171e7091e3ef17abca8a70f583ef5defc0a461fd8f86d773bb7cfedb",
    "fsi_v1_loop/dom_plus_invarspec/none/s1": "e8963fab98c616b70150f92964db8033166a8eed32577c7b6eccdb310ab1ee78",
    "fsi_v1_loop/dom_plus_invarspec/conservative_invariance/s0": "e80883a4ed7229e55baad529887850b5de7a90c4eeb8aa6389046848cf797494",
    "fsi_v1_loop/dom_plus_invarspec/conservative_invariance/s1": "e8963fab98c616b70150f92964db8033166a8eed32577c7b6eccdb310ab1ee78",
    "fsi_v1_rep/unprotected/none/s0": "e9983a951c5eff2b30b42158736c9fff9d7b9ed063112d2bdcdf3c25db0e3029",
    "fsi_v1_rep/unprotected/none/s1": "b0765284053aa644318a168a531177a53f8b2a2375e1d7c8dd5e55a05405bd7a",
    "fsi_v1_rep/unprotected/operand_independent_fill/s0": "3ea4021213fa53e2008d9979b5fc94466b704c54995ad4d5ff82190c3e885dfd",
    "fsi_v1_rep/unprotected/operand_independent_fill/s1": "8671164a4906fd96432a18a9899c2b48e01a89b88ed0dd708a54aa6f7399f97d",
    "fsi_v1_rep/dom/none/s0": "4c6353ee2e1c6f5051ddc6091f9c3d1dc0f7b7eda6b3d511023398439126b012",
    "fsi_v1_rep/dom/none/s1": "b0765284053aa644318a168a531177a53f8b2a2375e1d7c8dd5e55a05405bd7a",
    "fsi_v1_rep/dom/operand_independent_fill/s0": "d183d95e385919fb7ee1eb379d875d856ac2e801f5d450085a14a1459bf052ef",
    "fsi_v1_rep/dom/operand_independent_fill/s1": "3bb87a8bec25d6a003851128eca377975feb847661e557e310c61aa169c592f6",
    "fsi_v1_rep/dom_plus_invarspec/none/s0": "4df2c973ac61613a3487cf5bcafd16b400b47e123193ba5b16a0ccd2950e3b22",
    "fsi_v1_rep/dom_plus_invarspec/none/s1": "627d875712b566420a7aa26fc1718ab7098a77fc289914faffa9bfa7721526df",
    "fsi_v1_rep/dom_plus_invarspec/conservative_invariance/s0": "59d6daa8d77389d753dde5c0a047afab450577516f73c97918abb51848faee84",
    "fsi_v1_rep/dom_plus_invarspec/conservative_invariance/s1": "627d875712b566420a7aa26fc1718ab7098a77fc289914faffa9bfa7721526df",
    "fsi_v1_rep/dom_plus_invarspec/operand_independent_fill/s0": "1c04d7902489a66ef8e36e154f063358f8e21818557cf0ec3953e51f1e63c75a",
    "fsi_v1_rep/dom_plus_invarspec/operand_independent_fill/s1": "900e6504690581a8f494d16018074814c0a37bdb3211e445ee829dd56d2ab102",
    "fsi_v1_straight/unprotected/none/s0": "ca0b5d2c3bff128fe06e8f145757e34b01a6067a45a6e4836c22c027b50c3dcc",
    "fsi_v1_straight/unprotected/none/s1": "230ccd689761c292ad9c46a55a602ede171d2d7c7d2fe6f13abf4d733d17885e",
    "fsi_v1_straight/unprotected/path_balancing/s0": "dacf6ef832ff2d5790df46129efb9f8912a38191d50547e2e2d6bb831ec9d049",
    "fsi_v1_straight/unprotected/path_balancing/s1": "d1e69e9bf7b3b1676bfa4a2192b011546c8091d5f247aba9fb33e620bfc9548b",
    "fsi_v1_straight/dom/none/s0": "33bbbef530cb01266324908fb977d308d71d9e70c59a1f33dcf4d5d8361d767b",
    "fsi_v1_straight/dom/none/s1": "5e63d83a612ba63ef89c7665cf8f1ebec51ba91238966d22a8a5c6b2a77fa32f",
    "fsi_v1_straight/dom/path_balancing/s0": "b60b575007abed8daccac2bb29303bb49fb8e09c1b5ea33a014596428b6f5ce2",
    "fsi_v1_straight/dom/path_balancing/s1": "f54feda876f8bed00eb4b9758266f174fb2ce12701f57cf667ccfaca47b3f854",
    "fsi_v1_straight/dom_plus_invarspec/none/s0": "e06b5274a3e9a931b856b247ec3511c0147602e236c901162d222723c09f5231",
    "fsi_v1_straight/dom_plus_invarspec/none/s1": "cc942f018cfbfc501a5408cf96714d8d1f49e5edd4c0a31590f511c6359e5bea",
    "fsi_v1_straight/dom_plus_invarspec/conservative_invariance/s0": "48d29ef3d04396521eef791a74b368f0a1f4aa2225bb064676b1c32ed9760fed",
    "fsi_v1_straight/dom_plus_invarspec/conservative_invariance/s1": "2dead90bd8733d6a7707d28064a12fe6cb6ece6764cbf9cde29a2cd9fec36815",
    "fsi_v1_straight/dom_plus_invarspec/path_balancing/s0": "6e9de8c4c7eaec16128edc9c34e443882c9ea2cdd2217ecf517c34eb5934b49f",
    "fsi_v1_straight/dom_plus_invarspec/path_balancing/s1": "709061c2a1674f51a644d36041cb3ce9ace42a01a9ea18202ba889c23e260338",
    "fsi_v2_order/unprotected/none/s0": "deb42bf8fa82e8f0207276cdca35f6fd4c404d5587340c4c349feb5db404afd5",
    "fsi_v2_order/unprotected/none/s1": "410baa7544ed42a404f6d5659329f89e30cd51abeb84712033db26ae7d957250",
    "fsi_v2_order/dom/none/s0": "8aa11a8755912c8e2d7a43d2f205d7fcdbc9488f2779f7e31d83d341a5d251ea",
    "fsi_v2_order/dom/none/s1": "410baa7544ed42a404f6d5659329f89e30cd51abeb84712033db26ae7d957250",
    "fsi_v2_order/dom_plus_invarspec/none/s0": "3bb6f180331a65a379480642712d0f5d4ba92942c3bd820bfd4be5021f9a5bdc",
    "fsi_v2_order/dom_plus_invarspec/none/s1": "087d36bc71778ae525f55af2c7147c7f41cf7bbeab8da39f96eac155030d22ac",
    "fsi_v2_order/dom_plus_invarspec/conservative_invariance/s0": "a6b7218c1670f04d4a391bbbce75177e5175a970d06309fba9b62f4671d2cff4",
    "fsi_v2_order/dom_plus_invarspec/conservative_invariance/s1": "087d36bc71778ae525f55af2c7147c7f41cf7bbeab8da39f96eac155030d22ac",
    "bsi_mshr/unprotected/none/s0": "95492782772e6781072a1f7a105e8929c4e365a4503126ddd54a7d6acc1cddab",
    "bsi_mshr/unprotected/none/s1": "4909d68773c5fee7080a6c938e277a861e3fd084de3808f0a8aa55f5308433dd",
    "bsi_mshr/dom/none/s0": "f92a1dfcaff7de6c6aba4ffd5ec88d3f9a903a9c7b2f275a36035eecf9fb4105",
    "bsi_mshr/dom/none/s1": "b4418a3b58e69f6056bf1b25dca33c3e9bc9806250e06dc4a826c5c062694d94",
    "bsi_mshr/dom_plus_invarspec/none/s0": "d8d03fc56cd98468719aab3c343a880add8126c383452326f52bb862fbd9576f",
    "bsi_mshr/dom_plus_invarspec/none/s1": "333478ac0e19bf0a198e45d9160c2471136f92ae74aebf6bbc479d11beb3caa1",
    "bsi_mshr/dom_plus_invarspec/conservative_invariance/s0": "d8d03fc56cd98468719aab3c343a880add8126c383452326f52bb862fbd9576f",
    "bsi_mshr/dom_plus_invarspec/conservative_invariance/s1": "333478ac0e19bf0a198e45d9160c2471136f92ae74aebf6bbc479d11beb3caa1",
}


EXPECTED_ANALYSIS: dict[str, str] = {
    "fsi_v1_loop/rob64/s0": "a558ff9f63c94fce22ee347c4dedf1889f035463b67a85c759494ae40b75fd41",
    "fsi_v1_loop/rob64/s0/conservative": "8204c8e716ff4b798f53d2851e8538f78900947316a2e415ef510d036a156800",
    "fsi_v1_loop/rob64/s1": "a558ff9f63c94fce22ee347c4dedf1889f035463b67a85c759494ae40b75fd41",
    "fsi_v1_loop/rob64/s1/conservative": "8204c8e716ff4b798f53d2851e8538f78900947316a2e415ef510d036a156800",
    "fsi_v1_rep/rob64/s0": "fc350e4034c6787700d12bbf2d63a426698774abfd30db7e94c601db50d8aa0b",
    "fsi_v1_rep/rob64/s0/conservative": "c26457d73151aa8da5e1fa8ddd371175b6423d09164a5e93e43ca7302c1b2dca",
    "fsi_v1_rep/rob64/s1": "fc350e4034c6787700d12bbf2d63a426698774abfd30db7e94c601db50d8aa0b",
    "fsi_v1_rep/rob64/s1/conservative": "c26457d73151aa8da5e1fa8ddd371175b6423d09164a5e93e43ca7302c1b2dca",
    "fsi_v1_straight/rob64/s0": "a5a7cf42f9b51fce3705692c2e30bdb82045e0109f4f3f4643a4432ee09aa322",
    "fsi_v1_straight/rob64/s0/conservative": "0d43d593c842139e172a3253a8c9d0a81bf8f44b7e60da3e7742a18cd7ac6dee",
    "fsi_v1_straight/rob64/s1": "a5a7cf42f9b51fce3705692c2e30bdb82045e0109f4f3f4643a4432ee09aa322",
    "fsi_v1_straight/rob64/s1/conservative": "0d43d593c842139e172a3253a8c9d0a81bf8f44b7e60da3e7742a18cd7ac6dee",
    "fsi_v2_order/rob64/s0": "dfb2e5b709c27af74a02d7c5c5e6e08bbc28ad1b450fa8a4592e639947e8f27d",
    "fsi_v2_order/rob64/s0/conservative": "bed13de06047cc56a71253b04e2aa5fc9a1596bd62c17f724826078a8c8c2c0b",
    "fsi_v2_order/rob64/s1": "dfb2e5b709c27af74a02d7c5c5e6e08bbc28ad1b450fa8a4592e639947e8f27d",
    "fsi_v2_order/rob64/s1/conservative": "bed13de06047cc56a71253b04e2aa5fc9a1596bd62c17f724826078a8c8c2c0b",
    "bsi_mshr/rob64/s0": "23afe8712f58f6b49e8af4084d8b41b6278035d3737f827b0ce1a093a46cafec",
    "bsi_mshr/rob64/s0/conservative": "c47574460c68e69db93d203d42eca5399a4c3da112f20bbbfbde1c7554764777",
    "bsi_mshr/rob64/s1": "23afe8712f58f6b49e8af4084d8b41b6278035d3737f827b0ce1a093a46cafec",
    "bsi_mshr/rob64/s1/conservative": "c47574460c68e69db93d203d42eca5399a4c3da112f20bbbfbde1c7554764777",
    "fsi_v1_straight/balanced/rob64/s0": "1447d5744f450a673d15661c448664202c1a0ecb3edf40a03a51a42ae3db069c",
    "fsi_v1_straight/balanced/rob64/s0/conservative": "cc003a0eac3e74c7596a9889c4927bf84847467cbe94a036064905fcf58c25a2",
    "fsi_v1_straight/balanced/rob64/s1": "1447d5744f450a673d15661c448664202c1a0ecb3edf40a03a51a42ae3db069c",
    "fsi_v1_straight/balanced/rob64/s1/conservative": "cc003a0eac3e74c7596a9889c4927bf84847467cbe94a036064905fcf58c25a2",
    "fsi_v1_loop/rob768/s0": "a558ff9f63c94fce22ee347c4dedf1889f035463b67a85c759494ae40b75fd41",
    "fsi_v1_loop/rob768/s0/conservative": "8204c8e716ff4b798f53d2851e8538f78900947316a2e415ef510d036a156800",
    "fsi_v1_loop/rob768/s1": "a558ff9f63c94fce22ee347c4dedf1889f035463b67a85c759494ae40b75fd41",
    "fsi_v1_loop/rob768/s1/conservative": "8204c8e716ff4b798f53d2851e8538f78900947316a2e415ef510d036a156800",
    "fsi_v1_rep/rob768/s0": "fc350e4034c6787700d12bbf2d63a426698774abfd30db7e94c601db50d8aa0b",
    "fsi_v1_rep/rob768/s0/conservative": "c26457d73151aa8da5e1fa8ddd371175b6423d09164a5e93e43ca7302c1b2dca",
    "fsi_v1_rep/rob768/s1": "fc350e4034c6787700d12bbf2d63a426698774abfd30db7e94c601db50d8aa0b",
    "fsi_v1_rep/rob768/s1/conservative": "c26457d73151aa8da5e1fa8ddd371175b6423d09164a5e93e43ca7302c1b2dca",
    "fsi_v1_straight/rob768/s0": "a5a7cf42f9b51fce3705692c2e30bdb82045e0109f4f3f4643a4432ee09aa322",
    "fsi_v1_straight/rob768/s0/conservative": "0d43d593c842139e172a3253a8c9d0a81bf8f44b7e60da3e7742a18cd7ac6dee",
    "fsi_v1_straight/rob768/s1": "a5a7cf42f9b51fce3705692c2e30bdb82045e0109f4f3f4643a4432ee09aa322",
    "fsi_v1_straight/rob768/s1/conservative": "0d43d593c842139e172a3253a8c9d0a81bf8f44b7e60da3e7742a18cd7ac6dee",
    "fsi_v2_order/rob768/s0": "1b1f4b343855d0711969a600bccabd91a11e196bec3b18da133b9dd1026045c6",
    "fsi_v2_order/rob768/s0/conservative": "a6453b6ee5d11106041bd585dbdd567649ff64fa84392f52105e3920404a5b46",
    "fsi_v2_order/rob768/s1": "1b1f4b343855d0711969a600bccabd91a11e196bec3b18da133b9dd1026045c6",
    "fsi_v2_order/rob768/s1/conservative": "a6453b6ee5d11106041bd585dbdd567649ff64fa84392f52105e3920404a5b46",
    "bsi_mshr/rob768/s0": "23afe8712f58f6b49e8af4084d8b41b6278035d3737f827b0ce1a093a46cafec",
    "bsi_mshr/rob768/s0/conservative": "c47574460c68e69db93d203d42eca5399a4c3da112f20bbbfbde1c7554764777",
    "bsi_mshr/rob768/s1": "23afe8712f58f6b49e8af4084d8b41b6278035d3737f827b0ce1a093a46cafec",
    "bsi_mshr/rob768/s1/conservative": "c47574460c68e69db93d203d42eca5399a4c3da112f20bbbfbde1c7554764777",
    "fsi_v1_straight/balanced/rob768/s0": "1447d5744f450a673d15661c448664202c1a0ecb3edf40a03a51a42ae3db069c",
    "fsi_v1_straight/balanced/rob768/s0/conservative": "cc003a0eac3e74c7596a9889c4927bf84847467cbe94a036064905fcf58c25a2",
    "fsi_v1_straight/balanced/rob768/s1": "1447d5744f450a673d15661c448664202c1a0ecb3edf40a03a51a42ae3db069c",
    "fsi_v1_straight/balanced/rob768/s1/conservative": "cc003a0eac3e74c7596a9889c4927bf84847467cbe94a036064905fcf58c25a2",
    "fsi_v1_loop/rob1024/s0": "a558ff9f63c94fce22ee347c4dedf1889f035463b67a85c759494ae40b75fd41",
    "fsi_v1_loop/rob1024/s0/conservative": "8204c8e716ff4b798f53d2851e8538f78900947316a2e415ef510d036a156800",
    "fsi_v1_loop/rob1024/s1": "a558ff9f63c94fce22ee347c4dedf1889f035463b67a85c759494ae40b75fd41",
    "fsi_v1_loop/rob1024/s1/conservative": "8204c8e716ff4b798f53d2851e8538f78900947316a2e415ef510d036a156800",
    "fsi_v1_rep/rob1024/s0": "fc350e4034c6787700d12bbf2d63a426698774abfd30db7e94c601db50d8aa0b",
    "fsi_v1_rep/rob1024/s0/conservative": "c26457d73151aa8da5e1fa8ddd371175b6423d09164a5e93e43ca7302c1b2dca",
    "fsi_v1_rep/rob1024/s1": "fc350e4034c6787700d12bbf2d63a426698774abfd30db7e94c601db50d8aa0b",
    "fsi_v1_rep/rob1024/s1/conservative": "c26457d73151aa8da5e1fa8ddd371175b6423d09164a5e93e43ca7302c1b2dca",
    "fsi_v1_straight/rob1024/s0": "a5a7cf42f9b51fce3705692c2e30bdb82045e0109f4f3f4643a4432ee09aa322",
    "fsi_v1_straight/rob1024/s0/conservative": "0d43d593c842139e172a3253a8c9d0a81bf8f44b7e60da3e7742a18cd7ac6dee",
    "fsi_v1_straight/rob1024/s1": "a5a7cf42f9b51fce3705692c2e30bdb82045e0109f4f3f4643a4432ee09aa322",
    "fsi_v1_straight/rob1024/s1/conservative": "0d43d593c842139e172a3253a8c9d0a81bf8f44b7e60da3e7742a18cd7ac6dee",
    "fsi_v2_order/rob1024/s0": "4e59d3c24d9949c0ea8fc99b01e337f53119bcc981ea4f341f625a98a16cbb15",
    "fsi_v2_order/rob1024/s0/conservative": "e3374888c0f9a1643ae67d886683594055652e7726fcd475e9c13ba2980cd863",
    "fsi_v2_order/rob1024/s1": "4e59d3c24d9949c0ea8fc99b01e337f53119bcc981ea4f341f625a98a16cbb15",
    "fsi_v2_order/rob1024/s1/conservative": "e3374888c0f9a1643ae67d886683594055652e7726fcd475e9c13ba2980cd863",
    "bsi_mshr/rob1024/s0": "23afe8712f58f6b49e8af4084d8b41b6278035d3737f827b0ce1a093a46cafec",
    "bsi_mshr/rob1024/s0/conservative": "c47574460c68e69db93d203d42eca5399a4c3da112f20bbbfbde1c7554764777",
    "bsi_mshr/rob1024/s1": "23afe8712f58f6b49e8af4084d8b41b6278035d3737f827b0ce1a093a46cafec",
    "bsi_mshr/rob1024/s1/conservative": "c47574460c68e69db93d203d42eca5399a4c3da112f20bbbfbde1c7554764777",
    "fsi_v1_straight/balanced/rob1024/s0": "1447d5744f450a673d15661c448664202c1a0ecb3edf40a03a51a42ae3db069c",
    "fsi_v1_straight/balanced/rob1024/s0/conservative": "cc003a0eac3e74c7596a9889c4927bf84847467cbe94a036064905fcf58c25a2",
    "fsi_v1_straight/balanced/rob1024/s1": "1447d5744f450a673d15661c448664202c1a0ecb3edf40a03a51a42ae3db069c",
    "fsi_v1_straight/balanced/rob1024/s1/conservative": "cc003a0eac3e74c7596a9889c4927bf84847467cbe94a036064905fcf58c25a2",
}


EXPECTED_CORPUS = "4f77dc487a9630a278b4b48a3e9168f9426c13e431dce79f79ca2a6fc7edc154"


def _check(got: dict[str, str], want: dict[str, str]) -> None:
    assert sorted(got) == sorted(want), "artifact set changed"
    changed = sorted(name for name in want if got[name] != want[name])
    assert not changed, f"bytes changed: {', '.join(changed)}"


def test_reference_sweep_jitter0_artifacts():
    _check(artifact_digests("ref_jitter0"), EXPECTED_ARTIFACTS["ref_jitter0"])


def test_reference_sweep_jitter2_artifacts():
    _check(artifact_digests("ref_jitter2"), EXPECTED_ARTIFACTS["ref_jitter2"])


def test_invarspec_mitigation_sweep_artifacts():
    _check(
        artifact_digests("invarspec_mitigations"),
        EXPECTED_ARTIFACTS["invarspec_mitigations"],
    )


def test_trial0_traces():
    _check(trace_digests(), EXPECTED_TRACES)


def test_analysis_records():
    _check(analysis_digests(), EXPECTED_ANALYSIS)


def test_generated_program_corpus():
    assert corpus_digest() == EXPECTED_CORPUS


if __name__ == "__main__":
    print("EXPECTED_ARTIFACTS: dict[str, dict[str, str]] = {")
    for sweep in SWEEPS:
        print(f'    "{sweep}": {{')
        for name, digest in artifact_digests(sweep).items():
            print(f'        "{name}": "{digest}",')
        print("    },")
    print("}")
    print()
    print("EXPECTED_TRACES: dict[str, str] = {")
    for key, digest in trace_digests().items():
        print(f'    "{key}": "{digest}",')
    print("}")
    print()
    print("EXPECTED_ANALYSIS: dict[str, str] = {")
    for key, digest in analysis_digests().items():
        print(f'    "{key}": "{digest}",')
    print("}")
    print()
    print(f'EXPECTED_CORPUS = "{corpus_digest()}"')
