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
and 3, on a core shape drawn from the core option lists of
`test_core.machine_runs` with 1 or 2 miss-table entries; the cache is
always the default 64 sets x 1 way. One sha256 covers `run_state` of every run, or
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
from robsim.isa import DEFAULT_EXPANSION_CAP, Program, parse_program
from robsim.scenarios import (
    SCENARIO_NAMES,
    ProgramAnalysis,
    ScenarioError,
    build_scenario,
    prepare,
    run_single,
)

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
        analysis = ProgramAnalysis(program, DEFAULT_EXPANSION_CAP)
        for mode in DefenseMode:
            for mitigations in (frozenset(), frozenset({Mitigation.OPERAND_INDEPENDENT_FILL})):
                policy = DefensePolicy(mode, mitigations, analysis)
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
        "reports.csv": "09495ec41f60d026e83d021929c0b6edff503a06518945afaf375b2e16f7e277",
        "summary.csv": "856b578118fb2fa023db8c66a054025689fdbf8d12ca0a7c65577356e949943d",
        "occupancy/fsi_v1_loop__unprotected__none__s0.csv": "416ed3f3d16e8b112c17577d133e6429e775d8590a8c553efdd2b25499832e74",
        "occupancy/fsi_v1_loop__unprotected__none__s1.csv": "5dc9a2d09c3433e8e7f53f005e70e6e7436e557a4bc0adf1325b444cae42fc45",
        "occupancy/fsi_v1_loop__dom__none__s0.csv": "4f691f2527f5e379f58e50a3a79b49053a1ae77a49421444561b9a59ce96d978",
        "occupancy/fsi_v1_loop__dom__none__s1.csv": "5dc9a2d09c3433e8e7f53f005e70e6e7436e557a4bc0adf1325b444cae42fc45",
        "occupancy/fsi_v1_loop__dom_plus_invarspec__none__s0.csv": "416ed3f3d16e8b112c17577d133e6429e775d8590a8c553efdd2b25499832e74",
        "occupancy/fsi_v1_loop__dom_plus_invarspec__none__s1.csv": "5dc9a2d09c3433e8e7f53f005e70e6e7436e557a4bc0adf1325b444cae42fc45",
        "occupancy/fsi_v1_rep__unprotected__none__s0.csv": "4eab49a0a388bfd87ca6ffe1022dc339a8ce6e8d7efebe5cb62f245b3d0e7610",
        "occupancy/fsi_v1_rep__unprotected__none__s1.csv": "22634123c24c2e07bcae03dccd53958bd73a914f0478b4f65fe4f715536dcc67",
        "occupancy/fsi_v1_rep__dom__none__s0.csv": "ced3a9fe64e8b1ad4c85de40733aa74b9b880c2e4cc71e07384304a0441b98ba",
        "occupancy/fsi_v1_rep__dom__none__s1.csv": "22634123c24c2e07bcae03dccd53958bd73a914f0478b4f65fe4f715536dcc67",
        "occupancy/fsi_v1_rep__dom_plus_invarspec__none__s0.csv": "4eab49a0a388bfd87ca6ffe1022dc339a8ce6e8d7efebe5cb62f245b3d0e7610",
        "occupancy/fsi_v1_rep__dom_plus_invarspec__none__s1.csv": "22634123c24c2e07bcae03dccd53958bd73a914f0478b4f65fe4f715536dcc67",
        "occupancy/fsi_v1_straight__unprotected__none__s0.csv": "c119c1f8f219e3702eaa073bc89267576359fa56b9eb425c790ed0709b26efb0",
        "occupancy/fsi_v1_straight__unprotected__none__s1.csv": "eed2702cef6df49b0aae630a073e9c27dc13c8386a71900537f695a8ab075222",
        "occupancy/fsi_v1_straight__dom__none__s0.csv": "4dcc7f27e18681ab0d0949001f6f69843af72ea92db1d56462d3a6ba45934062",
        "occupancy/fsi_v1_straight__dom__none__s1.csv": "6c0f5ff2873077e84a2ec46673d308396ecf5668513e89a62afbea5589278346",
        "occupancy/fsi_v1_straight__dom_plus_invarspec__none__s0.csv": "c119c1f8f219e3702eaa073bc89267576359fa56b9eb425c790ed0709b26efb0",
        "occupancy/fsi_v1_straight__dom_plus_invarspec__none__s1.csv": "eed2702cef6df49b0aae630a073e9c27dc13c8386a71900537f695a8ab075222",
        "occupancy/fsi_v2_order__unprotected__none__s0.csv": "995602a1b02beac3c1bad1be1424b464fd2b34466030366d0ecbcd6a1a08e129",
        "occupancy/fsi_v2_order__unprotected__none__s1.csv": "c58b583f70eb39a0bab8429b8f78a4dab5de6d53d462359cdbe5de3952ecef88",
        "occupancy/fsi_v2_order__dom__none__s0.csv": "dab504d31db3007229a5d7d6877c554d509ff8889d5658343ca7fc7090a14d6c",
        "occupancy/fsi_v2_order__dom__none__s1.csv": "c58b583f70eb39a0bab8429b8f78a4dab5de6d53d462359cdbe5de3952ecef88",
        "occupancy/fsi_v2_order__dom_plus_invarspec__none__s0.csv": "995602a1b02beac3c1bad1be1424b464fd2b34466030366d0ecbcd6a1a08e129",
        "occupancy/fsi_v2_order__dom_plus_invarspec__none__s1.csv": "c58b583f70eb39a0bab8429b8f78a4dab5de6d53d462359cdbe5de3952ecef88",
        "occupancy/bsi_mshr__unprotected__none__s0.csv": "23b9a998a00849df43948a22fe5a10b71507d95b88a6ec931f1678ffeb548532",
        "occupancy/bsi_mshr__unprotected__none__s1.csv": "105befc972439cf917f008efc59284cf07ade5b2f5b44d34961c30b05fd98558",
        "occupancy/bsi_mshr__dom__none__s0.csv": "23b9a998a00849df43948a22fe5a10b71507d95b88a6ec931f1678ffeb548532",
        "occupancy/bsi_mshr__dom__none__s1.csv": "23b9a998a00849df43948a22fe5a10b71507d95b88a6ec931f1678ffeb548532",
        "occupancy/bsi_mshr__dom_plus_invarspec__none__s0.csv": "23b9a998a00849df43948a22fe5a10b71507d95b88a6ec931f1678ffeb548532",
        "occupancy/bsi_mshr__dom_plus_invarspec__none__s1.csv": "23b9a998a00849df43948a22fe5a10b71507d95b88a6ec931f1678ffeb548532",
    },
    "invarspec_mitigations": {
        "reports.csv": "170865377159f3acee2ad9d7fb61d2e43436924a5903d088651a8e801c50450e",
        "summary.csv": "9a37f1625cf88f2c627098517e2e67d65a5de2ce0f04f9f25317ca3bfc425c58",
        "occupancy/fsi_v1_loop__dom_plus_invarspec__none__s0.csv": "416ed3f3d16e8b112c17577d133e6429e775d8590a8c553efdd2b25499832e74",
        "occupancy/fsi_v1_loop__dom_plus_invarspec__none__s1.csv": "5dc9a2d09c3433e8e7f53f005e70e6e7436e557a4bc0adf1325b444cae42fc45",
        "occupancy/fsi_v1_loop__dom_plus_invarspec__conservative_invariance__s0.csv": "4f691f2527f5e379f58e50a3a79b49053a1ae77a49421444561b9a59ce96d978",
        "occupancy/fsi_v1_loop__dom_plus_invarspec__conservative_invariance__s1.csv": "5dc9a2d09c3433e8e7f53f005e70e6e7436e557a4bc0adf1325b444cae42fc45",
        "occupancy/fsi_v1_rep__dom_plus_invarspec__none__s0.csv": "4eab49a0a388bfd87ca6ffe1022dc339a8ce6e8d7efebe5cb62f245b3d0e7610",
        "occupancy/fsi_v1_rep__dom_plus_invarspec__none__s1.csv": "22634123c24c2e07bcae03dccd53958bd73a914f0478b4f65fe4f715536dcc67",
        "occupancy/fsi_v1_rep__dom_plus_invarspec__conservative_invariance__s0.csv": "ced3a9fe64e8b1ad4c85de40733aa74b9b880c2e4cc71e07384304a0441b98ba",
        "occupancy/fsi_v1_rep__dom_plus_invarspec__conservative_invariance__s1.csv": "22634123c24c2e07bcae03dccd53958bd73a914f0478b4f65fe4f715536dcc67",
        "occupancy/fsi_v1_rep__dom_plus_invarspec__operand_independent_fill__s0.csv": "bd37589f9635ace80eb6246e07b96fb948db28e57e93b1da82c10666a864fa25",
        "occupancy/fsi_v1_rep__dom_plus_invarspec__operand_independent_fill__s1.csv": "bd37589f9635ace80eb6246e07b96fb948db28e57e93b1da82c10666a864fa25",
        "occupancy/fsi_v1_straight__dom_plus_invarspec__none__s0.csv": "c119c1f8f219e3702eaa073bc89267576359fa56b9eb425c790ed0709b26efb0",
        "occupancy/fsi_v1_straight__dom_plus_invarspec__none__s1.csv": "eed2702cef6df49b0aae630a073e9c27dc13c8386a71900537f695a8ab075222",
        "occupancy/fsi_v1_straight__dom_plus_invarspec__conservative_invariance__s0.csv": "4dcc7f27e18681ab0d0949001f6f69843af72ea92db1d56462d3a6ba45934062",
        "occupancy/fsi_v1_straight__dom_plus_invarspec__conservative_invariance__s1.csv": "6c0f5ff2873077e84a2ec46673d308396ecf5668513e89a62afbea5589278346",
        "occupancy/fsi_v1_straight__dom_plus_invarspec__path_balancing__s0.csv": "eed2702cef6df49b0aae630a073e9c27dc13c8386a71900537f695a8ab075222",
        "occupancy/fsi_v1_straight__dom_plus_invarspec__path_balancing__s1.csv": "eed2702cef6df49b0aae630a073e9c27dc13c8386a71900537f695a8ab075222",
        "occupancy/fsi_v2_order__dom_plus_invarspec__none__s0.csv": "995602a1b02beac3c1bad1be1424b464fd2b34466030366d0ecbcd6a1a08e129",
        "occupancy/fsi_v2_order__dom_plus_invarspec__none__s1.csv": "c58b583f70eb39a0bab8429b8f78a4dab5de6d53d462359cdbe5de3952ecef88",
        "occupancy/fsi_v2_order__dom_plus_invarspec__conservative_invariance__s0.csv": "dab504d31db3007229a5d7d6877c554d509ff8889d5658343ca7fc7090a14d6c",
        "occupancy/fsi_v2_order__dom_plus_invarspec__conservative_invariance__s1.csv": "c58b583f70eb39a0bab8429b8f78a4dab5de6d53d462359cdbe5de3952ecef88",
        "occupancy/bsi_mshr__dom_plus_invarspec__none__s0.csv": "23b9a998a00849df43948a22fe5a10b71507d95b88a6ec931f1678ffeb548532",
        "occupancy/bsi_mshr__dom_plus_invarspec__none__s1.csv": "23b9a998a00849df43948a22fe5a10b71507d95b88a6ec931f1678ffeb548532",
        "occupancy/bsi_mshr__dom_plus_invarspec__conservative_invariance__s0.csv": "23b9a998a00849df43948a22fe5a10b71507d95b88a6ec931f1678ffeb548532",
        "occupancy/bsi_mshr__dom_plus_invarspec__conservative_invariance__s1.csv": "23b9a998a00849df43948a22fe5a10b71507d95b88a6ec931f1678ffeb548532",
    },
}

EXPECTED_TRACES: dict[str, str] = {
    "fsi_v1_loop/unprotected/none/s0": "fa43f0b97edb701a7d1547930dfabdcdd5ed3a6c912aff43c1507a53353dfffc",
    "fsi_v1_loop/unprotected/none/s1": "46a83ac6f1aa65327dce5f76a5419b8f13e61f18642213dc68fd187ef51a16d6",
    "fsi_v1_loop/dom/none/s0": "f13fe9292cd036de724fc07b22a0215534beb2b6cae607bb7d882286586bedfe",
    "fsi_v1_loop/dom/none/s1": "46a83ac6f1aa65327dce5f76a5419b8f13e61f18642213dc68fd187ef51a16d6",
    "fsi_v1_loop/dom_plus_invarspec/none/s0": "c4d6a2b4af93b608393d43f0e15a580fd35281e1562c5d2d26f5a4fb21872547",
    "fsi_v1_loop/dom_plus_invarspec/none/s1": "1c4956d9c27fc29726f309b0f6c4b9f3af352269423c20ccce53815461f5afde",
    "fsi_v1_loop/dom_plus_invarspec/conservative_invariance/s0": "4b45f633f15b9c13614edd925aa415abec4e650b5ccda763fd8869989ccdb7b0",
    "fsi_v1_loop/dom_plus_invarspec/conservative_invariance/s1": "1c4956d9c27fc29726f309b0f6c4b9f3af352269423c20ccce53815461f5afde",
    "fsi_v1_rep/unprotected/none/s0": "b74daee1fb9e988c4a2ed9fb8c61b21eafc2d45c4f205d09a0651a18cbb72ba4",
    "fsi_v1_rep/unprotected/none/s1": "0bc969fe74d8ba7f3cfeb4b379c5e48be774575fccc18e6ff6285558bbe726c2",
    "fsi_v1_rep/unprotected/operand_independent_fill/s0": "5362d55ea484f30f856b35f443a918558e8af692b47005fb24cd4f15d93c08fd",
    "fsi_v1_rep/unprotected/operand_independent_fill/s1": "6b2008c6397f1aa508bd77b7e86060b9d24a33d5decadd0177622dbc62d5df94",
    "fsi_v1_rep/dom/none/s0": "bc10d53e4600cf14600edd1079dba36a5970f7acdc016c903079e18f0e396f6a",
    "fsi_v1_rep/dom/none/s1": "0bc969fe74d8ba7f3cfeb4b379c5e48be774575fccc18e6ff6285558bbe726c2",
    "fsi_v1_rep/dom/operand_independent_fill/s0": "c9c275dec8d7c4a1f33867779c74e35f8b6aa39026c7fbdb22c94cb4c1331f02",
    "fsi_v1_rep/dom/operand_independent_fill/s1": "0559b44c829cc537e205a11437bb389c28a5ea77592463ed18cc2905293d621f",
    "fsi_v1_rep/dom_plus_invarspec/none/s0": "5c5578263715e4c5094dd23a95ddc3eb6cc049fbd4af0ee391553eccb94b23cc",
    "fsi_v1_rep/dom_plus_invarspec/none/s1": "c7a8424204d9a4fc79e4b189a2377c8897164282e47c4c40ce558625795a5efa",
    "fsi_v1_rep/dom_plus_invarspec/conservative_invariance/s0": "51a35988665dd2ac8e17a2f24679f3531e0443f2d8786e500fb6b99934746608",
    "fsi_v1_rep/dom_plus_invarspec/conservative_invariance/s1": "c7a8424204d9a4fc79e4b189a2377c8897164282e47c4c40ce558625795a5efa",
    "fsi_v1_rep/dom_plus_invarspec/operand_independent_fill/s0": "3b58cda7c67f398bd78371654071069fd4612df4b17ccde01ba49f625a6a378c",
    "fsi_v1_rep/dom_plus_invarspec/operand_independent_fill/s1": "2f3cb35cc1891fe96c3132a66d03c211083c7ee0a77ad0b414b740303b9b6d82",
    "fsi_v1_straight/unprotected/none/s0": "72cdf8bd7d3d3bc36749d284342f73b28afc3f218ddf7c9965eecb41d368002b",
    "fsi_v1_straight/unprotected/none/s1": "5a00102407df20f05d8c14a49138111e5fac0e6829a6039b5e90299793285be8",
    "fsi_v1_straight/unprotected/path_balancing/s0": "01f207054c507d183f4185e13f0dbb077b231e9372ebd5929ba7243d98c77ce0",
    "fsi_v1_straight/unprotected/path_balancing/s1": "8bc368a3206614fcaa743aace5794bb0c7eae99eaa4f045437c633f32c5d47b7",
    "fsi_v1_straight/dom/none/s0": "3c2ddc36fb70ae8aa48b11721fffb4f2e29d9a34541be1ac9bd80be252acb7a0",
    "fsi_v1_straight/dom/none/s1": "c6c0df8d5f8d001507a62b623ee1f1f8ff82674524ab1c768a4f97d40451651f",
    "fsi_v1_straight/dom/path_balancing/s0": "c7e37c0352c5bd6c7ff32e24b2185183ac3c1e080c073f70e5fb61920116c4e9",
    "fsi_v1_straight/dom/path_balancing/s1": "b7ace7c6193a4fbb8810d51489ab967650fa34dc5d812606818ef6e86e9516a0",
    "fsi_v1_straight/dom_plus_invarspec/none/s0": "954fa0f91b2445ca0f680b9cfeb4df74a5bfc36fed04bf691c8b63965cbcb517",
    "fsi_v1_straight/dom_plus_invarspec/none/s1": "10c19bb1c6a7d88fad17db71d92bbfef4461e56da583f6b086f0d18587b3b179",
    "fsi_v1_straight/dom_plus_invarspec/conservative_invariance/s0": "52c4a81d180e88b771bf15196b597eaf7589d8f4c8c2b15a669d86d62c1bc816",
    "fsi_v1_straight/dom_plus_invarspec/conservative_invariance/s1": "27cd9ee2623a81f1477b607fe72fbad7d331af0d776e22fbd84dd81b29b2e1f9",
    "fsi_v1_straight/dom_plus_invarspec/path_balancing/s0": "77ea38d1db7388119748b0ee9e3ccbff23f8db9bdde0f8ab8757b9510f36088b",
    "fsi_v1_straight/dom_plus_invarspec/path_balancing/s1": "7e6d7ae6f74709674f38a0cb69c58489c5b8377068c39140decac78874c12348",
    "fsi_v2_order/unprotected/none/s0": "8a5247a36187ae4429dddc28330593da52d5bc1b5417e000c573b604685752d4",
    "fsi_v2_order/unprotected/none/s1": "c3a94a395c562a0fbcaef12c2341e76cc74c5d6d5c0d8b5c5e755f5e9035ca31",
    "fsi_v2_order/dom/none/s0": "782303d422773e923cfe2261fe03e19573d435fd87f69da79e239f52c594f807",
    "fsi_v2_order/dom/none/s1": "c3a94a395c562a0fbcaef12c2341e76cc74c5d6d5c0d8b5c5e755f5e9035ca31",
    "fsi_v2_order/dom_plus_invarspec/none/s0": "c9086b516a367ea880fb117b60d63b8580a7ed11b2a5bb6dfe6b614894eb2624",
    "fsi_v2_order/dom_plus_invarspec/none/s1": "bd6e3b448a39d0b435c8a869801f69b32b9f470a4a073e82a6e888f78537e514",
    "fsi_v2_order/dom_plus_invarspec/conservative_invariance/s0": "9f4b85f0619a38639f119fde188649f52ea87b41944299b264b3e3bb88200a2e",
    "fsi_v2_order/dom_plus_invarspec/conservative_invariance/s1": "bd6e3b448a39d0b435c8a869801f69b32b9f470a4a073e82a6e888f78537e514",
    "bsi_mshr/unprotected/none/s0": "84c2847c4a34c64c1ef7a33046ad074ae3b0acee7c217eda78fd5bc39e830d56",
    "bsi_mshr/unprotected/none/s1": "26881e697c3187f1dbbc8780522ecea6fbb814785f244e8dd0faf143051020fb",
    "bsi_mshr/dom/none/s0": "dfbc976199395c6d7a031ec7016efa22f6a441877fec1f25037d7c551accfb3e",
    "bsi_mshr/dom/none/s1": "4c346f6ac6b4432594ae691b444054d3f55ef88858c74aee68242ae02624c557",
    "bsi_mshr/dom_plus_invarspec/none/s0": "d72a96f221cb62a47d1e6df9e6e281a88a1761bd882ee485aa2e180f8a1b29a5",
    "bsi_mshr/dom_plus_invarspec/none/s1": "afc330835d07e8f9f920bb854b7937ff855248844a7abe7af6f702920955c12a",
    "bsi_mshr/dom_plus_invarspec/conservative_invariance/s0": "d72a96f221cb62a47d1e6df9e6e281a88a1761bd882ee485aa2e180f8a1b29a5",
    "bsi_mshr/dom_plus_invarspec/conservative_invariance/s1": "afc330835d07e8f9f920bb854b7937ff855248844a7abe7af6f702920955c12a",
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


EXPECTED_CORPUS = "be467c45f44d2d59c28dc661ce5953289c59967c64121264fff1cf64310a4ea8"


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
