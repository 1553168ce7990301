from __future__ import annotations

import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robsim import analysis
from robsim.analysis import (
    AnalysisError,
    BalanceError,
    PathProfile,
    analyze_all_branches,
    analyze_paths,
    balance_paths,
    build_dependence_graph,
    compute_safe_sets,
    conservative_filter,
    control_flow,
    dump_analysis,
    is_back_edge_branch,
)
from robsim.cli import main
from robsim.defenses import certify_balanced
from robsim.isa import (
    DEFAULT_EXPANSION_CAP,
    REP_OPCODES,
    Opcode,
    Reg,
    parse_program,
    print_program,
    rep_expansion_count,
)

GUARDED_LOAD = """\
    branch r1, then
    jump after
then: load r2, [16]
after: load r3, [r2]
    load r4, [32]
"""

DIAMOND_3_10 = """\
    branch r1, short
""" + "".join(f"    alu r2, r2, {i}\n" for i in range(10)) + """\
    jump join
short: alu r3, r3, 1
    alu r3, r3, 2
    alu r3, r3, 3
join: load r4, [40]
"""


def members(bits):
    """The safe set a bitmask encodes: the positions of its set bits."""
    return frozenset(m for m in range(bits.bit_length()) if bits >> m & 1)


def instruction_successors(program):
    """Oracle CFG: successor ids of each instruction, fallthrough first. A
    jump, or a branch to the next instruction, has one; n is the exit."""
    succ = []
    for i, (instr, target) in enumerate(zip(program.instructions, program.targets)):
        if target is None:
            succ.append([i + 1])
        elif instr.opcode is Opcode.JUMP or target == i + 1:
            succ.append([target])
        else:
            succ.append([i + 1, target])
    return succ


def block_leaders(program):
    """Oracle: instruction 0, every target and every instruction after a
    branch or jump start a block; the exit, id n, closes the last one."""
    jumps = [(i, target) for i, target in enumerate(program.targets) if target is not None]
    return sorted({0, len(program)} | {t for _, t in jumps} | {i + 1 for i, _ in jumps})


def enumerated_profile(program, branch, cap=DEFAULT_EXPANSION_CAP):
    """Oracle: walk every path from `branch` to its reconvergence point.

    Depth first, first successor first; a path ends at the reconvergence
    point, at the exit, or on reaching a node it already holds (the branch
    is held from the start). Such a path adds nothing to the minimum and
    makes the profile variable with its maximum at the cap. A rep opcode
    adds its expansion at count 0 to the minimum and the cap to the
    maximum, and makes it variable.
    Exponential in the number of sequential diamonds.
    """
    if is_back_edge_branch(program, branch):
        return PathProfile(None, 0, cap, True)
    succ = instruction_successors(program)
    reconv = control_flow(program).ipdom[branch]
    n = len(program)
    mins, maxs = [], []
    variable = False
    start = frozenset({branch})
    stack = [(s, 0, 0, start) for s in reversed(succ[branch])]
    while stack:
        node, acc_min, acc_max, on_path = stack.pop()
        if node == reconv or node >= n:
            mins.append(acc_min)
            maxs.append(acc_max)
            continue
        if node in on_path:
            variable = True
            maxs.append(cap)
            continue
        instr = program.instructions[node]
        if instr.opcode in REP_OPCODES:
            variable = True
            w_min, w_max = rep_expansion_count(instr.opcode, 0), cap
        else:
            w_min = w_max = 1
        path = on_path | {node}
        acc_min, acc_max = acc_min + w_min, min(acc_max + w_max, cap)
        stack.extend(
            (s, acc_min, acc_max, path) for s in reversed(succ[node])
        )
    return PathProfile(reconv, min(mins), cap if variable else max(maxs), variable)


def brute_force_postdominators(program):
    """Oracle: enumerate every acyclic path to exit; m pdoms i iff m is on all."""
    n = len(program)
    succ = instruction_successors(program)
    paths_from: dict[int, list[list[int]]] = {}

    def paths(node, on_path):
        if node >= n:
            return [[n]]
        if node in on_path:
            return []  # cycle: drop (oracle used on DAG programs only)
        out = []
        for s in succ[node]:
            for tail in paths(s, on_path | {node}):
                out.append([node] + tail)
        return out

    for i in range(n):
        paths_from[i] = paths(i, frozenset())
    pdoms = []
    for i in range(n):
        common = set.intersection(*(set(p) for p in paths_from[i]))
        pdoms.append(common)
    pdoms.append({n})
    return pdoms


def fixpoint_postdominators(program):
    """Oracle: pdom[i] = nodes on every path from i to exit (including i).

    Set-valued fixed point over the reverse CFG; the virtual exit node
    len(program) post-dominates everything and seeds the iteration.
    """
    n = len(program)
    succ = instruction_successors(program)
    everything = set(range(n + 1))
    pdom = [set(everything) for _ in range(n)] + [{n}]
    changed = True
    while changed:
        changed = False
        for i in range(n - 1, -1, -1):
            meet = set(everything)
            for s in succ[i]:
                meet &= pdom[s]
            new = meet | {i}
            if new != pdom[i]:
                pdom[i] = new
                changed = True
    return pdom


def deepest_strict_postdominator(pdom, idx):
    """Oracle ipdom: strict post-dominators form a chain to the exit."""
    strict = pdom[idx] - {idx}
    return max(strict, key=lambda m: len(pdom[m]))


def postdominator_sets(ipdom):
    """Expand a post-dominator tree into each node's set of post-dominators."""
    out = []
    for node in range(len(ipdom)):
        chain = {node}
        while ipdom[node] != node:
            node = ipdom[node]
            chain.add(node)
        out.append(chain)
    return out


def _base(mem):
    return set() if mem.base is None else {mem.base.index}


#: oracle (registers read, register written) of each opcode, written from
#: the semantics in docs/program_format.md, apart from the opcode table
ORACLE_REGISTERS = {
    Opcode.LOAD: lambda ops: (_base(ops[1]), ops[0].index),  # rD <- [addr]
    Opcode.STORE: lambda ops: ({ops[0].index} | _base(ops[1]), None),  # rS -> [addr]
    Opcode.ALU: lambda ops: ({op.index for op in ops[1:] if isinstance(op, Reg)}, ops[0].index),
    Opcode.SETSHIFT: lambda ops: ({ops[1].index}, ops[0].index),  # rD <- rS << imm
    Opcode.BRANCH: lambda ops: ({ops[0].index}, None),  # tests rC
    Opcode.JUMP: lambda ops: (set(), None),
    Opcode.REP_MOVS: lambda ops: ({ops[0].index}, None),  # counter rC
    Opcode.REP_LODS: lambda ops: ({ops[0].index}, None),
    Opcode.FENCE: lambda ops: (set(), None),
    Opcode.NOP: lambda ops: (set(), None),
}


def oracle_registers(instr):
    return ORACLE_REGISTERS[instr.opcode](instr.operands)


def oracle_dependence_graph(program):
    """Oracle edges. Data: d reaches a use of its register at i along some
    CFG path with no other definition of it in between; a load also depends
    on every earlier store to the same address expression. Control: i
    post-dominates a successor of branch b, but not b itself (fixpoint sets).
    """
    n = len(program)
    instrs = program.instructions
    regs = [oracle_registers(instr) for instr in instrs]
    succ = instruction_successors(program)
    data = {i: set() for i in range(n)}
    control = {i: set() for i in range(n)}
    for d in range(n):
        reg = regs[d][1]
        if reg is None:
            continue
        seen = set()
        frontier = [s for s in succ[d] if s < n]
        while frontier:
            x = frontier.pop()
            if x in seen:
                continue
            seen.add(x)
            if reg in regs[x][0]:
                data[x].add(d)
            if regs[x][1] != reg:
                frontier.extend(s for s in succ[x] if s < n)
    for i, instr in enumerate(instrs):
        if instr.opcode == Opcode.LOAD:
            data[i] |= {
                j for j in range(i)
                if instrs[j].opcode == Opcode.STORE
                and instrs[j].operands[1] == instr.operands[1]
            }
    pdom = fixpoint_postdominators(program)
    for b, instr in enumerate(instrs):
        if instr.opcode != Opcode.BRANCH:
            continue
        for i in range(n):
            if i != b and i not in pdom[b] and any(
                i in pdom[s] for s in succ[b]
            ):
                control[i].add(b)
    return data, control


def dfs_closure(graph, n):
    """Oracle: one depth-first walk over dependence sources per instruction."""
    closure = {}
    for i in range(n):
        seen = set()
        stack = list(graph.sources(i))
        while stack:
            s = stack.pop()
            if s in seen:
                continue
            seen.add(s)
            stack.extend(graph.sources(s))
        closure[i] = frozenset(seen)
    return closure


def brute_force_closure(graph, n):
    """Oracle: boolean Warshall transitive closure over dependence edges."""
    reach = [[False] * n for _ in range(n)]
    for i in range(n):
        for s in graph.sources(i):
            reach[i][s] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                row_k = reach[k]
                row_i = reach[i]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    return [{j for j in range(n) if reach[i][j]} for i in range(n)]


def test_guarded_load_dependences_and_safe_sets():
    prog = parse_program(GUARDED_LOAD)
    graph = build_dependence_graph(prog)
    # the join load (id 3) reads r2, defined only by the guarded load (id 2)
    assert graph.data[3] == {2}
    # the guarded load sits on one direction of the branch
    assert graph.control[2] == {0}
    # the join itself post-dominates the branch: no control edge
    assert graph.control[3] == set()
    sets = compute_safe_sets(prog)
    assert members(sets[3]) == frozenset({0, 2})
    assert members(sets[4]) == frozenset()


def test_reaching_definitions_kill_and_merge():
    prog = parse_program(
        """
        alu r1, 1
        branch r2, redef
        alu r1, 2
        jump use
        redef: alu r1, 3
        use: alu r4, r1, 0
        """
    )
    graph = build_dependence_graph(prog)
    # defs on both directions reach the join; the def at 0 is killed on both
    assert graph.data[5] == {2, 4}


def test_reconvergence_if_without_else():
    prog = parse_program(
        """
        branch r1, join
        alu r2, r2, 1
        alu r2, r2, 2
        join: load r3, [8]
        """
    )
    assert control_flow(prog).ipdom[0] == 3


def test_reconvergence_diamond_and_exit_join():
    prog = parse_program(DIAMOND_3_10)
    assert control_flow(prog).ipdom[0] == 15
    assert analyze_paths(prog, 0).reconv == 15
    tails = parse_program(
        """
        branch r1, other
        nop
        jump done
        other: nop
        done: nop
        """
    )
    assert control_flow(tails).ipdom[0] == 4
    never_joins = parse_program(
        """
        branch r1, right
        nop
        jump out
        right: nop
        out: nop
        """
    )
    # both directions rejoin at 'out' (id 4)
    assert analyze_paths(never_joins, 0).reconv == 4


def test_back_edge_branch_refused_with_diagnostic():
    prog = parse_program(
        """
        top: alu r1, r1, -1
        branch r1, done
        jump top
        done: nop
        """
    )
    # id 1 branches forward; make a real back edge
    loop = parse_program(
        """
        top: alu r1, r1, -1
        branch r2, top
        nop
        """
    )
    # no finite reconvergence, so no pad count can balance it
    profile = analyze_paths(loop, 1)
    assert profile.variable
    assert profile.reconv is None
    assert profile.max_uops == DEFAULT_EXPANSION_CAP
    with pytest.raises(BalanceError, match="variable-length"):
        balance_paths(loop, 1)
    assert analyze_paths(prog, 1).reconv == 3


def test_path_profile_three_vs_ten():
    prog = parse_program(DIAMOND_3_10)
    profile = analyze_paths(prog, 0)
    # fallthrough: 10 alus + 1 jump = 11; taken: 3 alus
    assert profile == PathProfile(15, 3, 11, False)
    # the longest count saturates at the cap
    assert analyze_paths(prog, 0, cap=7) == PathProfile(15, 3, 7, False)
    assert analyze_paths(prog, 0, cap=3) == PathProfile(15, 3, 3, False)


def test_path_profile_rep_is_variable():
    prog = parse_program(
        """
        branch r1, join
        setshift r2, r2, 10
        rep_movs r2
        join: load r3, [8]
        """
    )
    profile = analyze_paths(prog, 0)
    assert profile.variable
    assert profile.min_uops == 0
    assert profile.max_uops == DEFAULT_EXPANSION_CAP


REP_DIAMOND = """\
    branch r1, right
    rep_lods r2
    jump join
right: rep_movs r3
    alu r4, r4, 1
join: nop
"""


def test_path_profile_weighs_a_rep_on_each_side_at_count_zero():
    # every path crosses a rep opcode: the fallthrough weighs 12 + 1 (rep_lods
    # at count 0, the jump), the taken side 0 + 1 (rep_movs at count 0, the alu)
    prog = parse_program(REP_DIAMOND)
    assert analyze_paths(prog, 0) == PathProfile(5, 1, DEFAULT_EXPANSION_CAP, True)
    assert control_flow(prog).block_uops == [1, 13, 1, 1]
    check_against_oracles(prog)


@pytest.mark.parametrize(
    "text, registers",
    [
        ("load r1, [r2+8]", ((2,), 1)),
        ("load r1, [8]", ((), 1)),
        ("load r1, [r1]", ((1,), 1)),
        ("store r1, [r1+4]", ((1,), None)),
        ("store r3, [r2-4]", ((3, 2), None)),
        ("alu r2, r2, r2", ((2,), 2)),
        ("alu r2, r3, 5", ((3,), 2)),
        ("alu r2, 7", ((), 2)),
        ("setshift r3, r4, 2", ((4,), 3)),
        ("x: branch r6, x", ((6,), None)),
        ("x: jump x", ((), None)),
        ("rep_movs r5", ((5,), None)),
        ("rep_lods r7", ((7,), None)),
        ("fence", ((), None)),
        ("nop", ((), None)),
    ],
)
def test_registers_of_each_opcode(text, registers):
    (instr,) = parse_program(text).instructions
    assert instr.registers() == registers
    reads, write = oracle_registers(instr)
    assert (set(registers[0]), registers[1]) == (reads, write)
    assert instr.decoded.src == registers[0] and instr.decoded.dest == registers[1]


def test_the_oracle_register_table_covers_every_opcode():
    assert set(ORACLE_REGISTERS) == set(Opcode)


LOOP_THEN_FIVE_VS_SEVEN = """\
    branch r1, other
top: alu r2, r2, -1
    branch r2, top
""" + "    alu r3, r3, 1\n" * 5 + """\
    jump join
other:
""" + "    alu r4, r4, 1\n" * 7 + """\
join: nop
"""


def test_path_profile_min_counts_only_paths_that_reconverge():
    # the fallthrough takes at least 1 + 1 + 5 + 1 = 8 micro-ops and the
    # taken side 7; a path that stops on re-entering the loop is no path
    prog = parse_program(LOOP_THEN_FIVE_VS_SEVEN)
    profile = analyze_paths(prog, 0)
    assert profile == PathProfile(16, 7, DEFAULT_EXPANSION_CAP, True)
    report = dump_analysis(compute_safe_sets(prog), analyze_all_branches(prog))
    assert "\nprofile 0 16 7 4096 1\n" in report


def test_conservative_filter_grows_and_is_idempotent():
    prog = parse_program(DIAMOND_3_10)
    sets = compute_safe_sets(prog)
    profiles = analyze_all_branches(prog)
    assert members(sets[15]) == frozenset()
    filtered = conservative_filter(sets, profiles, len(prog))
    assert members(filtered[15]) == frozenset({0})
    # instructions before the reconvergence point keep their sets
    assert members(filtered[1]) == members(sets[1])
    twice = conservative_filter(filtered, profiles, len(prog))
    assert twice == filtered
    for i in range(len(prog)):
        assert members(sets[i]) <= members(filtered[i])


def test_conservative_filter_skips_balanced_branch():
    prog = parse_program(
        """
        branch r1, b
        alu r2, r2, 1
        jump join
        b: alu r3, r3, 1
        jump join
        join: load r4, [8]
        """
    )
    sets = compute_safe_sets(prog)
    profiles = analyze_all_branches(prog)
    assert profiles[0].min_uops == profiles[0].max_uops == 2
    assert conservative_filter(sets, profiles, len(prog)) == sets


def test_balance_paths_pads_shorter_side():
    prog = parse_program(DIAMOND_3_10)
    balanced = balance_paths(prog, 0)
    profile = analyze_paths(balanced, 0)
    assert profile.min_uops == profile.max_uops == 11
    pads = [i for i in balanced.instructions if i.opcode == Opcode.NOP]
    assert len(pads) == 8
    # semantics preserved: non-pad opcodes in original order
    kept = [i.opcode for i in balanced.instructions if i.opcode != Opcode.NOP]
    assert kept == [i.opcode for i in prog.instructions]


def test_balance_paths_refuses_a_path_at_the_cap():
    prog = parse_program(DIAMOND_3_10)
    assert analyze_paths(balance_paths(prog, 0, cap=12), 0, cap=12).min_uops == 11
    # at cap 11 the longer side's count saturates: no exact pad count
    with pytest.raises(BalanceError, match="reaches the expansion cap"):
        balance_paths(prog, 0, cap=11)


def test_balance_paths_empty_side_gets_pad_block():
    prog = parse_program(
        """
        branch r1, join
        alu r2, r2, 1
        alu r2, r2, 2
        join: load r3, [8]
        """
    )
    balanced = balance_paths(prog, 0)
    profile = analyze_paths(balanced, 0)
    assert profile.min_uops == profile.max_uops
    assert balanced.instructions[balanced.targets[0]].opcode == Opcode.NOP


def test_balance_paths_pads_ahead_of_a_closing_jump():
    # the shorter side ends in a jump: pads after it would never run
    fall_shorter = parse_program(
        """
        branch r1, long
        alu r2, r2, 1
        jump join
        long: alu r3, r3, 1
        alu r3, r3, 1
        alu r3, r3, 1
        alu r3, r3, 1
        alu r3, r3, 1
        join: nop
        """
    )
    balanced = balance_paths(fall_shorter, 0)
    profile = analyze_paths(balanced, 0)
    assert profile.min_uops == profile.max_uops == 5
    assert [i.opcode for i in balanced.instructions[1:6]] == [Opcode.ALU] + [Opcode.NOP] * 3 + [
        Opcode.JUMP
    ]
    # a side that is only a jump: the branch's label moves to the first pad
    jump_only = parse_program(
        """
        branch r1, short
        alu r3, r3, 1
        alu r3, r3, 1
        jump join
        short: jump join
        join: nop
        """
    )
    balanced = balance_paths(jump_only, 0)
    profile = analyze_paths(balanced, 0)
    assert profile.min_uops == profile.max_uops == 3
    short = balanced.labels["short"]
    assert [i.opcode for i in balanced.instructions[short:short + 3]] == [Opcode.NOP] * 2 + [
        Opcode.JUMP
    ]


def test_balance_paths_pads_an_empty_side_when_the_longer_side_jumps_to_the_join():
    # the hop over the pad block lies on the longer side only when that side
    # falls into the join; here it jumps there, so the hop adds no pad. The
    # hop goes in only when something falls into the join: the dead code
    # does, and a jump does not
    for dead_code in ("other: nop\n", ""):
        prog = parse_program(
            f"""
            branch r1, join
            alu r2, r2, 1
            alu r2, r2, 1
            jump join
            {dead_code}join: nop
            """
        )
        balanced = balance_paths(prog, 0)
        profile = analyze_paths(balanced, 0)
        assert profile.min_uops == profile.max_uops == 3
        assert certify_balanced(balanced, 0).uops == 3
        assert print_program(balanced).count("jump join") == (2 if dead_code else 1)


def test_balance_paths_refuses_a_rewrite_that_stays_unequal(monkeypatch):
    # one pad too many leaves the rewrite unequal: the check of the rewrite
    # refuses the 11/12 result rather than return it
    real = analysis.analyze_paths
    calls = []

    def overcounted(program, branch, cap):
        profile = real(program, branch, cap)
        calls.append(profile)
        return replace(profile, max_uops=profile.max_uops + 1) if len(calls) == 1 else profile

    monkeypatch.setattr(analysis, "analyze_paths", overcounted)
    with pytest.raises(BalanceError, match=r"balancing failed \(11 != 12\)"):
        balance_paths(parse_program(DIAMOND_3_10), 0)
    assert len(calls) == 2


def test_balance_paths_refuses_variable_and_nested():
    rep_prog = parse_program(
        """
        branch r1, join
        rep_movs r2
        join: nop
        """
    )
    with pytest.raises(BalanceError, match="variable-length"):
        balance_paths(rep_prog, 0)
    loop_prog = parse_program(
        """
        top: alu r1, r1, -1
        branch r1, top
        nop
        """
    )
    with pytest.raises(BalanceError, match="variable-length"):
        balance_paths(loop_prog, 1)
    nested = parse_program(
        """
        branch r1, join
        branch r2, join
        alu r3, r3, 1
        alu r3, r3, 1
        alu r3, r3, 1
        join: nop
        """
    )
    with pytest.raises(BalanceError, match="nested"):
        balance_paths(nested, 0)


def test_balanced_program_returned_unchanged_when_equal():
    prog = parse_program(
        """
        branch r1, b
        alu r2, r2, 1
        jump join
        b: alu r3, r3, 1
        jump join
        join: nop
        """
    )
    assert balance_paths(prog, 0) is prog


def addresses(reg):
    """Absolute or register-based address expressions over a few offsets, so
    that loads and stores often name the same one (a memory dependence)."""
    offsets = st.integers(min_value=0, max_value=7)
    return st.one_of(offsets.map(lambda o: f"[{o}]"), offsets.map(lambda o: f"[{reg}+{o}]"))


KINDS = ["alu", "load", "store", "branch", "jump", "nop", "rep_movs", "rep_lods"]


@st.composite
def dag_programs(draw):
    """Random forward-control-flow programs, up to 32 instructions."""
    n = draw(st.integers(min_value=2, max_value=32))
    lines = []
    for i in range(n):
        kind = draw(st.sampled_from(KINDS))
        if i >= n - 1 and kind in ("branch", "jump"):
            kind = "nop"  # nothing ahead to target
        reg = f"r{draw(st.integers(min_value=0, max_value=5))}"
        reg2 = f"r{draw(st.integers(min_value=0, max_value=5))}"
        if kind == "branch" or kind == "jump":
            tgt = draw(st.integers(min_value=i + 1, max_value=n - 1))
            body = f"branch {reg}, l{tgt}" if kind == "branch" else f"jump l{tgt}"
        elif kind == "alu":
            body = f"alu {reg}, {reg2}, {draw(st.integers(min_value=0, max_value=9))}"
        elif kind == "load":
            body = f"load {reg}, {draw(addresses(reg2))}"
        elif kind == "store":
            body = f"store {reg}, {draw(addresses(reg2))}"
        elif kind in ("rep_movs", "rep_lods"):
            body = f"{kind} {reg}"
        else:
            body = "nop"
        lines.append(f"l{i}: {body}")
    return parse_program("\n".join(lines) + "\n")


@st.composite
def cyclic_programs(draw):
    """Random programs whose branches may also target themselves or earlier
    instructions, up to 32 instructions. Jumps stay forward and a branch
    always falls through, so every instruction still reaches the exit."""
    n = draw(st.integers(min_value=2, max_value=32))
    lines = []
    for i in range(n):
        kind = draw(st.sampled_from(KINDS))
        if i >= n - 1 and kind == "jump":
            kind = "nop"
        reg = f"r{draw(st.integers(min_value=0, max_value=5))}"
        reg2 = f"r{draw(st.integers(min_value=0, max_value=5))}"
        if kind == "branch":
            body = f"branch {reg}, l{draw(st.integers(min_value=0, max_value=n - 1))}"
        elif kind == "jump":
            body = f"jump l{draw(st.integers(min_value=i + 1, max_value=n - 1))}"
        elif kind == "alu":
            body = f"alu {reg}, {reg2}, {draw(st.integers(min_value=0, max_value=9))}"
        elif kind == "load":
            body = f"load {reg}, {draw(addresses(reg2))}"
        elif kind == "store":
            body = f"store {reg}, {draw(addresses(reg2))}"
        elif kind in ("rep_movs", "rep_lods"):
            body = f"{kind} {reg}"
        else:
            body = "nop"
        lines.append(f"l{i}: {body}")
    return parse_program("\n".join(lines) + "\n")


RUN_KINDS = ["alu", "alu", "load", "store", "nop"]


@st.composite
def block_programs(draw):
    """Random programs of up to 4 straight-line runs of 1 to 30
    instructions, each closed by a branch or a jump, then a final nop. A
    run holds a rep opcode one time in three. Only targets are sure to carry
    a label, and a few other instructions carry one too, so blocks are long
    and a label alone must start none. A branch targets itself, the next
    instruction, an earlier one (a back edge) or a later one, often inside
    a run; a jump goes forward only and a branch falls through, so every
    instruction still reaches the exit."""
    body: list[str] = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        run = []
        for _ in range(draw(st.integers(min_value=1, max_value=30))):
            kind = draw(st.sampled_from(RUN_KINDS))
            reg = f"r{draw(st.integers(min_value=0, max_value=5))}"
            reg2 = f"r{draw(st.integers(min_value=0, max_value=5))}"
            if kind == "alu":
                run.append(f"alu {reg}, {reg2}, {draw(st.integers(min_value=0, max_value=9))}")
            elif kind in ("load", "store"):
                run.append(f"{kind} {reg}, {draw(addresses(reg2))}")
            else:
                run.append("nop")
        if draw(st.integers(min_value=0, max_value=2)) == 0:
            rep = draw(st.sampled_from(["rep_movs", "rep_lods"]))
            at = draw(st.integers(min_value=0, max_value=len(run)))
            run.insert(at, f"{rep} r{draw(st.integers(min_value=0, max_value=5))}")
        body += run
        body.append(draw(st.sampled_from(["branch", "branch", "jump"])))
    body.append("nop")
    n = len(body)
    labels = draw(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=4))
    for i, text in enumerate(body):
        if text == "branch":
            forward = st.integers(min_value=i + 1, max_value=n - 1)
            target = draw(st.one_of(
                st.just(i), st.just(i + 1), st.integers(min_value=0, max_value=i), forward, forward
            ))
            body[i] = f"branch r{draw(st.integers(min_value=0, max_value=5))}, l{target}"
        elif text == "jump":
            target = draw(st.integers(min_value=i + 1, max_value=n - 1))
            body[i] = f"jump l{target}"
        else:
            continue
        labels.add(target)
    lines = [f"l{i}: {text}" if i in labels else f"    {text}" for i, text in enumerate(body)]
    return parse_program("\n".join(lines) + "\n")


def check_against_oracles(prog):
    n = len(prog)
    flow = control_flow(prog)
    assert flow.start == block_leaders(prog)
    assert flow.succ == instruction_successors(prog)
    pdom = fixpoint_postdominators(prog)
    ipdom = flow.ipdom
    assert ipdom == [deepest_strict_postdominator(pdom, i) for i in range(n)] + [n]
    assert postdominator_sets(ipdom) == pdom
    graph = build_dependence_graph(prog)
    assert (graph.data, graph.control) == oracle_dependence_graph(prog)
    sets = compute_safe_sets(prog)
    assert {i: members(bits) for i, bits in sets.items()} == dfs_closure(graph, n)
    branches = [b for b, instr in enumerate(prog.instructions) if instr.opcode == Opcode.BRANCH]
    for cap in (DEFAULT_EXPANSION_CAP, 7, 3):
        profiles = analyze_all_branches(prog, cap)
        assert profiles == {b: enumerated_profile(prog, b, cap) for b in branches}
        assert profiles == {b: analyze_paths(prog, b, cap) for b in branches}


@settings(max_examples=80, deadline=None)
@given(dag_programs())
def test_analysis_matches_oracles_on_forward_programs(prog):
    check_against_oracles(prog)


@settings(max_examples=150, deadline=None)
@given(cyclic_programs())
def test_analysis_matches_oracles_on_cyclic_programs(prog):
    check_against_oracles(prog)


@settings(max_examples=60, deadline=None)
@given(block_programs())
def test_analysis_matches_oracles_on_programs_of_long_blocks(prog):
    check_against_oracles(prog)


def test_cyclic_component_is_in_its_own_safe_set():
    prog = parse_program(
        """
        top: alu r1, r1, 1
        alu r2, r1, 0
        branch r2, top
        load r3, [r2]
        """
    )
    sets = compute_safe_sets(prog)
    # 0, 1 and 2 form one cycle through the back edge: each depends on all
    assert members(sets[0]) == members(sets[1]) == members(sets[2]) == frozenset({0, 1, 2})
    assert sets[0] is sets[2]
    assert members(sets[3]) == frozenset({0, 1, 2})


# ROADMAP item 9's probes: a load of address 16 and a store that may write
# it, through a register base, over a back edge, or on one side of a join;
# each case names the load and the members its safe set must hold
ALIASED_STORE_PROBES = [
    pytest.param("""
        alu r5, r0, 16
        store r1, [r5+0]
        load r3, [16]
        """, 2, {0, 1}, id="straight"),
    pytest.param("""
        alu r1, r0, 3
        top: load r3, [16]
        alu r3, r3, 1
        store r3, [16]
        alu r1, r1, 1
        branch r1, top
        """, 1, {3}, id="loop"),
    pytest.param("""
        alu r5, r0, 16
        branch r2, other
        store r1, [r5+0]
        jump join
        other: nop
        nop
        join: load r3, [16]
        load r4, [r3+64]
        """, 6, {1, 2}, id="joined"),
]


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 9: a load depends only on earlier stores with an equal address text",
)
@pytest.mark.parametrize("text, load, held", ALIASED_STORE_PROBES)
def test_a_load_depends_on_every_store_that_may_write_its_address(text, load, held):
    sets = compute_safe_sets(parse_program(text))
    assert held <= members(sets[load])


def test_instruction_that_cannot_reach_exit_is_refused():
    prog = parse_program(
        """
        nop
        branch r1, spin
        jump done
        spin: jump spin
        done: nop
        """
    )
    for analyze in (control_flow, build_dependence_graph, analyze_all_branches):
        with pytest.raises(AnalysisError, match="instruction 3 cannot reach the program exit"):
            analyze(prog)


@settings(max_examples=60, deadline=None)
@given(dag_programs())
def test_postdominators_match_path_enumeration_oracle(prog):
    expected = brute_force_postdominators(prog)
    assert fixpoint_postdominators(prog) == expected
    assert postdominator_sets(control_flow(prog).ipdom) == expected


@settings(max_examples=80, deadline=None)
@given(dag_programs())
def test_safe_sets_match_brute_force_closure(prog):
    graph = build_dependence_graph(prog)
    oracle = brute_force_closure(graph, len(prog))
    sets = compute_safe_sets(prog)
    for i in range(len(prog)):
        assert members(sets[i]) == frozenset(oracle[i])


@settings(max_examples=40, deadline=None)
@given(dag_programs())
def test_ipdom_is_minimal_strict_postdominator(prog):
    pdom = fixpoint_postdominators(prog)
    ipdom = control_flow(prog).ipdom
    for b, instr in enumerate(prog.instructions):
        if instr.opcode != Opcode.BRANCH:
            continue
        ipd = ipdom[b]
        strict = pdom[b] - {b}
        assert ipd in strict
        # every other strict postdominator also postdominates the immediate one
        for m in strict - {ipd}:
            assert m in pdom[ipd]


def diamond_chain(k):
    """A branch (id 0) whose two directions each cross k sequential
    diamonds, 2^k paths apiece. A diamond is its branch, one side of 3 or 1
    micro-ops and a join: 5 or 3. The fall side ends in a jump, so it runs
    3k+1 to 5k+1 micro-ops and the taken side 3k to 5k."""
    lines = ["    branch r9, taken"]
    for side in ("f", "t"):
        for i in range(k):
            label = "taken: " if (side, i) == ("t", 0) else "    "
            lines += [
                f"{label}branch r{i % 8}, {side}{i}_short",
                "    alu r1, r1, 1",
                "    alu r1, r1, 2",
                f"    jump {side}{i}_join",
                f"{side}{i}_short: alu r2, r2, 1",
                f"{side}{i}_join: nop",
            ]
        if side == "f":
            lines.append("    jump end")
    lines.append("end: nop")
    return "\n".join(lines) + "\n"


def diamond_profile(k):
    end = 12 * k + 2  # the last instruction
    return PathProfile(end, 3 * k, 5 * k + 1, False)


def test_diamond_chain_profile_is_exact_and_fast():
    small = parse_program(diamond_chain(4))
    assert enumerated_profile(small, 0) == analyze_paths(small, 0) == diamond_profile(4)
    prog = parse_program(diamond_chain(30))
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        profile = analyze_paths(prog, 0)
        best = min(best, time.perf_counter() - start)
    assert profile == diamond_profile(30)
    assert best < 0.010


def test_two_hundred_diamonds_profile_within_a_second():
    prog = parse_program(diamond_chain(200))  # 2^200 paths per direction
    start = time.perf_counter()
    profiles = analyze_all_branches(prog)
    assert time.perf_counter() - start < 1.0
    assert profiles[0] == diamond_profile(200)


def test_cli_analyze_profiles_a_diamond_chain(tmp_path, capsys):
    program = tmp_path / "diamonds.asm"
    program.write_text(diamond_chain(30))
    assert main(["analyze", str(program)]) == 0
    assert "\nprofile 0 362 90 151 0\n" in capsys.readouterr().out
