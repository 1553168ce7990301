"""Compile-time analysis: dependences, safe sets, reconvergence, path shapes.

The runtime invariance machinery in robsim.defenses lifts protection from an
instruction once everything in its *safe set* is outcome-final. This module
computes those sets from program text alone:

  * dependence graph: one data edge per register def-use (reaching
    definitions over the CFG), memory dependences approximated by syntactic
    address-expression equality, one control edge per guarding branch
    (classic post-dominance-based control dependence);
  * safe set of i: the transitive closure of i's dependence sources. An
    empty safe set means i is invariant the moment it dispatches, which is
    exactly the property the contention attacks exploit;
  * reconvergence: immediate post-dominator of a branch;
  * path profiles: per-direction micro-op counts between a branch and its
    reconvergence point, flagged variable when a rep opcode or a back edge
    makes the count run-time dependent.

Two hardening passes operate on these results: `conservative_filter` grows
safe sets behind unbalanced branches, and `balance_paths` rewrites the
program so both directions of a branch carry the same micro-op count.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .isa import (
    DEFAULT_EXPANSION_CAP,
    Label,
    MacroInstruction,
    Mem,
    Opcode,
    Program,
    REP_OPCODES,
)


class AnalysisError(ValueError):
    pass


class BalanceError(AnalysisError):
    """balance_paths refused the program; message carries the reason."""


@dataclass(frozen=True)
class SafeSet:
    instr: int
    members: frozenset[int]


@dataclass(frozen=True)
class PathProfile:
    branch: int
    reconv: int | None  # len(program) = joins only at exit; None = back edge
    min_uops: int
    max_uops: int
    variable: bool


@dataclass
class DependenceGraph:
    data: dict[int, set[int]] = field(default_factory=dict)
    control: dict[int, set[int]] = field(default_factory=dict)

    def sources(self, instr: int) -> set[int]:
        return self.data.get(instr, set()) | self.control.get(instr, set())


def successors(program: Program, idx: int) -> list[int]:
    """CFG successor ids; len(program) is the virtual exit node."""
    n = len(program)
    instr = program.instructions[idx]
    if instr.opcode == Opcode.JUMP:
        return [program.target_of(instr)]  # type: ignore[list-item]
    if instr.opcode == Opcode.BRANCH:
        fall = idx + 1 if idx + 1 <= n else n
        target = program.target_of(instr)
        assert target is not None
        return [fall, target] if target != fall else [fall]
    return [idx + 1]


def postdominators(program: Program) -> list[set[int]]:
    """pdom[i] = nodes on every path from i to exit (including i).

    Iterative fixed point over the reverse CFG; the virtual exit node
    len(program) post-dominates everything and seeds the iteration.
    """
    n = len(program)
    succ = [successors(program, i) for i in range(n)]
    everything = set(range(n + 1))
    pdom: list[set[int]] = [set(everything) for _ in range(n)] + [{n}]
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


def immediate_postdominator(pdom: list[set[int]], idx: int) -> int:
    """Deepest strict post-dominator; strict pdoms form a chain to the exit."""
    strict = pdom[idx] - {idx}
    return max(strict, key=lambda m: len(pdom[m]))


def is_back_edge_branch(program: Program, branch: int) -> bool:
    instr = program.instructions[branch]
    if instr.opcode != Opcode.BRANCH:
        raise AnalysisError(f"instruction {branch} is not a branch")
    target = program.target_of(instr)
    return target is not None and target <= branch


def find_reconvergence(program: Program, branch: int) -> int:
    """Immediate post-dominator of a forward branch.

    Returns len(program) when the directions only rejoin at program exit.
    Back-edge branches have no finite reconvergence here and are refused.
    """
    if is_back_edge_branch(program, branch):
        raise AnalysisError(
            f"branch {branch} is a loop back edge: no finite reconvergence point"
        )
    return immediate_postdominator(postdominators(program), branch)


def build_dependence_graph(program: Program) -> DependenceGraph:
    n = len(program)
    graph = DependenceGraph({i: set() for i in range(n)}, {i: set() for i in range(n)})

    # reaching register definitions over the CFG (worklist to fixed point)
    def defs_of(instr: MacroInstruction) -> int | None:
        reg = instr.dest_reg()
        return None if reg is None else reg.index

    reach_in: list[dict[int, set[int]]] = [dict() for _ in range(n)]
    preds: list[list[int]] = [[] for _ in range(n + 1)]
    for i in range(n):
        for s in successors(program, i):
            preds[s].append(i)
    worklist = list(range(n))
    while worklist:
        i = worklist.pop(0)
        merged: dict[int, set[int]] = {}
        for p in preds[i]:
            out = dict(reach_in[p])
            d = defs_of(program.instructions[p])
            if d is not None:
                out[d] = {p}
            for reg, ids in out.items():
                merged.setdefault(reg, set()).update(ids)
        if merged != reach_in[i]:
            reach_in[i] = merged
            for s in successors(program, i):
                if s < n and s not in worklist:
                    worklist.append(s)

    for i, instr in enumerate(program.instructions):
        for reg in instr.source_regs():
            graph.data[i] |= reach_in[i].get(reg.index, set())
        # memory dependence: syntactically equal address expressions
        if instr.opcode == Opcode.LOAD:
            addr = instr.operands[1]
            for j in range(i):
                other = program.instructions[j]
                if other.opcode == Opcode.STORE and other.operands[1] == addr:
                    graph.data[i].add(j)

    # control dependence: i depends on branch b iff i post-dominates one of
    # b's successors but not b itself
    pdom = postdominators(program)  # indices 0..n, exit included
    for b, instr in enumerate(program.instructions):
        if instr.opcode != Opcode.BRANCH:
            continue
        succ_pdoms = [pdom[s] for s in successors(program, b)]
        for i in range(n):
            if i == b:
                continue
            if any(i in sp for sp in succ_pdoms) and i not in pdom[b]:
                graph.control[i].add(b)
    return graph


def compute_safe_sets(program: Program, graph: DependenceGraph | None = None) -> dict[int, SafeSet]:
    """Safe set of each instruction: transitive dependence sources."""
    if graph is None:
        graph = build_dependence_graph(program)
    n = len(program)
    closure: dict[int, frozenset[int]] = {}
    for i in range(n):
        seen: set[int] = set()
        stack = list(graph.sources(i))
        while stack:
            s = stack.pop()
            if s in seen:
                continue
            seen.add(s)
            stack.extend(graph.sources(s))
        closure[i] = frozenset(seen)
    return {i: SafeSet(i, closure[i]) for i in range(n)}


def _uop_weight(instr: MacroInstruction, cap: int) -> tuple[int, int, bool]:
    """(min, max, variable) micro-op contribution of one macro instruction."""
    if instr.opcode == Opcode.REP_MOVS:
        return 0, cap, True
    if instr.opcode == Opcode.REP_LODS:
        return 12, cap, True
    return 1, 1, False


def analyze_paths(
    program: Program, branch: int, cap: int = DEFAULT_EXPANSION_CAP
) -> PathProfile:
    """Micro-op counts along each direction of `branch` to its reconvergence.

    variable=True when a rep opcode sits on either path or when control flow
    cycles (back edges), in which case max_uops saturates at the cap.
    """
    if is_back_edge_branch(program, branch):
        return PathProfile(branch, None, 0, cap, True)
    reconv = find_reconvergence(program, branch)
    n = len(program)
    mins: list[int] = []
    maxs: list[int] = []
    variable = False

    # depth-first over every path, first successor first; a pending node
    # carries its (min, max) so far and the nodes already on its path, a
    # set shared with its siblings
    start = frozenset({branch})
    stack = [(s, 0, 0, start) for s in reversed(successors(program, branch))]
    while stack:
        node, acc_min, acc_max, on_path = stack.pop()
        if node == reconv or node >= n:
            mins.append(acc_min)
            maxs.append(acc_max)
            continue
        if node in on_path:
            variable = True
            mins.append(acc_min)
            maxs.append(cap)
            continue
        w_min, w_max, w_var = _uop_weight(program.instructions[node], cap)
        if w_var:
            variable = True
        path = on_path | {node}
        acc_min, acc_max = acc_min + w_min, min(acc_max + w_max, cap)
        stack.extend(
            (s, acc_min, acc_max, path) for s in reversed(successors(program, node))
        )
    lo, hi = min(mins), max(maxs)
    if variable:
        hi = cap
    return PathProfile(branch, reconv, lo, hi, variable)


def analyze_all_branches(program: Program, cap: int = DEFAULT_EXPANSION_CAP) -> dict[int, PathProfile]:
    return {
        i: analyze_paths(program, i, cap)
        for i, instr in enumerate(program.instructions)
        if instr.opcode == Opcode.BRANCH
    }


def conservative_filter(
    safe_sets: dict[int, SafeSet],
    profiles: dict[int, PathProfile],
    program_len: int,
) -> dict[int, SafeSet]:
    """Grow safe sets behind branches whose directions differ in length.

    For every branch with variable or unequal path micro-op counts, each
    instruction at or after the reconvergence point gets the branch added to
    its safe set, so invariance cannot be reached before the branch resolves.
    Idempotent; sets only grow.
    """
    out = dict(safe_sets)
    for branch, profile in sorted(profiles.items()):
        if not (profile.variable or profile.min_uops != profile.max_uops):
            continue
        start = profile.reconv if profile.reconv is not None else branch + 1
        for i in range(start, program_len):
            current = out[i]
            if branch not in current.members:
                out[i] = replace(current, members=current.members | {branch})
    return out


def _straight_line_block(program: Program, start: int, stop: int) -> list[int]:
    """Ids from start to stop via fallthrough/jump only; refuse forks."""
    ids: list[int] = []
    node = start
    seen: set[int] = set()
    while node != stop:
        if node >= len(program) or node in seen:
            raise BalanceError(
                f"path from {start} does not reach reconvergence {stop} linearly"
            )
        seen.add(node)
        instr = program.instructions[node]
        if instr.opcode == Opcode.BRANCH:
            raise BalanceError(
                f"nested branch {node} on path: balancing supports simple diamonds only"
            )
        ids.append(node)
        node = successors(program, node)[0]
    return ids


def _rebuild(instructions: list[MacroInstruction], data_init: dict[int, int]) -> Program:
    labels: dict[str, int] = {}
    renumbered: list[MacroInstruction] = []
    for i, instr in enumerate(instructions):
        if instr.label is not None:
            labels[instr.label] = i
        renumbered.append(replace(instr, id=i))
    prog = Program(renumbered, labels, dict(data_init))
    prog.validate()
    return prog


def balance_paths(program: Program, branch: int) -> Program:
    """Pad the shorter direction of `branch` with nops until both match.

    Refuses variable-length paths (rep expansion or loops) with a diagnostic:
    no static pad count can equalize those. The returned program is re-id'd
    and revalidated; callers must rerun analysis on it.
    """
    profile = analyze_paths(program, branch)
    if profile.variable:
        raise BalanceError(
            f"branch {branch}: paths are variable-length (rep expansion or loop); "
            "padding cannot balance them"
        )
    assert profile.reconv is not None
    if profile.min_uops == profile.max_uops:
        return program
    reconv = profile.reconv
    fall, target = successors(program, branch)
    sides = {}
    for name, entry in (("fall", fall), ("target", target)):
        sides[name] = [] if entry == reconv else _straight_line_block(program, entry, reconv)
    pad_count = profile.max_uops - profile.min_uops
    shorter = "fall" if len(sides["fall"]) <= len(sides["target"]) else "target"

    instructions = list(program.instructions)
    if sides[shorter]:
        insert_at = sides[shorter][-1] + 1
        pads = [MacroInstruction(0, Opcode.NOP, ()) for _ in range(pad_count)]
        instructions[insert_at:insert_at] = pads
        balanced = _rebuild(instructions, program.data_init)
    else:
        # empty side: materialize a pad block just before the reconvergence
        # point and steer the empty edge through it; the other side needs an
        # explicit jump to hop over the pads, which costs one micro-op.
        if reconv >= len(program):
            raise BalanceError(
                f"branch {branch}: cannot pad an empty path joining at program exit"
            )
        reconv_label = program.instructions[reconv].label
        if reconv_label is None:
            raise BalanceError(f"reconvergence point {reconv} carries no label")
        pad_label = f"__pad{branch}"
        while pad_label in program.labels:
            pad_label += "_"
        long_side = sides["fall" if shorter == "target" else "target"]
        jump = MacroInstruction(0, Opcode.JUMP, (Label(reconv_label),))
        pads = [MacroInstruction(0, Opcode.NOP, (), pad_label if i == 0 else None)
                for i in range(pad_count + 1)]
        instructions[reconv:reconv] = [jump] + pads
        br = instructions[branch]
        if shorter == "target":
            new_ops = (br.operands[0], Label(pad_label))
            instructions[branch] = replace(br, operands=new_ops)
            balanced = _rebuild(instructions, program.data_init)
        else:
            raise BalanceError(
                f"branch {branch}: empty fallthrough path layout is not supported"
            )
        if long_side and long_side[-1] + 1 == reconv:
            pass  # long side now falls into the inserted jump, which is correct

    check = analyze_paths(balanced, branch)
    if check.min_uops != check.max_uops:
        raise BalanceError(
            f"branch {branch}: balancing failed ({check.min_uops} != {check.max_uops})"
        )
    return balanced


# --- sidecar analysis file -------------------------------------------------

SIDECAR_HEADER = "# robsim analysis v1"


def dump_analysis(
    safe_sets: dict[int, SafeSet], profiles: dict[int, PathProfile]
) -> str:
    """Text sidecar: one `ss` line per instruction, one `profile` per branch."""
    lines = [SIDECAR_HEADER]
    for i in sorted(safe_sets):
        members = " ".join(str(m) for m in sorted(safe_sets[i].members))
        lines.append(f"ss {i} {members}".rstrip())
    for b in sorted(profiles):
        p = profiles[b]
        reconv = "-" if p.reconv is None else str(p.reconv)
        lines.append(
            f"profile {b} {reconv} {p.min_uops} {p.max_uops} {int(p.variable)}"
        )
    return "\n".join(lines) + "\n"


def load_analysis(text: str) -> tuple[dict[int, SafeSet], dict[int, PathProfile]]:
    safe_sets: dict[int, SafeSet] = {}
    profiles: dict[int, PathProfile] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "ss":
            try:
                instr, *members = (int(word) for word in parts[1:])
            except ValueError:  # no id, or a word that is not an integer
                raise AnalysisError(f"sidecar line {line_no}: malformed ss") from None
            if instr in safe_sets:
                raise AnalysisError(f"sidecar line {line_no}: duplicate ss {instr}")
            safe_sets[instr] = SafeSet(instr, frozenset(members))
        elif parts[0] == "profile":
            if len(parts) != 6:
                raise AnalysisError(f"sidecar line {line_no}: malformed profile")
            branch = int(parts[1])
            reconv = None if parts[2] == "-" else int(parts[2])
            profiles[branch] = PathProfile(
                branch, reconv, int(parts[3]), int(parts[4]), bool(int(parts[5]))
            )
        else:
            raise AnalysisError(f"sidecar line {line_no}: unknown record {parts[0]!r}")
    return safe_sets, profiles
