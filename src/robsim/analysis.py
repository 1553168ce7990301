"""Compile-time analysis: dependences, safe sets, reconvergence, path shapes.

The runtime invariance machinery in robsim.defenses lifts protection from an
instruction once everything in its *safe set* is outcome-final. This module
computes those sets from program text alone, with these algorithms and
costs for an n-instruction program:

  * post-dominator tree: Cooper, Harvey and Kennedy's iterative dominator
    algorithm on the reverse CFG, rooted at the virtual exit; near-linear,
    once per program. A program with an instruction that cannot reach the
    exit is refused;
  * dependence graph: one data edge per register def-use (reaching
    definitions, a FIFO worklist to the fixed point that revisits a node
    only when a predecessor's output changed), memory dependences
    approximated by syntactic address-expression equality (one dict lookup
    per load), one control edge per guarding branch (Ferrante, Ottenstein
    and Warren: walk the post-dominator tree from each successor of a
    branch up to the branch's immediate post-dominator, one step per edge
    added);
  * safe set of i: the transitive closure of i's dependence sources,
    closed per strongly connected component (Tarjan) in reverse
    topological order with one set union per component; linear in the
    graph plus the size of the sets it builds. An empty safe set means i is
    invariant the moment it dispatches, which is exactly the property the
    contention attacks exploit;
  * reconvergence: immediate post-dominator of a branch, read off the tree;
  * path profiles: per-direction micro-op counts between a branch and its
    reconvergence point, flagged variable when a rep opcode or a back edge
    makes the count run-time dependent. Every path is enumerated, so the
    cost is exponential in the number of sequential diamonds.

Two hardening passes operate on these results: `conservative_filter` grows
safe sets behind unbalanced branches, and `balance_paths` rewrites the
program so both directions of a branch carry the same micro-op count.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace

from .isa import (
    DEFAULT_EXPANSION_CAP,
    Label,
    MacroInstruction,
    Opcode,
    Program,
    REP_OPCODES,
    print_program,
    rep_expansion_count,
)


class AnalysisError(ValueError):
    pass


class BalanceError(AnalysisError):
    """balance_paths refused the program; message carries the reason."""


@dataclass(frozen=True)
class PathProfile:
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


def _cfg(program: Program) -> tuple[list[list[int]], list[list[int]]]:
    """Successor lists of 0..n-1 and predecessor lists of 0..n (n = exit)."""
    n = len(program)
    succ = [successors(program, i) for i in range(n)]
    preds: list[list[int]] = [[] for _ in range(n + 1)]
    for i in range(n):
        for s in succ[i]:
            preds[s].append(i)
    return succ, preds


def immediate_postdominators(program: Program) -> list[int]:
    """ipdom[i] for every node 0..n; the virtual exit n is the root, ipdom[n] = n.

    Cooper, Harvey and Kennedy's iterative dominator algorithm ("A Simple,
    Fast Dominance Algorithm", 2001) run on the reverse CFG from the exit.
    An instruction that cannot reach the exit has no post-dominators, so
    the program is refused naming the first such instruction.
    """
    n = len(program)
    succ, preds = _cfg(program)

    # postorder of the reverse CFG, depth first from the exit
    order = [-1] * (n + 1)
    postorder: list[int] = []
    order[n] = 0  # marks the exit visited; renumbered below
    stack = [(n, iter(preds[n]))]
    while stack:
        node, pending = stack[-1]
        for p in pending:
            if order[p] < 0:
                order[p] = 0
                stack.append((p, iter(preds[p])))
                break
        else:
            stack.pop()
            order[node] = len(postorder)
            postorder.append(node)
    if len(postorder) != n + 1:
        first = next(i for i in range(n) if order[i] < 0)
        raise AnalysisError(f"instruction {first} cannot reach the program exit")

    ipdom = [-1] * (n + 1)
    ipdom[n] = n
    changed = True
    while changed:
        changed = False
        for node in reversed(postorder[:-1]):  # reverse postorder, exit skipped
            new = -1
            for s in succ[node]:
                if ipdom[s] < 0:
                    continue
                if new < 0:
                    new = s
                    continue
                a, b = s, new  # walk both fingers up to their common ancestor
                while a != b:
                    while order[a] < order[b]:
                        a = ipdom[a]
                    while order[b] < order[a]:
                        b = ipdom[b]
                new = a
            if ipdom[node] != new:
                ipdom[node] = new
                changed = True
    return ipdom


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
    return immediate_postdominators(program)[branch]


def build_dependence_graph(program: Program) -> DependenceGraph:
    n = len(program)
    graph = DependenceGraph({i: set() for i in range(n)}, {i: set() for i in range(n)})
    instructions = program.instructions
    succ, preds = _cfg(program)
    dest = [None if (reg := instr.dest_reg()) is None else reg.index for instr in instructions]

    # reaching register definitions over the CFG: FIFO worklist to the fixed
    # point, each node queued at most once at a time
    reach_in: list[dict[int, set[int]]] = [dict() for _ in range(n)]
    worklist = deque(range(n))
    queued = [True] * n
    while worklist:
        i = worklist.popleft()
        queued[i] = False
        merged: dict[int, set[int]] = {}
        for p in preds[i]:
            d = dest[p]
            for reg, ids in reach_in[p].items():
                if reg != d:
                    merged.setdefault(reg, set()).update(ids)
            if d is not None:
                merged.setdefault(d, set()).add(p)
        if merged != reach_in[i]:
            reach_in[i] = merged
            for s in succ[i]:
                if s < n and not queued[s]:
                    queued[s] = True
                    worklist.append(s)

    # memory dependence: a load depends on every earlier store whose address
    # expression is syntactically equal
    stores: dict[object, list[int]] = {}
    for i, instr in enumerate(instructions):
        for reg in instr.source_regs():
            graph.data[i] |= reach_in[i].get(reg.index, set())
        if instr.opcode == Opcode.LOAD:
            graph.data[i].update(stores.get(instr.operands[1], ()))
        elif instr.opcode == Opcode.STORE:
            stores.setdefault(instr.operands[1], []).append(i)

    # control dependence (Ferrante, Ottenstein and Warren): i depends on
    # branch b iff i post-dominates a successor of b but not b itself, i.e.
    # i lies on the post-dominator tree path from that successor up to, and
    # excluding, ipdom(b)
    ipdom = immediate_postdominators(program)
    for b, instr in enumerate(instructions):
        if instr.opcode != Opcode.BRANCH:
            continue
        for node in succ[b]:
            while node != ipdom[b]:
                if node != b:
                    graph.control[node].add(b)
                node = ipdom[node]
    return graph


def _components(edges: list[list[int]]) -> list[list[int]]:
    """Strongly connected components, each after every component it reaches.

    Tarjan's algorithm with an explicit stack of (node, edge iterator).
    """
    n = len(edges)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(edges[root]))]
        while work:
            node, pending = work[-1]
            for w in pending:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(edges[w])))
                    break
                if on_stack[w] and index[w] < low[node]:
                    low[node] = index[w]
            else:
                work.pop()
                if work and low[node] < low[work[-1][0]]:
                    low[work[-1][0]] = low[node]
                if low[node] == index[node]:
                    component = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        component.append(w)
                        if w == node:
                            break
                    components.append(component)
    return components


def compute_safe_sets(
    program: Program, graph: DependenceGraph | None = None
) -> dict[int, frozenset[int]]:
    """Safe set of each instruction id: its transitive dependence sources.

    Closed one strongly connected component at a time, sources first: a
    component's set is the union of its outside sources and their sets,
    plus its own members when it is cyclic. Members share one frozenset.
    """
    if graph is None:
        graph = build_dependence_graph(program)
    n = len(program)
    edges = [list(graph.sources(i)) for i in range(n)]
    component_of = [-1] * n
    closures: list[frozenset[int]] = []
    for c, members in enumerate(_components(edges)):
        for v in members:
            component_of[v] = c
        outside = {w for v in members for w in edges[v] if component_of[w] != c}
        reached = frozenset().union(
            outside, *(closures[k] for k in {component_of[w] for w in outside})
        )
        if len(members) > 1 or members[0] in edges[members[0]]:
            reached |= frozenset(members)
        closures.append(reached)
    return {i: closures[component_of[i]] for i in range(n)}


def _uop_weight(instr: MacroInstruction, cap: int) -> tuple[int, int, bool]:
    """(min, max, variable) micro-op contribution of one macro instruction."""
    if instr.opcode in REP_OPCODES:
        return rep_expansion_count(instr.opcode, 0), cap, True
    return 1, 1, False


def analyze_paths(
    program: Program,
    branch: int,
    cap: int = DEFAULT_EXPANSION_CAP,
    ipdom: list[int] | None = None,
) -> PathProfile:
    """Micro-op counts along each direction of `branch` to its reconvergence.

    variable=True when a rep opcode sits on either path or when control flow
    cycles (back edges), in which case max_uops saturates at the cap.
    `ipdom` is the program's `immediate_postdominators`, computed when absent.
    """
    if is_back_edge_branch(program, branch):
        return PathProfile(None, 0, cap, True)
    if ipdom is None:
        ipdom = immediate_postdominators(program)
    reconv = ipdom[branch]
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
    return PathProfile(reconv, lo, hi, variable)


def analyze_all_branches(program: Program, cap: int = DEFAULT_EXPANSION_CAP) -> dict[int, PathProfile]:
    ipdom = immediate_postdominators(program)
    return {
        i: analyze_paths(program, i, cap, ipdom)
        for i, instr in enumerate(program.instructions)
        if instr.opcode == Opcode.BRANCH
    }


def conservative_filter(
    safe_sets: dict[int, frozenset[int]],
    profiles: dict[int, PathProfile],
    program_len: int,
) -> dict[int, frozenset[int]]:
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
            if branch not in out[i]:
                out[i] = out[i] | {branch}
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
        if shorter == "fall":
            raise BalanceError(
                f"branch {branch}: empty fallthrough path layout is not supported"
            )
        pad_label = f"__pad{branch}"
        while pad_label in program.labels:
            pad_label += "_"
        jump = MacroInstruction(0, Opcode.JUMP, (Label(reconv_label),))
        pads = [MacroInstruction(0, Opcode.NOP, (), pad_label if i == 0 else None)
                for i in range(pad_count + 1)]
        instructions[reconv:reconv] = [jump] + pads
        br = instructions[branch]
        new_ops = (br.operands[0], Label(pad_label))
        instructions[branch] = replace(br, operands=new_ops)
        balanced = _rebuild(instructions, program.data_init)

    check = analyze_paths(balanced, branch)
    if check.min_uops != check.max_uops:
        raise BalanceError(
            f"branch {branch}: balancing failed ({check.min_uops} != {check.max_uops})"
        )
    return balanced


# --- sidecar analysis file -------------------------------------------------

SIDECAR_HEADER = "# robsim analysis v2"


def _program_record(program: Program) -> str:
    """`program <sha256 of print_program> <instruction count>`."""
    import hashlib  # loads OpenSSL: ~8 ms that only sidecar users should pay

    digest = hashlib.sha256(print_program(program).encode()).hexdigest()
    return f"program {digest} {len(program)}"


def dump_analysis(
    safe_sets: dict[int, frozenset[int]],
    profiles: dict[int, PathProfile],
    program: Program,
) -> str:
    """Text sidecar for `program`: header, program fingerprint, one `ss`
    line per instruction, one `profile` per branch."""
    lines = [SIDECAR_HEADER, _program_record(program)]
    for i in sorted(safe_sets):
        members = " ".join(str(m) for m in sorted(safe_sets[i]))
        lines.append(f"ss {i} {members}".rstrip())
    for b in sorted(profiles):
        p = profiles[b]
        reconv = "-" if p.reconv is None else str(p.reconv)
        lines.append(
            f"profile {b} {reconv} {p.min_uops} {p.max_uops} {int(p.variable)}"
        )
    return "\n".join(lines) + "\n"


def load_analysis(
    text: str, program: Program
) -> tuple[dict[int, frozenset[int]], dict[int, PathProfile]]:
    """Parse a sidecar and refuse it unless it describes `program`.

    A sidecar of another program would lift loads it does not describe, so
    the ss ids must be exactly 0..n-1 with every member below n, and the
    sidecar must be v2 and carry this program's fingerprint line.
    """
    safe_sets: dict[int, frozenset[int]] = {}
    profiles: dict[int, PathProfile] = {}
    program_line: str | None = None
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
            safe_sets[instr] = frozenset(members)
        elif parts[0] == "profile":
            try:
                if len(parts) != 6:
                    raise ValueError
                branch, lo, hi, variable = (int(parts[i]) for i in (1, 3, 4, 5))
                reconv = None if parts[2] == "-" else int(parts[2])
            except ValueError:  # wrong field count, or a word that is not an integer
                raise AnalysisError(f"sidecar line {line_no}: malformed profile") from None
            if branch in profiles:
                raise AnalysisError(f"sidecar line {line_no}: duplicate profile {branch}")
            profiles[branch] = PathProfile(reconv, lo, hi, bool(variable))
        elif parts[0] == "program":
            if program_line is not None:
                raise AnalysisError(f"sidecar line {line_no}: duplicate program")
            program_line = " ".join(parts)
        else:
            raise AnalysisError(f"sidecar line {line_no}: unknown record {parts[0]!r}")

    n = len(program)
    if sorted(safe_sets) != list(range(n)):
        raise AnalysisError(
            f"sidecar has ss records for {len(safe_sets)} instruction ids, "
            f"not exactly 0..{n - 1} of the program; rerun robsim analyze"
        )
    for instr, members in safe_sets.items():
        bad = [m for m in members if not 0 <= m < n]
        if bad:
            raise AnalysisError(
                f"sidecar ss {instr} names instruction {min(bad)} outside "
                f"the {n}-instruction program; rerun robsim analyze"
            )
    header = text.split("\n", 1)[0].strip()
    if header != SIDECAR_HEADER:
        raise AnalysisError(
            f"sidecar header is {header!r}, not {SIDECAR_HEADER!r}; rerun robsim analyze"
        )
    if program_line != _program_record(program):
        raise AnalysisError(
            "sidecar was computed for another program (its program line does not "
            "match this program's sha256 and length); rerun robsim analyze"
        )
    return safe_sets, profiles
