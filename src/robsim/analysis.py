"""Compile-time analysis: dependences, safe sets, reconvergence, path shapes.

The runtime invariance machinery in robsim.defenses lifts protection from an
instruction once everything in its *safe set* is outcome-final. This module
computes those sets from program text alone, with these algorithms and
costs for an n-instruction program:

  * CFG and post-dominator tree (`control_flow`): Cooper, Harvey and
    Kennedy's iterative dominator algorithm on the reverse CFG, rooted at
    the virtual exit; near-linear. Built once per program object and kept
    on it, as its resolved `targets` are, so the dependence graph, every
    path profile, `balance_paths` and the balance certificate share them.
    A program with an instruction that cannot reach the exit is refused;
  * dependence graph: one data edge per register def-use (reaching
    definitions, a FIFO worklist to the fixed point that revisits a node
    only when a predecessor's output changed), memory dependences
    approximated by syntactic address-expression equality (one dict lookup
    per load), one control edge per guarding branch (Ferrante, Ottenstein
    and Warren: walk the post-dominator tree from each successor of a
    branch up to the branch's immediate post-dominator, one step per edge
    added);
  * safe set of i: the transitive closure of i's dependence sources, kept
    as an int bitmask (bit m set when m is a member), closed per strongly
    connected component (Tarjan) in reverse topological order with one
    integer OR per dependence edge; O(E * n / w) for E edges and w-bit
    machine words. An empty safe set (0) means i is invariant the moment
    it dispatches, which is exactly the property the contention attacks
    exploit;
  * reconvergence: immediate post-dominator of a branch, read off the tree;
  * path profiles: per-direction micro-op counts between a branch and its
    reconvergence point, flagged variable when a rep opcode or a cycle
    makes the count run-time dependent. Over the region the branch reaches
    before reconverging (R nodes, E edges): the shortest count by one
    Dijkstra, O(E log R). Kahn's topological sort of the region, O(R + E),
    finds whether it has a cycle (a node it leaves unordered) and, when it
    has none, the order of the one sweep that finds the longest count.

Two hardening passes operate on these results: `conservative_filter` grows
safe sets behind unbalanced branches, and `balance_paths` rewrites the
program so both directions of a branch carry the same micro-op count.
`dump_analysis` renders safe sets and profiles as the text report that
`robsim analyze` prints.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from heapq import heappop, heappush
from math import inf
from typing import NamedTuple

from .isa import (
    DEFAULT_EXPANSION_CAP,
    Label,
    MacroInstruction,
    Opcode,
    Program,
    REP_OPCODES,
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


class ControlFlow(NamedTuple):
    """A program's CFG and post-dominator tree; n = len(program) is the
    virtual exit node."""

    succ: list[list[int]]  # successor ids of 0..n-1
    preds: list[list[int]]  # predecessor ids of 0..n
    ipdom: list[int]  # immediate post-dominator of 0..n; ipdom[n] = n


def control_flow(program: Program) -> ControlFlow:
    """The CFG and post-dominator tree of `program`. Built on first use and
    kept in the program object's __dict__, the way the cached property
    `targets` is, so every analysis of the program shares them; an edited
    program is derived with dataclasses.replace and gets its own."""
    flow = program.__dict__.get("_control_flow")
    if flow is None:
        succ, preds = _cfg(program)
        flow = ControlFlow(succ, preds, _postdominator_tree(succ, preds))
        program.__dict__["_control_flow"] = flow
    return flow


def successors(program: Program, idx: int) -> list[int]:
    """CFG successor ids; len(program) is the virtual exit node."""
    target = program.targets[idx]
    if target is None:
        return [idx + 1]
    if program.instructions[idx].opcode is Opcode.JUMP:
        return [target]
    return [idx + 1, target] if target != idx + 1 else [target]


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
    return list(control_flow(program).ipdom)  # a copy: the tree is shared


def _postdominator_tree(succ: list[list[int]], preds: list[list[int]]) -> list[int]:
    """immediate_postdominators from the lists `_cfg` builds."""
    n = len(succ)

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


def build_dependence_graph(program: Program) -> DependenceGraph:
    n = len(program)
    graph = DependenceGraph({i: set() for i in range(n)}, {i: set() for i in range(n)})
    instructions = program.instructions
    succ, preds, ipdom = control_flow(program)
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
) -> dict[int, int]:
    """Safe set of each instruction id as a bitmask of its transitive
    dependence sources: bit m is set when m is a member.

    Closed one strongly connected component at a time, sources first: a
    component's mask ORs each outside source's bit and mask, plus its own
    members' bits when it is cyclic.
    """
    if graph is None:
        graph = build_dependence_graph(program)
    n = len(program)
    edges = [list(graph.sources(i)) for i in range(n)]
    component_of = [-1] * n
    closures: list[int] = []
    for c, members in enumerate(_components(edges)):
        for v in members:
            component_of[v] = c
        reached = 0
        for v in members:
            for w in edges[v]:
                k = component_of[w]
                if k != c:
                    reached |= closures[k] | (1 << w)
        if len(members) > 1 or members[0] in edges[members[0]]:
            for v in members:
                reached |= 1 << v
        closures.append(reached)
    return {i: closures[component_of[i]] for i in range(n)}


def _min_uops(instr: MacroInstruction) -> int:
    """Fewest micro-ops one macro instruction contributes; a rep opcode's
    count is run-time dependent, up to the expansion cap."""
    if instr.opcode in REP_OPCODES:
        return rep_expansion_count(instr.opcode, 0)
    return 1


def analyze_paths(
    program: Program,
    branch: int,
    cap: int = DEFAULT_EXPANSION_CAP,
) -> PathProfile:
    """Micro-op counts along each direction of `branch` to its reconvergence.

    variable=True when a rep opcode sits on either path or when control flow
    cycles (back edges), in which case max_uops saturates at the cap.
    """
    succ, _, ipdom = control_flow(program)
    return _profile(program, succ, ipdom, branch, cap)


def _profile(
    program: Program, succ: list[list[int]], ipdom: list[int], branch: int, cap: int
) -> PathProfile:
    """Path profile of `branch`, which has no finite reconvergence when it
    is a back edge. Otherwise it covers the region the branch reaches
    before its reconvergence point (the branch itself is in the region only
    if a cycle returns to it). A path starts at a successor of the branch,
    counts each node it enters and ends at the reconvergence point.

    min_uops is the shortest such path. A cycle or a rep opcode makes the
    profile variable with max_uops = cap; otherwise max_uops is the longest
    path, saturating at `cap`, found by one sweep in the topological order
    of Kahn's algorithm, which leaves a node unordered exactly when the
    region has a cycle. Any topological order gives the same longest path.
    """
    if is_back_edge_branch(program, branch):
        return PathProfile(None, 0, cap, True)
    instructions = program.instructions
    n = len(instructions)
    reconv = ipdom[branch]
    local: dict[int, int] = {}
    region: list[int] = []
    stack = list(succ[branch])
    while stack:
        node = stack.pop()
        if node != reconv and node < n and node not in local:
            local[node] = len(region)
            region.append(node)
            stack.extend(succ[node])
    edges = [[local[s] for s in succ[v] if s in local] for v in region]
    exits = [len(edges[x]) < len(succ[v]) for x, v in enumerate(region)]
    weights = [_min_uops(instructions[v]) for v in region]
    starts = [local[s] for s in succ[branch] if s in local]
    direct = len(starts) < len(succ[branch])  # an edge straight to reconv

    # shortest count through each node, its own weight included (Dijkstra)
    dist = [inf] * len(region)
    if branch in local:
        dist[local[branch]] = 0  # a path through it again is never shorter
    shortest = 0 if direct else inf
    heap = [(weights[x], x) for x in starts]
    while heap:
        d, x = heappop(heap)
        if d >= dist[x]:
            continue
        dist[x] = d
        if exits[x]:
            shortest = min(shortest, d)
        for t in edges[x]:
            if dist[t] == inf:
                heappush(heap, (d + weights[t], t))

    # Kahn's algorithm: `order` grows while it is walked, and a node on or
    # behind a cycle never reaches indegree 0
    indegree = [0] * len(region)
    for out in edges:
        for t in out:
            indegree[t] += 1
    order = [x for x, d in enumerate(indegree) if d == 0]
    for x in order:
        for t in edges[x]:
            indegree[t] -= 1
            if not indegree[t]:
                order.append(t)
    if len(order) < len(region) or any(instructions[v].opcode in REP_OPCODES for v in region):
        return PathProfile(reconv, shortest, cap, True)

    # acyclic and one micro-op per node: longest count by one sweep in
    # topological order, saturating at the cap
    longest = [-1] * len(region)  # count on entering each node
    for x in starts:
        longest[x] = 0
    best = 0 if direct else -1
    for x in order:
        out = min(longest[x] + 1, cap)
        for t in edges[x]:
            longest[t] = max(longest[t], out)
        if exits[x]:
            best = max(best, out)
    return PathProfile(reconv, shortest, best, False)


def analyze_all_branches(program: Program, cap: int = DEFAULT_EXPANSION_CAP) -> dict[int, PathProfile]:
    succ, _, ipdom = control_flow(program)
    return {
        i: _profile(program, succ, ipdom, i, cap)
        for i, instr in enumerate(program.instructions)
        if instr.opcode == Opcode.BRANCH
    }


def conservative_filter(
    safe_sets: dict[int, int],
    profiles: dict[int, PathProfile],
    program_len: int,
) -> dict[int, int]:
    """Grow safe sets behind branches whose directions differ in length.

    For every branch with variable or unequal path micro-op counts, each
    instruction at or after the reconvergence point gets the branch's bit
    set in its safe set, so invariance cannot be reached before the branch
    resolves. Idempotent; sets only grow.
    """
    out = dict(safe_sets)
    for branch, profile in profiles.items():
        if not (profile.variable or profile.min_uops != profile.max_uops):
            continue
        start = profile.reconv if profile.reconv is not None else branch + 1
        for i in range(start, program_len):
            out[i] |= 1 << branch
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


def _rebuild(program: Program, instructions: list[MacroInstruction]) -> Program:
    """`program` with `instructions`, re-id'd, in place of its own; labels
    follow their instructions, so its run setup carries over unchanged."""
    labels: dict[str, int] = {}
    renumbered: list[MacroInstruction] = []
    for i, instr in enumerate(instructions):
        if instr.label is not None:
            labels[instr.label] = i
        renumbered.append(replace(instr, id=i))
    prog = replace(program, instructions=renumbered, labels=labels)
    prog.targets  # validates the new program once, for every later use
    return prog


def balance_paths(program: Program, branch: int, cap: int = DEFAULT_EXPANSION_CAP) -> Program:
    """Pad the shorter direction of `branch` with nops until both match.

    The pads go at the end of the shorter side, ahead of a jump that closes
    it. Refuses variable-length paths (rep expansion or loops) with a
    diagnostic: no static pad count can equalize those; so is a path whose
    count reaches `cap`, where it saturates, and a layout whose padded
    directions still differ. The returned program is re-id'd and
    revalidated; callers must rerun analysis on it.
    """
    profile = analyze_paths(program, branch, cap)
    if profile.variable:
        raise BalanceError(
            f"branch {branch}: paths are variable-length (rep expansion or loop); "
            "padding cannot balance them"
        )
    if profile.max_uops >= cap:
        raise BalanceError(
            f"branch {branch}: a path reaches the expansion cap ({cap} uops); "
            "its length is not known exactly"
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
        at = sides[shorter][-1] + 1
        pads = [MacroInstruction(0, Opcode.NOP, ()) for _ in range(pad_count)]
        last = instructions[at - 1]
        if last.opcode is Opcode.JUMP:
            # pads after the jump would be skipped: put them ahead of it,
            # with any label it carries on the first pad
            at -= 1
            pads[0] = replace(pads[0], label=last.label)
            instructions[at] = replace(last, label=None)
        instructions[at:at] = pads
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
    balanced = _rebuild(program, instructions)

    check = analyze_paths(balanced, branch, cap)
    if check.min_uops != check.max_uops:
        raise BalanceError(
            f"branch {branch}: balancing failed ({check.min_uops} != {check.max_uops})"
        )
    return balanced


# --- analysis report -------------------------------------------------------


def _members(bits: int) -> list[int]:
    """Positions of the set bits of `bits`, ascending."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def dump_analysis(safe_sets: dict[int, int], profiles: dict[int, PathProfile]) -> str:
    """Text report: header, one `ss` line per instruction listing its safe
    set's members in ascending order, one `profile` per branch."""
    lines = ["# robsim analysis v4"]
    for i in sorted(safe_sets):
        members = " ".join(map(str, _members(safe_sets[i])))
        lines.append(f"ss {i} {members}".rstrip())
    for b in sorted(profiles):
        p = profiles[b]
        reconv = "-" if p.reconv is None else str(p.reconv)
        lines.append(
            f"profile {b} {reconv} {p.min_uops} {p.max_uops} {int(p.variable)}"
        )
    return "\n".join(lines) + "\n"
