"""Compile-time analysis: dependences, safe sets, reconvergence, path shapes.

The runtime invariance machinery in robsim.defenses lifts protection from an
instruction once everything in its *safe set* is outcome-final. This module
computes those sets from program text alone. The control-flow passes run
over basic blocks, so a long straight-line run (the forward-interference
gadget is hundreds of identical alus) costs them one node; the dependence
edges and safe sets are per instruction. For an n-instruction program of
B basic blocks:

  * basic blocks, their CFG and post-dominator tree (`control_flow`): one
    walk over the resolved targets finds the leaders (instruction 0, every
    branch or jump target, every instruction after a branch or jump; a
    label alone starts no block), then Cooper, Harvey and Kennedy's
    iterative dominator algorithm runs on the reverse block CFG, rooted at
    the virtual exit block; near-linear in B. Each block's fewest micro-ops
    and whether it holds a rep opcode are kept beside the tree. Built once
    per program object and kept on it, as its resolved `targets` are, so
    the dependence graph, every path profile, `balance_paths` and the
    balance certificate share them. A program with an instruction that
    cannot reach the exit is refused;
  * dependence graph, per instruction: one data edge per register def-use
    and one control edge per guarding branch. Reaching definitions reach
    their fixed point over blocks (a FIFO worklist that revisits a block
    only when a predecessor's output changed, each block summarised by the
    last definition of each register it writes), then one linear walk per
    block gives each instruction the definitions its sources read, O(n);
    the registers are read off each distinct (opcode, operand tuple) once,
    and parsing shares one tuple between instructions of the same statement
    text (the text after any label).
    Memory dependences are approximated by syntactic address-expression
    equality (one dict lookup per load). Control dependence (Ferrante,
    Ottenstein and Warren) walks the block post-dominator tree from each
    successor of a branch's block up to the block's immediate
    post-dominator, one step per block; every instruction of a block on
    that walk depends on the branch, except the branch itself;
  * safe set of i: the transitive closure of i's dependence sources, kept
    as an int bitmask (bit m set when m is a member), closed per strongly
    connected component (Tarjan) of the instruction dependence graph in
    reverse topological order with one integer OR per dependence edge;
    O(E * n / w) for E edges and w-bit machine words. An empty safe set
    (0) means i is invariant the moment it dispatches, which is exactly
    the property the contention attacks exploit;
  * reconvergence: immediate post-dominator of a branch, the first
    instruction of its block's immediate post-dominator block;
  * path profiles: per-direction micro-op counts between a branch and its
    reconvergence point, flagged variable when a rep opcode or a cycle
    makes the count run-time dependent. Over the R blocks the branch
    reaches before reconverging (E block edges), each weighing its fewest
    micro-ops: the shortest count by one Dijkstra, O(E log R). Kahn's
    topological sort of the region, O(R + E), finds whether it has a cycle
    (a block it leaves unordered) and, when it has none, the order of the
    one sweep that finds the longest count.

Each fact is read one way. `control_flow(program)` is the accessor of a
program's blocks, their CFG and post-dominator tree, and of the
instruction-level successor lists and post-dominator tree derived from
them (`succ`, `ipdom`); `Program.targets` holds the resolved branch and
jump targets. Every pass here reads them through these two.

Two hardening passes operate on these results: `conservative_filter` grows
safe sets behind unbalanced branches, and `balance_paths` rewrites the
program so both directions of a branch carry the same micro-op count.
`dump_analysis` renders safe sets and profiles as the text report that
`robsim analyze` prints.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field, replace
from functools import cached_property
from heapq import heappop, heappush
from math import inf

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


class ControlFlow:
    """A program's basic blocks, their CFG and post-dominator tree.

    Block k holds instructions start[k] to start[k + 1] - 1. With m blocks,
    block m is the virtual exit and start[m] = n = len(program), the exit's
    instruction id. The instruction-level `succ` and `ipdom` are derived
    from the blocks on first use: inside a block, an instruction's only
    successor and immediate post-dominator is the next instruction.
    """

    def __init__(
        self,
        start: list[int],
        block_succ: list[list[int]],
        block_preds: list[list[int]],
        block_ipdom: list[int],
        block_uops: list[int],
        block_rep: list[bool],
    ):
        self.start = start  # first instruction of blocks 0..m
        self.block_succ = block_succ  # successor blocks of 0..m-1, fallthrough first
        self.block_preds = block_preds  # predecessor blocks of 0..m
        self.block_ipdom = block_ipdom  # immediate post-dominator of blocks 0..m; m's is m
        self.block_uops = block_uops  # fewest micro-ops of blocks 0..m-1 (rep opcodes at 0)
        self.block_rep = block_rep  # whether each of blocks 0..m-1 holds a rep opcode

    @cached_property
    def succ(self) -> list[list[int]]:
        """Successor ids of instructions 0..n-1, fallthrough first."""
        start = self.start
        succ = [[i + 1] for i in range(start[-1])]
        for k, out in enumerate(self.block_succ):
            succ[start[k + 1] - 1] = [start[s] for s in out]
        return succ

    @cached_property
    def ipdom(self) -> list[int]:
        """Immediate post-dominator of instructions 0..n; ipdom[n] = n."""
        start = self.start
        n = start[-1]
        ipdom = list(range(1, n + 2))
        for k, up in enumerate(self.block_ipdom[:-1]):
            ipdom[start[k + 1] - 1] = start[up]
        ipdom[n] = n
        return ipdom


def control_flow(program: Program) -> ControlFlow:
    """The basic blocks, CFG and post-dominator tree of `program`. Built on
    first use and kept in the program object's __dict__, the way the cached
    property `targets` is, so every analysis of the program shares them; an
    edited program is derived with dataclasses.replace and gets its own."""
    flow = program.__dict__.get("_control_flow")
    if flow is None:
        flow = _control_flow(program)
        program.__dict__["_control_flow"] = flow
    return flow


def _control_flow(program: Program) -> ControlFlow:
    n = len(program)
    instructions = program.instructions
    targets = program.targets
    leaders = {0, n}
    reps = []
    for i, target in enumerate(targets):
        if target is not None:
            leaders.add(target)
            leaders.add(i + 1)
        elif instructions[i].opcode in REP_OPCODES:
            reps.append(i)
    start = sorted(leaders)
    block_of = {s: k for k, s in enumerate(start)}
    m = len(start) - 1

    succ: list[list[int]] = []
    for k in range(m):
        last = start[k + 1] - 1
        target = targets[last]
        if target is None:
            succ.append([k + 1])
        elif instructions[last].opcode is Opcode.JUMP or target == last + 1:
            succ.append([block_of[target]])
        else:
            succ.append([k + 1, block_of[target]])
    preds: list[list[int]] = [[] for _ in range(m + 1)]
    for k, out in enumerate(succ):
        for s in out:
            preds[s].append(k)
    ipdom = _postdominator_tree(succ, preds)
    if -1 in ipdom:
        first = start[ipdom.index(-1)]
        raise AnalysisError(f"instruction {first} cannot reach the program exit")

    uops = [start[k + 1] - start[k] for k in range(m)]
    rep = [False] * m
    for i in reps:
        k = bisect_right(start, i) - 1
        uops[k] += rep_expansion_count(instructions[i].opcode, 0) - 1
        rep[k] = True
    return ControlFlow(start, succ, preds, ipdom, uops, rep)


def _postdominator_tree(succ: list[list[int]], preds: list[list[int]]) -> list[int]:
    """ipdom[k] for every node 0..m of a CFG with successor lists of
    0..m-1 and predecessor lists of 0..m; the virtual exit m is the root,
    ipdom[m] = m, and a node that cannot reach it, having no
    post-dominators, gets -1.

    Cooper, Harvey and Kennedy's iterative dominator algorithm ("A Simple,
    Fast Dominance Algorithm", 2001) run on the reverse CFG from the exit.
    """
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
    if program.instructions[branch].opcode != Opcode.BRANCH:
        raise AnalysisError(f"instruction {branch} is not a branch")
    target = program.targets[branch]
    return target is not None and target <= branch


def build_dependence_graph(program: Program) -> DependenceGraph:
    instructions = program.instructions
    flow = control_flow(program)
    start, succ, preds, ipdom = flow.start, flow.block_succ, flow.block_preds, flow.block_ipdom
    m = len(succ)
    # instructions parsed from the same statement text share one operand
    # tuple, so the registers of each (opcode, operand tuple) are read once
    known: dict[tuple[Opcode, int], tuple[tuple[int, ...], int | None]] = {}
    regs = []
    for instr in instructions:
        key = (instr.opcode, id(instr.operands))
        found = known.get(key)
        if found is None:
            found = known[key] = instr.registers()
        regs.append(found)

    # reaching register definitions over the block CFG: FIFO worklist to
    # the fixed point, each block queued at most once at a time; a block
    # passes on what reaches it but for the registers it writes, whose last
    # write in it reaches out instead
    last_def = [
        {reg: i for i in range(start[k], start[k + 1]) if (reg := regs[i][1]) is not None}
        for k in range(m)
    ]
    reach_in: list[dict[int, set[int]]] = [dict() for _ in range(m)]
    worklist = deque(range(m))
    queued = [True] * m
    while worklist:
        k = worklist.popleft()
        queued[k] = False
        merged: dict[int, set[int]] = {}
        for p in preds[k]:
            defs = last_def[p]
            for reg, ids in reach_in[p].items():
                if reg not in defs:
                    merged.setdefault(reg, set()).update(ids)
            for reg, i in defs.items():
                merged.setdefault(reg, set()).add(i)
        if merged != reach_in[k]:
            reach_in[k] = merged
            for s in succ[k]:
                if s < m and not queued[s]:
                    queued[s] = True
                    worklist.append(s)

    # control dependence (Ferrante, Ottenstein and Warren): i depends on
    # branch b iff i post-dominates a successor of b but not b itself, i.e.
    # i lies on the post-dominator tree path from that successor up to, and
    # excluding, ipdom(b). b ends its block, so that path is whole blocks:
    # from each successor block up to, and excluding, the block's ipdom
    guards: list[list[int]] = [[] for _ in range(m)]
    for k in range(m):
        b = start[k + 1] - 1
        if instructions[b].opcode is not Opcode.BRANCH:
            continue
        for node in succ[k]:
            while node != ipdom[k]:
                guards[node].append(b)
                node = ipdom[node]

    # one walk per block: a source reads the definitions live at it; a
    # load also depends on every earlier store whose address expression is
    # syntactically equal
    data: dict[int, set[int]] = {}
    control: dict[int, set[int]] = {}
    stores: dict[object, list[int]] = {}
    for k in range(m):
        live: dict[int, set[int] | tuple[int]] = dict(reach_in[k])
        for i in range(start[k], start[k + 1]):
            sources, dest = regs[i]
            deps: set[int] = set()
            for reg in sources:
                deps.update(live.get(reg, ()))
            instr = instructions[i]
            if instr.opcode is Opcode.LOAD:
                deps.update(stores.get(instr.operands[1], ()))
            elif instr.opcode is Opcode.STORE:
                stores.setdefault(instr.operands[1], []).append(i)
            data[i] = deps
            control[i] = set(guards[k])
            if dest is not None:
                live[dest] = (i,)
        control[start[k + 1] - 1].discard(start[k + 1] - 1)  # a branch guards not itself
    return DependenceGraph(data, control)


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


def compute_safe_sets(program: Program) -> dict[int, int]:
    """Safe set of each instruction id as a bitmask of its transitive
    dependence sources: bit m is set when m is a member.

    Closed one strongly connected component at a time, sources first: a
    component's mask ORs each outside source's bit and mask, plus its own
    members' bits when it is cyclic.
    """
    graph = build_dependence_graph(program)
    n = len(program)
    data, control = graph.data, graph.control
    edges = [list(data[i] | control[i]) for i in range(n)]
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


def analyze_paths(
    program: Program,
    branch: int,
    cap: int = DEFAULT_EXPANSION_CAP,
) -> PathProfile:
    """Micro-op counts along each direction of `branch` to its reconvergence.

    variable=True when a rep opcode sits on either path or when control flow
    cycles (back edges), in which case max_uops saturates at the cap.
    """
    return _profile(program, control_flow(program), branch, cap)


def _profile(program: Program, flow: ControlFlow, branch: int, cap: int) -> PathProfile:
    """Path profile of `branch`, which has no finite reconvergence when it
    is a back edge. Otherwise it covers the region of
    blocks the branch reaches before its reconvergence block (the branch's
    own block is in the region only if a cycle returns to it). A path starts
    at a successor block of the branch, counts the micro-ops of each block
    it enters and ends at the reconvergence block.

    min_uops is the shortest such path. A cycle or a rep opcode makes the
    profile variable with max_uops = cap; otherwise max_uops is the longest
    path, saturating at `cap`, found by one sweep in the topological order
    of Kahn's algorithm, which leaves a block unordered exactly when the
    region has a cycle. Any topological order gives the same longest path.
    """
    if is_back_edge_branch(program, branch):
        return PathProfile(None, 0, cap, True)
    start = flow.start
    block = bisect_right(start, branch) - 1  # a branch ends its block
    succ = flow.block_succ
    reconv = flow.block_ipdom[block]
    # every path from the region to the exit passes reconv, so the exit
    # block is never in it
    local: dict[int, int] = {}
    region: list[int] = []
    stack = list(succ[block])
    while stack:
        node = stack.pop()
        if node != reconv and node not in local:
            local[node] = len(region)
            region.append(node)
            stack.extend(succ[node])
    edges = [[local[s] for s in succ[v] if s in local] for v in region]
    exits = [len(edges[x]) < len(succ[v]) for x, v in enumerate(region)]
    block_uops = flow.block_uops
    weights = [block_uops[v] for v in region]
    starts = [local[s] for s in succ[block] if s in local]
    direct = len(starts) < len(succ[block])  # an edge straight to reconv

    # shortest count through each block, its own weight included (Dijkstra)
    dist = [inf] * len(region)
    if block in local:
        dist[local[block]] = 0  # a path through it again is never shorter
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

    # Kahn's algorithm: `order` grows while it is walked, and a block on or
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
    block_rep = flow.block_rep
    if len(order) < len(region) or any(block_rep[v] for v in region):
        return PathProfile(start[reconv], shortest, cap, True)

    # acyclic and no rep opcode, so a block's weight is its length: longest
    # count by one sweep in topological order, saturating at the cap
    longest = [-1] * len(region)  # count on entering each block
    for x in starts:
        longest[x] = 0
    best = 0 if direct else -1
    for x in order:
        out = min(longest[x] + weights[x], cap)
        for t in edges[x]:
            longest[t] = max(longest[t], out)
        if exits[x]:
            best = max(best, out)
    return PathProfile(start[reconv], shortest, best, False)


def analyze_all_branches(program: Program, cap: int = DEFAULT_EXPANSION_CAP) -> dict[int, PathProfile]:
    flow = control_flow(program)
    instructions = program.instructions
    ends = (stop - 1 for stop in flow.start[1:])
    return {
        b: _profile(program, flow, b, cap) for b in ends if instructions[b].opcode is Opcode.BRANCH
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
    succ = control_flow(program).succ
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
        node = succ[node][0]
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
    fall, target = control_flow(program).succ[branch]
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
        # point and steer the empty edge through it; whatever falls into the
        # join needs an explicit jump to hop over the pads, so the hop goes
        # in only when the instruction ahead of the join is not a jump. It
        # costs the longer side one micro-op, so one more pad, only when
        # that side falls into the join rather than jumping to it.
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
        if program.instructions[sides["fall"][-1]].opcode is not Opcode.JUMP:
            pad_count += 1
        pads = [MacroInstruction(0, Opcode.NOP, (), pad_label if i == 0 else None)
                for i in range(pad_count)]
        instructions[reconv:reconv] = pads
        if program.instructions[reconv - 1].opcode is not Opcode.JUMP:
            instructions.insert(reconv, MacroInstruction(0, Opcode.JUMP, (Label(reconv_label),)))
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
