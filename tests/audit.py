"""Rules audited off a finished run's trace, not off the simulator.

`audit` re-derives the core's pipeline rules and the cache's rules from
`trace.records` (each access is read off its record), `trace.occupancy`,
`trace.mem_events` (the fills, the only memory log), the `.warm` and
`.flush` lines of `trace.program` and the machine config alone; it never
reads the run's `Simulator` or `CacheState`, so a core or cache that
breaks its own bookkeeping shows here. The tests in
`test_core.py` run it over random programs and every scenario cell.
"""

from __future__ import annotations

import collections
from itertools import accumulate

from robsim.core import CoreConfig, MachineConfig
from robsim.isa import ADDRESS_SPACE, UopKind

_WORD = 2**64


def splitmix64_mix(x: int) -> int:
    """SplitMix64's output function on a 64-bit word (Steele, Lea and
    Flood, "Fast Splittable Pseudorandom Number Generators", OOPSLA 2014)."""
    for shift, multiplier in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        x = ((x ^ (x >> shift)) * multiplier) % _WORD
    return x ^ (x >> 31)


def reference_offset(seed: int, line: int, amplitude: int) -> int:
    """The jitter a fresh miss of `line` must get under `seed`, written apart
    from robsim.cache: the mix of the key seed * 2^20 + line (mod 2^64),
    folded onto [-amplitude, amplitude]."""
    return splitmix64_mix((seed * ADDRESS_SPACE + line) % _WORD) % (2 * amplitude + 1) - amplitude


def audit(trace, machine: MachineConfig) -> collections.Counter:
    """Check the pipeline and memory rules of a finished run on `machine`;
    returns the number of fills and of accesses of each outcome."""
    audit_pipeline(trace, machine.core)
    return audit_memory(trace, machine)


def audit_pipeline(trace, core: CoreConfig) -> None:
    """Check the timing rules the `robsim.core` docstring states:

    - each record's stamps are in order, dispatch <= ready <= exec_start <=
      complete < commit, each present only with those before it; a
      NOP-class entry never issues, so is ready and complete at dispatch;
    - each record leaves once: it commits or is squashed, never both, and
      one never dispatched was squashed in the decode queue;
    - only a squash stamps a record's `shadow`, so a committed record has none;
    - a squash is final: no stamp of a squashed record is later than its
      squash cycle, so a consumer squashed in the cycle its last producer
      completes has no ready;
    - a consumer is ready, and so starts, only after each producer in its
      `src` completes;
    - commit is in rob_seq order, at most commit_width per cycle;
    - at most 2 * decode_width dispatch per cycle (the decode queue's size);
    - trace.occupancy[c - 1], sampled at the end of cycle c, equals the
      entries dispatched by c that neither commit nor are squashed by c, and
      never exceeds rob_size.
    """
    cycles = len(trace.occupancy)
    live = [0] * (cycles + 2)  # +1 at dispatch, -1 when the entry leaves
    dispatched: collections.Counter = collections.Counter()
    committed = []
    for e in trace.records:
        dispatch, commit, squash = e.dispatch_cycle, e.commit_cycle, e.squash_cycle
        assert (commit is None) != (squash is None), f"{show(e)} must commit or be squashed"
        if e.uop.kind is UopKind.NOP:
            assert e.exec_start_cycle is None, show(e)
            assert e.ready_cycle == e.complete_cycle == dispatch, show(e)
            stamps = [dispatch, e.ready_cycle, e.complete_cycle, commit]
        else:
            stamps = [dispatch, e.ready_cycle, e.exec_start_cycle, e.complete_cycle, commit]
        present = [s for s in stamps if s is not None]
        assert present == stamps[: len(present)] and present == sorted(present), show(e)
        assert squash is None or all(s <= squash for s in present), show(e)
        if commit is not None:
            assert commit > e.complete_cycle, show(e)
            assert e.shadow is None, f"{show(e)} commits with shadow {e.shadow}"
            committed.append(e)
        if e.ready_cycle is not None:
            for producer in e.src:
                done = None if producer is None else producer.complete_cycle
                assert producer is None or (done is not None and done < e.ready_cycle), (
                    f"{show(e)}: its producer completes at {done}")
        if dispatch is not None:
            dispatched[dispatch] += 1
            live[dispatch] += 1
            live[commit if commit is not None else squash] -= 1
    committed.sort(key=lambda e: e.rob_seq)
    commits = [e.commit_cycle for e in committed]
    assert commits == sorted(commits), "commit out of rob_seq order"
    for counts, bound, what in (
        (collections.Counter(commits), core.commit_width, "commits"),
        (dispatched, 2 * core.decode_width, "dispatches"),
    ):
        over = {cycle: n for cycle, n in counts.items() if n > bound}
        assert not over, f"more than {bound} {what} in a cycle: {over}"
    recount = list(accumulate(live))[1 : cycles + 1]
    if recount != trace.occupancy:
        cycle = next(c for c, (a, b) in enumerate(zip(recount, trace.occupancy), 1) if a != b)
        raise AssertionError(
            f"occupancy at cycle {cycle}: sampled {trace.occupancy[cycle - 1]}, "
            f"recounted {recount[cycle - 1]}"
        )
    assert max(trace.occupancy, default=0) <= core.rob_size


def show(e) -> str:
    """A record's identity and stamps, for a failure message."""
    return (
        f"rob_seq {e.rob_seq} (instr {e.macro.id}.{e.uop.seq}): dispatch {e.dispatch_cycle}, "
        f"ready {e.ready_cycle}, exec_start {e.exec_start_cycle}, complete "
        f"{e.complete_cycle}, commit {e.commit_cycle}, squash {e.squash_cycle}"
    )


def audit_memory(trace, machine: MachineConfig) -> collections.Counter:
    """Check the memory rules of a finished run on `machine`; returns the
    number of fills and of accesses of each outcome.

    The audit walks the run in the core's own order: for each cycle, the
    fills of `trace.mem_events` land, then each deferred hit whose record
    commits that cycle, then the accesses (the records with an outcome) by
    rob_seq. It keeps its own MRU-first sets, primed by the program's
    `.warm` lines and then its `.flush` lines, and its own misses in flight.

    - every accessed line is inside the address space;
    - a hit or deferred hit finds its line resident and takes hit_cycles; a
      hit moves the line to MRU, a deferred hit only when its record
      commits, and only if the line is still resident;
    - a coalesced access finds its line in flight and takes the cycles left
      until that fill;
    - a miss finds its line neither resident nor in flight and takes exactly
      max(miss_cycles + reference_offset(jitter_seed, line,
      jitter_amplitude), 1); the line fills at issue + latency if the run
      lasts so long, at MRU, evicting the LRU line past `ways`;
    - every fill ends exactly one earlier miss;
    - live misses never exceed mshr_entries.
    """
    cache, amp, seed = machine.cache, machine.jitter_amplitude, machine.jitter_seed
    sets: list[list[int]] = [[] for _ in range(cache.num_sets)]

    def ways_of(line: int) -> list[int]:
        return sets[line % cache.num_sets]

    def to_mru(line: int) -> None:
        ways = ways_of(line)
        if line in ways:
            ways.remove(line)
        ways.insert(0, line)
        del ways[cache.ways:]

    for line in trace.program.warm:
        to_mru(line)
    for line in trace.program.flush:
        if line in ways_of(line):
            ways_of(line).remove(line)
    fills = collections.defaultdict(list)
    for event in trace.mem_events:
        assert event.kind == "fill", f"{event}: the memory log holds fills only"
        fills[event.cycle].append(event.address)
    accesses, commits = collections.defaultdict(list), collections.defaultdict(list)
    for e in sorted((e for e in trace.records if e.outcome is not None), key=lambda e: e.rob_seq):
        assert e.exec_start_cycle is not None and e.address is not None, show(e)
        accesses[e.exec_start_cycle].append(e)
        if e.outcome == "deferred_hit" and e.commit_cycle is not None:
            commits[e.commit_cycle].append(e)
    # the run halts in the cycle its last micro-op commits
    end = max((e.commit_cycle for e in trace.records if e.commit_cycle is not None), default=0)
    live: dict[int, int] = {}  # line -> fill cycle of its miss
    kinds: collections.Counter = collections.Counter()
    for cycle in sorted(fills.keys() | accesses.keys() | commits.keys()):
        for line in fills[cycle]:
            kinds["fill"] += 1
            assert live.pop(line, None) == cycle, f"fill of {line} at {cycle} ends no miss"
            to_mru(line)
        for e in commits[cycle]:
            if e.address in ways_of(e.address):
                to_mru(e.address)
        for e in accesses[cycle]:
            line, kind, latency = e.address, e.outcome, e.latency
            kinds[kind] += 1
            where = f"{show(e)}: {kind} of line {line}"
            assert 0 <= line < ADDRESS_SPACE, f"{where}, outside the address space"
            if line in ways_of(line):
                assert kind == "hit" or kind == "deferred_hit", f"{where}, resident"
                assert latency == cache.hit_cycles, f"{where}: latency {latency}"
                if kind == "hit":
                    to_mru(line)
            elif line in live:
                assert kind == "coalesced", f"{where}, in flight"
                assert latency == live[line] - cycle, f"{where}: latency {latency}, {live}"
            else:
                assert kind == "miss", f"{where}, neither resident nor in flight"
                want = max(cache.miss_cycles + reference_offset(seed, line, amp), 1)
                assert latency == want, f"{where}: latency {latency}, its jitter gives {want}"
                live[line] = cycle + latency
                assert cache.mshr_entries is None or len(live) <= cache.mshr_entries, (where, live)
    overdue = {line: fill for line, fill in live.items() if fill <= end}
    assert not overdue, f"misses never filled by cycle {end}: {overdue}"
    return kinds
