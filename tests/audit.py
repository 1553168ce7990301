"""Rules audited off a finished run's trace, not off the simulator.

`audit` re-derives the core's pipeline rules and the cache's rules from
`trace.records`, `trace.occupancy`, `trace.mem_events` and the machine
config alone; it never reads the run's `Simulator` or `CacheState`, so a
core or cache that breaks its own bookkeeping shows here. The tests in
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
    returns the number of memory events of each kind."""
    audit_pipeline(trace, machine.core)
    return audit_memory(trace, machine)


def audit_pipeline(trace, core: CoreConfig) -> None:
    """Check the timing rules the `robsim.core` docstring states:

    - each record's stamps are in order, dispatch <= ready <= exec_start <=
      complete < commit, each present only with those before it; a
      NOP-class entry never issues, so is ready and complete at dispatch;
    - each record leaves once: it commits or is squashed, never both, and
      one never dispatched was squashed in the decode queue;
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
    number of memory events of each kind.

    - each access event matches its record by rob_seq: address, issue
      cycle and outcome, and each record with an outcome has one event;
    - every accessed line is inside the address space;
    - a hit or deferred hit takes hit_cycles;
    - a miss of a line takes exactly max(miss_cycles + reference_offset(
      jitter_seed, line, jitter_amplitude), 1), and the line fills at issue +
      latency if the run lasts so long;
    - a coalesced access takes the cycles left until its line's pending fill;
    - every fill matches exactly one earlier miss;
    - live misses never exceed mshr_entries.
    """
    cache, amp, seed = machine.cache, machine.jitter_amplitude, machine.jitter_seed
    accesses = {e.rob_seq: e for e in trace.records if e.outcome is not None}
    # the run halts in the cycle its last micro-op commits
    end = max((e.commit_cycle for e in trace.records if e.commit_cycle is not None), default=0)
    live: dict[int, int] = {}  # line -> fill cycle of its miss
    kinds: collections.Counter = collections.Counter()
    for event in trace.mem_events:
        cycle, line, kind = event.cycle, event.address, event.kind
        kinds[kind] += 1
        if kind == "fill":
            assert live.pop(line, None) == cycle, f"fill of {line} at {cycle} ends no miss"
            continue
        entry = accesses.pop(event.rob_seq, None)
        assert entry is not None, f"{event} has no record, or a second event"
        assert (entry.address, entry.exec_start_cycle, entry.outcome) == (line, cycle, kind), (
            event, show(entry))
        assert 0 <= line < ADDRESS_SPACE, f"{event}: outside the address space"
        latency = entry.latency
        if kind == "hit" or kind == "deferred_hit":
            assert latency == cache.hit_cycles, (event, latency)
        elif kind == "miss":
            assert line not in live, f"{event}: a second miss to a line in flight"
            want = max(cache.miss_cycles + reference_offset(seed, line, amp), 1)
            assert latency == want, f"{event}: latency {latency}, the line's jitter gives {want}"
            live[line] = cycle + latency
            assert cache.mshr_entries is None or len(live) <= cache.mshr_entries, (event, live)
        elif kind == "coalesced":
            assert line in live and latency == live[line] - cycle, (event, latency, live)
        else:
            raise AssertionError(f"{event}: no such access outcome")
    assert not accesses, f"accesses without an event: {sorted(accesses)}"
    overdue = {line: fill for line, fill in live.items() if fill <= end}
    assert not overdue, f"misses never filled by cycle {end}: {overdue}"
    return kinds
