"""Rules audited off a finished run's trace, not off the simulator.

`audit` re-derives the cache's rules from `trace.records`,
`trace.mem_events` and the machine config alone; it never reads the run's
`CacheState`, so a cache that breaks its own table shows here. The tests
in `test_core.py` run it over random programs and every scenario cell.
"""

from __future__ import annotations

import collections

from robsim.core import MachineConfig


def audit(trace, machine: MachineConfig) -> collections.Counter:
    """Check the memory rules of a finished run on `machine`; returns the
    number of memory events of each kind.

    - each access event matches its record by rob_seq: address, issue
      cycle and outcome, and each record with an outcome has one event;
    - a hit or deferred hit takes hit_cycles;
    - a miss takes miss_cycles within the jitter amplitude (never under 1
      cycle), and its line fills at issue + latency if the run lasts so long;
    - a coalesced access takes the cycles left until its line's pending fill;
    - every fill matches exactly one earlier miss;
    - live misses never exceed mshr_entries.
    """
    cache, amp = machine.cache, machine.jitter_amplitude
    lowest, highest = max(cache.miss_cycles - amp, 1), cache.miss_cycles + amp
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
            event, entry)
        latency = entry.latency
        if kind == "hit" or kind == "deferred_hit":
            assert latency == cache.hit_cycles, (event, latency)
        elif kind == "miss":
            assert line not in live, f"{event}: a second miss to a line in flight"
            assert lowest <= latency <= highest, (event, latency)
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
