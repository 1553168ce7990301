"""Single-level data cache with MSHRs and LRU replacement.

Addresses are line-granular: an address *is* a line tag, and its set index is
`addr % num_sets`. Tag lists are kept MRU-first. A miss allocates an MSHR and
schedules a fill; the tag is inserted (evicting the LRU way) only when the
fill completes, so a line that was resident at issue time still hits while a
conflicting fill is in flight. Replacement updates can be suppressed at access
time and applied later via `touch`, which is how the core defers the cache
side effects of speculative hits until commit.

The miss table `mshrs` maps each line in flight to its fill cycle, in
allocation order; `next_fill` is its earliest fill cycle (`NO_FILL` when it
is empty), kept up to date by `access` and `process_fills`. `access` names
its outcome with the trace's own word:

* `hit`: the line is resident and moves to MRU;
* `deferred_hit`: a hit whose replacement update is left to `touch`;
* `miss`: a fresh MSHR allocation, its fill scheduled;
* `coalesced`: the line is in flight; the access waits for that fill;
* `mshr_stall`: every MSHR is busy; the access is refused and the caller
  retries it, so no trace holds this word.

Miss jitter is decided only where a miss allocates its MSHR: at amplitude
a > 0 a fresh miss of `line` takes `max(miss_cycles + miss_offset(
jitter_seed, line, a), 1)` cycles, `miss_offset` being the SplitMix64
finalizer z of `(jitter_seed * 2**20 + line) mod 2**64` folded as
`z % (2a + 1) - a`: a pure function of seed and line, which no earlier
hit, coalesced access or refused retry moves.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

NO_FILL = sys.maxsize  # next_fill of an empty miss table: past every cycle
_MASK64 = (1 << 64) - 1


def miss_offset(seed: int, line: int, amplitude: int) -> int:
    """The jitter of a fresh miss of `line` under `seed`, in [-amplitude,
    amplitude] (see the module docstring)."""
    z = (seed * 2**20 + line) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) % (2 * amplitude + 1) - amplitude


def require_integer(value: object, name: str) -> int:
    """`value` when it is an int, else a TypeError naming `name`: a float
    width or latency runs the machine on fractions, a bool is no count, and
    YAML reads 2.7, true and "3" as a float, a bool and a str."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return value


def refuse_unknown_keys(mapping, known, label: str) -> None:
    """A ValueError naming every key of `mapping` not in `known`."""
    unknown = set(mapping).difference(known)
    if unknown:
        raise ValueError(f"unknown {label} keys: {', '.join(sorted(map(str, unknown)))}")


@dataclass(frozen=True)
class CacheConfig:
    num_sets: int = 64
    ways: int = 1
    hit_cycles: int = 3
    miss_cycles: int = 60
    mshr_entries: int | None = 10  # None means unbounded

    def __post_init__(self) -> None:
        for name in ("num_sets", "ways", "hit_cycles", "miss_cycles"):
            require_integer(getattr(self, name), name)
        if self.mshr_entries is not None:
            require_integer(self.mshr_entries, "mshr_entries")
        if self.num_sets < 1 or self.ways < 1:
            raise ValueError("cache geometry must be positive")
        if self.hit_cycles < 1 or self.miss_cycles <= self.hit_cycles:
            raise ValueError("need 1 <= hit_cycles < miss_cycles")
        if self.mshr_entries is not None and self.mshr_entries < 1:
            raise ValueError("mshr_entries must be positive or None")


@dataclass
class CacheState:
    config: CacheConfig
    sets: list[list[int]] = field(init=False)
    mshrs: dict[int, int] = field(init=False, default_factory=dict)  # line -> fill cycle
    next_fill: int = field(init=False, default=NO_FILL)
    hits: int = 0
    misses: int = 0
    mshr_stalls: int = 0
    coalesced_misses: int = 0
    jitter_amplitude: int = 0  # 0: every miss takes miss_cycles exactly
    jitter_seed: int = 0

    def __post_init__(self) -> None:
        self.sets = [[] for _ in range(self.config.num_sets)]

    def set_index(self, addr: int) -> int:
        return addr % self.config.num_sets

    def resident(self, addr: int) -> bool:
        return addr in self.sets[self.set_index(addr)]

    def access(self, addr: int, cycle: int, deferred_effects: bool = False) -> tuple[str, int]:
        """One load/store port transaction at `cycle`: (outcome, latency),
        in the words of the module docstring. With deferred_effects a hit
        leaves its replacement update to touch() (or to nobody, if
        squashed). An mshr_stall takes 0 cycles; the caller retries later.
        Only a fresh miss is jittered, by miss_offset(jitter_seed, addr,
        jitter_amplitude), and never drops below 1 cycle."""
        way_list = self.sets[self.set_index(addr)]
        if addr in way_list:
            self.hits += 1
            if deferred_effects:
                return "deferred_hit", self.config.hit_cycles
            way_list.remove(addr)
            way_list.insert(0, addr)
            return "hit", self.config.hit_cycles
        fill_cycle = self.mshrs.get(addr)
        if fill_cycle is not None:
            self.coalesced_misses += 1
            return "coalesced", max(fill_cycle - cycle, 1)
        capacity = self.config.mshr_entries
        if capacity is not None and len(self.mshrs) >= capacity:
            self.mshr_stalls += 1
            return "mshr_stall", 0
        self.misses += 1
        latency = self.config.miss_cycles
        if self.jitter_amplitude:
            latency = max(latency + miss_offset(self.jitter_seed, addr, self.jitter_amplitude), 1)
        fill_cycle = self.mshrs[addr] = cycle + latency
        if fill_cycle < self.next_fill:
            self.next_fill = fill_cycle
        return "miss", latency

    def process_fills(self, cycle: int) -> list[int]:
        """Complete the fills due at or before `cycle`, by fill cycle and
        then in allocation order; returns the filled lines."""
        mshrs = self.mshrs
        due = sorted((line for line, fill in mshrs.items() if fill <= cycle), key=mshrs.get)
        for line in due:
            del mshrs[line]
            self._insert(line)
        self.next_fill = min(mshrs.values(), default=NO_FILL)
        return due

    def _insert(self, addr: int) -> None:
        way_list = self.sets[self.set_index(addr)]
        if addr in way_list:
            way_list.remove(addr)
        way_list.insert(0, addr)
        while len(way_list) > self.config.ways:
            way_list.pop()  # evict LRU

    def touch(self, addr: int) -> None:
        """Apply a deferred replacement update; no-op if the line is gone."""
        way_list = self.sets[self.set_index(addr)]
        if addr in way_list:
            way_list.remove(addr)
            way_list.insert(0, addr)

    def warm(self, addr: int) -> None:
        """Pre-load a line (scenario setup), as if filled before cycle 0."""
        self._insert(addr)

    def flush(self, addr: int) -> None:
        way_list = self.sets[self.set_index(addr)]
        if addr in way_list:
            way_list.remove(addr)

    def snapshot_set(self, set_index: int) -> list[int]:
        """Ordered (MRU-first) tags of one set; the set-order receiver reads this."""
        return list(self.sets[set_index])
