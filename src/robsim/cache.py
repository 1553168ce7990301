"""Single-level data cache with MSHRs and LRU replacement.

Addresses are line-granular: an address *is* a line tag, and its set index is
`addr % num_sets`. Tag lists are kept MRU-first. A miss allocates an MSHR and
schedules a fill; the tag is inserted (evicting the LRU way) only when the
fill completes, so a line that was resident at issue time still hits while a
conflicting fill is in flight. Replacement updates can be suppressed at access
time and applied later via `touch`, which is how the core defers the cache
side effects of speculative hits until commit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple


def require_integers(config: object, names: tuple[str, ...]) -> None:
    """Refuse a config whose field of any of `names` is not an int: a float
    width or latency runs the machine on fractions, and a bool is no count."""
    for name in names:
        value = getattr(config, name)
        if type(value) is not int:
            raise TypeError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class CacheConfig:
    num_sets: int = 64
    ways: int = 1
    hit_cycles: int = 3
    miss_cycles: int = 60
    mshr_entries: int | None = 10  # None means unbounded

    def __post_init__(self) -> None:
        require_integers(self, ("num_sets", "ways", "hit_cycles", "miss_cycles"))
        if self.mshr_entries is not None:
            require_integers(self, ("mshr_entries",))
        if self.num_sets < 1 or self.ways < 1:
            raise ValueError("cache geometry must be positive")
        if self.hit_cycles < 1 or self.miss_cycles <= self.hit_cycles:
            raise ValueError("need 1 <= hit_cycles < miss_cycles")
        if self.mshr_entries is not None and self.mshr_entries < 1:
            raise ValueError("mshr_entries must be positive or None")


class AccessOutcome(enum.Enum):
    HIT = "hit"
    MISS = "miss"
    MSHR_STALL = "mshr_stall"


class AccessResult(NamedTuple):
    outcome: AccessOutcome
    latency: int
    fill_cycle: int | None = None
    coalesced: bool = False


@dataclass
class _Mshr:
    addr: int
    fill_cycle: int


@dataclass
class CacheState:
    config: CacheConfig
    sets: list[list[int]] = field(init=False)
    mshrs: list[_Mshr] = field(init=False, default_factory=list)
    hits: int = 0
    misses: int = 0
    mshr_stalls: int = 0
    coalesced_misses: int = 0

    def __post_init__(self) -> None:
        self.sets = [[] for _ in range(self.config.num_sets)]

    def set_index(self, addr: int) -> int:
        return addr % self.config.num_sets

    def resident(self, addr: int) -> bool:
        return addr in self.sets[self.set_index(addr)]

    def in_flight(self, addr: int) -> _Mshr | None:
        for entry in self.mshrs:
            if entry.addr == addr:
                return entry
        return None

    def access(
        self,
        addr: int,
        cycle: int,
        deferred_effects: bool = False,
        extra_latency: int = 0,
    ) -> AccessResult:
        """One load/store port transaction at `cycle`.

        Hits return hit_cycles and move the line to MRU. With
        deferred_effects=True the replacement update is suppressed; the
        caller applies it later via touch() (or never, if squashed).
        Misses allocate an MSHR and schedule a fill; a second miss to an
        in-flight line coalesces onto the existing MSHR with the remaining
        latency. With all MSHRs busy the access is rejected (MSHR_STALL)
        and the caller retries on a later cycle. extra_latency perturbs a
        fresh miss only (seeded jitter lives in the caller); the effective
        miss latency never drops below 1.
        """
        way_list = self.sets[self.set_index(addr)]
        if addr in way_list:
            self.hits += 1
            if not deferred_effects:
                way_list.remove(addr)
                way_list.insert(0, addr)
            return AccessResult(AccessOutcome.HIT, self.config.hit_cycles)
        pending = self.in_flight(addr)
        if pending is not None:
            self.coalesced_misses += 1
            remaining = max(pending.fill_cycle - cycle, 1)
            return AccessResult(
                AccessOutcome.MISS, remaining, pending.fill_cycle, coalesced=True
            )
        capacity = self.config.mshr_entries
        if capacity is not None and len(self.mshrs) >= capacity:
            self.mshr_stalls += 1
            return AccessResult(AccessOutcome.MSHR_STALL, 0)
        self.misses += 1
        latency = max(self.config.miss_cycles + extra_latency, 1)
        fill_cycle = cycle + latency
        self.mshrs.append(_Mshr(addr, fill_cycle))
        return AccessResult(AccessOutcome.MISS, latency, fill_cycle)

    def process_fills(self, cycle: int) -> list[int]:
        """Complete fills due at or before `cycle`; returns filled addresses."""
        due = [m for m in self.mshrs if m.fill_cycle <= cycle]
        if not due:
            return []
        due.sort(key=lambda m: m.fill_cycle)  # stable: ties fill in allocation order
        filled = []
        for entry in due:
            self.mshrs.remove(entry)
            self._insert(entry.addr)
            filled.append(entry.addr)
        return filled

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
