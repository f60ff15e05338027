"""A set-associative cache with timing, flushing and optional partitioning.

This is the shared micro-architectural resource of the paper's covert
channels: a speculatively executed load changes a line's state from absent to
present, the change survives the squash, and the receiver observes it through
access timing.  Partitioning support (a domain tag per line and per-lookup
domain) models DAWG-style isolation; speculative-fill tracking supports
CleanupSpec-style rollback.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple


@dataclass
class CacheLine:
    """One cache line: its tag, owning partition, and LRU timestamp."""

    tag: int
    partition: int = 0
    last_used: int = 0
    speculative: bool = False


@dataclass
class CacheAccess:
    """Result of one cache access."""

    hit: bool
    latency: int
    set_index: int
    evicted_tag: Optional[int] = None


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    flushes: int = 0
    fills: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class SetAssociativeCache:
    """An LRU set-associative cache with per-line partition (domain) tags."""

    def __init__(
        self,
        sets: int = 64,
        ways: int = 8,
        line_size: int = 64,
        hit_latency: int = 4,
        miss_latency: int = 200,
    ) -> None:
        if sets <= 0 or ways <= 0 or line_size <= 0:
            raise ValueError("cache geometry must be positive")
        if line_size & (line_size - 1):
            raise ValueError("line size must be a power of two")
        self.sets = sets
        self.ways = ways
        self.line_size = line_size
        self.hit_latency = hit_latency
        self.miss_latency = miss_latency
        self._lines: List[List[CacheLine]] = [[] for _ in range(sets)]
        self._clock = 0
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    # Address mapping
    # ------------------------------------------------------------------
    def line_address(self, address: int) -> int:
        return address - (address % self.line_size)

    def set_index(self, address: int) -> int:
        return (address // self.line_size) % self.sets

    def tag(self, address: int) -> int:
        return address // self.line_size // self.sets

    # ------------------------------------------------------------------
    # Lookup / access
    # ------------------------------------------------------------------
    def _find(self, address: int, partition: int) -> Optional[CacheLine]:
        target_tag = self.tag(address)
        for line in self._lines[self.set_index(address)]:
            if line.tag == target_tag and line.partition == partition:
                return line
        return None

    def contains(self, address: int, partition: int = 0) -> bool:
        """Presence check without any state change (no LRU update)."""
        return self._find(address, partition) is not None

    def access(
        self,
        address: int,
        partition: int = 0,
        *,
        fill: bool = True,
        speculative: bool = False,
    ) -> CacheAccess:
        """Access the line containing ``address``.

        A hit refreshes LRU state; a miss optionally fills the line (evicting
        the LRU way of the set).  ``speculative`` marks the fill so it can be
        rolled back by :meth:`invalidate_speculative` (CleanupSpec).
        """
        self._clock += 1
        set_index = self.set_index(address)
        line = self._find(address, partition)
        if line is not None:
            line.last_used = self._clock
            self.stats.hits += 1
            return CacheAccess(hit=True, latency=self.hit_latency, set_index=set_index)
        self.stats.misses += 1
        evicted: Optional[int] = None
        if fill:
            evicted = self._fill(address, partition, speculative)
        return CacheAccess(
            hit=False, latency=self.miss_latency, set_index=set_index, evicted_tag=evicted
        )

    def _fill(self, address: int, partition: int, speculative: bool) -> Optional[int]:
        self.stats.fills += 1
        set_lines = self._lines[self.set_index(address)]
        evicted_tag: Optional[int] = None
        # Way allocation is per partition (DAWG-style): a fill only evicts
        # lines of its own partition, so one domain cannot displace another's.
        same_partition = [line for line in set_lines if line.partition == partition]
        if len(same_partition) >= self.ways:
            victim = min(same_partition, key=lambda line: line.last_used)
            set_lines.remove(victim)
            evicted_tag = victim.tag
        set_lines.append(
            CacheLine(
                tag=self.tag(address),
                partition=partition,
                last_used=self._clock,
                speculative=speculative,
            )
        )
        return evicted_tag

    def touch(self, address: int, partition: int = 0) -> None:
        """Bring a line into the cache without reporting timing (warm-up helper)."""
        self.access(address, partition=partition)

    def probe_lines(self, addresses: Iterable[int], partition: int = 0) -> List[int]:
        """The latency of a non-filling :meth:`access` to each address, in order.

        The bulk receive path of the covert channels: the clock ticks once
        per address, a hit refreshes the line's LRU stamp and a miss fills
        nothing, exactly as ``access(address, partition, fill=False)`` would,
        but without a :class:`CacheAccess` or a method call per address.
        """
        line_size, sets, lines = self.line_size, self.sets, self._lines
        hit_latency, miss_latency = self.hit_latency, self.miss_latency
        clock = self._clock
        hits = 0
        latencies: List[int] = []
        for address in addresses:
            clock += 1
            line_number = address // line_size
            tag = line_number // sets
            for line in lines[line_number % sets]:
                if line.tag == tag and line.partition == partition:
                    line.last_used = clock
                    hits += 1
                    latencies.append(hit_latency)
                    break
            else:
                latencies.append(miss_latency)
        self._clock = clock
        self.stats.hits += hits
        self.stats.misses += len(latencies) - hits
        return latencies

    # ------------------------------------------------------------------
    # Flushing and rollback
    # ------------------------------------------------------------------
    def flush_lines(self, addresses: Iterable[int]) -> None:
        """Evict the line of each address from every partition (one clflush each).

        Every address counts one flush; each touched set is filtered once.
        """
        line_size, sets = self.line_size, self.sets
        doomed: Dict[int, Set[int]] = defaultdict(set)
        count = 0
        for address in addresses:
            line_number = address // line_size
            doomed[line_number % sets].add(line_number // sets)
            count += 1
        self.stats.flushes += count
        lines = self._lines
        for set_index, tags in doomed.items():
            lines[set_index] = [line for line in lines[set_index] if line.tag not in tags]

    def flush_address(self, address: int) -> None:
        """Evict the line containing ``address`` from every partition (clflush)."""
        self.flush_lines((address,))

    def flush_range(self, start: int, size: int) -> None:
        """Flush every line overlapping ``[start, start+size)``."""
        self.flush_lines(range(self.line_address(start), start + size, self.line_size))

    def flush_all(self) -> None:
        self.stats.flushes += 1
        self._lines = [[] for _ in range(self.sets)]

    def invalidate_speculative(self, addresses: Optional[Set[int]] = None) -> int:
        """Remove speculative fills (CleanupSpec rollback).  Returns lines removed."""
        removed = 0
        for index, set_lines in enumerate(self._lines):
            kept = []
            for line in set_lines:
                is_target = line.speculative and (
                    addresses is None
                    or any(
                        self.set_index(address) == index and self.tag(address) == line.tag
                        for address in addresses
                    )
                )
                if is_target:
                    removed += 1
                else:
                    kept.append(line)
            self._lines[index] = kept
        return removed

    def commit_speculative(self) -> None:
        """Clear the speculative mark on every line (speculation validated)."""
        for set_lines in self._lines:
            for line in set_lines:
                line.speculative = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def occupancy(self) -> int:
        """Number of valid lines currently cached."""
        return sum(len(set_lines) for set_lines in self._lines)

    def resident_addresses_in_set(self, set_index: int) -> List[Tuple[int, int]]:
        """(tag, partition) pairs of the lines in one set (for Prime+Probe tests)."""
        return [(line.tag, line.partition) for line in self._lines[set_index]]
