"""The per-line cache references the bulk probe and flush are tested against.

:meth:`~repro.uarch.cache.SetAssociativeCache.flush_lines` and
:meth:`~repro.uarch.cache.SetAssociativeCache.probe_lines` let a covert
channel flush and reload a whole probe array in one call each.  They must
leave exactly the state of doing it one line at a time: the same latencies,
the same lines in every set, the same LRU clock and the same
:class:`~repro.uarch.cache.CacheStats`.  This module keeps the one-line-at-a-time
originals as the oracle: :func:`flush_address` is the single-line clflush
body verbatim, and :func:`probe` is one non-filling ``access``.  Do not
modernize them; their whole value is that they did not change when the
production cache did.  The differential tests in ``test_uarch_properties.py``
and ``test_exploits.py`` hold the two equal.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.channels.flush_reload import FlushReloadChannel
from repro.channels.prime_probe import PrimeProbeChannel


def flush_address(cache, address: int) -> None:
    """Evict the line containing ``address`` from every partition (clflush)."""
    cache.stats.flushes += 1
    target_tag = cache.tag(address)
    set_lines = cache._lines[cache.set_index(address)]
    cache._lines[cache.set_index(address)] = [
        line for line in set_lines if line.tag != target_tag
    ]


def flush_range(cache, start: int, size: int) -> None:
    """Flush every line overlapping ``[start, start+size)``, one at a time."""
    address = cache.line_address(start)
    while address < start + size:
        flush_address(cache, address)
        address += cache.line_size


def probe(cache, address: int, partition: int) -> int:
    """One timed, non-filling receiver access."""
    return cache.access(address, partition=partition, fill=False).latency


def cache_state(cache) -> Tuple[object, ...]:
    """Everything a flush or a probe may change, in comparable form."""
    stats = cache.stats
    return (
        [
            [(line.tag, line.partition, line.last_used, line.speculative) for line in lines]
            for lines in cache._lines
        ],
        cache._clock,
        (stats.hits, stats.misses, stats.flushes, stats.fills),
    )


class PerLineFlushReload(FlushReloadChannel):
    """Flush+Reload that flushes and reloads its probe array line by line.

    Works on any surface with a ``cache`` and a ``receiver_partition``: a
    :class:`~repro.channels.base.CacheTimingSurface` or a
    :class:`~repro.uarch.pipeline.SpeculativeCPU`.  The partition is read
    once per line, as the per-line surfaces did.
    """

    def prepare(self) -> None:
        for value in range(self.entries):
            flush_address(self.surface.cache, self.entry_address(value))

    def measure(self) -> List[int]:
        return [
            probe(self.surface.cache, self.entry_address(value), self.surface.receiver_partition)
            for value in range(self.entries)
        ]


def prime_probe_latencies(channel: PrimeProbeChannel) -> List[int]:
    """Prime+Probe's per-set receive latencies, probing one way at a time."""
    cache = channel.cache
    return [
        sum(
            probe(cache, channel._attacker_address(set_index, way), channel.receiver_partition)
            for way in range(cache.ways)
        )
        for set_index in range(cache.sets)
    ]
