"""The cache-collision channel (hit and operation based).

The attacker primes candidate lines and then times a whole victim operation.
If the victim's secret-dependent access *collides* with (hits on) a line the
attacker pre-loaded, the operation completes faster.  Scanning candidates and
looking for the fastest run reveals which line -- and hence which secret
value -- the victim used.
"""

from __future__ import annotations

from typing import Callable

from ..uarch.cache import SetAssociativeCache
from .base import ChannelObservation


class CacheCollisionChannel:
    """Cache-collision timing against a victim operation.

    ``victim_operation(value_hint)`` runs the victim once and returns its
    cycle count; the victim internally accesses ``table_base + secret*stride``.
    The attacker pre-loads one candidate entry per trial and watches for the
    fast (collision) case.
    """

    def __init__(
        self,
        cache: SetAssociativeCache,
        victim_operation: Callable[[], int],
        *,
        table_base: int,
        entries: int = 256,
        stride: int = 64,
    ) -> None:
        self.cache = cache
        self.victim_operation = victim_operation
        self.table_base = table_base
        self.entries = entries
        self.stride = stride

    def candidate_address(self, value: int) -> int:
        return self.table_base + value * self.stride

    def prime_candidate(self, value: int) -> None:
        """Pre-load the table entry for one candidate secret value."""
        self.cache.access(self.candidate_address(value), partition=0)

    def flush_table(self) -> None:
        self.cache.flush_range(self.table_base, self.entries * self.stride)

    def measure_candidate(self, value: int) -> int:
        """Victim run time with only the candidate entry pre-loaded."""
        self.flush_table()
        self.prime_candidate(value)
        return self.victim_operation()

    def receive(self) -> ChannelObservation:
        """The candidate with the fastest victim run collided with the secret."""
        timings = [self.measure_candidate(value) for value in range(self.entries)]
        best = min(range(self.entries), key=lambda value: timings[value])
        slowest = max(timings)
        if timings[best] >= slowest:
            return ChannelObservation(value=None, latencies=timings)
        return ChannelObservation(value=best, latencies=timings)
