"""Configuration of the microarchitectural simulator."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import FrozenSet, Iterable

from .defenses import SimDefense


@dataclass(frozen=True)
class UarchConfig:
    """Parameters of the simulated out-of-order speculative core."""

    # Cache geometry and timing.
    cache_sets: int = 64
    cache_ways: int = 8
    line_size: int = 64
    cache_hit_latency: int = 4
    cache_miss_latency: int = 200
    #: Latency threshold separating a "fast" (hit) probe from a "slow" (miss)
    #: probe in the timing covert channels.
    hit_threshold: int = 80
    #: Execution latency of the multiplier pipe in the timing plane (cycles).
    #: Multi-cycle by default: a long FU occupancy is what makes the shared
    #: multiplier the classic functional-unit contention transmitter.
    mul_latency: int = 4

    # Speculation parameters.
    #: Maximum number of transient instructions executed in one window
    #: (roughly the ROB capacity available past the stalled authorization).
    speculative_window: int = 64
    #: Whether faults raised by transient/illegal accesses are suppressed so
    #: the attacker program keeps running (Meltdown attackers install a
    #: signal handler or use TSX for exactly this purpose).
    suppress_faults: bool = True

    #: Active defenses.
    defenses: FrozenSet[SimDefense] = frozenset()

    #: Maximum instructions executed per :meth:`SpeculativeCPU.run` call.
    max_instructions: int = 100_000

    def with_defenses(self, *defenses: SimDefense) -> "UarchConfig":
        """A copy of this configuration with the given defenses enabled."""
        return replace(self, defenses=frozenset(self.defenses) | set(defenses))

    def has(self, defense: SimDefense) -> bool:
        return defense in self.defenses


DEFAULT_CONFIG = UarchConfig()
