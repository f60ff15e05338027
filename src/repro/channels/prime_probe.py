"""The Prime+Probe channel (miss and access based).

The receiver fills ("primes") cache sets with its own lines, waits for the
sender, then re-accesses ("probes") its lines.  A slow probe means the sender
evicted one of the receiver's lines from that set, so the secret is encoded
in *which set* the sender touched.  Unlike Flush+Reload it requires no shared
memory between sender and receiver.
"""

from __future__ import annotations

from ..uarch.cache import SetAssociativeCache
from .base import ChannelObservation, CovertChannel


class PrimeProbeChannel(CovertChannel):
    """Prime+Probe over the sets of a :class:`SetAssociativeCache`.

    The channel works directly against the cache (not the generic timing
    surface) because priming requires knowledge of the set mapping.
    Values in ``[0, sets)`` are encoded as "the sender touches a line mapping
    to set ``value``".
    """

    def __init__(
        self,
        cache: SetAssociativeCache,
        *,
        attacker_base: int = 0x4000_0000,
        victim_base: int = 0x8000_0000,
        sender_partition: int = 0,
        receiver_partition: int = 0,
        hit_threshold: int = 80,
    ) -> None:
        super().__init__(surface=None, hit_threshold=hit_threshold)  # type: ignore[arg-type]
        self.cache = cache
        self.attacker_base = attacker_base
        self.victim_base = victim_base
        self.sender_partition = sender_partition
        self.receiver_partition = receiver_partition

    # ------------------------------------------------------------------
    def _attacker_address(self, set_index: int, way: int) -> int:
        """An attacker-owned address mapping to the given set."""
        stride = self.cache.sets * self.cache.line_size
        return self.attacker_base + way * stride + set_index * self.cache.line_size

    def _victim_address(self, value: int) -> int:
        """A victim address whose set index encodes ``value``."""
        return self.victim_base + (value % self.cache.sets) * self.cache.line_size

    # ------------------------------------------------------------------
    def prepare(self) -> None:
        """Prime: fill every way of every set with attacker lines."""
        for set_index in range(self.cache.sets):
            for way in range(self.cache.ways):
                self.cache.access(
                    self._attacker_address(set_index, way),
                    partition=self.receiver_partition,
                )

    def send(self, value: int) -> None:
        """Sender touches a line in the set encoding ``value``, evicting the attacker."""
        self.cache.access(self._victim_address(value), partition=self.sender_partition)

    def receive(self) -> ChannelObservation:
        """Probe every set; the slowest set is where the sender evicted a line.

        One non-filling ``probe_lines`` pass re-accesses the attacker's lines
        set by set; a set's latency is the sum over its ways.
        """
        sets, ways = self.cache.sets, self.cache.ways
        probed = self.cache.probe_lines(
            (
                self._attacker_address(set_index, way)
                for set_index in range(sets)
                for way in range(ways)
            ),
            self.receiver_partition,
        )
        latencies = [sum(probed[at : at + ways]) for at in range(0, sets * ways, ways)]
        best_set = max(range(sets), key=latencies.__getitem__)
        baseline = min(latencies)
        if latencies[best_set] <= baseline:
            return ChannelObservation(value=None, latencies=latencies)
        return ChannelObservation(value=best_set, latencies=latencies)
