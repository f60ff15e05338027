"""The Flush+Reload channel (hit and access based).

The receiver flushes every entry of a shared probe array, waits for the
sender, then reloads each entry and measures its latency.  A fast (hit)
reload identifies the entry the sender touched, which encodes the secret.
This is the default covert channel of the paper's speculative attacks.
"""

from __future__ import annotations

from typing import Iterable, List, Set

from .base import ChannelObservation, CovertChannel, TimingSurface


class FlushReloadChannel(CovertChannel):
    """Flush+Reload over a shared probe array of ``entries`` page-strided lines.

    One round is two bulk surface calls: :meth:`prepare` flushes the whole
    array with one ``flush_lines`` and :meth:`measure` reloads it with one
    ``probe_lines``; only the sender's :meth:`send` touches a single line.
    """

    def __init__(
        self,
        surface: TimingSurface,
        probe_base: int,
        *,
        entries: int = 256,
        stride: int = 4096,
        hit_threshold: int = 80,
    ) -> None:
        super().__init__(surface, hit_threshold)
        if entries <= 0 or stride <= 0:
            raise ValueError("entries and stride must be positive")
        self.probe_base = probe_base
        self.entries = entries
        self.stride = stride

    def entry_address(self, value: int) -> int:
        """The probe-array address encoding ``value``."""
        if not 0 <= value < self.entries:
            raise ValueError(f"value {value} out of range [0, {self.entries})")
        return self.probe_base + value * self.stride

    def entry_addresses(self) -> range:
        """The probe-array addresses of values ``0 .. entries-1``, in order."""
        return range(
            self.probe_base, self.probe_base + self.entries * self.stride, self.stride
        )

    def prepare(self) -> None:
        """Flush every probe entry (the channel's initial 'absent' state)."""
        self.surface.flush_lines(self.entry_addresses())

    def send(self, value: int) -> None:
        """Sender touches the entry indexed by the secret value."""
        self.surface.touch(self.entry_address(value))

    def measure(self) -> List[int]:
        """Reload every entry and return the measured latencies."""
        return self.surface.probe_lines(self.entry_addresses())

    def receive(self, exclude: Iterable[int] = ()) -> ChannelObservation:
        """Reload the array; the fastest entry below the threshold is the value.

        ``exclude`` lists values the receiver knows were touched
        architecturally (e.g. the committed result of the victim's code) and
        therefore carry no information about the secret.
        """
        latencies = self.measure()
        excluded: Set[int] = set(exclude)
        candidates = [value for value in range(self.entries) if value not in excluded]
        if not candidates:
            return ChannelObservation(value=None, latencies=latencies)
        best_value = min(candidates, key=latencies.__getitem__)
        if latencies[best_value] >= self.hit_threshold:
            return ChannelObservation(value=None, latencies=latencies)
        return ChannelObservation(value=best_value, latencies=latencies)
