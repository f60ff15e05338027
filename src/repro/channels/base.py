"""Covert channel abstractions and the timing surface they operate on.

A cache covert channel needs three capabilities from the hardware it runs on:
flush a list of lines, touch (access) one line as the sender, and measure the
access latency of each line in a list.  The receiver's two steps are bulk
operations, one call per round whatever the probe array's size, in the shape
of a request/response memory port.  Both the raw
:class:`~repro.uarch.cache.SetAssociativeCache` (through
:class:`CacheTimingSurface`) and the full
:class:`~repro.uarch.pipeline.SpeculativeCPU` expose them, so every channel
implementation works standalone in unit tests and end-to-end in the exploits.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterable, List, Optional, Protocol, runtime_checkable


@runtime_checkable
class TimingSurface(Protocol):
    """The minimal interface a covert channel needs."""

    def flush_lines(self, addresses: Iterable[int]) -> None:  # pragma: no cover - protocol
        ...

    def touch(self, address: int) -> None:  # pragma: no cover - protocol
        ...

    def probe_lines(self, addresses: Iterable[int]) -> List[int]:  # pragma: no cover - protocol
        ...


class CacheTimingSurface:
    """Adapter exposing a bare cache as a :class:`TimingSurface`.

    ``sender_partition`` / ``receiver_partition`` model whether sender and
    receiver share the cache domain (they do, unless a DAWG-style partitioned
    cache separates them).
    """

    def __init__(
        self,
        cache,
        sender_partition: int = 0,
        receiver_partition: int = 0,
    ) -> None:
        self.cache = cache
        self.sender_partition = sender_partition
        self.receiver_partition = receiver_partition

    def flush_lines(self, addresses: Iterable[int]) -> None:
        self.cache.flush_lines(addresses)

    def touch(self, address: int) -> None:
        self.cache.access(address, partition=self.sender_partition)

    def probe_lines(self, addresses: Iterable[int]) -> List[int]:
        return self.cache.probe_lines(addresses, self.receiver_partition)


@dataclass
class ChannelObservation:
    """The receiver's measurement: the recovered value and the raw latencies."""

    value: Optional[int]
    latencies: List[int]

    @property
    def detected(self) -> bool:
        return self.value is not None


class CovertChannel(abc.ABC):
    """A micro-architectural covert channel between a sender and a receiver."""

    def __init__(self, surface: TimingSurface, hit_threshold: int = 80) -> None:
        self.surface = surface
        self.hit_threshold = hit_threshold

    @abc.abstractmethod
    def prepare(self) -> None:
        """Receiver's setup step (attack step 1a)."""

    @abc.abstractmethod
    def send(self, value: int) -> None:
        """Sender encodes ``value`` into micro-architectural state (step 4)."""

    @abc.abstractmethod
    def receive(self) -> ChannelObservation:
        """Receiver decodes the value from micro-architectural state (step 5)."""

    def transmit(self, value: int) -> ChannelObservation:
        """Run a full prepare / send / receive round (loopback test helper)."""
        self.prepare()
        self.send(value)
        return self.receive()
