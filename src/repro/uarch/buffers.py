"""Micro-architectural buffers: store buffer, line fill buffer, load port.

These buffers are the secret sources of the MDS attack family (Figure 4):
Fallout samples the store buffer, RIDL the load ports and line fill buffers,
ZombieLoad the line fill buffers.  The store buffer is also the structure
whose delayed address resolution Spectre v4 exploits.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple


@dataclass
class StoreBufferEntry:
    """A store waiting to drain to memory."""

    sequence: int
    value: int
    size: int = 8
    #: The architectural address once resolved; ``None`` while the address
    #: computation is still delayed (the Spectre v4 window).
    address: Optional[int] = None

    @property
    def resolved(self) -> bool:
        return self.address is not None


class StoreBuffer:
    """In-order buffer of not-yet-drained stores."""

    def __init__(self, capacity: int = 32) -> None:
        self.capacity = capacity
        self._entries: List[StoreBufferEntry] = []
        self._sequence = 0

    def add(self, value: int, size: int = 8, address: Optional[int] = None) -> StoreBufferEntry:
        if len(self._entries) >= self.capacity:
            self._entries.pop(0)
        self._sequence += 1
        entry = StoreBufferEntry(
            sequence=self._sequence, value=value, size=size, address=address
        )
        self._entries.append(entry)
        return entry

    def resolve(self, entry: StoreBufferEntry, address: int) -> None:
        entry.address = address

    def has_unresolved(self) -> bool:
        return any(not entry.resolved for entry in self._entries)

    def unresolved_entries(self) -> List[StoreBufferEntry]:
        return [entry for entry in self._entries if not entry.resolved]

    def forward(self, address: int) -> Optional[StoreBufferEntry]:
        """Youngest resolved store to ``address`` (store-to-load forwarding)."""
        for entry in reversed(self._entries):
            if entry.resolved and entry.address == address:
                return entry
        return None

    def latest_values(self, count: int = 4) -> List[int]:
        """Most recent buffered values (what Fallout can sample)."""
        return [entry.value for entry in self._entries[-count:]]

    def drain(self) -> List[StoreBufferEntry]:
        """Remove and return every resolved entry (they are written to memory)."""
        drained = [entry for entry in self._entries if entry.resolved]
        self._entries = [entry for entry in self._entries if not entry.resolved]
        return drained

    def __len__(self) -> int:
        return len(self._entries)


class LineFillBuffer:
    """Recently filled cache lines, with their (possibly stale) data.

    Real line fill buffers keep in-flight data across privilege domains,
    which is what ZombieLoad and RIDL sample.  We keep the last ``capacity``
    filled line addresses and a small data snippet for each.
    """

    def __init__(self, capacity: int = 12) -> None:
        self.capacity = capacity
        self._entries: Deque[Tuple[int, int]] = deque(maxlen=capacity)

    def record_fill(self, line_address: int, value: int) -> None:
        self._entries.append((line_address, value))

    def stale_values(self) -> List[int]:
        """Values an MDS-style faulting load could sample."""
        return [value for _, value in self._entries]

    def most_recent(self) -> Optional[int]:
        return self._entries[-1][1] if self._entries else None

    def clear(self) -> None:
        """Flush the buffer (the VERW-style MDS mitigation)."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


class LoadPort:
    """The last value that crossed each load port (RIDL's other source)."""

    def __init__(self, ports: int = 2) -> None:
        self.ports = ports
        self._last: Dict[int, int] = {}
        self._next_port = 0

    def record(self, value: int) -> None:
        self._last[self._next_port] = value
        self._next_port = (self._next_port + 1) % self.ports

    def stale_values(self) -> List[int]:
        return list(self._last.values())

    def clear(self) -> None:
        self._last.clear()
