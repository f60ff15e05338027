"""Main memory, page tables and the MMU permission check.

The memory system is deliberately simple -- a sparse byte store plus a page
table with *present*, *user-accessible* and *writable* bits -- because the
speculative attacks only need (i) data that exists, (ii) a permission check
that can be bypassed transiently, and (iii) the ability to unmap pages
(KPTI / KAISER).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, Optional

PAGE_SIZE = 4096


class Fault(enum.Enum):
    """Faults the MMU can raise on an access."""

    NONE = "no fault"
    NOT_PRESENT = "page not present"
    PRIVILEGE = "supervisor page accessed from user mode"
    READ_ONLY = "write to read-only page"


@dataclass
class PageTableEntry:
    """Permissions of one virtual page."""

    present: bool = True
    user: bool = True
    writable: bool = True

    def copy(self) -> "PageTableEntry":
        return PageTableEntry(self.present, self.user, self.writable)


class PageTable:
    """A flat virtual-page -> permissions map with identity translation."""

    def __init__(self, default_user: bool = True) -> None:
        self._entries: Dict[int, PageTableEntry] = {}
        self._default_user = default_user

    @staticmethod
    def page_of(address: int) -> int:
        return address // PAGE_SIZE

    def entry(self, address: int) -> PageTableEntry:
        """The PTE covering ``address`` (auto-created with default permissions)."""
        page = self.page_of(address)
        if page not in self._entries:
            self._entries[page] = PageTableEntry(user=self._default_user)
        return self._entries[page]

    def map_range(
        self,
        start: int,
        size: int,
        *,
        present: bool = True,
        user: bool = True,
        writable: bool = True,
    ) -> None:
        """Set permissions for every page overlapping ``[start, start+size)``."""
        first = self.page_of(start)
        last = self.page_of(start + max(size, 1) - 1)
        for page in range(first, last + 1):
            self._entries[page] = PageTableEntry(present=present, user=user, writable=writable)

    def unmap_range(self, start: int, size: int) -> None:
        """Mark every page of the range not-present (KPTI-style unmapping)."""
        first = self.page_of(start)
        last = self.page_of(start + max(size, 1) - 1)
        for page in range(first, last + 1):
            entry = self._entries.setdefault(page, PageTableEntry())
            entry.present = False

    def check(self, address: int, *, supervisor: bool, write: bool = False) -> Fault:
        """The MMU permission check (the authorization of Meltdown-type attacks)."""
        entry = self.entry(address)
        if not entry.present:
            return Fault.NOT_PRESENT
        if not entry.user and not supervisor:
            return Fault.PRIVILEGE
        if write and not entry.writable:
            return Fault.READ_ONLY
        return Fault.NONE

    def is_present(self, address: int) -> bool:
        return self.entry(address).present


class MainMemory:
    """A sparse byte-addressable memory."""

    def __init__(self) -> None:
        self._bytes: Dict[int, int] = {}
        self.reads = 0
        self.writes = 0

    def read_byte(self, address: int) -> int:
        self.reads += 1
        return self._bytes.get(address, 0)

    def write_byte(self, address: int, value: int) -> None:
        self.writes += 1
        self._bytes[address] = value & 0xFF

    def read(self, address: int, size: int = 8) -> int:
        """Little-endian read of ``size`` bytes."""
        value = 0
        for offset in range(size):
            value |= self._bytes.get(address + offset, 0) << (8 * offset)
        self.reads += 1
        return value

    def write(self, address: int, value: int, size: int = 8) -> None:
        """Little-endian write of ``size`` bytes."""
        for offset in range(size):
            self._bytes[address + offset] = (value >> (8 * offset)) & 0xFF
        self.writes += 1

    def load_bytes(self, address: int, data: Iterable[int]) -> None:
        """Bulk-initialise memory contents."""
        for offset, byte in enumerate(data):
            self._bytes[address + offset] = byte & 0xFF

    def __contains__(self, address: int) -> bool:
        return address in self._bytes


@dataclass
class MemoryAccess:
    """Result of a checked memory access."""

    value: int
    fault: Fault


class MemorySystem:
    """Memory + page table, with permission-checked accesses."""

    def __init__(
        self,
        memory: Optional[MainMemory] = None,
        page_table: Optional[PageTable] = None,
    ) -> None:
        self.memory = memory if memory is not None else MainMemory()
        self.page_table = page_table if page_table is not None else PageTable()

    def read(self, address: int, size: int = 8, *, supervisor: bool = False) -> MemoryAccess:
        """Permission-checked read.

        The *data* is returned even when the check fails -- mirroring the
        hardware behaviour that Meltdown exploits (the permission check and
        the data read race inside the load instruction).  The caller (the
        pipeline) decides whether the faulting value may be forwarded
        transiently, depending on the configured defenses.
        """
        fault = self.page_table.check(address, supervisor=supervisor, write=False)
        if fault is Fault.NOT_PRESENT:
            # An unmapped page has no data to return, not even transiently --
            # this is exactly why KPTI defeats Meltdown.
            return MemoryAccess(value=0, fault=fault)
        return MemoryAccess(value=self.memory.read(address, size), fault=fault)

    def write(self, address: int, value: int, size: int = 8, *, supervisor: bool = False) -> Fault:
        """Permission-checked write (architectural, non-speculative)."""
        fault = self.page_table.check(address, supervisor=supervisor, write=True)
        if fault is Fault.NONE:
            self.memory.write(address, value, size)
        return fault
