"""Programs: instruction sequences plus a data-symbol layout.

A :class:`Program` is what the attack-graph construction tool analyses and
what the out-of-order pipeline executes.  Besides the instruction list it
carries a small data layout (named symbols mapped to addresses and sizes) and
an optional set of *protected* symbols -- the memory the user marks as secret
or sensitive, which is the starting point of the Section V-C tool flow.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .instructions import Instruction
from .operands import MemoryOperand


@dataclass(frozen=True)
class DataSymbol:
    """A named data region in the program's address space."""

    name: str
    address: int
    size: int = 8
    #: Initial contents (byte values); unspecified bytes default to zero.
    initial: Tuple[int, ...] = ()
    #: ``True`` when the user marks this region as secret / sensitive.
    protected: bool = False
    #: ``True`` when the region belongs to the kernel / supervisor domain.
    kernel: bool = False
    #: ``True`` when the region is shared between attacker and victim
    #: (a requirement for the Flush+Reload channel).
    shared: bool = False

    def contains(self, address: int) -> bool:
        return self.address <= address < self.address + self.size

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.name}@{self.address:#x}[{self.size}]"


class ProgramError(ValueError):
    """Raised for malformed programs (duplicate labels, unknown symbols, ...)."""


class Program:
    """An instruction sequence with labels and a data layout."""

    def __init__(
        self,
        name: str = "program",
        instructions: Optional[Iterable[Instruction]] = None,
        symbols: Optional[Iterable[DataSymbol]] = None,
    ) -> None:
        self._name = name
        self._instructions: List[Instruction] = []
        self._labels: Dict[str, int] = {}
        self._symbols: Dict[str, DataSymbol] = {}
        #: Bumped on every mutation; invalidates the cached content hash.
        self._version = 0
        self._hash_version = -1
        self._hash_cache: Optional[str] = None
        for symbol in symbols or ():
            self.add_symbol(symbol)
        for instruction in instructions or ():
            self.append(instruction)

    @property
    def name(self) -> str:
        return self._name

    @name.setter
    def name(self, value: str) -> None:
        # Renames count as mutations: the name is part of the fingerprint,
        # so the cached content hash must be invalidated.
        self._name = value
        self._version += 1

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def append(self, instruction: Instruction) -> int:
        """Append an instruction, registering its label; returns its index."""
        index = len(self._instructions)
        if instruction.label is not None:
            if instruction.label in self._labels:
                raise ProgramError(f"duplicate label {instruction.label!r}")
            self._labels[instruction.label] = index
        self._instructions.append(instruction)
        self._version += 1
        return index

    def extend(self, instructions: Iterable[Instruction]) -> None:
        for instruction in instructions:
            self.append(instruction)

    def add_symbol(self, symbol: DataSymbol) -> DataSymbol:
        if symbol.name in self._symbols:
            raise ProgramError(f"duplicate data symbol {symbol.name!r}")
        for existing in self._symbols.values():
            overlap = (
                symbol.address < existing.address + existing.size
                and existing.address < symbol.address + symbol.size
            )
            if overlap:
                raise ProgramError(
                    f"symbol {symbol.name!r} overlaps {existing.name!r}"
                )
        self._symbols[symbol.name] = symbol
        self._version += 1
        return symbol

    def declare(
        self,
        name: str,
        address: int,
        size: int = 8,
        *,
        initial: Sequence[int] = (),
        protected: bool = False,
        kernel: bool = False,
        shared: bool = False,
    ) -> DataSymbol:
        """Convenience wrapper around :meth:`add_symbol`."""
        return self.add_symbol(
            DataSymbol(
                name=name,
                address=address,
                size=size,
                initial=tuple(initial),
                protected=protected,
                kernel=kernel,
                shared=shared,
            )
        )

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self._instructions)

    def __getitem__(self, index: int) -> Instruction:
        return self._instructions[index]

    @property
    def instructions(self) -> List[Instruction]:
        return list(self._instructions)

    @property
    def labels(self) -> Dict[str, int]:
        return dict(self._labels)

    @property
    def symbols(self) -> Dict[str, DataSymbol]:
        return dict(self._symbols)

    def label_index(self, label: str) -> int:
        """Instruction index of a label."""
        try:
            return self._labels[label]
        except KeyError as exc:
            raise ProgramError(f"unknown label {label!r}") from exc

    def symbol(self, name: str) -> DataSymbol:
        try:
            return self._symbols[name]
        except KeyError as exc:
            raise ProgramError(f"unknown data symbol {name!r}") from exc

    def symbol_at(self, address: int) -> Optional[DataSymbol]:
        """The data symbol containing ``address``, if any."""
        for symbol in self._symbols.values():
            if symbol.contains(address):
                return symbol
        return None

    def protected_symbols(self) -> List[DataSymbol]:
        """Symbols the user marked as secret / sensitive."""
        return [symbol for symbol in self._symbols.values() if symbol.protected]

    # ------------------------------------------------------------------
    # Content addressing
    # ------------------------------------------------------------------
    def fingerprint(self) -> Tuple[object, ...]:
        """Canonical structural identity: name, data layout, instruction stream.

        Instructions and symbols are frozen dataclasses, so their ``repr`` is
        a deterministic rendering of the full field tree (class names
        included) -- two programs have equal fingerprints exactly when they
        are structurally identical.
        """
        return (
            self.name,
            tuple(repr(symbol) for symbol in self._symbols.values()),
            tuple(repr(instruction) for instruction in self._instructions),
        )

    def content_hash(self) -> str:
        """SHA-256 over the fingerprint; the key of every engine-level cache.

        The hash is cached and invalidated on mutation (:meth:`append` /
        :meth:`add_symbol`), so repeated cache lookups on a stable program
        cost one integer comparison.
        """
        if self._hash_cache is None or self._hash_version != self._version:
            digest = hashlib.sha256(repr(self.fingerprint()).encode("utf-8"))
            self._hash_cache = digest.hexdigest()
            self._hash_version = self._version
        return self._hash_cache

    # ------------------------------------------------------------------
    # Address resolution
    # ------------------------------------------------------------------
    def symbol_address(self, name: str) -> int:
        return self.symbol(name).address

    def static_address(self, operand: MemoryOperand) -> Optional[int]:
        """The static base address of a memory operand, when it has a symbol."""
        if operand.symbol is None:
            return None
        return self.symbol_address(operand.symbol) + operand.displacement

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def listing(self) -> str:
        """Assembly-style listing of the program."""
        lines = [f"; program: {self.name}"]
        if self._symbols:
            lines.append(".data")
            for symbol in self._symbols.values():
                attrs = []
                if symbol.protected:
                    attrs.append("protected")
                if symbol.kernel:
                    attrs.append("kernel")
                if symbol.shared:
                    attrs.append("shared")
                suffix = (" ; " + ", ".join(attrs)) if attrs else ""
                lines.append(
                    f"  {symbol.name}: address={symbol.address:#x} size={symbol.size}{suffix}"
                )
        lines.append(".text")
        for index, instruction in enumerate(self._instructions):
            if instruction.label is not None:
                lines.append(f"{instruction.label}:")
            comment = f"  ; {instruction.comment}" if instruction.comment else ""
            lines.append(f"  {index:3d}: {instruction}{comment}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Program {self.name!r}: {len(self)} instructions, {len(self._symbols)} symbols>"
