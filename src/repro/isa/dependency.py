"""Dependency extraction from programs.

The attack-graph construction tool (Section V-C, Figure 9) builds the edges of
the attack graph from *existing* dependencies: data dependencies, control
dependencies, address dependencies, memory (store-to-load) dependencies and
fences.  This module extracts them from a :class:`~repro.isa.program.Program`
by a simple static analysis over the instruction sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..core.edges import DependencyKind
from .program import Program


@dataclass(frozen=True)
class InstructionDependency:
    """A dependency between two instructions, identified by their indices."""

    source: int
    target: int
    kind: DependencyKind
    detail: str = ""

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.source} -> {self.target} [{self.kind.value}] {self.detail}".rstrip()


def register_data_dependencies(program: Program) -> List[InstructionDependency]:
    """Read-after-write register dependencies (true data dependencies)."""
    last_writer: Dict[str, int] = {}
    dependencies: List[InstructionDependency] = []
    for index, instruction in enumerate(program):
        for register in sorted(instruction.reads_registers()):
            writer = last_writer.get(register)
            if writer is not None:
                dependencies.append(
                    InstructionDependency(
                        writer, index, DependencyKind.DATA, detail=f"via {register}"
                    )
                )
        for register in instruction.writes_registers():
            last_writer[register] = index
    return dependencies


def address_dependencies(program: Program) -> List[InstructionDependency]:
    """Dependencies from the producer of an address register to the memory access.

    These are already covered by :func:`register_data_dependencies` (an
    address register is a read register), but they are reported separately
    with :data:`DependencyKind.ADDRESS` because the paper's send operation
    ("Load R to cache") is characterised by its *address* depending on the
    secret.
    """
    last_writer: Dict[str, int] = {}
    dependencies: List[InstructionDependency] = []
    for index, instruction in enumerate(program):
        operand = instruction.memory_read or instruction.memory_write
        if operand is not None:
            for register in sorted(operand.registers):
                writer = last_writer.get(register)
                if writer is not None:
                    dependencies.append(
                        InstructionDependency(
                            writer,
                            index,
                            DependencyKind.ADDRESS,
                            detail=f"address via {register}",
                        )
                    )
        for register in instruction.writes_registers():
            last_writer[register] = index
    return dependencies


def control_dependencies(program: Program) -> List[InstructionDependency]:
    """Control dependencies: each instruction depends on the closest prior branch."""
    dependencies: List[InstructionDependency] = []
    last_branch: Optional[int] = None
    for index, instruction in enumerate(program):
        if last_branch is not None:
            dependencies.append(
                InstructionDependency(
                    last_branch, index, DependencyKind.CONTROL, detail="post-branch"
                )
            )
        if instruction.is_branch:
            last_branch = index
    return dependencies


def memory_dependencies(program: Program) -> List[InstructionDependency]:
    """Potential store-to-load dependencies.

    A later load may depend on an earlier store when the two may alias.  With
    symbolic operands we use a conservative rule: same symbol means *may
    alias*; a store or load without a static symbol may alias anything.
    """
    dependencies: List[InstructionDependency] = []
    stores: List[Tuple[int, Optional[str]]] = []
    for index, instruction in enumerate(program):
        read = instruction.memory_read
        if read is not None:
            for store_index, store_symbol in stores:
                if store_symbol is None or read.symbol is None or store_symbol == read.symbol:
                    dependencies.append(
                        InstructionDependency(
                            store_index,
                            index,
                            DependencyKind.PROGRAM_ORDER,
                            detail="potential store-to-load aliasing",
                        )
                    )
        write = instruction.memory_write
        if write is not None:
            stores.append((index, write.symbol))
    return dependencies


def fence_dependencies(program: Program) -> List[InstructionDependency]:
    """Serialization edges introduced by fences, chained fence to fence.

    A fence orders every earlier instruction before itself and itself before
    every later instruction.  Transitivity gives that order from a chain:
    each fence takes edges from the instructions since the previous fence
    (that fence included; the first fence from instruction 0) and gives
    edges to the instructions up to and including the next fence (the last
    fence to the end of the program).  Every instruction is the source of
    at most one before-fence edge and the target of at most one after-fence
    edge, so a program of ``n`` instructions has at most ``2n`` of them.
    """
    fences = [index for index, instruction in enumerate(program) if instruction.is_serializing]
    dependencies: List[InstructionDependency] = []
    for position, fence in enumerate(fences):
        previous = fences[position - 1] if position else 0
        following = fences[position + 1] if position + 1 < len(fences) else len(program) - 1
        for earlier in range(previous, fence):
            dependencies.append(
                InstructionDependency(earlier, fence, DependencyKind.FENCE, detail="before fence")
            )
        for later in range(fence + 1, following + 1):
            dependencies.append(
                InstructionDependency(fence, later, DependencyKind.FENCE, detail="after fence")
            )
    return dependencies


def all_dependencies(program: Program) -> List[InstructionDependency]:
    """Every dependency the hardware honours, across all categories."""
    dependencies = (
        register_data_dependencies(program)
        + address_dependencies(program)
        + control_dependencies(program)
        + memory_dependencies(program)
        + fence_dependencies(program)
    )
    # Deduplicate identical (source, target, kind) triples.
    seen: Set[Tuple[int, int, DependencyKind]] = set()
    unique: List[InstructionDependency] = []
    for dependency in dependencies:
        key = (dependency.source, dependency.target, dependency.kind)
        if key not in seen:
            seen.add(key)
            unique.append(dependency)
    return unique


def dependency_summary(program: Program) -> Dict[str, int]:
    """Count of dependencies per kind (useful for reports and tests)."""
    counts: Dict[str, int] = {}
    for dependency in all_dependencies(program):
        counts[dependency.kind.value] = counts.get(dependency.kind.value, 0) + 1
    return counts
