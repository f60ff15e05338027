"""Attack-graph construction from programs (the Figure 9 flow).

Given a :class:`~repro.isa.program.Program` whose sensitive data is marked
(protected / kernel symbols), the builder

1. finds the potential secret accesses and the authorization each one is
   subject to (:mod:`repro.graphtool.classify`),
2. expands faulty accesses into micro-ops (:mod:`repro.graphtool.expansion`)
   because their authorization lives inside the instruction,
3. adds one vertex per instruction (all branch, memory and arithmetic
   instructions, as the paper prescribes), typed as setup / authorization /
   secret access / use / send / receive,
4. adds the dependencies the hardware already honours (data, address,
   control, potential store-to-load, fences) as edges, and
5. leaves the *security* dependencies to the analysis step -- their absence
   is exactly the set of races / vulnerabilities the tool reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.attack_graph import AttackGraph, Vulnerability
from ..core.edges import Dependency, DependencyKind
from ..core.nodes import AttackStep, OperationType
from ..isa.dependency import all_dependencies
from ..isa.instructions import Clflush, Instruction, Rdtsc
from ..isa.program import Program
from .classify import SecretAccessSite, find_secret_accesses
from .expansion import (
    ACCESS_SUFFIX,
    MICRO_EDGE_KIND,
    MICRO_LEVEL,
    RESOLUTION_SUFFIX,
    RESULT_SUFFIX,
    expansion_for,
)


def instruction_node_name(index: int, instruction: Instruction) -> str:
    """Canonical vertex name of an (un-expanded) instruction."""
    return f"i{index}: {instruction}"


def resolution_node_name(index: int, instruction: Instruction) -> str:
    """Canonical vertex name of the resolution vertex of a software authorization."""
    return f"i{index}: {instruction} [resolved]"


@dataclass
class BuildResult:
    """The product of the attack-graph construction tool."""

    program: Program
    graph: AttackGraph
    secret_accesses: List[SecretAccessSite]
    #: Map from instruction index to the vertex carrying its result.
    result_node: Dict[int, str]
    #: Map from instruction index to all vertices modelling it.
    nodes_of: Dict[int, List[str]]
    #: Instruction indices whose registers carry secret-derived (tainted) data.
    tainted_instructions: Set[int] = field(default_factory=set)

    @property
    def is_meltdown_type(self) -> bool:
        return self.graph.is_meltdown_type

    def vulnerabilities(self) -> List[Vulnerability]:
        return self.graph.find_vulnerabilities()


class AttackGraphBuilder:
    """Builds an :class:`AttackGraph` from a program (Section V-C tool)."""

    def __init__(
        self,
        program: Program,
        protected_symbols: Optional[Sequence[str]] = None,
    ) -> None:
        self.program = program
        self.protected_symbols = set(protected_symbols or ())

    # ------------------------------------------------------------------
    def build(self) -> BuildResult:
        program = self.program
        accesses = find_secret_accesses(program, self.protected_symbols)
        access_by_index = {site.index: site for site in accesses}
        software_auth_indices = {
            site.authorization_index: site
            for site in accesses
            if not _is_intra_instruction(site)
        }

        graph = AttackGraph(
            name=f"attack-graph({program.name})",
            description=f"constructed from program {program.name!r}",
        )
        result_node: Dict[int, str] = {}
        entry_node: Dict[int, str] = {}
        completion_node: Dict[int, str] = {}
        nodes_of: Dict[int, List[str]] = {}

        tainted_registers: Set[str] = set()
        tainted_instructions: Set[int] = set()
        flushed_shared_symbols: Set[str] = set()
        send_seen = False

        for index, instruction in enumerate(program):
            site = access_by_index.get(index)
            if site is not None and _is_intra_instruction(site):
                names = self._add_expanded_instruction(graph, index, instruction, site)
                nodes_of[index] = names["all"]
                entry_node[index] = names["entry"]
                result_node[index] = names["result"]
                completion_node[index] = names["resolution"]
                tainted_registers |= instruction.writes_registers()
                tainted_instructions.add(index)
                continue

            op_type, step, speculative = self._classify_vertex(
                index,
                instruction,
                site,
                software_auth_indices,
                tainted_registers,
                flushed_shared_symbols,
                send_seen,
            )
            if op_type is OperationType.SEND:
                send_seen = True
            name = instruction_node_name(index, instruction)
            graph.add_step(
                name,
                op_type,
                step,
                speculative=speculative,
                description=instruction.comment or str(instruction),
            )
            nodes_of[index] = [name]
            entry_node[index] = name
            result_node[index] = name
            completion_node[index] = name

            if isinstance(instruction, Clflush) and instruction.address.symbol is not None:
                symbol = program.symbols.get(instruction.address.symbol)
                if symbol is not None and symbol.shared:
                    flushed_shared_symbols.add(symbol.name)

            # Taint propagation: secret accesses taint their outputs; any
            # instruction reading a tainted register taints its outputs.
            if op_type is OperationType.SECRET_ACCESS:
                tainted_registers |= instruction.writes_registers()
                tainted_instructions.add(index)
            elif instruction.reads_registers() & tainted_registers:
                tainted_registers |= instruction.writes_registers()
                tainted_instructions.add(index)

            # Software authorizations get an explicit resolution vertex.
            if index in software_auth_indices:
                resolution = resolution_node_name(index, instruction)
                graph.add_step(
                    resolution,
                    OperationType.RESOLUTION,
                    AttackStep.DELAYED_AUTHORIZATION,
                    description="authorization (branch) resolution",
                    after=[name],
                    kind=DependencyKind.DATA,
                )
                nodes_of[index].append(resolution)
                completion_node[index] = resolution

        self._add_dependency_edges(graph, entry_node, result_node, completion_node)
        return BuildResult(
            program=program,
            graph=graph,
            secret_accesses=accesses,
            result_node=result_node,
            nodes_of=nodes_of,
            tainted_instructions=tainted_instructions,
        )

    # ------------------------------------------------------------------
    def _classify_vertex(
        self,
        index: int,
        instruction: Instruction,
        site: Optional[SecretAccessSite],
        software_auth_indices: Dict[int, SecretAccessSite],
        tainted_registers: Set[str],
        flushed_shared_symbols: Set[str],
        send_seen: bool,
    ) -> Tuple[OperationType, Optional[AttackStep], bool]:
        """Type an un-expanded instruction vertex."""
        if site is not None:
            return OperationType.SECRET_ACCESS, AttackStep.SECRET_ACCESS, True
        if index in software_auth_indices:
            return OperationType.AUTHORIZATION, AttackStep.DELAYED_AUTHORIZATION, False
        if isinstance(instruction, Clflush):
            return OperationType.SETUP, AttackStep.SETUP, False
        if isinstance(instruction, Rdtsc):
            return OperationType.RECEIVE, AttackStep.RECEIVE, False

        operand = instruction.memory_read or instruction.memory_write
        address_registers: Set[str] = set(operand.registers) if operand is not None else set()
        if operand is not None and address_registers & tainted_registers:
            return OperationType.SEND, AttackStep.USE_AND_SEND, True
        if (
            operand is not None
            and operand.symbol in flushed_shared_symbols
            and send_seen
            and instruction.memory_read is not None
        ):
            return OperationType.RECEIVE, AttackStep.RECEIVE, False
        if instruction.reads_registers() & tainted_registers:
            return OperationType.USE, AttackStep.USE_AND_SEND, True
        return OperationType.OTHER, None, False

    # ------------------------------------------------------------------
    def _add_expanded_instruction(
        self,
        graph: AttackGraph,
        index: int,
        instruction: Instruction,
        site: SecretAccessSite,
    ) -> Dict[str, object]:
        """Add the micro-op vertices of a faulty (intra-instruction) access."""
        base = instruction_node_name(index, instruction)
        expansion = expansion_for(site.authorization_kind)
        names: List[str] = []
        for micro in expansion.micro_ops:
            vertex = expansion.vertex_name(base, micro.suffix)
            step = None
            if micro.op_type in (OperationType.AUTHORIZATION, OperationType.RESOLUTION):
                step = AttackStep.DELAYED_AUTHORIZATION
            elif micro.op_type is OperationType.SECRET_ACCESS:
                step = AttackStep.SECRET_ACCESS
            graph.add_step(
                vertex,
                micro.op_type,
                step,
                speculative=micro.speculative,
                level=MICRO_LEVEL,
                description=f"{instruction}: {micro.description}",
            )
            names.append(vertex)
        for source_suffix, target_suffix in expansion.edges:
            graph.add_edge(
                expansion.vertex_name(base, source_suffix),
                expansion.vertex_name(base, target_suffix),
                kind=MICRO_EDGE_KIND,
            )
        entry = names[0]
        result = expansion.vertex_name(base, RESULT_SUFFIX)
        resolution = expansion.vertex_name(base, RESOLUTION_SUFFIX)
        return {"all": names, "entry": entry, "result": result, "resolution": resolution}

    # ------------------------------------------------------------------
    def _add_dependency_edges(
        self,
        graph: AttackGraph,
        entry_node: Dict[int, str],
        result_node: Dict[int, str],
        completion_node: Dict[int, str],
    ) -> None:
        """Map instruction-level dependencies onto graph edges.

        Data / address / control dependencies originate from the vertex that
        produces the instruction's result.  Fence edges instead originate
        from the instruction's *completion* vertex (the resolution vertex of
        a branch, the authorization-resolved micro-op of a faulting access):
        a serializing fence waits for prior instructions to fully complete,
        which is exactly how it enforces the security dependency.

        The edges go into the graph as one batch, so the closure is built by
        one sweep instead of one incremental update per edge.
        """
        edges: List[Dependency] = []
        for dependency in all_dependencies(self.program):
            if dependency.kind is DependencyKind.FENCE:
                source = completion_node.get(dependency.source)
            else:
                source = result_node.get(dependency.source)
            target = entry_node.get(dependency.target)
            if source is None or target is None or source == target:
                continue
            edges.append(
                Dependency(source, target, kind=dependency.kind, label=dependency.detail)
            )
        graph.add_dependencies(edges)


def build_attack_graph(
    program: Program, protected_symbols: Optional[Sequence[str]] = None
) -> BuildResult:
    """Convenience wrapper: construct the attack graph of a program.

    Delegates to the default :class:`repro.engine.Engine`, which memoizes
    builds on ``Program.content_hash()`` -- callers re-building the same
    program share one construction.  Use :class:`AttackGraphBuilder` directly
    for an uncached build.
    """
    from ..engine import default_engine

    return default_engine().build(program, protected_symbols)


def _is_intra_instruction(site: SecretAccessSite) -> bool:
    return site.authorization_index == site.index and site.authorization_kind in ACCESS_SUFFIX
