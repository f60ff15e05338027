"""Attack graphs: TSGs with attack-specific vertex typing and analysis.

An :class:`AttackGraph` is a Topological Sort Graph whose vertices carry the
paper's operation categories (authorization, secret access, send, receive,
setup, ...), attack-step labels (steps 0-5 of Section III), and a
speculative-window flag.  On top of the generic race analysis it offers the
attack-specific questions the paper asks:

* which vertices form Part A (secret access) and Part B (covert channel)?
* which operations lie inside the speculative execution window?
* which security dependencies are missing (i.e. where are the races between
  authorization and access / use / send)?
* does adding a given security dependency (a defense) remove those races?
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .edges import DependencyKind
from .nodes import AttackPart, AttackStep, ExecutionLevel, Operation, OperationType
from .race import Race, find_races, has_race
from .security_dependency import (
    ProtectionPoint,
    SecurityDependency,
    missing_security_dependencies,
)
from .tsg import TopologicalSortGraph


@dataclass(frozen=True)
class Vulnerability:
    """A missing security dependency, reported as an exploitable vulnerability."""

    dependency: SecurityDependency
    race: Race
    description: str = ""

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"vulnerability: {self.dependency}"


class AttackGraph(TopologicalSortGraph):
    """A Topological Sort Graph modelling one speculative execution attack."""

    def __init__(self, name: str = "attack", description: str = "") -> None:
        super().__init__(name=name)
        self.description = description

    # ------------------------------------------------------------------
    # Typed construction helpers
    # ------------------------------------------------------------------
    def add_step(
        self,
        name: str,
        op_type: OperationType,
        step: Optional[AttackStep] = None,
        *,
        speculative: bool = False,
        level: ExecutionLevel = ExecutionLevel.ARCHITECTURAL,
        description: str = "",
        after: Sequence[str] = (),
        kind: DependencyKind = DependencyKind.PROGRAM_ORDER,
    ) -> Operation:
        """Add a typed vertex and edges from each vertex in ``after``."""
        operation = Operation(
            name=name,
            op_type=op_type,
            step=step,
            speculative=speculative,
            level=level,
            description=description,
        )
        self.add_operation(operation)
        for predecessor in after:
            self.add_edge(predecessor, name, kind=kind)
        return operation

    # ------------------------------------------------------------------
    # Vertex classes
    # ------------------------------------------------------------------
    def _names_of(self, op_type: OperationType) -> List[str]:
        return [op.name for op in self.operations_of_type(op_type)]

    @property
    def setup_nodes(self) -> List[str]:
        return self._names_of(OperationType.SETUP)

    @property
    def authorization_nodes(self) -> List[str]:
        """Authorization vertices plus their resolution vertices."""
        return self._names_of(OperationType.AUTHORIZATION) + self._names_of(
            OperationType.RESOLUTION
        )

    @property
    def secret_access_nodes(self) -> List[str]:
        return self._names_of(OperationType.SECRET_ACCESS)

    @property
    def use_nodes(self) -> List[str]:
        return self._names_of(OperationType.USE)

    @property
    def send_nodes(self) -> List[str]:
        return self._names_of(OperationType.SEND)

    @property
    def receive_nodes(self) -> List[str]:
        return self._names_of(OperationType.RECEIVE)

    @property
    def speculative_window(self) -> List[str]:
        """Vertices executed inside the speculative execution window."""
        return [op.name for op in self.operations if op.speculative]

    def nodes_in_step(self, step: AttackStep) -> List[str]:
        return [op.name for op in self.operations if op.step is step]

    def nodes_in_part(self, part: AttackPart) -> List[str]:
        return [op.name for op in self.operations if op.part is part]

    def steps_present(self) -> List[AttackStep]:
        """The attack steps that have at least one vertex, in step order."""
        present = {op.step for op in self.operations if op.step is not None}
        return sorted(present, key=lambda step: step.value)

    @property
    def is_meltdown_type(self) -> bool:
        """Meltdown-type attacks need intra-instruction (micro-op) vertices."""
        return any(op.level is ExecutionLevel.MICROARCHITECTURAL for op in self.operations)

    # ------------------------------------------------------------------
    # Validation and analysis
    # ------------------------------------------------------------------
    REQUIRED_TYPES: Tuple[OperationType, ...] = (
        OperationType.AUTHORIZATION,
        OperationType.SECRET_ACCESS,
        OperationType.SEND,
        OperationType.RECEIVE,
    )

    def validate(self) -> List[str]:
        """Check the graph contains the four mandatory vertex classes.

        Returns a list of problems (empty when the graph is well-formed).
        """
        problems = []
        for required in self.REQUIRED_TYPES:
            if not self.operations_of_type(required):
                problems.append(f"missing required vertex type: {required.value}")
        return problems

    def find_races(self) -> List[Race]:
        """All races in the graph (delegates to :func:`repro.core.race.find_races`)."""
        return find_races(self)

    def authorization_races(self) -> List[Race]:
        """Races between an authorization/resolution vertex and any other vertex."""
        auth = set(self.authorization_nodes)
        return [race for race in find_races(self) if auth & set(race.as_pair())]

    def find_vulnerabilities(
        self, points: Optional[List[ProtectionPoint]] = None
    ) -> List[Vulnerability]:
        """Missing security dependencies, reported as vulnerabilities."""
        vulnerabilities = []
        for dependency in missing_security_dependencies(self, points=points):
            race = Race(dependency.authorization, dependency.protected)
            vulnerabilities.append(
                Vulnerability(
                    dependency=dependency,
                    race=race,
                    description=(
                        f"{dependency.protected!r} races with authorization "
                        f"{dependency.authorization!r} ({dependency.point.value} "
                        "before authorization is possible)"
                    ),
                )
            )
        return vulnerabilities

    def is_vulnerable(self) -> bool:
        """``True`` when at least one security dependency is missing."""
        return bool(self.find_vulnerabilities())

    def secret_reachable_before_authorization(self) -> bool:
        """``True`` when some secret access can complete before some authorization."""
        return any(
            vulnerability.dependency.point is ProtectionPoint.ACCESS
            for vulnerability in self.find_vulnerabilities()
        )

    # ------------------------------------------------------------------
    # Defense application
    # ------------------------------------------------------------------
    def with_security_dependency(self, dependency: SecurityDependency) -> "AttackGraph":
        """Return a copy of the graph with the security dependency edge added."""
        patched = self.copy(name=f"{self.name}+{dependency.point.value}-dep")
        if not patched.has_edge(dependency.authorization, dependency.protected):
            patched.add_dependency(dependency.as_dependency())
        return patched

    def with_security_dependencies(
        self, dependencies: Sequence[SecurityDependency]
    ) -> "AttackGraph":
        """Return a copy with several security dependency edges added."""
        patched = self.copy(name=f"{self.name}+{len(dependencies)}-deps")
        for dependency in dependencies:
            if not patched.has_edge(dependency.authorization, dependency.protected):
                patched.add_dependency(dependency.as_dependency())
        return patched

    def copy(self, name: Optional[str] = None) -> "AttackGraph":
        clone = super().copy(name=name)
        clone.description = self.description
        return clone  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        """A dictionary summary used by the reporting and benchmark layers."""
        vulnerabilities = self.find_vulnerabilities()
        return {
            "name": self.name,
            "description": self.description,
            "vertices": len(self),
            "edges": len(self.edges),
            "authorization_nodes": self.authorization_nodes,
            "secret_access_nodes": self.secret_access_nodes,
            "send_nodes": self.send_nodes,
            "receive_nodes": self.receive_nodes,
            "speculative_window": self.speculative_window,
            "steps_present": [step.name for step in self.steps_present()],
            "meltdown_type": self.is_meltdown_type,
            "vulnerabilities": [str(v.dependency) for v in vulnerabilities],
            "vulnerable": bool(vulnerabilities),
        }

    def describe(self) -> str:
        """A human-readable multi-line description of the graph and its races."""
        summary = self.summary()
        lines = [
            f"Attack graph: {summary['name']}",
            f"  {summary['description']}" if summary["description"] else "",
            f"  vertices: {summary['vertices']}, edges: {summary['edges']}",
            f"  authorization: {', '.join(summary['authorization_nodes']) or '-'}",
            f"  secret access: {', '.join(summary['secret_access_nodes']) or '-'}",
            f"  send:          {', '.join(summary['send_nodes']) or '-'}",
            f"  receive:       {', '.join(summary['receive_nodes']) or '-'}",
            f"  speculative window: {', '.join(summary['speculative_window']) or '-'}",
            f"  type: {'Meltdown-type (intra-instruction)' if summary['meltdown_type'] else 'Spectre-type (inter-instruction)'}",
            "  missing security dependencies:",
        ]
        vulnerabilities = summary["vulnerabilities"]
        if vulnerabilities:
            lines.extend(f"    - {item}" for item in vulnerabilities)
        else:
            lines.append("    (none -- attack defeated)")
        return "\n".join(line for line in lines if line)
