"""Security dependencies (Definition 2) and missing-dependency analysis.

Definition 2 (Section IV-C): a *security dependency* of operation ``v`` on
operation ``u`` is an ordering such that ``u`` must complete before ``v`` in
order to avoid a security breach.  ``u`` is typically an authorization
operation; ``v`` is typically an access, a use, or a send of protected data.

The paper's central result equates a *missing* security dependency with a
missing edge in the attack graph, which (by Theorem 1) is a race condition
between authorization and access -- the root cause of speculative execution
attacks.  This module provides the dependency record, the three protection
levels (access / use / send -- matching defense strategies 1-3), detection of
missing security dependencies in an attack graph, and enforcement (edge
insertion) together with verification that enforcement removed the race.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .edges import Dependency, DependencyKind
from .nodes import OperationType
from .tsg import TopologicalSortGraph


class ProtectionPoint(enum.Enum):
    """Which operation class a security dependency protects.

    The three points correspond to the paper's defense strategies 1-3
    (Figure 8): the authorization must complete before the secret is
    *accessed*, before it is *used*, or before it is *sent* out through the
    covert channel.  The later the protection point, the looser (and cheaper)
    the security guarantee.
    """

    ACCESS = "access"
    USE = "use"
    SEND = "send"


_PROTECTION_TO_OPTYPE = {
    ProtectionPoint.ACCESS: OperationType.SECRET_ACCESS,
    ProtectionPoint.USE: OperationType.USE,
    ProtectionPoint.SEND: OperationType.SEND,
}


@dataclass(frozen=True)
class SecurityDependency:
    """An ordering requirement: ``authorization`` must complete before ``protected``."""

    authorization: str
    protected: str
    point: ProtectionPoint = ProtectionPoint.ACCESS
    rationale: str = ""

    def as_dependency(self) -> Dependency:
        """The attack-graph edge that enforces this security dependency."""
        return Dependency(
            source=self.authorization,
            target=self.protected,
            kind=DependencyKind.SECURITY,
            label=f"security ({self.point.value})",
        )

    def is_enforced(self, graph: TopologicalSortGraph) -> bool:
        """``True`` when the graph already orders authorization before protected.

        Enforcement does not require the literal security edge: any directed
        path from the authorization vertex to the protected vertex removes
        the race (Theorem 1) and therefore enforces the dependency.
        """
        return graph.has_path(self.authorization, self.protected)

    def is_missing(self, graph: TopologicalSortGraph) -> bool:
        """``True`` when the protected operation races with (or precedes) authorization."""
        return not self.is_enforced(graph)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.authorization} must-complete-before {self.protected} [{self.point.value}]"


def enforce(graph: TopologicalSortGraph, dependency: SecurityDependency) -> TopologicalSortGraph:
    """Return a copy of ``graph`` with the security dependency edge inserted."""
    patched = graph.copy(name=f"{graph.name}+security")
    if not patched.has_edge(dependency.authorization, dependency.protected):
        patched.add_dependency(dependency.as_dependency())
    return patched


def missing_dependency_triples(
    graph: TopologicalSortGraph,
    points: Optional[List[ProtectionPoint]] = None,
) -> List[Tuple[str, str, ProtectionPoint]]:
    """Every missing security dependency as ``(authorization, protected, point)``.

    For each authorization vertex and each protected vertex (secret access,
    use, or send -- selectable through ``points``), report a missing
    dependency whenever the two vertices race, i.e. the protected operation
    may complete before the authorization does.  These are exactly the
    vulnerabilities the paper's Section V-C tool is meant to flag.  Triples
    come by point, then by authorization, then by protected vertex, each in
    insertion order.
    """
    if points is None:
        points = [ProtectionPoint.ACCESS, ProtectionPoint.USE, ProtectionPoint.SEND]
    authorizations = [
        op.name
        for op in graph.operations
        if op.op_type in (OperationType.AUTHORIZATION, OperationType.RESOLUTION)
    ]
    triples: List[Tuple[str, str, ProtectionPoint]] = []
    for point in points:
        targets = [op.name for op in graph.operations_of_type(_PROTECTION_TO_OPTYPE[point])]
        triples.extend(
            (auth, target, point)
            for auth, target in graph.racing_pairs_between(authorizations, targets)
        )
    return triples


def missing_security_dependencies(
    graph: TopologicalSortGraph,
    points: Optional[List[ProtectionPoint]] = None,
) -> List[SecurityDependency]:
    """:func:`missing_dependency_triples` as :class:`SecurityDependency` records."""
    return [
        SecurityDependency(
            authorization=auth,
            protected=target,
            point=point,
            rationale=(
                f"{target!r} can complete before {auth!r}: "
                "no access/use/send without authorization"
            ),
        )
        for auth, target, point in missing_dependency_triples(graph, points)
    ]


def is_vulnerable(graph: TopologicalSortGraph) -> bool:
    """``True`` when the graph has at least one missing security dependency."""
    return bool(missing_security_dependencies(graph))
