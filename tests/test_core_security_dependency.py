"""Tests for security dependencies (Definition 2)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.attacks import Nodes
from repro.core import (
    AttackGraph,
    DependencyKind,
    OperationType,
    ProtectionPoint,
    SecurityDependency,
    enforce,
    is_vulnerable,
    missing_security_dependencies,
)
from repro.core.security_dependency import (
    _PROTECTION_TO_OPTYPE,
    missing_dependency_triples,
)


def reference_missing_dependencies(graph, points=None):
    """The per-authorization name-set loop the triples replaced, verbatim.

    Do not modernize it: it is the order and content oracle for
    :func:`missing_dependency_triples` and everything built on it.
    """
    if points is None:
        points = [ProtectionPoint.ACCESS, ProtectionPoint.USE, ProtectionPoint.SEND]
    authorizations = [
        op.name
        for op in graph.operations
        if op.op_type in (OperationType.AUTHORIZATION, OperationType.RESOLUTION)
    ]
    racing = {auth: graph.racing_partners(auth) for auth in authorizations}
    missing = []
    for point in points:
        targets = [op.name for op in graph.operations_of_type(_PROTECTION_TO_OPTYPE[point])]
        for auth in authorizations:
            for target in targets:
                if target in racing[auth]:
                    missing.append(
                        SecurityDependency(
                            authorization=auth,
                            protected=target,
                            point=point,
                            rationale=(
                                f"{target!r} can complete before {auth!r}: "
                                "no access/use/send without authorization"
                            ),
                        )
                    )
    return missing


@st.composite
def typed_dags(draw, max_vertices: int = 12):
    """Random DAGs of random operation types, inserted in a random order."""
    count = draw(st.integers(min_value=1, max_value=max_vertices))
    rank = draw(st.permutations(range(count)))
    graph = AttackGraph(name="random")
    for i in draw(st.permutations(range(count))):
        graph.add_vertex(f"v{i}", op_type=draw(st.sampled_from(list(OperationType))))
    pairs = [(u, v) for u in range(count) for v in range(count) if rank[u] < rank[v]]
    if pairs:
        for u, v in draw(st.lists(st.sampled_from(pairs), unique=True, max_size=3 * count)):
            graph.add_edge(f"v{u}", f"v{v}")
    return graph


@given(
    graph=typed_dags(),
    points=st.none() | st.lists(st.sampled_from(list(ProtectionPoint)), unique=True),
)
@settings(max_examples=150, deadline=None)
def test_triples_equal_the_reference_loop(graph, points):
    reference = reference_missing_dependencies(graph, points)
    assert missing_security_dependencies(graph, points) == reference
    assert missing_dependency_triples(graph, points) == [
        (dependency.authorization, dependency.protected, dependency.point)
        for dependency in reference
    ]
    assert [
        (vulnerability.dependency, vulnerability.description)
        for vulnerability in graph.find_vulnerabilities(points)
    ] == [
        (
            dependency,
            f"{dependency.protected!r} races with authorization "
            f"{dependency.authorization!r} ({dependency.point.value} "
            "before authorization is possible)",
        )
        for dependency in reference
    ]


class TestSecurityDependency:
    def test_as_dependency_is_a_security_edge(self):
        dependency = SecurityDependency("auth", "access")
        edge = dependency.as_dependency()
        assert edge.kind is DependencyKind.SECURITY
        assert edge.source == "auth" and edge.target == "access"

    def test_enforced_by_direct_edge(self, spectre_v1_graph):
        dependency = SecurityDependency(Nodes.BRANCH_RESOLUTION, Nodes.LOAD_S)
        assert dependency.is_missing(spectre_v1_graph)
        patched = enforce(spectre_v1_graph, dependency)
        assert dependency.is_enforced(patched)

    def test_enforced_by_indirect_path(self, spectre_v1_graph):
        """Any directed path from authorization to the protected vertex suffices."""
        access_dep = SecurityDependency(Nodes.BRANCH_RESOLUTION, Nodes.LOAD_S)
        send_dep = SecurityDependency(Nodes.BRANCH_RESOLUTION, Nodes.LOAD_R, ProtectionPoint.SEND)
        patched = enforce(spectre_v1_graph, access_dep)
        # Ordering the access behind authorization transitively orders the send too.
        assert send_dep.is_enforced(patched)

    def test_original_graph_not_mutated_by_enforce(self, spectre_v1_graph):
        dependency = SecurityDependency(Nodes.BRANCH_RESOLUTION, Nodes.LOAD_S)
        enforce(spectre_v1_graph, dependency)
        assert dependency.is_missing(spectre_v1_graph)


class TestMissingDependencies:
    def test_spectre_graph_misses_access_use_and_send_dependencies(self, spectre_v1_graph):
        missing = missing_security_dependencies(spectre_v1_graph)
        points = {dep.point for dep in missing}
        assert points == {ProtectionPoint.ACCESS, ProtectionPoint.USE, ProtectionPoint.SEND}

    def test_missing_dependencies_name_the_speculative_operations(self, spectre_v1_graph):
        protected = {dep.protected for dep in missing_security_dependencies(spectre_v1_graph)}
        assert Nodes.LOAD_S in protected
        assert Nodes.COMPUTE_R in protected
        assert Nodes.LOAD_R in protected

    def test_point_filter(self, spectre_v1_graph):
        only_send = missing_security_dependencies(
            spectre_v1_graph, points=[ProtectionPoint.SEND]
        )
        assert {dep.point for dep in only_send} == {ProtectionPoint.SEND}
        assert {dep.protected for dep in only_send} == {Nodes.LOAD_R}

    def test_vulnerability_removed_by_enforcement(self, spectre_v1_graph):
        assert is_vulnerable(spectre_v1_graph)
        patched = spectre_v1_graph
        for dependency in missing_security_dependencies(spectre_v1_graph):
            patched = enforce(patched, dependency)
        assert not is_vulnerable(patched)

    def test_meltdown_graph_authorization_is_a_micro_op(self, meltdown_graph):
        missing = missing_security_dependencies(meltdown_graph)
        authorizations = {dep.authorization for dep in missing}
        assert Nodes.PERMISSION_CHECK in authorizations or Nodes.AUTH_RESOLVED in authorizations
