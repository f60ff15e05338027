"""Tests for the Topological Sort Graph substrate."""

from __future__ import annotations

import random
from typing import List

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    CycleError,
    Dependency,
    DependencyKind,
    Operation,
    OperationType,
    TopologicalSortGraph,
)


def build_chain(*names: str) -> TopologicalSortGraph:
    graph = TopologicalSortGraph(name="chain")
    for name in names:
        graph.add_vertex(name)
    for source, target in zip(names, names[1:]):
        graph.add_edge(source, target)
    return graph


class TestConstruction:
    def test_add_vertex_and_lookup(self):
        graph = TopologicalSortGraph()
        graph.add_vertex("A", op_type=OperationType.SETUP)
        assert "A" in graph
        assert graph.operation("A").op_type is OperationType.SETUP

    def test_add_same_operation_twice_is_idempotent(self):
        graph = TopologicalSortGraph()
        operation = Operation("A", op_type=OperationType.SETUP)
        graph.add_operation(operation)
        graph.add_operation(operation)
        assert len(graph) == 1

    def test_conflicting_redefinition_rejected(self):
        graph = TopologicalSortGraph()
        graph.add_vertex("A", op_type=OperationType.SETUP)
        with pytest.raises(ValueError, match="already exists"):
            graph.add_vertex("A", op_type=OperationType.SEND)

    def test_empty_operation_name_rejected(self):
        with pytest.raises(ValueError):
            Operation("")

    def test_edge_requires_known_vertices(self):
        graph = TopologicalSortGraph()
        graph.add_vertex("A")
        with pytest.raises(KeyError):
            graph.add_edge("A", "missing")

    def test_self_edge_rejected(self):
        with pytest.raises(ValueError):
            Dependency("A", "A")

    def test_cycle_rejected(self):
        graph = build_chain("A", "B", "C")
        with pytest.raises(CycleError):
            graph.add_edge("C", "A")

    def test_duplicate_edge_is_idempotent(self):
        graph = build_chain("A", "B")
        graph.add_edge("A", "B")
        assert len(graph.edges) == 1

    def test_remove_edge(self):
        graph = build_chain("A", "B")
        graph.remove_edge("A", "B")
        assert not graph.has_edge("A", "B")
        assert not graph.has_path("A", "B")

    def test_edge_kinds_preserved(self):
        graph = build_chain("A", "B")
        graph.add_vertex("C")
        graph.add_edge("B", "C", kind=DependencyKind.SECURITY)
        assert graph.edge("B", "C").kind is DependencyKind.SECURITY
        assert graph.edge("B", "C").is_security


def random_dependencies(rng: random.Random, vertices: int, edges: int) -> List[Dependency]:
    """Edges of a random DAG over ``v0..v{vertices-1}``, some endpoints repeated.

    The edges follow a hidden random order (not insertion order), and a
    repeated pair carries another kind, so "the first record wins" shows.
    """
    rank = list(range(vertices))
    rng.shuffle(rank)
    kinds = list(DependencyKind)
    dependencies: List[Dependency] = []
    for _ in range(edges):
        a, b = sorted(rng.sample(range(vertices), 2))
        dependencies.append(
            Dependency(f"v{rank[a]}", f"v{rank[b]}", kind=rng.choice(kinds), label=str(len(dependencies)))
        )
    return dependencies


def empty_graph(vertices: int) -> TopologicalSortGraph:
    graph = TopologicalSortGraph()
    for i in range(vertices):
        graph.add_vertex(f"v{i}")
    return graph


def edge_by_edge(vertices: int, dependencies: List[Dependency]) -> TopologicalSortGraph:
    graph = empty_graph(vertices)
    for dependency in dependencies:
        graph.add_dependency(dependency)
    return graph


def graph_state(graph: TopologicalSortGraph):
    return (
        graph._anc,
        graph._desc,
        graph.edges,
        graph.all_racing_pairs(),
        graph.topological_order(),
    )


class TestBulkInsertion:
    """``add_dependencies`` (one closure sweep) against per-edge insertion."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=100_000),
        vertices=st.integers(min_value=2, max_value=140),
    )
    def test_bulk_equals_edge_by_edge(self, seed, vertices):
        rng = random.Random(seed)
        dependencies = random_dependencies(rng, vertices, rng.randint(0, 3 * vertices))
        dependencies += rng.sample(dependencies, len(dependencies) // 4)
        split = rng.randint(0, len(dependencies))
        reference = edge_by_edge(vertices, dependencies)

        bulk = edge_by_edge(vertices, dependencies[:split])
        bulk.add_dependencies(dependencies[split:])
        assert graph_state(bulk) == graph_state(reference)

        # ``remove_edge`` takes the same sweep: it matches a graph built
        # edge by edge without the removed edge.
        if reference.edges:
            victim = rng.choice(reference.edges)
            bulk.remove_edge(victim.source, victim.target)
            kept = [
                dependency
                for dependency in dependencies
                if (dependency.source, dependency.target) != (victim.source, victim.target)
            ]
            assert graph_state(bulk) == graph_state(edge_by_edge(vertices, kept))

    def test_batch_closing_a_cycle_raises_and_leaves_graph_unchanged(self):
        graph = build_chain("A", "B", "C")
        graph.add_vertex("D")
        before = graph_state(graph)
        succ = {name: graph.successors(name) for name in graph.vertices}
        with pytest.raises(CycleError):
            graph.add_dependencies([Dependency("C", "D"), Dependency("A", "C"), Dependency("D", "A")])
        assert graph_state(graph) == before
        assert {name: graph.successors(name) for name in graph.vertices} == succ
        assert not graph.has_edge("C", "D")
        graph.add_dependencies([Dependency("C", "D")])
        assert graph.has_path("A", "D")

    def test_batch_with_unknown_vertex_raises_and_leaves_graph_unchanged(self):
        graph = build_chain("A", "B")
        graph.add_vertex("C")
        before = graph_state(graph)
        with pytest.raises(KeyError):
            graph.add_dependencies([Dependency("B", "C"), Dependency("C", "missing")])
        assert graph_state(graph) == before
        assert not graph.has_edge("B", "C")

    def test_batch_keeps_first_record_of_existing_edge(self):
        graph = build_chain("A", "B")
        graph.add_dependencies([Dependency("A", "B", kind=DependencyKind.FENCE)])
        assert graph.edge("A", "B").kind is DependencyKind.PROGRAM_ORDER
        assert len(graph.edges) == 1


class TestReachability:
    def test_path_exists_along_chain(self):
        graph = build_chain("A", "B", "C", "D")
        assert graph.has_path("A", "D")
        assert not graph.has_path("D", "A")

    def test_vertex_reaches_itself(self):
        graph = build_chain("A", "B")
        assert graph.has_path("A", "A")

    def test_path_query_unknown_vertex(self):
        graph = build_chain("A", "B")
        with pytest.raises(KeyError):
            graph.has_path("A", "missing")

    def test_descendants_and_ancestors(self, figure2):
        assert figure2.descendants("C") == {"D", "E", "F", "G"}
        assert figure2.ancestors("F") == {"A", "B", "C", "D", "E"}

    def test_degrees(self, figure2):
        assert figure2.in_degree("A") == 0
        assert figure2.out_degree("A") == 2
        assert figure2.in_degree("F") == 2


class TestOrderings:
    def test_paper_valid_orderings(self, figure2):
        """The two orderings the paper calls valid, and the one it calls invalid."""
        assert figure2.is_valid_ordering(list("ABCDEFG"))
        assert figure2.is_valid_ordering(list("ACEBDFG"))
        assert not figure2.is_valid_ordering(list("ABDECFG"))

    def test_wrong_length_is_invalid(self, figure2):
        assert not figure2.is_valid_ordering(list("ABC"))
        assert not figure2.is_valid_ordering(list("ABCDEFGG"))

    def test_topological_order_is_valid(self, figure2):
        assert figure2.is_valid_ordering(figure2.topological_order())

    def test_prefer_late_defers_vertex(self, figure2):
        late_d = figure2.topological_order(prefer_late="D")
        position = {name: index for index, name in enumerate(late_d)}
        assert position["E"] < position["D"]

    def test_all_orderings_are_valid_and_unique(self, figure2):
        orderings = list(figure2.all_orderings())
        assert len(orderings) == len({tuple(order) for order in orderings})
        assert all(figure2.is_valid_ordering(order) for order in orderings)

    def test_all_orderings_respects_limit(self, figure2):
        assert len(list(figure2.all_orderings(limit=3))) == 3

    def test_count_orderings_chain_is_one(self):
        graph = build_chain("A", "B", "C", "D", "E")
        assert graph.count_orderings() == 1

    def test_count_orderings_independent_vertices_is_factorial(self):
        graph = TopologicalSortGraph()
        for name in "ABCD":
            graph.add_vertex(name)
        assert graph.count_orderings() == 24


class TestDerivation:
    def test_copy_is_independent(self, figure2):
        clone = figure2.copy()
        clone.add_vertex("H")
        clone.add_edge("G", "H")
        assert "H" not in figure2
        assert "H" in clone

    def test_subgraph_keeps_internal_edges_only(self, figure2):
        sub = figure2.subgraph({"A", "B", "D"})
        assert set(sub.vertices) == {"A", "B", "D"}
        assert sub.has_edge("A", "B")
        assert sub.has_edge("B", "D")
        assert not sub.has_edge("A", "C")

    def test_to_networkx_roundtrip(self, figure2):
        nx_graph = figure2.to_networkx()
        assert nx_graph.number_of_nodes() == len(figure2)
        assert nx_graph.number_of_edges() == len(figure2.edges)

    def test_to_dot_mentions_vertices_and_edges(self, figure2):
        dot = figure2.to_dot()
        assert '"A"' in dot and '"G"' in dot
        assert '"A" -> "B"' in dot

    def test_operations_of_type(self):
        graph = TopologicalSortGraph()
        graph.add_vertex("auth", op_type=OperationType.AUTHORIZATION)
        graph.add_vertex("load", op_type=OperationType.SECRET_ACCESS)
        assert [op.name for op in graph.operations_of_type(OperationType.AUTHORIZATION)] == ["auth"]
