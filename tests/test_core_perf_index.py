"""Property tests for the TSG reachability index (bitset transitive closure).

The closure is an *index*: every answer it gives must agree with a from-
scratch BFS over the adjacency sets.  These tests pin that equivalence on
random DAGs, including after edge removal (which rebuilds the closure), and
pin the downset-DP ordering counter against explicit enumeration.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import TopologicalSortGraph, has_race
from repro.core.race import find_races


def bfs_reachable(graph: TopologicalSortGraph, source: str) -> set:
    """Reference reachability: plain BFS over the successor sets."""
    seen = set()
    frontier = deque([source])
    while frontier:
        node = frontier.popleft()
        for nxt in graph.successors(node):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


@st.composite
def random_dags(draw, max_vertices: int = 10):
    """Random DAGs built by only adding forward edges over a vertex ordering."""
    count = draw(st.integers(min_value=2, max_value=max_vertices))
    names = [f"v{i}" for i in range(count)]
    graph = TopologicalSortGraph(name="random")
    for name in names:
        graph.add_vertex(name)
    possible_edges = list(combinations(range(count), 2))
    chosen = draw(
        st.lists(st.sampled_from(possible_edges), unique=True, max_size=len(possible_edges))
    )
    for source, target in chosen:
        graph.add_edge(names[source], names[target])
    return graph


@given(random_dags())
@settings(max_examples=60, deadline=None)
def test_closure_matches_bfs_reachability(graph):
    """has_path / descendants / ancestors must equal BFS answers for all pairs."""
    reach = {name: bfs_reachable(graph, name) for name in graph.vertices}
    for source in graph.vertices:
        assert graph.descendants(source) == reach[source]
        for target in graph.vertices:
            expected = source == target or target in reach[source]
            assert graph.has_path(source, target) == expected
    for target in graph.vertices:
        expected_anc = {u for u in graph.vertices if u != target and target in reach[u]}
        assert graph.ancestors(target) == expected_anc


@given(random_dags())
@settings(max_examples=40, deadline=None)
def test_closure_survives_edge_removal(graph):
    """Removing an edge rebuilds the closure to match BFS again."""
    edges = graph.edges
    if not edges:
        return
    victim = edges[len(edges) // 2]
    graph.remove_edge(victim.source, victim.target)
    reach = {name: bfs_reachable(graph, name) for name in graph.vertices}
    for source in graph.vertices:
        assert graph.descendants(source) == reach[source]
        assert graph.ancestors(source) == {
            u for u in graph.vertices if u != source and source in reach[u]
        }


@given(random_dags(max_vertices=12))
@settings(max_examples=40, deadline=None)
def test_dp_ordering_count_matches_enumeration(graph):
    """The downset-DP counter equals the backtracking enumerator exactly.

    Both sides are capped at the same limit so sparse 12-vertex graphs
    (up to 12! extensions) stay cheap; under the cap the counts must agree
    exactly, at the cap both must saturate to it.
    """
    cap = 20000
    enumerated = sum(1 for _ in graph.all_orderings(limit=cap))
    assert graph.count_orderings(limit=cap) == enumerated


@given(random_dags())
@settings(max_examples=60, deadline=None)
def test_batch_racing_pairs_match_pairwise_check(graph):
    """all_racing_pairs must equal the pairwise Theorem 1 check."""
    batch = set(map(frozenset, graph.all_racing_pairs()))
    pairwise = {
        frozenset((u, v))
        for u, v in combinations(graph.vertices, 2)
        if has_race(graph, u, v)
    }
    assert batch == pairwise
    assert {frozenset(r.as_pair()) for r in find_races(graph)} == pairwise


@given(random_dags(max_vertices=24))
@settings(max_examples=60, deadline=None)
def test_popcount_race_count_matches_the_pair_list(graph):
    assert graph.count_racing_pairs() == len(graph.all_racing_pairs())


@given(random_dags())
@settings(max_examples=40, deadline=None)
def test_racing_partners_consistent_with_batch(graph):
    pairs = graph.all_racing_pairs()
    by_vertex = {name: set() for name in graph.vertices}
    for u, v in pairs:
        by_vertex[u].add(v)
        by_vertex[v].add(u)
    for name in graph.vertices:
        assert graph.racing_partners(name) == by_vertex[name]


@given(random_dags(), st.integers(min_value=1, max_value=20))
@settings(max_examples=40, deadline=None)
def test_count_orderings_limit_contract(graph, limit):
    """With a cap, the counter returns min(exact, cap), as the enumerator did."""
    exact = graph.count_orderings(limit=None)
    assert graph.count_orderings(limit=limit) == min(exact, limit)


def test_capped_count_bounds_work_on_wide_antichains():
    """A capped count on a pathological downset lattice stays fast (DP falls
    back to the bounded enumerator instead of exploring 2^40 states)."""
    graph = TopologicalSortGraph(name="star")
    graph.add_vertex("root")
    for i in range(40):
        graph.add_vertex(f"leaf{i}")
        graph.add_edge("root", f"leaf{i}")
    assert graph.count_orderings(limit=100) == 100


def test_find_races_among_unknown_vertex_raises():
    graph = TopologicalSortGraph()
    graph.add_vertex("A")
    graph.add_vertex("B")
    with pytest.raises(KeyError, match="Unknown vertex"):
        find_races(graph, among=["A", "missing"])


def test_copy_has_independent_closure():
    graph = TopologicalSortGraph()
    for name in "ABC":
        graph.add_vertex(name)
    graph.add_edge("A", "B")
    clone = graph.copy()
    clone.add_edge("B", "C")
    assert clone.has_path("A", "C")
    assert not graph.has_path("A", "C")
    assert graph.racing_partners("C") == {"A", "B"}
