"""Property-based tests (hypothesis) for the core graph model.

The central property is Theorem 1 itself: on arbitrary DAGs, the path-based
race check must agree with the definition-based (ordering-enumeration) check.
"""

from __future__ import annotations

from itertools import combinations

from hypothesis import given, settings, strategies as st

from repro.core import (
    TopologicalSortGraph,
    find_races,
    has_race,
    has_race_by_enumeration,
    race_free,
    verify_theorem1,
)


@st.composite
def random_dags(draw, max_vertices: int = 7):
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
def test_theorem1_on_random_dags(graph):
    """Theorem 1: no race between u and v iff a directed path connects them."""
    assert verify_theorem1(graph, ordering_limit=5000).holds


@given(random_dags())
@settings(max_examples=60, deadline=None)
def test_every_topological_order_is_valid(graph):
    assert graph.is_valid_ordering(graph.topological_order())


@given(random_dags())
@settings(max_examples=40, deadline=None)
def test_adding_an_edge_never_creates_new_races(graph):
    """Edges only constrain orderings, so the set of races can only shrink."""
    races_before = {frozenset(race.as_pair()) for race in find_races(graph)}
    for u, v in combinations(graph.vertices, 2):
        if not graph.has_edge(u, v) and not graph.has_path(v, u):
            graph.add_edge(u, v)
            break
    races_after = {frozenset(race.as_pair()) for race in find_races(graph)}
    assert races_after <= races_before


@given(random_dags())
@settings(max_examples=40, deadline=None)
def test_race_free_iff_unique_topological_order(graph):
    """A TSG is race free exactly when it admits a single valid ordering."""
    unique = graph.count_orderings(limit=5000) == 1
    assert race_free(graph) == unique


@given(random_dags())
@settings(max_examples=40, deadline=None)
def test_race_check_is_symmetric_and_irreflexive(graph):
    for u, v in combinations(graph.vertices, 2):
        assert has_race(graph, u, v) == has_race(graph, v, u)
    for u in graph.vertices:
        assert not has_race(graph, u, u)


@given(random_dags(max_vertices=6), st.integers(min_value=0, max_value=100))
@settings(max_examples=40, deadline=None)
def test_enumeration_check_matches_on_sampled_pair(graph, seed):
    vertices = graph.vertices
    u = vertices[seed % len(vertices)]
    v = vertices[(seed // len(vertices)) % len(vertices)]
    if u == v:
        return
    assert has_race(graph, u, v) == has_race_by_enumeration(graph, u, v, limit=5000)


@given(random_dags(), st.data())
@settings(max_examples=60, deadline=None)
def test_racing_pairs_between_equals_racing_partners(graph, data):
    """Sources in the given order, each one's racing targets in insertion order."""
    sources = data.draw(st.lists(st.sampled_from(graph.vertices)))
    targets = set(data.draw(st.lists(st.sampled_from(graph.vertices))))
    assert graph.racing_pairs_between(sources, targets) == [
        (source, target)
        for source in sources
        for target in graph.vertices
        if target in targets and target in graph.racing_partners(source)
    ]
