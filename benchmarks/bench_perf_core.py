"""P1 -- the reachability-indexed TSG core at scale.

Asserts that the downset-DP ordering counter agrees exactly with the
enumeration counter on every attack graph in the registry and on Figure 2,
and that all-pairs race analysis stays a sub-millisecond sweep on a
500-vertex layered graph.  Closure == seed BFS is a differential property
test in ``tests/test_core_perf_index.py``.
"""

from __future__ import annotations

import random

import pytest

from repro.attacks import build_all_graphs
from repro.core import TopologicalSortGraph, figure2_example


def build_layered_dag(
    vertices: int, width: int = 5, extra_edges: int = 0, seed: int = 1
) -> TopologicalSortGraph:
    """A deterministic layered DAG: ``vertices / width`` layers of ``width``.

    Every vertex depends on every vertex of the previous layer, plus
    ``extra_edges`` random forward edges that skip at least one layer, so
    the graph holds ``layers * C(width, 2)`` racing pairs -- a stand-in for
    wide attack graphs.
    """
    rng = random.Random(seed)
    graph = TopologicalSortGraph(name=f"layered-{vertices}v")
    names = [f"n{i}" for i in range(vertices)]
    for name in names:
        graph.add_vertex(name)
    for i in range(width, vertices):
        layer_start = (i // width) * width
        for j in range(layer_start - width, layer_start):
            graph.add_edge(names[j], names[i])
    added = 0
    while added < extra_edges:
        a, b = sorted(rng.sample(range(vertices), 2))
        if b // width - a // width >= 2 and not graph.has_edge(names[a], names[b]):
            graph.add_edge(names[a], names[b])
            added += 1
    return graph


@pytest.mark.experiment("P1")
def test_count_orderings_parity_on_registry_graphs(benchmark):
    """DP counts == enumeration counts on every registry attack graph."""
    graphs = build_all_graphs()
    cap = 50000

    def dp_counts():
        return {key: graph.count_orderings(limit=cap) for key, graph in graphs.items()}

    counted = benchmark(dp_counts)
    for key, graph in graphs.items():
        enumerated = sum(1 for _ in graph.all_orderings(limit=cap))
        assert counted[key] == enumerated, f"count mismatch on {key}"
    assert len(counted) == len(graphs)


@pytest.mark.experiment("P1")
def test_figure2_exact_count_uncapped(benchmark):
    """The DP gives the exact (uncapped) linear-extension count of Figure 2."""
    graph = figure2_example()
    exact = benchmark(lambda: graph.count_orderings(limit=None))
    assert exact == sum(1 for _ in graph.all_orderings())


@pytest.mark.experiment("P1")
def test_closure_scales_to_500v(benchmark):
    """The 500-vertex graph is still sub-millisecond-per-sweep territory."""
    graph = build_layered_dag(500, width=5, extra_edges=50)
    races = benchmark(graph.all_racing_pairs)
    assert len(graph) == 500
    assert races and all(u != v for u, v in races)
