"""P1 -- perf guard for the reachability-indexed TSG core.

Asserts the two acceptance properties of the bitset-closure refactor:

* all-pairs race analysis on the 200-vertex / 1000-edge synthetic TSG is at
  least 10x faster than the seed's BFS-per-query implementation (in
  practice it is three orders of magnitude faster), and
* the downset-DP ordering counter agrees exactly with the enumeration
  counter on every attack graph in the registry.

The trajectory harness (``benchmarks/run_perf.py`` / ``repro perf``) records
the same measurements into BENCH_core.json for cross-PR tracking.
"""

from __future__ import annotations

import time

import pytest

from repro.attacks import build_all_graphs
from repro.core import figure2_example
from repro.perf import bfs_racing_pairs, build_layered_dag, gate


def _min_time(fn, repeats: int = 5):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


@pytest.mark.experiment("P1")
def test_all_pairs_race_speedup_200v_1000e(benchmark):
    """Closure-based all-pairs races >= 10x faster than the seed BFS, same answer."""
    graph = build_layered_dag(200, width=5, extra_edges=25)
    assert len(graph) == 200
    assert len(graph.edges) >= 1000

    closure_races = benchmark(graph.all_racing_pairs)
    closure_seconds, _ = _min_time(graph.all_racing_pairs)
    bfs_seconds, bfs_races = _min_time(lambda: bfs_racing_pairs(graph), repeats=1)

    assert set(map(frozenset, bfs_races)) == set(map(frozenset, closure_races))
    speedup = bfs_seconds / closure_seconds
    print(
        f"\nall-pairs races on 200v/1000e: closure {closure_seconds * 1e3:.3f} ms, "
        f"seed BFS {bfs_seconds * 1e3:.1f} ms -> {speedup:.0f}x"
    )
    assert gate(None, "speedup_all_pairs").holds(speedup)


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
