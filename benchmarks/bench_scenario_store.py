"""E18 -- Declarative scenario specs + the disk-persistent artifact store.

Asserts the acceptance properties of the ScenarioSpec/ArtifactStore
redesign: a spec re-run in a *fresh* session is served warm from the disk
store with byte-identical rows, and composite kinds route their points
through the same ``run`` spine.
"""

from __future__ import annotations

import pytest

from repro.engine import Engine
from repro.scenario import ScenarioGrid, ScenarioSpec
from repro.store import DiskStore


@pytest.mark.experiment("E18")
def test_disk_warm_run_serves_identical_rows(tmp_path, benchmark):
    """A fresh session serves the spec warm from disk, rows unchanged."""
    spec = ScenarioSpec(
        "simulate_sweep",
        attacks=("spectre_v1", "meltdown"),
        defenses=(None, "PREVENT_SPECULATIVE_LOADS"),
    )
    with Engine(store=DiskStore(root=tmp_path, version="bench")) as engine:
        cold = engine.run(spec)

    def warm_run():
        with Engine(store=DiskStore(root=tmp_path, version="bench")) as fresh:
            return fresh.run(spec)

    warm = benchmark(warm_run)
    assert warm.cache == "warm"
    assert warm.data == cold.data  # byte-identical rows


@pytest.mark.experiment("E18")
def test_grid_points_share_the_store_across_sessions(tmp_path, benchmark):
    """Every grid point persists individually: overlapping grids reuse them."""
    first = ScenarioGrid("simulate", axes={"attack": ["spectre_v1", "meltdown"]})
    overlap = ScenarioGrid(
        "simulate", axes={"attack": ["spectre_v1", "meltdown", "foreshadow"]}
    )
    with Engine(store=DiskStore(root=tmp_path, version="bench")) as engine:
        engine.run_grid(first)

    def overlapping_run():
        with Engine(store=DiskStore(root=tmp_path, version="bench")) as fresh:
            return fresh, fresh.run_grid(overlap)

    fresh, result = benchmark(overlapping_run)
    assert result.data["points"] == 3
    # The two shared points were warm disk hits, only foreshadow computed.
    assert fresh.stats()["store"]["hits"] >= 2


@pytest.mark.experiment("E18")
def test_workloads_route_through_the_spec_spine(benchmark):
    """Cache-stats acceptance: every workload is a spec execution."""
    def spec_runs():
        with Engine() as engine:
            engine.run(ScenarioSpec("simulate", attack="spectre_v1"))
            engine.run(
                ScenarioSpec("simulate_sweep", attacks=["spectre_v1"], defenses=[None])
            )
            engine.run(ScenarioSpec("ablation", attack="spectre_v1", defenses=[]))
            return engine.stats()["runs"]

    runs = benchmark(spec_runs)
    assert runs["simulate"] >= 2  # direct + the sweep's row
    assert runs["simulate_sweep"] == 1
    assert runs["ablation"] == 1 and runs["exploit"] >= 1
