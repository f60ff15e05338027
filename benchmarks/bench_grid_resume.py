"""E19 -- Fault-tolerant streaming grids: checkpointing + resume.

Asserts the acceptance properties of the resumable-campaign redesign: a
clean grid checkpointing every point through a DiskStore makes one put per
computed point and matches the plain in-memory run byte for byte, a
resumed campaign recomputes zero completed points, and a grid with an
always-failing point quarantines it while the rest of the grid completes.
"""

from __future__ import annotations

import pytest

from repro.engine import Engine, FailurePolicy
from repro.faults import FaultPlan, FaultSpec
from repro.perf import gate, measure_grid_resume
from repro.scenario import ScenarioGrid
from repro.store import DiskStore


@pytest.mark.experiment("E19")
def test_checkpoint_and_resume(benchmark):
    """The acceptance bar: one put per computed point, resume recomputes 0,
    and the disabled tracer is read for nothing but ``enabled``."""
    record = benchmark(lambda: measure_grid_resume(points=50))
    print(
        f"\ngrid resume ({record['points']} points): {record['puts']} puts "
        f"for {record['computed']} computed points "
        f"({record['ms_per_put']:.2f} ms per put); "
        f"{record['resume_recomputed']} recomputed on resume"
    )
    for field in ("resume_recomputed", "puts_per_computed_point", "disabled_tracer_reads"):
        assert gate("grid-resume", field).holds(record[field]), field


@pytest.mark.experiment("E19")
def test_poisoned_point_quarantines_while_the_grid_completes(tmp_path, benchmark):
    """An always-crashing point must not take the campaign down with it."""
    grid = ScenarioGrid(
        "simulate", axes={"attack": ["spectre_v1"], "secret": list(range(8))}
    )
    faults = FaultPlan([FaultSpec(kind="exception", match="secret=5")])
    policy = FailurePolicy(retries=1, backoff=0.001, jitter=0.0)

    def poisoned_run():
        store = DiskStore(root=tmp_path, version="bench")
        store.clear()
        with Engine(store=store, policy=policy, faults=faults) as engine:
            return engine.run_grid(grid)

    result = benchmark(poisoned_run)
    assert result.data["quarantined"] == 1
    assert result.data["points"] == 8
    healthy = [row for i, row in enumerate(result.data["rows"]) if i != 5]
    assert all("quarantined" not in row["data"] for row in healthy)
