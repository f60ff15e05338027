"""E19 -- Fault-tolerant streaming grids: checkpoint overhead + resume.

Asserts the acceptance properties of the resumable-campaign redesign: a
clean grid checkpointing every point through a DiskStore stays within the
ROADMAP overhead ceiling of the plain in-memory run (byte-identical
envelope), a resumed campaign recomputes zero completed points, and a
grid with an always-failing point quarantines it while the rest of the
grid completes.
"""

from __future__ import annotations

import pytest

from repro.engine import Engine, FailurePolicy
from repro.faults import FaultPlan, FaultSpec
from repro.perf import gate, measure_grid_resume
from repro.scenario import ScenarioGrid
from repro.store import DiskStore


@pytest.mark.experiment("E19")
def test_checkpoint_overhead_and_resume(benchmark):
    """The acceptance bar: overhead under the ceiling, resume recomputes 0."""
    record = benchmark(lambda: measure_grid_resume(points=50, repeats=1))
    print(
        f"\ngrid resume ({record['points']} points): plain "
        f"{record['plain_seconds'] * 1e3:.0f} ms vs checkpointed "
        f"{record['checkpoint_seconds'] * 1e3:.0f} ms "
        f"({record['overhead_fraction']:+.1%}); resume "
        f"{record['resume_seconds'] * 1e3:.0f} ms, "
        f"{record['resume_recomputed']} recomputed"
    )
    assert gate("grid-resume-overhead", "resume_recomputed").holds(
        record["resume_recomputed"]
    )
    # The CI floor runs at 200 points where the fixed costs amortize; the
    # 50-point smoke keeps a slack factor on the same ceiling.
    ceiling = gate("grid-resume-overhead", "overhead_fraction").bound
    assert record["overhead_fraction"] <= 3 * ceiling


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
