"""E21 -- The batch simulation plane: warm-session serving.

Asserts the acceptance properties of the ``simulate_batch`` kind: a
campaign-shaped point list (repeated passes over the registry x defense
grid -- the shape fuzzing sweeps, resumed campaigns and overlapping
service traffic produce) is served with rows identical point for point
to the per-point loop, and the per-point envelopes byte-identical to
per-point ``simulate`` specs on an equivalent session.
"""

from __future__ import annotations

import pytest

from repro.engine import Engine, _batch_point_spec
from repro.scenario import ScenarioSpec
from repro.uarch.timing.validate import SCENARIOS


@pytest.mark.experiment("E21")
def test_batch_envelopes_match_per_point_simulate(benchmark):
    """Serial batch envelopes are byte-identical to the per-point loop."""
    points = ["spectre_v1", "meltdown", "spectre_v1",
              {"attack": "lvi", "defenses": ("PREVENT_SPECULATIVE_LOADS",)}]
    spec = ScenarioSpec("simulate_batch", points=points)
    batch = benchmark(lambda: Engine().run(spec))
    loop_engine = Engine()
    loop = [loop_engine.run(_batch_point_spec(point)) for point in points]
    assert [result.to_json() for result in batch.payload] == [
        result.to_json() for result in loop
    ]
    assert batch.data["points"] == len(points)
    assert batch.data["rows"] == [result.data for result in loop]


@pytest.mark.experiment("E21")
@pytest.mark.slow
def test_full_size_batch_sweep_matches_the_sweep_rows():
    """The full-size campaign: every (attack x defense) point, many epochs.

    Excluded from tier-1 behind the ``slow`` marker; cross-checks the batch
    plane against ``simulate_sweep`` on the complete grid.
    """
    from repro.uarch.defenses import SimDefense

    attacks = sorted(SCENARIOS)
    defenses = [None] + [defense.name for defense in SimDefense]
    base = [
        {"attack": attack} if defense is None
        else {"attack": attack, "defenses": (defense,)}
        for attack in attacks
        for defense in defenses
    ]
    points = base * 5
    with Engine() as engine:
        batch = engine.run(ScenarioSpec("simulate_batch", points=points), parallel=2)
        sweep = engine.run(ScenarioSpec("simulate_sweep"))
    by_key = {
        (row["attack"], tuple(row["defenses"])): row for row in sweep.data["rows"]
    }
    assert batch.data["points"] == len(points)
    for point, row in zip(points, batch.data["rows"]):
        expected = by_key[
            (point["attack"],
             tuple(name.lower() for name in point.get("defenses", ())))
        ]
        assert row == expected
