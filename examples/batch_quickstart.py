#!/usr/bin/env python
"""Quickstart for the batch timing plane: a ``simulate_batch`` spec.

A *batch* is a list of timing points -- attack names, optionally with
per-point defenses / config / secret / model overrides -- served from one
warm session per pool worker instead of one cold ``run()`` per point.
The rows and envelopes are exactly what per-point ``simulate`` specs
would have produced; the batch plane only changes how fast you get them
(the ``timing-batch`` benchmark enforces a >=10x points/sec floor).

Run from the repo root::

    PYTHONPATH=src python examples/batch_quickstart.py
"""

from __future__ import annotations

import time

from repro.engine import Engine
from repro.scenario import ScenarioSpec


def main() -> None:
    # A campaign-shaped workload: repeated passes over a few registry
    # attacks, undefended and defended.  Points may be bare attack names
    # or mappings with any ``simulate`` parameter.
    base_points = [
        "spectre_v1",
        "meltdown",
        "spectre_v2",
        {"attack": "lvi", "defenses": ("PREVENT_SPECULATIVE_LOADS",)},
        {"attack": "spectre_v1", "defenses": ("DELAY_SPECULATIVE_MISSES",)},
    ]
    points = base_points * 40  # 200 points, 5 unique simulations

    # -- 1. One call, one envelope -------------------------------------
    started = time.perf_counter()
    with Engine() as engine:
        batch = engine.run(ScenarioSpec("simulate_batch", points=points), parallel=2)
    elapsed = time.perf_counter() - started

    data = batch.data
    print(
        f"{data['points']} points ({data['unique_simulations']} unique "
        f"simulations), {data['leaking']} leaking, in {elapsed:.2f}s "
        f"({data['points'] / elapsed:.0f} pts/s)"
    )

    # -- 2. Rows come back in input order, one per point ---------------
    for point, row in list(zip(points, data["rows"]))[: len(base_points)]:
        verdict = "LEAKS" if row["transmit_beats_squash"] else "safe"
        defenses = ",".join(row["defenses"]) or "-"
        print(
            f"  {row['attack']:>12} defenses={defenses} "
            f"transmit@{row['transmit_cycle']} squash@{row['squash_cycle']} "
            f"{verdict}"
        )

    # -- 3. The payload holds the full per-point Result envelopes ------
    # (byte-identical to per-point ``engine.run`` calls: same data, same
    # cache provenance, same JSON).
    first = batch.payload[0]
    print(f"first envelope: kind={first.kind} subject={first.subject!r}")

    # -- 4. The same batch from the CLI --------------------------------
    print(
        "CLI equivalent: write the point list to points.json and run\n"
        "  repro simulate --batch points.json --parallel 2 --json"
    )


if __name__ == "__main__":
    main()
