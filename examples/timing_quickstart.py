#!/usr/bin/env python
"""Quickstart for the cycle-accurate OoO timing core (``repro.uarch.timing``).

Run from the repo root::

    PYTHONPATH=src python examples/timing_quickstart.py

The walk-through measures the race the paper's Theorem 1 predicts: a
Spectre v1 victim run on the event-driven Tomasulo core, cycle stamps for the
window open / covert transmit / authorization resolve / squash, the effect of
a defense on the same race, and the registry-wide TSG cross-validation
through the ``Engine`` session API.
"""

from __future__ import annotations

from repro.engine import Engine
from repro.scenario import ScenarioSpec
from repro.uarch import SimDefense
from repro.uarch.timing.validate import cross_validate, timed_exploit, validation_report


def main() -> None:
    # ------------------------------------------------------------------
    # 1. One attack, cycle by cycle.
    # ------------------------------------------------------------------
    print("=== Spectre v1 on the timing core ===")
    result = timed_exploit("spectre_v1")
    trace = result.timing
    print(f"functional verdict: {'LEAKED' if result.success else 'no leak'} "
          f"(recovered {result.recovered:#x})")
    for event in trace.key_events():
        print(f"  cycle {event.cycle:>5}: {event.kind:<12} {event.detail}")
    window = trace.windows[0]
    print(f"measured window: {window.window_cycles} cycles; transmit "
          f"@{window.transmit_cycle} {'<=' if window.leaked_in_time else '>'} "
          f"squash @{window.squash_cycle} -> "
          f"{'transmit wins the race' if window.leaked_in_time else 'squash wins'}")

    # ------------------------------------------------------------------
    # 2. The same race under a defense: the transmit never issues.
    # ------------------------------------------------------------------
    print("\n=== ... with speculative loads prevented ===")
    engine = Engine()
    spec = ScenarioSpec(
        "simulate", attack="spectre_v1", defenses=[SimDefense.PREVENT_SPECULATIVE_LOADS]
    )
    defended = engine.run(spec)
    print(f"transmit cycle: {defended.data['transmit_cycle']} "
          f"(squash @{defended.data['squash_cycle']}) -> "
          f"{'leak' if defended.data['transmit_beats_squash'] else 'defended'}")

    # ------------------------------------------------------------------
    # 3. Simulations are content-hash cached on (attack, config, secret).
    # ------------------------------------------------------------------
    warm = engine.run(spec)
    print(f"repeated simulate: cache={warm.cache} "
          f"(stats: {engine.stats()['simulations']})")

    # ------------------------------------------------------------------
    # 4. Theorem 1, registry-wide: measured race == TSG verdict.
    # ------------------------------------------------------------------
    print("\n=== Theorem 1 cross-validation ===")
    print(validation_report(cross_validate()))

    engine.close()


if __name__ == "__main__":
    main()
