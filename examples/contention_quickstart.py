#!/usr/bin/env python
"""Quickstart for functional-unit contention (``repro.channels.contention``).

Run from the repo root::

    PYTHONPATH=src python examples/contention_quickstart.py

The walk-through demonstrates the Section II-C *functional-unit contention*
covert channel end to end: a sender encodes a secret byte-fragment as
multiplier-port occupancy, the receiver times its own probe burst and decodes
the value from the cycle delta; the same transmit on an unbounded machine
yields no signal at all (port duplication as a defense).  It then runs the
paper's window-length ablation on the timing core -- ROB/RS/port-count sweeps
in measured cycles -- showing the smallest window closing the Spectre v1 race
and the serialized-port machine closing Spectre v2's.
"""

from __future__ import annotations

from dataclasses import replace

from repro.channels import ContentionChannel, PortContentionSurface
from repro.channels.contention import WIDE_WINDOW_MODEL
from repro.engine import Engine
from repro.scenario import ScenarioSpec
from repro.uarch.timing import CONTENDED_MODEL, SERIALIZED_MODEL
from repro.uarch.timing.validate import check_attack

SECRET_NIBBLE = 0xB


def main() -> None:
    # ------------------------------------------------------------------
    # 1. The FU-contention transmit, detected.
    # ------------------------------------------------------------------
    print("=== FU-contention covert channel (1 mul port, width-1 CDB) ===")
    channel = ContentionChannel()  # defaults to the contended mul-port surface
    observation = channel.transmit(SECRET_NIBBLE)
    baseline, measured = observation.latencies
    print(f"sent {SECRET_NIBBLE:#x}: probe burst {baseline} -> {measured} cycles "
          f"(delta {measured - baseline}, {channel.unit_delta} cycles/unit)")
    print(f"receiver decodes: {observation.value:#x} "
          f"({'DETECTED' if observation.detected else 'no signal'})")

    # ------------------------------------------------------------------
    # 2. Port duplication defeats the channel: zero occupancy delta.
    # ------------------------------------------------------------------
    print("\n=== ... on an unbounded machine (the PR-3 timing plane) ===")
    unbounded = ContentionChannel(PortContentionSurface(WIDE_WINDOW_MODEL))
    observation = unbounded.transmit(SECRET_NIBBLE)
    print(f"sent {SECRET_NIBBLE:#x}: cycle delta "
          f"{observation.latencies[1] - observation.latencies[0]} -> "
          f"{'detected' if observation.detected else 'NO SIGNAL (channel defeated)'}")

    # ------------------------------------------------------------------
    # 3. Any pool carries the channel; the signal scales with occupancy.
    # ------------------------------------------------------------------
    print("\n=== occupancy delta per pool (3 sender ops) ===")
    for pool in ("alu", "load_store", "branch", "mul"):
        surface = PortContentionSurface(
            replace(WIDE_WINDOW_MODEL, **{f"{pool}_ports": 1}), pool=pool
        )
        print(f"  {pool:<11}: {surface.occupancy_delta(3)} cycles")

    # ------------------------------------------------------------------
    # 4. The window-length ablation: ROB/RS/ports in measured cycles.
    # ------------------------------------------------------------------
    print("\n=== window-length ablation (spectre_v1) ===")
    engine = Engine()
    result = engine.run(ScenarioSpec("window_ablation", attacks=["spectre_v1"]))
    for row in result.data["rows"]:
        print(f"  rob={row['rob_size']:>3} rs={row['rs_entries']:>2} "
              f"ports={row['ports']:<10} window={row['window_cycles']:>4} cycles  "
              f"transmit@{row['transmit_cycle']} vs squash@{row['squash_cycle']} -> "
              f"{'LEAKS' if row['transmit_beats_squash'] else 'safe'}")
    for row in result.data["contention_channel"]:
        print(f"  contention channel [{row['ports']}]: delta {row['cycle_delta']} "
              f"cycles -> {'transmits' if row['detected'] else 'no signal'}")

    # ------------------------------------------------------------------
    # 5. Port counts change the race itself: Spectre v2 under serialization.
    # ------------------------------------------------------------------
    print("\n=== spectre_v2: memory-level parallelism is load-bearing ===")
    for label, model in (("contended", CONTENDED_MODEL), ("serialized", SERIALIZED_MODEL)):
        check = check_attack("spectre_v2", model=model)
        print(f"  {label:<10}: transmit@{check.transmit_cycle} vs "
              f"squash@{check.squash_cycle} -> "
              f"{'leaks' if check.transmit_beats_squash else 'safe'} "
              f"(TSG says {'leaks' if check.tsg_leaks else 'safe'})")

    engine.close()


if __name__ == "__main__":
    main()
