#!/usr/bin/env python
"""Quickstart for the unified ``Engine`` session API.

The session model: create one :class:`repro.engine.Engine`, let it own the
cached artifacts (attack graphs keyed on ``Program.content_hash()``,
defense evaluations, synthesized graphs) and its process pool, and run
every analysis through it as a :class:`repro.scenario.ScenarioSpec` --
build once, analyze many, shard the sweeps.

Run from the repo root::

    PYTHONPATH=src python examples/engine_quickstart.py
"""

from __future__ import annotations

from repro.engine import Engine
from repro.isa import assemble
from repro.scenario import ScenarioSpec

LISTING1 = """
.data
probe_array:  address=0x1000000 size=1048576 shared
victim_array: address=0x200000  size=16
victim_size:  address=0x210000  size=8
secret:       address=0x200048  size=1 protected
.text
    cmp rdx, [victim_size]
    ja done
    mov rax, byte [victim_array + rdx]
    shl rax, 12
    mov rbx, [probe_array + rax]
done:
    hlt
"""


def main() -> None:
    program = assemble(LISTING1, name="victim")

    with Engine(parallel=2) as engine:
        # -- 1. Build once, analyze many ---------------------------------
        # The first analyze constructs the attack graph; the second is a
        # content-hash cache hit (same Result data, microseconds).
        cold = engine.run(ScenarioSpec("analyze", program=program))
        warm = engine.run(ScenarioSpec("analyze", program=program))
        print(f"cold analyze: cache={cold.cache}, vulnerable={not cold.ok}, "
              f"findings={len(cold.data['findings'])}")
        print(f"warm analyze: cache={warm.cache} "
              f"(stats: {engine.stats()['analyses']})")

        # Mutating the program changes its content hash -> fresh build.
        patched = assemble(LISTING1.replace("ja done", "ja done\n    lfence"),
                           name="victim")
        print(f"hashes differ after patching: "
              f"{program.content_hash() != patched.content_hash()}")
        patched_result = engine.run(ScenarioSpec("analyze", program=patched))
        print(f"patched still vulnerable: {not patched_result.ok}")

        # -- 2. Uniform Result envelope ----------------------------------
        # Every analysis returns the same JSON-serializable envelope; this
        # is what `repro analyze --json` / `repro evaluate --json` print.
        print("\nResult envelope (truncated):")
        print(cold.to_json(indent=None)[:120] + "...")

        # -- 3. Shard the defense matrix over the process pool -----------
        # Rows are sorted by (defense, attack) key, so parallel output is
        # byte-identical to a serial run.
        matrix = engine.run(ScenarioSpec("matrix"), parallel=2)
        print(f"\ndefense matrix: {matrix.subject}, "
              f"{matrix.data['effective']} effective pairings, "
              f"every attack defeated: {matrix.ok}")

        # -- 4. Sweep the Section V-A attack space ------------------------
        # Structurally identical (source, delay) combinations share one
        # graph build and verdict, so the sweep runs in process.
        space = engine.run(ScenarioSpec("synthesize"))
        print(f"attack space: {space.data['combinations']} combinations, "
              f"{space.data['published']} published, "
              f"{space.data['novel']} novel, {space.data['leaking']} leaking")

        # Structurally identical combinations dedupe to one verdict in the
        # session's cache: one miss per (source, delay), hits for the rest.
        print(f"cache stats after the sweep: "
              f"synth_verdicts={engine.stats()['synth_verdicts']}")


if __name__ == "__main__":
    main()
