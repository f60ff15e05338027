"""E17 -- Cycle-accurate timing core: the measured Theorem-1 race and the
event-queue scheduler's win over the per-cycle rescan baseline."""

from __future__ import annotations

import pytest

from repro import perf
from repro.uarch.timing import DEFAULT_MODEL, EventScheduler, RescanScheduler
from repro.uarch.timing.validate import cross_validate, timed_exploit


@pytest.mark.experiment("E17")
def test_spectre_v1_transmit_beats_squash(benchmark):
    """Listing 1 on the timing core: the covert send issues before the squash."""
    result = benchmark(lambda: timed_exploit("spectre_v1"))
    trace = result.timing
    window = trace.windows[0]
    print(
        f"\nspectre_v1: transmit @{window.transmit_cycle} vs squash "
        f"@{window.squash_cycle} over a {window.window_cycles}-cycle window"
    )
    assert result.success
    assert window.transmit_cycle <= window.squash_cycle


@pytest.mark.experiment("E17")
def test_registry_wide_theorem1_agreement(benchmark):
    """Every registry attack: measured race outcome == TSG race verdict."""
    checks = benchmark(cross_validate)
    agreeing = sum(1 for check in checks if check.agrees)
    print(f"\nTheorem 1 cross-validation: {agreeing}/{len(checks)} attacks agree")
    assert agreeing == len(checks)


@pytest.mark.experiment("E17")
def test_event_queue_beats_rescan_baseline(benchmark):
    """The acceptance bar: event-driven scheduling >= 5x over the rescan loop
    on a 500-instruction serialized-miss program."""
    program = perf.build_timing_program(500)
    from repro.uarch.timing import TimingCPU

    cpu = TimingCPU(program)
    cpu.run()
    ops = cpu.last_ops

    event = benchmark(lambda: EventScheduler(DEFAULT_MODEL).schedule(ops))
    rescan = RescanScheduler(DEFAULT_MODEL).schedule(ops)
    assert event == rescan
    record = perf.measure_timing_scheduler(instructions=500, repeats=1)
    print(
        f"\nevent queue {record['event_seconds'] * 1e3:.2f} ms vs rescan "
        f"{record['rescan_seconds'] * 1e3:.1f} ms on {record['instructions']} "
        f"instructions -> {record['speedup_event_vs_rescan']:.1f}x"
    )
    floor = perf.gate("timing-event-queue", "speedup_event_vs_rescan")
    assert floor.holds(record["speedup_event_vs_rescan"])
