"""E17 -- Cycle-accurate timing core: the measured Theorem-1 race."""

from __future__ import annotations

import pytest

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

