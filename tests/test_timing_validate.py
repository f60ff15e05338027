"""Theorem-1 cross-validation: measured cycle races vs TSG verdicts.

The acceptance property of the timing subsystem: for every attack in the
registry, the timing core's measured race outcome (did the covert transmit
issue before the squash landed?) matches the TSG's path-based race verdict.
"""

from __future__ import annotations

import pytest

from repro.attacks.registry import keys
from repro.engine import Engine
from repro.scenario import ScenarioSpec
from repro.uarch import SimDefense, UarchConfig
from repro.uarch.timing import CONTENDED_MODEL, SERIALIZED_MODEL
from repro.uarch.timing.validate import (
    SCENARIOS,
    check_attack,
    cross_validate,
    timed_exploit,
    validation_report,
)


class TestScenarioCoverage:
    def test_every_registry_attack_has_a_scenario(self):
        assert set(keys()) <= set(SCENARIOS)

    def test_unknown_attack_is_rejected(self):
        with pytest.raises(KeyError):
            cross_validate(["rowhammer"])

    def test_unknown_scenario_is_rejected(self):
        with pytest.raises(KeyError):
            timed_exploit("rowhammer")


class TestTheorem1CrossValidation:
    def test_registry_wide_agreement(self):
        """For every attack: TSG race verdict == measured transmit-vs-squash."""
        checks = cross_validate()
        assert len(checks) == len(keys())
        disagreeing = [check.attack for check in checks if not check.agrees]
        assert disagreeing == []
        # All published attacks leak undefended, on both sides of the check.
        assert all(check.tsg_leaks for check in checks)
        assert all(check.transmit_beats_squash for check in checks)
        # Every measured race is cycle-stamped.
        for check in checks:
            assert check.transmit_cycle is not None
            assert check.squash_cycle is not None
            assert check.transmit_cycle <= check.squash_cycle
            assert check.window_cycles and check.window_cycles > 0

    def test_single_attack_check(self):
        check = check_attack("spectre_v1")
        assert check.scenario == "spectre_v1"
        assert check.agrees and check.functional_leak

    def test_defense_flips_the_measured_race(self):
        config = UarchConfig().with_defenses(SimDefense.PREVENT_SPECULATIVE_LOADS)
        result = timed_exploit("spectre_v1", config)
        assert not result.success
        assert not result.timing.transmit_beats_squash

    def test_validation_report_renders(self):
        checks = cross_validate(["spectre_v1", "meltdown"])
        text = validation_report(checks)
        assert "2/2 attacks agree" in text
        assert "spectre_v1" in text and "meltdown" in text

    def test_agreement_needs_the_decoded_byte(self):
        """Theorem 1 holds only when TSG, race and decoded byte all agree."""
        from dataclasses import replace

        check = check_attack("spectre_v1")
        assert check.agrees
        assert not replace(check, functional_leak=not check.functional_leak).agrees

    def test_simulate_row_agreement_needs_the_decoded_byte(self):
        from dataclasses import replace

        from repro.engine import _simulate_row

        result = Engine().run(ScenarioSpec("simulate", attack="spectre_v1")).payload
        wrong_byte = replace(result, recovered=result.secret ^ 0xFF)
        config = UarchConfig()
        row = _simulate_row("spectre_v1", "spectre_v1", config, result, {})
        flipped = _simulate_row("spectre_v1", "spectre_v1", config, wrong_byte, {})
        assert row["leaked"] and row["theorem1_agrees"]
        assert not flipped["leaked"]
        assert flipped["transmit_beats_squash"] == row["transmit_beats_squash"]
        assert not flipped["theorem1_agrees"]

    def test_engine_validate_timing_envelope(self):
        result = Engine().run(ScenarioSpec("validate_timing"))
        assert result.kind == "simulate"
        assert result.ok is True
        assert result.data["agreeing"] == result.data["attacks"] == len(keys())
        assert result.data["disagreeing"] == []

    @pytest.mark.batch
    def test_cross_validate_through_engine_map_matches_serial(self):
        with Engine() as engine:
            sharded = cross_validate(
                ["spectre_v1", "meltdown", "ridl"], engine=engine, parallel=2
            )
        serial = cross_validate(["spectre_v1", "meltdown", "ridl"])
        assert [check.to_dict() for check in sharded] == [
            check.to_dict() for check in serial
        ]


class TestTheorem1UnderContention:
    """Theorem 1 must survive a contended timing plane (acceptance criterion)."""

    def test_registry_wide_agreement_under_contention(self):
        """All 19 registry attacks agree with the TSG verdict on the contended
        reference core (bounded FU ports + CDB)."""
        checks = cross_validate(model=CONTENDED_MODEL)
        assert len(checks) == len(keys())
        assert [check.attack for check in checks if not check.agrees] == []
        assert all(check.transmit_beats_squash for check in checks)

    def test_serialized_ports_close_the_spectre_v2_race(self):
        """Collapsing memory-level parallelism to one load port serializes
        Spectre v2's two overlapping misses: the transmit slips past the
        squash and the measured race flips to safe while the (structural)
        TSG verdict still says leaks -- the contention ablation's headline
        data point."""
        check = check_attack("spectre_v2", model=SERIALIZED_MODEL)
        assert check.tsg_leaks
        assert not check.transmit_beats_squash
        assert not check.agrees
        assert check.transmit_cycle > check.squash_cycle

    def test_contention_delays_but_preserves_the_spectre_v1_race(self):
        base = check_attack("spectre_v1")
        contended = check_attack("spectre_v1", model=CONTENDED_MODEL)
        assert contended.agrees
        assert contended.transmit_cycle >= base.transmit_cycle

    def test_engine_validate_timing_contended_envelope(self):
        result = Engine().run(ScenarioSpec("validate_timing", model=CONTENDED_MODEL))
        assert result.ok is True
        assert result.data["contended"] is True
        assert result.data["disagreeing"] == []


@pytest.mark.slow
class TestFullTimingSweep:
    """The long (attack x defense) timing sweep, excluded from tier-1."""

    @pytest.mark.batch
    def test_sweep_covers_the_grid_and_matches_serial(self):
        with Engine() as engine:
            sharded = engine.run(ScenarioSpec("simulate_sweep"), parallel=2)
        serial = Engine().run(ScenarioSpec("simulate_sweep"))
        assert sharded.data == serial.data
        grid = len(SCENARIOS) * (len(SimDefense) + 1)
        assert sharded.data["runs"] == grid
        # Undefended rows all leak; at least one defense defeats each attack.
        rows = sharded.data["rows"]
        undefended = [row for row in rows if not row["defenses"]]
        assert all(row["transmit_beats_squash"] for row in undefended)
