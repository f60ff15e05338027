"""Tests for the functional-unit contention covert channel.

The channel transmits through FU-port occupancy on the OoO timing plane:
contended ports stretch the receiver's probe burst by a deterministic,
linear number of cycles.  These tests pin the transmit/decode roundtrip, the
structural undetectability on an unbounded machine (the reason the
pre-contention timing plane could not model this family), and the
degradation under partial mitigation (port duplication).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from rescan_reference import ReferenceRescanScheduler

from repro.channels import ContentionChannel, PortContentionSurface
from repro.channels.contention import WIDE_WINDOW_MODEL
from repro.uarch.timing import TimingModel


def contended_surface(**overrides) -> PortContentionSurface:
    return PortContentionSurface(
        replace(WIDE_WINDOW_MODEL, mul_ports=1, cdb_width=1, **overrides)
    )


class TestPortContentionSurface:
    def test_default_surface_is_contended(self):
        surface = PortContentionSurface()
        assert surface.contended
        assert surface.pool == "mul"

    def test_mul_surface_latency_follows_the_config_knob(self):
        """The channel models the same multiplier pipe TimingCPU simulates,
        so its default op latency must come from the shared config knob."""
        from repro.uarch.config import DEFAULT_CONFIG

        assert PortContentionSurface().op_latency == DEFAULT_CONFIG.mul_latency
        assert PortContentionSurface(pool="alu").op_latency == 4  # burst shape

    def test_occupancy_delta_is_linear_in_sender_ops(self):
        surface = PortContentionSurface()
        unit = surface.occupancy_delta(1)
        assert unit == surface.op_latency
        for senders in range(8):
            assert surface.occupancy_delta(senders) == senders * unit

    def test_unbounded_pool_has_zero_delta(self):
        surface = PortContentionSurface(WIDE_WINDOW_MODEL)
        assert not surface.contended
        assert surface.occupancy_delta(6) == 0

    @pytest.mark.parametrize("pool", ["alu", "load_store", "branch", "mul"])
    def test_every_pool_can_carry_the_channel(self, pool):
        model = replace(WIDE_WINDOW_MODEL, **{f"{pool}_ports": 1})
        surface = PortContentionSurface(model, pool=pool)
        assert surface.occupancy_delta(3) == 3 * surface.op_latency

    def test_event_and_rescan_surfaces_measure_identically(self):
        event = PortContentionSurface()
        rescan = PortContentionSurface()
        rescan._scheduler = ReferenceRescanScheduler(rescan.model)
        for senders in range(6):
            assert event.probe(senders, 4) == rescan.probe(senders, 4)

    def test_unknown_pool_and_empty_probe_are_rejected(self):
        with pytest.raises(ValueError):
            PortContentionSurface(pool="fpu")
        with pytest.raises(ValueError):
            PortContentionSurface().probe(0, 0)


class TestContentionChannel:
    def test_transmit_roundtrip_recovers_every_value(self):
        channel = ContentionChannel()
        for value in range(channel.entries):
            observation = channel.transmit(value)
            assert observation.detected
            assert observation.value == value

    def test_transmit_is_a_nonzero_cycle_delta(self):
        channel = ContentionChannel()
        observation = channel.transmit(5)
        baseline, measured = observation.latencies
        assert measured - baseline == 5 * channel.unit_delta
        assert channel.unit_delta > 0

    def test_unbounded_ports_defeat_the_channel(self):
        channel = ContentionChannel(PortContentionSurface(WIDE_WINDOW_MODEL))
        observation = channel.transmit(5)
        assert not observation.detected
        assert observation.value is None
        assert channel.unit_delta == 0

    def test_port_duplication_degrades_the_channel(self):
        """With two mul ports, sender ops pair up and the linear encoding
        breaks: values beyond one unit no longer decode faithfully."""
        channel = ContentionChannel(
            PortContentionSurface(replace(WIDE_WINDOW_MODEL, mul_ports=2))
        )
        decoded = [channel.transmit(value).value for value in range(6)]
        assert decoded != list(range(6))

    def test_out_of_range_values_are_rejected(self):
        channel = ContentionChannel(entries=4)
        with pytest.raises(ValueError):
            channel.send(4)
        with pytest.raises(ValueError):
            channel.send(-1)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ContentionChannel(entries=1)
        with pytest.raises(ValueError):
            ContentionChannel(unit_ops=0)
        with pytest.raises(ValueError):
            ContentionChannel(probe_ops=0)

    def test_receive_without_send_reads_the_baseline(self):
        channel = ContentionChannel()
        observation = channel.receive()
        assert observation.value == 0  # zero occupancy = value 0

    def test_receive_consumes_the_staged_burst(self):
        """Contention is not a persistent-state channel: a second receive
        without a new send must measure an idle machine, not replay the old
        value."""
        channel = ContentionChannel()
        assert channel.transmit(5).value == 5
        assert channel.receive().value == 0

    def test_wider_units_scale_the_signal(self):
        narrow = ContentionChannel(contended_surface(), unit_ops=1)
        wide = ContentionChannel(contended_surface(), unit_ops=3)
        narrow.prepare()
        wide.prepare()
        assert wide.unit_delta == 3 * narrow.unit_delta
        assert wide.transmit(7).value == 7

    def test_channel_works_on_a_custom_timing_model(self):
        model = TimingModel(
            dispatch_width=64, commit_width=64, rob_size=1024, rs_entries=1024,
            alu_ports=1, cdb_width=2,
        )
        channel = ContentionChannel(PortContentionSurface(model, pool="alu"))
        assert channel.transmit(9).value == 9
