"""Tests for the cycle-accurate TimingCPU and its traces."""

from __future__ import annotations

import json
from dataclasses import asdict

from rescan_reference import ReferenceRescanScheduler

from repro.exploits import programs
from repro.exploits.programs import (
    SECRET_ADDR,
    SECRET_OFFSET,
    VICTIM_ARRAY_LEN,
    VICTIM_SIZE_ADDR,
)
from repro.uarch import SimDefense, TimingCPU, UarchConfig
from repro.uarch.timing import TimingModel
from repro.uarch.timing import core as timing_core
from repro.uarch.timing.validate import timed_exploit


def spectre_v1_victim_run(config=None):
    """Drive the Listing-1 attack by hand and return the victim run's result."""
    cpu = TimingCPU(
        programs.spectre_v1_program(),
        config if config is not None else UarchConfig(),
    )
    cpu.write_memory(SECRET_ADDR, 0x5A, 1)
    cpu.write_memory(VICTIM_SIZE_ADDR, VICTIM_ARRAY_LEN, 8)
    for _ in range(4):
        cpu.set_register("rdx", 1)
        cpu.run("victim")
    cpu.context_switch(1)
    cpu.flush_symbol("victim_size")
    cpu.set_register("rdx", SECRET_OFFSET)
    return cpu, cpu.run("victim")


class TestTimingCPU:
    def test_training_runs_open_no_window(self):
        cpu = TimingCPU(programs.spectre_v1_program())
        cpu.write_memory(VICTIM_SIZE_ADDR, VICTIM_ARRAY_LEN, 8)
        cpu.set_register("rdx", 1)
        result = cpu.run("victim")
        assert result.trace is not None
        assert result.trace.windows == []
        assert not result.transmit_beats_squash

    def test_spectre_v1_race_is_measured(self):
        _, result = spectre_v1_victim_run()
        trace = result.trace
        assert len(trace.windows) == 1
        window = trace.windows[0]
        assert window.kind == "branch"
        assert window.outcome == "squash"
        # The covert send issued before the squash landed: the paper's race.
        assert window.transmit_cycle is not None
        assert window.squash_cycle is not None
        assert window.transmit_cycle <= window.squash_cycle
        assert result.transmit_beats_squash
        assert result.leaked_transiently  # functional verdict agrees
        # The measured window spans from speculative dispatch to the squash.
        assert window.window_cycles > 0

    def test_transient_ops_are_marked(self):
        cpu, result = spectre_v1_victim_run()
        transient = [row for row in result.trace.ops if row.op.transient]
        assert len(transient) == 4  # load S, shl, send load R, halt
        sends = [row for row in transient if row.op.is_send]
        assert len(sends) == 1
        assert sends[0].op.kind == "load"

    def test_prevent_speculative_loads_blocks_the_send(self):
        config = UarchConfig().with_defenses(SimDefense.PREVENT_SPECULATIVE_LOADS)
        _, result = spectre_v1_victim_run(config)
        trace = result.trace
        assert len(trace.windows) == 1
        assert trace.windows[0].transmit_cycle is None
        assert not result.transmit_beats_squash
        assert not result.leaked_transiently

    def test_rescan_scheduler_produces_identical_trace(self, monkeypatch):
        """The CPU's trace is unchanged when the per-cycle rescan reference
        schedules the recorded ops in place of the event scheduler."""
        _, event_result = spectre_v1_victim_run()
        scheduled = []

        class CountingReference(ReferenceRescanScheduler):
            def schedule(self, ops):
                scheduled.append(len(ops))
                return super().schedule(ops)

        monkeypatch.setattr(timing_core, "EventScheduler", CountingReference)
        _, rescan_result = spectre_v1_victim_run()
        assert scheduled  # the reference, not the event scheduler, ran
        event_rows = [row.to_dict() for row in event_result.trace.ops]
        rescan_rows = [row.to_dict() for row in rescan_result.trace.ops]
        assert event_rows == rescan_rows
        assert (
            event_result.trace.windows[0].to_dict()
            == rescan_result.trace.windows[0].to_dict()
        )

    def test_meltdown_fault_window(self):
        result = timed_exploit("meltdown")
        trace = result.timing
        window = trace.windows[0]
        assert window.kind == "fault"
        # The authorization (permission check) resolves a memory round-trip
        # after the data was forwarded; the transmit wins by a wide margin.
        assert window.resolve_cycle > window.transmit_cycle
        assert result.success

    def test_return_window_resolution_is_delayed(self):
        result = timed_exploit("spectre_rsb")
        window = result.timing.windows[0]
        assert window.kind == "return"
        assert window.transmit_cycle <= window.squash_cycle

    def test_store_bypass_window(self):
        result = timed_exploit("spectre_v4")
        window = result.timing.windows[0]
        assert window.kind == "fault"  # address disambiguation delay
        assert result.timing.transmit_beats_squash

    def test_training_is_functional_only(self):
        cpu = TimingCPU(programs.spectre_v1_program())
        cpu.write_memory(VICTIM_SIZE_ADDR, VICTIM_ARRAY_LEN, 8)
        cpu.train("victim", 4, rdx=1)
        assert cpu.traces == [] and cpu.last_trace is None
        assert cpu.last_ops == [] and cpu.last_windows == []
        assert cpu.stats.instructions_retired > 0
        assert cpu.predictors.direction.has_entry(
            cpu.program.label_index("victim") + 1
        )

    def test_train_leaves_the_last_timed_run_alone(self):
        cpu, result = spectre_v1_victim_run()
        traces = list(cpu.traces)
        ops = list(cpu.last_ops)
        windows = [(window, asdict(window)) for window in cpu.last_windows]
        assert windows
        # A training round that opens and squashes a window of its own.
        cpu.flush_symbol("victim_size")
        cpu.train("victim", 1, rdx=SECRET_OFFSET)
        assert cpu.stats.squashes == 2
        assert cpu.last_trace is result.trace
        assert cpu.traces == traces
        assert cpu.last_ops == ops
        assert [(window, asdict(window)) for window in cpu.last_windows] == windows

    def test_traces_accumulate_per_run(self):
        cpu, _ = spectre_v1_victim_run()
        assert len(cpu.traces) == 5  # four training runs + the victim run
        assert cpu.last_trace is cpu.traces[-1]

    def test_trace_serializes_to_json(self):
        _, result = spectre_v1_victim_run()
        payload = json.dumps(result.trace.to_dict(include_ops=True))
        decoded = json.loads(payload)
        assert decoded["transmit_beats_squash"] is True
        assert decoded["window_timings"][0]["outcome"] == "squash"
        assert decoded["op_rows"]

    def test_key_events_are_cycle_ordered(self):
        _, result = spectre_v1_victim_run()
        events = result.trace.key_events()
        assert [e.cycle for e in events] == sorted(e.cycle for e in events)
        kinds = [e.kind for e in events]
        assert "window_open" in kinds and "transmit" in kinds and "squash" in kinds

    def test_custom_model_changes_the_squash_cycle(self):
        tight = TimingModel(squash_penalty=0)
        cpu = TimingCPU(programs.spectre_v1_program(), model=tight)
        assert cpu.model.squash_penalty == 0
