"""The cycle-accurate timing CPU: functional front-end + OoO timing plane.

:class:`TimingCPU` extends :class:`~repro.uarch.pipeline.SpeculativeCPU` with
a second, cycle-accurate plane.  The two planes split the work the way
timing-directed simulators do:

* the **functional plane** (inherited, unchanged) executes the program with
  the paper's exact speculation semantics -- delayed authorizations open
  transient windows, scratch state is rolled back, micro-architectural state
  persists, defenses gate forwarding.  Architectural results, cache/buffer
  state and :class:`~repro.uarch.stats.SimStats` are therefore *identical* to
  a plain ``SpeculativeCPU`` run (property-tested in
  ``tests/test_timing_equivalence.py``).
* the **timing plane** records every executed instruction as a
  :class:`~repro.uarch.timing.ops.DynamicOp` -- its register reads/writes,
  its measured cache latency, the speculation window it ran in, whether it
  was a covert send -- and schedules the stream through the event-driven
  Tomasulo engine (reservation stations, ROB, RAT, heap event queue) to
  produce a cycle-stamped :class:`~repro.uarch.timing.trace.TimingTrace`.

The trace answers what the instruction-budgeted interpreter cannot: *when*
the squash landed relative to the covert-channel transmit, in cycles -- the
measured side of the Theorem 1 race that
:mod:`repro.uarch.timing.validate` cross-checks against the TSG verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from ...isa.instructions import Instruction
from ...isa.program import Program
from ..config import DEFAULT_CONFIG, UarchConfig
from ..pipeline import ExecutionResult, SpeculativeCPU
from .ops import DynamicOp, WindowRecord, window_kind
from .scheduler import DEFAULT_MODEL, EventScheduler, TimingModel
from .trace import TimingTrace, build_trace


@dataclass
class TimingResult(ExecutionResult):
    """An :class:`ExecutionResult` plus the cycle-accurate trace of the run."""

    trace: Optional[TimingTrace] = None

    @property
    def transmit_beats_squash(self) -> bool:
        """Measured race outcome (Theorem 1): covert send issued before squash."""
        return self.trace is not None and self.trace.transmit_beats_squash


class TimingCPU(SpeculativeCPU):
    """A speculative core with a cycle-accurate, event-driven timing plane."""

    def __init__(
        self,
        program: Program,
        config: UarchConfig = DEFAULT_CONFIG,
        *,
        supervisor: bool = False,
        model: TimingModel = DEFAULT_MODEL,
    ) -> None:
        super().__init__(program, config, supervisor=supervisor)
        self.model = model
        #: One trace per :meth:`run` call, oldest first.
        self.traces: List[TimingTrace] = []
        self.last_trace: Optional[TimingTrace] = None
        self.last_ops: List[DynamicOp] = []
        self.last_windows: List[WindowRecord] = []
        self._shared_ranges: List[Tuple[int, int]] = [
            (symbol.address, symbol.address + symbol.size)
            for symbol in program.symbols.values()
            if symbol.shared
        ]
        self._rec_ops: Optional[List[DynamicOp]] = None
        self._rec_windows: List[WindowRecord] = []
        #: (op, instruction) recording stack; transient ops nest inside the
        #: architectural trigger instruction that opened their window.
        self._op_stack: List[Tuple[DynamicOp, Instruction]] = []
        self._active_window: Optional[WindowRecord] = None

    # ==================================================================
    # Recording plumbing
    # ==================================================================
    def _begin_op(self, pc: int, instruction: Instruction, *, transient: bool) -> DynamicOp:
        assert self._rec_ops is not None
        op = DynamicOp.from_instruction(
            len(self._rec_ops),
            pc,
            instruction,
            transient=transient,
            window=self._active_window.window_id if self._active_window else None,
        )
        if op.kind == "mul":
            # The multiplier pipe is multi-cycle: the long occupancy is what
            # makes the mul port a measurable contention transmitter.
            op.latency = max(op.latency, self.config.mul_latency)
        self._rec_ops.append(op)
        self._op_stack.append((op, instruction))
        if transient and self._active_window is not None:
            self._active_window.transient_seqs.append(op.seq)
        return op

    def _end_op(self) -> None:
        self._op_stack.pop()

    def _in_shared(self, address: int) -> bool:
        return any(start <= address < end for start, end in self._shared_ranges)

    # ==================================================================
    # Functional-plane hooks (semantics unchanged; timing annotations only)
    # ==================================================================
    def _read_memory_value(
        self, address: int, size: int, *, transient: bool, speculative: bool
    ) -> Tuple[int, int]:
        value, latency = super()._read_memory_value(
            address, size, transient=transient, speculative=speculative
        )
        if self._op_stack:
            op = self._op_stack[-1][0]
            op.latency = max(op.latency, latency)
            if speculative and self._in_shared(address):
                op.is_send = True
        return value, latency

    def _run_transient_window(
        self,
        start_pc: int,
        overrides: Optional[Dict[str, Optional[int]]] = None,
    ) -> int:
        if self._rec_ops is None or not self._op_stack:
            return super()._run_transient_window(start_pc, overrides)
        trigger_op, trigger_instruction = self._op_stack[-1]
        record = WindowRecord(
            window_id=len(self._rec_windows),
            trigger_seq=trigger_op.seq,
            kind=window_kind(trigger_instruction),
        )
        self._rec_windows.append(record)
        self._active_window = record
        try:
            return super()._run_transient_window(start_pc, overrides)
        finally:
            self._active_window = None

    def _transient_step(self, pc: int, instruction: Instruction, blocked) -> int:
        if self._rec_ops is None:
            return super()._transient_step(pc, instruction, blocked)
        op = self._begin_op(pc, instruction, transient=True)
        try:
            return super()._transient_step(pc, instruction, blocked)
        finally:
            if any(name in blocked for name in op.writes):
                op.blocked = True
            self._end_op()

    def _squash(self) -> None:
        self._record_window_outcome("squash")
        super()._squash()

    def _commit_speculation(self) -> None:
        self._record_window_outcome("commit")
        super()._commit_speculation()

    def _record_window_outcome(self, outcome: str) -> None:
        for record in reversed(self._rec_windows):
            if record.outcome is None:
                record.outcome = outcome
                return

    def _raise_fault(self, pc: int, description: str, destination: Optional[str]) -> int:
        if self._op_stack:
            self._op_stack[-1][0].faulted = True
        return super()._raise_fault(pc, description, destination)

    # ==================================================================
    # Execution: the inherited architectural loop, recorded per instruction
    # ==================================================================
    def _execute_instruction(self, pc: int, instruction: Instruction) -> Optional[int]:
        if self._rec_ops is None:  # pragma: no cover - run() always records
            return super()._execute_instruction(pc, instruction)
        self._begin_op(pc, instruction, transient=False)
        try:
            return super()._execute_instruction(pc, instruction)
        finally:
            self._end_op()

    def run(
        self, start: Union[int, str] = 0, max_instructions: Optional[int] = None
    ) -> TimingResult:
        """Execute from ``start``; returns the result plus its timing trace."""
        self._rec_ops = []
        self._rec_windows = []
        self._op_stack = []
        self._active_window = None
        result = super().run(start, max_instructions)
        trace = self._schedule_recorded()
        self._rec_ops = None
        return TimingResult(
            halted=result.halted,
            instructions=result.instructions,
            stats=result.stats,
            faults=result.faults,
            trace=trace,
        )

    def _schedule_recorded(self) -> TimingTrace:
        ops = self._rec_ops or []
        windows = [w for w in self._rec_windows if w.trigger_seq >= 0]
        schedule = EventScheduler(self.model).schedule(ops)
        trace = build_trace(
            ops, windows, schedule, self.model, self.config.cache_miss_latency
        )
        self.last_ops = list(ops)
        self.last_windows = list(windows)
        self.traces.append(trace)
        self.last_trace = trace
        return trace
