"""Cycle-stamped timing traces: the measured side of the paper's race.

A :class:`TimingTrace` combines the per-op cycle assignments of a scheduler
(:class:`~repro.uarch.timing.scheduler.Schedule`) with the speculation
windows the functional front-end recorded, and answers the question Theorem 1
poses about every attack: *did the covert-channel transmit issue before the
squash landed?*

For each window the trace derives:

* ``open_cycle`` -- when the first transient op entered the machine,
* ``resolve_cycle`` -- when the delayed authorization resolved (the trigger's
  completion, plus an explicit resolution delay for authorizations that are
  not carried by a register dependency: permission checks, MSR privilege,
  FPU ownership, return-address reads),
* ``squash_cycle`` -- resolution plus the recovery penalty; transient memory
  requests issued up to this cycle still perturb the cache (in-flight fills
  are not recalled -- the paper's persistence property),
* ``transmit_cycle`` -- the earliest issue of a *send* op (a speculative
  access to a ``shared`` symbol), and
* ``leaked_in_time`` -- the measured race outcome: transmit beat squash.

``transmit_beats_squash`` over the whole trace is what the validation layer
(:mod:`repro.uarch.timing.validate`) cross-checks against the TSG verdict.

Under a contended :class:`~repro.uarch.timing.scheduler.TimingModel` the
trace additionally carries stall provenance: every row records the cycle the
op became data-ready, the functional-unit pool it issued to, the cycles it
stalled waiting for a port and the cycles its finished result waited for a
common-data-bus slot.  :meth:`TimingTrace.port_occupancy` reconstructs the
per-cycle busy-port counts -- the micro-architectural state the
functional-unit contention covert channels modulate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .ops import DynamicOp, WindowRecord, port_kind
from .scheduler import Schedule, TimingModel


@dataclass(frozen=True)
class TraceEvent:
    """One key moment of the run, cycle-stamped for reports and JSON."""

    cycle: int
    kind: str  # dispatch | issue | complete | retire | window_open | transmit | squash | resolve
    seq: int
    detail: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {"cycle": self.cycle, "kind": self.kind, "seq": self.seq, "detail": self.detail}


@dataclass
class WindowTiming:
    """Measured timing of one speculation window."""

    window_id: int
    kind: str
    outcome: str  # squash | commit
    trigger_seq: int
    open_cycle: int
    resolve_cycle: int
    squash_cycle: Optional[int]
    transient_ops: int
    #: (seq, issue cycle) of every covert send in the window.
    sends: Tuple[Tuple[int, int], ...]
    #: Transient ops that had not issued when the squash landed.
    killed_ops: int = 0

    @property
    def transmit_cycle(self) -> Optional[int]:
        issues = [cycle for _, cycle in self.sends]
        return min(issues) if issues else None

    @property
    def window_cycles(self) -> int:
        """Measured transient-window length in cycles (open to squash/resolve)."""
        end = self.squash_cycle if self.squash_cycle is not None else self.resolve_cycle
        return max(0, end - self.open_cycle)

    @property
    def leaked_in_time(self) -> bool:
        """The race outcome: a covert send issued before the squash landed."""
        transmit = self.transmit_cycle
        if transmit is None:
            return False
        return self.squash_cycle is None or transmit <= self.squash_cycle

    def to_dict(self) -> Dict[str, object]:
        return {
            "window": self.window_id,
            "kind": self.kind,
            "outcome": self.outcome,
            "trigger_seq": self.trigger_seq,
            "open_cycle": self.open_cycle,
            "resolve_cycle": self.resolve_cycle,
            "squash_cycle": self.squash_cycle,
            "transient_ops": self.transient_ops,
            "killed_ops": self.killed_ops,
            "transmit_cycle": self.transmit_cycle,
            "window_cycles": self.window_cycles,
            "leaked_in_time": self.leaked_in_time,
        }


@dataclass
class ScheduledOp:
    """One dynamic op with its assigned cycles and stall provenance (trace row)."""

    op: DynamicOp
    dispatch: int
    issue: int
    complete: int
    retire: int
    killed: bool = False
    #: Cycle the op became data-ready (dispatched, all producers broadcast).
    ready: int = 0
    #: Functional-unit pool the op issued to (None: fences / nops are portless).
    port: Optional[str] = None
    #: Cycles spent data-ready but waiting for a free port (issue - ready).
    port_stall: int = 0
    #: Cycles the finished result waited for a common-data-bus slot.
    cdb_stall: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "seq": self.op.seq,
            "pc": self.op.pc,
            "text": self.op.text,
            "kind": self.op.kind,
            "transient": self.op.transient,
            "window": self.op.window,
            "is_send": self.op.is_send,
            "blocked": self.op.blocked,
            "latency": self.op.latency,
            "dispatch": self.dispatch,
            "ready": self.ready,
            "issue": self.issue,
            "complete": self.complete,
            "retire": self.retire,
            "killed": self.killed,
            "port": self.port,
            "port_stall": self.port_stall,
            "cdb_stall": self.cdb_stall,
        }


@dataclass
class TimingTrace:
    """The cycle-accurate record of one :meth:`TimingCPU.run` call."""

    ops: List[ScheduledOp]
    windows: List[WindowTiming]
    cycles: int

    # ------------------------------------------------------------------
    # Race verdicts
    # ------------------------------------------------------------------
    @property
    def transmit_beats_squash(self) -> bool:
        """Measured Theorem-1 race outcome over the whole run."""
        return any(window.leaked_in_time for window in self.windows)

    @property
    def transmit_cycle(self) -> Optional[int]:
        cycles = [w.transmit_cycle for w in self.windows if w.transmit_cycle is not None]
        return min(cycles) if cycles else None

    @property
    def squash_cycle(self) -> Optional[int]:
        cycles = [w.squash_cycle for w in self.windows if w.squash_cycle is not None]
        return min(cycles) if cycles else None

    @property
    def window_cycles(self) -> Optional[int]:
        """Measured length of the longest speculation window, in cycles."""
        lengths = [w.window_cycles for w in self.windows]
        return max(lengths) if lengths else None

    # ------------------------------------------------------------------
    # Contention provenance
    # ------------------------------------------------------------------
    @property
    def port_stall_cycles(self) -> int:
        """Total cycles ops spent data-ready but waiting for an FU port."""
        return sum(row.port_stall for row in self.ops)

    @property
    def cdb_stall_cycles(self) -> int:
        """Total cycles finished results waited for a CDB broadcast slot."""
        return sum(row.cdb_stall for row in self.ops)

    def port_occupancy(self) -> Dict[str, Dict[int, int]]:
        """Per-cycle busy-port counts per functional-unit pool.

        Sparse: only cycles with at least one busy port of a pool appear.  An
        op holds its port from issue until its broadcast, so CDB-stalled ops
        show up as prolonged occupancy -- the observable the contention
        covert channels time.
        """
        occupancy: Dict[str, Dict[int, int]] = {}
        for row in self.ops:
            if row.port is None:
                continue
            counts = occupancy.setdefault(row.port, {})
            for cycle in range(row.issue, row.complete):
                counts[cycle] = counts.get(cycle, 0) + 1
        return occupancy

    def key_events(self) -> List[TraceEvent]:
        """The load-bearing moments of the run, in cycle order."""
        events: List[TraceEvent] = []
        for window in self.windows:
            events.append(
                TraceEvent(window.open_cycle, "window_open", window.trigger_seq,
                           f"window {window.window_id} ({window.kind})")
            )
            for seq, cycle in window.sends:
                events.append(TraceEvent(cycle, "transmit", seq, "covert send issued"))
            events.append(
                TraceEvent(window.resolve_cycle, "resolve", window.trigger_seq,
                           "authorization resolved")
            )
            if window.squash_cycle is not None:
                events.append(
                    TraceEvent(window.squash_cycle, "squash", window.trigger_seq,
                               f"window {window.window_id} squashed")
                )
        return sorted(events, key=lambda event: (event.cycle, event.seq))

    def summary(self) -> Dict[str, object]:
        return {
            "cycles": self.cycles,
            "ops": len(self.ops),
            "transient_ops": sum(1 for row in self.ops if row.op.transient),
            "windows": len(self.windows),
            "squashes": sum(1 for w in self.windows if w.outcome == "squash"),
            "transmit_cycle": self.transmit_cycle,
            "squash_cycle": self.squash_cycle,
            "window_cycles": self.window_cycles,
            "transmit_beats_squash": self.transmit_beats_squash,
            "port_stall_cycles": self.port_stall_cycles,
            "cdb_stall_cycles": self.cdb_stall_cycles,
        }

    def to_dict(self, include_ops: bool = False) -> Dict[str, object]:
        data = dict(self.summary())
        data["window_timings"] = [window.to_dict() for window in self.windows]
        data["events"] = [event.to_dict() for event in self.key_events()]
        if include_ops:
            data["op_rows"] = [row.to_dict() for row in self.ops]
        return data


def build_trace(
    ops: Sequence[DynamicOp],
    windows: Sequence[WindowRecord],
    schedule: Schedule,
    model: TimingModel,
    miss_latency: int,
) -> TimingTrace:
    """Assemble a :class:`TimingTrace` from the scheduler's cycle assignments."""
    timings: List[WindowTiming] = []
    killed: Dict[int, bool] = {}
    for window in windows:
        trigger = window.trigger_seq
        resolve = schedule.complete[trigger] + model.resolution_delay(
            window.kind, miss_latency
        )
        outcome = window.outcome or "squash"
        squash = resolve + model.squash_penalty if outcome == "squash" else None
        transient = window.transient_seqs
        open_cycle = (
            min(schedule.dispatch[seq] for seq in transient) if transient else resolve
        )
        sends = tuple(
            (seq, schedule.issue[seq]) for seq in transient if ops[seq].is_send
        )
        killed_count = 0
        if squash is not None:
            for seq in transient:
                if schedule.issue[seq] > squash:
                    killed[seq] = True
                    killed_count += 1
        timings.append(
            WindowTiming(
                window_id=window.window_id,
                kind=window.kind,
                outcome=outcome,
                trigger_seq=trigger,
                open_cycle=open_cycle,
                resolve_cycle=resolve,
                squash_cycle=squash,
                transient_ops=len(transient),
                sends=sends,
                killed_ops=killed_count,
            )
        )
    ready = schedule.ready if schedule.ready is not None else schedule.issue
    rows = []
    for op in ops:
        seq = op.seq
        execution = max(1, op.latency)
        rows.append(
            ScheduledOp(
                op=op,
                dispatch=schedule.dispatch[seq],
                issue=schedule.issue[seq],
                complete=schedule.complete[seq],
                retire=schedule.retire[seq],
                killed=killed.get(seq, False),
                ready=ready[seq],
                port=port_kind(op.kind),
                port_stall=schedule.issue[seq] - ready[seq],
                cdb_stall=schedule.complete[seq] - schedule.issue[seq] - execution,
            )
        )
    return TimingTrace(ops=rows, windows=timings, cycles=schedule.cycles)
