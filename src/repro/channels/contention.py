"""The functional-unit contention channel (Section II-C, non-cache family).

The paper's covert-channel taxonomy lists *functional-unit contention*
alongside the cache channels: a sender modulates how busy a shared execution
port is (classically the multiplier pipe), and a receiver times its own burst
of ops on the same port -- contended issue slots stretch the burst by a
measurable number of cycles.  Unlike the cache channels this one leaves no
state behind: sender and receiver must overlap in the machine, which is
exactly what one out-of-order window models (the SMT port-contention
setting).

The channel therefore runs on the *scheduler* timing surface rather than the
cache surface: :class:`PortContentionSurface` builds a combined
sender-then-receiver :class:`~repro.uarch.timing.ops.DynamicOp` stream, runs
it through a port-limited :class:`~repro.uarch.timing.scheduler.TimingModel`,
and reports how many cycles the receiver's probe burst took from data-ready
to last broadcast.  With one port per pool every sender op displaces the
receiver by exactly its execution latency, so the occupancy delta is a
noise-free linear encoding; with unbounded ports the delta collapses to zero
and the channel is structurally undetectable -- which is why the PR-3 timing
plane (unlimited functional units) could not measure this family at all.

:class:`ContentionChannel` wraps the surface in the standard
prepare / send / receive protocol of :class:`~repro.channels.base.
CovertChannel`: ``prepare`` calibrates the uncontended baseline and the
per-unit cycle delta, ``send`` stages the sender's occupancy burst, and
``receive`` times the probe burst and decodes the value from the delta.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from ..uarch.timing.ops import DynamicOp
from ..uarch.timing.scheduler import EventScheduler, TimingModel
from .base import ChannelObservation, CovertChannel

#: Op kind issuing to each functional-unit pool (the probe/sender op shape).
_POOL_OP_KIND = {
    "alu": "alu",
    "load_store": "load",
    "branch": "branch",
    "mul": "mul",
}

#: A window wide enough that dispatch/commit width never perturbs the
#: measurement: every op is in flight by cycle 0 and only port/CDB
#: arbitration orders execution, so the occupancy delta is exactly linear.
#: ``replace(WIDE_WINDOW_MODEL, **port_overrides)`` is how the window
#: ablation derives a measurement surface for each port configuration.
WIDE_WINDOW_MODEL = TimingModel(
    dispatch_width=512, commit_width=512, rob_size=4096, rs_entries=4096
)


class PortContentionSurface:
    """Timing surface measuring FU-port occupancy deltas on the OoO plane.

    ``model`` defaults to a wide-window machine with a single ``pool`` port
    and a width-1 CDB -- the fully contended configuration.  Pass a model
    with the pool unbounded to demonstrate the channel's mitigation (port
    duplication): the measured delta collapses to zero.
    """

    def __init__(
        self,
        model: Optional[TimingModel] = None,
        *,
        pool: str = "mul",
        op_latency: Optional[int] = None,
    ) -> None:
        if pool not in _POOL_OP_KIND:
            raise ValueError(
                f"unknown port pool {pool!r}; known: {', '.join(sorted(_POOL_OP_KIND))}"
            )
        if model is None:
            model = replace(WIDE_WINDOW_MODEL, cdb_width=1, **{f"{pool}_ports": 1})
        if op_latency is None:
            # The mul pool mirrors the timing core's multiplier pipe: take
            # its latency from the same config knob TimingCPU applies, so
            # the channel's occupancy numbers describe the simulated core.
            from ..uarch.config import DEFAULT_CONFIG

            op_latency = DEFAULT_CONFIG.mul_latency if pool == "mul" else 4
        self.model = model
        self.pool = pool
        self.op_kind = _POOL_OP_KIND[pool]
        self.op_latency = op_latency
        self._scheduler = EventScheduler(model)

    @property
    def contended(self) -> bool:
        """Whether the probed pool is actually a bounded resource."""
        return self.model.port_limit(self.pool) is not None

    def _op(self, seq: int, role: str) -> DynamicOp:
        return DynamicOp(
            seq=seq,
            pc=seq,
            text=f"{role}{seq}",
            kind=self.op_kind,
            reads=(),
            writes=(f"{role}{seq}",),
            latency=self.op_latency,
        )

    def probe(self, sender_ops: int, probe_ops: int) -> int:
        """Cycles the receiver's probe burst takes next to a sender burst.

        Builds ``sender_ops`` older ops and ``probe_ops`` younger ops, all on
        the probed pool with no data dependencies, schedules the combined
        stream, and returns the receiver's wall-clock: from its first op
        becoming data-ready to its last op broadcasting.  The sender burst
        only stretches that interval when the pool's ports are scarce.
        """
        if probe_ops < 1:
            raise ValueError("probe_ops must be >= 1")
        ops = [self._op(seq, "s") for seq in range(sender_ops)]
        first_probe = len(ops)
        ops.extend(
            self._op(first_probe + i, "p") for i in range(probe_ops)
        )
        schedule = self._scheduler.schedule(ops)
        ready = schedule.ready if schedule.ready is not None else schedule.issue
        return schedule.complete[len(ops) - 1] - ready[first_probe]

    def occupancy_delta(self, sender_ops: int, probe_ops: int = 4) -> int:
        """Extra probe cycles caused by the sender burst (the raw signal)."""
        return self.probe(sender_ops, probe_ops) - self.probe(0, probe_ops)


class ContentionChannel(CovertChannel):
    """Covert channel through functional-unit port occupancy.

    The sender encodes ``value`` as ``value * unit_ops`` occupancy ops on the
    shared pool; the receiver times a fixed probe burst and decodes the value
    from the cycle delta against its calibrated baseline.  The simulator is
    deterministic, so decoding demands the delta be an exact multiple of the
    calibrated per-unit cost.  An *unbounded* pool carries no signal at all
    (zero delta, observation reports ``value=None`` -- the channel is
    defeated).  Merely *duplicating* ports is weaker: sender ops pair up, the
    occupancy delta still moves, and the receiver decodes plausible but
    unfaithful values -- the channel degrades to lower capacity rather than
    disappearing (pinned in ``tests/test_channels_contention.py``).
    """

    def __init__(
        self,
        surface: Optional[PortContentionSurface] = None,
        *,
        entries: int = 16,
        unit_ops: int = 1,
        probe_ops: int = 4,
    ) -> None:
        if entries < 2:
            raise ValueError("entries must be >= 2 (need at least one bit)")
        if unit_ops < 1 or probe_ops < 1:
            raise ValueError("unit_ops and probe_ops must be >= 1")
        if surface is None:
            surface = PortContentionSurface()
        # hit_threshold is meaningless for an occupancy channel; the decode
        # threshold is the calibrated per-unit delta instead.
        super().__init__(surface, hit_threshold=0)
        self.entries = entries
        self.unit_ops = unit_ops
        self.probe_ops = probe_ops
        self._baseline: Optional[int] = None
        self._unit_delta: Optional[int] = None
        self._pending: Optional[int] = None

    @property
    def unit_delta(self) -> Optional[int]:
        """Calibrated probe-cycle delta per encoded unit (None before prepare)."""
        return self._unit_delta

    def prepare(self) -> None:
        """Calibrate the uncontended baseline and the per-unit cycle delta."""
        self._baseline = self.surface.probe(0, self.probe_ops)
        self._unit_delta = (
            self.surface.probe(self.unit_ops, self.probe_ops) - self._baseline
        )

    def send(self, value: int) -> None:
        """Stage the sender's occupancy burst encoding ``value``."""
        if not 0 <= value < self.entries:
            raise ValueError(f"value {value} out of range [0, {self.entries})")
        self._pending = value

    def receive(self) -> ChannelObservation:
        """Time the probe burst next to the staged sender and decode the value.

        Consumes the staged burst: contention carries no persistent state
        (sender and receiver must overlap), so a second ``receive`` without a
        new ``send`` measures an idle machine and decodes 0.
        """
        if self._baseline is None or self._unit_delta is None:
            self.prepare()
        sent = 0 if self._pending is None else self._pending
        self._pending = None
        measured = self.surface.probe(sent * self.unit_ops, self.probe_ops)
        latencies = [self._baseline, measured]
        delta = measured - self._baseline
        if self._unit_delta <= 0:
            # Unbounded (or over-provisioned) ports: no occupancy signal.
            return ChannelObservation(value=None, latencies=latencies)
        value, remainder = divmod(delta, self._unit_delta)
        if remainder or not 0 <= value < self.entries:
            return ChannelObservation(value=None, latencies=latencies)
        return ChannelObservation(value=int(value), latencies=latencies)
