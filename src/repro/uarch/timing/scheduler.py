"""The cycle-accurate scheduler of the out-of-order timing plane.

One deterministic Tomasulo-style timing specification:

* **dispatch** -- in program (dynamic) order, at most ``dispatch_width`` ops
  per cycle, stalling while the reorder buffer or the reservation-station
  pool is full.  Dispatch renames sources through the register alias table
  (RAT): each read maps to the youngest older op writing that register.
* **issue** -- an op is *data-ready* the cycle after its dispatch *and* the
  cycle after its last producer broadcasts (the common-data-bus broadcast
  takes one cycle).  A data-ready op still needs a free functional-unit port
  of its kind (:func:`~repro.uarch.timing.ops.port_kind`): when
  :class:`TimingModel` bounds a pool, at most that many ops of the pool
  execute concurrently, units are not pipelined (an op holds its port from
  issue until its broadcast), and contenders are arbitrated **oldest first**
  (lowest dynamic seq).  A port freed by a broadcast is reusable the same
  cycle.  Unbounded pools (``None``) never stall -- the pre-contention
  semantics.
* **complete** -- execution finishes ``max(1, latency)`` cycles after issue;
  memory ops carry the cache latency (hit or miss) measured by the
  functional front-end.  The result must then broadcast on the common data
  bus: with a bounded ``cdb_width`` at most that many ops complete per
  cycle, oldest first -- a finished op that loses arbitration keeps its
  reservation station *and* its port until it broadcasts.  Completion frees
  both and wakes dependents.
* **retire** -- in order from the ROB head, at most ``commit_width`` per
  cycle, the cycle after completion at the earliest.  Retirement frees the
  ROB entry.  Transient (speculation-window) ops flow through the same drain
  -- their "retirement" models the flush slot they occupy during recovery.
* **fences** serialize: a fence waits for every older in-flight op, and every
  younger op additionally waits for the fence.  Fences and nops need no
  execution port, but their completions do occupy broadcast slots (the ROB
  writeback port they share with everything else).

:class:`EventScheduler` implements it with a single heap of cycle-stamped
events (complete / retire-try / dispatch-try / issue) so each simulated
cycle only touches ops that actually wake up -- idle stretches of a
200-cycle cache miss cost nothing.  With an uncontended model it runs the
original unbounded fast path; any port/CDB bound switches it to the contended
path, which adds per-pool occupancy counters, oldest-first port queues and a
per-cycle CDB budget (losers re-arbitrate next cycle).  Both paths must
produce the :class:`Schedule` of a naive reference that advances one cycle at
a time and re-scans every in-flight instruction; that reference lives in
``tests/rescan_reference.py`` and the tests hold the two equal.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .ops import PORT_POOLS, DynamicOp, port_kind

#: Intra-cycle phase order of the specification: completions broadcast
#: (freeing reservation stations and ports), then the ROB head retires, then
#: stalled dispatch resumes (same-cycle reuse of freed entries), then woken
#: and port-granted ops issue.
_COMPLETE, _RETIRE, _DISPATCH, _ISSUE = 0, 1, 2, 3

#: TimingModel field holding the port count of each functional-unit pool.
_PORT_FIELDS = {pool: f"{pool}_ports" for pool in PORT_POOLS}


@dataclass(frozen=True)
class TimingModel:
    """Microarchitectural parameters of the timing plane.

    ``fault_resolution_delay`` and ``return_resolution_delay`` default to the
    uarch config's cache miss latency when ``None``: a delayed permission /
    ownership check (or the architectural return-address read the attacker
    flushed) resolves on the timescale of a memory round-trip, which is what
    makes the paper's race winnable in the first place.

    The ``*_ports`` fields bound the functional-unit pools of
    :data:`~repro.uarch.timing.ops.PORT_POOLS` and ``cdb_width`` bounds the
    completions broadcast per cycle; ``None`` (the default everywhere) means
    unbounded -- the pre-contention model.  Any bound makes the model
    :attr:`contended` and switches the scheduler to oldest-first port / CDB
    arbitration, which is what makes the Section II-C *functional-unit
    contention* covert channels measurable in cycles.
    """

    dispatch_width: int = 4
    commit_width: int = 4
    rob_size: int = 192
    rs_entries: int = 64
    #: Cycles between the authorization resolving and the recovery (flush +
    #: refetch) completing; covert sends issued before recovery completes
    #: still perturb the cache -- in-flight memory requests are not recalled.
    squash_penalty: int = 16
    fault_resolution_delay: Optional[int] = None
    return_resolution_delay: Optional[int] = None
    #: Per-pool functional-unit port counts (``None`` = unbounded).
    alu_ports: Optional[int] = None
    load_store_ports: Optional[int] = None
    branch_ports: Optional[int] = None
    mul_ports: Optional[int] = None
    #: Completion broadcasts per cycle on the common data bus (``None`` =
    #: unbounded).
    cdb_width: Optional[int] = None

    def __post_init__(self) -> None:
        for name in (*_PORT_FIELDS.values(), "cdb_width"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(
                    f"{name} must be None (unbounded) or >= 1, got {value}"
                )

    def resolution_delay(self, window_kind: str, miss_latency: int) -> int:
        """Extra cycles between trigger completion and authorization resolution."""
        if window_kind in ("branch", "indirect"):
            return 0  # carried by the trigger's own slow data dependency
        if window_kind == "return":
            delay = self.return_resolution_delay
        else:
            delay = self.fault_resolution_delay
        return miss_latency if delay is None else delay

    def port_limit(self, pool: Optional[str]) -> Optional[int]:
        """Port count of one functional-unit pool (``None`` = unbounded)."""
        if pool is None:
            return None
        return getattr(self, _PORT_FIELDS[pool])

    @property
    def contended(self) -> bool:
        """Whether any port pool or the CDB is a bounded (contended) resource."""
        return self.cdb_width is not None or any(
            getattr(self, name) is not None for name in _PORT_FIELDS.values()
        )


DEFAULT_MODEL = TimingModel()

#: A realistically contended reference core: two ALU and two load/store
#: ports keep memory-level parallelism alive (so Theorem 1 still agrees for
#: every registry attack), while the single branch/mul ports and the width-2
#: CDB make contention measurable.  Used by ``repro simulate --contended``
#: and the window-length ablation.
CONTENDED_MODEL = TimingModel(
    alu_ports=2, load_store_ports=2, branch_ports=1, mul_ports=1, cdb_width=2
)

#: The maximally serialized core: one port everywhere and a width-1 CDB.
#: Collapsing memory-level parallelism this way closes some races the TSG
#: says are winnable (e.g. Spectre v2's two overlapping misses serialize and
#: the transmit slips past the squash) -- the ablation sweeps it to show how
#: port counts move the measured window.
SERIALIZED_MODEL = TimingModel(
    alu_ports=1, load_store_ports=1, branch_ports=1, mul_ports=1, cdb_width=1
)


@dataclass
class Schedule:
    """Per-op cycle assignments produced by a scheduler.

    ``ready`` stamps the cycle each op became data-ready (dispatched and all
    producers broadcast); ``issue - ready`` is therefore the op's port-stall
    time and ``complete - issue - max(1, latency)`` its CDB-stall time --
    the stall provenance the trace layer reports.  Hand-built schedules may
    omit it (``None``); the scheduler always fills it.
    """

    dispatch: List[int]
    issue: List[int]
    complete: List[int]
    retire: List[int]
    ready: Optional[List[int]] = None

    @property
    def cycles(self) -> int:
        """Total cycles simulated (last retirement)."""
        return max(self.retire) + 1 if self.retire else 0


def _dependencies(
    op: DynamicOp, rat: Dict[str, int], last_fence: Optional[int]
) -> Set[int]:
    """Producer seqs of ``op`` at dispatch time (register renaming + fences)."""
    deps = {rat[name] for name in op.reads if name in rat}
    if last_fence is not None:
        deps.add(last_fence)
    return deps


class EventScheduler:
    """Event-driven Tomasulo scheduler: a heap of cycle-stamped wakeups."""

    def __init__(self, model: TimingModel = DEFAULT_MODEL) -> None:
        self.model = model

    def schedule(self, ops: Sequence[DynamicOp]) -> Schedule:
        """Assign cycles to ``ops``; contended models take the arbitrated path."""
        if self.model.contended:
            return self._schedule_contended(ops)
        return self._schedule_unbounded(ops)

    def _schedule_unbounded(self, ops: Sequence[DynamicOp]) -> Schedule:
        """The original fast path: no port or CDB bookkeeping at all."""
        model = self.model
        n = len(ops)
        dispatch = [0] * n
        issue = [0] * n
        complete = [0] * n
        retire = [0] * n
        ready = [0] * n
        if n == 0:
            return Schedule(dispatch, issue, complete, retire, ready)

        rat: Dict[str, int] = {}
        last_fence: Optional[int] = None
        in_flight: Set[int] = set()  # dispatched, not yet completed
        pending: Dict[int, int] = {}  # seq -> outstanding producer count
        ready_floor: Dict[int, int] = {}  # seq -> earliest issue cycle so far
        waiters: Dict[int, List[int]] = {}  # producer seq -> dependent seqs
        done: Set[int] = set()

        next_dispatch = 0  # next op to dispatch (program order)
        head = 0  # next op to retire (program order)
        rob_used = 0
        rs_used = 0

        heap: List[Tuple[int, int, int]] = [(0, _DISPATCH, 0)]
        scheduled_tries: Set[Tuple[int, int]] = {(0, _DISPATCH)}

        def try_later(cycle: int, phase: int) -> None:
            if (cycle, phase) not in scheduled_tries:
                scheduled_tries.add((cycle, phase))
                heapq.heappush(heap, (cycle, phase, 0))

        while heap:
            cycle, phase, seq = heapq.heappop(heap)

            if phase == _COMPLETE:
                done.add(seq)
                in_flight.discard(seq)
                rs_used -= 1
                for dependent in waiters.pop(seq, ()):
                    pending[dependent] -= 1
                    floor = max(ready_floor[dependent], cycle + 1)
                    ready_floor[dependent] = floor
                    if pending[dependent] == 0:
                        ready[dependent] = floor
                        heapq.heappush(heap, (floor, _ISSUE, dependent))
                try_later(cycle, _RETIRE)
                try_later(cycle, _DISPATCH)

            elif phase == _RETIRE:
                retired = 0
                while (
                    head < n
                    and head in done
                    and complete[head] <= cycle - 1
                    and retired < model.commit_width
                ):
                    retire[head] = cycle
                    rob_used -= 1
                    head += 1
                    retired += 1
                if retired:
                    try_later(cycle, _DISPATCH)
                if head < n:
                    if head in done and complete[head] <= cycle - 1:
                        try_later(cycle + 1, _RETIRE)  # commit-width limited
                    elif head in done:
                        try_later(complete[head] + 1, _RETIRE)
                    # Otherwise the head's completion event reschedules us.

            elif phase == _DISPATCH:
                dispatched = 0
                while (
                    next_dispatch < n
                    and dispatched < model.dispatch_width
                    and rob_used < model.rob_size
                    and rs_used < model.rs_entries
                ):
                    op = ops[next_dispatch]
                    seq = next_dispatch
                    dispatch[seq] = cycle
                    rob_used += 1
                    rs_used += 1
                    in_flight.add(seq)
                    deps = _dependencies(op, rat, last_fence)
                    if op.kind == "fence":
                        deps |= in_flight - done - {seq}
                        last_fence = seq
                    floor = cycle + 1
                    outstanding = 0
                    for producer in deps:
                        if producer in done:
                            floor = max(floor, complete[producer] + 1)
                        else:
                            outstanding += 1
                            waiters.setdefault(producer, []).append(seq)
                    pending[seq] = outstanding
                    ready_floor[seq] = floor
                    for name in op.writes:
                        rat[name] = seq
                    if outstanding == 0:
                        ready[seq] = floor
                        heapq.heappush(heap, (floor, _ISSUE, seq))
                    next_dispatch += 1
                    dispatched += 1
                if next_dispatch < n and dispatched == model.dispatch_width:
                    try_later(cycle + 1, _DISPATCH)
                # A structural stall resumes on the freeing complete/retire.

            else:  # _ISSUE
                issue[seq] = cycle
                finish = cycle + max(1, ops[seq].latency)
                complete[seq] = finish
                heapq.heappush(heap, (finish, _COMPLETE, seq))

        if head < n:  # pragma: no cover - scheduler invariant
            raise RuntimeError(f"deadlock: {n - head} ops never retired")
        return Schedule(dispatch, issue, complete, retire, ready)

    def _schedule_contended(self, ops: Sequence[DynamicOp]) -> Schedule:
        """The arbitrated path: port occupancy counters + per-cycle CDB budget.

        Arbitration is a single mask pass per cycle over integer bitmasks:
        finished ops accumulate in a per-cycle ``finishers`` bitmask and the
        ``cdb_width`` lowest set bits (the oldest seqs -- exactly the order
        the per-event heap pops used to grant) win broadcast slots, the
        remainder carrying to the next cycle's mask.  Port-stalled ops sit in
        a per-pool wait bitmask whose lowest set bit is the oldest waiter, so
        ``mask & -mask`` hands a freed port to the same op the old per-pool
        heap would have popped.  ``tests/rescan_reference.py`` keeps the
        per-cycle rescan walk the tests cross-check this path against.

        Handles ``None`` limits too (they simply never bind), which is what
        the no-regression property test exercises: with every limit unbounded
        this path must produce byte-identical schedules to
        :meth:`_schedule_unbounded`.
        """
        model = self.model
        n = len(ops)
        dispatch = [0] * n
        issue = [0] * n
        complete = [0] * n
        retire = [0] * n
        ready = [0] * n
        if n == 0:
            return Schedule(dispatch, issue, complete, retire, ready)

        rat: Dict[str, int] = {}
        last_fence: Optional[int] = None
        in_flight: Set[int] = set()
        pending: Dict[int, int] = {}
        ready_floor: Dict[int, int] = {}
        waiters: Dict[int, List[int]] = {}
        done: Set[int] = set()

        next_dispatch = 0
        head = 0
        rob_used = 0
        rs_used = 0

        #: Functional-unit pool of every op; None for fences / nops.
        pools = [port_kind(op.kind) for op in ops]
        limits = {pool: model.port_limit(pool) for pool in PORT_POOLS}
        port_used = {pool: 0 for pool in PORT_POOLS}
        #: Data-ready ops stalled on a full pool, as a bitmask over seqs --
        #: the lowest set bit is the oldest waiter (heap-pop order).
        port_wait = {pool: 0 for pool in PORT_POOLS}
        cdb_width = model.cdb_width
        #: Cycle -> bitmask of ops whose execution finishes that cycle (CDB
        #: losers are merged into the next cycle's mask).
        finishers: Dict[int, int] = {}

        heap: List[Tuple[int, int, int]] = [(0, _DISPATCH, 0)]
        scheduled_tries: Set[Tuple[int, int]] = {(0, _DISPATCH)}

        def try_later(cycle: int, phase: int) -> None:
            if (cycle, phase) not in scheduled_tries:
                scheduled_tries.add((cycle, phase))
                heapq.heappush(heap, (cycle, phase, 0))

        while heap:
            cycle, phase, seq = heapq.heappop(heap)

            if phase == _COMPLETE:
                # CDB arbitration, one mask pass: every op finishing this
                # cycle (plus losers carried from earlier cycles) arbitrates
                # in the same bitmask; the ``cdb_width`` lowest set bits --
                # the oldest seqs -- win broadcast slots, the rest carry to
                # next cycle's mask, still holding their reservation station
                # and port.
                granted = finishers.pop(cycle, 0)
                if cdb_width is not None:
                    mask, granted = granted, 0
                    for _ in range(cdb_width):
                        if not mask:
                            break
                        low = mask & -mask
                        granted |= low
                        mask ^= low
                    if mask:
                        finishers[cycle + 1] = finishers.get(cycle + 1, 0) | mask
                        try_later(cycle + 1, _COMPLETE)
                grants = granted
                while grants:
                    low = grants & -grants
                    grants ^= low
                    seq = low.bit_length() - 1
                    complete[seq] = cycle
                    done.add(seq)
                    in_flight.discard(seq)
                    rs_used -= 1
                    pool = pools[seq]
                    if pool is not None and limits[pool] is not None:
                        port_used[pool] -= 1
                        wait_mask = port_wait[pool]
                        if wait_mask:
                            # Hand the freed port to the oldest waiter (the
                            # lowest set bit); it re-checks availability at
                            # issue time (a still-older op waking this same
                            # cycle may take the port first).
                            waiter_bit = wait_mask & -wait_mask
                            port_wait[pool] = wait_mask ^ waiter_bit
                            heapq.heappush(
                                heap, (cycle, _ISSUE, waiter_bit.bit_length() - 1)
                            )
                    for dependent in waiters.pop(seq, ()):
                        pending[dependent] -= 1
                        floor = max(ready_floor[dependent], cycle + 1)
                        ready_floor[dependent] = floor
                        if pending[dependent] == 0:
                            ready[dependent] = floor
                            heapq.heappush(heap, (floor, _ISSUE, dependent))
                if granted:
                    try_later(cycle, _RETIRE)
                    try_later(cycle, _DISPATCH)

            elif phase == _RETIRE:
                retired = 0
                while (
                    head < n
                    and head in done
                    and complete[head] <= cycle - 1
                    and retired < model.commit_width
                ):
                    retire[head] = cycle
                    rob_used -= 1
                    head += 1
                    retired += 1
                if retired:
                    try_later(cycle, _DISPATCH)
                if head < n:
                    if head in done and complete[head] <= cycle - 1:
                        try_later(cycle + 1, _RETIRE)
                    elif head in done:
                        try_later(complete[head] + 1, _RETIRE)

            elif phase == _DISPATCH:
                dispatched = 0
                while (
                    next_dispatch < n
                    and dispatched < model.dispatch_width
                    and rob_used < model.rob_size
                    and rs_used < model.rs_entries
                ):
                    op = ops[next_dispatch]
                    seq = next_dispatch
                    dispatch[seq] = cycle
                    rob_used += 1
                    rs_used += 1
                    in_flight.add(seq)
                    deps = _dependencies(op, rat, last_fence)
                    if op.kind == "fence":
                        deps |= in_flight - done - {seq}
                        last_fence = seq
                    floor = cycle + 1
                    outstanding = 0
                    for producer in deps:
                        if producer in done:
                            floor = max(floor, complete[producer] + 1)
                        else:
                            outstanding += 1
                            waiters.setdefault(producer, []).append(seq)
                    pending[seq] = outstanding
                    ready_floor[seq] = floor
                    for name in op.writes:
                        rat[name] = seq
                    if outstanding == 0:
                        ready[seq] = floor
                        heapq.heappush(heap, (floor, _ISSUE, seq))
                    next_dispatch += 1
                    dispatched += 1
                if next_dispatch < n and dispatched == model.dispatch_width:
                    try_later(cycle + 1, _DISPATCH)

            else:  # _ISSUE
                pool = pools[seq]
                limit = limits[pool] if pool is not None else None
                if limit is not None and port_used[pool] >= limit:
                    port_wait[pool] |= 1 << seq
                    continue
                if limit is not None:
                    port_used[pool] += 1
                issue[seq] = cycle
                finish = cycle + max(1, ops[seq].latency)
                finishers[finish] = finishers.get(finish, 0) | (1 << seq)
                try_later(finish, _COMPLETE)

        if head < n:  # pragma: no cover - scheduler invariant
            raise RuntimeError(f"deadlock: {n - head} ops never retired")
        return Schedule(dispatch, issue, complete, retire, ready)
