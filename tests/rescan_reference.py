"""The per-cycle rescan reference the event scheduler is tested against.

:class:`ReferenceRescanScheduler` implements the timing specification of
:mod:`repro.uarch.timing.scheduler` by brute force: it advances one cycle at
a time and re-scans every in-flight instruction.  The event-driven
:class:`~repro.uarch.timing.scheduler.EventScheduler` must assign every op
the same cycles, with and without port/CDB contention; the differential
tests in ``test_timing_scheduler.py`` and ``test_batch_plane.py`` hold the
two equal.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.uarch.timing import DEFAULT_MODEL, Schedule, TimingModel
from repro.uarch.timing.ops import PORT_POOLS, port_kind
from repro.uarch.timing.scheduler import _dependencies


class ReferenceRescanScheduler:
    """The pre-mask rescan walk, verbatim -- the differential fixed point.

    The per-cycle rescan scheduler exactly as it stood before the event
    engine's bitmask refactor: per-op producer-set walks, a sorted scan of
    the executing list for CDB arbitration, and Python-set bookkeeping.  Do
    not modernize it; its whole value is that it did not change when the
    production scheduler did.
    """

    def __init__(self, model: TimingModel = DEFAULT_MODEL) -> None:
        self.model = model

    def schedule(self, ops) -> Schedule:
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
        deps: Dict[int, Set[int]] = {}
        waiting: List[int] = []  # dispatched, not yet issued (ascending seq)
        executing: List[int] = []  # issued, not yet completed (broadcast)
        finish: Dict[int, int] = {}  # seq -> cycle its execution finishes
        ready_seen: Set[int] = set()
        done: Set[int] = set()
        in_flight: Set[int] = set()

        pools = [port_kind(op.kind) for op in ops]
        limits = {pool: model.port_limit(pool) for pool in PORT_POOLS}
        port_used = {pool: 0 for pool in PORT_POOLS}
        cdb_width = model.cdb_width

        next_dispatch = 0
        head = 0
        rob_used = 0
        rs_used = 0
        cycle = 0

        while head < n:
            finished = sorted(seq for seq in executing if finish[seq] <= cycle)
            if cdb_width is not None:
                finished = finished[:cdb_width]
            if finished:
                granted = set(finished)
                executing = [seq for seq in executing if seq not in granted]
                for seq in finished:
                    complete[seq] = cycle
                    done.add(seq)
                    in_flight.discard(seq)
                    rs_used -= 1
                    pool = pools[seq]
                    if pool is not None and limits[pool] is not None:
                        port_used[pool] -= 1

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
                op_deps = _dependencies(op, rat, last_fence)
                if op.kind == "fence":
                    op_deps |= in_flight - done - {seq}
                    last_fence = seq
                deps[seq] = op_deps
                for name in op.writes:
                    rat[name] = seq
                waiting.append(seq)
                next_dispatch += 1
                dispatched += 1

            still_waiting = []
            for seq in waiting:
                producers = deps[seq]
                data_ready = dispatch[seq] <= cycle - 1 and all(
                    producer in done and complete[producer] <= cycle - 1
                    for producer in producers
                )
                if not data_ready:
                    still_waiting.append(seq)
                    continue
                if seq not in ready_seen:
                    ready_seen.add(seq)
                    ready[seq] = cycle
                pool = pools[seq]
                limit = limits[pool] if pool is not None else None
                if limit is not None and port_used[pool] >= limit:
                    still_waiting.append(seq)
                    continue
                if limit is not None:
                    port_used[pool] += 1
                issue[seq] = cycle
                finish[seq] = cycle + max(1, ops[seq].latency)
                executing.append(seq)
            waiting = still_waiting

            cycle += 1

        return Schedule(dispatch, issue, complete, retire, ready)
