"""The batch timing plane: differential identities and hot-path bug pins.

Three families of guarantees from the batch PR live here:

* **Masked arbitration == per-op walk.**  Both schedulers now arbitrate
  each cycle's ready ops in one integer-bitmask pass;
  :class:`ReferenceRescanScheduler` below is the *verbatim* pre-mask
  rescan walk, kept as the fixed point the refactor is differentially
  tested against (both schedulers, random contended models, the paper's
  exploit corpus).
* **Batch == per-point.**  ``Engine.simulate_batch`` envelopes are
  byte-identical (``Result.to_json``) to the same points served one
  :meth:`Engine.run` at a time on an equivalent session.
* **Closure backends agree.**  The numpy word-chunk closure sweep and the
  stdlib big-int sweep produce bit-identical ancestor/descendant masks
  and the same racing-pair list, on random DAGs, via either entry point.

Plus regression pins for the satellite bugfixes: the ``stats()["runs"]``
counter (real executions only, never store-warm serves), the
``ProgressLine`` division-artifact clamp, and the ``repro perf --check``
stale-record gate.
"""

from __future__ import annotations

import io
import json
import random
from typing import Dict, List, Optional, Sequence, Set

import pytest
from hypothesis import given, settings, strategies as st

from test_timing_scheduler import random_contended_model, random_stream

from repro import perf
from repro.core.tsg import TopologicalSortGraph, _np, closure_backend
from repro.engine import Engine, _batch_point_spec
from repro.obs.progress import MIN_MEASURABLE_SECONDS, ProgressLine
from repro.scenario import ScenarioSpec
from repro.store import DiskStore
from repro.uarch.defenses import SimDefense
from repro.uarch.timing import (
    DEFAULT_MODEL,
    EventScheduler,
    RescanScheduler,
    Schedule,
    TimingModel,
)
from repro.uarch.timing.ops import PORT_POOLS, port_kind
from repro.uarch.timing.scheduler import _dependencies
from repro.uarch.timing.validate import SCENARIOS

pytestmark = pytest.mark.batch


class ReferenceRescanScheduler:
    """The pre-mask rescan walk, verbatim -- the differential fixed point.

    This is the :class:`~repro.uarch.timing.scheduler.RescanScheduler`
    exactly as it stood before the bitmask refactor: per-op producer-set
    walks, a sorted scan of the executing list for CDB arbitration, and
    Python-set bookkeeping.  Do not modernize it; its whole value is that
    it did not change when the production schedulers did.
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


# ---------------------------------------------------------------------------
# Masked arbitration == the reference per-op walk
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(12))
def test_masked_schedulers_equal_reference_walk(seed):
    """Seeded sweep: both mask-pass schedulers match the verbatim old walk."""
    rng = random.Random(seed)
    ops = random_stream(rng, rng.randint(1, 80))
    model = random_contended_model(rng)
    reference = ReferenceRescanScheduler(model).schedule(ops)
    assert RescanScheduler(model).schedule(ops) == reference
    assert EventScheduler(model).schedule(ops) == reference


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=100_000),
    length=st.integers(min_value=1, max_value=48),
)
def test_masked_schedulers_equal_reference_walk_property(seed, length):
    rng = random.Random(seed)
    ops = random_stream(rng, length)
    model = random_contended_model(rng)
    reference = ReferenceRescanScheduler(model).schedule(ops)
    assert RescanScheduler(model).schedule(ops) == reference
    assert EventScheduler(model).schedule(ops) == reference


def test_reference_walk_on_exploit_corpus():
    """The corpus programs, under real contention, match the reference."""
    from repro.exploits.harness import EXPLOITS
    from repro.uarch import UarchConfig
    from repro.uarch.timing import TimingCPU
    from repro.uarch.timing.scheduler import CONTENDED_MODEL, SERIALIZED_MODEL

    recorded = []

    class RecordingCPU(TimingCPU):
        def __init__(self, program, config=UarchConfig(), **kwargs):
            super().__init__(program, config, **kwargs)
            recorded.append(self)

    for name in sorted(EXPLOITS)[:4]:
        EXPLOITS[name](UarchConfig(), 0x5A, cpu_cls=RecordingCPU)
    streams = [cpu.last_ops for cpu in recorded if cpu.last_ops]
    assert streams, "exploit corpus recorded no dynamic ops"
    for ops in streams:
        for model in (CONTENDED_MODEL, SERIALIZED_MODEL):
            reference = ReferenceRescanScheduler(model).schedule(ops)
            assert RescanScheduler(model).schedule(ops) == reference
            assert EventScheduler(model).schedule(ops) == reference


# ---------------------------------------------------------------------------
# Batch == per-point: envelope byte-identity
# ---------------------------------------------------------------------------
_ATTACKS = sorted(SCENARIOS)
_DEFENSES = sorted(defense.name for defense in SimDefense)


@st.composite
def batch_points(draw):
    """A small campaign: attacks, optionally defended, as batch points."""
    count = draw(st.integers(min_value=1, max_value=4))
    points = []
    for _ in range(count):
        attack = draw(st.sampled_from(_ATTACKS))
        defenses = draw(
            st.lists(st.sampled_from(_DEFENSES), max_size=2, unique=True)
        )
        if defenses:
            points.append({"attack": attack, "defenses": tuple(defenses)})
        else:
            points.append(attack)
    return points


@settings(max_examples=15, deadline=None)
@given(points=batch_points())
def test_batch_envelopes_byte_identical_to_per_point(points):
    """``simulate_batch`` payload envelopes == the per-point loop, bytewise."""
    batch = Engine().simulate_batch(points)
    loop_engine = Engine()
    loop = [loop_engine.run(_batch_point_spec(point)) for point in points]
    assert [result.to_json() for result in batch.payload] == [
        result.to_json() for result in loop
    ]
    assert batch.data["rows"] == [result.data for result in loop]
    assert batch.data["points"] == len(points)


def test_parallel_batch_rows_match_serial():
    """Pool-served batch rows are identical to the serial serve."""
    points = [
        "spectre_v1",
        {"attack": "meltdown", "defenses": ("PREVENT_SPECULATIVE_LOADS",)},
        "spectre_v2",
        "spectre_v1",
        "lvi",
        "spectre_rsb",
    ]
    serial = Engine().simulate_batch(points)
    with Engine() as engine:
        parallel = engine.simulate_batch(points, parallel=2)
    assert parallel.data["rows"] == serial.data["rows"]
    assert parallel.data["leaking"] == serial.data["leaking"]
    assert parallel.data["unique_simulations"] == serial.data["unique_simulations"]


def test_batch_point_spec_rejects_malformed_points():
    with pytest.raises(TypeError):
        _batch_point_spec(42)
    with pytest.raises(ValueError):
        _batch_point_spec({"attack": "spectre_v1", "bogus": 1})
    with pytest.raises(ValueError):
        _batch_point_spec({"defenses": ("LFENCE",)})


def test_batch_spans_emitted_per_point(tmp_path):
    """Parallel batch workers emit one ``worker.point`` span per cold point."""
    from repro.obs.trace import Tracer

    trace_file = tmp_path / "trace.jsonl"
    with Tracer(sink=trace_file) as tracer:
        with Engine(tracer=tracer) as engine:
            engine.simulate_batch(
                ["spectre_v1", "meltdown", "spectre_v2", "lvi"], parallel=2
            )
    records = [
        json.loads(line) for line in trace_file.read_text().splitlines() if line
    ]
    worker_spans = [r for r in records if r.get("name") == "worker.point"]
    assert len(worker_spans) == 4
    assert all(
        span.get("attrs", {}).get("kind") == "simulate" for span in worker_spans
    )


def test_supervised_batch_matches_unsupervised():
    """Routing batch prewarm through the failure policy changes nothing on a
    clean run -- same rows, same envelope, supervision is pure insurance."""
    from repro.engine import FailurePolicy

    points = ["spectre_v1", "meltdown", "spectre_v1", "lvi"]
    plain = Engine().simulate_batch(points)
    with Engine(policy=FailurePolicy(timeout=60.0, retries=1)) as engine:
        supervised = engine.simulate_batch(points, parallel=2)
    assert supervised.data == plain.data
    assert supervised.ok == plain.ok


def test_supervised_batch_quarantines_a_poisoned_point():
    """A point that keeps crashing is quarantined, not fatal: the rest of
    the batch still serves, the envelope flags the failure, and the grid
    stats carry the retry/quarantine accounting."""
    from repro.engine import FailurePolicy
    from repro.faults import FaultPlan, FaultSpec

    plan = FaultPlan(
        faults=(FaultSpec(kind="exception", match="attack='spectre_rsb'"),),
        seed=0,
    )
    with Engine(
        policy=FailurePolicy(timeout=60.0, retries=1), faults=plan
    ) as engine:
        result = engine.simulate_batch(
            ["spectre_v1", "spectre_rsb", "meltdown"], parallel=2
        )
    assert not result.ok
    assert result.data["quarantined"] == 1
    rows = result.data["rows"]
    assert len(rows) == 3
    healthy = [row for row in rows if "error" not in row]
    assert len(healthy) == 2
    grid = engine.stats()["grid"]
    assert grid["quarantined"] == 1
    assert grid["retried"] >= 1


def test_unsupervised_batch_counts_in_grid_stats():
    """Batch shards ride the same grid accounting as every other grid."""
    engine = Engine()
    engine.simulate_batch(["spectre_v1", "meltdown"])
    assert engine.stats()["runs"].get("simulate_batch", 0) == 1


# ---------------------------------------------------------------------------
# Closure backends agree (numpy word chunks vs stdlib big ints)
# ---------------------------------------------------------------------------
def _random_dag(rng: random.Random, vertices: int, edges: int):
    graph = TopologicalSortGraph()
    for i in range(vertices):
        graph.add_vertex(f"v{i}")
    for _ in range(edges):
        a, b = sorted(rng.sample(range(vertices), 2))
        graph.add_edge(f"v{a}", f"v{b}")
    return graph


@pytest.mark.skipif(_np is None, reason="numpy not installed")
@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=100_000),
    vertices=st.integers(min_value=2, max_value=130),
)
def test_closure_backends_bit_identical(seed, vertices):
    """numpy and stdlib sweeps build the same closure and racing pairs."""
    rng = random.Random(seed)
    graph = _random_dag(rng, vertices, rng.randint(0, 3 * vertices))
    order = graph.topological_order()
    graph._rebuild_closure_python(order)
    anc, desc = list(graph._anc), list(graph._desc)
    pairs = graph.all_racing_pairs()
    graph._rebuild_closure_numpy(order)
    assert graph._anc == anc
    assert graph._desc == desc
    assert graph.all_racing_pairs() == pairs


@pytest.mark.skipif(_np is None, reason="numpy not installed")
def test_backend_env_gate(monkeypatch):
    monkeypatch.setenv("REPRO_TSG_BACKEND", "python")
    assert closure_backend() == "python"
    monkeypatch.setenv("REPRO_TSG_BACKEND", "numpy")
    assert closure_backend() == "numpy"
    monkeypatch.setenv("REPRO_TSG_BACKEND", "auto")
    assert closure_backend() == "numpy"


def test_remove_edge_keeps_closure_consistent_across_backends(monkeypatch):
    """``remove_edge`` (the `_rebuild_closure` entry point) is backend-stable."""
    results = []
    backends = ["python"] + (["auto"] if _np is not None else [])
    for backend in backends:
        monkeypatch.setenv("REPRO_TSG_BACKEND", backend)
        graph = _random_dag(random.Random(3), 80, 200)
        victim = graph.edges[0]
        graph.remove_edge(victim.source, victim.target)
        results.append((list(graph._anc), list(graph._desc), graph.all_racing_pairs()))
    assert all(entry == results[0] for entry in results)


# ---------------------------------------------------------------------------
# Satellite pins: runs counter, progress clamp, stale perf records
# ---------------------------------------------------------------------------
def test_store_warm_serves_do_not_count_as_runs(tmp_path):
    """``stats()["runs"]`` counts real executions, not store-warm envelopes."""
    spec = ScenarioSpec("simulate", attack="spectre_v1")
    store = DiskStore(tmp_path / "store")
    engine = Engine(store=store)
    first = engine.run(spec)
    assert first.cache == "cold"
    assert engine.stats()["runs"].get("simulate") == 1
    second = engine.run(spec)
    assert second.cache == "warm"
    assert engine.stats()["runs"].get("simulate") == 1  # unchanged
    # A fresh session on the same store serves warm without any run at all.
    rewarmed = Engine(store=DiskStore(tmp_path / "store"))
    assert rewarmed.run(spec).cache == "warm"
    assert "simulate" not in rewarmed.stats()["runs"]


def test_progress_rate_clamped_below_measurable_elapsed():
    """Sub-millisecond elapsed renders ``--`` instead of a division artifact."""
    progress = ProgressLine(total=10, stream=io.StringIO())
    progress.done = 5
    line = progress.line(now=progress._t0 + MIN_MEASURABLE_SECONDS / 10)
    assert "-- pts/s" in line
    assert "ETA --" in line
    # Past the clamp the real rate and ETA come back.
    line = progress.line(now=progress._t0 + 1.0)
    assert "5.0 pts/s" in line
    assert "ETA 1s" in line
    # A finished grid always reports ETA 0s, measurable or not.
    progress.done = 10
    line = progress.line(now=progress._t0)
    assert "ETA 0s" in line and "-- pts/s" in line


def _fake_trajectory(tmp_path, stamp: str):
    path = tmp_path / "BENCH.json"
    path.write_text(
        json.dumps({"benchmark": "x", "runs": [{"source_digest": stamp, "results": [1]}]})
    )
    return path


def test_perf_check_fails_on_stale_commit(tmp_path, monkeypatch, capsys):
    """A record stamped with other sources' digest fails unless --allow-stale."""
    monkeypatch.setattr(perf, "threshold_report", lambda trajectory: [])
    stale_path = _fake_trajectory(tmp_path, "oldoldold")
    assert perf.run_check(str(stale_path)) == 1
    assert "FAIL" in capsys.readouterr().out
    assert perf.run_check(str(stale_path), allow_stale=True) == 0
    out = capsys.readouterr().out
    assert "WARNING (stale, tolerated)" in out
    fresh_path = _fake_trajectory(tmp_path, perf.source_digest())
    assert perf.run_check(str(fresh_path)) == 0
    assert "all perf thresholds hold" in capsys.readouterr().out


def test_stale_records_flags_an_unstamped_record():
    [line] = perf.stale_records({"runs": [{"results": [1]}]})
    assert "latest results record" in line
