"""The batch timing plane: differential identities and hot-path bug pins.

Two families of guarantees of the batch timing plane live here:

* **Masked arbitration == per-op walk.**  The event scheduler arbitrates
  each cycle's ready ops in one integer-bitmask pass;
  :class:`~rescan_reference.ReferenceRescanScheduler` is the *verbatim*
  pre-mask rescan walk, kept as the fixed point the refactor is
  differentially tested against (random contended models, the paper's
  exploit corpus).
* **Batch == per-point.**  ``simulate_batch`` envelopes are
  byte-identical (``Result.to_json``) to the same points served one
  :meth:`Engine.run` at a time on an equivalent session.

The TSG closure has a single backend, the stdlib big-int sweep; its bulk
insertion and ``remove_edge`` are tested against per-edge insertion in
``tests/test_core_tsg.py``.

Plus regression pins for the satellite bugfixes: the ``stats()["runs"]``
counter (real executions only, never store-warm serves), the
``ProgressLine`` division-artifact clamp, and the ``repro perf --check``
stale-record gate.
"""

from __future__ import annotations

import io
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from rescan_reference import ReferenceRescanScheduler
from test_timing_scheduler import random_contended_model, random_stream

from repro import perf
from repro.engine import Engine, _batch_point_spec
from repro.obs.progress import MIN_MEASURABLE_SECONDS, ProgressLine
from repro.scenario import ScenarioSpec
from repro.store import DiskStore
from repro.uarch.defenses import SimDefense
from repro.uarch.timing import EventScheduler
from repro.uarch.timing.validate import SCENARIOS

pytestmark = pytest.mark.batch


# ---------------------------------------------------------------------------
# Masked arbitration == the reference per-op walk
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(12))
def test_masked_schedulers_equal_reference_walk(seed):
    """Seeded sweep: the mask-pass scheduler matches the verbatim old walk."""
    rng = random.Random(seed)
    ops = random_stream(rng, rng.randint(1, 80))
    model = random_contended_model(rng)
    reference = ReferenceRescanScheduler(model).schedule(ops)
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
    batch = Engine().run(ScenarioSpec("simulate_batch", points=points))
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
    spec = ScenarioSpec("simulate_batch", points=points)
    serial = Engine().run(spec)
    with Engine() as engine:
        parallel = engine.run(spec, parallel=2)
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
            engine.run(
                ScenarioSpec(
                    "simulate_batch", points=["spectre_v1", "meltdown", "spectre_v2", "lvi"]
                ),
                parallel=2,
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
    spec = ScenarioSpec("simulate_batch", points=points)
    plain = Engine().run(spec)
    with Engine(policy=FailurePolicy(timeout=60.0, retries=1)) as engine:
        supervised = engine.run(spec, parallel=2)
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
        result = engine.run(
            ScenarioSpec(
                "simulate_batch", points=["spectre_v1", "spectre_rsb", "meltdown"]
            ),
            parallel=2,
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
    engine.run(ScenarioSpec("simulate_batch", points=["spectre_v1", "meltdown"]))
    assert engine.stats()["runs"].get("simulate_batch", 0) == 1


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
        json.dumps(
            {"benchmark": "x", "runs": [{"source_digest": stamp, "engine_results": [1]}]}
        )
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
    [line] = perf.stale_records({"runs": [{"engine_results": [1]}]})
    assert "latest engine_results record" in line
