"""Tests for deterministic fault injection and the fault-tolerant grid plane."""

from __future__ import annotations

import json
import pickle

import pytest

from repro.engine import (
    Engine,
    FailurePolicy,
    GridPointFailed,
    Result,
)
from repro.faults import (
    FaultInjected,
    FaultPlan,
    FaultSpec,
    FaultyDiskStore,
    apply_store_faults,
    load_fault_plan,
)
from repro.scenario import ScenarioGrid, ScenarioSpec
from repro.store import DiskStore, MemoryStore

pytestmark = pytest.mark.faults


def _simulate_grid(secrets):
    return ScenarioGrid(
        "simulate", axes={"attack": ["spectre_v1"], "secret": list(secrets)}
    )


#: A policy tuned for tests: fast backoff, no jitter, one retry.
FAST = FailurePolicy(retries=1, backoff=0.001, jitter=0.0)


# ---------------------------------------------------------------------------
# FaultSpec / FaultPlan mechanics
# ---------------------------------------------------------------------------
class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="meteor")

    def test_rate_bounds_enforced(self):
        with pytest.raises(ValueError, match="rate"):
            FaultSpec(kind="exception", rate=1.5)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="count"):
            FaultSpec(kind="exception", count=-1)

    def test_dict_round_trip(self):
        spec = FaultSpec(kind="hang", match="secret=3", rate=0.5, hang_seconds=2.0)
        assert FaultSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown fault field"):
            FaultSpec.from_dict({"kind": "exception", "blast_radius": 3})


class TestFaultPlan:
    def test_exception_fault_raises_fault_injected(self):
        plan = FaultPlan([FaultSpec(kind="exception")])
        with pytest.raises(FaultInjected):
            plan.fire_point("simulate(attack='spectre_v1')")

    def test_match_selects_only_matching_keys(self):
        plan = FaultPlan([FaultSpec(kind="exception", match="secret=3")])
        plan.fire_point("simulate(attack='spectre_v1', secret=1)")  # no fire
        with pytest.raises(FaultInjected):
            plan.fire_point("simulate(attack='spectre_v1', secret=3)")

    def test_rate_selection_is_deterministic_across_instances(self):
        def hits(seed):
            plan = FaultPlan([FaultSpec(kind="exception", rate=0.5)], seed=seed)
            fired = set()
            for i in range(64):
                try:
                    plan.fire_point(f"key-{i}")
                except FaultInjected:
                    fired.add(i)
            return fired

        first, second = hits(7), hits(7)
        assert first == second
        assert 0 < len(first) < 64
        assert hits(8) != first  # a different seed picks different points

    def test_count_without_state_dir_is_per_instance(self):
        plan = FaultPlan([FaultSpec(kind="exception", count=1)])
        with pytest.raises(FaultInjected):
            plan.fire_point("k")
        plan.fire_point("k")  # credit spent, no fire
        clone = pickle.loads(pickle.dumps(plan))
        with pytest.raises(FaultInjected):  # counts reset at the pickle boundary
            clone.fire_point("k")

    def test_count_with_state_dir_is_exact_across_instances(self, tmp_path):
        def make():
            return FaultPlan(
                [FaultSpec(kind="exception", count=2)], state_dir=tmp_path
            )

        fired = 0
        for _ in range(5):
            try:
                make().fire_point("k")  # fresh instance every time
            except FaultInjected:
                fired += 1
        assert fired == 2
        assert len(list(tmp_path.glob("*.token"))) == 2

    def test_plan_json_round_trip(self, tmp_path):
        plan = FaultPlan(
            [FaultSpec(kind="crash", match="secret=5"), FaultSpec(kind="corrupt")],
            seed=11,
            state_dir=tmp_path,
        )
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan.to_dict()))
        loaded = load_fault_plan(path)
        assert loaded.seed == 11
        assert loaded.faults == plan.faults
        assert loaded.state_dir == str(tmp_path)

    def test_plan_rejects_non_object_json(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="JSON object"):
            load_fault_plan(path)


# ---------------------------------------------------------------------------
# The supervised grid plane: retry, quarantine, timeout, pool respawn
# ---------------------------------------------------------------------------
class TestQuarantine:
    def test_serial_exception_is_quarantined_and_grid_completes(self):
        faults = FaultPlan([FaultSpec(kind="exception", match="secret=2")])
        with Engine(policy=FAST, faults=faults) as engine:
            result = engine.run_grid(_simulate_grid(range(4)))
        assert result.data["quarantined"] == 1
        assert result.data["points"] == 4
        bad = result.data["rows"][2]
        assert bad["ok"] is False
        assert bad["data"]["quarantined"] is True
        assert bad["data"]["error"] == "FaultInjected"
        good = [row for i, row in enumerate(result.data["rows"]) if i != 2]
        assert all("quarantined" not in row["data"] for row in good)
        summary = engine.stats()["grid"]
        assert summary["quarantined"] == 1
        assert summary["retried"] == FAST.retries

    def test_error_envelope_shape(self):
        faults = FaultPlan([FaultSpec(kind="exception")])
        with Engine(policy=FAST, faults=faults) as engine:
            result = engine.run_grid(_simulate_grid([0]))
        (envelope,) = result.payload
        assert envelope.kind == "error"
        assert envelope.ok is False
        assert envelope.cache == "none"
        assert envelope.data["attempts"] == FAST.retries + 1
        assert "FaultInjected" in envelope.data["error"]

    def test_retry_heals_a_transient_fault(self, tmp_path):
        # One firing credit in a shared state_dir: the first attempt trips,
        # every retry finds the token spent and succeeds.
        faults = FaultPlan(
            [FaultSpec(kind="exception", match="secret=1", count=1)],
            state_dir=tmp_path,
        )
        with Engine(policy=FAST, faults=faults) as engine:
            result = engine.run_grid(_simulate_grid(range(3)))
        assert "quarantined" not in result.data
        summary = engine.stats()["grid"]
        assert summary["retried"] == 1
        assert summary["quarantined"] == 0

    def test_quarantine_disabled_raises_grid_point_failed(self):
        faults = FaultPlan([FaultSpec(kind="exception", match="secret=0")])
        policy = FailurePolicy(retries=1, backoff=0.001, jitter=0.0, quarantine=False)
        with Engine(policy=policy, faults=faults) as engine:
            with pytest.raises(GridPointFailed, match="FaultInjected"):
                engine.run_grid(_simulate_grid(range(2)))

    def test_crashed_worker_is_quarantined_and_pool_respawned(self):
        faults = FaultPlan([FaultSpec(kind="crash", match="secret=1")])
        policy = FailurePolicy(retries=1, backoff=0.001, jitter=0.0, timeout=60.0)
        with Engine(parallel=2, policy=policy, faults=faults) as engine:
            result = engine.run_grid(_simulate_grid(range(4)))
        assert result.data["quarantined"] == 1
        assert result.data["rows"][1]["data"]["quarantined"] is True
        # The innocent points all completed despite the dead pool.
        for i in (0, 2, 3):
            assert "quarantined" not in result.data["rows"][i]["data"]
        assert engine.stats()["grid"]["pool_respawns"] >= 1

    def test_hung_worker_times_out_and_is_quarantined(self):
        faults = FaultPlan(
            [FaultSpec(kind="hang", match="secret=1", hang_seconds=30.0)]
        )
        policy = FailurePolicy(retries=1, backoff=0.001, jitter=0.0, timeout=1.0)
        with Engine(parallel=2, policy=policy, faults=faults) as engine:
            result = engine.run_grid(_simulate_grid(range(3)))
        assert result.data["quarantined"] == 1
        bad = result.data["rows"][1]["data"]
        assert bad["error"] == "Timeout"
        assert engine.stats()["grid"]["timeouts"] >= 1


# ---------------------------------------------------------------------------
# Streaming + checkpointing + resume
# ---------------------------------------------------------------------------
class TestStreamingCheckpoints:
    def test_iter_grid_checkpoints_each_point_as_it_is_yielded(self, tmp_path):
        store = DiskStore(root=tmp_path, version="t")
        grid = _simulate_grid(range(4))
        with Engine(store=store) as engine:
            for seen, point in enumerate(engine.iter_grid(grid), start=1):
                assert isinstance(point.result, Result)
                entries = store.stats()["entries"]
                assert entries >= seen  # persisted before the yield

    def test_resume_serves_checkpoints_without_recompute(self, tmp_path):
        grid = _simulate_grid(range(4))
        with Engine(store=DiskStore(root=tmp_path, version="t")) as engine:
            cold = engine.run_grid(grid)
        store = DiskStore(root=tmp_path, version="t")
        with Engine(store=store) as engine:
            warm = engine.run_grid(grid)
            summary = engine.stats()["grid"]
        assert warm.data == cold.data
        assert summary["resumed"] == 4
        assert store.stats()["misses"] == 0

    def test_serial_grid_probes_the_store_once_per_computed_point(self, tmp_path):
        store = DiskStore(root=tmp_path, version="t")
        with Engine(store=store) as engine:
            engine.run_grid(_simulate_grid(range(5)))
        assert (store.stats()["misses"], store.stats()["puts"]) == (5, 5)
        # A copy of a point computed earlier in the same grid is served warm.
        twin = ScenarioSpec("simulate", attack="spectre_v1", secret=9)
        copies = DiskStore(root=tmp_path, version="copies")
        with Engine(store=copies) as engine:
            rows = engine.run_grid(ScenarioGrid.explicit([twin, twin])).payload
        assert [row.cache for row in rows] == ["cold", "warm"]
        stats = copies.stats()
        assert (stats["misses"], stats["hits"], stats["puts"]) == (2, 1, 1)
        resumed = DiskStore(root=tmp_path, version="t")
        with Engine(store=resumed) as engine:
            engine.run_grid(_simulate_grid(range(5)))
        assert resumed.stats()["misses"] == 0

    def test_partial_checkpoints_resume_only_missing_points(self, tmp_path):
        grid = _simulate_grid(range(6))
        specs = grid.specs()
        seed = DiskStore(root=tmp_path, version="t")
        with Engine(store=seed) as engine:
            for spec in specs[:2]:  # simulate a campaign killed after 2 points
                engine.run(spec)
        store = DiskStore(root=tmp_path, version="t")
        with Engine(store=store) as engine:
            result = engine.run_grid(grid)
            summary = engine.stats()["grid"]
        assert result.data["points"] == 6
        assert summary["resumed"] == 2
        # Only the four missing points actually executed ...
        assert engine.stats()["runs"]["simulate"] == 4
        # ... and their checkpoints joined the first two on disk.
        assert store.stats()["entries"] == 6

    def test_quarantined_points_are_never_checkpointed(self, tmp_path):
        store = DiskStore(root=tmp_path, version="t")
        faults = FaultPlan([FaultSpec(kind="exception", match="secret=1")])
        with Engine(store=store, policy=FAST, faults=faults) as engine:
            result = engine.run_grid(_simulate_grid(range(3)))
        assert result.data["quarantined"] == 1
        assert store.stats()["entries"] == 2  # only the healthy points persisted
        # A resume without the fault plan heals the grid.
        with Engine(store=DiskStore(root=tmp_path, version="t"), policy=FAST) as engine:
            healed = engine.run_grid(_simulate_grid(range(3)))
        assert "quarantined" not in healed.data


class TestFaultFreeEnvelopes:
    def test_serial_and_policy_envelopes_are_identical(self):
        grid = _simulate_grid(range(4))
        with Engine() as engine:
            legacy = engine.run_grid(grid)
        with Engine(policy=FAST) as engine:
            supervised = engine.run_grid(grid)
        assert supervised.data == legacy.data
        assert supervised.subject == legacy.subject
        assert supervised.ok == legacy.ok

    def test_fault_free_grid_data_keys_are_unchanged(self):
        with Engine() as engine:
            result = engine.run_grid(_simulate_grid(range(2)))
        assert sorted(result.data) == ["axes", "kind", "ok_points", "points", "rows"]


# ---------------------------------------------------------------------------
# Store sabotage: corrupted checkpoints recompute, never propagate
# ---------------------------------------------------------------------------
class TestFaultyDiskStore:
    @pytest.mark.parametrize("kind", ["corrupt", "partial_write"])
    def test_sabotaged_entry_recomputes_then_heals(self, tmp_path, kind):
        spec = ScenarioSpec("simulate", attack="spectre_v1", secret=9)
        plan = FaultPlan([FaultSpec(kind=kind, count=1)])
        with Engine(store=FaultyDiskStore(root=tmp_path, plan=plan, version="t")) as engine:
            first = engine.run(spec)
        assert first.cache == "cold"
        # The sabotaged entry is detected, dropped, and recomputed ...
        with Engine(store=DiskStore(root=tmp_path, version="t")) as engine:
            second = engine.run(spec)
        assert second.cache == "cold"
        assert second.data == first.data
        # ... and the rewritten entry serves warm.
        with Engine(store=DiskStore(root=tmp_path, version="t")) as engine:
            third = engine.run(spec)
        assert third.cache == "warm"
        assert third.data == first.data

    def test_faulty_store_pickles_to_a_healthy_disk_store(self, tmp_path):
        plan = FaultPlan([FaultSpec(kind="corrupt")])
        store = FaultyDiskStore(root=tmp_path, plan=plan, version="t")
        clone = pickle.loads(pickle.dumps(store))
        assert type(clone) is DiskStore

    def test_apply_store_faults_wraps_only_disk_stores(self, tmp_path):
        plan = FaultPlan([FaultSpec(kind="corrupt")])
        disk = DiskStore(root=tmp_path, version="t")
        wrapped = apply_store_faults(disk, plan)
        assert isinstance(wrapped, FaultyDiskStore)
        assert wrapped.root == disk.root and wrapped.version == disk.version
        memory = MemoryStore()
        assert apply_store_faults(memory, plan) is memory
        assert apply_store_faults(None, plan) is None
        # A plan without store faults is a no-op wrap.
        point_only = FaultPlan([FaultSpec(kind="exception")])
        assert apply_store_faults(disk, point_only) is disk
