"""Tests for the pluggable artifact stores (MemoryStore / DiskStore)."""

from __future__ import annotations

import json
import os
import pickle
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import Engine, Result
from repro.faults import FaultPlan, FaultSpec, FaultyDiskStore
from repro.scenario import ScenarioSpec
from repro.store import (
    CODE_VERSION,
    DiskStore,
    MemoryStore,
    open_store,
    store_from_ref,
    store_ref,
)


@pytest.fixture
def disk(tmp_path):
    return DiskStore(root=tmp_path, version="test")


def _envelope(tag: str = "x") -> Result:
    return Result(kind="simulate", subject=tag, ok=True, cache="cold",
                  data={"tag": tag}, payload=[tag])


# ---------------------------------------------------------------------------
# MemoryStore
# ---------------------------------------------------------------------------
class TestMemoryStore:
    def test_round_trip_and_stats(self):
        store = MemoryStore()
        assert store.get("k") is None
        assert store.put("k", {"v": 1})
        assert store.get("k") == {"v": 1}
        assert store.stats() == {
            "entries": 1,
            "hits": 1,
            "misses": 1,
            "puts": 1,
            "put_failures": 0,
            "evictions": 0,
        }
        assert store.clear() == 1
        assert store.get("k") is None

    def test_lru_eviction_order(self):
        store = MemoryStore(max_entries=2)
        store.put("a", 1)
        store.put("b", 2)
        assert store.get("a") == 1  # touch: "a" becomes most recent
        store.put("c", 3)           # evicts "b", the least recently used
        assert store.get("b") is None
        assert store.get("a") == 1 and store.get("c") == 3


# ---------------------------------------------------------------------------
# DiskStore
# ---------------------------------------------------------------------------
class TestDiskStore:
    def test_round_trip_and_layout(self, disk, tmp_path):
        key = "ab" + "0" * 62
        assert disk.put(key, _envelope("one"))
        loaded = disk.get(key)
        assert loaded.data == {"tag": "one"} and loaded.payload == ["one"]
        # Layout: <root>/<version>/<hh>/<hash>.pkl
        assert (tmp_path / "test" / "ab" / f"{key}.pkl").is_file()
        stats = disk.stats()
        assert stats["entries"] == 1 and stats["bytes"] > 0
        assert stats["hits"] == 1 and stats["misses"] == 0

    def test_missing_key_is_a_miss(self, disk):
        assert disk.get("f" * 64) is None
        assert disk.stats()["misses"] == 1

    def test_cross_instance_reuse(self, tmp_path):
        """Two store instances on one root see each other's entries --
        the in-process stand-in for two CLI processes sharing the cache."""
        key = "cd" + "1" * 62
        DiskStore(root=tmp_path, version="t").put(key, _envelope("shared"))
        other = DiskStore(root=tmp_path, version="t")
        assert other.get(key).data == {"tag": "shared"}

    def test_version_bump_invalidates(self, tmp_path):
        key = "ee" + "2" * 62
        DiskStore(root=tmp_path, version="v1").put(key, _envelope())
        assert DiskStore(root=tmp_path, version="v2").get(key) is None
        assert DiskStore(root=tmp_path, version="v1").get(key) is not None
        assert isinstance(CODE_VERSION, str) and CODE_VERSION

    def test_corrupted_pickle_is_a_miss_and_removed(self, disk, tmp_path):
        key = "aa" + "3" * 62
        disk.put(key, _envelope())
        path = tmp_path / "test" / "aa" / f"{key}.pkl"
        path.write_bytes(path.read_bytes()[:10])  # truncate mid-pickle
        assert disk.get(key) is None
        assert not path.exists()  # the damaged entry was dropped
        assert disk.stats()["misses"] == 1
        # A rewrite serves again.
        disk.put(key, _envelope("fresh"))
        assert disk.get(key).data == {"tag": "fresh"}

    def test_garbage_bytes_are_a_miss(self, disk, tmp_path):
        key = "bb" + "4" * 62
        target = tmp_path / "test" / "bb" / f"{key}.pkl"
        target.parent.mkdir(parents=True)
        target.write_bytes(b"not a pickle at all")
        assert disk.get(key) is None

    def test_eviction_drops_least_recently_used(self, tmp_path):
        store = DiskStore(root=tmp_path, version="t", max_entries=3)
        keys = [f"{i:02d}" + "5" * 62 for i in range(4)]
        for age, key in enumerate(keys[:3]):
            store.put(key, _envelope(key))
            # Pin distinct access times so LRU order is unambiguous.
            os.utime(store._path(key), ns=(age * 10 ** 9, age * 10 ** 9))
        store.put(keys[3], _envelope(keys[3]))  # over the limit: evict keys[0]
        assert store.get(keys[0]) is None
        for key in keys[1:]:
            assert store.get(key) is not None

    def test_get_touches_for_lru(self, tmp_path):
        store = DiskStore(root=tmp_path, version="t", max_entries=2)
        old, new = "aa" + "6" * 62, "bb" + "6" * 62
        store.put(old, _envelope("old"))
        store.put(new, _envelope("new"))
        os.utime(store._path(old), ns=(10 ** 9, 10 ** 9))
        os.utime(store._path(new), ns=(2 * 10 ** 9, 2 * 10 ** 9))
        assert store.get(old) is not None  # touch refreshes the mtime
        store.put("cc" + "6" * 62, _envelope())  # evicts `new`, not `old`
        assert store.get(new) is None and store.get(old) is not None

    def test_unpicklable_payload_falls_back_to_stripped_envelope(self, disk):
        key = "dd" + "7" * 62
        bad = Result(kind="exploit", subject="x", ok=True, cache="cold",
                     data={"fine": True}, payload=lambda: None)
        with pytest.raises(Exception):
            pickle.dumps(bad)
        assert disk.put(key, bad)
        loaded = disk.get(key)
        assert loaded.data == {"fine": True} and loaded.payload is None

    def test_hopeless_value_is_not_persisted(self, disk):
        assert not disk.put("ff" + "8" * 62, lambda: None)
        assert disk.stats()["entries"] == 0

    def test_clear(self, disk):
        for i in range(3):
            disk.put(f"{i:02d}" + "9" * 62, _envelope(str(i)))
        assert disk.clear() == 3
        assert disk.stats()["entries"] == 0

    def test_store_ref_round_trip(self, tmp_path):
        store = DiskStore(root=tmp_path, version="t", max_entries=7)
        rebuilt = store_from_ref(store_ref(store))
        assert rebuilt.root == store.root
        assert rebuilt.version == "t" and rebuilt.max_entries == 7
        assert store_ref(MemoryStore()) is None and store_from_ref(None) is None

    def test_disk_store_pickles(self, tmp_path):
        store = DiskStore(root=tmp_path, version="t", max_entries=5)
        clone = pickle.loads(pickle.dumps(store))
        assert clone.root == store.root and clone.version == "t"

    def test_env_var_overrides_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envroot"))
        assert DiskStore().root == tmp_path / "envroot"

    def test_open_store_selectors(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envroot"))
        assert open_store(None) is None
        assert isinstance(open_store("memory"), MemoryStore)
        assert isinstance(open_store("disk"), DiskStore)
        custom = open_store(str(tmp_path / "mine"))
        assert isinstance(custom, DiskStore) and custom.root == tmp_path / "mine"


# ---------------------------------------------------------------------------
# Engine integration: the spec-level persistent cache
# ---------------------------------------------------------------------------
class TestEngineStore:
    def test_fresh_session_serves_warm_from_disk(self, tmp_path):
        spec = ScenarioSpec("simulate", attack="spectre_v1")
        with Engine(store=DiskStore(root=tmp_path, version="t")) as cold_engine:
            cold = cold_engine.run(spec)
        with Engine(store=DiskStore(root=tmp_path, version="t")) as warm_engine:
            warm = warm_engine.run(spec)
            stats = warm_engine.stats()["store"]
        assert (cold.cache, warm.cache) == ("cold", "warm")
        assert warm.data == cold.data
        assert warm.to_dict()["data"] == cold.to_dict()["data"]  # byte-identical rows
        assert stats["hits"] == 1 and stats["misses"] == 0
        # The simulations artifact cache was never consulted on the warm side.
        assert warm_engine.stats()["simulations"]["misses"] == 0

    def test_mutating_a_warm_envelope_does_not_poison_the_store(self):
        from repro.store import MemoryStore

        spec = ScenarioSpec("simulate", attack="spectre_v1")
        with Engine(store=MemoryStore()) as engine:
            cold = engine.run(spec)
            cold.data["transmit_beats_squash"] = "POISONED"
            cold.data["defenses"].append("tampered")
            warm = engine.run(spec)
            assert warm.data["transmit_beats_squash"] is True
            assert warm.data["defenses"] == []
            # ... and mutating the warm copy leaves later hits pristine too.
            warm.data.clear()
            assert engine.run(spec).data["transmit_beats_squash"] is True

    def test_corrupted_entry_recomputes(self, tmp_path):
        spec = ScenarioSpec("simulate", attack="meltdown")
        store = DiskStore(root=tmp_path, version="t")
        with Engine(store=store) as engine:
            cold = engine.run(spec)
        store._path(spec.content_hash()).write_bytes(b"\x80corrupt")
        with Engine(store=DiskStore(root=tmp_path, version="t")) as engine:
            recomputed = engine.run(spec)
        assert recomputed.cache == "cold"
        assert recomputed.data == cold.data
        # The recompute rewrote a good entry.
        with Engine(store=DiskStore(root=tmp_path, version="t")) as engine:
            assert engine.run(spec).cache == "warm"

    def test_version_bump_recomputes(self, tmp_path):
        spec = ScenarioSpec("simulate", attack="spectre_v1")
        with Engine(store=DiskStore(root=tmp_path, version="v1")) as engine:
            engine.run(spec)
        with Engine(store=DiskStore(root=tmp_path, version="v2")) as engine:
            assert engine.run(spec).cache == "cold"

    def test_invalidate_store(self, tmp_path):
        spec = ScenarioSpec("simulate", attack="spectre_v1")
        with Engine(store=DiskStore(root=tmp_path, version="t")) as engine:
            engine.run(spec)
            assert engine.invalidate("store") >= 1
            assert engine.stats()["store"]["entries"] == 0
            # The in-memory simulations cache is a separate layer and still
            # serves the executor warm; drop it too for a full recompute.
            engine.invalidate("simulations")
            assert engine.run(spec).cache == "cold"

    def test_invalidate_everything_includes_the_store(self, tmp_path):
        spec = ScenarioSpec("simulate", attack="spectre_v1")
        with Engine(store=DiskStore(root=tmp_path, version="t")) as engine:
            engine.run(spec)
            assert engine.invalidate() >= 2  # simulations entry + store entry
            assert engine.stats()["store"]["entries"] == 0

    def test_composite_sweep_is_one_warm_hit(self, tmp_path):
        spec = ScenarioSpec("simulate_sweep", attacks=("spectre_v1", "meltdown"),
                            defenses=(None,))
        with Engine(store=DiskStore(root=tmp_path, version="t")) as engine:
            cold = engine.run(spec)
        with Engine(store=DiskStore(root=tmp_path, version="t")) as engine:
            warm = engine.run(spec)
            # One store get served the whole sweep: no timing run executed.
            assert engine.stats()["simulations"] == {
                "entries": 0, "hits": 0, "misses": 0
            }
        assert warm.cache == "warm" and warm.data == cold.data

    @pytest.mark.batch
    def test_sharded_grid_workers_share_the_disk_store(self, tmp_path):
        from repro.scenario import ScenarioGrid

        grid = ScenarioGrid(
            "simulate", axes={"attack": ["spectre_v1", "meltdown", "foreshadow"]}
        )
        with Engine(store=DiskStore(root=tmp_path, version="t")) as engine:
            first = engine.run_grid(grid, parallel=2)
        # Every point landed in the shared store (plus absorption by the
        # parent), so a fresh serial session is all warm hits.
        with Engine(store=DiskStore(root=tmp_path, version="t")) as engine:
            second = engine.run_grid(grid)
            assert engine.stats()["store"]["hits"] == 3
            assert engine.stats()["simulations"]["misses"] == 0
        assert first.data == second.data


# ---------------------------------------------------------------------------
# Acceptance: two *separate processes* share the persistent cache
# ---------------------------------------------------------------------------
class TestCrossProcess:
    def _run_cli(self, tmp_path, *argv: str) -> dict:
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        completed = subprocess.run(
            [sys.executable, "-m", "repro.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert completed.stdout, completed.stderr
        return json.loads(completed.stdout)

    def test_second_process_is_served_from_disk(self, tmp_path):
        store_dir = str(tmp_path / "cache")
        argv = ("run", "--kind", "simulate", "--param", "attack=spectre_v1",
                "--store", store_dir, "--json")
        first = self._run_cli(tmp_path, *argv)
        second = self._run_cli(tmp_path, *argv)
        assert first["cache"] == "cold"
        assert second["cache"] == "warm"
        assert second["data"] == first["data"]  # byte-identical rows
        assert DiskStore(root=store_dir).stats()["entries"] >= 1


# ---------------------------------------------------------------------------
# Crash-recovery properties: damaged entries heal, corruption never propagates
# ---------------------------------------------------------------------------
class TestCorruptionRecovery:
    """Hypothesis properties over the on-disk entry format.

    A killed writer (or a torn disk) can leave an entry truncated at *any*
    byte offset; the store must treat every such entry as a recomputable
    miss -- never return garbage, never wedge, and heal on the next put.
    """

    @given(frac=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_entry_truncated_at_any_offset_is_a_recoverable_miss(self, frac):
        key = "ab" + "7" * 62
        with tempfile.TemporaryDirectory() as root:
            store = DiskStore(root=root, version="t")
            assert store.put(key, _envelope("good"))
            path = Path(root) / "t" / key[:2] / f"{key}.pkl"
            blob = path.read_bytes()
            offset = min(len(blob) - 1, int(frac * len(blob)))
            path.write_bytes(blob[:offset])
            assert store.get(key) is None  # never the torn object
            assert not path.exists()  # the damaged entry was dropped
            # The next campaign recomputes and the store heals.
            assert store.put(key, _envelope("good"))
            healed = store.get(key)
            assert healed is not None and healed.data == {"tag": "good"}

    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=25, deadline=None)
    def test_injected_partial_write_never_propagates(self, seed):
        key = "cd" + "8" * 62
        with tempfile.TemporaryDirectory() as root:
            plan = FaultPlan(
                [FaultSpec(kind="partial_write", count=1)], seed=seed
            )
            faulty = FaultyDiskStore(root=root, plan=plan, version="t")
            assert faulty.put(key, _envelope("good"))  # sabotaged on disk
            reader = DiskStore(root=root, version="t")
            assert reader.get(key) is None  # detected, deleted, a plain miss
            assert reader.put(key, _envelope("good"))  # recompute + heal
            healed = reader.get(key)
            assert healed is not None and healed.data == {"tag": "good"}
            assert reader.get(key).data == {"tag": "good"}  # stable after heal


# ---------------------------------------------------------------------------
# Concurrent-eviction races: another process deleting under our feet
# ---------------------------------------------------------------------------
class TestConcurrentRaces:
    def test_get_survives_entry_touch_failure(self, disk, monkeypatch):
        key = "aa" + "4" * 62
        disk.put(key, _envelope("kept"))

        def flaky_utime(path, *args, **kwargs):
            raise OSError("entry evicted under the LRU touch")

        monkeypatch.setattr("repro.store.os.utime", flaky_utime)
        loaded = disk.get(key)  # the hit survives losing its LRU touch
        assert loaded is not None and loaded.data == {"tag": "kept"}

    def test_put_reports_failure_when_bucket_is_blocked(self, tmp_path):
        store = DiskStore(root=tmp_path, version="t")
        key = "ee" + "5" * 62
        (tmp_path / "t").mkdir()
        (tmp_path / "t" / key[:2]).write_text("not a directory")
        assert store.put(key, _envelope()) is False  # reported, not raised
        assert store.get(key) is None

    def test_put_retries_when_bucket_vanishes_mid_write(self, tmp_path, monkeypatch):
        store = DiskStore(root=tmp_path, version="t")
        key = "ff" + "6" * 62
        real_replace = os.replace
        raised = {"count": 0}

        def racing_replace(src, dst):
            if raised["count"] == 0:
                # A concurrent cleaner deleted the bucket between our
                # temp-file write and the atomic publish.
                raised["count"] += 1
                os.unlink(src)
                Path(dst).parent.rmdir()
                raise FileNotFoundError(dst)
            return real_replace(src, dst)

        monkeypatch.setattr("repro.store.os.replace", racing_replace)
        assert store.put(key, _envelope("raced")) is True  # second round wins
        assert raised["count"] == 1
        assert store.get(key).data == {"tag": "raced"}

    def test_eviction_walk_survives_entries_deleted_underneath(self, tmp_path):
        store = DiskStore(root=tmp_path, version="t", max_entries=2)
        keys = [f"{i:02x}" + "9" * 62 for i in range(4)]
        for key in keys[:3]:
            assert store.put(key, _envelope(key))
        # A concurrent evictor wipes the tree between two puts: the next
        # put's eviction walk sees dangling state and must not raise.
        for path in list(Path(tmp_path / "t").rglob("*.pkl")):
            path.unlink()
        assert store.put(keys[3], _envelope("last"))
        assert store.get(keys[3]).data == {"tag": "last"}

    def test_stats_and_clear_survive_a_vanishing_tree(self, tmp_path):
        store = DiskStore(root=tmp_path, version="t")
        key = "ab" + "a" * 62
        store.put(key, _envelope())
        shutil.rmtree(tmp_path / "t")
        stats = store.stats()  # walking a deleted tree is an empty store
        assert stats["entries"] == 0 and stats["bytes"] == 0
        assert store.clear() == 0
