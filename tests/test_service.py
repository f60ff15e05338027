"""The analysis service: single-flight dedup, backpressure, HTTP, drain.

In-process tests drive :class:`AnalysisService` directly on an event loop
(deterministic interleavings, no sockets); the ``service``-marked tests run
the real HTTP face through :class:`ServiceThread` + :class:`ServiceClient`,
and the acceptance test runs ``repro serve`` as a subprocess, SIGTERMs it
mid-load and verifies the restarted server warm-serves from the DiskStore.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.engine import Engine
from repro.scenario import ScenarioSpec
from repro.service import (
    AnalysisService,
    Overloaded,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceThread,
)
from repro.service.protocol import ExecutionFailed
from repro.store import DiskStore, MemoryStore, store_label


def _spec(secret: int = 0x41) -> ScenarioSpec:
    return ScenarioSpec("exploit", exploit="spectre_v1", secret=secret)


def _cli_env() -> dict:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


# ---------------------------------------------------------------------------
# Single-flight dedup (in-process, deterministic)
# ---------------------------------------------------------------------------
class TestSingleFlight:
    def test_concurrent_identical_specs_compute_once(self):
        """N waiters on one spec: one engine run, N identical envelopes."""
        fanout = 8

        async def body():
            engine = Engine(store=MemoryStore())
            service = AnalysisService(engine, ServiceConfig(batch_window=0.01))
            await service.start(listen=False)
            envelopes = await asyncio.gather(
                *(service.request(_spec()) for _ in range(fanout))
            )
            await service.drain()
            return engine.stats()["runs"], service.stats_view.hits, envelopes

        runs, hits, envelopes = asyncio.run(body())
        assert runs.get("exploit") == 1
        assert hits["computed"] == 1
        assert hits["in-flight"] == fanout - 1
        assert len(envelopes) == fanout
        datas = {json.dumps(e["result"]["data"], sort_keys=True) for e in envelopes}
        assert len(datas) == 1
        hashes = {e["spec"]["content_hash"] for e in envelopes}
        assert len(hashes) == 1
        ids = {e["request_id"] for e in envelopes}
        assert len(ids) == fanout  # same result, distinct request ids

    def test_distinct_specs_each_compute(self):
        async def body():
            engine = Engine(store=MemoryStore())
            service = AnalysisService(engine, ServiceConfig(batch_window=0.01))
            await service.start(listen=False)
            envelopes = await asyncio.gather(
                *(service.request(_spec(secret)) for secret in (1, 2, 3))
            )
            await service.drain()
            return engine.stats()["runs"], envelopes

        runs, envelopes = asyncio.run(body())
        assert runs.get("exploit") == 3
        assert all(e["hit"] == "computed" for e in envelopes)
        # Three specs of one kind coalesced into one micro-batched grid.
        assert runs.get("grid", 0) >= 1

    def test_cancelling_one_waiter_keeps_shared_computation_alive(self):
        """A cancelled client abandons its waiter, not the computation."""

        async def body():
            engine = Engine(store=MemoryStore())
            service = AnalysisService(engine, ServiceConfig(batch_window=0.02))
            await service.start(listen=False)
            tasks = [
                asyncio.get_running_loop().create_task(service.request(_spec()))
                for _ in range(4)
            ]
            await asyncio.sleep(0)  # every admission lands before dispatch
            tasks[0].cancel()
            outcomes = await asyncio.gather(*tasks, return_exceptions=True)
            await service.drain()
            return engine.stats()["runs"], outcomes

        runs, outcomes = asyncio.run(body())
        assert isinstance(outcomes[0], asyncio.CancelledError)
        survivors = outcomes[1:]
        assert all(isinstance(out, dict) for out in survivors)
        assert all(out["ok"] for out in survivors)
        assert runs.get("exploit") == 1  # the shared compute still ran once

    def test_repeat_of_completed_spec_is_a_store_hit(self):
        async def body():
            engine = Engine(store=MemoryStore())
            service = AnalysisService(engine, ServiceConfig(batch_window=0.0))
            await service.start(listen=False)
            first = await service.request(_spec())
            second = await service.request(_spec())
            await service.drain()
            return engine.stats()["runs"], first, second

        runs, first, second = asyncio.run(body())
        assert first["hit"] == "computed"
        assert second["hit"] == "memory"  # warm from the MemoryStore
        assert runs.get("exploit") == 1
        assert second["result"]["data"] == first["result"]["data"]


# ---------------------------------------------------------------------------
# Backpressure and drain admission
# ---------------------------------------------------------------------------
class TestAdmission:
    def test_full_queue_rejects_new_specs_but_attach_is_free(self):
        """503 + Retry-After for new work; attaching never rejected."""

        async def body():
            engine = Engine(store=MemoryStore())
            # No start(): the dispatcher never drains, the queue is stable.
            service = AnalysisService(
                engine, ServiceConfig(queue_depth=2, retry_after=1.0)
            )
            service._admit(_spec(1))
            service._admit(_spec(2))
            with pytest.raises(Overloaded) as rejected:
                service._admit(_spec(3))
            waiter, attached = service._admit(_spec(1))  # duplicate of queued
            service._engine_pool.shutdown(wait=False)
            return rejected.value, attached, service.stats_view

        rejection, attached, stats_view = asyncio.run(body())
        assert rejection.status == 503
        assert rejection.code == "overloaded"
        assert rejection.retry_after == 1.0
        assert rejection.headers() == {"Retry-After": "1"}
        assert attached is True
        assert stats_view.rejected == 1
        assert stats_view.hits["in-flight"] == 1

    def test_draining_rejects_new_specs_with_stable_code(self):
        async def body():
            engine = Engine(store=MemoryStore())
            service = AnalysisService(engine, ServiceConfig())
            service._admit(_spec(1))
            service._draining = True
            with pytest.raises(Overloaded) as rejected:
                service._admit(_spec(2))
            # Mid-drain attach to in-flight work is still allowed.
            _, attached = service._admit(_spec(1))
            service._engine_pool.shutdown(wait=False)
            return rejected.value, attached

        rejection, attached = asyncio.run(body())
        assert rejection.code == "draining"
        assert attached is True

    def test_executor_failure_fails_every_waiter_structurally(self):
        """A raising engine surfaces as ExecutionFailed, never a hang."""

        async def body():
            engine = Engine(store=MemoryStore())
            service = AnalysisService(engine, ServiceConfig(batch_window=0.01))
            await service.start(listen=False)

            def boom(grid, parallel=None):
                raise RuntimeError("engine exploded")

            engine.iter_grid = boom
            failures = await asyncio.gather(
                *(service.request(_spec()) for _ in range(3)),
                return_exceptions=True,
            )
            await service.drain()
            return failures, service.stats_view.errors

        failures, errors = asyncio.run(body())
        assert all(isinstance(f, ExecutionFailed) for f in failures)
        assert all("engine exploded" in str(f) for f in failures)
        assert all(f.status == 500 for f in failures)
        assert errors == 1  # one shared entry failed, three waiters notified


# ---------------------------------------------------------------------------
# Observability plumbing (Engine hooks + store counters)
# ---------------------------------------------------------------------------
class TestObservability:
    def test_engine_stats_gains_service_section(self):
        engine = Engine(store=MemoryStore())
        AnalysisService(engine, ServiceConfig())
        report = engine.stats()
        assert report["service"]["requests"] == 0
        assert "completed" in report["service"]

    def test_register_stats_rejects_reserved_names(self):
        engine = Engine(store=MemoryStore())
        with pytest.raises(ValueError):
            engine.register_stats("runs", lambda: {})
        engine.register_stats("custom", lambda: {"value": 7})
        assert engine.stats()["custom"] == {"value": 7}
        engine.unregister_stats("custom")
        assert "custom" not in engine.stats()

    def test_stats_snapshot_and_delta(self):
        engine = Engine(store=MemoryStore())
        before = engine.stats_snapshot()
        engine.run(_spec())
        delta = Engine.stats_delta(before, engine.stats_snapshot())
        assert delta["runs"].get("exploit") == 1
        # A second delta over no work is all zeros for the runs table.
        flat = Engine.stats_delta(engine.stats_snapshot(), engine.stats_snapshot())
        assert all(value == 0 for value in flat["runs"].values())

    def test_store_put_counters(self, tmp_path):
        store = DiskStore(root=str(tmp_path), version="counters")
        assert store.put("good", {"ok": True}) is True
        assert store.put("bad", lambda: None) is False  # unpicklable
        stats = store.stats()
        assert stats["puts"] == 1
        assert stats["put_failures"] == 1

    def test_store_label(self, tmp_path):
        assert store_label(MemoryStore()) == "memory"
        assert store_label(DiskStore(root=str(tmp_path), version="l")) == "disk"
        assert store_label(None) == "none"


# ---------------------------------------------------------------------------
# The HTTP face (real sockets, background server thread)
# ---------------------------------------------------------------------------
@pytest.mark.service
class TestHttpService:
    def test_round_trip_computed_then_disk(self, tmp_path):
        engine = Engine(store=DiskStore(root=str(tmp_path), version="svc"))
        payload = {
            "kind": "exploit",
            "params": {"exploit": "spectre_v1", "secret": 0x41},
        }
        with ServiceThread(engine=engine, config=ServiceConfig()) as handle:
            client = ServiceClient(handle.url)
            assert client.healthy()
            first = client.run(payload)
            second = client.run(payload)
            stats = client.stats()
        engine.close()

        assert first["ok"] is True
        assert first["hit"] == "computed"
        assert second["hit"] == "disk"
        assert second["result"]["data"] == first["result"]["data"]
        assert second["spec"]["content_hash"] == first["spec"]["content_hash"]
        for envelope in (first, second):
            latency = envelope["latency_ms"]
            assert set(latency) == {"queue", "compute", "total"}
            assert all(value >= 0 for value in latency.values())

        service = stats["service"]
        assert service["requests"] == 2
        assert service["hits"]["computed"] == 1
        assert service["hits"]["disk"] == 1
        assert service["hit_rate"] == pytest.approx(0.5)
        assert service["latency_ms"]["samples"] == 2
        assert service["latency_ms"]["p99"] >= service["latency_ms"]["p50"]
        assert stats["engine"]["service"]["requests"] == 2
        assert stats["window"]["runs"].get("exploit") == 1

    def test_artifact_cache_hit_is_not_a_store_hit(self, tmp_path):
        """ridl and zombieload share the mds timing run: the second request
        is an engine artifact-cache hit, not a store hit."""
        store = DiskStore(root=str(tmp_path), version="svc")
        engine = Engine(store=store)
        with ServiceThread(engine=engine, config=ServiceConfig()) as handle:
            client = ServiceClient(handle.url)
            for attack in ("ridl", "zombieload"):
                envelope = client.run({"kind": "simulate", "params": {"attack": attack}})
                assert envelope["hit"] == "computed"
            hits = client.stats()["service"]["hits"]
        engine.close()
        assert hits["computed"] == 2
        assert hits["disk"] == 0
        assert store.stats()["hits"] == 0

    def test_concurrent_http_clients_share_one_compute(self, tmp_path):
        engine = Engine(store=DiskStore(root=str(tmp_path), version="svc"))
        payload = {
            "kind": "exploit",
            "params": {"exploit": "spectre_v1", "secret": 0x77},
        }
        clients = 6
        envelopes = [None] * clients
        with ServiceThread(engine=engine, config=ServiceConfig()) as handle:
            barrier = threading.Barrier(clients)

            def body(index):
                barrier.wait()
                envelopes[index] = ServiceClient(handle.url).run(payload)

            threads = [
                threading.Thread(target=body, args=(i,)) for i in range(clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        runs = engine.stats()["runs"]
        engine.close()

        assert runs.get("exploit") == 1  # the acceptance dedup observable
        assert all(envelope is not None for envelope in envelopes)
        assert all(envelope["ok"] for envelope in envelopes)
        datas = {
            json.dumps(envelope["result"]["data"], sort_keys=True)
            for envelope in envelopes
        }
        assert len(datas) == 1

    def test_healthz_and_unknown_routes(self):
        engine = Engine(store=MemoryStore())
        with ServiceThread(engine=engine, config=ServiceConfig()) as handle:
            client = ServiceClient(handle.url)
            health = client.get("/healthz")
            assert health["ok"] is True
            assert health["draining"] is False
            with pytest.raises(ServiceError) as missing:
                client.get("/nope")
            with pytest.raises(ServiceError) as wrong_method:
                client.post_bytes("/stats", b"{}")
        engine.close()
        assert missing.value.status == 404
        assert missing.value.code == "not-found"
        assert wrong_method.value.status == 405
        assert wrong_method.value.code == "method-not-allowed"


# ---------------------------------------------------------------------------
# Kill-and-restart acceptance: SIGTERM drains, restart serves from disk
# ---------------------------------------------------------------------------
@pytest.mark.service
class TestServeSubprocess:
    @staticmethod
    def _spawn(store_dir: str, port: int) -> subprocess.Popen:
        return subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--store",
                store_dir,
                "--host",
                "127.0.0.1",
                "--port",
                str(port),
            ],
            env=_cli_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )

    @staticmethod
    def _wait_listening(proc: subprocess.Popen) -> str:
        line = proc.stdout.readline()
        assert "listening on" in line, f"unexpected banner: {line!r}"
        return line.split()[-1]

    def test_sigterm_mid_load_drains_then_restart_serves_from_disk(
        self, tmp_path, ephemeral_port
    ):
        store_dir = str(tmp_path / "store")
        workload = [
            {
                "kind": "exploit",
                "params": {"exploit": "spectre_v1", "secret": 0x30 + index},
            }
            for index in range(4)
        ]

        proc = self._spawn(store_dir, ephemeral_port)
        try:
            url = self._wait_listening(proc)
            client = ServiceClient(url, timeout=60)
            client.wait_ready()

            outcomes = [None] * len(workload)

            def body(index):
                try:
                    outcomes[index] = client.run_with_retry(workload[index])
                except (ServiceError, OSError) as exc:
                    outcomes[index] = exc

            threads = [
                threading.Thread(target=body, args=(i,))
                for i in range(len(workload))
            ]
            for thread in threads:
                thread.start()
            # SIGTERM lands while requests are in flight: the drain must
            # complete admitted work, refuse the rest, and exit cleanly.
            while not any(isinstance(out, dict) for out in outcomes):
                time.sleep(0.01)
            proc.send_signal(signal.SIGTERM)
            for thread in threads:
                thread.join(timeout=60)
            stdout, stderr = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()

        assert proc.returncode == 0, f"serve exited {proc.returncode}: {stderr}"
        assert "draining" in stderr
        assert "drained" in stderr
        completed = [out for out in outcomes if isinstance(out, dict)]
        assert completed, "no request completed before the SIGTERM"
        for envelope in completed:
            assert envelope["ok"] is True
        # Nothing hung: every client either completed or was refused.
        assert all(out is not None for out in outcomes)

        # The restarted server must serve completed specs warm from disk --
        # the store checkpointed every point before its waiter saw it.
        proc = self._spawn(store_dir, ephemeral_port)
        try:
            url = self._wait_listening(proc)
            client = ServiceClient(url, timeout=60)
            client.wait_ready()
            for envelope in completed:
                index = next(
                    i
                    for i, out in enumerate(outcomes)
                    if out is envelope
                )
                replay = client.run(workload[index])
                assert replay["hit"] == "disk", replay
                assert replay["result"]["data"] == envelope["result"]["data"]
            runs = client.stats()["engine"]["runs"]
            assert runs.get("exploit", 0) == 0  # zero recompute after restart
            proc.send_signal(signal.SIGTERM)
            stdout, stderr = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, f"restarted serve exited: {stderr}"
