"""E20 -- The analysis service under concurrent load: dedup + latency.

Asserts the acceptance properties of the service subsystem: with N
concurrent clients submitting an overlapping spec set, single-flight dedup
plus the shared DiskStore make the observed compute count equal the number
of *unique* specs (the dedup hit-rate clears the ``repro perf --check``
floor), no request is dropped, and the in-process single-flight path
computes an identical spec exactly once for any number of waiters.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.engine import Engine
from repro.perf import gate, measure_service_throughput
from repro.scenario import ScenarioSpec
from repro.service.server import AnalysisService, ServiceConfig
from repro.store import MemoryStore


@pytest.mark.experiment("E20")
def test_concurrent_load_deduplicates_to_unique_specs(benchmark):
    """The acceptance bar: computed == unique, hit-rate over the floor."""
    record = benchmark(
        lambda: measure_service_throughput(clients=4, per_client=6, overlap=0.5)
    )
    print(
        f"\nservice load ({record['clients']} clients, "
        f"{record['requests']} requests, {record['unique_specs']} unique): "
        f"{record['computed']} computed, hit-rate {record['dedup_hit_rate']:.1%}, "
        f"{record['requests_per_second']:.0f} req/s, "
        f"p50 {record['p50_ms']:.1f} ms / p99 {record['p99_ms']:.1f} ms"
    )
    assert gate("service-throughput", "perfect_dedup").holds(record["perfect_dedup"])
    assert record["completed"] == record["requests"]
    assert gate("service-throughput", "dedup_hit_rate").holds(record["dedup_hit_rate"])


@pytest.mark.experiment("E20")
def test_single_flight_computes_once_for_any_fanout(benchmark):
    """Twelve waiters on one spec: one compute, twelve identical envelopes."""

    async def fanout():
        engine = Engine(store=MemoryStore())
        service = AnalysisService(engine, ServiceConfig())
        await service.start(listen=False)
        spec = ScenarioSpec("exploit", exploit="spectre_v1", secret=0x5A)
        envelopes = await asyncio.gather(
            *(service.request(spec) for _ in range(12))
        )
        await service.drain()
        return engine.stats()["runs"], envelopes

    runs, envelopes = benchmark(lambda: asyncio.run(fanout()))
    assert runs.get("exploit") == 1
    assert len({str(sorted(e["result"]["data"].items())) for e in envelopes}) == 1
