"""Per-layer accounting for the traced benchmark run.

:class:`LayerProbe` wraps the public functions at each layer boundary where
their callers look them up, and times and counts every call.  A layer's
self time is the wrapper's elapsed time minus the wrapped calls nested
inside it, so the self times of one thread add up to at most its wall
time.  Accumulators are per thread (the service workload runs the engine,
the event loop and two clients on different threads) and merged when read.

Forked pool workers cannot hand wrapper totals back, so the grid workload
also attaches the engine's own :class:`~repro.obs.trace.Tracer`: the
``worker.point``, ``engine.run`` and ``store.put`` spans the workers record
come back with their results and are read here.  Store gets made inside
the workers (one miss probe per point) are therefore not counted, and the
workers' span seconds add up over both workers, so a layer's share of the
parent's wall time can pass 100%.
"""

from __future__ import annotations

import functools
import os
import statistics
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from repro import engine as engine_module
from repro.channels.collision import CacheCollisionChannel
from repro.channels.contention import ContentionChannel
from repro.channels.evict_time import EvictTimeChannel
from repro.channels.flush_reload import FlushReloadChannel
from repro.channels.prime_probe import PrimeProbeChannel
from repro.core.attack_graph import AttackGraph
from repro.core.tsg import TopologicalSortGraph
from repro.defenses import evaluation
from repro.fuzz import campaign as fuzz_campaign
from repro.fuzz import generator as fuzz_generator
from repro.graphtool.builder import AttackGraphBuilder
from repro.isa import assembler
from repro.scenario import ScenarioSpec
from repro.store import DiskStore
from repro.uarch.cache import SetAssociativeCache
from repro.uarch.timing import core as timing_core
from repro.uarch.timing.core import TimingCPU
from repro.uarch.timing.scheduler import EventScheduler

Counter = Callable[[Dict[str, float], tuple, object], None]


def _count(name: str) -> Counter:
    def counter(counts, args, result):
        counts[name] += 1
    return counter


def _count_schedule(counts, args, result):
    counts["uarch.timing.ops"] += len(args[1])
    counts["uarch.timing.sim_cycles"] += result.cycles


def _count_run(counts, args, result):
    counts["uarch.pipeline.sim_instructions"] += result.instructions


def _count_findings(counts, args, result):
    counts["graphtool.findings"] += len(result.findings)


def _count_get(counts, args, result):
    counts["store.gets"] += 1
    counts["store.get_hits"] += result is not None


#: (owner, attribute, self-time metric, counter) for every wrapped call.
#: Module-level functions are wrapped in the module their caller imports
#: them from at call time (``analyze_build`` is bound into ``repro.engine``,
#: ``build_trace`` into ``repro.uarch.timing.core``, ``make_case`` and
#: ``dual_verdict`` into both ``repro.fuzz`` modules that call them).
WRAPPED: Tuple[Tuple[object, str, str, Optional[Counter]], ...] = (
    *(
        (channel, method, f"channels.{method}_s", None)
        for channel in (
            FlushReloadChannel, PrimeProbeChannel, ContentionChannel,
            EvictTimeChannel, CacheCollisionChannel,
        )
        for method in ("prepare", "receive")
        if method in vars(channel)
    ),
    (TimingCPU, "run", "uarch.pipeline.run_s", _count_run),
    (EventScheduler, "schedule", "uarch.timing.schedule_s", _count_schedule),
    (timing_core, "build_trace", "uarch.timing.trace_s", None),
    (fuzz_generator, "make_case", "fuzz.generate_s", None),
    (fuzz_campaign, "make_case", "fuzz.generate_s", None),
    (fuzz_generator, "dual_verdict", "fuzz.verdict_s", None),
    (fuzz_campaign, "dual_verdict", "fuzz.verdict_s", None),
    (assembler, "assemble", "isa.assemble_s", _count("isa.assembles")),
    (AttackGraphBuilder, "build", "graphtool.build_s", _count("graphtool.builds")),
    (engine_module, "analyze_build", "graphtool.analyze_s", _count_findings),
    (TopologicalSortGraph, "all_racing_pairs", "core.races_s", None),
    (TopologicalSortGraph, "racing_partners", "core.races_s", None),
    (AttackGraph, "find_vulnerabilities", "core.vulns_s", None),
    (evaluation, "attack_succeeds", "core.verdict_s", None),
    (DiskStore, "put", "store.put_s", _count("store.puts")),
    (DiskStore, "get", "store.get_s", _count_get),
    (ScenarioSpec, "content_hash", "scenario.hash_s", _count("scenario.hashes")),
)


class _ThreadTotals:
    __slots__ = ("seconds", "counts", "nested", "run_inclusive")

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        #: One slot per open wrapped call: time spent in calls nested in it.
        self.nested: List[float] = []
        #: Inclusive seconds inside ``TimingCPU.run``.
        self.run_inclusive = 0.0


class LayerProbe:
    """Installs the layer wrappers and merges what they measured."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: List[_ThreadTotals] = []
        self._lock = threading.Lock()
        self._originals: List[Tuple[object, str, object]] = []
        self._cache_stats: List[object] = []

    def _totals(self) -> _ThreadTotals:
        totals = getattr(self._local, "totals", None)
        if totals is None:
            totals = self._local.totals = _ThreadTotals()
            with self._lock:
                self._threads.append(totals)
        return totals

    def _wrap(self, fn, metric: str, counter: Optional[Counter]):
        probe = self
        inclusive = metric == "uarch.pipeline.run_s"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            totals = probe._totals()
            totals.nested.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                totals.seconds[metric] += elapsed - totals.nested.pop()
                if totals.nested:
                    totals.nested[-1] += elapsed
                if inclusive:
                    totals.run_inclusive += elapsed
            if counter is not None:
                counter(totals.counts, args, result)
            return result

        return wrapper

    def install(self) -> None:
        for owner, attribute, metric, counter in WRAPPED:
            original = vars(owner)[attribute]
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, metric, counter))
        # Cache counts come from each cache's own ledger: wrapping the
        # per-line access path would cost more than the work it measures.
        original_init = vars(SetAssociativeCache)["__init__"]
        self._originals.append((SetAssociativeCache, "__init__", original_init))
        stats = self._cache_stats

        @functools.wraps(original_init)
        def init(cache, *args, **kwargs):
            original_init(cache, *args, **kwargs)
            stats.append(cache.stats)

        SetAssociativeCache.__init__ = init

    def uninstall(self) -> None:
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)

    def snapshot(self) -> Dict[str, float]:
        """Merged self times, counts and cache totals measured so far."""
        merged: Dict[str, float] = defaultdict(float)
        run_inclusive = 0.0
        with self._lock:
            threads = list(self._threads)
        for totals in threads:
            for name, value in list(totals.seconds.items()):
                merged[name] += value
            for name, value in list(totals.counts.items()):
                merged[name] += value
            run_inclusive += totals.run_inclusive
        for stats in list(self._cache_stats):
            merged["uarch.cache.hits"] += stats.hits
            merged["uarch.cache.misses"] += stats.misses
            merged["uarch.cache.flushes"] += stats.flushes
        merged["uarch.cache.accesses"] = (
            merged["uarch.cache.hits"] + merged["uarch.cache.misses"]
        )
        merged["uarch.pipeline.run_inclusive_s"] = run_inclusive
        return merged


#: The simulated statistics a simulator-only speed-up must leave unchanged.
FINGERPRINT_COUNTS = (
    "uarch.timing.sim_cycles",
    "uarch.timing.ops",
    "uarch.pipeline.sim_instructions",
    "uarch.cache.accesses",
    "uarch.cache.hits",
    "uarch.cache.misses",
    "uarch.cache.flushes",
)


def worker_spans(records: List[Dict[str, object]]) -> Dict[str, float]:
    """Seconds and counts of the spans recorded inside pool workers."""
    parent = os.getpid()
    totals: Dict[str, float] = defaultdict(float)
    for record in records:
        if record.get("pid") == parent:
            continue
        name = record["name"]
        totals[f"{name}.s"] += (record.get("dur_ms") or 0.0) / 1e3
        totals[f"{name}.n"] += 1
    return totals


def layer_metrics(
    measured: Dict[str, float],
    spans: Dict[str, float],
    workload,
    overhead: float,
) -> Dict[str, float]:
    """Every per-layer metric of one traced run, by name.

    ``measured`` is the probe's snapshot over the traced phase, ``spans``
    the worker-side tracer totals and ``overhead`` the traced over untraced
    wall ratio minus one.
    """
    m = defaultdict(float, measured)
    run_inclusive = m["uarch.pipeline.run_inclusive_s"]
    gets = m["store.gets"]
    metrics = {
        name: m[name]
        for name in (
            "channels.prepare_s", "channels.receive_s",
            "uarch.cache.accesses", "uarch.cache.hits",
            "uarch.cache.misses", "uarch.cache.flushes",
            "uarch.pipeline.run_s", "uarch.pipeline.sim_instructions",
            "uarch.timing.schedule_s", "uarch.timing.trace_s",
            "uarch.timing.ops", "uarch.timing.sim_cycles",
            "fuzz.generate_s", "fuzz.verdict_s",
            "isa.assemble_s", "isa.assembles",
            "graphtool.build_s", "graphtool.builds",
            "graphtool.analyze_s", "graphtool.findings",
            "core.races_s", "core.vulns_s", "core.verdict_s",
            "store.get_s", "store.gets",
            "scenario.hash_s", "scenario.hashes",
        )
    }
    metrics["uarch.pipeline.sim_instr_per_s"] = (
        m["uarch.pipeline.sim_instructions"] / run_inclusive if run_inclusive else 0.0
    )
    metrics["store.put_s"] = m["store.put_s"] + spans.get("store.put.s", 0.0)
    metrics["store.puts"] = m["store.puts"] + spans.get("store.put.n", 0.0)
    metrics["store.bytes"] = float(getattr(workload, "store_bytes", 0))
    metrics["store.hit_ratio"] = m["store.get_hits"] / gets if gets else 0.0

    busy = spans.get("worker.point.s", 0.0)
    grid = getattr(workload, "stats", {})
    metrics["engine.pool_spawn_s"] = getattr(workload, "pool_spawn_s", 0.0)
    metrics["engine.worker_busy_s"] = busy
    metrics["engine.worker_compute_s"] = (
        spans.get("engine.run.s", 0.0) - spans.get("store.put.s", 0.0)
    )
    metrics["engine.plane_idle_s"] = (
        getattr(workload, "pool_capacity_s", 0.0) - busy if busy else 0.0
    )
    metrics["engine.tasks"] = spans.get("worker.point.n", 0.0)
    metrics["engine.retries"] = grid.get("retried", 0)
    metrics["engine.timeouts"] = grid.get("timeouts", 0)
    metrics["engine.pool_respawns"] = grid.get("pool_respawns", 0)
    metrics["engine.quarantined"] = grid.get("quarantined", 0)
    metrics["engine.cache_hit_ratio"] = getattr(workload, "cache_hit_ratio", 0.0)

    envelopes = getattr(workload, "envelopes", [])
    service = getattr(workload, "service_stats", {})
    hits = service.get("hits", {})

    def median(values):
        return statistics.median(values) if values else 0.0

    metrics["service.queue_ms"] = median([e[0] for e in envelopes])
    metrics["service.compute_ms"] = median([e[1] for e in envelopes])
    metrics["service.protocol_ms"] = median([e[3] - e[2] for e in envelopes])
    metrics["service.batch_points"] = service.get("batched_points", 0)
    metrics["service.hits_inflight"] = hits.get("in-flight", 0)
    metrics["service.hits_disk"] = hits.get("disk", 0)
    metrics["service.computed"] = hits.get("computed", 0)
    metrics["service.rejected"] = service.get("rejected", 0)
    metrics["obs.trace_overhead"] = overhead
    return {name: float(value) for name, value in metrics.items()}


#: The layers of the printed table, in call-stack order.
LAYERS = (
    "channels", "uarch.cache", "uarch.pipeline", "uarch.timing", "fuzz", "isa",
    "graphtool", "core", "store", "engine", "scenario", "service", "obs",
)

#: Metrics that are self times of wrapped calls in this process; every other
#: per-layer metric is listed beside them (the engine's worker figures are
#: busy time in other processes, not self time here).
SELF_TIMES = frozenset(metric for _, _, metric, _ in WRAPPED)


def layer_table(metrics: Dict[str, float], wall: float) -> List[str]:
    """Rows of layer, self seconds, share of the traced wall, and the rest."""
    lines = [f"{'layer':<15} {'self_s':>9} {'share':>7}  other metrics"]
    for layer in LAYERS:
        names = [name for name in metrics if name.rsplit(".", 1)[0] == layer]
        self_s = sum(metrics[name] for name in names if name in SELF_TIMES)
        others = ", ".join(
            f"{name.rsplit('.', 1)[1]}={metrics[name]:.6g}"
            for name in names
            if name not in SELF_TIMES
        )
        share = self_s / wall if wall else 0.0
        lines.append(f"{layer:<15} {self_s:>9.4f} {share:>7.1%}  {others}")
    return lines
