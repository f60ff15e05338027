"""The unified ``Engine`` session API: one declarative run-plan spine.

Every analysis in the library -- the Figure 9 program tool, the defense x
attack matrix, the Section V-A attack-space synthesis, the end-to-end
exploit harness and the cycle-accurate timing plane -- is one *scenario*:
a point (or grid of points) in the attack x defense x timing-model x
channel x secret space.  The engine executes scenarios through a single
spine:

* :meth:`Engine.run` takes a :class:`~repro.scenario.ScenarioSpec` (kind
  ``analyze`` / ``evaluate`` / ``exploit`` / ``simulate`` / ``patch`` /
  ``matrix`` / ``synthesize`` / ``exploit_suite`` / ``simulate_sweep`` /
  ``validate_timing`` / ``window_ablation`` / ``ablation``) and returns one
  :class:`Result` envelope.  Before executing, the spec's content hash is
  looked up in the session's :class:`~repro.store.ArtifactStore` (pass
  ``store=DiskStore()`` for a cache that survives the process -- the second
  CLI/CI invocation of an identical spec is served from
  ``~/.cache/repro/``); after executing, the envelope is persisted back.
* :meth:`Engine.run_grid` takes a :class:`~repro.scenario.ScenarioGrid`
  (cartesian axes over a base spec, or an explicit point list), serves warm
  points from the store, runs the misses on the execution plane, and
  aggregates one envelope.  A new sweep axis is one ``axes`` entry -- not
  one new Engine method.  The composite kinds that sweep point kinds
  (``matrix``, ``simulate_sweep``, ``simulate_batch``, ``window_ablation``,
  ``ablation``) are explicit grids of those points.

Beneath the spec layer the session keeps its **content-addressed artifact
caches** (:meth:`build` / :meth:`analyze` keyed on
:meth:`Program.content_hash() <repro.isa.program.Program.content_hash>`,
``(defense, variant)``-keyed evaluations, ``(source, delay, channel)``-keyed
synthesized graphs, ``(attack, config, secret, model)``-keyed timing
simulations), all bounded (``cache_limit``), observable (:meth:`stats`) and
droppable (:meth:`invalidate`), and its **execution plane**:
:meth:`Engine.iter_grid` is the one scheduler of spec work.  It runs misses
in process, or as chunk tasks on a session-owned process pool whose
initializer gives every worker process one warm engine, optionally under a
:class:`FailurePolicy`; parallel output is byte-identical to serial output.
:meth:`Engine.map` is the generic helper on the same pool.

The named methods (:meth:`analyze`, :meth:`evaluate_matrix`,
:meth:`simulate_sweep`, :meth:`ablate_window`, ...) survive as thin shims
that build the equivalent spec and call :meth:`run` -- prefer specs in new
code.  The legacy free functions (:func:`repro.graphtool.analyze_program`,
:func:`repro.defenses.evaluate_defense`, ...) delegate to the module-wide
:func:`default_engine`.
"""

from __future__ import annotations

import copy
import json
import pickle
import random
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures import TimeoutError as FutureTimeoutError
from pickle import PicklingError
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Callable,
    Deque,
    Dict,
    Generator,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
    Union,
)

from .attacks.base import (
    AttackVariant,
    CovertChannelKind,
    DelayMechanism,
    SecretSource,
)
from .attacks.generator import (
    SynthesizedAttack,
    enumerate_attack_space,
    published_keys,
    refresh_published_cache,
)
from .core.attack_graph import AttackGraph
from .core.security_dependency import ProtectionPoint
from .defenses.base import Defense
from .graphtool.analyzer import AnalysisReport, analyze_build
from .graphtool.builder import AttackGraphBuilder, BuildResult
from .graphtool.expansion import expansion_for
from .isa.program import Program
from .scenario import (
    ScenarioGrid,
    ScenarioSpec,
    decode_attack_variant,
    decode_axis_enums,
    decode_config,
    decode_defense,
    decode_model,
    decode_points,
    decode_program,
    decode_secret,
    decode_sim_defense,
    decode_sim_defenses,
)
from .obs.metrics import MetricsRegistry
from .obs.trace import TraceContext, Tracer
from .store import ArtifactStore, store_from_ref, store_ref
from .uarch.timing.scheduler import CONTENDED_MODEL, SERIALIZED_MODEL

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .faults import FaultPlan

T = TypeVar("T")
R = TypeVar("R")


# ---------------------------------------------------------------------------
# Result envelope
# ---------------------------------------------------------------------------
@dataclass
class Result:
    """Uniform JSON-serializable envelope around one analysis outcome.

    ``kind`` is one of ``analyze`` / ``evaluate`` / ``synthesize`` /
    ``exploit`` / ``simulate`` / ``patch`` / ``ablation`` /
    ``window_ablation`` (grids add ``<kind>_grid``); ``ok`` is the
    headline boolean of that kind (program safe, defense effective, sweep
    complete, secret recovered, squash beat the transmit); ``cache`` records
    whether the result came from a cold build, a warm cache hit, or a
    non-cached computation; ``data`` is plain JSON-serializable content and
    ``payload`` the rich library object (``AnalysisReport``,
    ``DefenseEvaluation`` list, ...) for programmatic callers.
    """

    kind: str
    subject: str
    ok: bool
    cache: str
    data: Dict[str, object]
    payload: object = field(default=None, repr=False, compare=False)

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "subject": self.subject,
            "ok": self.ok,
            "cache": self.cache,
            "data": self.data,
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True, default=str)


# ---------------------------------------------------------------------------
# Fault-tolerant grid execution: policy, streaming points, quarantine
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class FailurePolicy:
    """How a grid survives misbehaving points (``Engine(policy=...)``).

    With a policy set, the grid plane supervises every miss:

    * ``timeout`` -- wall-clock seconds one point may run.  A pool task of
      ``n`` points gets ``n * timeout`` before its worker is presumed hung;
      the pool is killed and that task's points retry in isolation.
      ``None`` disables the clock.  A pure-serial engine (no pool
      available) cannot preempt in-process work, so timeouts are only
      enforceable across a process boundary.
    * ``retries`` -- extra attempts a failing point gets, each in an
      isolated single-point pool task so an innocent neighbour never
      burns the budget of the point that actually killed the worker.
    * ``backoff`` / ``backoff_cap`` / ``jitter`` -- exponential delay
      between attempts (``backoff * 2**(attempt-1)``, capped, +/- jitter
      fraction drawn from a ``seed``-ed RNG -- deterministic per session).
    * ``quarantine`` -- exhausted points become first-class
      ``Result(kind="error")`` envelopes (never checkpointed, so a
      ``--resume`` retries them) instead of aborting the campaign;
      ``False`` raises :class:`GridPointFailed`.

    Without a policy (the default) the same plane is fail-fast: a point's
    exception propagates out of the grid.  Envelopes are byte-identical
    either way.
    """

    timeout: Optional[float] = None
    retries: int = 2
    backoff: float = 0.05
    backoff_cap: float = 2.0
    jitter: float = 0.25
    quarantine: bool = True
    seed: int = 0


class GridPointFailed(RuntimeError):
    """A grid point exhausted its retry budget under ``quarantine=False``."""


@dataclass(frozen=True)
class GridPoint:
    """One streamed grid point: its expansion index, spec and envelope.

    ``from_store`` is ``True`` when the artifact store served the point's
    checkpoint instead of an execution.
    """

    index: int
    spec: ScenarioSpec
    result: Result
    from_store: bool = False


def _failure_info(exc: BaseException, note: Optional[str] = None) -> Tuple[str, str]:
    """(error type, message) of a point failure, for the error envelope."""
    return (type(exc).__name__, note if note is not None else str(exc))


def _error_envelope(
    spec: ScenarioSpec, failure: Tuple[str, str], attempts: int
) -> Result:
    """The quarantine envelope of a point that survived no attempt."""
    error, message = failure
    return Result(
        kind="error",
        subject=spec.describe(),
        ok=False,
        cache="none",
        data={
            "kind": spec.kind,
            "error": error,
            "message": message,
            "attempts": attempts,
            "quarantined": True,
        },
    )


def _quarantined(results: Sequence[Result], data: Dict[str, object]) -> int:
    """Count a composite's quarantined sub-points into its envelope data."""
    count = sum(1 for result in results if result.kind == "error")
    if count:
        data["quarantined"] = count
    return count


def _error_field(result: Result) -> Dict[str, object]:
    """The error a quarantined sub-point leaves in its composite's row."""
    return {"error": result.data["error"]} if result.kind == "error" else {}


# ---------------------------------------------------------------------------
# The pool worker: one warm engine per process, one task function
# ---------------------------------------------------------------------------
#: A picklable (root, version, max_entries) reference to a DiskStore (or
#: ``None``).  The session pool's initializer joins every worker engine to
#: the same persistent cache as the parent session.
StoreRef = Optional[Tuple[str, str, Optional[int]]]

#: This process's warm worker engine, built once by :func:`_init_worker`.
_WORKER_ENGINE: Optional["Engine"] = None


def _init_worker(ref: StoreRef) -> None:
    """Pool initializer: build the worker process's one warm engine.

    The engine lives as long as the process, so its artifact caches (timing
    simulations, TSG verdicts, decoded points) and its store handle carry
    over from one chunk to the next instead of being rebuilt per task.
    """
    global _WORKER_ENGINE
    _WORKER_ENGINE = Engine(store=store_from_ref(ref))


def _chunk_worker(
    faults: Optional["FaultPlan"],
    ctx: Optional[TraceContext],
    specs: Sequence[ScenarioSpec],
) -> Tuple[List[Union[Result, Exception]], List[Dict[str, object]]]:
    """Run one chunk of grid points on the warm worker engine.

    The only task the engine submits for spec work.  The fault plan and
    the trace context travel with every task: an unpickled plan starts
    with fresh ``count`` credits, and a shipped context parents one
    ``worker.point`` span per point.  Workers cannot append to the
    parent's JSONL sink, so their span records ride back with the outcomes
    for the parent tracer to absorb.  A point's outcome is its envelope or
    the exception it raised: one failing point never hides its neighbours'
    results, so blame stays per point.
    """
    engine = _WORKER_ENGINE
    engine.faults = faults
    tracer = None if ctx is None else Tracer(sink=None, trace_id=ctx.trace_id)
    engine.tracer = tracer
    outcomes: List[Union[Result, Exception]] = []
    for spec in specs:
        try:
            if tracer is None:
                outcomes.append(engine.run(spec))
                continue
            with tracer.span(
                "worker.point", parent=ctx, kind=spec.kind, key=spec.content_hash()[:12]
            ):
                outcomes.append(engine.run(spec))
        except Exception as exc:
            outcomes.append(exc)
    return outcomes, [] if tracer is None else tracer.drain()


def _chunk_size(points: int, workers: int) -> int:
    """Points per pool task: about four chunks per worker, at most 16 points.

    Several chunks per worker balance uneven point costs; the cap bounds
    how much work one crash or timeout sends to isolated retry.
    """
    return max(1, min(16, -(-points // (4 * workers))))
#: The parameters one ``simulate_batch`` point may carry -- exactly the
#: ``simulate`` spec surface, so a point hashes to the spec the same call
#: would produce through :meth:`Engine.simulate`.
_BATCH_POINT_PARAMS = frozenset({"attack", "defenses", "config", "secret", "model"})


def _batch_point_spec(
    point: object,
    secret: Optional[object] = None,
    model: Optional[object] = None,
) -> ScenarioSpec:
    """One batch entry as its equivalent per-point ``simulate`` spec.

    A bare string is an attack name; a mapping may carry any ``simulate``
    parameter, with the batch-level ``secret``/``model`` as defaults.  The
    resulting spec is content-identical to what the same point would
    produce through :meth:`Engine.simulate` -- the envelope-identity
    contract of the batch plane.
    """
    if isinstance(point, str):
        point = {"attack": point}
    if not isinstance(point, Mapping):
        raise TypeError(
            "batch point must be an attack name or a mapping of simulate "
            f"parameters, got {type(point).__name__}"
        )
    unknown = set(point) - _BATCH_POINT_PARAMS
    if unknown:
        raise ValueError(
            f"unknown batch point parameters: {', '.join(sorted(map(str, unknown)))}"
        )
    if not point.get("attack"):
        raise ValueError("batch point needs an 'attack'")
    merged = dict(point)
    merged.setdefault("secret", secret)
    merged.setdefault("model", model)
    return ScenarioSpec("simulate", **merged)


#: (ROB entries, reservation stations) points of the window-length ablation:
#: shrinking the window is the paper's ROB/RS ablation, in measured cycles.
#: The smallest points actually bind on the exploit corpus -- at (4, 2) the
#: Spectre v1 send can no longer issue ahead of the stalled bounds check and
#: the measured race flips from leak to safe.
DEFAULT_WINDOW_GRID: Tuple[Tuple[int, int], ...] = (
    (4, 2),
    (8, 4),
    (16, 8),
    (48, 24),
    (192, 64),
)

def _port_overrides(model: "TimingModel") -> Dict[str, Optional[int]]:
    """The bounded port/CDB fields of a reference model, as ablation overrides."""
    fields = ("alu_ports", "load_store_ports", "branch_ports", "mul_ports", "cdb_width")
    return {
        name: getattr(model, name)
        for name in fields
        if getattr(model, name) is not None
    }


#: Port configurations swept by the window-length ablation: the PR-3
#: unlimited machine, the realistic contended core (Theorem 1 agrees for
#: every registry attack) and the maximally serialized one (collapsed
#: memory-level parallelism closes some races -- e.g. Spectre v2's).  The
#: override dicts are derived from the exported reference models so the
#: ablation cannot drift from ``repro simulate --contended``.
DEFAULT_PORT_CONFIGS: Tuple[Tuple[str, Dict[str, Optional[int]]], ...] = (
    ("unbounded", {}),
    ("contended", _port_overrides(CONTENDED_MODEL)),
    ("serialized", _port_overrides(SERIALIZED_MODEL)),
)


def _picklable(payload: object) -> bool:
    """Probe whether work can cross the process boundary.

    CPython signals unpicklable objects with a zoo of exception types
    (PicklingError, TypeError, AttributeError, ...), so the probe catches
    everything -- a failed probe simply routes the work to the serial path
    before anything is submitted to the pool.
    """
    try:
        pickle.dumps(payload)
    except Exception:
        return False
    return True


def _warm_envelope(cached: Result, aliased: bool) -> Result:
    """A warm copy of a stored envelope.

    When the store ``aliased`` the held object (a
    :class:`~repro.store.MemoryStore` hands back the very object it keeps),
    ``data`` is deep-copied so callers can mutate it freely (the documented
    envelope contract) without poisoning the stored entry.  Serializing
    stores already returned a private copy -- no extra work.
    """
    data = copy.deepcopy(cached.data) if aliased else cached.data
    return replace(cached, cache="warm", data=data)


def _store_snapshot(result: Result, aliased: bool) -> Result:
    """The envelope as persisted: decoupled from the caller when aliased."""
    if not aliased:
        return result
    return replace(result, data=copy.deepcopy(result.data))


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------
class Engine:
    """Stateful session facade: declare the scenario, the engine runs it.

    ``parallel`` sets the default worker count for grid execution; every
    grid method also accepts a per-call ``parallel=`` override.
    ``parallel=None`` (or 1) means deterministic serial execution
    in-process.

    ``cache_limit`` bounds every in-memory artifact cache to that many
    entries (oldest-inserted evicted first), so long-running batch consumers
    of the legacy free functions -- which share the process-global default
    engine -- cannot grow memory without bound.  ``cache_limit=None``
    disables eviction.

    ``store`` plugs in a spec-level :class:`~repro.store.ArtifactStore`:
    every :meth:`run` envelope is keyed by its spec's content hash, checked
    before executing and persisted after.  A
    :class:`~repro.store.DiskStore` makes the cache survive the process --
    a second CLI or CI invocation of the same spec is one pickle load.
    ``store=None`` (the default) disables the spec layer; the in-memory
    artifact caches below it always apply.
    """

    #: Default per-cache entry bound (FIFO eviction beyond this).
    DEFAULT_CACHE_LIMIT = 4096

    #: Fault-tolerance event vocabulary of ``stats()["grid"]`` -- every
    #: event is materialized at zero so campaign dashboards always see the
    #: full schema.
    GRID_EVENTS = (
        "resumed",
        "retried",
        "quarantined",
        "timeouts",
        "pool_respawns",
        "serial_degradations",
    )

    def __init__(
        self,
        parallel: Optional[int] = None,
        cache_limit: Optional[int] = DEFAULT_CACHE_LIMIT,
        store: Optional[ArtifactStore] = None,
        policy: Optional[FailurePolicy] = None,
        faults: Optional["FaultPlan"] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.parallel = parallel
        self.cache_limit = cache_limit
        self.store = store
        #: Optional :class:`FailurePolicy` supervising grid execution:
        #: timeout / retry / quarantine.  ``None`` is fail-fast -- a point's
        #: exception propagates out of the grid.
        self.policy = policy
        #: Optional :class:`~repro.faults.FaultPlan`: deterministic fault
        #: injection, threaded to worker engines with the work.
        self.faults = faults
        #: Optional :class:`~repro.obs.Tracer`.  ``None`` (the default) is
        #: the zero-instrumentation fast path; a tracer threads spans from
        #: ``run``/``iter_grid`` down into pool workers (contexts shipped
        #: with the work, worker spans harvested back with the results).
        self.tracer = tracer
        #: The session's unified metrics registry: cache hit/miss, run and
        #: grid-campaign counters live here; ``stats()`` is a compatibility
        #: shim over it, and the service's ``/metrics`` endpoint renders it.
        self.metrics = MetricsRegistry()
        self._cache_events = self.metrics.counter(
            "repro_engine_cache_requests_total",
            "Artifact-cache lookups by cache and outcome.",
            labelnames=("cache", "outcome"),
        )
        self._runs_total = self.metrics.counter(
            "repro_engine_runs_total",
            "Scenario executions routed through Engine.run, by spec kind.",
            labelnames=("kind",),
        )
        self._grid_events = self.metrics.counter(
            "repro_engine_grid_events_total",
            "Fault-tolerance events observed by grid campaigns.",
            labelnames=("event",),
        )
        for event in self.GRID_EVENTS:
            self._grid_events.touch(event=event)
        self._store_ops = self.metrics.counter(
            "repro_engine_store_ops_total",
            "Artifact-store operations, synced from the store's own ledger "
            "on scrape (the store stays registry-free so pool workers are "
            "born light).",
            labelnames=("op",),
        )
        self._store_entries = self.metrics.gauge(
            "repro_engine_store_entries",
            "Entries currently held by the artifact store.",
        )
        self._store_bytes = self.metrics.gauge(
            "repro_engine_store_bytes",
            "Bytes currently held by the artifact store (disk stores only).",
        )
        self.metrics.register_collector(self._sync_store_metrics)
        self._builds: Dict[Tuple, BuildResult] = {}
        self._analyses: Dict[Tuple, AnalysisReport] = {}
        #: Keyed on the (frozen) Defense / AttackVariant objects themselves, so
        #: a customized defense sharing a catalog key cannot alias a stale entry.
        self._evaluations: Dict[Tuple[Defense, AttackVariant], "DefenseEvaluation"] = {}
        self._synth_graphs: Dict[Tuple[str, str, str], AttackGraph] = {}
        self._synth_verdicts: Dict[Tuple[str, str], Dict[str, object]] = {}
        #: Timing simulations keyed on (attack, config, secret, model) -- the
        #: config and model are frozen dataclasses, so the key is the full
        #: content of the run.
        self._simulations: Dict[Tuple, "ExploitResult"] = {}
        #: Theorem-1 TSG verdicts per registry attack.  The verdict is a pure
        #: function of the (frozen) registry variant, so one graph build per
        #: attack serves every undefended simulation row of the session --
        #: the dominant cost of a warm ``simulate`` serve without it.
        self._tsg_verdicts: Dict[str, Optional[bool]] = {}
        #: Decoded ``simulate`` points keyed on their raw spec parameters:
        #: the defense/config/model decode runs once per distinct point per
        #: session instead of once per serve -- the warm context that makes
        #: batch campaigns cheap.  Values are what :meth:`_decode_point`
        #: returns.
        self._point_decodes: Dict[Tuple, Tuple] = {}
        self._executor: Optional[ProcessPoolExecutor] = None
        self._executor_workers = 0
        #: The store reference the pool's worker engines were built with.
        self._executor_ref: StoreRef = None
        self._closed = False
        #: Named external counter providers merged into :meth:`stats` --
        #: the analysis service registers itself here so one ``stats()``
        #: call reports engine *and* service counters in one document.
        self._stats_providers: Dict[str, Callable[[], Dict[str, object]]] = {}

    # -- cache plumbing -----------------------------------------------------
    @staticmethod
    def program_key(
        program: Program, protected_symbols: Optional[Sequence[str]] = None
    ) -> Tuple[str, Tuple[str, ...]]:
        """Content-addressed cache key of a program + extra protected symbols."""
        return (program.content_hash(), tuple(sorted(protected_symbols or ())))

    def _record(self, cache: str, hit: bool) -> None:
        self._cache_events.inc(cache=cache, outcome="hit" if hit else "miss")

    def _grid_event(self, event: str, amount: int = 1) -> None:
        self._grid_events.inc(amount, event=event)

    def _sync_store_metrics(self) -> None:
        """Pull the store's counter ledger into the registry (pre-render)."""
        if self.store is None:
            return
        stats = self.store.stats()
        for op in ("hits", "misses", "puts", "put_failures", "evictions"):
            if op in stats:
                self._store_ops.set_to(stats[op], op=op)
        self._store_entries.set(stats.get("entries", 0))
        if "bytes" in stats:
            self._store_bytes.set(stats["bytes"])

    def _active_tracer(self) -> Optional[Tracer]:
        """The session tracer, or ``None`` when tracing is off/disabled."""
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            return tracer
        return None

    def _store(self, store: Dict, key: object, value: T) -> T:
        """Insert into a cache, evicting the oldest entry beyond the limit."""
        if self.cache_limit is not None and len(store) >= self.cache_limit:
            store.pop(next(iter(store)))
        store[key] = value
        return value

    def _stores(self) -> Dict[str, Dict]:
        """The cache registry shared by :meth:`stats` and :meth:`invalidate`."""
        return {
            "builds": self._builds,
            "analyses": self._analyses,
            "evaluations": self._evaluations,
            "synth_graphs": self._synth_graphs,
            "synth_verdicts": self._synth_verdicts,
            "simulations": self._simulations,
            "tsg_verdicts": self._tsg_verdicts,
        }

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Hit / miss / entry counts per cache, spec-run counts per kind,
        the artifact-store counters, and the shared expansion cache.

        A compatibility shim since the observability refactor: the counters
        live in :attr:`metrics` (one registry, also rendered as Prometheus
        text by the service's ``/metrics``), and this method synthesizes the
        historical dict shape from the same series -- byte-identical to the
        pre-registry payloads.
        """
        report = {
            name: {
                "entries": len(store),
                "hits": self._cache_events.value(cache=name, outcome="hit"),
                "misses": self._cache_events.value(cache=name, outcome="miss"),
            }
            for name, store in self._stores().items()
        }
        info = expansion_for.cache_info()
        report["expansions"] = {
            "entries": info.currsize,
            "hits": info.hits,
            "misses": info.misses,
        }
        report["runs"] = dict(
            sorted((kind, count) for (kind,), count in self._runs_total.series().items())
        )
        report["grid"] = {
            event: self._grid_events.value(event=event) for event in self.GRID_EVENTS
        }
        if self.store is not None:
            report["store"] = self.store.stats()
        for name, provider in list(self._stats_providers.items()):
            report[name] = dict(provider())
        return report

    def register_stats(
        self, name: str, provider: Callable[[], Dict[str, object]]
    ) -> None:
        """Merge ``provider()`` into every :meth:`stats` report under ``name``.

        Reserved section names (``runs`` / ``grid`` / ``store`` / the cache
        names) are refused -- a provider must not shadow engine counters.
        """
        reserved = set(self._stores()) | {"expansions", "runs", "grid", "store"}
        if name in reserved:
            raise ValueError(f"stats section {name!r} is reserved by the engine")
        self._stats_providers[name] = provider

    def unregister_stats(self, name: str) -> None:
        self._stats_providers.pop(name, None)

    def stats_snapshot(self) -> Dict[str, Dict[str, int]]:
        """A deep copy of :meth:`stats`, safe to keep as a window baseline."""
        return copy.deepcopy(self.stats())

    @staticmethod
    def stats_delta(
        before: Mapping[str, object], after: Mapping[str, object]
    ) -> Dict[str, object]:
        """Per-window counters: ``after - before``, recursively.

        Numeric leaves are differenced (a counter absent from ``before``
        counts from zero), nested mappings recurse, and non-numeric leaves
        pass through from ``after``.  ``stats_delta(snapshot, stats())``
        is the canonical "what happened since" report -- the service's
        ``/stats`` window uses exactly this.
        """
        delta: Dict[str, object] = {}
        for key, value in after.items():
            previous = before.get(key) if isinstance(before, Mapping) else None
            if isinstance(value, Mapping):
                delta[key] = Engine.stats_delta(
                    previous if isinstance(previous, Mapping) else {}, value
                )
            elif isinstance(value, (int, float)) and not isinstance(value, bool):
                baseline = (
                    previous
                    if isinstance(previous, (int, float))
                    and not isinstance(previous, bool)
                    else 0
                )
                delta[key] = value - baseline
            else:
                delta[key] = value
        return delta

    def invalidate(self, cache: Optional[str] = None) -> int:
        """Drop cached artifacts; returns the number of entries removed.

        ``cache`` selects one cache (``builds`` / ``analyses`` /
        ``evaluations`` / ``synth_graphs`` / ``synth_verdicts`` /
        ``simulations``, plus ``store`` when a spec-level artifact store is
        plugged in); ``None`` clears everything, including the decoded
        ``simulate`` points, the registry's published-key index and the
        shared micro-op expansion cache -- use after mutating the attack
        registry or the defense catalog.  Every call also shuts down the
        worker pool: its warm worker engines hold their own copies of these
        caches, and forked workers snapshot the parent at pool creation.
        """
        self._shutdown_pool()
        stores = self._stores()
        if cache is not None:
            if cache == "store" and self.store is not None:
                return self.store.clear()
            try:
                store = stores[cache]
            except KeyError as exc:
                known = sorted(stores)
                if self.store is not None:
                    known.append("store")
                raise KeyError(
                    f"unknown cache {cache!r}; known: {', '.join(sorted(known))}"
                ) from exc
            dropped = len(store)
            store.clear()
            return dropped
        dropped = sum(len(store) for store in stores.values())
        for store in stores.values():
            store.clear()
        self._point_decodes.clear()
        if self.store is not None:
            dropped += self.store.clear()
        refresh_published_cache()
        expansion_for.cache_clear()
        return dropped

    # -- execution plane ----------------------------------------------------
    def _workers(self, parallel: Optional[int]) -> int:
        if parallel is None:
            parallel = self.parallel
        return max(1, parallel or 1)

    def _try_pool(self, workers: int) -> Optional[ProcessPoolExecutor]:
        """The session pool, (re)spawned when too small or the store moved.

        Its initializer builds each worker's warm engine on the session's
        store reference, so :meth:`map` and the grid plane share one pool.
        ``None`` when the platform cannot fork one, or the session was
        closed -- a closed engine never respawns.
        """
        if self._closed:
            return None
        ref = store_ref(self.store)
        if (
            self._executor is None
            or self._executor_workers < workers
            or self._executor_ref != ref
        ):
            self._shutdown_pool()
            try:
                self._executor = ProcessPoolExecutor(
                    max_workers=workers, initializer=_init_worker, initargs=(ref,)
                )
            except OSError:
                return None
            self._executor_workers = workers
            self._executor_ref = ref
        return self._executor

    def _shutdown_pool(self) -> None:
        """Drop the worker pool (a later parallel call may spawn a fresh one)."""
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None
            self._executor_workers = 0

    def _kill_pool(self) -> None:
        """Terminate worker processes and drop the pool *without waiting*.

        The graceful :meth:`_shutdown_pool` joins every worker -- which
        deadlocks when the reason for shutting down is a hung or dying
        worker.  This path SIGTERMs the workers first and never waits; a
        later parallel call respawns a fresh pool.
        """
        executor = self._executor
        self._executor = None
        self._executor_workers = 0
        if executor is None:
            return
        processes = getattr(executor, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except Exception:  # pragma: no cover - process already reaped
                pass
        try:
            executor.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - broken executor internals
            pass

    def halt(self) -> None:
        """End the session *now*: terminate workers, never wait.

        The Ctrl-C path -- :meth:`close` would join a possibly hung pool.
        Completed grid points already persisted through the artifact store
        stay durable; everything in flight is abandoned.
        """
        self._kill_pool()
        self._closed = True

    def close(self) -> None:
        """End the session: shut the pool down for good (caches are kept).

        A closed engine still answers serial calls (parallel requests fall
        back to the deterministic serial path) but never spawns a new pool,
        and :func:`default_engine` will not hand out a closed session --
        the next caller gets a fresh one.
        """
        self._shutdown_pool()
        if self.tracer is not None:
            self.tracer.flush()
        self._closed = True

    @property
    def closed(self) -> bool:
        """``True`` once :meth:`close` has ended this session."""
        return self._closed

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def map(
        self,
        fn: Callable[[T], R],
        items: Iterable[T],
        parallel: Optional[int] = None,
    ) -> List[R]:
        """Order-preserving map over ``items`` on the session pool.

        With ``parallel`` (or the session default) <= 1 this is a plain
        serial list comprehension; otherwise ``fn`` and the items must be
        picklable.  Results always come back in input order, so serial and
        parallel runs are interchangeable.
        """
        work = list(items)
        workers = self._workers(parallel)
        if workers <= 1 or len(work) <= 1:
            return [fn(item) for item in work]
        chunksize = max(1, -(-len(work) // workers))
        pool = self._try_pool(workers)
        if pool is None or not _picklable((fn, work)):
            return [fn(item) for item in work]
        try:
            return list(pool.map(fn, work, chunksize=chunksize))
        except (BrokenExecutor, PicklingError):
            # A broken pool (or a result that cannot cross the process
            # boundary) must not change results -- fall back to the
            # deterministic serial path.  Exceptions raised by ``fn`` itself
            # propagate unchanged; unpicklable *inputs* are caught by the
            # probe above, before anything is submitted.
            self._shutdown_pool()
            return [fn(item) for item in work]

    # ======================================================================
    # The run-plan spine: one cached executor for every spec kind
    # ======================================================================
    def run(
        self,
        spec: Union[ScenarioSpec, ScenarioGrid],
        *,
        parallel: Optional[int] = None,
    ) -> Result:
        """Execute one scenario spec; the single entry point of the engine.

        The spec's content hash is checked against the session's artifact
        store first (a hit is returned as a ``warm`` envelope without
        executing anything); on a miss the kind's executor runs -- through
        the in-memory artifact caches and, for composite kinds, the grid
        plane -- and the envelope is persisted back.  ``parallel`` is an
        execution detail, not part of the scenario's identity: serial and
        parallel runs share one cache entry.
        """
        if isinstance(spec, ScenarioGrid):
            return self.run_grid(spec, parallel=parallel)
        return self._run_traced(spec, parallel, probe=True)

    def _run_traced(
        self, spec: ScenarioSpec, parallel: Optional[int], *, probe: bool
    ) -> Result:
        """:meth:`run` for one spec, inside its ``engine.run`` span when traced."""
        tracer = self._active_tracer()
        if tracer is None:
            return self._run_spec(spec, parallel, None, probe)
        with tracer.span("engine.run", kind=spec.kind) as span:
            result = self._run_spec(spec, parallel, tracer, probe)
            span.set(cache=result.cache)
            return result

    def _run_spec(
        self,
        spec: ScenarioSpec,
        parallel: Optional[int],
        tracer: Optional[Tracer],
        probe: bool,
    ) -> Result:
        """The untraced :meth:`run` body; ``tracer`` adds the store-put span.

        ``probe=False`` skips the warm-store lookup, for a caller that has
        just seen the spec miss the store itself.
        """
        executor = getattr(self, f"_run_{spec.kind}")
        key = spec.content_hash()
        if self.store is not None:
            aliased = getattr(self.store, "aliases_values", True)
            cached = self.store.get(key) if probe else None
            if isinstance(cached, Result):
                return _warm_envelope(cached, aliased)
        if self.faults is not None:
            # Injected *after* the warm path: a checkpointed point must be
            # servable on resume without re-tripping its fault.
            self.faults.fire_point(spec.content_key())
        # Counted here -- after the warm-store return -- so ``stats()["runs"]``
        # reflects real executor invocations, not store-served envelopes.
        self._runs_total.inc(kind=spec.kind)
        result = executor(spec, parallel)
        if self.store is not None:
            if tracer is None:
                self.store.put(key, _store_snapshot(result, aliased))
            else:
                with tracer.span("store.put", kind=spec.kind):
                    self.store.put(key, _store_snapshot(result, aliased))
        return result

    def iter_grid(
        self, grid: ScenarioGrid, *, parallel: Optional[int] = None
    ) -> Iterator[GridPoint]:
        """Stream a grid's points as they finish: the resumable pipeline.

        Yields one :class:`GridPoint` per expansion point, *in completion
        order* (checkpointed points first, then misses as they complete).
        Every completed point is persisted through the session's artifact
        store before it is yielded -- with a
        :class:`~repro.store.DiskStore` each yield is a durable checkpoint,
        so a killed campaign relaunched against the same store recomputes
        only the points never yielded (``stats()["grid"]["resumed"]``
        counts the served checkpoints, and their points carry
        ``from_store``).

        This is the engine's one scheduler of spec work.  A serial session
        runs the misses in process; a parallel one sends them to the
        session pool as chunk tasks of a few points each, run by one warm
        engine per worker process, with identical specs computed once.  A
        :class:`FailurePolicy` adds timeout, retry and quarantine; without
        one a point's exception propagates (fail-fast) and the unfinished
        points of a broken pool rerun in process.
        """
        tracer = self._active_tracer()
        if tracer is None:
            yield from self._iter_grid(grid, parallel)
            return
        with tracer.span("engine.iter_grid", kind=grid.kind, points=len(grid)):
            yield from self._iter_grid(grid, parallel)

    def _iter_grid(
        self, grid: ScenarioGrid, parallel: Optional[int]
    ) -> Iterator[GridPoint]:
        """The :meth:`iter_grid` body (separated so tracing can wrap it)."""
        specs = grid.specs()
        self._runs_total.inc(len(specs), kind="grid")
        aliased = getattr(self.store, "aliases_values", True)
        misses: List[int] = []
        # The first point of each spec that missed the store, by content hash.
        first_misses: Dict[str, int] = {}
        for index, spec in enumerate(specs):
            key = None if self.store is None else spec.content_hash()
            cached = None if key is None else self.store.get(key)
            if isinstance(cached, Result):
                self._grid_event("resumed")
                yield GridPoint(
                    index, spec, _warm_envelope(cached, aliased), from_store=True
                )
            else:
                misses.append(index)
                if key is not None:
                    first_misses.setdefault(key, index)
        if not misses:
            return
        rng = random.Random(self.policy.seed) if self.policy is not None else None
        workers = self._workers(parallel)
        pool = self._try_pool(workers) if workers > 1 and len(misses) > 1 else None
        # A first miss computes without probing the store a second time.  The
        # points a broken pool hands back are probed again: a killed worker
        # may have persisted some of them.
        unprobed: Set[int] = set()
        if pool is not None and _picklable((self.faults, [specs[i] for i in misses])):
            misses = yield from self._iter_chunks(specs, misses, workers, rng)
        else:
            unprobed = set(first_misses.values())
        for index in misses:
            # run() handles the per-point store bookkeeping itself; a copy of
            # a spec computed earlier in this loop is served warm by it.
            spec = specs[index]
            try:
                if index in unprobed:
                    result = self._run_traced(spec, None, probe=False)
                else:
                    result = self.run(spec)
            except Exception as exc:
                if self.policy is None:
                    raise
                result = self._recover_point(spec, _failure_info(exc), rng)
            yield GridPoint(index, spec, result)

    def run_grid(
        self,
        grid: ScenarioGrid,
        *,
        parallel: Optional[int] = None,
        on_point: Optional[Callable[[GridPoint], None]] = None,
    ) -> Result:
        """Execute every point of a scenario grid and aggregate one envelope.

        The eager wrapper around :meth:`iter_grid`: drains the stream and
        reassembles rows in the grid's deterministic expansion order --
        parallel output is byte-identical to serial output, and a fault-free
        run is byte-identical to the pre-streaming implementation.
        Quarantined points (``kind="error"`` envelopes, only possible under
        a :class:`FailurePolicy`) are surfaced as failed rows plus a
        ``quarantined`` count in the grid data.  ``on_point`` is invoked
        with each streamed :class:`GridPoint` in completion order -- the
        hook behind the CLI's ``--progress`` line.
        """
        size = len(grid)
        results: List[Optional[Result]] = [None] * size
        for point in self.iter_grid(grid, parallel=parallel):
            results[point.index] = point.result
            if on_point is not None:
                on_point(point)
        # No per-row cache provenance: a worker computes cold what a serial
        # run may serve warm, and grid rows must be byte-identical either
        # way.  Provenance is observable via stats()["store"] instead.
        rows = [
            {"subject": result.subject, "ok": result.ok, "data": result.data}
            for result in results
        ]
        data: Dict[str, object] = {
            "kind": grid.kind,
            "points": size,
            "ok_points": sum(1 for result in results if result.ok),
            "rows": rows,
        }
        if grid.axes:
            data["axes"] = {
                name: len(values) for name, values in grid.axes.items()
            }
        quarantined = sum(1 for result in results if result.kind == "error")
        if quarantined:
            data["quarantined"] = quarantined
        return Result(
            kind=f"{grid.kind}_grid",
            subject=f"grid {grid.kind} ({size} points)",
            ok=all(result.ok for result in results),
            cache="none",
            data=data,
            payload=list(results),
        )

    def _absorb_point(self, spec: ScenarioSpec, result: Result) -> None:
        """Checkpoint a worker-computed point into a process-local store
        (workers on a disk-store reference persisted it themselves)."""
        if self.store is not None and store_ref(self.store) is None:
            aliased = getattr(self.store, "aliases_values", True)
            self.store.put(spec.content_hash(), _store_snapshot(result, aliased))

    def _iter_chunks(
        self,
        specs: Sequence[ScenarioSpec],
        misses: List[int],
        workers: int,
        rng: Optional[random.Random],
    ) -> Generator[GridPoint, None, List[int]]:
        """The pool path of :meth:`iter_grid`; returns the points left to
        run in process.

        At most ``workers`` chunks are in flight, so every submitted chunk
        is running and its deadline (``policy.timeout`` per point) is fair.
        A chunk past its deadline is hung: the pool is killed, its points
        fail and the other in-flight chunks are requeued.  A crashed worker
        breaks the pool under every in-flight chunk, so each of them reruns
        alone first, and only a chunk that breaks the pool alone fails.
        Failed points then retry in isolation -- each one a chunk of its
        own with nothing else in flight -- until they heal or quarantine.
        Without a policy a point's exception propagates, and a broken pool
        hands every unfinished point back for the in-process path.
        """
        policy = self.policy
        tracer = self._active_tracer()
        # Identical specs run once; their copies are served from the first.
        first: Dict[str, int] = {}
        copies: Dict[int, List[int]] = {}
        for index in misses:
            owner = first.setdefault(specs[index].content_hash(), index)
            if owner != index:
                copies.setdefault(owner, []).append(index)
        unique = list(first.values())
        size = _chunk_size(len(unique), workers)
        failures: Dict[int, Tuple[str, str]] = {}
        leftover: List[int] = []

        def served(index: int, result: Result) -> List[GridPoint]:
            return [GridPoint(index, specs[index], result)] + [
                GridPoint(copy, specs[copy], _warm_envelope(result, True))
                for copy in copies.get(index, ())
            ]

        def end_span(span: object, **attrs: object) -> None:
            if span is not None:
                tracer.finish(span.set(**attrs))

        def drive(queue: Deque[List[int]], window: int) -> Iterator[GridPoint]:
            suspects: Deque[List[int]] = deque()
            pending: Dict[Future, Tuple[List[int], Optional[float], object]] = {}
            pool = None
            while queue or suspects or pending:
                if pool is None:
                    pool = self._try_pool(workers)
                    if pool is None:  # no pool can be spawned any more
                        self._grid_event("serial_degradations")
                        break
                while (suspects and not pending) or (
                    queue and not suspects and len(pending) < window
                ):
                    source = suspects if suspects else queue
                    chunk = source.popleft()
                    deadline = None
                    if policy is not None and policy.timeout is not None:
                        deadline = time.monotonic() + policy.timeout * len(chunk)
                    span = None
                    if tracer is not None:
                        # Detached: chunk spans finish in completion order,
                        # never on the submitting thread's span stack.
                        span = tracer.span(
                            "engine.shard", detached=True, points=len(chunk)
                        )
                    context = None if span is None else span.context()
                    work = [specs[index] for index in chunk]
                    try:
                        future = pool.submit(_chunk_worker, self.faults, context, work)
                    except BrokenExecutor:
                        source.appendleft(chunk)
                        if not pending:
                            self._grid_event("pool_respawns")
                            self._kill_pool()
                            pool = None
                        break
                    pending[future] = (chunk, deadline, span)
                if not pending:
                    continue
                deadlines = [entry[1] for entry in pending.values() if entry[1]]
                timeout = None
                if deadlines:
                    timeout = max(0.0, min(deadlines) - time.monotonic())
                done, _ = wait(list(pending), timeout, FIRST_COMPLETED)
                if not done:
                    now = time.monotonic()
                    if not any(deadline <= now for deadline in deadlines):
                        continue
                    # A chunk outlived its deadline: its worker is presumed
                    # hung.  Kill the pool (a plain shutdown would join it).
                    self._grid_event("timeouts")
                    for chunk, deadline, span in pending.values():
                        if deadline is not None and deadline <= now:
                            note = f"no completion within {policy.timeout}s per point"
                            failures.update((i, ("Timeout", note)) for i in chunk)
                            end_span(span, error="Timeout")
                        else:
                            queue.appendleft(chunk)
                            end_span(span, error="Requeued")
                    pending.clear()
                    self._kill_pool()
                    pool = None
                    continue
                harvest = set(done)
                lost: List[List[int]] = []
                while harvest:
                    future = harvest.pop()
                    chunk, _, span = pending.pop(future)
                    try:
                        outcomes, worker_spans = future.result(timeout=0)
                    except (BrokenExecutor, FutureTimeoutError):
                        # The pool is gone: collect every in-flight chunk.
                        lost.append(chunk)
                        end_span(span, error="BrokenExecutor")
                        harvest.update(pending)
                        continue
                    except Exception as exc:  # the chunk could not cross back
                        end_span(span, error=type(exc).__name__)
                        if policy is None:
                            leftover.extend(chunk)
                        else:
                            failures.update((i, _failure_info(exc)) for i in chunk)
                        continue
                    if tracer is not None:
                        tracer.absorb(worker_spans)
                        tracer.finish(span)
                    for index, outcome in zip(chunk, outcomes):
                        if isinstance(outcome, Exception):
                            if policy is None:
                                raise outcome
                            failures[index] = _failure_info(outcome)
                            continue
                        failures.pop(index, None)
                        self._absorb_point(specs[index], outcome)
                        yield from served(index, outcome)
                if lost:
                    self._grid_event("pool_respawns")
                    self._kill_pool()
                    pool = None
                    if policy is None:
                        leftover.extend(index for chunk in lost for index in chunk)
                        break
                    if len(lost) == 1:
                        failure = ("BrokenProcessPool", "worker process died")
                        failures.update((index, failure) for index in lost[0])
                    else:
                        suspects.extend(lost)
            leftover.extend(index for chunk in suspects + queue for index in chunk)

        chunks = deque(unique[at : at + size] for at in range(0, len(unique), size))
        yield from drive(chunks, workers)
        attempts = 1  # the failed first pass
        while failures and not leftover and attempts <= policy.retries:
            attempts += 1
            for index in sorted(failures):
                self._retry_pause(attempts - 1, rng)
                yield from drive(deque([[index]]), 1)
        if leftover:  # no pool any more: failed points join the in-process path
            leftover = list(set(leftover) | set(failures))
        else:
            for index, failure in sorted(failures.items()):
                result = self._quarantine(specs[index], failure, attempts)
                yield from served(index, result)
        return sorted(leftover + [c for i in leftover for c in copies.get(i, ())])

    def _retry_pause(self, retry: int, rng: random.Random) -> None:
        """Count retry number ``retry`` of a point and sleep its backoff."""
        policy = self.policy
        self._grid_event("retried")
        delay = min(policy.backoff_cap, policy.backoff * (2 ** (retry - 1)))
        if policy.jitter:
            delay *= 1.0 + policy.jitter * rng.uniform(-1.0, 1.0)
        if delay > 0:
            time.sleep(delay)

    def _quarantine(
        self, spec: ScenarioSpec, failure: Tuple[str, str], attempts: int
    ) -> Result:
        """The error envelope of a point out of retries (or the raise)."""
        if not self.policy.quarantine:
            error, message = failure
            raise GridPointFailed(
                f"{spec.describe()}: {error}: {message} (after {attempts} attempts)"
            )
        self._grid_event("quarantined")
        # Never checkpointed: a resume against the same store retries the
        # quarantined point instead of replaying its failure.
        return _error_envelope(spec, failure, attempts)

    def _recover_point(
        self, spec: ScenarioSpec, failure: Tuple[str, str], rng: random.Random
    ) -> Result:
        """Retry a point that failed in process, in process.

        Nothing preempts in-process work, so exceptions are retried but
        hangs and crashes cannot be contained.
        """
        for retry in range(1, self.policy.retries + 1):
            self._retry_pause(retry, rng)
            try:
                return self.run(spec)
            except Exception as exc:
                failure = _failure_info(exc)
        return self._quarantine(spec, failure, self.policy.retries + 1)

    def _run_points(
        self, points: Sequence[ScenarioSpec], parallel: Optional[int]
    ) -> List[Result]:
        """A composite's sub-points, run as one explicit grid of their kind."""
        if not points:
            return []
        return self.run_grid(ScenarioGrid.explicit(points), parallel=parallel).payload

    # -- Figure 9 program analysis ------------------------------------------
    def build(
        self, program: Program, protected_symbols: Optional[Sequence[str]] = None
    ) -> BuildResult:
        """Construct (or fetch) the attack graph of a program, content-hashed."""
        key = self.program_key(program, protected_symbols)
        cached = self._builds.get(key)
        if cached is not None:
            self._record("builds", hit=True)
            return cached
        self._record("builds", hit=False)
        tracer = self._active_tracer()
        if tracer is None:
            build = AttackGraphBuilder(program, protected_symbols).build()
        else:
            with tracer.span("engine.build", program=getattr(program, "name", "")):
                build = AttackGraphBuilder(program, protected_symbols).build()
        self._store(self._builds, key, build)
        return build

    def analyze(
        self,
        program: Program,
        protected_symbols: Optional[Sequence[str]] = None,
        points: Optional[Sequence[ProtectionPoint]] = None,
    ) -> Result:
        """Run the full Figure 9 flow on a program; warm calls hit the cache.

        Deprecated spelling of ``run(ScenarioSpec("analyze", program=...))``.

        The envelope ``data`` is freshly built per call and safe to mutate;
        the ``payload`` (:class:`AnalysisReport`) is the shared cached
        artifact -- treat it as immutable, like every cached build.
        """
        return self.run(
            ScenarioSpec(
                "analyze",
                program=program,
                protected_symbols=(
                    tuple(protected_symbols) if protected_symbols is not None else None
                ),
                points=tuple(points) if points is not None else None,
            )
        )

    def _run_analyze(self, spec: ScenarioSpec, parallel: Optional[int]) -> Result:
        program = decode_program(spec.get("program"), spec.get("name"))
        protected_symbols = spec.get("protected_symbols")
        points = decode_points(spec.get("points"))
        points_key = tuple(point.value for point in points) if points is not None else None
        key = (self.program_key(program, protected_symbols), points_key)
        report = self._analyses.get(key)
        if report is not None:
            self._record("analyses", hit=True)
            cache_state = "warm"
        else:
            self._record("analyses", hit=False)
            cache_state = "cold"
            build = self.build(program, protected_symbols)
            report = analyze_build(build, points)
            self._store(self._analyses, key, report)
        # The envelope data is built per call (only the report is cached):
        # callers may freely mutate result.data without poisoning warm hits.
        data = {
            "program": report.program_name,
            "content_hash": key[0][0],
            "vertices": len(report.build.graph),
            "edges": len(report.build.graph.edges),
            "classification": (
                "meltdown-type" if report.is_meltdown_type else "spectre-type"
            ),
            "secret_accesses": len(report.build.secret_accesses),
            "racing_pairs": report.total_racing_pairs,
            "vulnerable": report.vulnerable,
            "findings": [
                {
                    "authorization": finding.authorization,
                    "protected_operation": finding.protected_operation,
                    "point": finding.point.value,
                    "software_patchable": finding.software_patchable,
                    "description": finding.description,
                }
                for finding in report.findings
            ],
        }
        return Result(
            kind="analyze",
            subject=report.program_name,
            ok=not report.vulnerable,
            cache=cache_state,
            data=data,
            payload=report,
        )

    # -- defense evaluation -------------------------------------------------
    def evaluate(
        self,
        defense: Defense,
        variant: AttackVariant,
        graph: Optional[AttackGraph] = None,
    ) -> Result:
        """Apply one defense to one attack variant (cached per key pair).

        Deprecated spelling of ``run(ScenarioSpec("evaluate", defense=...,
        attack=...))``.  Passing an explicit ``graph`` bypasses the
        declarative path entirely (the graph is an opaque mutable object and
        is never cached).
        """
        if graph is not None:
            from .defenses.evaluation import evaluate_defense_uncached

            evaluation = evaluate_defense_uncached(defense, variant, graph)
            return Result(
                kind="evaluate",
                subject=f"{defense.key} vs {variant.key}",
                ok=evaluation.effective,
                cache="none",
                data=_evaluation_row(evaluation),
                payload=evaluation,
            )
        return self.run(ScenarioSpec("evaluate", defense=defense, attack=variant))

    def _run_evaluate(self, spec: ScenarioSpec, parallel: Optional[int]) -> Result:
        from .defenses.evaluation import evaluate_defense_uncached

        defense = decode_defense(spec.get("defense"))
        variant = decode_attack_variant(spec.get("attack"))
        key = (defense, variant)
        evaluation = self._evaluations.get(key)
        if evaluation is not None:
            self._record("evaluations", hit=True)
            cache_state = "warm"
        else:
            self._record("evaluations", hit=False)
            cache_state = "cold"
            evaluation = evaluate_defense_uncached(defense, variant)
            self._store(self._evaluations, key, evaluation)
        return Result(
            kind="evaluate",
            subject=f"{defense.key} vs {variant.key}",
            ok=evaluation.effective,
            cache=cache_state,
            data=_evaluation_row(evaluation),
            payload=evaluation,
        )

    def evaluate_matrix(
        self,
        defenses: Optional[Sequence[Defense]] = None,
        variants: Optional[Sequence[AttackVariant]] = None,
        parallel: Optional[int] = None,
    ) -> Result:
        """Evaluate every defense against every variant, as a grid.

        Deprecated spelling of ``run(ScenarioSpec("matrix", ...))``.  Rows
        are sorted by ``(defense key, attack key)`` so serial and parallel
        runs produce byte-identical output.
        """
        return self.run(
            ScenarioSpec(
                "matrix",
                defenses=tuple(defenses) if defenses is not None else None,
                attacks=tuple(variants) if variants is not None else None,
            ),
            parallel=parallel,
        )

    def _run_matrix(self, spec: ScenarioSpec, parallel: Optional[int]) -> Result:
        from .attacks.registry import variants as registry_variants
        from .defenses import ALL_DEFENSES

        defenses = spec.get("defenses")
        variants = spec.get("attacks")
        chosen_defenses = (
            [decode_defense(defense) for defense in defenses]
            if defenses is not None
            else list(ALL_DEFENSES)
        )
        chosen_variants = (
            [decode_attack_variant(variant) for variant in variants]
            if variants is not None
            else registry_variants()
        )
        pairs = sorted(
            (
                (defense, variant)
                for defense in chosen_defenses
                for variant in chosen_variants
            ),
            key=lambda pair: (pair[0].key, pair[1].key),
        )
        results = self._run_points(
            [ScenarioSpec("evaluate", defense=d, attack=v) for d, v in pairs], parallel
        )
        rows = [result.data for result in results]
        defeated: Dict[str, bool] = {}
        for row in rows:
            if "error" not in row:
                attack = row["attack"]
                defeated[attack] = defeated.get(attack, False) or row["effective"]
        data = {
            "defenses": len(chosen_defenses),
            "attacks": len(chosen_variants),
            "effective": sum(1 for row in rows if row.get("effective")),
            "undefeated_attacks": sorted(
                key for key, covered in defeated.items() if not covered
            ),
            "rows": rows,
        }
        quarantined = _quarantined(results, data)
        return Result(
            kind="evaluate",
            subject=f"matrix {len(chosen_defenses)}x{len(chosen_variants)}",
            ok=all(defeated.values()) and not quarantined,
            cache="none",
            data=data,
            payload=[result.payload for result in results],
        )
    # -- Section V-A attack-space synthesis ---------------------------------
    def synthesize_graph(self, attack: SynthesizedAttack) -> AttackGraph:
        """Build (or fetch) the synthesized graph of one combination."""
        graph = self._synth_graphs.get(attack.key)
        if graph is not None:
            self._record("synth_graphs", hit=True)
            return graph
        self._record("synth_graphs", hit=False)
        graph = attack.build_graph()
        self._store(self._synth_graphs, attack.key, graph)
        return graph

    def _synth_row(self, attack: SynthesizedAttack) -> Dict[str, object]:
        """One sweep row; the structural verdict only depends on (source, delay).

        The covert channel names the exfiltration path but does not change the
        synthesized graph's shape, so leak / vulnerability / race analysis is
        shared across all channels of one (source, delay) pair.
        """
        from .defenses.evaluation import attack_succeeds

        structural_key = (attack.secret_source.name, attack.delay_mechanism.name)
        verdict = self._synth_verdicts.get(structural_key)
        if verdict is not None:
            self._record("synth_verdicts", hit=True)
        else:
            self._record("synth_verdicts", hit=False)
            graph = self.synthesize_graph(attack)
            verdict = {
                "leaks": attack_succeeds(graph),
                "vulnerabilities": len(graph.find_vulnerabilities()),
                "racing_pairs": graph.count_racing_pairs(),
                "vertices": len(graph),
                "edges": len(graph.edges),
                "meltdown_type": graph.is_meltdown_type,
            }
            self._store(self._synth_verdicts, structural_key, verdict)
        row: Dict[str, object] = {
            "source": attack.secret_source.name,
            "delay": attack.delay_mechanism.name,
            "channel": attack.channel.name,
            "published": attack.is_published,
        }
        row.update(verdict)
        return row

    def synthesize(
        self,
        sources: Optional[Sequence[SecretSource]] = None,
        delays: Optional[Sequence[DelayMechanism]] = None,
        channels: Optional[Sequence[CovertChannelKind]] = None,
        parallel: Optional[int] = None,
    ) -> Result:
        """Sweep the (restricted) attack space.

        Deprecated spelling of ``run(ScenarioSpec("synthesize", ...))``.
        Rows come back sorted by ``(source, delay, channel)`` key.  The
        sweep always runs in process: the structural-verdict cache leaves
        too little work per row for a pool to pay off (``parallel`` is
        accepted for compatibility).
        """
        return self.run(
            ScenarioSpec(
                "synthesize",
                sources=tuple(sources) if sources is not None else None,
                delays=tuple(delays) if delays is not None else None,
                channels=tuple(channels) if channels is not None else None,
            ),
            parallel=parallel,
        )

    def _run_synthesize(self, spec: ScenarioSpec, parallel: Optional[int]) -> Result:
        sources = decode_axis_enums(SecretSource, spec.get("sources"))
        delays = decode_axis_enums(DelayMechanism, spec.get("delays"))
        channels = decode_axis_enums(CovertChannelKind, spec.get("channels"))
        attacks = sorted(
            enumerate_attack_space(sources, delays, channels), key=lambda a: a.key
        )
        rows = [self._synth_row(attack) for attack in attacks]
        data = {
            "combinations": len(rows),
            "published": sum(1 for row in rows if row["published"]),
            "novel": sum(1 for row in rows if not row["published"]),
            "leaking": sum(1 for row in rows if row["leaks"]),
            "rows": rows,
        }
        return Result(
            kind="synthesize",
            subject="attack-space",
            ok=True,
            cache="none",
            data=data,
            payload=attacks,
        )

    def novel_combinations(
        self,
        sources: Optional[Sequence[SecretSource]] = None,
        delays: Optional[Sequence[DelayMechanism]] = None,
        channels: Optional[Sequence[CovertChannelKind]] = None,
        parallel: Optional[int] = None,
    ) -> List[SynthesizedAttack]:
        """Unpublished combinations, key-sorted (a set lookup per row, so
        always in process; ``parallel`` is accepted for compatibility)."""
        published = published_keys()
        attacks = sorted(
            enumerate_attack_space(sources, delays, channels), key=lambda a: a.key
        )
        return [attack for attack in attacks if attack.key not in published]

    # -- end-to-end exploits -------------------------------------------------
    def exploit(
        self,
        name: str,
        config: Optional[object] = None,
        secret: Optional[int] = None,
    ) -> Result:
        """Run one end-to-end exploit on the simulator.

        Deprecated spelling of ``run(ScenarioSpec("exploit", exploit=...))``.
        """
        return self.run(
            ScenarioSpec("exploit", exploit=name, config=config, secret=secret)
        )

    def _run_exploit(self, spec: ScenarioSpec, parallel: Optional[int]) -> Result:
        from .exploits.harness import DEFAULT_SECRET, EXPLOITS
        from .uarch.config import DEFAULT_CONFIG

        name = spec.get("exploit")
        if name not in EXPLOITS:
            raise KeyError(
                f"unknown exploit {name!r}; known: {', '.join(sorted(EXPLOITS))}"
            )
        secret = decode_secret(spec.get("secret"))
        planted = DEFAULT_SECRET if secret is None else secret
        config = decode_config(spec.get("config"))
        run_config = config if config is not None else DEFAULT_CONFIG
        defenses = decode_sim_defenses(spec.get("defenses"))
        if defenses:
            run_config = run_config.with_defenses(*defenses)
        result = EXPLOITS[name](run_config, planted)
        return Result(
            kind="exploit",
            subject=name,
            ok=result.success,
            cache="none",
            data=_exploit_row(result),
            payload=result,
        )

    def run_exploits(
        self,
        names: Optional[Sequence[str]] = None,
        config: Optional[object] = None,
        secret: Optional[int] = None,
        parallel: Optional[int] = None,
    ) -> Result:
        """Run a set of exploits (all by default), in process.

        Deprecated spelling of ``run(ScenarioSpec("exploit_suite", ...))``.
        ``parallel`` is accepted for compatibility: a pooled suite measured
        no faster than the serial one.
        """
        return self.run(
            ScenarioSpec(
                "exploit_suite",
                exploits=tuple(names) if names is not None else None,
                config=config,
                secret=secret,
            ),
            parallel=parallel,
        )

    def _run_exploit_suite(self, spec: ScenarioSpec, parallel: Optional[int]) -> Result:
        from .exploits.harness import DEFAULT_SECRET, EXPLOITS
        from .uarch.config import DEFAULT_CONFIG

        names = spec.get("exploits")
        chosen = list(names) if names is not None else list(EXPLOITS)
        if len(set(chosen)) != len(chosen):
            raise ValueError("duplicate exploit names in run_exploits")
        secret = decode_secret(spec.get("secret"))
        planted = DEFAULT_SECRET if secret is None else secret
        config = decode_config(spec.get("config"))
        run_config = config if config is not None else DEFAULT_CONFIG
        results = [EXPLOITS[name](run_config, planted) for name in chosen]
        by_name = dict(zip(chosen, results))
        data = {
            "exploits": len(chosen),
            "leaked": sum(1 for result in results if result.success),
            "rows": [_exploit_row(result) for result in results],
        }
        return Result(
            kind="exploit",
            subject=f"suite ({len(chosen)} exploits)",
            ok=all(result.success for result in results),
            cache="none",
            data=data,
            payload=by_name,
        )

    # -- cycle-accurate timing simulation -------------------------------------
    def simulate(
        self,
        attack: str,
        defenses: Sequence["SimDefense"] = (),
        *,
        config: Optional["UarchConfig"] = None,
        secret: Optional[int] = None,
        model: Optional["TimingModel"] = None,
    ) -> Result:
        """Run one attack end-to-end on the cycle-accurate timing core.

        Deprecated spelling of ``run(ScenarioSpec("simulate", attack=...))``.

        ``attack`` is a registry key (mapped to its representative exploit
        scenario) or an exploit name.  Runs are content-hash cached: the key
        is the attack plus the *frozen* simulator config (defenses included),
        the planted secret and the timing model, so a repeated sweep over the
        same space is all cache hits.  The envelope reports both verdicts of
        the paper's race: the functional leak and the measured transmit-vs-
        squash outcome, plus the Theorem 1 TSG verdict for undefended runs.
        """
        return self.run(
            ScenarioSpec(
                "simulate",
                attack=attack,
                defenses=tuple(defenses) or None,
                config=config,
                secret=secret,
                model=model,
            )
        )

    def _run_simulate(self, spec: ScenarioSpec, parallel: Optional[int]) -> Result:
        from .uarch.timing.validate import timed_exploit

        attack, scenario, run_config, secret, run_model = self._decode_point(spec)
        # Keyed on the resolved *scenario*: aliased registry attacks (the MDS
        # siblings, the Foreshadow deployments, ...) share one timing run.
        key = (scenario, run_config, secret, run_model)
        result = self._simulations.get(key)
        if result is not None:
            self._record("simulations", hit=True)
            cache_state = "warm"
        else:
            self._record("simulations", hit=False)
            cache_state = "cold"
            result = timed_exploit(scenario, run_config, secret, run_model)
            self._store(self._simulations, key, result)
        if not run_config.defenses:
            self._record("tsg_verdicts", hit=attack in self._tsg_verdicts)
        data = _simulate_row(attack, scenario, run_config, result, self._tsg_verdicts)
        return Result(
            kind="simulate",
            subject=attack,
            ok=not data["transmit_beats_squash"],
            cache=cache_state,
            data=data,
            payload=result,
        )

    def simulate_sweep(
        self,
        attacks: Optional[Sequence[str]] = None,
        defenses: Optional[Sequence[Optional["SimDefense"]]] = None,
        secret: Optional[int] = None,
        parallel: Optional[int] = None,
        model: Optional["TimingModel"] = None,
    ) -> Result:
        """Sweep (attack x defense) timing simulations, as a grid.

        Deprecated spelling of ``run(ScenarioSpec("simulate_sweep", ...))``.

        ``defenses`` defaults to the undefended baseline plus every simulator
        defense.  ``model`` selects the timing-plane configuration for every
        run (e.g. the contended reference core).  Rows are sorted by (attack,
        defense) key; each row is one ``simulate`` grid point.
        """
        return self.run(
            ScenarioSpec(
                "simulate_sweep",
                attacks=tuple(attacks) if attacks is not None else None,
                defenses=tuple(defenses) if defenses is not None else None,
                secret=secret,
                model=model,
            ),
            parallel=parallel,
        )

    def _run_simulate_sweep(self, spec: ScenarioSpec, parallel: Optional[int]) -> Result:
        from .uarch.defenses import SimDefense
        from .uarch.timing.scheduler import DEFAULT_MODEL
        from .uarch.timing.validate import SCENARIOS

        model = decode_model(spec.get("model"))
        run_model = model if model is not None else DEFAULT_MODEL
        secret = decode_secret(spec.get("secret"))
        attacks = spec.get("attacks")
        defenses = spec.get("defenses")
        chosen_attacks = list(attacks) if attacks is not None else sorted(SCENARIOS)
        chosen_defenses: List[Optional[SimDefense]] = (
            [
                None if defense is None else decode_sim_defense(defense)
                for defense in defenses
            ]
            if defenses is not None
            else [None] + list(SimDefense)
        )
        combos = sorted(
            (attack, () if defense is None else (defense.name,))
            for attack in chosen_attacks
            for defense in chosen_defenses
        )
        results = self._run_points(
            [
                ScenarioSpec(
                    "simulate",
                    attack=attack,
                    defenses=tuple(SimDefense[name] for name in names) or None,
                    secret=secret,
                    model=model,
                )
                for attack, names in combos
            ],
            parallel,
        )
        rows = [result.data for result in results]
        data = {
            "attacks": len(chosen_attacks),
            "defenses": len(chosen_defenses),
            "contended": run_model.contended,
            "runs": len(rows),
            "leaking": sum(1 for row in rows if row.get("transmit_beats_squash")),
            "rows": rows,
        }
        quarantined = _quarantined(results, data)
        return Result(
            kind="simulate",
            subject=f"sweep {len(chosen_attacks)}x{len(chosen_defenses)}",
            ok=not quarantined,
            cache="none",
            data=data,
            payload=rows,
        )

    def simulate_batch(
        self,
        points: Sequence[object],
        *,
        secret: Optional[int] = None,
        model: Optional["TimingModel"] = None,
        parallel: Optional[int] = None,
    ) -> Result:
        """Run a *list* of timing-simulation points through warm sessions.

        Spelling of ``run(ScenarioSpec("simulate_batch", points=...))``.

        Each point is an attack name or a mapping of ``simulate``
        parameters (``attack`` / ``defenses`` / ``config`` / ``secret`` /
        ``model``); the batch-level ``secret``/``model`` fill in per-point
        gaps.  The batch is an explicit grid of those ``simulate`` points:
        rows come back *in order*, and served serially each envelope is
        byte-identical to the per-point :meth:`simulate` call on the same
        session.  With ``parallel`` > 1 identical points run once and the
        misses go to the pool's warm worker engines in chunks, with store
        checkpoints, FaultPlan selection, quarantine and ``worker.point``
        spans exactly as in any other grid.
        """
        return self.run(
            ScenarioSpec(
                "simulate_batch",
                points=tuple(points),
                secret=secret,
                model=model,
            ),
            parallel=parallel,
        )

    def _decode_point(self, spec: ScenarioSpec) -> Tuple:
        """Decode one ``simulate`` spec to ``(attack, scenario, config,
        secret, model)``, memoized per session.

        Keyed on the raw parameter values; unhashable parameters (a dict
        config, say) simply skip the memo.  Decoding is deterministic, so a
        hit only skips the repeated defense/model/config resolution.  The
        scenario resolves registry aliases (MDS siblings, Foreshadow
        deployments), so aliased points share one simulation-cache key.
        """
        from .uarch.config import DEFAULT_CONFIG
        from .uarch.timing.scheduler import DEFAULT_MODEL
        from .uarch.timing.validate import SCENARIOS

        names = ("attack", "defenses", "config", "secret", "model")
        key: Optional[Tuple] = tuple(spec.get(name) for name in names)
        try:
            cached = self._point_decodes.get(key)
        except TypeError:
            key = cached = None
        if cached is not None:
            return cached
        attack = spec.get("attack")
        config = decode_config(spec.get("config"))
        base = config if config is not None else DEFAULT_CONFIG
        defenses = decode_sim_defenses(spec.get("defenses"))
        model = decode_model(spec.get("model"))
        decoded = (
            attack,
            SCENARIOS.get(attack, attack),
            base.with_defenses(*defenses) if defenses else base,
            decode_secret(spec.get("secret")),
            model if model is not None else DEFAULT_MODEL,
        )
        if key is not None:
            self._store(self._point_decodes, key, decoded)
        return decoded

    def _run_simulate_batch(self, spec: ScenarioSpec, parallel: Optional[int]) -> Result:
        shared_secret = spec.get("secret")
        shared_model = spec.get("model")
        point_specs = [
            _batch_point_spec(point, shared_secret, shared_model)
            for point in spec.get("points") or ()
        ]
        results = self._run_points(point_specs, parallel)
        rows = [result.data for result in results]
        data: Dict[str, object] = {
            "points": len(rows),
            "unique_simulations": len(
                {self._decode_point(pspec)[1:] for pspec in point_specs}
            ),
            "leaking": sum(1 for row in rows if row.get("transmit_beats_squash")),
            "rows": rows,
        }
        quarantined = _quarantined(results, data)
        return Result(
            kind="simulate_batch",
            subject=f"batch ({len(rows)} points)",
            ok=not quarantined,
            cache="none",
            data=data,
            payload=results,
        )

    # ======================================================================
    # The differential fuzzing plane (repro.fuzz)
    # ======================================================================
    def _run_fuzz_point(self, spec: ScenarioSpec, parallel: Optional[int]) -> Result:
        """One generated gadget through the three leak oracles.

        The spec pins the generator coordinates and (optionally) the
        program's content hash -- a ``sha`` mismatch means the generator no
        longer builds what this spec was addressed under, and the point
        fails loudly rather than serve a verdict about a different program.
        """
        from .fuzz.generator import FUZZ_SECRET, dual_verdict, make_case

        seed = int(spec.get("seed"))
        index = int(spec.get("index"))
        secret = spec.get("secret")
        planted = FUZZ_SECRET if secret is None else int(secret)
        inject = spec.get("inject")
        model_name = spec.get("model")
        model = decode_model(model_name) if model_name is not None else None
        case = make_case(seed, index)
        pinned = spec.get("sha")
        if pinned is not None and pinned != case.sha:
            raise ValueError(
                f"fuzz_point {seed}/{index}: generator drift -- spec pins "
                f"program {str(pinned)[:12]} but the generator now builds "
                f"{case.sha[:12]}"
            )
        verdict = dual_verdict(
            case, secret=planted, inject=inject, engine=self, model=model
        )
        data: Dict[str, object] = {
            "seed": seed,
            "index": index,
            "sha": case.sha,
            "instructions": case.size,
            "bucket": case.shape.bucket,
            "inject": inject,
            "leaked_secret": verdict.leaked,
        }
        data.update(case.shape.to_dict())
        data.update(verdict.to_dict())
        return Result(
            kind="fuzz_point",
            subject=f"fuzz {seed}/{index}: {case.shape.describe()}",
            ok=verdict.agrees,
            cache="cold",
            data=data,
            payload=case,
        )

    def _run_fuzz_campaign(
        self, spec: ScenarioSpec, parallel: Optional[int]
    ) -> Result:
        """A seeded campaign: chunked, checkpointed grids of fuzz points."""
        from .fuzz.campaign import FuzzCampaign

        campaign = FuzzCampaign.from_spec(self, spec)
        data = campaign.execute(parallel=parallel)
        ok = data["disagreed"] == 0 and data["quarantined"] == 0
        return Result(
            kind="fuzz_campaign",
            subject=f"fuzz campaign seed={campaign.seed} count={campaign.count}",
            ok=ok,
            cache="none",
            data=data,
            payload=None,
        )

    def run_fuzz_campaign(
        self,
        *,
        seed: int,
        count: int,
        secret: Optional[int] = None,
        model: Optional[str] = None,
        inject: Optional[str] = None,
        budget: Optional[float] = None,
        parallel: Optional[int] = None,
        on_point: Optional[Callable[[GridPoint], None]] = None,
        refresh: bool = False,
    ) -> Result:
        """Run one differential fuzzing campaign (``repro fuzz``).

        Equivalent to ``run(ScenarioSpec("fuzz_campaign", ...))`` with two
        campaign-runner extras the generic path cannot express: a streaming
        ``on_point`` callback for live progress, and ``refresh`` to bypass a
        warm campaign envelope while still serving every completed point
        from its checkpoint -- the ``--resume`` semantics (a budget-stopped
        or killed campaign picks up exactly where it left off).
        """
        from .fuzz.campaign import FuzzCampaign

        campaign = FuzzCampaign(
            self,
            seed=seed,
            count=count,
            secret=secret,
            model=model,
            inject=inject,
            budget=budget,
        )
        spec = campaign.spec()
        if not refresh and on_point is None:
            return self.run(spec, parallel=parallel)
        key = spec.content_hash()
        aliased = True
        if self.store is not None:
            aliased = getattr(self.store, "aliases_values", True)
            if not refresh:
                cached = self.store.get(key)
                if isinstance(cached, Result):
                    return _warm_envelope(cached, aliased)
        self._runs_total.inc(kind="fuzz_campaign")
        data = campaign.execute(parallel=parallel, on_point=on_point)
        ok = data["disagreed"] == 0 and data["quarantined"] == 0
        result = Result(
            kind="fuzz_campaign",
            subject=f"fuzz campaign seed={campaign.seed} count={campaign.count}",
            ok=ok,
            cache="none",
            data=data,
            payload=None,
        )
        if self.store is not None:
            self.store.put(key, _store_snapshot(result, aliased))
        return result

    def validate_timing(
        self,
        parallel: Optional[int] = None,
        model: Optional["TimingModel"] = None,
        attacks: Optional[Sequence[str]] = None,
    ) -> Result:
        """Cross-check Theorem 1 for every registry attack (timing vs TSG).

        Deprecated spelling of ``run(ScenarioSpec("validate_timing", ...))``.

        ``model`` selects the timing-plane configuration; pass
        :data:`~repro.uarch.timing.scheduler.CONTENDED_MODEL` to validate
        the race with bounded FU ports and CDB.
        """
        return self.run(
            ScenarioSpec(
                "validate_timing",
                model=model,
                attacks=tuple(attacks) if attacks is not None else None,
            ),
            parallel=parallel,
        )

    def _run_validate_timing(self, spec: ScenarioSpec, parallel: Optional[int]) -> Result:
        from .uarch.timing.validate import cross_validate

        model = decode_model(spec.get("model"))
        attacks = spec.get("attacks")
        checks = cross_validate(
            list(attacks) if attacks is not None else None,
            engine=self,
            parallel=parallel,
            model=model,
        )
        data = {
            "attacks": len(checks),
            "contended": bool(model is not None and model.contended),
            "agreeing": sum(1 for check in checks if check.agrees),
            "disagreeing": sorted(check.attack for check in checks if not check.agrees),
            "rows": [check.to_dict() for check in checks],
        }
        return Result(
            kind="simulate",
            subject="theorem1-validation",
            ok=all(check.agrees for check in checks),
            cache="none",
            data=data,
            payload=checks,
        )

    def ablate_window(
        self,
        attacks: Optional[Sequence[str]] = None,
        *,
        window_grid: Optional[Sequence[Tuple[int, int]]] = None,
        port_configs: Optional[Sequence[Tuple[str, Dict[str, Optional[int]]]]] = None,
        secret: Optional[int] = None,
        parallel: Optional[int] = None,
    ) -> Result:
        """The paper's window-length ablation, in measured cycles.

        Deprecated spelling of ``run(ScenarioSpec("window_ablation", ...))``.

        Sweeps every attack over a (ROB size, RS entries) x port-configuration
        grid of :class:`~repro.uarch.timing.scheduler.TimingModel` variants
        and reports the measured speculation-window length, the transmit /
        squash race and the port/CDB stall provenance of each run.  Runs ride
        the :meth:`simulate` content-hash cache (attack x config x secret x
        model) as one grid point per unique (scenario, model), and rows come
        back sorted by (attack, ROB, RS, ports) so parallel output is
        byte-identical to serial output.

        Each port configuration also carries a :class:`~repro.channels.
        contention.ContentionChannel` transmission: under a bounded
        configuration the FU-occupancy delta is a nonzero number of cycles
        (the covert channel works), under the unbounded machine it collapses
        to zero -- the structural reason the pre-contention timing plane
        could not measure this channel family.
        """
        return self.run(
            ScenarioSpec(
                "window_ablation",
                attacks=tuple(attacks) if attacks is not None else None,
                window_grid=(
                    tuple(tuple(point) for point in window_grid)
                    if window_grid is not None
                    else None
                ),
                port_configs=(
                    tuple((label, dict(overrides)) for label, overrides in port_configs)
                    if port_configs is not None
                    else None
                ),
                secret=secret,
            ),
            parallel=parallel,
        )

    def _run_window_ablation(self, spec: ScenarioSpec, parallel: Optional[int]) -> Result:
        from .channels.contention import (
            ContentionChannel,
            PortContentionSurface,
            WIDE_WINDOW_MODEL,
        )
        from .uarch.timing.scheduler import DEFAULT_MODEL
        from .uarch.timing.validate import SCENARIOS

        attacks = spec.get("attacks")
        window_grid = spec.get("window_grid")
        port_configs = spec.get("port_configs")
        secret = decode_secret(spec.get("secret"))
        chosen = list(attacks) if attacks is not None else sorted(SCENARIOS)
        grid = (
            [tuple(point) for point in window_grid]
            if window_grid is not None
            else list(DEFAULT_WINDOW_GRID)
        )
        configs = (
            [(label, dict(overrides)) for label, overrides in port_configs]
            if port_configs is not None
            else list(DEFAULT_PORT_CONFIGS)
        )
        combos = [
            (attack, rob, rs, label,
             replace(DEFAULT_MODEL, rob_size=rob, rs_entries=rs, **overrides))
            for attack in sorted(chosen)
            for rob, rs in grid
            for label, overrides in configs
        ]
        combos.sort(key=lambda combo: combo[:4])
        # Aliased registry attacks (the MDS siblings, the Foreshadow
        # deployments, ...) share one scenario: one grid point per unique
        # (scenario, model), run by the first alias.
        point_of: Dict[Tuple[str, "TimingModel"], int] = {}
        points: List[ScenarioSpec] = []
        for attack, _, _, _, model in combos:
            key = (SCENARIOS.get(attack, attack), model)
            if key not in point_of:
                point_of[key] = len(points)
                points.append(
                    ScenarioSpec("simulate", attack=attack, secret=secret, model=model)
                )
        results = self._run_points(points, parallel)
        rows: List[Dict[str, object]] = []
        for attack, rob, rs, label, model in combos:
            scenario = SCENARIOS.get(attack, attack)
            result = results[point_of[(scenario, model)]]
            trace = result.payload.timing if result.payload is not None else None
            row = {
                "attack": attack,
                "scenario": scenario,
                "rob_size": rob,
                "rs_entries": rs,
                "ports": label,
            }
            for name in (
                "cycles", "window_cycles", "transmit_cycle", "squash_cycle",
                "transmit_beats_squash", "leaked",
            ):
                row[name] = result.data.get(name)
            row["port_stall_cycles"] = trace.port_stall_cycles if trace else 0
            row["cdb_stall_cycles"] = trace.cdb_stall_cycles if trace else 0
            row.update(_error_field(result))
            rows.append(row)
        channel_value = 11  # arbitrary nibble-plus: exercises a multi-op burst
        channel_rows: List[Dict[str, object]] = []
        for label, overrides in configs:
            channel = ContentionChannel(
                PortContentionSurface(replace(WIDE_WINDOW_MODEL, **overrides))
            )
            observation = channel.transmit(channel_value)
            channel_rows.append(
                {
                    "ports": label,
                    "value": channel_value,
                    "recovered": observation.value,
                    "detected": observation.detected,
                    "unit_cycle_delta": channel.unit_delta,
                    "cycle_delta": observation.latencies[1] - observation.latencies[0],
                    "baseline_cycles": observation.latencies[0],
                    "probe_cycles": observation.latencies[1],
                }
            )
        data = {
            "attacks": len(chosen),
            "models": len(grid) * len(configs),
            "window_grid": [list(point) for point in grid],
            "port_configs": {label: dict(overrides) for label, overrides in configs},
            "runs": len(rows),
            "leaking": sum(1 for row in rows if row["transmit_beats_squash"]),
            "rows": rows,
            "contention_channel": channel_rows,
        }
        quarantined = _quarantined(results, data)
        return Result(
            kind="window_ablation",
            subject=f"window-ablation {len(chosen)}x{len(grid) * len(configs)}",
            ok=not quarantined,
            cache="none",
            data=data,
            payload=rows,
        )

    # -- program patching and defense ablation --------------------------------
    def patch(
        self, program: Program, protected_symbols: Optional[Sequence[str]] = None
    ) -> Result:
        """Analyze a program, insert fences, re-analyze (Figure 9 patch flow).

        Deprecated spelling of ``run(ScenarioSpec("patch", program=...))``.

        Both analyses run through this session's artifact cache; the envelope
        carries the patch summary and the patched listing.
        """
        return self.run(
            ScenarioSpec(
                "patch",
                program=program,
                protected_symbols=(
                    tuple(protected_symbols) if protected_symbols is not None else None
                ),
            )
        )

    def _run_patch(self, spec: ScenarioSpec, parallel: Optional[int]) -> Result:
        from .graphtool.patcher import patch_program

        program = decode_program(spec.get("program"), spec.get("name"))
        protected_symbols = spec.get("protected_symbols")
        patch = patch_program(program, protected_symbols, engine=self)
        data = {
            "program": program.name,
            "fences_inserted": list(patch.fences_inserted),
            "unpatchable_findings": list(patch.unpatchable_findings),
            "vulnerable_before": patch.report_before.vulnerable,
            "vulnerable_after": patch.report_after.vulnerable,
            "access_vulnerabilities_removed": patch.access_vulnerabilities_removed,
            "patched_listing": patch.patched.listing(),
        }
        return Result(
            kind="patch",
            subject=program.name,
            ok=patch.access_vulnerabilities_removed,
            cache="none",
            data=data,
            payload=patch,
        )

    def ablation(
        self,
        attack: str,
        defenses: Optional[Sequence["SimDefense"]] = None,
        secret: Optional[int] = None,
        config: Optional["UarchConfig"] = None,
        parallel: Optional[int] = None,
    ) -> Result:
        """Run one exploit with no defense, then under each simulator defense.

        Deprecated spelling of ``run(ScenarioSpec("ablation", attack=...))``.
        The per-defense runs expand to an explicit exploit grid.
        """
        return self.run(
            ScenarioSpec(
                "ablation",
                attack=attack,
                defenses=tuple(defenses) if defenses is not None else None,
                secret=secret,
                config=config,
            ),
            parallel=parallel,
        )

    def _run_ablation(self, spec: ScenarioSpec, parallel: Optional[int]) -> Result:
        from .exploits.harness import AblationRow, DEFAULT_SECRET, EXPLOITS
        from .uarch.config import DEFAULT_CONFIG
        from .uarch.defenses import SimDefense

        attack = spec.get("attack")
        if attack not in EXPLOITS:
            raise KeyError(
                f"unknown exploit {attack!r}; known: {', '.join(sorted(EXPLOITS))}"
            )
        secret = decode_secret(spec.get("secret"))
        planted = DEFAULT_SECRET if secret is None else secret
        config = decode_config(spec.get("config"))
        base = config if config is not None else DEFAULT_CONFIG
        defenses = spec.get("defenses")
        selected = (
            [decode_sim_defense(defense) for defense in defenses]
            if defenses is not None
            else list(SimDefense)
        )
        # The undefended baseline followed by one point per defense, in
        # caller order -- an explicit grid of exploit points.
        points = [
            ScenarioSpec("exploit", exploit=attack, secret=planted, config=base)
        ] + [
            ScenarioSpec(
                "exploit",
                exploit=attack,
                secret=planted,
                config=base.with_defenses(defense),
            )
            for defense in selected
        ]
        results = self._run_points(points, parallel)
        leaks = [bool(result.data.get("success")) for result in results]
        rows = [AblationRow(attack, None, leaks[0])] + [
            AblationRow(attack, defense, leaked)
            for defense, leaked in zip(selected, leaks[1:])
        ]
        baseline = rows[0]
        defended = rows[1:]
        data = {
            "attack": attack,
            "baseline_leaks": baseline.leaked,
            "defenses": len(defended),
            "effective": sum(
                1
                for row, result in zip(defended, results[1:])
                if not row.leaked and result.kind != "error"
            ),
            "rows": [
                {
                    "defense": row.defense_name,
                    "strategy": row.strategy_name,
                    "leaked": row.leaked,
                    **_error_field(result),
                }
                for row, result in zip(rows, results)
            ],
        }
        quarantined = _quarantined(results, data)
        return Result(
            kind="ablation",
            subject=attack,
            ok=any(not row.leaked for row in defended) and not quarantined,
            cache="none",
            data=data,
            payload=rows,
        )


# ---------------------------------------------------------------------------
# Row serializers shared by the sweeps and the reporting layer
# ---------------------------------------------------------------------------
def _simulate_row(
    attack: str,
    scenario: str,
    config: "UarchConfig",
    result: "ExploitResult",
    tsg_memo: Dict[str, Optional[bool]],
) -> Dict[str, object]:
    """One timing-simulation row: functional verdict + measured race.

    ``tsg_memo`` (keyed by attack name) is the session's cache of the
    Theorem-1 verdict: rebuilding the registry attack graph dominates a
    warm serve, and the verdict is deterministic per variant.
    """
    trace = result.timing
    defense_names = sorted(defense.name.lower() for defense in config.defenses)
    row: Dict[str, object] = {
        "attack": attack,
        "scenario": scenario,
        "defenses": defense_names,
        "leaked": result.success,
        "recovered": result.recovered,
        "speculative_windows": result.stats.speculative_windows,
        "transient_instructions": result.stats.transient_instructions,
    }
    if trace is not None:
        row.update(
            {
                "cycles": trace.cycles,
                "windows": len(trace.windows),
                "transmit_cycle": trace.transmit_cycle,
                "squash_cycle": trace.squash_cycle,
                "window_cycles": trace.window_cycles,
                "transmit_beats_squash": trace.transmit_beats_squash,
            }
        )
    else:  # pragma: no cover - the timing harness always records a trace
        row["transmit_beats_squash"] = result.success
    if not config.defenses:
        if attack not in tsg_memo:
            from .attacks.registry import ALL_VARIANTS
            from .defenses.evaluation import attack_succeeds

            variant = ALL_VARIANTS.get(attack)
            tsg_memo[attack] = (
                None if variant is None else attack_succeeds(variant.build_graph())
            )
        tsg_leaks = tsg_memo[attack]
        if tsg_leaks is not None:
            row["tsg_leaks"] = tsg_leaks
            row["theorem1_agrees"] = tsg_leaks == row["transmit_beats_squash"]
    return row



def _evaluation_row(evaluation: "DefenseEvaluation") -> Dict[str, object]:
    return {
        "defense": evaluation.defense_key,
        "attack": evaluation.attack_key,
        "strategy": evaluation.strategy.value,
        "applicable": evaluation.applicable,
        "leaked_before": evaluation.leaked_before,
        "leaked_after": evaluation.leaked_after,
        "effective": evaluation.effective,
        "security_edges_added": evaluation.security_edges_added,
        "notes": evaluation.notes,
    }


def _exploit_row(result: "ExploitResult") -> Dict[str, object]:
    return {
        "attack": result.attack,
        "secret": result.secret,
        "recovered": result.recovered,
        "success": result.success,
        "speculative_windows": result.stats.speculative_windows,
        "transient_instructions": result.stats.transient_instructions,
        "squashes": result.stats.squashes,
        "faults": result.stats.faults,
        "notes": result.notes,
    }


# ---------------------------------------------------------------------------
# The default session shared by the legacy free functions
# ---------------------------------------------------------------------------
_DEFAULT_ENGINE: Optional[Engine] = None


def default_engine() -> Engine:
    """The module-wide engine the legacy free functions delegate to.

    Never hands out a closed session: if the current default was closed
    (e.g. by ``set_default_engine(None)`` or a ``with`` block), the next
    caller gets a fresh engine instead of resurrecting the old one's pool.
    """
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is None or _DEFAULT_ENGINE.closed:
        _DEFAULT_ENGINE = Engine()
    return _DEFAULT_ENGINE


def set_default_engine(engine: Optional[Engine]) -> Optional[Engine]:
    """Swap the default engine (tests, custom pool sizes); returns the old one.

    ``set_default_engine(None)`` ends the default session: the engine being
    replaced has its worker pool closed (nothing else will ever drain it),
    and the next :func:`default_engine` call creates a fresh session.
    """
    global _DEFAULT_ENGINE
    previous = _DEFAULT_ENGINE
    _DEFAULT_ENGINE = engine
    if engine is None and previous is not None:
        previous.close()
    return previous


def halt_default_engine() -> None:
    """Hard-stop the default session, if any (the Ctrl-C backstop).

    Unlike ``set_default_engine(None)`` this never joins workers -- a hung
    pool would block the interpreter's exit handlers indefinitely.
    """
    if _DEFAULT_ENGINE is not None and not _DEFAULT_ENGINE.closed:
        _DEFAULT_ENGINE.halt()
