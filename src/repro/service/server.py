"""The asyncio analysis service: single-flight dedup + micro-batched grids.

One :class:`AnalysisService` owns one :class:`~repro.engine.Engine` (and
through it one artifact store).  Life of a request:

1. **decode** -- the JSON body becomes a :class:`~repro.scenario.
   ScenarioSpec`; its content hash *is* the request key.
2. **admit** -- if an entry with that hash is already in flight the request
   *attaches* to it (single-flight: attaching is free and never rejected);
   otherwise the spec joins the bounded admission queue, or is refused with
   ``503`` + ``Retry-After`` when the queue is full (backpressure).
3. **batch** -- as soon as the engine thread is free, the dispatcher takes
   whatever is queued (up to ``batch_size``; requests that arrive while a
   batch computes form the next one), groups it by kind and executes each
   group as one explicit :class:`~repro.scenario.ScenarioGrid` through
   :meth:`Engine.iter_grid` on a dedicated engine thread.  ``iter_grid``
   checkpoints every completed point through the store *before* yielding
   it, so each point is streamed back to its waiters -- and made durable --
   the moment it lands.
4. **respond** -- every waiter gets the same ``Result`` envelope, stamped
   with a request id, its hit source (``memory`` / ``disk`` /
   ``in-flight`` / ``computed``) and queue / compute / total latency.

All service state is mutated on the event-loop thread only; the engine runs
on its own single-thread executor (the engine is not thread-safe -- one
engine thread serializes all compute), with completions marshalled back via
``call_soon_threadsafe``.

Graceful drain: SIGTERM / Ctrl-C stops accepting connections, lets every
in-flight batch finish (each point already durable through the store) and
exits 0 -- a restarted server warm-serves the completed specs from disk.
"""

from __future__ import annotations

import asyncio
import itertools
import signal
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple, Union

from ..engine import Engine, Result
from ..obs.metrics import GLOBAL_REGISTRY, MetricsRegistry, render_registries
from ..obs.trace import Span, TraceContext, Tracer
from ..scenario import ScenarioGrid, ScenarioSpec
from ..store import store_label
from .protocol import (
    BadRequest,
    ExecutionFailed,
    MethodNotAllowed,
    NotFound,
    Overloaded,
    RequestError,
    decode_spec_body,
    decode_spec_payload,
    read_request,
    write_response,
)
from .stats import ServiceStats


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs of one :class:`AnalysisService`."""

    host: str = "127.0.0.1"
    #: ``0`` binds an ephemeral port (read it back from ``service.port``).
    port: int = 0
    #: Most points one dispatched grid batch carries.
    batch_size: int = 16
    #: Bound of the admission queue -- the backpressure knob.  Attaching to
    #: an in-flight entry never counts against it.
    queue_depth: int = 64
    #: Request bodies above this are refused with ``413``.
    max_body_bytes: int = 1 << 20
    #: ``Retry-After`` hint (seconds) sent with ``503`` rejections.
    retry_after: float = 1.0
    #: Worker count handed to ``Engine.iter_grid`` per batch (``None`` =
    #: the engine session default; the batch itself is the parallelism).
    parallel: Optional[int] = None
    #: JSONL trace sink.  Set (``repro serve --trace``) it opens a
    #: :class:`~repro.obs.Tracer` shared with the engine, so one file holds
    #: the full request -> entry -> batch -> grid -> worker span tree.
    trace_path: Optional[str] = None


@dataclass
class _Entry:
    """One in-flight spec: the unit of single-flight dedup."""

    spec: ScenarioSpec
    key: str
    waiters: List["asyncio.Future[Tuple[_Entry, Optional[Result]]]"] = field(
        default_factory=list
    )
    enqueued: float = 0.0
    dispatched: float = 0.0
    completed: float = 0.0
    hit: str = "computed"
    error: Optional[str] = None
    #: Tracing (set only when the service has a tracer): the entry's
    #: lifetime span and its admission->dispatch child.
    span: Optional[Span] = None
    queue_span: Optional[Span] = None

    @property
    def queue_ms(self) -> float:
        return max(0.0, (self.dispatched - self.enqueued) * 1e3)

    @property
    def compute_ms(self) -> float:
        return max(0.0, (self.completed - self.dispatched) * 1e3)


class AnalysisService:
    """Many concurrent clients multiplexed over one shared engine."""

    def __init__(self, engine: Engine, config: Optional[ServiceConfig] = None) -> None:
        self.engine = engine
        self.config = config or ServiceConfig()
        #: Service-owned registry (request/batch counters, queue gauges);
        #: ``/metrics`` renders it together with the engine's registry and
        #: the process-global one (fault injections).
        self.metrics = MetricsRegistry()
        self.stats_view = ServiceStats(registry=self.metrics)
        self._depth_gauge = self.metrics.gauge(
            "repro_service_queue_depth", "Specs waiting in the admission queue."
        )
        self._inflight_gauge = self.metrics.gauge(
            "repro_service_inflight_points", "Points currently executing."
        )
        self._draining_gauge = self.metrics.gauge(
            "repro_service_draining", "1 while the service is draining."
        )
        self.metrics.register_collector(self._sync_gauges)
        #: Tracer: ``config.trace_path`` opens a service-owned JSONL sink
        #: (shared with the engine, so grid/shard/worker spans land in the
        #: same file); otherwise an engine-attached tracer is reused.
        self._owns_tracer = self.config.trace_path is not None
        if self._owns_tracer:
            self.tracer: Optional[Tracer] = Tracer(sink=self.config.trace_path)
            engine.tracer = self.tracer
        else:
            self.tracer = engine.tracer
        self._inflight: Dict[str, _Entry] = {}
        self._queue: "List[_Entry]" = []
        self._executing = 0
        self._draining = False
        self._ids = itertools.count(1)
        self._queue_event = asyncio.Event()
        self._dispatcher: Optional[asyncio.Task] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: Set[asyncio.Task] = set()
        #: One thread: the engine is a single-session object, every batch
        #: (and every ad-hoc engine call) is serialized through it.
        self._engine_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-service-engine"
        )
        self._stats_window_base: Dict[str, object] = {}
        self.engine.register_stats("service", self.stats_view.counters)

    # -- lifecycle ------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` ephemeral binds)."""
        if self._server is None or not self._server.sockets:
            return self.config.port
        return self._server.sockets[0].getsockname()[1]

    @property
    def draining(self) -> bool:
        return self._draining

    async def start(self, *, listen: bool = True) -> None:
        """Start the dispatcher (and, by default, the listening socket)."""
        self._queue_event = asyncio.Event()
        self._dispatcher = asyncio.ensure_future(self._dispatch_loop())
        self._stats_window_base = self._engine_stats_safe()
        if listen:
            self._server = await asyncio.start_server(
                self._on_connection, self.config.host, self.config.port
            )

    async def drain(self, *, connection_grace: float = 10.0) -> None:
        """Stop accepting, finish every in-flight entry, stop the dispatcher.

        Every completed point was checkpointed through the store before its
        waiters saw it, so nothing computed here is ever lost -- a restarted
        server serves it warm from disk.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        while self._inflight or self._queue:
            # The dispatcher is doing the actual work; this just outlives it.
            self._queue_event.set()
            await asyncio.sleep(0.005)
        if self._connections:
            # Let in-flight handlers flush their responses; a wedged client
            # connection cannot hold the shutdown hostage past the grace.
            done, pending = await asyncio.wait(
                list(self._connections), timeout=connection_grace
            )
            for task in pending:
                task.cancel()
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None
        self._engine_pool.shutdown(wait=True)
        if self.tracer is not None:
            # A service-owned tracer is closed for good (the campaign file
            # is complete); an engine-attached one is only flushed -- its
            # owner decides when it ends.
            if self._owns_tracer:
                self.tracer.close()
            else:
                self.tracer.flush()

    # -- observability plumbing -----------------------------------------
    def _sync_gauges(self) -> None:
        self._depth_gauge.set(len(self._queue))
        self._inflight_gauge.set(self._executing)
        self._draining_gauge.set(1 if self._draining else 0)

    def _active_tracer(self) -> Optional[Tracer]:
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            return tracer
        return None

    # -- admission (single-flight + backpressure) -----------------------
    def _admit(
        self, spec: ScenarioSpec, parent: Optional[TraceContext] = None
    ) -> Tuple["asyncio.Future[Tuple[_Entry, Optional[Result]]]", bool]:
        """Attach to an in-flight entry or enqueue a new one.

        Returns ``(waiter_future, attached)``.  Raises :class:`Overloaded`
        when the spec is new and the admission queue is at depth (attaching
        costs nothing, so it is always allowed -- even mid-drain).
        ``parent`` is the admitting request's trace context: a *new* entry
        opens its single-flight span under it (attaching requests share the
        first admitter's entry, exactly like they share its computation).
        """
        key = spec.content_hash()
        loop = asyncio.get_running_loop()
        entry = self._inflight.get(key)
        if entry is not None:
            waiter = loop.create_future()
            entry.waiters.append(waiter)
            self.stats_view.record_request()
            self.stats_view.record_hit("in-flight")
            return waiter, True
        if self._draining:
            self.stats_view.record_rejection()
            raise Overloaded(
                "server is draining; retry against the restarted instance",
                code="draining",
                retry_after=self.config.retry_after,
            )
        if len(self._queue) >= self.config.queue_depth:
            self.stats_view.record_rejection()
            raise Overloaded(
                f"admission queue is full ({len(self._queue)} specs queued); "
                "retry shortly",
                retry_after=self.config.retry_after,
            )
        entry = _Entry(spec=spec, key=key, enqueued=time.perf_counter())
        tracer = self._active_tracer()
        if tracer is not None:
            # Detached: entry spans finish from completion callbacks in
            # arbitrary order -- they must not join the loop thread's stack.
            entry.span = tracer.span(
                "service.entry", parent=parent, detached=True,
                kind=spec.kind, key=key[:12],
            )
            entry.queue_span = tracer.span(
                "service.queue", parent=entry.span, detached=True
            )
        waiter = loop.create_future()
        entry.waiters.append(waiter)
        self._inflight[key] = entry
        self._queue.append(entry)
        self._queue_event.set()
        self.stats_view.record_request()
        return waiter, False

    # -- the dispatcher: queue -> kind-grouped grid batches --------------
    async def _dispatch_loop(self) -> None:
        config = self.config
        while True:
            while not self._queue:
                self._queue_event.clear()
                await self._queue_event.wait()
            batch = self._queue[: config.batch_size]
            del self._queue[: len(batch)]
            groups: Dict[str, List[_Entry]] = {}
            for entry in batch:
                groups.setdefault(entry.spec.kind, []).append(entry)
            for entries in groups.values():
                # Explicit grids are single-kind; awaiting here serializes
                # batches through the one engine thread by construction.
                await self._execute_batch(entries)

    async def _execute_batch(self, entries: List[_Entry]) -> None:
        loop = asyncio.get_running_loop()
        tracer = self._active_tracer()
        now = time.perf_counter()
        for entry in entries:
            entry.dispatched = now
            if tracer is not None and entry.queue_span is not None:
                tracer.finish(entry.queue_span)
                entry.queue_span = None
        self.stats_view.record_batch(len(entries))
        self._executing += len(entries)
        grid = ScenarioGrid.explicit([entry.spec for entry in entries])
        parallel = self.config.parallel
        batch_parent = entries[0].span.context() if (
            tracer is not None and entries[0].span is not None
        ) else None

        def run_grid() -> None:
            # The batch span opens *on the engine thread*, un-detached, so
            # engine.iter_grid (and through it shard and worker spans)
            # parent onto it via the thread-local stack; its own parent is
            # the first admitted entry's span, linking batch execution back
            # to the request that triggered the dispatch.
            span = (
                tracer.span(
                    "service.batch", parent=batch_parent,
                    points=len(entries), kind=grid.kind,
                )
                if tracer is not None
                else None
            )
            try:
                for point in self.engine.iter_grid(grid, parallel=parallel):
                    loop.call_soon_threadsafe(
                        self._complete,
                        entries[point.index],
                        point.result,
                        point.from_store,
                    )
            except BaseException as exc:  # noqa: BLE001 - marshalled to waiters
                message = f"{exc.__class__.__name__}: {exc}"
                loop.call_soon_threadsafe(self._fail_remaining, entries, message)
            finally:
                if span is not None:
                    tracer.finish(span)

        try:
            await loop.run_in_executor(self._engine_pool, run_grid)
        except RuntimeError:  # pool already shut down mid-drain
            self._fail_remaining(entries, "service executor is shut down")

    def _complete(self, entry: _Entry, result: Result, from_store: bool) -> None:
        """One grid point landed: classify the hit, wake every waiter.

        Only a checkpoint the store served is a store hit; a point the
        engine answered from its in-memory artifact caches still counts
        as computed.
        """
        if self._inflight.get(entry.key) is not entry:
            return  # already failed via _fail_remaining
        entry.completed = time.perf_counter()
        entry.hit = store_label(self.engine.store) if from_store else "computed"
        self.stats_view.record_hit(entry.hit)
        self._finish(entry, result)

    def _fail_remaining(self, entries: List[_Entry], message: str) -> None:
        """A batch executor raised: fail every entry that never completed."""
        for entry in entries:
            if self._inflight.get(entry.key) is not entry:
                continue  # completed already -- or a newer entry owns the key
            entry.completed = time.perf_counter()
            entry.error = message
            self.stats_view.record_error()
            self._finish(entry, None)

    def _finish(self, entry: _Entry, result: Optional[Result]) -> None:
        if self._inflight.get(entry.key) is entry:
            del self._inflight[entry.key]
        self._executing = max(0, self._executing - 1)
        tracer = self._active_tracer()
        if tracer is not None:
            if entry.queue_span is not None:  # failed before dispatch
                tracer.finish(entry.queue_span)
                entry.queue_span = None
            if entry.span is not None:
                entry.span.set(hit=entry.hit, waiters=len(entry.waiters))
                if entry.error is not None:
                    entry.span.set(error=entry.error)
                tracer.finish(entry.span)
        for waiter in entry.waiters:
            if not waiter.done():  # a cancelled waiter left the party early
                waiter.set_result((entry, result))

    # -- the request path ------------------------------------------------
    def next_request_id(self) -> str:
        return f"req-{next(self._ids):06d}"

    async def request(
        self,
        payload: Union[ScenarioSpec, Dict[str, object]],
        *,
        request_id: Optional[str] = None,
    ) -> Dict[str, object]:
        """Submit one spec and await its envelope (the in-process client).

        Raises :class:`RequestError` on rejection or executor failure.
        Cancelling the awaiting task abandons only *this* waiter; the shared
        computation (and every other waiter) is untouched.
        """
        spec = (
            payload
            if isinstance(payload, ScenarioSpec)
            else decode_spec_payload(payload)
        )
        if request_id is None:
            request_id = self.next_request_id()
        tracer = self._active_tracer()
        span = (
            tracer.span(
                "service.request", detached=True,
                request_id=request_id, kind=spec.kind,
            )
            if tracer is not None
            else None
        )
        arrival = time.perf_counter()
        try:
            waiter, attached = self._admit(
                spec, span.context() if span is not None else None
            )
            entry, result = await waiter
        except BaseException as exc:
            if span is not None:
                tracer.finish(span.set(error=exc.__class__.__name__))
            raise
        total_ms = (time.perf_counter() - arrival) * 1e3
        if span is not None:
            hit_label = "in-flight" if attached else entry.hit
            span.set(hit=hit_label, ok=entry.error is None)
            tracer.finish(span)
        if entry.error is not None or result is None:
            raise ExecutionFailed(entry.error or "spec execution failed")
        hit = "in-flight" if attached else entry.hit
        self.stats_view.record_completion(entry.queue_ms, entry.compute_ms, total_ms)
        return {
            "request_id": request_id,
            "ok": result.ok,
            "hit": hit,
            "spec": {"kind": spec.kind, "content_hash": entry.key},
            "latency_ms": {
                "queue": round(entry.queue_ms, 3),
                "compute": round(entry.compute_ms, 3),
                "total": round(total_ms, 3),
            },
            "result": result.to_dict(),
        }

    # -- observability ----------------------------------------------------
    def _engine_stats_safe(self) -> Dict[str, object]:
        """``engine.stats()`` read from the loop thread.

        The engine thread may be mid-batch; a dict that grows under
        iteration raises ``RuntimeError``, so retry a few times and settle
        for an empty report rather than failing ``/stats``.
        """
        for _ in range(5):
            try:
                return self.engine.stats()
            except RuntimeError:
                continue
        return {}

    def stats(self) -> Dict[str, object]:
        """The ``/stats`` document: service gauges + engine counters + window."""
        engine_stats = self._engine_stats_safe()
        window = Engine.stats_delta(self._stats_window_base, engine_stats)
        self._stats_window_base = engine_stats
        return {
            "service": self.stats_view.snapshot(
                depth=len(self._queue), inflight=self._executing
            ),
            "engine": engine_stats,
            "window": window,
        }

    def metrics_text(self) -> str:
        """The ``/metrics`` document: every registry, Prometheus text format.

        One scrape unifies the service registry (requests, batches, queue
        gauges), the engine registry (cache/run/grid counters plus the
        store ledger synced on scrape) and the process-global registry
        (fault injections).
        """
        return render_registries(self.metrics, self.engine.metrics, GLOBAL_REGISTRY)

    # -- the HTTP face ----------------------------------------------------
    def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.ensure_future(self._handle_connection(reader, writer))
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        request_id = self.next_request_id()
        try:
            try:
                method, target, _headers, body = await read_request(
                    reader, self.config.max_body_bytes
                )
                path = target.partition("?")[0]
                status, envelope, headers = await self._route(
                    request_id, method, path, body
                )
            except RequestError as exc:
                status, envelope, headers = (
                    exc.status,
                    exc.envelope(request_id),
                    exc.headers(),
                )
            except (ConnectionError, asyncio.CancelledError):
                raise
            except Exception as exc:  # noqa: BLE001 - never crash the loop
                failure = ExecutionFailed(f"{exc.__class__.__name__}: {exc}")
                status, envelope, headers = (
                    failure.status,
                    failure.envelope(request_id),
                    failure.headers(),
                )
            await write_response(writer, status, envelope, headers)
        except (ConnectionError, asyncio.CancelledError):
            pass  # client vanished or drain grace expired
        finally:
            try:
                writer.close()
            except Exception:  # pragma: no cover - transport already gone
                pass

    async def _route(
        self, request_id: str, method: str, path: str, body: bytes
    ) -> Tuple[int, Union[Dict[str, object], str], Dict[str, str]]:
        if path == "/run":
            if method != "POST":
                raise MethodNotAllowed("POST /run")
            spec = decode_spec_body(body)
            envelope = await self.request(spec, request_id=request_id)
            return 200, envelope, {}
        if path == "/stats":
            if method != "GET":
                raise MethodNotAllowed("GET /stats")
            return 200, self.stats(), {}
        if path == "/metrics":
            if method != "GET":
                raise MethodNotAllowed("GET /metrics")
            # Rendered as Prometheus text exposition, not JSON.
            return 200, self.metrics_text(), {}
        if path == "/healthz":
            if method != "GET":
                raise MethodNotAllowed("GET /healthz")
            return 200, {
                "ok": True,
                "draining": self._draining,
                "depth": len(self._queue),
                "inflight": self._executing,
            }, {}
        raise NotFound(f"no such endpoint: {path}")


# ---------------------------------------------------------------------------
# Running a service: blocking loop (CLI) and background thread (tests/bench)
# ---------------------------------------------------------------------------
def serve(engine: Engine, config: Optional[ServiceConfig] = None) -> int:
    """Run a service until SIGTERM / SIGINT, then drain gracefully.

    The blocking body of ``repro serve``.  Prints the bound address on
    stdout once listening (machine-readable: tests and scripts wait for
    it); drain progress goes to stderr.
    """

    async def body() -> None:
        service = AnalysisService(engine, config)
        await service.start()
        print(
            f"repro-service listening on http://{service.config.host}:{service.port}",
            flush=True,
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-Unix loop: Ctrl-C falls back to KeyboardInterrupt
        await stop.wait()
        print(
            "repro-service draining: completing in-flight work "
            "(checkpointed through the store) ...",
            file=sys.stderr,
            flush=True,
        )
        await service.drain()
        counters = service.stats_view.counters()
        print(
            f"repro-service drained: {counters['completed']} completed, "
            f"{counters['rejected']} rejected, hit-rate "
            f"{service.stats_view.hit_rate:.2%}",
            file=sys.stderr,
            flush=True,
        )

    try:
        asyncio.run(body())
    except KeyboardInterrupt:  # pragma: no cover - non-Unix fallback
        return 130
    return 0


class ServiceThread:
    """A service on a background thread with its own event loop.

    The in-process harness used by tests, the quickstart example and the
    load benchmark: ``with ServiceThread(engine) as handle:`` yields a
    running server whose ``handle.url`` stdlib clients can hit, and the
    exit path drains it gracefully.
    """

    def __init__(
        self, engine: Optional[Engine] = None, config: Optional[ServiceConfig] = None
    ) -> None:
        self.engine = engine if engine is not None else Engine()
        self.config = config or ServiceConfig()
        self.service: Optional[AnalysisService] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread = None
        self._ready = None
        self._stop: Optional[asyncio.Event] = None
        self._startup_error: Optional[BaseException] = None

    @property
    def url(self) -> str:
        assert self.service is not None, "ServiceThread not started"
        return f"http://{self.config.host}:{self.service.port}"

    def start(self) -> "ServiceThread":
        import threading

        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("service thread never came up")
        if self._startup_error is not None:
            raise RuntimeError("service failed to start") from self._startup_error
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop

        async def body() -> None:
            self._stop = asyncio.Event()
            service = AnalysisService(self.engine, self.config)
            try:
                await service.start()
            except BaseException as exc:
                self._startup_error = exc
                self._ready.set()
                raise
            self.service = service
            self._ready.set()
            await self._stop.wait()
            await service.drain()

        try:
            loop.run_until_complete(body())
        except BaseException:  # noqa: BLE001 - surfaced via _startup_error
            pass
        finally:
            loop.close()

    def stop(self, timeout: float = 30.0) -> None:
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:  # loop already closed
                pass
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
