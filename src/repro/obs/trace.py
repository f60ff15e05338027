"""Cross-process span tracing with a JSONL sink.

A :class:`Tracer` hands out context-manager :class:`Span` objects (name,
attrs, wall-clock start, monotonic duration, parent id) and keeps a
per-thread span stack so nested work parents itself automatically.  Two
extra moves make the traces *cross-process*:

* :class:`TraceContext` is a tiny picklable ``(trace_id, parent_id)``
  pair.  The engine ships one to each pool worker inside the existing
  ``(store_ref, faults, item)`` task tuples; the worker opens a
  collect-mode tracer (``sink=None``), runs its points under spans
  parented on the shipped context, and returns the finished span records
  *with* its results.  The parent absorbs them into its own sink, so one
  JSONL file holds the service request, the batch, the grid, the shard
  and the worker point -- a full request -> worker critical path.
* Spans that finish on a different thread than they started (service
  entries completed by the event loop, shard spans finished by
  ``as_completed``) are started ``detached=True``: they resolve their
  parent from the stack but never join it, so out-of-order finishes
  cannot corrupt sibling parentage.

The sink buffers up to ``buffer_limit`` records and flushes them as one
``write()`` on an append-mode handle -- concurrent flushes (or a second
process absorbed later) interleave whole lines, never partial ones.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
import uuid
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union


def _new_id() -> str:
    return uuid.uuid4().hex[:16]


@dataclass(frozen=True)
class TraceContext:
    """The picklable hop: which trace, and which span to parent on."""

    trace_id: str
    parent_id: Optional[str] = None


class Span:
    """One timed operation; finish via ``with`` or :meth:`Tracer.finish`."""

    __slots__ = (
        "name", "span_id", "trace_id", "parent_id", "attrs",
        "start", "_t0", "duration_ms", "_tracer", "_finished", "_detached",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        trace_id: str,
        parent_id: Optional[str],
        attrs: Dict[str, object],
        detached: bool,
    ) -> None:
        self.name = name
        self.span_id = _new_id()
        self.trace_id = trace_id
        self.parent_id = parent_id
        self.attrs = attrs
        self.start = time.time()
        self._t0 = time.perf_counter()
        self.duration_ms: Optional[float] = None
        self._tracer = tracer
        self._finished = False
        self._detached = detached

    def set(self, **attrs: object) -> "Span":
        self.attrs.update(attrs)
        return self

    def context(self) -> TraceContext:
        """The context that parents child spans on this one."""
        return TraceContext(self.trace_id, self.span_id)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer.finish(self)

    def record(self) -> Dict[str, object]:
        return {
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "pid": os.getpid(),
            "ts": self.start,
            "dur_ms": self.duration_ms,
            "attrs": self.attrs,
        }


class _NullSpan:
    """The disabled-tracer span: every operation is a no-op."""

    __slots__ = ()
    name = ""
    span_id = ""
    trace_id = ""
    parent_id = None
    duration_ms = None

    def set(self, **attrs: object) -> "_NullSpan":
        return self

    def context(self) -> None:
        return None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


NULL_SPAN = _NullSpan()


class _DroppedSpan:
    """A span inside a sampled-out tree.

    Unlike the shared :data:`NULL_SPAN`, a dropped span notifies its tracer
    on finish: the tracer counts unfinished dropped spans per thread, so
    every descendant started while a dropped ancestor is open joins the
    same dropped tree -- sampling decisions are per *tree*, never per span.
    ``context()`` is ``None``: a cross-process hop inside a dropped tree
    ships no context, and the worker runs untraced.
    """

    __slots__ = ("_tracer", "_finished")
    name = ""
    span_id = ""
    trace_id = ""
    parent_id = None
    duration_ms = None

    def __init__(self, tracer: "Tracer") -> None:
        self._tracer = tracer
        self._finished = False

    def set(self, **attrs: object) -> "_DroppedSpan":
        return self

    def context(self) -> None:
        return None

    def __enter__(self) -> "_DroppedSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer.finish(self)


ParentLike = Union[None, Span, TraceContext, str]


class Tracer:
    """Span factory + sink.  ``sink=None`` collects records for harvesting.

    A tracer with a ``sink`` path appends JSONL records (buffered, flushed
    as single writes); a sink-less tracer runs in *collect mode* -- the
    pool-worker configuration -- where :meth:`drain` returns the finished
    records so they can travel back with the worker's results and be
    :meth:`absorb`-ed by the parent process.  ``enabled=False`` makes
    every ``span()`` call return the shared no-op span, and the engine reads
    nothing of an attached disabled tracer but ``enabled`` (``repro perf``
    counts those reads).

    ``sample_rate`` head-samples whole span *trees*: when a root span (no
    open ancestor on its thread, no explicit parent) draws above the rate,
    it and every descendant -- including detached spans and anything
    started while it is open -- become dropped spans that emit nothing,
    and :meth:`current_context` returns ``None`` inside the dropped tree
    so pool workers run untraced rather than orphan half a tree.  Trees
    are kept or dropped atomically; a 1%-sampled fuzz campaign writes 1%
    of the *campaigns*, not a 1% shred of every campaign.  ``sample_seed``
    makes the decisions reproducible.
    """

    def __init__(
        self,
        sink: Optional[Union[str, "os.PathLike[str]"]] = None,
        *,
        trace_id: Optional[str] = None,
        buffer_limit: int = 256,
        enabled: bool = True,
        sample_rate: float = 1.0,
        sample_seed: Optional[int] = None,
    ) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(
                f"sample_rate must be in [0, 1], got {sample_rate!r}"
            )
        self.enabled = enabled
        self.trace_id = trace_id or _new_id()
        self.sink = os.fspath(sink) if sink is not None else None
        self.buffer_limit = max(1, buffer_limit)
        self.sample_rate = sample_rate
        self._sample_rng = random.Random(sample_seed)
        self._buffer: List[str] = []
        self._collected: List[Dict[str, object]] = []
        self._handle = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._emitted = 0
        self._closed = False

    # -- span lifecycle -----------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _resolve_parent(self, parent: ParentLike) -> Optional[str]:
        if parent is None:
            stack = self._stack()
            return stack[-1].span_id if stack else None
        if isinstance(parent, Span):
            return parent.span_id
        if isinstance(parent, TraceContext):
            return parent.parent_id
        return parent

    def span(
        self, name: str, *, parent: ParentLike = None, detached: bool = False,
        **attrs: object,
    ) -> Union[Span, _NullSpan]:
        """Start a span (context manager).  ``parent`` overrides the thread
        stack -- pass the shipped :class:`TraceContext` on the worker side,
        or an explicit request span across threads."""
        if not self.enabled:
            return NULL_SPAN
        if self.sample_rate < 1.0:
            if self._drop_depth() > 0:
                # Inside a dropped tree: every span joins the drop.
                return self._start_dropped()
            if (
                parent is None
                and not self._stack()
                and self._sample_rng.random() >= self.sample_rate
            ):
                # A new root drew above the rate: drop the whole tree.
                return self._start_dropped()
        span = Span(self, name, self.trace_id, self._resolve_parent(parent),
                    dict(attrs), detached)
        if not detached:
            self._stack().append(span)
        return span

    def _drop_depth(self) -> int:
        return getattr(self._local, "drop_depth", 0)

    def _start_dropped(self) -> _DroppedSpan:
        self._local.drop_depth = self._drop_depth() + 1
        return _DroppedSpan(self)

    def finish(self, span: Union[Span, _NullSpan, _DroppedSpan]) -> None:
        if isinstance(span, _DroppedSpan):
            if not span._finished:
                span._finished = True
                self._local.drop_depth = max(0, self._drop_depth() - 1)
            return
        if isinstance(span, _NullSpan) or span._finished:
            return
        span._finished = True
        span.duration_ms = (time.perf_counter() - span._t0) * 1000.0
        if not span._detached:
            stack = self._stack()
            if span in stack:
                stack.remove(span)
        self._emit(span.record())

    def current_context(self) -> Optional[TraceContext]:
        """The context a cross-process hop should ship (``None`` when no
        span is open on this thread or the tracer is disabled).  Inside a
        sampled-out tree the context is ``None`` too: the hop's worker runs
        untraced instead of shipping spans nobody will keep."""
        if not self.enabled:
            return None
        if self._drop_depth() > 0:
            return None
        stack = self._stack()
        if not stack:
            return TraceContext(self.trace_id, None)
        return stack[-1].context()

    # -- sink ---------------------------------------------------------------
    def _emit(self, record: Dict[str, object]) -> None:
        with self._lock:
            self._emitted += 1
            if self.sink is None:
                self._collected.append(record)
                return
            self._buffer.append(json.dumps(record, sort_keys=True, default=str))
            if len(self._buffer) >= self.buffer_limit:
                self._flush_locked()

    def absorb(self, records: Sequence[Dict[str, object]]) -> int:
        """Adopt finished span records harvested from a worker process."""
        for record in records:
            self._emit(dict(record))
        return len(records)

    def drain(self) -> List[Dict[str, object]]:
        """Collect-mode harvest: the finished records, cleared."""
        with self._lock:
            records, self._collected = self._collected, []
        return records

    def _flush_locked(self) -> None:
        if not self._buffer:
            return
        if self._handle is None:
            self._handle = open(self.sink, "a", encoding="utf-8")
        self._handle.write("\n".join(self._buffer) + "\n")
        self._handle.flush()
        self._buffer.clear()

    def flush(self) -> None:
        with self._lock:
            if self.sink is not None:
                self._flush_locked()

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self.sink is not None:
                self._flush_locked()
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def emitted(self) -> int:
        """Finished spans emitted (buffered, flushed or collected)."""
        return self._emitted


def read_trace(path: Union[str, "os.PathLike[str]"]) -> List[Dict[str, object]]:
    """Load a JSONL trace file (blank lines skipped)."""
    records: List[Dict[str, object]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
