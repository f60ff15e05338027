"""Pluggable artifact stores: where :meth:`Engine.run` results live.

The :class:`~repro.engine.Engine` session caches *artifacts* (builds,
analyses, timing simulations, ...) in per-kind in-memory dictionaries; those
die with the process.  This module adds a second, spec-level layer: any
:class:`~repro.scenario.ScenarioSpec` result envelope can be persisted in an
:class:`ArtifactStore` keyed by the spec's content hash, so a CLI or CI
invocation that re-runs an identical experiment point is served from the
store instead of recomputing -- across processes, when the store is a
:class:`DiskStore`.

Three implementations:

* :class:`MemoryStore` -- an in-process LRU dictionary.  Useful for tests and
  for long-lived sessions that want spec-level (whole-sweep) memoization on
  top of the engine's per-artifact caches.
* :class:`DiskStore` -- the persistent store.  Pickled
  :class:`~repro.engine.Result` envelopes live under
  ``~/.cache/repro/<version>/<hh>/<hash>.pkl`` (``hh`` = the first two hash
  characters; override the root with ``REPRO_CACHE_DIR`` or ``root=``).  The
  ``version`` segment is the *code version*: bumping
  :data:`CODE_VERSION` (or passing a custom ``version=``) orphans every
  previously cached payload, which is how result-shape changes invalidate
  stale artifacts without touching the content-hash scheme.  Reads touch the
  entry (LRU); writes are atomic (temp file + ``os.replace``) and evict the
  least-recently-used entries beyond ``max_entries``.  A corrupted or
  truncated pickle is treated as a miss and deleted, so the engine falls
  back to recomputing and rewrites a good entry.
* :class:`ArtifactStore` -- the :class:`typing.Protocol` the engine codes
  against; bring your own (memcached, S3, ...) by implementing four methods.

Stores never interpret the values they hold -- the engine decides what is
cacheable and how to mark provenance.
"""

from __future__ import annotations

import itertools
import os
import pickle
from collections import OrderedDict
from pathlib import Path
from typing import Dict, Iterator, Optional, Protocol, Set, Tuple, runtime_checkable

#: Version tag of the cached artifact layout.  Part of every
#: :class:`DiskStore` path: bump it when the pickled ``Result`` shapes (or
#: the analyses behind them) change incompatibly, and every old entry is
#: invalidated at once without touching the spec content-hash scheme.
CODE_VERSION = "2"

#: Environment variable overriding the default on-disk cache root.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default on-disk cache root (``~/.cache/repro``).
DEFAULT_CACHE_ROOT = Path.home() / ".cache" / "repro"

#: Process-wide uniquifier for temp-file names: combined with the pid it
#: makes every in-flight write target distinct without a mkstemp random
#: probe loop on the hot put path.
_tmp_counter = itertools.count()


@runtime_checkable
class ArtifactStore(Protocol):
    """What the engine needs from a store: get / put / stats / clear.

    Keys are content-hash strings (hex); values are picklable objects --
    in practice :class:`~repro.engine.Result` envelopes.  ``get`` returns
    ``None`` on a miss (and must never raise on a damaged entry), ``put``
    returns ``True`` when the value was actually persisted, ``stats``
    reports at least ``entries`` / ``hits`` / ``misses``, and ``clear``
    drops everything, returning the number of entries removed.
    """

    #: ``True`` when ``get`` returns (and ``put`` keeps) the very object the
    #: caller handed over, so the engine must snapshot mutable envelope data
    #: around the store.  Serializing stores (disk, network) set this
    #: ``False`` -- their round-trip already decouples every value.
    aliases_values: bool = True

    def get(self, key: str) -> Optional[object]: ...  # pragma: no cover

    def put(self, key: str, value: object) -> bool: ...  # pragma: no cover

    def stats(self) -> Dict[str, int]: ...  # pragma: no cover

    def clear(self) -> int: ...  # pragma: no cover


def _strippable(value: object) -> Optional[object]:
    """A copy of a ``Result``-shaped value without its rich payload.

    Some payloads (open file handles, lambdas in user-built objects) cannot
    cross a pickle boundary; the envelope ``data`` always can.  Returns the
    stripped copy, or ``None`` when the value has no ``payload`` to strip.
    """
    from dataclasses import is_dataclass, replace

    if is_dataclass(value) and hasattr(value, "payload"):
        return replace(value, payload=None)
    return None


def _dumps(value: object) -> Optional[bytes]:
    """Pickle a value, stripping the payload as a fallback; ``None`` if hopeless."""
    try:
        return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        stripped = _strippable(value)
        if stripped is None:
            return None
        try:
            return pickle.dumps(stripped, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return None


class MemoryStore:
    """An in-process LRU artifact store (the spec-level memo dictionary)."""

    aliases_values = True

    def __init__(self, max_entries: Optional[int] = 4096) -> None:
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, object]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._puts = 0
        self._evictions = 0

    def get(self, key: str) -> Optional[object]:
        try:
            value = self._entries[key]
        except KeyError:
            self._misses += 1
            return None
        self._entries.move_to_end(key)  # LRU touch
        self._hits += 1
        return value

    def put(self, key: str, value: object) -> bool:
        self._entries[key] = value
        self._entries.move_to_end(key)
        self._puts += 1
        if self.max_entries is not None:
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self._evictions += 1
        return True

    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self._entries),
            "hits": self._hits,
            "misses": self._misses,
            "puts": self._puts,
            "put_failures": 0,  # a dictionary insert cannot fail
            "evictions": self._evictions,
        }

    def clear(self) -> int:
        dropped = len(self._entries)
        self._entries.clear()
        return dropped


class DiskStore:
    """The disk-persistent artifact store (survives CLI / CI invocations).

    Layout: ``<root>/<version>/<hh>/<hash>.pkl`` where ``hh`` is the first
    two characters of the content hash (keeps directories small at tens of
    thousands of entries).  ``version`` defaults to :data:`CODE_VERSION`.

    Hit/miss counters are per-instance (per process); ``entries`` and
    ``bytes`` are measured on disk, so two processes sharing one root see
    each other's writes -- that cross-process reuse is the point.

    Every path is safe against concurrent siblings: entries deleted under
    an LRU walk or between read and touch are tolerated, version/bucket
    directory creation races are absorbed (a put retries once when its
    bucket vanishes mid-write), and only a *corrupt* entry is ever deleted
    by ``get`` -- a transient read error is just a miss.
    """

    aliases_values = False  # every get/put round-trips through pickle

    def __init__(
        self,
        root: Optional[object] = None,
        *,
        version: Optional[str] = None,
        max_entries: Optional[int] = 4096,
    ) -> None:
        if root is None:
            root = os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_ROOT
        self.root = Path(root)
        self.version = version if version is not None else CODE_VERSION
        self.max_entries = max_entries
        self._hits = 0
        self._misses = 0
        #: Persist outcomes.  ``put`` returning ``False`` used to be
        #: invisible (a write-only signal nobody read); the counters make a
        #: store that is silently failing to persist observable in
        #: ``stats()`` -- and through it in ``Engine.stats()["store"]`` and
        #: the service's ``/stats``.
        self._puts = 0
        self._put_failures = 0
        self._evictions = 0
        #: Approximate on-disk entry count, so a put under the limit does
        #: not pay a full directory scan.  Initialized lazily by the first
        #: eviction check; concurrent writers can make it drift (it is
        #: re-trued by every real eviction scan), which only means eviction
        #: may trigger a put early or late -- never incorrectly.
        self._entry_estimate: Optional[int] = None
        #: Bucket directories this instance has already created, so the
        #: per-put fast path skips the mkdir syscall.  A bucket removed
        #: behind our back (external cleanup) is detected by the failed
        #: temp-file open and recreated.
        self._seen_buckets: Set[str] = set()

    # Workers of a sharded grid reconstruct the store from (root, version,
    # max_entries) on their side of the process boundary.
    def __reduce__(self):
        return (
            _rebuild_disk_store,
            (str(self.root), self.version, self.max_entries),
        )

    @property
    def directory(self) -> Path:
        """The version-scoped directory every entry of this store lives in."""
        return self.root / self.version

    def _path(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.pkl"

    def _iter_entries(self) -> Iterator[Path]:
        # Listed eagerly per directory level: a concurrent evictor (another
        # process sharing the root) may delete buckets or entries mid-walk,
        # and a lazy glob would raise out of the iterator at the call site.
        try:
            buckets = list(self.directory.iterdir())
        except OSError:
            return
        for bucket in buckets:
            try:
                children = list(bucket.iterdir())
            except OSError:  # bucket raced away under the walk
                continue
            for path in children:
                if path.suffix == ".pkl":
                    yield path

    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[object]:
        path = self._path(key)
        try:
            blob = path.read_bytes()
        except OSError:
            # Missing entry -- or a transient read failure (the entry was
            # evicted under us by a concurrent process, a permission hiccup):
            # either way a plain miss.  Only *corruption* warrants deleting,
            # a failed read must never destroy a possibly healthy entry.
            self._misses += 1
            return None
        try:
            value = pickle.loads(blob)
        except Exception:
            # Corrupted / truncated entry (a killed writer, a partial disk):
            # drop it and report a miss so the caller recomputes and the next
            # put() rewrites a good entry.
            self._misses += 1
            try:
                path.unlink()
                if self._entry_estimate:
                    self._entry_estimate -= 1
            except OSError:  # pragma: no cover - racing cleaner
                pass
            return None
        self._hits += 1
        try:
            os.utime(path)  # LRU touch: eviction drops the oldest access
        except OSError:  # pragma: no cover - entry raced away
            pass
        return value

    def put(self, key: str, value: object) -> bool:
        persisted = self._write(key, value)
        if persisted:
            self._puts += 1
        else:
            self._put_failures += 1
        return persisted

    def _write(self, key: str, value: object) -> bool:
        blob = _dumps(value)
        if blob is None:
            return False
        path = self._path(key)
        bucket = path.parent
        # Two rounds: the second absorbs a bucket directory deleted between
        # our mkdir/cached check and the temp-file open (a concurrent
        # cleaner racing version-dir creation).
        for _ in range(2):
            if bucket.name not in self._seen_buckets:
                try:
                    bucket.mkdir(parents=True, exist_ok=True)
                except OSError:  # a non-directory in the way, permissions
                    return False
                self._seen_buckets.add(bucket.name)
            tmp = bucket / f".{key[:8]}-{os.getpid()}-{next(_tmp_counter)}.tmp"
            try:
                fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
            except OSError:
                self._seen_buckets.discard(bucket.name)
                continue
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(blob)
                os.replace(tmp, path)  # atomic: readers never see a torn file
            except OSError:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                self._seen_buckets.discard(bucket.name)
                continue
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
            if self._entry_estimate is not None:
                # Overwrites of an existing key inflate the estimate (there
                # is no per-put stat on the fast path); an early eviction
                # scan re-trues it, so the drift is only ever a scan early.
                self._entry_estimate += 1
            self._evict()
            return True
        return False

    def _entry_age(self, path: Path) -> Tuple[int, str]:
        try:
            return (path.stat().st_mtime_ns, path.name)
        except OSError:  # pragma: no cover - entry raced away
            return (0, path.name)

    def _evict(self) -> int:
        """Drop least-recently-used entries beyond ``max_entries``.

        The full directory scan only runs when the (approximate) entry count
        actually exceeds the limit; a store below its bound pays one lazy
        initial count and O(1) bookkeeping per put afterwards.
        """
        if self.max_entries is None:
            return 0
        if self._entry_estimate is None:
            self._entry_estimate = sum(1 for _ in self._iter_entries())
        if self._entry_estimate <= self.max_entries:
            return 0
        entries = sorted(self._iter_entries(), key=self._entry_age)
        dropped = 0
        while len(entries) - dropped > self.max_entries:
            try:
                entries[dropped].unlink()
            except OSError:  # pragma: no cover - racing cleaner
                pass
            dropped += 1
        self._entry_estimate = len(entries) - dropped
        self._evictions += dropped
        return dropped

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        entries = 0
        total_bytes = 0
        for path in self._iter_entries():
            try:
                total_bytes += path.stat().st_size
            except OSError:  # pragma: no cover - entry raced away
                continue
            entries += 1
        return {
            "entries": entries,
            "bytes": total_bytes,
            "hits": self._hits,
            "misses": self._misses,
            "puts": self._puts,
            "put_failures": self._put_failures,
            "evictions": self._evictions,
        }

    def clear(self) -> int:
        dropped = 0
        for path in self._iter_entries():
            try:
                path.unlink()
                dropped += 1
            except OSError:  # pragma: no cover - racing cleaner
                pass
        self._entry_estimate = 0
        return dropped


def _rebuild_disk_store(root: str, version: str, max_entries: Optional[int]) -> DiskStore:
    return DiskStore(root, version=version, max_entries=max_entries)


def store_label(store: Optional[object]) -> str:
    """The hit-source name of a store layer: ``disk`` / ``memory`` / ``none``.

    Serializing stores (``aliases_values is False``) are "disk-class" --
    the value survived a process boundary; aliasing stores are in-memory.
    The analysis service stamps warm hits with this label.
    """
    if store is None:
        return "none"
    return "memory" if getattr(store, "aliases_values", True) else "disk"


def open_store(selector: Optional[str]) -> Optional[object]:
    """Build a store from a CLI-style selector.

    ``None``/``""`` -> no store, ``"memory"`` -> :class:`MemoryStore`,
    ``"disk"`` -> :class:`DiskStore` on the default root, anything else is
    taken as a directory path for a :class:`DiskStore`.
    """
    if not selector:
        return None
    if selector == "memory":
        return MemoryStore()
    if selector == "disk":
        return DiskStore()
    return DiskStore(root=selector)


def store_ref(store: Optional[object]) -> Optional[Tuple[str, str, Optional[int]]]:
    """A picklable reference to a store, for shipping to pool workers.

    Only :class:`DiskStore` is meaningfully shareable across processes (the
    filesystem is the shared medium); memory stores return ``None`` so
    workers simply compute and the parent absorbs their results.
    """
    if isinstance(store, DiskStore):
        return (str(store.root), store.version, store.max_entries)
    return None


def store_from_ref(
    ref: Optional[Tuple[str, str, Optional[int]]]
) -> Optional[DiskStore]:
    """Rebuild a worker-side store from :func:`store_ref`'s reference."""
    if ref is None:
        return None
    root, version, max_entries = ref
    return DiskStore(root, version=version, max_entries=max_entries)
