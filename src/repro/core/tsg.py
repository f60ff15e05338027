"""Topological Sort Graph (TSG) -- the paper's attack-graph substrate.

Section IV-B defines an attack graph as a Topological Sort Graph: a directed
acyclic graph whose vertices are operations and whose directed edges are
orderings ("u happens before v").  A *valid ordering* is a permutation of all
vertices consistent with every edge, i.e. a topological order.

This module provides the graph data structure plus the ordering machinery
needed to state and check the paper's Theorem 1 (see :mod:`repro.core.race`):
validity checking, enumeration of all valid orderings, reachability, and
ordering construction biased towards putting a chosen vertex early or late.

Performance notes
-----------------
The graph maintains a **bitset transitive closure**: every vertex carries two
integer bitmasks over the vertex index space, one of its (strict) ancestors
and one of its (strict) descendants.  With ``V`` vertices, ``E`` edges and
``w`` the machine word size:

* ``add_dependency`` updates the closure incrementally in O(V * V/w) bit
  operations and detects cycles with a single bit test (no BFS on insert);
* ``add_dependencies`` inserts a whole batch and then rebuilds the closure
  with one topological sweep, O((V + E) * V/w) -- the graph tool adds a
  program's edges this way, one sweep per build instead of one update per
  edge;
* ``has_path`` is O(1) -- one shift and one mask;
* ``descendants`` / ``ancestors`` decode one bitmask, O(V);
* ``has_race`` (Theorem 1, in :mod:`repro.core.race`) is O(1);
* ``all_racing_pairs`` derives the complete race set from the closure in one
  O(V * V/w) pass instead of O(V^2) BFS traversals;
* ``racing_partners`` answers "everything racing with this vertex" in O(V/w),
  and ``racing_pairs_between`` the racing pairs of two vertex lists in
  O(V/w) per source;
* ``count_orderings`` is a memoized downset DP (exact linear-extension
  counts) over connected components instead of explicit enumeration --
  milliseconds on the paper's 10-20-vertex attack graphs;
* ``topological_order`` uses an index-heap ready set, O((V + E) log V),
  replacing the earlier O(V^2) list-scan implementation;
* ``remove_edge`` rebuilds the closure with the same sweep -- removal is rare
  (defense *adds* edges).

The masks are Python big ints throughout.  On built victim graphs of 178 to
1,410 vertices the big-int sweep ran about 9x faster than a numpy sweep over
uint64 word chunks (2-5x on the denser graphs of all-pairs fence edges), so
the module needs nothing beyond the standard library.

``all_orderings`` remains the exponential backtracking enumerator; it is kept
for witness construction and for validating the DP counter on small graphs.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .edges import Dependency, DependencyKind
from .nodes import Operation, OperationType


class CycleError(ValueError):
    """Raised when adding an edge would create a cycle in the TSG."""


class _StateBudgetExceeded(Exception):
    """Internal: the downset DP grew past its state budget (fall back)."""


def _iter_bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``mask`` (ascending)."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class TopologicalSortGraph:
    """A directed acyclic graph of :class:`~repro.core.nodes.Operation` vertices.

    Vertices are addressed by their unique ``name``.  Edges are
    :class:`~repro.core.edges.Dependency` records.  The graph rejects any edge
    insertion that would create a cycle, so it is a DAG by construction.

    Alongside the adjacency sets the graph maintains a bitset transitive
    closure (see the module docstring's performance notes): ``_index`` maps a
    vertex name to its bit position, ``_names`` maps positions back, and
    ``_anc`` / ``_desc`` hold per-vertex ancestor / descendant bitmasks.
    """

    def __init__(self, name: str = "tsg") -> None:
        self.name = name
        self._ops: Dict[str, Operation] = {}
        self._succ: Dict[str, Set[str]] = {}
        self._pred: Dict[str, Set[str]] = {}
        self._edges: Dict[Tuple[str, str], Dependency] = {}
        # Reachability index: vertex name <-> bit position, plus the closure.
        self._index: Dict[str, int] = {}
        self._names: List[str] = []
        self._anc: List[int] = []
        self._desc: List[int] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_operation(self, operation: Operation) -> Operation:
        """Add a vertex.  Re-adding the same name with a different record fails."""
        existing = self._ops.get(operation.name)
        if existing is not None:
            if existing != operation:
                raise ValueError(
                    f"Vertex {operation.name!r} already exists with a different definition"
                )
            return existing
        self._ops[operation.name] = operation
        self._succ[operation.name] = set()
        self._pred[operation.name] = set()
        self._index[operation.name] = len(self._names)
        self._names.append(operation.name)
        self._anc.append(0)
        self._desc.append(0)
        return operation

    def add_vertex(self, name: str, **kwargs) -> Operation:
        """Convenience wrapper: create and add an :class:`Operation`."""
        return self.add_operation(Operation(name=name, **kwargs))

    def add_dependency(self, dependency: Dependency) -> Dependency:
        """Add an edge, verifying both endpoints exist and no cycle is created.

        Cycle detection and closure maintenance are bitmask operations: the
        edge ``u -> v`` is cyclic iff ``u`` is already a descendant of ``v``,
        and on insertion every ancestor of ``u`` (including ``u``) gains the
        descendant set of ``v`` (including ``v``) and vice versa.
        """
        for endpoint in (dependency.source, dependency.target):
            if endpoint not in self._ops:
                raise KeyError(f"Unknown vertex {endpoint!r}")
        key = (dependency.source, dependency.target)
        if key in self._edges:
            return self._edges[key]
        si = self._index[dependency.source]
        ti = self._index[dependency.target]
        if (self._desc[ti] >> si) & 1:
            raise CycleError(
                f"Edge {dependency.source} -> {dependency.target} would create a cycle"
            )
        self._edges[key] = dependency
        self._succ[dependency.source].add(dependency.target)
        self._pred[dependency.target].add(dependency.source)
        if not (self._desc[si] >> ti) & 1:
            up = self._anc[si] | (1 << si)
            down = self._desc[ti] | (1 << ti)
            desc = self._desc
            anc = self._anc
            for i in _iter_bits(up):
                desc[i] |= down
            for i in _iter_bits(down):
                anc[i] |= up
        return dependency

    def add_dependencies(self, dependencies: Iterable[Dependency]) -> None:
        """Add a batch of edges, then rebuild the closure with one sweep.

        Duplicates keep the first record, as with :meth:`add_dependency`.
        The batch is all or nothing: an unknown endpoint raises ``KeyError``
        and a batch closing a cycle raises :class:`CycleError`, both leaving
        the graph as it was.
        """
        batch = list(dependencies)
        for dependency in batch:
            for endpoint in (dependency.source, dependency.target):
                if endpoint not in self._ops:
                    raise KeyError(f"Unknown vertex {endpoint!r}")
        added: List[Tuple[str, str]] = []
        for dependency in batch:
            key = (dependency.source, dependency.target)
            if key in self._edges:
                continue
            self._edges[key] = dependency
            self._succ[dependency.source].add(dependency.target)
            self._pred[dependency.target].add(dependency.source)
            added.append(key)
        if not added:
            return
        try:
            self._rebuild_closure()
        except CycleError:
            for source, target in added:
                del self._edges[(source, target)]
                self._succ[source].discard(target)
                self._pred[target].discard(source)
            raise

    def add_edge(
        self,
        source: str,
        target: str,
        kind: DependencyKind = DependencyKind.PROGRAM_ORDER,
        label: str = "",
    ) -> Dependency:
        """Convenience wrapper: create and add a :class:`Dependency`."""
        return self.add_dependency(Dependency(source, target, kind=kind, label=label))

    def remove_edge(self, source: str, target: str) -> None:
        """Remove an edge if present (rebuilds the reachability index)."""
        key = (source, target)
        if key in self._edges:
            del self._edges[key]
            self._succ[source].discard(target)
            self._pred[target].discard(source)
            self._rebuild_closure()

    def _rebuild_closure(self) -> None:
        """Recompute the ancestor/descendant bitmasks with a topological sweep.

        Raises :class:`CycleError` (leaving the masks untouched) when the
        edges hold a cycle.
        """
        order = self.topological_order()
        count = len(self._names)
        anc = [0] * count
        desc = [0] * count
        index = self._index
        for name in order:
            i = index[name]
            gathered = 0
            for pred_name in self._pred[name]:
                pi = index[pred_name]
                gathered |= anc[pi] | (1 << pi)
            anc[i] = gathered
        for name in reversed(order):
            i = index[name]
            gathered = 0
            for succ_name in self._succ[name]:
                sj = index[succ_name]
                gathered |= desc[sj] | (1 << sj)
            desc[i] = gathered
        self._anc = anc
        self._desc = desc

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._ops

    def __len__(self) -> int:
        return len(self._ops)

    def operation(self, name: str) -> Operation:
        """Return the operation stored at vertex ``name``."""
        return self._ops[name]

    @property
    def vertices(self) -> List[str]:
        """All vertex names, in insertion order."""
        return list(self._ops)

    @property
    def operations(self) -> List[Operation]:
        """All operations, in insertion order."""
        return list(self._ops.values())

    @property
    def edges(self) -> List[Dependency]:
        """All edges, in insertion order."""
        return list(self._edges.values())

    def edge(self, source: str, target: str) -> Optional[Dependency]:
        """Return the edge ``source -> target`` or ``None``."""
        return self._edges.get((source, target))

    def has_edge(self, source: str, target: str) -> bool:
        return (source, target) in self._edges

    def successors(self, name: str) -> Set[str]:
        return set(self._succ[name])

    def operations_of_type(self, op_type: OperationType) -> List[Operation]:
        """All operations with the given :class:`OperationType`."""
        return [op for op in self._ops.values() if op.op_type is op_type]

    def in_degree(self, name: str) -> int:
        return len(self._pred[name])

    def out_degree(self, name: str) -> int:
        return len(self._succ[name])

    # ------------------------------------------------------------------
    # Reachability and orderings
    # ------------------------------------------------------------------
    def _mask_to_names(self, mask: int) -> Set[str]:
        names = self._names
        return {names[i] for i in _iter_bits(mask)}

    def has_path(self, source: str, target: str) -> bool:
        """``True`` iff there is a directed path from ``source`` to ``target``.

        A vertex is considered to reach itself by the empty path.  O(1): a
        single bit test against the descendant mask of ``source``.
        """
        if source not in self._ops or target not in self._ops:
            raise KeyError(f"Unknown vertex in path query: {source!r} or {target!r}")
        if source == target:
            return True
        return bool((self._desc[self._index[source]] >> self._index[target]) & 1)

    def descendants(self, source: str) -> Set[str]:
        """All vertices reachable from ``source`` (excluding ``source``)."""
        return self._mask_to_names(self._desc[self._index[source]])

    def ancestors(self, target: str) -> Set[str]:
        """All vertices from which ``target`` is reachable (excluding itself)."""
        return self._mask_to_names(self._anc[self._index[target]])

    def racing_partners(self, name: str) -> Set[str]:
        """All vertices that race with ``name`` (Theorem 1: incomparable vertices).

        One O(V/w) mask operation: everything that is neither an ancestor nor
        a descendant of ``name`` (nor ``name`` itself).
        """
        i = self._index[name]
        full = (1 << len(self._names)) - 1
        comparable = self._anc[i] | self._desc[i] | (1 << i)
        return self._mask_to_names(full & ~comparable)

    def racing_pairs_between(
        self, sources: Iterable[str], targets: Iterable[str]
    ) -> List[Tuple[str, str]]:
        """Every racing ``(source, target)`` pair, without a name set per source.

        Sources come in the given order, and each source's racing targets in
        insertion order.  One O(V/w) mask operation per source.
        """
        index = self._index
        names = self._names
        target_mask = 0
        for target in targets:
            target_mask |= 1 << index[target]
        pairs: List[Tuple[str, str]] = []
        for source in sources:
            i = index[source]
            racing = target_mask & ~(self._anc[i] | self._desc[i] | (1 << i))
            pairs.extend((source, names[j]) for j in _iter_bits(racing))
        return pairs

    def _racing_rows(self) -> Iterator[Tuple[int, int]]:
        """``(i, mask)`` per vertex: the later-inserted vertices racing ``i``."""
        count = len(self._names)
        full = (1 << count) - 1
        for i in range(count):
            later = full >> (i + 1) << (i + 1)
            yield i, later & ~(self._anc[i] | self._desc[i])

    def all_racing_pairs(self) -> List[Tuple[str, str]]:
        """Every racing (incomparable) vertex pair, in one pass over the closure.

        Pairs are returned in insertion order of the first member, each pair
        ordered by insertion as well -- the same order the pairwise
        ``itertools.combinations`` scan used to produce.  O(V * V/w).
        """
        names = self._names
        pairs: List[Tuple[str, str]] = []
        for i, racing in self._racing_rows():
            first = names[i]
            pairs.extend((first, names[j]) for j in _iter_bits(racing))
        return pairs

    def count_racing_pairs(self) -> int:
        """``len(self.all_racing_pairs())`` without building the pairs: the
        same rows, summed by popcount."""
        return sum(racing.bit_count() for _, racing in self._racing_rows())

    def is_valid_ordering(self, ordering: Sequence[str]) -> bool:
        """Check whether ``ordering`` is a valid ordering of the TSG.

        A valid ordering contains every vertex exactly once and respects
        every edge: for each edge (u, v), u appears before v.
        """
        if len(ordering) != len(self._ops) or set(ordering) != set(self._ops):
            return False
        position = {name: i for i, name in enumerate(ordering)}
        return all(position[dep.source] < position[dep.target] for dep in self._edges.values())

    def topological_order(self, prefer_late: Optional[str] = None) -> List[str]:
        """Return one valid ordering (Kahn's algorithm over an index heap).

        When ``prefer_late`` names a vertex, that vertex is scheduled as late
        as possible (its selection is deferred whenever another ready vertex
        exists).  This is used to construct witness orderings for races.

        The ready set is a min-heap of insertion indices, so selection is
        deterministic (earliest-inserted ready vertex first) and each step is
        O(log V) instead of the O(V) list scans of the earlier implementation.
        """
        index = self._index
        names = self._names
        indegree = [0] * len(names)
        for name, preds in self._pred.items():
            indegree[index[name]] = len(preds)
        ready = [i for i, degree in enumerate(indegree) if degree == 0]
        heapq.heapify(ready)
        late_index = index.get(prefer_late) if prefer_late is not None else None
        order: List[str] = []
        while ready:
            pick = heapq.heappop(ready)
            if pick == late_index and ready:
                pick, deferred = heapq.heappop(ready), pick
                heapq.heappush(ready, deferred)
            order.append(names[pick])
            for nxt in self._succ[names[pick]]:
                ni = index[nxt]
                indegree[ni] -= 1
                if indegree[ni] == 0:
                    heapq.heappush(ready, ni)
        if len(order) != len(self._ops):
            raise CycleError("Graph contains a cycle")
        return order

    def all_orderings(self, limit: Optional[int] = None) -> Iterator[List[str]]:
        """Enumerate valid orderings (all topological sorts).

        The number of topological sorts is exponential in general; callers
        should pass ``limit`` or only use this on small graphs (the paper's
        attack graphs have 10-20 vertices).  For *counting* orderings use
        :meth:`count_orderings`, which is a polynomial-state DP on typical
        attack graphs; the enumerator is retained for witness construction.
        """
        indegree = {name: len(preds) for name, preds in self._pred.items()}
        ready = sorted(name for name, deg in indegree.items() if deg == 0)
        emitted = 0

        def backtrack(prefix: List[str], ready_now: List[str]) -> Iterator[List[str]]:
            nonlocal emitted
            if limit is not None and emitted >= limit:
                return
            if len(prefix) == len(self._ops):
                emitted += 1
                yield list(prefix)
                return
            for index, node in enumerate(list(ready_now)):
                next_ready = ready_now[:index] + ready_now[index + 1 :]
                released = []
                for nxt in sorted(self._succ[node]):
                    indegree[nxt] -= 1
                    if indegree[nxt] == 0:
                        released.append(nxt)
                prefix.append(node)
                yield from backtrack(prefix, sorted(next_ready + released))
                prefix.pop()
                for nxt in self._succ[node]:
                    indegree[nxt] += 1
                if limit is not None and emitted >= limit:
                    return

        yield from backtrack([], ready)

    def count_orderings(self, limit: Optional[int] = 100000) -> int:
        """Count valid orderings (linear extensions) exactly, capped at ``limit``.

        Implemented as a memoized DP over downsets (a downset is the set of
        already-scheduled vertices; a vertex is schedulable once all its
        ancestors are in the downset), computed independently per weakly
        connected component and combined with the multinomial interleaving
        factor.  Exact counts for the paper's 10-20-vertex attack graphs take
        milliseconds; pass ``limit=None`` for the uncapped exact count.

        ``limit`` preserves the historical contract of the enumeration-based
        counter (which stopped once ``limit`` orderings had been seen): when
        the exact count exceeds ``limit``, ``limit`` is returned -- and the
        amount of *work* stays bounded as well.  A capped call gives the DP a
        state budget; pathological shapes (e.g. wide antichains whose downset
        lattice is exponential) fall back to the bounded enumerator instead
        of running the DP to completion.  ``limit=None`` requests the exact
        count and accepts the full DP cost.
        """
        # Scale the state budget with the cap: when only a small count is
        # wanted, bailing out to the enumerator early is cheaper than letting
        # the DP explore a large lattice first.
        budget = (
            None
            if limit is None
            else min(self._DP_STATE_BUDGET, max(4 * limit, 4096))
        )
        total = 1
        remaining = len(self._names)
        try:
            for component in self._weak_components():
                total *= math.comb(remaining, len(component))
                remaining -= len(component)
                total *= self._count_component(component, max_states=budget)
                if limit is not None and total >= limit:
                    return limit
        except _StateBudgetExceeded:
            count = 0
            for _ in self.all_orderings(limit=limit):
                count += 1
            return count
        if limit is not None:
            return min(total, limit)
        return total

    #: Downset-DP state budget for capped ``count_orderings`` calls.  Each
    #: state is one dict entry; past this the bounded enumerator is cheaper.
    _DP_STATE_BUDGET = 1 << 17

    def _weak_components(self) -> List[List[int]]:
        """Vertex indices grouped by weakly connected component."""
        visited: Set[int] = set()
        components: List[List[int]] = []
        index = self._index
        for start, name in enumerate(self._names):
            if start in visited:
                continue
            component = []
            stack = [name]
            visited.add(start)
            while stack:
                current = stack.pop()
                component.append(index[current])
                for neighbour in self._succ[current] | self._pred[current]:
                    ni = index[neighbour]
                    if ni not in visited:
                        visited.add(ni)
                        stack.append(neighbour)
            components.append(component)
        return components

    def _count_component(
        self, component: List[int], max_states: Optional[int] = None
    ) -> int:
        """Linear extensions of one weakly connected component (downset DP)."""
        if len(component) <= 1:
            return 1
        comp_mask = 0
        for i in component:
            comp_mask |= 1 << i
        anc = self._anc
        memo: Dict[int, int] = {comp_mask: 1}

        def extensions(done: int) -> int:
            cached = memo.get(done)
            if cached is not None:
                return cached
            if max_states is not None and len(memo) > max_states:
                raise _StateBudgetExceeded
            todo = comp_mask & ~done
            total = 0
            for i in _iter_bits(todo):
                if anc[i] & comp_mask & ~done:
                    continue  # not ready: an ancestor is still unscheduled
                total += extensions(done | (1 << i))
            memo[done] = total
            return total

        return extensions(0)

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def copy(self, name: Optional[str] = None) -> "TopologicalSortGraph":
        """Return a structural copy of the graph (the closure index is shared-free)."""
        clone = type(self)(name=name or self.name)
        clone._ops = dict(self._ops)
        clone._succ = {k: set(v) for k, v in self._succ.items()}
        clone._pred = {k: set(v) for k, v in self._pred.items()}
        clone._edges = dict(self._edges)
        clone._index = dict(self._index)
        clone._names = list(self._names)
        clone._anc = list(self._anc)
        clone._desc = list(self._desc)
        return clone

    def subgraph(self, names: Iterable[str], name: str = "subgraph") -> "TopologicalSortGraph":
        """Return the induced subgraph on ``names``."""
        keep = set(names)
        sub = TopologicalSortGraph(name=name)
        for vertex in self.vertices:
            if vertex in keep:
                sub.add_operation(self._ops[vertex])
        for dep in self._edges.values():
            if dep.source in keep and dep.target in keep:
                sub.add_dependency(dep)
        return sub

    def to_networkx(self):
        """Export to a :class:`networkx.DiGraph` (vertex/edge data attached)."""
        import networkx as nx

        graph = nx.DiGraph(name=self.name)
        for op in self._ops.values():
            graph.add_node(op.name, operation=op)
        for dep in self._edges.values():
            graph.add_edge(dep.source, dep.target, dependency=dep, kind=dep.kind.value)
        return graph

    def to_dot(self) -> str:
        """Render the graph in Graphviz DOT format."""
        lines = [f'digraph "{self.name}" {{', "  rankdir=TB;"]
        for op in self._ops.values():
            shape = {
                OperationType.AUTHORIZATION: "diamond",
                OperationType.SECRET_ACCESS: "box",
                OperationType.SEND: "box",
                OperationType.RECEIVE: "ellipse",
            }.get(op.op_type, "ellipse")
            style = ', style="dashed"' if op.speculative else ""
            lines.append(f'  "{op.name}" [shape={shape}{style}];')
        for dep in self._edges.values():
            style = ' [style="bold", color="red"]' if dep.is_security else (
                f' [label="{dep.kind.value}"]'
            )
            lines.append(f'  "{dep.source}" -> "{dep.target}"{style};')
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} {self.name!r}: "
            f"{len(self._ops)} vertices, {len(self._edges)} edges>"
        )
