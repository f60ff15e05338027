"""Evaluating whether a defense defeats an attack, on the attack-graph model.

The success condition of a speculative attack, in graph terms, is that the
*send* operation (the micro-architectural state change that encodes the
secret) can complete before the authorization resolves -- i.e. the send races
with the authorization-resolution vertex.  Because the send is data-dependent
on the use and on the secret access, ordering *any* of access / use / send
after authorization (strategies 1-3) breaks the leak.

When a faulting load can obtain the secret from several alternative
micro-architectural sources (Figure 4: memory, cache, load port, line fill
buffer, store buffer), the alternatives are OR-paths: protecting one source
does not protect the others.  :func:`source_projections` expands the graph
into one projection per combination of alternative sources, and
:func:`attack_succeeds` reports a leak when *any* projection leaks -- exactly
the reasoning behind the paper's "insufficient defense" example in
Section V-B.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..attacks.base import AttackVariant
from ..attacks.builders import build_faulting_load_graph
from ..core.attack_graph import AttackGraph
from ..core.nodes import OperationType
from . import strategies
from .base import Defense, DefenseStrategy


# ----------------------------------------------------------------------
# Alternative-source projections
# ----------------------------------------------------------------------
def _alternative_groups(graph: AttackGraph) -> List[List[str]]:
    """Group secret-access vertices that are alternative sources of the same value.

    Two secret-access vertices are alternatives when they feed exactly the
    same successor vertices (e.g. the five ``Read S from ...`` vertices of
    Figure 4 all feed ``Compute load address R``).
    """
    by_successors: Dict[Tuple[str, ...], List[str]] = {}
    for name in graph.secret_access_nodes:
        key = tuple(sorted(graph.successors(name)))
        by_successors.setdefault(key, []).append(name)
    return list(by_successors.values())


def source_projections(graph: AttackGraph) -> List[Tuple[Tuple[str, ...], AttackGraph]]:
    """Expand alternative secret sources into per-choice projections.

    Returns a list of ``(chosen_sources, projected_graph)`` pairs.  Each
    projection keeps exactly one secret-access vertex from every group of
    alternatives and drops the rest; a graph without alternatives yields a
    single projection (itself).
    """
    groups = _alternative_groups(graph)
    if all(len(group) <= 1 for group in groups):
        chosen = tuple(name for group in groups for name in group)
        return [(chosen, graph)]
    projections = []
    for choice in itertools.product(*groups):
        dropped = {
            name for group in groups for name in group if name not in choice
        }
        kept = [name for name in graph.vertices if name not in dropped]
        projected = AttackGraph(name=f"{graph.name}|{'+'.join(choice)}")
        projected.description = graph.description
        for vertex in kept:
            projected.add_operation(graph.operation(vertex))
        for dep in graph.edges:
            if dep.source in dropped or dep.target in dropped:
                continue
            projected.add_dependency(dep)
        projections.append((tuple(choice), projected))
    return projections


# ----------------------------------------------------------------------
# Leak condition
# ----------------------------------------------------------------------
def _resolution_nodes(graph: AttackGraph) -> List[str]:
    resolutions = [op.name for op in graph.operations_of_type(OperationType.RESOLUTION)]
    if resolutions:
        return resolutions
    return [op.name for op in graph.operations_of_type(OperationType.AUTHORIZATION)]


def _projection_leaks(graph: AttackGraph) -> bool:
    """Does this (single-source) graph leak?  Send can finish before authorization.

    One descendant-mask lookup per authorization vertex on the reachability
    index: the graph leaks when some send vertex is not ordered after some
    authorization.
    """
    sends = set(graph.send_nodes)
    authorizations = _resolution_nodes(graph)
    if not sends or not authorizations:
        return False
    return any(
        sends - graph.descendants(auth) - {auth}
        for auth in authorizations
    )


def attack_succeeds(graph: AttackGraph) -> bool:
    """``True`` when the attack modelled by ``graph`` leaks through any source path."""
    return any(_projection_leaks(projection) for _, projection in source_projections(graph))


def leaking_sources(graph: AttackGraph) -> List[Tuple[str, ...]]:
    """The combinations of secret sources through which the graph still leaks."""
    return [
        chosen
        for chosen, projection in source_projections(graph)
        if _projection_leaks(projection)
    ]


def setup_neutralized(defended: AttackGraph) -> bool:
    """Strategy-4 success condition: predictor state is cleared before the branch.

    Clearing predictions does not close the authorization/access race; it
    removes the attacker's control over *which* path is speculated.  The
    defense is considered successful when the graph contains the
    ``Flush predictor`` vertex ordered after the attacker's mis-training and
    before every vertex the mis-training used to influence.
    """
    if strategies.FLUSH_PREDICTOR_NODE not in defended:
        return False
    if strategies.MISTRAIN_NODE not in defended:
        return False
    influenced = defended.successors(strategies.MISTRAIN_NODE) - {
        strategies.FLUSH_PREDICTOR_NODE
    }
    return bool(influenced) and all(
        defended.has_path(strategies.FLUSH_PREDICTOR_NODE, node) for node in influenced
    )


# ----------------------------------------------------------------------
# Defense evaluation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DefenseEvaluation:
    """Outcome of applying one defense to one attack."""

    defense_key: str
    attack_key: str
    strategy: DefenseStrategy
    applicable: bool
    leaked_before: bool
    leaked_after: bool
    leaking_sources_before: Tuple[Tuple[str, ...], ...] = ()
    leaking_sources_after: Tuple[Tuple[str, ...], ...] = ()
    security_edges_added: int = 0
    notes: str = ""

    @property
    def effective(self) -> bool:
        """The defense defeats the attack (and was applicable to it)."""
        return self.applicable and self.leaked_before and not self.leaked_after

    def __str__(self) -> str:  # pragma: no cover - trivial
        verdict = "defeats" if self.effective else "does NOT defeat"
        return f"{self.defense_key} {verdict} {self.attack_key}"


def evaluate_defense_uncached(
    defense: Defense,
    variant: AttackVariant,
    graph: Optional[AttackGraph] = None,
) -> DefenseEvaluation:
    """Apply ``defense`` to ``variant``'s attack graph and report the outcome.

    This is the raw computation; :func:`evaluate_defense` routes through the
    default engine's ``(defense key, attack key)`` evaluation cache.
    """
    baseline = graph if graph is not None else variant.build_graph()
    applicable = defense.applies_to(variant)
    leaked_before = attack_succeeds(baseline)
    sources_before = tuple(leaking_sources(baseline))

    if not applicable:
        return DefenseEvaluation(
            defense_key=defense.key,
            attack_key=variant.key,
            strategy=defense.strategy,
            applicable=False,
            leaked_before=leaked_before,
            leaked_after=leaked_before,
            leaking_sources_before=sources_before,
            leaking_sources_after=sources_before,
            notes="defense does not target this attack variant",
        )

    defended = defense.apply(baseline)
    security_edges = sum(1 for dep in defended.edges if dep.is_security) - sum(
        1 for dep in baseline.edges if dep.is_security
    )
    if defense.strategy is DefenseStrategy.CLEAR_PREDICTIONS:
        leaked_after = not setup_neutralized(defended)
        sources_after = sources_before if leaked_after else ()
        notes = (
            "predictor cleared before the victim's branch"
            if not leaked_after
            else "attack does not rely on predictor mis-training"
        )
    else:
        leaked_after = attack_succeeds(defended)
        sources_after = tuple(leaking_sources(defended))
        notes = "" if not leaked_after else (
            "insufficient: secret still reachable via "
            + ", ".join("/".join(chosen) for chosen in sources_after)
        )
    return DefenseEvaluation(
        defense_key=defense.key,
        attack_key=variant.key,
        strategy=defense.strategy,
        applicable=True,
        leaked_before=leaked_before,
        leaked_after=leaked_after,
        leaking_sources_before=sources_before,
        leaking_sources_after=sources_after,
        security_edges_added=max(security_edges, 0),
        notes=notes,
    )


def evaluate_defense(defense: Defense, variant: AttackVariant) -> DefenseEvaluation:
    """Apply ``defense`` to ``variant``'s attack graph and report the outcome.

    The payload of an ``evaluate`` spec run on the default engine: warm
    calls are served from its ``(defense, variant)`` cache.  To evaluate a
    custom graph, call :func:`evaluate_defense_uncached`.
    """
    from ..engine import default_engine
    from ..scenario import ScenarioSpec

    spec = ScenarioSpec("evaluate", defense=defense, attack=variant)
    return default_engine().run(spec).payload


def evaluate_matrix(
    defenses: Sequence[Defense],
    variants: Sequence[AttackVariant],
    parallel: Optional[int] = None,
) -> List[DefenseEvaluation]:
    """Evaluate every defense against every attack variant.

    The payload of a ``matrix`` spec run on the default engine: rows are
    sorted by ``(defense key, attack key)`` and, with ``parallel`` > 1,
    sharded over the engine's process pool -- parallel output is
    byte-identical to serial output.
    """
    from ..engine import default_engine
    from ..scenario import ScenarioSpec

    spec = ScenarioSpec("matrix", defenses=defenses, attacks=variants)
    return default_engine().run(spec, parallel=parallel).payload


# ----------------------------------------------------------------------
# The paper's insufficient-defense example (Section V-B)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class InsufficientDefenseReport:
    """Reproduction of the Section V-B insufficient-defense discussion."""

    baseline_leaks: bool
    fenced_memory_only_leaks: bool
    fenced_memory_leaking_sources: Tuple[Tuple[str, ...], ...]
    fenced_all_sources_leaks: bool
    prevent_use_leaks: bool

    @property
    def reproduces_paper(self) -> bool:
        """The paper's conclusion: a memory-only fence is insufficient,
        fencing every source works, and so does preventing data usage."""
        return (
            self.baseline_leaks
            and self.fenced_memory_only_leaks
            and not self.fenced_all_sources_leaks
            and not self.prevent_use_leaks
        )


def insufficient_defense_demo() -> InsufficientDefenseReport:
    """Meltdown with the secret possibly already in the L1 cache (L1TF-style).

    A security dependency only on the memory path (defense 1 restricted to
    the ``Read S from memory`` vertex) does not stop the attack because the
    secret can still be read from the cache.  Protecting every source, or
    using strategy 2 (prevent data usage), does stop it.
    """
    graph = build_faulting_load_graph(
        name="meltdown-with-cached-secret",
        sources=("memory", "cache"),
        permission_check_label="kernel privilege check",
        access_label="read kernel data",
    )
    fence_memory_only = strategies.apply_prevent_access(graph, sources=("memory",))
    fence_all = strategies.apply_prevent_access(graph)
    prevent_use = strategies.apply_prevent_use(graph)
    return InsufficientDefenseReport(
        baseline_leaks=attack_succeeds(graph),
        fenced_memory_only_leaks=attack_succeeds(fence_memory_only),
        fenced_memory_leaking_sources=tuple(leaking_sources(fence_memory_only)),
        fenced_all_sources_leaks=attack_succeeds(fence_all),
        prevent_use_leaks=attack_succeeds(prevent_use),
    )
