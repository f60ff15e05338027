"""Synthesis of new (hypothetical) attacks -- Section V-A.

The paper's takeaway: *any new combination of the three attack dimensions
gives a new attack*.  The dimensions are

1. the source of the secret (memory, cache, load port, fill buffer, store
   buffer, special registers, FPU state, ...),
2. the hardware feature whose delayed authorization opens the speculation
   window (branch resolution, permission checks, fault checks, address
   disambiguation, TSX aborts, ...), and
3. the covert channel used to send the secret out (cache channels, memory
   bus, functional units, BTB, ...).

:func:`enumerate_attack_space` produces one synthesized attack graph per
combination, and :func:`novel_combinations` reports combinations that are not
covered by any published attack in the registry -- candidates for new attacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterator, List, Optional, Sequence, Tuple

from ..core.attack_graph import AttackGraph
from .base import CovertChannelKind, DelayMechanism, SecretSource
from .builders import build_faulting_load_graph, build_branch_speculation_graph
from .registry import ALL_VARIANTS

#: Cached index of the published (source, delay, channel) keys.  Built lazily
#: from the registry so ``is_published`` / ``novel_combinations`` are a set
#: lookup per combination instead of a scan over every registered variant.
_PUBLISHED_KEYS: Optional[FrozenSet[Tuple[str, str, str]]] = None


def published_keys() -> FrozenSet[Tuple[str, str, str]]:
    """The set of ``(source, delay, channel)`` keys used by published variants."""
    global _PUBLISHED_KEYS
    if _PUBLISHED_KEYS is None:
        _PUBLISHED_KEYS = frozenset(
            (
                variant.secret_source.name,
                variant.delay_mechanism.name,
                variant.channel.name,
            )
            for variant in ALL_VARIANTS.values()
        )
    return _PUBLISHED_KEYS


def refresh_published_cache() -> None:
    """Drop the cached key index (for tests that mutate the attack registry).

    Subsumed by :meth:`repro.engine.Engine.invalidate`, which clears this
    index together with the engine's synthesized-graph and verdict caches;
    kept as a standalone hook for callers that only touched the registry.
    """
    global _PUBLISHED_KEYS
    _PUBLISHED_KEYS = None

#: Delay mechanisms that resolve at the instruction level (Spectre-type).
_INSTRUCTION_LEVEL_DELAYS = frozenset(
    {
        DelayMechanism.CONDITIONAL_BRANCH,
        DelayMechanism.INDIRECT_BRANCH,
        DelayMechanism.RETURN_ADDRESS,
        DelayMechanism.PHYSICAL_ADDRESS_CONFLICT,
    }
)


@dataclass(frozen=True, slots=True)
class SynthesizedAttack:
    """A point in the three-dimensional attack space of Section V-A."""

    secret_source: SecretSource
    delay_mechanism: DelayMechanism
    channel: CovertChannelKind

    @property
    def key(self) -> Tuple[str, str, str]:
        return (self.secret_source.name, self.delay_mechanism.name, self.channel.name)

    @property
    def is_published(self) -> bool:
        """``True`` when a published variant already uses this exact combination."""
        return self.key in published_keys()

    def describe(self) -> str:
        status = "published" if self.is_published else "NEW candidate"
        return (
            f"[{status}] secret from {self.secret_source.value}, "
            f"window opened by {self.delay_mechanism.value}, "
            f"exfiltrated via {self.channel.value}"
        )

    def build_graph(self) -> AttackGraph:
        """Build the attack graph for this combination.

        Instruction-level delay mechanisms produce a Figure 1 style graph;
        all others produce a Figure 4 style faulting-access graph whose
        secret-source vertex is named after the chosen source.  This is the
        raw (uncached) construction; sweeps should go through
        :meth:`repro.engine.Engine.synthesize_graph`, which memoizes graphs
        per ``(source, delay, channel)`` key.
        """
        name = "synth-" + "-".join(part.lower() for part in self.key)
        if self.delay_mechanism in _INSTRUCTION_LEVEL_DELAYS:
            return build_branch_speculation_graph(
                name=name,
                branch_label=self.delay_mechanism.value,
                access_label=f"read secret from {self.secret_source.value}",
            )
        return build_faulting_load_graph(
            name=name,
            sources=(self.secret_source.value,),
            permission_check_label=self.delay_mechanism.value,
            access_label=f"read secret from {self.secret_source.value}",
        )


def enumerate_attack_space(
    sources: Optional[Sequence[SecretSource]] = None,
    delays: Optional[Sequence[DelayMechanism]] = None,
    channels: Optional[Sequence[CovertChannelKind]] = None,
) -> Iterator[SynthesizedAttack]:
    """Enumerate the Cartesian product of the three attack dimensions."""
    sources = tuple(sources) if sources is not None else tuple(SecretSource)
    delays = tuple(delays) if delays is not None else tuple(DelayMechanism)
    channels = tuple(channels) if channels is not None else tuple(CovertChannelKind)
    for source in sources:
        for delay in delays:
            for channel in channels:
                yield SynthesizedAttack(source, delay, channel)


def novel_combinations(
    sources: Optional[Sequence[SecretSource]] = None,
    delays: Optional[Sequence[DelayMechanism]] = None,
    channels: Optional[Sequence[CovertChannelKind]] = None,
) -> List[SynthesizedAttack]:
    """Combinations of the attack space not used by any published variant.

    O(|space|) on the cached key index -- one set lookup per combination.
    Results are sorted by ``(source, delay, channel)`` key.
    """
    published = published_keys()
    attacks = sorted(
        enumerate_attack_space(sources, delays, channels), key=lambda a: a.key
    )
    return [attack for attack in attacks if attack.key not in published]


def published_combinations() -> List[SynthesizedAttack]:
    """The combinations actually used by the published variants in the registry."""
    seen = {}
    for variant in ALL_VARIANTS.values():
        attack = SynthesizedAttack(variant.secret_source, variant.delay_mechanism, variant.channel)
        seen[attack.key] = attack
    return list(seen.values())
