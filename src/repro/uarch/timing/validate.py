"""Cross-validating Theorem 1: measured cycle races vs TSG race verdicts.

The paper's Theorem 1 reduces "can the attack leak?" to a reachability
question on the attack's TSG: the covert *send* races with the
authorization's *resolution* exactly when no path orders them.  The timing
core measures the same race in cycles: the send either issues before the
squash lands, or it does not.

:func:`cross_validate` runs both sides for every attack in the registry:

* the **TSG verdict** -- :func:`repro.defenses.evaluation.attack_succeeds`
  on the variant's (undefended) attack graph, and
* the **measured verdict** -- the end-to-end exploit replayed on
  :class:`~repro.uarch.timing.core.TimingCPU`, reporting whether the
  covert transmit issued at or before the squash cycle.

Variants without a bespoke simulator program (the OS/VMM Foreshadow
deployments, the MDS siblings, LVI, TAA, CacheOut, Spoiler) are measured
through the registry-mapped representative exploit that shares their delay
mechanism -- the timing race is a property of the delayed authorization and
the covert channel, both of which the representative reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from ..config import DEFAULT_CONFIG, UarchConfig
from .core import TimingCPU
from .trace import TimingTrace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ...engine import Engine
    from .scheduler import TimingModel

#: Registry key -> end-to-end exploit that reproduces its timing race.
SCENARIOS: Dict[str, str] = {
    "spectre_v1": "spectre_v1",
    "spectre_v1_1": "spectre_v1",  # same bounds-check authorization delay
    "spectre_v1_2": "spectre_v1",
    "spectre_v2": "spectre_v2",
    "meltdown": "meltdown",
    "spectre_v3a": "spectre_v3a",
    "spectre_v4": "spectre_v4",
    "spectre_rsb": "spectre_rsb",
    "foreshadow": "foreshadow",
    "foreshadow_os": "foreshadow",  # same L1TF fault, different deployment
    "foreshadow_vmm": "foreshadow",
    "lazy_fp": "lazy_fp",
    "ridl": "mds",  # load-port / fill-buffer sampling
    "zombieload": "mds",
    "fallout": "mds",  # store-buffer sampling
    "lvi": "mds",  # same delayed fault check, inverted data flow
    "taa": "mds",  # TSX abort completes like a suppressed fault
    "cacheout": "mds",
    "spoiler": "spectre_v4",  # store-address disambiguation delay
}


@dataclass(frozen=True)
class RaceCheck:
    """Theorem-1 agreement between the TSG and the measured timing for one attack."""

    attack: str
    scenario: str
    tsg_leaks: bool
    transmit_beats_squash: bool
    transmit_cycle: Optional[int]
    squash_cycle: Optional[int]
    window_cycles: Optional[int]
    functional_leak: bool

    @property
    def agrees(self) -> bool:
        """The TSG race verdict matches the measured cycle race."""
        return self.tsg_leaks == self.transmit_beats_squash

    def to_dict(self) -> Dict[str, object]:
        return {
            "attack": self.attack,
            "scenario": self.scenario,
            "tsg_leaks": self.tsg_leaks,
            "transmit_beats_squash": self.transmit_beats_squash,
            "transmit_cycle": self.transmit_cycle,
            "squash_cycle": self.squash_cycle,
            "window_cycles": self.window_cycles,
            "functional_leak": self.functional_leak,
            "agrees": self.agrees,
        }


def timed_exploit(
    scenario: str,
    config: UarchConfig = DEFAULT_CONFIG,
    secret: Optional[int] = None,
    model: Optional["TimingModel"] = None,
):
    """Run one end-to-end exploit on the timing core; returns its ExploitResult.

    The result's ``timing`` attribute holds the :class:`TimingTrace` of the
    victim run, the last run the harness timed: predictor training
    (:meth:`TimingCPU.train`) runs on the functional plane alone.
    ``model`` overrides the timing plane's microarchitectural parameters.
    """
    from functools import partial

    from ...exploits.harness import DEFAULT_SECRET, EXPLOITS

    if scenario not in EXPLOITS:
        raise KeyError(
            f"unknown exploit scenario {scenario!r}; known: {', '.join(sorted(EXPLOITS))}"
        )
    planted = DEFAULT_SECRET if secret is None else secret
    cpu_cls = TimingCPU if model is None else partial(TimingCPU, model=model)
    return EXPLOITS[scenario](config, planted, cpu_cls=cpu_cls)


def check_attack(
    key: str,
    config: UarchConfig = DEFAULT_CONFIG,
    model: Optional["TimingModel"] = None,
) -> RaceCheck:
    """Measure one registry attack's race and compare it with its TSG verdict.

    ``model`` overrides the timing plane's microarchitectural parameters --
    pass a contended model (bounded FU ports / CDB) to check that Theorem 1
    still holds when the transmit has to fight for issue slots.
    """
    from ...attacks.registry import get
    from ...defenses.evaluation import attack_succeeds

    variant = get(key)
    scenario = SCENARIOS.get(key)
    if scenario is None:
        raise KeyError(f"no timing scenario registered for attack {key!r}")
    tsg_leaks = attack_succeeds(variant.build_graph())
    result = timed_exploit(scenario, config, model=model)
    trace: Optional[TimingTrace] = result.timing
    if trace is None:  # pragma: no cover - harness always attaches the trace
        raise RuntimeError(f"timing harness returned no trace for {scenario!r}")
    return RaceCheck(
        attack=key,
        scenario=scenario,
        tsg_leaks=tsg_leaks,
        transmit_beats_squash=trace.transmit_beats_squash,
        transmit_cycle=trace.transmit_cycle,
        squash_cycle=trace.squash_cycle,
        window_cycles=trace.window_cycles,
        functional_leak=result.success,
    )


def cross_validate(
    attacks: Optional[Sequence[str]] = None,
    *,
    engine: Optional["Engine"] = None,
    parallel: Optional[int] = None,
    model: Optional["TimingModel"] = None,
) -> List[RaceCheck]:
    """Theorem-1 cross-check for every attack in the registry (or a subset).

    With an engine session the per-attack checks are sharded over
    :meth:`Engine.map`; rows come back in registry order either way.
    ``model`` selects the timing-plane configuration (e.g.
    :data:`~repro.uarch.timing.scheduler.CONTENDED_MODEL` to validate the
    race under port/CDB contention).
    """
    from functools import partial

    from ...attacks.registry import keys

    chosen = list(attacks) if attacks is not None else keys()
    unknown = [key for key in chosen if key not in SCENARIOS]
    if unknown:
        raise KeyError(f"no timing scenario for attacks: {', '.join(sorted(unknown))}")
    checker = check_attack if model is None else partial(check_attack, model=model)
    if engine is not None:
        return engine.map(checker, chosen, parallel=parallel)
    return [checker(key) for key in chosen]


def validation_report(checks: Sequence[RaceCheck]) -> str:
    """A compact text table of the cross-validation outcome."""
    lines = [
        f"{'attack':<16} {'scenario':<12} {'TSG':<6} {'timing':<7} "
        f"{'transmit':>8} {'squash':>7} agrees"
    ]
    for check in checks:
        lines.append(
            f"{check.attack:<16} {check.scenario:<12} "
            f"{'leaks' if check.tsg_leaks else 'safe':<6} "
            f"{'leaks' if check.transmit_beats_squash else 'safe':<7} "
            f"{check.transmit_cycle if check.transmit_cycle is not None else '-':>8} "
            f"{check.squash_cycle if check.squash_cycle is not None else '-':>7} "
            f"{'yes' if check.agrees else 'NO'}"
        )
    agreeing = sum(1 for check in checks if check.agrees)
    lines.append(f"{agreeing}/{len(checks)} attacks agree with Theorem 1")
    return "\n".join(lines)
