"""Seeded gadget-program generator and the three-oracle differential harness.

The fuzzing plane synthesizes transient-execution gadgets by composing four
independent axes -- the speculation *source*, a dependent-ALU *delay* chain
inside the transient window, the covert-channel *shape* forming the probe
index, and the *fence* placement (the defense) -- into valid tiny-ISA
:class:`~repro.isa.program.Program`s, then asks three oracles the paper's
one question about each program:

* the **TSG verdict** -- :func:`repro.defenses.evaluation.attack_succeeds`
  on the program's attack graph (Theorem 1: some covert send races the
  authorization's resolution);
* the **measured race** -- the program replayed end-to-end on
  :class:`~repro.uarch.timing.core.TimingCPU`, reporting whether the covert
  transmit issued at or before the squash cycle; and
* the **decoded byte** -- whether the same replay's Flush+Reload receive
  recovers exactly the planted secret.

Theorem 1 says the three must agree on every generated program; a
disagreement is a soundness bug in one of the planes and gets shrunk to a
minimal reproducer by :func:`shrink_case`.

Determinism contract: :func:`make_case` is a pure function of
``(seed, index)`` -- the derived RNG never touches process state, so the
same coordinates produce the identical program (and identical
``Program.content_hash()``) in the parent and in any pool worker.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable, Iterator, List, Optional, Tuple

from ..channels.flush_reload import FlushReloadChannel
from ..exploits.programs import (
    KERNEL_SECRET_ADDR,
    PROBE_BASE,
    PROBE_ENTRIES,
    PROBE_SIZE,
    PROBE_STRIDE,
    SECRET_ADDR,
    SECRET_OFFSET,
    VICTIM_ARRAY_BASE,
    VICTIM_ARRAY_LEN,
    VICTIM_SIZE_ADDR,
)
from ..isa.instructions import Alu, Branch, Cmp, Fence, Halt, Load, Mov
from ..isa.operands import Label, imm, mem, reg
from ..isa.program import Program

#: Speculation sources: a mistrained bounds check (Spectre v1 shape, the
#: authorization is a *software* branch) and a faulting kernel load
#: (Meltdown shape, the authorization is the access's own privilege check).
SOURCES: Tuple[str, ...] = ("bounds_check", "kernel_load")

#: Covert-channel shapes: how the transient value becomes a probe index.
#: All three transmit through the Flush+Reload probe array -- ``direct`` is
#: the canonical ``shl 12``; ``aliased`` forwards the index through a second
#: register (taint must survive the move in both planes); ``double_shift``
#: splits the scaling across two dependent ALU ops.
CHANNELS: Tuple[str, ...] = ("direct", "aliased", "double_shift")

#: Fence (lfence) placements -- the defense axis.  ``before_use`` and
#: ``before_send`` order the send after every authorization in both planes;
#: ``before_access`` kills the bounds-check shape but *not* the kernel-load
#: shape (the faulting access carries its own authorization past the fence).
FENCES: Tuple[str, ...] = (
    "none",
    "before_access",
    "before_use",
    "before_send",
    "after_send",
)

#: Longest dependent-ALU delay chain between the secret access and the send.
MAX_DELAY = 4

#: Timing-oracle fault injections (:func:`dual_verdict` ``inject=``).
#: ``no_flush`` skips flushing the bounds-check operand, collapsing the
#: speculation window the theorem's premise requires -- the measured race
#: then reports *safe* while the structural TSG verdict still says *leak*.
INJECTIONS: Tuple[str, ...] = ("no_flush",)

#: The byte every fuzz harness plants (mirrors the exploit harness default).
FUZZ_SECRET = 0x5A

#: Predictor-training runs before the bounds-check victim run.
TRAINING_ROUNDS = 4


@dataclass(frozen=True)
class GadgetShape:
    """One point of the generator's axis space."""

    source: str
    delay: int
    channel: str
    fence: str

    @property
    def bucket(self) -> str:
        """The coverage-corpus bucket this shape belongs to.

        The delay chain is a window knob, not an attack shape -- shapes
        differing only in delay land in the same bucket.
        """
        return f"{self.source}/{self.channel}/fence={self.fence}"

    def describe(self) -> str:
        return (
            f"{self.source} delay={self.delay} channel={self.channel} "
            f"fence={self.fence}"
        )

    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "delay": self.delay,
            "channel": self.channel,
            "fence": self.fence,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GadgetShape":
        return cls(
            source=str(data["source"]),
            delay=int(data["delay"]),
            channel=str(data["channel"]),
            fence=str(data["fence"]),
        )


@dataclass(frozen=True)
class FuzzCase:
    """One generated gadget: its coordinates, shape and built program."""

    seed: int
    index: int
    shape: GadgetShape
    program: Program

    @property
    def sha(self) -> str:
        return self.program.content_hash()

    @property
    def size(self) -> int:
        """Shrink metric: the program's instruction count."""
        return len(self.program.instructions)


@dataclass(frozen=True)
class FuzzVerdict:
    """The three oracles' answers for one case."""

    tsg_leaks: bool
    transmit_beats_squash: bool
    transmit_cycle: Optional[int]
    squash_cycle: Optional[int]
    window_cycles: Optional[int]
    recovered: Optional[int]
    #: The byte the harness planted (not part of :meth:`to_dict`).
    secret: int

    @property
    def leaked(self) -> bool:
        """The covert channel decoded exactly the planted byte."""
        return self.recovered == self.secret

    @property
    def agrees(self) -> bool:
        """The TSG verdict, the measured race and the decoded byte all agree."""
        return self.tsg_leaks == self.transmit_beats_squash == self.leaked

    def to_dict(self) -> dict:
        return {
            "tsg_leaks": self.tsg_leaks,
            "transmit_beats_squash": self.transmit_beats_squash,
            "transmit_cycle": self.transmit_cycle,
            "squash_cycle": self.squash_cycle,
            "window_cycles": self.window_cycles,
            "recovered": self.recovered,
            "agrees": self.agrees,
        }


def _case_rng(seed: int, index: int) -> random.Random:
    """A process-independent RNG for one (seed, index) coordinate.

    Plain integer arithmetic only: ``random.Random`` seeded with an int is
    stable across processes and interpreter sessions (no ``PYTHONHASHSEED``
    dependence), which is what makes generated programs content-hash-stable
    wherever they are rebuilt.
    """
    return random.Random(0x5EED ^ (seed * 1_000_003 + index * 7919))


def make_shape(seed: int, index: int) -> GadgetShape:
    """Draw the axis coordinates of one case."""
    rng = _case_rng(seed, index)
    return GadgetShape(
        source=rng.choice(SOURCES),
        delay=rng.randint(0, MAX_DELAY),
        channel=rng.choice(CHANNELS),
        fence=rng.choice(FENCES),
    )


def build_program(shape: GadgetShape) -> Program:
    """Materialize one shape as a valid tiny-ISA program.

    The bounds-check family extends the paper's Listing 1, the kernel-load
    family its Listing 2; both share the exploit harness memory layout so
    the standard Flush+Reload probe array serves every generated gadget.
    """
    program = Program(
        name=(
            f"fuzz-{shape.source}-d{shape.delay}-{shape.channel}-{shape.fence}"
        )
    )
    program.declare("probe_array", PROBE_BASE, PROBE_SIZE, shared=True)
    body: List[object] = []
    if shape.source == "bounds_check":
        program.declare("victim_array", VICTIM_ARRAY_BASE, VICTIM_ARRAY_LEN)
        program.declare(
            "victim_size", VICTIM_SIZE_ADDR, 8, initial=(VICTIM_ARRAY_LEN,)
        )
        program.declare("secret", SECRET_ADDR, 1, protected=True)
        body.append(
            Cmp(reg("rdx"), mem(symbol="victim_size"), label="victim",
                comment="bounds check: the delayed authorization")
        )
        body.append(Branch("ja", Label("done")))
        if shape.fence == "before_access":
            body.append(Fence())
        body.append(
            Load(reg("rax"), mem(base="rdx", symbol="victim_array"), size=1,
                 comment="Load S: the (possibly out-of-bounds) secret access")
        )
    elif shape.source == "kernel_load":
        program.declare(
            "kernel_secret", KERNEL_SECRET_ADDR, 64, kernel=True, protected=True
        )
        if shape.fence == "before_access":
            body.append(Fence())
        body.append(
            Load(reg("rax"), mem(symbol="kernel_secret"), size=1, label="attack",
                 comment="faulting load: authorization and access in one op")
        )
    else:  # pragma: no cover - generator invariant
        raise ValueError(f"unknown speculation source {shape.source!r}")
    if shape.fence == "before_use":
        body.append(Fence())
    for _ in range(shape.delay):
        body.append(Alu("add", reg("rax"), imm(0), comment="window delay"))
    send_reg = "rax"
    if shape.channel == "direct":
        body.append(Alu("shl", reg("rax"), imm(12), comment="Use"))
    elif shape.channel == "aliased":
        body.append(Alu("shl", reg("rax"), imm(12), comment="Use"))
        body.append(Mov(reg("rcx"), reg("rax"), comment="alias the index"))
        send_reg = "rcx"
    elif shape.channel == "double_shift":
        body.append(Alu("shl", reg("rax"), imm(6), comment="Use (half)"))
        body.append(Alu("shl", reg("rax"), imm(6), comment="Use (half)"))
    else:  # pragma: no cover - generator invariant
        raise ValueError(f"unknown channel {shape.channel!r}")
    if shape.fence == "before_send":
        body.append(Fence())
    body.append(
        Load(reg("rbx"), mem(base=send_reg, symbol="probe_array"),
             comment="Load R: the covert-channel send")
    )
    if shape.fence == "after_send":
        body.append(Fence())
    end_label = "done" if shape.source == "bounds_check" else "recover"
    body.append(Halt(label=end_label))
    program.extend(body)
    return program


def make_case(seed: int, index: int) -> FuzzCase:
    """The pure (seed, index) -> case function of the generator."""
    shape = make_shape(seed, index)
    return FuzzCase(seed=seed, index=index, shape=shape,
                    program=build_program(shape))


def case_from_shape(seed: int, index: int, shape: GadgetShape) -> FuzzCase:
    """A case at explicit coordinates with an explicit shape (shrinking)."""
    return FuzzCase(seed=seed, index=index, shape=shape,
                    program=build_program(shape))


def iter_cases(seed: int, count: int) -> Iterator[FuzzCase]:
    for index in range(count):
        yield make_case(seed, index)


# ---------------------------------------------------------------------------
# The measured-verdict harness
# ---------------------------------------------------------------------------
def _timing_verdict(
    case: FuzzCase,
    *,
    secret: int,
    inject: Optional[str],
    config=None,
    model=None,
) -> Tuple[bool, Optional[int], object]:
    """Replay one case end-to-end on the timing core.

    Returns ``(transmit_beats_squash, recovered, trace)``.  The harness
    mirrors the exploit-plane choreography for each source family: plant
    the secret, establish the Flush+Reload channel, delay the authorization
    (flush the bounds operand / rely on the late fault check) and read the
    measured race off the victim run's :class:`TimingTrace`.
    """
    from ..uarch import UarchConfig
    from ..uarch.timing.core import TimingCPU

    run_config = config if config is not None else UarchConfig()
    if model is not None:
        cpu = TimingCPU(case.program, run_config, model=model)
    else:
        cpu = TimingCPU(case.program, run_config)
    channel = FlushReloadChannel(
        cpu,
        PROBE_BASE,
        entries=PROBE_ENTRIES,
        stride=PROBE_STRIDE,
        hit_threshold=run_config.hit_threshold,
    )
    if case.shape.source == "bounds_check":
        cpu.write_memory(SECRET_ADDR, secret, 1)
        cpu.write_memory(VICTIM_SIZE_ADDR, VICTIM_ARRAY_LEN, 8)
        cpu.train("victim", TRAINING_ROUNDS, rdx=1)
        cpu.context_switch(cpu.context_id + 1)
        channel.prepare()
        if inject != "no_flush":
            cpu.flush_symbol("victim_size")
        cpu.set_register("rdx", SECRET_OFFSET)
        cpu.run("victim")
    else:
        cpu.write_memory(KERNEL_SECRET_ADDR, secret, 1)
        cpu.set_fault_handler("recover")
        channel.prepare()
        cpu.run("attack")
    observation = channel.receive()
    trace = getattr(cpu, "last_trace", None)
    measured = bool(trace is not None and trace.transmit_beats_squash)
    return measured, observation.value, trace


def dual_verdict(
    case: FuzzCase,
    *,
    secret: int = FUZZ_SECRET,
    inject: Optional[str] = None,
    engine=None,
    model=None,
) -> FuzzVerdict:
    """Ask all three oracles about one case.

    ``engine`` reuses the session's content-addressed graph-build cache for
    the TSG side; without one the graph is built directly.  ``inject``
    deliberately breaks the timing oracle (see :data:`INJECTIONS`) -- the
    TSG side is never touched, so an injection manufactures disagreements
    for the corpus/shrinker machinery to exercise.
    """
    if inject is not None and inject not in INJECTIONS:
        raise ValueError(
            f"unknown timing-oracle injection {inject!r}; "
            f"known: {', '.join(INJECTIONS)}"
        )
    from ..defenses.evaluation import attack_succeeds

    if engine is not None:
        graph = engine.build(case.program).graph
    else:
        from ..graphtool import build_attack_graph

        graph = build_attack_graph(case.program).graph
    tsg_leaks = bool(attack_succeeds(graph))
    measured, recovered, trace = _timing_verdict(
        case, secret=secret, inject=inject, model=model
    )
    return FuzzVerdict(
        tsg_leaks=tsg_leaks,
        transmit_beats_squash=measured,
        transmit_cycle=getattr(trace, "transmit_cycle", None),
        squash_cycle=getattr(trace, "squash_cycle", None),
        window_cycles=getattr(trace, "window_cycles", None),
        recovered=recovered,
        secret=secret,
    )


# ---------------------------------------------------------------------------
# Hypothesis-style shrinking
# ---------------------------------------------------------------------------
def _shrink_candidates(shape: GadgetShape) -> Iterator[GadgetShape]:
    """Strictly smaller one-step simplifications of ``shape``.

    Every candidate removes at least one instruction from the built
    program: shorten the delay chain, collapse the channel to ``direct``,
    drop the fence.  Emitted simplest-first so the greedy pass prefers the
    biggest single step it can take.
    """
    if shape.delay > 0:
        yield replace(shape, delay=0)
        if shape.delay > 1:
            yield replace(shape, delay=shape.delay - 1)
    if shape.channel != "direct":
        yield replace(shape, channel="direct")
    if shape.fence != "none":
        yield replace(shape, fence="none")


def shrink_case(
    case: FuzzCase,
    still_disagrees: Callable[[FuzzCase], bool],
    *,
    max_checks: int = 64,
) -> FuzzCase:
    """Greedily shrink a disagreeing case to a minimal reproducer.

    Repeatedly tries the one-step simplifications of the current shape and
    keeps any whose rebuilt program still satisfies ``still_disagrees``,
    until no candidate does (a fixpoint) or ``max_checks`` predicate
    evaluations are spent.  Every accepted step strictly reduces the
    program's instruction count, so the result is never larger than the
    input and the loop always terminates.
    """
    current = case
    checks = 0
    progress = True
    while progress and checks < max_checks:
        progress = False
        for candidate_shape in _shrink_candidates(current.shape):
            candidate = case_from_shape(case.seed, case.index, candidate_shape)
            checks += 1
            if candidate.size >= current.size:  # pragma: no cover - invariant
                continue
            if still_disagrees(candidate):
                current = candidate
                progress = True
                break
            if checks >= max_checks:
                break
    return current
