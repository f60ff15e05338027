"""Operation (vertex) types for attack graphs.

The paper (Section IV-B) defines an attack graph as a Topological Sort Graph
whose vertices are *operations* -- an instruction, a micro-architectural
action, or an attacker/receiver action such as flushing a cache line or
measuring an access time.  Four kinds of vertices *must* appear in every
attack graph:

* the victim's / sender's **authorization** operation,
* the sender's **secret access** operation,
* the sender's **send** (micro-architectural state change) operation,
* the receiver's **receive** (secret retrieval) operation.

This module defines those vertex categories, the six attack steps of
Section III, and the :class:`Operation` record stored at each vertex.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional


class OperationType(enum.Enum):
    """Category of an operation vertex in an attack graph."""

    #: Receiver's channel preparation or attacker setup (e.g. ``clflush``,
    #: mis-training a predictor).
    SETUP = "setup"
    #: The authorization operation: permission check, bounds-check branch
    #: resolution, address disambiguation, fault check, ... (Definition 1).
    AUTHORIZATION = "authorization"
    #: The sender's (possibly illegal) access of the secret.
    SECRET_ACCESS = "secret_access"
    #: A computation on the secret (e.g. forming the probe address).
    USE = "use"
    #: The sender's micro-architectural state change that encodes the secret
    #: (e.g. loading a secret-indexed cache line).
    SEND = "send"
    #: The receiver's retrieval of the secret from the covert channel.
    RECEIVE = "receive"
    #: Resolution of the delayed authorization (e.g. branch resolution,
    #: permission-check completion).
    RESOLUTION = "resolution"
    #: Pipeline squash or commit at the end of the speculation window.
    SQUASH_OR_COMMIT = "squash_or_commit"
    #: Any other operation (address computation, ALU work, stores, ...).
    OTHER = "other"


class ExecutionLevel(enum.Enum):
    """Whether a vertex models an instruction or an intra-instruction micro-op.

    The paper's insight 6 (Section VI): Spectre-type attacks only need
    instruction-level (inter-instruction) vertices, while Meltdown-type
    attacks require micro-architectural (intra-instruction) vertices because
    authorization and access happen inside a single load instruction.
    """

    ARCHITECTURAL = "architectural"
    MICROARCHITECTURAL = "microarchitectural"


class AttackStep(enum.Enum):
    """The six critical attack steps of Section III."""

    LOCATE_SECRET = 0
    SETUP = 1
    DELAYED_AUTHORIZATION = 2
    SECRET_ACCESS = 3
    USE_AND_SEND = 4
    RECEIVE = 5

    @property
    def part(self) -> "AttackPart":
        """Map a step to Part A (secret access) or Part B (covert channel)."""
        return _STEP_TO_PART[self]


class AttackPart(enum.Enum):
    """The two high-level parts of a speculative attack (Section III)."""

    #: Part A -- a micro-architectural feature transiently enables the
    #: illegal access of sensitive data.
    SECRET_ACCESS = "A"
    #: Part B -- the sensitive data is transformed into micro-architectural
    #: state observable by the attacker.
    COVERT_CHANNEL = "B"


_STEP_TO_PART: Mapping[AttackStep, AttackPart] = {
    AttackStep.LOCATE_SECRET: AttackPart.SECRET_ACCESS,
    AttackStep.SETUP: AttackPart.COVERT_CHANNEL,
    AttackStep.DELAYED_AUTHORIZATION: AttackPart.SECRET_ACCESS,
    AttackStep.SECRET_ACCESS: AttackPart.SECRET_ACCESS,
    AttackStep.USE_AND_SEND: AttackPart.COVERT_CHANNEL,
    AttackStep.RECEIVE: AttackPart.COVERT_CHANNEL,
}


@dataclass(frozen=True, slots=True)
class Operation:
    """A vertex of an attack graph.

    Parameters
    ----------
    name:
        Unique, human-readable vertex name (e.g. ``"Load S"``).
    op_type:
        The operation category (:class:`OperationType`).
    step:
        The attack step this operation belongs to, if any.
    level:
        Architectural (instruction) or micro-architectural (micro-op) vertex.
    speculative:
        ``True`` when the operation executes inside the speculative window.
    description:
        Free-form description used in reports and rendered graphs.
    metadata:
        Arbitrary extra attributes (e.g. the originating instruction).
    """

    name: str
    op_type: OperationType = OperationType.OTHER
    step: Optional[AttackStep] = None
    level: ExecutionLevel = ExecutionLevel.ARCHITECTURAL
    speculative: bool = False
    description: str = ""
    metadata: Mapping[str, Any] = field(default_factory=dict, compare=False, hash=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("Operation name must be non-empty")

    @property
    def part(self) -> Optional[AttackPart]:
        """Part A / Part B membership, derived from the attack step."""
        if self.step is None:
            return None
        return self.step.part

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name
