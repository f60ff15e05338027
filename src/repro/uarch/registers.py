"""Register state: general purpose, flags, special (MSR) and FPU registers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from ..isa.operands import ALL_REGISTERS, FLAGS, FP_REGISTERS, GP_REGISTERS

MASK64 = (1 << 64) - 1


class RegisterFile:
    """The architectural general-purpose register file (plus flags)."""

    def __init__(self) -> None:
        self._values: Dict[str, int] = {name: 0 for name in ALL_REGISTERS}
        #: Registers whose current value was produced by a long-latency
        #: operation (a cache miss); reading such a register delays the
        #: consumer -- this is what opens speculation windows.
        self._slow: Set[str] = set()

    def read(self, name: str) -> int:
        return self._values[name]

    def write(self, name: str, value: int, *, slow: bool = False) -> None:
        self._values[name] = value & MASK64
        if slow:
            self._slow.add(name)
        else:
            self._slow.discard(name)

    def is_slow(self, name: str) -> bool:
        return name in self._slow

    def mark_ready(self, name: str) -> None:
        self._slow.discard(name)

    def snapshot(self) -> Tuple[Dict[str, int], Set[str]]:
        return dict(self._values), set(self._slow)

    def restore(self, snapshot: Tuple[Dict[str, int], Set[str]]) -> None:
        values, slow = snapshot
        self._values = dict(values)
        self._slow = set(slow)

    def as_dict(self) -> Dict[str, int]:
        return dict(self._values)


@dataclass
class Flags:
    """The outcome of the most recent compare (lhs vs rhs)."""

    lhs: int = 0
    rhs: int = 0

    def evaluate(self, condition: str) -> bool:
        """Evaluate a branch condition against these flags."""
        unsigned_lhs, unsigned_rhs = self.lhs & MASK64, self.rhs & MASK64
        signed_lhs = unsigned_lhs - (1 << 64) if unsigned_lhs >> 63 else unsigned_lhs
        signed_rhs = unsigned_rhs - (1 << 64) if unsigned_rhs >> 63 else unsigned_rhs
        if condition == "ja":
            return unsigned_lhs > unsigned_rhs
        if condition == "jae":
            return unsigned_lhs >= unsigned_rhs
        if condition == "jb":
            return unsigned_lhs < unsigned_rhs
        if condition == "jbe":
            return unsigned_lhs <= unsigned_rhs
        if condition == "je":
            return unsigned_lhs == unsigned_rhs
        if condition == "jne":
            return unsigned_lhs != unsigned_rhs
        if condition == "jg":
            return signed_lhs > signed_rhs
        if condition == "jl":
            return signed_lhs < signed_rhs
        raise ValueError(f"unknown condition {condition!r}")


class SpecialRegisters:
    """Model-specific (system) registers, readable only in supervisor mode."""

    def __init__(self, values: Optional[Dict[int, int]] = None) -> None:
        self._values: Dict[int, int] = dict(values or {})

    def read(self, msr: int) -> int:
        return self._values.get(msr, 0)

    def write(self, msr: int, value: int) -> None:
        self._values[msr] = value & MASK64


class FPUState:
    """Floating-point register state with lazy context ownership (LazyFP)."""

    def __init__(self) -> None:
        self._values: Dict[str, int] = {name: 0 for name in FP_REGISTERS}
        #: Context id that owns the current FP state; a different running
        #: context triggers the (delayed) ownership check and fault.
        self.owner: int = 0

    def read(self, name: str) -> int:
        return self._values[name]

    def write(self, name: str, value: int) -> None:
        self._values[name] = value & MASK64

    def switch_owner(self, context: int, *, eager: bool = False) -> None:
        """Change the owning context.

        With ``eager`` switching the register values are cleared immediately
        (no stale state to leak); with lazy switching (the default, and the
        vulnerable behaviour) the old values stay until the first FP use.
        """
        self.owner = context
        if eager:
            for name in self._values:
                self._values[name] = 0
