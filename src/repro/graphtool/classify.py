"""Classification of instructions for the attack-graph construction tool.

Figure 9's first decision is whether the attack variant uses a *faulty
access* (authorization and access inside one instruction, requiring
micro-architecture-level modelling) or a separate *software authorization*
instruction such as a branch (architecture-level modelling suffices).  This
module identifies both kinds of authorization instructions in a program, and
the potential secret-access instructions the tool must track.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from ..isa.instructions import (
    Branch,
    Cmp,
    FpExtract,
    FpLoad,
    IndirectJmp,
    Instruction,
    Load,
    Rdmsr,
    Ret,
    Store,
)
from ..isa.program import Program


class AuthorizationKind(enum.Enum):
    """Kinds of authorization operations the tool recognises."""

    BOUNDS_CHECK_BRANCH = "software bounds-check branch"
    INDIRECT_BRANCH_TARGET = "indirect branch target resolution"
    RETURN_TARGET = "return target resolution"
    PAGE_PRIVILEGE_CHECK = "page privilege / permission check"
    MSR_PRIVILEGE_CHECK = "model-specific register privilege check"
    FPU_OWNER_CHECK = "FPU ownership check"
    STORE_LOAD_DISAMBIGUATION = "store-load address disambiguation"


#: Authorization kinds that require intra-instruction (micro-op) modelling.
MICROARCH_KINDS = frozenset(
    {
        AuthorizationKind.PAGE_PRIVILEGE_CHECK,
        AuthorizationKind.MSR_PRIVILEGE_CHECK,
        AuthorizationKind.FPU_OWNER_CHECK,
        AuthorizationKind.STORE_LOAD_DISAMBIGUATION,
    }
)


@dataclass(frozen=True)
class AuthorizationSite:
    """An authorization operation found in a program."""

    index: int
    kind: AuthorizationKind

    @property
    def intra_instruction(self) -> bool:
        """``True`` when this authorization happens inside the access instruction."""
        return self.kind in MICROARCH_KINDS


@dataclass(frozen=True)
class SecretAccessSite:
    """A potential secret access found in a program."""

    index: int
    reason: str
    #: Index of the instruction performing the authorization; equal to
    #: ``index`` itself for faulty (intra-instruction) accesses.
    authorization_index: int
    authorization_kind: AuthorizationKind


def find_authorizations(program: Program) -> List[AuthorizationSite]:
    """All authorization operations in the program (Figure 9, both branches)."""
    sites: List[AuthorizationSite] = []
    unresolved_store_addresses = False
    for index, instruction in enumerate(program):
        if isinstance(instruction, Branch):
            sites.append(AuthorizationSite(index, AuthorizationKind.BOUNDS_CHECK_BRANCH))
        elif isinstance(instruction, IndirectJmp):
            sites.append(AuthorizationSite(index, AuthorizationKind.INDIRECT_BRANCH_TARGET))
        elif isinstance(instruction, Ret):
            sites.append(AuthorizationSite(index, AuthorizationKind.RETURN_TARGET))
        elif isinstance(instruction, Rdmsr):
            sites.append(AuthorizationSite(index, AuthorizationKind.MSR_PRIVILEGE_CHECK))
        elif isinstance(instruction, (FpLoad, FpExtract)):
            sites.append(AuthorizationSite(index, AuthorizationKind.FPU_OWNER_CHECK))
        elif isinstance(instruction, Store) and instruction.address.registers:
            unresolved_store_addresses = True
        elif isinstance(instruction, (Load, Cmp)) and instruction.memory_read is not None:
            operand = instruction.memory_read
            symbol = (
                program.symbols.get(operand.symbol) if operand.symbol is not None else None
            )
            if symbol is not None and (symbol.kernel or symbol.protected):
                sites.append(AuthorizationSite(index, AuthorizationKind.PAGE_PRIVILEGE_CHECK))
            elif unresolved_store_addresses and operand.registers:
                sites.append(
                    AuthorizationSite(index, AuthorizationKind.STORE_LOAD_DISAMBIGUATION)
                )
    return sites


def find_secret_accesses(
    program: Program, protected_symbols: Optional[Set[str]] = None
) -> List[SecretAccessSite]:
    """Potential secret accesses and the authorization each one is subject to.

    An access is a potential secret access when

    * it statically references a protected or kernel data symbol (direct
      access -- the authorization is the hardware permission check inside the
      same instruction), or
    * it reads a privileged or lazily-switched register (RDMSR, FP state), or
    * it is register-indexed and guarded by a bounds-check branch (indirect
      access -- out-of-bounds values of the index can reach protected data):
      the guard is the latest conditional branch whose flags come from a
      ``cmp`` reading one of the address registers (Spectre v1's bounds
      check), or
    * it may alias an older store whose address is not yet resolved
      (store-to-load bypass).
    """
    protected = set(protected_symbols or ())
    protected |= {symbol.name for symbol in program.protected_symbols()}
    kernel = {name for name, symbol in program.symbols.items() if symbol.kernel}

    sites: List[SecretAccessSite] = []
    store_seen_with_unknown_address = False
    # One forward pass finds every guard: for each register, the latest
    # branch whose preceding ``cmp`` reads it.
    latest_cmp: Optional[Instruction] = None
    guard_of: Dict[str, int] = {}
    for index, instruction in enumerate(program):
        if isinstance(instruction, Cmp):
            latest_cmp = instruction
        elif isinstance(instruction, Branch) and latest_cmp is not None:
            for register in latest_cmp.reads_registers():
                guard_of[register] = index
        if isinstance(instruction, Store) and instruction.address.registers:
            store_seen_with_unknown_address = True
        if isinstance(instruction, Rdmsr):
            sites.append(
                SecretAccessSite(
                    index=index,
                    reason="privileged system register read",
                    authorization_index=index,
                    authorization_kind=AuthorizationKind.MSR_PRIVILEGE_CHECK,
                )
            )
            continue
        if isinstance(instruction, FpExtract):
            sites.append(
                SecretAccessSite(
                    index=index,
                    reason="read of lazily-switched FPU state",
                    authorization_index=index,
                    authorization_kind=AuthorizationKind.FPU_OWNER_CHECK,
                )
            )
            continue
        operand = instruction.memory_read
        if operand is None:
            continue
        symbol_name = operand.symbol
        if symbol_name is not None and (symbol_name in protected or symbol_name in kernel):
            sites.append(
                SecretAccessSite(
                    index=index,
                    reason=f"direct access to protected symbol {symbol_name!r}",
                    authorization_index=index,
                    authorization_kind=AuthorizationKind.PAGE_PRIVILEGE_CHECK,
                )
            )
            continue
        if operand.registers:
            guard = max(
                (guard_of[register] for register in operand.registers if register in guard_of),
                default=None,
            )
            if guard is not None:
                sites.append(
                    SecretAccessSite(
                        index=index,
                        reason="register-indexed access guarded by a bounds check",
                        authorization_index=guard,
                        authorization_kind=AuthorizationKind.BOUNDS_CHECK_BRANCH,
                    )
                )
                continue
            if store_seen_with_unknown_address:
                sites.append(
                    SecretAccessSite(
                        index=index,
                        reason="load that may bypass an older store with unresolved address",
                        authorization_index=index,
                        authorization_kind=AuthorizationKind.STORE_LOAD_DISAMBIGUATION,
                    )
                )
    return sites


def requires_microarch_modelling(program: Program) -> bool:
    """Does any access need intra-instruction modelling (Meltdown-type)?"""
    return any(site.authorization_kind in MICROARCH_KINDS for site in find_secret_accesses(program))
