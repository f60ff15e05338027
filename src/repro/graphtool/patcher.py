"""Patching programs by inserting security dependencies (fences).

The paper: "The tool can also proactively insert a security dependency, e.g.
a lightweight fence, to prevent attacks."  For software authorizations
(branches) the patcher inserts an ``lfence`` immediately after the
authorization instruction, which serializes the protected access behind the
authorization -- defense strategy 1.  Vulnerabilities whose authorization is
inside the access instruction (Meltdown-type) cannot be plugged by a software
fence; the patcher reports them as requiring a hardware defense (or a
mapping-removal defense such as KPTI).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Set, Tuple

from ..isa.instructions import Branch, Fence, IndirectJmp, Instruction, Ret
from ..isa.program import Program
from .analyzer import AnalysisReport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..engine import Engine
from .classify import MICROARCH_KINDS


@dataclass(frozen=True, slots=True)
class PatchResult:
    """Outcome of patching a program."""

    original: Program
    patched: Program
    fences_inserted: Tuple[int, ...]
    unpatchable_findings: Tuple[str, ...]
    report_before: AnalysisReport
    report_after: AnalysisReport

    @property
    def access_vulnerabilities_removed(self) -> bool:
        """All software-patchable access-before-authorization races are gone."""
        remaining = [
            finding
            for finding in self.report_after.access_findings
            if finding.software_patchable
        ]
        return not remaining

    def summary(self) -> str:
        lines = [
            f"Patched {self.original.name!r}: inserted {len(self.fences_inserted)} fence(s) "
            f"after instruction indices {list(self.fences_inserted)}",
            f"  software-patchable access races before: "
            f"{sum(1 for f in self.report_before.access_findings if f.software_patchable)}",
            f"  software-patchable access races after:  "
            f"{sum(1 for f in self.report_after.access_findings if f.software_patchable)}",
        ]
        if self.unpatchable_findings:
            lines.append("  findings requiring a hardware defense:")
            lines.extend(f"    - {finding}" for finding in self.unpatchable_findings)
        return "\n".join(lines)


def _fence_positions(report: AnalysisReport) -> Set[int]:
    """Instruction indices after which a fence should be inserted."""
    positions: Set[int] = set()
    for site in report.build.secret_accesses:
        if site.authorization_kind in MICROARCH_KINDS:
            continue
        positions.add(site.authorization_index)
    return positions


def _rebuild_with_fences(program: Program, positions: Sequence[int]) -> Program:
    """Create a new program with an lfence inserted after each given index."""
    patched = Program(name=f"{program.name}+fences", symbols=program.symbols.values())
    insert_after = set(positions)
    for index, instruction in enumerate(program):
        patched.append(instruction)
        if index in insert_after:
            patched.append(Fence(kind="lfence", comment="inserted security dependency"))
    return patched


def patch_program(
    program: Program,
    protected_symbols: Optional[Sequence[str]] = None,
    engine: Optional["Engine"] = None,
) -> PatchResult:
    """Analyze, patch (insert fences) and re-analyze a program.

    Both analyses run through the (given or default) engine session, so the
    pre-patch report is shared with any earlier ``analyze`` of the same
    program content, and re-patching is a pure cache hit.
    """
    from ..engine import default_engine
    from ..scenario import ScenarioSpec

    session = engine if engine is not None else default_engine()
    report_before = session.run(
        ScenarioSpec("analyze", program=program, protected_symbols=protected_symbols)
    ).payload
    positions = sorted(_fence_positions(report_before))
    patched = _rebuild_with_fences(program, positions) if positions else program
    report_after = session.run(
        ScenarioSpec("analyze", program=patched, protected_symbols=protected_symbols)
    ).payload
    unpatchable = tuple(
        str(finding)
        for finding in report_before.findings
        if not finding.software_patchable
    )
    return PatchResult(
        original=program,
        patched=patched,
        fences_inserted=tuple(positions),
        unpatchable_findings=unpatchable,
        report_before=report_before,
        report_after=report_after,
    )
