"""Vulnerability analysis on constructed attack graphs.

The analyzer runs the Figure 9 flow end to end: build the attack graph of a
program, find the missing security dependencies (races between authorization
and access / use / send), and produce a report that names the offending
instructions, classifies the program as Spectre-type or Meltdown-type, and
says which vulnerabilities a software fence can plug.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..core.attack_graph import vulnerability_description
from ..core.security_dependency import ProtectionPoint, missing_dependency_triples
from ..isa.program import Program
from .builder import BuildResult
from .classify import MICROARCH_KINDS


@dataclass(frozen=True, slots=True)
class Finding:
    """One reported vulnerability: a missing security dependency."""

    authorization: str
    protected_operation: str
    point: ProtectionPoint
    software_patchable: bool
    description: str

    def __str__(self) -> str:  # pragma: no cover - trivial
        fix = "software fence" if self.software_patchable else "hardware defense"
        return (
            f"[{self.point.value}] {self.protected_operation!r} may complete before "
            f"{self.authorization!r} (fix: {fix})"
        )


@dataclass
class AnalysisReport:
    """Full report of the attack-graph construction tool on one program."""

    program_name: str
    build: BuildResult
    findings: List[Finding] = field(default_factory=list)
    #: Total racing vertex pairs in the attack graph (batch closure sweep);
    #: an upper bound on how much ordering freedom the hardware retains.
    total_racing_pairs: int = 0

    @property
    def vulnerable(self) -> bool:
        return bool(self.findings)

    @property
    def is_meltdown_type(self) -> bool:
        return self.build.is_meltdown_type

    @property
    def access_findings(self) -> List[Finding]:
        return [finding for finding in self.findings if finding.point is ProtectionPoint.ACCESS]

    @property
    def send_findings(self) -> List[Finding]:
        return [finding for finding in self.findings if finding.point is ProtectionPoint.SEND]

    def summary(self) -> str:
        lines = [
            f"Analysis of {self.program_name!r}",
            f"  graph: {len(self.build.graph)} vertices, {len(self.build.graph.edges)} edges",
            f"  classification: "
            + ("Meltdown-type (intra-instruction)" if self.is_meltdown_type else "Spectre-type (inter-instruction)"),
            f"  potential secret accesses: {len(self.build.secret_accesses)}",
            f"  racing vertex pairs: {self.total_racing_pairs}",
            f"  missing security dependencies: {len(self.findings)}",
        ]
        for finding in self.findings:
            lines.append(f"    - {finding}")
        if not self.findings:
            lines.append("    (none -- program appears safe under this threat model)")
        return "\n".join(lines)


def analyze_build(
    build: BuildResult,
    points: Optional[Sequence[ProtectionPoint]] = None,
) -> AnalysisReport:
    """Analyse an already-constructed attack graph (the engine's cold path)."""
    selected_points = list(points) if points is not None else None
    triples = missing_dependency_triples(build.graph, points=selected_points)
    # A vulnerability is software-patchable when its authorization is a
    # branch: fences can be inserted between a software authorization and
    # the protected access.  When authorization and access are micro-ops of
    # the same instruction, no software fence can be placed between them --
    # the fix must come from hardware (or from removing the mapping, as KPTI
    # does).  The authorization vertex is a branch vertex iff it is not a
    # micro-op vertex (micro-op vertices contain the ``::`` separator).
    has_software_authorization = any(
        site.authorization_kind not in MICROARCH_KINDS for site in build.secret_accesses
    )
    findings = [
        Finding(
            authorization=authorization,
            protected_operation=protected,
            point=point,
            software_patchable=has_software_authorization and "::" not in authorization,
            description=vulnerability_description(authorization, protected, point),
        )
        for authorization, protected, point in triples
    ]
    return AnalysisReport(
        program_name=build.program.name,
        build=build,
        findings=findings,
        total_racing_pairs=build.graph.count_racing_pairs(),
    )


def analyze_program(
    program: Program,
    protected_symbols: Optional[Sequence[str]] = None,
    points: Optional[Sequence[ProtectionPoint]] = None,
) -> AnalysisReport:
    """Run the full Figure 9 flow on a program and report its vulnerabilities.

    The payload of an ``analyze`` spec run on the default engine: repeated
    analyses of content-identical programs are served from the
    content-addressed cache.  The returned report is the shared cached
    artifact -- treat it as immutable.
    """
    from ..engine import default_engine
    from ..scenario import ScenarioSpec

    spec = ScenarioSpec(
        "analyze", program=program, protected_symbols=protected_symbols, points=points
    )
    return default_engine().run(spec).payload
