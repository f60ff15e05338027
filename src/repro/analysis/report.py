"""Full-report generation: one Markdown document covering the whole model.

:func:`full_report` regenerates the paper's tables, summarises every attack
graph (its authorization / access / send nodes and missing security
dependencies), and records the defense-evaluation matrix.  It is what the
``repro report`` CLI command prints, and it gives downstream users a single
artifact to diff when they extend the catalog.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence

from ..attacks import ALL_VARIANTS, AttackVariant, variants
from ..defenses import ALL_DEFENSES, Defense
from .tables import defense_strategy_table, format_table, table1, table2, table3

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..engine import Engine, Result


def _attack_section_for_key(key: str) -> str:
    """Module-level shard worker: render one attack section by registry key.

    Picklable by reference, so :func:`full_report` can fan the per-variant
    graph builds out over :meth:`Engine.map`.
    """
    return attack_section(ALL_VARIANTS[key])


def attack_section(variant: AttackVariant) -> str:
    """A Markdown section describing one attack variant and its graph."""
    graph = variant.build_graph()
    vulnerabilities = graph.find_vulnerabilities()
    lines = [
        f"### {variant.name}",
        "",
        f"* key: `{variant.key}`",
        f"* CVE: {variant.cve or 'N/A'}",
        f"* impact: {variant.impact}",
        f"* category: {variant.category.value}"
        + (" (intra-instruction micro-ops)" if variant.is_meltdown_type else ""),
        f"* authorization: {variant.authorization}",
        f"* illegal access: {variant.illegal_access}",
        f"* secret source: {variant.secret_source.value}",
        f"* speculation trigger: {variant.delay_mechanism.value}",
        f"* graph: {len(graph)} vertices, {len(graph.edges)} edges, "
        f"{len(graph.speculative_window)} in the speculative window",
        "* missing security dependencies:",
    ]
    lines.extend(f"  * {vulnerability.dependency}" for vulnerability in vulnerabilities)
    return "\n".join(lines)


def window_ablation_section(result: "Result") -> str:
    """Render a ``window_ablation`` envelope as text tables.

    One row per (attack, ROB/RS point, port configuration) with the measured
    window length and the transmit/squash race, followed by the
    functional-unit contention channel's occupancy-delta transmissions under
    each port configuration.
    """
    rows = [
        (
            row["attack"],
            row["rob_size"],
            row["rs_entries"],
            row["ports"],
            row["window_cycles"] if row["window_cycles"] is not None else "-",
            row["transmit_cycle"] if row["transmit_cycle"] is not None else "-",
            row["squash_cycle"] if row["squash_cycle"] is not None else "-",
            "LEAKS" if row["transmit_beats_squash"] else "safe",
            row["port_stall_cycles"],
            row["cdb_stall_cycles"],
        )
        for row in result.data["rows"]
    ]
    sections = [
        format_table(
            ("attack", "rob", "rs", "ports", "window", "transmit", "squash",
             "race", "port-stall", "cdb-stall"),
            rows,
        ),
        "",
        "FU-contention covert channel (occupancy delta per port config):",
        format_table(
            ("ports", "sent", "recovered", "cycle delta", "verdict"),
            [
                (
                    row["ports"],
                    row["value"],
                    row["recovered"] if row["recovered"] is not None else "-",
                    row["cycle_delta"],
                    "TRANSMITS" if row["detected"] else "no signal",
                )
                for row in result.data["contention_channel"]
            ],
        ),
    ]
    return "\n".join(sections)


def simulate_section(result: "Result") -> str:
    """Render a single ``simulate`` envelope as the CLI's race narrative."""
    data = result.data
    lines = [
        f"attack:    {data['attack']} (scenario {data['scenario']})",
        f"defenses:  {', '.join(data['defenses']) or '(none)'}",
        f"cycles:    {data['cycles']} ({data['windows']} speculation window(s))",
    ]
    transmit = data["transmit_cycle"]
    squash = data["squash_cycle"]
    if transmit is None:
        lines.append("race:      no covert transmit issued -> no leak")
    else:
        verdict = (
            "TRANSMIT WINS (leak)"
            if data["transmit_beats_squash"]
            else "squash wins (no leak)"
        )
        lines.append(f"race:      transmit @{transmit} vs squash @{squash} -> {verdict}")
    if "tsg_leaks" in data:
        lines.append(
            f"theorem 1: TSG says {'leaks' if data['tsg_leaks'] else 'safe'} "
            f"-> {'agrees' if data['theorem1_agrees'] else 'DISAGREES'}"
        )
    trace = getattr(result.payload, "timing", None)
    if trace is not None:
        lines.append("key events:")
        lines.extend(
            f"  cycle {event.cycle:>5}: {event.kind:<12} (op {event.seq}) {event.detail}"
            for event in trace.key_events()
        )
    return "\n".join(lines)


def simulate_sweep_section(result: "Result") -> str:
    """Render a ``simulate_sweep`` envelope as the (attack x defense) table."""
    rows = [
        (
            row["attack"],
            ",".join(row["defenses"]) or "(none)",
            "LEAKS" if row["transmit_beats_squash"] else "defended",
            row["transmit_cycle"] if row["transmit_cycle"] is not None else "-",
            row["squash_cycle"] if row["squash_cycle"] is not None else "-",
        )
        for row in result.data["rows"]
    ]
    return format_table(("attack", "defenses", "race", "transmit", "squash"), rows)


def ablation_section(result: "Result") -> str:
    """Render an ``ablation`` envelope as the defense/strategy/outcome table."""
    rows = [
        (row["defense"], row["strategy"], "LEAKS" if row["leaked"] else "defeated")
        for row in result.data["rows"]
    ]
    return format_table(("defense", "strategy", "outcome"), rows)


def exploit_section(result: "Result") -> str:
    """Render an ``exploit`` (single or suite) envelope."""
    data = result.data
    rows = data.get("rows", [data])
    table = format_table(
        ("attack", "secret", "recovered", "verdict"),
        [
            (
                row["attack"],
                f"{row['secret']:#x}",
                f"{row['recovered']:#x}" if row["recovered"] is not None else "nothing",
                "LEAKED" if row["success"] else "no leak",
            )
            for row in rows
        ],
    )
    if "leaked" in data:
        return f"{table}\n{data['leaked']}/{data['exploits']} exploits leaked"
    return table


def _grid_row_verdict(row: Dict[str, object]) -> str:
    if row.get("data", {}).get("quarantined"):
        return "QUARANTINED"
    return "yes" if row["ok"] else "NO"


def grid_section(result: "Result") -> str:
    """Render a generic ``<kind>_grid`` envelope: one verdict row per point.

    Points quarantined by the failure policy (``kind="error"`` envelopes)
    are flagged in place and summarized in the footer.
    """
    data = result.data
    table = format_table(
        ("point", "subject", "ok"),
        [
            (index, row["subject"], _grid_row_verdict(row))
            for index, row in enumerate(data["rows"])
        ],
    )
    footer = (
        f"{data['ok_points']}/{data['points']} points ok "
        f"(kind {data['kind']})"
    )
    if data.get("quarantined"):
        footer += (
            f"; {data['quarantined']} quarantined after repeated failures "
            "(re-run with --resume to retry them)"
        )
    return f"{table}\n{footer}"


def fuzz_point_section(result: "Result") -> str:
    """Render one ``fuzz_point`` envelope: both oracle verdicts side by side."""
    data = result.data
    tsg = "leaks" if data["tsg_leaks"] else "safe"
    timing = "leaks" if data["transmit_beats_squash"] else "safe"
    lines = [
        f"### fuzz point {data['seed']}/{data['index']}",
        "",
        f"* shape: {data['source']} delay={data['delay']} "
        f"channel={data['channel']} fence={data['fence']}",
        f"* program: {data['instructions']} instructions, "
        f"sha {str(data['sha'])[:12]}",
        f"* TSG oracle: {tsg}",
        f"* timing oracle: {timing} (transmit {data['transmit_cycle']}, "
        f"squash {data['squash_cycle']})",
        f"* verdict: {'AGREE' if data['agrees'] else 'DISAGREE'}",
    ]
    if data.get("inject"):
        lines.append(f"* injected fault: {data['inject']}")
    return "\n".join(lines)


def fuzz_campaign_section(result: "Result") -> str:
    """Render a ``fuzz_campaign`` envelope: coverage, verdict tallies and
    every (shrunk) oracle disagreement."""
    data = result.data
    table = format_table(
        ("bucket", "points"),
        [(bucket, count) for bucket, count in data["coverage"].items()],
    )
    footer = (
        f"seed {data['seed']}: {data['executed']}/{data['generated']} points "
        f"executed across {data['buckets']} buckets -- "
        f"{data['agreed']} agreed, {data['disagreed']} disagreed, "
        f"{data['quarantined']} quarantined"
    )
    if data.get("points_per_second"):
        footer += f" ({data['points_per_second']:.0f} points/s)"
    if data.get("budget_exhausted"):
        footer += (
            f"; budget of {data['budget']}s exhausted -- re-run with "
            "--resume to finish the remaining points"
        )
    lines = [table, footer]
    for row in data["disagreements"]:
        lines.append("")
        lines.append(
            f"DISAGREEMENT at point {row['seed']}/{row['index']}: "
            f"{row['source']} delay={row['delay']} channel={row['channel']} "
            f"fence={row['fence']} -- TSG says "
            f"{'leaks' if row['tsg_leaks'] else 'safe'}, timing says "
            f"{'leaks' if row['transmit_beats_squash'] else 'safe'}"
        )
        shrunk = row.get("shrunk")
        if shrunk:
            shape = shrunk["shape"]
            lines.append(
                f"  shrunk to {shrunk['instructions']} instructions "
                f"({shape['source']} delay={shape['delay']} "
                f"channel={shape['channel']} fence={shape['fence']}, "
                f"sha {str(shrunk['sha'])[:12]}):"
            )
            lines.extend(
                f"    {line}" for line in str(shrunk["listing"]).splitlines()
            )
    return "\n".join(lines)


def error_section(result: "Result") -> str:
    """Render a quarantined point's ``error`` envelope."""
    data = result.data
    return (
        f"ERROR {result.subject}: {data['error']}: {data['message']} "
        f"(quarantined after {data['attempts']} attempts)"
    )


def render_result(result: "Result", kind: Optional[str] = None) -> str:
    """Render any engine :class:`~repro.engine.Result` for a terminal.

    ``kind`` is the *spec* kind when known (the envelope's ``result.kind``
    collapses some spec kinds -- e.g. both ``simulate`` and
    ``simulate_sweep`` produce ``simulate`` envelopes); falls back to a JSON
    dump for shapes without a dedicated renderer.
    """
    from ..uarch.timing.validate import validation_report

    kind = kind or result.kind
    if kind.endswith("_grid"):
        return grid_section(result)
    if kind == "error":
        return error_section(result)
    if kind == "window_ablation":
        return window_ablation_section(result)
    if kind == "fuzz_point":
        return fuzz_point_section(result)
    if kind == "fuzz_campaign":
        return fuzz_campaign_section(result)
    if kind == "validate_timing" or result.subject == "theorem1-validation":
        if result.payload is not None:
            return validation_report(result.payload)
        return result.to_json()
    if kind == "simulate_sweep" or (kind == "simulate" and "runs" in result.data):
        return simulate_sweep_section(result)
    if kind == "simulate_batch":
        # Batch rows carry the same fields as sweep rows -- one table.
        return simulate_sweep_section(result)
    if kind == "simulate":
        return simulate_section(result)
    if kind == "ablation":
        return ablation_section(result)
    if kind in ("exploit", "exploit_suite"):
        return exploit_section(result)
    if kind == "analyze" and result.payload is not None:
        return result.payload.summary()
    if kind == "patch" and result.payload is not None:
        return f"{result.payload.summary()}\n\n{result.payload.patched.listing()}"
    if kind in ("matrix", "evaluate") and "rows" in result.data:
        return format_table(
            ("defense", "attack", "strategy", "verdict"),
            [
                (
                    row["defense"],
                    row["attack"],
                    row["strategy"],
                    "-" if not row["applicable"]
                    else ("defeats" if row["effective"] else "leaks"),
                )
                for row in result.data["rows"]
            ],
        )
    if kind == "synthesize":
        rows = result.data["rows"]
        table = format_table(
            ("source", "delay", "channel", "published", "leaks"),
            [
                (
                    row["source"],
                    row["delay"],
                    row["channel"],
                    "yes" if row["published"] else "novel",
                    "LEAKS" if row["leaks"] else "safe",
                )
                for row in rows
            ],
        )
        data = result.data
        return (
            f"{table}\n{data['combinations']} combinations, "
            f"{data['published']} published, {data['novel']} novel, "
            f"{data['leaking']} leaking"
        )
    return result.to_json()


def service_response_summary(envelope: Mapping[str, object]) -> str:
    """Human lines for one analysis-service response envelope.

    The envelope's ``result`` field is a plain ``Result.to_dict()`` dict;
    rebuilding a (payload-less) :class:`~repro.engine.Result` around it
    reuses every per-kind renderer above, so ``repro request`` output
    matches what the same spec prints locally -- prefixed with the
    service-side provenance (request id, hit source, latencies).
    """
    from ..engine import Result

    spec = envelope.get("spec") or {}
    latency = envelope.get("latency_ms") or {}
    head = (
        f"request {envelope.get('request_id')}: {spec.get('kind', '?')} "
        f"[{envelope.get('hit', '?')}] "
        f"queue {latency.get('queue', 0):.1f} ms + "
        f"compute {latency.get('compute', 0):.1f} ms = "
        f"total {latency.get('total', 0):.1f} ms"
    )
    raw = envelope.get("result")
    if not isinstance(raw, Mapping):
        return head
    result = Result(
        kind=str(raw.get("kind", "?")),
        subject=str(raw.get("subject", "?")),
        ok=bool(raw.get("ok")),
        cache=str(raw.get("cache", "none")),
        data=dict(raw.get("data") or {}),
    )
    return f"{head}\n{render_result(result, spec.get('kind'))}"


def format_trace_summary(summary: Mapping[str, object]) -> str:
    """Terminal rendering of :func:`repro.obs.summarize.summarize`.

    Three blocks: the per-phase latency breakdown (sorted by total time,
    so the most expensive pipeline stage leads), the slowest individual
    points, and the critical path -- the parent chain behind the span that
    finished last, i.e. what actually determined the campaign's makespan.
    """
    lines = [
        f"{summary['spans']} spans, {summary['traces']} trace(s), "
        f"{summary['processes']} process(es), "
        f"wall {float(summary['wall_ms']):.1f} ms",
        "",
        "Phase breakdown",
        format_table(
            ("phase", "count", "total ms", "mean ms", "max ms"),
            [
                (
                    phase,
                    int(bucket["count"]),
                    f"{bucket['total_ms']:.2f}",
                    f"{bucket['mean_ms']:.2f}",
                    f"{bucket['max_ms']:.2f}",
                )
                for phase, bucket in summary["phases"].items()
            ],
        ),
    ]
    slowest = summary.get("slowest") or []
    if slowest:
        lines.extend(
            [
                "",
                "Slowest spans",
                format_table(
                    ("phase", "dur ms", "pid", "detail"),
                    [
                        (
                            entry["phase"],
                            f"{entry['dur_ms']:.2f}",
                            entry.get("pid", "?"),
                            ", ".join(
                                f"{name}={value}"
                                for name, value in sorted(
                                    (entry.get("attrs") or {}).items()
                                )
                            ) or "-",
                        )
                        for entry in slowest
                    ],
                ),
            ]
        )
    path = summary.get("critical_path") or []
    if path:
        lines.extend(["", "Critical path (root -> latest-finishing span)"])
        for depth, node in enumerate(path):
            dur = node.get("dur_ms")
            timing = f"{float(dur):.2f} ms" if dur is not None else "?"
            detail = ", ".join(
                f"{name}={value}"
                for name, value in sorted((node.get("attrs") or {}).items())
            )
            lines.append(
                "  " * depth
                + f"{node['phase']} ({node['name']}) {timing}"
                + (f"  [{detail}]" if detail else "")
                + f"  pid {node.get('pid', '?')}"
            )
    return "\n".join(lines)


def defense_matrix_section(
    defenses: Optional[Sequence[Defense]] = None,
    attacks: Optional[Sequence[AttackVariant]] = None,
    *,
    engine: Optional["Engine"] = None,
    parallel: Optional[int] = None,
) -> str:
    """A Markdown table of the defense x attack evaluation.

    Rendered from the engine's :class:`~repro.engine.Result` envelope; pass
    ``parallel`` to shard the matrix over the engine's process pool.
    """
    from ..engine import default_engine
    from ..scenario import ScenarioSpec

    session = engine if engine is not None else default_engine()
    chosen_defenses = list(defenses) if defenses is not None else list(ALL_DEFENSES)
    chosen_attacks = list(attacks) if attacks is not None else variants()
    spec = ScenarioSpec("matrix", defenses=chosen_defenses, attacks=chosen_attacks)
    result = session.run(spec, parallel=parallel)
    verdict = {(row["defense"], row["attack"]): row for row in result.data["rows"]}
    headers = ["Defense"] + [attack.key for attack in chosen_attacks]
    rows: List[List[str]] = []
    for defense in chosen_defenses:
        row = [defense.name]
        for attack in chosen_attacks:
            cell = verdict[(defense.key, attack.key)]
            if not cell["applicable"]:
                row.append("-")
            elif cell["effective"]:
                row.append("defeats")
            else:
                row.append("leaks")
        rows.append(row)
    return format_table(headers, rows)


def full_report(
    include_matrix: bool = True,
    *,
    engine: Optional["Engine"] = None,
    parallel: Optional[int] = None,
) -> str:
    """The complete Markdown report.

    The per-attack graph sections and the defense matrix both run on the
    engine's execution plane; pass ``parallel`` to shard them over the
    session's process pool (output is byte-identical to a serial run).
    """
    from ..engine import default_engine

    session = engine if engine is not None else default_engine()
    sections = [
        "# Speculative execution attack-graph model — full report",
        "",
        "## Table I — speculative attacks and their variants",
        "",
        "```",
        table1(),
        "```",
        "",
        "## Table II — industrial defenses",
        "",
        "```",
        table2(),
        "```",
        "",
        "## Table III — authorization and illegal-access nodes",
        "",
        "```",
        table3(),
        "```",
        "",
        "## Defense strategy mapping (industry + academia)",
        "",
        "```",
        defense_strategy_table(),
        "```",
        "",
        "## Attack graphs",
        "",
    ]
    for section in session.map(
        _attack_section_for_key, list(ALL_VARIANTS), parallel=parallel
    ):
        sections.append(section)
        sections.append("")
    if include_matrix:
        sections.extend(
            [
                "## Defense x attack evaluation",
                "",
                "```",
                defense_matrix_section(engine=session, parallel=parallel),
                "```",
                "",
            ]
        )
    return "\n".join(sections)
