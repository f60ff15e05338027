"""Timing harness for the reachability-indexed TSG core, engine and OoO core.

Measures the hot analyses the repo's upper layers bottom out in:

* all-pairs race detection (Theorem 1 over every vertex pair) and valid-
  ordering counts on synthetic layered DAGs of 50 / 200 / 500 vertices,
  comparing the bitset-closure fast paths against the seed's BFS-per-query
  baseline (PR 1),
* the :class:`repro.engine.Engine` session API (PR 2): warm-cache
  ``analyze`` against a cold attack-graph build, and the sharded
  attack-space sweep against the per-combination free-function baseline, and
* the event-driven OoO timing scheduler (PR 3): the heap-based wakeup engine
  against the naive every-instruction-per-cycle rescan baseline on a
  serialized-miss program (200 instructions by default, 500 behind
  ``--full`` -- the quadratic rescan cost is the suite's wall-clock hog),
  both uncontended and under the contended (FU-port / CDB) model (PR 4).

Results are appended as one commit-stamped run to a ``BENCH_core.json``
trajectory so future PRs can track regressions; :func:`check_thresholds`
turns the ROADMAP's regression limits into a pass/fail gate
(``benchmarks/run_perf.py --check`` / ``repro perf --check``).

Used by ``benchmarks/run_perf.py``, the ``repro perf`` CLI subcommand, and
(with smaller budgets) by ``benchmarks/bench_perf_core.py``.
"""

from __future__ import annotations

import json
import random
import subprocess
import time
from collections import deque
from itertools import combinations
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .core.tsg import TopologicalSortGraph

#: (vertices, layer width, extra random forward edges) per suite size.  The
#: 200-vertex entry is the acceptance configuration: 200 vertices and at
#: least 1000 edges.
DEFAULT_SIZES: Tuple[Tuple[int, int, int], ...] = (
    (50, 5, 15),
    (200, 5, 25),
    (500, 5, 50),
)


# ----------------------------------------------------------------------
# Synthetic workloads
# ----------------------------------------------------------------------
def build_layered_dag(
    vertices: int, width: int = 5, extra_edges: int = 0, seed: int = 1
) -> TopologicalSortGraph:
    """A deterministic layered DAG: ``vertices / width`` layers of ``width``.

    Every vertex depends on every vertex of the previous layer, plus
    ``extra_edges`` random forward edges.  Layered graphs keep the
    ordering-count DP polynomial (a downset is a prefix of complete layers
    plus a subset of one layer, at most ``layers * 2^width`` states) while
    still containing ``layers * C(width, 2)`` racing pairs -- a realistic
    stand-in for wide attack graphs.
    """
    rng = random.Random(seed)
    graph = TopologicalSortGraph(name=f"layered-{vertices}v")
    names = [f"n{i}" for i in range(vertices)]
    for name in names:
        graph.add_vertex(name)
    for i in range(width, vertices):
        layer_start = (i // width) * width
        for j in range(layer_start - width, layer_start):
            graph.add_edge(names[j], names[i])
    # Extra forward edges must skip at least one layer; with fewer than three
    # layers no such pair exists, and rejection sampling can always run dry
    # once the eligible pairs are exhausted -- bound the attempts.
    added = 0
    attempts = 0
    max_attempts = extra_edges * 200
    if vertices // width < 3:
        extra_edges = 0
    while added < extra_edges and attempts < max_attempts:
        attempts += 1
        a, b = rng.sample(range(vertices), 2)
        if a > b:
            a, b = b, a
        if b // width - a // width < 2:  # skip intra/adjacent-layer picks
            continue
        if not graph.has_edge(names[a], names[b]):
            graph.add_edge(names[a], names[b])
            added += 1
    return graph


# ----------------------------------------------------------------------
# Seed baseline (the pre-index implementation, kept for comparison)
# ----------------------------------------------------------------------
def bfs_has_path(graph: TopologicalSortGraph, source: str, target: str) -> bool:
    """The seed's ``has_path``: a fresh BFS over the successor sets per query."""
    if source == target:
        return True
    succ = graph._succ  # noqa: SLF001 - deliberate: replicate the seed exactly
    seen = {source}
    frontier = deque([source])
    while frontier:
        node = frontier.popleft()
        for nxt in succ[node]:
            if nxt == target:
                return True
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return False


def bfs_racing_pairs(
    graph: TopologicalSortGraph, pairs: Optional[Sequence[Tuple[str, str]]] = None
) -> List[Tuple[str, str]]:
    """All-pairs (or given-pairs) race detection with the seed BFS check."""
    if pairs is None:
        pairs = list(combinations(graph.vertices, 2))
    return [
        (u, v)
        for u, v in pairs
        if not (bfs_has_path(graph, u, v) or bfs_has_path(graph, v, u))
    ]


# ----------------------------------------------------------------------
# Timings
# ----------------------------------------------------------------------
def _best_of(callable_, repeats: int) -> Tuple[float, object]:
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = callable_()
        best = min(best, time.perf_counter() - start)
    return best, result


def measure_graph(
    graph: TopologicalSortGraph,
    baseline_pair_budget: int = 4000,
    repeats: int = 3,
    count_orderings: bool = True,
) -> Dict[str, object]:
    """Time the closure fast paths against the seed BFS baseline on one graph.

    The closure side always runs the *full* all-pairs analysis.  The BFS
    baseline runs on at most ``baseline_pair_budget`` pairs (a deterministic
    sample) and is extrapolated to the full pair count, because the full
    quadratic baseline on a 500-vertex graph takes minutes -- which is the
    point of this PR.
    """
    vertices = graph.vertices
    all_pairs = list(combinations(vertices, 2))
    closure_seconds, closure_races = _best_of(graph.all_racing_pairs, repeats)

    if len(all_pairs) <= baseline_pair_budget:
        sample = all_pairs
        baseline_mode = "full"
    else:
        rng = random.Random(2)
        sample = rng.sample(all_pairs, baseline_pair_budget)
        baseline_mode = "sampled"
    bfs_seconds, bfs_races = _best_of(lambda: bfs_racing_pairs(graph, sample), 1)
    bfs_all_pairs_estimate = bfs_seconds * (len(all_pairs) / len(sample))

    if baseline_mode == "full":
        assert set(bfs_races) == set(closure_races), "closure and BFS disagree"

    record: Dict[str, object] = {
        "graph": graph.name,
        "vertices": len(vertices),
        "edges": len(graph.edges),
        "racing_pairs": len(closure_races),
        "all_pairs": len(all_pairs),
        "closure_all_pairs_seconds": closure_seconds,
        "bfs_baseline_mode": baseline_mode,
        "bfs_pairs_measured": len(sample),
        "bfs_measured_seconds": bfs_seconds,
        "bfs_all_pairs_seconds_estimate": bfs_all_pairs_estimate,
        "speedup_all_pairs": (
            bfs_all_pairs_estimate / closure_seconds if closure_seconds > 0 else float("inf")
        ),
    }
    if count_orderings:
        dp_seconds, count = _best_of(lambda: graph.count_orderings(limit=None), repeats)
        record["count_orderings_seconds"] = dp_seconds
        # Exact linear-extension counts of layered DAGs overflow JSON number
        # precision (hundreds of digits); store digits + a prefix instead.
        digits = len(str(count))
        record["count_orderings_digits"] = digits
        record["count_orderings_value"] = (
            count if digits <= 15 else f"{str(count)[:12]}...e{digits - 1}"
        )
    return record


# ----------------------------------------------------------------------
# Engine benchmarks (PR 2): warm-cache analyze, sharded attack space
# ----------------------------------------------------------------------
def build_analysis_program(gadgets: int = 8):
    """A synthetic victim: ``gadgets`` independent Listing-1 style gadgets.

    Each gadget has its own bounds check, victim array and protected secret,
    so the attack graph grows linearly with ``gadgets`` -- a realistic cold
    ``Engine.analyze`` workload for the warm-cache comparison.
    """
    from .isa.assembler import assemble

    lines = [".data", "probe_array: address=0x1000000 size=1048576 shared"]
    for g in range(gadgets):
        base = 0x200000 + g * 0x1000
        lines.append(f"victim_{g}: address={base:#x} size=16")
        lines.append(f"secret_{g}: address={base + 0x48:#x} size=1 protected")
        lines.append(f"size_{g}:   address={0x400000 + g * 0x100:#x} size=8")
    lines.append(".text")
    lines.append("    clflush [probe_array]")
    for g in range(gadgets):
        lines.extend(
            [
                f"    cmp rdx, [size_{g}]",
                f"    ja done_{g}",
                f"    mov rax, byte [victim_{g} + rdx]",
                "    shl rax, 12",
                "    mov rbx, [probe_array + rax]",
                f"done_{g}:",
            ]
        )
    lines.append("    hlt")
    return assemble("\n".join(lines), name=f"engine-analyze-{gadgets}gadgets")


def measure_engine_analyze(gadgets: int = 8, repeats: int = 3) -> Dict[str, object]:
    """Cold attack-graph build vs warm content-hash cache hit on one program."""
    from .engine import Engine

    program = build_analysis_program(gadgets)
    cold_seconds, cold_result = _best_of(lambda: Engine().analyze(program), repeats)
    engine = Engine()
    engine.analyze(program)  # prime the session cache
    warm_seconds, warm_result = _best_of(
        lambda: engine.analyze(program), max(repeats, 5)
    )
    if warm_result.cache != "warm" or warm_result.data != cold_result.data:
        raise RuntimeError("warm Engine.analyze diverged from the cold build")
    report = cold_result.payload
    return {
        "benchmark": "engine-analyze-warm-cache",
        "gadgets": gadgets,
        "vertices": len(report.build.graph),
        "edges": len(report.build.graph.edges),
        "findings": len(report.findings),
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "speedup_warm": cold_seconds / warm_seconds if warm_seconds > 0 else float("inf"),
    }


def measure_disk_store(repeats: int = 3) -> Dict[str, object]:
    """Cold spec execution vs a warm disk-store hit in a *fresh* session.

    The cold side runs a ``simulate_sweep`` scenario spec through an engine
    backed by an empty :class:`~repro.store.DiskStore` (so the timing
    includes the pickling/persist cost); every warm repeat builds a brand
    new engine and store instance on the same directory, so nothing can be
    served from in-memory caches -- only the persistent artifact survives,
    exactly like a second CLI/CI invocation.  The warm envelope must carry
    byte-identical rows.
    """
    import shutil
    import tempfile

    from .engine import Engine
    from .scenario import ScenarioSpec
    from .store import DiskStore

    spec = ScenarioSpec(
        "simulate_sweep",
        attacks=("meltdown", "spectre_v1"),
        defenses=(None, "PREVENT_SPECULATIVE_LOADS"),
    )
    tmp = tempfile.mkdtemp(prefix="repro-disk-bench-")
    try:
        def cold_run():
            shutil.rmtree(tmp, ignore_errors=True)
            with Engine(store=DiskStore(root=tmp, version="bench")) as engine:
                return engine.run(spec)

        cold_seconds, cold_result = _best_of(cold_run, repeats)

        def warm_run():
            with Engine(store=DiskStore(root=tmp, version="bench")) as engine:
                return engine.run(spec)

        warm_seconds, warm_result = _best_of(warm_run, max(repeats, 5))
        if warm_result.cache != "warm" or warm_result.data != cold_result.data:
            raise RuntimeError("warm disk-store run diverged from the cold run")
        entries = DiskStore(root=tmp, version="bench").stats()["entries"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {
        "benchmark": "engine-disk-warm-run",
        "spec_kind": spec.kind,
        "runs": cold_result.data["runs"],
        "store_entries": entries,
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "speedup_warm_disk": (
            cold_seconds / warm_seconds if warm_seconds > 0 else float("inf")
        ),
    }


def measure_grid_resume(points: int = 200, repeats: int = 2) -> Dict[str, object]:
    """Checkpointing overhead and resume cost on a clean grid.

    Three runs over the same ``points``-point ``exploit_suite`` grid
    (distinct secrets force distinct end-to-end exploit campaigns, so
    every point is real work): plain in-memory execution, the same grid
    checkpointing every point through a fresh
    :class:`~repro.store.DiskStore`, and a resumed run against the
    populated store.  Each checkpointed repeat writes into its own fresh
    version directory so the timed region is exactly the campaign plus
    its durable per-point writes (no cleanup of a prior repeat).  The
    checkpointed and resumed envelopes must match the plain run
    byte-for-byte, the resume must recompute zero points
    (``resume_recomputed`` counts the store misses), and the ROADMAP
    floor caps ``overhead_fraction`` -- durability is only cheap
    insurance while the per-point write cost stays marginal.
    """
    import shutil
    import tempfile

    from .engine import Engine
    from .obs.trace import Tracer
    from .scenario import ScenarioGrid
    from .store import DiskStore

    grid = ScenarioGrid("exploit_suite", axes={"secret": list(range(points))})

    def plain_run():
        with Engine() as engine:
            return engine.run_grid(grid)

    plain_seconds, plain_result = _best_of(plain_run, repeats)

    # The tracing-off control: an attached-but-disabled tracer must cost
    # nothing but the `tracer is None` / `.enabled` checks on the hot path
    # (the ROADMAP pins the measured overhead at <= 2%).
    def trace_off_run():
        with Engine() as engine:
            engine.tracer = Tracer(enabled=False)
            return engine.run_grid(grid)

    trace_off_seconds, trace_off_result = _best_of(trace_off_run, repeats)
    if trace_off_result.data != plain_result.data:
        raise RuntimeError("tracer-disabled grid diverged from the plain run")
    tmp = tempfile.mkdtemp(prefix="repro-resume-bench-")
    try:
        versions = iter(f"bench{i}" for i in range(repeats))
        last_version = []

        def checkpoint_run():
            version = next(versions)
            last_version.append(version)
            with Engine(store=DiskStore(root=tmp, version=version)) as engine:
                return engine.run_grid(grid)

        checkpoint_seconds, checkpoint_result = _best_of(checkpoint_run, repeats)
        if checkpoint_result.data != plain_result.data:
            raise RuntimeError("checkpointed grid diverged from the plain run")

        def resume_run():
            store = DiskStore(root=tmp, version=last_version[-1])
            with Engine(store=store) as engine:
                result = engine.run_grid(grid)
            return store.stats()["misses"], result

        resume_seconds, (recomputed, resume_result) = _best_of(resume_run, repeats)
        if resume_result.data != plain_result.data:
            raise RuntimeError("resumed grid diverged from the plain run")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {
        "benchmark": "grid-resume-overhead",
        "points": points,
        "plain_seconds": plain_seconds,
        "checkpoint_seconds": checkpoint_seconds,
        "overhead_fraction": (
            checkpoint_seconds / plain_seconds - 1.0 if plain_seconds > 0 else 0.0
        ),
        "resume_seconds": resume_seconds,
        "resume_recomputed": recomputed,
        "speedup_resume": (
            plain_seconds / resume_seconds if resume_seconds > 0 else float("inf")
        ),
        "trace_off_seconds": trace_off_seconds,
        "trace_off_overhead_fraction": (
            trace_off_seconds / plain_seconds - 1.0 if plain_seconds > 0 else 0.0
        ),
    }


def measure_service_throughput(
    clients: int = 8,
    per_client: int = 10,
    overlap: float = 0.5,
) -> Dict[str, object]:
    """The load-generator benchmark: N concurrent clients, overlapping specs.

    Starts an in-process analysis service over one engine + one fresh
    :class:`~repro.store.DiskStore`, then fires ``clients`` threads each
    submitting ``per_client`` cheap exploit specs of which ``overlap`` are
    shared across all clients.  Perfect single-flight + store dedup means
    the engine computes exactly ``unique_specs`` points -- the benchmark
    *asserts* that (a violated assertion is a dedup regression, not a slow
    run) -- and the dedup hit-rate / p50 / p99 land in BENCH_core.json
    with a floor in ``repro perf --check``.
    """
    import shutil
    import tempfile

    from .engine import Engine
    from .service.loadgen import overlapping_workload, run_load
    from .service.server import ServiceConfig, ServiceThread
    from .store import DiskStore

    workload, unique = overlapping_workload(clients, per_client, overlap)
    total_requests = sum(len(requests) for requests in workload)
    tmp = tempfile.mkdtemp(prefix="repro-service-bench-")
    try:
        engine = Engine(store=DiskStore(root=tmp, version="bench"))
        config = ServiceConfig(queue_depth=max(64, total_requests))
        with ServiceThread(engine=engine, config=config) as handle:
            report = run_load(handle.url, workload, unique)
        computed_runs = sum(
            count
            for kind, count in engine.stats()["runs"].items()
            if kind not in ("grid",)
        )
        engine.close()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if report.errors or report.rejected:
        raise RuntimeError(
            f"service load run degraded: {report.errors} errors, "
            f"{report.rejected} rejections"
        )
    if computed_runs != unique:
        raise RuntimeError(
            f"single-flight dedup violated: {computed_runs} computes for "
            f"{unique} unique specs"
        )
    return {
        "benchmark": "service-throughput",
        "clients": clients,
        "requests": total_requests,
        "unique_specs": unique,
        "computed": computed_runs,
        "perfect_dedup": computed_runs == unique,
        "dedup_hit_rate": report.dedup_hit_rate,
        "completed": report.completed,
        "elapsed_seconds": report.elapsed_seconds,
        "requests_per_second": report.requests_per_second,
        "p50_ms": report.p50_ms,
        "p99_ms": report.p99_ms,
        "latency_by_source": report.latency_by_source,
    }


def _legacy_attack_space_rows() -> List[Tuple]:
    """The pre-engine sweep: one graph build + full analysis per combination."""
    from .attacks.generator import enumerate_attack_space
    from .defenses.evaluation import attack_succeeds

    rows = []
    for attack in sorted(enumerate_attack_space(), key=lambda a: a.key):
        graph = attack.build_graph()
        rows.append(
            (
                attack.key,
                attack.is_published,
                attack_succeeds(graph),
                len(graph.find_vulnerabilities()),
                len(graph.all_racing_pairs()),
            )
        )
    return rows


def measure_engine_attack_space(workers: int = 2, repeats: int = 3) -> Dict[str, object]:
    """Serial free-function sweep vs the engine's attack-space sweep.

    The engine wins through its verdict cache: structurally identical
    ``(source, delay)`` combinations share one graph build + leak analysis.
    The sweep runs in process even when asked for ``workers`` (a pooled
    sweep measured no faster); the record keeps its name and fields.  The
    serial baseline is the pre-engine per-combination sweep.
    """
    from .engine import Engine

    legacy_seconds, legacy_rows = _best_of(_legacy_attack_space_rows, repeats)
    serial_seconds, serial_result = _best_of(lambda: Engine().synthesize(), repeats)
    with Engine() as engine:
        engine.map(abs, [-1, 1], parallel=workers)  # spin up the session pool

        def sharded_cold_sweep():
            # Drop the session's synth caches so every repeat measures a
            # cold sharded sweep (with a warm pool), not a cache replay.
            engine.invalidate("synth_verdicts")
            engine.invalidate("synth_graphs")
            return engine.synthesize(parallel=workers)

        sharded_seconds, sharded_result = _best_of(sharded_cold_sweep, repeats)
    if sharded_result.data != serial_result.data:
        raise RuntimeError("sharded attack-space sweep diverged from serial")
    legacy_leaks = sum(1 for row in legacy_rows if row[2])
    if legacy_leaks != sharded_result.data["leaking"]:
        raise RuntimeError("engine sweep diverged from the legacy baseline")
    return {
        "benchmark": "engine-attack-space-sharded",
        "combinations": sharded_result.data["combinations"],
        "workers": workers,
        "serial_seconds": legacy_seconds,
        "engine_serial_seconds": serial_seconds,
        "engine_sharded_seconds": sharded_seconds,
        "speedup_sharded_vs_serial": (
            legacy_seconds / sharded_seconds if sharded_seconds > 0 else float("inf")
        ),
        "speedup_engine_serial_vs_serial": (
            legacy_seconds / serial_seconds if serial_seconds > 0 else float("inf")
        ),
    }


# ----------------------------------------------------------------------
# Timing-core benchmarks (PR 3): event-driven scheduler vs per-cycle rescan
# ----------------------------------------------------------------------
def build_timing_program(instructions: int = 500, load_every: int = 7):
    """A straight-line program of ``instructions`` ops with serialized misses.

    Every ``load_every``-th instruction starts a load whose address depends
    on the previous load's value, so the miss chain serializes (~200 cycles
    per link) and the schedule stretches to thousands of mostly idle cycles
    -- the workload shape that separates an event queue (skips idle cycles)
    from a per-cycle rescan (pays for every one of them).
    """
    from .isa.instructions import Alu, Halt, Load, Mov
    from .isa.operands import imm, mem, reg
    from .isa.program import Program

    program = Program(name=f"timing-{instructions}i")
    program.declare("workload", 0x0200_0000, 1 << 23)
    program.append(Mov(reg("rbx"), imm(0)))
    while len(program) < instructions - 1:
        if len(program) % load_every == 0:
            # rax <- mem[workload + rbx] (miss: a fresh page each time), then
            # rbx <- rbx + rax + 4096: the next load depends on this one.
            program.append(Load(reg("rax"), mem(base="rbx", symbol="workload")))
            program.append(Alu("add", reg("rax"), imm(4096)))
            program.append(Alu("add", reg("rbx"), reg("rax")))
        else:
            program.append(Alu("xor", reg("rcx"), imm(len(program) & 0xFF)))
    program.append(Halt())
    return program


def measure_timing_scheduler(
    instructions: int = 500,
    repeats: int = 3,
    model: Optional["TimingModel"] = None,
    benchmark: str = "timing-event-queue",
) -> Dict[str, object]:
    """Event-driven OoO scheduler vs the naive rescan baseline on one stream.

    The dynamic-op stream is recorded once by the functional front-end; both
    schedulers then assign cycles to the *same* stream and must produce
    identical schedules (the differential check below), so the speedup is a
    pure scheduling-engine comparison.  ``model`` selects the timing model --
    pass a contended one to measure the arbitrated (port/CDB) event path
    against the rescan loop doing the same arbitration per cycle.
    """
    from .uarch.timing import DEFAULT_MODEL, EventScheduler, RescanScheduler, TimingCPU

    timing_model = DEFAULT_MODEL if model is None else model
    program = build_timing_program(instructions)
    cpu = TimingCPU(program)
    cpu.run()
    ops = cpu.last_ops
    event_seconds, event_schedule = _best_of(
        lambda: EventScheduler(timing_model).schedule(ops), repeats
    )
    rescan_seconds, rescan_schedule = _best_of(
        lambda: RescanScheduler(timing_model).schedule(ops), max(1, repeats - 2)
    )
    if event_schedule != rescan_schedule:
        raise RuntimeError("event-driven and rescan schedulers diverged")
    return {
        "benchmark": benchmark,
        "contended": timing_model.contended,
        "instructions": len(ops),
        "cycles": event_schedule.cycles,
        "event_seconds": event_seconds,
        "rescan_seconds": rescan_seconds,
        "speedup_event_vs_rescan": (
            rescan_seconds / event_seconds if event_seconds > 0 else float("inf")
        ),
    }


def measure_contended_scheduler(
    instructions: int = 500, repeats: int = 3
) -> Dict[str, object]:
    """The event engine under port/CDB contention vs the contended rescan.

    Uses the realistic contended reference core (two ALU / two load-store
    ports, single branch/mul ports, width-2 CDB): the event path pays for
    port queues and per-cycle CDB budgets only when ops actually arbitrate,
    while the rescan baseline re-walks every in-flight op every cycle either
    way -- the speedup floor keeps the arbitrated path honest as programs
    grow.
    """
    from .uarch.timing import CONTENDED_MODEL

    return measure_timing_scheduler(
        instructions=instructions,
        repeats=repeats,
        model=CONTENDED_MODEL,
        benchmark="timing-event-queue-contended",
    )


def measure_timing_batch(
    epochs: int = 10,
    defense: str = "PREVENT_SPECULATIVE_LOADS",
    repeats: int = 2,
) -> Dict[str, object]:
    """``Engine.simulate_batch`` vs the per-point loop on a campaign workload.

    The workload is campaign-shaped: ``epochs`` passes over the full attack
    registry x {undefended, one defense} grid -- the shape fuzzing sweeps,
    resumed campaigns and overlapping service traffic produce, where most
    points repeat a simulation some earlier point already paid for.  The
    per-point baseline executes every point in isolation (a fresh engine
    per point: the execution model of the supervised per-point task plane,
    minus IPC, which makes it a *conservative* baseline), while the batch
    plane serves the identical list through one warm session whose
    simulation cache and TSG-verdict memo amortize across the campaign.
    Both paths must produce identical rows -- the differential check below
    raises on divergence -- so the speedup is pure amortization, never a
    changed answer.
    """
    from .engine import Engine, _batch_point_spec
    from .uarch.timing.validate import SCENARIOS

    attacks = sorted(SCENARIOS)
    base_points = [{"attack": attack} for attack in attacks] + [
        {"attack": attack, "defenses": (defense,)} for attack in attacks
    ]
    points = base_points * epochs
    specs = [_batch_point_spec(point) for point in points]

    def per_point_loop() -> List[Dict[str, object]]:
        return [Engine().run(spec).data for spec in specs]

    def batch():
        return Engine().simulate_batch(points)

    per_point_seconds, per_point_rows = _best_of(per_point_loop, max(1, repeats - 1))
    batch_seconds, batch_result = _best_of(batch, repeats)
    if batch_result.data["rows"] != per_point_rows:
        raise RuntimeError("simulate_batch rows diverged from the per-point loop")
    count = len(points)
    return {
        "benchmark": "timing-batch",
        "points": count,
        "epochs": epochs,
        "unique_simulations": batch_result.data["unique_simulations"],
        "per_point_seconds": per_point_seconds,
        "batch_seconds": batch_seconds,
        "per_point_points_per_second": (
            count / per_point_seconds if per_point_seconds > 0 else float("inf")
        ),
        "batch_points_per_second": (
            count / batch_seconds if batch_seconds > 0 else float("inf")
        ),
        "speedup_batch_vs_per_point": (
            per_point_seconds / batch_seconds if batch_seconds > 0 else float("inf")
        ),
    }


def measure_fuzz_throughput(count: int = 96, repeats: int = 2) -> Dict[str, object]:
    """The differential fuzzing campaign's end-to-end program rate.

    Runs one seeded ``fuzz_campaign`` (generator -> both oracles per point,
    serial, no store) and reports programs/second.  The record doubles as
    the dual-oracle soundness pin: a clean campaign must report *zero*
    disagreements -- the TSG structural verdict and the cycle-accurate
    transmit/squash race answering differently on any generated gadget is a
    correctness regression, not a perf one, and ``repro perf --check``
    fails on it outright.
    """
    from .engine import Engine

    def campaign():
        return Engine().run_fuzz_campaign(seed=0, count=count)

    seconds, result = _best_of(campaign, repeats)
    data = result.data
    return {
        "benchmark": "fuzz-throughput",
        "count": count,
        "executed": data["executed"],
        "seconds": seconds,
        "points_per_second": (data["executed"] / seconds) if seconds > 0 else float("inf"),
        "buckets": data["buckets"],
        "disagreed": data["disagreed"],
        "quarantined": data["quarantined"],
    }


def run_perf_suite(
    sizes: Sequence[Tuple[int, int, int]] = DEFAULT_SIZES,
    baseline_pair_budget: int = 4000,
    repeats: int = 3,
    include_engine: bool = True,
    engine_workers: int = 2,
    include_timing: bool = True,
    timing_instructions: int = 500,
) -> Dict[str, object]:
    """Run the full suite and return one commit-stamped run record."""
    results = []
    for vertices, width, extra in sizes:
        graph = build_layered_dag(vertices, width=width, extra_edges=extra)
        results.append(
            measure_graph(
                graph,
                baseline_pair_budget=baseline_pair_budget,
                repeats=repeats,
            )
        )
    run: Dict[str, object] = {
        "commit": _git_commit(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "results": results,
    }
    if include_engine:
        run["engine_results"] = [
            measure_engine_analyze(repeats=repeats),
            measure_engine_attack_space(workers=engine_workers, repeats=repeats),
            measure_disk_store(repeats=repeats),
            measure_grid_resume(repeats=min(repeats, 2)),
            measure_service_throughput(),
        ]
    if include_timing:
        run["timing_results"] = [
            measure_timing_scheduler(instructions=timing_instructions, repeats=repeats),
            measure_contended_scheduler(
                instructions=timing_instructions, repeats=repeats
            ),
            measure_timing_batch(),
        ]
    if include_engine:
        run["fuzz_results"] = [measure_fuzz_throughput()]
    return run


def _git_commit() -> str:
    try:
        return (
            subprocess.run(
                ["git", "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                check=True,
                timeout=10,
            ).stdout.strip()
        )
    except Exception:  # pragma: no cover - git absent or not a repo
        return "unknown"


def append_run(path: str, run: Dict[str, object]) -> Dict[str, object]:
    """Append one run to the ``BENCH_core.json`` trajectory file."""
    target = Path(path)
    if target.exists():
        trajectory = json.loads(target.read_text(encoding="utf-8"))
    else:
        trajectory = {"benchmark": "tsg-core-perf", "runs": []}
    trajectory["runs"].append(run)
    target.write_text(json.dumps(trajectory, indent=2) + "\n", encoding="utf-8")
    return trajectory


#: ROADMAP regression thresholds enforced by :func:`check_thresholds`.
THRESHOLDS = {
    "all_pairs_speedup_min": 10.0,  # closure vs seed BFS, every graph size
    "warm_analyze_speedup_min": 5.0,  # warm Engine.analyze vs cold build
    "sharded_sweep_speedup_min": 1.0,  # sharded sweep not slower than serial
    # A warm DiskStore hit in a fresh process/session must beat recomputing
    # the spec by a wide margin -- the point of the persistent artifact cache.
    "disk_warm_speedup_min": 5.0,
    "timing_event_speedup_min": 5.0,  # event queue vs per-cycle rescan
    # The arbitrated (port/CDB contention) event path must keep beating the
    # contended rescan loop by the same margin class.
    "timing_contended_event_speedup_min": 5.0,
    # The batch simulation plane must serve a campaign-shaped point list at
    # >= 10x the points/sec of the isolated per-point loop (warm session
    # amortization -- the ROADMAP "Raw speed" floor).
    "timing_batch_speedup_min": 10.0,
    # Checkpointing every grid point through the DiskStore must stay cheap
    # insurance: <= 10% over the plain in-memory grid on a clean 200-point
    # run, and a resume against the populated store recomputes nothing.
    "grid_resume_overhead_max": 0.10,
    # An attached-but-disabled Tracer must be free: the engine's hot path
    # pays only a `tracer is None` / `.enabled` check per run, so the
    # tracing-off grid run stays within 2% of no tracer at all.
    "trace_off_overhead_max": 0.02,
    # The analysis service must dedup the 50%-overlap load: with 8 clients
    # sharing half their specs the ideal hit-rate is ~0.44 (35/80); the
    # floor leaves headroom for workload-shape tweaks but catches a broken
    # single-flight (hit-rate 0) immediately.  Computed-equals-unique is
    # additionally pinned exactly via the record's perfect_dedup flag.
    "service_dedup_hit_rate_min": 0.30,
    # The differential fuzzing campaign must push whole generated programs
    # through BOTH oracles (graph build + TSG verdict + cycle-accurate
    # timing run) at a usable campaign rate.  Measured ~600 points/s
    # serial; the floor leaves a wide machine-variance margin while still
    # catching an accidental O(n^2) in the generator or harness.  The same
    # record pins disagreed == 0: the two oracles answering differently on
    # a clean campaign is a soundness bug, enforced alongside the floors.
    "fuzz_points_per_second_min": 50.0,
}


def _latest_run_with(trajectory: Dict[str, object], key: str) -> Optional[Dict]:
    for run in reversed(trajectory.get("runs", [])):  # type: ignore[union-attr]
        if run.get(key):
            return run
    return None


def check_thresholds(trajectory: Dict[str, object]) -> List[str]:
    """Check the latest trajectory records against the ROADMAP thresholds.

    Returns a list of human-readable failures (empty when everything holds).
    Each benchmark family is checked on the most recent run that contains it,
    so quick smoke runs (which skip the engine benchmarks) do not mask a
    previously recorded full run.
    """
    failures: List[str] = []

    graph_run = _latest_run_with(trajectory, "results")
    if graph_run is None:
        failures.append("no core (all-pairs race) benchmark recorded")
    else:
        for record in graph_run["results"]:
            speedup = record["speedup_all_pairs"]
            if speedup < THRESHOLDS["all_pairs_speedup_min"]:
                failures.append(
                    f"{record['graph']}: all-pairs race speedup {speedup:.1f}x "
                    f"below the {THRESHOLDS['all_pairs_speedup_min']:.0f}x floor"
                )

    engine_run = _latest_run_with(trajectory, "engine_results")
    if engine_run is None:
        failures.append("no engine benchmark recorded")
    else:
        disk_seen = False
        resume_seen = False
        service_seen = False
        for record in engine_run["engine_results"]:
            if record["benchmark"] == "engine-analyze-warm-cache":
                if record["speedup_warm"] < THRESHOLDS["warm_analyze_speedup_min"]:
                    failures.append(
                        f"warm Engine.analyze speedup {record['speedup_warm']:.1f}x "
                        f"below the {THRESHOLDS['warm_analyze_speedup_min']:.0f}x floor"
                    )
            elif record["benchmark"] == "engine-attack-space-sharded":
                speedup = record["speedup_sharded_vs_serial"]
                if speedup < THRESHOLDS["sharded_sweep_speedup_min"]:
                    failures.append(
                        f"sharded attack-space sweep {speedup:.2f}x: slower than "
                        "the serial free-function baseline"
                    )
            elif record["benchmark"] == "engine-disk-warm-run":
                disk_seen = True
                speedup = record["speedup_warm_disk"]
                if speedup < THRESHOLDS["disk_warm_speedup_min"]:
                    failures.append(
                        f"warm DiskStore run {speedup:.1f}x over cold, below "
                        f"the {THRESHOLDS['disk_warm_speedup_min']:.0f}x floor"
                    )
            elif record["benchmark"] == "grid-resume-overhead":
                resume_seen = True
                overhead = record["overhead_fraction"]
                if overhead > THRESHOLDS["grid_resume_overhead_max"]:
                    failures.append(
                        f"grid checkpointing overhead {overhead:.1%} on "
                        f"{record['points']} points, above the "
                        f"{THRESHOLDS['grid_resume_overhead_max']:.0%} ceiling"
                    )
                if record.get("resume_recomputed", 0) != 0:
                    failures.append(
                        f"grid resume recomputed {record['resume_recomputed']} "
                        "checkpointed points (expected 0)"
                    )
                trace_off = record.get("trace_off_overhead_fraction")
                if trace_off is None:
                    failures.append(
                        "grid-resume record lacks the tracing-off overhead "
                        "measurement (re-run repro perf)"
                    )
                elif trace_off > THRESHOLDS["trace_off_overhead_max"]:
                    failures.append(
                        f"disabled-tracer grid overhead {trace_off:.1%} on "
                        f"{record['points']} points, above the "
                        f"{THRESHOLDS['trace_off_overhead_max']:.0%} ceiling"
                    )
            elif record["benchmark"] == "service-throughput":
                service_seen = True
                hit_rate = record["dedup_hit_rate"]
                if hit_rate < THRESHOLDS["service_dedup_hit_rate_min"]:
                    failures.append(
                        f"service dedup hit-rate {hit_rate:.1%} on "
                        f"{record['clients']} clients x {record['requests']} "
                        f"requests, below the "
                        f"{THRESHOLDS['service_dedup_hit_rate_min']:.0%} floor"
                    )
                if not record.get("perfect_dedup", False):
                    failures.append(
                        f"service computed {record['computed']} points for "
                        f"{record['unique_specs']} unique specs (single-flight "
                        "+ store dedup must make these equal)"
                    )
        if not disk_seen:
            failures.append("no disk-store (warm spec run) benchmark recorded")
        if not resume_seen:
            failures.append("no grid-resume (checkpointed grid) benchmark recorded")
        if not service_seen:
            failures.append("no service-throughput (load generator) benchmark recorded")

    timing_run = _latest_run_with(trajectory, "timing_results")
    if timing_run is None:
        failures.append("no timing-scheduler benchmark recorded")
    else:
        contended_seen = False
        batch_seen = False
        for record in timing_run["timing_results"]:
            if record.get("benchmark") == "timing-batch":
                batch_seen = True
                speedup = record["speedup_batch_vs_per_point"]
                floor = THRESHOLDS["timing_batch_speedup_min"]
                if speedup < floor:
                    failures.append(
                        f"simulate_batch {speedup:.1f}x points/sec over the "
                        f"per-point loop on {record['points']} points, below "
                        f"the {floor:.0f}x floor"
                    )
                continue
            speedup = record["speedup_event_vs_rescan"]
            if record.get("benchmark") == "timing-event-queue-contended":
                contended_seen = True
                floor = THRESHOLDS["timing_contended_event_speedup_min"]
                label = "contended event-queue scheduler"
            else:
                floor = THRESHOLDS["timing_event_speedup_min"]
                label = "event-queue scheduler"
            if speedup < floor:
                failures.append(
                    f"{label} {speedup:.1f}x over rescan on "
                    f"{record['instructions']} instructions, below the "
                    f"{floor:.0f}x floor"
                )
        if not contended_seen:
            failures.append("no contended event-scheduler benchmark recorded")
        if not batch_seen:
            failures.append("no timing-batch (simulate_batch) benchmark recorded")

    fuzz_run = _latest_run_with(trajectory, "fuzz_results")
    if fuzz_run is None:
        failures.append("no fuzz-throughput (differential campaign) benchmark recorded")
    else:
        for record in fuzz_run["fuzz_results"]:
            rate = record["points_per_second"]
            floor = THRESHOLDS["fuzz_points_per_second_min"]
            if rate < floor:
                failures.append(
                    f"fuzz campaign {rate:.0f} programs/s on "
                    f"{record['count']} points, below the {floor:.0f}/s floor"
                )
            if record.get("disagreed", 0) != 0:
                failures.append(
                    f"fuzz campaign recorded {record['disagreed']} oracle "
                    "disagreement(s) on a clean run (TSG vs timing must "
                    "agree on every generated gadget)"
                )
            if record.get("quarantined", 0) != 0:
                failures.append(
                    f"fuzz campaign quarantined {record['quarantined']} "
                    "point(s) on a clean run (expected 0)"
                )

    return failures


def threshold_report(trajectory: Dict[str, object]) -> List[Dict[str, object]]:
    """One row per ROADMAP floor: check, bound, observed value, pass/fail.

    The table behind ``repro perf --check``: every threshold in
    :data:`THRESHOLDS` (plus the two exact invariants -- zero resume
    recomputes and computed-equals-unique dedup) is shown against the
    value the latest relevant run recorded.  A floor whose benchmark
    family was never recorded reports ``missing`` and fails.
    """
    rows: List[Dict[str, object]] = []

    def add(check: str, bound: str, observed: Optional[float],
            ok: bool, fmt: str = "{:.1f}x") -> None:
        rows.append({
            "check": check,
            "bound": bound,
            "observed": fmt.format(observed) if observed is not None else "missing",
            "ok": observed is not None and ok,
        })

    graph_run = _latest_run_with(trajectory, "results")
    speedups = (
        [record["speedup_all_pairs"] for record in graph_run["results"]]
        if graph_run and graph_run["results"] else []
    )
    worst = min(speedups) if speedups else None
    add("all-pairs race speedup (worst graph)",
        f">= {THRESHOLDS['all_pairs_speedup_min']:.0f}x",
        worst, worst is not None and worst >= THRESHOLDS["all_pairs_speedup_min"])

    engine_run = _latest_run_with(trajectory, "engine_results")
    records = (
        {record["benchmark"]: record for record in engine_run["engine_results"]}
        if engine_run else {}
    )
    warm = records.get("engine-analyze-warm-cache", {}).get("speedup_warm")
    add("warm Engine.analyze speedup",
        f">= {THRESHOLDS['warm_analyze_speedup_min']:.0f}x",
        warm, warm is not None and warm >= THRESHOLDS["warm_analyze_speedup_min"])
    sharded = records.get(
        "engine-attack-space-sharded", {}
    ).get("speedup_sharded_vs_serial")
    add("sharded attack-space sweep vs serial",
        f">= {THRESHOLDS['sharded_sweep_speedup_min']:.0f}x",
        sharded,
        sharded is not None and sharded >= THRESHOLDS["sharded_sweep_speedup_min"],
        fmt="{:.2f}x")
    disk = records.get("engine-disk-warm-run", {}).get("speedup_warm_disk")
    add("warm DiskStore run vs cold",
        f">= {THRESHOLDS['disk_warm_speedup_min']:.0f}x",
        disk, disk is not None and disk >= THRESHOLDS["disk_warm_speedup_min"])
    resume = records.get("grid-resume-overhead", {})
    overhead = resume.get("overhead_fraction")
    add("grid checkpointing overhead",
        f"<= {THRESHOLDS['grid_resume_overhead_max']:.0%}",
        overhead,
        overhead is not None and overhead <= THRESHOLDS["grid_resume_overhead_max"],
        fmt="{:.1%}")
    recomputed = resume.get("resume_recomputed")
    add("grid resume recomputed points", "== 0",
        recomputed, recomputed == 0, fmt="{:.0f}")
    trace_off = resume.get("trace_off_overhead_fraction")
    add("tracing-off grid overhead",
        f"<= {THRESHOLDS['trace_off_overhead_max']:.0%}",
        trace_off,
        trace_off is not None and trace_off <= THRESHOLDS["trace_off_overhead_max"],
        fmt="{:.1%}")
    service = records.get("service-throughput", {})
    hit_rate = service.get("dedup_hit_rate")
    add("service dedup hit-rate",
        f">= {THRESHOLDS['service_dedup_hit_rate_min']:.0%}",
        hit_rate,
        hit_rate is not None
        and hit_rate >= THRESHOLDS["service_dedup_hit_rate_min"],
        fmt="{:.1%}")
    computed = service.get("computed")
    add("service computed points (vs unique specs)",
        f"== {service.get('unique_specs', '?')}",
        computed, bool(service.get("perfect_dedup", False)), fmt="{:.0f}")

    timing_run = _latest_run_with(trajectory, "timing_results")
    plain_speedups: List[float] = []
    contended_speedups: List[float] = []
    batch_speedups: List[float] = []
    for record in (timing_run or {}).get("timing_results", []):
        if record.get("benchmark") == "timing-batch":
            batch_speedups.append(record["speedup_batch_vs_per_point"])
            continue
        bucket = (
            contended_speedups
            if record.get("benchmark") == "timing-event-queue-contended"
            else plain_speedups
        )
        bucket.append(record["speedup_event_vs_rescan"])
    timing = min(plain_speedups) if plain_speedups else None
    add("event-queue scheduler vs rescan",
        f">= {THRESHOLDS['timing_event_speedup_min']:.0f}x",
        timing,
        timing is not None and timing >= THRESHOLDS["timing_event_speedup_min"])
    contended = min(contended_speedups) if contended_speedups else None
    add("contended event-queue scheduler vs rescan",
        f">= {THRESHOLDS['timing_contended_event_speedup_min']:.0f}x",
        contended,
        contended is not None
        and contended >= THRESHOLDS["timing_contended_event_speedup_min"])
    batch = min(batch_speedups) if batch_speedups else None
    add("simulate_batch points/sec vs per-point loop",
        f">= {THRESHOLDS['timing_batch_speedup_min']:.0f}x",
        batch,
        batch is not None and batch >= THRESHOLDS["timing_batch_speedup_min"])

    fuzz_run = _latest_run_with(trajectory, "fuzz_results")
    fuzz = (
        {record["benchmark"]: record for record in fuzz_run["fuzz_results"]}
        if fuzz_run else {}
    ).get("fuzz-throughput", {})
    rate = fuzz.get("points_per_second")
    add("fuzz campaign programs/sec (both oracles)",
        f">= {THRESHOLDS['fuzz_points_per_second_min']:.0f}/s",
        rate,
        rate is not None and rate >= THRESHOLDS["fuzz_points_per_second_min"],
        fmt="{:.0f}/s")
    disagreed = fuzz.get("disagreed")
    add("fuzz campaign oracle disagreements", "== 0",
        disagreed, disagreed == 0, fmt="{:.0f}")
    return rows


def format_threshold_report(rows: List[Dict[str, object]]) -> List[str]:
    """The :func:`threshold_report` rows as aligned ``PASS``/``FAIL`` lines."""
    headers = ("check", "bound", "observed", "status")
    table = [
        (row["check"], row["bound"], row["observed"],
         "PASS" if row["ok"] else "FAIL")
        for row in rows
    ]
    # ``max(header, *rows)`` with an empty table would unpack zero column
    # entries and try to iterate the lone int -- list form keeps it total.
    widths = [
        max([len(str(headers[column])),
             *(len(str(line[column])) for line in table)])
        for column in range(len(headers))
    ]
    lines = [
        "  ".join(str(cell).ljust(width) for cell, width in zip(headers, widths)),
        "  ".join("-" * width for width in widths),
    ]
    lines.extend(
        "  ".join(str(cell).ljust(width) for cell, width in zip(line, widths))
        for line in table
    )
    return lines


def check_trajectory(path: str) -> List[str]:
    """Load a ``BENCH_core.json`` file and run :func:`check_thresholds`."""
    target = Path(path)
    if not target.exists():
        return [f"trajectory file {path!r} does not exist"]
    return check_thresholds(json.loads(target.read_text(encoding="utf-8")))


def stale_records(trajectory: Dict[str, object]) -> List[str]:
    """Benchmark families whose latest record predates the HEAD commit.

    ``repro perf --check`` compares floors against the most recent run of
    each family; when that run was stamped by a *different* commit than the
    working tree's HEAD, the table silently grades old code.  Returns one
    human-readable line per stale family (empty when every checked record
    matches HEAD, or when no commit can be resolved at all).
    """
    head = _git_commit()
    if head == "unknown":
        return []
    stale = []
    for key, label in (
        ("results", "core (all-pairs race)"),
        ("engine_results", "engine"),
        ("timing_results", "timing-scheduler"),
        ("fuzz_results", "fuzz-throughput"),
    ):
        run = _latest_run_with(trajectory, key)
        if run is None:
            continue  # the missing-family failure is check_thresholds' job
        commit = run.get("commit", "unknown")
        if commit != head:
            stale.append(
                f"latest {label} record is from commit {str(commit)[:12]}, "
                f"but HEAD is {head[:12]} (re-run `repro perf`)"
            )
    return stale


def run_check(path: str, allow_stale: bool = False) -> int:
    """CLI body shared by ``repro perf --check`` and ``run_perf.py --check``.

    Prints the full pass/fail table of every ROADMAP floor, then one
    ``FAIL: ...`` line per violated threshold (or the all-clear), and
    returns the process exit code.  A latest record stamped by a commit
    other than HEAD is graded as a failure -- the floors would silently
    certify old code -- unless ``allow_stale`` downgrades it to a warning.
    """
    target = Path(path)
    if not target.exists():
        print(f"FAIL: trajectory file {path!r} does not exist")
        return 1
    trajectory = json.loads(target.read_text(encoding="utf-8"))
    for line in format_threshold_report(threshold_report(trajectory)):
        print(line)
    print()
    stale = stale_records(trajectory)
    for line in stale:
        label = "WARNING (stale, tolerated)" if allow_stale else "FAIL"
        print(f"{label}: {line}")
    failures = check_thresholds(trajectory)
    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures and not stale:
        print(f"{path}: all perf thresholds hold")
    elif not failures and allow_stale:
        print(f"{path}: all perf thresholds hold (stale records tolerated)")
    if failures:
        return 1
    return 1 if (stale and not allow_stale) else 0


def main(
    output: str = "BENCH_core.json", quick: bool = False, full: bool = False
) -> Dict[str, object]:
    """Entry point shared by ``benchmarks/run_perf.py`` and ``repro perf``.

    ``quick`` is the CI smoke path: two graph sizes, one repeat, a shorter
    timing program, and no engine benchmarks (spawning the process pool
    dominates on small budgets).  The default run keeps the timing-scheduler
    comparison on the 200-instruction program -- the full 500-instruction
    rescan baseline takes most of the suite's wall clock (that O(cycles x
    in-flight) cost is the point of the event engine) and is demoted behind
    ``full``, per the ROADMAP perf-suite item.
    """
    parent = Path(output).resolve().parent
    if not parent.is_dir():
        raise SystemExit(
            f"cannot write {output!r}: directory {str(parent)!r} does not exist"
        )
    run = run_perf_suite(
        sizes=DEFAULT_SIZES[:2] if quick else DEFAULT_SIZES,
        baseline_pair_budget=1500 if quick else 4000,
        repeats=1 if quick else 3,
        include_engine=not quick,
        timing_instructions=500 if full else 200,
    )
    append_run(output, run)
    return run


def format_engine_records(run: Dict[str, object]) -> List[str]:
    """Human-readable lines for the engine + timing benchmark records of one run."""
    lines = []
    for record in run.get("timing_results", ()):  # type: ignore[union-attr]
        if record.get("benchmark") == "timing-batch":
            lines.append(
                f"timing batch ({record['points']} points, "
                f"{record['unique_simulations']} unique sims): per-point loop "
                f"{record['per_point_points_per_second']:.0f} pts/s vs batch "
                f"{record['batch_points_per_second']:.0f} pts/s -> "
                f"{record['speedup_batch_vs_per_point']:.1f}x"
            )
            continue
        flavor = "contended " if record.get("contended") else ""
        lines.append(
            f"{flavor}timing scheduler ({record['instructions']} instructions, "
            f"{record['cycles']} cycles): event queue "
            f"{record['event_seconds'] * 1e3:.2f} ms vs rescan "
            f"{record['rescan_seconds'] * 1e3:.1f} ms -> "
            f"{record['speedup_event_vs_rescan']:.1f}x"
        )
    for record in run.get("fuzz_results", ()):  # type: ignore[union-attr]
        lines.append(
            f"fuzz campaign ({record['count']} generated programs, "
            f"{record['buckets']} buckets): {record['points_per_second']:.0f} "
            f"programs/s through both oracles, {record['disagreed']} "
            f"disagreements, {record['quarantined']} quarantined"
        )
    for record in run.get("engine_results", ()):  # type: ignore[union-attr]
        if record["benchmark"] == "engine-analyze-warm-cache":
            lines.append(
                f"engine analyze ({record['gadgets']} gadgets, {record['vertices']}v): "
                f"cold {record['cold_seconds'] * 1e3:.2f} ms vs warm "
                f"{record['warm_seconds'] * 1e6:.1f} us -> "
                f"{record['speedup_warm']:.0f}x warm-cache speedup"
            )
        elif record["benchmark"] == "engine-attack-space-sharded":
            lines.append(
                f"attack space ({record['combinations']} combos): serial sweep "
                f"{record['serial_seconds'] * 1e3:.1f} ms vs engine sharded "
                f"(x{record['workers']}) {record['engine_sharded_seconds'] * 1e3:.1f} ms "
                f"-> {record['speedup_sharded_vs_serial']:.1f}x"
            )
        elif record["benchmark"] == "engine-disk-warm-run":
            lines.append(
                f"disk store ({record['spec_kind']} spec, {record['runs']} runs): "
                f"cold {record['cold_seconds'] * 1e3:.1f} ms vs warm fresh-session "
                f"hit {record['warm_seconds'] * 1e3:.2f} ms -> "
                f"{record['speedup_warm_disk']:.0f}x disk-warm speedup"
            )
        elif record["benchmark"] == "grid-resume-overhead":
            lines.append(
                f"grid resume ({record['points']} points): plain "
                f"{record['plain_seconds'] * 1e3:.0f} ms vs checkpointed "
                f"{record['checkpoint_seconds'] * 1e3:.0f} ms "
                f"({record['overhead_fraction']:+.1%} overhead); resume "
                f"{record['resume_seconds'] * 1e3:.0f} ms recomputing "
                f"{record['resume_recomputed']} points; tracing off "
                f"{record['trace_off_seconds'] * 1e3:.0f} ms "
                f"({record['trace_off_overhead_fraction']:+.1%})"
            )
        elif record["benchmark"] == "service-throughput":
            lines.append(
                f"service load ({record['clients']} clients x "
                f"{record['requests'] // record['clients']} specs, "
                f"{record['unique_specs']} unique): {record['computed']} computed, "
                f"hit-rate {record['dedup_hit_rate']:.1%}, "
                f"{record['requests_per_second']:.0f} req/s, "
                f"p50 {record['p50_ms']:.1f} ms / p99 {record['p99_ms']:.1f} ms"
            )
    return lines
