"""Timing harness for the reachability-indexed TSG core, engine and OoO core.

Measures the hot analyses the repo's upper layers bottom out in:

* all-pairs race detection (Theorem 1 over every vertex pair) and valid-
  ordering counts on synthetic layered DAGs of 50 / 200 / 500 vertices,
  comparing the bitset-closure fast paths against the seed's BFS-per-query
  baseline,
* the :class:`repro.engine.Engine` session API: warm-cache ``analyze``
  against a cold attack-graph build, the verdict-cached attack-space sweep
  against the per-combination free-function loop, the disk store, grid
  checkpoint/resume and the analysis service, and
* the event-driven OoO timing scheduler: the heap-based wakeup engine
  against the naive every-instruction-per-cycle rescan baseline on a
  serialized-miss program (200 instructions by default, 500 behind
  ``--full`` -- the quadratic rescan cost is the suite's wall-clock hog),
  both uncontended and under the contended (FU-port / CDB) model, plus the
  batch simulation plane and the differential fuzzing campaign.

Each run is appended to a ``BENCH_core.json`` trajectory, stamped with
:func:`source_digest` -- a SHA-256 over the package's ``.py`` sources -- so a
check can tell whether a record measured the code it would certify.
:data:`GATES` declares every regression gate once: ``repro perf --check``
grades, prints and fails on it, and the ``benchmarks/bench_*.py`` floors read
their bounds from it.

Used by the ``repro perf`` CLI subcommand (``benchmarks/run_perf.py``
forwards to it) and, with smaller budgets, by ``benchmarks/``.
"""

from __future__ import annotations

import hashlib
import json
import operator
import random
import time
from collections import deque
from itertools import combinations
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

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
    quadratic baseline on a 500-vertex graph takes minutes.
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

    if baseline_mode == "full" and set(bfs_races) != set(closure_races):
        raise RuntimeError("closure and BFS race detection disagree")

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
# Engine benchmarks: warm-cache analyze, attack space, store, service
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


def measure_engine_attack_space(repeats: int = 3) -> Dict[str, object]:
    """The pre-engine free-function sweep vs the engine's attack-space sweep.

    The engine wins through its verdict cache: structurally identical
    ``(source, delay)`` combinations share one graph build + leak analysis.
    The baseline is the pre-engine per-combination sweep; both must count
    the same leaking combinations.
    """
    from .engine import Engine

    legacy_seconds, legacy_rows = _best_of(_legacy_attack_space_rows, repeats)
    engine_seconds, result = _best_of(lambda: Engine().synthesize(), repeats)
    legacy_leaks = sum(1 for row in legacy_rows if row[2])
    if legacy_leaks != result.data["leaking"]:
        raise RuntimeError("engine sweep diverged from the legacy baseline")
    return {
        "benchmark": "engine-attack-space",
        "combinations": result.data["combinations"],
        "serial_seconds": legacy_seconds,
        "engine_serial_seconds": engine_seconds,
        "speedup_engine_serial_vs_serial": (
            legacy_seconds / engine_seconds if engine_seconds > 0 else float("inf")
        ),
    }


# ----------------------------------------------------------------------
# Timing-core benchmarks: event-driven scheduler vs per-cycle rescan
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
    timing_instructions: int = 500,
) -> Dict[str, object]:
    """Run the full suite and return one source-stamped run record."""
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
        "source_digest": source_digest(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "results": results,
    }
    if include_engine:
        run["engine_results"] = [
            measure_engine_analyze(repeats=repeats),
            measure_engine_attack_space(repeats=repeats),
            measure_disk_store(repeats=repeats),
            measure_grid_resume(repeats=min(repeats, 2)),
            measure_service_throughput(),
        ]
    run["timing_results"] = [
        measure_timing_scheduler(instructions=timing_instructions, repeats=repeats),
        measure_contended_scheduler(instructions=timing_instructions, repeats=repeats),
        measure_timing_batch(),
    ]
    if include_engine:
        run["fuzz_results"] = [measure_fuzz_throughput()]
    return run


def source_digest() -> str:
    """SHA-256 over the ``repro`` package's ``.py`` sources (names + bytes).

    The stamp on every run: it names the code a record measured without git
    or the working directory, and commits that touch only docs or the
    trajectory file leave it unchanged.
    """
    root = Path(__file__).resolve().parent
    digest = hashlib.sha256()
    names = sorted(path.relative_to(root).as_posix() for path in root.rglob("*.py"))
    for name in names:
        data = (root / name).read_bytes()
        digest.update(f"{name}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


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


class Gate(NamedTuple):
    """One regression gate: a recorded field held against a bound."""

    label: str
    family: str  # the run key holding the records, e.g. "engine_results"
    benchmark: Optional[str]  # the records' name (the per-graph core records have none)
    field: str
    op: str  # ">=" a floor, "<=" a ceiling, "==" an exact pin
    bound: object
    fmt: str = "{:.1f}x"  # renders both the bound and the observed value

    def holds(self, value: object) -> bool:
        return _COMPARE[self.op](value, self.bound)

    def worst(self, values: Sequence[object]) -> object:
        """The lowest value under a floor, the highest under a ceiling, the
        first mismatch under a pin."""
        if self.op == ">=":
            return min(values)
        if self.op == "<=":
            return max(values)
        return next((value for value in values if value != self.bound), self.bound)


_COMPARE = {">=": operator.ge, "<=": operator.le, "==": operator.eq}

#: The ROADMAP regression gates, each written once.  ``repro perf --check``
#: grades, prints and fails on these rows; :func:`stale_records` checks the
#: families they name; the ``benchmarks/bench_*.py`` floors read the bounds.
GATES: Tuple[Gate, ...] = (
    # Closure vs seed BFS, every graph size.
    Gate("all-pairs race speedup (worst graph)", "results", None,
         "speedup_all_pairs", ">=", 10.0),
    # Warm Engine.analyze vs cold build.
    Gate("warm Engine.analyze speedup", "engine_results",
         "engine-analyze-warm-cache", "speedup_warm", ">=", 5.0),
    # The engine's verdict-cached sweep must not be slower than the
    # pre-engine per-combination free-function loop.
    Gate("engine attack-space sweep vs free-function loop", "engine_results",
         "engine-attack-space", "speedup_engine_serial_vs_serial", ">=", 1.0,
         "{:.2f}x"),
    # A warm DiskStore hit in a fresh process/session must beat recomputing
    # the spec by a wide margin -- the point of the persistent artifact cache.
    Gate("warm DiskStore run vs cold", "engine_results", "engine-disk-warm-run",
         "speedup_warm_disk", ">=", 5.0),
    # Checkpointing every grid point through the DiskStore must stay cheap
    # insurance: <= 10% over the plain in-memory grid on a clean 200-point
    # run, and a resume against the populated store recomputes nothing.
    Gate("grid checkpointing overhead", "engine_results", "grid-resume-overhead",
         "overhead_fraction", "<=", 0.10, "{:.1%}"),
    Gate("grid resume recomputed points", "engine_results",
         "grid-resume-overhead", "resume_recomputed", "==", 0, "{:.0f}"),
    # An attached-but-disabled Tracer must be free: the engine's hot path
    # pays only a `tracer is None` / `.enabled` check per run, so the
    # tracing-off grid run stays within 2% of no tracer at all.
    Gate("tracing-off grid overhead", "engine_results", "grid-resume-overhead",
         "trace_off_overhead_fraction", "<=", 0.02, "{:.1%}"),
    # The analysis service must dedup the 50%-overlap load: with 8 clients
    # sharing half their specs the ideal hit-rate is ~0.44 (35/80); the
    # floor leaves headroom for workload-shape tweaks but catches a broken
    # single-flight (hit-rate 0) immediately.  Computed-equals-unique is
    # additionally pinned exactly via the record's perfect_dedup flag.
    Gate("service dedup hit-rate", "engine_results", "service-throughput",
         "dedup_hit_rate", ">=", 0.30, "{:.1%}"),
    Gate("service single-flight dedup (computed == unique specs)",
         "engine_results", "service-throughput", "perfect_dedup", "==", True, "{}"),
    # Event queue vs per-cycle rescan.
    Gate("event-queue scheduler vs rescan", "timing_results",
         "timing-event-queue", "speedup_event_vs_rescan", ">=", 5.0),
    # The arbitrated (port/CDB contention) event path must keep beating the
    # contended rescan loop by the same margin class.
    Gate("contended event-queue scheduler vs rescan", "timing_results",
         "timing-event-queue-contended", "speedup_event_vs_rescan", ">=", 5.0),
    # The batch simulation plane must serve a campaign-shaped point list at
    # >= 10x the points/sec of the isolated per-point loop (warm session
    # amortization -- the ROADMAP "Raw speed" floor).
    Gate("simulate_batch points/sec vs per-point loop", "timing_results",
         "timing-batch", "speedup_batch_vs_per_point", ">=", 10.0),
    # The differential fuzzing campaign must push whole generated programs
    # through BOTH oracles (graph build + TSG verdict + cycle-accurate
    # timing run) at a usable campaign rate.  Measured ~600 points/s
    # serial; the floor leaves a wide machine-variance margin while still
    # catching an accidental O(n^2) in the generator or harness.  The same
    # record pins disagreed == 0 -- the two oracles answering differently
    # on a clean campaign is a soundness bug -- and quarantined == 0.
    Gate("fuzz campaign programs/sec (both oracles)", "fuzz_results",
         "fuzz-throughput", "points_per_second", ">=", 50.0, "{:.0f}/s"),
    Gate("fuzz campaign oracle disagreements", "fuzz_results",
         "fuzz-throughput", "disagreed", "==", 0, "{:.0f}"),
    Gate("fuzz campaign quarantined points", "fuzz_results",
         "fuzz-throughput", "quarantined", "==", 0, "{:.0f}"),
)


def gate(benchmark: Optional[str], field: str) -> Gate:
    """The :data:`GATES` row that grades ``field`` of the ``benchmark`` records."""
    return next(row for row in GATES if (row.benchmark, row.field) == (benchmark, field))


def _latest_run_with(trajectory: Dict[str, object], key: str) -> Optional[Dict]:
    for run in reversed(trajectory.get("runs", [])):  # type: ignore[union-attr]
        if run.get(key):
            return run
    return None


def threshold_report(trajectory: Dict[str, object]) -> List[Dict[str, object]]:
    """One row per :data:`GATES` entry: check, bound, observed value, pass/fail.

    Each gate grades the worst value of its field across the matching
    records of the latest run that holds the gate's family, so quick smoke
    runs (which skip the engine benchmarks) do not mask a recorded full
    run.  An absent record or field reads ``missing`` and fails.
    """
    report: List[Dict[str, object]] = []
    for row in GATES:
        run = _latest_run_with(trajectory, row.family) or {}
        values = [
            record.get(row.field)
            for record in run.get(row.family, ())
            if record.get("benchmark") == row.benchmark
        ]
        observed = row.worst(values) if values and None not in values else None
        report.append({
            "check": row.label,
            "bound": f"{row.op} {row.fmt.format(row.bound)}",
            "observed": "missing" if observed is None else row.fmt.format(observed),
            "ok": observed is not None and row.holds(observed),
        })
    return report


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


def stale_records(trajectory: Dict[str, object]) -> List[str]:
    """Gated families whose latest record measured other sources.

    ``repro perf --check`` grades the most recent run of each family; when
    that run does not carry the current :func:`source_digest` (including an
    unstamped run), the table would silently certify other code.  Returns
    one human-readable line per stale family.
    """
    digest = source_digest()
    stale = []
    for family in dict.fromkeys(row.family for row in GATES):
        run = _latest_run_with(trajectory, family)
        if run is None:
            continue  # the table already reads this family's gates as missing
        stamp = run.get("source_digest")
        if stamp != digest:
            stale.append(
                f"latest {family} record carries source digest "
                f"{str(stamp)[:12]}, but the sources hash to {digest[:12]} "
                "(re-run `repro perf`)"
            )
    return stale


def run_check(path: str, allow_stale: bool = False) -> int:
    """CLI body of ``repro perf --check``.

    Prints the pass/fail table of every :data:`GATES` row, then one
    ``FAIL: ...`` line per failing row (or the all-clear), and returns the
    process exit code.  A latest record that measured other sources is
    graded as a failure -- the gates would silently certify other code --
    unless ``allow_stale`` downgrades it to a warning.
    """
    target = Path(path)
    if not target.exists():
        print(f"FAIL: trajectory file {path!r} does not exist")
        return 1
    trajectory = json.loads(target.read_text(encoding="utf-8"))
    rows = threshold_report(trajectory)
    for line in format_threshold_report(rows):
        print(line)
    print()
    stale = stale_records(trajectory)
    for line in stale:
        label = "WARNING (stale, tolerated)" if allow_stale else "FAIL"
        print(f"{label}: {line}")
    failures = [row for row in rows if not row["ok"]]
    for row in failures:
        print(f"FAIL: {row['check']}: observed {row['observed']}, bound {row['bound']}")
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
    """Entry point of ``repro perf`` (``benchmarks/run_perf.py`` forwards to it).

    ``quick`` is the CI smoke path: two graph sizes, one repeat, and no
    engine or fuzz benchmarks.  The default run keeps the timing-scheduler
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
        elif record["benchmark"] == "engine-attack-space":
            lines.append(
                f"attack space ({record['combinations']} combos): free-function "
                f"loop {record['serial_seconds'] * 1e3:.1f} ms vs engine sweep "
                f"{record['engine_serial_seconds'] * 1e3:.1f} ms -> "
                f"{record['speedup_engine_serial_vs_serial']:.2f}x"
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
