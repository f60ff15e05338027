"""The ``repro perf`` ledger: exact facts plus recorded absolute numbers.

``repro perf`` appends one run to a ``BENCH_core.json`` trajectory, stamped
with :func:`source_digest` -- a SHA-256 over the package's ``.py`` sources --
so a check can tell whether a record measured the code it would certify.
A run holds:

* exact counts from the grid, service and fuzz planes: a resumed grid misses
  the store zero times, checkpointing makes one put per computed point, an
  attached disabled tracer is read for nothing but its ``enabled`` flag, the
  service computes each unique spec once, and the fuzz oracles agree;
* one timed figure, the fuzz campaign's programs/second, held to a floor far
  below every measured value;
* the result line of one untraced perfbench run per workload named in the
  checkout's ``BENCHMARK.json``: perfbench's own output check (``correct``)
  and the workload's absolute end-to-end metrics.  The metrics are recorded,
  never graded: runs of identical sources have read 1.5x apart.

:data:`GATES` declares every graded row once: ``repro perf --check`` grades,
prints and fails on it, and the ``benchmarks/bench_*.py`` checks read their
bounds from it.  Ratios against deliberately slow copies of an engine (seed
BFS, per-cycle rescan, a fresh engine per point) are differential tests in
``tests/``, not rows here.

Used by ``repro perf`` (``benchmarks/run_perf.py`` forwards to it) and, with
smaller budgets, by ``benchmarks/``.
"""

from __future__ import annotations

import hashlib
import json
import operator
import shutil
import statistics
import subprocess
import tempfile
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .obs.trace import Tracer
from .store import DiskStore

#: The checkout this package sits in when it runs from ``src/``.
CHECKOUT = Path(__file__).resolve().parents[2]

#: The perfbench seed every ``repro perf`` run uses (never the held-out one).
PERFBENCH_SEED = 31

#: The workloads ``BENCHMARK.json`` names; each gets one ``correct`` row.
PERFBENCH_WORKLOADS = ("fuzz-sweep", "grid-supervised", "analyze-corpus", "service-mixed")


def _best_of(callable_, repeats: int) -> Tuple[float, object]:
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = callable_()
        best = min(best, time.perf_counter() - start)
    return best, result


# ----------------------------------------------------------------------
# Exact facts of the engine, service and fuzz planes
# ----------------------------------------------------------------------
class _DisabledTracerProbe:
    """A disabled tracer that counts every attribute read but ``enabled``.

    Reads are served by a real ``Tracer(enabled=False)``, so the engine
    behaves exactly as with one; the count shows whether it looked past
    the flag.
    """

    enabled = False

    def __init__(self) -> None:
        self.reads = 0
        self._tracer = Tracer(enabled=False)

    def __getattr__(self, name: str) -> object:
        # Reached only for names the probe itself lacks: the tracer's API.
        self.reads += 1
        return getattr(self._tracer, name)


class _TimedPutStore(DiskStore):
    """A :class:`~repro.store.DiskStore` that records each put's duration."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.put_seconds: List[float] = []

    def put(self, key: str, value: object) -> bool:
        start = time.perf_counter()
        try:
            return super().put(key, value)
        finally:
            self.put_seconds.append(time.perf_counter() - start)


def measure_grid_resume(points: int = 200) -> Dict[str, object]:
    """Checkpoint, resume and tracing-off facts of one clean grid, as counts.

    Four runs of the same ``points``-point ``exploit_suite`` grid (distinct
    secrets make every point a distinct exploit campaign): plain, with a
    disabled tracer attached, checkpointing every point through a fresh
    :class:`~repro.store.DiskStore`, and resumed from that store by a fresh
    session.  Their envelopes must be equal, or this raises.  Wall clocks
    of two such runs cannot resolve a 10% overhead, so each claim is a
    count: the disabled tracer is read for nothing but ``enabled``, the
    checkpointed run makes one put per computed point, and the resume
    misses the store zero times.  The median put latency and the plain and
    checkpointed seconds are recorded as information only.
    """
    from .engine import Engine
    from .scenario import ScenarioGrid

    grid = ScenarioGrid("exploit_suite", axes={"secret": list(range(points))})
    start = time.perf_counter()
    with Engine() as engine:
        plain = engine.run_grid(grid)
    plain_seconds = time.perf_counter() - start

    probe = _DisabledTracerProbe()
    with Engine() as engine:
        engine.tracer = probe
        tracer_off = engine.run_grid(grid)
        tracer_reads = probe.reads

    tmp = tempfile.mkdtemp(prefix="repro-resume-bench-")
    try:
        store = _TimedPutStore(root=tmp, version="bench")
        start = time.perf_counter()
        with Engine(store=store) as engine:
            checkpointed = engine.run_grid(grid)
            computed = engine.stats()["runs"][grid.kind]
        checkpoint_seconds = time.perf_counter() - start
        puts = store.stats()["puts"]
        resumed_store = DiskStore(root=tmp, version="bench")
        with Engine(store=resumed_store) as engine:
            resumed = engine.run_grid(grid)
        recomputed = resumed_store.stats()["misses"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    runs = {"tracer-disabled": tracer_off, "checkpointed": checkpointed, "resumed": resumed}
    for label, result in runs.items():
        if result.data != plain.data:
            raise RuntimeError(f"{label} grid diverged from the plain run")
    return {
        "benchmark": "grid-resume",
        "points": points,
        "resume_recomputed": recomputed,
        "puts": puts,
        "computed": computed,
        "puts_per_computed_point": puts / computed,
        "disabled_tracer_reads": tracer_reads,
        "ms_per_put": statistics.median(store.put_seconds) * 1e3,
        "plain_seconds": plain_seconds,
        "checkpoint_seconds": checkpoint_seconds,
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
    the engine computes exactly ``unique_specs`` points; anything else
    raises as a dedup regression.  The dedup hit-rate is graded, p50 / p99
    are recorded.
    """
    from .engine import Engine
    from .service.loadgen import overlapping_workload, run_load
    from .service.server import ServiceConfig, ServiceThread

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


def measure_fuzz_throughput(count: int = 96, repeats: int = 2) -> Dict[str, object]:
    """The differential fuzzing campaign's end-to-end program rate.

    Runs one seeded ``fuzz_campaign`` (generator -> three oracles per point,
    serial, no store) and reports programs/second.  The record doubles as
    the three-oracle soundness pin: a clean campaign must report *zero*
    disagreements -- the TSG structural verdict, the cycle-accurate
    transmit/squash race and the decoded byte not all agreeing on any
    generated gadget is a correctness regression, not a perf one, and
    ``repro perf --check`` fails on it outright.
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


# ----------------------------------------------------------------------
# Absolute end-to-end numbers: perfbench, run from the checkout
# ----------------------------------------------------------------------
def checkout_root() -> Optional[Path]:
    """:data:`CHECKOUT` when it holds ``BENCHMARK.json`` and perfbench, else ``None``."""
    required = ("BENCHMARK.json", "perfbench/run.py")
    return CHECKOUT if all((CHECKOUT / name).is_file() for name in required) else None


def run_perfbench(root: Path, command: Sequence[str]) -> Dict[str, object]:
    """Run one perfbench ``command`` in ``root``; its last stdout line, parsed."""
    completed = subprocess.run(
        command, cwd=root, capture_output=True, text=True, check=False
    )
    lines = completed.stdout.splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(
            f"{' '.join(command)} exited {completed.returncode}: "
            f"{completed.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def measure_perfbench(root: Path) -> List[Dict[str, object]]:
    """One untraced perfbench run per workload ``BENCHMARK.json`` names.

    Each runs the file's command with :data:`PERFBENCH_SEED` and its
    ``run_seconds``; the record is the run's result line.
    """
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    records = []
    for workload in spec["workloads"]:
        name = workload["name"]
        command = [
            *spec["command"], "--workload", name, "--seed", str(PERFBENCH_SEED),
            "--seconds", str(seconds), "--trace", "0",
        ]
        records.append({
            "benchmark": f"perfbench-{name}",
            "workload": name,
            "seed": PERFBENCH_SEED,
            "seconds": seconds,
            **run_perfbench(root, command),
        })
    return records


def run_perf_suite(root: Path) -> Dict[str, object]:
    """Run every measurement and return one source-stamped run record."""
    return {
        "source_digest": source_digest(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "engine_results": [measure_grid_resume(), measure_service_throughput()],
        "fuzz_results": [measure_fuzz_throughput()],
        "perfbench_results": measure_perfbench(root),
    }


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


# ----------------------------------------------------------------------
# The gate table and ``repro perf --check``
# ----------------------------------------------------------------------
class Gate(NamedTuple):
    """One regression gate: a recorded field held against a bound."""

    label: str
    family: str  # the run key holding the records, e.g. "engine_results"
    benchmark: str  # the records' name
    field: str
    op: str  # ">=" a floor, "==" an exact pin
    bound: object
    fmt: str = "{:.0f}"  # renders both the bound and the observed value

    def holds(self, value: object) -> bool:
        return _COMPARE[self.op](value, self.bound)

    def worst(self, values: Sequence[object]) -> object:
        """The lowest value under a floor, the first mismatch under a pin."""
        if self.op == ">=":
            return min(values)
        return next((value for value in values if value != self.bound), self.bound)


_COMPARE = {">=": operator.ge, "==": operator.eq}

#: Every graded row, written once.  ``repro perf --check`` grades, prints
#: and fails on these rows; :func:`stale_records` checks the families they
#: name; the ``benchmarks/bench_*.py`` checks read the bounds.  Every row is
#: exact except the fuzz rate, whose floor sits far below any measured value.
GATES: Tuple[Gate, ...] = (
    # A resumed grid serves every point from the store.
    Gate("grid resume recomputed points", "engine_results", "grid-resume",
         "resume_recomputed", "==", 0),
    # Checkpointing costs one durable put per computed point, nothing more.
    Gate("grid checkpoint puts per computed point", "engine_results",
         "grid-resume", "puts_per_computed_point", "==", 1, "{:.2f}"),
    # Tracing off is free: the engine reads an attached disabled tracer's
    # `enabled` flag and nothing else.
    Gate("disabled-tracer reads during run_grid", "engine_results",
         "grid-resume", "disabled_tracer_reads", "==", 0),
    # The analysis service computes each unique spec of the 50%-overlap load
    # once; with 8 clients the ideal hit-rate is ~0.44 (35/80), and a broken
    # single-flight reads 0.
    Gate("service single-flight dedup (computed == unique specs)",
         "engine_results", "service-throughput", "perfect_dedup", "==", True, "{}"),
    Gate("service dedup hit-rate", "engine_results", "service-throughput",
         "dedup_hit_rate", ">=", 0.30, "{:.1%}"),
    # The oracles answering differently on a clean campaign is a
    # soundness bug; the rate floor catches an accidental O(n^2) in the
    # generator or harness (perfbench's fuzz-sweep has read 293-501/s).
    Gate("fuzz campaign oracle disagreements", "fuzz_results",
         "fuzz-throughput", "disagreed", "==", 0),
    Gate("fuzz campaign quarantined points", "fuzz_results",
         "fuzz-throughput", "quarantined", "==", 0),
    Gate("fuzz campaign programs/sec (three oracles)", "fuzz_results",
         "fuzz-throughput", "points_per_second", ">=", 50.0, "{:.0f}/s"),
    # perfbench's own output check of each workload: oracles agree, resumed
    # envelopes are identical, verdicts match the planted ones, service
    # answers match a direct run, and nothing is left running.
    *(
        Gate(f"perfbench {name}: outputs correct", "perfbench_results",
             f"perfbench-{name}", "correct", "==", True, "{}")
        for name in PERFBENCH_WORKLOADS
    ),
)


def gate(benchmark: str, field: str) -> Gate:
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
    records of the latest run that holds the gate's family.  An absent
    record or field reads ``missing`` and fails.
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


def main(output: str = "BENCH_core.json") -> Dict[str, object]:
    """Entry point of ``repro perf`` (``benchmarks/run_perf.py`` forwards to it).

    perfbench runs from the checkout this package sits in; outside one it
    says so and exits non-zero before measuring or writing anything.
    """
    root = checkout_root()
    if root is None:
        raise SystemExit(
            f"repro perf runs perfbench from a checkout, but {str(CHECKOUT)!r} "
            "has no BENCHMARK.json and perfbench/run.py"
        )
    parent = Path(output).resolve().parent
    if not parent.is_dir():
        raise SystemExit(
            f"cannot write {output!r}: directory {str(parent)!r} does not exist"
        )
    run = run_perf_suite(root)
    append_run(output, run)
    return run


def format_run(run: Dict[str, object]) -> List[str]:
    """Human-readable lines for the records of one run."""
    lines = []
    for record in run.get("engine_results", ()):  # type: ignore[union-attr]
        if record["benchmark"] == "grid-resume":
            lines.append(
                f"grid resume ({record['points']} points): resume recomputed "
                f"{record['resume_recomputed']}; {record['puts']} puts for "
                f"{record['computed']} computed points "
                f"({record['ms_per_put']:.2f} ms per put); disabled tracer "
                f"read {record['disabled_tracer_reads']} times; plain "
                f"{record['plain_seconds']:.2f} s, checkpointed "
                f"{record['checkpoint_seconds']:.2f} s"
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
    for record in run.get("fuzz_results", ()):  # type: ignore[union-attr]
        lines.append(
            f"fuzz campaign ({record['count']} generated programs, "
            f"{record['buckets']} buckets): {record['points_per_second']:.0f} "
            f"programs/s through three oracles, {record['disagreed']} "
            f"disagreements, {record['quarantined']} quarantined"
        )
    for record in run.get("perfbench_results", ()):  # type: ignore[union-attr]
        metrics = ", ".join(
            f"{name} {metric['value']:.4g} {metric['unit']}"
            for name, metric in record["metrics"].items()
        )
        lines.append(
            f"perfbench {record['workload']} (seed {record['seed']}, "
            f"{record['seconds']} s): correct={record['correct']}, "
            f"{record['failed']}/{record['attempted']} ops failed; {metrics}"
        )
    return lines
