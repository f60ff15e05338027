"""The benchmark's four workloads and the seeded inputs they feed the program.

Each workload drives ``repro``'s public API from this one process, with at
most two pool workers or two client threads (the reference box has two
CPUs).  Every workload is split into *rounds*: a round is a short, fixed
block of work derived from ``(seed, round index)``, and a run measures a
number of whole rounds, so the same seed always feeds the program the same
inputs.  Rounds are kept short (a tenth to a few tenths of a second) so a
run can spread many of them over its whole length: the reference box's
speed swings by a third over seconds, and a metric sampled at many moments
of a run moves far less from run to run than one sampled at a few.

Why these four, and which layers each loads or bypasses:

``fuzz-sweep``
    Serial ``fuzz_campaign`` rounds of 50 programs, one fresh in-memory
    engine per campaign, no store.  Every program goes generator -> TSG
    verdict -> timing race -> decoded byte, so the simulator's compute layers
    (``channels`` + ``uarch.cache``, ``uarch.pipeline``, ``uarch.timing``,
    ``graphtool``, ``core``, ``fuzz``) do nearly all the work; the pool, the
    store and the service do none.
``grid-supervised``
    The ``simulate`` grid of registry attacks x {undefended + every
    ``SimDefense``} x {default, contended, serialized} for one seeded
    secret, run by ``Engine.run_grid(parallel=2)`` under a ``FailurePolicy``
    into a fresh ``DiskStore`` in six 95-point parts, then resumed whole
    from that store by fresh engines (``repro run --parallel 2 --timeout
    ... --resume``).  The execution plane (``engine``) and the
    ``store`` dominate; the cold passes write the store and the resume
    passes read it.
``analyze-corpus``
    Cold Figure-9 analysis of a seeded stream of distinct multi-gadget
    victims (Listing-1/2 shapes, 1 to 32 gadgets) on a serial engine, a
    fresh one per round of 25 victims.
    ``isa``, ``graphtool`` and ``core`` do all the work; nothing is
    simulated and no pool or store exists, so a simulator-only change must
    leave it flat.
``service-mixed``
    An in-process ``ServiceThread`` over an engine and a fresh ``DiskStore``
    owned here, driven by two closed-loop client threads with a seeded mix
    of ``analyze`` and ``simulate`` point specs, a fixed share of them
    repeats.  The only workload that loads the ``service`` layer (admission
    queue, batch window, single-flight, HTTP framing) and store reads on the
    request path.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import shutil
import statistics
import threading
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.engine import Engine, FailurePolicy
from repro.obs.trace import Tracer
from repro.scenario import ScenarioGrid, ScenarioSpec
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import ServiceThread
from repro.store import DiskStore
from repro.uarch.defenses import SimDefense
from repro.uarch.timing.validate import SCENARIOS

#: Registry attacks with a timing scenario, every simulator defense (plus the
#: undefended baseline) and the three timing-model presets: the grid axes.
ATTACKS: Tuple[str, ...] = tuple(sorted(SCENARIOS))
DEFENSES: Tuple[Optional[Tuple[str, ...]], ...] = (None,) + tuple(
    (defense.name,) for defense in SimDefense
)
MODELS: Tuple[str, ...] = ("default", "contended", "serialized")

#: Pool workers of the grid, one per CPU of the reference box.
GRID_WORKERS = 2
#: The grid's failure policy: a generous timeout (a hung point is a bug, not
#: a slow run), the default retry budget, quarantine on exhaustion.
GRID_POLICY = FailurePolicy(timeout=60.0)
#: The cold pass of a grid runs in these parts, one round each: a timing
#: model and half of the defense axis, 95 points.
GRID_PARTS: Tuple[Tuple[str, Tuple[Optional[Tuple[str, ...]], ...]], ...] = tuple(
    (model, half)
    for model in MODELS
    for half in (DEFENSES[: len(DEFENSES) // 2], DEFENSES[len(DEFENSES) // 2:])
)
#: Fresh-engine resumes of each whole grid, one round each, after its cold
#: parts; ``grid_resume_s`` is their mean.  A resume lasts under a tenth of
#: a second, so it takes many, spread over the run, to steady it.
RESUME_PASSES = 8

#: Programs per fuzz campaign (one round).
FUZZ_PROGRAMS = 50

#: Requests per service round, split evenly between the two clients: the
#: fewest that leave ten samples beyond the round's p95.
SERVICE_REQUESTS = 200
#: Every ``SERVICE_REPEAT_EVERY``-th request repeats an earlier spec of its
#: round, so exactly a quarter of the traffic is in-flight or disk hits.
SERVICE_REPEAT_EVERY = 4
#: Share of the fresh service specs that are ``simulate`` points; the rest
#: are small ``analyze`` victims.
SERVICE_SIMULATE_SHARE = 0.6
#: Client socket timeout: a request slower than this counts as failed.
CLIENT_TIMEOUT_S = 30.0

#: The engine's own artifact caches in ``Engine.stats()`` (the process-wide
#: expansion cache is left out: other workloads in the run share it).
ENGINE_CACHES = frozenset(
    ("builds", "analyses", "evaluations", "synth_graphs", "synth_verdicts",
     "simulations", "tsg_verdicts")
)


def derive(seed: int, *labels: object) -> int:
    """A 63-bit integer derived from the run seed and a label path."""
    text = ":".join(str(part) for part in (seed,) + labels)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big") >> 1


def digest(rows: List[object]) -> str:
    """SHA-256 of the canonical JSON rendering of ``rows``."""
    blob = json.dumps(rows, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


def rate(rounds: List["Round"]) -> float:
    """Operations per second of the rounds' summed timed wall: a throughput
    over the whole run, each round weighing by its work."""
    return sum(r.ops for r in rounds) / sum(r.wall for r in rounds)


def percentile(samples: List[float], fraction: float) -> float:
    """Linearly interpolated percentile (the ``inclusive`` quantile method).

    The benchmark keeps its own statistics rather than the program's
    (``repro.service.stats``), so a change to the program cannot change how
    it is measured.
    """
    ordered = sorted(samples)
    position = fraction * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


# ---------------------------------------------------------------------------
# Seeded victim programs (Listing-1 / Listing-2 gadget shapes)
# ---------------------------------------------------------------------------
def victim(rng: random.Random, gadgets: int, vulnerable: bool) -> str:
    """Assembly text of one multi-gadget victim with a planted verdict.

    Gadget kinds: ``bounds`` is the paper's Listing 1 (a bounds-checked
    load feeding a Flush+Reload send), ``fenced`` the same with an
    ``lfence`` after the check, ``kernel`` Listing 2 (a faulting kernel
    load), ``public`` a constant-index load of public data.  A vulnerable
    victim holds at least one ``bounds`` or ``kernel`` gadget; a safe one
    holds one ``fenced`` gadget and otherwise only ``public`` ones -- the
    analyzer reports both Listing shapes, and a lone fenced check, exactly
    so.  The composition per size is fixed so per-size cost is stable
    across seeds; the seed picks the gadget order.
    """
    if vulnerable:
        bounds = max(1, gadgets // 2)
        kernel = 1 if gadgets >= 3 else 0
        fenced = (gadgets - bounds - kernel) // 2
        kinds = ["bounds"] * bounds + ["kernel"] * kernel + ["fenced"] * fenced
    else:
        kinds = ["fenced"]
    kinds += ["public"] * (gadgets - len(kinds))
    rng.shuffle(kinds)
    data = ["probe_array: address=0x1000000 size=1048576 shared"]
    text = ["    clflush [probe_array]"]
    for index, kind in enumerate(kinds):
        base = 0x200000 + index * 0x1000
        if kind == "kernel":
            data.append(
                f"kernel_{index}: address={0xFFFF0000 + index * 0x100:#x} "
                "size=64 kernel protected"
            )
            text.append(f"    mov rax, byte [kernel_{index}]")
        elif kind == "public":
            data.append(f"public_{index}: address={base:#x} size=16")
            text.append(f"    mov rax, byte [public_{index} + {rng.randrange(16)}]")
        else:
            data.append(f"victim_{index}: address={base:#x} size=16")
            data.append(f"secret_{index}: address={base + 0x48:#x} size=1 protected")
            data.append(f"size_{index}: address={0x400000 + index * 0x100:#x} size=8")
            text.append(f"    cmp rdx, [size_{index}]")
            text.append(f"    ja done_{index}")
            if kind == "fenced":
                text.append("    lfence")
            text.append(f"    mov rax, byte [victim_{index} + rdx]")
        text.append("    shl rax, 12")
        text.append("    mov rbx, [probe_array + rax]")
        if kind in ("bounds", "fenced"):
            text.append(f"done_{index}:")
    return "\n".join([".data", *data, ".text", *text, "    hlt"])


#: One analyze-corpus round: the fixed (gadgets, vulnerable) mix from 1 to 32
#: gadgets.  25 slots put the p50 and p90 ranks mid-way between slot
#: boundaries, so whole rounds give percentiles that do not flip between
#: neighbouring program sizes from run to run.
ANALYZE_SLOTS: Tuple[Tuple[int, bool], ...] = (
    (1, True), (1, False), (2, True), (2, False), (3, True),
    (4, True), (4, False), (5, True), (6, False), (6, True),
    (8, True), (8, False), (10, True), (12, False), (12, True),
    (14, True), (16, False), (16, True), (18, True), (20, True),
    (22, False), (24, True), (26, True), (28, True), (32, True),
)


# ---------------------------------------------------------------------------
# Round records
# ---------------------------------------------------------------------------
@dataclass
class Round:
    """What one round did: its operations, failures, timings and rows."""

    ops: int = 0
    failed: int = 0
    #: Wall seconds of the round's timed region.
    wall: float = 0.0
    #: Per-operation latencies in milliseconds (latency workloads only).
    latencies_ms: List[float] = field(default_factory=list)
    #: Plain-data rows of every result, until :meth:`seal` digests them.
    rows: List[object] = field(default_factory=list)
    #: SHA-256 of the rows, for the fingerprint.
    digest: str = ""
    #: Exact counts read off the results: leaking points, and for the grid
    #: the simulated counts its payloads carry back from the pool workers.
    counts: Dict[str, int] = field(default_factory=dict)
    #: Seconds of each of the grid's resume passes.
    resume_walls: List[float] = field(default_factory=list)

    def seal(self) -> "Round":
        """Swap the rows for their digest, so a run's heap does not grow with
        its rounds (a bigger heap makes every full collection slower)."""
        self.digest = digest(self.rows)
        self.rows = []
        return self


class Workload:
    """One workload: set up, run seeded rounds, report, tear down."""

    name = ""
    #: Seconds one round takes on the reference box: a run's length in
    #: seconds becomes a number of rounds through it.
    round_s = 1.0
    #: The workload's share of every run, relative to the others' (the
    #: chosen workload's weight counts twice).
    weight = 1.0
    #: The fewest rounds any run gives the workload.
    min_rounds = 1
    #: A run's rounds are a whole multiple of this.
    round_quantum = 1

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch
        self.failures: List[str] = []
        self.cache_hits = 0
        self.cache_lookups = 0

    def setup(self, tracer: Optional[Tracer] = None) -> None:
        """Build what the first timed operation needs.

        Subclasses register every resource on :attr:`resources` as they
        acquire it, so :meth:`teardown` releases them in reverse order even
        when one release fails.
        """
        self.resources = ExitStack()

    def run_round(self, index: int) -> Round:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release everything :meth:`setup` acquired."""
        self.resources.close()

    def finish(self) -> int:
        """Checks that need the whole run; returns extra failed operations."""
        return 0

    def metrics(self, rounds: List[Round]) -> Dict[str, float]:
        """This workload's end-to-end metrics over ``rounds``."""
        raise NotImplementedError

    def fail(self, message: str) -> None:
        if len(self.failures) < 20:
            self.failures.append(message)

    def count_cache(self, engine: Engine) -> None:
        """Add an engine's artifact-cache hits and lookups to the totals."""
        for name, section in engine.stats().items():
            if name in ENGINE_CACHES:
                self.cache_hits += section["hits"]
                self.cache_lookups += section["hits"] + section["misses"]

    @property
    def cache_hit_ratio(self) -> float:
        return self.cache_hits / self.cache_lookups if self.cache_lookups else 0.0


# ---------------------------------------------------------------------------
# fuzz-sweep
# ---------------------------------------------------------------------------
class FuzzSweep(Workload):
    name = "fuzz-sweep"
    round_s = 0.13

    def run_round(self, index: int) -> Round:
        points = []
        with Engine() as engine:
            start = time.perf_counter()
            engine.run_fuzz_campaign(
                seed=derive(self.seed, "fuzz", index) % 2**31,
                count=FUZZ_PROGRAMS,
                on_point=points.append,
            )
            wall = time.perf_counter() - start
            self.count_cache(engine)
        record = Round(ops=len(points), wall=wall)
        for point in points:
            data = point.result.data
            # The three oracles must agree: TSG verdict, measured race and
            # the byte the covert channel actually decoded.
            agree = (
                point.result.kind != "error"
                and data["tsg_leaks"] == data["transmit_beats_squash"]
                and data["tsg_leaks"] == data["leaked_secret"]
            )
            if not agree:
                record.failed += 1
                self.fail(f"fuzz {point.result.subject}: oracles disagree")
            record.rows.append(
                [data.get(key) for key in (
                    "index", "sha", "tsg_leaks", "transmit_beats_squash",
                    "recovered", "transmit_cycle", "squash_cycle", "window_cycles",
                )]
            )
        record.counts["leaking"] = sum(1 for row in record.rows if row[2])
        return record

    def metrics(self, rounds: List[Round]) -> Dict[str, float]:
        return {"fuzz_programs_per_s": rate(rounds)}


# ---------------------------------------------------------------------------
# grid-supervised
# ---------------------------------------------------------------------------
class GridSupervised(Workload):
    """Each grid (one seeded secret) takes fourteen rounds: the cold passes of
    its six :data:`GRID_PARTS`, then :data:`RESUME_PASSES` whole-grid
    resumes from the store.  Short rounds let the grid sample the whole run
    as the other workloads do, and every grid loads each part alike.
    """

    name = "grid-supervised"
    round_s = 0.2
    weight = 1.5
    round_quantum = len(GRID_PARTS) + RESUME_PASSES
    #: Two whole grids: one grid samples too few moments of a run.
    min_rounds = 2 * round_quantum

    def setup(self, tracer: Optional[Tracer] = None) -> None:
        super().setup()
        self.root = self.scratch / "grid"
        self.resources.callback(shutil.rmtree, self.root, ignore_errors=True)
        self.store = DiskStore(root=self.root, version="cold")
        self.engine = self.resources.enter_context(
            Engine(store=self.store, policy=GRID_POLICY, parallel=GRID_WORKERS, tracer=tracer)
        )
        self.resources.callback(self.collect_stats)
        # Pool warm-up belongs to set-up: the CLI pays it once per campaign.
        start = time.perf_counter()
        self.engine.map(abs, range(GRID_WORKERS), parallel=GRID_WORKERS)
        self.pool_spawn_s = time.perf_counter() - start
        self.stats: Dict[str, int] = {}
        self.store_bytes = 0
        #: Worker-seconds the pool offered during the cold passes.
        self.pool_capacity_s = 0.0

    def grid(self, number: int, parts=GRID_PARTS) -> ScenarioGrid:
        """The points of grid ``number`` in ``parts``.  Model-major, then
        defenses: the whole grid's rows are its parts' rows end to end."""
        secret = 0x20 + derive(self.seed, "grid", number) % 0xD0
        return ScenarioGrid.explicit([
            ScenarioSpec("simulate", model=model, defenses=defenses, attack=attack, secret=secret)
            for model, half in parts
            for defenses in half
            for attack in ATTACKS
        ])

    def run_round(self, index: int) -> Round:
        number, step = divmod(index, self.round_quantum)
        if step < len(GRID_PARTS):
            return self.cold_part(number, step)
        return self.resume(number)

    def cold_part(self, number: int, step: int) -> Round:
        if step == 0:
            self.store.clear()
            self.cold_rows: List[str] = []
        part = self.grid(number, GRID_PARTS[step : step + 1])
        start = time.perf_counter()
        cold = self.engine.run_grid(part, parallel=GRID_WORKERS)
        wall = time.perf_counter() - start
        self.pool_capacity_s += GRID_WORKERS * wall
        record = Round(ops=len(part), wall=wall)
        record.failed += cold.data.get("quarantined", 0)
        record.rows = cold.data["rows"]
        self.cold_rows += [json.dumps(row, sort_keys=True, default=str) for row in record.rows]
        payloads = [result.payload for result in cold.payload if result.payload]
        record.counts = {
            "leaking": sum(
                1 for row in record.rows if row["data"].get("transmit_beats_squash")
            ),
            "victim_trace_cycles": sum(p.timing.cycles for p in payloads),
            "victim_trace_ops": sum(len(p.timing.ops) for p in payloads),
            "sim_instructions": sum(p.stats.instructions_retired for p in payloads),
        }
        if step == len(GRID_PARTS) - 1:
            self.store_bytes += self.store.stats()["bytes"]
        return record

    def resume(self, number: int) -> Round:
        """Resume the whole grid ``number`` from the store with a fresh engine."""
        grid = self.grid(number)
        points = len(grid)
        record = Round(ops=points)
        with Engine(
            store=DiskStore(root=self.root, version="cold"),
            policy=GRID_POLICY,
            parallel=GRID_WORKERS,
        ) as fresh:
            start = time.perf_counter()
            warm = fresh.run_grid(grid, parallel=GRID_WORKERS)
            record.wall = time.perf_counter() - start
            record.resume_walls.append(record.wall)
            resumed = fresh.stats()["grid"]["resumed"]
        if resumed != points:
            record.failed += points - resumed
            self.fail(f"grid {number}: resumed {resumed} of {points} points")
        warm_rows = [json.dumps(row, sort_keys=True, default=str) for row in warm.data["rows"]]
        if len(warm_rows) != len(self.cold_rows):
            record.failed += points
            self.fail(f"grid {number}: resumed {len(warm_rows)} rows of {len(self.cold_rows)}")
        for cold_row, warm_row in zip(self.cold_rows, warm_rows):
            if cold_row != warm_row:
                record.failed += 1
                self.fail(f"grid {number}: {cold_row[:80]} resumed differently")
        return record

    def collect_stats(self) -> None:
        self.stats = self.engine.stats()["grid"]
        self.count_cache(self.engine)

    def metrics(self, rounds: List[Round]) -> Dict[str, float]:
        return {
            "grid_points_per_s": rate([r for r in rounds if not r.resume_walls]),
            "grid_resume_s": statistics.mean(s for r in rounds for s in r.resume_walls),
        }


# ---------------------------------------------------------------------------
# analyze-corpus
# ---------------------------------------------------------------------------
class AnalyzeCorpus(Workload):
    """Each round analyzes on its own fresh engine.  The engine keeps every
    report it made, so one engine for a whole run would grow the heap by
    tens of thousands of objects a round, and the cyclic collector's full
    passes -- landing on whichever analysis is running -- would make a
    victim's latency depend on how many came before it in the run.
    """

    name = "analyze-corpus"
    round_s = 0.25
    #: Four whole rounds are 100 programs: ten beyond the p90.
    min_rounds = 4

    def programs(self, index: int) -> List[Tuple[str, str, bool]]:
        rng = random.Random(derive(self.seed, "analyze", index))
        slots = list(ANALYZE_SLOTS)
        rng.shuffle(slots)
        return [
            (f"victim-{index}-{slot}", victim(rng, gadgets, vulnerable), vulnerable)
            for slot, (gadgets, vulnerable) in enumerate(slots)
        ]

    def run_round(self, index: int) -> Round:
        record = Round()
        programs = self.programs(index)
        with Engine() as engine:
            round_start = time.perf_counter()
            for name, text, planted in programs:
                spec = ScenarioSpec("analyze", program=text, name=name)
                start = time.perf_counter()
                try:
                    result = engine.run(spec)
                except Exception as exc:  # a raising analysis is a failed operation
                    record.failed += 1
                    self.fail(f"analyze {name}: {type(exc).__name__}: {exc}")
                    continue
                finally:
                    record.latencies_ms.append((time.perf_counter() - start) * 1e3)
                    record.ops += 1
                data = result.data
                if data["vulnerable"] != planted:
                    record.failed += 1
                    self.fail(
                        f"analyze {name}: vulnerable={data['vulnerable']}, planted {planted}"
                    )
                record.rows.append(
                    [name, data["vulnerable"], data["classification"], data["vertices"],
                     data["edges"], data["racing_pairs"], len(data["findings"])]
                )
            record.wall = time.perf_counter() - round_start
            self.count_cache(engine)
        record.counts["leaking"] = sum(1 for row in record.rows if row[1])
        return record

    def metrics(self, rounds: List[Round]) -> Dict[str, float]:
        samples = [ms for r in rounds for ms in r.latencies_ms]
        return {
            "analyze_p50_ms": percentile(samples, 0.50),
            "analyze_p90_ms": percentile(samples, 0.90),
        }


# ---------------------------------------------------------------------------
# service-mixed
# ---------------------------------------------------------------------------
class ServiceMixed(Workload):
    name = "service-mixed"
    round_s = 1.3
    weight = 2.0
    #: The latency percentiles are per round, reported as their median over
    #: the run's rounds: the host's slow spells stall the service's thread
    #: handoffs hardest, and a spell over a few rounds must not carry the
    #: run's tail.
    min_rounds = 3

    def setup(self, tracer: Optional[Tracer] = None) -> None:
        super().setup()
        self.root = self.scratch / "service"
        self.resources.callback(shutil.rmtree, self.root, ignore_errors=True)
        self.engine = self.resources.enter_context(Engine(store=DiskStore(root=self.root)))
        self.resources.callback(self.collect_stats)
        # Stopping drains the service; the engine it was handed is closed
        # after that, here: a ServiceThread only closes engines it created.
        self.server = self.resources.enter_context(ServiceThread(engine=self.engine))
        #: The content hash of every distinct spec sent.
        self.sent: set = set()
        #: Server-side envelope latencies: (queue, compute, total) ms and the
        #: client-observed latency, per completed request.
        self.envelopes: List[Tuple[float, float, float, float]] = []
        self.service_stats: Dict[str, object] = {}
        #: (timing scenario, defenses, model, secret) of every simulate spec
        #: drawn: aliased registry attacks share one timing run, so two specs
        #: with the same key would be one computation, not two.
        self.simulations: set = set()

    def requests(self, index: int) -> List[ScenarioSpec]:
        """One round's request sequence.

        The composition is the same every round -- the simulate/analyze
        split, each axis value's share, the analyze sizes and verdicts --
        and the seed only orders and pairs them, so per-round cost does not
        swing with the seed.  Every ``SERVICE_REPEAT_EVERY``-th request
        repeats one of the eight latest fresh specs.
        """
        rng = random.Random(derive(self.seed, "service", index))

        def balanced(values, count: int) -> list:
            drawn = list(values) * -(-count // len(values))
            rng.shuffle(drawn)
            return drawn[:count]

        fresh_count = SERVICE_REQUESTS - SERVICE_REQUESTS // SERVICE_REPEAT_EVERY
        simulates = round(fresh_count * SERVICE_SIMULATE_SHARE)
        analyzes = fresh_count - simulates
        points = list(zip(
            balanced(ATTACKS, simulates),
            balanced(DEFENSES, simulates),
            balanced(MODELS, simulates),
        ))
        victims = list(zip(balanced((1, 2, 3, 4), analyzes), balanced((True, False), analyzes)))
        fresh: List[ScenarioSpec] = []
        for kind in balanced(["simulate"] * simulates + ["analyze"] * analyzes, fresh_count):
            if kind == "simulate":
                attack, defenses, model = points.pop()
                secret = rng.randrange(0x20, 0xF0)
                while (SCENARIOS[attack], defenses, model, secret) in self.simulations:
                    secret = rng.randrange(0x20, 0xF0)
                self.simulations.add((SCENARIOS[attack], defenses, model, secret))
                spec = ScenarioSpec(
                    "simulate", attack=attack, defenses=defenses, model=model, secret=secret
                )
            else:
                gadgets, vulnerable = victims.pop()
                spec = ScenarioSpec(
                    "analyze",
                    program=victim(rng, gadgets, vulnerable),
                    name=f"request-{index}-{len(fresh)}",
                )
            # The JSON round trip is what the server decodes.
            fresh.append(ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict()))))
        mix: List[ScenarioSpec] = []
        sent = 0
        for position in range(SERVICE_REQUESTS):
            if position % SERVICE_REPEAT_EVERY == SERVICE_REPEAT_EVERY - 1:
                mix.append(rng.choice(fresh[max(0, sent - 8):sent]))
            else:
                mix.append(fresh[sent])
                sent += 1
        return mix

    def run_round(self, index: int) -> Round:
        mix = self.requests(index)
        outcomes: List[List[tuple]] = [[], []]

        def client_body(lane: int) -> None:
            client = ServiceClient(self.server.url, timeout=CLIENT_TIMEOUT_S)
            for spec in mix[lane::2]:
                start = time.perf_counter()
                try:
                    envelope = client.run(spec)
                    error = None
                except (ServiceError, OSError) as exc:
                    envelope, error = None, f"{type(exc).__name__}: {exc}"
                elapsed_ms = (time.perf_counter() - start) * 1e3
                outcomes[lane].append((spec, elapsed_ms, envelope, error))

        clients = [threading.Thread(target=client_body, args=(lane,)) for lane in (0, 1)]
        start = time.perf_counter()
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join(timeout=10 * CLIENT_TIMEOUT_S)
        wall = time.perf_counter() - start
        record = Round(ops=len(mix), wall=wall)
        if any(thread.is_alive() for thread in clients):
            raise RuntimeError("service client thread did not finish")
        answers: Dict[str, Dict[str, object]] = {}
        for spec, elapsed_ms, envelope, error in outcomes[0] + outcomes[1]:
            key = spec.content_hash()
            self.sent.add(key)
            if error is not None:
                record.failed += 1
                self.fail(f"service {spec.describe()}: {error}")
                continue
            record.latencies_ms.append(elapsed_ms)
            latency = envelope["latency_ms"]
            self.envelopes.append(
                (latency["queue"], latency["compute"], latency["total"], elapsed_ms)
            )
            answer = dict(envelope["result"], cache=None)
            if answers.setdefault(key, answer) != answer:
                record.failed += 1
                self.fail(f"service {spec.describe()}: repeat answered differently")
        # Every distinct spec recomputed directly, on an engine that lives
        # for this check only (repeats never cross rounds).
        with Engine() as reference:
            for spec in dict.fromkeys(mix):
                answer = answers.get(spec.content_hash())
                record.rows.append([spec.content_hash(), answer])
                if answer is None:
                    continue  # the request itself already failed
                expected = json.loads(
                    json.dumps(dict(reference.run(spec).to_dict(), cache=None),
                               sort_keys=True, default=str)
                )
                if expected != answer:
                    record.failed += 1
                    self.fail(f"service {spec.describe()}: differs from Engine.run")
        record.counts["leaking"] = sum(
            1 for _, answer in record.rows
            if answer and answer["data"].get("transmit_beats_squash")
        )
        return record

    def collect_stats(self) -> None:
        self.service_stats = self.engine.stats().get("service", {})
        self.store_bytes = self.engine.store.stats()["bytes"]
        self.count_cache(self.engine)

    def finish(self) -> int:
        """Check single-flight: one computation per distinct spec."""
        failed = 0
        computed = self.service_stats.get("hits", {}).get("computed")
        if computed != len(self.sent):
            self.fail(f"service computed {computed} points for {len(self.sent)} distinct specs")
            failed += abs((computed or 0) - len(self.sent))
        return failed

    def metrics(self, rounds: List[Round]) -> Dict[str, float]:
        return {
            "service_req_per_s": rate(rounds),
            "service_p50_ms": statistics.median(
                percentile(r.latencies_ms, 0.50) for r in rounds
            ),
            "service_p95_ms": statistics.median(
                percentile(r.latencies_ms, 0.95) for r in rounds
            ),
        }


WORKLOADS = {
    cls.name: cls for cls in (FuzzSweep, GridSupervised, AnalyzeCorpus, ServiceMixed)
}
