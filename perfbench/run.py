"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload fuzz-sweep --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
``BENCHMARK.json`` at the root names the workloads and the metrics, and
``perfbench/workloads.py`` says why each workload was chosen.

``--seconds`` sets how much work a run measures: the number of whole seeded
rounds that take that long on the reference box (two CPUs).  The work is a
function of the seed and ``--seconds`` alone, so every run with the same
arguments does identical work whatever the program's speed.

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``setup_s`` (imports plus the median of three set-ups) belongs to the chosen
workload.  Every run must report every end-to-end metric, so every run runs
all four workloads: the seconds are shared out by each workload's weight,
the chosen one's counting twice, and the rounds of all four are interleaved
evenly over the whole run, so each metric samples the host at many moments
of it.  ``peak_rss_mb`` is the process's peak over all of it.

``--trace 1`` measures the per-layer metrics: the chosen workload runs the
rounds it gets in an untraced run with the layer wrappers of
``perfbench/layers.py`` installed, the first half of them each right after
an untraced twin on a second set-up, and ``obs.trace_overhead`` compares
the twins.  It prints a layer table.

Both modes check every output, print the seed and a fingerprint of the
measured rounds (a digest of their result rows, their leaking points and,
traced, their exact simulated counts), and check that no child process,
thread or listening socket outlives the run.  The last stdout line is the
JSON result.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402 - the clock above must start before imports
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

#: A seed kept aside: never used while the benchmark or a change is tuned,
#: so a claimed gain can be confirmed on inputs it was not shaped on.
HELD_OUT_SEED = 9_004_517

#: Set-ups timed per run; ``setup_s`` reports their median.
SETUP_TRIALS = 3


def child_pids() -> List[int]:
    """Live processes whose parent is this process (Linux ``/proc``)."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc") if os.path.isdir("/proc") else ():
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == me and fields[0] != "Z":
            found.append(int(entry))
    return found


def listening_sockets() -> List[str]:
    """Local addresses of TCP sockets this process holds in LISTEN state."""
    inodes = set()
    for fd in os.listdir("/proc/self/fd") if os.path.isdir("/proc/self/fd") else ():
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue
        if target.startswith("socket:["):
            inodes.add(target[8:-1])
    found = []
    for table in ("/proc/self/net/tcp", "/proc/self/net/tcp6"):
        try:
            with open(table, encoding="utf-8") as handle:
                rows = handle.read().splitlines()[1:]
        except OSError:
            continue
        for row in rows:
            fields = row.split()
            if fields[3] == "0A" and fields[9] in inodes:
                found.append(fields[1])
    return found


def leftovers() -> List[str]:
    """Every child process, extra thread or listening socket still alive."""
    multiprocessing.active_children()  # reaps pool workers that already exited
    problems = [f"child process {pid}" for pid in child_pids()]
    problems += [
        f"thread {thread.name}"
        for thread in threading.enumerate()
        if thread is not threading.main_thread()
    ]
    problems += [f"listening socket {address}" for address in listening_sockets()]
    return problems


def load_program() -> None:
    """Import the program from ``src/``, with the benchmark modules over it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program at {src / 'repro'}; run from a checkout")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import layers  # noqa: F401 - imported here so setup_s includes it
    import workloads  # noqa: F401


def plan_rounds(chosen: str, seconds: float) -> Dict[str, int]:
    """Each workload's rounds in a run of ``seconds`` on the reference box.

    The seconds are shared out by weight, the chosen workload's counting
    twice.
    """
    from workloads import WORKLOADS

    weights = {
        name: cls.weight * (2 if name == chosen else 1) for name, cls in WORKLOADS.items()
    }
    plan = {}
    for name, cls in WORKLOADS.items():
        share = seconds * weights[name] / sum(weights.values())
        quanta = round(share / cls.round_s / cls.round_quantum)
        plan[name] = max(cls.min_rounds, quanta * cls.round_quantum)
    return plan


def interleave(plan: Dict[object, int]) -> list:
    """Each workload's rounds spread evenly over the run, in one sequence.

    The host's speed drifts over seconds, so a metric measured in one short
    stretch of a run varies far more from run to run than one sampled all
    along it.
    """
    slots = [
        ((index + 0.5) / count, order, workload)
        for order, (workload, count) in enumerate(plan.items())
        for index in range(count)
    ]
    return [workload for _, _, workload in sorted(slots, key=lambda slot: slot[:2])]


@contextlib.contextmanager
def frozen_heap():
    """Keep what set-up built out of the collector's sight while rounds run.

    A full collection walks every object the collector tracks.  Freezing the
    set-up's objects (the program's modules, engines, pool, service) leaves
    each collection inside a round with little more than the round's own
    objects, as in a process that runs one workload alone.
    """
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def play(workload, index: int):
    """Round ``index`` of ``workload``, run from a clean collector and sealed.

    Collecting first makes every round start with empty young generations,
    so the collector's work inside a round depends on that round alone, not
    on what the rounds before it left behind.
    """
    gc.collect()
    return workload.run_round(index).seal()


def fingerprint(workload, rounds, counts: Dict[str, float]) -> Dict[str, object]:
    """The measured rounds' identity: equal for equal seeds and seconds."""
    from workloads import digest

    record = {
        "workload": workload.name,
        "seed": workload.seed,
        "rounds": len(rounds),
        "rows_sha256": digest([r.digest for r in rounds]),
    }
    for r in rounds:
        for name, value in r.counts.items():
            record[name] = record.get(name, 0) + value
    record.update(counts)
    return record


def measured_run(name: str, seed: int, seconds: float, scratch: Path, import_s: float):
    """The untraced run: every workload's rounds, interleaved."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, scratch)
    setups = []
    with contextlib.ExitStack() as stack:
        for trial in range(SETUP_TRIALS):
            start = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - start)
            if trial < SETUP_TRIALS - 1:
                workload.teardown()
        stack.callback(workload.teardown)
        counts = plan_rounds(name, seconds)
        plan = {workload: counts[name]}
        for other_name, other_cls in WORKLOADS.items():
            if other_name != name:
                other = other_cls(seed, scratch)
                other.setup()
                stack.callback(other.teardown)
                plan[other] = counts[other_name]
        stack.enter_context(frozen_heap())
        active = list(plan)
        rounds: Dict[object, list] = {each: [] for each in active}
        for each in interleave(plan):
            rounds[each].append(play(each, len(rounds[each])))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {"setup_s": import_s + statistics.median(setups), "peak_rss_mb": peak_rss_mb}
    attempted = failed = 0
    failures: List[str] = []
    for each in active:
        metrics.update(each.metrics(rounds[each]))
        attempted += sum(r.ops for r in rounds[each])
        failed += sum(r.failed for r in rounds[each]) + each.finish()
        failures += each.failures
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "metrics": metrics,
        "fingerprint": fingerprint(workload, rounds[workload], {}),
        "lines": [],
    }


def traced_run(name: str, seed: int, seconds: float, scratch: Path):
    """The traced run: per-layer metrics and the layer table."""
    from layers import (
        FINGERPRINT_COUNTS, LayerProbe, layer_metrics, layer_table, worker_spans,
    )
    from repro.obs.trace import Tracer
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    reference = cls(seed, scratch / "untraced")
    workload = cls(seed, scratch)
    count = plan_rounds(name, seconds)[name]
    twins = max(cls.round_quantum, count // 2 // cls.round_quantum * cls.round_quantum)
    probe = LayerProbe()
    tracer = Tracer() if name == "grid-supervised" else None
    untraced, rounds = [], []
    wall = 0.0
    with contextlib.ExitStack() as stack:
        reference.setup()
        stack.callback(reference.teardown)
        workload.setup(tracer)
        stack.callback(workload.teardown)
        stack.enter_context(frozen_heap())
        # Each traced round runs right after its untraced twin, so host
        # speed drift cancels out of obs.trace_overhead.
        for index in range(count):
            if index < twins:
                untraced.append(play(reference, index))
            gc.collect()
            probe.install()
            try:
                start = time.perf_counter()
                record = workload.run_round(index)
                wall += time.perf_counter() - start
            finally:
                probe.uninstall()
            rounds.append(record.seal())
    traced_wall = sum(r.wall for r in rounds[: len(untraced)])
    overhead = traced_wall / sum(r.wall for r in untraced) - 1.0
    measured = probe.snapshot()
    spans = worker_spans(tracer.drain()) if tracer is not None else {}
    metrics = layer_metrics(measured, spans, workload, overhead)
    # Pool workers simulate out of the probe's sight: the grid's simulated
    # counts come from the payloads its rounds read back instead.
    counts = (
        {name: measured[name] for name in FINGERPRINT_COUNTS} if tracer is None else {}
    )
    attempted = sum(r.ops for r in untraced + rounds)
    failed = sum(r.failed for r in untraced + rounds)
    failed += reference.finish() + workload.finish()
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": reference.failures + workload.failures,
        "metrics": metrics,
        "fingerprint": fingerprint(workload, rounds, counts),
        "lines": [f"traced wall {wall:.3f} s"] + layer_table(metrics, wall),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    load_program()
    import_s = time.perf_counter() - _STARTED
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        if args.trace:
            outcome = traced_run(args.workload, args.seed, args.seconds, scratch)
        else:
            outcome = measured_run(
                args.workload, args.seed, args.seconds, scratch, import_s
            )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    left = leftovers()
    section = spec["per_layer" if args.trace else "end_to_end"]
    values = outcome["metrics"]
    print(f"workload {args.workload}, seed {args.seed}")
    for line in outcome["lines"]:
        print(line)
    for failure in outcome["failures"] + [f"left running: {item}" for item in left]:
        print(f"FAILED {failure}")
    print("fingerprint " + json.dumps(outcome["fingerprint"], sort_keys=True))
    result = {
        "correct": outcome["failed"] == 0 and not left,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in section
        },
    }
    print(json.dumps(result), flush=True)
    return 0


def terminate(signum, frame) -> None:
    """Unwind a termination request like an error, so every engine, pool,
    service and scratch directory is still closed on the way out."""
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, terminate)
    sys.exit(main())
