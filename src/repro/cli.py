"""Command-line interface over the :class:`repro.engine.Engine` session API.

Every analysis command is a thin veneer over one engine session: programs
are analysed through the content-addressed artifact cache (so re-analysing
an unchanged file is a cache hit), the defense matrix and attack-space
sweeps run on the engine's shardable execution plane, and the ``--json``
flags emit the engine's uniform :class:`~repro.engine.Result` envelope for
scripting pipelines.

Subcommands::

    repro tables                       # regenerate Tables I, II, III
    repro attacks                      # list the attack catalog
    repro attack spectre_v1            # describe one attack graph
    repro defenses                     # list the defense catalog
    repro evaluate lfence spectre_v1   # does a defense defeat an attack?
    repro evaluate --json lfence ...   # ... as a JSON Result envelope
    repro analyze victim.s             # run the Figure 9 tool on a program
    repro analyze --json victim.s      # ... as a JSON Result envelope
    repro patch victim.s [--json]      # analyze + insert fences
    repro exploit spectre_v1           # run an exploit on the simulator
    repro ablation meltdown [--json]   # defense ablation on the simulator
    repro simulate spectre_v1          # cycle-accurate timing run (OoO core)
    repro simulate --sweep             # sharded (attack x defense) timing grid
    repro simulate --validate          # Theorem 1: timing race vs TSG verdict
    repro simulate --validate --contended   # ... with bounded FU ports + CDB
    repro simulate --ablate-window     # ROB/RS/port window-length ablation
    repro run --kind simulate --param attack=spectre_v1   # declarative spec
    repro run --spec plan.json         # spec / grid from a JSON file
    repro run --kind simulate --param attack=spectre_v1 \
              --axis defenses='[["PREVENT_SPECULATIVE_LOADS"],null]'  # a grid
    repro run --spec plan.json --trace t.jsonl --progress  # traced, live ETA
    repro trace summarize t.jsonl      # phase breakdown + critical path
    repro report                       # full Markdown report
    repro perf [--check]               # exact perf ledger + perfbench -> BENCH_core.json
    repro serve --store disk           # the async analysis service (HTTP)
    repro request --url URL --kind simulate --param attack=spectre_v1
    repro request --url URL --stats    # the server's /stats document
    repro --version                    # package version + short commit

Every engine-backed subcommand accepts ``--store memory|disk|PATH``: the
spec-level artifact store that memoizes whole ``Result`` envelopes by
scenario content hash.  ``--store disk`` persists them under
``~/.cache/repro/`` (override with ``REPRO_CACHE_DIR``), so a second
invocation of the same scenario in a *new process* is served from disk.

Everything the CLI prints can be reproduced programmatically:
``Engine().run(ScenarioSpec(...))`` / ``.run_grid(ScenarioGrid(...))``
return the same envelopes (the named methods ``analyze`` / ``evaluate`` /
``simulate`` / ... survive as deprecated shims over ``run``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from . import analysis, build_info
from .analysis.report import full_report, render_result, service_response_summary
from .attacks import ALL_VARIANTS, get as get_attack
from .defenses import get as get_defense
from .engine import Engine, FailurePolicy, default_engine, halt_default_engine
from .exploits import EXPLOITS
from .faults import apply_store_faults, load_fault_plan
from .isa import assemble
from .scenario import (
    KINDS,
    ScenarioGrid,
    ScenarioSpec,
    load as load_scenario,
    resolve_program_params,
)
from .store import open_store
from .uarch import SimDefense, UarchConfig


def _session(args: argparse.Namespace) -> Engine:
    """The engine a subcommand runs on: fresh with a store, else the default."""
    store = open_store(getattr(args, "store", None))
    if store is None:
        return default_engine()
    return Engine(store=store)


def _cmd_tables(_: argparse.Namespace) -> int:
    print("Table I -- speculative attacks and their variants")
    print(analysis.table1())
    print("\nTable II -- industrial defenses")
    print(analysis.table2())
    print("\nTable III -- authorization and illegal-access nodes")
    print(analysis.table3())
    return 0


def _cmd_attacks(_: argparse.Namespace) -> int:
    rows = [
        (variant.key, variant.name, variant.cve or "N/A", variant.category.value)
        for variant in ALL_VARIANTS.values()
    ]
    print(analysis.format_table(("key", "attack", "CVE", "category"), rows))
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    variant = get_attack(args.key)
    graph = variant.build_graph()
    print(graph.describe())
    if args.dot:
        print()
        print(analysis.dot_graph(graph))
    else:
        print()
        print(analysis.ascii_graph(graph))
    return 0


def _cmd_defenses(_: argparse.Namespace) -> int:
    print(analysis.defense_strategy_table())
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    defense = get_defense(args.defense)
    variant = get_attack(args.attack)
    result = _session(args).evaluate(defense, variant)
    if args.json:
        print(result.to_json())
        return 0 if result.ok else 1
    evaluation = result.payload
    print(f"defense:   {defense.name} [{defense.strategy.value}]")
    print(f"attack:    {variant.name}")
    print(f"applicable: {evaluation.applicable}")
    print(f"leaks before: {evaluation.leaked_before}, leaks after: {evaluation.leaked_after}")
    print(f"verdict:   {'defeats the attack' if evaluation.effective else 'does NOT defeat the attack'}")
    if evaluation.notes:
        print(f"notes:     {evaluation.notes}")
    return 0 if evaluation.effective else 1


def _load_program(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return assemble(handle.read(), name=path)


def _cmd_analyze(args: argparse.Namespace) -> int:
    result = _session(args).analyze(_load_program(args.program))
    if args.json:
        print(result.to_json())
    else:
        print(result.payload.summary())
    return 0 if result.ok else 1


def _cmd_patch(args: argparse.Namespace) -> int:
    result = _session(args).patch(_load_program(args.program))
    if args.json:
        print(result.to_json())
        return 0 if result.ok else 1
    patch = result.payload
    print(patch.summary())
    print()
    print(patch.patched.listing())
    return 0


def _parse_defenses(names: Optional[Sequence[str]]) -> Optional[List[SimDefense]]:
    if not names:
        return None
    selected = []
    for name in names:
        try:
            selected.append(SimDefense[name.upper()])
        except KeyError:
            known = ", ".join(defense.name.lower() for defense in SimDefense)
            raise SystemExit(f"unknown simulator defense {name!r}; known: {known}")
    return selected


def _cmd_exploit(args: argparse.Namespace) -> int:
    if args.name not in EXPLOITS:
        raise SystemExit(f"unknown exploit {args.name!r}; known: {', '.join(sorted(EXPLOITS))}")
    config = UarchConfig()
    defenses = _parse_defenses(args.defense)
    if defenses:
        config = config.with_defenses(*defenses)
    result = _session(args).exploit(args.name, config=config, secret=args.secret).payload
    print(result)
    print(f"speculative windows: {result.stats.speculative_windows}, "
          f"transient instructions: {result.stats.transient_instructions}, "
          f"squashes: {result.stats.squashes}, faults: {result.stats.faults}")
    return 0 if not result.success else 1


def _cmd_ablation(args: argparse.Namespace) -> int:
    result = _session(args).ablation(
        args.name, secret=args.secret, parallel=args.parallel
    )
    if args.json:
        print(result.to_json())
        return 0 if result.ok else 1
    table_rows = [
        (row.defense_name, row.strategy_name, "LEAKS" if row.leaked else "defeated")
        for row in result.payload
    ]
    print(analysis.format_table(("defense", "strategy", "outcome"), table_rows))
    return 0


def _simulate_spec(args: argparse.Namespace) -> ScenarioSpec:
    """Migrate the ``simulate`` flag zoo onto one declarative scenario spec."""
    model = "contended" if args.contended else None
    if args.batch:
        if args.defense:
            raise SystemExit(
                "--batch points carry their own defenses; drop --defense"
            )
        try:
            document = json.loads(Path(args.batch).read_text(encoding="utf-8"))
        except OSError as error:
            raise SystemExit(f"cannot read batch file {args.batch!r}: {error}")
        except ValueError as error:
            raise SystemExit(f"batch file {args.batch!r} is not valid JSON: {error}")
        if isinstance(document, dict):
            points = document.get("points")
            secret = document.get("secret", args.secret)
            batch_model = document.get("model", model)
        else:
            points, secret, batch_model = document, args.secret, model
        if not isinstance(points, list) or not points:
            raise SystemExit(
                f"batch file {args.batch!r} must hold a non-empty JSON list of "
                "points (or an object with a 'points' list)"
            )
        return ScenarioSpec(
            "simulate_batch", points=tuple(points), secret=secret, model=batch_model
        )
    if args.validate:
        return ScenarioSpec("validate_timing", model=model)
    if args.ablate_window:
        if args.contended:
            raise SystemExit(
                "--ablate-window already sweeps the port configurations "
                "(unbounded / contended / serialized); drop --contended"
            )
        if args.defense:
            raise SystemExit(
                "--ablate-window measures the undefended window-length "
                "ablation; drop --defense (use --sweep for defense grids)"
            )
        return ScenarioSpec(
            "window_ablation",
            attacks=(args.name,) if args.name else None,
            secret=args.secret,
        )
    if args.sweep:
        return ScenarioSpec("simulate_sweep", secret=args.secret, model=model)
    if not args.name:
        raise SystemExit(
            "simulate needs an attack name (or --sweep / --validate / --ablate-window)"
        )
    defenses = _parse_defenses(args.defense)
    return ScenarioSpec(
        "simulate",
        attack=args.name,
        defenses=tuple(defenses) if defenses else None,
        secret=args.secret,
        model=model,
    )


def _cmd_simulate(args: argparse.Namespace) -> int:
    spec = _simulate_spec(args)
    result = _session(args).run(spec, parallel=args.parallel)
    if args.json:
        print(result.to_json())
    else:
        print(render_result(result, spec.kind))
    if spec.kind in ("simulate_sweep", "simulate_batch", "window_ablation"):
        return 0
    return 0 if result.ok else 1


def _parse_value(text: str) -> object:
    """A CLI parameter value: int literal, JSON, ``none``/``null``, or string."""
    lowered = text.strip().lower()
    if lowered in ("none", "null"):
        return None
    try:
        return int(text, 0)
    except ValueError:
        pass
    try:
        return json.loads(text)
    except (ValueError, TypeError):
        return text


def _parse_params(pairs: Optional[Sequence[str]]) -> Dict[str, object]:
    params: Dict[str, object] = {}
    for pair in pairs or ():
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise SystemExit(f"--param needs name=value, got {pair!r}")
        params[name] = _parse_value(value)
    return params


def _parse_axes(pairs: Optional[Sequence[str]]) -> Dict[str, List[object]]:
    axes: Dict[str, List[object]] = {}
    for pair in pairs or ():
        name, sep, text = pair.partition("=")
        if not sep or not name:
            raise SystemExit(f"--axis needs name=v1,v2,..., got {pair!r}")
        parsed = _parse_value(text)
        if isinstance(parsed, list):
            axes[name] = parsed
        elif isinstance(parsed, str):
            # Not valid JSON: a bare comma-separated value list.
            axes[name] = [_parse_value(value) for value in text.split(",")]
        else:
            # One JSON value (a dict, a number, null): a one-element axis --
            # never re-split, its commas are structure, not separators.
            axes[name] = [parsed]
    return axes


def _run_session(args: argparse.Namespace) -> Engine:
    """The (possibly fault-tolerant) engine behind ``repro run``.

    ``--resume`` implies a persistent store (the default disk cache when
    none was selected) -- a resume without durable checkpoints would have
    nothing to resume from.  ``--faults`` threads a deterministic
    fault-injection plan through the engine and (for store-level faults)
    wraps the artifact store; ``--timeout`` / ``--retries`` switch grid
    execution onto the supervised failure-policy plane.
    """
    store = open_store(getattr(args, "store", None))
    if args.resume and store is None:
        store = open_store("disk")
    plan = load_fault_plan(args.faults) if args.faults else None
    if plan is not None:
        store = apply_store_faults(store, plan)
    policy = None
    if args.timeout is not None or args.retries is not None:
        policy = FailurePolicy(
            timeout=args.timeout,
            retries=args.retries if args.retries is not None else 2,
        )
    if store is None and plan is None and policy is None:
        return default_engine()
    return Engine(store=store, policy=policy, faults=plan)


def _cmd_run(args: argparse.Namespace) -> int:
    if args.spec:
        plan = load_scenario(args.spec)
    elif args.kind:
        if args.kind not in KINDS:
            raise SystemExit(
                f"unknown scenario kind {args.kind!r}; known: "
                f"{', '.join(sorted(KINDS))}"
            )
        params = _parse_params(args.param)
        resolve_program_params(params, Path.cwd())
        axes = _parse_axes(args.axis)
        try:
            if axes:
                plan = ScenarioGrid(args.kind, base=params, axes=axes)
            else:
                plan = ScenarioSpec(args.kind, **params)
        except ValueError as exc:
            raise SystemExit(str(exc))
    else:
        raise SystemExit("run needs --spec FILE or --kind KIND")
    try:
        engine = _run_session(args)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"run failed: {exc}")
    tracer = None
    if getattr(args, "trace", None):
        from .obs import Tracer

        try:
            tracer = Tracer(sink=args.trace)
        except OSError as exc:
            raise SystemExit(f"cannot open trace file {args.trace!r}: {exc}")
        engine.tracer = tracer
    progress = None
    if getattr(args, "progress", False) and isinstance(plan, ScenarioGrid):
        from .obs import ProgressLine

        progress = ProgressLine(len(plan))
    try:
        if progress is not None:
            result = engine.run_grid(
                plan, parallel=args.parallel, on_point=progress.update
            )
        else:
            result = engine.run(plan, parallel=args.parallel)
    except KeyboardInterrupt:
        # Completed points are already durable (each one was persisted the
        # moment it finished); kill the pool without joining possibly hung
        # workers and tell the user how to pick the campaign back up.
        if progress is not None:
            progress.finish()
        engine.halt()
        if tracer is not None:
            tracer.close()
        print(
            "interrupted -- completed grid points stay checkpointed in the "
            "artifact store; re-run the same command with --resume to "
            "continue from the last completed point",
            file=sys.stderr,
        )
        return 130
    except (KeyError, TypeError, ValueError) as exc:
        # Parameter decode errors (unknown attack, bogus model name, ...)
        # are user input errors: one clean line, not a traceback.
        if progress is not None:
            progress.finish()
        if tracer is not None:
            tracer.close()
        message = exc.args[0] if exc.args else exc
        raise SystemExit(f"run failed: {message}")
    if progress is not None:
        progress.finish()
    if tracer is not None:
        tracer.close()
        print(
            f"trace: {tracer.emitted} spans written to {args.trace}",
            file=sys.stderr,
        )
    if args.json:
        print(result.to_json())
    else:
        kind = plan.kind if isinstance(plan, ScenarioSpec) else f"{plan.kind}_grid"
        print(render_result(result, kind))
    if args.resume:
        # Campaign accounting on stderr: stdout stays the pristine envelope.
        if isinstance(plan, ScenarioGrid):
            summary = engine.stats()["grid"]
            total = int(result.data.get("points", 0))
            resumed = summary["resumed"]
            print(
                f"resume: {resumed}/{total} points served from checkpoints, "
                f"{total - resumed} recomputed, "
                f"{summary['quarantined']} quarantined",
                file=sys.stderr,
            )
        else:
            state = (
                "served from checkpoint" if result.cache == "warm" else "recomputed"
            )
            print(f"resume: {state}", file=sys.stderr)
    return 0 if result.ok else 1


def _cmd_fuzz(args: argparse.Namespace) -> int:
    """``repro fuzz``: a seeded differential campaign over the three oracles."""
    if args.count < 1:
        raise SystemExit("fuzz needs --count >= 1")
    try:
        engine = _run_session(args)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"fuzz failed: {exc}")
    tracer = None
    if getattr(args, "trace", None):
        from .obs import Tracer

        try:
            tracer = Tracer(sink=args.trace)
        except OSError as exc:
            raise SystemExit(f"cannot open trace file {args.trace!r}: {exc}")
        engine.tracer = tracer
    progress = None
    if getattr(args, "progress", False):
        from .obs import ProgressLine

        progress = ProgressLine(args.count)
    try:
        result = engine.run_fuzz_campaign(
            seed=args.seed,
            count=args.count,
            secret=args.secret,
            model="contended" if args.contended else None,
            inject=args.inject,
            budget=args.budget,
            parallel=args.parallel,
            on_point=progress.update if progress is not None else None,
            refresh=args.resume,
        )
    except KeyboardInterrupt:
        # Completed fuzz points are already durable; kill the pool and tell
        # the user how to pick the campaign back up.
        if progress is not None:
            progress.finish()
        engine.halt()
        if tracer is not None:
            tracer.close()
        print(
            "interrupted -- completed fuzz points stay checkpointed in the "
            "artifact store; re-run the same command with --resume to "
            "continue from the last completed point",
            file=sys.stderr,
        )
        return 130
    except (KeyError, TypeError, ValueError) as exc:
        if progress is not None:
            progress.finish()
        if tracer is not None:
            tracer.close()
        message = exc.args[0] if exc.args else exc
        raise SystemExit(f"fuzz failed: {message}")
    if progress is not None:
        progress.finish()
    if tracer is not None:
        tracer.close()
        print(
            f"trace: {tracer.emitted} spans written to {args.trace}",
            file=sys.stderr,
        )
    if args.corpus:
        from .fuzz import FuzzCorpus

        ingested = FuzzCorpus(args.corpus).ingest(result.data)
        print(
            f"corpus: {ingested['written']} disagreement fixture(s) pinned, "
            f"{ingested['novel_buckets']} novel bucket(s) in {args.corpus}",
            file=sys.stderr,
        )
    if args.json:
        print(result.to_json())
    else:
        print(render_result(result, "fuzz_campaign"))
    if args.resume:
        # Campaign accounting on stderr: stdout stays the pristine envelope.
        summary = engine.stats()["grid"]
        total = int(result.data.get("executed", 0))
        resumed = summary["resumed"]
        print(
            f"resume: {resumed}/{total} points served from checkpoints, "
            f"{total - resumed} recomputed, "
            f"{summary['quarantined']} quarantined",
            file=sys.stderr,
        )
    return 0 if result.ok else 1


def _cmd_report(args: argparse.Namespace) -> int:
    text = full_report(include_matrix=not args.no_matrix, engine=_session(args))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"report written to {args.output}")
    else:
        print(text)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service.server import ServiceConfig, serve
    from .store import open_store

    store = open_store(args.store if args.store is not None else "disk")
    engine = Engine(store=store, parallel=args.parallel)
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        batch_size=args.batch_size,
        queue_depth=args.queue_depth,
        max_body_bytes=args.max_body,
        parallel=args.parallel,
        trace_path=args.trace,
    )
    try:
        return serve(engine, config)
    finally:
        engine.close()


def _request_payload(args: argparse.Namespace) -> Dict[str, object]:
    if args.spec:
        plan = load_scenario(args.spec)
        if isinstance(plan, ScenarioGrid):
            raise SystemExit(
                "the service accepts point specs, not grids (it batches "
                "points itself); expand the grid client-side or use repro run"
            )
        return plan.to_dict()
    if not args.kind:
        raise SystemExit("request needs --stats, --spec FILE or --kind KIND")
    params = _parse_params(args.param)
    resolve_program_params(params, Path.cwd())
    return {"kind": args.kind, "params": params}


def _cmd_request(args: argparse.Namespace) -> int:
    from .service.client import ServiceClient, ServiceError

    client = ServiceClient(args.url, timeout=args.timeout)
    try:
        if args.stats:
            print(json.dumps(client.stats(), indent=2, sort_keys=True, default=str))
            return 0
        envelope = client.run(_request_payload(args))
    except ServiceError as exc:
        print(json.dumps(exc.envelope, indent=2, sort_keys=True, default=str),
              file=sys.stderr)
        return 2
    except OSError as exc:
        raise SystemExit(f"cannot reach {args.url}: {exc}")
    if args.json:
        print(json.dumps(envelope, indent=2, sort_keys=True, default=str))
    else:
        print(service_response_summary(envelope))
    return 0 if envelope.get("ok") else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    from .analysis.report import format_trace_summary
    from .obs import summarize_file

    try:
        summary = summarize_file(args.file, top=args.top)
    except OSError as exc:
        raise SystemExit(f"cannot read trace file {args.file!r}: {exc}")
    except ValueError as exc:
        raise SystemExit(f"malformed trace file {args.file!r}: {exc}")
    if not summary["spans"]:
        raise SystemExit(f"trace file {args.file!r} holds no spans")
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True, default=str))
    else:
        print(format_trace_summary(summary))
    return 0


def _cmd_perf(args: argparse.Namespace) -> int:
    from . import perf

    if args.check:
        return perf.run_check(args.output, allow_stale=args.allow_stale)
    run = perf.main(output=args.output)
    print(f"source {run['source_digest'][:12]}  ({run['timestamp']})")
    for line in perf.format_run(run):
        print(f"  {line}")
    print(f"trajectory appended to {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Attack-graph models for speculative execution attacks (HPCA 2021 reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=build_info(),
        help="print the package version (+ short commit in a git checkout)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    # Shared by every engine-backed subcommand: the spec-level artifact store.
    store_parent = argparse.ArgumentParser(add_help=False)
    store_parent.add_argument(
        "--store",
        default=None,
        metavar="KIND",
        help="artifact store for Result envelopes: 'memory', 'disk' "
             "(~/.cache/repro, persistent across processes), or a directory "
             "path",
    )

    subparsers.add_parser("tables", help="regenerate Tables I, II and III").set_defaults(
        handler=_cmd_tables
    )
    subparsers.add_parser("attacks", help="list the attack catalog").set_defaults(
        handler=_cmd_attacks
    )

    attack_parser = subparsers.add_parser("attack", help="describe one attack graph")
    attack_parser.add_argument("key", help="attack key, e.g. spectre_v1")
    attack_parser.add_argument("--dot", action="store_true", help="emit Graphviz DOT")
    attack_parser.set_defaults(handler=_cmd_attack)

    subparsers.add_parser("defenses", help="list the defense catalog").set_defaults(
        handler=_cmd_defenses
    )

    evaluate_parser = subparsers.add_parser(
        "evaluate", help="evaluate a defense against an attack",
        parents=[store_parent],
    )
    evaluate_parser.add_argument("defense", help="defense key, e.g. lfence")
    evaluate_parser.add_argument("attack", help="attack key, e.g. spectre_v1")
    evaluate_parser.add_argument("--json", action="store_true",
                                 help="emit the engine Result envelope as JSON")
    evaluate_parser.set_defaults(handler=_cmd_evaluate)

    analyze_parser = subparsers.add_parser(
        "analyze", help="run the Figure 9 tool on a program",
        parents=[store_parent],
    )
    analyze_parser.add_argument("program", help="path to an assembly file")
    analyze_parser.add_argument("--json", action="store_true",
                                 help="emit the engine Result envelope as JSON")
    analyze_parser.set_defaults(handler=_cmd_analyze)

    patch_parser = subparsers.add_parser(
        "patch", help="analyze a program and insert fences",
        parents=[store_parent],
    )
    patch_parser.add_argument("program", help="path to an assembly file")
    patch_parser.add_argument("--json", action="store_true",
                              help="emit the engine Result envelope as JSON")
    patch_parser.set_defaults(handler=_cmd_patch)

    exploit_parser = subparsers.add_parser(
        "exploit", help="run an exploit on the simulator",
        parents=[store_parent],
    )
    exploit_parser.add_argument("name", help=f"one of: {', '.join(sorted(EXPLOITS))}")
    exploit_parser.add_argument("--secret", type=lambda v: int(v, 0), default=0x5A)
    exploit_parser.add_argument(
        "--defense",
        action="append",
        help="simulator defense to enable (may be repeated), e.g. kernel_isolation",
    )
    exploit_parser.set_defaults(handler=_cmd_exploit)

    ablation_parser = subparsers.add_parser(
        "ablation", help="defense ablation for one exploit",
        parents=[store_parent],
    )
    ablation_parser.add_argument("name", help=f"one of: {', '.join(sorted(EXPLOITS))}")
    ablation_parser.add_argument("--secret", type=lambda v: int(v, 0), default=0x5A)
    ablation_parser.add_argument("--parallel", type=int, default=None,
                                 help="shard the per-defense runs over N workers")
    ablation_parser.add_argument("--json", action="store_true",
                                 help="emit the engine Result envelope as JSON")
    ablation_parser.set_defaults(handler=_cmd_ablation)

    simulate_parser = subparsers.add_parser(
        "simulate", help="run an attack on the cycle-accurate OoO timing core",
        parents=[store_parent],
    )
    simulate_parser.add_argument(
        "name", nargs="?", help="attack registry key or exploit name, e.g. spectre_v1"
    )
    simulate_parser.add_argument("--secret", type=lambda v: int(v, 0), default=None)
    simulate_parser.add_argument(
        "--defense",
        action="append",
        help="simulator defense to enable (may be repeated), e.g. kernel_isolation",
    )
    simulate_mode = simulate_parser.add_mutually_exclusive_group()
    simulate_mode.add_argument("--sweep", action="store_true",
                               help="sweep every (attack, defense) combination")
    simulate_mode.add_argument("--validate", action="store_true",
                               help="cross-check Theorem 1 over the attack registry")
    simulate_mode.add_argument("--ablate-window", action="store_true",
                               help="sweep the ROB/RS/port window-length ablation "
                                    "(all attacks, or just the named one)")
    simulate_mode.add_argument("--batch", metavar="FILE",
                               help="run a JSON list of simulate points (attack "
                                    "names or {attack, defenses, secret, model} "
                                    "objects) through one warm session per worker")
    simulate_parser.add_argument("--contended", action="store_true",
                                 help="use the contended timing model "
                                      "(bounded FU ports and CDB width)")
    simulate_parser.add_argument("--parallel", type=int, default=None,
                                 help="shard the sweep/validation/ablation over N workers")
    simulate_parser.add_argument("--json", action="store_true",
                                 help="emit the engine Result envelope as JSON")
    simulate_parser.set_defaults(handler=_cmd_simulate)

    run_parser = subparsers.add_parser(
        "run",
        help="execute a declarative scenario spec or grid",
        parents=[store_parent],
        description="Execute one ScenarioSpec (or a ScenarioGrid of them) "
                    "through the engine's cached, sharded run spine.  Kinds: "
                    + "; ".join(
                        f"{name} ({info.description})"
                        for name, info in sorted(KINDS.items())
                    ),
    )
    run_parser.add_argument("--spec", help="JSON file holding a spec or grid")
    run_parser.add_argument("--kind", help=f"scenario kind: {', '.join(sorted(KINDS))}")
    run_parser.add_argument(
        "--param", action="append", metavar="NAME=VALUE",
        help="spec parameter (repeatable); VALUE parses as int / JSON / "
             "'none' / string.  program_path=FILE inlines an assembly file",
    )
    run_parser.add_argument(
        "--axis", action="append", metavar="NAME=V1,V2",
        help="grid axis (repeatable); turns the run into a ScenarioGrid "
             "over the cartesian product of all axes",
    )
    run_parser.add_argument("--parallel", type=int, default=None,
                            help="shard grid execution over N workers")
    run_parser.add_argument("--json", action="store_true",
                            help="emit the engine Result envelope as JSON")
    run_parser.add_argument(
        "--resume", action="store_true",
        help="resume an interrupted campaign: serve completed grid points "
             "from the artifact store (implies --store disk when no store "
             "is selected) and recompute only the missing ones",
    )
    run_parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-point wall-clock limit; a worker silent past it is "
             "presumed hung, killed and the point retried in isolation",
    )
    run_parser.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="extra attempts a failing grid point gets before it is "
             "quarantined as an error envelope (default 2 when --timeout "
             "enables the failure policy)",
    )
    run_parser.add_argument(
        "--faults", metavar="PLAN.json", default=None,
        help="deterministic fault-injection plan (testing): seeded worker "
             "exceptions / hangs / crashes and store corruption",
    )
    run_parser.add_argument(
        "--trace", metavar="FILE.jsonl", default=None,
        help="write a JSONL span trace of the run (engine, store and pool-"
             "worker spans); inspect with 'repro trace summarize FILE'",
    )
    run_parser.add_argument(
        "--progress", action="store_true",
        help="live progress line on stderr for grid runs: done/total, "
             "points/s, ETA and quarantine count",
    )
    run_parser.set_defaults(handler=_cmd_run)

    from .fuzz.generator import INJECTIONS

    fuzz_parser = subparsers.add_parser(
        "fuzz",
        help="seeded differential fuzzing over the TSG, race and byte oracles",
        parents=[store_parent],
        description="Generate a seeded stream of speculation gadgets and run "
                    "each through three leak oracles -- the TSG structural "
                    "verdict, the cycle-accurate transmit/squash race and "
                    "the byte the covert channel decodes -- checkpointing "
                    "every point in the artifact store.  "
                    "Disagreements are auto-shrunk to minimal reproducers; "
                    "--corpus pins them as regression fixtures.",
    )
    fuzz_parser.add_argument(
        "--seed", type=int, default=0,
        help="campaign seed (default 0); the same seed always generates the "
             "same programs, byte for byte",
    )
    fuzz_parser.add_argument(
        "--count", type=int, default=256,
        help="number of generated gadgets (default 256)",
    )
    fuzz_parser.add_argument(
        "--budget", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget; the campaign stops at the next chunk "
             "boundary once exceeded (completed points stay checkpointed, "
             "--resume finishes the rest)",
    )
    fuzz_parser.add_argument(
        "--secret", type=lambda v: int(v, 0), default=None,
        help="planted secret byte (default 0x5A)",
    )
    fuzz_parser.add_argument(
        "--contended", action="store_true",
        help="run the timing oracle on the contended model "
             "(bounded FU ports and CDB width)",
    )
    fuzz_parser.add_argument(
        "--inject", choices=INJECTIONS, default=None,
        help="deterministic oracle fault (testing the pipeline end to end): "
             "no_flush skips the authorization flush so the timing oracle "
             "calls leaking bounds-check gadgets safe",
    )
    fuzz_parser.add_argument(
        "--corpus", metavar="DIR", default=None,
        help="pin shrunk disagreements and bucket coverage into this corpus "
             "directory",
    )
    fuzz_parser.add_argument(
        "--parallel", type=int, default=None,
        help="shard campaign chunks over N workers",
    )
    fuzz_parser.add_argument(
        "--json", action="store_true",
        help="emit the engine Result envelope as JSON",
    )
    fuzz_parser.add_argument(
        "--resume", action="store_true",
        help="resume an interrupted campaign: serve completed fuzz points "
             "from the artifact store (implies --store disk when no store "
             "is selected) and recompute only the missing ones",
    )
    fuzz_parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-point wall-clock limit; a worker silent past it is "
             "presumed hung, killed and the point retried in isolation",
    )
    fuzz_parser.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="extra attempts a failing fuzz point gets before it is "
             "quarantined as an error envelope (default 2 when --timeout "
             "enables the failure policy)",
    )
    fuzz_parser.add_argument(
        "--faults", metavar="PLAN.json", default=None,
        help="deterministic fault-injection plan (testing): seeded worker "
             "exceptions / hangs / crashes and store corruption",
    )
    fuzz_parser.add_argument(
        "--trace", metavar="FILE.jsonl", default=None,
        help="write a JSONL span trace of the campaign (fuzz.generate, "
             "fuzz.point, engine and pool-worker spans)",
    )
    fuzz_parser.add_argument(
        "--progress", action="store_true",
        help="live progress line on stderr: done/total, points/s, ETA",
    )
    fuzz_parser.set_defaults(handler=_cmd_fuzz)

    report_parser = subparsers.add_parser(
        "report", help="emit the full Markdown report",
        parents=[store_parent],
    )
    report_parser.add_argument("--output", "-o", help="write the report to a file")
    report_parser.add_argument("--no-matrix", action="store_true",
                               help="skip the defense x attack matrix (faster)")
    report_parser.set_defaults(handler=_cmd_report)

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the async analysis service over one shared engine",
        parents=[store_parent],
        description="Serve JSON ScenarioSpec requests over HTTP: single-"
                    "flight dedup by content hash, micro-batched grids "
                    "through Engine.iter_grid, a bounded admission queue "
                    "(503 + Retry-After on overflow) and /stats.  SIGTERM "
                    "or Ctrl-C drains gracefully; completed points are "
                    "checkpointed through the store, so a restarted server "
                    "warm-serves them.  Default store: disk.",
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=0,
                              help="port to bind (default 0 = ephemeral, "
                                   "printed on startup)")
    serve_parser.add_argument("--batch-size", type=int, default=16,
                              help="max specs per dispatched grid batch")
    serve_parser.add_argument("--queue-depth", type=int, default=64,
                              help="admission queue bound (backpressure)")
    serve_parser.add_argument("--max-body", type=int, default=1 << 20,
                              metavar="BYTES",
                              help="largest accepted request body")
    serve_parser.add_argument("--parallel", type=int, default=None,
                              help="shard each batch over N engine workers")
    serve_parser.add_argument(
        "--trace", metavar="FILE.jsonl", default=None,
        help="write a JSONL span trace of every request: service admission, "
             "queueing, batching, engine execution and pool-worker spans",
    )
    serve_parser.set_defaults(handler=_cmd_serve)

    request_parser = subparsers.add_parser(
        "request",
        help="submit one spec to a running analysis service",
    )
    request_parser.add_argument("--url", required=True,
                                help="service base URL, e.g. http://127.0.0.1:8377")
    request_parser.add_argument("--spec", help="JSON file holding one point spec")
    request_parser.add_argument("--kind", help=f"scenario kind: {', '.join(sorted(KINDS))}")
    request_parser.add_argument(
        "--param", action="append", metavar="NAME=VALUE",
        help="spec parameter (repeatable), like repro run --param",
    )
    request_parser.add_argument("--stats", action="store_true",
                                help="fetch the server's /stats document instead")
    request_parser.add_argument("--timeout", type=float, default=120.0,
                                help="request timeout in seconds")
    request_parser.add_argument("--json", action="store_true",
                                help="emit the full response envelope as JSON")
    request_parser.set_defaults(handler=_cmd_request)

    trace_parser = subparsers.add_parser(
        "trace", help="inspect a JSONL span trace written by --trace",
    )
    trace_subparsers = trace_parser.add_subparsers(
        dest="trace_command", required=True
    )
    summarize_parser = trace_subparsers.add_parser(
        "summarize",
        help="per-phase latency breakdown, slowest points and critical path",
        description="Aggregate a JSONL span trace (from 'repro run --trace' "
                    "or 'repro serve --trace'): span counts and wall time "
                    "per phase (queue / batch / build / analyze / simulate / "
                    "store-put), the slowest individual points, and the "
                    "critical path from the latest-finishing span back to "
                    "its root.",
    )
    summarize_parser.add_argument("file", help="JSONL trace file to summarize")
    summarize_parser.add_argument("--top", type=int, default=10,
                                  help="how many slowest spans to list")
    summarize_parser.add_argument("--json", action="store_true",
                                  help="emit the summary as JSON")
    summarize_parser.set_defaults(handler=_cmd_trace)

    perf_parser = subparsers.add_parser(
        "perf", help="record the perf ledger and perfbench's end-to-end "
                     "numbers (from a checkout) to BENCH_core.json"
    )
    perf_parser.add_argument("--output", "-o", default="BENCH_core.json",
                             help="trajectory file to append to")
    perf_parser.add_argument("--check", action="store_true",
                             help="grade the trajectory's latest run against "
                                  "the perf gates instead of measuring")
    perf_parser.add_argument("--allow-stale", action="store_true",
                             help="with --check: tolerate a latest record whose "
                                  "source digest differs from the current "
                                  "repro sources (still warns)")
    perf_parser.set_defaults(handler=_cmd_perf)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except KeyboardInterrupt:
        # The backstop for every subcommand (run has its own richer
        # handler): never a traceback, never a join on a wedged pool.
        halt_default_engine()
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover - exercised via the console entry point
    sys.exit(main())
