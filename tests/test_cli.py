"""Tests for the command-line interface."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import perf
from repro.cli import build_parser, main

LISTING1 = """
.data
probe_array:  address=0x1000000 size=1048576 shared
victim_array: address=0x200000  size=16
victim_size:  address=0x210000  size=8
secret:       address=0x200048  size=1 protected
.text
    cmp rdx, [victim_size]
    ja done
    mov rax, byte [victim_array + rdx]
    shl rax, 12
    mov rbx, [probe_array + rax]
done:
    hlt
"""


@pytest.fixture
def listing_file(tmp_path):
    path = tmp_path / "victim.s"
    path.write_text(LISTING1)
    return str(path)


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands_parse(self):
        parser = build_parser()
        for argv in (["tables"], ["attacks"], ["attack", "spectre_v1"],
                     ["defenses"], ["evaluate", "lfence", "spectre_v1"],
                     ["exploit", "meltdown"], ["ablation", "spectre_v1"], ["report"],
                     ["serve", "--port", "0"],
                     ["request", "--url", "http://127.0.0.1:1", "--stats"]):
            args = parser.parse_args(argv)
            assert callable(args.handler)

    def test_version_flag_prints_version_and_commit(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--version"])
        assert exit_info.value.code == 0
        banner = capsys.readouterr().out.strip()
        assert banner.startswith("repro ")

    def test_build_info_degrades_to_version_only(self):
        from repro import __version__, build_info

        banner = build_info()
        assert banner.startswith(f"repro {__version__}")


class TestCommands:
    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Spectre v1" in out and "KAISER" in out and "Kernel privilege check" in out

    def test_attacks_listing(self, capsys):
        assert main(["attacks"]) == 0
        out = capsys.readouterr().out
        assert "spectre_v4" in out and "meltdown-type" in out

    def test_attack_description(self, capsys):
        assert main(["attack", "spectre_v1"]) == 0
        out = capsys.readouterr().out
        assert "Load S" in out and "missing security dependencies" in out

    def test_attack_dot_output(self, capsys):
        assert main(["attack", "meltdown", "--dot"]) == 0
        assert "digraph" in capsys.readouterr().out

    def test_defenses_listing(self, capsys):
        assert main(["defenses"]) == 0
        assert "InvisiSpec" in capsys.readouterr().out

    def test_evaluate_effective_defense_returns_zero(self, capsys):
        assert main(["evaluate", "lfence", "spectre_v1"]) == 0
        assert "defeats the attack" in capsys.readouterr().out

    def test_evaluate_ineffective_defense_returns_one(self, capsys):
        assert main(["evaluate", "lfence", "meltdown"]) == 1
        assert "does NOT defeat" in capsys.readouterr().out

    def test_analyze_vulnerable_program_returns_one(self, listing_file, capsys):
        assert main(["analyze", listing_file]) == 1
        assert "missing security dependencies" in capsys.readouterr().out

    def test_analyze_json_emits_result_envelope(self, listing_file, capsys):
        assert main(["analyze", "--json", listing_file]) == 1
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["kind"] == "analyze"
        assert envelope["ok"] is False
        assert envelope["data"]["vulnerable"] is True
        assert envelope["data"]["findings"]

    def test_evaluate_json_emits_result_envelope(self, capsys):
        assert main(["evaluate", "--json", "lfence", "spectre_v1"]) == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["kind"] == "evaluate"
        assert envelope["ok"] is True
        assert envelope["data"]["defense"] == "lfence"
        assert envelope["data"]["attack"] == "spectre_v1"

    def test_patch_program(self, listing_file, capsys):
        assert main(["patch", listing_file]) == 0
        out = capsys.readouterr().out
        assert "lfence" in out

    def test_exploit_leaks_returns_one(self, capsys):
        assert main(["exploit", "spectre_v1"]) == 1
        assert "LEAKED" in capsys.readouterr().out

    def test_exploit_with_defense_returns_zero(self, capsys):
        assert main(["exploit", "meltdown", "--defense", "kernel_isolation"]) == 0
        assert "no leak" in capsys.readouterr().out

    def test_exploit_unknown_name(self):
        with pytest.raises(SystemExit):
            main(["exploit", "rowhammer"])

    def test_exploit_unknown_defense(self):
        with pytest.raises(SystemExit):
            main(["exploit", "meltdown", "--defense", "tinfoil_hat"])

    def test_ablation(self, capsys):
        assert main(["ablation", "spectre_v1"]) == 0
        out = capsys.readouterr().out
        assert "(no defense)" in out and "defeated" in out

    def test_report_to_file(self, tmp_path, capsys):
        output = tmp_path / "report.md"
        assert main(["report", "--no-matrix", "-o", str(output)]) == 0
        text = output.read_text()
        assert "# Speculative execution attack-graph model" in text
        assert "### Spectre v1" in text
        assert "Table III" in text


class TestSimulateCommand:
    def test_simulate_leaking_attack_returns_one(self, capsys):
        assert main(["simulate", "spectre_v1"]) == 1
        out = capsys.readouterr().out
        assert "TRANSMIT WINS" in out and "theorem 1" in out and "agrees" in out

    def test_simulate_defended_returns_zero(self, capsys):
        assert main(["simulate", "spectre_v1", "--defense",
                     "prevent_speculative_loads"]) == 0
        assert "no covert transmit" in capsys.readouterr().out

    def test_simulate_json_envelope(self, capsys):
        assert main(["simulate", "--json", "meltdown"]) == 1
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["kind"] == "simulate"
        assert envelope["data"]["transmit_beats_squash"] is True
        assert envelope["data"]["transmit_cycle"] < envelope["data"]["squash_cycle"]

    def test_simulate_validate(self, capsys):
        assert main(["simulate", "--validate"]) == 0
        assert "attacks agree with Theorem 1" in capsys.readouterr().out

    def test_simulate_validate_json(self, capsys):
        assert main(["simulate", "--validate", "--json"]) == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["ok"] is True
        assert envelope["data"]["disagreeing"] == []

    def test_simulate_validate_contended(self, capsys):
        """Acceptance criterion: Theorem-1 agreement for all registry attacks
        under the contended (bounded ports + CDB) timing model."""
        assert main(["simulate", "--validate", "--contended", "--json"]) == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["ok"] is True
        assert envelope["data"]["contended"] is True
        assert envelope["data"]["disagreeing"] == []

    def test_simulate_contended_single_attack(self, capsys):
        assert main(["simulate", "spectre_v1", "--contended"]) == 1
        assert "TRANSMIT WINS" in capsys.readouterr().out

    def test_simulate_ablate_window_json_smoke(self, capsys):
        assert main(["simulate", "spectre_v1", "--ablate-window", "--json"]) == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["kind"] == "window_ablation"
        assert envelope["data"]["attacks"] == 1
        rows = envelope["data"]["rows"]
        assert len(rows) == envelope["data"]["models"]
        # The measurable FU-contention transmit: nonzero cycle delta under
        # the bounded port configs, zero on the unbounded machine.
        channel = {row["ports"]: row for row in envelope["data"]["contention_channel"]}
        assert channel["unbounded"]["cycle_delta"] == 0
        assert channel["contended"]["cycle_delta"] > 0
        assert channel["serialized"]["detected"] is True
        # The window ablation bites: the smallest ROB/RS point flips the race.
        smallest = [row for row in rows if row["rob_size"] == 4]
        assert smallest and all(not row["transmit_beats_squash"] for row in smallest)

    def test_simulate_ablate_window_table(self, capsys):
        assert main(["simulate", "spectre_v1", "--ablate-window"]) == 0
        out = capsys.readouterr().out
        assert "FU-contention covert channel" in out
        assert "TRANSMITS" in out and "no signal" in out

    def test_simulate_without_name_or_mode_exits(self):
        with pytest.raises(SystemExit):
            main(["simulate"])

    def test_ablate_window_rejects_contended(self):
        # The ablation sweeps port configurations itself; silently ignoring
        # the flag would misreport what ran.
        with pytest.raises(SystemExit):
            main(["simulate", "spectre_v1", "--ablate-window", "--contended"])

    def test_ablate_window_rejects_defense(self):
        # Same contract: the ablation is undefended by construction.
        with pytest.raises(SystemExit):
            main(["simulate", "spectre_v1", "--ablate-window",
                  "--defense", "kernel_isolation"])

    @pytest.mark.parametrize("modes", [
        ["--sweep", "--validate"],
        ["--sweep", "--ablate-window"],
        ["--validate", "--ablate-window"],
    ])
    def test_simulate_modes_are_mutually_exclusive(self, modes):
        with pytest.raises(SystemExit):
            main(["simulate", *modes])

    def test_simulate_unknown_defense_exits(self):
        with pytest.raises(SystemExit):
            main(["simulate", "spectre_v1", "--defense", "tinfoil_hat"])

    @pytest.mark.slow
    def test_simulate_sweep_table(self, capsys):
        assert main(["simulate", "--sweep"]) == 0
        out = capsys.readouterr().out
        assert "spectre_v1" in out and "defended" in out and "LEAKS" in out

    @pytest.mark.slow
    def test_simulate_full_ablation_sweep(self, capsys):
        """The full registry-wide window ablation (excluded from tier-1)."""
        assert main(["simulate", "--ablate-window", "--json"]) == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["data"]["attacks"] == 19
        assert envelope["data"]["runs"] == 19 * envelope["data"]["models"]


class TestJsonEnvelopes:
    def test_patch_json(self, listing_file, capsys):
        assert main(["patch", "--json", listing_file]) == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["kind"] == "patch"
        assert envelope["data"]["fences_inserted"]
        assert "lfence" in envelope["data"]["patched_listing"]

    def test_ablation_json(self, capsys):
        assert main(["ablation", "--json", "spectre_v1"]) == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["kind"] == "ablation"
        assert envelope["data"]["baseline_leaks"] is True
        assert envelope["data"]["rows"]


#: A healthy service-throughput record for synthetic perf trajectories:
#: perfect single-flight dedup (computed == unique) over the 50%-overlap load.
GOOD_SERVICE_RECORD = {
    "benchmark": "service-throughput",
    "clients": 8,
    "requests": 80,
    "unique_specs": 45,
    "computed": 45,
    "perfect_dedup": True,
    "dedup_hit_rate": 0.4375,
}

GOOD_GRID_RECORD = {
    "benchmark": "grid-resume", "points": 200, "resume_recomputed": 0,
    "puts": 200, "computed": 200, "puts_per_computed_point": 1.0,
    "disabled_tracer_reads": 0,
}

GOOD_FUZZ_RECORD = {
    "benchmark": "fuzz-throughput", "points_per_second": 600.0,
    "disagreed": 0, "quarantined": 0,
}


def _perfbench_record(name, correct=True):
    return {"benchmark": f"perfbench-{name}", "workload": name, "correct": correct}


def _healthy_run():
    """One run stamped with the current sources on which every gate passes."""
    return {
        "source_digest": perf.source_digest(),
        "engine_results": [dict(GOOD_GRID_RECORD), dict(GOOD_SERVICE_RECORD)],
        "fuzz_results": [dict(GOOD_FUZZ_RECORD)],
        "perfbench_results": [
            _perfbench_record(name) for name in perf.PERFBENCH_WORKLOADS
        ],
    }


def _violating(gate):
    """A value just outside ``gate``'s bound."""
    if gate.op == ">=":
        return gate.bound / 2
    return not gate.bound if isinstance(gate.bound, bool) else gate.bound + 1


class TestPerfCheck:
    def test_perf_check_fails_on_regression(self, tmp_path, capsys):
        bad = {
            "runs": [{
                "source_digest": perf.source_digest(),
                "engine_results": [
                    {"benchmark": "grid-resume", "points": 200,
                     "resume_recomputed": 3, "puts": 400, "computed": 200,
                     "puts_per_computed_point": 2.0, "disabled_tracer_reads": 5},
                    {"benchmark": "service-throughput", "clients": 8,
                     "requests": 80, "unique_specs": 45, "computed": 80,
                     "perfect_dedup": False, "dedup_hit_rate": 0.0},
                ],
                "fuzz_results": [
                    {"benchmark": "fuzz-throughput", "count": 96,
                     "executed": 96, "seconds": 96.0,
                     "points_per_second": 1.0, "buckets": 1,
                     "disagreed": 2, "quarantined": 1},
                ],
                "perfbench_results": [
                    _perfbench_record(name, correct=False)
                    for name in perf.PERFBENCH_WORKLOADS
                ],
            }]
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert main(["perf", "--check", "-o", str(path)]) == 1
        out = capsys.readouterr().out
        assert out.count("FAIL:") == len(perf.GATES) == 12
        assert "PASS" not in out  # every gate violated: the table agrees
        assert "FAIL: grid checkpoint puts per computed point: observed 2.00" in out
        assert "FAIL: disabled-tracer reads during run_grid: observed 5" in out
        assert "single-flight" in out
        assert "FAIL: fuzz campaign programs/sec (three oracles): observed 1/s" in out
        assert "FAIL: fuzz campaign oracle disagreements: observed 2" in out
        assert "FAIL: perfbench service-mixed: outputs correct: observed False" in out

    def test_perf_check_passes_on_healthy_trajectory(self, tmp_path, capsys):
        path = tmp_path / "good.json"
        path.write_text(json.dumps({"runs": [_healthy_run()]}))
        assert main(["perf", "--check", "-o", str(path)]) == 0
        assert "all perf thresholds hold" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "gate", perf.GATES, ids=lambda gate: f"{gate.benchmark}:{gate.field}"
    )
    def test_perf_check_grades_each_gate_both_ways(self, gate, tmp_path, capsys):
        """Healthy passes every row; violating or dropping one gate fails it alone."""
        path = tmp_path / "bench.json"

        def check(run):
            path.write_text(json.dumps({"runs": [run]}))
            code = main(["perf", "--check", "-o", str(path)])
            lines = capsys.readouterr().out.splitlines()
            failed_rows = [line for line in lines if line.split()[-1:] == ["FAIL"]]
            fail_lines = [line for line in lines if line.startswith("FAIL:")]
            return code, lines, failed_rows, fail_lines

        code, lines, failed_rows, fail_lines = check(_healthy_run())
        assert code == 0 and failed_rows == [] and fail_lines == []
        assert sum(line.split()[-1:] == ["PASS"] for line in lines) == len(perf.GATES)

        def named(record):
            return record.get("benchmark") == gate.benchmark

        run = _healthy_run()
        records = [record for record in run[gate.family] if named(record)]
        records[-1][gate.field] = _violating(gate)
        code, _, failed_rows, fail_lines = check(run)
        assert code == 1
        assert len(failed_rows) == 1 and failed_rows[0].startswith(gate.label)
        assert len(fail_lines) == 1 and gate.label in fail_lines[0]

        run = _healthy_run()
        run[gate.family] = [record for record in run[gate.family] if not named(record)]
        code, lines, _, _ = check(run)
        assert code == 1
        [row] = [line for line in lines if line.startswith(gate.label)]
        assert row.split()[-2:] == ["missing", "FAIL"]

    def test_perf_check_fails_on_stale_source_from_any_directory(
        self, tmp_path, capsys, monkeypatch
    ):
        run = _healthy_run()
        run["source_digest"] = "0" * 64
        path = tmp_path / "stale.json"
        path.write_text(json.dumps({"runs": [run]}))
        monkeypatch.chdir(tmp_path)
        assert main(["perf", "--check", "-o", str(path)]) == 1
        out = capsys.readouterr().out
        assert out.count("FAIL: latest") == len({gate.family for gate in perf.GATES})

    def test_committed_trajectory_records_every_gate(self):
        """BENCH_core.json's latest runs hold a value for every gate."""
        trajectory = Path(__file__).resolve().parents[1] / "BENCH_core.json"
        rows = perf.threshold_report(json.loads(trajectory.read_text()))
        assert [row["check"] for row in rows if row["observed"] == "missing"] == []

    def test_perf_runs_every_benchmark_workload_then_checks(
        self, tmp_path, monkeypatch, capsys
    ):
        """`repro perf` runs BENCHMARK.json's command once per workload (the
        runner stubbed: tier-1 never spawns perfbench) and its run passes."""
        spec = json.loads((perf.CHECKOUT / "BENCHMARK.json").read_text())
        commands = []

        def fake_perfbench(root, command):
            assert root == perf.CHECKOUT
            commands.append(list(command))
            metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]}
                       for m in spec["end_to_end"]}
            return {"correct": True, "attempted": 10, "failed": 0,
                    "metrics": metrics}

        monkeypatch.setattr(perf, "run_perfbench", fake_perfbench)
        monkeypatch.setattr(perf, "measure_grid_resume",
                            lambda: dict(GOOD_GRID_RECORD, ms_per_put=0.5,
                                         plain_seconds=1.0, checkpoint_seconds=1.5))
        monkeypatch.setattr(perf, "measure_service_throughput",
                            lambda: dict(GOOD_SERVICE_RECORD, requests_per_second=100.0,
                                         p50_ms=10.0, p99_ms=20.0))
        monkeypatch.setattr(perf, "measure_fuzz_throughput",
                            lambda: dict(GOOD_FUZZ_RECORD, count=96, buckets=30))
        output = tmp_path / "bench.json"
        assert main(["perf", "-o", str(output)]) == 0
        out = capsys.readouterr().out
        workloads = [workload["name"] for workload in spec["workloads"]]
        assert commands == [
            [*spec["command"], "--workload", name, "--seed", str(perf.PERFBENCH_SEED),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            for name in workloads
        ]
        assert list(perf.PERFBENCH_WORKLOADS) == workloads
        assert "perfbench service-mixed" in out and "setup_s 1 s" in out
        assert main(["perf", "--check", "-o", str(output)]) == 0

    def test_perf_outside_a_checkout_exits_nonzero_and_writes_nothing(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(perf, "CHECKOUT", tmp_path)
        monkeypatch.setattr(perf, "run_perf_suite", lambda root: pytest.fail("measured"))
        output = tmp_path / "bench.json"
        with pytest.raises(SystemExit) as exit_info:
            main(["perf", "-o", str(output)])
        assert exit_info.value.code not in (0, None)
        assert "checkout" in str(exit_info.value.code)
        assert list(tmp_path.iterdir()) == []

    def test_grid_resume_facts_on_a_few_points(self):
        """Resume recomputes 0, one put per computed point, 0 tracer reads."""
        record = perf.measure_grid_resume(points=3)
        assert record["computed"] == record["puts"] == 3
        for gate in perf.GATES:
            if gate.benchmark == "grid-resume":
                assert gate.holds(record[gate.field]), gate.label

    def test_perf_check_missing_file(self, tmp_path, capsys):
        assert main(["perf", "--check", "-o", str(tmp_path / "absent.json")]) == 1
        assert "does not exist" in capsys.readouterr().out


@pytest.mark.service
class TestRequestCommand:
    """`repro request` against a live in-process service."""

    def test_request_summary_json_stats_and_error_paths(self, tmp_path, capsys):
        from repro.engine import Engine
        from repro.service import ServiceConfig, ServiceThread
        from repro.store import DiskStore

        engine = Engine(store=DiskStore(root=str(tmp_path), version="cli"))
        point = ["--kind", "exploit", "--param", "exploit=spectre_v1",
                 "--param", "secret=0x41"]
        with ServiceThread(engine=engine, config=ServiceConfig()) as handle:
            assert main(["request", "--url", handle.url, *point]) == 0
            summary = capsys.readouterr().out
            assert "[computed]" in summary
            assert "exploit" in summary

            assert main(["request", "--url", handle.url, *point, "--json"]) == 0
            envelope = json.loads(capsys.readouterr().out)
            assert envelope["hit"] == "disk"  # warm repeat of the same spec
            assert envelope["ok"] is True

            assert main(["request", "--url", handle.url, "--stats"]) == 0
            stats = json.loads(capsys.readouterr().out)
            assert stats["service"]["requests"] == 2

            assert main(["request", "--url", handle.url, "--kind", "warp"]) == 2
            captured = capsys.readouterr()
            error = json.loads(captured.err)
            assert error["ok"] is False
            assert error["error"]["code"] == "bad-spec"
        engine.close()

    def test_request_refuses_grid_specs(self, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(
            {"kind": "exploit", "axes": {"secret": [1, 2]}}
        ))
        with pytest.raises(SystemExit, match="point specs"):
            main(["request", "--url", "http://127.0.0.1:1",
                  "--spec", str(grid)])

    def test_request_unreachable_server_exits_cleanly(self, ephemeral_port):
        with pytest.raises(SystemExit, match="cannot reach"):
            main(["request", "--url", f"http://127.0.0.1:{ephemeral_port}",
                  "--stats"])


class TestRunCommand:
    """The declarative `repro run` subcommand (specs, grids, stores)."""

    def test_run_kind_simulate_json(self, capsys):
        assert main(["run", "--kind", "simulate",
                     "--param", "attack=spectre_v1", "--json"]) == 1
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["kind"] == "simulate"
        assert envelope["data"]["transmit_beats_squash"] is True

    def test_run_kind_simulate_text(self, capsys):
        assert main(["run", "--kind", "simulate",
                     "--param", "attack=spectre_v1"]) == 1
        assert "TRANSMIT WINS" in capsys.readouterr().out

    def test_run_parses_hex_and_none_values(self, capsys):
        assert main(["run", "--kind", "simulate", "--param", "attack=spectre_v1",
                     "--param", "secret=0x41", "--param", "model=none",
                     "--json"]) == 1
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["data"]["recovered"] == 0x41

    def test_run_analyze_program_path(self, listing_file, capsys):
        assert main(["run", "--kind", "analyze",
                     "--param", f"program_path={listing_file}", "--json"]) == 1
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["kind"] == "analyze"
        assert envelope["data"]["vulnerable"] is True
        assert envelope["data"]["program"] == listing_file

    def test_run_axis_builds_a_grid(self, capsys):
        assert main(["run", "--kind", "simulate", "--param", "attack=spectre_v1",
                     "--axis", 'defenses=[null,["PREVENT_SPECULATIVE_LOADS"]]',
                     "--json"]) == 1  # the undefended point leaks -> not ok
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["kind"] == "simulate_grid"
        assert envelope["data"]["points"] == 2
        verdicts = [row["data"]["transmit_beats_squash"]
                    for row in envelope["data"]["rows"]]
        assert verdicts == [True, False]

    def test_run_spec_file(self, tmp_path, listing_file, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({
            "kind": "analyze",
            "params": {"program_path": listing_file},
        }))
        assert main(["run", "--spec", str(plan), "--json"]) == 1
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["data"]["vulnerable"] is True

    def test_run_grid_spec_file(self, tmp_path, capsys):
        plan = tmp_path / "grid.json"
        plan.write_text(json.dumps({
            "kind": "exploit",
            "base": {"secret": 33},
            "axes": {"exploit": ["spectre_v1", "meltdown"]},
        }))
        assert main(["run", "--spec", str(plan), "--json"]) == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["kind"] == "exploit_grid"
        assert [row["data"]["recovered"] for row in envelope["data"]["rows"]] == [33, 33]

    def test_run_requires_spec_or_kind(self):
        with pytest.raises(SystemExit):
            main(["run"])

    def test_run_unknown_kind_exits(self):
        with pytest.raises(SystemExit):
            main(["run", "--kind", "rowhammer"])

    def test_run_unknown_param_exits(self):
        with pytest.raises(SystemExit):
            main(["run", "--kind", "simulate", "--param", "warp=9"])

    def test_run_malformed_param_exits(self):
        with pytest.raises(SystemExit):
            main(["run", "--kind", "simulate", "--param", "attack"])


class TestStoreFlag:
    """--store is threaded through every engine-backed subcommand."""

    def test_second_invocation_is_served_from_disk(self, tmp_path, capsys):
        store = str(tmp_path / "cache")
        argv = ["run", "--kind", "simulate", "--param", "attack=spectre_v1",
                "--store", store, "--json"]
        assert main(argv) == 1
        first = json.loads(capsys.readouterr().out)
        assert main(argv) == 1  # a fresh engine: only the disk store is shared
        second = json.loads(capsys.readouterr().out)
        assert (first["cache"], second["cache"]) == ("cold", "warm")
        assert second["data"] == first["data"]

    def test_analyze_store_roundtrip(self, tmp_path, listing_file, capsys):
        store = str(tmp_path / "cache")
        assert main(["analyze", listing_file, "--store", store, "--json"]) == 1
        cold = json.loads(capsys.readouterr().out)
        assert main(["analyze", listing_file, "--store", store, "--json"]) == 1
        warm = json.loads(capsys.readouterr().out)
        assert cold["cache"] == "cold" and warm["cache"] == "warm"
        assert warm["data"] == cold["data"]

    def test_memory_store_selector_parses(self, capsys):
        assert main(["simulate", "spectre_v1", "--store", "memory", "--json"]) == 1
        assert json.loads(capsys.readouterr().out)["kind"] == "simulate"

    def test_store_flag_on_every_engine_subcommand(self):
        parser = build_parser()
        for argv in (
            ["evaluate", "lfence", "spectre_v1"],
            ["analyze", "victim.s"],
            ["patch", "victim.s"],
            ["exploit", "meltdown"],
            ["ablation", "spectre_v1"],
            ["simulate", "spectre_v1"],
            ["run", "--kind", "simulate"],
            ["report"],
        ):
            args = parser.parse_args([argv[0], "--store", "disk", *argv[1:]])
            assert args.store == "disk"


class TestResumeAndFaults:
    """--resume / --timeout / --retries / --faults on `repro run`."""

    GRID = ["run", "--kind", "simulate", "--param", "attack=spectre_v1",
            "--axis", "secret=1,2,3", "--json"]

    def test_resume_serves_a_completed_grid_from_checkpoints(self, tmp_path, capsys):
        store = str(tmp_path / "cache")
        assert main([*self.GRID, "--store", store]) == 1
        cold = json.loads(capsys.readouterr().out)
        assert main([*self.GRID, "--store", store, "--resume"]) == 1
        captured = capsys.readouterr()
        warm = json.loads(captured.out)
        assert warm["data"] == cold["data"]  # byte-identical envelope
        assert ("resume: 3/3 points served from checkpoints, "
                "0 recomputed, 0 quarantined") in captured.err

    def test_resume_accounting_for_a_partial_store(self, tmp_path, capsys):
        store = str(tmp_path / "cache")
        single = ["run", "--kind", "simulate", "--param", "attack=spectre_v1",
                  "--param", "secret=2", "--store", store, "--json"]
        assert main(single) == 1  # checkpoint one of the three points
        capsys.readouterr()
        assert main([*self.GRID, "--store", store, "--resume"]) == 1
        captured = capsys.readouterr()
        assert ("resume: 1/3 points served from checkpoints, "
                "2 recomputed, 0 quarantined") in captured.err

    def test_resume_single_spec_reports_checkpoint_state(self, tmp_path, capsys):
        store = str(tmp_path / "cache")
        argv = ["run", "--kind", "simulate", "--param", "attack=spectre_v1",
                "--store", store, "--resume", "--json"]
        assert main(argv) == 1
        assert "resume: recomputed" in capsys.readouterr().err
        assert main(argv) == 1
        assert "resume: served from checkpoint" in capsys.readouterr().err

    def test_faults_plan_quarantines_a_point_end_to_end(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({
            "faults": [{"kind": "exception", "match": "secret=2"}],
        }))
        argv = [*self.GRID, "--faults", str(plan), "--retries", "1"]
        assert main(argv) == 1
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["data"]["quarantined"] == 1
        failed = [row for row in envelope["data"]["rows"]
                  if row["data"].get("quarantined")]
        assert len(failed) == 1
        assert failed[0]["data"]["error"] == "FaultInjected"

    def test_unreadable_fault_plan_exits_cleanly(self, tmp_path):
        missing = tmp_path / "absent.json"
        with pytest.raises(SystemExit, match="run failed"):
            main([*self.GRID, "--faults", str(missing)])

    def test_invalid_fault_plan_exits_cleanly(self, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"faults": [{"kind": "meteor"}]}))
        with pytest.raises(SystemExit, match="unknown fault kind"):
            main([*self.GRID, "--faults", str(plan)])

    def test_policy_flags_parse(self):
        parser = build_parser()
        args = parser.parse_args(["run", "--kind", "simulate",
                                  "--timeout", "2.5", "--retries", "3"])
        assert args.timeout == 2.5 and args.retries == 3
