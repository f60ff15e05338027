"""Tests for the unified Engine session API (cache + execution plane + envelope)."""

from __future__ import annotations

import json

import pytest

from repro.attacks import (
    CovertChannelKind,
    DelayMechanism,
    SecretSource,
    get as get_attack,
)
from repro.defenses import evaluate_matrix, get as get_defense
from repro.engine import Engine, Result, default_engine, set_default_engine
from repro.graphtool import AttackGraphBuilder, analyze_program
from repro.graphtool.classify import AuthorizationKind
from repro.graphtool.expansion import expansion_for
from repro.isa import assemble
from repro.isa.instructions import Nop


@pytest.fixture
def engine():
    with Engine() as session:
        yield session


def _reciprocal(value):
    return 1 / value


# ---------------------------------------------------------------------------
# Program content hashing
# ---------------------------------------------------------------------------
class TestContentHash:
    def test_structurally_identical_programs_share_a_hash(self):
        one = assemble(LISTING1_TEXT, name="victim")
        two = assemble(LISTING1_TEXT, name="victim")
        assert one is not two
        assert one.content_hash() == two.content_hash()

    def test_hash_is_stable_across_calls(self, listing1_program):
        assert listing1_program.content_hash() == listing1_program.content_hash()

    def test_appending_an_instruction_changes_the_hash(self, listing1_program):
        before = listing1_program.content_hash()
        listing1_program.append(Nop())
        assert listing1_program.content_hash() != before

    def test_declaring_a_symbol_changes_the_hash(self):
        program = assemble(".data\na: address=0x1000 size=8\n.text\nhlt")
        before = program.content_hash()
        program.declare("b", 0x2000, 8)
        assert program.content_hash() != before

    def test_renaming_changes_the_hash(self):
        one = assemble(".text\nhlt", name="one")
        two = assemble(".text\nhlt", name="two")
        assert one.content_hash() != two.content_hash()


# ---------------------------------------------------------------------------
# The content-addressed analysis cache
# ---------------------------------------------------------------------------
class TestAnalysisCache:
    def test_warm_hit_returns_the_cold_result(self, engine, listing1_program):
        cold = engine.analyze(listing1_program)
        warm = engine.analyze(listing1_program)
        assert (cold.cache, warm.cache) == ("cold", "warm")
        assert warm.payload is cold.payload
        assert warm.data == cold.data
        stats = engine.stats()["analyses"]
        assert stats["hits"] == 1 and stats["misses"] == 1 and stats["entries"] == 1

    @pytest.mark.parametrize("text_name", ["listing1", "listing2"])
    def test_cache_hits_equal_cold_builds(self, engine, text_name, request):
        """Property: a warm engine report equals a fresh uncached analysis."""
        program = request.getfixturevalue(f"{text_name}_program")
        engine.analyze(program)  # prime
        warm = engine.analyze(program).payload
        from repro.graphtool.analyzer import analyze_build

        fresh = analyze_build(AttackGraphBuilder(program, None).build())
        assert warm.vulnerable == fresh.vulnerable
        assert warm.total_racing_pairs == fresh.total_racing_pairs
        assert [str(f) for f in warm.findings] == [str(f) for f in fresh.findings]

    def test_mutating_envelope_data_does_not_poison_the_cache(
        self, engine, listing1_program
    ):
        cold = engine.analyze(listing1_program)
        pristine_findings = len(cold.data["findings"])
        cold.data["findings"].clear()
        cold.data["vulnerable"] = "tampered"
        warm = engine.analyze(listing1_program)
        assert len(warm.data["findings"]) == pristine_findings
        assert warm.data["vulnerable"] is True

    def test_customized_defense_does_not_alias_catalog_cache_entry(self, engine):
        import dataclasses

        from repro.defenses import DefenseStrategy

        lfence = get_defense("lfence")
        attack = get_attack("spectre_v1")
        assert engine.evaluate(lfence, attack).ok
        tweaked = dataclasses.replace(
            lfence, strategy=DefenseStrategy.CLEAR_PREDICTIONS
        )
        tweaked_result = engine.evaluate(tweaked, attack)
        assert tweaked_result.cache == "cold"  # not served from lfence's entry
        assert tweaked_result.data["strategy"] == DefenseStrategy.CLEAR_PREDICTIONS.value

    def test_content_identical_programs_share_cache_entries(self, engine):
        one = assemble(LISTING1_TEXT, name="victim")
        two = assemble(LISTING1_TEXT, name="victim")
        assert engine.analyze(one).cache == "cold"
        assert engine.analyze(two).cache == "warm"

    def test_mutation_misses_the_cache(self, engine):
        program = assemble(LISTING1_TEXT, name="victim")
        engine.analyze(program)
        program.append(Nop())
        assert engine.analyze(program).cache == "cold"
        assert engine.stats()["analyses"]["entries"] == 2

    def test_protected_symbols_key_the_cache(self, engine):
        program = assemble(
            ".data\ndata: address=0x1000 size=8\n.text\nmov rax, [data]\nhlt"
        )
        assert engine.analyze(program).ok
        widened = engine.analyze(program, protected_symbols=["data"])
        assert widened.cache == "cold" and not widened.ok

    def test_invalidate_drops_entries(self, engine, listing1_program):
        engine.analyze(listing1_program)
        assert engine.invalidate() > 0
        assert engine.stats()["analyses"]["entries"] == 0
        assert engine.analyze(listing1_program).cache == "cold"

    def test_invalidate_single_cache_and_unknown_cache(self, engine, listing1_program):
        engine.analyze(listing1_program)
        assert engine.invalidate("analyses") == 1
        assert engine.stats()["builds"]["entries"] == 1  # untouched
        with pytest.raises(KeyError):
            engine.invalidate("nonsense")

    def test_cache_limit_evicts_oldest_entries(self):
        with Engine(cache_limit=2) as engine:
            programs = [
                assemble(".text\nhlt", name=f"p{i}") for i in range(3)
            ]
            for program in programs:
                engine.analyze(program)
            assert engine.stats()["analyses"]["entries"] == 2
            assert engine.analyze(programs[0]).cache == "cold"  # evicted
            assert engine.analyze(programs[2]).cache == "warm"  # retained

    def test_evaluation_cache(self, engine):
        defense, attack = get_defense("lfence"), get_attack("spectre_v1")
        cold = engine.evaluate(defense, attack)
        warm = engine.evaluate(defense, attack)
        assert (cold.cache, warm.cache) == ("cold", "warm")
        assert cold.ok and warm.payload is cold.payload


# ---------------------------------------------------------------------------
# Execution plane: parallel == serial, byte for byte
# ---------------------------------------------------------------------------
class TestExecutionPlane:
    SOURCES = [SecretSource.MAIN_MEMORY, SecretSource.L1_CACHE, SecretSource.STORE_BUFFER]
    DELAYS = [
        DelayMechanism.CONDITIONAL_BRANCH,
        DelayMechanism.KERNEL_PRIVILEGE_CHECK,
        DelayMechanism.TSX_ABORT,
    ]
    CHANNELS = [CovertChannelKind.FLUSH_RELOAD, CovertChannelKind.PRIME_PROBE]

    @pytest.mark.batch
    def test_map_preserves_order_serial_and_parallel(self, engine):
        items = list(range(20))
        assert engine.map(abs, items) == items
        assert engine.map(abs, items, parallel=4) == items

    @pytest.mark.batch
    def test_sharded_attack_space_is_byte_identical_to_serial(self, engine):
        serial = engine.synthesize(self.SOURCES, self.DELAYS, self.CHANNELS)
        parallel = engine.synthesize(
            self.SOURCES, self.DELAYS, self.CHANNELS, parallel=4
        )
        assert serial.data["combinations"] == 18
        assert parallel.to_json() == serial.to_json()

    @pytest.mark.batch
    def test_sharded_matrix_is_byte_identical_to_serial(self, engine):
        defenses = [get_defense(k) for k in ("lfence", "kpti", "invisispec")]
        attacks = [get_attack(k) for k in ("spectre_v1", "meltdown", "fallout")]
        serial = engine.evaluate_matrix(defenses, attacks)
        parallel = engine.evaluate_matrix(defenses, attacks, parallel=2)
        assert parallel.to_json() == serial.to_json()
        assert len(serial.payload) == 9

    def test_matrix_rows_are_key_sorted(self, engine):
        defenses = [get_defense(k) for k in ("ssbb", "lfence")]
        attacks = [get_attack(k) for k in ("spectre_v4", "spectre_v1")]
        rows = engine.evaluate_matrix(defenses, attacks).payload
        keys = [(row.defense_key, row.attack_key) for row in rows]
        assert keys == sorted(keys)

    def test_legacy_matrix_wrapper_matches_engine(self):
        defenses = [get_defense(k) for k in ("lfence", "kpti")]
        attacks = [get_attack(k) for k in ("spectre_v1", "meltdown")]
        legacy = evaluate_matrix(defenses, attacks)
        engine_rows = default_engine().evaluate_matrix(defenses, attacks).payload
        assert [(r.defense_key, r.attack_key, r.effective) for r in legacy] == [
            (r.defense_key, r.attack_key, r.effective) for r in engine_rows
        ]

    def test_serial_matrix_warms_the_session_cache(self, engine):
        defenses = [get_defense(k) for k in ("lfence", "kpti")]
        attacks = [get_attack(k) for k in ("spectre_v1", "meltdown")]
        engine.evaluate_matrix(defenses, attacks)
        assert engine.stats()["evaluations"]["entries"] == 4
        assert engine.evaluate(defenses[0], attacks[0]).cache == "warm"

    @pytest.mark.batch
    def test_map_propagates_worker_exceptions(self, engine):
        with pytest.raises(ZeroDivisionError):
            engine.map(_reciprocal, [1, 2, 0, 4], parallel=2)

    @pytest.mark.batch
    def test_unpicklable_work_falls_back_to_serial(self, engine):
        double = lambda value: value * 2  # noqa: E731 - deliberately unpicklable
        assert engine.map(double, [1, 2, 3], parallel=2) == [2, 4, 6]

    def test_run_exploits_rejects_duplicate_names(self, engine):
        with pytest.raises(ValueError):
            engine.run_exploits(names=["spectre_v1", "spectre_v1"])

    @pytest.mark.batch
    def test_sharded_exploits_match_serial(self, engine):
        names = ["spectre_v1", "meltdown"]
        serial = engine.run_exploits(names=names)
        parallel = engine.run_exploits(names=names, parallel=2)
        assert serial.data["rows"] == parallel.data["rows"]
        assert serial.ok and parallel.ok  # both leak without defenses
        assert list(parallel.payload) == names

    def test_synth_verdicts_dedupe_structural_twins(self, engine):
        engine.synthesize(self.SOURCES, self.DELAYS, self.CHANNELS)
        stats = engine.stats()["synth_verdicts"]
        # 3 sources x 3 delays = 9 structures for 18 combinations.
        assert stats["misses"] == 9 and stats["hits"] == 9


# ---------------------------------------------------------------------------
# The Result envelope
# ---------------------------------------------------------------------------
class TestResultEnvelope:
    def test_analyze_envelope_round_trips_through_json(self, engine, listing1_program):
        result = engine.analyze(listing1_program)
        decoded = json.loads(result.to_json())
        assert decoded["kind"] == "analyze"
        assert decoded["ok"] is False
        assert decoded["data"]["classification"] == "spectre-type"
        assert decoded["data"]["findings"]

    def test_evaluate_envelope(self, engine):
        result = engine.evaluate(get_defense("lfence"), get_attack("meltdown"))
        decoded = json.loads(result.to_json())
        assert decoded["kind"] == "evaluate" and decoded["ok"] is False
        assert decoded["data"]["applicable"] is False

    def test_exploit_envelope(self, engine):
        result = engine.exploit("spectre_v1")
        decoded = json.loads(result.to_json())
        assert decoded["kind"] == "exploit"
        assert decoded["ok"] is True
        assert decoded["data"]["recovered"] == decoded["data"]["secret"]

    def test_unknown_exploit_raises(self, engine):
        with pytest.raises(KeyError):
            engine.exploit("rowhammer")

    def test_result_is_plain_data(self):
        result = Result(kind="analyze", subject="x", ok=True, cache="none", data={})
        assert result.to_dict() == {
            "kind": "analyze", "subject": "x", "ok": True, "cache": "none", "data": {},
        }


# ---------------------------------------------------------------------------
# Legacy wrappers share the default engine
# ---------------------------------------------------------------------------
class TestDefaultEngine:
    def test_analyze_program_routes_through_default_engine(self):
        fresh = Engine()
        previous = set_default_engine(fresh)
        try:
            program = assemble(LISTING1_TEXT, name="victim")
            report = analyze_program(program)
            assert report.vulnerable
            assert fresh.stats()["analyses"]["misses"] == 1
            assert analyze_program(program) is report  # warm hit
            assert fresh.stats()["analyses"]["hits"] == 1
        finally:
            set_default_engine(previous)

    def test_default_engine_is_a_singleton(self):
        assert default_engine() is default_engine()

    @pytest.mark.batch
    def test_set_default_engine_none_closes_the_replaced_session(self):
        previous = set_default_engine(None)
        try:
            engine = default_engine()
            engine.map(abs, [-1, 1], parallel=2)  # spin up a pool
            replaced = set_default_engine(None)
            assert replaced is engine
            assert engine.closed
            assert engine._executor is None  # the pool was shut down
        finally:
            set_default_engine(previous)

    def test_shims_do_not_resurrect_a_closed_engine(self):
        previous = set_default_engine(None)
        try:
            with default_engine() as engine:
                pass  # the context manager closes the session
            assert engine.closed
            fresh = default_engine()
            assert fresh is not engine and not fresh.closed
        finally:
            set_default_engine(previous)

    @pytest.mark.batch
    def test_closed_engine_still_answers_serially_without_a_pool(self):
        engine = Engine()
        engine.close()
        assert engine.map(abs, [-3, 2], parallel=4) == [3, 2]
        assert engine._executor is None  # parallel call did not respawn one
        assert engine.simulate("spectre_v1").kind == "simulate"


# ---------------------------------------------------------------------------
# Memoized micro-op expansion
# ---------------------------------------------------------------------------
class TestExpansionCache:
    def test_expansion_is_memoized_and_hashable(self):
        one = expansion_for(AuthorizationKind.PAGE_PRIVILEGE_CHECK)
        two = expansion_for(AuthorizationKind.PAGE_PRIVILEGE_CHECK)
        assert one is two
        assert hash(one) == hash(two)
        assert {one, two} == {one}

    def test_software_authorization_still_rejected(self):
        with pytest.raises(ValueError):
            expansion_for(AuthorizationKind.BOUNDS_CHECK_BRANCH)


LISTING1_TEXT = """
.data
probe_array:  address=0x1000000 size=1048576 shared
victim_array: address=0x200000  size=16
victim_size:  address=0x210000  size=8
secret:       address=0x200048  size=1 protected
.text
    clflush [probe_array]
    mov rdx, 0x48
    cmp rdx, [victim_size]
    ja done
    mov rax, byte [victim_array + rdx]
    shl rax, 12
    mov rbx, [probe_array + rax]
done:
    hlt
"""


# ---------------------------------------------------------------------------
# Timing simulation (PR 3): cached simulate, sharded sweeps, new envelopes
# ---------------------------------------------------------------------------
class TestEngineSimulate:
    def test_simulate_cold_then_warm(self, engine):
        cold = engine.simulate("spectre_v1")
        warm = engine.simulate("spectre_v1")
        assert cold.cache == "cold" and warm.cache == "warm"
        assert cold.data == warm.data
        stats = engine.stats()["simulations"]
        assert stats == {"entries": 1, "hits": 1, "misses": 1}

    def test_simulate_envelope_reports_both_verdicts(self, engine):
        result = engine.simulate("spectre_v1")
        assert result.kind == "simulate"
        assert result.data["leaked"] is True
        assert result.data["transmit_beats_squash"] is True
        assert result.data["tsg_leaks"] is True
        assert result.data["theorem1_agrees"] is True
        assert result.ok is False  # ok means the squash won
        json.loads(result.to_json())

    def test_simulate_key_includes_the_defenses(self, engine):
        from repro.uarch import SimDefense

        engine.simulate("spectre_v1")
        defended = engine.simulate(
            "spectre_v1", [SimDefense.PREVENT_SPECULATIVE_LOADS]
        )
        assert defended.cache == "cold"  # different config, different key
        assert defended.data["transmit_beats_squash"] is False
        assert defended.ok is True
        assert "tsg_leaks" not in defended.data  # only stated for undefended runs
        assert engine.stats()["simulations"]["entries"] == 2

    def test_simulate_accepts_exploit_names(self, engine):
        result = engine.simulate("mds")
        assert result.data["scenario"] == "mds"
        assert "tsg_leaks" not in result.data  # not a registry key

    def test_aliased_attacks_share_one_timing_run(self, engine):
        engine.simulate("ridl")
        warm = engine.simulate("zombieload")  # same mds scenario
        assert warm.cache == "warm"
        assert warm.data["attack"] == "zombieload"  # row still names the alias
        assert engine.stats()["simulations"]["entries"] == 1

    def test_simulate_model_reaches_the_timing_plane(self, engine):
        from repro.uarch.timing import TimingModel

        default = engine.simulate("spectre_v1")
        slow_recovery = engine.simulate(
            "spectre_v1", model=TimingModel(squash_penalty=1000)
        )
        assert slow_recovery.cache == "cold"  # model is part of the key
        assert (
            slow_recovery.data["squash_cycle"]
            == default.data["squash_cycle"] - 16 + 1000
        )

    def test_invalidate_simulations(self, engine):
        engine.simulate("spectre_v1")
        assert engine.invalidate("simulations") == 1
        assert engine.stats()["simulations"]["entries"] == 0

    def test_sweep_rows_are_key_sorted_and_cached(self, engine):
        from repro.uarch import SimDefense

        sweep = engine.simulate_sweep(
            attacks=["meltdown", "spectre_v1"],
            defenses=[None, SimDefense.PREVENT_SPECULATIVE_LOADS],
        )
        rows = sweep.data["rows"]
        assert [(row["attack"], tuple(row["defenses"])) for row in rows] == sorted(
            (row["attack"], tuple(row["defenses"])) for row in rows
        )
        assert sweep.data["runs"] == 4
        # Re-sweeping the same grid is pure cache hits.
        before = engine.stats()["simulations"]["misses"]
        engine.simulate_sweep(
            attacks=["meltdown", "spectre_v1"],
            defenses=[None, SimDefense.PREVENT_SPECULATIVE_LOADS],
        )
        assert engine.stats()["simulations"]["misses"] == before

    @pytest.mark.batch
    def test_sharded_sweep_matches_serial(self):
        from repro.uarch import SimDefense

        kwargs = dict(
            attacks=["spectre_v1", "meltdown"],
            defenses=[None, SimDefense.NO_SPECULATIVE_FORWARDING],
        )
        serial = Engine().simulate_sweep(**kwargs)
        with Engine() as session:
            sharded = session.simulate_sweep(parallel=2, **kwargs)
        assert sharded.data == serial.data

    def test_sweep_honors_the_timing_model(self, engine):
        """A contended model must reach every run of the sweep (and key the
        cache separately from the default-model sweep)."""
        from repro.uarch.timing import SERIALIZED_MODEL

        default = engine.simulate_sweep(attacks=["spectre_v2"], defenses=[None])
        serialized = engine.simulate_sweep(
            attacks=["spectre_v2"], defenses=[None], model=SERIALIZED_MODEL
        )
        assert default.data["contended"] is False
        assert serialized.data["contended"] is True
        # Serialized load ports collapse spectre_v2's overlapping misses.
        assert default.data["rows"][0]["transmit_beats_squash"] is True
        assert serialized.data["rows"][0]["transmit_beats_squash"] is False
        assert engine.stats()["simulations"]["entries"] == 2

    @pytest.mark.batch
    def test_sharded_sweep_with_model_matches_serial(self):
        from repro.uarch.timing import CONTENDED_MODEL

        kwargs = dict(
            attacks=["spectre_v1", "spectre_v2"],
            defenses=[None],
            model=CONTENDED_MODEL,
        )
        serial = Engine().simulate_sweep(**kwargs)
        with Engine() as session:
            sharded = session.simulate_sweep(parallel=2, **kwargs)
        assert sharded.data == serial.data


class TestEnginePatchAblation:
    def test_patch_envelope(self, engine, listing1_program):
        result = engine.patch(listing1_program)
        assert result.kind == "patch"
        assert result.ok is True
        assert result.data["fences_inserted"]
        assert "lfence" in result.data["patched_listing"]
        json.loads(result.to_json())

    def test_patch_runs_through_the_session_cache(self, engine, listing1_program):
        engine.analyze(listing1_program)
        engine.patch(listing1_program)
        assert engine.stats()["analyses"]["hits"] >= 1

    def test_ablation_envelope(self, engine):
        result = engine.ablation("spectre_v1")
        assert result.kind == "ablation"
        assert result.data["baseline_leaks"] is True
        assert result.data["effective"] >= 1
        assert result.data["rows"][0]["defense"] == "(no defense)"
        json.loads(result.to_json())

    def test_ablation_unknown_exploit(self, engine):
        with pytest.raises(KeyError):
            engine.ablation("rowhammer")

    @pytest.mark.batch
    def test_sharded_ablation_matches_serial(self):
        """ROADMAP open item: the exploit ablation shards over Engine.map
        (via its explicit exploit scenario grid) with identical rows."""
        serial = Engine().ablation("spectre_v1")
        with Engine() as session:
            sharded = session.ablation("spectre_v1", parallel=2)
        assert sharded.data == serial.data
        assert [row.defense for row in sharded.payload] == [
            row.defense for row in serial.payload
        ]

    def test_ablation_routes_through_the_exploit_grid(self, engine):
        from repro.uarch import SimDefense

        engine.ablation("spectre_v1", defenses=[SimDefense.KERNEL_ISOLATION])
        runs = engine.stats()["runs"]
        assert runs["ablation"] == 1
        assert runs["exploit"] == 2  # baseline + one defended point
        assert runs["grid"] == 2

    def test_ablation_respects_a_custom_config(self, engine):
        from repro.uarch import UarchConfig

        tiny = UarchConfig(speculative_window=1)
        result = engine.ablation("spectre_v1", defenses=[], config=tiny)
        assert result.data["baseline_leaks"] is False  # window too small

    def test_legacy_defense_ablation_wrapper_matches_engine(self):
        from repro.exploits.harness import defense_ablation
        from repro.uarch import SimDefense

        rows = defense_ablation("spectre_v1", [SimDefense.PREVENT_SPECULATIVE_LOADS])
        assert [row.leaked for row in rows] == [True, False]
        assert rows[0].defense is None


class TestAblateWindow:
    """The ROB/RS/port window-length ablation (paper's window ablation)."""

    GRID = [(4, 2), (16, 8)]
    PORTS = [
        ("unbounded", {}),
        ("contended", {"alu_ports": 2, "load_store_ports": 2,
                       "branch_ports": 1, "mul_ports": 1, "cdb_width": 2}),
    ]

    def test_default_port_configs_match_the_reference_models(self):
        """The ablation's literal port grids must not drift from the exported
        reference models."""
        from dataclasses import replace

        from repro.engine import DEFAULT_PORT_CONFIGS
        from repro.uarch.timing import CONTENDED_MODEL, DEFAULT_MODEL, SERIALIZED_MODEL

        configs = dict(DEFAULT_PORT_CONFIGS)
        assert replace(DEFAULT_MODEL, **configs["unbounded"]) == DEFAULT_MODEL
        assert replace(DEFAULT_MODEL, **configs["contended"]) == CONTENDED_MODEL
        assert replace(DEFAULT_MODEL, **configs["serialized"]) == SERIALIZED_MODEL

    def test_rows_cover_the_grid_sorted_and_cached(self, engine):
        result = engine.ablate_window(
            ["spectre_v1"], window_grid=self.GRID, port_configs=self.PORTS
        )
        assert result.kind == "window_ablation"
        rows = result.data["rows"]
        assert len(rows) == len(self.GRID) * len(self.PORTS)
        keys = [(r["attack"], r["rob_size"], r["rs_entries"], r["ports"]) for r in rows]
        assert keys == sorted(keys)
        json.loads(result.to_json())
        # Re-running the same grid is pure cache hits.
        before = engine.stats()["simulations"]["misses"]
        engine.ablate_window(
            ["spectre_v1"], window_grid=self.GRID, port_configs=self.PORTS
        )
        assert engine.stats()["simulations"]["misses"] == before

    def test_small_window_closes_the_spectre_v1_race(self, engine):
        """The paper's ablation reproduced in cycles: at (4, 2) the send can
        no longer issue before the stalled bounds check resolves."""
        result = engine.ablate_window(
            ["spectre_v1"], window_grid=self.GRID, port_configs=self.PORTS
        )
        by_key = {
            (r["rob_size"], r["rs_entries"], r["ports"]): r
            for r in result.data["rows"]
        }
        assert by_key[(16, 8, "contended")]["transmit_beats_squash"] is True
        assert by_key[(4, 2, "contended")]["transmit_beats_squash"] is False
        assert (
            by_key[(4, 2, "contended")]["window_cycles"]
            < by_key[(16, 8, "contended")]["window_cycles"]
        )

    def test_contention_channel_rows_show_a_measurable_transmit(self, engine):
        """Acceptance criterion: the contention channel's transmit is a
        nonzero cycle delta under every bounded port configuration, and
        exactly zero on the unbounded machine."""
        result = engine.ablate_window(
            ["spectre_v1"], window_grid=[(16, 8)], port_configs=self.PORTS
        )
        channel_rows = {row["ports"]: row for row in result.data["contention_channel"]}
        assert channel_rows["unbounded"]["cycle_delta"] == 0
        assert channel_rows["unbounded"]["detected"] is False
        assert channel_rows["contended"]["cycle_delta"] > 0
        assert channel_rows["contended"]["detected"] is True
        assert channel_rows["contended"]["recovered"] == channel_rows["contended"]["value"]

    @pytest.mark.batch
    def test_sharded_ablation_matches_serial(self):
        kwargs = dict(
            attacks=["spectre_v1", "meltdown"],
            window_grid=[(4, 2), (16, 8)],
            port_configs=[("unbounded", {}), ("serialized", {
                "alu_ports": 1, "load_store_ports": 1, "branch_ports": 1,
                "mul_ports": 1, "cdb_width": 1})],
        )
        serial = Engine().ablate_window(**kwargs)
        with Engine() as session:
            sharded = session.ablate_window(parallel=2, **kwargs)
        assert sharded.data == serial.data

    @pytest.mark.batch
    def test_aliased_attacks_share_ablation_runs(self):
        """ridl and zombieload share the mds scenario: the parallel ablation
        must run one grid point per unique (scenario, model), not per alias."""
        with Engine() as session:
            result = session.ablate_window(
                ["ridl", "zombieload"],
                window_grid=self.GRID,
                port_configs=self.PORTS,
                parallel=2,
            )
        expected_models = len(self.GRID) * len(self.PORTS)
        assert len(result.data["rows"]) == 2 * expected_models
        assert session.stats()["runs"]["grid"] == expected_models

    @pytest.mark.slow
    def test_full_registry_ablation(self):
        """The full 19-attack x default-grid sweep (excluded from tier-1)."""
        from repro.attacks.registry import keys as registry_keys
        from repro.engine import DEFAULT_PORT_CONFIGS, DEFAULT_WINDOW_GRID

        result = Engine().ablate_window()
        expected = (
            len(set(registry_keys()))
            * len(DEFAULT_WINDOW_GRID)
            * len(DEFAULT_PORT_CONFIGS)
        )
        assert result.data["runs"] == expected
        # Every attack leaks somewhere and the smallest window kills at
        # least the Spectre v1 family.
        leaking = {r["attack"] for r in result.data["rows"] if r["transmit_beats_squash"]}
        assert leaking == set(registry_keys())
        small = [
            r for r in result.data["rows"]
            if (r["rob_size"], r["rs_entries"]) == (4, 2) and r["attack"] == "spectre_v1"
        ]
        assert small and all(not r["transmit_beats_squash"] for r in small)


# ---------------------------------------------------------------------------
# The one execution plane: supervised chunks on warm worker engines
# ---------------------------------------------------------------------------
def _secret_grid(count, attack="spectre_v1"):
    from repro.scenario import ScenarioGrid

    return ScenarioGrid(
        "simulate", axes={"attack": [attack], "secret": list(range(count))}
    )


def _policy(**overrides):
    """Fast retries for the supervision tests: no backoff to speak of, no jitter."""
    from repro.engine import FailurePolicy

    return FailurePolicy(**{"retries": 1, "backoff": 0.001, "jitter": 0.0, **overrides})


@pytest.mark.batch
class TestOnePlane:
    def test_map_warms_the_pool_the_grid_then_uses(self):
        """perfbench warms the grid's pool through ``map`` during set-up."""
        with Engine() as engine:
            engine.map(abs, range(2), parallel=2)
            pool = engine._executor
            assert pool is not None
            engine.run_grid(_secret_grid(4), parallel=2)
            assert engine._executor is pool

    def test_all_warm_resume_spawns_no_pool(self, tmp_path):
        from repro.store import DiskStore

        grid = _secret_grid(4)
        with Engine(store=DiskStore(root=tmp_path, version="t")) as engine:
            engine.run_grid(grid)
        with Engine(
            store=DiskStore(root=tmp_path, version="t"), policy=_policy(timeout=60.0)
        ) as engine:
            engine.run_grid(grid, parallel=2)
            assert engine._executor is None
            assert engine.stats()["grid"]["resumed"] == 4

    def test_fail_fast_grid_raises_the_point_error(self):
        from repro.engine import GridPointFailed
        from repro.scenario import ScenarioGrid

        grid = ScenarioGrid("exploit", axes={"exploit": ["spectre_v1", "rowhammer"]})
        with Engine() as engine:
            with pytest.raises(KeyError) as caught:
                engine.run_grid(grid, parallel=2)
        assert not isinstance(caught.value, GridPointFailed)

    def test_count_without_state_dir_fires_on_every_retry(self):
        """Each pool task unpickles a fresh plan: a ``count=1`` fault
        without ``state_dir`` trips every attempt and ends quarantined."""
        from repro.faults import FaultPlan, FaultSpec

        plan = FaultPlan([FaultSpec(kind="exception", match="secret=1", count=1)])
        with Engine(parallel=2, policy=_policy(retries=2), faults=plan) as engine:
            result = engine.run_grid(_secret_grid(3))
        bad = result.data["rows"][1]["data"]
        assert bad["quarantined"] is True and bad["attempts"] == 3
        assert engine.stats()["grid"]["retried"] == 2

    def test_any_invalidate_drops_the_pool(self):
        with Engine() as engine:
            engine.map(abs, range(2), parallel=2)
            assert engine._executor is not None
            engine.invalidate("simulations")
            assert engine._executor is None

    def test_full_invalidate_clears_point_decodes(self):
        with Engine() as engine:
            engine.simulate("spectre_v1")
            assert engine._point_decodes
            engine.invalidate()
            assert not engine._point_decodes

    def test_every_point_gets_a_span_under_its_chunk(self, tmp_path):
        from repro.obs.trace import Tracer, read_trace

        sink = tmp_path / "chunks.jsonl"
        with Engine(parallel=2, tracer=Tracer(sink=str(sink))) as engine:
            engine.run_grid(_secret_grid(20))
        records = read_trace(sink)
        chunks = {r["span"]: r for r in records if r["name"] == "engine.shard"}
        points = [r for r in records if r["name"] == "worker.point"]
        assert len(points) == 20
        assert all(point["parent"] in chunks for point in points)
        assert len(chunks) < 20  # several points share one task
        for span_id, chunk in chunks.items():
            children = sum(1 for point in points if point["parent"] == span_id)
            assert children == chunk["attrs"]["points"]

    def test_chunk_deadline_scales_with_its_length(self):
        """Points of 0.3 s under a 0.5 s timeout: a two-point chunk runs
        0.6 s, inside its 1 s deadline, so nothing times out."""
        from repro.engine import _chunk_size
        from repro.faults import FaultPlan, FaultSpec

        assert _chunk_size(9, 2) == 2
        plan = FaultPlan([FaultSpec(kind="hang", hang_seconds=0.3)])
        with Engine(parallel=2, policy=_policy(timeout=0.5), faults=plan) as engine:
            result = engine.run_grid(_secret_grid(9))
        assert "quarantined" not in result.data
        assert engine.stats()["grid"]["timeouts"] == 0

    @pytest.mark.parametrize(
        "fault", [{"kind": "crash"}, {"kind": "hang", "hang_seconds": 30.0}]
    )
    def test_crash_or_timeout_retries_only_its_chunk(self, fault):
        from repro.engine import _chunk_size
        from repro.faults import FaultPlan, FaultSpec

        plan = FaultPlan([FaultSpec(match="secret=4", **fault)])
        with Engine(parallel=2, policy=_policy(timeout=0.5), faults=plan) as engine:
            result = engine.run_grid(_secret_grid(9))
            grid = engine.stats()["grid"]
        assert result.data["quarantined"] == 1
        assert result.data["rows"][4]["data"]["quarantined"] is True
        assert all(
            "quarantined" not in row["data"]
            for index, row in enumerate(result.data["rows"])
            if index != 4
        )
        # Only the culprit's chunk went to isolated retry.
        assert 1 <= grid["retried"] <= _chunk_size(9, 2)

    def test_broken_pool_reruns_unfinished_points_in_process(self, tmp_path):
        """Fail-fast: a crashed worker costs nothing but a rerun.  The
        crash token is spent in the worker, so the in-process rerun runs
        clean."""
        from repro.faults import FaultPlan, FaultSpec

        plan = FaultPlan(
            [FaultSpec(kind="crash", match="secret=1", count=1)], state_dir=tmp_path
        )
        serial = Engine().run_grid(_secret_grid(4))
        with Engine(parallel=2, faults=plan) as engine:
            result = engine.run_grid(_secret_grid(4))
            assert engine.stats()["grid"]["pool_respawns"] == 1
        assert result.data == serial.data

    def test_memory_store_absorbs_worker_results(self):
        from repro.store import MemoryStore

        with Engine(store=MemoryStore(), parallel=2) as engine:
            first = engine.run_grid(_secret_grid(4))
            assert engine.stats()["store"]["entries"] == 4
            second = engine.run_grid(_secret_grid(4))
            assert engine.stats()["grid"]["resumed"] == 4
        assert second.data == first.data

    def test_identical_points_run_once(self):
        from repro.scenario import ScenarioGrid, ScenarioSpec

        spec = ScenarioSpec("simulate", attack="spectre_v1")
        grid = ScenarioGrid.explicit([spec, spec, ScenarioSpec("simulate", attack="lvi")])
        serial = Engine().run_grid(grid)
        with Engine(parallel=2) as engine:
            result = engine.run_grid(grid)
        assert result.data == serial.data
        assert result.payload[1].cache == "warm"  # the copy of point 0

    @pytest.mark.parametrize("composite", ["sweep", "window"])
    def test_quarantined_sub_point_stays_a_row(self, composite):
        from repro.faults import FaultPlan, FaultSpec

        plan = FaultPlan([FaultSpec(kind="exception", match="attack='meltdown'")])
        with Engine(parallel=2, policy=_policy(), faults=plan) as engine:
            if composite == "sweep":
                result = engine.simulate_sweep(
                    attacks=["meltdown", "spectre_v1"], defenses=[None]
                )
            else:
                result = engine.ablate_window(
                    ["meltdown", "spectre_v1"],
                    window_grid=[(16, 8)],
                    port_configs=[("unbounded", {})],
                )
        assert result.ok is False
        assert result.data["quarantined"] == 1
        rows = result.data["rows"]
        assert [row.get("error") for row in rows] == ["FaultInjected", None]
