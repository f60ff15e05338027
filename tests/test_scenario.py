"""Tests for the declarative scenario layer (ScenarioSpec / ScenarioGrid)."""

from __future__ import annotations

import json
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.defenses import get as get_defense
from repro.engine import Engine
from repro.isa import assemble
from repro.scenario import (
    KINDS,
    ScenarioGrid,
    ScenarioSpec,
    decode_config,
    decode_model,
    decode_secret,
    decode_sim_defense,
    load,
    stable_repr,
)

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


# ---------------------------------------------------------------------------
# Spec canonicalization and identity
# ---------------------------------------------------------------------------
class TestScenarioSpec:
    def test_parameter_order_is_irrelevant(self):
        one = ScenarioSpec("simulate", attack="spectre_v1", secret=0x41)
        two = ScenarioSpec("simulate", secret=0x41, attack="spectre_v1")
        assert one == two
        assert one.content_hash() == two.content_hash()
        assert hash(one) == hash(two)

    def test_none_parameters_are_dropped(self):
        explicit = ScenarioSpec("simulate", attack="spectre_v1", secret=None)
        implicit = ScenarioSpec("simulate", attack="spectre_v1")
        assert explicit == implicit
        assert "secret" not in explicit.params

    def test_lists_normalize_to_tuples(self):
        spec = ScenarioSpec("simulate_sweep", attacks=["a", "b"])
        assert spec.get("attacks") == ("a", "b")
        assert spec == ScenarioSpec("simulate_sweep", attacks=("a", "b"))

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown scenario kind"):
            ScenarioSpec("rowhammer")

    def test_unknown_parameter_raises(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            ScenarioSpec("simulate", attack="spectre_v1", warp_factor=9)

    def test_missing_required_parameter_raises(self):
        with pytest.raises(ValueError, match="requires parameter"):
            ScenarioSpec("analyze")

    def test_specs_are_immutable(self):
        spec = ScenarioSpec("simulate", attack="spectre_v1")
        with pytest.raises(AttributeError):
            spec.kind = "exploit"

    def test_replace_builds_a_new_point(self):
        spec = ScenarioSpec("simulate", attack="spectre_v1", secret=1)
        other = spec.replace(secret=2)
        assert other.get("secret") == 2 and spec.get("secret") == 1
        assert spec.replace(secret=None) == ScenarioSpec("simulate", attack="spectre_v1")

    def test_content_hash_differs_on_parameter_change(self):
        base = ScenarioSpec("simulate", attack="spectre_v1")
        assert base.content_hash() != base.replace(secret=7).content_hash()
        assert base.content_hash() != ScenarioSpec("exploit", exploit="spectre_v1").content_hash()

    def test_program_parameters_hash_by_program_content(self):
        one = ScenarioSpec("analyze", program=assemble(LISTING1, name="victim"))
        two = ScenarioSpec("analyze", program=assemble(LISTING1, name="victim"))
        renamed = ScenarioSpec("analyze", program=assemble(LISTING1, name="other"))
        assert one.content_hash() == two.content_hash()
        assert one.content_hash() != renamed.content_hash()

    def test_rich_objects_render_stably(self):
        """Defense dataclasses carry no memory addresses in the content key."""
        spec = ScenarioSpec(
            "evaluate", defense=get_defense("lfence"), attack="spectre_v1"
        )
        assert "0x" not in spec.content_key()
        again = ScenarioSpec(
            "evaluate", defense=get_defense("lfence"), attack="spectre_v1"
        )
        assert spec.content_hash() == again.content_hash()

    def test_callable_rendering_has_no_address(self):
        from repro.attacks import get as get_attack

        variant = get_attack("spectre_v1")  # carries a graph_builder callable
        assert "at 0x" not in stable_repr(variant)

    def test_specs_pickle_round_trip(self):
        spec = ScenarioSpec("simulate", attack="spectre_v1", defenses=("KERNEL_ISOLATION",))
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec and clone.content_hash() == spec.content_hash()

    def test_json_round_trip_preserves_identity(self):
        spec = ScenarioSpec(
            "simulate_sweep", attacks=("spectre_v1",), defenses=(None, "KERNEL_ISOLATION")
        )
        clone = ScenarioSpec.from_json(spec.to_json())
        assert clone == spec

    def test_bare_string_sequence_params_are_wrapped(self):
        """`attacks="spectre_v1"` means one attack, not ten one-letter ones."""
        spec = ScenarioSpec("simulate_sweep", attacks="spectre_v1")
        assert spec.get("attacks") == ("spectre_v1",)
        assert spec == ScenarioSpec("simulate_sweep", attacks=["spectre_v1"])
        result = Engine().run(spec.replace(defenses="PREVENT_SPECULATIVE_LOADS"))
        assert result.data["attacks"] == 1 and result.data["defenses"] == 1

    def test_grid_kinds_are_flagged(self):
        assert ScenarioSpec("matrix").is_grid
        assert not ScenarioSpec("simulate", attack="spectre_v1").is_grid
        assert set(KINDS) >= {"analyze", "simulate", "matrix", "window_ablation"}


# ---------------------------------------------------------------------------
# Grid expansion
# ---------------------------------------------------------------------------
class TestScenarioGrid:
    def test_cartesian_expansion_order(self):
        grid = ScenarioGrid(
            "simulate",
            base={"secret": 1},
            axes={"attack": ["a", "b"], "defenses": [None, ("KERNEL_ISOLATION",)]},
        )
        specs = grid.specs()
        assert len(grid) == len(specs) == 4
        assert [spec.get("attack") for spec in specs] == ["a", "a", "b", "b"]
        assert [spec.get("defenses") for spec in specs] == [
            None, ("KERNEL_ISOLATION",), None, ("KERNEL_ISOLATION",)
        ]
        assert all(spec.get("secret") == 1 for spec in specs)

    def test_axis_value_none_means_parameter_absent(self):
        grid = ScenarioGrid("simulate", base={"attack": "a"}, axes={"secret": [None, 7]})
        absent, present = grid.specs()
        assert "secret" not in absent.params and present.get("secret") == 7

    def test_base_axis_overlap_rejected(self):
        with pytest.raises(ValueError, match="both base and axes"):
            ScenarioGrid("simulate", base={"attack": "a"}, axes={"attack": ["b"]})

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            ScenarioGrid("simulate", axes={"warp": [1]})

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            ScenarioGrid("simulate", axes={"attack": []})

    def test_explicit_grid(self):
        specs = [
            ScenarioSpec("exploit", exploit="spectre_v1"),
            ScenarioSpec("exploit", exploit="meltdown"),
        ]
        grid = ScenarioGrid.explicit(specs)
        assert grid.specs() == specs and len(grid) == 2

    def test_explicit_grid_rejects_mixed_kinds(self):
        with pytest.raises(ValueError, match="mixes kinds"):
            ScenarioGrid.explicit([
                ScenarioSpec("exploit", exploit="spectre_v1"),
                ScenarioSpec("simulate", attack="spectre_v1"),
            ])

    def test_grid_dict_round_trip(self):
        grid = ScenarioGrid("simulate", base={"secret": 3}, axes={"attack": ["a", "b"]})
        clone = ScenarioGrid.from_dict(grid.to_dict())
        assert clone.specs() == grid.specs()
        assert clone.content_hash() == grid.content_hash()

    def test_grid_hash_differs_on_axis_change(self):
        one = ScenarioGrid("simulate", axes={"attack": ["a"]})
        two = ScenarioGrid("simulate", axes={"attack": ["a", "b"]})
        assert one.content_hash() != two.content_hash()


# ---------------------------------------------------------------------------
# Loading declarative plans from disk
# ---------------------------------------------------------------------------
class TestLoad:
    def test_load_spec_with_program_path(self, tmp_path):
        program = tmp_path / "victim.s"
        program.write_text(LISTING1)
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(
            {"kind": "analyze", "params": {"program_path": "victim.s"}}
        ))
        spec = load(plan)
        assert isinstance(spec, ScenarioSpec)
        assert spec.get("program") == LISTING1
        assert spec.get("name") == "victim.s"
        result = Engine().run(spec)
        assert result.kind == "analyze" and not result.ok  # Listing 1 leaks

    def test_load_grid(self, tmp_path):
        plan = tmp_path / "grid.json"
        plan.write_text(json.dumps({
            "kind": "simulate",
            "base": {"secret": 90},
            "axes": {"attack": ["spectre_v1", "meltdown"]},
        }))
        grid = load(plan)
        assert isinstance(grid, ScenarioGrid) and len(grid) == 2

    def test_load_explicit_specs_resolve_program_paths(self, tmp_path):
        program = tmp_path / "victim.s"
        program.write_text(LISTING1)
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({
            "kind": "analyze",
            "specs": [{"kind": "analyze", "params": {"program_path": "victim.s"}}],
        }))
        grid = load(plan)
        assert isinstance(grid, ScenarioGrid)
        assert grid.specs()[0].get("program") == LISTING1

    def test_load_rejects_non_object(self, tmp_path):
        plan = tmp_path / "bad.json"
        plan.write_text("[1, 2]")
        with pytest.raises(ValueError, match="JSON object"):
            load(plan)


# ---------------------------------------------------------------------------
# Declarative decoders
# ---------------------------------------------------------------------------
class TestDecoders:
    def test_decode_model_presets_and_dicts(self):
        from repro.uarch.timing import CONTENDED_MODEL, DEFAULT_MODEL, TimingModel

        assert decode_model(None) is None
        assert decode_model("contended") == CONTENDED_MODEL
        assert decode_model("default") == DEFAULT_MODEL
        assert decode_model({"squash_penalty": 99}) == TimingModel(squash_penalty=99)
        with pytest.raises(ValueError, match="unknown timing model"):
            decode_model("warp")

    def test_decode_config_dict_with_defenses(self):
        from repro.uarch import SimDefense, UarchConfig

        config = decode_config({"cache_miss_latency": 123, "defenses": ["kernel_isolation"]})
        assert isinstance(config, UarchConfig)
        assert config.cache_miss_latency == 123
        assert config.has(SimDefense.KERNEL_ISOLATION)

    def test_decode_sim_defense_errors(self):
        with pytest.raises(ValueError, match="unknown simulator defense"):
            decode_sim_defense("tinfoil_hat")

    def test_decode_secret(self):
        assert decode_secret("0x5a") == 0x5A
        assert decode_secret(7) == 7
        assert decode_secret(None) is None


class TestDecoderProperties:
    """Hypothesis companions to the decoders: hostile dicts cannot escape.

    The service request decoder (``repro.service.protocol``) leans on
    these contracts: every failure out of ``ScenarioSpec.from_dict`` is a
    ``KeyError`` / ``TypeError`` / ``ValueError`` it can map to a 400.
    """

    _json = st.recursive(
        st.none()
        | st.booleans()
        | st.integers(min_value=-(2**40), max_value=2**40)
        | st.text(max_size=16),
        lambda children: st.lists(children, max_size=3)
        | st.dictionaries(st.text(max_size=8), children, max_size=3),
        max_leaves=10,
    )

    @settings(max_examples=150, deadline=None)
    @given(payload=st.dictionaries(st.text(max_size=8), _json, max_size=4))
    def test_from_dict_raises_only_mappable_errors(self, payload):
        try:
            spec = ScenarioSpec.from_dict(payload)
        except (KeyError, TypeError, ValueError):
            pass  # exactly the family the service decoder maps to 400s
        else:
            assert isinstance(spec, ScenarioSpec)

    @settings(max_examples=100, deadline=None)
    @given(secret=st.integers(min_value=0, max_value=2**32))
    def test_decode_secret_accepts_ints_and_their_hex_spellings(self, secret):
        assert decode_secret(secret) == secret
        assert decode_secret(hex(secret)) == secret
        assert decode_secret(str(secret)) == secret

    @settings(max_examples=100, deadline=None)
    @given(
        secret=st.integers(min_value=0, max_value=255),
        exploit=st.sampled_from(["spectre_v1", "meltdown"]),
    )
    def test_spec_dict_round_trip_preserves_identity(self, secret, exploit):
        spec = ScenarioSpec("exploit", exploit=exploit, secret=secret)
        decoded = ScenarioSpec.from_dict(json.loads(spec.to_json()))
        assert decoded == spec
        assert decoded.content_hash() == spec.content_hash()


# ---------------------------------------------------------------------------
# run(spec) / run_grid(grid) — the engine spine
# ---------------------------------------------------------------------------
class TestRunSpine:
    def test_run_spec_equals_legacy_method(self):
        with Engine() as engine:
            via_spec = engine.run(ScenarioSpec("simulate", attack="spectre_v1"))
        with Engine() as engine:
            via_method = engine.simulate("spectre_v1")
        assert via_spec.data == via_method.data
        assert via_spec.kind == via_method.kind == "simulate"

    def test_run_declarative_analyze_from_source_text(self):
        result = Engine().run(
            ScenarioSpec("analyze", program=LISTING1, name="victim")
        )
        assert result.kind == "analyze"
        assert result.data["vulnerable"] is True
        assert result.data["program"] == "victim"

    def test_legacy_methods_route_through_run(self):
        """Acceptance criterion: every named workload is a spec execution."""
        with Engine() as engine:
            program = assemble(LISTING1, name="victim")
            engine.analyze(program)
            engine.evaluate(get_defense("lfence"), __import__("repro").attacks.get("spectre_v1"))
            engine.simulate("spectre_v1")
            engine.exploit("spectre_v1")
            engine.patch(program)
            engine.ablation("spectre_v1", defenses=[])
            runs = engine.stats()["runs"]
        assert runs["analyze"] == 3  # patch re-analyzes (before + after) via run()
        assert runs["evaluate"] == 1
        assert runs["simulate"] == 1
        assert runs["patch"] == 1
        assert runs["ablation"] == 1
        assert runs["exploit"] >= 2  # the direct run + the ablation baseline

    def test_grid_runs_route_through_run(self):
        with Engine() as engine:
            engine.simulate_sweep(attacks=["spectre_v1"], defenses=[None])
            engine.evaluate_matrix(
                [get_defense("lfence")],
                [__import__("repro").attacks.get("spectre_v1")],
            )
            runs = engine.stats()["runs"]
        assert runs["simulate_sweep"] == 1
        assert runs["matrix"] == 1
        assert runs["simulate"] == 1   # the sweep's row went through run() too
        assert runs["evaluate"] == 1

    @pytest.mark.batch
    def test_run_grid_parallel_matches_serial(self):
        grid = ScenarioGrid(
            "simulate",
            axes={"attack": ["spectre_v1", "meltdown"],
                  "defenses": [None, ("PREVENT_SPECULATIVE_LOADS",)]},
        )
        serial = Engine().run_grid(grid)
        with Engine() as session:
            parallel = session.run_grid(grid, parallel=2)
        assert serial.data == parallel.data
        assert serial.kind == "simulate_grid"
        assert serial.data["points"] == 4

    def test_run_grid_envelope_shape(self):
        grid = ScenarioGrid("exploit", base={"secret": 0x21},
                            axes={"exploit": ["spectre_v1", "meltdown"]})
        result = Engine().run_grid(grid)
        assert result.ok  # both exploits leak (= succeed) undefended
        assert [row["data"]["secret"] for row in result.data["rows"]] == [0x21, 0x21]
        json.loads(result.to_json())

    def test_run_grid_with_memory_store_serves_points_warm(self):
        from repro.store import MemoryStore

        grid = ScenarioGrid("simulate", axes={"attack": ["spectre_v1", "meltdown"]})
        with Engine(store=MemoryStore()) as engine:
            first = engine.run_grid(grid)
            before = engine.stats()["store"]["hits"]
            second = engine.run_grid(grid)
            assert engine.stats()["store"]["hits"] >= before + 2
        assert first.data == second.data

    def test_unknown_exploit_still_raises_through_spec(self):
        with pytest.raises(KeyError):
            Engine().run(ScenarioSpec("exploit", exploit="rowhammer"))
