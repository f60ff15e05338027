"""The seeded gadget generator: determinism, shape space, three-oracle
agreement, functional training and the shrinker's contract.

Seed determinism is checked *cross-process* (a spawned interpreter must
rebuild byte-identical programs -- the property that makes fuzz points
content-addressable), and the shrinker is checked on its two invariants:
the minimal case still satisfies the predicate, and every accepted step
strictly reduced the instruction count.
"""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from training_reference import ReferenceTrainedCPU

from repro.fuzz.generator import (
    CHANNELS,
    FENCES,
    FUZZ_SECRET,
    MAX_DELAY,
    SOURCES,
    TRAINING_ROUNDS,
    GadgetShape,
    _timing_verdict,
    build_program,
    case_from_shape,
    dual_verdict,
    iter_cases,
    make_case,
    make_shape,
    shrink_case,
)
from repro.uarch.timing import core as timing_core
from repro.uarch.timing.core import TimingCPU
from repro.uarch.timing.scheduler import CONTENDED_MODEL, SERIALIZED_MODEL

pytestmark = pytest.mark.fuzz


def _sha_at(coordinate):
    seed, index = coordinate
    return make_case(seed, index).sha


class TestSeedDeterminism:
    def test_same_coordinates_same_program(self):
        for index in range(16):
            first = make_case(11, index)
            again = make_case(11, index)
            assert first.sha == again.sha
            assert first.program.listing() == again.program.listing()
            assert first.shape == again.shape

    def test_different_coordinates_explore_the_space(self):
        shapes = {make_shape(3, index) for index in range(64)}
        assert len(shapes) > 16  # the axes actually vary
        shas = {case.sha for case in iter_cases(3, 64)}
        assert len(shas) == len({(c.shape) for c in iter_cases(3, 64)})

    def test_seed_changes_the_draw(self):
        assert [make_shape(0, i) for i in range(32)] != [
            make_shape(1, i) for i in range(32)
        ]

    def test_hash_stable_across_spawned_processes(self):
        """A spawned interpreter (fresh PYTHONHASHSEED) rebuilds the exact
        same programs: the generator never leans on hash randomization."""
        coordinates = [(17, index) for index in range(8)]
        local = [_sha_at(coordinate) for coordinate in coordinates]
        context = multiprocessing.get_context("spawn")
        with context.Pool(2) as pool:
            remote = pool.map(_sha_at, coordinates)
        assert remote == local

    def test_hash_stable_under_different_pythonhashseed(self):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        script = (
            "from repro.fuzz.generator import make_case;"
            "print(','.join(make_case(17, i).sha for i in range(4)))"
        )
        runs = set()
        for hashseed in ("1", "2"):
            env["PYTHONHASHSEED"] = hashseed
            completed = subprocess.run(
                [sys.executable, "-c", script],
                env=env, capture_output=True, text=True, timeout=60,
            )
            assert completed.returncode == 0, completed.stderr
            runs.add(completed.stdout.strip())
        assert len(runs) == 1
        assert runs.pop() == ",".join(make_case(17, i).sha for i in range(4))


class TestShapeSpace:
    def test_every_draw_is_inside_the_axes(self):
        for index in range(128):
            shape = make_shape(5, index)
            assert shape.source in SOURCES
            assert shape.channel in CHANNELS
            assert shape.fence in FENCES
            assert 0 <= shape.delay <= MAX_DELAY

    def test_bucket_ignores_the_delay_knob(self):
        a = GadgetShape("bounds_check", 0, "direct", "none")
        b = GadgetShape("bounds_check", 4, "direct", "none")
        assert a.bucket == b.bucket
        assert a.bucket == "bounds_check/direct/fence=none"

    def test_shape_roundtrips_through_dict(self):
        shape = make_shape(9, 3)
        assert GadgetShape.from_dict(shape.to_dict()) == shape

    def test_every_knob_adds_instructions(self):
        base = GadgetShape("bounds_check", 0, "direct", "none")
        baseline = len(build_program(base).instructions)
        for delay in range(1, MAX_DELAY + 1):
            grown = GadgetShape("bounds_check", delay, "direct", "none")
            assert len(build_program(grown).instructions) == baseline + delay
        for fence in FENCES[1:]:
            fenced = GadgetShape("bounds_check", 0, "direct", fence)
            assert len(build_program(fenced).instructions) == baseline + 1
        for channel in ("aliased", "double_shift"):
            widened = GadgetShape("bounds_check", 0, channel, "none")
            assert len(build_program(widened).instructions) == baseline + 1


def _recording(cpu_cls, made):
    """A ``TimingCPU`` factory that keeps every core it builds in ``made``."""

    def make(*args, **kwargs):
        cpu = cpu_cls(*args, **kwargs)
        made.append(cpu)
        return cpu

    return make


class TestDualOracleAgreement:
    def test_sampled_campaign_slice_agrees_everywhere(self, monkeypatch):
        # Theorem 1 over the whole finite shape space: all 150 shapes under
        # each timing model, with the TSG verdict, the measured race and
        # the decoded byte agreeing on every one.  Each case is also
        # replayed with timed training (the reference loop): its training
        # runs open no window and send nothing, and the victim run's trace,
        # decoded byte, race and stats equal the functionally trained run's.
        cases = [
            case_from_shape(0, index, shape)
            for index, shape in enumerate(
                GadgetShape(source, delay, channel, fence)
                for source in SOURCES
                for delay in range(MAX_DELAY + 1)
                for channel in CHANNELS
                for fence in FENCES
            )
        ]
        assert len(cases) == 150
        models = {
            "default": None,
            "contended": CONTENDED_MODEL,
            "serialized": SERIALIZED_MODEL,
        }
        made = []
        for name, model in models.items():
            leaks = 0
            for case in cases:
                monkeypatch.setattr(timing_core, "TimingCPU", _recording(TimingCPU, made))
                verdict = dual_verdict(case, model=model)
                cpu = made.pop()
                monkeypatch.setattr(
                    timing_core, "TimingCPU", _recording(ReferenceTrainedCPU, made)
                )
                measured, recovered, trace = _timing_verdict(
                    case, secret=FUZZ_SECRET, inject=None, model=model
                )
                reference = made.pop()
                label = (name, case.shape.describe())
                # The reference's training runs: every trace but the victim's.
                training_runs = reference.traces[:-1]
                trained = case.shape.source == "bounds_check"
                assert len(training_runs) == TRAINING_ROUNDS * trained, label
                for training in training_runs:
                    assert training.windows == [], label
                    assert training.transmit_cycle is None, label
                assert len(cpu.traces) == 1, label  # only the victim run is timed
                assert cpu.last_trace.to_dict(include_ops=True) == trace.to_dict(
                    include_ops=True
                ), label
                assert verdict.recovered == recovered, label
                assert verdict.transmit_beats_squash == measured, label
                assert cpu.stats == reference.stats, label
                decoded = verdict.recovered == FUZZ_SECRET
                assert verdict.tsg_leaks == verdict.transmit_beats_squash == decoded, (
                    name, case.shape.describe(), verdict.to_dict()
                )
                assert verdict.agrees
                leaks += decoded
                if decoded:
                    # The byte is an oracle of its own: a won race whose
                    # byte did not decode is a disagreement.
                    assert not replace(verdict, recovered=None).agrees
            assert leaks == 75, name

    def test_fences_gate_the_leak_as_the_tsg_predicts(self):
        # The paper's Table-2 physics on generated gadgets: an lfence
        # before the transmitting load kills a Spectre-style leak ...
        safe = case_from_shape(
            0, 0, GadgetShape("bounds_check", 2, "direct", "before_send")
        )
        verdict = dual_verdict(safe)
        assert verdict.agrees and not verdict.tsg_leaks
        # ... while one after it changes nothing.
        leaky = case_from_shape(
            0, 0, GadgetShape("bounds_check", 2, "direct", "after_send")
        )
        verdict = dual_verdict(leaky)
        assert verdict.agrees and verdict.tsg_leaks

    def test_injected_no_flush_splits_the_oracles(self):
        case = case_from_shape(
            0, 0, GadgetShape("bounds_check", 2, "aliased", "none")
        )
        clean = dual_verdict(case)
        assert clean.agrees and clean.tsg_leaks
        broken = dual_verdict(case, inject="no_flush")
        assert broken.tsg_leaks and not broken.transmit_beats_squash
        assert not broken.agrees

    def test_unknown_injection_is_rejected(self):
        case = make_case(0, 0)
        with pytest.raises(ValueError, match="injection"):
            dual_verdict(case, inject="bogus")


class TestShrinker:
    def _disagreeing_case(self):
        return case_from_shape(
            0, 0, GadgetShape("bounds_check", MAX_DELAY, "aliased", "after_send")
        )

    @staticmethod
    def _still_disagrees(candidate):
        return not dual_verdict(candidate, inject="no_flush").agrees

    def test_minimal_case_still_disagrees_and_is_strictly_smaller(self):
        case = self._disagreeing_case()
        assert self._still_disagrees(case)  # the predicate holds going in
        minimal = shrink_case(case, self._still_disagrees)
        assert self._still_disagrees(minimal)
        assert minimal.size < case.size
        # The fully shrunk bounds-check disagreement: no delay chain, the
        # narrow channel, no fence.
        assert minimal.shape.delay == 0
        assert minimal.shape.channel == "direct"
        assert minimal.shape.fence == "none"

    def test_shrinking_preserves_the_coordinates(self):
        case = self._disagreeing_case()
        minimal = shrink_case(case, self._still_disagrees)
        assert (minimal.seed, minimal.index) == (case.seed, case.index)

    def test_unshrinkable_case_comes_back_unchanged(self):
        case = case_from_shape(
            0, 0, GadgetShape("bounds_check", 0, "direct", "none")
        )
        minimal = shrink_case(case, self._still_disagrees)
        assert minimal.shape == case.shape

    def test_predicate_rejecting_everything_keeps_the_original(self):
        case = self._disagreeing_case()
        minimal = shrink_case(case, lambda candidate: False)
        assert minimal.shape == case.shape

    def test_every_accepted_step_shrank_monotonically(self):
        """The shrinker only ever moves to strictly smaller programs --
        checked by instrumenting the predicate with every size it saw."""
        case = self._disagreeing_case()
        sizes = []

        def predicate(candidate):
            ok = self._still_disagrees(candidate)
            if ok:
                sizes.append(candidate.size)
            return ok

        minimal = shrink_case(case, predicate)
        assert sizes, "shrinker never advanced"
        assert all(size < case.size for size in sizes)
        assert minimal.size == min(sizes)
