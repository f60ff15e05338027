"""The fuzzing corpus: ingestion mechanics and the pinned regression set.

The second half auto-loads ``corpus/fuzz/`` -- every disagreement fixture
ever pinned by a campaign replays against the oracles: the generator must
still build the exact pinned program (sha match), the recorded injection
must still split the oracles, and the *clean* oracles must still agree on
the same program.  A fixture, once written, is a regression test forever.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.engine import Engine
from repro.fuzz import (
    DISAGREEMENT_SCHEMA,
    FuzzCorpus,
    fixture_from_entry,
)
from repro.fuzz.generator import dual_verdict

pytestmark = pytest.mark.fuzz

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus" / "fuzz"


def _campaign_data(count: int = 30):
    return Engine().run_fuzz_campaign(
        seed=0, count=count, inject="no_flush"
    ).data


class TestIngestion:
    def test_ingest_writes_one_fixture_per_unique_sha(self, tmp_path):
        data = _campaign_data()
        corpus = FuzzCorpus(tmp_path / "corpus")
        summary = corpus.ingest(data)
        assert summary["written"] == len(corpus.fixture_paths())
        assert summary["written"] >= 1
        # Shrunk disagreements collapse onto their minimal program: far
        # fewer fixtures than raw disagreement rows.
        assert summary["written"] <= data["disagreed"]

    def test_reingest_is_idempotent_on_fixtures(self, tmp_path):
        data = _campaign_data()
        corpus = FuzzCorpus(tmp_path / "corpus")
        corpus.ingest(data)
        before = {path.name for path in corpus.fixture_paths()}
        again = corpus.ingest(data)
        assert again["written"] == 0
        assert again["novel_buckets"] == 0
        assert {path.name for path in corpus.fixture_paths()} == before

    def test_coverage_census_accumulates(self, tmp_path):
        corpus = FuzzCorpus(tmp_path / "corpus")
        corpus.ingest({"disagreements": [], "coverage": {"a/b/fence=none": 2}})
        summary = corpus.ingest(
            {"disagreements": [], "coverage": {"a/b/fence=none": 3, "c/d/fence=none": 1}}
        )
        assert summary["novel_buckets"] == 1
        assert corpus.coverage() == {"a/b/fence=none": 5, "c/d/fence=none": 1}

    def test_unshrunk_rows_pin_their_flat_shape(self, tmp_path):
        row = {
            "seed": 0, "index": 3, "sha": "ab" * 32,
            "source": "bounds_check", "delay": 2,
            "channel": "aliased", "fence": "none",
            "inject": "no_flush",
        }
        corpus = FuzzCorpus(tmp_path / "corpus")
        corpus.ingest({"disagreements": [row], "coverage": {}})
        (entry,) = corpus.load_fixtures()
        assert entry["shape"] == {
            "source": "bounds_check", "delay": 2,
            "channel": "aliased", "fence": "none",
        }
        rebuilt = fixture_from_entry(entry)
        assert rebuilt.shape.channel == "aliased"

    def test_unknown_schema_is_rejected(self, tmp_path):
        corpus = FuzzCorpus(tmp_path / "corpus")
        path = corpus.write_disagreement(
            {"sha": "cd" * 32, "seed": 0, "index": 0,
             "shape": {"source": "bounds_check", "delay": 0,
                       "channel": "direct", "fence": "none"}}
        )
        tampered = json.loads(path.read_text())
        tampered["schema"] = "bogus/v0"
        path.write_text(json.dumps(tampered))
        with pytest.raises(ValueError, match="schema"):
            list(corpus.load_fixtures())

    def test_missing_corpus_is_empty_not_an_error(self, tmp_path):
        corpus = FuzzCorpus(tmp_path / "nowhere")
        assert corpus.fixture_paths() == []
        assert corpus.coverage() == {}
        assert list(corpus.load_fixtures()) == []


# ---------------------------------------------------------------------------
# The committed regression corpus.
# ---------------------------------------------------------------------------

COMMITTED = list(FuzzCorpus(CORPUS_DIR).load_fixtures())


def test_the_committed_corpus_is_not_empty():
    """The repo ships at least one pinned disagreement reproducer."""
    assert COMMITTED, f"no fixtures under {CORPUS_DIR}"
    assert FuzzCorpus(CORPUS_DIR).coverage()


@pytest.mark.parametrize(
    "entry", COMMITTED, ids=[str(e["sha"])[:12] for e in COMMITTED]
)
class TestCommittedFixtures:
    def test_generator_still_builds_the_pinned_program(self, entry):
        case = fixture_from_entry(entry)
        assert case.sha == entry["sha"], (
            "generator drift: the corpus pins a program the generator no "
            "longer builds at these coordinates"
        )
        if "listing" in entry:
            assert case.program.listing() == entry["listing"]

    def test_recorded_injection_still_reproduces_the_disagreement(self, entry):
        assert entry.get("schema") == DISAGREEMENT_SCHEMA
        case = fixture_from_entry(entry)
        verdict = dual_verdict(case, inject=entry.get("inject"))
        assert not verdict.agrees, (
            "the pinned disagreement no longer reproduces under "
            f"inject={entry.get('inject')!r}"
        )

    def test_clean_oracles_agree_on_the_same_program(self, entry):
        case = fixture_from_entry(entry)
        assert dual_verdict(case).agrees, (
            "the clean oracles disagree on a corpus program -- a real "
            "soundness regression, not an injected one"
        )
