"""The disagreement / novelty corpus of the fuzzing plane.

Two kinds of campaign output accumulate here:

* **Disagreements** -- programs on which the three oracles (the TSG
  verdict, the measured race and the decoded byte) did not all agree.
  Each is auto-shrunk by the campaign and written as a pinned JSON
  fixture (``disagreement_<sha12>.json``) carrying the
  generator coordinates, the shape, the injection that produced it and the
  program listing.  ``tests/test_fuzz_corpus.py`` auto-loads the directory
  and replays every fixture against the oracles, so a disagreement, once
  seen, stays a regression case forever.
* **Agreements** -- bucketed by attack shape (``source/channel/fence``)
  into ``coverage.json``, turning Table-1-style coverage from a hand-curated
  registry into a monotonically growing census of the gadget space.

Fixtures regenerate their program from ``(seed, index)`` or an explicit
shape rather than deserializing instructions: the generator is the single
source of truth for program construction, and the pinned ``sha`` detects
any drift between the fixture and what the generator now builds.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

from .generator import FuzzCase, GadgetShape, case_from_shape

#: Fixture schema tag; bump on incompatible layout changes.
DISAGREEMENT_SCHEMA = "repro-fuzz-disagreement/v1"

#: File name of the coverage census inside a corpus directory.
COVERAGE_FILE = "coverage.json"


def fixture_from_entry(entry: Dict[str, object]) -> FuzzCase:
    """Rebuild the program a disagreement fixture pins.

    The shape recorded in the fixture is authoritative (shrunk shapes no
    longer match what ``make_case`` would draw at the same coordinates).
    """
    shape = GadgetShape.from_dict(entry["shape"])  # type: ignore[arg-type]
    return case_from_shape(int(entry["seed"]), int(entry["index"]), shape)


class FuzzCorpus:
    """A directory of pinned disagreement fixtures plus a coverage census."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)

    # -- coverage ----------------------------------------------------------
    def coverage(self) -> Dict[str, int]:
        path = self.root / COVERAGE_FILE
        if not path.exists():
            return {}
        data = json.loads(path.read_text())
        return {str(bucket): int(count) for bucket, count in data.items()}

    def _write_coverage(self, census: Dict[str, int]) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.root / COVERAGE_FILE
        path.write_text(json.dumps(dict(sorted(census.items())), indent=2) + "\n")

    # -- fixtures ----------------------------------------------------------
    def fixture_paths(self) -> List[Path]:
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("disagreement_*.json"))

    def load_fixtures(self) -> Iterator[Dict[str, object]]:
        for path in self.fixture_paths():
            entry = json.loads(path.read_text())
            if entry.get("schema") != DISAGREEMENT_SCHEMA:
                raise ValueError(
                    f"{path}: unknown corpus fixture schema "
                    f"{entry.get('schema')!r}"
                )
            yield entry

    def write_disagreement(self, entry: Dict[str, object]) -> Path:
        """Pin one (already shrunk) disagreement as a regression fixture."""
        sha = str(entry["sha"])
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.root / f"disagreement_{sha[:12]}.json"
        payload = {"schema": DISAGREEMENT_SCHEMA}
        payload.update(entry)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return path

    # -- campaign ingestion ------------------------------------------------
    def ingest(self, data: Dict[str, object]) -> Dict[str, int]:
        """Fold one campaign envelope's ``data`` into the corpus.

        Writes a fixture per disagreement (deduplicated on the shrunk
        program's sha) and merges the campaign's coverage buckets into the
        census.  Returns ``{"written": .., "novel_buckets": ..}``.
        """
        written = 0
        known = {path.name for path in self.fixture_paths()}
        for entry in data.get("disagreements", ()):  # type: ignore[union-attr]
            pinned = dict(entry)
            if "shape" not in pinned:
                # Campaign rows carry the shape as flat point fields.
                pinned["shape"] = {
                    axis: pinned[axis]
                    for axis in ("source", "delay", "channel", "fence")
                    if axis in pinned
                }
            shrunk = pinned.get("shrunk")
            if isinstance(shrunk, dict):
                # Pin the minimal reproducer; keep the original coordinates
                # and shape alongside for provenance.
                pinned["original_shape"] = pinned.get("shape")
                pinned["shape"] = shrunk.get("shape", pinned.get("shape"))
                pinned["sha"] = shrunk.get("sha", pinned.get("sha"))
                pinned["listing"] = shrunk.get("listing", pinned.get("listing"))
            name = f"disagreement_{str(pinned['sha'])[:12]}.json"
            if name in known:
                continue
            self.write_disagreement(pinned)
            known.add(name)
            written += 1
        census = self.coverage()
        novel = 0
        buckets = data.get("coverage") or {}
        for bucket, count in buckets.items():  # type: ignore[union-attr]
            if bucket not in census:
                novel += 1
            census[bucket] = census.get(bucket, 0) + int(count)
        if buckets:
            self._write_coverage(census)
        return {"written": written, "novel_buckets": novel}
