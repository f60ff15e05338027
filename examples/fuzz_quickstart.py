#!/usr/bin/env python
"""Quickstart for the differential fuzzing plane: ``repro.fuzz``.

The repo carries three independent leak oracles for the same question --
"does this gadget leak?":

* the **TSG oracle**: build the program's attack graph and check the
  structural leak criterion (missing security dependency on a transmitting
  instruction inside the speculative window),
* the **timing oracle**: run the program on the cycle-accurate OoO core
  and race the covert-channel transmission against the squash, and
* the **byte oracle**: whether the same run's Flush+Reload receive decodes
  exactly the planted secret.

``repro.fuzz`` generates seeded gadget programs (speculation source x
window delay x covert channel x fence placement) and pushes every one
through *all three* oracles.  Agreement on every generated program is the
fuzzed generalization of the paper's Theorem 1; a disagreement is a
soundness bug in one of the planes, auto-shrunk to a minimal reproducer
and pinned into a regression corpus.

This script runs a small clean campaign (everything agrees), then
deliberately breaks the timing oracle with the deterministic ``no_flush``
injection -- the harness skips the authorization flush, so speculation
resolves too fast and the timing plane calls leaking bounds-check gadgets
safe -- to show a disagreement being caught, shrunk and pinned.

Run from the repo root::

    PYTHONPATH=src python examples/fuzz_quickstart.py
"""

from __future__ import annotations

import tempfile

from repro.engine import Engine
from repro.fuzz import FuzzCorpus, fixture_from_entry

# -- 1. a clean campaign: all three oracles agree on every program ------
engine = Engine()
result = engine.run_fuzz_campaign(seed=0, count=40)
data = result.data
print(
    f"clean campaign: {data['executed']} programs, "
    f"{data['buckets']} attack-shape buckets, "
    f"{data['agreed']} agreed / {data['disagreed']} disagreed "
    f"({data['points_per_second']:.0f} programs/s)"
)
assert result.ok, "the oracles disagreed on a clean campaign!"

# -- 2. break one oracle on purpose: the campaign catches it ------------
broken = engine.run_fuzz_campaign(seed=0, count=40, inject="no_flush")
data = broken.data
print(
    f"\ninjected fault 'no_flush': {data['disagreed']} disagreements, "
    f"{data['shrunk']} shrunk to minimal reproducers"
)
assert not broken.ok and data["disagreed"] > 0

# -- 3. every disagreement is shrunk and pinned as a regression fixture --
with tempfile.TemporaryDirectory() as root:
    corpus = FuzzCorpus(root)
    summary = corpus.ingest(data)
    print(
        f"corpus: {summary['written']} fixture(s) pinned, "
        f"{summary['novel_buckets']} novel bucket(s)"
    )
    entry = next(corpus.load_fixtures())
    case = fixture_from_entry(entry)  # regenerated, never deserialized
    assert case.sha == entry["sha"]
    print(f"\nminimal reproducer ({case.size} instructions):")
    print(case.program.listing())

# The same campaign as a CLI session -- checkpointed, killable, resumable:
#
#   repro fuzz --seed 0 --count 500 --store cache/ --progress
#   ^C
#   repro fuzz --seed 0 --count 500 --store cache/ --resume
#   repro fuzz --seed 0 --count 40 --inject no_flush --corpus corpus/fuzz
