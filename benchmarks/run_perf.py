#!/usr/bin/env python
"""``repro perf`` from a checkout, with the same flags (``repro perf --help``).

``python benchmarks/run_perf.py [-o FILE]`` appends a run stamped with the
sources' digest: the exact grid, service and fuzz facts plus one perfbench
result line per workload in ``BENCHMARK.json``.  ``--check [--allow-stale]``
grades the latest run against the gate table.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
from repro.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(["perf", *sys.argv[1:]]))
