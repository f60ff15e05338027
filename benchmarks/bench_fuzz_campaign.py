"""E22 -- The differential fuzzing campaign: dual-oracle throughput.

Asserts the acceptance properties of ``repro.fuzz``: a seeded campaign
pushes whole generated gadget programs through BOTH leak oracles (the
TSG structural verdict and the cycle-accurate transmit/squash race) at
>= the ``fuzz_points_per_second_min`` floor, with *zero* oracle
disagreements and zero quarantined points on a clean run -- the two
oracles answering differently on any generated gadget is a soundness
regression, not a perf one.  The same record lands in BENCH_core.json
as the ``fuzz-throughput`` benchmark, enforced by ``repro perf --check``.
"""

from __future__ import annotations

import pytest

from repro.engine import Engine
from repro.fuzz import make_case
from repro.perf import gate, measure_fuzz_throughput


@pytest.mark.experiment("E22")
def test_fuzz_campaign_meets_the_throughput_floor():
    """The acceptance bar: programs/s through both oracles >= the floor,
    disagreements pinned at zero."""
    record = measure_fuzz_throughput(count=96, repeats=2)
    print(
        f"\nfuzz campaign: {record['count']} generated programs across "
        f"{record['buckets']} buckets -> {record['points_per_second']:.0f} "
        f"programs/s, {record['disagreed']} disagreements"
    )
    assert record["executed"] == record["count"]
    for field in ("points_per_second", "disagreed", "quarantined"):
        assert gate("fuzz-throughput", field).holds(record[field]), field


@pytest.mark.experiment("E22")
def test_campaign_rate_scales_from_generation_rate(benchmark):
    """Generation alone is orders of magnitude cheaper than the oracles:
    the campaign rate is oracle-bound, so the floor grades the oracles."""
    cases = benchmark(lambda: [make_case(0, i) for i in range(96)])
    assert len({case.sha for case in cases}) > 1


@pytest.mark.experiment("E22")
@pytest.mark.slow
def test_warm_campaign_replay_is_free():
    """A second identical campaign against the same store is a warm
    envelope hit -- no oracle re-runs at all."""
    from repro.store import MemoryStore

    engine = Engine(store=MemoryStore())
    cold = engine.run_fuzz_campaign(seed=3, count=64)
    warm = engine.run_fuzz_campaign(seed=3, count=64)
    assert cold.cache != "warm"
    assert warm.cache == "warm"
    assert warm.data == cold.data
