"""Differential fuzzing over the three leak oracles.

``repro.fuzz`` synthesizes seeded gadget programs (:mod:`.generator`),
streams them through the repo's three independent leak oracles (the TSG
verdict, the measured transmit/squash race and the decoded byte) as
checkpointed, resumable campaign grids (:mod:`.campaign`), and pins every
oracle disagreement -- auto-shrunk to a minimal reproducer -- in a
regression corpus while bucketing agreements into Table-1-style coverage
(:mod:`.corpus`).
"""

from .campaign import (
    FUZZ_EVENTS,
    FuzzCampaign,
    fuzz_events_counter,
    point_spec,
)
from .corpus import DISAGREEMENT_SCHEMA, FuzzCorpus, fixture_from_entry
from .generator import (
    CHANNELS,
    FENCES,
    FUZZ_SECRET,
    INJECTIONS,
    MAX_DELAY,
    SOURCES,
    FuzzCase,
    FuzzVerdict,
    GadgetShape,
    build_program,
    case_from_shape,
    dual_verdict,
    iter_cases,
    make_case,
    make_shape,
    shrink_case,
)

__all__ = [
    "CHANNELS",
    "DISAGREEMENT_SCHEMA",
    "FENCES",
    "FUZZ_EVENTS",
    "FUZZ_SECRET",
    "FuzzCampaign",
    "FuzzCase",
    "FuzzCorpus",
    "FuzzVerdict",
    "GadgetShape",
    "INJECTIONS",
    "MAX_DELAY",
    "SOURCES",
    "build_program",
    "case_from_shape",
    "dual_verdict",
    "fixture_from_entry",
    "fuzz_events_counter",
    "iter_cases",
    "make_case",
    "make_shape",
    "point_spec",
    "shrink_case",
]
