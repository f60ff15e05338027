"""The differential fuzzing campaign runner.

A :class:`FuzzCampaign` streams a seeded block of generated gadgets through
both oracle planes as first-class ``fuzz_point`` specs: every point is
content-addressed (its spec pins the generator coordinates *and* the
program's content hash), checkpointed through the session's
:class:`~repro.store.ArtifactStore`, sharded over :meth:`Engine.iter_grid`
under :class:`~repro.engine.FailurePolicy` supervision, and therefore
resumable -- a killed campaign relaunched against the same store recomputes
only the points never served (``repro fuzz --resume``).

Points run in bounded chunks so a wall-clock ``budget`` can stop the
campaign between chunks without abandoning in-flight work; the chunks are
plain explicit grids, so chunking never changes a point's spec or hash.

Campaign-level accounting rides on the session's metrics registry
(``repro_fuzz_events_total{event=generated|agreed|disagreed|shrunk|novel}``)
and its tracer (``fuzz.generate`` around program synthesis, ``fuzz.point``
around each streamed verdict).
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

from ..scenario import ScenarioGrid, ScenarioSpec
from .generator import (
    FUZZ_SECRET,
    FuzzCase,
    dual_verdict,
    make_case,
    shrink_case,
)

#: Points per explicit sub-grid: the budget-check granularity.
CHUNK_POINTS = 64

#: Disagreements shrunk per campaign (each shrink re-runs the oracles a
#: handful of times; the cap bounds a pathological campaign's tail).
MAX_SHRINKS = 8

#: The five campaign event streams, pre-touched so the series render at zero.
FUZZ_EVENTS = ("generated", "agreed", "disagreed", "shrunk", "novel")


def fuzz_events_counter(metrics):
    """The shared campaign counter on a session's metrics registry."""
    counter = metrics.counter(
        "repro_fuzz_events_total",
        "Differential fuzzing campaign events by outcome.",
        labelnames=("event",),
    )
    for event in FUZZ_EVENTS:
        counter.touch(event=event)
    return counter


def point_spec(
    seed: int,
    index: int,
    *,
    secret: Optional[int] = None,
    model: Optional[str] = None,
    inject: Optional[str] = None,
    sha: Optional[str] = None,
) -> ScenarioSpec:
    """The content-addressed spec of one fuzz point.

    ``sha`` pins the generated program's content hash into the spec: if the
    generator ever changes what it builds at these coordinates, the spec
    hash changes with it and stale checkpoints can never be served.
    """
    return ScenarioSpec(
        "fuzz_point",
        seed=seed,
        index=index,
        secret=secret,
        model=model,
        inject=inject,
        sha=sha,
    )


class FuzzCampaign:
    """One seeded differential campaign bound to an engine session."""

    def __init__(
        self,
        engine,
        *,
        seed: int,
        count: int,
        secret: Optional[int] = None,
        model: Optional[str] = None,
        inject: Optional[str] = None,
        budget: Optional[float] = None,
        chunk: int = CHUNK_POINTS,
        max_shrinks: int = MAX_SHRINKS,
    ):
        if count < 1:
            raise ValueError("a campaign needs count >= 1")
        self.engine = engine
        self.seed = int(seed)
        self.count = int(count)
        self.secret = secret
        self.model = model
        self.inject = inject
        self.budget = budget
        self.chunk = max(1, int(chunk))
        self.max_shrinks = max_shrinks

    @classmethod
    def from_spec(cls, engine, spec: ScenarioSpec) -> "FuzzCampaign":
        return cls(
            engine,
            seed=int(spec.get("seed")),
            count=int(spec.get("count")),
            secret=spec.get("secret"),
            model=spec.get("model"),
            inject=spec.get("inject"),
            budget=spec.get("budget"),
        )

    def spec(self) -> ScenarioSpec:
        return ScenarioSpec(
            "fuzz_campaign",
            seed=self.seed,
            count=self.count,
            secret=self.secret,
            model=self.model,
            inject=self.inject,
            budget=self.budget,
        )

    def point_specs(self, cases: List[FuzzCase]) -> List[ScenarioSpec]:
        return [
            point_spec(
                self.seed,
                case.index,
                secret=self.secret,
                model=self.model,
                inject=self.inject,
                sha=case.sha,
            )
            for case in cases
        ]

    # ------------------------------------------------------------------
    def execute(
        self,
        parallel: Optional[int] = None,
        on_point: Optional[Callable[[object], None]] = None,
    ) -> Dict[str, object]:
        """Run the campaign; returns the plain-data envelope body.

        This is the pure computation behind the ``fuzz_campaign`` spec kind
        (the engine's executor and ``repro fuzz`` both land here); campaign
        warm-caching and store writes belong to the caller.
        """
        engine = self.engine
        events = fuzz_events_counter(engine.metrics)
        tracer = engine._active_tracer()
        started = time.monotonic()

        if tracer is not None:
            with tracer.span("fuzz.generate", seed=self.seed, count=self.count):
                cases = [make_case(self.seed, i) for i in range(self.count)]
        else:
            cases = [make_case(self.seed, i) for i in range(self.count)]
        events.inc(len(cases), event="generated")
        specs = self.point_specs(cases)

        coverage: Dict[str, int] = {}
        disagreements: List[Dict[str, object]] = []
        agreed = disagreed = quarantined = executed = 0
        budget_exhausted = False
        for base in range(0, len(specs), self.chunk):
            if self.budget is not None and time.monotonic() - started > self.budget:
                budget_exhausted = True
                break
            chunk_specs = specs[base : base + self.chunk]
            grid = ScenarioGrid.explicit(chunk_specs)
            for point in engine.iter_grid(grid, parallel=parallel):
                executed += 1
                result = point.result
                row = result.data
                if result.kind == "error":
                    quarantined += 1
                else:
                    bucket = str(row.get("bucket"))
                    if bucket not in coverage:
                        events.inc(event="novel")
                    coverage[bucket] = coverage.get(bucket, 0) + 1
                    if row.get("agrees"):
                        agreed += 1
                        events.inc(event="agreed")
                    else:
                        disagreed += 1
                        events.inc(event="disagreed")
                        disagreements.append(dict(row))
                if tracer is not None:
                    tracer.finish(
                        tracer.span(
                            "fuzz.point",
                            detached=True,
                            index=row.get("index", point.index),
                            agrees=bool(row.get("agrees")),
                        )
                    )
                if on_point is not None:
                    on_point(point)

        shrunk_count = self._shrink_disagreements(disagreements, events)
        elapsed = time.monotonic() - started
        return {
            "seed": self.seed,
            "count": self.count,
            "executed": executed,
            "secret": self.secret if self.secret is not None else FUZZ_SECRET,
            "model": self.model,
            "inject": self.inject,
            "budget": self.budget,
            "budget_exhausted": budget_exhausted,
            "generated": len(cases),
            "agreed": agreed,
            "disagreed": disagreed,
            "quarantined": quarantined,
            "shrunk": shrunk_count,
            "coverage": dict(sorted(coverage.items())),
            "buckets": len(coverage),
            "disagreements": disagreements,
            "elapsed": elapsed,
            "points_per_second": (executed / elapsed) if elapsed > 0 else None,
        }

    def _shrink_disagreements(
        self, disagreements: List[Dict[str, object]], events
    ) -> int:
        """Shrink each disagreement row in place; returns the shrunk count."""
        from .generator import GadgetShape, case_from_shape

        shrunk_count = 0
        for row in disagreements[: self.max_shrinks]:
            shape = GadgetShape.from_dict(
                {
                    "source": row["source"],
                    "delay": row["delay"],
                    "channel": row["channel"],
                    "fence": row["fence"],
                }
            )
            case = case_from_shape(int(row["seed"]), int(row["index"]), shape)

            def still_disagrees(candidate: FuzzCase) -> bool:
                verdict = dual_verdict(
                    candidate,
                    secret=self.secret if self.secret is not None else FUZZ_SECRET,
                    inject=self.inject,
                    engine=self.engine,
                )
                return not verdict.agrees

            minimal = shrink_case(case, still_disagrees)
            row["shrunk"] = {
                "shape": minimal.shape.to_dict(),
                "sha": minimal.sha,
                "instructions": minimal.size,
                "listing": minimal.program.listing(),
            }
            shrunk_count += 1
            events.inc(event="shrunk")
        return shrunk_count
