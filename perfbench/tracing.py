"""In-memory span tracer for the benchmark's traced run.

The tracer wraps the public functions that ``mta_engine.cli`` and
``mta_engine.pipeline`` call into each layer by patching module attributes
for the duration of a pass; nothing inside ``src/`` is instrumented. A span
is ``[name, start, end, parent_index]``. Counts are recorded at the same
boundaries by observers that read a wrapped call's arguments and result.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from typing import Callable, Iterator

from mta_engine import attribution, cli, pipeline, rng
from workloads import STAGES


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, fn: Callable, name: str, observe: Callable | None = None) -> Callable:
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def busy_s(self, name: str) -> float:
        """Total time in spans called ``name``."""
        return sum(end - start for name_, start, end, _ in self.spans if name_ == name)

    def self_s(self, name: str) -> float:
        """Duration of the spans called ``name`` minus that of their direct children."""
        own = {i: s[2] - s[1] for i, s in enumerate(self.spans) if s[0] == name}
        for _, start, end, parent in self.spans:
            if parent in own:
                own[parent] -= end - start
        return sum(own.values())


def _count_simulated(tracer: Tracer, args, result) -> None:
    touchpoints, conversions, _ = result
    tracer.add("rct.touchpoints", len(touchpoints))
    tracer.add("rct.conversions", len(conversions))


def _count_parsed(tracer: Tracer, args, result) -> None:
    tracer.add("events.records", len(result.touchpoints) + len(result.conversions))
    tracer.add("events.lines_skipped", result.skipped)


def _count_journeys(tracer: Tracer, args, result) -> None:
    tracer.counts["events.journeys"] = len(result)


def _count_attributable(tracer: Tracer, args, result) -> None:
    attributable, _ = result
    tracer.counts["events.attributable"] = len(attributable)
    tracer.counts["events.mean_journey_len"] = (
        statistics.fmean(len(j.touchpoints) for j in attributable) if attributable else 0.0
    )


def _count_mda_loss(tracer: Tracer, args, result) -> None:
    tracer.counts["attribution.mda_final_loss"] = result.training.final_loss


def _count_loo_evals(tracer: Tracer, args, result) -> None:
    _, journey = args
    tracer.add("attribution.mda_loo_evals", len(journey.touchpoints) + 1)


def _count_rct_rows(tracer: Tracer, args, result) -> None:
    tracer.counts["calibration.rct_rows"] = sum(1 for row in result if row.target is not None)


def _count_active_set(tracer: Tracer, args, result) -> None:
    tracer.counts["nnls.active_set_size"] = sum(
        1 for weights in result.weights_by_group.values() for w in weights if w > 0.0
    )


def _count_mta_rows(tracer: Tracer, args, result) -> None:
    tracer.counts["credits.mta_rows"] = len(result)


def _count_model_credit_rows(tracer: Tracer, args, result) -> None:
    tracer.counts["pipeline.model_credit_rows"] = len(result)


# (module, attribute, span name, observer). Every caller (cli, pipeline, rct,
# attribution) looks these names up in the module's namespace at call time,
# so patching the attribute reaches every call.
TARGETS = (
    (cli, "simulate", "rct.simulate", _count_simulated),
    (cli, "estimate_all", "rct.estimate_all", None),
    (rng, "id_hashes", "rng.id_hashes", None),
    (cli, "parse_event_log", "events.parse", _count_parsed),
    (cli, "build_journeys", "events.build_journeys", _count_journeys),
    (pipeline, "split_attributable", "pipeline.split_attributable", _count_attributable),
    (pipeline, "train_attributor", "pipeline.train_attributor", None),
    (attribution, "train_mda", "attribution.train_mda", _count_mda_loss),
    (pipeline, "ensemble_credits", "pipeline.ensemble_credits", None),
    (attribution, "lta_credits", "attribution.credits.lta", None),
    (attribution, "linear_credits", "attribution.credits.linear", None),
    (attribution, "decay_credits", "attribution.credits.decay", None),
    (attribution, "mda_credits", "attribution.credits.mda", _count_loo_evals),
    (pipeline, "calibration_rows", "pipeline.calibration_rows", None),
    (pipeline, "aggregate_campaign_features", "calibration.aggregate", _count_rct_rows),
    (pipeline, "fit_with_cv", "calibration.fit_cv", _count_active_set),
    (pipeline, "score_all", "credits.score_all", _count_mta_rows),
    (pipeline, "model_credit_records", "pipeline.model_credit_records", _count_model_credit_rows),
    (cli, "aggregate_shares", "credits.aggregate_shares", None),
    (cli, "shares_from_totals", "credits.aggregate_shares", None),
)


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Patch every target with a traced wrapper; restore the originals on exit."""
    originals = [(module, attr, getattr(module, attr)) for module, attr, _, _ in TARGETS]
    try:
        for (module, attr, name, observe), (_, _, fn) in zip(TARGETS, originals):
            setattr(module, attr, tracer.wrap(fn, name, observe))
        yield tracer
    finally:
        for module, attr, fn in originals:
            setattr(module, attr, fn)


# Per-layer busy times (s): metric name -> span name.
LAYER_TIMES = {
    "rng.id_hashes_s": "rng.id_hashes",
    "rct.simulate_s": "rct.simulate",
    "rct.estimate_all_s": "rct.estimate_all",
    "events.parse_s": "events.parse",
    "events.build_journeys_s": "events.build_journeys",
    "attribution.train_mda_s": "attribution.train_mda",
    **{f"attribution.credits.{m}_s": f"attribution.credits.{m}" for m in attribution.MODEL_NAMES},
    "calibration.aggregate_s": "calibration.aggregate",
    "calibration.fit_cv_s": "calibration.fit_cv",
    "credits.score_all_s": "credits.score_all",
    "credits.aggregate_shares_s": "credits.aggregate_shares",
    "pipeline.model_credit_records_s": "pipeline.model_credit_records",
}

# Per-layer counts and values: metric name -> unit.
LAYER_COUNTS = {
    "rct.touchpoints": "count",
    "rct.conversions": "count",
    "events.records": "count",
    "events.lines_skipped": "count",
    "events.journeys": "count",
    "events.attributable": "count",
    "events.mean_journey_len": "touchpoints",
    "attribution.mda_loo_evals": "count",
    "attribution.mda_final_loss": "nats",
    "calibration.rct_rows": "count",
    "nnls.active_set_size": "count",
    "credits.mta_rows": "count",
    "pipeline.model_credit_rows": "count",
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Busy times (s) and counts of one traced pass, plus each cli stage's
    self time: its wall time not covered by a traced call into a layer."""
    metrics = {name: tracer.busy_s(span) for name, span in LAYER_TIMES.items()}
    for stage in STAGES:
        metrics[f"cli.{stage}.self_s"] = tracer.self_s(f"cli.{stage}")
    for name in LAYER_COUNTS:
        metrics[name] = float(tracer.counts.get(name, 0))
    return metrics
