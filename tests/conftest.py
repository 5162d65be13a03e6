from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from itertools import islice
from typing import Iterable, Mapping, Sequence

import numpy as np
import pytest

from mta_engine import events
from mta_engine.attribution import MdaModel, ModelCredits, TrainingInfo
from mta_engine.calibration import CalibrationModel, CampaignFeatureRow, _predict, _warn_gaps
from mta_engine.cli import CONFIG_KEYS
from mta_engine.events import (
    ConversionEvent, ConversionTable, InteractionKind, Journey, Journeys, Touchpoint,
    TouchpointTable)
from mta_engine.pipeline import score_all
from mta_engine.rct import CampaignSpec, RctResult

UTC = timezone.utc
T0 = datetime(2025, 3, 1, 12, 0, 0, tzinfo=UTC)


def mk_tp(
    tp_id: str,
    customer: str = "c1",
    campaign: str = "campA",
    channel: str = "Upper",
    kind: str = "view",
    ts: datetime = T0,
    ad_product: str = "display",
) -> Touchpoint:
    return Touchpoint(tp_id, customer, campaign, channel, ad_product, InteractionKind(kind), ts)


def mk_conv(conv_id: str = "x1", customer: str = "c1", ts: datetime = T0, units: int = 1) -> ConversionEvent:
    return ConversionEvent(conv_id, customer, ts, units)


def mk_journey(tps, conv=None, customer: str = "c1") -> Journey:
    return Journey(customer, tuple(tps), conv)


def touchpoint_table(touchpoints: Iterable[Touchpoint]) -> TouchpointTable:
    """The table of some touchpoint objects, in their order, encoded by the
    reader's own row encoder a batch of ``events._BATCH_ROWS`` at a time;
    stamps keep their microseconds."""
    builder = events._TableBuilder()
    rows = iter(touchpoints)
    while batch := list(islice(rows, events._BATCH_ROWS)):
        builder.add([
            (tp.touchpoint_id, tp.customer_id, tp.campaign_id, tp.channel, tp.ad_product,
             tp.interaction_kind.value, events._utc_iso(tp.timestamp))
            for tp in batch
        ])
    return builder.build()


def conversion_table(conversions: Iterable[ConversionEvent]) -> ConversionTable:
    """The table of some conversion objects, in their order, each encoded by
    the reader's own row rule from its record; stamps keep their
    microseconds."""
    return ConversionTable.from_rows([
        events._conversion_row({
            "conversion_id": c.conversion_id,
            "customer_id": c.customer_id,
            "timestamp": c.timestamp.isoformat(),
            "units": c.units,
        })
        for c in conversions
    ])


def journey_table(journeys: Iterable[Journey]) -> Journeys:
    """The :class:`Journeys` table of some journey objects, in their order."""
    journeys = list(journeys)
    table = touchpoint_table(tp for j in journeys for tp in j.touchpoints)
    lengths = np.array([len(j.touchpoints) for j in journeys], dtype=np.intp)
    stop = np.cumsum(lengths)
    converted = np.array([j.conversion is not None for j in journeys], dtype=bool)
    customer, customers = events.label_codes([j.customer_id for j in journeys])
    return Journeys(
        table, np.arange(len(table)), stop - lengths, stop, customer, customers,
        conversion_table(j.conversion for j in journeys if j.conversion is not None),
        np.where(converted, np.cumsum(converted) - 1, -1),
    )


def credit_table(
    journeys: Sequence[Journey], credits_by_model: Mapping[str, Sequence[Sequence[float]]]
) -> ModelCredits:
    """The credit table of hand-made credits: ``credits_by_model[name][i]`` are
    model ``name``'s credits for the touchpoints of ``journeys[i]``, the
    table ``pipeline.ensemble_credits`` builds from its kernels' credits."""
    labels = [
        (j.conversion.conversion_id, tp.touchpoint_id, tp.campaign_id, tp.channel, tp.ad_product)
        for j in journeys for tp in j.touchpoints
    ]
    units = np.array([float(j.conversion.units) for j in journeys for _ in j.touchpoints])
    return ModelCredits(labels, units, {
        name: np.array([c for per_journey in credits for c in per_journey], dtype=np.float64)
        for name, credits in credits_by_model.items()
    })


@dataclass(frozen=True, slots=True)
class CreditRow:
    """One touchpoint's credit for one conversion, as an object: a credit
    table's label fields and the credit. The package's tables hold columns."""

    conversion_id: str
    touchpoint_id: str
    campaign_id: str
    channel: str
    ad_product: str
    credit: float


def credit_rows(table: ModelCredits, name: str = "mta") -> list[CreditRow]:
    """Column ``name`` of a credit table as ``CreditRow`` objects: its labels and credits."""
    return [CreditRow(*label, c) for label, c in zip(table.labels, table.scaled(name).tolist())]


def score_one(model, credits_by_model, journey):
    """``score_all``'s credit rows for one journey; ``credits_by_model`` maps each
    model's name to its credits for that journey's touchpoints."""
    per_journey = {n: [credits] for n, credits in credits_by_model.items()}
    return credit_rows(score_all(model, credit_table([journey], per_journey)))


def feature_vector(feature_names: Sequence[str], touchpoints: Sequence[Touchpoint]) -> np.ndarray:
    """The MDA feature vector of one journey, by its definition: the oracle
    for the training matrix and the leave-one-out credits."""
    x = np.zeros(len(feature_names))
    channel_counts: dict[str, int] = {}
    n_clicks = 0
    for tp in touchpoints:
        channel_counts[tp.channel] = channel_counts.get(tp.channel, 0) + 1
        n_clicks += tp.interaction_kind is InteractionKind.CLICK
    for i, name in enumerate(feature_names):
        if name == "n_clicks":
            x[i] = n_clicks
        elif name.startswith("channel_count:"):
            x[i] = channel_counts.get(name.split(":", 1)[1], 0)
        else:
            raise ValueError(f"unknown MDA feature {name!r}")
    return x


# The training record of a hand-made MDA model, which no fit produced.
UNTRAINED = TrainingInfo(0, 0.0, 0.0, 0.0, False)


def by_touchpoint_id(journey: Journey, credits: Sequence[float]) -> dict[str, float]:
    """A kernel's credits for ``journey`` as ``{touchpoint_id: credit}``."""
    assert len(credits) == len(journey.touchpoints)
    return {tp.touchpoint_id: c for tp, c in zip(journey.touchpoints, credits)}


def predict_proba(model: MdaModel, journey: Journey) -> float:
    """The MDA's conversion probability for one journey."""
    return model._proba(feature_vector(model.feature_names, journey.touchpoints))


def format_timestamp(ts: datetime) -> str:
    """Render a UTC timestamp as RFC 3339 with millisecond precision; the
    year has four digits, as it does not from ``strftime`` before 1000."""
    ts = ts.astimezone(timezone.utc).replace(tzinfo=None)
    return ts.isoformat(timespec="milliseconds") + "Z"


def touchpoint_to_record(tp: Touchpoint) -> dict:
    return {
        "touchpoint_id": tp.touchpoint_id,
        "customer_id": tp.customer_id,
        "campaign_id": tp.campaign_id,
        "channel": tp.channel,
        "ad_product": tp.ad_product,
        "interaction_kind": tp.interaction_kind.value,
        "timestamp": format_timestamp(tp.timestamp),
    }


def conversion_to_record(conv: ConversionEvent) -> dict:
    return {
        "conversion_id": conv.conversion_id,
        "customer_id": conv.customer_id,
        "timestamp": format_timestamp(conv.timestamp),
        "units": conv.units,
    }


def predict_campaign(model: CalibrationModel, row: CampaignFeatureRow) -> float:
    """Predicted RCT conversions for one campaign row (clamped at 0), warning
    of what the prediction counted as 0, as cross-validation does."""
    value, gaps = _predict(model, row)
    _warn_gaps(Counter(gaps))
    return value


def config_keys(keys=CONFIG_KEYS, prefix=""):
    """(dotted path, Key) of every config key; ``campaigns[]`` is each campaign."""
    for name, key in keys.items():
        yield prefix + name, key
        if key.keys is not None:
            yield from config_keys(key.keys, prefix + name + ("." if key.type == "object" else "[]."))


def nnls_brute_force(A, b):
    """Exhaustive active-set oracle for small NNLS instances.

    Solves the unconstrained least-squares problem on every subset of
    columns, keeps the candidates whose restricted solution is nonnegative,
    and returns the feasible candidate with the smallest residual. The NNLS
    optimum is always among these candidates, so this is an independent
    check for :func:`mta_engine.calibration.nnls` (exponential in the column count;
    intended for n <= ~12).
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    best_x = np.zeros(n)
    best_rss = float(np.linalg.norm(b))
    for mask in range(1, 1 << n):
        cols = [j for j in range(n) if mask >> j & 1]
        sol = np.linalg.lstsq(A[:, cols], b, rcond=None)[0]
        if np.any(sol < 0.0):
            continue
        x = np.zeros(n)
        x[cols] = sol
        rss = float(np.linalg.norm(A @ x - b))
        if rss < best_rss:
            best_rss = rss
            best_x = x
    return best_x, best_rss


def exact_rct(campaign_id: str, incremental: float) -> RctResult:
    """A zero-noise RCT result for fixtures with hand-picked targets."""
    return RctResult(
        campaign_id=campaign_id,
        n_treatment=1000,
        n_holdout=1000,
        conv_treatment=0.0,
        conv_holdout=0.0,
        incremental_conversions=incremental,
        std_error=0.0,
        ci_low=incremental,
        ci_high=incremental,
    )


@pytest.fixture
def credit_example():
    """Three converting customers touched by Upper, Lower, or both.

    Customer 2 saw Upper then Lower; last-touch gives Lower the full credit
    while the MDA splits 0.3 / 0.7. Returns journeys, each model's credits
    for each journey (for ``credit_table``), the campaign specs, and
    zero-noise RCT targets constructed to satisfy target = 0.6 * lta + 0.4 * mda.
    """
    campaigns = (
        CampaignSpec("campL", "Lower", "product_ad", 0.5, 0.5, 0.01),
        CampaignSpec("campU", "Upper", "display", 0.5, 0.5, 0.01),
    )
    j1 = mk_journey(
        [mk_tp("u1", "c1", "campU", "Upper", "view", T0 - timedelta(days=2))],
        mk_conv("x1", "c1", T0),
        customer="c1",
    )
    j2 = mk_journey(
        [
            mk_tp("u2", "c2", "campU", "Upper", "view", T0 - timedelta(days=3)),
            mk_tp("l2", "c2", "campL", "Lower", "click", T0 - timedelta(days=1)),
        ],
        mk_conv("x2", "c2", T0),
        customer="c2",
    )
    j3 = mk_journey(
        [mk_tp("l3", "c3", "campL", "Lower", "click", T0 - timedelta(days=1))],
        mk_conv("x3", "c3", T0),
        customer="c3",
    )
    journeys = [j1, j2, j3]
    lta = [(1.0,), (0.0, 1.0), (1.0,)]
    mda = [(1.0,), (0.3, 0.7), (1.0,)]
    # Campaign-level sums: lta = {campU: 1, campL: 2}, mda = {campU: 1.3, campL: 1.7}.
    targets = {
        "campU": 0.6 * 1.0 + 0.4 * 1.3,
        "campL": 0.6 * 2.0 + 0.4 * 1.7,
    }
    rct_results = {cid: exact_rct(cid, value) for cid, value in targets.items()}
    return journeys, {"lta": lta, "mda": mda}, campaigns, rct_results
