"""Credit consumers that read the ensemble's credit table (``ModelCredits``)
against the id-keyed joins they replaced.

The references below are the former ``aggregate_campaign_features``,
``credits._score_journey`` and ``pipeline.model_credit_records``, kept
verbatim apart from their inputs: a credit vector is given as
``(conversion_id, ((touchpoint_id, credit), ...))`` and each stage rebuilds
its own id -> record maps from the journeys. The per-model rows are
``(model, CreditRow)`` pairs, which ``model_credit_records``' table gives
column by column. Every float must come out equal with ``==``, not approximately.
"""

import random
from dataclasses import dataclass
from datetime import timedelta

import pytest

from mta_engine import pipeline
from mta_engine.attribution import (
    MODEL_NAMES,
    DecayConfig,
    MdaHyperparams,
    MdaModel,
    TrainingInfo,
    decay_credits,
    linear_credits,
    lta_credits,
    mda_credits,
)
from mta_engine.calibration import CalibrationModel, CampaignFeatureRow, aggregate_campaign_features
from mta_engine.errors import DataIntegrityError
from mta_engine.events import Journey, LookbackWindow, build_journeys
from mta_engine.rct import CampaignSpec, SimConfig, estimate_all, simulate

from conftest import (
    T0, CreditRow, credit_rows, credit_table, exact_rct, mk_conv, mk_tp, touchpoint_table)


@dataclass(frozen=True)
class IdKeyedVector:
    conversion_id: str
    entries: tuple[tuple[str, float], ...]


@dataclass(frozen=True)
class RawJourney:
    """A journey whose touchpoints keep the order they were given in."""

    customer_id: str
    touchpoints: tuple
    conversion: object


def id_keyed(journey, credits) -> IdKeyedVector:
    return IdKeyedVector(
        journey.conversion.conversion_id,
        tuple((tp.touchpoint_id, c) for tp, c in zip(journey.touchpoints, credits, strict=True)),
    )


def aggregate_reference(journeys, credits_by_model, campaigns, rct_results=None):
    rct_results = rct_results or {}
    tp_campaign = {}
    conv_units = {}
    for journey in journeys:
        for tp in journey.touchpoints:
            tp_campaign[tp.touchpoint_id] = tp.campaign_id
        if journey.conversion is not None:
            conv_units[journey.conversion.conversion_id] = float(journey.conversion.units)

    model_names = sorted(credits_by_model)
    totals = {spec.campaign_id: {name: 0.0 for name in model_names} for spec in campaigns}
    for name in model_names:
        for vector in credits_by_model[name]:
            units = conv_units.get(vector.conversion_id)
            if units is None:
                raise DataIntegrityError(f"unknown conversion {vector.conversion_id!r}")
            for tp_id, credit in vector.entries:
                campaign_id = tp_campaign.get(tp_id)
                if campaign_id is None:
                    raise DataIntegrityError(f"unknown touchpoint {tp_id!r}")
                bucket = totals.get(campaign_id)
                if bucket is None:
                    raise DataIntegrityError(f"campaign {campaign_id!r} not in the list")
                bucket[name] += credit * units

    rows = []
    for spec in sorted(campaigns, key=lambda s: s.campaign_id):
        result = rct_results.get(spec.campaign_id) if spec.is_rct else None
        rows.append(
            CampaignFeatureRow(
                campaign_id=spec.campaign_id,
                channel=spec.channel,
                features=totals[spec.campaign_id],
                target=result.incremental_conversions if result else None,
                target_std_error=result.std_error if result else None,
            )
        )
    return rows


def score_journey_reference(model, credits_by_model, journey):
    conversion_id = journey.conversion.conversion_id
    journey_tp_ids = {tp.touchpoint_id for tp in journey.touchpoints}
    vectors = {}
    for name, vector in credits_by_model.items():
        if vector.conversion_id != conversion_id:
            raise DataIntegrityError(f"{name!r} belongs to {vector.conversion_id!r}")
        if {tp_id for tp_id, _ in vector.entries} != journey_tp_ids:
            raise DataIntegrityError(f"{name!r} disagrees with the touchpoint set")
        vectors[name] = dict(vector.entries)

    units = journey.conversion.units
    out = []
    for tp in sorted(journey.touchpoints, key=lambda t: (t.timestamp, t.touchpoint_id)):
        weights = model.group_weights(tp.channel)
        combined = units * sum(
            weight * vectors.get(name, {}).get(tp.touchpoint_id, 0.0)
            for name, weight in weights.items()
        )
        out.append(
            CreditRow(
                conversion_id, tp.touchpoint_id, tp.campaign_id, tp.channel, tp.ad_product, combined
            )
        )
    return out


def model_credit_records_reference(attributable, credits_by_model):
    tp_meta = {tp.touchpoint_id: tp for journey in attributable for tp in journey.touchpoints}
    units = {j.conversion.conversion_id: j.conversion.units for j in attributable if j.conversion}
    records = []
    for name in sorted(credits_by_model):
        for vector in credits_by_model[name]:
            for tp_id, credit in vector.entries:
                tp = tp_meta[tp_id]
                records.append(
                    (name, CreditRow(
                        vector.conversion_id, tp_id, tp.campaign_id, tp.channel,
                        tp.ad_product, credit * units.get(vector.conversion_id, 1),
                    ))
                )
    return records


MDA = MdaModel(
    ("n_touchpoints", "n_views", "n_clicks", "recency_days",
     "channel_count:Lower", "channel_count:Upper"),
    (0.25, 0.05, 0.6, -0.1, 0.5, 0.15),
    -1.2,
    TrainingInfo(0, 0.0, 0.0, 0.0),
)

# "decay" is weighted but, in the scorings below, sometimes has no credit
# vectors; per-channel pooling leaves channel "Mid" without fitted weights.
CALIBRATIONS = (
    CalibrationModel(("lta", "decay", "mda"), "global", {"global": (0.55, 0.125, 0.3)}, None),
    CalibrationModel(
        ("lta", "mda", "decay"), "per_channel",
        {"Upper": (0.7, 0.2, 0.1), "Lower": (0.15, 0.6, 0.35)}, None,
    ),
)


def assert_same_as_references(attributable, raw_journeys, credits, campaigns, rct_results=None):
    """The three consumers equal their references exactly, with every model
    present and with one weighted model missing."""
    keyed = {
        name: list(map(id_keyed, attributable, per_journey)) for name, per_journey in credits.items()
    }
    table = credit_table(attributable, credits)
    assert aggregate_campaign_features(table, campaigns, rct_results) == aggregate_reference(
        raw_journeys, keyed, campaigns, rct_results
    )
    records = pipeline.model_credit_records(table)
    assert [
        (name, row) for name in records.columns for row in credit_rows(records, name)
    ] == model_credit_records_reference(raw_journeys, keyed)
    without_decay = [name for name in credits if name != "decay"]
    for model in CALIBRATIONS:
        for names in (list(credits), without_decay):
            selected = credit_table(attributable, {name: credits[name] for name in names})
            expected = []
            for i, raw in enumerate(raw_journeys):
                expected += score_journey_reference(
                    model, {name: keyed[name][i] for name in names}, raw
                )
            assert credit_rows(pipeline.score_all(model, selected)) == expected


def all_credits(attributable, mda=MDA):
    kernels = {
        "lta": lta_credits,
        "linear": linear_credits,
        "decay": lambda journey: decay_credits(journey, DecayConfig()),
        "mda": lambda journey: mda_credits(mda, journey),
    }
    return {name: [kernels[name](j) for j in attributable] for name in MODEL_NAMES}


def hand_built(shuffle_seed=None):
    """Three customers over three campaigns: multi-unit conversions, clicks,
    and touchpoints tied on timestamp; the touchpoints optionally shuffled."""
    campaigns = (
        CampaignSpec("campU", "Upper", "display", 0.5, 0.5, 0.01),
        CampaignSpec("campL", "Lower", "product_ad", 0.5, 0.5, 0.01),
        CampaignSpec("campM", "Mid", "video", 0.5, 0.5, 0.01, is_rct=False),
    )
    day = timedelta(days=1)
    specs = [
        ("c1", 3, [("u1", "campU", "Upper", "view", 3.0), ("l1", "campL", "Lower", "click", 1.0),
                   ("m1", "campM", "Mid", "view", 1.0), ("a1", "campU", "Upper", "click", 0.25)]),
        ("c2", 2, [("z2", "campL", "Lower", "view", 2.0), ("b2", "campL", "Lower", "click", 2.0),
                   ("u2", "campU", "Upper", "view", 5.5)]),
        ("c3", 5, [("m3", "campM", "Mid", "click", 0.5)]),
    ]
    rng = random.Random(shuffle_seed)
    raw_journeys = []
    for customer, units, tps in specs:
        touchpoints = [
            mk_tp(tp_id, customer, campaign, channel, kind, T0 - age * day)
            for tp_id, campaign, channel, kind, age in tps
        ]
        if shuffle_seed is not None:
            rng.shuffle(touchpoints)
        conv = mk_conv(f"x-{customer}", customer, T0, units)
        raw_journeys.append(RawJourney(customer, tuple(touchpoints), conv))
    rct_results = {"campU": exact_rct("campU", 1.5), "campL": exact_rct("campL", 4.0)}
    return raw_journeys, campaigns, rct_results


class TestAgainstIdKeyedReferences:
    @pytest.mark.parametrize(
        "shuffle_seed", [None, 0, 1, 2], ids=["given", "shuf0", "shuf1", "shuf2"]
    )
    def test_hand_built_multi_unit_journeys(self, shuffle_seed):
        raw_journeys, campaigns, rct_results = hand_built(shuffle_seed)
        attributable = [Journey(r.customer_id, r.touchpoints, r.conversion) for r in raw_journeys]
        if shuffle_seed is not None:
            assert any(
                j.touchpoints != r.touchpoints for j, r in zip(attributable, raw_journeys)
            )
        time_order = lambda t: (t.timestamp, t.touchpoint_id)  # noqa: E731
        assert all(
            j.touchpoints == tuple(sorted(r.touchpoints, key=time_order))
            for j, r in zip(attributable, raw_journeys)
        )
        credits = all_credits(attributable)
        assert_same_as_references(attributable, raw_journeys, credits, campaigns, rct_results)

    def test_simulated_two_channel_population(self):
        campaigns = tuple(
            CampaignSpec(f"{ch[:3].lower()}{i}", ch, product, 0.2, click, lift, 0.5, True, window)
            for i in range(3)
            for ch, product, click, lift, window in (
                ("Upper", "display", 0.05, 0.03, (0.05, 0.40)),
                ("Lower", "product_ad", 0.3, 0.08, (0.45, 0.70)),
            )
        )
        config = SimConfig(3000, campaigns, 0.02, seed=5, horizon=timedelta(days=8))
        touchpoints, conversions, _ = simulate(config)
        journeys = build_journeys(
            touchpoints.touchpoint_table(), conversions, LookbackWindow(timedelta(days=7))
        )
        attributable, _ = pipeline.split_attributable(journeys)
        assert len(attributable) > 50 and max(len(j.touchpoints) for j in attributable) > 2
        mda = pipeline.train_attributor(journeys, MdaHyperparams(0.5, 50, 0))
        credits = all_credits(attributable, mda)
        table = pipeline.ensemble_credits(attributable, MODEL_NAMES, DecayConfig(), mda)
        expected = credit_table(attributable, credits)
        assert table.labels == expected.labels
        assert table.units.tobytes() == expected.units.tobytes()
        assert {name: column.tobytes() for name, column in table.columns.items()} == {
            name: column.tobytes() for name, column in expected.columns.items()
        }
        assert_same_as_references(
            attributable, attributable, credits, campaigns, estimate_all(config, conversions)
        )

    def test_simulated_population_from_shuffled_input(self):
        campaigns = (
            CampaignSpec("up", "Upper", "display", 0.4, 0.3, 0.05),
            CampaignSpec("low", "Lower", "product_ad", 0.4, 0.3, 0.05, view_window=(0.3, 0.7)),
        )
        config = SimConfig(1500, campaigns, 0.05, seed=9, horizon=timedelta(days=8))
        touchpoints, conversions, _ = simulate(config)
        window = LookbackWindow(timedelta(days=7))
        table = touchpoints.touchpoint_table()
        shuffled = list(table)
        random.Random(3).shuffle(shuffled)
        journeys = build_journeys(touchpoint_table(shuffled), conversions, window)
        assert list(journeys) == list(build_journeys(table, conversions, window))
        attributable, _ = pipeline.split_attributable(journeys)
        # The references get each journey's touchpoints in their shuffled order.
        position = {tp.touchpoint_id: i for i, tp in enumerate(shuffled)}
        raw_journeys = [
            RawJourney(
                j.customer_id,
                tuple(sorted(j.touchpoints, key=lambda t: position[t.touchpoint_id])),
                j.conversion,
            )
            for j in attributable
        ]
        assert any(r.touchpoints != j.touchpoints for r, j in zip(raw_journeys, attributable))
        assert_same_as_references(attributable, raw_journeys, all_credits(attributable), campaigns)
