import logging

import pytest

from mta_engine.attribution import CreditVector
from mta_engine.calibration import (
    CalibrationModel,
    CalibrationOptions,
    aggregate_campaign_features,
    fit_calibration,
    predict_campaign,
)
from mta_engine.credits import (
    MtaCredit,
    aggregate_shares,
    per_conversion_total,
    render_share_table,
    score_touchpoints,
    shares_from_totals,
)
from mta_engine.errors import DataIntegrityError

from conftest import mk_conv, mk_journey, mk_tp


def weight_model(weights: dict[str, float]) -> CalibrationModel:
    names = tuple(weights)
    return CalibrationModel(names, "global", {"global": tuple(weights.values())}, None)


def two_touch_journey(units: int = 1):
    from datetime import timedelta

    conv = mk_conv("x1", units=units)
    return mk_journey(
        [
            mk_tp("u1", campaign="campU", channel="Upper", ts=conv.timestamp - timedelta(days=2)),
            mk_tp("l1", campaign="campL", channel="Lower", ts=conv.timestamp - timedelta(days=1)),
        ],
        conv,
    )


def paper_vectors(journey=None):
    """The worked example's credits, (u1, l1) in time order."""
    journey = journey or two_touch_journey()
    lta = CreditVector(journey, (0.0, 1.0))
    mda = CreditVector(journey, (0.3, 0.7))
    return {"lta": lta, "mda": mda}


class TestScoreTouchpoints:
    def test_weighted_combination_from_worked_example(self):
        model = weight_model({"lta": 0.6, "mda": 0.4})
        credits = score_touchpoints(model, paper_vectors(), two_touch_journey())
        by_tp = {c.touchpoint_id: c.credit for c in credits}
        assert abs(by_tp["u1"] - 0.12) < 1e-9
        assert abs(by_tp["l1"] - 0.88) < 1e-9
        assert credits[0].channel == "Upper" and credits[0].campaign_id == "campU"

    def test_identity_weights_reproduce_lta(self):
        model = weight_model({"lta": 1.0})
        credits = score_touchpoints(model, {"lta": paper_vectors()["lta"]}, two_touch_journey())
        assert {c.touchpoint_id: c.credit for c in credits} == {"u1": 0.0, "l1": 1.0}

    def test_zero_weights_zero_credits(self):
        model = weight_model({"lta": 0.0, "mda": 0.0})
        credits = score_touchpoints(model, paper_vectors(), two_touch_journey())
        assert all(c.credit == 0.0 for c in credits)

    def test_units_scale_credits(self):
        model = weight_model({"lta": 0.6, "mda": 0.4})
        journey = two_touch_journey(units=3)
        credits = score_touchpoints(model, paper_vectors(journey), journey)
        assert per_conversion_total(credits) == pytest.approx(3.0)

    def test_touchpoint_set_mismatch_rejected(self):
        # One credit for a two-touchpoint journey.
        with pytest.raises(DataIntegrityError):
            CreditVector(two_touch_journey(), (1.0,))

    def test_wrong_conversion_rejected(self):
        # Both vectors claim conversion x1, but "mda" was computed on another
        # journey: x1 with only its Upper touchpoint.
        model = weight_model({"lta": 0.6, "mda": 0.4})
        journey = two_touch_journey()
        other = mk_journey(journey.touchpoints[:1], journey.conversion)
        bad = {"lta": CreditVector(journey, (0.0, 1.0)), "mda": CreditVector(other, (1.0,))}
        with pytest.raises(DataIntegrityError, match="'mda'.*another journey"):
            score_touchpoints(model, bad, journey)

    def test_missing_model_warns_and_zeroes(self, caplog):
        model = weight_model({"lta": 0.6, "mda": 0.4})
        with caplog.at_level(logging.WARNING):
            credits = score_touchpoints(
                model, {"lta": paper_vectors()["lta"]}, two_touch_journey()
            )
        assert per_conversion_total(credits) == pytest.approx(0.6)
        assert any("mda" in r.message for r in caplog.records)


class TestPerConversionTotal:
    def test_totals_match_weight_sums(self):
        model = weight_model({"lta": 0.6, "mda": 0.4})
        credits = score_touchpoints(model, paper_vectors(), two_touch_journey())
        assert per_conversion_total(credits) == pytest.approx(1.0, abs=1e-9)

    def test_single_model_total(self):
        model = weight_model({"lta": 0.9})
        credits = score_touchpoints(model, {"lta": paper_vectors()["lta"]}, two_touch_journey())
        assert per_conversion_total(credits) == pytest.approx(0.9, abs=1e-9)

    def test_empty(self):
        assert per_conversion_total([]) == 0.0


def credit(value: str, amount: float, dimension: str = "channel") -> MtaCredit:
    return MtaCredit(
        "x", "t", value if dimension == "campaign" else "campA",
        value if dimension == "channel" else "Upper",
        value if dimension == "ad_product" else "display",
        amount,
    )


class TestAggregateShares:
    def test_three_times_as_effective(self):
        report = aggregate_shares([credit("Upper", 2000.0), credit("Lower", 6000.0)])
        shares = report.shares()
        assert abs(shares["Upper"] - 0.25) < 1e-9
        assert abs(shares["Lower"] - 0.75) < 1e-9
        assert report.rows[0].value == "Lower"  # sorted by descending share

    def test_single_dimension_value(self):
        report = aggregate_shares([credit("Upper", 12.0)])
        assert report.shares() == {"Upper": 1.0}

    def test_empty_credits_flagged_not_error(self):
        report = aggregate_shares([])
        assert report.rows == ()
        assert report.zero_total

    def test_zero_totals_flagged(self):
        report = aggregate_shares([credit("Upper", 0.0), credit("Lower", 0.0)])
        assert report.zero_total
        assert all(r.share == 0.0 for r in report.rows)

    def test_ties_sorted_by_value(self):
        report = aggregate_shares([credit("B", 1.0), credit("A", 1.0)])
        assert [r.value for r in report.rows] == ["A", "B"]

    def test_other_dimensions(self):
        by_product = aggregate_shares(
            [credit("sponsored", 3.0, "ad_product"), credit("display", 1.0, "ad_product")],
            dimension="ad_product",
        )
        assert by_product.shares()["sponsored"] == 0.75
        by_campaign = aggregate_shares([credit("campX", 5.0, "campaign")], dimension="campaign")
        assert by_campaign.shares() == {"campX": 1.0}

    def test_unknown_dimension(self):
        with pytest.raises(ValueError):
            aggregate_shares([], dimension="placement")

    def test_share_invariance_under_weight_scaling(self, credit_example):
        journeys, credits_by_model, campaigns, _ = credit_example
        for scale in (1.0, 3.7):
            model = weight_model({"lta": 0.6 * scale, "mda": 0.4 * scale})
            all_credits = []
            for i, journey in enumerate(journeys):
                per_model = {m: credits_by_model[m][i] for m in credits_by_model}
                all_credits.extend(score_touchpoints(model, per_model, journey))
            report = aggregate_shares(all_credits)
            assert report.shares()["Upper"] == pytest.approx(1.12 / 3.0, abs=1e-9)
            assert report.shares()["Lower"] == pytest.approx(1.88 / 3.0, abs=1e-9)


class TestConservation:
    def test_campaign_sums_match_predictions(self, credit_example):
        journeys, credits_by_model, campaigns, rct_results = credit_example
        rows = aggregate_campaign_features(credits_by_model, campaigns, rct_results)
        model = fit_calibration(rows, CalibrationOptions(feature_models=("lta", "mda")))
        totals: dict[str, float] = {}
        for i, journey in enumerate(journeys):
            per_model = {m: credits_by_model[m][i] for m in credits_by_model}
            for c in score_touchpoints(model, per_model, journey):
                totals[c.campaign_id] = totals.get(c.campaign_id, 0.0) + c.credit
        for row in rows:
            assert totals.get(row.campaign_id, 0.0) == pytest.approx(
                predict_campaign(model, row), abs=1e-9
            )

    def test_monotone_in_single_model_credit(self):
        model = weight_model({"lta": 0.6, "mda": 0.4})
        journey = two_touch_journey()
        base = score_touchpoints(model, paper_vectors(), journey)
        bumped_vectors = paper_vectors()
        bumped_vectors["mda"] = CreditVector(journey, (0.5, 0.7))
        bumped = score_touchpoints(model, bumped_vectors, journey)
        base_u1 = next(c.credit for c in base if c.touchpoint_id == "u1")
        bumped_u1 = next(c.credit for c in bumped if c.touchpoint_id == "u1")
        assert bumped_u1 >= base_u1


class TestRendering:
    def test_table_contains_comparisons_and_flags(self):
        report = aggregate_shares(
            [credit("Upper", 1.12), credit("Lower", 1.88)], unattributed_conversions=2
        )
        lta_only = shares_from_totals({"Upper": 1.0, "Lower": 2.0})
        text = render_share_table(report, {"lta": lta_only})
        lines = text.splitlines()
        assert lines[0].split() == ["channel", "credit", "share", "lta_share"]
        assert "unattributed conversions: 2" in text
        assert "0.6267" in text and "0.6667" in text

    def test_zero_total_banner(self):
        text = render_share_table(aggregate_shares([]))
        assert "grand total is zero" in text
