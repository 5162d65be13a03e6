import logging
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mta_engine.attribution import CreditVector, ModelCredits
from mta_engine.calibration import (
    CalibrationModel,
    CalibrationOptions,
    aggregate_campaign_features,
    fit_calibration,
)
from mta_engine.errors import DataIntegrityError
from mta_engine.pipeline import score_all
from mta_engine.shares import (
    DIMENSIONS,
    MtaCredit,
    aggregate_shares,
    column_shares,
    render_share_table,
    shares_from_totals,
)

from conftest import T0, credit_rows, mk_conv, mk_journey, mk_tp, predict_campaign, score_one


def weight_model(weights: dict[str, float]) -> CalibrationModel:
    names = tuple(weights)
    return CalibrationModel(names, "global", {"global": tuple(weights.values())}, None)


def total_credit(credits) -> float:
    return sum(c.credit for c in credits)


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
        credits = score_one(model, paper_vectors(), two_touch_journey())
        by_tp = {c.touchpoint_id: c.credit for c in credits}
        assert abs(by_tp["u1"] - 0.12) < 1e-9
        assert abs(by_tp["l1"] - 0.88) < 1e-9
        assert credits[0].channel == "Upper" and credits[0].campaign_id == "campU"

    def test_identity_weights_reproduce_lta(self):
        model = weight_model({"lta": 1.0})
        credits = score_one(model, {"lta": paper_vectors()["lta"]}, two_touch_journey())
        assert {c.touchpoint_id: c.credit for c in credits} == {"u1": 0.0, "l1": 1.0}

    def test_zero_weights_zero_credits(self):
        model = weight_model({"lta": 0.0, "mda": 0.0})
        credits = score_one(model, paper_vectors(), two_touch_journey())
        assert all(c.credit == 0.0 for c in credits)

    def test_units_scale_credits(self):
        model = weight_model({"lta": 0.6, "mda": 0.4})
        journey = two_touch_journey(units=3)
        credits = score_one(model, paper_vectors(journey), journey)
        assert total_credit(credits) == pytest.approx(3.0)

    def test_touchpoint_set_mismatch_rejected(self):
        # One credit for a two-touchpoint journey.
        with pytest.raises(DataIntegrityError):
            CreditVector(two_touch_journey(), (1.0,))

    def test_wrong_conversion_rejected(self):
        # Both vectors claim conversion x1, but "mda" was computed on another
        # journey: x1 with only its Upper touchpoint.
        journey = two_touch_journey()
        other = mk_journey(journey.touchpoints[:1], journey.conversion)
        bad = {"lta": [CreditVector(journey, (0.0, 1.0))], "mda": [CreditVector(other, (1.0,))]}
        with pytest.raises(DataIntegrityError, match="'mda'.*another journey"):
            ModelCredits.of([journey], bad)

    def test_table_needs_a_conversion_and_one_vector_per_journey(self):
        journey = two_touch_journey()
        with pytest.raises(DataIntegrityError, match="without a conversion"):
            ModelCredits.of([mk_journey(journey.touchpoints)], {})
        with pytest.raises(ValueError):
            ModelCredits.of([journey, journey], {"lta": [CreditVector(journey, (0.0, 1.0))]})

    def test_missing_model_warns_and_zeroes(self, caplog):
        model = weight_model({"lta": 0.6, "mda": 0.4})
        with caplog.at_level(logging.WARNING):
            credits = score_one(
                model, {"lta": paper_vectors()["lta"]}, two_touch_journey()
            )
        assert total_credit(credits) == pytest.approx(0.6)
        assert any("mda" in r.message for r in caplog.records)


class TestPerConversionTotal:
    def test_totals_match_weight_sums(self):
        model = weight_model({"lta": 0.6, "mda": 0.4})
        credits = score_one(model, paper_vectors(), two_touch_journey())
        assert total_credit(credits) == pytest.approx(1.0, abs=1e-9)

    def test_single_model_total(self):
        model = weight_model({"lta": 0.9})
        credits = score_one(model, {"lta": paper_vectors()["lta"]}, two_touch_journey())
        assert total_credit(credits) == pytest.approx(0.9, abs=1e-9)

    def test_empty(self):
        empty = ModelCredits.of([], {"lta": []})
        assert total_credit(credit_rows(score_all(weight_model({"lta": 0.9}), empty))) == 0.0


def score_reference(model, attributable, credits_by_model):
    """Per-touchpoint scoring by its definition: units times Python's ``sum``,
    over the calibration's models, of weight times credit."""
    out = []
    for i, journey in enumerate(attributable):
        absent = (0.0,) * len(journey.touchpoints)
        columns = [
            credits_by_model[name][i].credits if name in credits_by_model else absent
            for name in model.feature_names
        ]
        for k, tp in enumerate(journey.touchpoints):
            weights = model.group_weights(tp.channel).values()
            total = sum(weight * column[k] for weight, column in zip(weights, columns))
            out.append(
                MtaCredit(
                    journey.conversion.conversion_id, tp.touchpoint_id, tp.campaign_id,
                    tp.channel, tp.ad_product, journey.conversion.units * total,
                )
            )
    return out


@st.composite
def scoring_inputs(draw):
    """Journeys of 1-5 touchpoints over three channels with conversions of
    0-7 units, arbitrary credits (not normalized) for some of three models,
    and global or per-channel weights; under per-channel pooling "Mid" has
    no fitted weights."""
    journeys = []
    for j in range(draw(st.integers(0, 5))):
        conv = mk_conv(f"x{j}", customer=f"c{j}", units=draw(st.integers(0, 7)))
        tps = [
            mk_tp(
                f"t{j}-{i}", customer=f"c{j}", campaign=f"camp{i % 2}",
                channel=draw(st.sampled_from(["Upper", "Lower", "Mid"])),
                ts=T0 - timedelta(hours=i + 1),
            )
            for i in range(draw(st.integers(1, 5)))
        ]
        journeys.append(mk_journey(tps, conv, customer=f"c{j}"))
    credit = st.one_of(st.sampled_from([0.0, 1.0, 0.1, 1 / 3]), st.floats(0.0, 1.0))
    present = draw(st.lists(st.sampled_from(["lta", "mda", "decay"]), unique=True))
    credits_by_model = {
        name: [
            CreditVector(j, tuple(draw(credit) for _ in j.touchpoints)) for j in journeys
        ]
        for name in present
    }
    weight = st.floats(0.0, 5.0)
    names = ("lta", "decay", "mda")
    if draw(st.booleans()):
        model = CalibrationModel(names, "global", {"global": tuple(draw(weight) for _ in names)}, None)
    else:
        groups = {g: tuple(draw(weight) for _ in names) for g in ("Upper", "Lower")}
        model = CalibrationModel(names, "per_channel", groups, None)
    return model, journeys, credits_by_model


def bits(credits) -> bytes:
    return np.array([c.credit for c in credits], dtype=np.float64).tobytes()


class TestScoreAllTable:
    @settings(max_examples=300, deadline=None)
    @given(scoring_inputs())
    def test_equals_per_touchpoint_sum_bitwise(self, inputs):
        model, journeys, credits_by_model = inputs
        credits = ModelCredits.of(journeys, credits_by_model)
        table = score_all(model, credits)
        expected = score_reference(model, journeys, credits_by_model)
        assert credit_rows(table) == expected
        assert bits(credit_rows(table)) == bits(expected)
        assert len(table) == len(expected)
        assert table.labels is credits.labels and table.units is credits.units

    def test_multi_unit_conversion_and_unfitted_group(self, caplog):
        conv = mk_conv("x1", units=4)
        journey = mk_journey(
            [
                mk_tp("u1", channel="Upper", ts=T0 - timedelta(days=2)),
                mk_tp("m1", channel="Mid", ts=T0 - timedelta(days=1)),
            ],
            conv,
        )
        model = CalibrationModel(("lta", "mda"), "per_channel", {"Upper": (0.7, 0.2)}, None)
        vectors = {"lta": [CreditVector(journey, (0.0, 1.0))], "mda": [CreditVector(journey, (0.3, 0.7))]}
        with caplog.at_level(logging.WARNING):
            table = score_all(model, ModelCredits.of([journey], vectors))
        assert table.scaled("mta").tolist() == [4 * (0.7 * 0.0 + 0.2 * 0.3), 0.0]
        assert credit_rows(table) == score_reference(model, [journey], vectors)
        assert "'Mid'; 1 touchpoint(s) get zero credit" in caplog.text


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
                all_credits.extend(score_one(model, per_model, journey))
            report = aggregate_shares(all_credits)
            assert report.shares()["Upper"] == pytest.approx(1.12 / 3.0, abs=1e-9)
            assert report.shares()["Lower"] == pytest.approx(1.88 / 3.0, abs=1e-9)

    def test_a_channel_total_that_overflows_raises(self):
        with pytest.raises(ValueError, match="'Upper' total more than the largest float"):
            aggregate_shares([credit("Upper", 1e308), credit("Upper", 1e308)])

    def test_a_grand_total_that_overflows_raises(self):
        """Every share used to read 0.0 with ``zero_total`` false."""
        with pytest.raises(ValueError, match="sum to inf, which is not finite"):
            shares_from_totals({"Upper": 1e308, "Lower": 1e308})


@st.composite
def credit_tables(draw):
    """Label rows with a few values per reporting field, units 0-3 and two
    columns of credits."""
    labels = [
        (f"x{i}", f"t{i}", draw(st.sampled_from(["c0", "c1", "c2"])),
         draw(st.sampled_from(["Upper", "Lower", "Mid"])), draw(st.sampled_from(["display", "video"])))
        for i in range(draw(st.integers(0, 12)))
    ]
    units = np.array([float(draw(st.integers(0, 3))) for _ in labels])
    credit = st.one_of(st.sampled_from([0.0, 0.1, 1 / 3, 1.0]), st.floats(0.0, 1e6))
    columns = {name: np.array([draw(credit) for _ in labels], dtype=np.float64) for name in ("lta", "mta")}
    return ModelCredits(labels, units, columns)


class TestColumnShares:
    @settings(max_examples=200, deadline=None)
    @given(credit_tables(), st.sampled_from(["lta", "mta"]), st.integers(0, 5))
    def test_equals_aggregate_shares_over_credit_rows_bitwise(self, table, name, unattributed):
        for dimension in DIMENSIONS:
            report = column_shares(table, name, dimension, unattributed)
            expected = aggregate_shares(credit_rows(table, name), dimension, unattributed)
            assert report == expected
            assert repr(report) == repr(expected)

    def test_unknown_dimension(self):
        with pytest.raises(ValueError, match="placement"):
            column_shares(ModelCredits([], np.zeros(0), {"mta": np.zeros(0)}), "mta", "placement")


class TestConservation:
    def test_campaign_sums_match_predictions(self, credit_example):
        journeys, credits_by_model, campaigns, rct_results = credit_example
        rows = aggregate_campaign_features(
            ModelCredits.of(journeys, credits_by_model), campaigns, rct_results
        )
        model = fit_calibration(rows, CalibrationOptions(feature_models=("lta", "mda")))
        totals: dict[str, float] = {}
        for i, journey in enumerate(journeys):
            per_model = {m: credits_by_model[m][i] for m in credits_by_model}
            for c in score_one(model, per_model, journey):
                totals[c.campaign_id] = totals.get(c.campaign_id, 0.0) + c.credit
        for row in rows:
            assert totals.get(row.campaign_id, 0.0) == pytest.approx(
                predict_campaign(model, row), abs=1e-9
            )

    def test_campaign_sums_exclude_the_intercept(self, credit_example):
        """The calibration intercept is no touchpoint's credit: each unclipped
        campaign's MTA credits sum to its prediction minus the intercept."""
        journeys, credits_by_model, campaigns, rct_results = credit_example
        table = ModelCredits.of(journeys, credits_by_model)
        rows = aggregate_campaign_features(table, campaigns, rct_results)
        fitted = fit_calibration(rows, CalibrationOptions(("lta",), intercept=True))
        negative = CalibrationModel(("lta", "mda"), "global", {"global": (0.6, 0.4)},
                                    {"global": -0.705})
        assert fitted.intercept_by_group["global"] == pytest.approx(0.36)
        for model in (fitted, negative):
            intercept = model.intercept_by_group["global"]
            totals: dict[str, float] = {}
            for c in credit_rows(score_all(model, table)):
                totals[c.campaign_id] = totals.get(c.campaign_id, 0.0) + c.credit
            for row in rows:
                prediction = predict_campaign(model, row)
                assert prediction > 0.0
                assert totals[row.campaign_id] == pytest.approx(prediction - intercept, abs=1e-9)

    def test_monotone_in_single_model_credit(self):
        model = weight_model({"lta": 0.6, "mda": 0.4})
        journey = two_touch_journey()
        base = score_one(model, paper_vectors(), journey)
        bumped_vectors = paper_vectors()
        bumped_vectors["mda"] = CreditVector(journey, (0.5, 0.7))
        bumped = score_one(model, bumped_vectors, journey)
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
