import csv
import io
import logging
from dataclasses import replace

import numpy as np
import pytest

from mta_engine import pipeline
from mta_engine.calibration import (
    CalibrationModel,
    CalibrationOptions,
    CampaignFeatureRow,
    aggregate_campaign_features,
    evaluate_oos,
    feature_rows_to_csv,
    fit_calibration,
)
from mta_engine.errors import ConfigError, DataIntegrityError, InsufficientDataError

from conftest import credit_table, mk_conv, mk_journey, mk_tp, predict_campaign
from mta_engine.rct import CampaignSpec


def feature_rows_from_csv(stream) -> list[CampaignFeatureRow]:
    """Read back a campaign feature table written by ``feature_rows_to_csv``."""
    reader = csv.reader(stream)
    header = next(reader)
    names = header[2:-2]
    rows = []
    for record in reader:
        if not record:
            continue
        rows.append(
            CampaignFeatureRow(
                campaign_id=record[0],
                channel=record[1],
                features={name: float(v) for name, v in zip(names, record[2:-2])},
                target=float(record[-2]) if record[-2] else None,
                target_std_error=float(record[-1]) if record[-1] else None,
            )
        )
    return rows


def row(campaign_id, lta, mda=None, target=None, channel="Upper", se=None):
    features = {"lta": lta}
    if mda is not None:
        features["mda"] = mda
    return CampaignFeatureRow(campaign_id, channel, features, target, se)


def make_rows(weights, n=8, seed=0, noise=0.0, channel="Upper"):
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        lta = float(rng.uniform(100, 2000))
        mda = float(rng.uniform(100, 2000))
        target = weights[0] * lta + weights[1] * mda + float(rng.normal(0, noise))
        rows.append(row(f"c{i:03d}", lta, mda, target, channel=channel))
    return rows


def lta_table(journey, credits):
    """The credit table of one journey's LTA credits."""
    return credit_table([journey], {"lta": [credits]})


class TestAggregate:
    def test_single_conversion_single_touchpoint(self):
        journey = mk_journey([mk_tp("t1", campaign="campA")], mk_conv("x1"))
        campaigns = (CampaignSpec("campA", "Upper", "display", 0.5, 0.2, 0.01),)
        rows = aggregate_campaign_features(lta_table(journey, (1.0,)), campaigns)
        assert rows[0].features == {"lta": 1.0}
        assert rows[0].target is None

    def test_figure_fixture_hand_sums(self, credit_example):
        journeys, credits, campaigns, rct_results = credit_example
        rows = aggregate_campaign_features(credit_table(journeys, credits), campaigns, rct_results)
        by_id = {r.campaign_id: r for r in rows}
        assert by_id["campU"].features["lta"] == pytest.approx(1.0)
        assert by_id["campL"].features["lta"] == pytest.approx(2.0)
        assert by_id["campU"].features["mda"] == pytest.approx(1.3)
        assert by_id["campL"].features["mda"] == pytest.approx(1.7)
        assert by_id["campU"].target == pytest.approx(1.12)
        assert by_id["campL"].target == pytest.approx(1.88)

    def test_zero_credit_campaign_row_retained(self, credit_example):
        journeys, credits, campaigns, rct_results = credit_example
        extra = campaigns + (CampaignSpec("campZ", "Upper", "display", 0.5, 0.2, 0.0),)
        rows = aggregate_campaign_features(credit_table(journeys, credits), extra, rct_results)
        zero_row = next(r for r in rows if r.campaign_id == "campZ")
        assert zero_row.features == {"lta": 0.0, "mda": 0.0}

    def test_units_scale_features(self):
        journey = mk_journey([mk_tp("t1", campaign="campA")], mk_conv("x1", units=4))
        campaigns = (CampaignSpec("campA", "Upper", "display", 0.5, 0.2, 0.01),)
        rows = aggregate_campaign_features(lta_table(journey, (1.0,)), campaigns)
        assert rows[0].features["lta"] == pytest.approx(4.0)

    def test_unknown_touchpoint_rejected(self):
        # A credit for a touchpoint the journey does not have: one credit too many.
        journey = mk_journey([mk_tp("t1", campaign="campA")], mk_conv("x1"))
        with pytest.raises(DataIntegrityError, match="column 'lta' has 2 row"):
            lta_table(journey, (1.0, 1.0))

    def test_unknown_conversion_rejected(self):
        # A credit for a conversion that does not exist: the journey has none.
        journey = mk_journey([mk_tp("t1", campaign="campA")], None)
        with pytest.raises(DataIntegrityError, match="without a conversion"):
            pipeline.ensemble_credits([journey], ())

    def test_campaign_outside_the_campaign_list_rejected(self):
        journey = mk_journey([mk_tp("t1", campaign="campB")], mk_conv("x1"))
        campaigns = (CampaignSpec("campA", "Upper", "display", 0.5, 0.2, 0.01),)
        with pytest.raises(DataIntegrityError, match="campB"):
            aggregate_campaign_features(lta_table(journey, (1.0,)), campaigns)


class TestFit:
    def test_single_rct_calibration_factor(self):
        model = fit_calibration(
            [row("campA", lta=1000.0, target=900.0)],
            CalibrationOptions(feature_models=("lta",)),
        )
        assert abs(model.weights["lta"] - 0.9) < 1e-9

    def test_ensemble_recovers_exact_weights(self):
        rows = make_rows((0.6, 0.4), n=6)
        model = fit_calibration(rows, CalibrationOptions(feature_models=("lta", "mda")))
        assert model.weights["lta"] == pytest.approx(0.6, abs=1e-8)
        assert model.weights["mda"] == pytest.approx(0.4, abs=1e-8)
        assert model.fit_diagnostics["r_squared"] == pytest.approx(1.0)

    def test_repeated_feature_model_rejected(self):
        # ("lta", "lta") used to fit weights (0.803, 0.0), one of them shadowed.
        with pytest.raises(ConfigError, match="distinct"):
            CalibrationOptions(feature_models=("lta", "lta"))

    def test_negative_relationship_clamped(self):
        rows = [row(f"c{i}", lta=100.0 * (i + 1), target=-100.0 * (i + 1)) for i in range(3)]
        model = fit_calibration(rows, CalibrationOptions(feature_models=("lta",)))
        assert model.weights["lta"] == 0.0

    def test_underdetermined_names_group(self):
        with pytest.raises(InsufficientDataError, match="global"):
            fit_calibration(
                [row("campA", lta=100.0, mda=50.0, target=90.0)],
                CalibrationOptions(feature_models=("lta", "mda")),
            )

    def test_rows_without_targets_are_skipped(self):
        rows = make_rows((0.6, 0.4), n=5) + [row("no_rct", 500.0, 400.0, target=None)]
        model = fit_calibration(rows, CalibrationOptions(feature_models=("lta", "mda")))
        assert model.weights["lta"] == pytest.approx(0.6, abs=1e-8)

    def test_no_targets_at_all(self):
        with pytest.raises(InsufficientDataError):
            fit_calibration([row("campA", 100.0, target=None)])

    def test_zero_feature_column_warns_and_zeroes(self, caplog):
        rows = [row(f"c{i}", lta=0.0, mda=float(i + 1), target=float(i + 1)) for i in range(4)]
        with caplog.at_level(logging.WARNING):
            model = fit_calibration(rows, CalibrationOptions(feature_models=("lta", "mda")))
        assert model.weights["lta"] == 0.0
        assert model.weights["mda"] == pytest.approx(1.0)
        assert any("all-zero" in r.message for r in caplog.records)

    def test_intercept_flag(self):
        rng = np.random.default_rng(3)
        rows = []
        for i in range(10):
            lta = float(rng.uniform(100, 1000))
            rows.append(row(f"c{i}", lta, target=0.5 * lta - 40.0))
        options = CalibrationOptions(feature_models=("lta",), intercept=True)
        model = fit_calibration(rows, options)
        assert model.weights["lta"] == pytest.approx(0.5, abs=1e-6)
        assert model.intercept_by_group["global"] == pytest.approx(-40.0, abs=1e-4)
        prediction = predict_campaign(model, row("new", 200.0))
        assert prediction == pytest.approx(0.5 * 200.0 - 40.0, abs=1e-4)

    def test_per_channel_pooling(self):
        upper = make_rows((0.9, 0.0), n=4, seed=1, channel="Upper")
        lower = make_rows((0.3, 0.0), n=4, seed=2, channel="Lower")
        options = CalibrationOptions(feature_models=("lta", "mda"), pooling="per_channel")
        model = fit_calibration(upper + lower, options)
        assert model.weights_by_group["Upper"][0] == pytest.approx(0.9, abs=1e-6)
        assert model.weights_by_group["Lower"][0] == pytest.approx(0.3, abs=1e-6)
        with pytest.raises(ValueError):
            _ = model.weights

    def test_per_channel_insufficient_rows_names_channel(self):
        rows = make_rows((0.5, 0.2), n=5, channel="Upper") + [
            row("lone", 100.0, 50.0, target=60.0, channel="Lower")
        ]
        options = CalibrationOptions(feature_models=("lta", "mda"), pooling="per_channel")
        with pytest.raises(InsufficientDataError, match="Lower"):
            fit_calibration(rows, options)

    def test_scale_equivariance(self):
        rows = make_rows((0.6, 0.4), n=8, seed=5, noise=25.0)
        options = CalibrationOptions(feature_models=("lta", "mda"))
        base = fit_calibration(rows, options)
        s = 7.5
        scaled_rows = [
            CampaignFeatureRow(
                r.campaign_id,
                r.channel,
                {"lta": r.features["lta"] * s, "mda": r.features["mda"]},
                r.target,
            )
            for r in rows
        ]
        scaled = fit_calibration(scaled_rows, options)
        assert scaled.weights["lta"] == pytest.approx(base.weights["lta"] / s, rel=1e-8)
        assert scaled.weights["mda"] == pytest.approx(base.weights["mda"], rel=1e-8)
        for r, sr in zip(rows, scaled_rows):
            assert predict_campaign(scaled, sr) == pytest.approx(
                predict_campaign(base, r), rel=1e-8
            )

    def test_row_order_never_changes_weights(self):
        rows = make_rows((0.6, 0.4), n=9, seed=8, noise=40.0)
        options = CalibrationOptions(feature_models=("lta", "mda"))
        a = fit_calibration(rows, options)
        b = fit_calibration(list(reversed(rows)), options)
        assert a.weights_by_group == b.weights_by_group

    def test_inverse_variance_weighting_downweights_noisy_rows(self):
        # one precise row pinning 0.9, ten wild rows pulling elsewhere
        rows = [row("precise", 1000.0, target=900.0, se=1.0)]
        rng = np.random.default_rng(4)
        for i in range(10):
            lta = float(rng.uniform(200, 900))
            rows.append(row(f"noisy{i}", lta, target=0.3 * lta, se=1e6))
        options = CalibrationOptions(feature_models=("lta",), inverse_variance_weighting=True)
        model = fit_calibration(rows, options)
        assert model.weights["lta"] == pytest.approx(0.9, abs=1e-3)

    def test_kkt_on_random_fits(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            rows = []
            true_w = rng.uniform(-0.5, 1.0, size=2)
            for i in range(8):
                lta, mda = rng.uniform(10, 500, size=2)
                target = max(0.0, true_w[0] * lta + true_w[1] * mda + rng.normal(0, 20))
                rows.append(row(f"c{i}", float(lta), float(mda), float(target)))
            model = fit_calibration(rows, CalibrationOptions(feature_models=("lta", "mda")))
            A = np.array([[r.features["lta"], r.features["mda"]] for r in rows])
            b = np.array([r.target for r in rows])
            w = np.array([model.weights["lta"], model.weights["mda"]])
            gradient = A.T @ (A @ w - b)
            scale = max(1.0, float(np.max(np.abs(A.T @ b))))
            assert np.all(gradient[w > 0] <= 1e-8 * scale) and np.all(
                np.abs(gradient[w > 0]) <= 1e-8 * scale
            )
            assert np.all(gradient[w == 0] >= -1e-8 * scale)


class TestPredict:
    def test_examples(self):
        single = fit_calibration(
            [row("campA", 1000.0, target=900.0)], CalibrationOptions(feature_models=("lta",))
        )
        assert predict_campaign(single, row("future", 500.0)) == pytest.approx(450.0)
        assert predict_campaign(single, row("dead", 0.0)) == 0.0
        both = fit_calibration(make_rows((0.6, 0.4)), CalibrationOptions(("lta", "mda")))
        assert predict_campaign(both, row("f2", 1000.0, 1200.0)) == pytest.approx(1080.0, abs=1e-6)

    def test_missing_feature_warns_and_counts_zero(self, caplog):
        model = fit_calibration(make_rows((0.6, 0.4)), CalibrationOptions(("lta", "mda")))
        with caplog.at_level(logging.WARNING):
            value = predict_campaign(model, row("partial", 100.0))
        assert value == pytest.approx(60.0, abs=1e-6)
        assert any("lacks feature" in r.message for r in caplog.records)


class TestEvaluateOos:
    def test_noiseless_linear_fixture(self):
        rows = make_rows((0.6, 0.4), n=20, seed=11)
        metrics = evaluate_oos(rows, CalibrationOptions(("lta", "mda")), k=5, seed=0)
        assert metrics["r_squared"] >= 0.999
        assert metrics["mape"] < 1e-6

    def test_uninformative_features_score_poorly(self):
        rng = np.random.default_rng(21)
        rows = [
            row(f"c{i:03d}", float(rng.uniform(100, 200)), float(rng.uniform(100, 200)),
                target=float(rng.normal(500, 200)))
            for i in range(200)
        ]
        metrics = evaluate_oos(rows, CalibrationOptions(("lta", "mda")), k=5, seed=1)
        assert metrics["r_squared"] <= 0.1

    def test_leave_one_out_boundary(self):
        rows = make_rows((0.6, 0.4), n=6, seed=13)
        metrics = evaluate_oos(rows, CalibrationOptions(("lta", "mda")), k=len(rows), seed=0)
        assert metrics["folds"] == len(rows)

    def test_rows_lacking_a_feature_warn_once_with_count(self, caplog):
        rows = make_rows((0.6, 0.4), n=12, seed=3)
        partial = [row(r.campaign_id, r.features["lta"], target=r.target) for r in rows[:5]]
        with caplog.at_level(logging.WARNING):
            evaluate_oos(partial + rows[5:], CalibrationOptions(), k=3, seed=0)
        (record,) = caplog.records
        assert "5 campaign row(s)" in record.message and "lacks feature 'mda'" in record.message

    def test_fold_count_validation(self):
        rows = make_rows((0.6, 0.4), n=4)
        with pytest.raises(ConfigError):
            evaluate_oos(rows, CalibrationOptions(("lta", "mda")), k=5)
        with pytest.raises(ConfigError):
            evaluate_oos(rows, CalibrationOptions(("lta", "mda")), k=1)

    def test_a_group_a_fold_cannot_identify_is_a_gap_not_a_failure(self, caplog):
        """Four Upper rows identify lta, mda and an intercept, but the folds of
        seed 1 train on two of them once. That fold's fit used to raise
        InsufficientDataError; now its two held-out Upper rows are predicted
        as 0 and counted as a gap, and each other row is predicted exactly."""
        upper = [replace(r, campaign_id=f"up{i}") for i, r in enumerate(make_rows((0.6, 0.4), 4, 5))]
        lower = make_rows((0.3, 0.9), n=8, seed=6, channel="Lower")
        options = CalibrationOptions(("lta", "mda"), "per_channel", intercept=True)
        assert set(fit_calibration(upper + lower, options).weights_by_group) == {"Lower", "Upper"}
        with caplog.at_level(logging.WARNING):
            metrics = evaluate_oos(upper + lower, options, k=5, seed=1)
        assert [r.message for r in caplog.records] == [
            "2 campaign row(s): no fitted weights for group 'Upper'; treated as 0"]
        assert metrics["n_rows"] == 12.0 and metrics["mape"] == pytest.approx(2 / 12)
        with pytest.raises(InsufficientDataError, match="group 'Upper': 2 RCT row"):
            fit_calibration(upper[:2] + lower, options)

    def test_an_all_zero_feature_is_logged_once_by_a_fit_with_cv(self, caplog):
        """The folds refit the group too, and each used to log the line again."""
        upper = [replace(r, features={"lta": 0.0, "mda": r.features["mda"]})
                 for r in make_rows((0.6, 0.4), n=6, seed=5)]
        lower = make_rows((0.3, 0.9), n=6, seed=6, channel="Lower")
        lower = [replace(r, campaign_id=f"low{i}") for i, r in enumerate(lower)]
        options = CalibrationOptions(("lta", "mda"), "per_channel")
        with caplog.at_level(logging.WARNING):
            model = pipeline.fit_with_cv(upper + lower, options, cv_folds=3, cv_seed=0)
        assert model.cv_metrics is not None
        assert [r.message for r in caplog.records] == [
            "group 'Upper': feature 'lta' is all-zero; weight fixed at 0"]

    def test_small_targets_excluded_from_mape(self):
        rows = make_rows((0.6, 0.4), n=7, seed=2)
        tiny = CampaignFeatureRow("tiny", "Upper", {"lta": 0.1, "mda": 0.1}, target=0.05)
        metrics = evaluate_oos(rows + [tiny], CalibrationOptions(("lta", "mda")), k=4, seed=0)
        assert metrics["mape_excluded"] == 1.0


class TestSerialization:
    def test_model_json_round_trip(self):
        model = fit_calibration(make_rows((0.6, 0.4), noise=10.0), CalibrationOptions(("lta", "mda")))
        again = CalibrationModel.from_json(model.to_json())
        assert again.weights_by_group == model.weights_by_group
        assert again.feature_names == model.feature_names
        assert again.fit_diagnostics == model.fit_diagnostics
        assert again.pooling == model.pooling

    def test_feature_rows_csv_round_trip(self):
        rows = make_rows((0.6, 0.4), n=4, noise=3.0) + [row("no_rct", 12.5, 8.25, target=None)]
        buffer = io.StringIO()
        feature_rows_to_csv(rows, buffer)
        buffer.seek(0)
        again = feature_rows_from_csv(buffer)
        assert again == rows

    def test_row_invariants(self):
        with pytest.raises(ValueError):
            CampaignFeatureRow("bad", "Upper", {"lta": -1.0})
        with pytest.raises(ValueError):
            CampaignFeatureRow("bad", "Upper", {"lta": 1.0}, target=1.0, target_std_error=-0.1)
