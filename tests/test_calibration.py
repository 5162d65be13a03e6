import csv
import io
import json
import logging
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import nnls as scipy_nnls

from mta_engine import pipeline
from mta_engine.calibration import (
    CalibrationModel,
    CalibrationOptions,
    CampaignFeatureRow,
    aggregate_campaign_features,
    evaluate_oos,
    feature_rows_to_csv,
    fit_calibration,
    nnls,
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

    def test_rct_campaigns_without_a_result_warn_once(self, credit_example, caplog):
        """An ``is_rct`` campaign missing from the RCT results has no target, so
        the fit leaves it out; it used to do so without a word."""
        journeys, credits, campaigns, rct_results = credit_example
        extra = campaigns + tuple(CampaignSpec(cid, "Upper", "display", 0.5, 0.2, 0.0)
                                  for cid in ("campZ", "campY"))
        extra += (CampaignSpec("campX", "Upper", "display", 0.5, 0.2, 0.0, is_rct=False),)
        with caplog.at_level(logging.WARNING):
            rows = aggregate_campaign_features(credit_table(journeys, credits), extra, rct_results)
        assert [r.campaign_id for r in rows if r.target is None] == ["campX", "campY", "campZ"]
        assert [r.getMessage() for r in caplog.records] == [
            "2 RCT campaign(s) have no RCT result, the first 'campY'; the fit leaves them out"]
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            aggregate_campaign_features(credit_table(journeys, credits), campaigns, rct_results)
        assert caplog.records == []

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

    @pytest.mark.parametrize("intercept, lta, word",
                             [(False, 0.0, "all-zero"), (True, 4.0, "constant")],
                             ids=["no-intercept", "intercept"])
    def test_zero_feature_column_warns_and_zeroes(self, caplog, intercept, lta, word):
        """With an intercept the solved column is centred, so a constant one is
        zero and the intercept carries its level; least-norm used to split
        the two."""
        c = 8.0 if intercept else 0.0
        rows = [row(f"c{i}", lta, float(i + 1), target=float(i + 1) + c) for i in range(4)]
        with caplog.at_level(logging.WARNING):
            model = fit_calibration(rows, CalibrationOptions(("lta", "mda"), intercept=intercept))
        assert model.weights["lta"] == 0.0
        assert model.weights["mda"] == pytest.approx(1.0)
        assert [r.message for r in caplog.records] == [
            f"group 'global': feature 'lta' is {word}; weight fixed at 0"]
        if intercept:
            assert model.intercept_by_group["global"] == pytest.approx(8.0, abs=1e-9)

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


class TestNnlsSupportRule:
    """``nnls`` tries every full-rank support, so collinear columns and an
    empty design have one defined answer."""

    def test_identical_columns_put_all_the_weight_on_the_first(self):
        column = np.array([1.0, 2.0, 3.0, 5.0])
        A, b = np.column_stack([column, column]), 0.7 * column + [0.1, -0.1, 0.0, 0.0]
        x, rnorm = nnls(A, b)
        assert x[1] == 0.0 and x[0] == pytest.approx(0.7 - 0.1 / 39)
        assert rnorm == float(np.linalg.norm(A @ x - b))
        # Beside other columns too, where a residual over all of A could differ
        # between the two supports in the last bit.
        rng = np.random.default_rng(11)
        for _ in range(300):
            A = rng.uniform(0.0, 10.0, size=(12, 4))
            A[:, 1] = A[:, 0]
            x, _ = nnls(A, A @ [0.7, 0.0, 0.4, 0.2] + rng.normal(size=12))
            assert x[1] == 0.0 and x[0] > 0.0

    def test_a_column_that_sums_two_others_still_reaches_the_optimum(self):
        rng = np.random.default_rng(24)
        for _ in range(50):
            pair = rng.uniform(0.0, 10.0, size=(8, 2))
            A = np.column_stack([pair, pair.sum(axis=1)])
            b = rng.normal(size=8) * 10.0 + pair @ rng.uniform(-1.0, 1.0, size=2)
            x, rnorm = nnls(A, b)
            gradient = A.T @ (A @ x - b)
            scale = max(1.0, float(np.max(np.abs(A.T @ b))))
            assert np.all(x >= 0.0)
            assert np.all(np.abs(gradient[x > 0]) <= 1e-8 * scale)
            assert np.all(gradient[x == 0] >= -1e-8 * scale)
            assert rnorm == pytest.approx(scipy_nnls(A, b)[1], rel=1e-9, abs=1e-9)

    def test_no_columns_give_an_empty_x_and_the_norm_of_b(self):
        b = np.array([3.0, -4.0, 0.0])
        x, rnorm = nnls(np.zeros((3, 0)), b)
        assert x.shape == (0,) and rnorm == 5.0


# Per group: (lta weight, mda weight, intercept). Global pooling fits every
# row with the Upper group's.
TRUE_FIT = {"Upper": (2.0, 0.5, 5.0), "Lower": (0.25, 3.0, 1.5)}


def exact_rows(pooling, intercept):
    """Rows exactly on a nonnegative-linear model, each with its own SE."""
    features = [(1.0, 7.0), (3.0, 2.0), (5.0, 11.0), (8.0, 4.0), (13.0, 6.0)]
    rows = []
    for channel in ("Upper", "Lower"):
        lta_w, mda_w, c = TRUE_FIT["Upper" if pooling == "global" else channel]
        for i, (lta, mda) in enumerate(features):
            target = lta_w * lta + mda_w * mda + (c if intercept else 0.0)
            se = 0.5 + 0.7 * i + (3.1 if channel == "Lower" else 0.0)
            rows.append(row(f"{channel}{i}", lta, mda, target, channel, se))
    return rows


class TestOneWeightedDesign:
    """Every option combination fits the model that prediction applies. An
    intercept used to be a +/- column pair left unscaled beside rows scaled
    by 1/SE, so inverse-variance weighting with an intercept fitted wrong
    weights on exact rows; and the residual was taken after the scaling."""

    @pytest.mark.parametrize("ivw", [False, True], ids=["unweighted", "ivw"])
    @pytest.mark.parametrize("intercept", [False, True], ids=["no-intercept", "intercept"])
    @pytest.mark.parametrize("pooling", ["global", "per_channel"])
    def test_exact_rows_are_recovered(self, pooling, intercept, ivw):
        rows = exact_rows(pooling, intercept)
        options = CalibrationOptions(("lta", "mda"), pooling, intercept, ivw)
        model = fit_calibration(rows, options)
        groups = ["global"] if pooling == "global" else ["Lower", "Upper"]
        assert sorted(model.weights_by_group) == groups
        for group in groups:
            lta_w, mda_w, c = TRUE_FIT["Upper" if group == "global" else group]
            assert model.weights_by_group[group] == pytest.approx((lta_w, mda_w), abs=1e-9)
            if intercept:
                assert model.intercept_by_group[group] == pytest.approx(c, abs=1e-9)
        assert (model.intercept_by_group is not None) == intercept
        assert model.fit_diagnostics["r_squared"] == pytest.approx(1.0, abs=1e-9)
        for r in rows:
            assert predict_campaign(model, r) == pytest.approx(r.target, abs=1e-9)

    def test_weighted_intercept_fit_of_exact_rows(self):
        """b = 2a + 5 with unequal SEs used to fit w = 2.484, c = 1.752."""
        rows = [row(f"c{i}", a, target=2.0 * a + 5.0, se=se)
                for i, (a, se) in enumerate(zip((1.0, 3.0, 5.0, 8.0, 13.0), (1, 2, 4, 0.5, 3)))]
        options = CalibrationOptions(("lta",), intercept=True, inverse_variance_weighting=True)
        model = fit_calibration(rows, options)
        assert model.weights["lta"] == pytest.approx(2.0, abs=1e-9)
        assert model.intercept_by_group["global"] == pytest.approx(5.0, abs=1e-9)

    @pytest.mark.parametrize("intercept", [False, True], ids=["no-intercept", "intercept"])
    def test_weighted_diagnostics_are_in_target_units(self, intercept):
        """The residual used to be taken on the 1/SE-scaled rows, so R^2 and
        the residual norm described those rows, not the fitted model's."""
        rng = np.random.default_rng(9)
        rows = [row(f"c{i}", float(rng.uniform(10, 100)), float(rng.uniform(10, 100)),
                    target=float(rng.uniform(10, 300)), se=float(rng.uniform(0.5, 20)))
                for i in range(12)]
        options = CalibrationOptions(("lta", "mda"), intercept=intercept,
                                     inverse_variance_weighting=True)
        model = fit_calibration(rows, options)
        A = np.array([[r.features["lta"], r.features["mda"]] for r in rows])
        b = np.array([r.target for r in rows])
        c = model.intercept_by_group["global"] if intercept else 0.0
        residual = b - A @ np.array(model.weights_by_group["global"]) - c
        rss, tss = residual @ residual, np.sum((b - b.mean()) ** 2)
        assert model.fit_diagnostics["residual_norm"] == pytest.approx(np.sqrt(rss), rel=1e-12)
        assert model.fit_diagnostics["r_squared"] == pytest.approx(1.0 - rss / tss, rel=1e-12)
        assert model.fit_diagnostics["r_squared"] < 0.9

    def test_zero_standard_errors_are_reported_once_per_group(self, caplog):
        """Under inverse-variance weighting an SE of 0 is floored at 1e-6 of
        the group's largest, 10^12 times the weight of its noisiest row; the
        full fit says so, and neither the folds nor an unweighted fit do."""
        upper = [replace(r, target_std_error=0.0 if i < 2 else 1.0 + i)
                 for i, r in enumerate(make_rows((0.6, 0.4), n=6, seed=5))]
        lower = [replace(r, campaign_id=f"low{i}", target_std_error=0.0 if i == 0 else 2.0)
                 for i, r in enumerate(make_rows((0.3, 0.9), n=6, seed=6, channel="Lower"))]
        for ivw, expected in ((True, [
            "group 'Lower': 1 RCT row(s) have standard error 0; "
            "inverse-variance weighting floors it at 2e-06",
            "group 'Upper': 2 RCT row(s) have standard error 0; "
            "inverse-variance weighting floors it at 6e-06",
        ]), (False, [])):
            options = CalibrationOptions(("lta", "mda"), "per_channel",
                                         inverse_variance_weighting=ivw)
            caplog.clear()
            with caplog.at_level(logging.WARNING):
                model = pipeline.fit_with_cv(upper + lower, options, cv_folds=3, cv_seed=0)
            assert model.cv_metrics is not None
            assert [r.message for r in caplog.records] == expected


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
        assert metrics["gap_rows"] == 2.0
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

    def test_mape_without_a_sizable_row_is_null_in_the_model_json(self):
        """With every |target| below 1 no row enters the MAPE. It was NaN, which
        ``to_json`` wrote as the bare token ``NaN``: no JSON reader accepts it."""
        rows = [row(f"c{i}", 1.0 + i, 2.0 + i * i, target=0.09 * (i + 1)) for i in range(7)]
        options = CalibrationOptions(("lta", "mda"))
        metrics = evaluate_oos(rows, options, k=3, seed=0)
        assert metrics["mape"] is None and metrics["mape_excluded"] == 7.0
        model = replace(fit_calibration(rows, options), cv_metrics=metrics)

        def refuse(token):
            raise ValueError(f"{token} is not JSON")

        assert json.loads(model.to_json(), parse_constant=refuse)["cv_metrics"] == metrics
        assert CalibrationModel.from_json(model.to_json()) == model


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
