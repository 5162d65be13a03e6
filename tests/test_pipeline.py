import logging
import math
from dataclasses import replace
from datetime import timedelta

import pytest

from mta_engine import attribution, pipeline
from mta_engine.attribution import DecayConfig
from mta_engine.calibration import (
    CalibrationModel,
    CalibrationOptions,
    fit_calibration,
)
from mta_engine.errors import DataIntegrityError
from mta_engine.events import LookbackWindow, build_journeys
from mta_engine.rct import CampaignSpec, SimConfig, estimate_all, simulate
from mta_engine.shares import column_shares

from conftest import (
    T0, conversion_table, credit_rows, credit_table, journey_table, mk_conv, mk_journey, mk_tp,
    predict_campaign, touchpoint_table)


def two_channel_config(n_customers=20_000, seed=11, n_per_channel=4):
    campaigns = []
    for i in range(n_per_channel):
        campaigns.append(
            CampaignSpec(f"up{i:02d}", "Upper", "display", 0.16, 0.04,
                         0.030 * (0.7 + 0.6 * (i % 3) / 2), 0.5, True, (0.05, 0.40))
        )
        campaigns.append(
            CampaignSpec(f"low{i:02d}", "Lower", "product_ad", 0.16, 0.28,
                         0.090 * (0.7 + 0.6 * (i % 3) / 2), 0.5, True, (0.45, 0.70))
        )
    return SimConfig(n_customers, tuple(campaigns), 0.02, seed=seed, horizon=timedelta(days=8))


class TestBuildingBlocks:
    def test_split_attributable(self):
        journeys = [
            mk_journey([mk_tp("t1")], mk_conv("x1")),
            mk_journey([], mk_conv("x2", customer="c2"), customer="c2"),
            mk_journey([mk_tp("t3", customer="c3")], None, customer="c3"),
        ]
        attributable, unattributed = pipeline.split_attributable(journey_table(journeys))
        assert [j.conversion.conversion_id for j in attributable] == ["x1"]
        assert unattributed == 1

    def test_max_negatives_keeps_every_negative(self):
        """``max_negatives`` used to subsample the non-converting journeys; it is
        gone, and the fit reads them all."""
        journeys = [mk_journey([mk_tp("t0")], mk_conv("x0"))]
        journeys += [
            mk_journey([mk_tp(f"t{i}", customer=f"n{i}")], None, customer=f"n{i}")
            for i in range(1, 40)
        ]
        a = pipeline.train_attributor(journey_table(journeys))
        assert a == pipeline.train_attributor(journey_table(journeys))
        # The fitted rate is that of all 40 journeys, 1 in 40, not 1 in 11.
        assert a.training.converged
        assert a.training.final_loss == pytest.approx(-(math.log(1 / 40) + 39 * math.log(39 / 40)) / 40)

    def test_ensemble_credits_aligned_and_mda_optional(self, caplog):
        journeys = [
            mk_journey([mk_tp("t1", ts=T0 - timedelta(days=1))], mk_conv("x1")),
            mk_journey(
                [mk_tp("t2", customer="c2", ts=T0 - timedelta(days=2))],
                mk_conv("x2", customer="c2"),
                customer="c2",
            ),
        ]
        with caplog.at_level(logging.WARNING):
            credits = pipeline.ensemble_credits(journeys, ("lta", "linear", "mda"), mda=None)
        assert set(credits.columns) == {"lta", "linear"}
        assert [label[:2] for label in credits.labels] == [("x1", "t1"), ("x2", "t2")]
        assert credits.columns["lta"].tolist() == [1.0, 1.0]
        assert any("MDA" in r.message for r in caplog.records)
        with pytest.raises(ValueError, match="unknown attribution model 'nope'"):
            pipeline.ensemble_credits(journeys, ("lta", "nope"))

    def test_fit_with_cv_attaches_metrics(self, credit_example):
        from mta_engine.calibration import CampaignFeatureRow

        rows = [
            CampaignFeatureRow(
                f"c{i}", "Upper",
                {"lta": 100.0 + 37.0 * i, "mda": 80.0 + 11.0 * (i % 5)},
                target=0.6 * (100.0 + 37.0 * i) + 0.4 * (80.0 + 11.0 * (i % 5)),
            )
            for i in range(8)
        ]
        model = pipeline.fit_with_cv(rows, CalibrationOptions(("lta", "mda")), cv_folds=4)
        assert model.cv_metrics is not None
        assert model.cv_metrics["r_squared"] >= 0.999
        journeys, credits_by_model, campaigns, rct_results = credit_example
        two_rows = pipeline.calibration_rows(
            credit_table(journeys, credits_by_model), campaigns, rct_results, ("lta", "mda")
        )
        skipped = pipeline.fit_with_cv(two_rows, CalibrationOptions(("lta", "mda")), cv_folds=5)
        assert skipped.cv_metrics is None

    def test_missing_feature_model_is_insufficient_data(self, credit_example):
        from mta_engine.errors import InsufficientDataError

        journeys, credits_by_model, campaigns, rct_results = credit_example
        only_lta = credit_table(journeys, {"lta": credits_by_model["lta"]})
        with pytest.raises(InsufficientDataError, match="mda"):
            pipeline.calibration_rows(only_lta, campaigns, rct_results, ("lta", "mda"))

    def test_model_credit_records_scale_by_units(self):
        journey = mk_journey([mk_tp("t1", ts=T0 - timedelta(days=1))], mk_conv("x1", units=2))
        credits = pipeline.ensemble_credits([journey], ("lta",))
        records = pipeline.model_credit_records(credits)
        assert list(records.columns) == ["lta"]
        assert records.scaled("lta").tolist() == [2.0]
        assert len(records) == 1


@pytest.fixture(scope="module")
def simulated_journeys():
    """The journeys of a small two-channel population, and of the same
    population with channel ``Upper`` renamed ``AUpper``."""
    window = LookbackWindow(timedelta(days=7))
    both = []
    for rename in ({}, {"Upper": "AUpper"}):
        cfg = two_channel_config(n_customers=4000, seed=3)
        campaigns = tuple(replace(c, channel=rename.get(c.channel, c.channel)) for c in cfg.campaigns)
        touchpoints, conversions, _ = simulate(replace(cfg, campaigns=campaigns))
        both.append(build_journeys(touchpoints.touchpoint_table(), conversions, window))
    return both


def same_weights(a, b, order=None) -> bool:
    """Whether two converged fits agree to 1e-9 relative, ``b``'s weights
    taken in ``order`` when given."""
    order = range(len(a.weights)) if order is None else order
    pairs = [*zip(a.weights, [b.weights[i] for i in order]), (a.bias, b.bias)]
    return all(math.isclose(x, y, rel_tol=1e-9) for x, y in pairs) and (
        a.training.converged and b.training.converged)


class TestMdaInvariance:
    """Once the Newton fit has converged, its weights depend on the journeys
    alone. Gradient descent from a seeded start gave weights set by the
    iteration count, the seed, the negative subsample and the order of the
    channel names. The options for the seed and the subsample are gone;
    ``tests/test_cli.py`` checks that the ``mda`` config keys change nothing."""

    def test_iteration_cap(self, simulated_journeys, monkeypatch):
        journeys, _ = simulated_journeys
        capped = []
        for n in (50, 400):
            monkeypatch.setattr(attribution, "_MAX_NEWTON_STEPS", n)
            capped.append(pipeline.train_attributor(journeys))
        assert same_weights(*capped)

    def test_channel_names(self, simulated_journeys):
        models = [pipeline.train_attributor(journeys) for journeys in simulated_journeys]
        renamed = [name.replace(":Upper", ":AUpper") for name in models[0].feature_names]
        assert same_weights(models[0], models[1], [models[1].feature_names.index(n) for n in renamed])
        assert models[1].feature_names == ("n_clicks", "channel_count:AUpper", "channel_count:Lower")


class TestFigureFixtureThroughPipeline:
    def test_share_vectors_differ_pairwise(self, credit_example):
        journeys, credits_by_model, campaigns, rct_results = credit_example
        table = credit_table(journeys, credits_by_model)
        rows = pipeline.calibration_rows(table, campaigns, rct_results, ("lta", "mda"))
        model = fit_calibration(rows, CalibrationOptions(("lta", "mda")))
        mta_shares = column_shares(pipeline.score_all(model, table), "mta").shares()
        records = pipeline.model_credit_records(table)
        lta_shares = column_shares(records, "lta").shares()
        mda_shares = column_shares(records, "mda").shares()
        for channel in ("Upper", "Lower"):
            assert abs(mta_shares[channel] - lta_shares[channel]) > 1e-6
            assert abs(mta_shares[channel] - mda_shares[channel]) > 1e-6
            assert abs(lta_shares[channel] - mda_shares[channel]) > 1e-6

    def test_conservation_per_conversion(self, credit_example):
        journeys, credits_by_model, campaigns, rct_results = credit_example
        table = credit_table(journeys, credits_by_model)
        rows = pipeline.calibration_rows(table, campaigns, rct_results, ("lta", "mda"))
        model = fit_calibration(rows, CalibrationOptions(("lta", "mda")))
        weight_sum = sum(model.weights.values())
        mta = credit_rows(pipeline.score_all(model, table))
        for journey in journeys:
            conv_id = journey.conversion.conversion_id
            total = sum(c.credit for c in mta if c.conversion_id == conv_id)
            assert total == pytest.approx(weight_sum * journey.conversion.units, abs=1e-9)


def many_conversions(n=50):
    journeys = []
    for i in range(n):
        tps = [
            mk_tp(f"u{i}", customer=f"c{i}", channel="Upper", ts=T0 - timedelta(days=2)),
            mk_tp(f"l{i}", customer=f"c{i}", channel="Lower", ts=T0 - timedelta(days=1)),
        ]
        journeys.append(mk_journey(tps, mk_conv(f"x{i}", customer=f"c{i}"), customer=f"c{i}"))
    return credit_table(journeys, {"lta": [(0.0, 1.0)] * n})


class TestScoreAllWarnings:
    def test_missing_model_warns_once_with_count(self, caplog):
        credits = many_conversions()
        model = CalibrationModel(("lta", "mda"), "global", {"global": (0.6, 0.4)}, None)
        with caplog.at_level(logging.WARNING):
            mta = pipeline.score_all(model, credits)
        assert sum(mta.scaled("mta").tolist()) == pytest.approx(0.6 * 50)
        (record,) = caplog.records
        assert "50 conversion(s)" in record.message and "'mda'" in record.message

    def test_unfitted_group_warns_once_with_count(self, caplog):
        credits = many_conversions()
        model = CalibrationModel(("lta",), "per_channel", {"Upper": (1.0,)}, None)
        with caplog.at_level(logging.WARNING):
            mta = pipeline.score_all(model, credits)
        assert all(c == 0.0 for c in mta.scaled("mta").tolist())
        (record,) = caplog.records
        assert "'Lower'" in record.message and "50 touchpoint(s)" in record.message


class TestDuplicateIds:
    def test_touchpoint_id_shared_across_campaigns_is_rejected(self):
        # Two customers each saw a touchpoint called "t1", one in campA and
        # one in campB. Keyed by id, both credits used to land on campB,
        # {campA: 0.0, campB: 2.0}, where the truth is 1 each.
        tps = [
            mk_tp("t1", customer="c1", campaign="campA", ts=T0 - timedelta(days=1)),
            mk_tp("t1", customer="c2", campaign="campB", ts=T0 - timedelta(days=1)),
        ]
        convs = conversion_table([mk_conv("x1", customer="c1"), mk_conv("x2", customer="c2")])
        with pytest.raises(DataIntegrityError, match="touchpoint_id.*'t1'"):
            build_journeys(touchpoint_table(tps), convs, LookbackWindow(timedelta(days=7)))


class TestEndToEndSmoke:
    def test_small_two_channel_run_recovers_ordering(self):
        cfg = two_channel_config()
        touchpoints, conversions, truth = simulate(cfg)
        rct_results = estimate_all(cfg, conversions)
        journeys = build_journeys(
            touchpoints.touchpoint_table(), conversions, LookbackWindow(timedelta(days=7))
        )
        attributable, unattributed = pipeline.split_attributable(journeys)
        mda = pipeline.train_attributor(journeys)
        assert mda is not None
        credits = pipeline.ensemble_credits(attributable, ("lta", "mda"), DecayConfig(), mda)
        rows = pipeline.calibration_rows(credits, cfg.campaigns, rct_results, ("lta", "mda"))
        model = pipeline.fit_with_cv(rows, CalibrationOptions(("lta", "mda")), cv_folds=4)
        assert all(w >= 0.0 for w in model.weights.values())
        mta = pipeline.score_all(model, credits)
        report = column_shares(mta, "mta", "channel", unattributed)
        shares = report.shares()
        # Lower's true incremental effect is 3x Upper's; the calibrated shares
        # must put Lower clearly ahead even at this small scale.
        assert shares["Lower"] > 0.6
        assert shares["Lower"] + shares["Upper"] == pytest.approx(1.0, abs=1e-9)
        # campaign-level conservation: predictions equal disaggregated sums
        totals: dict[str, float] = {}
        for c in credit_rows(mta):
            totals[c.campaign_id] = totals.get(c.campaign_id, 0.0) + c.credit
        for row in rows:
            assert totals.get(row.campaign_id, 0.0) == pytest.approx(
                predict_campaign(model, row), abs=1e-6
            )
