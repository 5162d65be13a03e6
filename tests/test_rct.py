import json

import numpy as np
import pytest

from mta_engine import rct, rng
from mta_engine.errors import ConfigError, DegenerateDesignError
from mta_engine.rct import (
    HOLDOUT,
    TREATMENT,
    CampaignSpec,
    SimConfig,
    assign_treatment,
    customer_ids,
    estimate_all,
    estimate_lift,
    lift_from_counts,
    replication_study,
    simulate,
)

from conftest import T0, conversion_table, conversion_to_record, mk_conv, touchpoint_to_record


def spec(campaign_id="campA", **overrides) -> CampaignSpec:
    defaults = dict(
        channel="Upper",
        ad_product="display",
        exposure_rate=0.5,
        click_rate=0.2,
        true_lift=0.01,
        holdout_fraction=0.1,
    )
    defaults.update(overrides)
    return CampaignSpec(campaign_id, **defaults)


class TestAssignTreatment:
    def test_fraction_bounds(self):
        for bad in (0.0, 1.0, 1.5, -0.1):
            with pytest.raises(ConfigError):
                assign_treatment(["c1"], bad, seed=1)

    def test_counts_within_binomial_interval(self):
        ids = customer_ids(10_000)
        assignment = assign_treatment(ids, 0.5, seed=42, campaign_id="campA")
        holdout = sum(1 for arm in assignment.values() if arm == HOLDOUT)
        assert 4700 <= holdout <= 5300

    def test_stable_under_shuffle(self):
        ids = customer_ids(500)
        shuffled = list(reversed(ids))
        a = assign_treatment(ids, 0.3, seed=9, campaign_id="campA")
        b = assign_treatment(shuffled, 0.3, seed=9, campaign_id="campA")
        assert a == b

    def test_independent_across_campaigns(self):
        ids = customer_ids(10_000)
        a = assign_treatment(ids, 0.5, seed=7, campaign_id="campA")
        b = assign_treatment(ids, 0.5, seed=7, campaign_id="campB")
        xa = np.array([a[i] == HOLDOUT for i in ids], dtype=float)
        xb = np.array([b[i] == HOLDOUT for i in ids], dtype=float)
        assert abs(np.corrcoef(xa, xb)[0, 1]) < 0.05

    def test_seed_changes_assignment(self):
        ids = customer_ids(1000)
        a = assign_treatment(ids, 0.5, seed=1, campaign_id="campA")
        b = assign_treatment(ids, 0.5, seed=2, campaign_id="campA")
        assert a != b


class TestSimulate:
    def test_null_lift_means_zero_ground_truth(self):
        cfg = SimConfig(5_000, (spec(true_lift=0.0),), 0.05, seed=3)
        _, _, truth = simulate(cfg)
        assert truth[0].true_incremental == 0.0

    def test_full_exposure_closed_form(self):
        cfg = SimConfig(20_000, (spec(exposure_rate=1.0, true_lift=0.02),), 0.01, seed=5)
        _, _, truth = simulate(cfg)
        assert truth[0].true_incremental == pytest.approx(truth[0].n_treatment * 0.02, rel=1e-9)

    def test_holdout_customers_never_touched(self):
        cfg = SimConfig(4_000, (spec(), spec("campB", holdout_fraction=0.4)), 0.02, seed=8)
        touchpoints = simulate(cfg)[0].touchpoint_table()
        ids = customer_ids(cfg.n_customers)
        for campaign in cfg.campaigns:
            assignment = assign_treatment(
                ids, campaign.holdout_fraction, cfg.seed, campaign.campaign_id
            )
            touched = {
                tp.customer_id for tp in touchpoints if tp.campaign_id == campaign.campaign_id
            }
            held_out = {cid for cid, arm in assignment.items() if arm == HOLDOUT}
            assert touched.isdisjoint(held_out)

    def test_byte_identical_reruns(self):
        cfg = SimConfig(2_000, (spec(), spec("campB")), 0.02, seed=13)
        first = simulate(cfg)
        second = simulate(cfg)
        lines_a = [json.dumps(touchpoint_to_record(tp)) for tp in first[0].touchpoint_table()]
        lines_b = [json.dumps(touchpoint_to_record(tp)) for tp in second[0].touchpoint_table()]
        assert lines_a == lines_b
        assert [json.dumps(conversion_to_record(c)) for c in first[1]] == [
            json.dumps(conversion_to_record(c)) for c in second[1]
        ]
        assert first[2] == second[2]

    def test_events_are_well_formed(self):
        cfg = SimConfig(3_000, (spec(click_rate=0.5),), 0.02, seed=21)
        touchpoints, conversions, _ = simulate(cfg)
        touchpoints = touchpoints.touchpoint_table()
        assert any(tp.interaction_kind.value == "click" for tp in touchpoints)
        tp_ids = [tp.touchpoint_id for tp in touchpoints]
        assert len(tp_ids) == len(set(tp_ids))
        stamps = [tp.timestamp for tp in touchpoints]
        assert stamps == sorted(stamps)
        assert all(c.units == 1 for c in conversions)

    def test_clamping_warns(self, caplog):
        cfg = SimConfig(2_000, (spec(exposure_rate=1.0, true_lift=0.5),), 0.9, seed=2)
        with caplog.at_level("WARNING"):
            simulate(cfg)
        assert any("clamped" in record.message for record in caplog.records)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SimConfig(1, (spec(),), 0.02, seed=1)
        with pytest.raises(ConfigError):
            SimConfig(100, (spec(),), 1.5, seed=1)
        with pytest.raises(ConfigError):
            SimConfig(100, (spec(), spec()), 0.02, seed=1)  # duplicate ids
        with pytest.raises(ConfigError):
            spec(holdout_fraction=1.5)


class TestEstimateLift:
    def test_equal_rates_give_zero(self):
        assignment = {f"t{i}": TREATMENT for i in range(100)}
        assignment.update({f"h{i}": HOLDOUT for i in range(100)})
        conversions = [mk_conv(f"xt{i}", f"t{i}", T0) for i in range(10)]
        conversions += [mk_conv(f"xh{i}", f"h{i}", T0) for i in range(10)]
        result = estimate_lift(assignment, conversion_table(conversions), "campA")
        assert result.incremental_conversions == 0.0
        assert result.ci_low <= 0.0 <= result.ci_high

    def test_worked_example(self):
        result = lift_from_counts(
            "campA", n_treatment=10_000, n_holdout=10_000, conv_treatment=1000, conv_holdout=900
        )
        assert result.incremental_conversions == pytest.approx(100.0)
        expected_se = 10_000 * np.sqrt(0.1 * 0.9 / 10_000 + 0.09 * 0.91 / 10_000)
        assert result.std_error == pytest.approx(expected_se)
        assert result.ci_low == pytest.approx(100.0 - 1.959963984540054 * expected_se)
        assert result.ci_high == pytest.approx(100.0 + 1.959963984540054 * expected_se)

    def test_empty_group_raises(self):
        with pytest.raises(DegenerateDesignError):
            lift_from_counts("campA", n_treatment=0, n_holdout=10, conv_treatment=0, conv_holdout=0)
        with pytest.raises(DegenerateDesignError):
            estimate_lift({"c1": TREATMENT}, conversion_table([]), "campA")

    def test_unassigned_customers_ignored(self):
        assignment = {"c1": TREATMENT, "c2": HOLDOUT}
        conversions = [mk_conv("x1", "c1", T0), mk_conv("x2", "stranger", T0)]
        result = estimate_lift(assignment, conversion_table(conversions), "campA")
        assert result.conv_treatment == 1.0
        assert result.conv_holdout == 0.0

    def test_units_are_summed(self):
        assignment = {"c1": TREATMENT, "c2": HOLDOUT}
        result = estimate_lift(
            assignment, conversion_table([mk_conv("x1", "c1", T0, units=3)]), "campA"
        )
        assert result.conv_treatment == 3.0


class TestPopulationHashes:
    def test_simulate_then_estimate_all_hashes_the_population_once(self, monkeypatch):
        calls = []
        id_hashes = rng.id_hashes

        def counting(values):
            calls.append(len(values))
            return id_hashes(values)

        monkeypatch.setattr(rng, "id_hashes", counting)
        rct.population_hashes.cache_clear()
        cfg = SimConfig(2_000, (spec(), spec("campB", holdout_fraction=0.4)), 0.03, seed=3)
        _, conversions, _ = simulate(cfg)
        results = estimate_all(cfg, conversions)
        assert calls == [2_000]
        assert set(results) == {"campA", "campB"}
        assert not rct.population_hashes(2_000).flags.writeable


class TestPathConsistency:
    def test_object_path_matches_vectorized_study(self):
        cfg = SimConfig(8_000, (spec(holdout_fraction=0.25),), 0.03, seed=31)
        touchpoints, conversions, truth = simulate(cfg)
        assignment = assign_treatment(
            customer_ids(cfg.n_customers), 0.25, cfg.seed, "campA"
        )
        via_objects = estimate_lift(assignment, conversions, "campA")
        (outcome,) = replication_study(cfg, 1)
        assert via_objects == outcome.result
        assert outcome.true_incremental == truth[0].true_incremental
        via_estimate_all = estimate_all(cfg, conversions)["campA"]
        assert via_estimate_all == via_objects

    def test_estimate_all_matches_estimate_lift_on_multi_unit_conversions(self):
        cfg = SimConfig(
            3_000, (spec(holdout_fraction=0.3), spec("campB", holdout_fraction=0.5)), 0.03, seed=5
        )
        ids = customer_ids(cfg.n_customers)
        conversions = [mk_conv(f"x{i}", ids[7 * i], T0, units=1 + i % 4) for i in range(300)]
        conversions += [mk_conv(f"again{i}", ids[14], T0, units=5 + i) for i in range(3)]
        conversions.append(mk_conv("stranger", "C9999999", T0, units=9))
        table = conversion_table(conversions)
        results = estimate_all(cfg, table)
        for s in cfg.campaigns:
            assignment = assign_treatment(ids, s.holdout_fraction, cfg.seed, s.campaign_id)
            assert results[s.campaign_id] == estimate_lift(assignment, table, s.campaign_id)
            for arm, total in ((TREATMENT, "conv_treatment"), (HOLDOUT, "conv_holdout")):
                expected = sum(c.units for c in conversions if assignment.get(c.customer_id) == arm)
                assert getattr(results[s.campaign_id], total) == expected


class TestEstimatorCalibration:
    def test_unbiased_with_nominal_coverage(self):
        cfg = SimConfig(
            10_000,
            (spec(exposure_rate=0.5, true_lift=0.05, holdout_fraction=0.3),),
            0.02,
            seed=100,
        )
        outcomes = replication_study(cfg, 200)
        errors = np.array([o.result.incremental_conversions - o.true_incremental for o in outcomes])
        se_of_mean = errors.std(ddof=1) / np.sqrt(len(errors))
        assert abs(errors.mean()) < 2 * se_of_mean
        coverage = np.mean([o.result.ci_low <= o.true_incremental <= o.result.ci_high
                            for o in outcomes])
        assert 0.92 <= coverage <= 0.98
