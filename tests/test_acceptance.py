"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `[acceptance] criterion N: PASS/FAIL` line (visible
with `pytest -s tests/test_acceptance.py`).
"""

import json
import time
from datetime import timedelta

import numpy as np

from mta_engine import pipeline
from mta_engine.attribution import (
    DecayConfig,
    MdaHyperparams,
    decay_credits,
    linear_credits,
    lta_credits,
    mda_credits,
    train_mda,
)
from mta_engine.calibration import (
    CalibrationOptions,
    CampaignFeatureRow,
    aggregate_campaign_features,
    fit_calibration,
)
from mta_engine.cli import ARTIFACTS, main
from mta_engine.credits import MtaCredit, aggregate_shares, credit_totals, score_touchpoints
from mta_engine.events import LookbackWindow, build_journeys
from mta_engine.nnls import nnls, nnls_brute_force
from mta_engine.rct import CampaignSpec, SimConfig, estimate_all, replication_study, simulate

from conftest import T0, mk_conv, mk_journey, mk_tp


def check(criterion: str, ok: bool, detail: str = "") -> None:
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_single_rct_calibration_factor():
    start = time.perf_counter()
    row = CampaignFeatureRow("upper", "Upper", {"lta": 1000.0}, target=900.0)
    model = fit_calibration([row], CalibrationOptions(feature_models=("lta",)))
    beta = model.weights["lta"]
    elapsed = time.perf_counter() - start
    ok = abs(beta - 0.9) < 1e-9 and elapsed < 1.0
    check("1 (calibration factor beta=0.9)", ok, f"beta={beta!r} in {elapsed:.3f}s")


def test_criterion_2_ensemble_worked_example(credit_example):
    start = time.perf_counter()
    journeys, credits_by_model, campaigns, rct_results = credit_example
    rows = aggregate_campaign_features(credits_by_model, campaigns, rct_results)
    model = fit_calibration(rows, CalibrationOptions(feature_models=("lta", "mda")))
    weights_ok = (
        abs(model.weights["lta"] - 0.6) < 1e-8 and abs(model.weights["mda"] - 0.4) < 1e-8
    )

    dual_journey = journeys[1]  # touched by Upper then Lower
    per_model = {name: credits_by_model[name][1] for name in credits_by_model}
    mta = {c.channel: c.credit for c in score_touchpoints(model, per_model, dual_journey)}
    credits_ok = abs(mta["Upper"] - 0.12) < 1e-9 and abs(mta["Lower"] - 0.88) < 1e-9

    all_mta = pipeline.score_all(model, journeys, credits_by_model)
    mta_shares = aggregate_shares(all_mta).shares()
    records = pipeline.model_credit_records(credits_by_model)
    lta_totals = credit_totals((r for r in records if r.model == "lta"), "channel")
    mda_totals = credit_totals((r for r in records if r.model == "mda"), "channel")
    lta_shares = {k: v / sum(lta_totals.values()) for k, v in lta_totals.items()}
    mda_shares = {k: v / sum(mda_totals.values()) for k, v in mda_totals.items()}
    shares_ok = all(
        abs(mta_shares[ch] - lta_shares[ch]) > 1e-6
        and abs(mta_shares[ch] - mda_shares[ch]) > 1e-6
        for ch in ("Upper", "Lower")
    )
    elapsed = time.perf_counter() - start
    ok = weights_ok and credits_ok and shares_ok and elapsed < 1.0
    check(
        "2 (ensemble 0.6/0.4, MTA 0.12/0.88, shares diverge)",
        ok,
        f"weights=({model.weights['lta']:.10f}, {model.weights['mda']:.10f}) "
        f"mta=({mta['Upper']:.10f}, {mta['Lower']:.10f}) in {elapsed:.3f}s",
    )


def test_criterion_3_figure1_shares():
    credits = [
        MtaCredit("agg", "tU", "campU", "Upper", "display", 2000.0),
        MtaCredit("agg", "tL", "campL", "Lower", "product_ad", 6000.0),
    ]
    shares = aggregate_shares(credits).shares()
    ok = abs(shares["Upper"] - 0.25) < 1e-9 and abs(shares["Lower"] - 0.75) < 1e-9
    check("3 (Figure-1 shares 25/75)", ok, f"shares={shares}")


def _random_converting_journey(rng: np.random.Generator, serial: int):
    n = int(rng.integers(1, 7))
    channels = ("Upper", "Lower", "Mid")
    tps = []
    for i in range(n):
        ms = int(rng.integers(0, 6 * 24 * 3600 * 1000))
        tps.append(
            mk_tp(
                f"j{serial}t{i}",
                customer=f"jc{serial}",
                ts=T0 - timedelta(milliseconds=ms),
                kind="click" if rng.random() < 0.4 else "view",
                channel=channels[int(rng.integers(0, 3))],
            )
        )
    return mk_journey(tps, mk_conv(f"jx{serial}", customer=f"jc{serial}"), customer=f"jc{serial}")


def test_criterion_4_credit_normalization_property_suite():
    rng = np.random.default_rng(2024)
    # train a small MDA so the trained-model path is exercised
    train = [_random_converting_journey(rng, 100_000 + i) for i in range(150)]
    train += [
        mk_journey([tp for tp in j.touchpoints], None, customer=f"neg{i}")
        for i, j in enumerate(_random_converting_journey(rng, 200_000 + k) for k in range(150))
    ]
    mda_model = train_mda(train, MdaHyperparams(iterations=150, seed=1))

    decay_cfg = DecayConfig(timedelta(days=3))
    worst = 0.0
    n_journeys = 10_000
    for serial in range(n_journeys):
        journey = _random_converting_journey(rng, serial)
        for vector in (
            lta_credits(journey),
            linear_credits(journey),
            decay_credits(journey, decay_cfg),
            mda_credits(mda_model, journey),
        ):
            values = vector.credits
            worst = max(worst, abs(sum(values) - 1.0))
            assert all(0.0 <= v <= 1.0 for v in values)

    ratio_journey = mk_journey(
        [
            mk_tp("r0", ts=T0 - timedelta(days=3)),
            mk_tp("r1", ts=T0),
        ],
        mk_conv("rx", ts=T0),
    )
    ratio_credits = decay_credits(ratio_journey, decay_cfg).as_dict()
    ratio = ratio_credits["r1"] / ratio_credits["r0"]
    ok = worst < 1e-9 and abs(ratio - 2.0) < 1e-9
    check(
        "4 (credit normalization over 10k journeys)",
        ok,
        f"max |sum-1|={worst:.2e}, half-life ratio={ratio!r}",
    )


def test_criterion_5_rct_estimator_calibration():
    start = time.perf_counter()
    config = SimConfig(
        n_customers=100_000,
        campaigns=(
            CampaignSpec(
                "focal", "Upper", "display",
                exposure_rate=0.5, click_rate=0.2, true_lift=0.01, holdout_fraction=0.1,
            ),
        ),
        baseline_conversion_rate=0.02,
        seed=424242,
    )
    outcomes = replication_study(config, 500)
    errors = np.array([o.result.incremental_conversions - o.true_incremental for o in outcomes])
    se_of_mean = errors.std(ddof=1) / np.sqrt(len(errors))
    coverage = float(np.mean([o.result.covers(o.true_incremental) for o in outcomes]))
    elapsed = time.perf_counter() - start
    ok = abs(errors.mean()) < 2 * se_of_mean and 0.92 <= coverage <= 0.98 and elapsed < 120.0
    check(
        "5 (RCT estimator bias/coverage over 500 reps)",
        ok,
        f"mean bias={errors.mean():.2f} (2se={2 * se_of_mean:.2f}), "
        f"coverage={coverage:.3f}, {elapsed:.1f}s",
    )


def test_criterion_6_nnls_oracle_equivalence():
    rng = np.random.default_rng(606)
    worst_gap = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(n + 1, n + 12))
        A = rng.normal(size=(m, n))
        b = rng.normal(size=m)
        x, _ = nnls(A, b)
        x_oracle, _ = nnls_brute_force(A, b)
        worst_gap = max(worst_gap, float(np.max(np.abs(x - x_oracle))))
        gradient = A.T @ (A @ x - b)
        scale = max(1.0, float(np.max(np.abs(A.T @ b))))
        assert np.all(np.abs(gradient[x > 0]) <= 1e-8 * scale)
        assert np.all(gradient[x == 0] >= -1e-8 * scale)
    ok = worst_gap < 1e-8
    check("6 (NNLS vs brute-force oracle)", ok, f"max weight gap={worst_gap:.2e}")


def two_channel_campaigns(n_per_channel: int = 10) -> tuple[CampaignSpec, ...]:
    """Two channels whose total true incremental effects stand at 3:1
    (Lower:Upper), with Upper touching early and Lower touching late so
    last-touch systematically over-credits Lower."""
    campaigns = []
    for i in range(n_per_channel):
        wiggle = 0.7 + 0.6 * (i % 3) / 2
        campaigns.append(
            CampaignSpec(
                f"up{i:02d}", "Upper", "display",
                exposure_rate=0.16, click_rate=0.04, true_lift=0.030 * wiggle,
                holdout_fraction=0.5, is_rct=True, view_window=(0.05, 0.40),
            )
        )
        campaigns.append(
            CampaignSpec(
                f"low{i:02d}", "Lower", "product_ad",
                exposure_rate=0.16, click_rate=0.28, true_lift=0.090 * wiggle,
                holdout_fraction=0.5, is_rct=True, view_window=(0.45, 0.70),
            )
        )
    return tuple(campaigns)


def _run_two_channel_pipeline(seed: int, n_customers: int):
    config = SimConfig(
        n_customers=n_customers,
        campaigns=two_channel_campaigns(),
        baseline_conversion_rate=0.02,
        seed=seed,
        horizon=timedelta(days=8),
    )
    touchpoints, conversions, truth = simulate(config)
    rct_results = estimate_all(config, conversions)
    journeys = build_journeys(touchpoints, conversions, LookbackWindow(timedelta(days=7)))
    attributable, unattributed = pipeline.split_attributable(journeys)
    mda = pipeline.train_attributor(
        journeys, MdaHyperparams(0.5, 250, 0), max_negatives=20_000
    )
    credits = pipeline.ensemble_credits(attributable, ("lta", "mda"), DecayConfig(), mda)
    rows = pipeline.calibration_rows(credits, config.campaigns, rct_results, ("lta", "mda"))
    model = fit_calibration(rows, CalibrationOptions(feature_models=("lta", "mda")))
    mta = pipeline.score_all(model, attributable, credits)
    mta_share = aggregate_shares(mta, "channel", unattributed).shares()["Lower"]
    records = pipeline.model_credit_records(credits)
    lta_totals = credit_totals((r for r in records if r.model == "lta"), "channel")
    lta_share = lta_totals["Lower"] / sum(lta_totals.values())
    spec_by_id = {c.campaign_id: c for c in config.campaigns}
    true_lower = sum(r.true_incremental for r in truth if spec_by_id[r.campaign_id].channel == "Lower")
    true_share = true_lower / sum(r.true_incremental for r in truth)
    return mta_share, lta_share, true_share


def test_criterion_7_end_to_end_share_recovery():
    start = time.perf_counter()
    runs = []
    for rep in range(20):
        mta_share, lta_share, true_share = _run_two_channel_pipeline(
            seed=9000 + 1000 * rep, n_customers=200_000
        )
        runs.append((mta_share, lta_share, true_share))
    mta_errors = [abs(m - 0.75) for m, _, _ in runs]
    lta_errors = [abs(l - 0.75) for _, l, _ in runs]
    within_5pp = all(err <= 0.05 for err in mta_errors)
    lta_worse = sum(1 for m, l in zip(mta_errors, lta_errors) if l > m)
    elapsed = time.perf_counter() - start
    ok = within_5pp and lta_worse >= 16 and elapsed < 300.0
    check(
        "7 (end-to-end 75/25 recovery, MTA beats LTA)",
        ok,
        f"max MTA err={max(mta_errors) * 100:.2f}pp, LTA worse in {lta_worse}/20, "
        f"mean LTA err={np.mean(lta_errors) * 100:.1f}pp, {elapsed:.0f}s",
    )


def test_criterion_8_pipeline_determinism(tmp_path):
    out = tmp_path / "out"
    config = {
        "seed": 31,
        "out_dir": str(out),
        "lookback_days": 7.0,
        "decay_half_life_days": 3.0,
        "report_dimension": "channel",
        "mda": {"learning_rate": 0.5, "iterations": 120, "seed": 0},
        "calibration": {"features": ["lta", "mda"], "cv_folds": 3},
        "simulation": {
            "n_customers": 5000,
            "baseline_conversion_rate": 0.02,
            "horizon_days": 8.0,
            "campaigns": [
                {
                    "campaign_id": f"c{i}",
                    "channel": "Upper" if i % 2 else "Lower",
                    "ad_product": "display",
                    "exposure_rate": 0.3,
                    "click_rate": 0.2,
                    "true_lift": 0.03,
                    "holdout_fraction": 0.4,
                    "view_window": [0.05, 0.4] if i % 2 else [0.45, 0.7],
                }
                for i in range(4)
            ],
        },
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config))

    def run_all() -> dict[str, bytes]:
        for command in ("simulate", "fit", "attribute", "report"):
            assert main([command, "--config", str(cfg_path)]) == 0, command
        blobs = {}
        for path in sorted(out.iterdir()):
            blobs[path.name] = path.read_bytes()
        return blobs

    first = run_all()
    second = run_all()
    same = set(first) == set(second) and all(first[k] == second[k] for k in first)
    expected = set(ARTIFACTS.values()) | {f"manifest_{c}.json" for c in ("simulate", "fit", "attribute", "report")}
    complete = expected <= set(first)
    ok = same and complete
    check("8 (byte-identical pipeline reruns)", ok, f"{len(first)} artifacts compared")
