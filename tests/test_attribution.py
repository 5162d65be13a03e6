import json
import logging
import math
from datetime import timedelta
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mta_engine import attribution
from mta_engine.attribution import (
    DecayConfig,
    MdaModel,
    decay_credits,
    feature_names_for,
    linear_credits,
    lta_credits,
    mda_credits,
    train_mda,
)
from mta_engine.errors import DegenerateLabelsError, NoTouchpointsError
from mta_engine.events import Journey

from conftest import (
    T0,
    UNTRAINED,
    by_touchpoint_id,
    feature_vector,
    journey_table,
    mk_conv,
    mk_journey,
    mk_tp,
    predict_proba,
)

HL3D = DecayConfig(timedelta(days=3))


def simple_journey(*offsets_days, kinds=None, channels=None, conv_at=T0):
    kinds = kinds or ["view"] * len(offsets_days)
    channels = channels or ["Upper"] * len(offsets_days)
    tps = [
        mk_tp(f"t{i}", ts=conv_at - timedelta(days=d), kind=k, channel=ch)
        for i, (d, k, ch) in enumerate(zip(offsets_days, kinds, channels))
    ]
    return mk_journey(tps, mk_conv("x1", ts=conv_at))


class TestLta:
    def test_last_touch_takes_all(self):
        j = simple_journey(2.0, 0.5, channels=["Upper", "Lower"])
        assert by_touchpoint_id(j, lta_credits(j)) == {"t0": 0.0, "t1": 1.0}

    def test_single_touchpoint(self):
        j = simple_journey(1.0)
        assert by_touchpoint_id(j, lta_credits(j)) == {"t0": 1.0}

    def test_click_beats_view_at_equal_timestamp(self):
        ts = T0 - timedelta(days=1)
        j = mk_journey(
            [mk_tp("b_view", ts=ts, kind="view"), mk_tp("a_click", ts=ts, kind="click")],
            mk_conv("x1", ts=T0),
        )
        assert by_touchpoint_id(j, lta_credits(j))["a_click"] == 1.0

    def test_id_breaks_remaining_ties(self):
        ts = T0 - timedelta(days=1)
        j = mk_journey(
            [mk_tp("t_a", ts=ts), mk_tp("t_b", ts=ts)],
            mk_conv("x1", ts=T0),
        )
        assert by_touchpoint_id(j, lta_credits(j))["t_b"] == 1.0

    def test_no_touchpoints(self):
        with pytest.raises(NoTouchpointsError):
            lta_credits(mk_journey([], mk_conv()))


class TestLinear:
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_equal_split(self, n):
        j = simple_journey(*[i + 1 for i in range(n)])
        credits = by_touchpoint_id(j, linear_credits(j))
        assert all(c == pytest.approx(1.0 / n) for c in credits.values())
        assert len(credits) == n


class TestDecay:
    def test_single_touchpoint_any_age(self):
        j = simple_journey(6.5)
        assert by_touchpoint_id(j, decay_credits(j, HL3D)) == {"t0": 1.0}

    def test_one_half_life_gives_two_to_one(self):
        j = simple_journey(3.0, 0.0)
        credits = by_touchpoint_id(j, decay_credits(j, HL3D))
        assert credits["t1"] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert credits["t0"] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert abs(credits["t1"] / credits["t0"] - 2.0) < 1e-9

    def test_equal_ages_split_evenly(self):
        j = simple_journey(2.0, 2.0)
        credits = by_touchpoint_id(j, decay_credits(j, HL3D))
        assert credits == {"t0": 0.5, "t1": 0.5}

    def test_tiny_half_life_approximates_lta(self):
        j = simple_journey(4.0, 2.0, 0.001)  # distinct ms-resolution timestamps
        credits = by_touchpoint_id(j, decay_credits(j, DecayConfig(timedelta(microseconds=10))))
        assert credits["t2"] >= 0.999
        assert by_touchpoint_id(j, lta_credits(j))["t2"] == 1.0

    def test_huge_age_gap_does_not_underflow(self):
        j = simple_journey(6.9, 0.0)
        credits = by_touchpoint_id(j, decay_credits(j, DecayConfig(timedelta(microseconds=10))))
        assert math.isfinite(credits["t1"]) and credits["t1"] == pytest.approx(1.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DecayConfig(timedelta(0))


def zero_model(channels=("Upper", "Lower")) -> MdaModel:
    names = ("n_clicks",) + tuple(f"channel_count:{c}" for c in channels)
    return MdaModel(names, (0.0,) * len(names), -1.0, UNTRAINED)


class TestMdaCredits:
    def test_symmetric_touchpoints_split_evenly(self):
        model = zero_model()
        model = MdaModel(
            model.feature_names,
            (0.0, 0.5, 0.0),
            -1.0,
            model.training,
        )
        j = simple_journey(2.0, 2.0)
        credits = by_touchpoint_id(j, mda_credits(model, j))
        assert credits["t0"] == pytest.approx(0.5)
        assert credits["t1"] == pytest.approx(0.5)

    def test_constant_model_falls_back_to_uniform(self):
        j = simple_journey(3.0, 2.0, 1.0)
        credits = by_touchpoint_id(j, mda_credits(zero_model(), j))
        assert all(c == pytest.approx(1.0 / 3.0) for c in credits.values())

    def test_asymmetric_split_possible(self):
        # A channel-weighted model must be able to split credit unevenly
        # across an Upper view and a Lower click, clicks earning more.
        names = ("n_clicks", "channel_count:Lower", "channel_count:Upper")
        model = MdaModel(names, (1.0, 1.2, 0.4), -1.5, UNTRAINED)
        j = simple_journey(3.0, 1.0, kinds=["view", "click"], channels=["Upper", "Lower"])
        credits = by_touchpoint_id(j, mda_credits(model, j))
        assert credits["t1"] > credits["t0"] > 0.0
        assert credits["t0"] + credits["t1"] == pytest.approx(1.0, abs=1e-9)

    def test_permutation_invariance(self):
        names = feature_names_for(journey_table([simple_journey(1.0, channels=["Upper"])]))
        model = MdaModel(names, (0.3, 0.4), -1.0, UNTRAINED)
        j = simple_journey(5.0, 3.0, 1.0, kinds=["view", "click", "view"])
        reversed_j = mk_journey(tuple(reversed(j.touchpoints)), j.conversion)
        assert mda_credits(model, j) == mda_credits(model, reversed_j)

    def test_no_touchpoints(self):
        with pytest.raises(NoTouchpointsError):
            mda_credits(zero_model(), mk_journey([], mk_conv()))


def training_fixture():
    """Converters all have a click; non-converters only views."""
    journeys = []
    for i in range(12):
        tps = [
            mk_tp(f"v{i}", customer=f"p{i}", ts=T0 - timedelta(days=2), kind="view"),
            mk_tp(f"k{i}", customer=f"p{i}", ts=T0 - timedelta(days=1), kind="click"),
        ]
        journeys.append(mk_journey(tps, mk_conv(f"x{i}", customer=f"p{i}", ts=T0), customer=f"p{i}"))
    for i in range(12):
        tps = [mk_tp(f"n{i}", customer=f"q{i}", ts=T0 - timedelta(days=1.5), kind="view")]
        journeys.append(mk_journey(tps, None, customer=f"q{i}"))
    return journeys


def separated_by_a_difference():
    """Converters hold one more Upper than Lower touchpoint, non-converters as
    many of each: ``channel_count:Upper - channel_count:Lower`` separates the
    labels, and neither count does alone."""
    journeys = []
    for i, (upper, lower, converted) in enumerate(
        [(2, 1, True), (1, 0, True), (2, 2, False), (0, 0, False), (1, 1, False)] * 3
    ):
        tps = [mk_tp(f"u{i}.{k}", customer=f"c{i}", ts=T0 - timedelta(days=1), channel="Upper")
               for k in range(upper)]
        tps += [mk_tp(f"l{i}.{k}", customer=f"c{i}", ts=T0 - timedelta(days=1), channel="Lower")
                for k in range(lower)]
        conv = mk_conv(f"x{i}", customer=f"c{i}", ts=T0) if converted else None
        journeys.append(mk_journey(tps, conv, customer=f"c{i}"))
    return journeys


def overlapping_fixture():
    """Journeys whose labels no weights separate: every (clicks, channel)
    pattern both converts and does not, at different rates."""
    journeys = []
    for i in range(60):
        kinds = ["click"] * (i % 3) + ["view"] * (1 + i % 2)
        channels = ["Upper", "Lower"] * 3
        tps = [mk_tp(f"t{i}.{k}", customer=f"c{i}", ts=T0 - timedelta(days=1 + k), kind=kind,
                     channel=channels[k + i % 2])
               for k, kind in enumerate(kinds)]
        converted = (i * 7919) % 5 < 1 + i % 3
        conv = mk_conv(f"x{i}", customer=f"c{i}", ts=T0) if converted else None
        journeys.append(mk_journey(tps, conv, customer=f"c{i}"))
    return journeys


def mda_warnings(caplog) -> list[str]:
    return [r.getMessage() for r in caplog.records if r.name == "mta_engine.attribution"]


class TestTrainMda:
    def test_separable_set_ranks_converters_first_and_warns_once(self, caplog):
        journeys = training_fixture()
        with caplog.at_level(logging.WARNING):
            model = train_mda(journey_table(journeys))
        scores = [(predict_proba(model, j), j.converted) for j in journeys]
        worst_converter = min(s for s, conv in scores if conv)
        best_abstainer = max(s for s, conv in scores if not conv)
        assert worst_converter > best_abstainer
        assert all(math.isfinite(w) for w in (*model.weights, model.bias))
        assert not model.training.converged
        [warning] = mda_warnings(caplog)
        assert "separated by 'n_clicks'" in warning
        assert f"Newton step {model.training.steps}" in warning

    def test_separation_by_no_single_feature_is_reported(self, caplog):
        journeys = separated_by_a_difference()
        with caplog.at_level(logging.WARNING):
            model = train_mda(journey_table(journeys))
        scores = [(predict_proba(model, j), j.converted) for j in journeys]
        assert min(s for s, conv in scores if conv) > max(s for s, conv in scores if not conv)
        assert not model.training.converged
        [warning] = mda_warnings(caplog)
        assert "did not converge" in warning and "separated" in warning

    def test_a_fit_stopped_by_the_cap_warns_once(self, caplog, monkeypatch):
        monkeypatch.setattr(attribution, "_MAX_NEWTON_STEPS", 1)
        with caplog.at_level(logging.WARNING):
            model = train_mda(journey_table(overlapping_fixture()))
        assert model.training.steps == 1 and not model.training.converged
        assert mda_warnings(caplog) == ["MDA training did not converge in 1 Newton step(s)"]

    def test_overlapping_labels_converge_without_a_warning(self, caplog):
        with caplog.at_level(logging.WARNING):
            model = train_mda(journey_table(overlapping_fixture()))
        assert model.training.converged and model.training.steps <= 10
        assert model.training.gradient_max_norm < 1e-9
        assert mda_warnings(caplog) == []

    def test_constant_features_converge_to_base_rate(self):
        journeys = []
        for i in range(5):
            tp = mk_tp(f"t{i}", customer=f"c{i}", ts=T0)
            conv = mk_conv(f"x{i}", customer=f"c{i}", ts=T0) if i < 2 else None
            journeys.append(mk_journey([tp], conv, customer=f"c{i}"))
        model = train_mda(journey_table(journeys))
        p = predict_proba(model, journeys[0])
        base_rate = 2.0 / 5.0
        assert abs(p - base_rate) < 1e-3
        # closed form check: fitted log-odds approach log(0.4 / 0.6)
        x = feature_vector(model.feature_names, journeys[0].touchpoints)
        z = sum(w * v for w, v in zip(model.weights, x)) + model.bias
        assert abs(z - math.log(base_rate / (1 - base_rate))) < 5e-3

    def test_deterministic_under_canonical_resort(self):
        journeys = training_fixture()
        permuted = list(reversed(journeys))
        canonical = sorted(permuted, key=lambda j: j.customer_id)
        reference = train_mda(journey_table(sorted(journeys, key=lambda j: j.customer_id)))
        again = train_mda(journey_table(canonical))
        assert reference.weights == again.weights
        assert reference.bias == again.bias

    def test_degenerate_labels(self):
        converters = [j for j in training_fixture() if j.converted]
        with pytest.raises(DegenerateLabelsError):
            train_mda(journey_table(converters))
        with pytest.raises(DegenerateLabelsError):
            train_mda(journey_table([]))

    @pytest.mark.parametrize("fixture", [training_fixture, overlapping_fixture])
    def test_loss_monotone_and_metadata(self, fixture):
        model = train_mda(journey_table(fixture()))
        history = model.training.loss_history
        assert len(history) == model.training.steps + 1 <= 201
        assert history[0] == model.training.initial_loss == math.log(2.0)
        assert history[-1] == model.training.final_loss
        assert all(history[i + 1] <= history[i] * (1 + 1e-12) for i in range(len(history) - 1))
        assert model.training.final_loss < model.training.initial_loss

    def test_json_round_trip_bit_exact(self):
        model = train_mda(journey_table(overlapping_fixture()))
        # perturb weights to awkward floats
        weights = tuple(np.nextafter(w, 1.0) for w in model.weights)
        model = MdaModel(model.feature_names, weights, model.bias / 3.0, model.training)
        again = MdaModel.from_json(model.to_json())
        assert again.weights == model.weights
        assert again.bias == model.bias
        assert again.feature_names == model.feature_names
        assert again.training == model.training
        assert json.loads(model.to_json())["metadata"] == {
            "steps": model.training.steps, "converged": True,
            "gradient_max_norm": model.training.gradient_max_norm,
            "initial_loss": math.log(2.0), "final_loss": model.training.final_loss,
            "loss_history": list(model.training.loss_history),
        }

    def test_weights_solve_the_score_equations_of_every_journey(self):
        """The fit over distinct rows is the maximum-likelihood fit over the
        journeys: the log-loss gradient, summed journey by journey from the
        feature oracle, vanishes at its weights."""
        journeys = overlapping_fixture()
        model = train_mda(journey_table(journeys))
        X = np.array([[*feature_vector(model.feature_names, j.touchpoints), 1.0] for j in journeys])
        p = np.array([predict_proba(model, j) for j in journeys])
        y = np.array([j.converted for j in journeys], dtype=float)
        assert np.abs(X.T @ (p - y)).max() / len(journeys) < 1e-9


class TestDistinctRows:
    @pytest.mark.parametrize("high", [3, 2**40], ids=["small-counts", "renumbered"])
    def test_equal_to_unique_rows(self, high):
        rng = np.random.default_rng(5)
        X = rng.integers(0, high, size=(500, 4)).astype(np.float64)
        X[250:] = X[:250]  # every row at least twice
        y = rng.integers(0, 2, 500).astype(bool)
        rows, labels, count = attribution._distinct_rows(X, y)
        expected, expected_count = np.unique(np.column_stack([y, X]), axis=0, return_counts=True)
        got = sorted(zip(map(tuple, np.column_stack([labels, rows]).tolist()), count.tolist()))
        assert got == sorted(zip(map(tuple, expected.tolist()), expected_count.tolist()))
        assert count.sum() == 500 and labels.dtype == np.float64


@st.composite
def converting_journeys(draw):
    n = draw(st.integers(1, 8))
    tps = []
    for i in range(n):
        ms = draw(st.integers(0, 6 * 24 * 3600 * 1000))
        tps.append(
            mk_tp(
                f"t{i}",
                ts=T0 - timedelta(milliseconds=ms),
                kind=draw(st.sampled_from(["view", "click"])),
                channel=draw(st.sampled_from(["Upper", "Lower", "Mid"])),
            )
        )
    return mk_journey(tps, mk_conv("x1", ts=T0))


PROPERTY_MODEL = MdaModel(
    ("n_clicks", "channel_count:Lower", "channel_count:Mid", "channel_count:Upper"),
    (0.55, 0.8, 0.1, 0.45),
    -1.2,
    UNTRAINED,
)


class TestCreditInvariants:
    @settings(max_examples=150)
    @given(converting_journeys())
    def test_all_models_sum_to_one_in_unit_interval(self, journey):
        for credits in (
            lta_credits(journey),
            linear_credits(journey),
            decay_credits(journey, HL3D),
            mda_credits(PROPERTY_MODEL, journey),
        ):
            assert abs(sum(credits) - 1.0) < 1e-9
            assert all(0.0 <= c <= 1.0 for c in credits)
            ids = {tp.touchpoint_id for tp in journey.touchpoints}
            assert by_touchpoint_id(journey, credits).keys() == ids


def loo_reference(model: MdaModel, journey: Journey) -> tuple[float, ...]:
    """MDA credits by their definition: rebuild and score the feature vector
    of every leave-one-out journey from scratch, O(n^2) per journey."""
    tps = sorted(journey.touchpoints, key=lambda t: (t.timestamp, t.touchpoint_id))

    def proba(touchpoints):
        loo = Journey(journey.customer_id, tuple(touchpoints), journey.conversion)
        return predict_proba(model, loo)

    p_full = proba(tps)
    deltas = [max(0.0, p_full - proba(tps[:i] + tps[i + 1 :])) for i in range(len(tps))]
    total = sum(deltas)
    if total > 0.0:
        credits = [d / total for d in deltas]
    else:
        credits = [1.0 / len(tps)] * len(tps)
    assert tuple(tps) == journey.touchpoints
    return tuple(credits)


# A few fixed offsets make ties, including ties at the latest timestamp, common.
TIED_MS = (0, 1, 3_600_000, 86_400_000)


@st.composite
def loo_journeys(draw):
    """Converting journeys of 1-12 touchpoints; channel "Other" is absent from
    every model's features."""
    n = draw(st.integers(1, 12))
    tps = []
    for i in range(n):
        ms = draw(st.one_of(st.sampled_from(TIED_MS), st.integers(0, 6 * 24 * 3600 * 1000)))
        tps.append(
            mk_tp(
                f"t{i:02d}",
                ts=T0 - timedelta(milliseconds=ms),
                kind=draw(st.sampled_from(["view", "click"])),
                channel=draw(st.sampled_from(["Upper", "Lower", "Mid", "Other"])),
            )
        )
    return mk_journey(tps, mk_conv("x1", ts=T0))


@st.composite
def loo_models(draw):
    """Models over the base features plus two channels, with the weight of any
    feature possibly 0 (all-zero weights give the uniform fallback)."""
    names = ("n_clicks", "channel_count:Lower", "channel_count:Upper")
    weight = st.one_of(st.just(0.0), st.floats(-3.0, 3.0))
    weights = tuple(draw(weight) for _ in names)
    bias = draw(st.one_of(st.just(0.0), st.floats(-4.0, 4.0)))
    return MdaModel(names, weights, bias, UNTRAINED)


@st.composite
def shared_vector_journeys(draw):
    """Journeys whose leave-one-out vectors repeat: a single touchpoint, ties
    at the latest stamp, or every touchpoint of one (kind, channel) pair."""
    shape = draw(st.sampled_from(["single", "tied-latest", "one-pair"]))
    n = 1 if shape == "single" else draw(st.integers(2, 12))
    pair = (draw(st.sampled_from(["view", "click"])), draw(st.sampled_from(["Upper", "Lower", "Other"])))
    ages = sorted((draw(st.sampled_from(TIED_MS)) for _ in range(n)), reverse=True)
    if shape == "tied-latest":
        ages[-1] = ages[-2]
    tps = []
    for i, ms in enumerate(ages):
        kind, channel = pair if shape == "one-pair" else (
            draw(st.sampled_from(["view", "click"])), draw(st.sampled_from(["Upper", "Lower"]))
        )
        tps.append(mk_tp(f"t{i:02d}", ts=T0 - timedelta(milliseconds=ms), kind=kind, channel=channel))
    return mk_journey(tps, mk_conv("x1", ts=T0))


def credit_bits(credits: tuple[float, ...]) -> bytes:
    return np.array(credits, dtype=np.float64).tobytes()


def proba_calls(model: MdaModel, journey: Journey) -> int:
    """How many vectors ``mda_credits`` scores for one journey."""
    calls = []
    proba = MdaModel._proba

    def counting(self, x):
        calls.append(1)
        return proba(self, x)

    with mock.patch.object(MdaModel, "_proba", counting):
        mda_credits(model, journey)
    return len(calls)


class TestMdaClosedForm:
    @settings(max_examples=400)
    @given(loo_models(), loo_journeys())
    def test_equals_brute_force_exactly(self, model, journey):
        assert mda_credits(model, journey) == loo_reference(model, journey)

    @pytest.mark.parametrize(
        "journey",
        [
            simple_journey(2.0),
            simple_journey(3.0, 1.0, 1.0, kinds=["click", "view", "click"]),
            simple_journey(3.0, 1.0, 0.5, channels=["Upper", "Other", "Other"]),
            simple_journey(4.0, 2.0, 0.0, kinds=["view", "click", "click"]),
        ],
        ids=["single", "tied-latest", "unknown-channel", "unique-latest"],
    )
    @pytest.mark.parametrize("model", [zero_model(), PROPERTY_MODEL], ids=["uniform", "weighted"])
    def test_equals_brute_force_on_edge_cases(self, model, journey):
        assert mda_credits(model, journey) == loo_reference(model, journey)

    @settings(max_examples=300, deadline=None)
    @given(loo_models(), shared_vector_journeys())
    def test_equals_brute_force_bitwise_when_vectors_repeat(self, model, journey):
        assert credit_bits(mda_credits(model, journey)) == credit_bits(loo_reference(model, journey))

    @settings(max_examples=200, deadline=None)
    @given(loo_models(), st.one_of(loo_journeys(), shared_vector_journeys()))
    def test_one_score_per_distinct_vector(self, model, journey):
        channels = {tp.channel for tp in journey.touchpoints}
        assert proba_calls(model, journey) <= 2 * len(channels) + 1

    def test_scores_do_not_grow_with_journey_length(self):
        kinds = ["view", "click"] * 75
        channels = ["Upper", "Lower", "Mid"] * 50
        journey = simple_journey(*[0.01 * (i + 1) for i in range(150)], kinds=kinds, channels=channels)
        assert proba_calls(PROPERTY_MODEL, journey) <= 2 * 3 + 1
        assert credit_bits(mda_credits(PROPERTY_MODEL, journey)) == credit_bits(
            loo_reference(PROPERTY_MODEL, journey)
        )

    def test_feature_builds_do_not_grow_with_journey_length(self, monkeypatch):
        calls = []
        build = attribution._touchpoint_columns

        def counting(*args):
            calls.append(1)
            return build(*args)

        monkeypatch.setattr(attribution, "_touchpoint_columns", counting)
        per_call = []
        for n in (1, 2, 10, 100):
            calls.clear()
            mda_credits(PROPERTY_MODEL, simple_journey(*[0.01 * (i + 1) for i in range(n)]))
            per_call.append(len(calls))
        assert per_call == [per_call[0]] * 4 and per_call[0] <= 2


def sigmoid_masked(z: np.ndarray) -> np.ndarray:
    """The logistic by two boolean-mask branches, as the MDA trainer computed
    it before: the oracle ``attribution._sigmoid_vec`` must equal bit for bit."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class TestSigmoidVec:
    @pytest.mark.parametrize("z", [
        np.random.default_rng(0).normal(size=22_000),
        np.random.default_rng(1).normal(size=40_000) * 30,
        np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 745.0, -745.0, 1e308, -1e308,
                  709.8, -709.8, 5e-324, -5e-324, 36.9, -36.9]),
        np.array([0x7FF8000000000001, -0x0008000000000001], np.int64).view(np.float64),
    ], ids=["normal", "wide", "edges", "nan-payloads"])
    def test_equals_the_masked_branches_bit_for_bit(self, z):
        got = attribution._sigmoid_vec(z)
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.int64), sigmoid_masked(z).view(np.int64))
