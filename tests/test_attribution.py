import math
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mta_engine import attribution
from mta_engine.attribution import (
    CreditVector,
    DecayConfig,
    MdaHyperparams,
    MdaModel,
    TrainingInfo,
    decay_credits,
    feature_names_for,
    linear_credits,
    lta_credits,
    mda_credits,
    train_mda,
)
from mta_engine.errors import DegenerateLabelsError, NoTouchpointsError
from mta_engine.events import Journey

from conftest import T0, mk_conv, mk_journey, mk_tp

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
        assert lta_credits(j).as_dict() == {"t0": 0.0, "t1": 1.0}

    def test_single_touchpoint(self):
        assert lta_credits(simple_journey(1.0)).as_dict() == {"t0": 1.0}

    def test_click_beats_view_at_equal_timestamp(self):
        ts = T0 - timedelta(days=1)
        j = mk_journey(
            [mk_tp("b_view", ts=ts, kind="view"), mk_tp("a_click", ts=ts, kind="click")],
            mk_conv("x1", ts=T0),
        )
        assert lta_credits(j).as_dict()["a_click"] == 1.0

    def test_id_breaks_remaining_ties(self):
        ts = T0 - timedelta(days=1)
        j = mk_journey(
            [mk_tp("t_a", ts=ts), mk_tp("t_b", ts=ts)],
            mk_conv("x1", ts=T0),
        )
        assert lta_credits(j).as_dict()["t_b"] == 1.0

    def test_no_touchpoints(self):
        with pytest.raises(NoTouchpointsError):
            lta_credits(mk_journey([], mk_conv()))


class TestLinear:
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_equal_split(self, n):
        j = simple_journey(*[i + 1 for i in range(n)])
        credits = linear_credits(j).as_dict()
        assert all(c == pytest.approx(1.0 / n) for c in credits.values())
        assert len(credits) == n


class TestDecay:
    def test_single_touchpoint_any_age(self):
        assert decay_credits(simple_journey(6.5), HL3D).as_dict() == {"t0": 1.0}

    def test_one_half_life_gives_two_to_one(self):
        j = simple_journey(3.0, 0.0)
        credits = decay_credits(j, HL3D).as_dict()
        assert credits["t1"] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert credits["t0"] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert abs(credits["t1"] / credits["t0"] - 2.0) < 1e-9

    def test_equal_ages_split_evenly(self):
        credits = decay_credits(simple_journey(2.0, 2.0), HL3D).as_dict()
        assert credits == {"t0": 0.5, "t1": 0.5}

    def test_tiny_half_life_approximates_lta(self):
        j = simple_journey(4.0, 2.0, 0.001)  # distinct ms-resolution timestamps
        credits = decay_credits(j, DecayConfig(timedelta(microseconds=10))).as_dict()
        assert credits["t2"] >= 0.999
        assert lta_credits(j).as_dict()["t2"] == 1.0

    def test_huge_age_gap_does_not_underflow(self):
        j = simple_journey(6.9, 0.0)
        credits = decay_credits(j, DecayConfig(timedelta(microseconds=10))).as_dict()
        assert math.isfinite(credits["t1"]) and credits["t1"] == pytest.approx(1.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DecayConfig(timedelta(0))


def zero_model(channels=("Upper", "Lower")) -> MdaModel:
    names = ("n_touchpoints", "n_views", "n_clicks", "recency_days") + tuple(
        f"channel_count:{c}" for c in channels
    )
    return MdaModel(names, (0.0,) * len(names), -1.0, TrainingInfo(0, 0.0, 0.0, 0.0))


class TestMdaCredits:
    def test_symmetric_touchpoints_split_evenly(self):
        model = zero_model()
        model = MdaModel(
            model.feature_names,
            (0.5, 0.0, 0.0, 0.0, 0.0, 0.0),
            -1.0,
            model.training,
        )
        j = simple_journey(2.0, 2.0)
        credits = mda_credits(model, j).as_dict()
        assert credits["t0"] == pytest.approx(0.5)
        assert credits["t1"] == pytest.approx(0.5)

    def test_constant_model_falls_back_to_uniform(self):
        j = simple_journey(3.0, 2.0, 1.0)
        credits = mda_credits(zero_model(), j).as_dict()
        assert all(c == pytest.approx(1.0 / 3.0) for c in credits.values())

    def test_asymmetric_split_possible(self):
        # A channel-weighted model must be able to split credit unevenly
        # across an Upper view and a Lower click, clicks earning more.
        names = ("n_touchpoints", "n_views", "n_clicks", "recency_days",
                 "channel_count:Lower", "channel_count:Upper")
        model = MdaModel(names, (0.0, 0.0, 1.0, 0.0, 1.2, 0.4), -1.5,
                         TrainingInfo(0, 0.0, 0.0, 0.0))
        j = simple_journey(3.0, 1.0, kinds=["view", "click"], channels=["Upper", "Lower"])
        credits = mda_credits(model, j).as_dict()
        assert credits["t1"] > credits["t0"] > 0.0
        assert credits["t0"] + credits["t1"] == pytest.approx(1.0, abs=1e-9)

    def test_permutation_invariance(self):
        names = feature_names_for([simple_journey(1.0, channels=["Upper"])])
        model = MdaModel(names, (0.2, 0.1, 0.3, -0.05, 0.4), -1.0, TrainingInfo(0, 0, 0, 0))
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


class TestTrainMda:
    def test_separable_set_ranks_converters_first(self):
        journeys = training_fixture()
        model = train_mda(journeys, MdaHyperparams(learning_rate=0.5, iterations=800, seed=3))
        scores = [(model.predict_proba(j), j.converted) for j in journeys]
        worst_converter = min(s for s, conv in scores if conv)
        best_abstainer = max(s for s, conv in scores if not conv)
        assert worst_converter > best_abstainer

    def test_constant_features_converge_to_base_rate(self):
        journeys = []
        for i in range(5):
            tp = mk_tp(f"t{i}", customer=f"c{i}", ts=T0)
            conv = mk_conv(f"x{i}", customer=f"c{i}", ts=T0) if i < 2 else None
            journeys.append(mk_journey([tp], conv, customer=f"c{i}"))
        model = train_mda(journeys, MdaHyperparams(iterations=500, seed=0))
        p = model.predict_proba(journeys[0])
        base_rate = 2.0 / 5.0
        assert abs(p - base_rate) < 1e-3
        # closed form check: fitted log-odds approach log(0.4 / 0.6)
        z = sum(
            w * x for w, x in zip(model.weights, model.features(journeys[0]))
        ) + model.bias
        assert abs(z - math.log(base_rate / (1 - base_rate))) < 5e-3

    def test_deterministic_under_canonical_resort(self):
        journeys = training_fixture()
        hyper = MdaHyperparams(seed=7)
        permuted = list(reversed(journeys))
        canonical = sorted(permuted, key=lambda j: j.customer_id)
        reference = train_mda(sorted(journeys, key=lambda j: j.customer_id), hyper)
        again = train_mda(canonical, hyper)
        assert reference.weights == again.weights
        assert reference.bias == again.bias

    def test_degenerate_labels(self):
        converters = [j for j in training_fixture() if j.converted]
        with pytest.raises(DegenerateLabelsError):
            train_mda(converters)
        with pytest.raises(DegenerateLabelsError):
            train_mda([])

    def test_loss_monotone_and_metadata(self):
        model = train_mda(training_fixture(), MdaHyperparams(learning_rate=5.0, iterations=200))
        history = model.training.loss_history
        assert len(history) == 201
        assert all(history[i + 1] <= history[i] + 1e-12 for i in range(len(history) - 1))
        assert model.training.final_loss <= model.training.initial_loss
        assert model.training.learning_rate_used <= 5.0

    def test_json_round_trip_bit_exact(self):
        model = train_mda(training_fixture(), MdaHyperparams(seed=11))
        # perturb weights to awkward floats
        weights = tuple(np.nextafter(w, 1.0) for w in model.weights)
        model = MdaModel(model.feature_names, weights, model.bias / 3.0, model.training)
        again = MdaModel.from_json(model.to_json())
        assert again.weights == model.weights
        assert again.bias == model.bias
        assert again.feature_names == model.feature_names
        assert again.training.final_loss == model.training.final_loss


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
    ("n_touchpoints", "n_views", "n_clicks", "recency_days",
     "channel_count:Lower", "channel_count:Mid", "channel_count:Upper"),
    (0.25, 0.05, 0.6, -0.1, 0.5, -0.2, 0.15),
    -1.2,
    TrainingInfo(0, 0.0, 0.0, 0.0),
)


class TestCreditInvariants:
    @settings(max_examples=150)
    @given(converting_journeys())
    def test_all_models_sum_to_one_in_unit_interval(self, journey):
        vectors = [
            lta_credits(journey),
            linear_credits(journey),
            decay_credits(journey, HL3D),
            mda_credits(PROPERTY_MODEL, journey),
        ]
        for vector in vectors:
            credits = vector.credits
            assert abs(sum(credits) - 1.0) < 1e-9
            assert all(0.0 <= c <= 1.0 for c in credits)
            assert vector.as_dict().keys() == {tp.touchpoint_id for tp in journey.touchpoints}


def loo_reference(model: MdaModel, journey: Journey) -> CreditVector:
    """MDA credits by their definition: rebuild and score the feature vector
    of every leave-one-out journey from scratch, O(n^2) per journey."""
    tps = sorted(journey.touchpoints, key=lambda t: (t.timestamp, t.touchpoint_id))

    def proba(touchpoints):
        loo = Journey(journey.customer_id, tuple(touchpoints), journey.conversion)
        return model.predict_proba(loo)

    p_full = proba(tps)
    deltas = [max(0.0, p_full - proba(tps[:i] + tps[i + 1 :])) for i in range(len(tps))]
    total = sum(deltas)
    if total > 0.0:
        credits = [d / total for d in deltas]
    else:
        credits = [1.0 / len(tps)] * len(tps)
    assert tuple(tps) == journey.touchpoints
    return CreditVector(journey, tuple(credits))


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
    names = PROPERTY_MODEL.feature_names[:4] + ("channel_count:Lower", "channel_count:Upper")
    weight = st.one_of(st.just(0.0), st.floats(-3.0, 3.0))
    weights = tuple(draw(weight) for _ in names)
    bias = draw(st.one_of(st.just(0.0), st.floats(-4.0, 4.0)))
    return MdaModel(names, weights, bias, TrainingInfo(0, 0.0, 0.0, 0.0))


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

    def test_feature_builds_do_not_grow_with_journey_length(self, monkeypatch):
        calls = []
        build = attribution._feature_vector

        def counting(*args):
            calls.append(1)
            return build(*args)

        monkeypatch.setattr(attribution, "_feature_vector", counting)
        per_call = []
        for n in (1, 2, 10, 100):
            calls.clear()
            mda_credits(PROPERTY_MODEL, simple_journey(*[0.01 * (i + 1) for i in range(n)]))
            per_call.append(len(calls))
        assert per_call == [per_call[0]] * 4 and per_call[0] <= 2
