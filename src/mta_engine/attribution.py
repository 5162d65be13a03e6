"""Ensemble of attribution models mapping converting journeys to credit vectors.

Four models are provided, keyed by the names in ``MODEL_NAMES``:

* ``lta`` — full credit to the last touchpoint before the conversion;
* ``linear`` — equal credit to every touchpoint;
* ``decay`` — exponential decay with a configurable half-life;
* ``mda`` — a trainable logistic conversion model whose credits are
  leave-one-out contribution deltas.

Every model returns a :class:`CreditVector` whose credits lie in [0, 1] and
sum to 1 for any converting journey with at least one touchpoint.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from datetime import timedelta
from typing import IO, Iterable, Sequence

import numpy as np

from .errors import DegenerateLabelsError, NoTouchpointsError
from .events import InteractionKind, Journey, Touchpoint

MODEL_LTA = "lta"
MODEL_LINEAR = "linear"
MODEL_DECAY = "decay"
MODEL_MDA = "mda"
MODEL_NAMES = (MODEL_LTA, MODEL_LINEAR, MODEL_DECAY, MODEL_MDA)

_BASE_FEATURES = ("n_touchpoints", "n_views", "n_clicks", "recency_days")
_SECONDS_PER_DAY = 86400.0


@dataclass(frozen=True, slots=True)
class CreditVector:
    """Per-touchpoint credit split for one conversion under one model."""

    conversion_id: str
    entries: tuple[tuple[str, float], ...]

    def as_dict(self) -> dict[str, float]:
        return dict(self.entries)

    def touchpoint_ids(self) -> frozenset[str]:
        return frozenset(tp_id for tp_id, _ in self.entries)


@dataclass(frozen=True, slots=True)
class DecayConfig:
    """Half-life (base 2) of the exponential-decay model."""

    half_life: timedelta = timedelta(days=3)

    def __post_init__(self) -> None:
        if self.half_life <= timedelta(0):
            raise ValueError(f"half_life must be positive, got {self.half_life}")


@dataclass(frozen=True, slots=True)
class MdaHyperparams:
    learning_rate: float = 0.5
    iterations: int = 500
    seed: int = 0


@dataclass(frozen=True, slots=True)
class TrainingInfo:
    iterations: int
    initial_loss: float
    final_loss: float
    learning_rate_used: float
    loss_history: tuple[float, ...] = ()


@dataclass(frozen=True, slots=True)
class MdaModel:
    """Logistic conversion model over a fixed, documented feature set.

    Feature order is ``n_touchpoints, n_views, n_clicks, recency_days``
    followed by one ``channel_count:<channel>`` feature per training channel
    in sorted order. ``recency_days`` is the age in days of the most recent
    touchpoint relative to the conversion (0 for non-converting journeys,
    whose reference time is their own last touchpoint).
    """

    feature_names: tuple[str, ...]
    weights: tuple[float, ...]
    bias: float
    training: TrainingInfo

    def __post_init__(self) -> None:
        if len(self.feature_names) != len(self.weights):
            raise ValueError("feature_names and weights must have equal length")
        if not all(math.isfinite(w) for w in self.weights) or not math.isfinite(self.bias):
            raise ValueError("MDA weights must be finite")

    def features(self, journey: Journey) -> np.ndarray:
        """Feature vector for a journey."""
        return _feature_vector(self.feature_names, journey.touchpoints, journey.conversion)

    def predict_proba(self, journey: Journey) -> float:
        return self._proba(self.features(journey))

    def _proba(self, x: np.ndarray) -> float:
        return _sigmoid(float(np.dot(x, self.weights) + self.bias))

    def to_json(self) -> str:
        doc = {
            "feature_names": list(self.feature_names),
            "weights": list(self.weights),
            "bias": self.bias,
            "metadata": {
                "iterations": self.training.iterations,
                "final_loss": self.training.final_loss,
                "initial_loss": self.training.initial_loss,
                "learning_rate_used": self.training.learning_rate_used,
            },
        }
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "MdaModel":
        doc = json.loads(text)
        meta = doc["metadata"]
        return cls(
            feature_names=tuple(doc["feature_names"]),
            weights=tuple(float(w) for w in doc["weights"]),
            bias=float(doc["bias"]),
            training=TrainingInfo(
                iterations=int(meta["iterations"]),
                initial_loss=float(meta["initial_loss"]),
                final_loss=float(meta["final_loss"]),
                learning_rate_used=float(meta["learning_rate_used"]),
            ),
        )


def _sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    ez = math.exp(z)
    return ez / (1.0 + ez)


def _sigmoid_vec(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _recency_days(touchpoints: Sequence[Touchpoint], conversion) -> float:
    if not touchpoints:
        return 0.0
    last_ts = max(tp.timestamp for tp in touchpoints)
    reference = conversion.timestamp if conversion is not None else last_ts
    return max(0.0, (reference - last_ts).total_seconds() / _SECONDS_PER_DAY)


def _feature_vector(
    feature_names: Sequence[str],
    touchpoints: Sequence[Touchpoint],
    conversion,
) -> np.ndarray:
    x = np.zeros(len(feature_names))
    recency = _recency_days(touchpoints, conversion)
    channel_counts: dict[str, int] = {}
    n_views = n_clicks = 0
    for tp in touchpoints:
        channel_counts[tp.channel] = channel_counts.get(tp.channel, 0) + 1
        if tp.interaction_kind is InteractionKind.CLICK:
            n_clicks += 1
        else:
            n_views += 1
    for i, name in enumerate(feature_names):
        if name == "n_touchpoints":
            x[i] = len(touchpoints)
        elif name == "n_views":
            x[i] = n_views
        elif name == "n_clicks":
            x[i] = n_clicks
        elif name == "recency_days":
            x[i] = recency
        elif name.startswith("channel_count:"):
            x[i] = channel_counts.get(name.split(":", 1)[1], 0)
        else:
            raise ValueError(f"unknown MDA feature {name!r}")
    return x


def feature_names_for(journeys: Iterable[Journey]) -> tuple[str, ...]:
    """The canonical MDA feature order induced by a training set."""
    channels = sorted({tp.channel for j in journeys for tp in j.touchpoints})
    return _BASE_FEATURES + tuple(f"channel_count:{c}" for c in channels)


def _sorted_touchpoints(journey: Journey) -> list[Touchpoint]:
    return sorted(journey.touchpoints, key=lambda t: (t.timestamp, t.touchpoint_id))


def _require_touchpoints(journey: Journey) -> None:
    if journey.conversion is None:
        raise NoTouchpointsError(f"journey for {journey.customer_id} has no conversion to credit")
    if not journey.touchpoints:
        raise NoTouchpointsError(
            f"conversion {journey.conversion.conversion_id} has no in-window touchpoints"
        )


def lta_credits(journey: Journey) -> CreditVector:
    """Full credit to the last touchpoint; clicks beat views at equal timestamps,
    remaining ties go to the larger touchpoint_id."""
    _require_touchpoints(journey)
    last = max(
        journey.touchpoints,
        key=lambda t: (t.timestamp, t.interaction_kind is InteractionKind.CLICK, t.touchpoint_id),
    )
    entries = tuple(
        (tp.touchpoint_id, 1.0 if tp is last else 0.0) for tp in _sorted_touchpoints(journey)
    )
    return CreditVector(journey.conversion.conversion_id, entries)


def linear_credits(journey: Journey) -> CreditVector:
    """Equal credit 1/n to each of the n touchpoints."""
    _require_touchpoints(journey)
    share = 1.0 / len(journey.touchpoints)
    entries = tuple((tp.touchpoint_id, share) for tp in _sorted_touchpoints(journey))
    return CreditVector(journey.conversion.conversion_id, entries)


def decay_credits(journey: Journey, cfg: DecayConfig = DecayConfig()) -> CreditVector:
    """Credits proportional to 2^(-age / half_life), age measured back from the
    conversion. Weights are shifted by the most recent touchpoint's age before
    exponentiation so extreme ages cannot underflow the normalization."""
    _require_touchpoints(journey)
    conv_ts = journey.conversion.timestamp
    tps = _sorted_touchpoints(journey)
    half_life_s = cfg.half_life.total_seconds()
    ages = [(conv_ts - tp.timestamp).total_seconds() / half_life_s for tp in tps]
    youngest = min(ages)
    weights = [2.0 ** (youngest - age) for age in ages]
    total = sum(weights)
    entries = tuple((tp.touchpoint_id, w / total) for tp, w in zip(tps, weights))
    return CreditVector(journey.conversion.conversion_id, entries)


def train_mda(journeys: Sequence[Journey], hyper: MdaHyperparams = MdaHyperparams()) -> MdaModel:
    """Fit the logistic conversion model by full-batch gradient descent.

    The label is whether the journey converted. The learning rate is capped
    at a descent-safe step (4 / mean squared feature norm) so the log-loss is
    nonincreasing across iterations; training is deterministic given the seed
    and the canonical feature order.
    """
    if hyper.learning_rate <= 0 or hyper.iterations < 1:
        raise ValueError("learning_rate must be > 0 and iterations >= 1")
    labels = np.array([1.0 if j.converted else 0.0 for j in journeys])
    if len(labels) == 0 or labels.min() == labels.max():
        raise DegenerateLabelsError(
            "training needs at least one converting and one non-converting journey"
        )
    names = feature_names_for(journeys)
    X = np.array([_feature_vector(names, j.touchpoints, j.conversion) for j in journeys])
    n, k = X.shape

    # Smoothness bound for the log-loss: L <= mean ||(x, 1)||^2 / 4, so a step
    # of 1/L guarantees monotone descent for this convex objective.
    mean_sq_norm = float(np.mean(np.sum(X * X, axis=1)) + 1.0)
    lr = min(hyper.learning_rate, 4.0 / mean_sq_norm)

    rng = np.random.default_rng(hyper.seed)
    w = rng.normal(scale=1e-3, size=k)
    b = 0.0

    def loss(z: np.ndarray) -> float:
        return float(np.mean(np.logaddexp(0.0, z) - labels * z))

    z = X @ w + b
    history = [loss(z)]
    for _ in range(hyper.iterations):
        p = _sigmoid_vec(z)
        grad_z = (p - labels) / n
        w -= lr * (X.T @ grad_z)
        b -= lr * float(np.sum(grad_z))
        z = X @ w + b
        history.append(loss(z))

    info = TrainingInfo(
        iterations=hyper.iterations,
        initial_loss=history[0],
        final_loss=history[-1],
        learning_rate_used=lr,
        loss_history=tuple(history),
    )
    return MdaModel(names, tuple(float(v) for v in w), b, info)


def mda_credits(model: MdaModel, journey: Journey) -> CreditVector:
    """Leave-one-out credits: each touchpoint earns the (clipped) drop in
    conversion probability caused by removing it, normalized to sum to 1;
    if no removal lowers the probability the credit falls back to uniform.

    The features are counts plus the recency of the latest touchpoint, so
    removing touchpoint i subtracts its indicator row from the full vector;
    recency changes only when i is the unique latest touchpoint, and is then
    recomputed from the remaining touchpoints. Every row is scored with
    the same scalar arithmetic as the full vector, so the credits equal those
    of rebuilding each leave-one-out vector from scratch, in O(n) per journey.
    """
    _require_touchpoints(journey)
    tps = _sorted_touchpoints(journey)
    names = model.feature_names
    x = _feature_vector(names, tps, journey.conversion)

    is_click = np.array([tp.interaction_kind is InteractionKind.CLICK for tp in tps])
    channels = np.array([tp.channel for tp in tps])
    removed = np.zeros((len(tps), len(names)))
    recency_columns = []
    for i, name in enumerate(names):
        if name == "n_touchpoints":
            removed[:, i] = 1.0
        elif name == "n_views":
            removed[:, i] = ~is_click
        elif name == "n_clicks":
            removed[:, i] = is_click
        elif name == "recency_days":
            recency_columns.append(i)
        elif name.startswith("channel_count:"):
            removed[:, i] = channels == name.split(":", 1)[1]
    loo = x - removed
    if len(tps) == 1 or tps[-1].timestamp != tps[-2].timestamp:
        loo[-1, recency_columns] = _recency_days(tps[:-1], journey.conversion)

    # Per-row np.dot, not loo @ weights: a batched product sums in another
    # order and moves credits in their last bits.
    p_full = model._proba(x)
    deltas = [max(0.0, p_full - model._proba(row)) for row in loo]
    total = sum(deltas)
    if total > 0.0:
        credits = [d / total for d in deltas]
    else:
        credits = [1.0 / len(tps)] * len(tps)
    entries = tuple((tp.touchpoint_id, c) for tp, c in zip(tps, credits))
    return CreditVector(journey.conversion.conversion_id, entries)


def credits_for_model(
    name: str,
    journey: Journey,
    *,
    decay: DecayConfig = DecayConfig(),
    mda: MdaModel | None = None,
) -> CreditVector:
    """Dispatch to one of the ensemble's models by name."""
    if name == MODEL_LTA:
        return lta_credits(journey)
    if name == MODEL_LINEAR:
        return linear_credits(journey)
    if name == MODEL_DECAY:
        return decay_credits(journey, decay)
    if name == MODEL_MDA:
        if mda is None:
            raise ValueError("mda model required for MDA credits")
        return mda_credits(mda, journey)
    raise ValueError(f"unknown attribution model {name!r}")


def save_mda(model: MdaModel, stream: IO[str]) -> None:
    stream.write(model.to_json())


def load_mda(stream: IO[str]) -> MdaModel:
    return MdaModel.from_json(stream.read())
