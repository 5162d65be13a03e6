"""Ensemble of attribution models mapping converting journeys to credits.

Four models are provided, keyed by the names in ``MODEL_NAMES``:

* ``lta`` — full credit to the last touchpoint before the conversion;
* ``linear`` — equal credit to every touchpoint;
* ``decay`` — exponential decay with a configurable half-life;
* ``mda`` — a trainable logistic conversion model whose credits are
  leave-one-out contribution deltas.

Each model's kernel takes one converting journey with at least one
touchpoint and returns its credits as a tuple of floats, one per touchpoint
in ``journey.touchpoints`` order, that lie in [0, 1] and sum to 1.
``pipeline.ensemble_credits`` stacks every kernel's tuples into the one
credit table, :class:`ModelCredits`, which scoring, calibration, the
credit CSVs and shares read. The MDA trains on a :class:`Journeys` table.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import (  # noqa: F401  -- MODEL_NAMES is re-exported
    MODEL_NAMES, DecayConfig, MdaHyperparams)
from .errors import DataIntegrityError, DegenerateLabelsError, NoTouchpointsError
from .events import InteractionKind, Journey, Journeys, Touchpoint

_BASE_FEATURES = ("n_touchpoints", "n_views", "n_clicks", "recency_days")
_SECONDS_PER_DAY = 86400.0


@dataclass(frozen=True, eq=False)
class ModelCredits:
    """Each model's credits for the touchpoints of some converting journeys, as
    columns. Row ``i`` is a touchpoint: ``labels[i]`` is its conversion_id,
    touchpoint_id, campaign_id, channel and ad_product, ``units[i]`` its
    conversion's units, and ``columns[name][i]`` its credit per unit under
    model ``name``. ``len()`` counts the credits: rows times columns. A
    ``units`` or column without one row per label raises DataIntegrityError."""

    labels: list[tuple[str, ...]]
    units: np.ndarray
    columns: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        lengths = {"units": len(self.units)}
        lengths |= {f"column {name!r}": len(column) for name, column in self.columns.items()}
        for what, n in lengths.items():
            if n != len(self.labels):
                raise DataIntegrityError(f"{what} has {n} row(s) for {len(self.labels)} label(s)")

    def __len__(self) -> int:
        return len(self.labels) * len(self.columns)

    def scaled(self, name: str) -> np.ndarray:
        """Column ``name`` times the conversion units: each touchpoint's credit."""
        return self.columns[name] * self.units


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
        # An unknown feature name raises ValueError, by the rule the credits apply.
        _touchpoint_columns(self.feature_names, np.zeros(0, bool), np.zeros(0, str))

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
    """The logistic of each element, by the same branches as ``_sigmoid``:
    ``e`` is ``exp(-z)`` where z >= 0 and ``exp(z)`` elsewhere. ``minimum``
    passes a NaN on with its sign, which ``-abs`` would flip."""
    e = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _recency_days(touchpoints: Sequence[Touchpoint], conversion) -> float:
    if not touchpoints:
        return 0.0
    last_ts = max(tp.timestamp for tp in touchpoints)
    reference = conversion.timestamp if conversion is not None else last_ts
    return max(0.0, (reference - last_ts).total_seconds() / _SECONDS_PER_DAY)


def _touchpoint_columns(
    feature_names: Sequence[str], is_click: np.ndarray, channel: np.ndarray
) -> np.ndarray:
    """Row i is touchpoint i's contribution to each MDA feature: 1 or 0 for
    every count feature, and 0 for ``recency_days``, which is no sum."""
    columns = np.zeros((len(is_click), len(feature_names)))
    for i, name in enumerate(feature_names):
        if name == "n_touchpoints":
            columns[:, i] = 1.0
        elif name == "n_views":
            columns[:, i] = ~is_click
        elif name == "n_clicks":
            columns[:, i] = is_click
        elif name.startswith("channel_count:"):
            columns[:, i] = channel == name.split(":", 1)[1]
        elif name != "recency_days":
            raise ValueError(f"unknown MDA feature {name!r}")
    return columns


def feature_names_for(journeys: Journeys) -> tuple[str, ...]:
    """The canonical MDA feature order induced by a training set: the base
    features, then a count of each channel some journey holds."""
    candidates = tuple(f"channel_count:{c}" for c in journeys.table.channels)
    held = _feature_matrix(candidates, journeys).any(axis=0)
    return _BASE_FEATURES + tuple(name for name, h in zip(candidates, held) if h)


def _feature_matrix(feature_names: Sequence[str], journeys: Journeys) -> np.ndarray:
    """Row i is the feature vector of journey i: the sum of the touchpoint
    columns of its rows, plus its recency."""
    table = journeys.table
    # Every row is one of the table's few (kind, channel) pairs, numbered
    # is_click * n_channels + channel, so the kernel runs once per pair; a
    # journey's sum of a column is a difference of prefix sums over its rows.
    channels = np.array(table.channels, dtype=str)
    pairs = _touchpoint_columns(
        feature_names, np.repeat([False, True], len(channels)), np.tile(channels, 2)
    )
    pair = table.is_click[journeys.rows] * len(channels) + table.channel[journeys.rows]
    X = np.zeros((len(journeys), len(feature_names)))
    prefix = np.zeros(len(pair) + 1)
    for i, column in enumerate(pairs.T):
        np.cumsum(column[pair], out=prefix[1:])
        X[:, i] = prefix[journeys.stop] - prefix[journeys.start]

    # A journey's rows are in time order, so its last row is its latest.
    dated = journeys.converted & (journeys.stop > journeys.start)
    recency = np.zeros(len(journeys))
    if dated.any():
        last_us = table.ts_us[journeys.rows[journeys.stop[dated] - 1]]
        age_s = (journeys.conversions.ts_us[journeys.conversion[dated]] - last_us) / 1e6
        recency[dated] = np.maximum(age_s / _SECONDS_PER_DAY, 0.0)
    is_recency = np.array([name == "recency_days" for name in feature_names], dtype=bool)
    X[:, is_recency] = recency[:, None]
    return X


def _require_touchpoints(journey: Journey) -> None:
    if journey.conversion is None:
        raise NoTouchpointsError(f"journey for {journey.customer_id} has no conversion to credit")
    if not journey.touchpoints:
        raise NoTouchpointsError(
            f"conversion {journey.conversion.conversion_id} has no in-window touchpoints"
        )


def lta_credits(journey: Journey) -> tuple[float, ...]:
    """Full credit to the last touchpoint; clicks beat views at equal timestamps,
    remaining ties go to the larger touchpoint_id."""
    _require_touchpoints(journey)
    last = max(
        journey.touchpoints,
        key=lambda t: (t.timestamp, t.interaction_kind is InteractionKind.CLICK, t.touchpoint_id),
    )
    return tuple(1.0 if tp is last else 0.0 for tp in journey.touchpoints)


def linear_credits(journey: Journey) -> tuple[float, ...]:
    """Equal credit 1/n to each of the n touchpoints."""
    _require_touchpoints(journey)
    return (1.0 / len(journey.touchpoints),) * len(journey.touchpoints)


def decay_credits(journey: Journey, cfg: DecayConfig = DecayConfig()) -> tuple[float, ...]:
    """Credits proportional to 2^(-age / half_life), age measured back from the
    conversion. Weights are shifted by the most recent touchpoint's age before
    exponentiation so extreme ages cannot underflow the normalization."""
    _require_touchpoints(journey)
    conv_ts = journey.conversion.timestamp
    half_life_s = cfg.half_life.total_seconds()
    ages = [(conv_ts - tp.timestamp).total_seconds() / half_life_s for tp in journey.touchpoints]
    youngest = min(ages)
    weights = [2.0 ** (youngest - age) for age in ages]
    total = sum(weights)
    return tuple(w / total for w in weights)


def train_mda(journeys: Journeys, hyper: MdaHyperparams = MdaHyperparams()) -> MdaModel:
    """Fit the logistic conversion model by full-batch gradient descent.

    The label is whether the journey converted. The learning rate is capped
    at a descent-safe step (4 / mean squared feature norm) so the log-loss is
    nonincreasing across iterations; training is deterministic given the seed
    and the canonical feature order.
    """
    if hyper.learning_rate <= 0 or hyper.iterations < 1:
        raise ValueError("learning_rate must be > 0 and iterations >= 1")
    labels = journeys.converted.astype(np.float64)
    if len(labels) == 0 or labels.min() == labels.max():
        raise DegenerateLabelsError(
            "training needs at least one converting and one non-converting journey"
        )
    names = feature_names_for(journeys)
    X = _feature_matrix(names, journeys)
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


def mda_credits(model: MdaModel, journey: Journey) -> tuple[float, ...]:
    """Leave-one-out credits: each touchpoint earns the (clipped) drop in
    conversion probability caused by removing it, normalized to sum to 1;
    if no removal lowers the probability the credit falls back to uniform.

    The features are counts plus the recency of the latest touchpoint, so
    removing touchpoint i subtracts the column row of its (is_click, channel)
    pair from the full vector; recency changes only when i is the unique
    latest touchpoint, and is then recomputed. One vector is scored per
    distinct pair (the unique latest touchpoint's on its own) with the same
    scalar arithmetic as rebuilding it, so the credits are the O(n^2) ones.
    """
    _require_touchpoints(journey)
    tps = journey.touchpoints
    pairs = [(tp.interaction_kind is InteractionKind.CLICK, tp.channel) for tp in tps]
    columns = _touchpoint_columns(model.feature_names, *map(np.array, zip(*pairs)))
    recency = np.array([name == "recency_days" for name in model.feature_names], dtype=bool)
    x = columns.sum(axis=0)
    x[recency] = _recency_days(tps, journey.conversion)
    if len(tps) == 1 or tps[-1].timestamp != tps[-2].timestamp:
        pairs[-1] = None  # the unique latest: a key of its own, and the last one added
    row_of = {pair: i for i, pair in enumerate(pairs)}
    loo = x - columns[list(row_of.values())]
    if pairs[-1] is None:
        loo[-1, recency] = _recency_days(tps[:-1], journey.conversion)

    # Per-row np.dot, not loo @ weights: a batched product sums in another
    # order and moves credits in their last bits.
    p_full = model._proba(x)
    drop = {pair: max(0.0, p_full - model._proba(row)) for pair, row in zip(row_of, loo)}
    deltas = [drop[pair] for pair in pairs]
    total = sum(deltas)
    if total > 0.0:
        return tuple(d / total for d in deltas)
    return (1.0 / len(tps),) * len(tps)
