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
credit CSVs and shares read. The MDA trains on a :class:`Journeys` table:
a maximum-likelihood fit, by Newton's method, over every journey's count
features, collapsed to the distinct (counts, label) rows.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .config import MODEL_NAMES, DecayConfig  # noqa: F401  -- MODEL_NAMES is re-exported
from .errors import DataIntegrityError, DegenerateLabelsError, NoTouchpointsError
from .events import InteractionKind, Journey, Journeys

logger = logging.getLogger(__name__)

_BASE_FEATURES = ("n_clicks",)
# Newton stops once the step is predicted to lower the mean log-loss by at
# most this many nats (half the squared Newton decrement).
_NEWTON_TOL = 1e-16
# The cap on Newton steps. Labels that overlap converge in a handful; only
# separated labels, which have no maximum-likelihood weights, reach it.
_MAX_NEWTON_STEPS = 400


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
    """How ``train_mda`` fitted a model: its Newton steps, whether it reached the
    maximum-likelihood weights, the max-norm of the mean log-loss gradient at
    them, and the mean log-loss at the start, the end and after each step."""

    steps: int
    initial_loss: float
    final_loss: float
    gradient_max_norm: float
    converged: bool
    loss_history: tuple[float, ...] = ()


@dataclass(frozen=True, slots=True)
class MdaModel:
    """Logistic conversion model over a fixed, documented feature set.

    Feature order is ``n_clicks``, then one ``channel_count:<channel>`` per
    training channel in sorted order: counts of a journey's touchpoints. The
    counts of all touchpoints and of views are left out, as sums and
    differences of these, so no two weight vectors give the same model."""

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
            "metadata": asdict(self.training),
        }
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "MdaModel":
        doc = json.loads(text)
        names = tuple(doc["feature_names"])
        _touchpoint_columns(names, np.zeros(0, bool), np.zeros(0, str))  # before the metadata
        meta = doc["metadata"]
        return cls(
            feature_names=names,
            weights=tuple(float(w) for w in doc["weights"]),
            bias=float(doc["bias"]),
            training=TrainingInfo(
                int(meta["steps"]), float(meta["initial_loss"]), float(meta["final_loss"]),
                float(meta["gradient_max_norm"]), bool(meta["converged"]),
                tuple(float(v) for v in meta["loss_history"])),
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


def _touchpoint_columns(
    feature_names: Sequence[str], is_click: np.ndarray, channel: np.ndarray
) -> np.ndarray:
    """Row i is touchpoint i's contribution, 1 or 0, to each MDA feature."""
    columns = np.zeros((len(is_click), len(feature_names)))
    for i, name in enumerate(feature_names):
        if name == "n_clicks":
            columns[:, i] = is_click
        elif name.startswith("channel_count:"):
            columns[:, i] = channel == name.split(":", 1)[1]
        else:
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
    columns of its rows."""
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
    return X


def _distinct_rows(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct rows of count matrix ``X`` with labels ``y``: rows, labels and
    how many journeys each stands for. A row's code reads its label and counts
    as mixed-radix digits, so one sort of integers, not of rows, finds them."""
    code = y.astype(np.int64)
    for column in X.T.astype(np.int64):
        radix = int(column.max()) + 1
        if int(code.max()) >= np.iinfo(np.int64).max // radix - 1:
            code = np.unique(code, return_inverse=True)[1]
        code = code * radix + column
    _, first, count = np.unique(code, return_index=True, return_counts=True)
    return X[first], y[first].astype(np.float64), count


def _separates(column: np.ndarray, y: np.ndarray) -> bool:
    """Whether a feature that is not constant has every positive at or above every
    negative, or at or below: the likelihood then grows without bound."""
    positive, negative = column[y == 1.0], column[y == 0.0]
    return column.min() < column.max() and (
        negative.max() <= positive.min() or positive.max() <= negative.min())


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


def train_mda(journeys: Journeys) -> MdaModel:
    """Fit the logistic conversion model to every journey by maximum likelihood.

    The label is whether the journey converted. The journeys collapse to their
    distinct (counts, label) rows, weighted by how many each stands for, and
    Newton's method fits these from zero weights: each step solves the Hessian
    system by least squares (finite when it is singular) and is halved while
    it raises the mean log-loss. It stops when half the squared Newton
    decrement is at most ``_NEWTON_TOL``, or after ``_MAX_NEWTON_STEPS`` steps.
    Separated labels have no maximum-likelihood weights (Albert & Anderson
    1984): one warning names a separating feature, or says that the fit did
    not converge, and the weights of the last step are kept."""
    converted = journeys.converted
    if not 0 < np.count_nonzero(converted) < len(converted):
        raise DegenerateLabelsError("training needs converting and non-converting journeys")
    names = feature_names_for(journeys)
    X, y, count = _distinct_rows(_feature_matrix(names, journeys), converted)
    Z = np.column_stack([X, np.ones(len(X))])
    f = count / len(converted)

    def loss(theta: np.ndarray) -> float:
        z = Z @ theta
        return float(f @ (np.logaddexp(0.0, z) - y * z))

    theta = np.zeros(Z.shape[1])
    history = [loss(theta)]
    while True:
        p = _sigmoid_vec(Z @ theta)
        grad = Z.T @ (f * (p - y))
        step = np.linalg.lstsq((Z.T * (f * p * (1.0 - p))) @ Z, grad, rcond=None)[0]
        small = float(grad @ step) / 2 <= _NEWTON_TOL
        if small or len(history) > _MAX_NEWTON_STEPS:
            break
        t = 1.0  # a rise within 1e-12 of the loss is rounding, not a worse fit
        while (new := loss(theta - t * step)) > history[-1] * (1 + 1e-12) and t > 2.0**-30:
            t /= 2
        theta -= t * step
        history.append(new)

    steps = len(history) - 1
    separating = next((name for name, column in zip(names, X.T) if _separates(column, y)), None)
    extreme = float(np.minimum(p, 1.0 - p).min()) < 1e-9  # a probability of 0 or 1
    converged = small and separating is None and not extreme
    if separating is not None:
        logger.warning("MDA training labels are separated by %r, so no maximum-likelihood "
                       "weights exist; keeping the weights of Newton step %d", separating, steps)
    elif not converged:
        logger.warning("MDA training did not converge in %d Newton step(s)%s", steps,
                       "; fitted probabilities of 0 or 1 mean the labels are separated" * extreme)
    info = TrainingInfo(steps, history[0], history[-1], float(np.abs(grad).max()), converged,
                        tuple(history))
    return MdaModel(names, tuple(float(v) for v in theta[:-1]), float(theta[-1]), info)


def mda_credits(model: MdaModel, journey: Journey) -> tuple[float, ...]:
    """Leave-one-out credits: each touchpoint earns the (clipped) drop in
    conversion probability caused by removing it, normalized to sum to 1;
    if no removal lowers the probability the credit falls back to uniform.

    Removing touchpoint i subtracts the column row of its (is_click, channel)
    pair from the full count vector. One vector is scored per distinct pair,
    with the scalar arithmetic of rebuilding it: the credits are the O(n^2) ones."""
    _require_touchpoints(journey)
    tps = journey.touchpoints
    pairs = [(tp.interaction_kind is InteractionKind.CLICK, tp.channel) for tp in tps]
    columns = _touchpoint_columns(model.feature_names, *map(np.array, zip(*pairs)))
    x = columns.sum(axis=0)
    row_of = {pair: i for i, pair in enumerate(pairs)}
    loo = x - columns[list(row_of.values())]

    # Per-row np.dot, not loo @ weights: a batched product sums in another
    # order and moves credits in their last bits.
    p_full = model._proba(x)
    drop = {pair: max(0.0, p_full - model._proba(row)) for pair, row in zip(row_of, loo)}
    deltas = [drop[pair] for pair in pairs]
    total = sum(deltas)
    if total > 0.0:
        return tuple(d / total for d in deltas)
    return (1.0 / len(tps),) * len(tps)
