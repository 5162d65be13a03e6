"""Causal calibration: regress RCT incremental conversions on attributed
conversions.

Touchpoint-level credits are aggregated into campaign-level features (one
column per attribution model), then a nonnegative least-squares fit maps
those features to the RCT targets. The fitted weights are the calibration
factors applied downstream to touchpoint credits; nonnegativity keeps the
disaggregated credits meaningful as shares.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import IO, Iterable, Mapping, Sequence

import numpy as np

from .attribution import CreditVector
from .errors import ConfigError, DataIntegrityError, InsufficientDataError
from .nnls import nnls
from .rct import CampaignSpec, RctResult

logger = logging.getLogger(__name__)

GLOBAL_GROUP = "global"
POOLING_GLOBAL = "global"
POOLING_PER_CHANNEL = "per_channel"


@dataclass(frozen=True, slots=True)
class CampaignFeatureRow:
    """One campaign's attributed conversions per model, plus its RCT target
    (None for campaigns not run as RCTs)."""

    campaign_id: str
    channel: str
    features: dict[str, float]
    target: float | None = None
    target_std_error: float | None = None

    def __post_init__(self) -> None:
        for name, value in self.features.items():
            if value < 0.0 or not math.isfinite(value):
                raise ValueError(f"{self.campaign_id}: feature {name!r} must be finite and >= 0")
        if self.target_std_error is not None and self.target_std_error < 0.0:
            raise ValueError(f"{self.campaign_id}: target_std_error must be >= 0")


@dataclass(frozen=True, slots=True)
class CalibrationOptions:
    feature_models: tuple[str, ...] | None = None
    pooling: str = POOLING_GLOBAL
    intercept: bool = False
    inverse_variance_weighting: bool = False

    def __post_init__(self) -> None:
        if self.pooling not in (POOLING_GLOBAL, POOLING_PER_CHANNEL):
            raise ConfigError(f"unknown pooling {self.pooling!r}")


@dataclass(frozen=True)
class CalibrationModel:
    """Fitted calibration weights, one nonnegative weight per attribution model.

    Under global pooling there is a single weight vector (group key
    ``"global"``); under per-channel pooling one vector per channel.
    """

    feature_names: tuple[str, ...]
    pooling: str
    weights_by_group: dict[str, tuple[float, ...]]
    intercept_by_group: dict[str, float] | None
    fit_diagnostics: dict[str, float] = field(default_factory=dict)
    cv_metrics: dict[str, float] | None = None

    @property
    def weights(self) -> dict[str, float]:
        """Model-name -> weight map for globally pooled models."""
        if self.pooling != POOLING_GLOBAL:
            raise ValueError("weights property is only defined for global pooling")
        return dict(zip(self.feature_names, self.weights_by_group[GLOBAL_GROUP]))

    def group_for(self, channel: str) -> str:
        return GLOBAL_GROUP if self.pooling == POOLING_GLOBAL else channel

    def group_weights(self, channel: str) -> dict[str, float]:
        """The channel's weights; zeros when its group has no fitted weights,
        which callers report."""
        values = self.weights_by_group.get(self.group_for(channel))
        if values is None:
            values = (0.0,) * len(self.feature_names)
        return dict(zip(self.feature_names, values))

    def with_cv_metrics(self, metrics: dict[str, float]) -> "CalibrationModel":
        return replace(self, cv_metrics=metrics)

    def to_json(self) -> str:
        doc = {
            "feature_names": list(self.feature_names),
            "pooling": self.pooling,
            "weights": {g: list(w) for g, w in self.weights_by_group.items()},
            "intercepts": dict(self.intercept_by_group) if self.intercept_by_group else None,
            "diagnostics": self.fit_diagnostics,
            "cv_metrics": self.cv_metrics,
        }
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "CalibrationModel":
        doc = json.loads(text)
        return cls(
            feature_names=tuple(doc["feature_names"]),
            pooling=doc["pooling"],
            weights_by_group={g: tuple(map(float, w)) for g, w in doc["weights"].items()},
            intercept_by_group=(
                {g: float(v) for g, v in doc["intercepts"].items()} if doc.get("intercepts") else None
            ),
            fit_diagnostics=doc.get("diagnostics", {}),
            cv_metrics=doc.get("cv_metrics"),
        )


def aggregate_campaign_features(
    credits_by_model: Mapping[str, Iterable[CreditVector]],
    campaigns: Sequence[CampaignSpec],
    rct_results: Mapping[str, RctResult] | None = None,
) -> list[CampaignFeatureRow]:
    """Sum touchpoint credits (times conversion units) up to campaign level.

    Every campaign in ``campaigns`` yields a row, zero-credit campaigns
    included. Targets are joined from ``rct_results`` for campaigns flagged
    ``is_rct``; other campaigns keep ``target=None`` and are ignored by the
    fit. A credited touchpoint whose campaign is not in ``campaigns`` raises
    :class:`DataIntegrityError`.
    """
    rct_results = rct_results or {}
    model_names = sorted(credits_by_model)
    totals: dict[str, dict[str, float]] = {
        spec.campaign_id: {name: 0.0 for name in model_names} for spec in campaigns
    }
    for name in model_names:
        for vector in credits_by_model[name]:
            units = float(vector.journey.conversion.units)
            for tp, credit in zip(vector.journey.touchpoints, vector.credits):
                bucket = totals.get(tp.campaign_id)
                if bucket is None:
                    raise DataIntegrityError(
                        f"touchpoint {tp.touchpoint_id!r} belongs to campaign "
                        f"{tp.campaign_id!r} which is not in the campaign list"
                    )
                bucket[name] += credit * units

    rows = []
    for spec in sorted(campaigns, key=lambda s: s.campaign_id):
        result = rct_results.get(spec.campaign_id) if spec.is_rct else None
        rows.append(
            CampaignFeatureRow(
                campaign_id=spec.campaign_id,
                channel=spec.channel,
                features=totals[spec.campaign_id],
                target=result.incremental_conversions if result else None,
                target_std_error=result.std_error if result else None,
            )
        )
    return rows


def feature_rows_to_csv(rows: Sequence[CampaignFeatureRow], stream: IO[str]) -> None:
    """Write the campaign feature table as CSV (empty target = non-RCT row)."""
    names = sorted({name for row in rows for name in row.features})
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["campaign_id", "channel", *names, "target", "target_std_error"])
    for row in rows:
        writer.writerow(
            [
                row.campaign_id,
                row.channel,
                *(repr(row.features.get(name, 0.0)) for name in names),
                "" if row.target is None else repr(row.target),
                "" if row.target_std_error is None else repr(row.target_std_error),
            ]
        )


def feature_rows_from_csv(stream: IO[str]) -> list[CampaignFeatureRow]:
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


def _resolve_feature_names(
    rows: Sequence[CampaignFeatureRow], options: CalibrationOptions
) -> tuple[str, ...]:
    if options.feature_models is not None:
        return tuple(options.feature_models)
    return tuple(sorted({name for row in rows for name in row.features}))


def _fit_group(
    group: str,
    rows: Sequence[CampaignFeatureRow],
    names: tuple[str, ...],
    options: CalibrationOptions,
) -> tuple[tuple[float, ...], float | None, float]:
    n_params = len(names) + (1 if options.intercept else 0)
    if len(rows) < n_params:
        raise InsufficientDataError(
            f"group {group!r}: {len(rows)} RCT row(s) cannot identify {n_params} weight(s)"
        )
    A = np.array([[row.features.get(name, 0.0) for name in names] for row in rows])
    b = np.array([row.target for row in rows], dtype=float)

    for j, name in enumerate(names):
        if not np.any(A[:, j] != 0.0):
            logger.warning("group %r: feature %r is all-zero; weight fixed at 0", group, name)

    if options.inverse_variance_weighting:
        ses = np.array(
            [row.target_std_error if row.target_std_error else 0.0 for row in rows]
        )
        scale = 1.0 / np.maximum(ses, np.max(ses) * 1e-6 if np.max(ses) > 0 else 1.0)
        A = A * scale[:, None]
        b = b * scale

    if options.intercept:
        # Unconstrained intercept via a +/- column pair inside the NNLS.
        ones = np.ones((len(rows), 1))
        design = np.hstack([A, ones, -ones])
        solution, _ = nnls(design, b)
        weights = solution[: len(names)]
        intercept = float(solution[len(names)] - solution[len(names) + 1])
        residual = b - design @ solution
    else:
        weights, _ = nnls(A, b)
        intercept = None
        residual = b - A @ weights

    return tuple(float(w) for w in weights), intercept, float(np.sqrt(residual @ residual))


def fit_calibration(
    rows: Sequence[CampaignFeatureRow], options: CalibrationOptions = CalibrationOptions()
) -> CalibrationModel:
    """Fit nonnegative calibration weights to the RCT rows.

    Rows without a target are skipped. The fit is deterministic: rows are
    sorted by campaign_id internally, so input order never changes weights.
    """
    names = _resolve_feature_names(rows, options)
    if not names:
        raise InsufficientDataError("no feature columns to fit")
    usable = sorted(
        (row for row in rows if row.target is not None), key=lambda r: r.campaign_id
    )
    if not usable:
        raise InsufficientDataError("no rows with RCT targets to fit on")

    if options.pooling == POOLING_GLOBAL:
        grouped: dict[str, list[CampaignFeatureRow]] = {GLOBAL_GROUP: list(usable)}
    else:
        grouped = {}
        for row in usable:
            grouped.setdefault(row.channel, []).append(row)

    weights_by_group: dict[str, tuple[float, ...]] = {}
    intercepts: dict[str, float] = {}
    total_rss = 0.0
    targets: list[float] = []
    for group in sorted(grouped):
        weights, intercept, res_norm = _fit_group(group, grouped[group], names, options)
        weights_by_group[group] = weights
        if intercept is not None:
            intercepts[group] = intercept
        total_rss += res_norm**2
        targets.extend(row.target for row in grouped[group])

    b_all = np.array(targets)
    tss = float(np.sum((b_all - np.mean(b_all)) ** 2))
    diagnostics = {
        "r_squared": 1.0 - total_rss / tss if tss > 0.0 else (1.0 if total_rss < 1e-24 else 0.0),
        "residual_norm": float(np.sqrt(total_rss)),
        "n_rows": float(len(usable)),
    }
    return CalibrationModel(
        feature_names=names,
        pooling=options.pooling,
        weights_by_group=weights_by_group,
        intercept_by_group=intercepts if options.intercept else None,
        fit_diagnostics=diagnostics,
    )


def predict_campaign(model: CalibrationModel, row: CampaignFeatureRow) -> float:
    """Predicted RCT conversions for one campaign row (clamped at 0)."""
    value, gaps = _predict(model, row)
    _warn_gaps(Counter(gaps))
    return value


def _predict(model: CalibrationModel, row: CampaignFeatureRow) -> tuple[float, list[str]]:
    """The prediction, plus what it counted as 0: a group with no fitted
    weights, or a feature the row lacks."""
    group = model.group_for(row.channel)
    gaps = [] if group in model.weights_by_group else [f"no fitted weights for group {group!r}"]
    value = 0.0
    for name, weight in model.group_weights(row.channel).items():
        feature = row.features.get(name)
        if feature is None:
            gaps.append(f"lacks feature {name!r}")
            feature = 0.0
        value += weight * feature
    if model.intercept_by_group:
        value += model.intercept_by_group.get(group, 0.0)
    return max(0.0, value), gaps


def _warn_gaps(gaps: Counter) -> None:
    for gap, count in sorted(gaps.items()):
        logger.warning("%d campaign row(s): %s; treated as 0", count, gap)


def evaluate_oos(
    rows: Sequence[CampaignFeatureRow],
    options: CalibrationOptions = CalibrationOptions(),
    k: int = 5,
    seed: int = 0,
) -> dict[str, float]:
    """K-fold cross-validation over RCT campaigns.

    Returns out-of-sample R^2 and MAPE; rows with |target| < 1 are excluded
    from the MAPE (their count is reported separately as ``mape_excluded``).
    """
    usable = sorted(
        (row for row in rows if row.target is not None), key=lambda r: r.campaign_id
    )
    n = len(usable)
    if k < 2:
        raise ConfigError(f"fold count must be >= 2, got {k}")
    if k > n:
        raise ConfigError(f"fold count {k} exceeds the {n} available RCT row(s)")

    order = np.random.default_rng(seed).permutation(n)
    folds = np.array_split(order, k)
    predictions = np.empty(n)
    gaps: Counter = Counter()
    for fold in folds:
        held_out = set(int(i) for i in fold)
        train = [usable[i] for i in range(n) if i not in held_out]
        fold_model = fit_calibration(train, options)
        for i in fold:
            predictions[int(i)], row_gaps = _predict(fold_model, usable[int(i)])
            gaps.update(row_gaps)
    _warn_gaps(gaps)

    targets = np.array([row.target for row in usable], dtype=float)
    rss = float(np.sum((targets - predictions) ** 2))
    tss = float(np.sum((targets - np.mean(targets)) ** 2))
    r_squared = 1.0 - rss / tss if tss > 0.0 else (1.0 if rss < 1e-24 else 0.0)

    sizable = np.abs(targets) >= 1.0
    excluded = int(np.sum(~sizable))
    if np.any(sizable):
        mape = float(
            np.mean(np.abs(predictions[sizable] - targets[sizable]) / np.abs(targets[sizable]))
        )
    else:
        mape = float("nan")
    return {
        "r_squared": r_squared,
        "mape": mape,
        "mape_excluded": float(excluded),
        "n_rows": float(n),
        "folds": float(k),
    }
