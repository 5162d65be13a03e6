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
import itertools
import json
import logging
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import IO, Mapping, Sequence

import numpy as np

from .attribution import ModelCredits
from .config import (  # noqa: F401  -- POOLING_PER_CHANNEL is re-exported
    POOLING_GLOBAL, POOLING_PER_CHANNEL, CalibrationOptions, CampaignSpec)
from .errors import ConfigError, DataIntegrityError, InsufficientDataError
from .rct import RctResult

logger = logging.getLogger(__name__)

GLOBAL_GROUP = "global"


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
    cv_metrics: dict[str, float | None] | None = None

    def __post_init__(self) -> None:
        # The feature names and the pooling obey the run config's rule.
        CalibrationOptions(self.feature_names, self.pooling)
        for group, weights in self.weights_by_group.items():
            if len(weights) != len(self.feature_names) or not all(map(math.isfinite, weights)):
                raise ValueError(f"group {group!r}: weights must be {len(self.feature_names)} "
                                 f"finite numbers, one per feature, got {list(weights)}")
        if not all(map(math.isfinite, (self.intercept_by_group or {}).values())):
            raise ValueError("intercepts must be finite")

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


def campaign_codes(
    table: ModelCredits, campaigns: Sequence[CampaignSpec]
) -> tuple[np.ndarray, dict[str, int]]:
    """Each row's code in the sorted ids of ``campaigns``, and each id's code.
    A row of a campaign that is not in ``campaigns`` raises
    :class:`DataIntegrityError`, naming the first such touchpoint."""
    index = {cid: i for i, cid in enumerate(sorted({spec.campaign_id for spec in campaigns}))}
    campaign = np.array([index.get(label[2], -1) for label in table.labels], dtype=np.intp)
    if np.any(campaign < 0):
        _, tp_id, campaign_id, *_ = table.labels[int(np.argmax(campaign < 0))]
        raise DataIntegrityError(f"touchpoint {tp_id!r} belongs to campaign {campaign_id!r} "
                                 "which is not in the campaign list")
    return campaign, index


def aggregate_campaign_features(
    table: ModelCredits,
    campaigns: Sequence[CampaignSpec],
    rct_results: Mapping[str, RctResult] | None = None,
) -> list[CampaignFeatureRow]:
    """Sum each column's touchpoint credits (times conversion units) by campaign.

    Every campaign in ``campaigns`` yields a row, zero-credit campaigns
    included. Targets are joined from ``rct_results`` for campaigns flagged
    ``is_rct``; other campaigns keep ``target=None`` and are ignored by the
    fit, and so are ``is_rct`` campaigns without a result, counted in one
    warning. A touchpoint or an RCT result whose campaign is not in
    ``campaigns`` raises :class:`DataIntegrityError`. Each campaign's sum
    adds its touchpoints' terms in row order.
    """
    rct_results = rct_results or {}
    campaign, index = campaign_codes(table, campaigns)
    totals = {
        name: np.bincount(campaign, table.scaled(name), len(index)).tolist()
        for name in sorted(table.columns)
    }

    unlisted = sorted(set(rct_results).difference(index))
    if unlisted:
        raise DataIntegrityError(f"{len(unlisted)} RCT result(s) belong to no listed campaign, "
                                 f"the first {unlisted[0]!r}")
    specs = sorted(campaigns, key=lambda s: s.campaign_id)
    unmatched = [s.campaign_id for s in specs if s.is_rct and s.campaign_id not in rct_results]
    if unmatched:
        logger.warning("%d RCT campaign(s) have no RCT result, the first %r; the fit leaves "
                       "them out", len(unmatched), unmatched[0])
    rows = []
    for spec in specs:
        result = rct_results.get(spec.campaign_id) if spec.is_rct else None
        rows.append(
            CampaignFeatureRow(
                campaign_id=spec.campaign_id,
                channel=spec.channel,
                features={name: t[index[spec.campaign_id]] for name, t in totals.items()},
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


def nnls(A, b):
    """Solve ``min ||A x - b||_2`` subject to ``x >= 0`` exactly, returning ``(x, rnorm)``.

    Every support is tried, by size and then column index: a full-rank one whose
    least-squares solution is strictly positive is a candidate, and the first
    with the strictly smallest residual over its own columns wins, so of
    identical columns the first gets the weight; no candidate gives ``x = 0``.
    The optimum lies on some full-rank support. The cost is ``2**n - 1``
    solves, meant for one column per attribution model.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or b.ndim != 1 or A.shape[0] != b.shape[0]:
        raise ValueError(f"incompatible shapes {A.shape} and {b.shape}")
    n = A.shape[1]
    best = np.zeros(n)
    best_rnorm = float(np.linalg.norm(A @ best - b))
    for size in range(1, n + 1):
        for cols in map(list, itertools.combinations(range(n), size)):
            z, _, rank, _ = np.linalg.lstsq(A[:, cols], b, rcond=None)
            rnorm = float(np.linalg.norm(A[:, cols] @ z - b))
            if rank == size and np.all(z > 0.0) and rnorm < best_rnorm:
                best, best_rnorm = np.zeros(n), rnorm
                best[cols] = z
    return best, float(np.linalg.norm(A @ best - b))


def _fit_group(
    group: str,
    rows: Sequence[CampaignFeatureRow],
    names: tuple[str, ...],
    options: CalibrationOptions,
    in_fold: bool,
) -> tuple[tuple[float, ...], float | None, float] | None:
    """The w >= 0 and c minimising ``sum s^2 (b - A.w - c)^2``, with s = 1/SE under
    inverse-variance weighting and 1 otherwise, and the norm of ``b - A.w - c``.
    A fold's rows that cannot identify the weights give None; a full fit raises."""
    n_params = len(names) + (1 if options.intercept else 0)
    if len(rows) < n_params:
        if in_fold:
            return None
        raise InsufficientDataError(
            f"group {group!r}: {len(rows)} RCT row(s) cannot identify {n_params} weight(s)"
        )
    A = np.array([[row.features.get(name, 0.0) for name in names] for row in rows])
    b = np.array([row.target for row in rows], dtype=float)

    s = np.ones(len(rows))
    if options.inverse_variance_weighting:
        ses = np.array([row.target_std_error or 0.0 for row in rows])
        floor = float(np.max(ses)) * 1e-6 if np.max(ses) > 0 else 1.0
        zero = int(np.count_nonzero(ses == 0.0))
        if zero and not in_fold:
            logger.warning("group %r: %d RCT row(s) have standard error 0; "
                           "inverse-variance weighting floors it at %g", group, zero, floor)
        s = 1.0 / np.maximum(ses, floor)

    A_mean, b_mean = np.zeros(len(names)), 0.0
    if options.intercept:
        # Centring takes c out of the NNLS; shifting by the first row first
        # makes a constant column exact zeros.
        A_mean, b_mean = (x[0] + np.average(x - x[0], axis=0, weights=s * s) for x in (A, b))
    design = (A - A_mean) * s[:, None]
    for j, name in enumerate(names):
        if not (in_fold or np.any(design[:, j] != 0.0)):
            logger.warning("group %r: feature %r is %s; weight fixed at 0", group, name,
                           "constant" if options.intercept else "all-zero")

    weights, _ = nnls(design, (b - b_mean) * s)
    intercept = float(b_mean - A_mean @ weights) if options.intercept else None
    residual = b - A @ weights - (intercept or 0.0)
    return tuple(float(w) for w in weights), intercept, float(np.sqrt(residual @ residual))


def fit_calibration(
    rows: Sequence[CampaignFeatureRow], options: CalibrationOptions = CalibrationOptions()
) -> CalibrationModel:
    """Fit nonnegative calibration weights to the RCT rows.

    Rows without a target are skipped. The fit is deterministic: rows are
    sorted by campaign_id internally, so input order never changes weights.
    """
    return _fit(rows, options, in_fold=False)


def _fit(
    rows: Sequence[CampaignFeatureRow], options: CalibrationOptions, in_fold: bool
) -> CalibrationModel:
    """``fit_calibration``, or in a CV fold (``in_fold``) the same fit that
    leaves a group its rows cannot identify without weights and logs nothing."""
    names = tuple(options.feature_models)
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
        targets.extend(row.target for row in grouped[group])
        fitted = _fit_group(group, grouped[group], names, options, in_fold)
        if fitted is None:
            continue
        weights_by_group[group], intercept, res_norm = fitted
        if intercept is not None:
            intercepts[group] = intercept
        total_rss += res_norm**2

    diagnostics = {
        "r_squared": _r_squared(total_rss, targets),
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


def _r_squared(rss: float, targets: Sequence[float]) -> float:
    """``1 - rss / tss``; targets without spread give 1 for an exact fit, else 0."""
    targets = np.asarray(targets, dtype=float)
    tss = float(np.sum((targets - np.mean(targets)) ** 2))
    return 1.0 - rss / tss if tss > 0.0 else (1.0 if rss < 1e-24 else 0.0)


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
) -> dict[str, float | None]:
    """K-fold cross-validation over RCT campaigns.

    A group that a fold's training rows cannot identify gets no weights in
    that fold: its held-out rows are predicted as 0 and reported as a gap.
    Returns out-of-sample R^2 and MAPE; rows with |target| < 1 are excluded
    from the MAPE (their count is reported separately as ``mape_excluded``),
    which is None when no row is left.
    ``gap_rows`` counts the held-out rows whose prediction counted a group
    without weights or a missing feature as 0.
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
    gap_rows = 0
    for fold in folds:
        held_out = set(int(i) for i in fold)
        train = [usable[i] for i in range(n) if i not in held_out]
        fold_model = _fit(train, options, in_fold=True)
        for i in fold:
            predictions[int(i)], row_gaps = _predict(fold_model, usable[int(i)])
            gaps.update(row_gaps)
            gap_rows += bool(row_gaps)
    _warn_gaps(gaps)

    targets = np.array([row.target for row in usable], dtype=float)
    r_squared = _r_squared(float(np.sum((targets - predictions) ** 2)), targets)

    sizable = np.abs(targets) >= 1.0
    excluded = int(np.sum(~sizable))
    mape = None
    if np.any(sizable):
        mape = float(
            np.mean(np.abs(predictions[sizable] - targets[sizable]) / np.abs(targets[sizable]))
        )
    return {
        "r_squared": r_squared,
        "mape": mape,
        "mape_excluded": float(excluded),
        "gap_rows": float(gap_rows),
        "n_rows": float(n),
        "folds": float(k),
    }
