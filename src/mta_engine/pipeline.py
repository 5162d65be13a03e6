"""Batch composition of the attribution stages.

These functions are the in-process backbone of the CLI: build journeys,
train the MDA attributor, compute every model's credits, aggregate
calibration features, fit, score, and report. Each stage is deterministic
given its inputs and the configured seeds.
"""

from __future__ import annotations

import logging
from dataclasses import replace
from functools import partial
from itertools import chain
from typing import Mapping, Sequence

import numpy as np

from . import attribution
from .attribution import MdaModel, ModelCredits
from .calibration import (
    CalibrationModel,
    CalibrationOptions,
    CampaignFeatureRow,
    aggregate_campaign_features,
    evaluate_oos,
    fit_calibration,
)
from .config import MODEL_DECAY, MODEL_LINEAR, MODEL_LTA, MODEL_MDA, MODEL_NAMES, DecayConfig
from .errors import DataIntegrityError, DegenerateLabelsError, InsufficientDataError
from .events import Journey, Journeys, label_codes
from .rct import CampaignSpec, RctResult

logger = logging.getLogger(__name__)


def split_attributable(journeys: Journeys) -> tuple[list[Journey], int]:
    """Converting journeys with at least one in-window touchpoint, plus the
    count of conversions left unattributed (no eligible touchpoints). Only
    the attributable journeys are built as objects."""
    has_touchpoints = journeys.stop > journeys.start
    attributable = journeys.take(np.flatnonzero(journeys.converted & has_touchpoints))
    unattributed = int(np.count_nonzero(journeys.converted & ~has_touchpoints))
    return attributable, unattributed


def train_attributor(journeys: Journeys) -> MdaModel | None:
    """Train the MDA on every journey; returns None when the labels are
    degenerate (e.g. a log with no non-converting customers)."""
    try:
        return attribution.train_mda(journeys)
    except DegenerateLabelsError as exc:
        logger.warning("MDA training skipped: %s", exc)
        return None


def ensemble_credits(
    attributable: Sequence[Journey],
    model_names: Sequence[str] = MODEL_NAMES,
    decay: DecayConfig = DecayConfig(),
    mda: MdaModel | None = None,
) -> ModelCredits:
    """Every requested model's credits for the journeys' touchpoints, as one
    table: a label row per touchpoint, in journey and ``journey.touchpoints``
    order, with its conversion's units, and a column per model of its
    per-journey kernel's credits.

    The kernels are read from ``attribution`` once per call, so a kernel
    replaced there (as the benchmark's tracer does) is the one called. An
    unknown model name raises ValueError, and a journey without a conversion
    DataIntegrityError."""
    kernels = {
        MODEL_LTA: attribution.lta_credits,
        MODEL_LINEAR: attribution.linear_credits,
        MODEL_DECAY: partial(attribution.decay_credits, cfg=decay),
        MODEL_MDA: partial(attribution.mda_credits, mda),
    }
    unknown = [name for name in model_names if name not in kernels]
    if unknown:
        raise ValueError(f"unknown attribution model {unknown[0]!r}")
    names = [n for n in model_names if n != MODEL_MDA or mda is not None]
    if MODEL_MDA in model_names and mda is None:
        logger.warning("no MDA model available; skipping MDA credits")
    columns = {
        name: np.fromiter(chain.from_iterable(map(kernels[name], attributable)), np.float64)
        for name in names
    }
    # A kernel refuses a journey without a conversion (NoTouchpointsError);
    # with no kernel to run, such a journey is refused here.
    if any(journey.conversion is None for journey in attributable):
        raise DataIntegrityError("cannot credit a journey without a conversion")
    labels = [
        (j.conversion.conversion_id, tp.touchpoint_id, tp.campaign_id, tp.channel, tp.ad_product)
        for j in attributable for tp in j.touchpoints
    ]
    units = np.array([float(j.conversion.units) for j in attributable for _ in j.touchpoints])
    return ModelCredits(labels, units, columns)


def calibration_rows(
    table: ModelCredits,
    campaigns: Sequence[CampaignSpec],
    rct_results: Mapping[str, RctResult],
    feature_models: Sequence[str],
) -> list[CampaignFeatureRow]:
    """Campaign feature rows over the calibration's feature models only."""
    missing = [name for name in feature_models if name not in table.columns]
    if missing:
        raise InsufficientDataError(
            f"no credit vectors for calibration feature(s) {missing}; "
            "was MDA training skipped for lack of labels?"
        )
    selected = replace(table, columns={name: table.columns[name] for name in feature_models})
    return aggregate_campaign_features(selected, campaigns, rct_results)


def fit_with_cv(
    rows: Sequence[CampaignFeatureRow],
    options: CalibrationOptions,
    cv_folds: int = 5,
    cv_seed: int = 0,
) -> CalibrationModel:
    """Fit the calibration model and attach out-of-sample CV metrics when
    enough RCT rows exist for the requested fold count."""
    model = fit_calibration(rows, options)
    n_rct = sum(1 for row in rows if row.target is not None)
    if cv_folds >= 2 and n_rct >= cv_folds:
        model = replace(model, cv_metrics=evaluate_oos(rows, options, k=cv_folds, seed=cv_seed))
    else:
        logger.warning("skipping CV: %d RCT row(s) < %d folds", n_rct, cv_folds)
    return model


def score_all(model: CalibrationModel, table: ModelCredits) -> ModelCredits:
    """MTA credits for every touchpoint of the ensemble's table, as the same
    rows with one column ``"mta"``, and one warning line per cause of zero
    credit for the whole batch.

    credit(tp) = units x sum over models of weight_m x credit_m(tp), where
    units is the conversion's unit count (1 for ordinary conversions). The
    column holds the sum, and ``scaled("mta")`` the credits. A model named in
    the calibration weights but missing from the table, or a touchpoint whose
    group has no fitted weights, contributes zero credit (with a warning).

    The calibration intercept is no touchpoint's credit: a campaign's MTA
    credits sum to its calibrated prediction minus its group's intercept
    (none without ``intercept``), before the prediction is clipped at 0.

    The products are numpy's and each touchpoint's terms go through Python's
    ``sum``, so the bits are those of the per-touchpoint definition.
    """
    codes, channels = label_codes([label[3] for label in table.labels])
    weights = [model.group_weights(c) for c in channels]
    terms = [
        (np.array([w[name] for w in weights])[codes] * table.columns.get(name, 0.0)).tolist()
        for name in model.feature_names
    ]
    total = np.array([sum(t) for t in zip(*terms)] if terms else [0.0] * len(table.labels))
    _warn_zero_credit(model, table, codes, channels)
    return replace(table, columns={"mta": total})


def _warn_zero_credit(
    model: CalibrationModel, table: ModelCredits, codes: np.ndarray, channels: Sequence[str]
) -> None:
    """Report, as counts, the credit that scoring set to zero: weighted models
    missing from the table, and touchpoints in groups with no fitted weights."""
    missing = [name for name in model.feature_names if name not in table.columns]
    if missing and table.labels:
        logger.warning(
            "%d conversion(s) have no %s credits; treating them as zero",
            len({label[0] for label in table.labels}),
            ", ".join(map(repr, missing)),
        )
    touchpoints = np.bincount(codes, minlength=len(channels)).tolist()
    unfitted = {model.group_for(c) for c in channels} - model.weights_by_group.keys()
    if unfitted:
        logger.warning(
            "no fitted weights for group(s) %s; %d touchpoint(s) get zero credit",
            ", ".join(map(repr, sorted(unfitted))),
            sum(n for c, n in zip(channels, touchpoints) if model.group_for(c) in unfitted),
        )


def model_credit_records(table: ModelCredits) -> ModelCredits:
    """The table with its columns in name order, for LTA-only / MDA-only comparisons."""
    return replace(table, columns={name: table.columns[name] for name in sorted(table.columns)})
