"""Batch composition of the attribution stages.

These functions are the in-process backbone of the CLI: build journeys,
train the MDA attributor, compute every model's credit vectors, aggregate
calibration features, fit, score, and report. Each stage is deterministic
given its inputs and the configured seeds.
"""

from __future__ import annotations

import logging
from typing import Mapping, Sequence

import numpy as np

from . import attribution
from .attribution import (
    CreditVector,
    DecayConfig,
    MdaHyperparams,
    MdaModel,
    MODEL_MDA,
    MODEL_NAMES,
)
from .calibration import (
    CalibrationModel,
    CalibrationOptions,
    CampaignFeatureRow,
    aggregate_campaign_features,
    evaluate_oos,
    fit_calibration,
)
from .credits import MtaCredit, credit_rows
from .credits import score_all  # noqa: F401  -- the CLI scores through pipeline.score_all
from .errors import DegenerateLabelsError, InsufficientDataError
from .events import Journey, Journeys
from .rct import CampaignSpec, RctResult

logger = logging.getLogger(__name__)


def split_attributable(journeys: Sequence[Journey]) -> tuple[list[Journey], int]:
    """Converting journeys with at least one in-window touchpoint, plus the
    count of conversions left unattributed (no eligible touchpoints). Only
    the attributable journeys are built as objects."""
    journeys = Journeys.of(journeys)
    has_touchpoints = journeys.stop > journeys.start
    attributable = journeys.take(np.flatnonzero(journeys.converted & has_touchpoints))
    unattributed = int(np.count_nonzero(journeys.converted & ~has_touchpoints))
    return attributable, unattributed


def mda_training_set(
    journeys: Sequence[Journey], max_negatives: int | None = None, seed: int = 0
) -> Journeys:
    """Training rows for the MDA: all converting journeys plus (optionally
    capped, seeded subsample of) non-converting ones, selected without
    building journey objects."""
    journeys = Journeys.of(journeys)
    positives = np.flatnonzero(journeys.converted)
    negatives = np.flatnonzero(~journeys.converted)
    if max_negatives is not None and len(negatives) > max_negatives:
        keep = np.random.default_rng(seed).choice(len(negatives), max_negatives, replace=False)
        negatives = negatives[np.sort(keep)]
    return journeys.select(np.concatenate([positives, negatives]))


def train_attributor(
    journeys: Sequence[Journey],
    hyper: MdaHyperparams = MdaHyperparams(),
    max_negatives: int | None = None,
) -> MdaModel | None:
    """Train the MDA on the journey set; returns None when the labels are
    degenerate (e.g. a log with no non-converting customers)."""
    rows = mda_training_set(journeys, max_negatives, hyper.seed)
    try:
        return attribution.train_mda(rows, hyper)
    except DegenerateLabelsError as exc:
        logger.warning("MDA training skipped: %s", exc)
        return None


def ensemble_credits(
    attributable: Sequence[Journey],
    model_names: Sequence[str] = MODEL_NAMES,
    decay: DecayConfig = DecayConfig(),
    mda: MdaModel | None = None,
) -> dict[str, list[CreditVector]]:
    """Credit vectors for every requested model, aligned with the journeys."""
    names = [n for n in model_names if n != MODEL_MDA or mda is not None]
    if MODEL_MDA in model_names and mda is None:
        logger.warning("no MDA model available; skipping MDA credits")
    return {
        name: [attribution.credits_for_model(name, j, decay=decay, mda=mda) for j in attributable]
        for name in names
    }


def calibration_rows(
    credits_by_model: Mapping[str, Sequence[CreditVector]],
    campaigns: Sequence[CampaignSpec],
    rct_results: Mapping[str, RctResult],
    feature_models: Sequence[str],
) -> list[CampaignFeatureRow]:
    """Campaign feature rows over the calibration's feature models only."""
    missing = [name for name in feature_models if name not in credits_by_model]
    if missing:
        raise InsufficientDataError(
            f"no credit vectors for calibration feature(s) {missing}; "
            "was MDA training skipped for lack of labels?"
        )
    selected = {name: credits_by_model[name] for name in feature_models}
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
        model = model.with_cv_metrics(evaluate_oos(rows, options, k=cv_folds, seed=cv_seed))
    else:
        logger.warning("skipping CV: %d RCT row(s) < %d folds", n_rct, cv_folds)
    return model


def model_credit_records(
    credits_by_model: Mapping[str, Sequence[CreditVector]],
) -> list[tuple[str, MtaCredit]]:
    """Flat per-model credit table (the pre-calibration analogue of the MTA
    credit table) as ``(model, row)`` pairs, each credit scaled by its
    conversion's units; used for LTA-only / MDA-only comparison reporting."""
    return [
        (name, row)
        for name in sorted(credits_by_model)
        for vector in credits_by_model[name]
        for row in credit_rows(
            vector.journey, [c * vector.journey.conversion.units for c in vector.credits]
        )
    ]
