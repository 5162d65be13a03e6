"""Disaggregation of calibration weights into touchpoint-level MTA credits, and
the shares of a credit table's column. The aggregation of credits into
attribution shares is in ``shares``, re-exported here."""

from __future__ import annotations

import logging
from dataclasses import replace
from operator import itemgetter
from typing import Sequence

import numpy as np

from .attribution import ModelCredits
from .calibration import CalibrationModel
from .events import label_codes
from .shares import (  # noqa: F401  -- re-exported
    DIMENSION_FIELDS, DIMENSIONS, AttributionShareReport, MtaCredit, ShareRow, aggregate_shares,
    credit_totals, render_share_table, shares_from_totals)
from .shares import LABEL_FIELDS, _check_dimension

logger = logging.getLogger(__name__)

def score_all(model: CalibrationModel, table: ModelCredits) -> ModelCredits:
    """MTA credits for every touchpoint of the ensemble's table, as the same
    rows with one column ``"mta"``, and one warning line per cause of zero
    credit for the whole batch.

    credit(tp) = units x sum over models of weight_m x credit_m(tp), where
    units is the conversion's unit count (1 for ordinary conversions), so
    campaign-level sums of MTA credits reconcile exactly with the
    calibration model's campaign predictions. The column holds the sum, and
    ``scaled("mta")`` the credits. A model named in the calibration weights
    but missing from the table, or a touchpoint whose group has no fitted
    weights, contributes zero credit (with a warning).

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


def model_credit_records(table: ModelCredits) -> ModelCredits:
    """The table with its columns in name order, for LTA-only / MDA-only comparisons."""
    return replace(table, columns={name: table.columns[name] for name in sorted(table.columns)})


def column_shares(
    table: ModelCredits, name: str, dimension: str = "channel", unattributed: int = 0
) -> AttributionShareReport:
    """Shares of column ``name``'s credits (``scaled(name)``) by reporting
    dimension, totalled as ``report`` totals a credit CSV: in row order, each
    value where it is first seen."""
    _check_dimension(dimension)
    field = LABEL_FIELDS.index(DIMENSION_FIELDS[dimension])
    values = [label[field] for label in table.labels]
    pairs = zip(values, table.scaled(name).tolist())  # rows of (dimension value, credit)
    totals = credit_totals(pairs, dimension, lambda f: itemgetter(1 if f == "credit" else 0))
    return shares_from_totals(totals, dimension, unattributed)


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
