"""Disaggregation of calibration weights into touchpoint-level MTA credits,
and aggregation of those credits into normalized attribution shares."""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .attribution import CreditVector
from .calibration import CalibrationModel
from .errors import DataIntegrityError
from .events import Journey

logger = logging.getLogger(__name__)

# Reporting dimension -> the field that carries it, on credit objects and in
# credit CSV rows alike.
DIMENSION_FIELDS = {"channel": "channel", "ad_product": "ad_product", "campaign": "campaign_id"}
DIMENSIONS = tuple(DIMENSION_FIELDS)


@dataclass(frozen=True, slots=True)
class MtaCredit:
    """Calibration-weighted credit for one touchpoint of one conversion."""

    conversion_id: str
    touchpoint_id: str
    campaign_id: str
    channel: str
    ad_product: str
    credit: float


@dataclass(frozen=True, slots=True)
class ShareRow:
    value: str
    total_credit: float
    share: float


@dataclass(frozen=True, slots=True)
class AttributionShareReport:
    """Normalized credit totals by reporting dimension.

    When the grand total is zero the report is flagged rather than failing,
    and every share is reported as 0.
    """

    dimension: str
    rows: tuple[ShareRow, ...]
    unattributed_conversions: int = 0
    zero_total: bool = False

    def shares(self) -> dict[str, float]:
        return {row.value: row.share for row in self.rows}


def score_all(
    model: CalibrationModel,
    attributable: Sequence[Journey],
    credits_by_model: Mapping[str, Sequence[CreditVector]],
) -> list[MtaCredit]:
    """MTA credits for every attributable conversion, with one warning line
    per cause of zero credit for the whole batch.

    credit(tp) = units x sum over models of weight_m x credit_m(tp), where
    units is the conversion's unit count (1 for ordinary conversions), so
    campaign-level sums of MTA credits reconcile exactly with the
    calibration model's campaign predictions. A model named in the
    calibration weights but missing here, or a touchpoint whose group has no
    fitted weights, contributes zero credit (with a warning); a credit vector
    of another journey raises :class:`DataIntegrityError`.
    """
    out: list[MtaCredit] = []
    for i, journey in enumerate(attributable):
        per_model = {name: vectors[i] for name, vectors in credits_by_model.items()}
        out.extend(_score_journey(model, per_model, journey))
    _warn_zero_credit(model, credits_by_model.keys(), attributable)
    return out


def _warn_zero_credit(
    model: CalibrationModel, model_names: Iterable[str], journeys: Sequence[Journey]
) -> None:
    """Report, as counts, the credit that scoring set to zero: weighted models
    with no credit vectors, and touchpoints in groups with no fitted weights."""
    missing = [name for name in model.feature_names if name not in model_names]
    if missing and journeys:
        logger.warning(
            "%d conversion(s) have no %s credits; treating them as zero",
            len(journeys),
            ", ".join(map(repr, missing)),
        )
    channels = Counter(tp.channel for journey in journeys for tp in journey.touchpoints)
    unfitted = {model.group_for(c) for c in channels} - model.weights_by_group.keys()
    if unfitted:
        logger.warning(
            "no fitted weights for group(s) %s; %d touchpoint(s) get zero credit",
            ", ".join(map(repr, sorted(unfitted))),
            sum(n for c, n in channels.items() if model.group_for(c) in unfitted),
        )


def _score_journey(
    model: CalibrationModel,
    credits_by_model: Mapping[str, CreditVector],
    journey: Journey,
) -> list[MtaCredit]:
    if journey.conversion is None:
        raise DataIntegrityError("cannot score a journey without a conversion")
    conversion_id = journey.conversion.conversion_id
    for name, vector in credits_by_model.items():
        if vector.journey != journey:
            raise DataIntegrityError(
                f"model {name!r} credits belong to another journey than "
                f"conversion {conversion_id!r}'s"
            )
    absent = (0.0,) * len(journey.touchpoints)
    columns = [
        credits_by_model[name].credits if name in credits_by_model else absent
        for name in model.feature_names
    ]

    units = journey.conversion.units
    combined = []
    for i, tp in enumerate(journey.touchpoints):
        weights = model.group_weights(tp.channel).values()
        combined.append(units * sum(weight * column[i] for weight, column in zip(weights, columns)))
    return credit_rows(journey, combined)


def credit_rows(journey: Journey, credits: Sequence[float]) -> list[MtaCredit]:
    """One row per touchpoint of a converting journey: ``credits[i]`` is the
    credit of ``journey.touchpoints[i]``."""
    conversion_id = journey.conversion.conversion_id
    return [
        MtaCredit(
            conversion_id, tp.touchpoint_id, tp.campaign_id, tp.channel, tp.ad_product, credit
        )
        for tp, credit in zip(journey.touchpoints, credits)
    ]


def _check_dimension(dimension: str) -> None:
    if dimension not in DIMENSION_FIELDS:
        raise ValueError(f"unknown report dimension {dimension!r}")


def credit_totals(
    rows: Iterable,
    dimension: str,
    get: Callable = getattr,
    totals: dict[str, float] | None = None,
) -> dict[str, float]:
    """Sum each row's ``credit`` by reporting dimension, in first-seen order.

    ``get`` reads a field: ``getattr`` for credit objects, ``operator.getitem``
    for rows of a credit CSV. Sums accumulate into ``totals`` when given.
    """
    _check_dimension(dimension)
    field = DIMENSION_FIELDS[dimension]
    totals = {} if totals is None else totals
    for row in rows:
        value = get(row, field)
        totals[value] = totals.get(value, 0.0) + float(get(row, "credit"))
    return totals


def aggregate_shares(
    credits: Iterable[MtaCredit],
    dimension: str = "channel",
    unattributed_conversions: int = 0,
) -> AttributionShareReport:
    """Total and normalize credits by the requested reporting dimension."""
    return shares_from_totals(
        credit_totals(credits, dimension), dimension, unattributed_conversions
    )


def shares_from_totals(
    totals: Mapping[str, float], dimension: str = "channel", unattributed: int = 0
) -> AttributionShareReport:
    """Normalize per-dimension credit totals into a share report, largest
    share first."""
    _check_dimension(dimension)
    grand_total = sum(totals.values())
    zero_total = grand_total <= 0.0
    rows = tuple(
        sorted(
            (
                ShareRow(value, float(total), 0.0 if zero_total else total / grand_total)
                for value, total in totals.items()
            ),
            key=lambda r: (-r.share, r.value),
        )
    )
    return AttributionShareReport(
        dimension=dimension,
        rows=rows,
        unattributed_conversions=unattributed,
        zero_total=zero_total,
    )


def render_share_table(
    report: AttributionShareReport,
    comparisons: Mapping[str, AttributionShareReport] | None = None,
) -> str:
    """Aligned-column text table of a share report, with optional share
    columns from comparison reports (e.g. LTA-only, MDA-only)."""
    comparisons = comparisons or {}
    headers = [report.dimension, "credit", "share"] + [
        f"{name}_share" for name in comparisons
    ]
    lines = []
    for row in report.rows:
        line = [row.value, f"{row.total_credit:.3f}", f"{row.share:.4f}"]
        for comp in comparisons.values():
            line.append(f"{comp.shares().get(row.value, 0.0):.4f}")
        lines.append(line)
    widths = [
        max(len(headers[i]), *(len(line[i]) for line in lines)) if lines else len(headers[i])
        for i in range(len(headers))
    ]
    out = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
    out.append("  ".join("-" * w for w in widths))
    for line in lines:
        out.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)))
    if report.zero_total:
        out.append("(grand total is zero; shares reported as 0)")
    out.append(f"unattributed conversions: {report.unattributed_conversions}")
    return "\n".join(out)
