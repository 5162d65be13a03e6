"""Disaggregation of calibration weights into touchpoint-level MTA credits,
and aggregation of those credits into normalized attribution shares."""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .attribution import CreditVector
from .calibration import CalibrationModel
from .errors import DataIntegrityError
from .events import Journey

logger = logging.getLogger(__name__)

DIMENSIONS = ("channel", "ad_product", "campaign")


@dataclass(frozen=True, slots=True)
class MtaCredit:
    """Calibration-weighted credit for one touchpoint of one conversion."""

    conversion_id: str
    touchpoint_id: str
    campaign_id: str
    channel: str
    ad_product: str
    credit: float

    def dimension_value(self, dimension: str) -> str:
        if dimension == "channel":
            return self.channel
        if dimension == "ad_product":
            return self.ad_product
        if dimension == "campaign":
            return self.campaign_id
        raise ValueError(f"unknown report dimension {dimension!r}")


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


def score_touchpoints(
    model: CalibrationModel,
    credits_by_model: Mapping[str, CreditVector],
    journey: Journey,
) -> list[MtaCredit]:
    """Combine one conversion's per-model credit vectors into MTA credits.

    credit(tp) = units x sum over models of weight_m x credit_m(tp), where
    units is the conversion's unit count (1 for ordinary conversions), so
    campaign-level sums of MTA credits reconcile exactly with the
    calibration model's campaign predictions. A model named in the
    calibration weights but missing here, or a touchpoint whose group has no
    fitted weights, contributes zero credit (with a warning); credit vectors
    that disagree on the touchpoint set raise :class:`DataIntegrityError`.
    """
    out = _score_journey(model, credits_by_model, journey)
    _warn_zero_credit(model, credits_by_model.keys(), [journey])
    return out


def score_all(
    model: CalibrationModel,
    attributable: Sequence[Journey],
    credits_by_model: Mapping[str, Sequence[CreditVector]],
) -> list[MtaCredit]:
    """MTA credits for every attributable conversion, as
    :func:`score_touchpoints` gives them, with one warning line per cause of
    zero credit for the whole batch."""
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
    journey_tp_ids = {tp.touchpoint_id for tp in journey.touchpoints}

    vectors: dict[str, dict[str, float]] = {}
    for name, vector in credits_by_model.items():
        if vector.conversion_id != conversion_id:
            raise DataIntegrityError(
                f"credit vector for model {name!r} belongs to conversion "
                f"{vector.conversion_id!r}, not {conversion_id!r}"
            )
        if vector.touchpoint_ids() != journey_tp_ids:
            raise DataIntegrityError(
                f"model {name!r} credits disagree with the journey's touchpoint set "
                f"for conversion {conversion_id!r}"
            )
        vectors[name] = vector.as_dict()

    units = journey.conversion.units
    out: list[MtaCredit] = []
    for tp in sorted(journey.touchpoints, key=lambda t: (t.timestamp, t.touchpoint_id)):
        weights = model.group_weights(tp.channel)
        combined = units * sum(
            weight * vectors.get(name, {}).get(tp.touchpoint_id, 0.0)
            for name, weight in weights.items()
        )
        out.append(
            MtaCredit(
                conversion_id=conversion_id,
                touchpoint_id=tp.touchpoint_id,
                campaign_id=tp.campaign_id,
                channel=tp.channel,
                ad_product=tp.ad_product,
                credit=combined,
            )
        )
    return out


def per_conversion_total(credits: Iterable[MtaCredit]) -> float:
    """Sum of MTA credits; equals the sum of calibration weights whenever
    every model's credit vector sums to 1."""
    return sum(c.credit for c in credits)


def aggregate_shares(
    credits: Sequence[MtaCredit],
    dimension: str = "channel",
    unattributed_conversions: int = 0,
) -> AttributionShareReport:
    """Total and normalize credits by the requested reporting dimension."""
    if dimension not in DIMENSIONS:
        raise ValueError(f"unknown report dimension {dimension!r}")
    totals: dict[str, float] = {}
    for credit in credits:
        value = credit.dimension_value(dimension)
        totals[value] = totals.get(value, 0.0) + credit.credit
    grand_total = sum(totals.values())
    zero_total = grand_total <= 0.0
    rows = tuple(
        sorted(
            (
                ShareRow(value, total, 0.0 if zero_total else total / grand_total)
                for value, total in totals.items()
            ),
            key=lambda r: (-r.share, r.value),
        )
    )
    return AttributionShareReport(
        dimension=dimension,
        rows=rows,
        unattributed_conversions=unattributed_conversions,
        zero_total=zero_total,
    )


def shares_from_totals(
    totals: Mapping[str, float], dimension: str = "channel", unattributed: int = 0
) -> AttributionShareReport:
    """Build a report directly from per-dimension credit totals."""
    credits = [
        MtaCredit(
            conversion_id="",
            touchpoint_id="",
            campaign_id=value if dimension == "campaign" else "",
            channel=value if dimension == "channel" else "",
            ad_product=value if dimension == "ad_product" else "",
            credit=total,
        )
        for value, total in totals.items()
    ]
    return aggregate_shares(credits, dimension, unattributed)


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
