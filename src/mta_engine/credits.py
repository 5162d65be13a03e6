"""Disaggregation of calibration weights into touchpoint-level MTA credits,
and aggregation of those credits into normalized attribution shares."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .attribution import ModelCredits
from .calibration import CalibrationModel
from .events import label_codes

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


@dataclass(frozen=True, eq=False)
class CreditTable(Sequence):
    """Credit rows as columns. Row ``k * len(labels) + i`` is built on access from
    ``labels[i]`` and the k-th column: an MtaCredit, or ``(name, MtaCredit)`` if paired."""

    labels: list[tuple[str, ...]]
    columns: dict[str, np.ndarray]
    paired: bool = True

    def __len__(self) -> int:
        return len(self.labels) * len(self.columns)

    def __getitem__(self, index: int):
        k, i = divmod(range(len(self))[index], len(self.labels))
        name, column = list(self.columns.items())[k]
        row = MtaCredit(*self.labels[i], column.item(i))
        return (name, row) if self.paired else row


def score_all(model: CalibrationModel, table: ModelCredits) -> CreditTable:
    """MTA credits for every touchpoint of the ensemble's table, with one
    warning line per cause of zero credit for the whole batch.

    credit(tp) = units x sum over models of weight_m x credit_m(tp), where
    units is the conversion's unit count (1 for ordinary conversions), so
    campaign-level sums of MTA credits reconcile exactly with the
    calibration model's campaign predictions. A model named in the
    calibration weights but missing from the table, or a touchpoint whose
    group has no fitted weights, contributes zero credit (with a warning).

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
    return CreditTable(table.labels, {"mta": table.units * total}, paired=False)


def model_credit_records(table: ModelCredits) -> CreditTable:
    """Per-model credits scaled by conversion units, a column per model in name
    order, for LTA-only / MDA-only comparisons."""
    columns = {name: table.columns[name] * table.units for name in sorted(table.columns)}
    return CreditTable(table.labels, columns)


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


def _check_dimension(dimension: str) -> None:
    if dimension not in DIMENSION_FIELDS:
        raise ValueError(f"unknown report dimension {dimension!r}")


def credit_totals(
    rows: Iterable,
    dimension: str,
    getter: Callable = attrgetter,
    totals: dict[str, float] | None = None,
) -> dict[str, float]:
    """Sum each row's ``credit`` by reporting dimension, in first-seen order.

    ``getter(field)`` reads a field: ``attrgetter`` for credit objects, a
    column's ``itemgetter`` for CSV rows. Sums accumulate into ``totals`` when given.
    """
    _check_dimension(dimension)
    value_of, credit_of = getter(DIMENSION_FIELDS[dimension]), getter("credit")
    totals = {} if totals is None else totals
    for row in rows:
        value = value_of(row)
        totals[value] = totals.get(value, 0.0) + float(credit_of(row))
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
