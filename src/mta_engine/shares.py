"""Aggregation of touchpoint credits, given as (dimension value, credit)
pairs, into normalized attribution shares, and their text table. A credit
CSV's rows and a credit table's column are read into such pairs; the module
is free of numpy, so ``report`` runs without it."""

from __future__ import annotations

import sys
from dataclasses import dataclass
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Mapping

if TYPE_CHECKING:
    from .attribution import ModelCredits

# Reporting dimension -> the field that carries it in a credit CSV row and a
# credit table's label.
DIMENSION_FIELDS = {"channel": "channel", "ad_product": "ad_product", "campaign": "campaign_id"}
DIMENSIONS = tuple(DIMENSION_FIELDS)
# The field each entry of a credit table's label holds; a credit CSV row is these and the credit.
LABEL_FIELDS = ("conversion_id", "touchpoint_id", "campaign_id", "channel", "ad_product")


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


def _field_of(dimension: str) -> str:
    """The field that carries reporting ``dimension``; ValueError for an unknown one."""
    if dimension not in DIMENSION_FIELDS:
        raise ValueError(f"unknown report dimension {dimension!r}")
    return DIMENSION_FIELDS[dimension]


def credit_totals(
    pairs: Iterable[tuple[str, float | str]], totals: dict[str, float] | None = None
) -> dict[str, float]:
    """Sum the credits of (dimension value, credit) pairs by value, in first-seen order.

    A credit is a float or its CSV text. Sums accumulate into ``totals`` when given.
    A credit that is not a finite number >= 0, or a sum that overflows, raises ValueError.
    """
    totals = {} if totals is None else totals
    for value, credit in pairs:
        credit = float(credit)
        if not 0.0 <= credit <= sys.float_info.max:
            raise ValueError(f"credit {credit!r} for {value!r} is not a finite number >= 0")
        totals[value] = totals.get(value, 0.0) + credit
    # Each sum only grows, so a sum that overflowed at some row is infinite at the end.
    for value, total in totals.items():
        if total > sys.float_info.max:
            raise ValueError(f"the credits for {value!r} total more than the largest float")
    return totals


def aggregate_shares(
    pairs: Iterable[tuple[str, float | str]], dimension: str = "channel", unattributed: int = 0
) -> AttributionShareReport:
    """Total the credits of (dimension value, credit) pairs by value, in
    first-seen order, and normalize the totals into a share report."""
    return shares_from_totals(credit_totals(pairs), dimension, unattributed)


def column_shares(
    table: ModelCredits, name: str, dimension: str = "channel", unattributed: int = 0
) -> AttributionShareReport:
    """Shares of column ``name``'s credits (``scaled(name)``) by reporting
    dimension, totalled as ``report`` totals a credit CSV: in row order, each
    value where it is first seen."""
    values = map(itemgetter(LABEL_FIELDS.index(_field_of(dimension))), table.labels)
    return aggregate_shares(zip(values, table.scaled(name).tolist()), dimension, unattributed)


def shares_from_totals(
    totals: Mapping[str, float], dimension: str = "channel", unattributed: int = 0
) -> AttributionShareReport:
    """Normalize per-dimension credit totals into a share report, largest
    share first. A grand total that is not finite raises ValueError."""
    _field_of(dimension)  # an unknown dimension raises
    grand_total = sum(totals.values())
    if not abs(grand_total) <= sys.float_info.max:
        raise ValueError(f"the credit totals sum to {grand_total!r}, which is not finite")
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
