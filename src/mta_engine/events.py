"""Event-history data model: touchpoints, conversions, journeys.

Input records arrive as JSONL or CSV event logs (see ``TOUCHPOINT_FIELDS``
and ``CONVERSION_FIELDS`` for the wire schemas). ``build_journeys``
assembles per-customer journeys, applying the lookback window to each
conversion.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from enum import Enum
from itertools import islice
from operator import attrgetter
from typing import IO, Iterable, Iterator

from .errors import DataIntegrityError, ParseError

logger = logging.getLogger(__name__)

TOUCHPOINT_FIELDS = (
    "touchpoint_id",
    "customer_id",
    "campaign_id",
    "channel",
    "ad_product",
    "interaction_kind",
    "timestamp",
)
CONVERSION_FIELDS = ("conversion_id", "customer_id", "timestamp", "units")


class InteractionKind(str, Enum):
    VIEW = "view"
    CLICK = "click"


@dataclass(frozen=True, slots=True)
class Touchpoint:
    """One ad interaction (view or click) attributable to a campaign."""

    touchpoint_id: str
    customer_id: str
    campaign_id: str
    channel: str
    ad_product: str
    interaction_kind: InteractionKind
    timestamp: datetime


@dataclass(frozen=True, slots=True)
class ConversionEvent:
    """The outcome event being credited, counted in units (default 1)."""

    conversion_id: str
    customer_id: str
    timestamp: datetime
    units: int = 1

    def __post_init__(self) -> None:
        if self.units < 0:
            raise ValueError(f"conversion units must be >= 0, got {self.units}")


_TIME_ORDER = attrgetter("timestamp", "touchpoint_id")


@dataclass(frozen=True, slots=True)
class Journey:
    """A customer's time-ordered touchpoints, optionally ending in a conversion.

    The touchpoints are sorted by (timestamp, touchpoint_id) when the journey
    is built, whatever order they are given in. For converting journeys they
    are exactly those inside the lookback window of the conversion;
    non-converting journeys carry all of the customer's touchpoints and serve
    as negative examples for MDA training.
    """

    customer_id: str
    touchpoints: tuple[Touchpoint, ...]
    conversion: ConversionEvent | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "touchpoints", tuple(sorted(self.touchpoints, key=_TIME_ORDER)))

    @property
    def converted(self) -> bool:
        return self.conversion is not None


@dataclass(frozen=True, slots=True)
class LookbackWindow:
    """Maximum age of a touchpoint, relative to the conversion, to earn credit."""

    duration: timedelta = timedelta(days=7)

    def __post_init__(self) -> None:
        if self.duration <= timedelta(0):
            raise ValueError(f"lookback duration must be positive, got {self.duration}")

    def contains(self, touchpoint_ts: datetime, conversion_ts: datetime) -> bool:
        # Half-open on the old side: a touchpoint exactly `duration` before the
        # conversion is excluded, one at the conversion instant is included.
        return conversion_ts - self.duration < touchpoint_ts <= conversion_ts


def parse_timestamp(raw: str) -> datetime:
    """Parse an RFC 3339 timestamp into an aware UTC datetime."""
    text = raw.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    ts = datetime.fromisoformat(text)
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


def format_timestamp(ts: datetime) -> str:
    """Render a UTC timestamp as RFC 3339 with millisecond precision."""
    ts = ts.astimezone(timezone.utc)
    return ts.strftime("%Y-%m-%dT%H:%M:%S.") + f"{ts.microsecond // 1000:03d}Z"


@dataclass
class ParseResult:
    """Parsed event records plus per-line diagnostics for skipped input."""

    touchpoints: list[Touchpoint] = field(default_factory=list)
    conversions: list[ConversionEvent] = field(default_factory=list)
    skipped: int = 0
    diagnostics: list[str] = field(default_factory=list)

    def _skip(self, line_no: int, reason: str) -> None:
        self.skipped += 1
        self.diagnostics.append(f"line {line_no}: {reason}")


def _touchpoint_from_record(record: dict) -> Touchpoint:
    missing = [f for f in TOUCHPOINT_FIELDS if record.get(f) in (None, "")]
    if missing:
        raise ValueError(f"missing field(s) {', '.join(missing)}")
    kind_raw = str(record["interaction_kind"])
    try:
        kind = InteractionKind(kind_raw)
    except ValueError:
        raise ValueError(f"unknown interaction_kind {kind_raw!r}") from None
    return Touchpoint(
        touchpoint_id=str(record["touchpoint_id"]),
        customer_id=str(record["customer_id"]),
        campaign_id=str(record["campaign_id"]),
        channel=str(record["channel"]),
        ad_product=str(record["ad_product"]),
        interaction_kind=kind,
        timestamp=parse_timestamp(str(record["timestamp"])),
    )


def _conversion_from_record(record: dict) -> ConversionEvent:
    missing = [f for f in ("conversion_id", "customer_id", "timestamp") if record.get(f) in (None, "")]
    if missing:
        raise ValueError(f"missing field(s) {', '.join(missing)}")
    units_raw = record.get("units")
    if units_raw in (None, ""):
        units = 1
    else:
        units = int(units_raw)
        if units < 0:
            raise ValueError(f"units must be >= 0, got {units}")
    return ConversionEvent(
        conversion_id=str(record["conversion_id"]),
        customer_id=str(record["customer_id"]),
        timestamp=parse_timestamp(str(record["timestamp"])),
        units=units,
    )


def _iter_lines(stream: Iterable[str] | IO[str]) -> Iterator[str]:
    for line in stream:
        yield line.rstrip("\r\n")


def _parse_jsonl(lines: Iterator[str], result: ParseResult) -> None:
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            result._skip(line_no, f"invalid JSON ({exc.msg})")
            continue
        if not isinstance(record, dict):
            result._skip(line_no, "record is not an object")
            continue
        try:
            if "touchpoint_id" in record:
                result.touchpoints.append(_touchpoint_from_record(record))
            elif "conversion_id" in record:
                result.conversions.append(_conversion_from_record(record))
            else:
                result._skip(line_no, "record has neither touchpoint_id nor conversion_id")
        except (ValueError, TypeError) as exc:
            result._skip(line_no, str(exc))


def _parse_csv(lines: Iterator[str], result: ParseResult) -> None:
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        return  # empty stream
    header = tuple(h.strip() for h in header)
    if header == TOUCHPOINT_FIELDS:
        build = _touchpoint_from_record
        sink: list = result.touchpoints
    elif header == CONVERSION_FIELDS:
        build = _conversion_from_record
        sink = result.conversions
    else:
        raise ParseError(
            f"CSV header {header!r} matches neither the touchpoint nor the conversion schema"
        )
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            result._skip(line_no, f"expected {len(header)} columns, got {len(row)}")
            continue
        try:
            sink.append(build(dict(zip(header, row))))
        except (ValueError, TypeError) as exc:
            result._skip(line_no, str(exc))


def parse_event_log(stream: Iterable[str] | IO[str], format: str = "jsonl") -> ParseResult:
    """Parse a line-delimited event log into touchpoints and conversions.

    JSONL streams may mix touchpoint and conversion records; the record kind
    is inferred from the presence of ``touchpoint_id`` vs ``conversion_id``.
    CSV streams hold one record kind, declared by the header row. Malformed
    records are skipped with a per-line diagnostic; an undecodable stream
    (e.g. a CSV header matching neither schema) raises :class:`ParseError`.
    """
    result = ParseResult()
    lines = _iter_lines(stream)
    if format == "jsonl":
        _parse_jsonl(lines, result)
    elif format == "csv":
        _parse_csv(lines, result)
    else:
        raise ParseError(f"unknown event log format {format!r}")
    if result.skipped:
        logger.warning("skipped %d malformed line(s) while parsing", result.skipped)
    return result


def touchpoint_to_record(tp: Touchpoint) -> dict:
    return {
        "touchpoint_id": tp.touchpoint_id,
        "customer_id": tp.customer_id,
        "campaign_id": tp.campaign_id,
        "channel": tp.channel,
        "ad_product": tp.ad_product,
        "interaction_kind": tp.interaction_kind.value,
        "timestamp": format_timestamp(tp.timestamp),
    }


def conversion_to_record(conv: ConversionEvent) -> dict:
    return {
        "conversion_id": conv.conversion_id,
        "customer_id": conv.customer_id,
        "timestamp": format_timestamp(conv.timestamp),
        "units": conv.units,
    }


def _reject_duplicate_ids(ids: list[str], field: str) -> None:
    # Sorted in place rather than put in a set: freeing a set table this big
    # raises glibc's mmap threshold, and with it the stage's peak RSS.
    ids.sort()
    if any(map(str.__eq__, ids, islice(ids, 1, None))):
        duplicates = sorted({a for a, b in zip(ids, islice(ids, 1, None)) if a == b})
        raise DataIntegrityError(
            f"{len(duplicates)} {field} value(s) occur more than once in the input, "
            f"e.g. {duplicates[0]!r}"
        )


def build_journeys(
    touchpoints: Iterable[Touchpoint],
    conversions: Iterable[ConversionEvent],
    window: LookbackWindow = LookbackWindow(),
) -> list[Journey]:
    """Assemble one journey per conversion, plus one per non-converting customer.

    Each conversion yields a journey holding exactly the customer's
    touchpoints inside the lookback window (possibly none). Customers with
    touchpoints but no conversion yield a single conversion-absent journey
    carrying all their touchpoints. Output order is deterministic: sorted by
    customer_id, then conversion timestamp, ties by conversion_id.

    A ``touchpoint_id`` or ``conversion_id`` that occurs twice in the input
    raises :class:`DataIntegrityError`: ids are how credits are reported, and
    a repeated one would make two records indistinguishable downstream.
    """
    touchpoints = list(touchpoints)
    conversions = list(conversions)
    _reject_duplicate_ids([tp.touchpoint_id for tp in touchpoints], "touchpoint_id")
    _reject_duplicate_ids([conv.conversion_id for conv in conversions], "conversion_id")
    by_customer: dict[str, list[Touchpoint]] = {}
    for tp in touchpoints:
        by_customer.setdefault(tp.customer_id, []).append(tp)

    conv_customers: set[str] = set()
    journeys: list[Journey] = []
    for conv in sorted(conversions, key=lambda c: (c.customer_id, c.timestamp, c.conversion_id)):
        conv_customers.add(conv.customer_id)
        eligible = [
            tp
            for tp in by_customer.get(conv.customer_id, ())
            if window.contains(tp.timestamp, conv.timestamp)
        ]
        journeys.append(Journey(conv.customer_id, eligible, conv))

    for customer_id in sorted(by_customer):
        if customer_id not in conv_customers:
            journeys.append(Journey(customer_id, by_customer[customer_id], None))

    earliest = datetime.min.replace(tzinfo=timezone.utc)
    journeys.sort(
        key=lambda j: (
            j.customer_id,
            j.conversion.timestamp if j.conversion else earliest,
            j.conversion.conversion_id if j.conversion else "",
        )
    )
    return journeys
