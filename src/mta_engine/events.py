"""Event-history data model: touchpoints, conversions, journeys.

Input records arrive as JSONL or CSV event logs (see ``TOUCHPOINT_FIELDS``
and ``CONVERSION_FIELDS`` for the wire schemas). Touchpoints are read into
a columnar :class:`TouchpointTable`, the one form every later layer takes,
and conversions into a list of :class:`ConversionEvent`, the list
``write_conversions`` writes back as JSONL. ``build_journeys`` sorts a
table once and assembles per-customer :class:`Journeys`, applying the
lookback window to each conversion. Touchpoint and journey objects are
built from the columns on access, never the other way round.
"""

from __future__ import annotations

import csv
import json
import logging
import operator
import re
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from enum import Enum
from itertools import chain, count, islice, repeat
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .config import LookbackWindow
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
    """The outcome event being credited, counted in units (default 1): an
    ``int``, not a ``bool``, and >= 0, as an event log can carry them."""

    conversion_id: str
    customer_id: str
    timestamp: datetime
    units: int = 1

    def __post_init__(self) -> None:
        if isinstance(self.units, bool) or not isinstance(self.units, int):
            shown = json.dumps(self.units, default=repr)
            raise ValueError(f"units must be an integer, got {shown}")
        if self.units < 0:
            raise ValueError(f"units must be >= 0, got {self.units}")


_TIME_ORDER = operator.attrgetter("timestamp", "touchpoint_id")


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


def parse_timestamp(raw: str) -> datetime:
    """Parse an RFC 3339 timestamp into an aware UTC datetime."""
    text = raw.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    ts = datetime.fromisoformat(text)
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


_UNIX_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)
_KINDS = (InteractionKind.VIEW, InteractionKind.CLICK)


def _utc_iso(ts: datetime) -> str:
    """``ts`` in UTC as ISO text with microseconds, the form numpy parses
    exactly; a naive time is taken as UTC, as ``parse_timestamp`` does."""
    if ts.tzinfo is not None:
        ts = ts.astimezone(timezone.utc).replace(tzinfo=None)
    return ts.isoformat(timespec="microseconds")


def _micros(stamps: Iterable[datetime]) -> np.ndarray:
    """Microseconds since the Unix epoch of each time, as int64; a naive
    time is taken as UTC."""
    return np.fromiter(
        (
            ((ts if ts.tzinfo is not None else ts.replace(tzinfo=timezone.utc)) - _UNIX_EPOCH)
            // _MICROSECOND
            for ts in stamps
        ),
        np.int64,
    )


def _datetime(us: int) -> datetime:
    return _UNIX_EPOCH + timedelta(microseconds=us)


def label_codes(values: Sequence[str]) -> tuple[np.ndarray, list[str]]:
    """Each value's code in the sorted vocabulary of ``values``, and that
    vocabulary. Codes therefore order like the strings they stand for."""
    vocabulary = sorted(dict.fromkeys(values))
    code = {value: i for i, value in enumerate(vocabulary)}
    return np.fromiter(map(code.__getitem__, values), np.intp, len(values)), vocabulary


class _Rows(Sequence):
    """A read-only sequence whose items are built on access by
    ``take(rows)``, the items at an integer array of rows: indexing, slicing
    and iterating all go through it. A negative index counts from the end,
    one out of range raises IndexError and one that is no integer TypeError."""

    __slots__ = ()

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.take(np.arange(len(self))[index])
        return self.take(np.array([operator.index(index)]))[0]

    def __iter__(self) -> Iterator:
        return iter(self.take(np.arange(len(self))))


class PackedStrings(_Rows):
    """A read-only sequence of strings held as one ``str``: string ``i`` is
    ``text[ends[i - 1]:ends[i]]`` (from 0 for the first). A table of a
    million ids then holds two objects, not a million. Indexing, slicing and
    iterating build the strings afresh."""

    __slots__ = ("text", "ends")

    def __init__(self, text: str, ends: np.ndarray) -> None:
        self.text = text
        self.ends = ends

    @classmethod
    def join(cls, pieces: Iterable[str], lengths: Iterable[np.ndarray]) -> PackedStrings:
        """The text of ``pieces`` cut into strings whose lengths are the
        int64 ``lengths`` arrays, taken in order."""
        return cls("".join(pieces), np.cumsum(np.concatenate([np.empty(0, np.int64), *lengths])))

    def __len__(self) -> int:
        return len(self.ends)

    def __iter__(self) -> Iterator[str]:
        ends = self.ends.tolist()
        return map(self.text.__getitem__, map(slice, chain((0,), ends), ends))

    def take(self, rows: np.ndarray) -> list[str]:
        """The strings at the integer ``rows``, which count from the end when
        negative; a row out of range raises IndexError."""
        ends = self.ends[rows]
        rows = np.where(rows < 0, rows + len(self), rows)
        starts = np.where(rows > 0, self.ends[rows - 1], 0)
        return list(map(self.text.__getitem__, map(slice, starts.tolist(), ends.tolist())))


@dataclass(frozen=True, eq=False)
class TouchpointTable(_Rows):
    """Touchpoints as columns, in input order.

    Row ``r`` is touchpoint ``touchpoint_id[r]`` of customer
    ``customers[customer[r]]``, and likewise for the campaign, channel and
    ad_product codes; each vocabulary is sorted, so codes order like their
    strings. ``ts_us`` holds microseconds since the Unix epoch (UTC).
    Indexing or iterating builds :class:`Touchpoint` objects afresh.
    """

    touchpoint_id: PackedStrings
    customer: np.ndarray
    campaign: np.ndarray
    channel: np.ndarray
    ad_product: np.ndarray
    is_click: np.ndarray
    ts_us: np.ndarray
    customers: list[str]
    campaigns: list[str]
    channels: list[str]
    ad_products: list[str]

    def __len__(self) -> int:
        return len(self.touchpoint_id)

    def take(self, rows: np.ndarray) -> list[Touchpoint]:
        """The touchpoints of the given rows, as new objects."""
        return list(
            map(
                Touchpoint,
                self.touchpoint_id.take(rows),
                map(self.customers.__getitem__, self.customer[rows].tolist()),
                map(self.campaigns.__getitem__, self.campaign[rows].tolist()),
                map(self.channels.__getitem__, self.channel[rows].tolist()),
                map(self.ad_products.__getitem__, self.ad_product[rows].tolist()),
                map(_KINDS.__getitem__, self.is_click[rows].tolist()),
                map(_datetime, self.ts_us[rows].tolist()),
            )
        )


# Rows per batch while a table is read: each batch's ids are packed, its
# label strings deduplicated and its stamps parsed before the next is read.
# A batch's lines, matches and row tuples are all alive at once. With 4096
# rows that was about 4 MB, and the cyclic collector ran 1,101 times (0.26 s)
# while 371k touchpoints were read; with 512 rows it runs 3 times.
_BATCH_ROWS = 512


class _TableBuilder:
    """Collects touchpoint rows ``(touchpoint_id, customer_id, campaign_id,
    channel, ad_product, interaction_kind, stamp)`` of strings, where the
    stamp is ISO text numpy parses (``YYYY-MM-DDTHH:MM:SS.f``, UTC), a batch
    at a time, and encodes them into a :class:`TouchpointTable`."""

    def __init__(self) -> None:
        self.ids: list[str] = []  # each batch's ids, joined
        self.id_lengths: list[np.ndarray] = []
        self.labels: tuple[list[str], ...] = ([], [], [], [])
        self.canonical: tuple[dict[str, str], ...] = ({}, {}, {}, {})
        self.clicks: list[bool] = []
        self.stamps: list[np.ndarray] = []

    def add(self, rows: list[tuple[str, ...]]) -> None:
        if not rows:
            return
        ids, *labels, kinds, stamps = zip(*rows)
        self.ids.append("".join(ids))
        self.id_lengths.append(np.fromiter(map(len, ids), np.int64, len(ids)))
        # One string object per distinct label, not one per row.
        for column, canonical, values in zip(self.labels, self.canonical, labels):
            column.extend(map(canonical.setdefault, values, values))
        self.clicks.extend(map(InteractionKind.CLICK.value.__eq__, kinds))
        self.stamps.append(np.array(stamps, dtype="datetime64[us]"))

    def build(self) -> TouchpointTable:
        coded = [label_codes(column) for column in self.labels]
        stamps = np.concatenate(self.stamps) if self.stamps else np.empty(0, "datetime64[us]")
        return TouchpointTable(
            PackedStrings.join(self.ids, self.id_lengths),
            *(codes for codes, _ in coded),
            np.array(self.clicks, dtype=bool),
            stamps.view(np.int64),
            *(vocabulary for _, vocabulary in coded),
        )


@dataclass
class ParseResult:
    """Parsed event records plus per-line diagnostics for skipped input."""

    touchpoints: TouchpointTable = field(default_factory=lambda: _TableBuilder().build())
    conversions: list[ConversionEvent] = field(default_factory=list)
    skipped: int = 0
    diagnostics: list[str] = field(default_factory=list)

    def _skip(self, line_no: int, reason: str) -> None:
        self.skipped += 1
        self.diagnostics.append(f"line {line_no}: {reason}")


def _text(record: dict, field: str) -> str:
    """A record's field as text; a JSON array, object or boolean is none."""
    value = record[field]
    if isinstance(value, (bool, dict, list)):
        raise ValueError(f"{field} must be a string or number, got {json.dumps(value)}")
    return str(value)


def _touchpoint_row(record: dict) -> tuple[str, ...]:
    """A touchpoint record's table row; raises ValueError naming what is wrong."""
    missing = [f for f in TOUCHPOINT_FIELDS if record.get(f) in (None, "")]
    if missing:
        raise ValueError(f"missing field(s) {', '.join(missing)}")
    kind_raw = _text(record, "interaction_kind")
    try:
        kind = InteractionKind(kind_raw)
    except ValueError:
        raise ValueError(f"unknown interaction_kind {kind_raw!r}") from None
    return (
        *(_text(record, f) for f in TOUCHPOINT_FIELDS[:5]),
        kind.value,
        _utc_iso(parse_timestamp(_text(record, "timestamp"))),
    )


def _conversion_from_record(record: dict) -> ConversionEvent:
    """A conversion record's event; raises ValueError naming what is wrong.
    Text ``units`` that spell an integer are read as one; ``ConversionEvent``
    refuses any other value that is no integer >= 0."""
    missing = [f for f in ("conversion_id", "customer_id", "timestamp") if record.get(f) in (None, "")]
    if missing:
        raise ValueError(f"missing field(s) {', '.join(missing)}")
    units = record.get("units")
    if units in (None, ""):
        units = 1
    elif isinstance(units, str) and units.strip().lstrip("+-").isdecimal():
        units = int(units)
    return ConversionEvent(
        conversion_id=_text(record, "conversion_id"),
        customer_id=_text(record, "customer_id"),
        timestamp=parse_timestamp(_text(record, "timestamp")),
        units=units,
    )


def write_conversions(fh: IO[str], conversions: Sequence[ConversionEvent]) -> None:
    """Write one JSONL line per conversion: ``json.dumps`` of its
    ``CONVERSION_FIELDS`` record, the stamp in UTC to the millisecond. A
    stamp with a finer part raises ValueError rather than being truncated."""
    us = _micros(conv.timestamp for conv in conversions)
    finer = np.flatnonzero(us % 1000)
    if len(finer):
        conv = conversions[finer[0]]
        raise ValueError(
            f"conversion {conv.conversion_id!r}: timestamp {conv.timestamp.isoformat()} "
            "is finer than a millisecond"
        )
    stamps = np.datetime_as_string(us.view("datetime64[us]"), unit="ms").tolist()
    dumps = json.dumps
    fh.write(
        "".join(
            f'{{"conversion_id": {dumps(conv.conversion_id)}, '
            f'"customer_id": {dumps(conv.customer_id)}, '
            f'"timestamp": "{stamp}Z", "units": {conv.units:d}}}\n'
            for conv, stamp in zip(conversions, stamps)
        )
    )


def _iter_lines(stream: Iterable[str] | IO[str]) -> Iterator[str]:
    for line in stream:
        yield line.rstrip("\r\n")


# The line the simulator writes for a touchpoint (``rct._touchpoint_source``),
# with the stamp's trailing ``Z`` left out of its group. A string group admits
# no quote, backslash or control character, so its text is the JSON value
# itself. The stamp pattern admits only dates fromisoformat and numpy both
# read, and the same instant: year 0000 and February 29 take the JSON path.
_LABEL = r'"([^"\\\x00-\x1f]+)"'
_STAMP = (
    r"(?!0000)[0-9]{4}-"
    r"(?:(?:0[13578]|1[02])-(?:0[1-9]|[12][0-9]|3[01])"
    r"|(?:0[469]|11)-(?:0[1-9]|[12][0-9]|30)"
    r"|02-(?:0[1-9]|1[0-9]|2[0-8]))"
    r"T(?:[01][0-9]|2[0-3]):[0-5][0-9]:[0-5][0-9]\.[0-9]{3}"
)
_CANONICAL_TOUCHPOINT = re.compile(
    r"\{"
    + ", ".join(f'"{name}": {_LABEL}' for name in TOUCHPOINT_FIELDS[:5])
    + f', "interaction_kind": "(view|click)", "timestamp": "({_STAMP})Z"'
    + r"\}[\r\n]*"
)


def _parse_json_line(line_no: int, line: str, result: ParseResult, rows: list) -> None:
    """Decode and validate one JSONL line: a touchpoint becomes a row of
    ``rows``, a conversion an event of ``result``; anything else is skipped."""
    if not line.strip():
        return
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        result._skip(line_no, f"invalid JSON ({exc.msg})")
        return
    if not isinstance(record, dict):
        result._skip(line_no, "record is not an object")
        return
    try:
        if "touchpoint_id" in record:
            rows.append(_touchpoint_row(record))
        elif "conversion_id" in record:
            result.conversions.append(_conversion_from_record(record))
        else:
            result._skip(line_no, "record has neither touchpoint_id nor conversion_id")
    except (ValueError, TypeError) as exc:
        result._skip(line_no, str(exc))


def _parse_jsonl(stream: Iterable[str], result: ParseResult, table: _TableBuilder) -> None:
    match = _CANONICAL_TOUCHPOINT.fullmatch
    lines = iter(stream)
    line_no = 0
    while batch := list(islice(lines, _BATCH_ROWS)):
        found = list(map(match, batch))
        if None in found:
            rows: list[tuple[str, ...]] = []
            for line_no, line, canonical in zip(count(line_no + 1), batch, found):
                if canonical is not None:
                    rows.append(canonical.groups())
                else:
                    _parse_json_line(line_no, line.rstrip("\r\n"), result, rows)
        else:
            rows = list(map(re.Match.groups, found))
            line_no += len(batch)
        table.add(rows)


def _parse_csv(lines: Iterator[str], result: ParseResult, table: _TableBuilder) -> None:
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        return  # empty stream
    header = tuple(h.strip() for h in header)
    rows: list[tuple[str, ...]] = []
    if header == TOUCHPOINT_FIELDS:
        build, sink = _touchpoint_row, rows
    elif header == CONVERSION_FIELDS:
        build, sink = _conversion_from_record, result.conversions
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
        if len(rows) == _BATCH_ROWS:
            table.add(rows)
            rows.clear()
    table.add(rows)


def parse_event_log(stream: Iterable[str] | IO[str], format: str = "jsonl") -> ParseResult:
    """Parse a line-delimited event log into a touchpoint table and conversions.

    JSONL streams may mix touchpoint and conversion records; the record kind
    is inferred from the presence of ``touchpoint_id`` vs ``conversion_id``.
    A line in exactly the simulator's touchpoint format is read by one
    pattern match; any other line is decoded with ``json.loads`` and
    validated, which gives the same row. CSV streams hold one record kind,
    declared by the header row. Malformed records are skipped with a
    per-line diagnostic; an undecodable stream (e.g. a CSV header matching
    neither schema) raises :class:`ParseError`.
    """
    result = ParseResult()
    table = _TableBuilder()
    if format == "jsonl":
        _parse_jsonl(stream, result, table)
    elif format == "csv":
        _parse_csv(_iter_lines(stream), result, table)
    else:
        raise ParseError(f"unknown event log format {format!r}")
    result.touchpoints = table.build()
    if result.skipped:
        logger.warning("skipped %d malformed line(s) while parsing", result.skipped)
    return result


def _reject_duplicate_ids(ids: Sequence[str], field: str) -> None:
    # Only the ids whose hash repeats are compared as strings, so a packed
    # column is not unpacked into a set of every id.
    hashes = np.fromiter(map(hash, ids), np.int64, len(ids))
    hashes.sort()
    repeated = set(hashes[1:][hashes[1:] == hashes[:-1]].tolist())
    if not repeated:
        return
    suspects = Counter(value for value in ids if hash(value) in repeated)
    duplicates = sorted(value for value, n in suspects.items() if n > 1)
    if not duplicates:
        return
    raise DataIntegrityError(
        f"{len(duplicates)} {field} value(s) occur more than once in the input, "
        f"e.g. {duplicates[0]!r}"
    )


class Journeys(_Rows):
    """Journeys over one touchpoint table, built as objects only on access.

    Journey ``i`` belongs to ``customer_ids[i]``, ends in ``conversions[i]``
    (None for a non-converting journey; ``conversion_us[i]`` is its time) and
    holds the table rows ``rows[start[i]:stop[i]]``, which are in timestamp
    order. The windows of one customer's conversions may share rows.
    """

    def __init__(
        self,
        table: TouchpointTable,
        rows: np.ndarray,
        start: np.ndarray,
        stop: np.ndarray,
        customer_ids: list[str],
        conversions: list[ConversionEvent | None],
        conversion_us: np.ndarray,
    ) -> None:
        self.table = table
        self.rows = rows
        self.start = start
        self.stop = stop
        self.customer_ids = customer_ids
        self.conversions = conversions
        self.conversion_us = conversion_us
        self.converted = np.array([c is not None for c in conversions], dtype=bool)

    def __len__(self) -> int:
        return len(self.conversions)

    def select(self, indices: np.ndarray) -> Journeys:
        """The journeys at ``indices``, still as a table."""
        return Journeys(
            self.table, self.rows, self.start[indices], self.stop[indices],
            [self.customer_ids[i] for i in indices.tolist()],
            [self.conversions[i] for i in indices.tolist()],
            self.conversion_us[indices],
        )

    def take(self, indices: np.ndarray) -> list[Journey]:
        """The journeys at ``indices`` as objects, their touchpoints built in
        one pass."""
        start, stop = self.start[indices], self.stop[indices]
        lengths = stop - start
        ends = np.cumsum(lengths)
        offsets = np.repeat(start - ends + lengths, lengths)
        positions = np.arange(len(offsets)) + offsets
        touchpoints = self.table.take(self.rows[positions])
        return [
            Journey(self.customer_ids[i], tuple(touchpoints[end - n:end]), self.conversions[i])
            for i, end, n in zip(indices.tolist(), ends.tolist(), lengths.tolist())
        ]


# A lookback longer than this reaches past every representable time.
_MAX_LOOKBACK_US = 2**62


def build_journeys(
    table: TouchpointTable,
    conversions: Iterable[ConversionEvent],
    window: LookbackWindow = LookbackWindow(),
) -> Journeys:
    """Assemble one journey per conversion, plus one per non-converting customer.

    Each conversion yields a journey holding exactly the customer's
    touchpoints inside the lookback window (possibly none). Customers with
    touchpoints but no conversion yield a single conversion-absent journey
    carrying all their touchpoints. Output order is deterministic: sorted by
    customer_id, then conversion timestamp, ties by conversion_id.

    The table's rows are sorted once, and no :class:`Touchpoint` is built.
    The result is a read-only sequence whose journeys are built on access.

    A ``touchpoint_id`` or ``conversion_id`` that occurs twice in the input
    raises :class:`DataIntegrityError`: ids are how credits are reported, and
    a repeated one would make two records indistinguishable downstream.
    """
    conversions = list(conversions)
    _reject_duplicate_ids(table.touchpoint_id, "touchpoint_id")
    _reject_duplicate_ids([conv.conversion_id for conv in conversions], "conversion_id")

    # Customer codes over the table's customers and the converters without
    # touchpoints; the sort merges two sorted runs.
    extra = sorted({c.customer_id for c in conversions}.difference(table.customers))
    customer_ids = sorted(table.customers + extra)
    is_extra = np.zeros(len(customer_ids), dtype=bool)
    is_extra[[bisect_left(customer_ids, cid) for cid in extra]] = True
    tp_customer = np.flatnonzero(~is_extra)[table.customer]
    # Rows that tie on both keys stay in input order; a journey object sorts
    # its touchpoints by (timestamp, touchpoint_id) when it is built.
    rows = np.lexsort((table.ts_us, tp_customer))
    customer, ts = tp_customer[rows], table.ts_us[rows]

    conv_customer = np.array(
        [bisect_left(customer_ids, c.customer_id) for c in conversions], dtype=np.intp
    )
    conv_us = _micros(c.timestamp for c in conversions)
    keys = zip(conv_customer.tolist(), conv_us.tolist(), (c.conversion_id for c in conversions))
    by_time = np.array(sorted(range(len(conversions)), key=list(keys).__getitem__), dtype=np.intp)
    conv_customer, conv_us = conv_customer[by_time], conv_us[by_time]

    # Each conversion's window is the rows of its customer's run, which is
    # sorted by ts, with conv - lookback < ts <= conv: half-open on the old
    # side, so a touchpoint exactly one lookback old earns no credit.
    lookback = min(window.duration // _MICROSECOND, _MAX_LOOKBACK_US)
    run_start = np.searchsorted(customer, conv_customer).tolist()
    run_stop = np.searchsorted(customer, conv_customer, side="right").tolist()
    stamps = ts.tolist()

    def rows_up_to(us: np.ndarray) -> np.ndarray:
        bounds = map(bisect_right, repeat(stamps), us.tolist(), run_start, run_stop)
        return np.fromiter(bounds, np.intp, len(us))

    # Customers with touchpoints and no conversion: one journey each.
    touched_only = np.zeros(len(customer_ids), dtype=bool)
    touched_only[customer] = True
    touched_only[conv_customer] = False
    quiet = np.flatnonzero(touched_only)
    journey_customer = np.concatenate([conv_customer, quiet])
    order = np.argsort(journey_customer, kind="stable")
    start = np.concatenate([rows_up_to(conv_us - lookback), np.searchsorted(customer, quiet)])
    stop = np.concatenate([rows_up_to(conv_us), np.searchsorted(customer, quiet, side="right")])
    journey_conversions = [conversions[i] for i in by_time.tolist()] + [None] * len(quiet)
    return Journeys(
        table,
        rows,
        start[order],
        stop[order],
        [customer_ids[c] for c in journey_customer[order].tolist()],
        [journey_conversions[i] for i in order.tolist()],
        np.concatenate([conv_us, np.zeros(len(quiet), np.int64)])[order],
    )
