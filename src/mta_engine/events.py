"""Event-history data model: touchpoints, conversions, journeys.

Input records arrive as JSONL or CSV event logs (see ``TOUCHPOINT_FIELDS``
and ``CONVERSION_FIELDS`` for the wire schemas) and are read into columns:
touchpoints into a :class:`TouchpointTable` and conversions into a
:class:`ConversionTable`, the forms every later layer takes.
``build_journeys`` sorts a touchpoint table once and assembles per-customer
:class:`Journeys`, applying the lookback window to each conversion. Event
and journey objects are built from the columns on access, never the other
way round. ``write_store`` saves journeys and their tables as one ``.npz``
store under a caller's key, and ``read_store`` rebuilds them from it.
"""

from __future__ import annotations

import csv
import json
import logging
import operator
import re
import zipfile
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field, fields
from datetime import datetime, timedelta, timezone
from enum import Enum
from itertools import chain, count, islice, repeat
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping, Sequence

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


def _check_units(units) -> int:
    """``units`` if it is a unit count: an ``int``, not a ``bool``, in
    [0, 2**63), so that an int64 column holds it."""
    if isinstance(units, bool) or not isinstance(units, int):
        raise ValueError(f"units must be an integer, got {json.dumps(units, default=repr)}")
    if units < 0:
        raise ValueError(f"units must be >= 0, got {units}")
    if units >= 2**63:
        raise ValueError(f"units must be < 2**63, got {units}")
    return units


@dataclass(frozen=True, slots=True)
class ConversionEvent:
    """The outcome event being credited, counted in units (default 1) that
    obey ``_check_units`` as an event log's do. A ``ConversionTable`` builds
    its rows as these."""

    conversion_id: str
    customer_id: str
    timestamp: datetime
    units: int = 1

    def __post_init__(self) -> None:
        _check_units(self.units)


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


@dataclass(frozen=True, eq=False)
class ConversionTable(_Rows):
    """Conversions as columns, in input order.

    Row ``r`` is conversion ``conversion_id[r]`` of customer
    ``customers[customer[r]]`` (a sorted vocabulary), at ``ts_us[r]``
    microseconds since the Unix epoch (UTC), counting ``units[r]``.
    Indexing or iterating builds :class:`ConversionEvent` objects afresh.
    """

    conversion_id: list[str]
    customer: np.ndarray
    ts_us: np.ndarray
    units: np.ndarray
    customers: list[str]

    @classmethod
    def from_rows(cls, rows: Sequence[tuple[str, str, int, int]]) -> ConversionTable:
        """The table of ``(conversion_id, customer_id, ts_us, units)`` rows,
        as ``_conversion_row`` makes them."""
        ids, customer_ids, stamps, units = zip(*rows) if rows else ((),) * 4
        customer, customers = label_codes(customer_ids)
        return cls(
            list(ids), customer, np.array(stamps, np.int64), np.array(units, np.int64), customers
        )

    def __len__(self) -> int:
        return len(self.conversion_id)

    def take(self, rows: np.ndarray) -> list[ConversionEvent]:
        """The conversions of the given rows, as new objects."""
        return list(
            map(
                ConversionEvent,
                map(self.conversion_id.__getitem__, rows.tolist()),
                map(self.customers.__getitem__, self.customer[rows].tolist()),
                map(_datetime, self.ts_us[rows].tolist()),
                self.units[rows].tolist(),
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
    conversions: ConversionTable = field(default_factory=lambda: ConversionTable.from_rows([]))
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


def _conversion_row(record: dict) -> tuple[str, str, int, int]:
    """A conversion record's row ``(conversion_id, customer_id, ts_us, units)``;
    raises ValueError naming what is wrong. Text ``units`` that spell an
    integer are read as one, and ``_check_units`` judges the value."""
    missing = [f for f in ("conversion_id", "customer_id", "timestamp") if record.get(f) in (None, "")]
    if missing:
        raise ValueError(f"missing field(s) {', '.join(missing)}")
    units = record.get("units")
    if units in (None, ""):
        units = 1
    elif isinstance(units, str) and units.strip().lstrip("+-").isdecimal():
        units = int(units)
    return (
        _text(record, "conversion_id"),
        _text(record, "customer_id"),
        (parse_timestamp(_text(record, "timestamp")) - _UNIX_EPOCH) // _MICROSECOND,
        _check_units(units),
    )


def write_conversions(fh: IO[str], conversions: ConversionTable) -> None:
    """Write one JSONL line per conversion: ``json.dumps`` of its
    ``CONVERSION_FIELDS`` record, the stamp in UTC to the millisecond. A
    stamp with a finer part raises ValueError rather than being truncated."""
    finer = np.flatnonzero(conversions.ts_us % 1000)
    if len(finer):
        conv = conversions[int(finer[0])]
        raise ValueError(
            f"conversion {conv.conversion_id!r}: timestamp {conv.timestamp.isoformat()} "
            "is finer than a millisecond"
        )
    stamps = np.datetime_as_string(conversions.ts_us.view("datetime64[us]"), unit="ms").tolist()
    customers = map(conversions.customers.__getitem__, conversions.customer.tolist())
    dumps = json.dumps
    fh.write(
        "".join(
            f'{{"conversion_id": {dumps(conversion_id)}, '
            f'"customer_id": {dumps(customer_id)}, '
            f'"timestamp": "{stamp}Z", "units": {units:d}}}\n'
            for conversion_id, customer_id, stamp, units in zip(
                conversions.conversion_id, customers, stamps, conversions.units.tolist()
            )
        )
    )


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


def _parse_json_line(
    line_no: int, line: str, result: ParseResult, rows: list, conversions: list
) -> None:
    """Decode and validate one JSONL line: a touchpoint becomes a row of
    ``rows``, a conversion one of ``conversions``; anything else is skipped."""
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
            conversions.append(_conversion_row(record))
        else:
            result._skip(line_no, "record has neither touchpoint_id nor conversion_id")
    except (ValueError, TypeError) as exc:
        result._skip(line_no, str(exc))


def _parse_jsonl(
    stream: Iterable[str], result: ParseResult, table: _TableBuilder, conversions: list
) -> None:
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
                    _parse_json_line(line_no, line.rstrip("\r\n"), result, rows, conversions)
        else:
            rows = list(map(re.Match.groups, found))
            line_no += len(batch)
        table.add(rows)


def _parse_csv(
    stream: Iterable[str], result: ParseResult, table: _TableBuilder, conversions: list
) -> None:
    # Lines keep their ends, so a quoted field keeps its newline.
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        return  # empty stream
    header = tuple(h.strip() for h in header)
    rows: list[tuple[str, ...]] = []
    if header == TOUCHPOINT_FIELDS:
        build, sink = _touchpoint_row, rows
    elif header == CONVERSION_FIELDS:
        build, sink = _conversion_row, conversions
    else:
        raise ParseError(
            f"CSV header {header!r} matches neither the touchpoint nor the conversion schema"
        )
    for row in reader:
        if not row:
            continue
        if len(row) != len(header):
            result._skip(reader.line_num, f"expected {len(header)} columns, got {len(row)}")
            continue
        try:
            sink.append(build(dict(zip(header, row))))
        except (ValueError, TypeError) as exc:
            result._skip(reader.line_num, str(exc))
        if len(rows) == _BATCH_ROWS:
            table.add(rows)
            rows.clear()
    table.add(rows)


def parse_event_log(stream: Iterable[str] | IO[str], format: str = "jsonl") -> ParseResult:
    """Parse a line-delimited event log into a touchpoint and a conversion table.

    JSONL streams may mix touchpoint and conversion records; the record kind
    is inferred from the presence of ``touchpoint_id`` vs ``conversion_id``.
    A line in exactly the simulator's touchpoint format is read by one
    pattern match; any other line is decoded with ``json.loads`` and
    validated, which gives the same row. CSV streams hold one record kind,
    declared by the header row; a quoted field may span lines, and a record
    is numbered by its last line. Malformed records are skipped with a
    per-line diagnostic; an undecodable stream (e.g. a CSV header matching
    neither schema) raises :class:`ParseError`.
    """
    result = ParseResult()
    table = _TableBuilder()
    conversions: list[tuple[str, str, int, int]] = []
    if format == "jsonl":
        _parse_jsonl(stream, result, table, conversions)
    elif format == "csv":
        _parse_csv(stream, result, table, conversions)
    else:
        raise ParseError(f"unknown event log format {format!r}")
    result.touchpoints = table.build()
    result.conversions = ConversionTable.from_rows(conversions)
    _warn_skipped(result.skipped)
    return result


def _warn_skipped(skipped: int) -> None:
    if skipped:
        logger.warning("skipped %d malformed line(s) while parsing", skipped)


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


@dataclass(frozen=True, eq=False)
class Journeys(_Rows):
    """Journeys over one touchpoint and one conversion table, built as
    objects only on access.

    Journey ``i`` belongs to customer ``customers[customer[i]]`` (a sorted
    vocabulary), ends in row ``conversion[i]`` of ``conversions`` (-1 for a
    non-converting journey) and holds the touchpoint table rows
    ``rows[start[i]:stop[i]]``, which are in timestamp order. The windows of
    one customer's conversions may share rows.
    """

    table: TouchpointTable
    rows: np.ndarray
    start: np.ndarray
    stop: np.ndarray
    customer: np.ndarray
    customers: list[str]
    conversions: ConversionTable
    conversion: np.ndarray

    @property
    def converted(self) -> np.ndarray:
        return self.conversion >= 0

    def __len__(self) -> int:
        return len(self.conversion)

    def take(self, indices: np.ndarray) -> list[Journey]:
        """The journeys at ``indices`` as objects, their touchpoints and
        conversions each built in one pass."""
        start, stop = self.start[indices], self.stop[indices]
        lengths = stop - start
        ends = np.cumsum(lengths)
        offsets = np.repeat(start - ends + lengths, lengths)
        positions = np.arange(len(offsets)) + offsets
        touchpoints = self.table.take(self.rows[positions])
        found = self.conversion[indices]
        views = iter(self.conversions.take(found[found >= 0]))
        conversions = [next(views) if row >= 0 else None for row in found.tolist()]
        customers = map(self.customers.__getitem__, self.customer[indices].tolist())
        return [
            Journey(cid, tuple(touchpoints[end - n:end]), conv)
            for cid, conv, end, n in zip(customers, conversions, ends.tolist(), lengths.tolist())
        ]


# A lookback longer than this reaches past every representable time.
_MAX_LOOKBACK_US = 2**62


def build_journeys(
    table: TouchpointTable,
    conversions: ConversionTable,
    window: LookbackWindow = LookbackWindow(),
) -> Journeys:
    """Assemble one journey per conversion, plus one per non-converting customer.

    Each conversion yields a journey holding exactly the customer's
    touchpoints inside the lookback window (possibly none). Customers with
    touchpoints but no conversion yield a single conversion-absent journey
    carrying all their touchpoints. Output order is deterministic: sorted by
    customer_id, then conversion timestamp, ties by conversion_id.

    The table's rows are sorted once, and no :class:`Touchpoint` or
    :class:`ConversionEvent` is built. The result is a read-only sequence
    whose journeys are built on access.

    A ``touchpoint_id`` or ``conversion_id`` that occurs twice in the input
    raises :class:`DataIntegrityError`: ids are how credits are reported, and
    a repeated one would make two records indistinguishable downstream.
    """
    _reject_duplicate_ids(table.touchpoint_id, "touchpoint_id")
    _reject_duplicate_ids(conversions.conversion_id, "conversion_id")

    # Customer codes over the table's customers and the converters without
    # touchpoints; the sort merges two sorted runs.
    extra = sorted(set(conversions.customers).difference(table.customers))
    customer_ids = sorted(table.customers + extra)
    is_extra = np.zeros(len(customer_ids), dtype=bool)
    is_extra[[bisect_left(customer_ids, cid) for cid in extra]] = True
    tp_customer = np.flatnonzero(~is_extra)[table.customer]
    # Rows that tie on both keys stay in input order; a journey object sorts
    # its touchpoints by (timestamp, touchpoint_id) when it is built.
    rows = np.lexsort((table.ts_us, tp_customer))
    customer, ts = tp_customer[rows], table.ts_us[rows]

    conv_codes = [bisect_left(customer_ids, cid) for cid in conversions.customers]
    conv_customer = np.array(conv_codes, dtype=np.intp)[conversions.customer]
    conv_us = conversions.ts_us
    keys = zip(conv_customer.tolist(), conv_us.tolist(), conversions.conversion_id)
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
    conversion = np.concatenate([by_time, np.full(len(quiet), -1, np.intp)])
    return Journeys(
        table, rows, start[order], stop[order], journey_customer[order], customer_ids,
        conversions, conversion[order],
    )


# The version of the store's layout and of the parse and journey rules whose
# output it holds: bump it when either changes, so that no earlier store is read.
STORE_VERSION = 3

# The range [low, high) of the microseconds since the Unix epoch that a datetime holds.
_DATETIME_US = ((datetime.min.replace(tzinfo=timezone.utc) - _UNIX_EPOCH) // _MICROSECOND,
                (datetime.max.replace(tzinfo=timezone.utc) - _UNIX_EPOCH) // _MICROSECOND + 1)


def _utf8(text: str) -> np.ndarray:
    return np.frombuffer(text.encode("utf-8", "surrogatepass"), np.uint8)


def write_store(fh: IO[bytes], key: str, journeys: Journeys, skipped: Sequence[int]) -> None:
    """Save ``journeys``, the touchpoint and conversion tables it is over and
    the skipped-line count of each log they were read from, as one ``.npz``
    store under ``key`` and ``STORE_VERSION``. An int64 column is saved in the
    narrowest integer dtype of its values, any other array column as it is,
    and each string column as its UTF-8 bytes plus the character offset
    where each string ends, as ``PackedStrings`` holds them. The members are
    the ``.npy`` files ``np.savez`` writes, byte for byte, but each is written
    from its array's own buffer and each string column is encoded only when
    its member is written: ``np.savez`` copies every array first, which
    raised ``fit``'s peak RSS at 200k customers."""
    with zipfile.ZipFile(fh, "w") as store:
        for name, array in _store_arrays(key, journeys, skipped):
            if array.dtype == np.int64:
                array = array.astype(_narrowest(array))
            with store.open(f"{name}.npy", "w", force_zip64=True) as member:
                np.lib.format.write_array_header_1_0(
                    member, np.lib.format.header_data_from_array_1_0(array))
                member.write(memoryview(np.ascontiguousarray(array)).cast("B"))


def _store_arrays(key: str, journeys: Journeys, skipped: Sequence[int]) -> Iterator:
    """Each member's name and array, in the order ``write_store`` writes them."""
    yield "key", _utf8(f"{STORE_VERSION} {key}")
    yield "skipped", np.array(skipped, np.int64)
    for prefix, columns in (("tp", journeys.table), ("conv", journeys.conversions),
                            ("journeys", journeys)):
        for name in (f"{prefix}.{f.name}" for f in fields(columns)):
            value = getattr(columns, name.partition(".")[2])
            if isinstance(value, list):
                lengths = np.fromiter(map(len, value), np.int64, len(value))
                value = PackedStrings.join(value, [lengths])
            if isinstance(value, PackedStrings):
                yield name, _utf8(value.text)
                yield f"{name}.ends", value.ends
            elif isinstance(value, np.ndarray):
                yield name, value


def _narrowest(values: np.ndarray) -> np.dtype:
    """The narrowest integer dtype of ``values``: unsigned when none is negative."""
    low, high = (int(values.min()), int(values.max())) if len(values) else (0, 0)
    return np.min_scalar_type(high if low >= 0 else min(low, -high - 1))


def _column(store: Mapping[str, np.ndarray], name: str, dtype, size: int | None = None,
            low: int | None = None, high: int | None = None) -> np.ndarray:
    """The array ``name`` of ``store`` if it is a vector of ``dtype``, ``size``
    long, with values in [low, high) where these are given; else ValueError.
    An int64 column, stored in the narrowest dtype of its values, is widened."""
    column = store[name]
    integer = column.ndim == 1 and dtype == np.int64 and column.dtype.kind in "iu"
    stored = _narrowest(column) if integer else dtype
    if column.dtype != stored or column.ndim != 1 or size not in (None, len(column)):
        raise ValueError(f"{name} is no {dtype} vector of length {size}")
    if len(column) and (low is not None and column.min() < low
                        or high is not None and column.max() >= high):
        raise ValueError(f"{name} holds a value outside [{low}, {high})")
    return column.astype(dtype, copy=False)


def _strings(store: Mapping[str, np.ndarray], name: str) -> PackedStrings:
    text = _column(store, name, np.uint8).tobytes().decode("utf-8", "surrogatepass")
    ends = _column(store, f"{name}.ends", np.int64, None, 0, len(text) + 1)
    if np.any(ends[1:] < ends[:-1]) or (ends[-1] if len(ends) else 0) != len(text):
        raise ValueError(f"{name}.ends do not cut its text into strings")
    return PackedStrings(text, ends)


def _stored_journeys(store: Mapping[str, np.ndarray]) -> Journeys:
    ids = _strings(store, "tp.touchpoint_id")
    n = len(ids)
    labels = ("customer", "campaign", "channel", "ad_product")
    vocabularies = [list(_strings(store, f"tp.{label}s")) for label in labels]
    table = TouchpointTable(
        ids,
        *(_column(store, f"tp.{label}", np.intp, n, 0, len(vocabulary))
          for label, vocabulary in zip(labels, vocabularies)),
        _column(store, "tp.is_click", np.bool_, n),
        _column(store, "tp.ts_us", np.int64, n, *_DATETIME_US),
        *vocabularies,
    )
    conversion_id, customers = (list(_strings(store, f"conv.{name}"))
                                for name in ("conversion_id", "customers"))
    m = len(conversion_id)
    conversions = ConversionTable(
        conversion_id,
        _column(store, "conv.customer", np.intp, m, 0, len(customers)),
        _column(store, "conv.ts_us", np.int64, m, *_DATETIME_US),
        _column(store, "conv.units", np.int64, m, 0),
        customers,
    )
    conversion = _column(store, "journeys.conversion", np.intp, None, -1, m)
    start, stop = (_column(store, f"journeys.{name}", np.intp, len(conversion), 0, n + 1)
                   for name in ("start", "stop"))
    if np.any(start > stop):
        raise ValueError("a journey starts after it stops")
    customers = list(_strings(store, "journeys.customers"))
    return Journeys(
        table, _column(store, "journeys.rows", np.intp, n, 0, n), start, stop,
        _column(store, "journeys.customer", np.intp, len(conversion), 0, len(customers)),
        customers, conversions, conversion,
    )


def read_store(path: Path, key: str) -> tuple[Journeys, list[int]] | None:
    """The journeys and skipped-line counts that ``write_store`` saved at
    ``path`` under ``key`` and this ``STORE_VERSION``, after logging each
    count's warning as ``parse_event_log`` did. None, a miss, when there is
    no such store or it does not read back whole: unreadable, truncated,
    failing its zip CRC, of another key or version, or with an array whose
    type, length or range breaks a table's invariants."""
    try:
        store = np.load(path, allow_pickle=False)
        if not isinstance(store, np.lib.npyio.NpzFile):
            return None
        with store:
            if store["key"].tobytes() != _utf8(f"{STORE_VERSION} {key}").tobytes():
                return None
            journeys = _stored_journeys(store)
            skipped = _column(store, "skipped", np.int64, None, 0).tolist()
    # zipfile raises RuntimeError for a member flagged as encrypted, and
    # NotImplementedError, a RuntimeError, for an unknown compression method.
    except (OSError, ValueError, KeyError, EOFError, RuntimeError, zipfile.BadZipFile):
        return None
    for n in skipped:
        _warn_skipped(n)
    return journeys, skipped
