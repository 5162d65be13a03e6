import dataclasses
import io
import json
import re
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mta_engine import events
from mta_engine.errors import DataIntegrityError, ParseError
from mta_engine.events import (
    CONVERSION_FIELDS,
    ConversionEvent,
    InteractionKind,
    LookbackWindow,
    build_journeys,
    parse_event_log,
    parse_timestamp,
    write_conversions,
)

from conftest import (
    T0,
    conversion_table,
    conversion_to_record,
    format_timestamp,
    mk_conv,
    mk_tp,
    touchpoint_table,
    touchpoint_to_record,
)

WEEK = LookbackWindow(timedelta(days=7))


class CollidingHash(str):
    """A string whose hash is the same for every value."""

    def __hash__(self) -> int:
        return 7


def tp_line(tp_id="t1", customer="c1", ts="2025-03-01T12:00:00.000Z", **overrides):
    record = {
        "touchpoint_id": tp_id,
        "customer_id": customer,
        "campaign_id": "campA",
        "channel": "Upper",
        "ad_product": "display",
        "interaction_kind": "view",
        "timestamp": ts,
    }
    record.update(overrides)
    return json.dumps(record)


def conv_line(conv_id="x1", customer="c1", ts="2025-03-01T12:00:00.000Z", **overrides):
    record = {"conversion_id": conv_id, "customer_id": customer, "timestamp": ts, "units": 1}
    record.update(overrides)
    return json.dumps(record)


class TestTimestamps:
    def test_parse_zulu(self):
        ts = parse_timestamp("2025-03-01T12:00:00.250Z")
        assert ts == datetime(2025, 3, 1, 12, 0, 0, 250000, tzinfo=timezone.utc)

    def test_parse_offset(self):
        ts = parse_timestamp("2025-03-01T14:00:00+02:00")
        assert ts == datetime(2025, 3, 1, 12, 0, 0, tzinfo=timezone.utc)

    def test_format_round_trip(self):
        ts = datetime(2025, 3, 1, 12, 0, 0, 250000, tzinfo=timezone.utc)
        assert parse_timestamp(format_timestamp(ts)) == ts

    def test_record_round_trip(self):
        tp = mk_tp("t1", ts=T0 + timedelta(milliseconds=123))
        again = parse_event_log([json.dumps(touchpoint_to_record(tp))]).touchpoints[0]
        assert again == tp
        conv = mk_conv("x9", ts=T0, units=3)
        back = parse_event_log([json.dumps(conversion_to_record(conv))]).conversions[0]
        assert back == conv


# Ids the conversion writer must escape as json.dumps does: quotes,
# backslashes, non-ASCII text, control characters and lone surrogates.
conversion_ids = st.sampled_from(
    ['say "hi"', "back\\slash", "café", "日本", "\n", "\x00", "\ud800", "x\udfffy", "\U0001f600"]
) | st.text(st.characters(exclude_categories=()), min_size=1, max_size=6)
millisecond_stamps = st.datetimes(timezones=st.just(timezone.utc)).map(
    lambda ts: ts.replace(microsecond=ts.microsecond // 1000 * 1000)
)
conversion_events = st.builds(
    ConversionEvent, conversion_ids, conversion_ids, millisecond_stamps,
    st.integers(min_value=0, max_value=2**63 - 1),
)


class TestWriteConversions:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(conversion_events, max_size=6))
    def test_lines_are_json_dumps_of_the_records_and_parse_back(self, conversions):
        buffer = io.StringIO()
        write_conversions(buffer, conversion_table(conversions))
        text = buffer.getvalue()
        assert text == "".join(json.dumps(conversion_to_record(c)) + "\n" for c in conversions)
        assert list(parse_event_log(io.StringIO(text)).conversions) == conversions

    def test_a_stamp_finer_than_a_millisecond_raises(self):
        finer = mk_conv("x2", ts=T0 + timedelta(microseconds=1_500))
        buffer = io.StringIO()
        with pytest.raises(ValueError, match="'x2'.*finer than a millisecond"):
            write_conversions(buffer, conversion_table([mk_conv("x1"), finer]))
        assert buffer.getvalue() == ""


class TestParseJsonl:
    def test_empty_stream(self):
        result = parse_event_log([])
        assert list(result.touchpoints) == [] and list(result.conversions) == []
        assert result.skipped == 0

    def test_missing_timestamp_is_skipped_with_line_number(self):
        record = json.loads(tp_line("t2"))
        del record["timestamp"]
        result = parse_event_log([tp_line("t1"), json.dumps(record)])
        assert [tp.touchpoint_id for tp in result.touchpoints] == ["t1"]
        assert list(result.conversions) == []
        assert result.skipped == 1
        assert "line 2" in result.diagnostics[0]
        assert "timestamp" in result.diagnostics[0]

    def test_mixed_records_preserve_order(self):
        lines = [tp_line("t1"), conv_line("x1"), tp_line("t2"), tp_line("t3")]
        result = parse_event_log(lines)
        assert [tp.touchpoint_id for tp in result.touchpoints] == ["t1", "t2", "t3"]
        assert [c.conversion_id for c in result.conversions] == ["x1"]
        assert result.skipped == 0

    def test_unknown_interaction_kind_diagnostic(self):
        result = parse_event_log([tp_line("t1", interaction_kind="hover")])
        assert list(result.touchpoints) == []
        assert result.skipped == 1
        assert "interaction_kind" in result.diagnostics[0]

    def test_invalid_json_and_unclassifiable_records(self):
        result = parse_event_log(["{not json", json.dumps({"foo": 1}), ""])
        assert result.skipped == 2

    def test_units_default_one(self):
        record = json.loads(conv_line("x1"))
        del record["units"]
        result = parse_event_log([json.dumps(record)])
        assert result.conversions[0].units == 1

    def test_negative_units_rejected(self):
        result = parse_event_log([conv_line("x1", units=-2)])
        assert result.skipped == 1

    def test_unknown_format(self):
        with pytest.raises(ParseError):
            parse_event_log([], format="parquet")


class TestParseCsv:
    HEADER = "touchpoint_id,customer_id,campaign_id,channel,ad_product,interaction_kind,timestamp"

    def test_touchpoint_rows(self):
        lines = [
            self.HEADER,
            "t1,c1,campA,Upper,display,view,2025-03-01T12:00:00.000Z",
            "t2,c1,campA,Upper,display,click,2025-03-01T12:30:00.000Z",
        ]
        result = parse_event_log(lines, format="csv")
        assert len(result.touchpoints) == 2
        assert result.touchpoints[1].interaction_kind is InteractionKind.CLICK

    def test_conversion_rows_and_bad_width(self):
        lines = [
            "conversion_id,customer_id,timestamp,units",
            "x1,c1,2025-03-01T12:00:00.000Z,2",
            "x2,c1",
        ]
        result = parse_event_log(lines, format="csv")
        assert result.conversions[0].units == 2
        assert result.skipped == 1
        assert "line 3" in result.diagnostics[0]

    def test_a_quoted_newline_is_kept_as_in_jsonl(self):
        """Each physical line used to be stripped before the CSV reader saw
        it, so the id ``"t\n1"`` read as ``t1``. A record is numbered by its
        last line."""
        text = (f"{self.HEADER}\n" '"t\n1",c1,campA,Upper,display,view,2025-03-01T12:00:00.000Z\n'
                "t2,c1\n")
        result = parse_event_log(io.StringIO(text), format="csv")
        (jsonl,) = parse_event_log([tp_line("t\n1")]).touchpoints
        assert list(result.touchpoints) == [jsonl] and jsonl.touchpoint_id == "t\n1"
        assert result.diagnostics == ["line 4: expected 7 columns, got 2"]

    def test_unrecognized_header_is_fatal(self):
        with pytest.raises(ParseError):
            parse_event_log(["id,when,what", "1,2,3"], format="csv")


def conv_csv(units: str) -> list[str]:
    return [",".join(CONVERSION_FIELDS), f"x1,c1,2025-03-01T12:00:00.000Z,{units}"]


class TestFormatsAgree:
    """A record reads the same from a JSONL and a CSV log. JSON units of 1.5,
    true or 2.0 used to be truncated to an integer, where the CSV text was
    skipped, and a JSON array id was stored as its Python repr."""

    @pytest.mark.parametrize(
        "json_units, csv_units",
        [(1.5, "1.5"), (True, "true"), (2.0, "2.0"), ("1.5", "1.5")],
        ids=["float", "bool", "integral-float", "string-float"],
    )
    def test_non_integer_units_are_skipped(self, json_units, csv_units):
        for result in (
            parse_event_log([conv_line("x1", units=json_units)]),
            parse_event_log(conv_csv(csv_units), format="csv"),
        ):
            assert list(result.conversions) == [] and result.skipped == 1
            assert "units must be an integer" in result.diagnostics[0]

    @pytest.mark.parametrize("json_units, csv_units", [(3, "3"), ("3", " 3"), (0, "0"), (None, "")])
    def test_integer_units_read_the_same(self, json_units, csv_units):
        from_jsonl = parse_event_log([conv_line("x1", units=json_units)]).conversions
        from_csv = parse_event_log(conv_csv(csv_units), format="csv").conversions
        assert list(from_jsonl) == list(from_csv) and len(from_jsonl) == 1

    @pytest.mark.parametrize(
        "line",
        [
            conv_line("x1", customer=["c1"]),
            conv_line({"id": "x1"}),
            tp_line("t1", customer=["c1"]),
            tp_line("t1", channel=True),
        ],
        ids=["array-customer", "object-conversion-id", "array-touchpoint-customer", "bool-channel"],
    )
    def test_an_array_object_or_boolean_field_skips_the_record(self, line):
        result = parse_event_log([line])
        assert list(result.touchpoints) == [] and list(result.conversions) == []
        assert result.skipped == 1 and "must be a string" in result.diagnostics[0]


class TestBuildJourneys:
    def test_inside_window(self):
        tps = [mk_tp("t1", ts=T0)]
        convs = [mk_conv("x1", ts=T0 + timedelta(days=3))]
        (journey,) = build_journeys(touchpoint_table(tps), conversion_table(convs), WEEK)
        assert [tp.touchpoint_id for tp in journey.touchpoints] == ["t1"]

    def test_outside_window(self):
        tps = [mk_tp("t1", ts=T0)]
        convs = [mk_conv("x1", ts=T0 + timedelta(days=10))]
        (journey,) = build_journeys(touchpoint_table(tps), conversion_table(convs), WEEK)
        assert journey.touchpoints == ()
        assert journey.conversion is not None

    def test_two_conversions_share_touchpoint(self):
        # Days 1 and 5 touchpoints; conversions at days 4 and 8. The day-1
        # touchpoint is exactly 7d old at the second conversion, so the
        # half-open window excludes it there.
        tps = [
            mk_tp("t1", ts=T0 + timedelta(days=1)),
            mk_tp("t5", ts=T0 + timedelta(days=5)),
        ]
        convs = [
            mk_conv("x1", ts=T0 + timedelta(days=4)),
            mk_conv("x2", ts=T0 + timedelta(days=8)),
        ]
        first, second = build_journeys(touchpoint_table(tps), conversion_table(convs), WEEK)
        assert [tp.touchpoint_id for tp in first.touchpoints] == ["t1"]
        assert [tp.touchpoint_id for tp in second.touchpoints] == ["t5"]

    def test_window_boundaries(self):
        conv_ts = T0 + timedelta(days=7)
        at_boundary = mk_tp("t_edge", ts=T0)
        just_inside = mk_tp("t_in", ts=T0 + timedelta(milliseconds=1))
        at_conversion = mk_tp("t_now", ts=conv_ts)
        (journey,) = build_journeys(
            touchpoint_table([at_boundary, just_inside, at_conversion]),
            conversion_table([mk_conv("x1", ts=conv_ts)]),
            WEEK,
        )
        assert [tp.touchpoint_id for tp in journey.touchpoints] == ["t_in", "t_now"]

    def test_non_converting_customer_retained(self):
        tps = [mk_tp("t1", customer="quiet")]
        journeys = build_journeys(touchpoint_table(tps), conversion_table([]), WEEK)
        assert len(journeys) == 1
        assert journeys[0].conversion is None
        assert list(journeys[0].touchpoints) == tps

    def test_conversion_without_touchpoints_kept(self):
        journeys = build_journeys(
            touchpoint_table([]), conversion_table([mk_conv("x1", customer="cold")]), WEEK
        )
        assert len(journeys) == 1
        assert journeys[0].touchpoints == ()

    def test_deterministic_order(self):
        tps = [mk_tp(f"t{i}", customer=f"c{i % 3}", ts=T0 + timedelta(hours=i)) for i in range(9)]
        convs = [
            mk_conv("x2", customer="c2", ts=T0 + timedelta(days=1)),
            mk_conv("x1", customer="c0", ts=T0 + timedelta(days=1)),
            mk_conv("x0", customer="c0", ts=T0 + timedelta(days=1)),
        ]
        a = list(build_journeys(touchpoint_table(tps), conversion_table(convs), WEEK))
        b = list(build_journeys(
            touchpoint_table(list(reversed(tps))), conversion_table(reversed(convs)), WEEK
        ))
        assert a == b
        keys = [(j.customer_id, j.conversion.conversion_id if j.conversion else "") for j in a]
        assert keys == sorted(keys)

    def test_empty_inputs(self):
        assert list(build_journeys(touchpoint_table([]), conversion_table([]), WEEK)) == []

    def test_duplicate_touchpoint_id_rejected(self):
        tps = [mk_tp("t1", customer="c1"), mk_tp("t2"), mk_tp("t1", customer="c2")]
        with pytest.raises(DataIntegrityError, match="1 touchpoint_id .*'t1'"):
            build_journeys(touchpoint_table(tps), conversion_table([mk_conv("x1")]), WEEK)

    def test_duplicate_conversion_id_rejected(self):
        convs = [
            mk_conv("x1", customer="c1"),
            mk_conv("x1", customer="c2", ts=T0 + timedelta(days=1)),
        ]
        with pytest.raises(DataIntegrityError, match="conversion_id .*'x1'"):
            build_journeys(
                touchpoint_table(iter([mk_tp("t1")])), conversion_table(iter(convs)), WEEK
            )

    def test_ids_with_colliding_hashes_are_compared_exactly(self):
        ids = [CollidingHash(v) for v in ("c", "a", "b", "d", "b", "c", "c")]
        with pytest.raises(
            DataIntegrityError,
            match=r"^2 touchpoint_id value\(s\) occur more than once in the input, e\.g\. 'b'$",
        ):
            events._reject_duplicate_ids(ids, "touchpoint_id")
        events._reject_duplicate_ids([CollidingHash(v) for v in "abcd"], "touchpoint_id")

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            LookbackWindow(timedelta(0))


@st.composite
def event_sets(draw):
    n_customers = draw(st.integers(1, 4))
    tps = []
    convs = []
    serial = 0
    for c in range(n_customers):
        for _ in range(draw(st.integers(0, 5))):
            offset = draw(st.integers(0, 14 * 24 * 3600))
            tps.append(
                mk_tp(f"t{serial}", customer=f"c{c}", ts=T0 + timedelta(seconds=offset))
            )
            serial += 1
        for k in range(draw(st.integers(0, 2))):
            offset = draw(st.integers(0, 14 * 24 * 3600))
            convs.append(mk_conv(f"x{c}-{k}", customer=f"c{c}", ts=T0 + timedelta(seconds=offset)))
    return tps, convs


class TestJourneyProperties:
    @given(event_sets())
    def test_window_invariant_and_conversion_conservation(self, data):
        tps, convs = data
        journeys = build_journeys(touchpoint_table(tps), conversion_table(convs), WEEK)
        converting = [j for j in journeys if j.conversion is not None]
        assert sum(j.conversion.units for j in converting) == sum(c.units for c in convs)
        for j in converting:
            conv_ts = j.conversion.timestamp
            for tp in j.touchpoints:
                assert conv_ts - WEEK.duration < tp.timestamp <= conv_ts
        for j in journeys:
            stamps = [tp.timestamp for tp in j.touchpoints]
            assert stamps == sorted(stamps)

    @given(event_sets(), st.randoms())
    def test_input_order_irrelevant(self, data, rnd):
        tps, convs = data
        shuffled_tps, shuffled_convs = list(tps), list(convs)
        rnd.shuffle(shuffled_tps)
        rnd.shuffle(shuffled_convs)
        assert list(build_journeys(touchpoint_table(tps), conversion_table(convs), WEEK)) == list(
            build_journeys(touchpoint_table(shuffled_tps), conversion_table(shuffled_convs), WEEK)
        )


class TestConversionTable:
    """The reader's conversions are columns; their rows are built on access."""

    def test_behaves_as_the_list_of_its_events(self):
        convs = [
            mk_conv("x2", "c2", T0 + timedelta(microseconds=7), units=3),
            mk_conv("x1", "c1", T0 - timedelta(days=400)),
            mk_conv("x3", "c2", T0, units=0),
        ]
        table = conversion_table(convs)
        assert table.customers == ["c1", "c2"] and table.customer.tolist() == [1, 0, 1]
        assert table.units.tolist() == [3, 1, 0] and table.units.dtype == np.int64
        assert len(table) == 3 and list(table) == convs
        for i in range(-3, 3):
            assert table[i] == convs[i]
        for i in (3, -4):
            with pytest.raises(IndexError):
                table[i]
        assert table[::-2] == convs[::-2]
        assert table.take(np.array([2, 0, 2])) == [convs[2], convs[0], convs[2]]
        assert len(conversion_table([])) == 0 and list(conversion_table([])) == []


def test_conversion_units_validated():
    with pytest.raises(ValueError):
        ConversionEvent("x", "c", T0, units=-1)


class TestConversionUnits:
    """``ConversionEvent`` holds the reader's unit rule: an ``int`` that is not
    a ``bool``, >= 0 and below 2**63. It used to check only the sign, so
    ``write_conversions`` failed on ``units=1.5`` and wrote ``units=True`` as
    1; and a units value of 2**63, which no int64 column holds, was read."""

    TOO_LARGE = f"units must be < 2**63, got {2**63}"

    @pytest.mark.parametrize(
        "lines, format, reason",
        [
            ([conv_line(units=1.5)], "jsonl", "units must be an integer, got 1.5"),
            ([conv_line(units=2.0)], "jsonl", "units must be an integer, got 2.0"),
            ([conv_line(units=True)], "jsonl", "units must be an integer, got true"),
            ([conv_line(units="1.5")], "jsonl", 'units must be an integer, got "1.5"'),
            ([conv_line(units=[1])], "jsonl", "units must be an integer, got [1]"),
            ([conv_line(units={"n": 1})], "jsonl", 'units must be an integer, got {"n": 1}'),
            ([conv_line(units=-2)], "jsonl", "units must be >= 0, got -2"),
            ([conv_line(units=" -2")], "jsonl", "units must be >= 0, got -2"),
            (conv_csv("1.5"), "csv", 'units must be an integer, got "1.5"'),
            (conv_csv("true"), "csv", 'units must be an integer, got "true"'),
            (conv_csv("+-1"), "csv", "invalid literal for int() with base 10: '+-1'"),
            (conv_csv("-3"), "csv", "units must be >= 0, got -3"),
            ([conv_line(units=2**63)], "jsonl", TOO_LARGE),
            (conv_csv(str(2**63)), "csv", TOO_LARGE),
        ],
        ids=["float", "integral-float", "bool", "string-float", "array", "object", "negative",
             "string-negative", "csv-float", "csv-bool", "csv-two-signs", "csv-negative",
             "too-large", "csv-too-large"],
    )
    def test_reader_diagnostic_for_each_malformed_value(self, lines, format, reason):
        result = parse_event_log(lines, format=format)
        line_no = 1 if format == "jsonl" else 2
        assert list(result.conversions) == [] and result.diagnostics == [f"line {line_no}: {reason}"]

    @pytest.mark.parametrize(
        "units, reason",
        [
            (1.5, "units must be an integer, got 1.5"),
            (2.0, "units must be an integer, got 2.0"),
            (True, "units must be an integer, got true"),
            (False, "units must be an integer, got false"),
            ("1", 'units must be an integer, got "1"'),
            (None, "units must be an integer, got null"),
            (-1, "units must be >= 0, got -1"),
            (2**63, TOO_LARGE),
        ],
        ids=["float", "integral-float", "true", "false", "string", "null", "negative",
             "too-large"],
    )
    def test_constructor_refuses_what_no_log_carries(self, units, reason):
        with pytest.raises(ValueError, match=f"^{re.escape(reason)}$"):
            ConversionEvent("x", "c", T0, units)

    def test_integers_are_kept_and_written(self):
        conversions = [ConversionEvent("x", "c", T0, 0), ConversionEvent("y", "c", T0, 7)]
        buf = io.StringIO()
        write_conversions(buf, conversion_table(conversions))
        assert [json.loads(line)["units"] for line in buf.getvalue().splitlines()] == [0, 7]

    @pytest.mark.parametrize(
        "lines, format",
        [([conv_line(units=2**63 - 1)], "jsonl"), (conv_csv(str(2**63 - 1)), "csv")],
        ids=["jsonl", "csv"],
    )
    def test_the_largest_int64_is_kept_and_written(self, lines, format):
        result = parse_event_log(lines, format=format)
        assert result.skipped == 0 and [c.units for c in result.conversions] == [2**63 - 1]
        buf = io.StringIO()
        write_conversions(buf, result.conversions)
        assert json.loads(buf.getvalue())["units"] == 2**63 - 1


def journeys_state(journeys: events.Journeys) -> dict:
    """Every column of ``journeys`` and of its two tables as plain values,
    each array with its dtype."""
    state = {}
    for prefix, columns in (("tp", journeys.table), ("conv", journeys.conversions),
                            ("journeys", journeys)):
        for f in dataclasses.fields(columns):
            value = getattr(columns, f.name)
            if isinstance(value, np.ndarray):
                state[f"{prefix}.{f.name}"] = (value.dtype.str, value.tolist())
            elif isinstance(value, (list, events.PackedStrings)):
                state[f"{prefix}.{f.name}"] = list(value)
    return state


STORE_TOUCHPOINTS = [
    *(json.dumps(touchpoint_to_record(mk_tp(f"t{i}", f"c{i % 3}", ts=T0 + timedelta(hours=i))))
      for i in range(6)),
    # A JSON escape gives a lone surrogate, which UTF-8 holds only as surrogatepass bytes.
    '{"touchpoint_id": "t\\ud800\\u00e9", "customer_id": "c\\u00e9", "campaign_id": "up00", '
    '"channel": "Upper", "ad_product": "display", "interaction_kind": "click", '
    '"timestamp": "2025-01-01T00:00:00Z"}',
    "{not json",
]
STORE_CONVERSIONS = [
    json.dumps(conversion_to_record(mk_conv("x1", "c1", T0 + timedelta(days=1), units=3))),
    json.dumps(conversion_to_record(mk_conv("xé", "cé", T0 + timedelta(days=1)))),
    json.dumps(conversion_to_record(mk_conv("x3", "c9", T0))),
]


@pytest.fixture
def stored(tmp_path):
    """Journeys over small logs, and the path of their store under key "k"."""
    touchpoints, conversions = parse_event_log(STORE_TOUCHPOINTS), parse_event_log(STORE_CONVERSIONS)
    journeys = build_journeys(touchpoints.touchpoints, conversions.conversions, WEEK)
    path = tmp_path / "events.npz"
    with path.open("wb") as fh:
        events.write_store(fh, "k", journeys, [touchpoints.skipped, conversions.skipped])
    return journeys, path


class TestEventStore:
    def test_a_hit_rebuilds_every_column_and_logs_the_parse_warnings(self, stored, caplog):
        journeys, path = stored
        assert "t\ud800é" in list(journeys.table.touchpoint_id)
        caplog.clear()
        loaded, skipped = events.read_store(path, "k")
        assert skipped == [1, 0]
        assert caplog.messages == ["skipped 1 malformed line(s) while parsing"]
        assert journeys_state(loaded) == journeys_state(journeys)
        assert list(loaded) == list(journeys)

    def test_another_key_or_version_is_a_miss(self, stored, monkeypatch):
        _, path = stored
        assert events.read_store(path, "k2") is None
        assert events.read_store(path.with_name("absent.npz"), "k") is None
        monkeypatch.setattr(events, "STORE_VERSION", events.STORE_VERSION + 1)
        assert events.read_store(path, "k") is None

    def test_integer_columns_are_stored_narrow_and_read_back_as_int64(self, stored):
        """Codes, offsets, stamps and units were all saved as int64."""
        journeys, path = stored
        with np.load(path) as store:
            dtypes = {name: store[name].dtype for name in store.files}
        assert dtypes["tp.customer"] == dtypes["journeys.rows"] == np.uint8
        assert dtypes["journeys.conversion"] == np.int8  # -1 for no conversion
        assert dtypes["tp.ts_us"] == np.uint64 and dtypes["conv.units"] == np.uint8
        assert dtypes["tp.touchpoint_id.ends"] == dtypes["skipped"] == np.uint8
        assert np.int64 not in dtypes.values()
        loaded, _ = events.read_store(path, "k")
        assert journeys_state(loaded) == journeys_state(journeys)
        assert loaded.conversion.dtype == loaded.table.channel.dtype == np.intp

    @pytest.mark.parametrize("values, dtype", [
        ([], np.uint8), ([0, 255], np.uint8), ([256], np.uint16), ([-1, 2], np.int8),
        ([-1, 127], np.int8), ([-1, 128], np.int16), ([-129], np.int16),
        ([2**32], np.uint64), ([-1, 2**31], np.int64), ([2**63 - 1], np.uint64),
    ])
    def test_the_narrowest_dtype_holds_every_value(self, values, dtype):
        column = np.array(values, np.int64)
        assert events._narrowest(column) == dtype
        assert np.array_equal(column.astype(dtype).astype(np.int64), column)

    def test_a_store_of_the_int64_layout_is_a_miss(self, stored, monkeypatch):
        """A store written before the columns were narrowed (version 1) is a
        miss, and so are int64 columns under the current version."""
        journeys, path = stored
        for version in (1, events.STORE_VERSION):
            with monkeypatch.context() as patch:
                patch.setattr(events, "_narrowest", lambda values: np.dtype(np.int64))
                patch.setattr(events, "STORE_VERSION", version)
                with path.open("wb") as fh:
                    events.write_store(fh, "k", journeys, [1, 0])
            with np.load(path) as store:
                assert store["journeys.rows"].dtype == np.int64
            assert events.read_store(path, "k") is None

    def test_truncations_and_flipped_bytes_are_a_miss_or_the_same_journeys(self, stored):
        """The zip CRC and the column checks turn damage into a miss; damage
        that misses both (as in a member's timestamp) reads back the same."""
        journeys, path = stored
        blob, expected = path.read_bytes(), journeys_state(journeys)
        # Every byte of the first member's header, of the first central
        # directory records and of the end records; every 13th byte elsewhere.
        central = blob.index(b"PK\x01\x02")
        flips = {*range(0, 128), *range(central, central + 256),
                 *range(len(blob) - 128, len(blob)), *range(0, len(blob), 13)}
        damaged = [blob[:n] for n in range(0, len(blob), 29)]
        damaged += [blob[:i] + bytes([blob[i] ^ 0xFF]) + blob[i + 1:] for i in sorted(flips)]
        for data in damaged:
            path.write_bytes(data)
            loaded = events.read_store(path, "k")
            assert loaded is None or journeys_state(loaded[0]) == expected

    @pytest.mark.parametrize("tamper", [
        lambda j: dataclasses.replace(j, rows=j.rows + 1),
        lambda j: dataclasses.replace(j, rows=j.rows.astype(np.int32)),
        lambda j: dataclasses.replace(j, start=j.stop + 1),
        lambda j: dataclasses.replace(j, stop=j.start[:-1]),
        lambda j: dataclasses.replace(j, conversion=np.full_like(j.conversion, 3)),
        lambda j: dataclasses.replace(j, customers=j.customers[:1]),
        lambda j: dataclasses.replace(j, table=dataclasses.replace(j.table, channels=[])),
        lambda j: dataclasses.replace(j, table=dataclasses.replace(
            j.table, ts_us=np.full_like(j.table.ts_us, 2**62))),
        lambda j: dataclasses.replace(j, table=dataclasses.replace(
            j.table, is_click=j.table.is_click.astype(np.int8))),
        lambda j: dataclasses.replace(j, table=dataclasses.replace(j.table, touchpoint_id=(
            events.PackedStrings(j.table.touchpoint_id.text, j.table.touchpoint_id.ends[::-1])))),
        lambda j: dataclasses.replace(j, table=dataclasses.replace(j.table, touchpoint_id=(
            events.PackedStrings(j.table.touchpoint_id.text + "x", j.table.touchpoint_id.ends)))),
        lambda j: dataclasses.replace(j, conversions=dataclasses.replace(
            j.conversions, units=-j.conversions.units)),
        lambda j: dataclasses.replace(j, conversions=dataclasses.replace(
            j.conversions, customer=j.conversions.customer[:1])),
    ])
    def test_a_column_that_breaks_an_invariant_is_a_miss(self, stored, tamper):
        journeys, path = stored
        with path.open("wb") as fh:
            events.write_store(fh, "k", tamper(journeys), [1, 0])
        assert events.read_store(path, "k") is None

    @pytest.mark.parametrize("blob", [b"", b"\x93NUMPY garbage", b"PK\x03\x04 garbage"])
    def test_a_file_that_is_no_store_is_a_miss(self, tmp_path, blob):
        path = tmp_path / "events.npz"
        path.write_bytes(blob)
        assert events.read_store(path, "k") is None

    def test_a_plain_array_file_is_a_miss(self, tmp_path):
        path = tmp_path / "events.npz"
        with path.open("wb") as fh:
            np.save(fh, np.arange(3))
        assert events.read_store(path, "k") is None
