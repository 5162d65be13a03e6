import io
import json
import re
from datetime import datetime, timedelta, timezone

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
    ConversionEvent, conversion_ids, conversion_ids, millisecond_stamps, st.integers(min_value=0)
)


class TestWriteConversions:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(conversion_events, max_size=6))
    def test_lines_are_json_dumps_of_the_records_and_parse_back(self, conversions):
        buffer = io.StringIO()
        write_conversions(buffer, conversions)
        text = buffer.getvalue()
        assert text == "".join(json.dumps(conversion_to_record(c)) + "\n" for c in conversions)
        assert parse_event_log(io.StringIO(text)).conversions == conversions

    def test_a_stamp_finer_than_a_millisecond_raises(self):
        finer = mk_conv("x2", ts=T0 + timedelta(microseconds=1_500))
        buffer = io.StringIO()
        with pytest.raises(ValueError, match="'x2'.*finer than a millisecond"):
            write_conversions(buffer, [mk_conv("x1"), finer])
        assert buffer.getvalue() == ""


class TestParseJsonl:
    def test_empty_stream(self):
        result = parse_event_log([])
        assert list(result.touchpoints) == [] and result.conversions == []
        assert result.skipped == 0

    def test_missing_timestamp_is_skipped_with_line_number(self):
        record = json.loads(tp_line("t2"))
        del record["timestamp"]
        result = parse_event_log([tp_line("t1"), json.dumps(record)])
        assert [tp.touchpoint_id for tp in result.touchpoints] == ["t1"]
        assert result.conversions == []
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
            assert result.conversions == [] and result.skipped == 1
            assert "units must be an integer" in result.diagnostics[0]

    @pytest.mark.parametrize("json_units, csv_units", [(3, "3"), ("3", " 3"), (0, "0"), (None, "")])
    def test_integer_units_read_the_same(self, json_units, csv_units):
        from_jsonl = parse_event_log([conv_line("x1", units=json_units)]).conversions
        from_csv = parse_event_log(conv_csv(csv_units), format="csv").conversions
        assert from_jsonl == from_csv and len(from_jsonl) == 1

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
        assert list(result.touchpoints) == [] and result.conversions == []
        assert result.skipped == 1 and "must be a string" in result.diagnostics[0]


class TestBuildJourneys:
    def test_inside_window(self):
        tps = [mk_tp("t1", ts=T0)]
        convs = [mk_conv("x1", ts=T0 + timedelta(days=3))]
        (journey,) = build_journeys(touchpoint_table(tps), convs, WEEK)
        assert [tp.touchpoint_id for tp in journey.touchpoints] == ["t1"]

    def test_outside_window(self):
        tps = [mk_tp("t1", ts=T0)]
        convs = [mk_conv("x1", ts=T0 + timedelta(days=10))]
        (journey,) = build_journeys(touchpoint_table(tps), convs, WEEK)
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
        first, second = build_journeys(touchpoint_table(tps), convs, WEEK)
        assert [tp.touchpoint_id for tp in first.touchpoints] == ["t1"]
        assert [tp.touchpoint_id for tp in second.touchpoints] == ["t5"]

    def test_window_boundaries(self):
        conv_ts = T0 + timedelta(days=7)
        at_boundary = mk_tp("t_edge", ts=T0)
        just_inside = mk_tp("t_in", ts=T0 + timedelta(milliseconds=1))
        at_conversion = mk_tp("t_now", ts=conv_ts)
        (journey,) = build_journeys(
            touchpoint_table([at_boundary, just_inside, at_conversion]),
            [mk_conv("x1", ts=conv_ts)],
            WEEK,
        )
        assert [tp.touchpoint_id for tp in journey.touchpoints] == ["t_in", "t_now"]

    def test_non_converting_customer_retained(self):
        tps = [mk_tp("t1", customer="quiet")]
        journeys = build_journeys(touchpoint_table(tps), [], WEEK)
        assert len(journeys) == 1
        assert journeys[0].conversion is None
        assert list(journeys[0].touchpoints) == tps

    def test_conversion_without_touchpoints_kept(self):
        journeys = build_journeys(touchpoint_table([]), [mk_conv("x1", customer="cold")], WEEK)
        assert len(journeys) == 1
        assert journeys[0].touchpoints == ()

    def test_deterministic_order(self):
        tps = [mk_tp(f"t{i}", customer=f"c{i % 3}", ts=T0 + timedelta(hours=i)) for i in range(9)]
        convs = [
            mk_conv("x2", customer="c2", ts=T0 + timedelta(days=1)),
            mk_conv("x1", customer="c0", ts=T0 + timedelta(days=1)),
            mk_conv("x0", customer="c0", ts=T0 + timedelta(days=1)),
        ]
        a = list(build_journeys(touchpoint_table(tps), convs, WEEK))
        b = list(build_journeys(touchpoint_table(list(reversed(tps))), list(reversed(convs)), WEEK))
        assert a == b
        keys = [(j.customer_id, j.conversion.conversion_id if j.conversion else "") for j in a]
        assert keys == sorted(keys)

    def test_empty_inputs(self):
        assert list(build_journeys(touchpoint_table([]), [], WEEK)) == []

    def test_duplicate_touchpoint_id_rejected(self):
        tps = [mk_tp("t1", customer="c1"), mk_tp("t2"), mk_tp("t1", customer="c2")]
        with pytest.raises(DataIntegrityError, match="1 touchpoint_id .*'t1'"):
            build_journeys(touchpoint_table(tps), [mk_conv("x1")], WEEK)

    def test_duplicate_conversion_id_rejected(self):
        convs = [
            mk_conv("x1", customer="c1"),
            mk_conv("x1", customer="c2", ts=T0 + timedelta(days=1)),
        ]
        with pytest.raises(DataIntegrityError, match="conversion_id .*'x1'"):
            build_journeys(touchpoint_table(iter([mk_tp("t1")])), iter(convs), WEEK)

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
        journeys = build_journeys(touchpoint_table(tps), convs, WEEK)
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
        assert list(build_journeys(touchpoint_table(tps), convs, WEEK)) == list(
            build_journeys(touchpoint_table(shuffled_tps), shuffled_convs, WEEK)
        )


def test_conversion_units_validated():
    with pytest.raises(ValueError):
        ConversionEvent("x", "c", T0, units=-1)


class TestConversionUnits:
    """``ConversionEvent`` holds the reader's unit rule: an ``int`` that is not
    a ``bool``, >= 0. It used to check only the sign, so ``write_conversions``
    failed on ``units=1.5`` and wrote ``units=True`` as 1."""

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
        ],
        ids=["float", "integral-float", "bool", "string-float", "array", "object", "negative",
             "string-negative", "csv-float", "csv-bool", "csv-two-signs", "csv-negative"],
    )
    def test_reader_diagnostic_for_each_malformed_value(self, lines, format, reason):
        result = parse_event_log(lines, format=format)
        line_no = 1 if format == "jsonl" else 2
        assert result.conversions == [] and result.diagnostics == [f"line {line_no}: {reason}"]

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
        ],
        ids=["float", "integral-float", "true", "false", "string", "null", "negative"],
    )
    def test_constructor_refuses_what_no_log_carries(self, units, reason):
        with pytest.raises(ValueError, match=f"^{re.escape(reason)}$"):
            ConversionEvent("x", "c", T0, units)

    def test_integers_are_kept_and_written(self):
        conversions = [ConversionEvent("x", "c", T0, 0), ConversionEvent("y", "c", T0, 7)]
        buf = io.StringIO()
        write_conversions(buf, conversions)
        assert [json.loads(line)["units"] for line in buf.getvalue().splitlines()] == [0, 7]
