import json
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, strategies as st

from mta_engine.errors import DataIntegrityError, ParseError
from mta_engine.events import (
    ConversionEvent,
    InteractionKind,
    LookbackWindow,
    build_journeys,
    conversion_to_record,
    format_timestamp,
    parse_event_log,
    parse_timestamp,
    touchpoint_to_record,
)

from conftest import T0, mk_conv, mk_tp

WEEK = LookbackWindow(timedelta(days=7))


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


class TestBuildJourneys:
    def test_inside_window(self):
        tps = [mk_tp("t1", ts=T0)]
        convs = [mk_conv("x1", ts=T0 + timedelta(days=3))]
        (journey,) = build_journeys(tps, convs, WEEK)
        assert [tp.touchpoint_id for tp in journey.touchpoints] == ["t1"]

    def test_outside_window(self):
        tps = [mk_tp("t1", ts=T0)]
        convs = [mk_conv("x1", ts=T0 + timedelta(days=10))]
        (journey,) = build_journeys(tps, convs, WEEK)
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
        first, second = build_journeys(tps, convs, WEEK)
        assert [tp.touchpoint_id for tp in first.touchpoints] == ["t1"]
        assert [tp.touchpoint_id for tp in second.touchpoints] == ["t5"]

    def test_window_boundaries(self):
        conv_ts = T0 + timedelta(days=7)
        at_boundary = mk_tp("t_edge", ts=T0)
        just_inside = mk_tp("t_in", ts=T0 + timedelta(milliseconds=1))
        at_conversion = mk_tp("t_now", ts=conv_ts)
        (journey,) = build_journeys(
            [at_boundary, just_inside, at_conversion], [mk_conv("x1", ts=conv_ts)], WEEK
        )
        assert [tp.touchpoint_id for tp in journey.touchpoints] == ["t_in", "t_now"]

    def test_non_converting_customer_retained(self):
        tps = [mk_tp("t1", customer="quiet")]
        journeys = build_journeys(tps, [], WEEK)
        assert len(journeys) == 1
        assert journeys[0].conversion is None
        assert list(journeys[0].touchpoints) == tps

    def test_conversion_without_touchpoints_kept(self):
        journeys = build_journeys([], [mk_conv("x1", customer="cold")], WEEK)
        assert len(journeys) == 1
        assert journeys[0].touchpoints == ()

    def test_deterministic_order(self):
        tps = [mk_tp(f"t{i}", customer=f"c{i % 3}", ts=T0 + timedelta(hours=i)) for i in range(9)]
        convs = [
            mk_conv("x2", customer="c2", ts=T0 + timedelta(days=1)),
            mk_conv("x1", customer="c0", ts=T0 + timedelta(days=1)),
            mk_conv("x0", customer="c0", ts=T0 + timedelta(days=1)),
        ]
        a = list(build_journeys(tps, convs, WEEK))
        b = list(build_journeys(list(reversed(tps)), list(reversed(convs)), WEEK))
        assert a == b
        keys = [(j.customer_id, j.conversion.conversion_id if j.conversion else "") for j in a]
        assert keys == sorted(keys)

    def test_empty_inputs(self):
        assert list(build_journeys([], [], WEEK)) == []

    def test_duplicate_touchpoint_id_rejected(self):
        tps = [mk_tp("t1", customer="c1"), mk_tp("t2"), mk_tp("t1", customer="c2")]
        with pytest.raises(DataIntegrityError, match="1 touchpoint_id .*'t1'"):
            build_journeys(tps, [mk_conv("x1")], WEEK)

    def test_duplicate_conversion_id_rejected(self):
        convs = [
            mk_conv("x1", customer="c1"),
            mk_conv("x1", customer="c2", ts=T0 + timedelta(days=1)),
        ]
        with pytest.raises(DataIntegrityError, match="conversion_id .*'x1'"):
            build_journeys(iter([mk_tp("t1")]), iter(convs), WEEK)

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
        journeys = build_journeys(tps, convs, WEEK)
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
        assert list(build_journeys(tps, convs, WEEK)) == list(
            build_journeys(shuffled_tps, shuffled_convs, WEEK)
        )


def test_conversion_units_validated():
    with pytest.raises(ValueError):
        ConversionEvent("x", "c", T0, units=-1)
