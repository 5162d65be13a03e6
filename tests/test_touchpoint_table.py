"""The columnar reader against the object paths it replaced.

* The canonical-line fast path of ``parse_event_log`` gives the same table,
  skip count and diagnostics as decoding every line with ``json.loads`` and
  the record validator.
* The MDA training matrix built from a journey table equals, row for row,
  the stacked per-journey ``conftest.feature_vector``.
* ``build_journeys`` on the table of a simulated ``rct.EventLog`` builds no
  ``Touchpoint`` and gives the journeys of the JSONL round trip.
* The packed touchpoint-id column behaves as the list of ids it holds.
"""

import io
import json
import re
from datetime import datetime, timedelta
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mta_engine import attribution, events, pipeline
from mta_engine.attribution import MdaHyperparams, feature_names_for
from mta_engine.events import (
    TOUCHPOINT_FIELDS,
    LookbackWindow,
    PackedStrings,
    build_journeys,
    parse_event_log,
    write_conversions,
)
from mta_engine.rct import CampaignSpec, SimConfig, simulate

from conftest import (
    T0, feature_vector, journey_table, mk_conv, mk_journey, mk_tp, touchpoint_table)

WEEK = LookbackWindow(timedelta(days=7))


def table_state(table) -> tuple:
    return (
        list(table.touchpoint_id),
        table.customers,
        table.campaigns,
        table.channels,
        table.ad_products,
        *(column.tolist() for column in (
            table.customer, table.campaign, table.channel, table.ad_product,
            table.is_click, table.ts_us,
        )),
    )


def parse_state(result) -> tuple:
    return table_state(result.touchpoints), result.conversions, result.skipped, result.diagnostics


def parse_with_json_only(lines):
    """``parse_event_log`` with the canonical pattern matching nothing."""
    with mock.patch.object(events, "_CANONICAL_TOUCHPOINT", re.compile(r"(?!)")):
        return parse_event_log(lines)


# Labels the fast path takes (no quote, backslash or control character, any
# other code point) are drawn as often as arbitrary text and edge cases.
plain = st.text(
    st.characters(codec="utf-8", min_codepoint=0x20, exclude_characters='"\\'),
    min_size=1, max_size=6,
)
labels = st.one_of(
    plain,
    plain,
    st.text(max_size=6),
    st.sampled_from(
        ["a\"b", "a\\b", "a\\\"", "tab\there", "\x7f", "é", "日本", "\U0001f600", ""]
    ),
)
canonical_stamps = st.datetimes(min_value=datetime(1, 1, 1)).map(
    lambda d: d.isoformat(timespec="milliseconds") + "Z"
)
stamps = st.one_of(
    canonical_stamps,
    canonical_stamps,
    st.from_regex(r"\A[0-9]{4}-[01][0-9]-[0-3][0-9]T[0-2][0-9]:[0-6][0-9]:[0-6][0-9]\.[0-9]{3}Z\Z"),
    st.sampled_from([
        "0000-01-01T00:00:00.000Z", "2024-02-29T12:00:00.000Z", "2023-02-29T12:00:00.000Z",
        "2025-04-31T00:00:00.000Z", "2025-01-01T24:00:00.000Z", "2025-01-01T23:59:60.000Z",
        "2025-01-01T12:00:00.000+02:00", "2025-01-01T12:00:00.123456Z",
        "2025-01-01T12:00:00Z", "2025-01-01t12:00:00.000z", "2025-01-01T12:00:00.000", "late",
    ]),
)


def _json_object(items, compact=False) -> str:
    sep, colon = (",", ":") if compact else (", ", ": ")
    return "{" + sep.join(f"{json.dumps(k)}{colon}{v}" for k, v in items) + "}"


@st.composite
def touchpoint_lines(draw) -> str:
    """A touchpoint line, at most one field of which is drawn from the wild
    strategies and at most one change of shape away from the writer's."""
    record = {
        "touchpoint_id": draw(plain),
        "customer_id": draw(st.sampled_from(["C1", "C2", "Cé"]) | plain),
        "campaign_id": draw(plain),
        "channel": draw(st.sampled_from(["Upper", "Lower"]) | plain),
        "ad_product": draw(plain),
        "interaction_kind": draw(st.sampled_from(["view", "click"])),
        "timestamp": draw(canonical_stamps),
    }
    wild = {
        **dict.fromkeys(TOUCHPOINT_FIELDS[:5], labels),
        "interaction_kind": st.sampled_from(["View", "hover", "", "view "]),
        "timestamp": stamps,
    }
    field = draw(st.sampled_from([None, None, *TOUCHPOINT_FIELDS]))
    if field is not None:
        record[field] = draw(wild[field])
    shape = draw(st.sampled_from(["canonical"] * 4 + [
        "unescaped", "unescaped", "reordered", "extra", "duplicate", "compact", "number",
    ]))
    ascii_only = draw(st.booleans())
    items = [(k, json.dumps(v, ensure_ascii=ascii_only)) for k, v in record.items()]
    if shape == "unescaped":
        # The labels put between quotes raw: escapes, quotes and control
        # characters make invalid (or differently decoded) JSON.
        items = [(k, f'"{v}"') for k, v in record.items()]
    elif shape == "reordered":
        items = draw(st.permutations(items))
    elif shape == "extra":
        items.insert(draw(st.integers(0, len(items))), ("extra", json.dumps(draw(labels))))
    elif shape == "duplicate":
        key = draw(st.sampled_from(TOUCHPOINT_FIELDS))
        items.append((key, json.dumps(draw(labels))))
    elif shape == "number":
        key = draw(st.sampled_from(TOUCHPOINT_FIELDS[:5]))
        items = [(k, "17" if k == key else v) for k, v in items]
    line = _json_object(items, compact=shape == "compact")
    return line + draw(st.sampled_from(["", "\n", "\r\n", "\r\r\n", " \n", "\n\n"]))


other_lines = st.sampled_from([
    "", "   ", "{not json", "[1, 2]", json.dumps({"foo": 1}),
    json.dumps({"conversion_id": "X1", "customer_id": "C1",
                "timestamp": "2025-01-01T00:00:00.000Z", "units": 2}),
    json.dumps({"conversion_id": "X2", "customer_id": "C2", "timestamp": "bad"}),
])


class TestCanonicalFastPath:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(touchpoint_lines() | other_lines, max_size=8))
    def test_same_table_skips_and_diagnostics_as_json_loads(self, lines):
        assert parse_state(parse_event_log(lines)) == parse_state(parse_with_json_only(lines))

    def test_simulator_lines_take_the_fast_path(self):
        touchpoints, _, _ = simulate(small_config())
        buffer = io.StringIO()
        touchpoints.write_jsonl(buffer)
        lines = buffer.getvalue().splitlines(keepends=True)
        assert all(map(events._CANONICAL_TOUCHPOINT.fullmatch, lines))
        fast, slow = parse_event_log(lines), parse_with_json_only(lines)
        assert parse_state(fast) == parse_state(slow) and len(fast.touchpoints) == len(lines)

    def test_batches_keep_line_numbers_and_order(self, monkeypatch):
        monkeypatch.setattr(events, "_BATCH_ROWS", 3)
        line = _json_object((k, json.dumps(v)) for k, v in zip(TOUCHPOINT_FIELDS, (
            "t{}", "C1", "a", "Upper", "display", "view", "2025-01-01T00:00:00.000Z"
        )))
        lines = [line.replace("t{}", f"t{i}") if i % 4 else "{bad" for i in range(11)]
        result = parse_event_log(lines)
        assert [tp.touchpoint_id for tp in result.touchpoints] == [
            f"t{i}" for i in range(11) if i % 4
        ]
        assert result.diagnostics == [
            f"line {n}: invalid JSON (Expecting property name enclosed in double quotes)"
            for n in (1, 5, 9)
        ]


def small_config(seed=3):
    campaigns = (
        CampaignSpec("up", "Upper", "display", 0.4, 0.3, 0.05, view_window=(0.0, 0.5)),
        CampaignSpec("low", "Lower", "product_ad", 0.4, 0.3, 0.05, view_window=(0.3, 0.7)),
        CampaignSpec("mid", "Mid", "video", 0.3, 0.2, 0.02),
    )
    return SimConfig(1500, campaigns, 0.05, seed=seed, horizon=timedelta(days=8))


# Offsets from T0 in microseconds: few distinct values make ties at the
# latest timestamp common; large ones exercise the float rounding of ages.
offsets = st.sampled_from([0, 1, 3_600_000_000]) | st.integers(-10**12, 10**12)


@st.composite
def journey_lists(draw):
    journeys = []
    for j in range(draw(st.integers(0, 6))):
        tps = [
            mk_tp(
                f"t{j}-{i}",
                customer=f"c{j}",
                channel=draw(st.sampled_from(["Upper", "Lower", "Mid"])),
                kind=draw(st.sampled_from(["view", "click"])),
                ts=T0 + timedelta(microseconds=draw(offsets)),
            )
            for i in range(draw(st.integers(0, 5)))
        ]
        conv = None
        if draw(st.booleans()):
            conv = mk_conv(f"x{j}", f"c{j}", T0 + timedelta(microseconds=draw(offsets)))
        journeys.append(mk_journey(tps, conv, customer=f"c{j}"))
    return journeys


def stacked_feature_vectors(names, journeys) -> np.ndarray:
    rows = [feature_vector(names, j.touchpoints, j.conversion) for j in journeys]
    return np.array(rows).reshape(len(journeys), len(names))


class TestTrainingMatrix:
    @settings(max_examples=300, deadline=None)
    @given(journey_lists())
    def test_matrix_equals_stacked_feature_vectors(self, journeys):
        names = feature_names_for(journey_table(journeys))
        channels = sorted({tp.channel for j in journeys for tp in j.touchpoints})
        assert names == attribution._BASE_FEATURES + tuple(f"channel_count:{c}" for c in channels)
        names += ("channel_count:Other",)
        matrix = attribution._feature_matrix(names, journey_table(journeys))
        assert np.array_equal(matrix, stacked_feature_vectors(names, journeys))

    @settings(max_examples=100, deadline=None)
    @given(journey_lists(), st.integers(0, 4))
    def test_matrix_of_built_journeys(self, journey_list, max_negatives):
        touchpoints = [tp for j in journey_list for tp in j.touchpoints]
        conversions = [j.conversion for j in journey_list if j.conversion is not None]
        journeys = build_journeys(touchpoint_table(touchpoints), conversions, WEEK)
        rows = pipeline.mda_training_set(journeys, max_negatives, seed=1)
        names = feature_names_for(rows)
        assert names == feature_names_for(journey_table(list(rows)))
        matrix = attribution._feature_matrix(names, rows)
        assert np.array_equal(matrix, stacked_feature_vectors(names, list(rows)))

    def test_training_on_the_table_equals_training_on_objects(self):
        touchpoints, conversions, _ = simulate(small_config())
        journeys = build_journeys(touchpoints.touchpoint_table(), conversions, WEEK)
        rows = pipeline.mda_training_set(journeys, max_negatives=300, seed=2)
        hyper = MdaHyperparams(0.5, 40, 0)
        assert attribution.train_mda(rows, hyper) == attribution.train_mda(
            journey_table(list(rows)), hyper
        )


class TestEventLogJourneys:
    def test_no_touchpoint_objects_and_same_journeys_as_the_jsonl_round_trip(self, monkeypatch):
        touchpoints, conversions, _ = simulate(small_config())

        def forbidden(*args):
            raise AssertionError("Touchpoint built from an EventLog")

        with monkeypatch.context() as patch:
            patch.setattr(events, "Touchpoint", forbidden)
            table = touchpoints.touchpoint_table()
            journeys = build_journeys(table, conversions, WEEK)
            assert pipeline.train_attributor(journeys, MdaHyperparams(0.5, 20, 0)) is not None
        attributable, unattributed = pipeline.split_attributable(journeys)

        buffers = io.StringIO(), io.StringIO()
        touchpoints.write_jsonl(buffers[0])
        write_conversions(buffers[1], conversions)
        logs = [parse_event_log(b.getvalue().splitlines(keepends=True)) for b in buffers]
        assert table_state(table) == table_state(logs[0].touchpoints)
        assert logs[1].conversions == conversions
        round_trip = build_journeys(logs[0].touchpoints, logs[1].conversions, WEEK)
        assert len(journeys) == len(round_trip) > 0
        assert list(journeys) == list(round_trip)
        from_objects = build_journeys(touchpoint_table(list(table)), conversions, WEEK)
        assert list(journeys) == list(from_objects)
        assert (attributable, unattributed) == pipeline.split_attributable(round_trip)


# Strings an id column must hold: the empty string, non-ASCII text, control
# characters, lone surrogates (a JSON line's ``\ud800`` escape decodes to
# one) and characters outside the BMP.
odd_ids = st.sampled_from(
    ["", "é", "日本", "\n", "\x00", "\ud800", "x\udfffy", "\U0001f600", "a"]
)


class TestPackedStrings:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(odd_ids | st.text(max_size=5), max_size=12), st.integers(1, 4), st.data())
    def test_behaves_as_the_list_of_its_strings(self, ids, batch_rows, data):
        with mock.patch.object(events, "_BATCH_ROWS", batch_rows):
            column = touchpoint_table([mk_tp(tp_id) for tp_id in ids]).touchpoint_id
        assert isinstance(column, PackedStrings)
        assert len(column) == len(ids)
        assert list(column) == ids
        for i in range(-len(ids), len(ids)):
            assert column[i] == ids[i]
        for i in (len(ids), -len(ids) - 1):
            with pytest.raises(IndexError):
                column[i]
        bound = st.none() | st.integers(-len(ids) - 2, len(ids) + 2)
        step = st.sampled_from([None, 1, 2, -1, -3])
        window = slice(data.draw(bound), data.draw(bound), data.draw(step))
        assert column[window] == ids[window]
        rows = data.draw(st.lists(st.integers(-len(ids), len(ids) - 1), max_size=8)) if ids else []
        assert column.take(np.array(rows, dtype=np.intp)) == [ids[r] for r in rows]
        assert [tp.touchpoint_id for tp in touchpoint_table(map(mk_tp, ids))] == ids
