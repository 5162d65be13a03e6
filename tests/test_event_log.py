"""The simulator's touchpoint log and conversion list against the object
path they replaced.

The reference below is the former body of ``simulate``: staged tuples
sorted by (timestamp, touchpoint_id), ``Touchpoint`` and ``ConversionEvent``
objects with ``datetime`` stamps, and one ``json.dumps`` per record. The
touchpoint log's table must hold equal objects in the same order, the
conversions must equal the reference's, and both must be written as the
same bytes.
"""

import json
from datetime import timedelta
from itertools import groupby

import numpy as np
import pytest

from mta_engine import rct
from mta_engine.events import ConversionEvent, InteractionKind, Touchpoint, write_conversions
from mta_engine.rct import SIM_EPOCH, CampaignSpec, SimConfig, estimate_all, simulate

from conftest import conversion_to_record, touchpoint_to_record


def reference_events(config: SimConfig) -> tuple[list[Touchpoint], list[ConversionEvent]]:
    draws = rct._simulate_core(config)
    cids = [f"C{i:07d}" for i in range(config.n_customers)]

    staged = []
    for cd in draws.campaigns:
        spec = cd.spec
        for prefix, mask, times, kind in (
            ("V", cd.exposed, cd.view_ms, InteractionKind.VIEW),
            ("K", cd.clicked, cd.click_ms, InteractionKind.CLICK),
        ):
            indices = np.flatnonzero(mask).tolist()
            stamps = times.tolist()
            for i, ms in zip(indices, stamps):
                cid = cids[i]
                staged.append((ms, f"{prefix}-{spec.campaign_id}-{cid}", i, cid, spec, kind))
    staged.sort(key=lambda item: (item[0], item[1]))
    epoch = SIM_EPOCH
    touchpoints = [
        Touchpoint(
            tp_id, cid, spec.campaign_id, spec.channel, spec.ad_product, kind,
            epoch + timedelta(milliseconds=ms),
        )
        for ms, tp_id, _, cid, spec, kind in staged
    ]

    conv_indices = np.flatnonzero(draws.converted).tolist()
    conv_stamps = draws.conv_ms[draws.converted].tolist()
    conversions = [
        ConversionEvent(f"X-{cids[i]}", cids[i], epoch + timedelta(milliseconds=ms), 1)
        for i, ms in sorted(zip(conv_indices, conv_stamps), key=lambda p: (p[1], p[0]))
    ]
    return touchpoints, conversions


def written(log, path) -> bytes:
    """The bytes of the touchpoint log's JSONL, or of a conversion list's."""
    with path.open("w") as fh:
        if isinstance(log, list):
            write_conversions(fh, log)
        else:
            log.write_jsonl(fh)
    return path.read_bytes()


def assert_same_as_reference(config: SimConfig, tmp_path) -> list[Touchpoint]:
    touchpoints, conversions, _ = simulate(config)
    ref_touchpoints, ref_conversions = reference_events(config)
    assert len(touchpoints) == len(ref_touchpoints)
    assert list(touchpoints.touchpoint_table()) == ref_touchpoints
    assert len(conversions) == len(ref_conversions)
    assert conversions == ref_conversions
    expected = "".join(json.dumps(touchpoint_to_record(tp)) + "\n" for tp in ref_touchpoints)
    assert written(touchpoints, tmp_path / "touchpoints.jsonl") == expected.encode()
    expected = "".join(json.dumps(conversion_to_record(c)) + "\n" for c in ref_conversions)
    assert written(conversions, tmp_path / "conversions.jsonl") == expected.encode()
    return ref_touchpoints


def campaign(campaign_id, channel="Upper", ad_product="display", **overrides) -> CampaignSpec:
    fields = dict(exposure_rate=0.4, click_rate=0.3, true_lift=0.05, holdout_fraction=0.2)
    fields.update(overrides)
    return CampaignSpec(campaign_id, channel, ad_product, **fields)


class TestMatchesObjectPath:
    def test_escaped_and_non_ascii_labels(self, tmp_path):
        campaigns = (
            campaign('say "hi"', channel='Up"per'),
            campaign("back\\slash", ad_product="tab\there"),
            campaign("café", channel="Ünter", ad_product="日本"),
            campaign("chart📈", channel="/slash", ad_product="\x7f\x01"),
        )
        touchpoints = assert_same_as_reference(SimConfig(1500, campaigns, 0.05, seed=4), tmp_path)
        assert {tp.campaign_id for tp in touchpoints} == {c.campaign_id for c in campaigns}

    def test_prefix_colliding_ids_sharing_one_millisecond(self, tmp_path):
        campaigns = tuple(campaign(cid, view_window=(0.5, 0.5)) for cid in ("a", "a-b", "a+"))
        touchpoints = assert_same_as_reference(SimConfig(2000, campaigns, 0.05, seed=6), tmp_path)
        views = [tp for tp in touchpoints if tp.interaction_kind is InteractionKind.VIEW]
        assert len({tp.timestamp for tp in views}) == 1 and len(views) > 1000
        # String order of the ids ("V-a+-", "V-a-C", "V-a-b-") is not the
        # order of (campaign_id, customer_id) tuples.
        assert [campaign_id for campaign_id, _ in groupby(tp.campaign_id for tp in views)] == [
            "a+", "a", "a-b"
        ]

    def test_no_campaigns(self, tmp_path):
        assert assert_same_as_reference(SimConfig(300, (), 0.1, seed=2), tmp_path) == []

    @pytest.mark.parametrize("extra_rows", [0, 1])
    def test_one_chunk_and_one_row_more(self, tmp_path, monkeypatch, extra_rows):
        config = SimConfig(1200, (campaign("up"), campaign("low", channel="Lower")), 0.05, seed=8)
        touchpoints, conversions, _ = simulate(config)
        ref_touchpoints, ref_conversions = reference_events(config)
        # The conversion list is written in one piece; only the touchpoint log chunks.
        monkeypatch.setattr(rct, "_CHUNK_ROWS", len(touchpoints) - extra_rows)
        for log, ref, to_record in (
            (touchpoints, ref_touchpoints, touchpoint_to_record),
            (conversions, ref_conversions, conversion_to_record),
        ):
            expected = "".join(json.dumps(to_record(event)) + "\n" for event in ref)
            assert written(log, tmp_path / "log.jsonl") == expected.encode()


class TestCustomerIds:
    def test_built_once_and_formatted_only_for_written_rows(self, tmp_path, monkeypatch):
        rct.customer_ids.cache_clear()
        rct.population_hashes.cache_clear()
        campaigns = (campaign("up"), campaign("low", holdout_fraction=0.4))
        config = SimConfig(2_000, campaigns, 0.03, seed=3)
        touchpoints, conversions, _ = simulate(config)
        estimate_all(config, conversions)
        assert rct.customer_ids.cache_info().misses == 1
        assert isinstance(rct.customer_ids(2_000), tuple)

        emitted = sorted(tp.customer_id for tp in touchpoints.touchpoint_table())
        calls = []
        format_id = rct._CUSTOMER_ID
        monkeypatch.setattr(rct, "_CUSTOMER_ID", lambda i: calls.append(i) or format_id(i))
        written(touchpoints, tmp_path / "touchpoints.jsonl")
        assert sorted(map(format_id, calls)) == emitted != []
        assert rct.customer_ids.cache_info().misses == 1
