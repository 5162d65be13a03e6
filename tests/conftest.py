from datetime import datetime, timedelta, timezone

import pytest

from mta_engine.attribution import CreditVector
from mta_engine.events import ConversionEvent, InteractionKind, Journey, Touchpoint
from mta_engine.rct import CampaignSpec, RctResult

UTC = timezone.utc
T0 = datetime(2025, 3, 1, 12, 0, 0, tzinfo=UTC)


def mk_tp(
    tp_id: str,
    customer: str = "c1",
    campaign: str = "campA",
    channel: str = "Upper",
    kind: str = "view",
    ts: datetime = T0,
    ad_product: str = "display",
) -> Touchpoint:
    return Touchpoint(tp_id, customer, campaign, channel, ad_product, InteractionKind(kind), ts)


def mk_conv(conv_id: str = "x1", customer: str = "c1", ts: datetime = T0, units: int = 1) -> ConversionEvent:
    return ConversionEvent(conv_id, customer, ts, units)


def mk_journey(tps, conv=None, customer: str = "c1") -> Journey:
    return Journey(customer, tuple(tps), conv)


def exact_rct(campaign_id: str, incremental: float) -> RctResult:
    """A zero-noise RCT result for fixtures with hand-picked targets."""
    return RctResult(
        campaign_id=campaign_id,
        n_treatment=1000,
        n_holdout=1000,
        conv_treatment=0.0,
        conv_holdout=0.0,
        incremental_conversions=incremental,
        std_error=0.0,
        ci_low=incremental,
        ci_high=incremental,
    )


@pytest.fixture
def credit_example():
    """Three converting customers touched by Upper, Lower, or both.

    Customer 2 saw Upper then Lower; last-touch gives Lower the full credit
    while the MDA splits 0.3 / 0.7. Returns journeys, per-model credit
    vectors on them, the campaign specs, and zero-noise RCT
    targets constructed to satisfy target = 0.6 * lta + 0.4 * mda.
    """
    campaigns = (
        CampaignSpec("campL", "Lower", "product_ad", 0.5, 0.5, 0.01),
        CampaignSpec("campU", "Upper", "display", 0.5, 0.5, 0.01),
    )
    j1 = mk_journey(
        [mk_tp("u1", "c1", "campU", "Upper", "view", T0 - timedelta(days=2))],
        mk_conv("x1", "c1", T0),
        customer="c1",
    )
    j2 = mk_journey(
        [
            mk_tp("u2", "c2", "campU", "Upper", "view", T0 - timedelta(days=3)),
            mk_tp("l2", "c2", "campL", "Lower", "click", T0 - timedelta(days=1)),
        ],
        mk_conv("x2", "c2", T0),
        customer="c2",
    )
    j3 = mk_journey(
        [mk_tp("l3", "c3", "campL", "Lower", "click", T0 - timedelta(days=1))],
        mk_conv("x3", "c3", T0),
        customer="c3",
    )
    journeys = [j1, j2, j3]
    lta = [CreditVector(j1, (1.0,)), CreditVector(j2, (0.0, 1.0)), CreditVector(j3, (1.0,))]
    mda = [CreditVector(j1, (1.0,)), CreditVector(j2, (0.3, 0.7)), CreditVector(j3, (1.0,))]
    # Campaign-level sums: lta = {campU: 1, campL: 2}, mda = {campU: 1.3, campL: 1.7}.
    targets = {
        "campU": 0.6 * 1.0 + 0.4 * 1.3,
        "campL": 0.6 * 2.0 + 0.4 * 1.7,
    }
    rct_results = {cid: exact_rct(cid, value) for cid, value in targets.items()}
    return journeys, {"lta": lta, "mda": mda}, campaigns, rct_results
