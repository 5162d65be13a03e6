"""Benchmark workloads: seeded run configs for the four-stage mta pipeline.

Every workload runs the same stages (simulate, fit, attribute, report) on a
different input, so every end-to-end and per-layer metric exists on every
workload. The inputs differ in the properties the layers' costs depend on:
touchpoints per customer and journey length.
"""

from __future__ import annotations

from dataclasses import dataclass
STAGES = ("simulate", "fit", "attribute", "report")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_customers: int
    campaigns: tuple[dict, ...]
    baseline_conversion_rate: float

    def config(self, seed: int, out_dir: str, scale: float = 1.0) -> dict:
        """The run config for ``seed``; ``scale`` shrinks the population
        (the smoke test runs every workload at a tiny size)."""
        return {
            "seed": seed,
            "out_dir": out_dir,
            "lookback_days": 7.0,
            "decay_half_life_days": 3.0,
            "report_dimension": "channel",
            "mda": {"learning_rate": 0.5, "iterations": 250, "seed": 0, "max_negatives": 20000},
            "calibration": {"features": ["lta", "mda"], "cv_folds": 5, "cv_seed": 0},
            "simulation": {
                "n_customers": max(min(40, self.n_customers), int(self.n_customers * scale)),
                "baseline_conversion_rate": self.baseline_conversion_rate,
                "horizon_days": 8.0,
                "campaigns": list(self.campaigns),
            },
        }


def two_channel_campaigns() -> list[dict]:
    """The acceptance-criterion-7 campaigns: 10 Upper/display campaigns
    touching early and 10 Lower/product_ad campaigns touching late, with
    total true effects at 1:3."""
    campaigns = []
    for i in range(10):
        wiggle = 0.7 + 0.6 * (i % 3) / 2
        campaigns.append(
            {
                "campaign_id": f"up{i:02d}", "channel": "Upper", "ad_product": "display",
                "exposure_rate": 0.16, "click_rate": 0.04, "true_lift": 0.030 * wiggle,
                "holdout_fraction": 0.5, "view_window": [0.05, 0.40],
            }
        )
        campaigns.append(
            {
                "campaign_id": f"low{i:02d}", "channel": "Lower", "ad_product": "product_ad",
                "exposure_rate": 0.16, "click_rate": 0.28, "true_lift": 0.090 * wiggle,
                "holdout_fraction": 0.5, "view_window": [0.45, 0.70],
            }
        )
    return campaigns


def long_journey_campaigns(n: int = 40) -> list[dict]:
    """``n`` campaigns over three channels, each reaching 80% of customers with
    view windows staggered across the horizon: about 0.8 n touchpoints per
    converting journey. Lifts scale with 40 / n, so the total lift stays put."""
    channels = (("Upper", "display"), ("Mid", "video"), ("Lower", "product_ad"))
    campaigns = []
    for i in range(n):
        channel, ad_product = channels[i % 3]
        start = 0.08 * (i % 10)
        campaigns.append(
            {
                "campaign_id": f"c{i:02d}", "channel": channel, "ad_product": ad_product,
                "exposure_rate": 0.8, "click_rate": 0.3,
                "true_lift": (0.002 + 0.002 * (i % 5) * (1 + i % 3)) * 40 / n,
                "holdout_fraction": 0.2, "view_window": [start, start + 0.25],
            }
        )
    return campaigns


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="two-channel-20k",
            why=(
                "ROADMAP-pinned two-channel config at 20k customers: short journeys, "
                "JSONL encode/parse and CSV writes dominate, so the events and cli I/O layers show"
            ),
            n_customers=20_000,
            campaigns=tuple(two_channel_campaigns()),
            baseline_conversion_rate=0.02,
        ),
        Workload(
            name="long-journeys",
            why=(
                "about 150 touchpoints per journey: O(n^2) MDA leave-one-out, scoring and "
                "per-model credit rows dominate, so attribution/credits/pipeline kernels show"
            ),
            n_customers=120,
            campaigns=tuple(long_journey_campaigns(200)),
            baseline_conversion_rate=0.65,
        ),
    )
}
