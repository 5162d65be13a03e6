"""Ground-truth lab: synthetic shopper populations, randomized holdouts, and
campaign-level incremental-conversion estimates.

The simulator draws every quantity from randomness keyed by
(seed, campaign, customer), so identical configs produce byte-identical
event logs and assignment is stable under input reordering. Conversion
probability is baseline plus the sum of additive lifts over realized
exposures, which makes the exact expected incremental conversions of each
campaign available in closed form as a ground-truth table.

A simulated run holds its touchpoints as an :class:`EventLog` of columns,
which writes its JSONL and gives its ``TouchpointTable`` without building
event objects, and its conversions as the ``ConversionTable`` that
``events.parse_event_log`` also returns.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from functools import lru_cache
from typing import IO, Iterable, Mapping

import numpy as np

from . import rng
from .config import CampaignSpec, SimConfig
from .errors import ConfigError, DegenerateDesignError
from .events import (
    ConversionTable,
    InteractionKind,
    PackedStrings,
    TouchpointTable,
    label_codes,
)

logger = logging.getLogger(__name__)

TREATMENT = "treatment"
HOLDOUT = "holdout"

SIM_EPOCH = datetime(2025, 1, 1, tzinfo=timezone.utc)

# Event timing, in milliseconds: clicks land 1 min - 1 h after the view,
# conversions 1 h - 24 h after the customer's last touchpoint.
_CLICK_LAG_MS = (60_000, 3_600_000)
_CONV_LAG_MS = (3_600_000, 86_400_000)

_Z95 = 1.959963984540054


@dataclass(frozen=True, slots=True)
class RctResult:
    """Treatment-vs-holdout contrast for one campaign, on the treatment scale."""

    campaign_id: str
    n_treatment: int
    n_holdout: int
    conv_treatment: float
    conv_holdout: float
    incremental_conversions: float
    std_error: float
    ci_low: float
    ci_high: float


@dataclass(frozen=True, slots=True)
class GroundTruthRow:
    campaign_id: str
    true_incremental: float
    n_treatment: int
    n_holdout: int


_CUSTOMER_ID = "C{:07d}".format


@lru_cache(maxsize=1)
def customer_ids(n: int) -> tuple[str, ...]:
    """The ids of a simulated population of ``n`` customers, built once per
    process and size for the hashes and the estimates that share them."""
    return tuple(map(_CUSTOMER_ID, range(n)))


@lru_cache(maxsize=1)
def population_hashes(n_customers: int) -> np.ndarray:
    """Read-only id hashes of ``customer_ids(n_customers)``, computed once
    for the simulation and the estimates that reconstruct its assignment."""
    hashes = rng.id_hashes(customer_ids(n_customers))
    hashes.flags.writeable = False
    return hashes


def assign_treatment(
    customer_ids: Iterable[str],
    holdout_fraction: float,
    seed: int,
    campaign_id: str = "",
) -> dict[str, str]:
    """Independently assign each customer to treatment or holdout.

    Assignment is keyed by (seed, campaign_id, customer_id): re-running with
    shuffled ids, or growing the population, never flips an existing
    customer's arm.
    """
    if not 0.0 < holdout_fraction < 1.0:
        raise ConfigError(f"holdout_fraction must be in (0, 1), got {holdout_fraction}")
    ids = list(customer_ids)
    holdout = _held_out(seed, campaign_id, rng.id_hashes(ids), holdout_fraction)
    return {cid: HOLDOUT if h else TREATMENT for cid, h in zip(ids, holdout.tolist())}


def _held_out(seed: int, campaign_id: str, hashes: np.ndarray, fraction: float) -> np.ndarray:
    """The assignment rule: whether each customer, by id hash, is in the campaign's holdout."""
    return rng.keyed_uniforms(seed, f"assign|{campaign_id}", hashes) < fraction


@dataclass
class _CampaignDraws:
    spec: CampaignSpec
    holdout: np.ndarray   # bool, per customer
    exposed: np.ndarray   # bool, treatment only
    clicked: np.ndarray   # bool, subset of exposed
    view_ms: np.ndarray   # int64 offsets from SIM_EPOCH, one per exposed customer
    click_ms: np.ndarray  # likewise, one per clicking customer


@dataclass
class _SimDraws:
    """Vectorized simulation state shared by event materialization and the
    fast replication path."""

    config: SimConfig
    campaigns: list[_CampaignDraws]
    conv_prob: np.ndarray
    converted: np.ndarray
    conv_ms: np.ndarray
    clamped_fraction: float

    def ground_truth(self) -> list[GroundTruthRow]:
        base = self.config.baseline_conversion_rate
        lift_sum = np.zeros(self.config.n_customers)
        for cd in self.campaigns:
            lift_sum += cd.spec.true_lift * cd.exposed
        p_with = np.clip(base + lift_sum, 0.0, 1.0)
        rows = []
        for cd in self.campaigns:
            p_without = np.clip(base + lift_sum - cd.spec.true_lift * cd.exposed, 0.0, 1.0)
            rows.append(
                GroundTruthRow(
                    campaign_id=cd.spec.campaign_id,
                    true_incremental=float(np.sum(p_with - p_without)),
                    n_treatment=int(np.sum(~cd.holdout)),
                    n_holdout=int(np.sum(cd.holdout)),
                )
            )
        return rows


def _simulate_core(config: SimConfig) -> _SimDraws:
    n = config.n_customers
    seed = config.seed
    hashes = population_hashes(n)
    horizon_ms = int(config.horizon.total_seconds() * 1000)

    campaigns: list[_CampaignDraws] = []
    lift_sum = np.zeros(n)
    last_touch_ms = np.full(n, -1, dtype=np.int64)
    for spec in config.campaigns:
        cid = spec.campaign_id
        holdout = _held_out(seed, cid, hashes, spec.holdout_fraction)
        exposed = ~holdout & (rng.keyed_uniforms(seed, f"expose|{cid}", hashes) < spec.exposure_rate)
        clicked = exposed & (rng.keyed_uniforms(seed, f"click|{cid}", hashes) < spec.click_rate)

        lo, hi = spec.view_window
        u_view = rng.keyed_uniforms(seed, f"view_t|{cid}", hashes)
        view_ms = np.rint((lo + u_view * (hi - lo)) * horizon_ms).astype(np.int64)
        u_click = rng.keyed_uniforms(seed, f"click_t|{cid}", hashes)
        lag_lo, lag_hi = _CLICK_LAG_MS
        click_ms = view_ms + lag_lo + np.rint(u_click * (lag_hi - lag_lo)).astype(np.int64)

        lift_sum += spec.true_lift * exposed
        np.maximum(last_touch_ms, np.where(exposed, view_ms, -1), out=last_touch_ms)
        np.maximum(last_touch_ms, np.where(clicked, click_ms, -1), out=last_touch_ms)
        campaigns.append(
            _CampaignDraws(spec, holdout, exposed, clicked, view_ms[exposed], click_ms[clicked])
        )

    raw_prob = config.baseline_conversion_rate + lift_sum
    conv_prob = np.clip(raw_prob, 0.0, 1.0)
    clamped_fraction = float(np.mean(raw_prob > 1.0)) if len(config.campaigns) else 0.0
    if clamped_fraction > 0.001:
        logger.warning(
            "conversion probability clamped for %.2f%% of customers; ground-truth "
            "closed forms degrade under heavy clamping",
            100.0 * clamped_fraction,
        )

    converted = rng.keyed_uniforms(seed, "convert", hashes) < conv_prob
    u_conv_t = rng.keyed_uniforms(seed, "convert_t", hashes)
    lag_lo, lag_hi = _CONV_LAG_MS
    touched = last_touch_ms >= 0
    conv_ms = np.where(
        touched,
        last_touch_ms + lag_lo + np.rint(u_conv_t * (lag_hi - lag_lo)).astype(np.int64),
        np.rint(u_conv_t * horizon_ms).astype(np.int64),
    )
    return _SimDraws(config, campaigns, conv_prob, converted, conv_ms, clamped_fraction)


# Lines per write when the touchpoint log streams its JSONL. Each chunk is
# held about three times over (its lines, their join, the encoded bytes), so
# the chunk size bounds what writing adds to the simulate stage's peak RSS.
_CHUNK_ROWS = 2048
_EPOCH_MS = np.datetime64(SIM_EPOCH.replace(tzinfo=None), "ms")
# The JSONL text between the two copies of a line's customer id.
_ID_TO_CUSTOMER = '", "customer_id": "'


@dataclass(frozen=True, slots=True)
class _Source:
    """What the touchpoints of one source (a campaign's views or its clicks)
    share: the prefix of their ids, the JSONL text before and after a line's
    customer id, which the timestamp follows, their (campaign_id, channel,
    ad_product) and their kind."""

    id_prefix: str
    head: str
    tail: str
    labels: tuple[str, str, str]
    kind: InteractionKind


def _touchpoint_source(spec: CampaignSpec, kind: InteractionKind) -> _Source:
    prefix = f"{'K' if kind is InteractionKind.CLICK else 'V'}-{spec.campaign_id}-"
    labels = (spec.campaign_id, spec.channel, spec.ad_product)
    campaign, channel, ad_product = map(json.dumps, labels)
    return _Source(
        prefix,
        '{"touchpoint_id": ' + json.dumps(prefix)[:-1],
        f'", "campaign_id": {campaign}, "channel": {channel}, "ad_product": {ad_product}, '
        f'"interaction_kind": "{kind.value}", "timestamp": "',
        labels,
        kind,
    )


@dataclass(frozen=True, eq=False)
class EventLog:
    """Simulated touchpoints as columns, in log order.

    Row ``r`` is a touchpoint of ``sources[source[r]]`` for customer index
    ``customer[r]``, ``ms[r]`` milliseconds after ``SIM_EPOCH``.
    ``write_jsonl`` writes the lines that ``json.dumps`` of their wire
    records would, and ``touchpoint_table`` gives them as a table, neither
    building touchpoint objects.
    """

    ms: np.ndarray
    source: np.ndarray
    customer: np.ndarray
    sources: tuple[_Source, ...]

    def __len__(self) -> int:
        return len(self.ms)

    def touchpoint_table(self) -> TouchpointTable:
        """This log's touchpoints as a table, built from the columns without
        event objects."""
        sources = self.sources
        seen = np.bincount(self.customer) > 0
        person = (np.cumsum(seen) - 1)[self.customer]
        names = list(map(_CUSTOMER_ID, np.flatnonzero(seen).tolist()))
        prefixes = [s.id_prefix for s in sources]
        prefix_len = np.array([len(prefix) for prefix in prefixes], np.int64)
        name_len = np.array([len(name) for name in names], np.int64)
        ids = PackedStrings.join(
            map(
                str.__add__,
                map(prefixes.__getitem__, self.source.tolist()),
                map(names.__getitem__, person.tolist()),
            ),
            [prefix_len[self.source] + name_len[person]],
        )
        customer, customers = label_codes(names)
        labels = [label_codes([s.labels[k] for s in sources]) for k in range(3)]
        is_click = np.array([s.kind is InteractionKind.CLICK for s in sources], dtype=bool)
        stamps = (_EPOCH_MS + self.ms).astype("datetime64[us]")
        return TouchpointTable(
            ids,
            customer[person],
            *(codes[self.source] for codes, _ in labels),
            is_click[self.source],
            stamps.view(np.int64),
            customers,
            *(vocabulary for _, vocabulary in labels),
        )

    def write_jsonl(self, fh: IO[str]) -> None:
        """Write one JSONL line per touchpoint, ``_CHUNK_ROWS`` lines at a time."""
        for start in range(0, len(self), _CHUNK_ROWS):
            rows = slice(start, start + _CHUNK_ROWS)
            sources = map(self.sources.__getitem__, self.source[rows].tolist())
            ids = map(_CUSTOMER_ID, self.customer[rows].tolist())
            stamps = np.datetime_as_string(_EPOCH_MS + self.ms[rows], unit="ms").tolist()
            fh.write(
                "".join(
                    f'{s.head}{cid}{_ID_TO_CUSTOMER}{cid}{s.tail}{ts}Z"}}\n'
                    for s, cid, ts in zip(sources, ids, stamps)
                )
            )


def _touchpoint_log(draws: _SimDraws) -> EventLog:
    """Every view and click, sorted by (timestamp, touchpoint_id): by
    millisecond, then by id string among the rows that share one."""
    sources: list[_Source] = []
    columns = [(np.empty(0, np.int64),) * 3]
    for cd in draws.campaigns:
        for kind, mask, times in (
            (InteractionKind.VIEW, cd.exposed, cd.view_ms),
            (InteractionKind.CLICK, cd.clicked, cd.click_ms),
        ):
            rows = np.flatnonzero(mask)
            columns.append((times, np.full(len(rows), len(sources)), rows))
            sources.append(_touchpoint_source(cd.spec, kind))
    ms, source, customer = map(np.concatenate, zip(*columns))

    order = np.argsort(ms, kind="stable")
    bounds = np.flatnonzero(np.diff(ms[order])) + 1
    starts, ends = np.r_[0, bounds], np.r_[bounds, len(ms)]
    tied = ends - starts > 1
    for start, end in zip(starts[tied].tolist(), ends[tied].tolist()):
        run = order[start:end].tolist()
        ids = [
            sources[s].id_prefix + _CUSTOMER_ID(i)
            for s, i in zip(source[run].tolist(), customer[run].tolist())
        ]
        order[start:end] = [r for _, r in sorted(zip(ids, run))]
    return EventLog(ms[order], source[order], customer[order], tuple(sources))


def _conversions(draws: _SimDraws) -> ConversionTable:
    """Every conversion, sorted by timestamp, then customer index."""
    rows = np.flatnonzero(draws.converted)
    rows = rows[np.argsort(draws.conv_ms[rows], kind="stable")]
    ids = customer_ids(draws.config.n_customers)
    stamps = (_EPOCH_MS + draws.conv_ms[rows]).astype("datetime64[us]").view(np.int64).tolist()
    return ConversionTable.from_rows(
        [("X-" + ids[i], ids[i], us, 1) for i, us in zip(rows.tolist(), stamps)])


class Simulation(tuple):
    """``(touchpoints, conversions, ground_truth)`` of one simulated run, plus
    ``clamped_fraction``: the share of customers whose conversion
    probability exceeded 1 and was clamped."""

    clamped_fraction: float

    def __new__(
        cls,
        touchpoints: EventLog,
        conversions: ConversionTable,
        ground_truth: list[GroundTruthRow],
        clamped_fraction: float,
    ) -> Simulation:
        self = super().__new__(cls, (touchpoints, conversions, ground_truth))
        self.clamped_fraction = clamped_fraction
        return self


def simulate(config: SimConfig) -> Simulation:
    """Generate the event log and the exact ground-truth table for a config.

    Holdout customers receive no touchpoints from their held-out campaign.
    Each exposure emits one view touchpoint and, with probability
    ``click_rate``, a click shortly after. The touchpoints are an
    :class:`EventLog` sorted by timestamp, then touchpoint id; the
    conversions a ``ConversionTable`` sorted by timestamp, then customer.
    Both are byte-stable for a fixed config.
    """
    draws = _simulate_core(config)
    return Simulation(
        _touchpoint_log(draws), _conversions(draws), draws.ground_truth(), draws.clamped_fraction
    )


def lift_from_counts(
    campaign_id: str,
    *,
    n_treatment: int,
    n_holdout: int,
    conv_treatment: float,
    conv_holdout: float,
) -> RctResult:
    """Incremental conversions on the treatment scale, with a two-proportion
    standard error and a 95% normal confidence interval."""
    if n_treatment <= 0 or n_holdout <= 0:
        raise DegenerateDesignError(
            f"{campaign_id}: both groups must be nonempty "
            f"(n_treatment={n_treatment}, n_holdout={n_holdout})"
        )
    p_t = conv_treatment / n_treatment
    p_h = conv_holdout / n_holdout
    incremental = conv_treatment - (n_treatment / n_holdout) * conv_holdout
    variance = p_t * (1.0 - p_t) / n_treatment + p_h * (1.0 - p_h) / n_holdout
    std_error = n_treatment * float(np.sqrt(max(variance, 0.0)))
    return RctResult(
        campaign_id=campaign_id,
        n_treatment=n_treatment,
        n_holdout=n_holdout,
        conv_treatment=conv_treatment,
        conv_holdout=conv_holdout,
        incremental_conversions=incremental,
        std_error=std_error,
        ci_low=incremental - _Z95 * std_error,
        ci_high=incremental + _Z95 * std_error,
    )


def _lift(
    campaign_id: str, treated: np.ndarray, holdout: np.ndarray, units: np.ndarray
) -> RctResult:
    """The RCT contrast from per-customer arm masks and converted units.

    Units are integer-valued, so every sum is exact whatever its order.
    """
    return lift_from_counts(
        campaign_id,
        n_treatment=int(np.count_nonzero(treated)),
        n_holdout=int(np.count_nonzero(holdout)),
        conv_treatment=float(np.sum(units[treated])),
        conv_holdout=float(np.sum(units[holdout])),
    )


def _customer_units(customers: Iterable[str], conversions: ConversionTable) -> np.ndarray:
    """Converted units per customer, in ``customers`` order; conversions of
    anyone else are ignored. Units are summed in conversion order."""
    index = {cid: i for i, cid in enumerate(customers)}
    # Anyone else is counted in one extra slot, which is dropped.
    position = np.array([index.get(cid, len(index)) for cid in conversions.customers], np.intp)
    return np.bincount(position[conversions.customer], conversions.units, len(index) + 1)[:-1]


def estimate_lift(
    assignment: Mapping[str, str],
    conversions: ConversionTable,
    campaign_id: str,
) -> RctResult:
    """Estimate a campaign's incremental conversions from an assignment map
    and the observed conversions."""
    arms = np.array(list(assignment.values()), dtype=str)
    units = _customer_units(assignment, conversions)
    return _lift(campaign_id, arms == TREATMENT, arms == HOLDOUT, units)


def estimate_all(config: SimConfig, conversions: ConversionTable) -> dict[str, RctResult]:
    """Reconstruct assignments from the config and estimate every RCT campaign."""
    hashes = population_hashes(config.n_customers)
    units = _customer_units(customer_ids(config.n_customers), conversions)
    results: dict[str, RctResult] = {}
    for spec in config.campaigns:
        if not spec.is_rct:
            continue
        holdout = _held_out(config.seed, spec.campaign_id, hashes, spec.holdout_fraction)
        results[spec.campaign_id] = _lift(spec.campaign_id, ~holdout, holdout, units)
    return results


@dataclass(frozen=True, slots=True)
class ReplicationOutcome:
    seed: int
    campaign_id: str
    result: RctResult
    true_incremental: float


def replication_study(config: SimConfig, n_reps: int) -> list[ReplicationOutcome]:
    """Re-simulate the config under seeds seed..seed+n_reps-1 and pair each
    campaign's estimate with its exact ground truth.

    Runs on the vectorized core without materializing event objects, which
    keeps large calibration studies (hundreds of replications at 1e5
    customers) fast. The estimates are identical to running
    :func:`estimate_lift` on :func:`simulate` output.
    """
    outcomes: list[ReplicationOutcome] = []
    for rep in range(n_reps):
        cfg = replace(config, seed=config.seed + rep)
        draws = _simulate_core(cfg)
        truth = {row.campaign_id: row.true_incremental for row in draws.ground_truth()}
        for cd in draws.campaigns:
            campaign_id = cd.spec.campaign_id
            outcomes.append(
                ReplicationOutcome(
                    seed=cfg.seed,
                    campaign_id=campaign_id,
                    result=_lift(campaign_id, ~cd.holdout, cd.holdout, draws.converted),
                    true_incremental=truth[campaign_id],
                )
            )
    return outcomes
