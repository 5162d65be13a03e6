"""Output checks on the artifacts of one pipeline pass.

Each check returns a list of failure messages; an empty list means the
artifacts are correct. The checks read only the files the CLI wrote and the
run config, and run outside the timed region.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import defaultdict
from pathlib import Path

from mta_engine import rct
from mta_engine.cli import load_run_config
from mta_engine.events import parse_event_log

CREDIT_TOL = 1e-9


def _rows(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _line_count(path: Path) -> int:
    with path.open("rb") as fh:
        return sum(1 for _ in fh)


def artifact_digests(out_dir: Path) -> dict[str, str]:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.iterdir())
    }


def stage_bytes(out_dir: Path, stage: str) -> int:
    """Bytes a stage wrote: its manifest plus every output the manifest lists."""
    manifest = out_dir / f"manifest_{stage}.json"
    outputs = json.loads(manifest.read_text())["outputs"].values()
    return manifest.stat().st_size + sum(Path(p).stat().st_size for p in outputs)


def _conversion_units(out_dir: Path) -> dict[str, int]:
    units = {}
    with (out_dir / "conversions.jsonl").open() as fh:
        for line in fh:
            record = json.loads(line)
            units[record["conversion_id"]] = int(record.get("units", 1))
    return units


def check_model_credits(out_dir: Path) -> list[str]:
    """Every model's credits for a conversion lie in [0, 1] and sum to 1
    (model_credits.csv stores credit x units)."""
    units = _conversion_units(out_dir)
    sums: dict[tuple[str, str], float] = defaultdict(float)
    failures = []
    for row in _rows(out_dir / "model_credits.csv"):
        n = units.get(row["conversion_id"])
        if n is None:
            failures.append(f"model_credits: unknown conversion {row['conversion_id']}")
            continue
        if n == 0:
            continue
        credit = float(row["credit"]) / n
        if not 0.0 <= credit <= 1.0 + CREDIT_TOL:
            failures.append(
                f"model_credits: {row['model']} credit {credit!r} for "
                f"{row['conversion_id']}/{row['touchpoint_id']} outside [0, 1]"
            )
        sums[row["model"], row["conversion_id"]] += credit
    for (model, conversion_id), total in sums.items():
        if abs(total - 1.0) > CREDIT_TOL:
            failures.append(f"model_credits: {model} credits for {conversion_id} sum to {total!r}")
    return failures


def check_reconciliation(out_dir: Path) -> list[str]:
    """Campaign sums of MTA credits equal the calibration model's campaign
    predictions from the fitted campaign features."""
    model = json.loads((out_dir / "calibration_model.json").read_text())
    names = model["feature_names"]
    intercepts = model.get("intercepts") or {}
    totals: dict[str, float] = defaultdict(float)
    for row in _rows(out_dir / "mta_credits.csv"):
        totals[row["campaign_id"]] += float(row["credit"])
    failures = []
    for row in _rows(out_dir / "campaign_features.csv"):
        group = "global" if model["pooling"] == "global" else row["channel"]
        weights = model["weights"].get(group, [0.0] * len(names))
        predicted = sum(w * float(row[name]) for name, w in zip(names, weights))
        predicted = max(0.0, predicted + intercepts.get(group, 0.0))
        actual = totals.get(row["campaign_id"], 0.0)
        if abs(actual - predicted) > CREDIT_TOL * max(1.0, abs(predicted)):
            failures.append(
                f"reconciliation: campaign {row['campaign_id']} MTA credits sum to "
                f"{actual!r}, calibration predicts {predicted!r}"
            )
    return failures


def check_shares(out_dir: Path) -> list[str]:
    doc = json.loads((out_dir / "attribution_shares.json").read_text())
    failures = []
    for name, report in [("mta", doc), *doc.get("comparisons", {}).items()]:
        total = sum(row["share"] for row in report["rows"])
        if not report["zero_total"] and abs(total - 1.0) > CREDIT_TOL:
            failures.append(f"shares: {name} shares sum to {total!r}")
    return failures


def check_row_counts(out_dir: Path, summaries: dict[str, dict]) -> list[str]:
    """Artifact row counts agree with the stage summaries and with each other."""
    sim = summaries["simulate"]
    attr = summaries["attribute"]
    expected = {
        "touchpoints.jsonl": (_line_count(out_dir / "touchpoints.jsonl"), sim["touchpoints"]),
        "conversions.jsonl": (_line_count(out_dir / "conversions.jsonl"), sim["conversions"]),
        "ground_truth.csv": (len(_rows(out_dir / "ground_truth.csv")), sim["campaigns"]),
        "rct_results.csv": (len(_rows(out_dir / "rct_results.csv")), sim["rct_campaigns"]),
        "attribute conversions": (attr["conversions"], sim["conversions"]),
        "mta_credits.csv": (len(_rows(out_dir / "mta_credits.csv")), attr["mta_credit_rows"]),
        "model_credits.csv": (
            len(_rows(out_dir / "model_credits.csv")),
            4 * attr["mta_credit_rows"] if (out_dir / "mda_model.json").exists()
            else 3 * attr["mta_credit_rows"],
        ),
    }
    return [
        f"row count: {name} has {got}, expected {want}"
        for name, (got, want) in expected.items()
        if got != want
    ]


def check_pass(out_dir: Path, summaries: dict[str, dict]) -> list[str]:
    return (
        check_model_credits(out_dir)
        + check_reconciliation(out_dir)
        + check_shares(out_dir)
        + check_row_counts(out_dir, summaries)
    )


def _same(result: rct.RctResult, row: dict) -> bool:
    fields = ("n_treatment", "n_holdout", "conv_treatment", "conv_holdout",
              "incremental_conversions", "std_error")
    return all(
        math.isclose(float(getattr(result, f)), float(row[f]), rel_tol=1e-12, abs_tol=1e-9)
        for f in fields
    )


def check_estimates(out_dir: Path, config_path: Path) -> list[str]:
    """rct_results.csv matches a one-seed replication study on the same
    config for every campaign, and ``estimate_lift`` on a reconstructed
    assignment for one campaign chosen by the seed."""
    sim = load_run_config(config_path, None, None).sim
    written = {row["campaign_id"]: row for row in _rows(out_dir / "rct_results.csv")}
    failures = []
    for outcome in rct.replication_study(sim, 1):
        row = written.get(outcome.campaign_id)
        if row is None or not _same(outcome.result, row):
            failures.append(f"estimates: replication_study disagrees on {outcome.campaign_id}")
    spec = sim.campaigns[sim.seed % len(sim.campaigns)]
    assignment = rct.assign_treatment(
        rct.customer_ids(sim.n_customers), spec.holdout_fraction, sim.seed, spec.campaign_id
    )
    with (out_dir / "conversions.jsonl").open() as fh:
        conversions = parse_event_log(fh, "jsonl").conversions
    reference = rct.estimate_lift(assignment, conversions, spec.campaign_id)
    if not _same(reference, written[spec.campaign_id]):
        failures.append(f"estimates: estimate_lift disagrees on {spec.campaign_id}")
    return failures


def share_error_pp(out_dir: Path, config: dict) -> float:
    """Max over channels of |calibrated share - ground-truth share| x 100."""
    channel_of = {c["campaign_id"]: c["channel"] for c in config["simulation"]["campaigns"]}
    truth: dict[str, float] = defaultdict(float)
    for row in _rows(out_dir / "ground_truth.csv"):
        truth[channel_of[row["campaign_id"]]] += float(row["true_incremental"])
    grand = sum(truth.values())
    shares = {
        row["value"]: row["share"]
        for row in json.loads((out_dir / "attribution_shares.json").read_text())["rows"]
    }
    return 100.0 * max(
        abs(shares.get(channel, 0.0) - truth.get(channel, 0.0) / grand)
        for channel in set(truth) | set(shares)
    )
