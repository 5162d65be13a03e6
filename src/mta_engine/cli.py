"""Batch CLI: simulate | fit | attribute | report.

Each subcommand reads a JSON run config, consumes the previous stage's
artifacts from the output directory, and writes its own. Runs are fully
reproducible: identical config + seed produce byte-identical artifacts, and
every manifest embeds the SHA-256 of the effective config.

    mta simulate --config run.json
    mta fit --config run.json
    mta attribute --config run.json
    mta report --config run.json --format table

Global flags: --config PATH (required), --seed N (overrides the config
seed), --out DIR (overrides the output directory), --format {json,csv,table}
(stdout summary format). Log level comes from MTA_LOG_LEVEL
(error|warn|info|debug).

Exit codes: 0 success; 2 invalid config; 3 insufficient calibration data;
4 missing or unusable input artifact; 1 other pipeline errors. Failures
print a single ``ErrorClass: message`` line to stderr.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import timedelta
from itertools import groupby
from operator import attrgetter, getitem, itemgetter
from pathlib import Path
from typing import IO, Iterator, Sequence

from . import pipeline
from .attribution import MODEL_LTA, MODEL_MDA, MODEL_NAMES, DecayConfig, MdaHyperparams, MdaModel
from .calibration import CalibrationModel, CalibrationOptions, feature_rows_to_csv
from .credits import (
    DIMENSIONS,
    AttributionShareReport,
    MtaCredit,
    aggregate_shares,
    credit_totals,
    render_share_table,
    shares_from_totals,
)
from .errors import (
    ConfigError,
    InsufficientDataError,
    MissingArtifactError,
    MtaError,
    UnusableArtifactError,
)
from .events import LookbackWindow, build_journeys, parse_event_log
from .rct import CampaignSpec, RctResult, SimConfig, estimate_all, lift_from_counts, simulate

logger = logging.getLogger(__name__)

# The exit code of each error a command reports; any other MtaError exits 1.
EXIT_CODES = {
    ConfigError: 2,
    InsufficientDataError: 3,
    MissingArtifactError: 4,
    UnusableArtifactError: 4,
}

ARTIFACTS = {
    "touchpoints": "touchpoints.jsonl",
    "conversions": "conversions.jsonl",
    "ground_truth": "ground_truth.csv",
    "rct_results": "rct_results.csv",
    "calibration_model": "calibration_model.json",
    "mda_model": "mda_model.json",
    "campaign_features": "campaign_features.csv",
    "mta_credits": "mta_credits.csv",
    "model_credits": "model_credits.csv",
    "attribution_summary": "attribution_summary.json",
    "shares_json": "attribution_shares.json",
    "shares_table": "attribution_shares.txt",
}

# CSV columns are the fields of the record each row holds, in field order;
# csv writes a float as its repr, which reads back exactly.
RCT_RESULT_COLUMNS = (
    "campaign_id",
    "n_treatment",
    "n_holdout",
    "conv_treatment",
    "conv_holdout",
    "incremental_conversions",
    "std_error",
    "ci_low",
    "ci_high",
)

MTA_CREDIT_COLUMNS = (
    "conversion_id",
    "touchpoint_id",
    "campaign_id",
    "channel",
    "ad_product",
    "credit",
)


@dataclass
class RunConfig:
    """Validated run configuration (see README for the JSON schema)."""

    seed: int
    out_dir: Path
    lookback: LookbackWindow
    decay: DecayConfig
    mda_hyper: MdaHyperparams
    mda_max_negatives: int | None
    calibration: CalibrationOptions
    cv_folds: int
    cv_seed: int
    report_dimension: str
    sim: SimConfig | None
    paths: dict[str, Path] = field(default_factory=dict)
    raw: dict = field(default_factory=dict)

    def artifact(self, name: str) -> Path:
        if name in self.paths:
            return self.paths[name]
        return self.out_dir / ARTIFACTS[name]

    def config_hash(self) -> str:
        canonical = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _section(raw: dict, key: str) -> dict:
    value = raw.get(key, {})
    _require(isinstance(value, dict), f"{key} must be an object, got {json.dumps(value)}")
    return value


def _flag(raw: dict, key: str, default: bool, path: str) -> bool:
    value = raw.get(key, default)
    _require(isinstance(value, bool), f"{path} must be true or false, got {json.dumps(value)}")
    return value


def _campaign_from_dict(index: int, data: dict) -> CampaignSpec:
    try:
        return CampaignSpec(
            campaign_id=str(data["campaign_id"]),
            channel=str(data["channel"]),
            ad_product=str(data.get("ad_product", "default")),
            exposure_rate=float(data["exposure_rate"]),
            click_rate=float(data.get("click_rate", 0.0)),
            true_lift=float(data["true_lift"]),
            holdout_fraction=float(data.get("holdout_fraction", 0.1)),
            is_rct=_flag(data, "is_rct", True, f"simulation.campaigns[{index}].is_rct"),
            view_window=tuple(data.get("view_window", (0.0, 0.7))),
        )
    except KeyError as exc:
        raise ConfigError(f"simulation.campaigns[{index}] is missing field {exc.args[0]!r}") from None


def load_run_config(path: Path, seed_override: int | None, out_override: Path | None) -> RunConfig:
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    _require(isinstance(raw, dict), "config must be a JSON object")
    try:
        return _run_config_from_dict(raw, seed_override, out_override)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"malformed config value: {exc}") from None


def _run_config_from_dict(
    raw: dict, seed_override: int | None, out_override: Path | None
) -> RunConfig:
    seed = int(seed_override if seed_override is not None else raw.get("seed", 0))
    out_dir = Path(out_override if out_override is not None else raw.get("out_dir", "out"))

    lookback_days = float(raw.get("lookback_days", 7.0))
    _require(lookback_days > 0, f"lookback_days must be positive, got {lookback_days}")
    half_life_days = float(raw.get("decay_half_life_days", 3.0))
    _require(half_life_days > 0, f"decay_half_life_days must be positive, got {half_life_days}")

    mda_raw = _section(raw, "mda")
    mda_hyper = MdaHyperparams(
        learning_rate=float(mda_raw.get("learning_rate", 0.5)),
        iterations=int(mda_raw.get("iterations", 400)),
        seed=int(mda_raw.get("seed", 0)),
    )
    _require(mda_hyper.learning_rate > 0, "mda.learning_rate must be positive")
    _require(mda_hyper.iterations >= 1, "mda.iterations must be >= 1")
    max_negatives = mda_raw.get("max_negatives")
    max_negatives = int(max_negatives) if max_negatives is not None else None
    _require(
        max_negatives is None or max_negatives >= 0,
        f"mda.max_negatives must be >= 0, got {max_negatives}",
    )

    cal_raw = _section(raw, "calibration")
    features = cal_raw.get("features", ["lta", "mda"])
    _require(
        isinstance(features, list) and features,
        "calibration.features must be a non-empty list",
    )
    for name in features:
        _require(name in MODEL_NAMES, f"calibration.features: unknown model {name!r}")
    calibration = CalibrationOptions(
        feature_models=tuple(features),
        pooling=str(cal_raw.get("pooling", "global")),
        intercept=_flag(cal_raw, "intercept", False, "calibration.intercept"),
        inverse_variance_weighting=_flag(
            cal_raw, "inverse_variance_weighting", False, "calibration.inverse_variance_weighting"
        ),
    )
    cv_folds = int(cal_raw.get("cv_folds", 5))
    _require(cv_folds >= 2, f"calibration.cv_folds must be >= 2, got {cv_folds}")
    cv_seed = int(cal_raw.get("cv_seed", 0))

    dimension = str(raw.get("report_dimension", "channel"))
    _require(dimension in DIMENSIONS, f"report_dimension must be one of {DIMENSIONS}, got {dimension!r}")

    sim = None
    if "simulation" in raw:
        sim_raw = _section(raw, "simulation")
        campaigns_raw = sim_raw.get("campaigns", [])
        _require(
            isinstance(campaigns_raw, list),
            f"simulation.campaigns must be an array, got {json.dumps(campaigns_raw)}",
        )
        campaigns = tuple(_campaign_from_dict(i, c) for i, c in enumerate(campaigns_raw))
        sim = SimConfig(
            n_customers=int(sim_raw.get("n_customers", 0)),
            campaigns=campaigns,
            baseline_conversion_rate=float(sim_raw.get("baseline_conversion_rate", 0.02)),
            seed=seed,
            horizon=timedelta(days=float(sim_raw.get("horizon_days", 14.0))),
        )

    paths = {
        name: Path(value) for name, value in _section(raw, "paths").items() if name in ARTIFACTS
    }

    effective = dict(raw)
    effective["seed"] = seed
    effective["out_dir"] = str(out_dir)
    return RunConfig(
        seed=seed,
        out_dir=out_dir,
        lookback=LookbackWindow(timedelta(days=lookback_days)),
        decay=DecayConfig(timedelta(days=half_life_days)),
        mda_hyper=mda_hyper,
        mda_max_negatives=max_negatives,
        calibration=calibration,
        cv_folds=cv_folds,
        cv_seed=cv_seed,
        report_dimension=dimension,
        sim=sim,
        paths=paths,
        raw=effective,
    )


def _write_manifest(cfg: RunConfig, command: str, outputs: Sequence[str], **blocks: dict) -> Path:
    manifest = {
        "command": command,
        "seed": cfg.seed,
        "config_sha256": cfg.config_hash(),
        "outputs": {name: str(cfg.artifact(name)) for name in outputs},
        **blocks,
    }
    path = cfg.out_dir / f"manifest_{command}.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return path


def _open_input(path: Path) -> IO[str]:
    if not path.exists():
        raise MissingArtifactError(f"required input {path} does not exist; run the earlier stage first")
    return path.open()


@contextmanager
def _decoding(path: Path) -> Iterator[None]:
    """Report a failure to decode the input artifact at ``path`` as one
    :class:`UnusableArtifactError` naming the artifact."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        what = f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)
        raise UnusableArtifactError(f"{path}: {what}") from None


def _parse_input(path: Path):
    """Parse an event log, as CSV when its name ends in ``.csv``, else as JSONL."""
    with _open_input(path) as fh, _decoding(path):
        return parse_event_log(fh, "csv" if path.suffix.lower() == ".csv" else "jsonl")


def _load_journeys(cfg: RunConfig):
    """Every journey of the event logs, the attributable ones, and the
    manifest's ``counts`` block: records read, lines skipped, journeys, and
    attributable and unattributed conversions."""
    touchpoints = _parse_input(cfg.artifact("touchpoints"))
    conversions = _parse_input(cfg.artifact("conversions"))
    journeys = build_journeys(touchpoints.touchpoints, conversions.conversions, cfg.lookback)
    attributable, unattributed = pipeline.split_attributable(journeys)
    counts = {
        "touchpoints": len(touchpoints.touchpoints),
        "conversions": len(conversions.conversions),
        "lines_skipped": touchpoints.skipped + conversions.skipped,
        "journeys": len(journeys),
        "attributable_conversions": len(attributable),
        "unattributed_conversions": unattributed,
    }
    return journeys, attributable, counts


def _write_rct_results(results: dict[str, RctResult], path: Path) -> None:
    with path.open("w") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RCT_RESULT_COLUMNS)
        row = attrgetter(*RCT_RESULT_COLUMNS)
        writer.writerows(row(results[campaign_id]) for campaign_id in sorted(results))


def _read_rct_results(path: Path) -> dict[str, RctResult]:
    results: dict[str, RctResult] = {}
    with _open_input(path) as fh, _decoding(path):
        for record in csv.DictReader(fh):
            results[record["campaign_id"]] = lift_from_counts(
                record["campaign_id"],
                n_treatment=int(record["n_treatment"]),
                n_holdout=int(record["n_holdout"]),
                conv_treatment=float(record["conv_treatment"]),
                conv_holdout=float(record["conv_holdout"]),
            )
    return results


def _emit(args, payload: dict, table: str, csv_text: str | None = None) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    elif args.format == "csv":
        if csv_text is None:
            lines = ["key,value"]
            for key, value in payload.items():
                lines.append(f"{key},{json.dumps(value) if isinstance(value, dict) else value}")
            csv_text = "\n".join(lines)
        print(csv_text)
    else:
        print(table)


def cmd_simulate(cfg: RunConfig, args) -> int:
    if cfg.sim is None:
        raise ConfigError("config has no 'simulation' section")
    simulation = simulate(cfg.sim)
    touchpoints, conversions, ground_truth = simulation
    # Everything is computed before the first artifact is opened, so a run
    # that fails leaves the previous run's artifact set whole.
    results = estimate_all(cfg.sim, conversions)

    with cfg.artifact("touchpoints").open("w") as fh:
        touchpoints.write_jsonl(fh)
    with cfg.artifact("conversions").open("w") as fh:
        conversions.write_jsonl(fh)
    with cfg.artifact("ground_truth").open("w") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["campaign_id", "true_incremental", "n_treatment", "n_holdout"])
        for row in ground_truth:
            writer.writerow(
                [row.campaign_id, repr(row.true_incremental), row.n_treatment, row.n_holdout]
            )
    _write_rct_results(results, cfg.artifact("rct_results"))
    payload = {
        "touchpoints": len(touchpoints),
        "conversions": len(conversions),
        "campaigns": len(cfg.sim.campaigns),
        "rct_campaigns": len(results),
    }
    _write_manifest(
        cfg,
        "simulate",
        ["touchpoints", "conversions", "ground_truth", "rct_results"],
        counts={k: v for k, v in payload.items() if k != "campaigns"},
        diagnostics={"clamped_fraction": simulation.clamped_fraction},
    )

    table = "\n".join(f"{k}: {v}" for k, v in payload.items())
    _emit(args, payload, table)
    return 0


def cmd_fit(cfg: RunConfig, args) -> int:
    if cfg.sim is None:
        raise ConfigError("config has no 'simulation' section (campaign list is required to fit)")
    rct_results = _read_rct_results(cfg.artifact("rct_results"))
    journeys, attributable, counts = _load_journeys(cfg)

    mda = pipeline.train_attributor(journeys, cfg.mda_hyper, cfg.mda_max_negatives)
    credits_by_model = pipeline.ensemble_credits(
        attributable, cfg.calibration.feature_models, cfg.decay, mda
    )
    rows = pipeline.calibration_rows(
        credits_by_model, cfg.sim.campaigns, rct_results, cfg.calibration.feature_models
    )
    model = pipeline.fit_with_cv(rows, cfg.calibration, cfg.cv_folds, cfg.cv_seed)

    cfg.artifact("calibration_model").write_text(model.to_json())
    if mda is not None:
        cfg.artifact("mda_model").write_text(mda.to_json())
    with cfg.artifact("campaign_features").open("w") as fh:
        feature_rows_to_csv(rows, fh)
    outputs = ["calibration_model", "campaign_features"]
    if mda is not None:
        outputs.append("mda_model")
    _write_manifest(cfg, "fit", outputs, counts=counts)

    payload = {
        "weights": {g: dict(zip(model.feature_names, w)) for g, w in model.weights_by_group.items()},
        "diagnostics": model.fit_diagnostics,
        "cv_metrics": model.cv_metrics,
        "unattributed_conversions": counts["unattributed_conversions"],
    }
    lines = ["group  model  weight"]
    for group in sorted(model.weights_by_group):
        for name, weight in zip(model.feature_names, model.weights_by_group[group]):
            lines.append(f"{group}  {name}  {weight:.6f}")
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_attribute(cfg: RunConfig, args) -> int:
    model_path, mda_path = cfg.artifact("calibration_model"), cfg.artifact("mda_model")
    with _open_input(model_path) as fh, _decoding(model_path):
        model = CalibrationModel.from_json(fh.read())
    mda = None
    if mda_path.exists():
        with _decoding(mda_path):
            mda = MdaModel.from_json(mda_path.read_text())

    _, attributable, counts = _load_journeys(cfg)
    unattributed = counts["unattributed_conversions"]
    credits_by_model = pipeline.ensemble_credits(attributable, MODEL_NAMES, cfg.decay, mda)
    mta_credits = pipeline.score_all(model, attributable, credits_by_model)
    records = pipeline.model_credit_records(credits_by_model)

    with cfg.artifact("mta_credits").open("w") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(MTA_CREDIT_COLUMNS)
        writer.writerows(map(attrgetter(*MTA_CREDIT_COLUMNS), mta_credits))
    with cfg.artifact("model_credits").open("w") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["model", *MTA_CREDIT_COLUMNS])
        fields = attrgetter(*MTA_CREDIT_COLUMNS)
        writer.writerows((name, *fields(row)) for name, row in records)
    summary = {
        "conversions": len(attributable) + unattributed,
        "attributed_conversions": len(attributable),
        "unattributed_conversions": unattributed,
        "mta_credit_rows": len(mta_credits),
    }
    cfg.artifact("attribution_summary").write_text(json.dumps(summary, indent=2, sort_keys=True))
    _write_manifest(
        cfg, "attribute", ["mta_credits", "model_credits", "attribution_summary"], counts=counts
    )
    _emit(args, summary, "\n".join(f"{k}: {v}" for k, v in summary.items()))
    return 0


def _read_mta_credits(path: Path) -> list[MtaCredit]:
    labels = itemgetter(*MTA_CREDIT_COLUMNS[:-1])
    with _open_input(path) as fh, _decoding(path):
        return [MtaCredit(*labels(row), float(row["credit"])) for row in csv.DictReader(fh)]


def _report_to_dict(report: AttributionShareReport) -> dict:
    return {
        "dimension": report.dimension,
        "rows": [
            {"value": r.value, "total_credit": r.total_credit, "share": r.share}
            for r in report.rows
        ],
        "unattributed_conversions": report.unattributed_conversions,
        "zero_total": report.zero_total,
    }


# Single-model share columns shown beside the calibrated shares.
_COMPARED_MODELS = (MODEL_LTA, MODEL_MDA)


def cmd_report(cfg: RunConfig, args) -> int:
    credits = _read_mta_credits(cfg.artifact("mta_credits"))
    unattributed = 0
    summary_path = cfg.artifact("attribution_summary")
    if summary_path.exists():
        with _decoding(summary_path):
            unattributed = int(json.loads(summary_path.read_text())["unattributed_conversions"])
    report = aggregate_shares(credits, cfg.report_dimension, unattributed)

    totals: dict[str, dict[str, float]] = {}
    model_credits_path = cfg.artifact("model_credits")
    if model_credits_path.exists():
        with model_credits_path.open() as fh, _decoding(model_credits_path):
            for name, rows in groupby(csv.DictReader(fh), itemgetter("model")):
                if name in _COMPARED_MODELS:
                    credit_totals(rows, cfg.report_dimension, getitem, totals.setdefault(name, {}))
    comparisons = {
        name: shares_from_totals(totals[name], cfg.report_dimension, unattributed)
        for name in _COMPARED_MODELS
        if name in totals
    }

    doc = _report_to_dict(report)
    doc["comparisons"] = {name: _report_to_dict(rep) for name, rep in comparisons.items()}
    cfg.artifact("shares_json").write_text(json.dumps(doc, indent=2, sort_keys=True))
    table = render_share_table(report, comparisons)
    cfg.artifact("shares_table").write_text(table + "\n")
    _write_manifest(cfg, "report", ["shares_json", "shares_table"])
    csv_lines = [f"{cfg.report_dimension},total_credit,share"]
    csv_lines += [f"{r.value},{r.total_credit!r},{r.share!r}" for r in report.rows]
    _emit(args, doc, table, "\n".join(csv_lines))
    return 0


COMMANDS = {
    "simulate": cmd_simulate,
    "fit": cmd_fit,
    "attribute": cmd_attribute,
    "report": cmd_report,
}

_LOG_LEVELS = {"error": "ERROR", "warn": "WARNING", "info": "INFO", "debug": "DEBUG"}


def _configure_logging() -> None:
    level = os.environ.get("MTA_LOG_LEVEL", "warn").lower()
    logging.basicConfig(level=getattr(logging, _LOG_LEVELS.get(level, "WARNING")))


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, type=Path, help="run config JSON")
    common.add_argument("--seed", type=int, default=None, help="override the config seed")
    common.add_argument("--out", type=Path, default=None, help="override the output directory")
    common.add_argument(
        "--format", choices=("json", "csv", "table"), default="table", help="stdout summary format"
    )
    parser = argparse.ArgumentParser(
        prog="mta", description="RCT-calibrated multi-touch attribution pipeline"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sub.add_parser(name, parents=[common])
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    _configure_logging()
    args = build_parser().parse_args(argv)
    try:
        cfg = load_run_config(args.config, args.seed, args.out)
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](cfg, args)
    except MtaError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CODES.get(type(exc), 1)


if __name__ == "__main__":
    raise SystemExit(main())
