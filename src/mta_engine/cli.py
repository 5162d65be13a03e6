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
4 missing or unusable input artifact; 1 any other error. Failures print a
single ``ErrorClass: message`` line to stderr, and the traceback only at
MTA_LOG_LEVEL=debug.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib
import json
import logging
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from datetime import timedelta
from itertools import groupby
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import IO, TYPE_CHECKING, Any, Callable, Iterator, Sequence

from .config import (
    MODEL_LTA, MODEL_MDA, MODEL_NAMES, CalibrationOptions, CampaignSpec, DecayConfig,
    LookbackWindow, SimConfig)
from .errors import (
    ConfigError, DataIntegrityError, DegenerateDesignError, InsufficientDataError,
    MissingArtifactError, ParseError, UnusableArtifactError)
from .shares import (  # noqa: F401  -- perfbench/tracing.py times report through aggregate_shares
    DIMENSION_FIELDS, DIMENSIONS, LABEL_FIELDS, AttributionShareReport, aggregate_shares,
    credit_totals, render_share_table, shares_from_totals)

if TYPE_CHECKING:
    from .attribution import ModelCredits

logger = logging.getLogger(__name__)

# The names this module uses from the numpy layers -> their module. They are
# imported on first access, so that config loading and ``report`` need no numpy;
# ``main`` binds them before running any other command.
_LAZY = {"pipeline": "pipeline", "MdaModel": "attribution", "CalibrationModel": "calibration",
         "campaign_codes": "calibration", "feature_rows_to_csv": "calibration",
         "parse_event_log": "events", "build_journeys": "events", "write_conversions": "events",
         "read_store": "events", "write_store": "events", "RctResult": "rct",
         "GroundTruthRow": "rct", "simulate": "rct", "estimate_all": "rct",
         "lift_from_counts": "rct"}


def __getattr__(name: str) -> Any:
    """A name of ``_LAZY``, imported and bound here. A binding made first, as the
    benchmark's tracer makes with ``setattr``, is kept: commands look names up here."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_LAZY[name]}", __package__)
    return globals().setdefault(name, module if name == _LAZY[name] else getattr(module, name))


# The exit code of each error a command reports; any other exception exits 1.
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
    "events": "events.npz",
}
# The event store, a cache of the parsed logs that only ``fit`` writes. It is
# always in the output directory: no ``paths`` key moves it.
EVENT_STORE = "events"

# A credit CSV's columns: a credit table's label fields, then the credit. CSV
# writes a float as its repr, which reads back exactly.
MTA_CREDIT_COLUMNS = (*LABEL_FIELDS, "credit")


@dataclass
class RunConfig:
    """Validated run configuration, read from JSON against ``CONFIG_KEYS``."""

    seed: int
    out_dir: Path
    lookback: LookbackWindow
    decay: DecayConfig
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


# json.loads's type for each JSON type but number, tested exactly: a boolean is no integer.
_JSON_TYPES = {"integer": int, "string": str, "boolean": bool, "array": list, "object": dict}


def _is(value: Any, json_type: str) -> bool:
    """Whether ``value``, from json.loads, has ``json_type``; a number is finite."""
    if json_type == "number":
        return type(value) in (int, float) and abs(value) <= sys.float_info.max
    return type(value) is _JSON_TYPES[json_type]


@dataclass(frozen=True)
class Key:
    """A config key: JSON type, default (``...``: must be given; ``None`` also admits null),
    range and its test, and the keys of an object, or of each object of an array."""

    type: str
    default: Any = ...
    range: str = ""
    valid: Callable[[Any], bool] = lambda value: True
    keys: dict[str, Key] | None = None


_DAYS = dict(range=f"> 0 and <= {timedelta.max.days}",
             valid=lambda d: 0 < d <= timedelta.max.days and timedelta(days=d) > timedelta(0))

# The ranges that SimConfig, CampaignSpec and CalibrationOptions check are left to them.
CAMPAIGN_KEYS = {
    "campaign_id": Key("string"),
    "channel": Key("string"),
    "ad_product": Key("string", "default"),
    "exposure_rate": Key("number"),
    "click_rate": Key("number", 0.0),
    "true_lift": Key("number"),
    "holdout_fraction": Key("number", 0.1),
    "is_rct": Key("boolean", True),
    "view_window": Key("array", [0.0, 0.7], "two numbers", lambda v: len(v) == 2
                       and all(_is(x, "number") for x in v)),
}

CONFIG_KEYS = {
    "seed": Key("integer", 0),
    "out_dir": Key("string", "out"),
    "lookback_days": Key("number", 7.0, **_DAYS),
    "decay_half_life_days": Key("number", 3.0, **_DAYS),
    "report_dimension": Key("string", "channel", f"one of {', '.join(DIMENSIONS)}",
                            lambda v: v in DIMENSIONS),
    # Gradient descent's options: checked so that configs that set them load, and unused.
    "mda": Key("object", {}, keys={
        "learning_rate": Key("number", 0.5, "> 0", lambda v: v > 0),
        "iterations": Key("integer", 400, ">= 1", lambda v: v >= 1),
        "seed": Key("integer", 0, ">= 0", lambda v: v >= 0),
        "max_negatives": Key("integer", None, ">= 0", lambda v: v >= 0),
    }),
    "calibration": Key("object", {}, keys={
        "features": Key("array", [MODEL_LTA, MODEL_MDA],
                        f"a non-empty list of distinct names among {', '.join(MODEL_NAMES)}",
                        lambda v: v != [] and all(n in MODEL_NAMES and v.count(n) == 1 for n in v)),
        "pooling": Key("string", "global"),
        "intercept": Key("boolean", False),
        "inverse_variance_weighting": Key("boolean", False),
        "cv_folds": Key("integer", 5, ">= 2", lambda v: v >= 2),
        "cv_seed": Key("integer", 0, ">= 0", lambda v: v >= 0),
    }),
    "simulation": Key("object", None, keys={
        "n_customers": Key("integer"),
        "baseline_conversion_rate": Key("number", 0.02),
        "horizon_days": Key("number", 14.0, **_DAYS),
        "campaigns": Key("array", [], keys=CAMPAIGN_KEYS),
    }),
    "paths": Key("object", {}, keys={name: Key("string", None) for name in ARTIFACTS
                                     if name != EVENT_STORE}),
}


def _read(value: Any, key: Key, path: str) -> Any:
    """``value``, the JSON value at dotted ``path``, checked against ``key``: an
    object as its keys' values, an array as a tuple, a number as a float."""
    if value is ...:
        raise ConfigError(f"{path} is required")
    if value is None and key.default is None:
        return None
    if not _is(value, key.type):
        null = " or null" if key.default is None else ""
        raise ConfigError(f"{path} must be a JSON {key.type}{null}, got {json.dumps(value)}")
    if not key.valid(value):
        raise ConfigError(f"{path} must be {key.range}, got {json.dumps(value)}")
    if key.type == "object":
        return _read_object(value, key.keys, f"{path}.")
    if key.type == "array":
        item = Key("object", keys=key.keys)
        return tuple(_read(v, item, f"{path}[{i}]") if key.keys else v for i, v in enumerate(value))
    if key.type == "number" and type(value) is int:
        return 1.0 * value  # the float the integer equals
    return value


def _read_object(obj: dict, keys: dict[str, Key], prefix: str = "") -> dict[str, Any]:
    """The value of each of ``keys`` in the JSON object ``obj``, or its default."""
    unknown = [name for name in obj if name not in keys]
    if unknown:
        raise ConfigError(f"{prefix}{unknown[0]} is not a config key")
    return {name: _read(obj.get(name, key.default), key, prefix + name) for name, key in keys.items()}


def _build(path: str, cls: Callable, *args: Any, **kwargs: Any) -> Any:
    """Build the config object at dotted ``path``; a ConfigError it raises gets ``path.`` first."""
    try:
        return cls(*args, **kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{path}.{exc}") from None


def load_run_config(path: Path, seed_override: int | None, out_override: Path | None) -> RunConfig:
    """The run config at ``path``, read against ``CONFIG_KEYS``; a ConfigError names what is wrong."""
    try:
        raw = json.loads(path.read_text())
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8, or not JSON
        raise ConfigError(f"config {path}: {getattr(exc, 'strerror', None) or exc}") from None
    if type(raw) is not dict:
        raise ConfigError("config must be a JSON object")
    values = _read_object(raw, CONFIG_KEYS)
    cal, sim = values["calibration"], values["simulation"]
    seed = values["seed"] if seed_override is None else seed_override
    out_dir = Path(values["out_dir"] if out_override is None else out_override)
    if sim is not None:
        campaigns = tuple(_build(f"simulation.campaigns[{i}]", CampaignSpec, **c)
                          for i, c in enumerate(sim["campaigns"]))
        sim = _build("simulation", SimConfig, sim["n_customers"], campaigns,
                     sim["baseline_conversion_rate"], seed, timedelta(days=sim["horizon_days"]))
    return RunConfig(
        seed=seed,
        out_dir=out_dir,
        lookback=LookbackWindow(timedelta(days=values["lookback_days"])),
        decay=DecayConfig(timedelta(days=values["decay_half_life_days"])),
        calibration=_build("calibration", CalibrationOptions, cal["features"], cal["pooling"],
                           cal["intercept"], cal["inverse_variance_weighting"]),
        cv_folds=cal["cv_folds"],
        cv_seed=cal["cv_seed"],
        report_dimension=values["report_dimension"],
        sim=sim,
        paths={name: Path(value) for name, value in values["paths"].items() if value is not None},
        raw={**raw, "seed": seed, "out_dir": str(out_dir)},
    )


def _write_outputs(cfg: RunConfig, command: str, outputs: dict[str, Any], **blocks: dict) -> None:
    """Write a stage's ``outputs`` (artifact name -> its text, or a writer of the
    open file), then ``manifest_<command>.json`` listing exactly those written.
    An output mapped to None, which this run did not produce, is removed, so
    that no later stage reads an earlier run's."""
    written = {}
    for name, content in outputs.items():
        path = cfg.artifact(name)
        if content is None:
            path.unlink(missing_ok=True)
            continue
        with path.open("wb" if name == EVENT_STORE else "w") as fh:
            if isinstance(content, str):
                fh.write(content)
            else:
                content(fh)
        written[name] = str(path)
    manifest = {"command": command, "seed": cfg.seed, "config_sha256": cfg.config_hash(),
                "outputs": written, **blocks}
    with (cfg.out_dir / f"manifest_{command}.json").open("w") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True))


def _csv_rows(cls: type, rows: Sequence) -> Callable[[IO[str]], None]:
    """A writer of ``rows``, instances of dataclass ``cls``, as CSV: a header of
    its field names, then a line of each row's fields in field order."""
    columns = [f.name for f in fields(cls)]
    return lambda fh: csv.writer(fh, lineterminator="\n").writerows(
        [columns, *map(attrgetter(*columns), rows)])


@contextmanager
def _reading(path: Path, *errors: type[Exception]) -> Iterator[IO[str]]:
    """The artifact at ``path``, open as UTF-8 with any leading byte-order mark
    dropped; failing to open or decode it (or ``errors``) names it."""
    if not path.exists():
        raise MissingArtifactError(f"required input {path} does not exist; run the earlier stage first")
    try:
        with path.open(encoding="utf-8-sig") as fh:
            yield fh
    except OSError as exc:
        raise UnusableArtifactError(f"{path}: {exc.strerror or exc}") from None
    except (AttributeError, KeyError, TypeError, ValueError, *errors) as exc:
        what = f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)
        raise UnusableArtifactError(f"{path}: {what}") from None


def _log_format(path: Path) -> str:
    """An event log's format: CSV when its name ends in ``.csv``, else JSONL."""
    return "csv" if path.suffix.lower() == ".csv" else "jsonl"


def _parse_input(path: Path):
    with _reading(path, ParseError) as fh:
        return parse_event_log(fh, _log_format(path))


def _store_key(cfg: RunConfig, logs: Sequence[Path]) -> str | None:
    """The event store's key for ``logs`` read with ``cfg``'s lookback: each
    log's SHA-256 and format, and the lookback in microseconds. None when a
    log cannot be read, which parsing it then reports."""
    digests = []
    for path in logs:
        digest = hashlib.sha256()  # hashlib.file_digest needs Python 3.11
        try:
            with path.open("rb") as fh:  # 1 MB chunks raised fit's peak RSS by 1.5 MB at 20k
                for chunk in iter(lambda: fh.read(1 << 16), b""):
                    digest.update(chunk)
        except OSError:
            return None
        digests.append([digest.hexdigest(), _log_format(path)])
    lookback_us = cfg.lookback.duration // timedelta(microseconds=1)
    return json.dumps({"logs": digests, "lookback_us": lookback_us})


def _load_journeys(cfg: RunConfig):
    """Every journey of the event logs, the attributable ones, the manifest's
    ``counts`` block (records read, lines skipped, journeys, and attributable
    and unattributed conversions) and a writer of the event store.

    The store (``events.npz`` in the output directory, which only ``fit``
    writes) is a hit when its key, the SHA-256 and format of each log and the
    lookback in microseconds, is exactly this run's and it reads back whole:
    the tables and journeys then come from it. On any other store, or none,
    both logs are parsed and the journeys built; a conversion record in the
    touchpoint log, or a touchpoint record in the conversion log, raises
    DataIntegrityError. A hit logs the same skipped-line warnings as the
    parse, and both give the same ``counts``."""
    logs = [cfg.artifact("touchpoints"), cfg.artifact("conversions")]
    key = _store_key(cfg, logs)
    stored = None if key is None else read_store(cfg.artifact(EVENT_STORE), key)
    if stored is None:
        touchpoints, conversions = map(_parse_input, logs)
        misplaced = ((logs[0], "touchpoint", touchpoints.conversions, "conversion"),
                     (logs[1], "conversion", conversions.touchpoints, "touchpoint"))
        for path, log, records, kind in misplaced:
            if len(records):
                raise DataIntegrityError(f"{path}: the {log} log holds {len(records)} {kind} "
                                         "record(s)")
        journeys = build_journeys(touchpoints.touchpoints, conversions.conversions, cfg.lookback)
        skipped = [touchpoints.skipped, conversions.skipped]
    else:
        journeys, skipped = stored
    attributable, unattributed = pipeline.split_attributable(journeys)
    counts = {
        "touchpoints": len(journeys.table),
        "conversions": len(journeys.conversions),
        "lines_skipped": sum(skipped),
        "journeys": len(journeys),
        "attributable_conversions": len(attributable),
        "unattributed_conversions": unattributed,
    }
    store = None if key is None else lambda fh: write_store(fh, key, journeys, skipped)
    return journeys, attributable, counts, store


def _read_rct_results(path: Path) -> dict[str, RctResult]:
    results: dict[str, RctResult] = {}
    with _reading(path, DegenerateDesignError) as fh:
        for record in csv.DictReader(fh):
            campaign_id = record["campaign_id"]
            if campaign_id in results:
                raise ValueError(f"campaign {campaign_id!r} appears more than once")
            counts = {name: int(record[name]) for name in ("n_treatment", "n_holdout")}
            counts |= {name: float(record[name]) for name in ("conv_treatment", "conv_holdout")}
            if not all(0 <= count <= sys.float_info.max for count in counts.values()):
                raise ValueError(f"campaign {campaign_id}: counts must be finite and >= 0, "
                                 f"got {counts}")
            result = lift_from_counts(campaign_id, **counts)
            lift = result.incremental_conversions, result.std_error
            if not all(map(math.isfinite, lift)):
                raise ValueError(f"campaign {campaign_id}: the counts give incremental conversions "
                                 f"{lift[0]} and standard error {lift[1]}, which are not both finite")
            results[campaign_id] = result
    return results


def _emit(args, payload: dict, table: str, csv_text: str | None = None) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    elif args.format == "csv":
        if csv_text is None:
            lines = ["key,value"]
            for key, value in payload.items():
                lines.append(f"{key},{json.dumps(value)}")
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
    payload = {
        "touchpoints": len(touchpoints),
        "conversions": len(conversions),
        "campaigns": len(cfg.sim.campaigns),
        "rct_campaigns": len(results),
    }
    outputs = {
        "touchpoints": touchpoints.write_jsonl,
        "conversions": lambda fh: write_conversions(fh, conversions),
        "ground_truth": _csv_rows(GroundTruthRow, ground_truth),
        "rct_results": _csv_rows(RctResult, [results[cid] for cid in sorted(results)]),
    }
    _write_outputs(cfg, "simulate", outputs,
                   counts={k: v for k, v in payload.items() if k != "campaigns"},
                   diagnostics={"clamped_fraction": simulation.clamped_fraction})

    table = "\n".join(f"{k}: {v}" for k, v in payload.items())
    _emit(args, payload, table)
    return 0


def cmd_fit(cfg: RunConfig, args) -> int:
    if cfg.sim is None:
        raise ConfigError("config has no 'simulation' section (campaign list is required to fit)")
    rct_results = _read_rct_results(cfg.artifact("rct_results"))
    journeys, attributable, counts, store = _load_journeys(cfg)

    mda = pipeline.train_attributor(journeys)
    credits = pipeline.ensemble_credits(attributable, cfg.calibration.feature_models, cfg.decay, mda)
    rows = pipeline.calibration_rows(
        credits, cfg.sim.campaigns, rct_results, cfg.calibration.feature_models
    )
    model = pipeline.fit_with_cv(rows, cfg.calibration, cfg.cv_folds, cfg.cv_seed)

    outputs = {
        "calibration_model": model.to_json(),
        "mda_model": None if mda is None else mda.to_json(),
        "campaign_features": lambda fh: feature_rows_to_csv(rows, fh),
        EVENT_STORE: store,
    }
    _write_outputs(cfg, "fit", outputs, counts=counts)

    intercepts = model.intercept_by_group or {}
    payload = {
        "weights": {g: dict(zip(model.feature_names, w)) for g, w in model.weights_by_group.items()},
        "diagnostics": model.fit_diagnostics,
        "cv_metrics": model.cv_metrics,
        "unattributed_conversions": counts["unattributed_conversions"],
        **({"intercepts": intercepts} if intercepts else {}),
    }
    lines = ["group  model  weight"]
    for group in sorted(model.weights_by_group):
        for name, weight in zip(model.feature_names, model.weights_by_group[group]):
            lines.append(f"{group}  {name}  {weight:.6f}")
        if group in intercepts:
            lines.append(f"{group}  intercept  {intercepts[group]:.6f}")
    _emit(args, payload, "\n".join(lines))
    return 0


# Lines of a credit CSV built per write: bounds the text held at once.
_WRITE_ROWS = 4096


def _plain_prefixes(rows: Sequence[tuple[str, ...]]) -> list[str] | None:
    """Each row's fields joined by commas, with a comma after the last: the
    text csv.writer writes for them, or None when some field needs quoting."""
    prefixes = [",".join((*row, "")) for row in rows]
    text = "".join(prefixes)
    if any(c in text for c in '"\r\n') or text.count(",") != sum(map(len, rows)):
        return None
    return prefixes


def _write_credit_csv(fh: IO[str], table: ModelCredits, prefixes, by_model: bool) -> None:
    """Write each column's credits (``table.scaled``) as csv.writer writes them, led
    by the column's name when ``by_model``. If no field needs quoting, each line is
    a lead, a prefix (``_plain_prefixes(table.labels)``) and a repr."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(("model",) * by_model + MTA_CREDIT_COLUMNS)
    leads = [(name,) * by_model for name in table.columns]
    plain_leads = None if prefixes is None else _plain_prefixes(leads)
    for k, name in enumerate(table.columns):
        column = table.scaled(name)
        for start in range(0, len(table.labels), _WRITE_ROWS):
            chunk = slice(start, start + _WRITE_ROWS)
            credits = column[chunk].tolist()
            if plain_leads is None:
                rows = zip(table.labels[chunk], credits)
                writer.writerows((*leads[k], *label, credit) for label, credit in rows)
            else:
                lead, lines = plain_leads[k], zip(prefixes[chunk], credits)
                fh.write("".join([f"{lead}{prefix}{credit!r}\n" for prefix, credit in lines]))


def cmd_attribute(cfg: RunConfig, args) -> int:
    model_path, mda_path = cfg.artifact("calibration_model"), cfg.artifact("mda_model")
    with _reading(model_path, ConfigError) as fh:
        model = CalibrationModel.from_json(fh.read())
    mda = None
    if mda_path.exists():
        with _reading(mda_path) as fh:
            mda = MdaModel.from_json(fh.read())

    _, attributable, counts, _ = _load_journeys(cfg)
    unattributed = counts["unattributed_conversions"]
    credits = pipeline.ensemble_credits(attributable, MODEL_NAMES, cfg.decay, mda)
    if cfg.sim is not None:  # a listed campaign is required, as fit requires it
        campaign_codes(credits, cfg.sim.campaigns)
    mta_credits = pipeline.score_all(model, credits)
    records = pipeline.model_credit_records(credits)

    prefixes = _plain_prefixes(credits.labels)
    summary = {
        "conversions": len(attributable) + unattributed,
        "attributed_conversions": len(attributable),
        "unattributed_conversions": unattributed,
        "mta_credit_rows": len(mta_credits),
    }
    outputs = {
        "mta_credits": lambda fh: _write_credit_csv(fh, mta_credits, prefixes, by_model=False),
        "model_credits": lambda fh: _write_credit_csv(fh, records, prefixes, by_model=True),
        "attribution_summary": json.dumps(summary, indent=2, sort_keys=True),
    }
    _write_outputs(cfg, "attribute", outputs, counts=counts)
    _emit(args, summary, "\n".join(f"{k}: {v}" for k, v in summary.items()))
    return 0


def _credit_csv(fh: IO[str]) -> tuple[Iterator[list[str]], Callable]:
    """A credit CSV's non-blank rows after its header, and the getter of columns by name."""
    rows = filter(None, csv.reader(fh))
    index = {name: i for i, name in enumerate(next(rows, ()))}
    return rows, lambda *names: itemgetter(*[index[name] for name in names])


# Single-model share columns shown beside the calibrated shares.
_COMPARED_MODELS = (MODEL_LTA, MODEL_MDA)


def cmd_report(cfg: RunConfig, args) -> int:
    unattributed = 0
    summary_path = cfg.artifact("attribution_summary")
    if summary_path.exists():
        with _reading(summary_path) as fh:
            unattributed = json.load(fh)["unattributed_conversions"]
            if type(unattributed) is not int or unattributed < 0:
                raise ValueError(f"unattributed_conversions {unattributed!r} is no integer >= 0")
    value_field = DIMENSION_FIELDS[cfg.report_dimension]
    with _reading(cfg.artifact("mta_credits"), IndexError) as fh:
        rows, columns = _credit_csv(fh)
        mta_totals = credit_totals(map(columns(value_field, "credit"), rows))
        report = shares_from_totals(mta_totals, cfg.report_dimension, unattributed)

    comparisons: dict[str, AttributionShareReport] = {}
    model_credits_path = cfg.artifact("model_credits")
    if model_credits_path.exists():
        with _reading(model_credits_path, IndexError) as fh:
            rows, columns = _credit_csv(fh)
            totals: dict[str, dict[str, float]] = {}
            for name, group in groupby(rows, columns("model")):
                if name in _COMPARED_MODELS:
                    pairs = map(columns(value_field, "credit"), group)
                    credit_totals(pairs, totals.setdefault(name, {}))
            comparisons = {
                name: shares_from_totals(totals[name], cfg.report_dimension, unattributed)
                for name in _COMPARED_MODELS
                if name in totals
            }

    doc = asdict(report)
    doc["comparisons"] = {name: asdict(rep) for name, rep in comparisons.items()}
    table = render_share_table(report, comparisons)
    outputs = {"shares_json": json.dumps(doc, indent=2, sort_keys=True), "shares_table": table + "\n"}
    _write_outputs(cfg, "report", outputs)
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
        if args.command != "report":
            for name in _LAZY:
                __getattr__(name)
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](cfg, args)
    except Exception as exc:  # one line, whatever failed; the traceback only at debug
        logger.debug("%s failed", args.command, exc_info=True)
        print(f"{type(exc).__name__}: {' '.join(str(exc).splitlines())}", file=sys.stderr)
        return EXIT_CODES.get(type(exc), 1)


if __name__ == "__main__":
    raise SystemExit(main())
