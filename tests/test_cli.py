import codecs
import csv
import dataclasses
import io
import json
import logging
import math
import os
import shutil
import subprocess
import sys
from datetime import timedelta
from operator import attrgetter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mta_engine import attribution, cli, events, rct
from mta_engine.cli import ARTIFACTS, MTA_CREDIT_COLUMNS, load_run_config, main
from mta_engine.attribution import ModelCredits
from mta_engine.config import (
    CalibrationOptions, CampaignSpec, DecayConfig, LookbackWindow, SimConfig)
from mta_engine.errors import UnusableArtifactError
from mta_engine.events import CONVERSION_FIELDS, TOUCHPOINT_FIELDS

from conftest import config_keys, credit_rows


def base_config(out_dir: Path, **overrides) -> dict:
    config = {
        "seed": 7,
        "out_dir": str(out_dir),
        "lookback_days": 7.0,
        "decay_half_life_days": 3.0,
        "report_dimension": "channel",
        "mda": {"learning_rate": 0.5, "iterations": 150, "seed": 0, "max_negatives": 5000},
        "calibration": {"features": ["lta", "mda"], "pooling": "global", "cv_folds": 4},
        "simulation": {
            "n_customers": 6000,
            "baseline_conversion_rate": 0.02,
            "horizon_days": 8.0,
            "campaigns": [
                {
                    "campaign_id": f"{ch}{i}",
                    "channel": "Upper" if ch == "up" else "Lower",
                    "ad_product": "display" if ch == "up" else "product_ad",
                    "exposure_rate": 0.3,
                    "click_rate": 0.05 if ch == "up" else 0.3,
                    "true_lift": 0.02 if ch == "up" else 0.06,
                    "holdout_fraction": 0.5,
                    "is_rct": True,
                    "view_window": [0.05, 0.4] if ch == "up" else [0.45, 0.7],
                }
                for ch in ("up", "low")
                for i in range(3)
            ],
        },
    }
    config.update(overrides)
    return config


def write_config(tmp_path: Path, config: dict) -> Path:
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    return path


def run(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture
def workspace(tmp_path):
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, base_config(out))
    return cfg_path, out


# A value of each JSON type but number; a key gets each one of a type not its own.
TYPE_EXAMPLES = {"string": "x", "boolean": True, "array": [], "object": {}}


def wrong_values():
    """(path, value) for each config key: a value of each other JSON type, null where
    null is not allowed, 2.5 for an integer, and Infinity and 1e300 for a number,
    bar a learning rate of 1e300, which is in range."""
    for path, key in config_keys():
        values = [v for json_type, v in TYPE_EXAMPLES.items() if json_type != key.type]
        values += [None] if key.default is not None else []
        values += [2.5] if key.type == "integer" else []
        values += [float("inf"), 1e300] if key.type == "number" else []
        yield from ((path, v) for v in values if (path, v) != ("mda.learning_rate", 1e300))


WRONG_VALUES = list(wrong_values())


def set_key(config: dict, path: str, value) -> None:
    *sections, name = path.replace("[]", ".0").split(".")
    for section in sections:
        config = config[int(section)] if section.isdigit() else config.setdefault(section, {})
    config[name] = value


class TestValidation:
    def test_bad_holdout_fraction_exits_2_naming_field(self, tmp_path, capsys):
        config = base_config(tmp_path / "out")
        config["simulation"]["campaigns"][0]["holdout_fraction"] = 1.5
        code = run("simulate", "--config", write_config(tmp_path, config))
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("ConfigError:")
        assert "holdout_fraction" in err

    def test_missing_config_file(self, tmp_path, capsys):
        assert run("simulate", "--config", tmp_path / "nope.json") == 2
        assert "ConfigError" in capsys.readouterr().err

    def test_bad_report_dimension(self, tmp_path):
        config = base_config(tmp_path / "out", report_dimension="placement")
        assert run("simulate", "--config", write_config(tmp_path, config)) == 2

    def test_unknown_feature_model(self, tmp_path):
        config = base_config(tmp_path / "out")
        config["calibration"]["features"] = ["shapley"]
        assert run("simulate", "--config", write_config(tmp_path, config)) == 2


    @pytest.mark.parametrize(
        "section, key, value, command",
        [
            ("mda", "max_negatives", -5, "fit"),
            ("calibration", "cv_folds", 1, "fit"),
            (None, "mda", None, "simulate"),
            ("mda", "iterations", 2.5, "simulate"),
            (None, "seed", True, "simulate"),
            ("calibration", "cv_folds", 5.7, "simulate"),
            ("mda", "max_negatives", 10.5, "simulate"),
            ("simulation", "n_customers", 6000.9, "simulate"),
            (None, "seed", "300", "simulate"),
            (None, "lookback_day", 1.0, "simulate"),
            (None, "paths", {"touchpoint": "touchpoints.jsonl"}, "simulate"),
            (None, "lookback_days", float("inf"), "simulate"),
            ("simulation", "horizon_days", 1e300, "simulate"),
            ("mda", "seed", -1, "simulate"),
            ("calibration", "cv_seed", -1, "simulate"),
        ],
        ids=["negative-max-negatives", "one-cv-fold", "null-mda", "fractional-iterations",
             "boolean-seed", "fractional-cv-folds", "fractional-max-negatives",
             "fractional-n-customers", "string-seed", "misspelled-key", "misspelled-path-name",
             "infinite-lookback", "huge-horizon", "negative-mda-seed", "negative-cv-seed"],
    )
    def test_invalid_value_exits_2_with_one_line(
        self, tmp_path, capsys, section, key, value, command
    ):
        config = base_config(tmp_path / "out")
        (config[section] if section else config)[key] = value
        assert run(command, "--config", write_config(tmp_path, config)) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("ConfigError:") and key in err

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda c: c.update(lookback_days="seven"),
            lambda c: c["mda"].update(max_negatives="abc"),
            lambda c: c["simulation"].update(
                campaigns={cp["campaign_id"]: cp for cp in c["simulation"]["campaigns"]}
            ),
            lambda c: c["simulation"]["campaigns"][0].update(view_window=[0.1]),
            lambda c: c["simulation"]["campaigns"][0].update(holdout_fraction="x"),
            lambda c: c["simulation"].update(campaigns={}),
            lambda c: c["simulation"]["campaigns"][0].update(campaign_id=["x"]),
            lambda c: c["simulation"]["campaigns"][0].update(exposure=0.3),
            lambda c: c.update({"lookback\ndays": 1.0}),
        ],
        ids=[
            "word-lookback-days",
            "word-max-negatives",
            "campaigns-object",
            "one-element-view-window",
            "word-holdout-fraction",
            "campaigns-empty-object",
            "array-campaign-id",
            "misspelled-campaign-field",
            "key-with-a-newline",
        ],
    )
    def test_ill_typed_value_exits_2_with_one_line(self, tmp_path, capsys, mutate):
        config = base_config(tmp_path / "out")
        mutate(config)
        assert run("simulate", "--config", write_config(tmp_path, config)) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("ConfigError:")

    @pytest.mark.parametrize(
        "path",
        [
            ("simulation", "campaigns", 0, "is_rct"),
            ("calibration", "intercept"),
            ("calibration", "inverse_variance_weighting"),
        ],
        ids=["is-rct", "intercept", "inverse-variance-weighting"],
    )
    def test_string_for_a_boolean_exits_2_with_one_line(self, tmp_path, capsys, path):
        # "false" is a truthy string: read with bool(), it ran the campaign as an RCT.
        config = base_config(tmp_path / "out")
        section = config
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = "false"
        assert run("simulate", "--config", write_config(tmp_path, config)) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("ConfigError:") and path[-1] in err

    @pytest.mark.parametrize("path, value", WRONG_VALUES,
                             ids=[f"{path}={json.dumps(value)}" for path, value in WRONG_VALUES])
    def test_wrong_value_for_each_key_exits_2_naming_it(self, tmp_path, capsys, path, value):
        config = base_config(tmp_path / "out")
        set_key(config, path, value)
        assert run("simulate", "--config", write_config(tmp_path, config)) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"ConfigError: {path.replace('[]', '[0]')} ")

    @pytest.mark.parametrize(
        "path, value",
        [
            ("simulation.n_customers", 1),
            ("simulation.baseline_conversion_rate", -0.5),
            ("simulation.campaigns[1].view_window", [0.9, 0.1]),
            ("simulation.campaigns[1].holdout_fraction", 0.0),
            ("calibration.pooling", "by_product"),
        ],
        ids=["one-customer", "negative-baseline", "reversed-view-window", "empty-holdout",
             "unknown-pooling"],
    )
    def test_range_a_dataclass_checks_names_the_dotted_path(self, tmp_path, capsys, path, value):
        config = base_config(tmp_path / "out")
        set_key(config, path.replace("[1]", ".1"), value)
        assert run("simulate", "--config", write_config(tmp_path, config)) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"ConfigError: {path} must ")

    def test_duplicate_campaign_ids_name_the_campaigns_path(self, tmp_path, capsys):
        config = base_config(tmp_path / "out")
        campaigns = config["simulation"]["campaigns"]
        campaigns[1]["campaign_id"] = campaigns[0]["campaign_id"]
        assert run("simulate", "--config", write_config(tmp_path, config)) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("ConfigError: simulation.campaigns must ")

    def test_repeated_calibration_feature_exits_2(self, tmp_path, capsys):
        # ["lta", "lta"] used to fit weights [0.803, 0.0] and report {"lta": 0.0}.
        config = base_config(tmp_path / "out")
        config["calibration"]["features"] = ["lta", "lta"]
        assert run("fit", "--config", write_config(tmp_path, config)) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("ConfigError: calibration.features must ") and "distinct" in err

    @pytest.mark.parametrize(
        "write",
        [lambda path: path.mkdir(), lambda path: path.write_bytes(b'{"seed": 7\xff}')],
        ids=["directory", "non-utf8-byte"],
    )
    def test_unreadable_config_exits_2_with_one_line(self, tmp_path, capsys, write):
        path = tmp_path / "run.json"
        write(path)
        assert run("report", "--config", path) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"ConfigError: config {path}: ")


# Each defaulted field of a config dataclass -> the config key that sets it and the
# conversion of the key's JSON value to the field's; None where the two defaults differ
# by design.
DAYS = lambda days: timedelta(days=days)  # noqa: E731
SAME = lambda value: value  # noqa: E731
SHARED_DEFAULTS = {
    (LookbackWindow, "duration"): ("lookback_days", DAYS),
    (DecayConfig, "half_life"): ("decay_half_life_days", DAYS),
    (CalibrationOptions, "feature_models"): ("calibration.features", tuple),
    (CalibrationOptions, "pooling"): ("calibration.pooling", SAME),
    (CalibrationOptions, "intercept"): ("calibration.intercept", SAME),
    (CalibrationOptions, "inverse_variance_weighting"):
        ("calibration.inverse_variance_weighting", SAME),
    (CampaignSpec, "holdout_fraction"): ("simulation.campaigns[].holdout_fraction", SAME),
    (CampaignSpec, "is_rct"): ("simulation.campaigns[].is_rct", SAME),
    (CampaignSpec, "view_window"): ("simulation.campaigns[].view_window", tuple),
    (SimConfig, "horizon"): ("simulation.horizon_days", DAYS),
}


def test_config_defaults_equal_the_dataclass_defaults():
    """A dataclass default that differs from its key's makes the library and a
    config without the key disagree: ``MdaHyperparams.iterations``, since gone,
    once defaulted to 500 while ``mda.iterations`` defaulted to 400."""
    defaults = {path: key.default for path, key in config_keys()}
    for cls in (LookbackWindow, DecayConfig, CalibrationOptions, CampaignSpec, SimConfig):
        for f in dataclasses.fields(cls):
            if f.default is dataclasses.MISSING:
                continue
            assert (cls, f.name) in SHARED_DEFAULTS, f"{cls.__name__}.{f.name}"
            if SHARED_DEFAULTS[cls, f.name] is not None:
                path, convert = SHARED_DEFAULTS[cls, f.name]
                assert convert(defaults[path]) == f.default, f"{cls.__name__}.{f.name}"


class TestFailureOutput:
    def test_output_path_that_is_a_directory_exits_1_with_one_line(self, workspace, capsys,
                                                                   caplog):
        cfg_path, out = workspace
        (out / ARTIFACTS["touchpoints"]).mkdir(parents=True)
        with caplog.at_level(logging.DEBUG, logger="mta_engine.cli"):
            assert run("simulate", "--config", cfg_path) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("IsADirectoryError: ") and str(out / ARTIFACTS["touchpoints"]) in err
        # The traceback goes to the debug log only.
        assert any(r.exc_info and r.exc_info[0] is IsADirectoryError for r in caplog.records)


class TestMissingArtifacts:
    def test_fit_before_simulate_exits_4(self, workspace, capsys):
        cfg_path, _ = workspace
        assert run("fit", "--config", cfg_path) == 4
        assert "MissingArtifactError" in capsys.readouterr().err

    def test_attribute_without_model_exits_4(self, workspace):
        cfg_path, _ = workspace
        assert run("simulate", "--config", cfg_path) == 0
        assert run("attribute", "--config", cfg_path) == 4

    def test_report_without_credits_exits_4(self, workspace):
        cfg_path, _ = workspace
        assert run("report", "--config", cfg_path) == 4


@pytest.fixture(scope="module")
def attributed_run(tmp_path_factory):
    """The artifacts of simulate, fit and attribute on the base config."""
    root = tmp_path_factory.mktemp("attributed")
    cfg_path = write_config(root, base_config(root / "out"))
    for command in ("simulate", "fit", "attribute"):
        assert run(command, "--config", cfg_path) == 0, command
    return cfg_path, root / "out"


def truncate(path: Path) -> None:
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def empty_object(path: Path) -> None:
    path.write_text("{}")


def drop_columns(*names):
    def corrupt(path: Path) -> None:
        with path.open() as fh:
            rows = list(csv.DictReader(fh))
        kept = [c for c in rows[0] if c not in names]
        with path.open("w") as fh:
            writer = csv.DictWriter(fh, kept, extrasaction="ignore", lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)

    return corrupt


def non_utf8_byte(path: Path) -> None:
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2] + b"\xff" + blob[len(blob) // 2 :])


def unattributed(value):
    def corrupt(path: Path) -> None:
        path.write_text(json.dumps({"unattributed_conversions": value}))

    return corrupt


def short_row(path: Path) -> None:
    with path.open("a") as fh:
        fh.write("lta,x1\n")


def set_field(column: str, value: str, rows: int = 1, model: str | None = None):
    """Set ``column`` to ``value`` in the first ``rows`` rows (of ``model``, if given)."""

    def corrupt(path: Path) -> None:
        with path.open() as fh:
            records = list(csv.DictReader(fh))
        for record in [r for r in records if model in (None, r.get("model"))][:rows]:
            record[column] = value
        with path.open("w") as fh:
            writer = csv.DictWriter(fh, records[0], lineterminator="\n")
            writer.writeheader()
            writer.writerows(records)

    return corrupt


def repeat_first_row(path: Path) -> None:
    """Append the first row again, with 60 more treatment conversions."""
    with path.open() as fh:
        records = list(csv.DictReader(fh))
    again = {**records[0], "conv_treatment": repr(float(records[0]["conv_treatment"]) + 60)}
    with path.open("a") as fh:
        csv.DictWriter(fh, records[0], lineterminator="\n").writerow(again)


def edit_json(key: str, edit):
    """Replace the document's ``key`` by ``edit`` of its value."""

    def corrupt(path: Path) -> None:
        doc = json.loads(path.read_text())
        doc[key] = edit(doc[key])
        path.write_text(json.dumps(doc))

    return corrupt


# An ``mda_model.json`` as ``fit`` wrote it while the MDA had a recency feature.
RECENCY_MODEL = {
    "feature_names": ["n_touchpoints", "n_views", "n_clicks", "recency_days",
                      "channel_count:Lower", "channel_count:Upper"],
    "weights": [-0.57, -0.58, 0.0017, 3.31, 0.00066, -0.58],
    "bias": -0.92,
    "metadata": {"iterations": 250, "final_loss": 0.264, "initial_loss": 0.693,
                 "learning_rate_used": 0.5},
}


def recency_model(path: Path) -> None:
    path.write_text(json.dumps(RECENCY_MODEL, indent=2))


class TestUnusableArtifacts:
    """An input artifact that exists but cannot be decoded exits 4 with one
    line naming it; each used to exit 1 with a traceback."""

    @pytest.mark.parametrize(
        "artifact, corrupt, command",
        [
            ("calibration_model.json", truncate, "attribute"),
            ("mda_model.json", empty_object, "attribute"),
            ("rct_results.csv", drop_columns("n_treatment", "n_holdout", "conv_treatment",
                                             "conv_holdout"), "fit"),
            ("touchpoints.jsonl", non_utf8_byte, "fit"),
            ("mta_credits.csv", drop_columns("credit"), "report"),
            ("attribution_summary.json", empty_object, "report"),
            ("attribution_summary.json", unattributed(-5), "report"),
            ("attribution_summary.json", unattributed(2.5), "report"),
            ("attribution_summary.json", unattributed(True), "report"),
            ("mta_credits.csv", short_row, "report"),
            ("model_credits.csv", short_row, "report"),
            ("mta_credits.csv", set_field("credit", "nan"), "report"),
            ("mta_credits.csv", set_field("credit", "-1e300", rows=2), "report"),
            ("model_credits.csv", set_field("credit", "inf", model="lta"), "report"),
            # Used to exit 1 with "KeyError: 'mda'".
            ("calibration_model.json",
             edit_json("weights", lambda w: {g: v[:-1] for g, v in w.items()}), "attribute"),
            # Used to exit 0, dropping the extra weights.
            ("calibration_model.json",
             edit_json("weights", lambda w: {g: v + [0.5, 0.5] for g, v in w.items()}), "attribute"),
            ("calibration_model.json",
             edit_json("weights", lambda w: {g: [float("nan"), *v[1:]] for g, v in w.items()}),
             "attribute"),
            # Used to exit 1 with "ValueError: unknown MDA feature", naming no file.
            ("mda_model.json", edit_json("feature_names", lambda names: [
                "n_clickz" if n == "n_clicks" else n for n in names]), "attribute"),
            # A model fitted before recency_days went; reading it used to be fine.
            ("mda_model.json", recency_model, "attribute"),
            # The next three used to exit 0: every MTA credit doubled, every credit zero
            # with one warning, and ``ltaa`` scored as zero credit with one warning.
            ("calibration_model.json", edit_json("feature_names", lambda names: ["mda", "mda"]),
             "attribute"),
            ("calibration_model.json", edit_json("pooling", lambda pooling: "per_chanel"),
             "attribute"),
            ("calibration_model.json", edit_json("feature_names", lambda names: [
                "ltaa" if n == "lta" else n for n in names]), "attribute"),
            # Used to exit 0, the last row of the campaign silently winning.
            ("rct_results.csv", repeat_first_row, "fit"),
            # Used to exit 1 with "DegenerateDesignError: low0: both groups must be nonempty".
            ("rct_results.csv", set_field("n_holdout", "0"), "fit"),
        ],
        ids=["truncated-calibration-model", "empty-mda-model", "rct-results-without-counts",
             "non-utf8-touchpoints", "credits-without-credit", "empty-summary",
             "negative-unattributed", "fractional-unattributed", "boolean-unattributed",
             "credits-short-row", "model-credits-short-row", "nan-credit", "negative-credits",
             "infinite-model-credit", "calibration-weight-missing", "calibration-weights-extra",
             "nan-calibration-weight", "unknown-mda-feature", "recency-mda-model",
             "duplicate-calibration-feature",
             "unknown-calibration-pooling", "unknown-calibration-feature",
             "rct-results-repeated-campaign", "rct-results-empty-arm"],
    )
    def test_exits_4_with_one_line(self, attributed_run, tmp_path, capsys, artifact, corrupt,
                                   command):
        cfg_path, source = attributed_run
        out = tmp_path / "out"
        shutil.copytree(source, out)
        corrupt(out / artifact)
        capsys.readouterr()
        assert run(command, "--config", cfg_path, "--out", out) == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"UnusableArtifactError: {out / artifact}: ")

    def test_a_recency_model_is_named_as_such(self, attributed_run, tmp_path, capsys):
        cfg_path, source = attributed_run
        out = tmp_path / "out"
        shutil.copytree(source, out)
        recency_model(out / "mda_model.json")
        capsys.readouterr()
        assert run("attribute", "--config", cfg_path, "--out", out) == 4
        assert capsys.readouterr().err == (f"UnusableArtifactError: {out / 'mda_model.json'}: "
                                           "unknown MDA feature 'n_touchpoints'\n")

    def test_rct_results_naming_a_campaign_twice_are_refused(self, tmp_path):
        path = tmp_path / "rct_results.csv"
        with path.open("w") as fh:
            cli._csv_rows(rct.RctResult, [rct.lift_from_counts(
                "low0", n_treatment=100, n_holdout=100, conv_treatment=9.0, conv_holdout=4.0)])(fh)
        repeat_first_row(path)
        with pytest.raises(UnusableArtifactError) as raised:
            cli._read_rct_results(path)
        assert str(raised.value) == f"{path}: campaign 'low0' appears more than once"

    @pytest.mark.parametrize(
        "column, value",
        [("conv_treatment", "nan"), ("conv_treatment", "inf"), ("conv_holdout", "-5"),
         ("n_treatment", "-5")],
    )
    def test_rct_count_not_finite_and_nonnegative_exits_4(self, attributed_run, tmp_path, capsys,
                                                          column, value):
        """``fit`` used to exit 0 with NaN or zero weights, or 1 for a negative group size."""
        cfg_path, source = attributed_run
        out = tmp_path / "out"
        shutil.copytree(source, out)
        path = out / ARTIFACTS["rct_results"]
        set_field(column, value)(path)
        capsys.readouterr()
        assert run("fit", "--config", cfg_path, "--out", out) == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"UnusableArtifactError: {path}: campaign low0: ")

    @pytest.mark.parametrize("same_channel", [True, False], ids=["one-channel", "two-channels"])
    def test_credit_totals_that_overflow_exit_4_and_write_no_shares(
        self, attributed_run, tmp_path, capsys, same_channel
    ):
        """Two credits of 1e308 used to exit 0: in one channel with a NaN share,
        in two with every share 0.0 and ``zero_total`` false."""
        cfg_path, source = attributed_run
        out = tmp_path / "out"
        shutil.copytree(source, out)
        path = out / ARTIFACTS["mta_credits"]
        with path.open() as fh:
            records = list(csv.DictReader(fh))
        first = records[0]
        other = next(r for r in records[1:] if (r["channel"] == first["channel"]) == same_channel)
        first["credit"] = other["credit"] = "1e308"
        with path.open("w") as fh:
            writer = csv.DictWriter(fh, first, lineterminator="\n")
            writer.writeheader()
            writer.writerows(records)
        capsys.readouterr()
        assert run("report", "--config", cfg_path, "--out", out) == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"UnusableArtifactError: {path}: ")
        assert not (out / ARTIFACTS["shares_json"]).exists()
        assert not (out / ARTIFACTS["shares_table"]).exists()


class TestUnreadableInputs:
    """An input path that exists but cannot be opened exits 4 with one line
    naming it; a directory used to exit 1 with an IsADirectoryError traceback."""

    @pytest.mark.parametrize(
        "artifact, command",
        [("calibration_model", "attribute"), ("mda_model", "attribute"),
         ("mta_credits", "report"), ("attribution_summary", "report")],
    )
    def test_directory_exits_4_with_one_line(self, attributed_run, tmp_path, capsys, artifact,
                                             command):
        cfg_path, source = attributed_run
        out = tmp_path / "out"
        shutil.copytree(source, out)
        config = json.loads(cfg_path.read_text())
        config["paths"] = {artifact: str(tmp_path)}
        capsys.readouterr()
        assert run(command, "--config", write_config(tmp_path, config), "--out", out) == 4
        assert capsys.readouterr().err == f"UnusableArtifactError: {tmp_path}: Is a directory\n"

    def test_unreadable_file_exits_4_with_one_line(self, attributed_run, tmp_path, capsys):
        cfg_path, source = attributed_run
        out = tmp_path / "out"
        shutil.copytree(source, out)
        denied = out / ARTIFACTS["calibration_model"]
        open_path = Path.open

        def open_unless_denied(path, *args, **kwargs):
            if path == denied:
                raise PermissionError(13, "Permission denied", str(path))
            return open_path(path, *args, **kwargs)

        capsys.readouterr()
        with mock.patch.object(Path, "open", open_unless_denied):
            assert run("attribute", "--config", cfg_path, "--out", out) == 4
        assert capsys.readouterr().err == f"UnusableArtifactError: {denied}: Permission denied\n"


def run_cli(*argv, first_on_path: Path | None = None) -> subprocess.CompletedProcess:
    """``python -m mta_engine.cli`` in a subprocess, importing from ``first_on_path`` first."""
    path = [first_on_path, Path(cli.__file__).parents[1], os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(str(p) for p in path if p)}
    return subprocess.run([sys.executable, "-m", "mta_engine.cli", *map(str, argv)], env=env,
                          capture_output=True, text=True, timeout=60)


@pytest.fixture(scope="module")
def no_numpy(tmp_path_factory):
    """A directory whose ``numpy`` package fails to import."""
    root = tmp_path_factory.mktemp("no_numpy")
    (root / "numpy").mkdir()
    (root / "numpy" / "__init__.py").write_text("raise ImportError('numpy is blocked')\n")
    return root


class TestWithoutNumpy:
    """``report`` and config loading import no numpy layer."""

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_report_runs_and_writes_the_same_artifacts(self, attributed_run, no_numpy, tmp_path,
                                                       fmt):
        cfg_path, source = attributed_run
        out = tmp_path / "out"
        shutil.copytree(source, out)
        outputs = [out / ARTIFACTS["shares_json"], out / ARTIFACTS["shares_table"],
                   out / "manifest_report.json"]
        args = ("report", "--config", cfg_path, "--out", out, "--format", fmt)
        normal = run_cli(*args)
        assert normal.returncode == 0
        written = [path.read_bytes() for path in outputs]
        for path in outputs:
            path.unlink()
        blocked = run_cli(*args, first_on_path=no_numpy)
        assert (blocked.returncode, blocked.stdout, blocked.stderr) == (0, normal.stdout, "")
        assert [path.read_bytes() for path in outputs] == written

    def test_fit_config_error_exits_2_with_one_line(self, no_numpy, tmp_path):
        cfg_path = write_config(tmp_path, base_config(tmp_path / "out", lookback_days=-1))
        blocked = run_cli("fit", "--config", cfg_path, first_on_path=no_numpy)
        assert blocked.returncode == 2
        assert blocked.stderr.startswith("ConfigError: lookback_days ")
        assert blocked.stderr.count("\n") == 1


class TestReportReader:
    def test_blank_lines_in_credit_csvs_are_skipped(self, attributed_run, tmp_path):
        cfg_path, source = attributed_run
        for name, blanks in (("plain", False), ("blank", True)):
            out = tmp_path / name
            shutil.copytree(source, out)
            if blanks:
                for artifact in ("mta_credits.csv", "model_credits.csv"):
                    lines = (out / artifact).read_text().splitlines(keepends=True)
                    (out / artifact).write_text("\n".join(lines[:2]) + "\n" + "".join(lines[2:]))
            assert run("report", "--config", cfg_path, "--out", out) == 0
        for artifact in ("attribution_shares.json", "attribution_shares.txt"):
            assert (tmp_path / "blank" / artifact).read_bytes() == (
                tmp_path / "plain" / artifact
            ).read_bytes()


# Labels and credits that csv.writer quotes or spells in a special way.
LABEL_TEXT = st.one_of(
    st.sampled_from(["", ",", '"', "\r", "\n", "\r\n", "a,b", 'say "hi"', "é", "ü,\n", " x "]),
    st.text(max_size=6),
)
CREDITS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e300, -1e300, 1.0, 3.0,
                     1e16, 0.1, 1 / 3]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def credit_tables(draw):
    """A credit table with units 0-3, and whether a ``model`` column leads:
    then up to four columns, else one, as ``score_all`` gives."""
    n = draw(st.integers(0, 6))
    labels = [tuple(draw(LABEL_TEXT) for _ in range(5)) for _ in range(n)]
    units = np.array([float(draw(st.integers(0, 3))) for _ in labels])
    by_model = draw(st.booleans())
    names = draw(
        st.lists(st.sampled_from(["lta", "mda", "decay", "a,b", 'q"']), unique=True,
                 min_size=0 if by_model else 1, max_size=4 if by_model else 1)
    )
    columns = {name: np.array([draw(CREDITS) for _ in labels], dtype=np.float64) for name in names}
    return ModelCredits(labels, units, columns), by_model


def csv_writer_text(table: ModelCredits, by_model: bool) -> str:
    """The table's credit rows written one by one through csv.writer."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("model",) * by_model + MTA_CREDIT_COLUMNS)
    fields = attrgetter(*MTA_CREDIT_COLUMNS)
    for name in table.columns:
        for row in credit_rows(table, name):
            writer.writerow((name,) * by_model + fields(row))
    return buf.getvalue()


class TestCreditWriter:
    @settings(max_examples=400, deadline=None)
    @given(credit_tables(), st.integers(1, 4))
    def test_text_equals_csv_writer(self, drawn, chunk_rows):
        table, by_model = drawn
        buf = io.StringIO()
        # The drawn credits and units include inf and nan, so scaling a column
        # overflows or multiplies inf by 0, in the writer and the reference alike.
        with np.errstate(over="ignore", invalid="ignore"):
            with mock.patch.object(cli, "_WRITE_ROWS", chunk_rows):
                cli._write_credit_csv(buf, table, cli._plain_prefixes(table.labels), by_model)
            expected = csv_writer_text(table, by_model)
        assert buf.getvalue() == expected

    def test_equal_credits_keep_their_own_text(self):
        labels = [("x1", f"t{i}", "c", "Upper", "display") for i in range(4)]
        table = ModelCredits(labels, np.ones(4), {"lta": np.array([0.0, -0.0, 0.0, 1.0])})
        buf = io.StringIO()
        cli._write_credit_csv(buf, table, cli._plain_prefixes(labels), by_model=True)
        assert buf.getvalue() == csv_writer_text(table, by_model=True)
        assert [line.rsplit(",", 1)[1] for line in buf.getvalue().splitlines()[1:]] == [
            "0.0", "-0.0", "0.0", "1.0"
        ]

    def test_campaign_id_with_a_comma_is_quoted(self, tmp_path):
        out = tmp_path / "out"
        config = base_config(out, report_dimension="campaign")
        for campaign in config["simulation"]["campaigns"]:
            campaign["campaign_id"] = campaign["campaign_id"].replace("up", "up,")
        cfg_path = write_config(tmp_path, config)
        for command in ("simulate", "fit", "attribute", "report"):
            assert run(command, "--config", cfg_path) == 0, command
        for artifact in ("mta_credits.csv", "model_credits.csv"):
            text = (out / artifact).read_text()
            rows = list(csv.reader(io.StringIO(text)))
            assert any(row[-4].startswith("up,") for row in rows[1:])
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerows(rows)
            assert buf.getvalue() == text
        shares = json.loads((out / "attribution_shares.json").read_text())
        assert {row["value"] for row in shares["rows"]} >= {"up,0", "low0"}


class TestInsufficientData:
    def test_fewer_campaigns_than_features_exits_3(self, tmp_path, capsys):
        config = base_config(tmp_path / "out")
        config["simulation"]["campaigns"] = config["simulation"]["campaigns"][:1]
        cfg_path = write_config(tmp_path, config)
        assert run("simulate", "--config", cfg_path) == 0
        assert run("fit", "--config", cfg_path) == 3
        err = capsys.readouterr().err
        assert "InsufficientDataError" in err and "1 RCT row" in err

    def test_a_fold_that_cannot_identify_a_group_does_not_fail_the_fit(
        self, tmp_path, capsys, caplog
    ):
        """Three Lower RCT rows identify lta, mda and an intercept, but a fold
        that holds one out trains on two. ``fit`` used to exit 3 for such a
        fold; now the full fit's weights stand and the fold's gap is counted."""
        config = base_config(tmp_path / "out")
        campaigns = config["simulation"]["campaigns"]
        campaigns.append({**campaigns[2], "campaign_id": "up3"})
        config["calibration"].update(pooling="per_channel", intercept=True)
        cfg_path = write_config(tmp_path, config)
        assert run("simulate", "--config", cfg_path) == 0
        capsys.readouterr()
        with caplog.at_level(logging.WARNING):
            assert run("fit", "--config", cfg_path, "--format", "json") == 0
        assert set(json.loads(capsys.readouterr().out)["weights"]) == {"Lower", "Upper"}
        assert "campaign row(s): no fitted weights for group 'Lower'; treated as 0" in caplog.text
        model = json.loads((tmp_path / "out" / ARTIFACTS["calibration_model"]).read_text())
        assert model["cv_metrics"]["folds"] == 4.0


class TestSeparatedMdaLabels:
    def test_fit_warns_once_and_the_mda_credits_stay_normalized(self, tmp_path, capsys, caplog):
        """With no baseline conversions and Upper lifts of 1, a journey converts
        exactly when it holds an Upper touchpoint: ``channel_count:Upper``
        separates the labels, and no maximum-likelihood weights exist."""
        config = base_config(tmp_path / "out")
        config["simulation"]["baseline_conversion_rate"] = 0.0
        for campaign in config["simulation"]["campaigns"]:
            campaign["true_lift"] = 1.0 if campaign["channel"] == "Upper" else 0.0
        cfg_path = write_config(tmp_path, config)
        assert run("simulate", "--config", cfg_path) == 0
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            assert run("fit", "--config", cfg_path) == 0
        [warning] = caplog.records
        assert "labels are separated by 'channel_count:Upper'" in warning.getMessage()
        model = json.loads((tmp_path / "out" / ARTIFACTS["mda_model"]).read_text())
        assert not model["metadata"]["converged"]
        assert all(math.isfinite(w) for w in (*model["weights"], model["bias"]))

        assert run("attribute", "--config", cfg_path) == 0
        totals: dict[str, float] = {}
        with (tmp_path / "out" / ARTIFACTS["model_credits"]).open() as fh:
            for row in csv.DictReader(fh):
                if row["model"] == "mda":
                    credit = float(row["credit"])
                    assert 0.0 <= credit <= 1.0
                    totals[row["conversion_id"]] = totals.get(row["conversion_id"], 0.0) + credit
        assert len(totals) > 100
        assert all(abs(total - 1.0) < 1e-9 for total in totals.values())


class TestMdaKeys:
    def test_the_mda_keys_change_no_fit_output(self, attributed_run, tmp_path, capsys, caplog):
        """``mda.*`` set gradient descent's learning rate, step count, seed and
        negative subsample. The Newton fit reads none of them: a one-step cap, a
        seed and no negatives give the fit of a config without the keys."""
        _, source = attributed_run
        keys = {"learning_rate": 9.0, "iterations": 1, "seed": 5, "max_negatives": 0}
        outputs = []
        for name in ("unset", "set"):
            out = tmp_path / name / "out"
            out.mkdir(parents=True)
            for artifact in ("touchpoints", "conversions", "rct_results"):
                shutil.copyfile(source / ARTIFACTS[artifact], out / ARTIFACTS[artifact])
            config = base_config(out, mda=keys)
            if name == "unset":
                del config["mda"]
            capsys.readouterr()
            caplog.clear()
            assert run("fit", "--config", write_config(tmp_path / name, config),
                       "--format", "json") == 0
            captured = capsys.readouterr()
            outputs.append({"stdout": captured.out, "stderr": captured.err,
                            "log": caplog.record_tuples,
                            **{key: (out / ARTIFACTS[key]).read_bytes()
                               for key in ("mda_model", "calibration_model")}})
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0]["mda_model"])["metadata"]["steps"] > 1


def copy_run(source: Path, tmp_path: Path) -> tuple[Path, Path]:
    """A copy of the run in ``source``, and the path of its config."""
    out = tmp_path / "out"
    shutil.copytree(source, out)
    return write_config(tmp_path, base_config(out)), out


class TestFitInputs:
    def test_rct_campaigns_missing_from_the_results_warn_once(
        self, attributed_run, tmp_path, capsys, caplog
    ):
        """An RCT campaign without a row in ``rct_results.csv`` leaves the fit;
        it used to do so silently."""
        cfg_path, out = copy_run(attributed_run[1], tmp_path)
        path = out / ARTIFACTS["rct_results"]
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:5]))
        capsys.readouterr()
        with caplog.at_level(logging.WARNING):
            assert run("fit", "--config", cfg_path, "--format", "json") == 0
        assert json.loads(capsys.readouterr().out)["diagnostics"]["n_rows"] == 4.0
        assert [r.getMessage() for r in caplog.records] == [
            "2 RCT campaign(s) have no RCT result, the first 'up1'; the fit leaves them out"]

    def test_an_rct_result_of_an_unlisted_campaign_exits_1(self, attributed_run, tmp_path, capsys):
        """A result whose campaign the config does not list was dropped without
        a word, while a touchpoint of such a campaign exits 1."""
        cfg_path, out = copy_run(attributed_run[1], tmp_path)
        path = out / ARTIFACTS["rct_results"]
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines) + "zz99" + lines[1][lines[1].index(","):])
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        capsys.readouterr()
        assert run("fit", "--config", cfg_path) == 1
        assert capsys.readouterr().err == ("DataIntegrityError: 1 RCT result(s) belong to no "
                                           "listed campaign, the first 'zz99'\n")
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_counts_whose_lift_overflows_exit_4(self, attributed_run, tmp_path, capsys):
        """Finite counts whose incremental conversions overflow used to fit all-zero
        weights with an infinite residual, a bare ``NaN`` MAPE and numpy warnings."""
        cfg_path, out = copy_run(attributed_run[1], tmp_path)
        path = out / ARTIFACTS["rct_results"]
        with path.open() as fh:
            records = list(csv.DictReader(fh))
        records[0].update(n_treatment=5, n_holdout=1, conv_holdout=1e308)
        with path.open("w") as fh:
            writer = csv.DictWriter(fh, records[0].keys(), lineterminator="\n")
            writer.writeheader()
            writer.writerows(records)
        capsys.readouterr()
        assert run("fit", "--config", cfg_path) == 4
        assert capsys.readouterr().err == (
            f"UnusableArtifactError: {path}: campaign {records[0]['campaign_id']}: the counts give "
            "incremental conversions -inf and standard error 0.0, which are not both finite\n")

    def test_a_mape_without_a_sizable_row_is_written_as_null(
        self, attributed_run, tmp_path, capsys
    ):
        """Every RCT estimate below 1 left no row for the CV MAPE: ``fit`` wrote
        it as ``NaN``, which is not JSON, to its stdout and its model."""
        cfg_path, out = copy_run(attributed_run[1], tmp_path)
        path = out / ARTIFACTS["rct_results"]
        with path.open() as fh:
            records = list(csv.DictReader(fh))
        with path.open("w") as fh:
            writer = csv.DictWriter(fh, records[0].keys(), lineterminator="\n")
            writer.writeheader()
            for i, record in enumerate(records):
                record.update(n_treatment=1000, n_holdout=1000, conv_holdout=10.0,
                              conv_treatment=10.0 + 0.1 * (i + 1))
                writer.writerow(record)

        def refuse(token):
            raise ValueError(f"{token} is not JSON")

        capsys.readouterr()
        assert run("fit", "--config", cfg_path, "--format", "json") == 0
        printed = json.loads(capsys.readouterr().out, parse_constant=refuse)
        model = json.loads((out / ARTIFACTS["calibration_model"]).read_text(),
                           parse_constant=refuse)
        for metrics in (printed["cv_metrics"], model["cv_metrics"]):
            assert metrics["mape"] is None and metrics["mape_excluded"] == 6.0


class TestFitOutput:
    """``fit`` prints the intercepts its model holds, and its CSV summary
    writes every value as JSON. It used to print no ``intercepts`` although
    ``calibration_model.json`` held them, and ``cv_metrics,None`` for CSV."""

    @pytest.fixture
    def intercept_run(self, tmp_path):
        config = base_config(tmp_path / "out")
        config["calibration"].update(intercept=True, cv_folds=50)
        cfg_path = write_config(tmp_path, config)
        assert run("simulate", "--config", cfg_path) == 0
        return cfg_path, tmp_path / "out"

    def fit(self, cfg_path, capsys, format):
        capsys.readouterr()
        assert run("fit", "--config", cfg_path, "--format", format) == 0
        return capsys.readouterr().out

    def test_json_and_table_show_the_models_intercepts(self, intercept_run, capsys):
        cfg_path, out = intercept_run
        payload = json.loads(self.fit(cfg_path, capsys, "json"))
        model = json.loads((out / ARTIFACTS["calibration_model"]).read_text())
        assert set(model["intercepts"]) == {"global"}
        assert payload["intercepts"] == model["intercepts"]
        assert payload["cv_metrics"] is None
        lines = self.fit(cfg_path, capsys, "table").splitlines()
        assert lines[0] == "group  model  weight"
        assert lines[-1] == f"global  intercept  {model['intercepts']['global']:.6f}"

    def test_csv_writes_each_value_as_json(self, intercept_run, capsys):
        cfg_path, _ = intercept_run
        payload = json.loads(self.fit(cfg_path, capsys, "json"))
        lines = self.fit(cfg_path, capsys, "csv").splitlines()
        assert lines[0] == "key,value"
        assert "cv_metrics,null" in lines
        assert dict(
            (key, json.loads(value)) for key, value in (line.split(",", 1) for line in lines[1:])
        ) == payload

    def test_a_fit_without_intercepts_prints_none(self, workspace, capsys):
        cfg_path, _ = workspace
        assert run("simulate", "--config", cfg_path) == 0
        assert "intercepts" not in json.loads(self.fit(cfg_path, capsys, "json"))
        assert "intercept" not in self.fit(cfg_path, capsys, "table")


class TestFullPipeline:
    def test_all_stages_produce_artifacts(self, workspace, capsys):
        cfg_path, out = workspace
        for command in ("simulate", "fit", "attribute", "report"):
            assert run(command, "--config", cfg_path) == 0, command
        for name in ARTIFACTS.values():
            assert (out / name).exists(), name
        for command in ("simulate", "fit", "attribute", "report"):
            assert (out / f"manifest_{command}.json").exists()

        shares = json.loads((out / "attribution_shares.json").read_text())
        assert shares["dimension"] == "channel"
        assert {row["value"] for row in shares["rows"]} == {"Upper", "Lower"}
        assert set(shares["comparisons"]) == {"lta", "mda"}
        total = sum(row["share"] for row in shares["rows"])
        assert total == pytest.approx(1.0, abs=1e-9)

        table = (out / "attribution_shares.txt").read_text()
        assert "lta_share" in table and "mda_share" in table

        with (out / "mta_credits.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(float(r["credit"]) >= 0.0 for r in rows)

        manifest = json.loads((out / "manifest_simulate.json").read_text())
        assert manifest["seed"] == 7 and len(manifest["config_sha256"]) == 64

    def test_json_format_prints_machine_readable_summary(self, workspace, capsys):
        cfg_path, _ = workspace
        assert run("simulate", "--config", cfg_path, "--format", "json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["campaigns"] == 6
        assert payload["touchpoints"] > 0

    def test_csv_format_emits_rows(self, workspace, capsys):
        cfg_path, _ = workspace
        for command in ("simulate", "fit", "attribute"):
            assert run(command, "--config", cfg_path) == 0
        capsys.readouterr()
        assert run("report", "--config", cfg_path, "--format", "csv") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "channel,total_credit,share"
        assert len(lines) == 3

    def test_fit_prints_weight_table(self, workspace, capsys):
        cfg_path, _ = workspace
        run("simulate", "--config", cfg_path)
        capsys.readouterr()
        assert run("fit", "--config", cfg_path) == 0
        out = capsys.readouterr().out
        assert "lta" in out and "mda" in out and "weight" in out

    def test_simulate_reruns_byte_identical(self, workspace):
        cfg_path, out = workspace
        assert run("simulate", "--config", cfg_path) == 0
        first = {name: (out / name).read_bytes() for name in ARTIFACTS.values() if (out / name).exists()}
        assert run("simulate", "--config", cfg_path) == 0
        for name, blob in first.items():
            assert (out / name).read_bytes() == blob, name

    def test_seed_override_changes_events(self, workspace, tmp_path):
        cfg_path, out = workspace
        run("simulate", "--config", cfg_path)
        baseline = (out / "touchpoints.jsonl").read_bytes()
        other = tmp_path / "other"
        assert run("simulate", "--config", cfg_path, "--seed", 99, "--out", other) == 0
        assert (other / "touchpoints.jsonl").read_bytes() != baseline

    def test_unattributed_count_propagates_to_report(self, workspace):
        cfg_path, out = workspace
        for command in ("simulate", "fit", "attribute", "report"):
            assert run(command, "--config", cfg_path) == 0
        summary = json.loads((out / "attribution_summary.json").read_text())
        shares = json.loads((out / "attribution_shares.json").read_text())
        assert shares["unattributed_conversions"] == summary["unattributed_conversions"]
        assert summary["conversions"] == summary["attributed_conversions"] + summary["unattributed_conversions"]


class TestStaleOutputs:
    def test_fit_without_an_mda_removes_the_earlier_mda_model(self, workspace, tmp_path):
        """When MDA training is skipped, ``fit`` used to leave the previous run's
        ``mda_model.json`` in place, and ``attribute`` and ``report`` then
        credited and compared the earlier run's MDA."""
        cfg_path, out = workspace
        for command in ("simulate", "fit"):
            assert run(command, "--config", cfg_path) == 0, command
        assert (out / ARTIFACTS["mda_model"]).exists()
        config = base_config(out, calibration={"features": ["lta"], "cv_folds": 4})
        config["simulation"]["baseline_conversion_rate"] = 1.0  # no negatives: no MDA
        (tmp_path / "no_mda").mkdir()
        no_mda = write_config(tmp_path / "no_mda", config)
        for command in ("simulate", "fit", "attribute", "report"):
            assert run(command, "--config", no_mda) == 0, command
        assert not (out / ARTIFACTS["mda_model"]).exists()
        assert "mda_model" not in json.loads((out / "manifest_fit.json").read_text())["outputs"]
        with (out / ARTIFACTS["model_credits"]).open() as fh:
            assert {row["model"] for row in csv.DictReader(fh)} == {"lta", "linear", "decay"}
        shares = json.loads((out / ARTIFACTS["shares_json"]).read_text())
        assert set(shares["comparisons"]) == {"lta"}


class TestSimulateStage:
    def test_failed_run_leaves_the_previous_artifacts(self, workspace, tmp_path, capsys):
        cfg_path, out = workspace
        assert run("simulate", "--config", cfg_path) == 0
        first = {path.name: path.read_bytes() for path in out.iterdir()}
        config = base_config(out)
        config["simulation"]["n_customers"] = 2
        for campaign in config["simulation"]["campaigns"]:
            campaign["holdout_fraction"] = 0.01
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        capsys.readouterr()
        assert run("simulate", "--config", bad) == 1
        assert capsys.readouterr().err.startswith("DegenerateDesignError:")
        assert {path.name: path.read_bytes() for path in out.iterdir()} == first

    def test_builds_no_touchpoint_objects(self, workspace, monkeypatch):
        def forbidden(*args):
            raise AssertionError("Touchpoint built on the simulate stage")

        monkeypatch.setattr(events, "Touchpoint", forbidden)
        cfg_path, out = workspace
        assert run("simulate", "--config", cfg_path) == 0
        assert (out / "touchpoints.jsonl").stat().st_size > 0

    @pytest.mark.parametrize("baseline, clamped", [(0.02, False), (0.9, True)])
    def test_manifest_records_counts_and_clamped_fraction(
        self, tmp_path, capsys, baseline, clamped
    ):
        out = tmp_path / "out"
        config = base_config(out)
        config["simulation"]["baseline_conversion_rate"] = baseline
        config["simulation"]["campaigns"][0].update(exposure_rate=1.0, true_lift=0.5)
        config["simulation"]["campaigns"][-1]["is_rct"] = False
        cfg_path = write_config(tmp_path, config)
        assert run("simulate", "--config", cfg_path, "--format", "json") == 0
        summary = json.loads(capsys.readouterr().out)
        manifest = json.loads((out / "manifest_simulate.json").read_text())
        assert manifest["counts"] == {
            "touchpoints": len((out / "touchpoints.jsonl").read_bytes().splitlines()),
            "conversions": len((out / "conversions.jsonl").read_bytes().splitlines()),
            "rct_campaigns": 5,
        }
        assert {k: summary[k] for k in manifest["counts"]} == manifest["counts"]
        fraction = manifest["diagnostics"]["clamped_fraction"]
        sim = load_run_config(cfg_path, None, None).sim
        assert fraction == rct.simulate(sim).clamped_fraction
        assert (fraction > 0.4) if clamped else (fraction == 0.0)
        first = (out / "manifest_simulate.json").read_bytes()
        assert run("simulate", "--config", cfg_path) == 0
        assert (out / "manifest_simulate.json").read_bytes() == first


class TestFitEnsemble:
    def test_fit_computes_only_the_calibration_features(self, workspace, monkeypatch):
        cfg_path, out = workspace

        def not_a_feature(*args, **kwargs):
            raise AssertionError("fit computed credits for a model calibration does not use")

        assert run("simulate", "--config", cfg_path) == 0
        with monkeypatch.context() as patch:
            patch.setattr(attribution, "linear_credits", not_a_feature)
            patch.setattr(attribution, "decay_credits", not_a_feature)
            assert run("fit", "--config", cfg_path) == 0
        assert run("attribute", "--config", cfg_path) == 0
        with (out / "model_credits.csv").open() as fh:
            models = {row["model"] for row in csv.DictReader(fh)}
        assert models == {"lta", "linear", "decay", "mda"}


def jsonl_to_csv(source: Path, target: Path, fields) -> None:
    """Rewrite a JSONL event log as a CSV log with the given header."""
    with target.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fields)
        for line in source.read_text().splitlines():
            record = json.loads(line)
            writer.writerow([record[f] for f in fields])


def move_lines(source: Path, target: Path, n: int = 10) -> None:
    """Move the first ``n`` lines of the log ``source`` to the end of the log ``target``."""
    lines = source.read_text().splitlines(keepends=True)
    source.write_text("".join(lines[n:]))
    with target.open("a") as fh:
        fh.write("".join(lines[:n]))


class TestMisplacedRecords:
    """A record in the other event kind's log used to be dropped without a
    word: ``fit`` and ``attribute`` exited 0, fewer records were counted, and
    ``lines_skipped`` stayed 0."""

    @pytest.mark.parametrize("command", ["fit", "attribute"])
    @pytest.mark.parametrize("moved, into", [("conversions", "touchpoints"),
                                             ("touchpoints", "conversions")])
    def test_exits_1_naming_the_log_and_writes_nothing(
        self, attributed_run, tmp_path, capsys, command, moved, into
    ):
        cfg_path, out = copy_run(attributed_run[1], tmp_path)
        move_lines(out / ARTIFACTS[moved], out / ARTIFACTS[into])
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        capsys.readouterr()
        assert run(command, "--config", cfg_path) == 1
        assert capsys.readouterr().err == (f"DataIntegrityError: {out / ARTIFACTS[into]}: the "
                                           f"{into[:-1]} log holds 10 {moved[:-1]} record(s)\n")
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_a_conversion_csv_given_as_the_touchpoint_log_exits_1(
        self, attributed_run, tmp_path, capsys
    ):
        """Its records were all conversions, so the touchpoint table was empty
        and ``fit`` ended with exit 3 for want of MDA credits."""
        _, out = copy_run(attributed_run[1], tmp_path)
        path = tmp_path / "conversions.csv"
        jsonl_to_csv(out / ARTIFACTS["conversions"], path, CONVERSION_FIELDS)
        n = len((out / ARTIFACTS["conversions"]).read_text().splitlines())
        cfg_path = write_config(tmp_path, base_config(out, paths={"touchpoints": str(path)}))
        capsys.readouterr()
        assert run("fit", "--config", cfg_path) == 1
        assert capsys.readouterr().err == (
            f"DataIntegrityError: {path}: the touchpoint log holds {n} conversion record(s)\n")


class TestEventLogInputs:
    def test_csv_logs_at_the_configured_paths_are_read_as_csv(self, tmp_path):
        # A CSV touchpoint log used to be parsed as JSONL: every line was
        # skipped, MDA training had no labels and fit exited 3.
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path, base_config(out))
        for command in ("simulate", "fit", "attribute"):
            assert run(command, "--config", cfg_path) == 0
        from_jsonl = {name: (out / name).read_bytes() for name in (
            "calibration_model.json", "mda_model.json", "campaign_features.csv",
            "mta_credits.csv", "model_credits.csv", "attribution_summary.json",
        )}
        csv_dir = tmp_path / "csv"
        csv_dir.mkdir()
        jsonl_to_csv(out / "touchpoints.jsonl", csv_dir / "touchpoints.csv", TOUCHPOINT_FIELDS)
        jsonl_to_csv(out / "conversions.jsonl", csv_dir / "conversions.CSV", CONVERSION_FIELDS)
        config = base_config(out)
        config["paths"] = {
            "touchpoints": str(csv_dir / "touchpoints.csv"),
            "conversions": str(csv_dir / "conversions.CSV"),
        }
        cfg_path = write_config(tmp_path, config)
        for path in out.iterdir():
            if path.name in from_jsonl:
                path.unlink()
        for command in ("fit", "attribute"):
            assert run(command, "--config", cfg_path) == 0, command
        assert {name: (out / name).read_bytes() for name in from_jsonl} == from_jsonl
        manifest = json.loads((out / "manifest_fit.json").read_text())
        assert manifest["counts"]["lines_skipped"] == 0

    @pytest.mark.parametrize(
        "edit_header",
        [lambda header: header.replace("campaign_id", "campaign")],
        ids=["misnamed-column"],
    )
    def test_csv_header_matching_neither_schema_exits_4_naming_the_file(
        self, attributed_run, tmp_path, capsys, edit_header
    ):
        """``fit`` used to exit 1 with a ``ParseError`` that named no file."""
        _, source = attributed_run
        out = tmp_path / "out"
        shutil.copytree(source, out)
        path = tmp_path / "touchpoints.csv"
        jsonl_to_csv(out / "touchpoints.jsonl", path, TOUCHPOINT_FIELDS)
        header, rest = path.read_text(encoding="utf-8").split("\n", 1)
        path.write_text(edit_header(header) + "\n" + rest, encoding="utf-8")
        cfg_path = write_config(tmp_path, base_config(out, paths={"touchpoints": str(path)}))
        capsys.readouterr()
        assert run("fit", "--config", cfg_path) == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"UnusableArtifactError: {path}: CSV header (")

    @pytest.mark.parametrize("suffix", [".jsonl", ".csv"], ids=["jsonl", "csv"])
    def test_logs_led_by_a_byte_order_mark_read_as_without_it(
        self, attributed_run, tmp_path, suffix
    ):
        """A JSONL log led by a UTF-8 byte-order mark used to lose its first
        record (one line skipped, exit 0), and such a CSV log was refused (exit 4)."""
        _, source = attributed_run
        out = tmp_path / "out"
        shutil.copytree(source, out)
        paths = {}
        for name, fields in (("touchpoints", TOUCHPOINT_FIELDS), ("conversions", CONVERSION_FIELDS)):
            path = tmp_path / f"{name}{suffix}"
            if suffix == ".csv":
                jsonl_to_csv(out / f"{name}.jsonl", path, fields)
            else:
                shutil.copyfile(out / f"{name}.jsonl", path)
            path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
            paths[name] = str(path)
        cfg_path = write_config(tmp_path, base_config(out, paths=paths))
        artifacts = ("calibration_model.json", "mda_model.json", "campaign_features.csv",
                     "mta_credits.csv", "model_credits.csv", "attribution_summary.json")
        for name in artifacts:
            (out / name).unlink()
        for command in ("fit", "attribute"):
            assert run(command, "--config", cfg_path) == 0, command
            manifest = json.loads((out / f"manifest_{command}.json").read_text())
            assert manifest["counts"]["lines_skipped"] == 0
        for name in artifacts:
            assert (out / name).read_bytes() == (source / name).read_bytes(), name

    def test_fit_and_attribute_manifests_record_counts(self, workspace, capsys):
        cfg_path, out = workspace
        assert run("simulate", "--config", cfg_path) == 0
        with (out / "touchpoints.jsonl").open("a") as fh:
            fh.write("{not json\n\n")
        for command in ("fit", "attribute"):
            assert run(command, "--config", cfg_path) == 0
        capsys.readouterr()
        summary = json.loads((out / "attribution_summary.json").read_text())
        touchpoint_lines = (out / "touchpoints.jsonl").read_text().splitlines()
        expected = {
            "touchpoints": len(touchpoint_lines) - 2,
            "conversions": len((out / "conversions.jsonl").read_bytes().splitlines()),
            "lines_skipped": 1,
            "attributable_conversions": summary["attributed_conversions"],
            "unattributed_conversions": summary["unattributed_conversions"],
        }
        customers = {json.loads(line)["customer_id"] for line in touchpoint_lines[:-2]}
        for command in ("fit", "attribute"):
            manifest = json.loads((out / f"manifest_{command}.json").read_text())
            counts = manifest["counts"]
            assert {k: counts[k] for k in expected} == expected
            # One journey per conversion plus one per touched customer who never converted.
            assert counts["journeys"] == summary["conversions"] + len(customers - _converters(out))
            first = (out / f"manifest_{command}.json").read_bytes()
            assert run(command, "--config", cfg_path) == 0
            assert (out / f"manifest_{command}.json").read_bytes() == first


def _converters(out: Path) -> set[str]:
    lines = (out / "conversions.jsonl").read_text().splitlines()
    return {json.loads(line)["customer_id"] for line in lines}


class TestPaperMirrorConfig:
    def test_ground_truth_near_900_and_weight_near_09(self, tmp_path, capsys):
        # Tuned so the focal campaign drives ~900 incremental conversions
        # against ~1000 last-touch attributed ones.
        out = tmp_path / "out"
        config = base_config(out)
        config["calibration"] = {"features": ["lta"], "cv_folds": 2}
        config["simulation"] = {
            "n_customers": 50_000,
            "baseline_conversion_rate": 0.004444444444444444,
            "horizon_days": 8.0,
            "campaigns": [
                {
                    "campaign_id": "focal",
                    "channel": "Upper",
                    "ad_product": "display",
                    "exposure_rate": 0.5,
                    "click_rate": 0.1,
                    "true_lift": 0.04,
                    "holdout_fraction": 0.1,
                    "is_rct": True,
                }
            ],
        }
        cfg_path = write_config(tmp_path, config)
        assert run("simulate", "--config", cfg_path) == 0
        with (out / "ground_truth.csv").open() as fh:
            (row,) = list(csv.DictReader(fh))
        assert row["campaign_id"] == "focal"
        assert 850 <= float(row["true_incremental"]) <= 950

        capsys.readouterr()
        assert run("fit", "--config", cfg_path, "--format", "json") == 0
        payload = json.loads(capsys.readouterr().out)
        beta = payload["weights"]["global"]["lta"]
        assert 0.75 <= beta <= 1.05


# What each of fit and attribute writes besides the event store.
STAGE_ARTIFACTS = {
    "fit": ("calibration_model.json", "mda_model.json", "campaign_features.csv",
            "manifest_fit.json"),
    "attribute": ("mta_credits.csv", "model_credits.csv", "attribution_summary.json",
                  "manifest_attribute.json"),
}


def stage_outputs(out: Path, command: str, capsys, caplog) -> dict:
    """The artifacts ``command`` wrote to ``out``, its stdout and stderr and
    the records it logged, after a run; the captured output is then cleared."""
    captured, logged = capsys.readouterr(), caplog.record_tuples
    caplog.clear()
    return {"stdout": captured.out, "stderr": captured.err, "log": logged,
            **{name: (out / name).read_bytes() for name in STAGE_ARTIFACTS[command]}}


def run_counting_parses(command: str, cfg_path: Path) -> int:
    """The number of logs that ``command`` parsed; it must exit 0."""
    with mock.patch.object(cli, "parse_event_log", wraps=events.parse_event_log) as parse:
        assert run(command, "--config", cfg_path) == 0, command
    return parse.call_count


class TestEventStore:
    """``fit`` saves the parsed logs and journeys in ``events.npz``, and a stage
    whose logs, formats and lookback match its key reads them from there."""

    def test_fit_writes_the_store_byte_identically_and_attribute_reads_it(
        self, workspace, capsys
    ):
        cfg_path, out = workspace
        assert run("simulate", "--config", cfg_path) == 0
        assert run_counting_parses("fit", cfg_path) == 2
        store = out / "events.npz"
        first = store.read_bytes()
        manifest = json.loads((out / "manifest_fit.json").read_text())
        assert manifest["outputs"]["events"] == str(store)
        assert run_counting_parses("fit", cfg_path) == 0
        assert store.read_bytes() == first
        store.unlink()
        assert run_counting_parses("fit", cfg_path) == 2
        assert store.read_bytes() == first
        assert run_counting_parses("attribute", cfg_path) == 0
        assert "events" not in json.loads((out / "manifest_attribute.json").read_text())["outputs"]

    @pytest.mark.parametrize("change", ["touchpoints", "conversions", "lookback"])
    def test_a_changed_log_byte_or_lookback_is_parsed_as_a_cold_run(
        self, workspace, tmp_path, capsys, caplog, change
    ):
        cfg_path, out = workspace
        for command in ("simulate", "fit"):
            assert run(command, "--config", cfg_path) == 0
        if change == "lookback":
            cfg_path = write_config(tmp_path, base_config(out, lookback_days=3.0))
        else:
            log = out / f"{change}.jsonl"
            text = log.read_bytes()
            at = text.index(b'Z"') - 1  # the last digit of the first record's stamp
            log.write_bytes(text[:at] + bytes([text[at] ^ 1]) + text[at + 1:])
        capsys.readouterr()
        warm = {}
        for command in ("fit", "attribute"):
            assert run_counting_parses(command, cfg_path) == (2 if command == "fit" else 0)
            warm[command] = stage_outputs(out, command, capsys, caplog)
        for command in ("fit", "attribute"):
            (out / "events.npz").unlink()
            assert run_counting_parses(command, cfg_path) == 2
            assert stage_outputs(out, command, capsys, caplog) == warm[command]

    @pytest.mark.parametrize("damage", [
        lambda blob: blob[: len(blob) // 2],
        lambda blob: b"not a store",
        lambda blob: b"",
        lambda blob: blob[:-100] + bytes(b ^ 0xFF for b in blob[-100:]),
    ], ids=["truncated", "garbage", "empty", "flipped"])
    def test_a_damaged_store_is_a_miss(self, attributed_run, tmp_path, capsys, caplog, damage):
        cfg_path, source = attributed_run
        out = tmp_path / "out"
        shutil.copytree(source, out)
        cfg_path = write_config(tmp_path, base_config(out))
        capsys.readouterr()
        assert run_counting_parses("attribute", cfg_path) == 0
        hit = stage_outputs(out, "attribute", capsys, caplog)
        store = out / "events.npz"
        store.write_bytes(damage(store.read_bytes()))
        assert run_counting_parses("attribute", cfg_path) == 2
        assert stage_outputs(out, "attribute", capsys, caplog) == hit

    def test_malformed_lines_warn_and_count_the_same_on_a_hit_and_a_miss(
        self, workspace, capsys, caplog
    ):
        cfg_path, out = workspace
        assert run("simulate", "--config", cfg_path) == 0
        with (out / "touchpoints.jsonl").open("a") as fh:
            fh.write("{not json\n[]\n")
        with (out / "conversions.jsonl").open("a") as fh:
            fh.write('{"conversion_id": "x", "customer_id": "c", "timestamp": "soon"}\n')
        caplog.clear()
        assert run_counting_parses("fit", cfg_path) == 2
        warnings = [("mta_engine.events", logging.WARNING,
                     f"skipped {n} malformed line(s) while parsing") for n in (2, 1)]
        assert caplog.record_tuples == warnings
        caplog.clear()
        capsys.readouterr()
        assert json.loads((out / "manifest_fit.json").read_text())["counts"]["lines_skipped"] == 3
        assert run_counting_parses("attribute", cfg_path) == 0
        hit = stage_outputs(out, "attribute", capsys, caplog)
        (out / "events.npz").unlink()
        assert run_counting_parses("attribute", cfg_path) == 2
        assert stage_outputs(out, "attribute", capsys, caplog) == hit
        assert hit["log"] == warnings
        assert json.loads(hit["manifest_attribute.json"])["counts"] == json.loads(
            (out / "manifest_fit.json").read_text())["counts"]

    @pytest.mark.parametrize("workload", ["two-channel-20k", "long-journeys"])
    def test_hit_and_miss_give_the_same_artifacts_on_each_workload(
        self, tmp_path, capsys, caplog, monkeypatch, workload
    ):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        from workloads import WORKLOADS

        out = tmp_path / "out"
        cfg_path = write_config(tmp_path, WORKLOADS[workload].config(1, str(out), 0.1))
        for command in ("simulate", "fit"):
            assert run(command, "--config", cfg_path) == 0
        capsys.readouterr()
        assert run_counting_parses("attribute", cfg_path) == 0
        hit = stage_outputs(out, "attribute", capsys, caplog)
        (out / "events.npz").unlink()
        assert run_counting_parses("attribute", cfg_path) == 2
        assert stage_outputs(out, "attribute", capsys, caplog) == hit


class TestAttributeCampaigns:
    @staticmethod
    def relabel(out: Path) -> None:
        """Move campaign up0's touchpoints to zz99, which the config does not list."""
        log = out / "touchpoints.jsonl"
        log.write_text(log.read_text().replace('"campaign_id": "up0"', '"campaign_id": "zz99"'))

    def test_attribute_refuses_a_campaign_fit_refuses(self, attributed_run, tmp_path, capsys):
        """``attribute`` used to credit touchpoints of a campaign that the
        config does not list, with an earlier fit, while ``fit`` refused them."""
        _, source = attributed_run
        out = tmp_path / "out"
        shutil.copytree(source, out)
        cfg_path = write_config(tmp_path, base_config(out))
        self.relabel(out)
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        capsys.readouterr()
        assert run("fit", "--config", cfg_path) == 1
        refused = capsys.readouterr().err
        assert refused.startswith("DataIntegrityError: touchpoint ")
        assert refused.endswith("belongs to campaign 'zz99' which is not in the campaign list\n")
        assert run("attribute", "--config", cfg_path) == 1
        assert capsys.readouterr().err == refused
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_without_a_simulation_section_attribute_credits_every_campaign(
        self, attributed_run, tmp_path
    ):
        _, source = attributed_run
        out = tmp_path / "out"
        shutil.copytree(source, out)
        config = base_config(out)
        del config["simulation"]
        cfg_path = write_config(tmp_path, config)
        self.relabel(out)
        assert run("attribute", "--config", cfg_path) == 0
        with (out / "mta_credits.csv").open() as fh:
            assert "zz99" in {row["campaign_id"] for row in csv.DictReader(fh)}
