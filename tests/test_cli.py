import csv
import json
from pathlib import Path

import pytest

from mta_engine import attribution, rct
from mta_engine.cli import ARTIFACTS, load_run_config, main
from mta_engine.events import CONVERSION_FIELDS, TOUCHPOINT_FIELDS


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
        ],
        ids=["negative-max-negatives", "one-cv-fold", "null-mda"],
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
        ],
        ids=[
            "word-lookback-days",
            "word-max-negatives",
            "campaigns-object",
            "one-element-view-window",
            "word-holdout-fraction",
            "campaigns-empty-object",
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


class TestInsufficientData:
    def test_fewer_campaigns_than_features_exits_3(self, tmp_path, capsys):
        config = base_config(tmp_path / "out")
        config["simulation"]["campaigns"] = config["simulation"]["campaigns"][:1]
        cfg_path = write_config(tmp_path, config)
        assert run("simulate", "--config", cfg_path) == 0
        assert run("fit", "--config", cfg_path) == 3
        err = capsys.readouterr().err
        assert "InsufficientDataError" in err and "1 RCT row" in err


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

        monkeypatch.setattr(rct, "Touchpoint", forbidden)
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
