"""The package exports its names lazily; each is the object its module defines."""

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mta_engine

# Every name the package exports, by the module that defines it.
EXPORTS = {
    "attribution": ("MdaModel", "ModelCredits", "decay_credits", "linear_credits", "lta_credits",
                    "mda_credits", "train_mda"),
    "calibration": ("CalibrationModel", "CampaignFeatureRow", "aggregate_campaign_features",
                    "evaluate_oos", "fit_calibration", "nnls"),
    "config": ("CalibrationOptions", "CampaignSpec", "DecayConfig", "LookbackWindow",
               "MODEL_DECAY", "MODEL_LINEAR", "MODEL_LTA", "MODEL_MDA", "MODEL_NAMES",
               "SimConfig"),
    "errors": ("ConfigError", "DataIntegrityError", "DegenerateDesignError",
               "DegenerateLabelsError", "InsufficientDataError", "MissingArtifactError",
               "MtaError", "NoTouchpointsError", "ParseError", "UnusableArtifactError"),
    "events": ("ConversionEvent", "InteractionKind", "Journey", "Journeys", "ParseResult",
               "Touchpoint", "TouchpointTable", "build_journeys", "parse_event_log"),
    "rct": ("GroundTruthRow", "RctResult", "assign_treatment", "estimate_lift",
            "lift_from_counts", "replication_study", "simulate"),
    "shares": ("AttributionShareReport", "ShareRow", "aggregate_shares", "column_shares"),
}
NAMES = sorted(name for names in EXPORTS.values() for name in names)


@pytest.mark.parametrize("module, name", [(m, n) for m, names in EXPORTS.items() for n in names])
def test_export_is_the_defining_modules_object(module, name):
    defining = importlib.import_module(f"mta_engine.{module}")
    assert getattr(mta_engine, name) is getattr(defining, name)


def test_all_and_dir_list_exactly_the_exports():
    assert sorted(mta_engine.__all__) == dir(mta_engine) == NAMES


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from mta_engine import *", namespace)
    del namespace["__builtins__"]
    assert namespace == {name: getattr(mta_engine, name) for name in NAMES}


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        mta_engine.no_such_name  # noqa: B018


def test_object_adapters_are_gone():
    """Each layer takes one input type: no credit vector, no credit object for
    shares, and no constructor that turns objects back into a table."""
    from mta_engine import attribution, events, shares

    assert not hasattr(mta_engine, "CreditVector") and not hasattr(attribution, "CreditVector")
    assert not hasattr(mta_engine, "MtaCredit") and not hasattr(shares, "MtaCredit")
    for cls in (attribution.ModelCredits, events.TouchpointTable, events.Journeys):
        assert not hasattr(cls, "of"), cls.__name__


def test_the_mda_fit_takes_only_the_journeys():
    """The Newton fit has no learning rate, seed or negative subsample, and its
    step cap is ``attribution._MAX_NEWTON_STEPS``: ``MdaHyperparams`` and the
    training functions' options are gone."""
    from mta_engine import attribution, config, pipeline

    for module in (mta_engine, config, attribution, pipeline):
        assert not hasattr(module, "MdaHyperparams"), module.__name__
    for train in (attribution.train_mda, pipeline.train_attributor):
        assert list(inspect.signature(train).parameters) == ["journeys"], train.__name__
    assert attribution._MAX_NEWTON_STEPS == 400


def test_cv_metrics_are_attached_by_replace():
    """A fitted model gets its CV metrics through ``dataclasses.replace``; the
    one-field copy method is gone."""
    assert not hasattr(mta_engine.CalibrationModel, "with_cv_metrics")


def test_columnar_tables_share_one_row_protocol():
    """The columnar sequences index, slice and iterate through one base built
    on ``take(rows)``; none re-implements indexing."""
    from mta_engine import events

    for cls in (events.PackedStrings, events.TouchpointTable, events.ConversionTable,
                events.Journeys):
        assert "__getitem__" not in vars(cls) and "take" in vars(cls), cls.__name__
        assert not hasattr(cls, "objects"), cls.__name__


def test_conversions_are_columns_end_to_end():
    """Conversions reach the journeys as a ``ConversionTable``: no datetime
    column is turned back into integers, and a journey table keeps customer
    codes and conversion rows, not per-journey lists."""
    from mta_engine import events, rct

    assert not hasattr(events, "_micros")
    journeys = events.build_journeys(
        events.parse_event_log([]).touchpoints, events.parse_event_log([]).conversions
    )
    assert isinstance(journeys.conversions, events.ConversionTable)
    for name in ("customer_ids", "conversion_us"):
        assert not hasattr(journeys, name), name
    config = rct.SimConfig(50, (), 0.5, seed=1)
    assert isinstance(rct.simulate(config)[1], events.ConversionTable)


def run_fresh(code: str) -> None:
    """Run ``code`` in a new interpreter that imports this package; it must exit 0."""
    src = str(Path(mta_engine.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=60)


def test_fresh_import_loads_no_numpy_and_keeps_the_nnls_function():
    """The numpy-free modules load no numpy, and importing ``calibration`` leaves
    the package's ``nnls`` the function that ``calibration`` defines."""
    run_fresh(
        "import sys\n"
        "from mta_engine.shares import column_shares\n"
        "import mta_engine.config, mta_engine.cli\n"
        "assert 'numpy' not in sys.modules\n"
        "import mta_engine.calibration\n"
        "assert mta_engine.nnls is mta_engine.calibration.nnls\n"
    )


def test_build_journeys_loads_no_simulator():
    """Reading a touchpoint table and building its journeys leaves
    ``mta_engine.rct`` unimported."""
    run_fresh(
        "import sys\n"
        "from mta_engine.events import (\n"
        "    CONVERSION_FIELDS, TOUCHPOINT_FIELDS, build_journeys, parse_event_log)\n"
        "lines = [','.join(TOUCHPOINT_FIELDS), 't1,c1,a,Upper,display,view,2025-01-02T00:00:00Z']\n"
        "table = parse_event_log(lines, 'csv').touchpoints\n"
        "lines = [','.join(CONVERSION_FIELDS), 'x1,c1,2025-01-02T00:00:00Z,']\n"
        "conversions = parse_event_log(lines, 'csv').conversions\n"
        "assert len(build_journeys(table, conversions)) == 1\n"
        "assert 'mta_engine.rct' not in sys.modules\n"
    )
