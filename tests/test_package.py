"""The package exports its names lazily; each is the object its module defines."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mta_engine

# Every name the package exports, by the module that defines it.
EXPORTS = {
    "attribution": ("CreditVector", "MdaModel", "ModelCredits", "decay_credits", "linear_credits",
                    "lta_credits", "mda_credits", "train_mda"),
    "calibration": ("CalibrationModel", "CampaignFeatureRow", "aggregate_campaign_features",
                    "evaluate_oos", "fit_calibration", "nnls"),
    "config": ("CalibrationOptions", "CampaignSpec", "DecayConfig", "LookbackWindow",
               "MdaHyperparams", "MODEL_DECAY", "MODEL_LINEAR", "MODEL_LTA", "MODEL_MDA",
               "MODEL_NAMES", "SimConfig"),
    "errors": ("ConfigError", "DataIntegrityError", "DegenerateDesignError",
               "DegenerateLabelsError", "InsufficientDataError", "MissingArtifactError",
               "MtaError", "NoTouchpointsError", "ParseError", "UnusableArtifactError"),
    "events": ("ConversionEvent", "InteractionKind", "Journey", "Journeys", "ParseResult",
               "Touchpoint", "TouchpointTable", "build_journeys", "parse_event_log"),
    "rct": ("GroundTruthRow", "RctResult", "assign_treatment", "estimate_lift",
            "lift_from_counts", "replication_study", "simulate"),
    "shares": ("AttributionShareReport", "MtaCredit", "ShareRow", "aggregate_shares",
               "column_shares"),
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


def test_fresh_import_loads_no_numpy_and_keeps_the_nnls_function():
    """The numpy-free modules load no numpy, and importing ``calibration`` leaves
    the package's ``nnls`` the function that ``calibration`` defines."""
    code = (
        "import sys\n"
        "from mta_engine.shares import column_shares\n"
        "import mta_engine.config, mta_engine.cli\n"
        "assert 'numpy' not in sys.modules\n"
        "import mta_engine.calibration\n"
        "assert mta_engine.nnls is mta_engine.calibration.nnls\n"
    )
    src = str(Path(mta_engine.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=60)
