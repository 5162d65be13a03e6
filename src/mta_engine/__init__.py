"""Desk-scale multi-touch attribution engine.

Simulates RCTs with known incremental effects, attributes conversions under
an ensemble of models (last-touch, linear, exponential decay, and a trained
MDA), fits nonnegative calibration weights mapping attributed conversions
to RCT incremental conversions, and disaggregates those weights into
touchpoint-level MTA credits and normalized attribution shares.

The names below are imported from their modules on first access (PEP 562),
so importing the package, or a numpy-free module of it, loads no numpy.
"""

import importlib

# Each exported name -> the module that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "attribution": ("MdaModel", "ModelCredits", "decay_credits", "linear_credits",
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
        "shares": ("AttributionShareReport", "ShareRow", "aggregate_shares", "column_shares"),
    }.items()
    for name in names
}

__all__ = tuple(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_EXPORTS[name]}", __name__)
    return globals().setdefault(name, getattr(module, name))


def __dir__() -> list[str]:
    return sorted(__all__)

