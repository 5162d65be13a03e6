"""Desk-scale multi-touch attribution engine.

Simulates RCTs with known incremental effects, attributes conversions under
an ensemble of models (last-touch, linear, exponential decay, and a trained
MDA), fits nonnegative calibration weights mapping attributed conversions
to RCT incremental conversions, and disaggregates those weights into
touchpoint-level MTA credits and normalized attribution shares.
"""

from .attribution import (
    CreditVector,
    DecayConfig,
    MdaHyperparams,
    MdaModel,
    MODEL_DECAY,
    MODEL_LINEAR,
    MODEL_LTA,
    MODEL_MDA,
    MODEL_NAMES,
    decay_credits,
    linear_credits,
    lta_credits,
    mda_credits,
    train_mda,
)
from .calibration import (
    CalibrationModel,
    CalibrationOptions,
    CampaignFeatureRow,
    aggregate_campaign_features,
    evaluate_oos,
    fit_calibration,
)
from .credits import (
    AttributionShareReport,
    CreditTable,
    MtaCredit,
    ShareRow,
    aggregate_shares,
)
from .errors import (
    ConfigError,
    DataIntegrityError,
    DegenerateDesignError,
    DegenerateLabelsError,
    InsufficientDataError,
    MissingArtifactError,
    MtaError,
    NoTouchpointsError,
    ParseError,
    UnusableArtifactError,
)
from .events import (
    ConversionEvent,
    InteractionKind,
    Journey,
    Journeys,
    LookbackWindow,
    ParseResult,
    Touchpoint,
    TouchpointTable,
    build_journeys,
    parse_event_log,
)
from .nnls import nnls
from .rct import (
    CampaignSpec,
    GroundTruthRow,
    RctResult,
    SimConfig,
    assign_treatment,
    estimate_lift,
    lift_from_counts,
    replication_study,
    simulate,
)

__version__ = "0.1.0"
