"""Exception types shared across the attribution engine."""


class MtaError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(MtaError):
    """A configuration value is missing, malformed, or out of range."""


class ParseError(MtaError):
    """An event stream cannot be read in the declared format."""


class NoTouchpointsError(MtaError):
    """A credit model was asked to attribute a journey with no touchpoints."""


class DegenerateLabelsError(MtaError):
    """MDA training requires both converting and non-converting journeys."""


class DegenerateDesignError(MtaError):
    """An RCT contrast has an empty treatment or holdout group."""


class InsufficientDataError(MtaError):
    """Too few calibration rows to identify the requested weights."""


class DataIntegrityError(MtaError):
    """Records or credits are inconsistent: a repeated id, credits without
    one row per touchpoint, or a credited journey without a conversion."""


class MissingArtifactError(MtaError):
    """A pipeline stage requires an artifact that has not been produced."""


class UnusableArtifactError(MtaError):
    """A pipeline stage's input artifact exists but cannot be decoded."""
