"""Value types of a run's configuration, free of numpy so that loading a config
needs none. The modules that use them re-export them."""

from __future__ import annotations

from dataclasses import dataclass
from datetime import timedelta

from .errors import ConfigError

MODEL_LTA = "lta"
MODEL_LINEAR = "linear"
MODEL_DECAY = "decay"
MODEL_MDA = "mda"
MODEL_NAMES = (MODEL_LTA, MODEL_LINEAR, MODEL_DECAY, MODEL_MDA)

POOLING_GLOBAL = "global"
POOLING_PER_CHANNEL = "per_channel"


@dataclass(frozen=True, slots=True)
class LookbackWindow:
    """Maximum age of a touchpoint, relative to the conversion, to earn credit."""

    duration: timedelta = timedelta(days=7)

    def __post_init__(self) -> None:
        if self.duration <= timedelta(0):
            raise ValueError(f"lookback duration must be positive, got {self.duration}")


@dataclass(frozen=True, slots=True)
class DecayConfig:
    """Half-life (base 2) of the exponential-decay model."""

    half_life: timedelta = timedelta(days=3)

    def __post_init__(self) -> None:
        if self.half_life <= timedelta(0):
            raise ValueError(f"half_life must be positive, got {self.half_life}")


@dataclass(frozen=True, slots=True)
class MdaHyperparams:
    learning_rate: float = 0.5
    iterations: int = 500
    seed: int = 0


@dataclass(frozen=True, slots=True)
class CalibrationOptions:
    feature_models: tuple[str, ...] | None = None
    pooling: str = POOLING_GLOBAL
    intercept: bool = False
    inverse_variance_weighting: bool = False

    def __post_init__(self) -> None:
        if self.pooling not in (POOLING_GLOBAL, POOLING_PER_CHANNEL):
            raise ConfigError(f"pooling must be global or per_channel, got {self.pooling!r}")
        if len(set(self.feature_models or ())) < len(self.feature_models or ()):
            raise ConfigError(f"feature_models must be distinct, got {list(self.feature_models)}")


@dataclass(frozen=True, slots=True)
class CampaignSpec:
    """Generative parameters for one campaign.

    ``true_lift`` is the additive conversion-probability effect of one
    exposure. ``view_window`` places view timestamps uniformly inside the
    given fractions of the horizon, letting fixtures control where a
    channel's touches fall in the journey.
    """

    campaign_id: str
    channel: str
    ad_product: str
    exposure_rate: float
    click_rate: float
    true_lift: float
    holdout_fraction: float = 0.1
    is_rct: bool = True
    view_window: tuple[float, float] = (0.0, 0.7)

    def __post_init__(self) -> None:
        for name in ("exposure_rate", "click_rate", "true_lift"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {value}")
        if not 0.0 < self.holdout_fraction < 1.0:
            raise ConfigError(f"holdout_fraction must be in (0, 1), got {self.holdout_fraction}")
        lo, hi = self.view_window
        if not 0.0 <= lo <= hi <= 1.0:
            raise ConfigError(f"view_window must satisfy 0 <= lo <= hi <= 1, got {[lo, hi]}")


@dataclass(frozen=True, slots=True)
class SimConfig:
    n_customers: int
    campaigns: tuple[CampaignSpec, ...]
    baseline_conversion_rate: float
    seed: int
    horizon: timedelta = timedelta(days=14)

    def __post_init__(self) -> None:
        if self.n_customers < 2:
            raise ConfigError(f"n_customers must be >= 2, got {self.n_customers}")
        if not 0.0 <= self.baseline_conversion_rate <= 1.0:
            raise ConfigError(
                f"baseline_conversion_rate must be in [0, 1], got {self.baseline_conversion_rate}"
            )
        if self.horizon <= timedelta(0):
            raise ConfigError("horizon must be positive")
        ids = [c.campaign_id for c in self.campaigns]
        if len(set(ids)) != len(ids):
            raise ConfigError("campaigns must have unique campaign_id values")
