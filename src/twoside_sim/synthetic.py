"""Seeded synthetic scenario generation.

Viewer and provider groups get d-dimensional binary taste/trait features;
base utilities are their inner products.  Each provider group carries d
sigmoid quality curves, and the population effect for a (viewer, provider)
pair is the viewer-feature-weighted sum of those curves, so providers improve
along dimensions that matter to some viewer groups and not others.
Reference-population maps are upper-half sigmoids with per-group scales.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any

import numpy as np

from .functions import sigmoid_half, weighted_sigmoid_sum
from .kinds import ExperimentConfigError, _check_kinds, _fields_table, _read
from .model import EnvironmentSpec, PopulationState

_INIT_PRESETS = {
    "small": (20.0, 10.0),
    "large": (100.0, 30.0),
}


@dataclass(frozen=True)
class SyntheticScenarioConfig:
    K: int = 20
    L: int = 20
    d: int = 20
    feature_bernoulli_p: float = 0.5
    lambda_max_range: tuple[float, float] = (40.0, 120.0)
    tau_range: tuple[float, float] = (4.0, 20.0)
    quality_max_range: tuple[float, float] = (0.5, 2.0)
    quality_tau_range: tuple[float, float] = (20.0, 80.0)
    init: str = "small"
    eta: float = 0.3
    T: int = 200
    seed: int = 0

    def __post_init__(self):
        _check_kinds(self)
        if min(self.K, self.L, self.d) < 1:
            raise ExperimentConfigError("K, L, d must be >= 1")
        if not (0.0 < self.feature_bernoulli_p < 1.0):
            raise ExperimentConfigError("feature_bernoulli_p must be in (0, 1)")
        for name in ("lambda_max_range", "tau_range", "quality_max_range",
                     "quality_tau_range"):
            lo, hi = getattr(self, name)
            if not (0.0 < lo <= hi):
                raise ExperimentConfigError(f"{name} must be a positive interval, got {(lo, hi)}")
            object.__setattr__(self, name, (float(lo), float(hi)))
        if self.init not in _INIT_PRESETS:
            raise ExperimentConfigError(
                f"init must be one of {list(_INIT_PRESETS)}, got {self.init!r}")
        if not (0.0 <= self.eta <= 1.0):
            raise ExperimentConfigError("eta must be in [0, 1]")
        if self.T < 1:
            raise ExperimentConfigError("T must be >= 1")
        if self.seed < 0:
            raise ExperimentConfigError("seed must be >= 0")

    def to_dict(self) -> dict[str, Any]:
        """The fields, the ranges as lists (a JSON block holds no tuples)."""
        return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "SyntheticScenarioConfig":
        return cls(**_read(d, "synthetic scenario", _fields_table(cls)))


def gen_synthetic(config: SyntheticScenarioConfig) -> EnvironmentSpec:
    """Deterministically sample an environment from the scenario config.

    Sampling order is fixed (viewer features, provider features, viewer
    reference params, provider reference params, per-provider quality
    params), so a given seed always yields the identical environment.
    """
    rng = np.random.default_rng(config.seed)
    K, L, d = config.K, config.L, config.d
    U = (rng.random((K, d)) < config.feature_bernoulli_p).astype(float)
    C = (rng.random((L, d)) < config.feature_bernoulli_p).astype(float)
    B = U @ C.T

    viewer_refs = tuple(
        sigmoid_half(rng.uniform(*config.lambda_max_range),
                     rng.uniform(*config.tau_range))
        for _ in range(K))
    provider_refs = tuple(
        sigmoid_half(rng.uniform(*config.lambda_max_range),
                     rng.uniform(*config.tau_range))
        for _ in range(L))

    quality_max = [rng.uniform(*config.quality_max_range, size=d) for _ in range(L)]
    quality_tau = [rng.uniform(*config.quality_tau_range, size=d) for _ in range(L)]
    f = tuple(
        tuple(weighted_sigmoid_sum(U[k], quality_max[l], quality_tau[l])
              for l in range(L))
        for k in range(K))

    return EnvironmentSpec(
        K=K, L=L, B=B, f=f,
        lambda_bar_viewer=viewer_refs,
        lambda_bar_provider=provider_refs,
        eta_viewer=np.full(K, config.eta),
        eta_provider=np.full(L, config.eta),
        seed=config.seed,
    )


def sample_initial_state(config: SyntheticScenarioConfig) -> PopulationState:
    """Initial populations for the scenario: its preset's normal draws
    clipped at zero, from a stream independent of the environment sampling.
    Given populations go in a config's `init` block or a PopulationState."""
    mean, std = _INIT_PRESETS[config.init]
    rng = np.random.default_rng([config.seed, 1])
    viewer = np.maximum(rng.normal(mean, std, config.K), 0.0)
    provider = np.maximum(rng.normal(mean, std, config.L), 0.0)
    return PopulationState(t=0, viewer=viewer, provider=provider)
