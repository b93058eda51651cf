"""Seeded synthetic scenario generation.

Viewer and provider groups get d-dimensional binary taste/trait features;
base utilities are their inner products.  Each provider group carries d
sigmoid quality curves, and the population effect for a (viewer, provider)
pair is the viewer-feature-weighted sum of those curves, so providers improve
along dimensions that matter to some viewer groups and not others.
Reference-population maps are upper-half sigmoids with per-group scales.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Any

import numpy as np

from .functions import sigmoid_half, weighted_sigmoid_sum
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
        if min(self.K, self.L, self.d) < 1:
            raise ValueError("K, L, d must be >= 1")
        if not (0.0 < self.feature_bernoulli_p < 1.0):
            raise ValueError("feature_bernoulli_p must be in (0, 1)")
        for name in ("lambda_max_range", "tau_range", "quality_max_range",
                     "quality_tau_range"):
            pair = getattr(self, name)
            if not (isinstance(pair, (tuple, list, np.ndarray)) and len(pair) == 2
                    and all(isinstance(v, numbers.Real) and not isinstance(v, bool)
                            for v in pair)):
                raise ValueError(f"{name} must be two numbers (lo, hi), got {pair!r}")
            lo, hi = pair
            if not (0.0 < lo <= hi):
                raise ValueError(f"{name} must be a positive interval, got {(lo, hi)}")
            object.__setattr__(self, name, (float(lo), float(hi)))
        if self.init not in _INIT_PRESETS:
            raise ValueError(f"init must be one of {list(_INIT_PRESETS)}, got {self.init!r}")
        if not (0.0 <= self.eta <= 1.0):
            raise ValueError("eta must be in [0, 1]")
        if self.T < 1:
            raise ValueError("T must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    def to_dict(self) -> dict[str, Any]:
        return {
            "K": self.K, "L": self.L, "d": self.d,
            "feature_bernoulli_p": self.feature_bernoulli_p,
            "lambda_max_range": list(self.lambda_max_range),
            "tau_range": list(self.tau_range),
            "quality_max_range": list(self.quality_max_range),
            "quality_tau_range": list(self.quality_tau_range),
            "init": self.init, "eta": self.eta, "T": self.T, "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "SyntheticScenarioConfig":
        from .experiment import _fields_table, _read     # experiment imports this module
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
