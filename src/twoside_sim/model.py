"""Core domain types: environments, populations, policies, payoffs.

All types are immutable value objects.  Arrays handed in are copied and the
copies are treated as read-only, so a caller cannot change an instance after
it is validated, and instances can be shared freely between rollouts.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .functions import FnGrid, FnVector, ScalarFn

ROW_SUM_TOL = 1e-9


class SpecValidationError(ValueError):
    """A domain type was constructed with inconsistent or invalid fields."""


class PolicyValidationError(SpecValidationError):
    """A matrix is not a valid row-stochastic allocation policy."""


@dataclass(frozen=True)
class NoiseSpec:
    """Multiplicative Gaussian population noise: pop *= (1 + N(0, relative_std^2))."""

    relative_std: float

    def __post_init__(self):
        if not np.isfinite(self.relative_std) or self.relative_std < 0:
            raise SpecValidationError("relative_std must be finite and >= 0")

    @property
    def active(self) -> bool:
        return self.relative_std > 0


@dataclass(frozen=True)
class EnvironmentSpec:
    """The full static description of a two-sided platform instance.

    K viewer groups and L provider groups interact through a base-utility
    matrix B (K x L), population-effect curves f[k][l] applied to the provider
    population, reference-population curves for both sides, and per-group
    reactiveness rates eta in [0, 1].
    """

    K: int
    L: int
    B: np.ndarray                                # (K, L) base utilities
    f: tuple[tuple[ScalarFn, ...], ...]          # (K, L) population effects
    lambda_bar_viewer: tuple[ScalarFn, ...]      # length K, argument s_k
    lambda_bar_provider: tuple[ScalarFn, ...]    # length L, argument e_l
    eta_viewer: np.ndarray                       # length K, in [0, 1]
    eta_provider: np.ndarray                     # length L, in [0, 1]
    noise: NoiseSpec | None = None
    seed: int = 0
    # Array views of the curves, built once in __post_init__ and read by every
    # evaluation.
    viewer_curves: FnVector = field(init=False, repr=False, compare=False)
    provider_curves: FnVector = field(init=False, repr=False, compare=False)
    f_grid: FnGrid = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "B", _readonly(np.asarray(self.B, dtype=float)))
        object.__setattr__(self, "eta_viewer",
                           _readonly(np.asarray(self.eta_viewer, dtype=float)))
        object.__setattr__(self, "eta_provider",
                           _readonly(np.asarray(self.eta_provider, dtype=float)))
        object.__setattr__(self, "f", tuple(tuple(row) for row in self.f))
        object.__setattr__(self, "lambda_bar_viewer", tuple(self.lambda_bar_viewer))
        object.__setattr__(self, "lambda_bar_provider", tuple(self.lambda_bar_provider))
        if self.K < 1 or self.L < 1:
            raise SpecValidationError("K and L must be >= 1")
        if self.B.shape != (self.K, self.L):
            raise SpecValidationError(f"B must be (K, L)={self.K, self.L}, got {self.B.shape}")
        if len(self.f) != self.K or any(len(row) != self.L for row in self.f):
            raise SpecValidationError("f must be a K x L grid of ScalarFn")
        if len(self.lambda_bar_viewer) != self.K:
            raise SpecValidationError("lambda_bar_viewer must have length K")
        if len(self.lambda_bar_provider) != self.L:
            raise SpecValidationError("lambda_bar_provider must have length L")
        for name, eta, n in (("eta_viewer", self.eta_viewer, self.K),
                             ("eta_provider", self.eta_provider, self.L)):
            if eta.shape != (n,):
                raise SpecValidationError(f"{name} must have length {n}")
            if np.any(eta < 0) or np.any(eta > 1) or not np.all(np.isfinite(eta)):
                raise SpecValidationError(f"{name} entries must lie in [0, 1]")
        if self.seed < 0:
            raise SpecValidationError("seed must be a non-negative integer")
        object.__setattr__(self, "viewer_curves", FnVector(self.lambda_bar_viewer))
        object.__setattr__(self, "provider_curves", FnVector(self.lambda_bar_provider))
        object.__setattr__(self, "f_grid", FnGrid(self.f))

    @property
    def noise_active(self) -> bool:
        return self.noise is not None and self.noise.active

    def to_dict(self) -> dict:
        return {
            "K": self.K,
            "L": self.L,
            "B": self.B.tolist(),
            "f": [[fn.to_dict() for fn in row] for row in self.f],
            "lambda_bar_viewer": [fn.to_dict() for fn in self.lambda_bar_viewer],
            "lambda_bar_provider": [fn.to_dict() for fn in self.lambda_bar_provider],
            "eta_viewer": self.eta_viewer.tolist(),
            "eta_provider": self.eta_provider.tolist(),
            "noise": None if self.noise is None else {"relative_std": self.noise.relative_std},
            "seed": int(self.seed),
        }

    @staticmethod
    def from_dict(d: dict) -> "EnvironmentSpec":
        noise = d.get("noise")
        return EnvironmentSpec(
            K=int(d["K"]),
            L=int(d["L"]),
            B=np.asarray(d["B"], dtype=float),
            f=tuple(tuple(ScalarFn.from_dict(fd) for fd in row) for row in d["f"]),
            lambda_bar_viewer=tuple(ScalarFn.from_dict(fd) for fd in d["lambda_bar_viewer"]),
            lambda_bar_provider=tuple(ScalarFn.from_dict(fd) for fd in d["lambda_bar_provider"]),
            eta_viewer=np.asarray(d["eta_viewer"], dtype=float),
            eta_provider=np.asarray(d["eta_provider"], dtype=float),
            noise=None if noise is None else NoiseSpec(float(noise["relative_std"])),
            seed=int(d.get("seed", 0)),
        )

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "EnvironmentSpec":
        return EnvironmentSpec.from_dict(json.loads(text))

    def digest(self) -> str:
        """Stable content hash of the environment (used to pair trajectories).

        Computed on first use and kept on the instance, which never changes.
        """
        digest = self.__dict__.get("_digest")
        if digest is None:
            canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
            digest = hashlib.sha256(canonical.encode()).hexdigest()[:16]
            object.__setattr__(self, "_digest", digest)
        return digest


@dataclass(frozen=True)
class PopulationState:
    """Viewer and provider population vectors at one timestep."""

    t: int
    viewer: np.ndarray    # length K, >= 0
    provider: np.ndarray  # length L, >= 0

    def __post_init__(self):
        object.__setattr__(self, "viewer",
                           _readonly(np.asarray(self.viewer, dtype=float)))
        object.__setattr__(self, "provider",
                           _readonly(np.asarray(self.provider, dtype=float)))
        if self.t < 0:
            raise SpecValidationError("timestep index must be >= 0")
        for name, v in (("viewer", self.viewer), ("provider", self.provider)):
            if v.ndim != 1:
                raise SpecValidationError(f"{name} populations must be a vector")
            if np.any(v < 0) or not np.all(np.isfinite(v)):
                raise SpecValidationError(f"{name} populations must be finite and >= 0")


@dataclass(frozen=True)
class PolicyMatrix:
    """A K x L row-stochastic allocation of provider groups to viewer groups.

    Valid by construction: entries must be finite, non-negative and at most 1,
    and each row must sum to 1 within ROW_SUM_TOL, else PolicyValidationError.
    Entries are kept bit-for-bit as given (no renormalizing division): several
    policy constructors guarantee exact algebraic identities — e.g. the
    epsilon-greedy convex combination and interpolation endpoints — that a
    renormalization would silently break.
    """

    rows: np.ndarray

    def __post_init__(self):
        rows = _readonly(np.asarray(self.rows, dtype=float))
        if rows.ndim != 2:
            raise PolicyValidationError(f"policy must be a 2-d matrix, got shape {rows.shape}")
        if not np.all(np.isfinite(rows)):
            raise PolicyValidationError("policy entries must be finite")
        if np.any(rows < 0):
            raise PolicyValidationError("policy entries must be >= 0")
        if np.any(rows > 1 + ROW_SUM_TOL):
            raise PolicyValidationError("policy entries must be <= 1")
        sums = rows.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > ROW_SUM_TOL):
            bad = int(np.argmax(np.abs(sums - 1.0)))
            raise PolicyValidationError(
                f"policy row {bad} sums to {sums[bad]!r}, expected 1 within {ROW_SUM_TOL}")
        object.__setattr__(self, "rows", rows)

    @property
    def shape(self) -> tuple[int, int]:
        return self.rows.shape


def as_rows(pi) -> np.ndarray:
    """Accept a PolicyMatrix or a raw matrix and return the underlying array."""
    return pi.rows if isinstance(pi, PolicyMatrix) else np.asarray(pi, dtype=float)


def validate_policy(m) -> PolicyMatrix:
    """`m` as an allocation policy: a PolicyMatrix as it is (it was checked
    when made), anything else checked by the PolicyMatrix constructor."""
    return m if isinstance(m, PolicyMatrix) else PolicyMatrix(m)


def greedy_rows(B) -> np.ndarray:
    """Per-row argmax indicator of B (rows along the last axis, any leading
    axes); ties break toward the lowest index."""
    B = np.asarray(B, dtype=float)
    out = np.zeros_like(B)
    np.put_along_axis(out, np.argmax(B, axis=-1)[..., None], 1.0, axis=-1)  # first maximum
    return out


def epsilon_greedy(B, epsilon: float) -> PolicyMatrix:
    """Mixture policy (1 - eps) * greedy-on-B + eps * uniform.

    Built literally as the convex combination of the two extreme policies so
    the identity row(eps) == (1 - eps) * row(0) + eps * row(1) holds exactly.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise PolicyValidationError(f"epsilon must lie in [0, 1], got {epsilon!r}")
    B = np.asarray(B, dtype=float)
    uniform = np.full_like(B, 1.0 / B.shape[1])
    return validate_policy((1.0 - epsilon) * greedy_rows(B) + epsilon * uniform)


@dataclass(frozen=True)
class Payoffs:
    """Per-step payoff bundle: satisfaction s (K), exposure e (L), utilities q (K, L)."""

    s: np.ndarray
    e: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "s", _readonly(np.asarray(self.s, dtype=float)))
        object.__setattr__(self, "e", _readonly(np.asarray(self.e, dtype=float)))
        object.__setattr__(self, "q", _readonly(np.asarray(self.q, dtype=float)))


def _readonly(a: np.ndarray) -> np.ndarray:
    a = a.copy()
    a.setflags(write=False)
    return a


def _frozen(a) -> np.ndarray:
    """`a` itself when it is a read-only array, else a read-only copy."""
    return a if isinstance(a, np.ndarray) and not a.flags.writeable else _readonly(np.asarray(a))
