"""Closed-form ground truth: game utilities, linear-environment equilibria,
welfare bounds for exploration policies, and two hand-built instances
(a two-provider case where greedy is suboptimal, and a bistable sigmoid
instance with three equilibria).

Everything here is computed by a route independent of the simulator so the
two can be cross-checked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import payoffs
from .functions import linear_fn, scaled_logistic
from .kinds import _check_kinds
from .model import EnvironmentSpec, PopulationState, _policy_rows, _readonly, epsilon_greedy


class OracleDomainError(ValueError):
    """Inputs leave the region where the closed form is valid."""


# ---------------------------------------------------------------------------
# game utilities and the ascent identity


def game_utilities(env: EnvironmentSpec, pi, state: PopulationState) -> tuple[np.ndarray, np.ndarray]:
    """Per-group utilities: participation payoff minus quadratic opportunity cost.

    u_k = viewer_k * lambda_bar_k(s_k) - viewer_k^2 / 2
    v_l = provider_l * lambda_bar_l(e_l) - provider_l^2 / 2
    """
    p = payoffs(env, state, pi)
    ref = env.curves.value(np.concatenate([p.s, p.e]))     # lambda_bar(s), then lambda_bar(e)
    u = state.viewer * ref[:env.K] - state.viewer ** 2 / 2.0
    v = state.provider * ref[env.K:] - state.provider ** 2 / 2.0
    return u, v


def gradient_ascent_update(env: EnvironmentSpec, pi, state: PopulationState) -> PopulationState:
    """One gradient-ascent step of each group on its own utility.

    The own-population partials are analytic: d u_k / d viewer_k =
    lambda_bar_k(s_k) - viewer_k (satisfaction does not depend on the viewer's
    own population), and symmetrically for providers.  Its step sizes are the
    reactiveness rates, so it coincides with the population dynamics map; the
    result is clipped at zero like the dynamics.
    """
    p = payoffs(env, state, pi)
    ref = env.curves.value(np.concatenate([p.s, p.e]))
    du, dv = ref[:env.K] - state.viewer, ref[env.K:] - state.provider
    new_viewer = state.viewer + env.eta_viewer * du
    new_provider = state.provider + env.eta_provider * dv
    return PopulationState(t=state.t + 1,
                           viewer=np.maximum(new_viewer, 0.0),
                           provider=np.maximum(new_provider, 0.0))


# ---------------------------------------------------------------------------
# linear environments: closed-form equilibrium and welfare


@dataclass(frozen=True)
class LinearGameParams:
    """All-linear environment: f(x) = a0*x for every pair, viewer reference
    a1*s, provider reference a2*e + b2, base utilities B (K x L)."""

    a0: float
    a1: float
    a2: float
    b2: float
    B: np.ndarray

    def __post_init__(self):
        _check_kinds(self, OracleDomainError)
        for name in ("a0", "a1", "a2"):
            if not (getattr(self, name) > 0):
                raise OracleDomainError(f"{name} must be > 0")
        B = np.asarray(self.B, dtype=float)
        if B.ndim != 2:
            raise OracleDomainError("B must be a 2-d matrix")
        object.__setattr__(self, "B", _readonly(B))

    @property
    def K(self) -> int:
        return self.B.shape[0]

    @property
    def L(self) -> int:
        return self.B.shape[1]


def linear_env(params: LinearGameParams, eta_viewer: float = 0.5,
               eta_provider: float = 0.5, seed: int = 0) -> EnvironmentSpec:
    """The EnvironmentSpec whose dynamics the closed forms describe."""
    K, L = params.K, params.L
    return EnvironmentSpec(
        K=K, L=L, B=params.B,
        f=tuple(tuple(linear_fn(params.a0) for _ in range(L)) for _ in range(K)),
        lambda_bar_viewer=tuple(linear_fn(params.a1) for _ in range(K)),
        lambda_bar_provider=tuple(linear_fn(params.a2, params.b2) for _ in range(L)),
        eta_viewer=np.full(K, eta_viewer),
        eta_provider=np.full(L, eta_provider),
        seed=seed,
    )


def _linear_system(params: LinearGameParams, pi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows of pi, M, y) with M * viewer_eq = a1 * y: M = I - a0 a1 a2 pi pi^T
    and y_k = sum_l pi[k,l] B[k,l] + a0 b2."""
    rows = _policy_rows(pi, params.K, params.L)
    M = np.eye(params.K) - params.a0 * params.a1 * params.a2 * (rows @ rows.T)
    y = (rows * params.B).sum(axis=1) + params.a0 * params.b2
    return rows, M, y


def _check_pd(M: np.ndarray) -> None:
    lam_min = float(np.linalg.eigvalsh(M).min())
    if lam_min <= 0:
        raise OracleDomainError(
            f"I - a0*a1*a2*pi*pi^T is not positive definite (min eig {lam_min:.3e}); "
            "the closed-form equilibrium does not exist here")


def linear_ne(params: LinearGameParams, pi) -> PopulationState:
    """Closed-form equilibrium populations of the all-linear environment.

    viewer_eq = a1 * (I - a0 a1 a2 pi pi^T)^-1 [rowsum(pi*B) + a0 b2 1]
    provider_eq = a2 * pi^T viewer_eq + b2
    """
    rows, M, y = _linear_system(params, pi)
    _check_pd(M)
    viewer_eq = params.a1 * np.linalg.solve(M, y)
    provider_eq = params.a2 * (rows.T @ viewer_eq) + params.b2
    if np.any(viewer_eq < 0) or np.any(provider_eq < 0):
        raise OracleDomainError(
            "equilibrium has negative populations; the unclipped closed form "
            "does not describe the clipped dynamics here")
    return PopulationState(t=0, viewer=viewer_eq, provider=provider_eq)


def linear_welfare(params: LinearGameParams, pi) -> float:
    """Closed-form equilibrium welfare R = a1 * || M^-1 y ||^2."""
    _, M, y = _linear_system(params, pi)
    _check_pd(M)
    z = np.linalg.solve(M, y)
    return float(params.a1 * (z @ z))


def welfare_from_ne(params: LinearGameParams, ne: PopulationState) -> float:
    """The same welfare through the equilibrium identity R = ||viewer_eq||^2 / a1."""
    return float((ne.viewer @ ne.viewer) / params.a1)


def greedy_cluster_size(B: np.ndarray) -> int:
    """Largest number of viewer rows sharing one greedy (argmax) column."""
    B = np.asarray(B, dtype=float)
    if B.ndim != 2 or B.shape[0] < 1:
        raise OracleDomainError("B must be a non-empty 2-d matrix")
    winners = np.argmax(B, axis=1)
    return int(np.max(np.bincount(winners, minlength=B.shape[1])))


def epsilon_welfare_bounds(params: LinearGameParams, B: np.ndarray,
                           epsilon: float) -> tuple[float, float]:
    """Welfare bracket g(eps) <= R(pi^eps) <= g(eps)*h(eps) for epsilon-greedy
    exploration on B, in the all-linear environment.

        g(eps) = a1 * || (1-eps) b0 + eps b1 + a0 b2 1 ||^2
        h(eps) = (1 - a0 a1 a2 K1 + a0 a1 a2 eps (2-eps) (K1 - K/L))^-2

    with b0/b1 the per-row max/mean of B and K1 the largest greedy cluster.
    The bracket is verified against the closed-form welfare before returning.
    """
    if not (0.0 <= epsilon <= 1.0):
        raise OracleDomainError(f"epsilon must be in [0, 1], got {epsilon}")
    B = np.asarray(B, dtype=float)
    if B.shape != params.B.shape:
        raise OracleDomainError("B shape does not match params.B")
    K, L = B.shape
    K1 = greedy_cluster_size(B)
    prod = params.a0 * params.a1 * params.a2
    if prod * K1 >= 1.0:
        raise OracleDomainError(
            f"a0*a1*a2*K1 = {prod * K1:.4f} >= 1: the bound precondition fails")
    b0 = B.max(axis=1)
    b1 = B.mean(axis=1)
    vec = (1.0 - epsilon) * b0 + epsilon * b1 + params.a0 * params.b2
    g = float(params.a1 * (vec @ vec))
    denom = 1.0 - prod * K1 + prod * epsilon * (2.0 - epsilon) * (K1 - K / L)
    if denom <= 0.0:
        raise OracleDomainError(f"upper-bound denominator {denom:.3e} <= 0")
    h = float(denom ** -2)
    R = linear_welfare(params, epsilon_greedy(B, epsilon))
    slack = 1e-9 * max(1.0, abs(R))
    if not (g <= R + slack and R <= g * h + slack):
        raise AssertionError(
            f"welfare bracket violated: g={g:.12g}, R={R:.12g}, g*h={g * h:.12g}")
    return g, h


# ---------------------------------------------------------------------------
# hand-built instance 1: two providers where greedy exposure is suboptimal


def counterexample_env(eta: float = 0.5) -> EnvironmentSpec:
    """One viewer group, two provider groups, B = [1, 0.9].

    Provider 1 contributes no population effect; provider 2's effect has
    slope 0.5 and its reference slope is 0.8, so diverting exposure toward
    the lower base utility grows long-run welfare.  All-linear, so the
    equilibrium is available in closed form.
    """
    return EnvironmentSpec(
        K=1, L=2, B=np.array([[1.0, 0.9]]),
        f=((linear_fn(0.0), linear_fn(0.5)),),
        lambda_bar_viewer=(linear_fn(1.0),),
        lambda_bar_provider=(linear_fn(0.5), linear_fn(0.8)),
        eta_viewer=np.array([eta]),
        eta_provider=np.array([eta, eta]),
        seed=0,
    )


def counterexample_welfare(pi11: float) -> float:
    """Normalized equilibrium welfare R~ of counterexample_env as a function
    of the exposure mass pi11 on provider 1 (R = viewer-slope * R~^2).

    R~(pi11) = (0.9 + 0.1*pi11) / (1 - 0.4*(1 - pi11)^2); R~(1) = 1 and
    R~ is larger everywhere on [0, 0.7).
    """
    if not (0.0 <= pi11 <= 1.0):
        raise OracleDomainError(f"pi11 must be in [0, 1], got {pi11}")
    return (0.9 + 0.1 * pi11) / (1.0 - 0.4 * (1.0 - pi11) ** 2)


# ---------------------------------------------------------------------------
# hand-built instance 2: steep sigmoids with three equilibria


def three_equilibria_env(eta: float = 0.5) -> EnvironmentSpec:
    """K = L = 1 with steep logistic references and identity population effect.

    The composed reaction curve crosses the diagonal three times: a collapsed
    equilibrium near zero, an unstable middle one at exactly (0.5, 0.5), and a
    thriving one near saturation.  Which one the dynamics finds depends on the
    initial condition.
    """
    return EnvironmentSpec(
        K=1, L=1, B=np.array([[0.0]]),
        f=((linear_fn(1.0),),),
        lambda_bar_viewer=(scaled_logistic(1.0, 8.0, 0.5),),
        lambda_bar_provider=(scaled_logistic(1.0, 6.0, 0.5),),
        eta_viewer=np.array([eta]),
        eta_provider=np.array([eta]),
        seed=0,
    )


THREE_EQUILIBRIA_INITS: dict[str, PopulationState] = {
    "low": PopulationState(t=0, viewer=np.array([0.0]), provider=np.array([0.0])),
    "mid": PopulationState(t=0, viewer=np.array([0.5]), provider=np.array([0.5])),
    "high": PopulationState(t=0, viewer=np.array([1.0]), provider=np.array([1.0])),
}
