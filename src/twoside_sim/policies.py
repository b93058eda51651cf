"""Policy constructors and the look-ahead policy optimizer.

The look-ahead objective scores a candidate exposure matrix by the welfare
the platform would collect one reaction ahead: current payoffs under the
candidate are mapped to reference populations, a softmax myopic policy is
formed at those reference populations, and its welfare is evaluated there.
Optimization runs on unconstrained row-logits so iterates never leave the
simplex.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .model import (EnvironmentSpec, PolicyMatrix, PolicyValidationError,
                    PopulationState, as_rows, greedy_rows, validate_policy)


class OptimizationError(RuntimeError):
    """The look-ahead ascent produced a non-finite objective."""

    def __init__(self, message: str, iteration: int):
        super().__init__(message)
        self.iteration = iteration


class GradientCheckError(RuntimeError):
    """Analytic gradient disagreed with the finite-difference probe."""


@dataclass(frozen=True)
class LookaheadConfig:
    gamma: float = 1.0            # inverse temperature of the softmax myopic map
    iterations: int = 100
    learning_rate: float = 0.05
    parameterization: str = "softmax-logits"
    grad_check: dict[str, Any] | None = None   # {"h": ..., "tol": ...}

    def __post_init__(self):
        if not (self.gamma > 0):
            raise ValueError("gamma must be > 0")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not (self.learning_rate >= 0):
            raise ValueError("learning_rate must be >= 0")
        if self.parameterization != "softmax-logits":
            raise ValueError(f"unknown parameterization {self.parameterization!r}")
        if self.grad_check is not None:
            missing = {"h", "tol"} - set(self.grad_check)
            if missing:
                raise ValueError(f"grad_check needs keys {sorted(missing)}")


def uniform_policy(K: int, L: int) -> PolicyMatrix:
    if K < 1 or L < 1:
        raise ValueError("K and L must be >= 1")
    return validate_policy(np.full((K, L), 1.0 / L))


def myopic_greedy(env: EnvironmentSpec, state: PopulationState) -> PolicyMatrix:
    """All mass on the best current utility q = b + f(provider pops) per row."""
    q = env.B + env.f_grid.value(state.provider)
    return validate_policy(greedy_rows(q))


def row_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-shift for overflow safety."""
    z = np.exp(logits - logits.max(axis=1, keepdims=True))
    return z / z.sum(axis=1, keepdims=True)


def softmax_myopic(env: EnvironmentSpec, reference_exposure: np.ndarray,
                   gamma: float) -> PolicyMatrix:
    """Softened myopic policy at the reference provider populations.

    Row k is the softmax over l of gamma * (b_{k,l} + f_{k,l}(lambda_bar_l(e_l)))
    with e the given exposure vector.
    """
    if not (gamma > 0):
        raise ValueError("gamma must be > 0")
    e = np.asarray(reference_exposure, dtype=float)
    if e.shape != (env.L,):
        raise ValueError(f"reference_exposure must have length L={env.L}")
    ref_provider = env.provider_curves.value(e)
    w = env.B + env.f_grid.value(ref_provider)
    return validate_policy(row_softmax(gamma * w))


def interpolate(pi_lookahead, pi_myopic, beta: float) -> PolicyMatrix:
    """beta * pi_lookahead + (1 - beta) * pi_myopic, entrywise."""
    if not (0.0 <= beta <= 1.0):
        raise PolicyValidationError(f"beta must be in [0, 1], got {beta}")
    a = as_rows(pi_lookahead)
    b = as_rows(pi_myopic)
    if a.shape != b.shape:
        raise PolicyValidationError(f"shape mismatch: {a.shape} vs {b.shape}")
    return validate_policy(beta * a + (1.0 - beta) * b)


# ---------------------------------------------------------------------------
# look-ahead objective and gradient


def _lookahead_pieces(env: EnvironmentSpec, state: PopulationState, rows: np.ndarray,
                      gamma: float):
    """Shared forward pass: payoffs under `rows`, reference populations,
    anticipated utilities w, softened policy, and per-row mean utility."""
    q = env.B + env.f_grid.value(state.provider)
    s = (rows * q).sum(axis=1)
    e = rows.T @ state.viewer
    big_lambda = env.viewer_curves.value(s)              # anticipated viewers
    ref_provider = env.provider_curves.value(e)          # anticipated providers
    w = env.B + env.f_grid.value(ref_provider)
    pi_soft = row_softmax(gamma * w)
    w_mean = (pi_soft * w).sum(axis=1)
    return q, s, e, big_lambda, ref_provider, w, pi_soft, w_mean


def _objective(pieces) -> float:
    _, _, _, big_lambda, _, _, _, w_mean = pieces
    return float(big_lambda @ w_mean)


def lookahead_objective(env: EnvironmentSpec, state: PopulationState, pi,
                        gamma: float) -> float:
    """Anticipated welfare one reaction ahead of deploying `pi` at `state`.

    Accepts any correctly shaped finite matrix (the gradient check probes
    points just off the simplex); use validate_policy for simplex checking.
    """
    rows = as_rows(pi)
    if rows.shape != (env.K, env.L):
        raise ValueError(f"policy shape {rows.shape} does not match (K, L)={(env.K, env.L)}")
    return _objective(_lookahead_pieces(env, state, rows, gamma))


def finite_difference_gradient(env: EnvironmentSpec, state: PopulationState, pi,
                               gamma: float, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of lookahead_objective, entry by entry."""
    rows = np.array(as_rows(pi), dtype=float)
    grad = np.empty_like(rows)
    for k in range(rows.shape[0]):
        for l in range(rows.shape[1]):
            orig = rows[k, l]
            rows[k, l] = orig + h
            up = lookahead_objective(env, state, rows, gamma)
            rows[k, l] = orig - h
            down = lookahead_objective(env, state, rows, gamma)
            rows[k, l] = orig
            grad[k, l] = (up - down) / (2.0 * h)
    return grad


def lookahead_gradient(env: EnvironmentSpec, state: PopulationState, pi,
                       gamma: float) -> np.ndarray:
    """Analytic gradient of lookahead_objective with respect to the policy.

    Chain rule through the three channels a policy entry affects: anticipated
    viewer populations (via satisfaction), anticipated utilities (via exposure
    and the provider reaction), and the softened myopic policy (via its
    logits).  Environments containing the piecewise-linear table variant fall
    back to finite differences.
    """
    rows = as_rows(pi)
    if rows.shape != (env.K, env.L):
        raise ValueError(f"policy shape {rows.shape} does not match (K, L)={(env.K, env.L)}")
    if not env.smooth:
        return finite_difference_gradient(env, state, rows, gamma)
    return _analytic_gradient(env, state, gamma, _lookahead_pieces(env, state, rows, gamma))


def _analytic_gradient(env: EnvironmentSpec, state: PopulationState, gamma: float,
                       pieces) -> np.ndarray:
    """lookahead_gradient from the forward pass made at the same policy."""
    q, s, e, big_lambda, ref_provider, w, pi_soft, w_mean = pieces
    d_viewer = env.viewer_curves.deriv(s)           # dlambda_bar_k/ds
    d_provider = env.provider_curves.deriv(e)       # dlambda_bar_l/de
    df = env.f_grid.deriv(ref_provider)             # df_{k,l} at ref pops
    # welfare response to exposure l: every row's softened mass and utility at l
    # move through lambda_bar_l; softmax reweighting contributes the gamma term.
    col = (big_lambda[:, None] * pi_soft * df
           * (1.0 + gamma * (w - w_mean[:, None]))).sum(axis=0)
    return (d_viewer * w_mean)[:, None] * q + np.outer(state.viewer, d_provider * col)


def check_gradient(env: EnvironmentSpec, state: PopulationState, pi, gamma: float,
                   h: float = 1e-6, tol: float = 1e-4) -> float:
    """Compare analytic vs finite-difference gradients; raise if they disagree.

    Entries where both magnitudes fall below 1e-8 are compared absolutely
    (against 1e-8); the rest by relative error against the larger magnitude.
    Returns the worst relative discrepancy seen.
    """
    analytic = lookahead_gradient(env, state, pi, gamma)
    fd = finite_difference_gradient(env, state, pi, gamma, h)
    diff = np.abs(analytic - fd)
    scale = np.maximum(np.abs(analytic), np.abs(fd))
    tiny = scale < 1e-8
    bad_tiny = tiny & (diff > 1e-8)
    rel = np.where(tiny, 0.0, diff / np.maximum(scale, 1e-300))
    if np.any(bad_tiny) or np.any(rel > tol):
        worst = float(np.max(np.where(tiny, diff, rel)))
        raise GradientCheckError(
            f"gradient check failed: worst discrepancy {worst:.3e} (tol {tol:.1e})")
    return float(np.max(rel))


def optimize_lookahead(env: EnvironmentSpec, state: PopulationState,
                       config: LookaheadConfig | None = None) -> PolicyMatrix:
    """Gradient ascent on row-logits of the look-ahead objective.

    Initialized at the myopic-greedy policy smoothed 0.9/0.1 with uniform;
    returns the iterate with the highest objective seen.
    """
    if config is None:
        config = LookaheadConfig()
    init = (0.9 * as_rows(myopic_greedy(env, state))
            + 0.1 * as_rows(uniform_policy(env.K, env.L)))
    if config.grad_check is not None:
        check_gradient(env, state, init, config.gamma,
                       h=float(config.grad_check["h"]),
                       tol=float(config.grad_check["tol"]))
    theta = np.log(init)
    best_pi: np.ndarray | None = None
    best_obj = -np.inf
    # an overflow shows up as a non-finite objective, reported below
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(config.iterations + 1):
            pi = row_softmax(theta)
            pieces = _lookahead_pieces(env, state, pi, config.gamma)   # one forward pass
            obj = _objective(pieces)
            if not np.isfinite(obj):
                raise OptimizationError(
                    f"non-finite objective {obj!r} at iteration {it}", iteration=it)
            if obj > best_obj:
                best_obj = obj
                best_pi = pi
            if it == config.iterations:
                break
            grad_pi = (_analytic_gradient(env, state, config.gamma, pieces) if env.smooth
                       else finite_difference_gradient(env, state, pi, config.gamma))
            # chain through the row-softmax: dJ/dtheta = pi * (G - <pi, G>_row)
            grad_theta = pi * (grad_pi - (pi * grad_pi).sum(axis=1, keepdims=True))
            theta = theta + config.learning_rate * grad_theta
    return validate_policy(best_pi)
