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

import numpy as np

from .model import (EnvironmentSpec, ExperimentConfigError, PolicyMatrix,
                    PolicyValidationError, PopulationState, _check_kinds, _policy_rows,
                    greedy_rows, validate_policy)


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

    def __post_init__(self):
        _check_kinds(self)
        if not (self.gamma > 0):
            raise ExperimentConfigError("gamma must be > 0")
        if self.iterations < 1:
            raise ExperimentConfigError("iterations must be >= 1")
        if not (self.learning_rate >= 0):
            raise ExperimentConfigError("learning_rate must be >= 0")


def uniform_policy(K: int, L: int) -> PolicyMatrix:
    if K < 1 or L < 1:
        raise ValueError("K and L must be >= 1")
    return validate_policy(np.full((K, L), 1.0 / L))


def myopic_greedy(env: EnvironmentSpec, state: PopulationState) -> PolicyMatrix:
    """All mass on the best current utility q = b + f(provider pops) per row."""
    return validate_policy(greedy_rows(_utilities(env, state)))


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
    _, pi_soft, _, _ = _softened_myopic(env, e, gamma)
    return validate_policy(pi_soft)


def _softened_myopic(env: EnvironmentSpec, e: np.ndarray, gamma: float):
    """(w, pi_soft, d_provider, df): the anticipated utilities
    w = B + f(lambda_bar(e)), the softened myopic policy softmax(gamma * w),
    and the slopes of lambda_bar at e and of f at lambda_bar(e), taken in the
    same kernel passes as the values."""
    ref_provider, d_provider = env.provider_curves.value_and_deriv(e)
    f_ref, df = env.f_grid.value_and_deriv(ref_provider)
    w = env.B + f_ref
    return w, row_softmax(gamma * w), d_provider, df


def interpolate(pi_lookahead, pi_myopic, beta: float) -> PolicyMatrix:
    """beta * pi_lookahead + (1 - beta) * pi_myopic, entrywise."""
    if not (0.0 <= beta <= 1.0):
        raise PolicyValidationError(f"beta must be in [0, 1], got {beta}")
    a = validate_policy(pi_lookahead).rows
    b = _policy_rows(pi_myopic, *a.shape)
    return validate_policy(beta * a + (1.0 - beta) * b)


# ---------------------------------------------------------------------------
# look-ahead objective and gradient


def _utilities(env: EnvironmentSpec, state: PopulationState) -> np.ndarray:
    """q = B + f(provider pops): it depends on the state alone."""
    return env.B + env.f_grid.value(state.provider)


def _lookahead_pieces(env: EnvironmentSpec, state: PopulationState, q: np.ndarray,
                      rows: np.ndarray, gamma: float):
    """Shared forward pass under `rows` at utilities q: anticipated viewers and
    their slopes, anticipated utilities w, the softened policy and its
    curve slopes, and the per-row mean utility."""
    s = (rows * q).sum(axis=1)
    e = rows.T @ state.viewer
    big_lambda, d_viewer = env.viewer_curves.value_and_deriv(s)   # anticipated viewers
    w, pi_soft, d_provider, df = _softened_myopic(env, e, gamma)
    w_mean = (pi_soft * w).sum(axis=1)
    return big_lambda, d_viewer, d_provider, w, pi_soft, df, w_mean


def _objective(pieces) -> float:
    big_lambda, w_mean = pieces[0], pieces[-1]
    return float(big_lambda @ w_mean)


def _checked_forward_pass(env: EnvironmentSpec, state: PopulationState, pi, gamma: float):
    """(q, pieces) at the candidate `pi`, its shape alone checked, not _policy_rows:
    the finite-difference probe steps off the simplex, so any K x L matrix is scored."""
    rows = pi.rows if isinstance(pi, PolicyMatrix) else np.asarray(pi, dtype=float)
    if rows.shape != (env.K, env.L):
        raise ValueError(f"policy shape {rows.shape} does not match (K, L)={(env.K, env.L)}")
    q = _utilities(env, state)
    return q, _lookahead_pieces(env, state, q, rows, gamma)


def lookahead_objective(env: EnvironmentSpec, state: PopulationState, pi,
                        gamma: float) -> float:
    """Anticipated welfare one reaction ahead of deploying `pi` at `state`.

    Accepts any correctly shaped finite matrix (the gradient check probes
    points just off the simplex); use validate_policy for simplex checking.
    """
    _, pieces = _checked_forward_pass(env, state, pi, gamma)
    return _objective(pieces)


def finite_difference_gradient(env: EnvironmentSpec, state: PopulationState, pi,
                               gamma: float, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of lookahead_objective, entry by entry."""
    rows = np.array(pi.rows if isinstance(pi, PolicyMatrix) else pi, dtype=float)
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
    logits).  Table curves enter through their right-hand slopes, so at a
    table knot this is the one-sided derivative from the right.
    """
    q, pieces = _checked_forward_pass(env, state, pi, gamma)
    return _analytic_gradient(state, gamma, q, pieces)


def _analytic_gradient(state: PopulationState, gamma: float, q: np.ndarray,
                       pieces) -> np.ndarray:
    """lookahead_gradient from the forward pass made at the same policy."""
    big_lambda, d_viewer, d_provider, w, pi_soft, df, w_mean = pieces
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
    q = _utilities(env, state)
    init = 0.9 * greedy_rows(q) + 0.1 * uniform_policy(env.K, env.L).rows
    theta = np.log(init)
    best_pi: np.ndarray | None = None
    best_obj = -np.inf
    # an overflow shows up as a non-finite objective, reported below
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(config.iterations + 1):
            pi = row_softmax(theta)
            pieces = _lookahead_pieces(env, state, q, pi, config.gamma)   # one forward pass
            obj = _objective(pieces)
            if not np.isfinite(obj):
                raise OptimizationError(
                    f"non-finite objective {obj!r} at iteration {it}", iteration=it)
            if obj > best_obj:
                best_obj = obj
                best_pi = pi
            if it == config.iterations:
                break
            grad_pi = _analytic_gradient(state, config.gamma, q, pieces)
            # chain through the row-softmax: dJ/dtheta = pi * (G - <pi, G>_row)
            grad_theta = pi * (grad_pi - (pi * grad_pi).sum(axis=1, keepdims=True))
            theta = theta + config.learning_rate * grad_theta
    return validate_policy(best_pi)
