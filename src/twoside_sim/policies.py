"""Policy constructors and the look-ahead policy optimizer.

The look-ahead objective scores a candidate exposure matrix by the welfare
the platform would collect one reaction ahead: current payoffs under the
candidate are mapped to reference populations, a softmax myopic policy is
formed at those reference populations, and its welfare is evaluated there.
Optimization runs on unconstrained row-logits so iterates never leave the
simplex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .functions import FnVector, _finite_vector
from .kinds import ExperimentConfigError, _check_kinds
from .model import (EnvironmentSpec, PolicyMatrix, PolicyValidationError, PopulationState,
                    _policy_rows, greedy_rows, validate_policy)


class OptimizationError(RuntimeError):
    """The look-ahead ascent produced a non-finite objective."""

    def __init__(self, message: str, iteration: int):
        super().__init__(message)
        self.iteration = iteration


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
    z = np.exp(logits - np.maximum.reduce(logits, axis=1, keepdims=True))
    return z / np.add.reduce(z, axis=1, keepdims=True)


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
    ref_provider = FnVector(env.lambda_bar_provider).value(e)
    return validate_policy(_softened_myopic(env, ref_provider, gamma, _finite_vector)[-1])


def _softened_myopic(env: EnvironmentSpec, ref_provider: np.ndarray, gamma: float, check):
    """(w, df, pi_soft) at the reference provider populations ref_provider =
    lambda_bar(e): the anticipated utilities w = B + f(ref_provider) and the
    slopes of f there, taken in the same kernel pass as the values, and the
    softened myopic policy softmax(gamma * w).  ref_provider passes through
    check(x, n), which returns x or raises."""
    f_ref, df = env.f_grid._apply_both(check(ref_provider, env.L))
    w = env.B + f_ref
    return w, df, row_softmax(gamma * w)


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


class _Lookahead:
    """The look-ahead objective at one state: q and the viewer populations
    are fixed, and objective(rows, check) is the one forward pass, whose
    pieces gradient() reads.  check(x, n) takes each kernel input and
    returns it or raises: _finite_vector for the public calls, _unchecked
    for the ascent, which tests its iterates itself."""

    def __init__(self, env: EnvironmentSpec, state: PopulationState, gamma: float):
        self.env, self.gamma = env, gamma
        self.viewer, self.q = state.viewer, _utilities(env, state)

    def objective(self, rows: np.ndarray, check) -> float:
        env, K = self.env, self.env.K
        s = np.add.reduce(rows * self.q, axis=1)
        e = rows.T @ self.viewer
        # one reference-curve pass on x = (s, e): lambda_bar(s), lambda_bar(e) and their slopes
        self.x = np.concatenate([check(s, K), check(e, env.L)])
        ref, slopes = env.curves._apply_both(self.x)
        self.big_lambda, self.ref_provider = ref[:K], ref[K:]
        self.d_viewer, self.d_provider = slopes[:K], slopes[K:]
        self.w, self.df, self.pi_soft = _softened_myopic(env, self.ref_provider, self.gamma, check)
        self.w_mean = np.add.reduce(self.pi_soft * self.w, axis=1)
        return float(self.big_lambda @ self.w_mean)

    def gradient(self) -> np.ndarray:
        """The gradient of the objective at the rows of the last pass."""
        # welfare response to exposure l: every row's softened mass and utility at l
        # move through lambda_bar_l; softmax reweighting contributes the gamma term.
        col = np.add.reduce(self.big_lambda[:, None] * self.pi_soft * self.df
                            * (1.0 + self.gamma * (self.w - self.w_mean[:, None])), axis=0)
        return ((self.d_viewer * self.w_mean)[:, None] * self.q
                + self.viewer[:, None] * (self.d_provider * col))


def _unchecked(x: np.ndarray, n: int) -> np.ndarray:
    return x


def _candidate_rows(env: EnvironmentSpec, pi) -> np.ndarray:
    """The rows of a candidate `pi`, its shape alone checked, not _policy_rows:
    the finite-difference probe steps off the simplex, so any K x L matrix is scored."""
    rows = pi.rows if isinstance(pi, PolicyMatrix) else np.asarray(pi, dtype=float)
    if rows.shape != (env.K, env.L):
        raise ValueError(f"policy shape {rows.shape} does not match (K, L)={(env.K, env.L)}")
    return rows


def lookahead_objective(env: EnvironmentSpec, state: PopulationState, pi,
                        gamma: float) -> float:
    """Anticipated welfare one reaction ahead of deploying `pi` at `state`.

    Accepts any correctly shaped finite matrix (the finite-difference probe
    steps just off the simplex); use validate_policy for simplex checking.
    """
    rows = _candidate_rows(env, pi)
    return _Lookahead(env, state, gamma).objective(rows, _finite_vector)


def finite_difference_gradient(env: EnvironmentSpec, state: PopulationState, pi,
                               gamma: float, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of lookahead_objective, entry by entry."""
    rows = np.array(_candidate_rows(env, pi))
    look = _Lookahead(env, state, gamma)
    grad = np.empty_like(rows)
    for k in range(rows.shape[0]):
        for l in range(rows.shape[1]):
            orig = rows[k, l]
            rows[k, l] = orig + h
            up = look.objective(rows, _finite_vector)
            rows[k, l] = orig - h
            down = look.objective(rows, _finite_vector)
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
    rows = _candidate_rows(env, pi)
    look = _Lookahead(env, state, gamma)
    look.objective(rows, _finite_vector)
    return look.gradient()


def optimize_lookahead(env: EnvironmentSpec, state: PopulationState,
                       config: LookaheadConfig | None = None) -> PolicyMatrix:
    """Gradient ascent on row-logits of the look-ahead objective.

    Initialized at the myopic-greedy policy smoothed 0.9/0.1 with uniform;
    returns the iterate with the highest objective seen.
    """
    if config is None:
        config = LookaheadConfig()
    return validate_policy(_ascend(_Lookahead(env, state, config.gamma), config)[0])


@dataclass(frozen=True)
class _AscentAccount:
    """What one ascent did: the objective at its start, at its best iterate
    and at its last; the iteration of the best; and the max-norm of the last
    logit gradient it stepped along."""

    start: float
    best: float
    end: float
    best_iteration: int
    last_gradient_max: float


def _ascend(look: _Lookahead, config: LookaheadConfig) -> tuple[np.ndarray, _AscentAccount]:
    """optimize_lookahead's ascent: the best iterate's rows and the account.

    Each iterate makes one unchecked forward pass and one scalar finiteness
    test of its objective and its curve inputs x = (s, e) and lambda_bar(e).
    When that fails, the checked pass is rerun: it raises the
    FunctionDomainError of a non-finite curve input; else the objective is
    not finite, an OptimizationError (or a finite sum overflowed, and the
    ascent goes on).
    """
    init = 0.9 * greedy_rows(look.q) + 0.1 * uniform_policy(look.env.K, look.env.L).rows
    theta = np.log(init)
    best_pi: np.ndarray | None = None
    best_obj, best_it = -np.inf, 0
    # an overflow shows up as a non-finite objective, reported below
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(config.iterations + 1):
            pi = row_softmax(theta)
            obj = look.objective(pi, _unchecked)
            if not math.isfinite(obj + np.add.reduce(look.x) + np.add.reduce(look.ref_provider)):
                look.objective(pi, _finite_vector)
                if not math.isfinite(obj):
                    raise OptimizationError(
                        f"non-finite objective {obj!r} at iteration {it}", iteration=it)
            if it == 0:
                start = obj
            if obj > best_obj:
                best_pi, best_obj, best_it = pi, obj, it
            if it == config.iterations:
                break
            grad_pi = look.gradient()
            # chain through the row-softmax: dJ/dtheta = pi * (G - <pi, G>_row)
            grad_theta = pi * (grad_pi - np.add.reduce(pi * grad_pi, axis=1, keepdims=True))
            theta = theta + config.learning_rate * grad_theta
    return best_pi, _AscentAccount(start=start, best=best_obj, end=obj, best_iteration=best_it,
                                   last_gradient_max=float(np.abs(grad_theta).max()))
