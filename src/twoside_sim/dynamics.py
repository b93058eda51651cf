"""Population dynamics: payoffs, evolution, fixed points, stability.

The one-step map moves each group toward its reference population at its
reactiveness rate:

    viewer_k'   = (1 - eta_k) * viewer_k   + eta_k * lambda_bar_k(s_k)
    provider_l' = (1 - eta_l) * provider_l + eta_l * lambda_bar_l(e_l)

optionally followed by multiplicative Gaussian noise and a clip at zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cache, cached_property
from typing import Callable, Sequence

import numpy as np

from .functions import _row_dots
from .kinds import _is
from .model import (EnvironmentSpec, Payoffs, PolicyMatrix, PopulationState,
                    SpecValidationError, _frozen, _policy_rows, _readonly, greedy_rows,
                    validate_policy)
from .policies import myopic_greedy


class ConvergenceError(RuntimeError):
    """Fixed-point iteration did not reach tolerance within max_iter."""

    def __init__(self, message: str, last_state: PopulationState, residual: float):
        super().__init__(message)
        self.last_state = last_state
        self.residual = residual


class DivergenceError(ConvergenceError):
    """The iteration left the finite range (payoffs or populations overflowed).

    ``last_state`` is the last state whose populations were all finite.
    """


class FixedPointPreconditionError(ValueError):
    """An operation requiring a fixed point was handed a non-stationary state."""


class ClosedFormDomainError(ValueError):
    """The closed-form spectrum does not apply to this environment."""


def payoffs(env: EnvironmentSpec, state: PopulationState, pi) -> Payoffs:
    """Utilities q = B + f(provider pops), satisfaction s, exposure e."""
    rows = _checked(env, state, pi)
    q = env.B + env.f_grid.value(state.provider)
    s, e, _ = _served(q, rows, state.viewer)
    return Payoffs(s=s, e=e, q=q)


def _checked(env: EnvironmentSpec, state: PopulationState, pi) -> np.ndarray | None:
    """_policy_rows of `pi` (None for None), with `state` checked against the environment."""
    rows = None if pi is None else _policy_rows(pi, env.K, env.L)
    if state.viewer.shape != (env.K,) or state.provider.shape != (env.L,):
        raise ValueError("state dimensions do not match the environment")
    return rows


def _served(q: np.ndarray, rows: np.ndarray, viewer: np.ndarray):
    """s_k = sum_l rows_kl q_kl, e = rows^T viewer and the welfare viewer . s,
    over any leading (cell) axes; each cell equals its unbatched computation
    bit for bit (the same pairwise sums and BLAS dots)."""
    s = (rows * q).sum(axis=-1)
    return s, np.matmul(viewer[..., None, :], rows)[..., 0, :], _row_dots(viewer, s)


def welfare(state: PopulationState, p: Payoffs) -> float:
    """Total viewer welfare R = sum_k viewer_k * s_k."""
    if state.viewer.shape != p.s.shape:
        raise ValueError("state and payoffs dimensions do not match")
    return float(state.viewer @ p.s)


def step(env: EnvironmentSpec, state: PopulationState, pi,
         rng: np.random.Generator | None = None) -> PopulationState:
    """Advance the populations by one timestep (one cell of _step_cells).

    Noise (when configured and rng given) multiplies each new population by
    (1 + xi) with xi ~ Normal(0, relative_std^2), one row of K viewer draws
    then L provider draws from rng, and the result is clipped at zero.
    Raises DivergenceError, carrying `state`, when the welfare, payoffs or new
    populations are not finite.
    """
    if env.noise_active and rng is None:
        raise ValueError("environment has noise configured; step needs an rng")
    *_, x = _step_one(env, state, pi, rng)
    return PopulationState(t=state.t + 1, viewer=x[:env.K], provider=x[env.K:])


def _step_one(env: EnvironmentSpec, state: PopulationState, pi, rng):
    """(q, (s, e), welfare, next x) of `pi` deployed at `state`, by
    _step_cells with one cell and one row of noise from `rng`; raises that
    cell's failure."""
    (rows, x), failed = _stacked(env, state, pi), {}
    noise = _noise_factors(env, rng, 1) if env.noise_active else None
    q, se, w, next_x = _step_cells(env, state.t, x[None], lambda q: rows, noise, failed)
    if failed:
        raise failed[0]
    return q[0], se[0], float(w[0]), next_x[0]


def _noise_factors(env: EnvironmentSpec, rng: np.random.Generator, *shape: int) -> np.ndarray:
    """1 + xi over `shape` rows of K + L draws, xi ~ Normal(0, relative_std^2),
    viewer draws before provider draws.  A generator's normal draws do not
    depend on the batch size, so a (T, K + L) block holds the rows that T
    one-row draws would give, in order."""
    return 1.0 + rng.normal(0.0, env.noise.relative_std, (*shape, env.K + env.L))


def _step_cells(env: EnvironmentSpec, t: int, x: np.ndarray, decide: Callable,
                noise: np.ndarray | None, failed: dict):
    """The one step of the dynamics, for S cells at time t: stacked
    populations x (S, K + L), policy rows decide(q), (S, K, L) or one (K, L)
    for all, at q = B + f(provider), _update, then the new populations times
    the cells' noise factors `noise` (S, K + L), when given.
    Returns (q, (s, e) stacked, welfare, next x).

    After the update, a cell that fails a check (welfare, payoffs, new
    populations, in that order) gets its DivergenceError in `failed` (cell
    -> error) and then stays where it is, so the other cells go on.  One
    finite sum of the live cells' outputs passes all of them at once, so the
    per-cell scans run only at a step where a live cell fails.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        q = env.B + env.f_grid.value(x[:, env.K:])
    rows = decide(q)
    with np.errstate(over="ignore", invalid="ignore"):
        se, w, next_x = _update(env, q, rows, x)
        if noise is not None:
            next_x *= noise
        live = [c for c in range(len(x)) if c not in failed] if failed else slice(None)
        total = w[live].sum() + se[live].sum() + next_x[live].sum()
    if not math.isfinite(total):    # any inf or nan makes the sum inf or nan
        _fail_non_finite(failed, "welfare", t, env.K, x, w)
        _fail_non_finite(failed, "payoffs", t, env.K, x, se)
        _fail_non_finite(failed, "populations", t, env.K, x, next_x)
    next_x = np.maximum(next_x, 0.0)
    if failed:
        dead = list(failed)
        next_x[dead] = x[dead]
    return q, se, w, next_x


def _update(env: EnvironmentSpec, q: np.ndarray, rows: np.ndarray, x: np.ndarray):
    """((s, e) stacked, welfare, next x) of the stacked populations x under
    the policy rows at utilities q, before noise and clipping, over any
    leading (cell) axes: one reference-curve pass on (s, e).  Called under
    np.errstate; the caller checks finiteness."""
    s, e, w = _served(q, rows, x[..., :env.K])
    se = np.concatenate([s, e], axis=-1)
    return se, w, (1.0 - env.eta) * x + env.eta * env.curves._apply(se)


def _fail_non_finite(failed: dict, what: str, t: int, K: int, x, *arrays) -> None:
    """Fail every cell, not failed yet, whose rows of `arrays` are not all
    finite; its last state is its row of the stacked populations x, K viewers first."""
    if all(np.isfinite(a).all() for a in arrays):
        return
    for c in range(len(x)):
        if c not in failed and not all(np.isfinite(a[c]).all() for a in arrays):
            failed[c] = DivergenceError(
                f"dynamics diverged: non-finite {what} after t={t}", residual=float("inf"),
                last_state=PopulationState(t=t, viewer=x[c, :K], provider=x[c, K:]))


@dataclass(frozen=True)
class TrajectoryStep:
    state: PopulationState
    policy: PolicyMatrix
    payoffs: Payoffs
    welfare: float


@dataclass(frozen=True)
class TrajectoryTable:
    """The CSV-schema view of a trajectory (the columns the CSV carries).
    The arrays are read-only: read-only arrays are kept, others copied."""

    t: np.ndarray
    lambda_viewer: np.ndarray    # (T, K)
    lambda_provider: np.ndarray  # (T, L)
    s: np.ndarray                # (T, K)
    e: np.ndarray                # (T, L)
    welfare: np.ndarray          # (T,)

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _frozen(getattr(self, f.name)))


@dataclass(frozen=True)
class Trajectory:
    """A run, kept as its read-only columns: `table` (the CSV columns), the
    utilities `q` and the deployed policy rows `policy`, both (T, K, L); a
    constant policy is one matrix broadcast over T.  `steps` is built from
    them on first access, with `init`, when given, as its first state."""

    table: TrajectoryTable
    q: np.ndarray
    policy: np.ndarray
    env_digest: str
    seed: int
    init: PopulationState | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "q", _frozen(self.q))
        object.__setattr__(self, "policy", _frozen(self.policy))

    @cached_property
    def steps(self) -> tuple[TrajectoryStep, ...]:
        tab = self.table
        states = [PopulationState(t=t, viewer=v, provider=p) for t, v, p
                  in zip(tab.t.tolist(), tab.lambda_viewer, tab.lambda_provider)]
        if self.init is not None:
            states[0] = self.init
        return tuple(TrajectoryStep(state=st, policy=PolicyMatrix(pi), welfare=w,
                                    payoffs=Payoffs(s=s, e=e, q=q))
                     for st, pi, s, e, q, w in zip(states, self.policy, tab.s, tab.e,
                                                   self.q, tab.welfare.tolist()))

    def __len__(self) -> int:
        return len(self.table.t)

    def welfare_series(self) -> np.ndarray:
        return self.table.welfare

    def cumulative_welfare(self) -> float:
        return float(self.table.welfare.sum())


def rollout(env: EnvironmentSpec, policy_rule, T: int, init: PopulationState,
            seed: int | None = None) -> Trajectory:
    """Run the dynamics for T steps, recording payoffs before each update:
    lockstep_rollouts with one cell, its noise seeded with `seed` (by default
    the environment's seed).

    Raises DivergenceError (a ConvergenceError) when the run leaves the finite
    range.
    """
    seed = env.seed if seed is None else seed
    (run,) = lockstep_rollouts(env, policy_rule, T, init, [seed])
    if not isinstance(run, Trajectory):
        raise run
    return run


def lockstep_rollouts(env: EnvironmentSpec, policy, T: int, init: PopulationState,
                      seeds: Sequence[int]) -> list:
    """Run one policy from `init` for T steps on every seed at once: the
    one-policy case of _lockstep_grid, one _step_cells call per step.

    `policy` is a matrix (checked once and broadcast), myopic_greedy (the
    greedy rows of the step's own q), or a rule (env, state) -> policy
    asked cell by cell.  Cell i's noise comes from a generator seeded with
    seeds[i], and its result is what rollout gives on seeds[i] alone, bit
    for bit: its Trajectory, or the exception that ended it.  Without noise
    every seed gives the same run, so one cell is stepped for all of them.
    """
    return _lockstep_grid(env, [policy], T, init, seeds)


def _lockstep_grid(env: EnvironmentSpec, policies: Sequence, T: int, init: PopulationState,
                   seeds: Sequence[int]) -> list:
    """Every (policy, seed) cell from `init` for T steps, one _step_cells call
    per step for the whole grid; the results policy-major, (p, i) at
    p * len(seeds) + i, each as lockstep_rollouts describes it.

    The cells are laid out policy-major, each policy deciding for its own
    block.  Each cell's noise is drawn once, as a (T, K + L) block from its
    seed's generator.  Without noise a cell's run does not depend on its
    seed, so each block is one cell and every seed's result is built from it.
    """
    if T < 1:
        raise ValueError("horizon T must be >= 1")
    deciders = [_decider(env, policy) for policy in policies]
    _checked(env, init, None)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    n = len(seeds) if env.noise_active else 1
    S, K, L = len(policies) * n, env.K, env.L
    blocks = [slice(p * n, (p + 1) * n) for p in range(len(policies))]
    noise = None
    if env.noise_active:
        noise = np.tile(np.stack([_noise_factors(env, rng, T) for rng in rngs], axis=1),
                        (1, len(policies), 1))
    # the stacked populations and (s, e) of every step and cell; the per-side
    # columns are views of them
    x, se = np.empty((T, S, K + L)), np.empty((T, S, K + L))
    w, q, rows = np.empty((T, S)), np.empty((T, S, K, L)), np.empty((S, K, L))
    # a constant policy's column is its matrix broadcast over (T, cells)
    columns = [np.empty((T, n, K, L)) if fixed is None else np.broadcast_to(fixed, (T, n, K, L))
               for fixed, _ in deciders]
    for block, (fixed, _) in zip(blocks, deciders):
        if fixed is not None:
            rows[block] = fixed
    x[0, :, :K], x[0, :, K:] = init.viewer, init.provider
    failed: dict[int, BaseException] = {}

    def decide(q_i):        # the rows at step i of the loop below
        for block, (fixed, rule), column in zip(blocks, deciders, columns):
            if fixed is None:
                rows[block] = column[i] = rule(t, x[i], q_i, block, failed)
        return rows

    for i in range(T):
        t = init.t + i
        q[i], se[i], w[i], next_x = _step_cells(
            env, t, x[i], decide, None if noise is None else noise[i], failed)
        if len(failed) == S:
            break
        if i + 1 < T:
            x[i + 1] = next_x
    for column in (x, se, w, q, *columns):
        column.flags.writeable = False
    t_column, digest = _readonly(np.arange(init.t, init.t + T)), env.digest()
    results = []
    for block, column in zip(blocks, columns):
        for j, seed in enumerate(seeds):
            c = block.start + j % n
            results.append(failed[c] if c in failed else Trajectory(
                table=TrajectoryTable(t=t_column, lambda_viewer=x[:, c, :K],
                                      lambda_provider=x[:, c, K:], s=se[:, c, :K],
                                      e=se[:, c, K:], welfare=w[:, c]),
                q=q[:, c], policy=column[:, j % n], env_digest=digest, seed=seed, init=init))
    return results


def _decider(env: EnvironmentSpec, policy):
    """(fixed, rule(t, x, q, block, failed) -> rows of the cells in `block`,
    x the stacked populations): `fixed` is a constant policy's checked rows
    and rule None, else fixed is None.  A rule that raises, or returns an
    invalid policy, for a cell fails that cell."""
    if not callable(policy):
        return _policy_rows(policy, env.K, env.L), None
    if policy is myopic_greedy:
        return None, lambda t, x, q, block, failed: greedy_rows(q[block])

    def per_cell(t, x, q, block, failed):
        rows = np.zeros(q[block].shape)
        for c in range(block.start, block.stop):
            try:
                if c not in failed:
                    state = PopulationState(t=t, viewer=x[c, :env.K], provider=x[c, env.K:])
                    rows[c - block.start] = _checked(env, state, policy(env, state))
            except Exception as err:
                failed[c] = err
        return rows

    return None, per_cell


# ---------------------------------------------------------------------------
# fixed points


def find_fixed_point(env: EnvironmentSpec, pi, init: PopulationState,
                     tol: float = 1e-10, max_iter: int = 100000) -> PopulationState:
    """The fixed point of the noiseless map F that iteration from `init` reaches.

    The search runs in three stages.
    - Plain iteration x <- F(x) until it is seen to contract: the max-norm
      residual r = |F(x) - x| falls, by the ratio q < 1.
    - Newton steps y = x - (J - I)^-1 (F(x) - x), with J the analytic
      Jacobian and its rows zeroed where F clips a population to 0.  Newton
      is drawn to repelling fixed points as readily as to attracting ones,
      and from far off it can leave the basin plain iteration stays in, so a
      step is kept only when
        * the linearized map contracts at x and at y,
        * |y - x| <= 2 r / (1 - q), twice the distance a map contracting at
          the observed ratio could still carry x,
        * it at least halves the residual, and
        * the Newton step from y is at most half as long as this one.
      Otherwise the plain step is taken, and the next trial waits 1, 2, 4, ...
      plain steps.
    - Once the residual is at most tol, one Newton polish, kept unless it
      raises the residual, so that the returned point lies at the fixed
      point and not merely within tol of it.
    The returned residual is at most tol.  A map whose residual never falls
    never reaches Newton, so it behaves as plain iteration does.

    The search runs on the stacked populations x = (viewer, provider), `pi`
    checked once, and makes a PopulationState only for the returned point
    (t = 0: an equilibrium has no meaningful timestep index) and an error's
    last_state.  The returned point depends on the initial condition when
    several fixed points exist.  max_iter bounds the evaluations of F, each
    Newton trial counted as one.  Raises ConvergenceError when they run out,
    or its DivergenceError subclass as soon as a plain iterate overflows;
    SpecValidationError when tol is not a finite number >= 0 or max_iter is
    not an integer.
    """
    _check_tol(tol, max_iter)
    rows, x = _stacked(env, init, pi, "find_fixed_point")
    t, K = init.t, env.K            # t is x's timestep; F(x) is at t + 1
    fx = _image(env, rows, x, t)
    evals, residual = 1, float(np.abs(fx - x).max())
    rate = None                     # the last residual ratio, while below 1
    wait, backoff = 0, 1            # plain steps before the next Newton trial
    successor = None                # the Newton step from x, once a Newton step lands there
    while residual > tol:
        if evals >= max_iter:
            raise ConvergenceError(
                f"no fixed point within {max_iter} iterations "
                f"(last residual {residual:.3e})", residual=residual,
                last_state=PopulationState(t=t + 1, viewer=fx[:K], provider=fx[K:]))
        if rate is not None and wait == 0:
            evals += 1
            trial = _guarded_newton(env, rows, x, fx, residual, rate, successor)
            if trial is not None:
                (x, fx, residual, successor), t = trial, t + 1
                continue
            wait, backoff = backoff, 2 * backoff
            if evals >= max_iter:
                continue
        wait = max(wait - 1, 0)
        x, t, successor = fx, t + 1, None
        fx = _image(env, rows, x, t)
        evals += 1
        previous, residual = residual, float(np.abs(fx - x).max())
        rate = residual / previous if residual < previous else None
    if 0.0 < residual and evals < max_iter:
        with np.errstate(all="ignore"):
            y = successor if successor is not None else _newton_point(
                _LinearizedMap(env, rows, x, fx == 0.0), x, fx)
        fy = None if y is None else _image(env, rows, y, strict=False)
        if fy is not None and np.abs(fy - y).max() <= residual:
            x = y
    return PopulationState(t=0, viewer=x[:K], provider=x[K:])


def _guarded_newton(env: EnvironmentSpec, rows: np.ndarray, x: np.ndarray, fx: np.ndarray,
                    residual: float, rate: float, successor: np.ndarray | None):
    """(y, F(y), |F(y) - y|, the Newton step z from y) for the Newton step y
    from x when find_fixed_point keeps it, else None.  `successor`, when
    given, is that y: the kept step that landed at x already solved for it,
    from a linearization at x found attracting.  The guards are checked
    cheapest first: the step's length before the contraction solve at x."""
    with np.errstate(all="ignore"):
        linearized = None if successor is not None else _LinearizedMap(env, rows, x, fx == 0.0)
        y = successor if linearized is None else _newton_point(linearized, x, fx)
        if (y is None or np.abs(y - x).max() > 2.0 * residual / (1.0 - rate)
                or linearized is not None and not linearized.coupling_contracts()):
            return None
        fy = _image(env, rows, y, strict=False)
        if fy is None:
            return None
        residual_y = float(np.abs(fy - y).max())
        if residual_y > residual / 2:
            return None
        at_y = _LinearizedMap(env, rows, y, fy == 0.0)
        if not at_y.coupling_contracts():
            return None
        z = _newton_point(at_y, y, fy)
        if z is None or np.abs(z - y).max() > np.abs(y - x).max() / 2:
            return None
    return y, fy, residual_y, z


def _newton_point(linearized: _LinearizedMap, x: np.ndarray, fx: np.ndarray) -> np.ndarray | None:
    """x - (J - I)^-1 (F(x) - x), clipped at 0 like the map, with J - I from
    `linearized`; None when J - I is singular or the step is not finite."""
    try:
        delta = np.linalg.solve(linearized.jacobian(minus_identity=True), fx - x)
    except np.linalg.LinAlgError:
        return None
    y = np.maximum(x - delta, 0.0)
    return y if np.isfinite(y).all() else None


def _image(env: EnvironmentSpec, rows: np.ndarray, x: np.ndarray, t: int = 0, strict=True):
    """F(x) of the finite stacked populations x: _update, unbatched and noiseless,
    clipped at 0.  One test covers the welfare, payoffs and F(x); when it fails,
    raises the DivergenceError _step_cells would at time t (None if not `strict`)."""
    with np.errstate(over="ignore", invalid="ignore"):
        se, w, fx = _update(env, env.B + env.f_grid._apply(x[env.K:]), rows, x)
        checked = np.concatenate([[w], se, fx])
        if math.isfinite(np.add.reduce(checked)):   # any inf or nan makes the sum inf or nan
            return np.maximum(fx, 0.0)
    failed: dict[int, BaseException] = {}
    for what, a in (("welfare", w), ("payoffs", se), ("populations", fx)):
        _fail_non_finite(failed, what, t, env.K, x[None], a[None])
    if failed and strict:
        raise failed[0]
    return None if failed else np.maximum(fx, 0.0)


def _check_tol(tol, max_iter: int = 1) -> None:
    """Refuse a tol that is not a finite number >= 0 or a max_iter not an integer."""
    if not (_is(tol, float) and tol >= 0.0):
        raise SpecValidationError(f"tol must be a finite number >= 0, got {tol!r}")
    if not _is(max_iter, int):
        raise SpecValidationError(f"max_iter must be an integer, got {max_iter!r}")


def _stacked(env: EnvironmentSpec, state: PopulationState, pi, noiseless: str | None = None):
    """(rows of `pi`, x = (viewer, provider)) after _checked, once per call.
    `noiseless` names a caller that evaluates F, a ValueError when noisy."""
    if noiseless is not None and env.noise_active:
        raise ValueError(f"{noiseless} requires noise to be disabled")
    return _checked(env, state, pi), np.concatenate([state.viewer, state.provider])


def fixed_point_residual(env: EnvironmentSpec, pi, at: PopulationState) -> float:
    """Max-norm distance between `at` and its image under the noiseless map."""
    rows, x = _stacked(env, at, pi, "fixed_point_residual")
    return float(np.abs(_image(env, rows, x, at.t) - x).max())


def enumerate_fixed_points(env: EnvironmentSpec, pi, inits: Sequence[PopulationState],
                           tol: float = 1e-10, max_iter: int = 100000) -> list[PopulationState]:
    """Multi-start fixed-point search, one point per equilibrium found.

    Each point find_fixed_point returns has residual at most tol, so to first
    order it lies within radius(x) = tol * ||(J - I)^+||_inf of its
    equilibrium, with J - I as in the Newton steps and ^+ the pseudo-inverse
    (a group with rate 0 makes J - I singular, and the search never moves
    such a group).  Two points closer than the sum of their radii are one
    equilibrium, and the first found is kept.  Starts that fail to converge
    are skipped.  Points within half the sum of the lower bounds
    tol / ||J - I||_inf (half, for round-off) merge without a pseudo-inverse:
    (J - I)(J - I)^+ is a nonzero projector, so its norm is at least 1.
    """
    _check_tol(tol, max_iter)
    pi = validate_policy(pi)        # checked once, before any start, then passed along
    rows = _policy_rows(pi, env.K, env.L)
    found: list[tuple] = []         # (point, x, lower bound, radius() taken once)
    for init in inits:
        try:
            fp = find_fixed_point(env, pi, init, tol=tol, max_iter=max_iter)
        except ConvergenceError:
            continue
        x = np.concatenate([fp.viewer, fp.provider])
        a = _LinearizedMap(env, rows, x, _image(env, rows, x) == 0.0).jacobian(minus_identity=True)
        norm = float(np.linalg.norm(a, np.inf))
        lower = tol / norm if norm > 0.0 else 0.0
        radius = cache(lambda a=a: tol * float(np.linalg.norm(np.linalg.pinv(a), np.inf)))
        gaps = [(np.abs(x - other).max(), low, r) for _, other, low, r in found]
        if (not any(gap <= (lower + low) / 2 for gap, low, _ in gaps)
                and all(gap > radius() + r() for gap, _, r in gaps)):
            found.append((fp, x, lower, radius))
    return [fp for fp, *_ in found]


# ---------------------------------------------------------------------------
# stability


@dataclass(frozen=True)
class StabilityReport:
    """Spectral analysis of the dynamics map linearized at a fixed point.

    ``eigenvalues`` is the numerically computed spectrum of the assembled
    Jacobian and is what ``stable`` is judged on.  ``analytic_eigenvalues``
    is the exact closed-form spectrum (see closed_form_eigenvalues), or None
    when the rates differ within a side and no closed form exists.
    ``sufficient_condition_holds`` is the rate-free test rho(G12 G21) < 1 (see
    jacobian_eigenvalues); it agrees with ``stable`` up to round-off.
    """

    fixed_point: PopulationState
    eigenvalues: np.ndarray
    analytic_eigenvalues: np.ndarray | None
    spectral_radius: float
    stable: bool
    sufficient_condition_holds: bool
    residual: float


class _LinearizedMap:
    """The curve slopes at x = (viewer, provider) under the policy `rows`,
    and the off-diagonal Jacobian blocks (A12, A21) built from them: the one
    pass that assemble_jacobian, closed_form_eigenvalues, the stability test
    and the Newton steps of find_fixed_point each need, and that
    jacobian_eigenvalues shares among them.

    `clipped` (viewer entries first) marks the groups whose update the map
    clips to 0 at x.  The map is locally constant there, so their rows of
    J are zeroed: they act as a rate of 1 and slopes of 0.
    """

    def __init__(self, env: EnvironmentSpec, rows: np.ndarray, x: np.ndarray,
                 clipped: np.ndarray | None = None):
        self.env, self.rows, K = env, rows, env.K
        f, self.df = env.f_grid.value_and_deriv(x[K:])          # f_{k,l}, f_{k,l}' at provider_l
        s, e, _ = _served(env.B + f, rows, x[:K])
        # lambda_bar_k' at s_k, then lambda_bar_l' at e_l, and the rates, stacked as x
        self.slopes, self.eta = env.curves.value_and_deriv(np.concatenate([s, e]))[1], env.eta
        if clipped is not None:
            self.slopes = np.where(clipped, 0.0, self.slopes)
            self.eta = np.where(clipped, 1.0, self.eta)
        rated = self.eta * self.slopes
        self.A12 = rated[:K, None] * rows * self.df
        self.A21 = rated[K:, None] * rows.T

    def jacobian(self, minus_identity: bool = False) -> np.ndarray:
        """J, or J - I built directly: the diagonal (1 - eta) - 1, the
        subtraction's value, not -eta, which can differ in the last bit."""
        K, diagonal = self.env.K, 1.0 - self.eta
        jac = np.diag(diagonal - 1.0 if minus_identity else diagonal)
        jac[:K, K:], jac[K:, :K] = self.A12, self.A21
        return jac

    def closed_form_spectrum(self) -> np.ndarray:
        """closed_form_eigenvalues; the caller checks one rate per side."""
        env = self.env
        K, L = env.K, env.L
        a, b = 1.0 - env.eta_viewer[0], 1.0 - env.eta_provider[0]
        coupling = self.A12 @ self.A21 if K <= L else self.A21 @ self.A12
        sigma = np.linalg.eigvals(coupling).astype(complex)
        root = np.sqrt(((a - b) / 2.0) ** 2 + sigma)
        leftover = np.full(abs(K - L), b if L > K else a, dtype=complex)
        eigs = np.concatenate([(a + b) / 2.0 + root, (a + b) / 2.0 - root, leftover])
        return eigs.real if not np.any(eigs.imag) else eigs

    def coupling_contracts(self) -> bool:
        """rho(J) < 1, decided as rho(G12 G21) < 1 by one solve (see jacobian_eigenvalues)."""
        if (self.eta == 0.0).any():
            return False        # a group that never moves: J has the eigenvalue 1
        K, L = self.env.K, self.env.L
        G12 = self.slopes[:K, None] * self.rows * self.df
        G21 = self.slopes[K:, None] * self.rows.T
        i_minus_c = np.eye(min(K, L)) - (G12 @ G21 if K <= L else G21 @ G12)
        try:
            return bool((np.linalg.solve(i_minus_c, np.ones(min(K, L))) > 0.0).all())
        except np.linalg.LinAlgError:
            return False        # I - C is singular: C has the eigenvalue 1


def assemble_jacobian(env: EnvironmentSpec, pi, at: PopulationState) -> np.ndarray:
    """Jacobian of the noiseless one-step map at `at`, from the analytic blocks.

    Block structure (viewer rows first):
        A11 = diag(1 - eta_k)
        A12[k, l] = eta_k * lambda_bar_k'(s_k) * pi[k, l] * f_{k,l}'(provider_l)
        A21[l, k] = eta_l * lambda_bar_l'(e_l) * pi[k, l]
        A22 = diag(1 - eta_l)
    """
    return _LinearizedMap(env, *_stacked(env, at, pi)).jacobian()


def _one_rate_per_side(env: EnvironmentSpec) -> bool:
    eta_v, eta_p = env.eta_viewer, env.eta_provider
    return not (np.any(eta_v != eta_v[0]) or np.any(eta_p != eta_p[0]))


def closed_form_eigenvalues(env: EnvironmentSpec, pi, at: PopulationState) -> np.ndarray:
    """The exact Jacobian spectrum at `at` when each side has one rate.

    With a = 1 - eta_viewer and b = 1 - eta_provider the same for every group
    of a side, J = [[a I, A12], [A21, b I]], and (x, y) is an eigenvector for
    lambda exactly when (lambda - a)(lambda - b) x = A12 A21 x.  So the
    spectrum is

        (a + b)/2 +/- sqrt(((a - b)/2)^2 + sigma),   sigma in eig(A12 A21)

    (eig(A21 A12) when K > L), plus |K - L| copies of b (L > K) or a (K > L).
    Only the min(K, L)-square coupling product goes through an eigensolver;
    J itself never does.  The result is real when every entry is.

    Raises ClosedFormDomainError when the rates differ within a side: the
    characteristic polynomial then has degree K + L with no closed form.
    """
    if not _one_rate_per_side(env):
        raise ClosedFormDomainError(
            "closed-form spectrum needs one reactiveness rate per side")
    return _LinearizedMap(env, *_stacked(env, at, pi)).closed_form_spectrum()


def jacobian_eigenvalues(env: EnvironmentSpec, pi, at: PopulationState,
                         tol: float = 1e-10) -> StabilityReport:
    """Stability analysis at a fixed point.

    Returns both the dense numeric spectrum of the assembled Jacobian and,
    when one rate per side makes it available, the closed-form spectrum.
    `stable` means numeric spectral radius < 1.

    `sufficient_condition_holds` is the exact, rate-free test
    rho(G12 G21) < 1 with G12[k, l] = lambda_bar_k'(s_k) pi[k, l] f_{k,l}'
    and G21[l, k] = lambda_bar_l'(e_l) pi[k, l], so that A12 = eta_viewer G12
    and A21 = eta_provider G21.  Every curve of the family is non-decreasing,
    so G >= 0, and I - J = E (I - G) with E = diag(eta) is a Z-matrix; with
    every rate positive, rho(J) < 1 exactly when I - G is a nonsingular
    M-matrix, that is when rho(G)^2 = rho(G12 G21) < 1 (Berman & Plemmons,
    Nonnegative Matrices in the Mathematical Sciences, ch. 6).  A group with
    rate 0 gives J the eigenvalue 1, and the flag is false.  No eigensolver
    decides it: for C = G12 G21 >= 0, rho(C) < 1 exactly when (I - C) x = 1
    has a solution x > 0 (x = sum_n C^n 1 >= 1 by the Neumann series;
    conversely Cx < x, Collatz-Wielandt), one min(K, L)-square LU solve.
    """
    _check_tol(tol)
    rows, x = _stacked(env, at, pi, "jacobian_eigenvalues")
    residual = float(np.abs(_image(env, rows, x, at.t) - x).max())
    if residual > 10 * tol:
        raise FixedPointPreconditionError(
            f"state is not a fixed point: residual {residual:.3e} > {10 * tol:.1e}")
    linearized = _LinearizedMap(env, rows, x)
    eigs = np.linalg.eigvals(linearized.jacobian())
    analytic = linearized.closed_form_spectrum() if _one_rate_per_side(env) else None
    rho = float(np.abs(eigs).max())
    return StabilityReport(fixed_point=at, eigenvalues=eigs, analytic_eigenvalues=analytic,
                           spectral_radius=rho, stable=bool(rho < 1.0),
                           sufficient_condition_holds=linearized.coupling_contracts(),
                           residual=residual)


# ---------------------------------------------------------------------------
# CSV emission

_FLOAT_FMT = "%.17g"   # lossless float round-trip


def trajectory_header(K: int, L: int) -> list[str]:
    return (["t"]
            + [f"lambda_u_{k + 1}" for k in range(K)]
            + [f"lambda_c_{l + 1}" for l in range(L)]
            + [f"s_{k + 1}" for k in range(K)]
            + [f"e_{l + 1}" for l in range(L)]
            + ["welfare"])


def trajectory_to_csv(traj: Trajectory) -> str:
    """Serialize a trajectory: one row per step, LF line endings, '.' decimals."""
    if not len(traj):
        raise ValueError("cannot serialize an empty trajectory")
    tab = traj.table
    return _csv_text(trajectory_header(tab.s.shape[1], tab.e.shape[1]), tab.t,
                     tab.lambda_viewer, tab.lambda_provider, tab.s, tab.e, tab.welfare)


def _csv_text(header: list[str], t, *columns) -> str:
    """CSV text of an integer t column followed by float columns.  Each
    column block has one leading entry per row, shape (T,) or (T, width).
    Shared by the trajectory, interaction-log and regret schemas."""
    rows = np.column_stack(columns).tolist()
    fmt = "%d," + ",".join([_FLOAT_FMT] * (len(rows[0]) if rows else 0))
    lines = [",".join(header)]
    lines += [fmt % (ti, *row) for ti, row in zip(np.asarray(t).tolist(), rows)]
    return "\n".join(lines) + "\n"


def parse_trajectory_csv(text: str) -> TrajectoryTable:
    return _parse_csv(text, "trajectory", lambda K, L: [])[0]


def _parse_csv(text: str, what: str, extra) -> tuple[TrajectoryTable, np.ndarray]:
    """Parse a CSV with the trajectory columns followed by the columns named
    extra(K, L); returns the trajectory table and the extra columns."""
    lines = [ln for ln in text.split("\n") if ln]
    header = lines[0].split(",")
    K = sum(1 for h in header if h.startswith("lambda_u_"))
    L = sum(1 for h in header if h.startswith("lambda_c_"))
    expected = trajectory_header(K, L)
    if header != expected + extra(K, L):
        raise ValueError(f"unexpected {what} CSV header: {header!r}")
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    if any(len(row) != len(header) for row in rows):
        raise ValueError(f"{what} CSV row width does not match header")
    data = np.array(rows, dtype=float).reshape(len(rows), len(header))
    c = 1
    cols = {}
    for name, width in (("lambda_viewer", K), ("lambda_provider", L),
                        ("s", K), ("e", L)):
        cols[name] = data[:, c:c + width]
        c += width
    return (TrajectoryTable(t=data[:, 0].astype(int), welfare=data[:, c], **cols),
            data[:, len(expected):])
