"""Population dynamics: payoffs, evolution, fixed points, stability.

The one-step map moves each group toward its reference population at its
reactiveness rate:

    viewer_k'   = (1 - eta_k) * viewer_k   + eta_k * lambda_bar_k(s_k)
    provider_l' = (1 - eta_l) * provider_l + eta_l * lambda_bar_l(e_l)

optionally followed by multiplicative Gaussian noise and a clip at zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .functions import _row_dots
from .model import (EnvironmentSpec, Payoffs, PolicyMatrix, PopulationState,
                    _frozen, _readonly, as_rows, greedy_rows, validate_policy)
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
    """The rows of `pi` (None for None), after checking them and `state`
    against the environment."""
    rows = None if pi is None else as_rows(pi)
    if rows is not None and rows.shape != (env.K, env.L):
        raise ValueError(f"policy shape {rows.shape} does not match (K, L)={(env.K, env.L)}")
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
    (1 + xi) with xi ~ Normal(0, relative_std^2), viewer draws before provider
    draws, and the result is clipped at zero.  Raises DivergenceError, carrying
    `state`, when the welfare, payoffs or new populations are not finite.
    """
    if env.noise_active and rng is None:
        raise ValueError("environment has noise configured; step needs an rng")
    *_, viewer, provider = _step_one(env, state, pi, rng)
    return PopulationState(t=state.t + 1, viewer=viewer, provider=provider)


def _step_one(env: EnvironmentSpec, state: PopulationState, pi, rng):
    """(q, s, e, welfare, next viewer, next provider) of `pi` deployed at
    `state`, by _step_cells with one cell; raises that cell's failure."""
    rows, failed = _checked(env, state, pi), {}
    q, _, s, e, w, viewer, provider = _step_cells(
        env, state.t, state.viewer[None], state.provider[None], lambda q: rows, [rng], failed)
    if failed:
        raise failed[0]
    return q[0], s[0], e[0], float(w[0]), viewer[0], provider[0]


def _step_cells(env: EnvironmentSpec, t: int, viewer: np.ndarray, provider: np.ndarray,
                decide: Callable, rngs: Sequence, failed: dict):
    """The one step of the dynamics, for S cells at time t: populations
    `viewer` (S, K) and `provider` (S, L), policy rows decide(q), (S, K, L)
    or one (K, L) for all, at q = B + f(provider), and noise from rngs[i].
    Returns (q, rows, s, e, welfare, next viewer, next provider).

    A cell that fails a check (welfare, payoffs, new populations, in that
    order) gets its DivergenceError in `failed` (cell -> error) and then
    stays where it is, so the other cells go on.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        q = env.B + env.f_grid.value(provider)
    rows = decide(q)
    with np.errstate(over="ignore", invalid="ignore"):
        s, e, w = _served(q, rows, viewer)
        _fail_non_finite(failed, "welfare", t, viewer, provider, w)
        _fail_non_finite(failed, "payoffs", t, viewer, provider, s, e)
        if failed:     # the curves reject non-finite points
            s[list(failed)] = e[list(failed)] = 0.0
        new_viewer = (1.0 - env.eta_viewer) * viewer + env.eta_viewer * env.viewer_curves.value(s)
        new_provider = ((1.0 - env.eta_provider) * provider
                        + env.eta_provider * env.provider_curves.value(e))
        if env.noise_active:
            xi_viewer, xi_provider = np.empty(viewer.shape), np.empty(provider.shape)
            for c, rng in enumerate(rngs):
                xi_viewer[c] = rng.normal(0.0, env.noise.relative_std, env.K)
                xi_provider[c] = rng.normal(0.0, env.noise.relative_std, env.L)
            new_viewer = new_viewer * (1.0 + xi_viewer)
            new_provider = new_provider * (1.0 + xi_provider)
        _fail_non_finite(failed, "populations", t, viewer, provider, new_viewer, new_provider)
    new_viewer, new_provider = np.maximum(new_viewer, 0.0), np.maximum(new_provider, 0.0)
    if failed:
        dead = list(failed)
        new_viewer[dead], new_provider[dead] = viewer[dead], provider[dead]
    return q, rows, s, e, w, new_viewer, new_provider


def _fail_non_finite(failed: dict, what: str, t: int, viewer, provider, *arrays) -> None:
    """Fail every cell, not failed yet, whose rows of `arrays` are not all finite."""
    if all(np.isfinite(a).all() for a in arrays):
        return
    for c in range(len(viewer)):
        if c not in failed and not all(np.isfinite(a[c]).all() for a in arrays):
            failed[c] = DivergenceError(
                f"dynamics diverged: non-finite {what} after t={t}", residual=float("inf"),
                last_state=PopulationState(t=t, viewer=viewer[c], provider=provider[c]))


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
            rng: np.random.Generator | None = None, seed: int | None = None) -> Trajectory:
    """Run the dynamics for T steps, recording payoffs before each update:
    lockstep_rollouts with one cell, its noise drawn from `rng` (by default
    seeded with `seed`, or else the environment's seed).

    Raises DivergenceError (a ConvergenceError) when the run leaves the finite
    range.
    """
    seed = env.seed if seed is None else seed
    (run,) = lockstep_rollouts(env, policy_rule, T, init, [seed], None if rng is None else [rng])
    if not isinstance(run, Trajectory):
        raise run
    return run


def lockstep_rollouts(env: EnvironmentSpec, policy, T: int, init: PopulationState,
                      seeds: Sequence[int], rngs: Sequence | None = None) -> list:
    """Run one policy from `init` for T steps on every seed at once, one
    _step_cells call per step; cell i draws its noise from rngs[i] (by
    default seeded with seeds[i]).

    `policy` is a matrix (checked once and broadcast), myopic_greedy (the
    greedy rows of the step's own q), or a rule (env, state) -> policy
    asked cell by cell.  Cell i's result is what rollout gives on seeds[i]
    alone, bit for bit: its Trajectory, or the exception that ended it.
    """
    if T < 1:
        raise ValueError("horizon T must be >= 1")
    fixed, decide = _decider(env, policy)
    _checked(env, init, fixed)
    if rngs is None:
        rngs = [np.random.default_rng(seed) for seed in seeds]
    S, K, L = len(seeds), env.K, env.L
    viewer, provider, s, e = (np.empty((T, S, n)) for n in (K, L, K, L))
    w, q = np.empty((T, S)), np.empty((T, S, K, L))
    rows = np.empty((T, S, K, L)) if fixed is None else np.broadcast_to(fixed.rows, (T, S, K, L))
    viewer[0], provider[0] = init.viewer, init.provider
    failed: dict[int, BaseException] = {}
    for i in range(T):
        t = init.t + i
        q[i], rows_i, s[i], e[i], w[i], next_viewer, next_provider = _step_cells(
            env, t, viewer[i], provider[i],
            lambda q_i: decide(t, viewer[i], provider[i], q_i, failed), rngs, failed)
        if fixed is None:
            rows[i] = rows_i
        if len(failed) == S:
            break
        if i + 1 < T:
            viewer[i + 1], provider[i + 1] = next_viewer, next_provider
    for column in (viewer, provider, s, e, w, q, rows):
        column.flags.writeable = False
    t_column, digest = _readonly(np.arange(init.t, init.t + T)), env.digest()
    return [failed[c] if c in failed else Trajectory(
        table=TrajectoryTable(t=t_column, lambda_viewer=viewer[:, c], lambda_provider=provider[:, c],
                              s=s[:, c], e=e[:, c], welfare=w[:, c]),
        q=q[:, c], policy=rows[:, c], env_digest=digest, seed=seed, init=init)
        for c, seed in enumerate(seeds)]


def _decider(env: EnvironmentSpec, policy):
    """(fixed, decide(t, viewer, provider, q, failed) -> rows of every cell):
    `fixed` is a constant policy's PolicyMatrix, else None.  A rule that
    raises, or returns an invalid policy, for a cell fails that cell."""
    if not callable(policy):
        fixed = validate_policy(policy)
        return fixed, lambda *_: fixed.rows
    if policy is myopic_greedy:
        return None, lambda t, viewer, provider, q, failed: greedy_rows(q)

    def per_cell(t, viewer, provider, q, failed):
        rows = np.zeros(q.shape)
        for c in range(len(rows)):
            try:
                if c not in failed:
                    state = PopulationState(t=t, viewer=viewer[c], provider=provider[c])
                    rows[c] = _checked(env, state, validate_policy(policy(env, state)))
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

    The returned point depends on the initial condition when several fixed
    points exist.  The returned state carries t = 0 (an equilibrium has no
    meaningful timestep index).  max_iter bounds the evaluations of F, each
    Newton trial counted as one.  Raises ConvergenceError when they run out,
    or its DivergenceError subclass as soon as a plain iterate overflows.
    """
    if env.noise_active:
        raise ValueError("find_fixed_point requires noise to be disabled")
    x, fx = init, step(env, init, pi, rng=None)
    evals, residual = 1, _state_distance(init, fx)
    rate = None                     # the last residual ratio, while below 1
    wait, backoff = 0, 1            # plain steps before the next Newton trial
    successor = None                # the Newton step from x, once a Newton step lands there
    while residual > tol:
        if evals >= max_iter:
            raise ConvergenceError(
                f"no fixed point within {max_iter} iterations "
                f"(last residual {residual:.3e})", last_state=fx, residual=float(residual))
        if rate is not None and wait == 0:
            evals += 1
            trial = _guarded_newton(env, pi, x, fx, residual, rate, successor)
            if trial is not None:
                x, fx, residual, successor = trial
                continue
            wait, backoff = backoff, 2 * backoff
            if evals >= max_iter:
                continue
        wait = max(wait - 1, 0)
        x, fx, successor = fx, step(env, fx, pi, rng=None), None
        evals += 1
        previous, residual = residual, _state_distance(x, fx)
        rate = residual / previous if residual < previous else None
    if 0.0 < residual and evals < max_iter:
        with np.errstate(all="ignore"):
            y = successor or _newton_point(_clipped_linearization(env, pi, x, fx), x, fx)
        fy = None if y is None else _image(env, pi, y)
        if fy is not None and _state_distance(y, fy) <= residual:
            x = y
    return PopulationState(t=0, viewer=x.viewer, provider=x.provider)


def _guarded_newton(env: EnvironmentSpec, pi, x: PopulationState, fx: PopulationState,
                    residual: float, rate: float, successor: PopulationState | None):
    """(y, F(y), |F(y) - y|, the Newton step z from y) for the Newton step y
    from x when find_fixed_point keeps it, else None.  `successor`, when
    given, is that y: the kept step that landed at x already solved for it,
    from a linearization at x found attracting."""
    with np.errstate(all="ignore"):
        y = successor
        if y is None:
            linearized = _clipped_linearization(env, pi, x, fx)
            if not linearized.coupling_contracts():
                return None
            y = _newton_point(linearized, x, fx)
        if y is None or _state_distance(x, y) > 2.0 * residual / (1.0 - rate):
            return None
        fy = _image(env, pi, y)
        if fy is None:
            return None
        residual_y = _state_distance(y, fy)
        if residual_y > residual / 2:
            return None
        at_y = _clipped_linearization(env, pi, y, fy)
        if not at_y.coupling_contracts():
            return None
        z = _newton_point(at_y, y, fy)
        if z is None or _state_distance(y, z) > _state_distance(x, y) / 2:
            return None
    return y, fy, residual_y, z


def _clipped_linearization(env: EnvironmentSpec, pi, x: PopulationState,
                           fx: PopulationState) -> _LinearizedMap:
    """The map linearized at x, the groups where F(x) is 0 taken as clipped."""
    return _LinearizedMap(env, pi, x, clipped=_stacked(fx) == 0.0)


def _newton_point(linearized: _LinearizedMap, x: PopulationState,
                  fx: PopulationState) -> PopulationState | None:
    """x - (J - I)^-1 (F(x) - x), clipped at 0 like the map, with J from
    `linearized`; None when J - I is singular or the step is not finite."""
    x_vec, fx_vec = _stacked(x), _stacked(fx)
    jac = linearized.jacobian()
    try:
        delta = np.linalg.solve(jac - np.eye(len(jac)), fx_vec - x_vec)
    except np.linalg.LinAlgError:
        return None
    y_vec = np.maximum(x_vec - delta, 0.0)
    if not np.all(np.isfinite(y_vec)):
        return None
    K = linearized.env.K
    return PopulationState(t=x.t + 1, viewer=y_vec[:K], provider=y_vec[K:])


def _image(env: EnvironmentSpec, pi, y: PopulationState) -> PopulationState | None:
    """F(y), or None when it overflows."""
    try:
        return step(env, y, pi, rng=None)
    except DivergenceError:
        return None


def _stacked(state: PopulationState) -> np.ndarray:
    return np.concatenate([state.viewer, state.provider])


def fixed_point_residual(env: EnvironmentSpec, pi, at: PopulationState) -> float:
    """Max-norm distance between `at` and its image under the noiseless map."""
    return _state_distance(at, step(env, at, pi, rng=None))


def enumerate_fixed_points(env: EnvironmentSpec, pi, inits: Sequence[PopulationState],
                           tol: float = 1e-10, max_iter: int = 100000) -> list[PopulationState]:
    """Multi-start fixed-point search, one point per equilibrium found.

    Each point find_fixed_point returns has residual at most tol, so to first
    order it lies within radius(x) = tol * ||(J - I)^+||_inf of its
    equilibrium, with J - I as in the Newton steps and ^+ the pseudo-inverse
    (a group with rate 0 makes J - I singular, and the search never moves
    such a group).  Two points closer than the sum of their radii are one
    equilibrium, and the first found is kept.  Starts that fail to converge
    are skipped.
    """
    found: list[tuple[PopulationState, float]] = []
    for init in inits:
        try:
            fp = find_fixed_point(env, pi, init, tol=tol, max_iter=max_iter)
        except ConvergenceError:
            continue
        jac = _clipped_linearization(env, pi, fp, step(env, fp, pi, rng=None)).jacobian()
        radius = tol * float(np.linalg.norm(np.linalg.pinv(jac - np.eye(len(jac))), np.inf))
        if all(_state_distance(fp, other) > radius + r for other, r in found):
            found.append((fp, radius))
    return [fp for fp, _ in found]


def _state_distance(a: PopulationState, b: PopulationState) -> float:
    return float(max(np.max(np.abs(a.viewer - b.viewer)),
                     np.max(np.abs(a.provider - b.provider))))


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
    """The curve slopes at `at` under `pi`, and the off-diagonal Jacobian
    blocks (A12, A21) built from them: the one pass that assemble_jacobian,
    closed_form_eigenvalues, the stability test and the Newton steps of
    find_fixed_point each need, and that jacobian_eigenvalues shares among
    them.

    `clipped` (viewer entries first) marks the groups whose update the map
    clips to 0 at `at`.  The map is locally constant there, so their rows of
    J are zeroed: they act as a rate of 1 and slopes of 0.
    """

    def __init__(self, env: EnvironmentSpec, pi, at: PopulationState,
                 clipped: np.ndarray | None = None):
        self.env = env
        self.rows = rows = as_rows(pi)
        p = payoffs(env, at, rows)
        self.dv = env.viewer_curves.deriv(p.s)          # lambda_bar_k' at s_k
        self.dc = env.provider_curves.deriv(p.e)        # lambda_bar_l' at e_l
        self.df = env.f_grid.deriv(at.provider)         # f_{k,l}' at provider_l
        self.eta_v, self.eta_p = env.eta_viewer, env.eta_provider
        if clipped is not None:
            cv, cp = clipped[:env.K], clipped[env.K:]
            self.dv, self.dc = np.where(cv, 0.0, self.dv), np.where(cp, 0.0, self.dc)
            self.eta_v, self.eta_p = np.where(cv, 1.0, self.eta_v), np.where(cp, 1.0, self.eta_p)
        self.A12 = (self.eta_v * self.dv)[:, None] * rows * self.df
        self.A21 = (self.eta_p * self.dc)[:, None] * rows.T

    def jacobian(self) -> np.ndarray:
        A11 = np.diag(1.0 - self.eta_v)
        A22 = np.diag(1.0 - self.eta_p)
        return np.block([[A11, self.A12], [self.A21, A22]])

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
        """rho(J) < 1, decided as rho(G12 G21) < 1 (see jacobian_eigenvalues)."""
        if np.any(self.eta_v == 0.0) or np.any(self.eta_p == 0.0):
            return False        # a group that never moves: J has the eigenvalue 1
        G12 = self.dv[:, None] * self.rows * self.df
        G21 = self.dc[:, None] * self.rows.T
        coupling = G12 @ G21 if self.env.K <= self.env.L else G21 @ G12
        return bool(np.max(np.abs(np.linalg.eigvals(coupling))) < 1.0)


def assemble_jacobian(env: EnvironmentSpec, pi, at: PopulationState) -> np.ndarray:
    """Jacobian of the noiseless one-step map at `at`, from the analytic blocks.

    Block structure (viewer rows first):
        A11 = diag(1 - eta_k)
        A12[k, l] = eta_k * lambda_bar_k'(s_k) * pi[k, l] * f_{k,l}'(provider_l)
        A21[l, k] = eta_l * lambda_bar_l'(e_l) * pi[k, l]
        A22 = diag(1 - eta_l)
    """
    return _LinearizedMap(env, pi, at).jacobian()


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
    return _LinearizedMap(env, pi, at).closed_form_spectrum()


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
    rate 0 gives J the eigenvalue 1, and the flag is false.  Only a
    min(K, L)-square matrix goes through the eigensolver.
    """
    residual = fixed_point_residual(env, pi, at)
    if residual > 10 * tol:
        raise FixedPointPreconditionError(
            f"state is not a fixed point: residual {residual:.3e} > {10 * tol:.1e}")
    linearized = _LinearizedMap(env, pi, at)
    eigs = np.linalg.eigvals(linearized.jacobian())
    analytic = linearized.closed_form_spectrum() if _one_rate_per_side(env) else None
    rho = float(np.max(np.abs(eigs)))
    return StabilityReport(fixed_point=at, eigenvalues=eigs, analytic_eigenvalues=analytic,
                           spectral_radius=rho, stable=bool(rho < 1.0),
                           sufficient_condition_holds=linearized.coupling_contracts(),
                           residual=float(residual))


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
