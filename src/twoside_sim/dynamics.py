"""Population dynamics: payoffs, evolution, fixed points, stability.

The one-step map moves each group toward its reference population at its
reactiveness rate:

    viewer_k'   = (1 - eta_k) * viewer_k   + eta_k * lambda_bar_k(s_k)
    provider_l' = (1 - eta_l) * provider_l + eta_l * lambda_bar_l(e_l)

optionally followed by multiplicative Gaussian noise and a clip at zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .model import (EnvironmentSpec, Payoffs, PolicyMatrix, PopulationState,
                    as_rows, validate_policy)

PolicyRule = Callable[[EnvironmentSpec, PopulationState], PolicyMatrix]


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
    rows = as_rows(pi)
    if rows.shape != (env.K, env.L):
        raise ValueError(f"policy shape {rows.shape} does not match (K, L)={(env.K, env.L)}")
    if state.viewer.shape != (env.K,) or state.provider.shape != (env.L,):
        raise ValueError("state dimensions do not match the environment")
    q = env.B + env.f_grid.value(state.provider)
    s = (rows * q).sum(axis=1)
    e = rows.T @ state.viewer
    return Payoffs(s=s, e=e, q=q)


def welfare(state: PopulationState, p: Payoffs) -> float:
    """Total viewer welfare R = sum_k viewer_k * s_k."""
    if state.viewer.shape != p.s.shape:
        raise ValueError("state and payoffs dimensions do not match")
    return float(state.viewer @ p.s)


def step(env: EnvironmentSpec, state: PopulationState, pi,
         rng: np.random.Generator | None = None) -> PopulationState:
    """Advance the populations by one timestep.

    Noise (when configured and rng given) multiplies each new population by
    (1 + xi) with xi ~ Normal(0, relative_std^2), viewer draws before provider
    draws, and the result is clipped at zero.  Raises DivergenceError, carrying
    `state`, when the payoffs or the new populations are not finite.
    """
    if env.noise_active and rng is None:
        raise ValueError("environment has noise configured; step needs an rng")
    with np.errstate(over="ignore", invalid="ignore"):
        p = payoffs(env, state, pi)
    return _advance(env, state, p, rng)


def _advance(env: EnvironmentSpec, state: PopulationState, p: Payoffs,
             rng: np.random.Generator | None) -> PopulationState:
    """The step from `state` given its payoffs `p` (see step)."""
    with np.errstate(over="ignore", invalid="ignore"):
        _require_finite(state, "payoffs", p.s, p.e)
        ref_viewer = env.viewer_curves.value(p.s)
        ref_provider = env.provider_curves.value(p.e)
        new_viewer = (1.0 - env.eta_viewer) * state.viewer + env.eta_viewer * ref_viewer
        new_provider = (1.0 - env.eta_provider) * state.provider + env.eta_provider * ref_provider
        if env.noise_active:
            rel = env.noise.relative_std
            new_viewer = new_viewer * (1.0 + rng.normal(0.0, rel, env.K))
            new_provider = new_provider * (1.0 + rng.normal(0.0, rel, env.L))
        _require_finite(state, "populations", new_viewer, new_provider)
    return PopulationState(t=state.t + 1,
                           viewer=np.maximum(new_viewer, 0.0),
                           provider=np.maximum(new_provider, 0.0))


def _require_finite(state: PopulationState, what: str, *arrays) -> None:
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise DivergenceError(f"dynamics diverged: non-finite {what} after t={state.t}",
                              last_state=state, residual=float("inf"))


@dataclass(frozen=True)
class TrajectoryStep:
    state: PopulationState
    policy: PolicyMatrix
    payoffs: Payoffs
    welfare: float


@dataclass(frozen=True)
class Trajectory:
    steps: tuple[TrajectoryStep, ...]
    env_digest: str
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))

    def __len__(self) -> int:
        return len(self.steps)

    def welfare_series(self) -> np.ndarray:
        return np.asarray([st.welfare for st in self.steps])

    def cumulative_welfare(self) -> float:
        return float(self.welfare_series().sum())


def as_policy_rule(policy) -> PolicyRule:
    """Lift a constant policy (or pass through a callable rule)."""
    if callable(policy):
        return policy
    fixed = validate_policy(policy)
    return lambda env, state: fixed


def rollout(env: EnvironmentSpec, policy_rule, T: int, init: PopulationState,
            rng: np.random.Generator | None = None, seed: int | None = None) -> Trajectory:
    """Run the dynamics for T steps, recording payoffs before each update.

    Raises DivergenceError (a ConvergenceError) when the run leaves the finite
    range.
    """
    if T < 1:
        raise ValueError("horizon T must be >= 1")
    rule = as_policy_rule(policy_rule)
    if rng is None:
        rng = np.random.default_rng(env.seed if seed is None else seed)
    recorded_seed = env.seed if seed is None else seed
    state = init
    steps = []
    for _ in range(T):
        pi = validate_policy(rule(env, state))
        with np.errstate(over="ignore", invalid="ignore"):
            p = payoffs(env, state, pi)
            w = welfare(state, p)
        _require_finite(state, "welfare", w)
        steps.append(TrajectoryStep(state=state, policy=pi, payoffs=p, welfare=w))
        state = _advance(env, state, p, rng)
    return Trajectory(steps=tuple(steps), env_digest=env.digest(), seed=recorded_seed)


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
    linearized = None               # the map linearized at x, once a Newton step lands there
    while residual > tol:
        if evals >= max_iter:
            raise ConvergenceError(
                f"no fixed point within {max_iter} iterations "
                f"(last residual {residual:.3e})", last_state=fx, residual=float(residual))
        if rate is not None and wait == 0:
            evals += 1
            trial = _guarded_newton(env, pi, x, fx, residual, rate, linearized)
            if trial is not None:
                x, fx, residual, linearized = trial
                continue
            wait, backoff = backoff, 2 * backoff
            if evals >= max_iter:
                continue
        wait = max(wait - 1, 0)
        x, fx, linearized = fx, step(env, fx, pi, rng=None), None
        evals += 1
        previous, residual = residual, _state_distance(x, fx)
        rate = residual / previous if residual < previous else None
    if 0.0 < residual and evals < max_iter:
        with np.errstate(all="ignore"):
            y = _newton_point(linearized or _clipped_linearization(env, pi, x, fx), x, fx)
        fy = None if y is None else _image(env, pi, y)
        if fy is not None and _state_distance(y, fy) <= residual:
            x = y
    return PopulationState(t=0, viewer=x.viewer, provider=x.provider)


def _guarded_newton(env: EnvironmentSpec, pi, x: PopulationState, fx: PopulationState,
                    residual: float, rate: float, linearized: _LinearizedMap | None):
    """(y, F(y), |F(y) - y|, the map linearized at y) for the Newton step y
    from x when find_fixed_point keeps it, else None.  `linearized`, when
    given, is the map linearized at x and already found attracting."""
    with np.errstate(all="ignore"):
        if linearized is None:
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
    return y, fy, residual_y, at_y


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
    if not traj.steps:
        raise ValueError("cannot serialize an empty trajectory")
    K = traj.steps[0].state.viewer.shape[0]
    L = traj.steps[0].state.provider.shape[0]
    return _csv_text(trajectory_header(K, L), (
        (st.state.t, st.state.viewer, st.state.provider, st.payoffs.s, st.payoffs.e,
         st.welfare) for st in traj.steps))


def _csv_text(header: list[str], rows) -> str:
    """CSV text of rows (t, float blocks...); each block's values are written in
    ravel order.  Shared by the trajectory and interaction-log schemas."""
    lines = [",".join(header)]
    for t, *blocks in rows:
        lines.append(",".join([str(t)] + [_FLOAT_FMT % v for block in blocks
                                          for v in np.ravel(block)]))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class TrajectoryTable:
    """The CSV-schema view of a trajectory (the columns the CSV carries)."""

    t: np.ndarray
    lambda_viewer: np.ndarray    # (T, K)
    lambda_provider: np.ndarray  # (T, L)
    s: np.ndarray                # (T, K)
    e: np.ndarray                # (T, L)
    welfare: np.ndarray          # (T,)


def trajectory_table(traj: Trajectory) -> TrajectoryTable:
    return TrajectoryTable(
        t=np.asarray([st.state.t for st in traj.steps], dtype=int),
        lambda_viewer=np.asarray([st.state.viewer for st in traj.steps]),
        lambda_provider=np.asarray([st.state.provider for st in traj.steps]),
        s=np.asarray([st.payoffs.s for st in traj.steps]),
        e=np.asarray([st.payoffs.e for st in traj.steps]),
        welfare=np.asarray([st.welfare for st in traj.steps]),
    )


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
