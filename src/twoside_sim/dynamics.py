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
    """Iterate the noiseless dynamics map until max-norm residual <= tol.

    The returned point depends on the initial condition when several fixed
    points exist.  The returned state carries t = 0 (an equilibrium has no
    meaningful timestep index).  Raises ConvergenceError after max_iter
    iterations, or its DivergenceError subclass as soon as an iterate
    overflows.
    """
    if env.noise_active:
        raise ValueError("find_fixed_point requires noise to be disabled")
    state = init
    residual = np.inf
    for _ in range(max_iter):
        nxt = step(env, state, pi, rng=None)
        residual = _state_distance(state, nxt)
        if residual <= tol:
            return PopulationState(t=0, viewer=state.viewer, provider=state.provider)
        state = nxt
    raise ConvergenceError(
        f"no fixed point within {max_iter} iterations (last residual {residual:.3e})",
        last_state=state, residual=float(residual))


def fixed_point_residual(env: EnvironmentSpec, pi, at: PopulationState) -> float:
    """Max-norm distance between `at` and its image under the noiseless map."""
    return _state_distance(at, step(env, at, pi, rng=None))


def enumerate_fixed_points(env: EnvironmentSpec, pi, inits: Sequence[PopulationState],
                           tol: float = 1e-10, max_iter: int = 100000) -> list[PopulationState]:
    """Multi-start fixed-point search, deduplicated at 10*tol separation.

    Starts that fail to converge are skipped.
    """
    found: list[PopulationState] = []
    for init in inits:
        try:
            fp = find_fixed_point(env, pi, init, tol=tol, max_iter=max_iter)
        except ConvergenceError:
            continue
        if all(_state_distance(fp, other) > 10 * tol for other in found):
            found.append(fp)
    return found


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
    closed_form_eigenvalues and derivative_bounds_at each need, and that
    jacobian_eigenvalues shares among them."""

    def __init__(self, env: EnvironmentSpec, pi, at: PopulationState):
        self.env = env
        rows = as_rows(pi)
        p = payoffs(env, at, rows)
        self.dv = env.viewer_curves.deriv(p.s)          # lambda_bar_k' at s_k
        self.dc = env.provider_curves.deriv(p.e)        # lambda_bar_l' at e_l
        self.df = env.f_grid.deriv(at.provider)         # f_{k,l}' at provider_l
        self.A12 = (env.eta_viewer * self.dv)[:, None] * rows * self.df
        self.A21 = (env.eta_provider * self.dc)[:, None] * rows.T

    def jacobian(self) -> np.ndarray:
        A11 = np.diag(1.0 - self.env.eta_viewer)
        A22 = np.diag(1.0 - self.env.eta_provider)
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

    def derivative_bounds(self) -> tuple[float, float]:
        C1 = float(np.max(np.abs(self.dc) * np.max(np.abs(self.df), axis=0)))
        C2 = float(np.max(np.abs(self.dv)))
        return C1, C2


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


def check_sufficient_stability(env: EnvironmentSpec, pi, at: PopulationState,
                               C1: float, C2: float) -> bool:
    """Column-sum sufficient condition for stability.

    True iff every provider column satisfies sum_k pi[k, l] <= 4 / (eta*C1*C2)
    with eta = max_k eta_k; C1 bounds |lambda_bar_l' * f_l'| and C2 bounds
    |lambda_bar_k'| at the fixed point (caller-supplied).
    """
    if C1 <= 0 or C2 <= 0:
        raise ValueError("C1 and C2 must be > 0")
    eta = float(np.max(env.eta_viewer))
    if eta == 0.0:
        return True
    bound = 4.0 / (eta * C1 * C2)
    col_sums = as_rows(pi).sum(axis=0)
    return bool(np.all(col_sums <= bound))


def derivative_bounds_at(env: EnvironmentSpec, pi, at: PopulationState) -> tuple[float, float]:
    """(C1, C2) evaluated at `at`: the tightest constants the sufficient
    condition can be checked with at this fixed point."""
    return _LinearizedMap(env, pi, at).derivative_bounds()


def jacobian_eigenvalues(env: EnvironmentSpec, pi, at: PopulationState,
                         tol: float = 1e-10) -> StabilityReport:
    """Stability analysis at a fixed point.

    Returns both the dense numeric spectrum of the assembled Jacobian and,
    when one rate per side makes it available, the closed-form spectrum.
    `stable` means numeric spectral radius < 1.
    The sufficient-condition flag is evaluated with the derivative bounds
    measured at the fixed point itself.
    """
    residual = fixed_point_residual(env, pi, at)
    if residual > 10 * tol:
        raise FixedPointPreconditionError(
            f"state is not a fixed point: residual {residual:.3e} > {10 * tol:.1e}")
    linearized = _LinearizedMap(env, pi, at)
    eigs = np.linalg.eigvals(linearized.jacobian())
    analytic = linearized.closed_form_spectrum() if _one_rate_per_side(env) else None
    rho = float(np.max(np.abs(eigs)))
    C1, C2 = linearized.derivative_bounds()
    if C1 > 0 and C2 > 0:
        sufficient = check_sufficient_stability(env, pi, at, C1, C2)
    else:
        sufficient = True   # zero derivative bound: the condition is vacuous
    return StabilityReport(fixed_point=at, eigenvalues=eigs, analytic_eigenvalues=analytic,
                           spectral_radius=rho, stable=bool(rho < 1.0),
                           sufficient_condition_holds=bool(sufficient),
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
