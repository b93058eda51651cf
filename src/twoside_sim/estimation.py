"""Learning unknown dynamics from rollout logs.

The platform observes per-step satisfaction, exposure, and utilities (an
InteractionLog: the trajectory table plus the utilities), knows the
reactiveness rates, and recovers each group's reference-population curve
by inverting the update rule, then fits a concave saturating-exponential
model to the recovered targets.  An explore-then-commit loop burns in with an
exploratory policy, then alternates refitting with deploying the optimized
policy of the fitted surrogate environment.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dynamics import (Trajectory, TrajectoryStep, TrajectoryTable, _csv_text, _parse_csv,
                       _step_one, trajectory_header)
from .functions import ScalarFn, fn_eval, saturating_exp
from .kinds import ExperimentConfigError, _check_kinds, _is
from .model import (EnvironmentSpec, Payoffs, PolicyMatrix, PopulationState,
                    SpecValidationError, _readonly, epsilon_greedy, validate_policy)
from .policies import LookaheadConfig, interpolate, myopic_greedy, optimize_lookahead


class EstimationError(RuntimeError):
    """The estimation pipeline cannot proceed."""


class InsufficientDataError(EstimationError):
    """Fewer observations than model parameters."""


class DegenerateDesignError(EstimationError):
    """Not enough distinct input values to identify the curve."""


class EstimationWarning(UserWarning):
    """A refit failed and the previous fit was kept."""


def recover_reference(lambda_t, lambda_t1, eta: float):
    """Invert one noiseless population update to expose the reference level.

    lambda_bar = (lambda_{t+1} - lambda_t) / eta + lambda_t.  Exact inverse of
    the update for eta > 0; the reference is unidentifiable at eta = 0.
    """
    if eta == 0:
        raise EstimationError("reference population is unidentifiable when eta = 0")
    return (lambda_t1 - lambda_t) / eta + lambda_t


# ---------------------------------------------------------------------------
# saturating-exponential curve fitting

_MIN_RATE_SPAN = 1e-6   # r * (x range) at the low end: a straight line to 1e-6
_MAX_RATE_GAP = 40.0    # r * (smallest x gap) at the high end: exp(-40) is below round-off
_LOG_RATE_STEP = 0.1    # grid spacing in log r
_GOLDEN_STEPS = 40      # shrink the two-cell bracket 0.618**40 = 4e-9 times
_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class SaturatingExpFit:
    """Fitted params of a0*(1 - exp(-a1*(x - a2))) + a3, with fit RMSE."""

    a0: float
    a1: float
    a2: float
    a3: float
    rmse: float

    @property
    def params(self) -> tuple[float, float, float, float]:
        return (self.a0, self.a1, self.a2, self.a3)

    @property
    def fn(self) -> ScalarFn:
        return saturating_exp(self.a0, self.a1, self.a2, self.a3)

    def predict(self, x):
        return fn_eval(self.fn, x)

    def to_dict(self) -> dict:
        return {"a0": self.a0, "a1": self.a1, "a2": self.a2, "a3": self.a3,
                "rmse": self.rmse}

    @classmethod
    def from_dict(cls, d: dict) -> "SaturatingExpFit":
        return cls(a0=d["a0"], a1=d["a1"], a2=d["a2"], a3=d["a3"], rmse=d["rmse"])


def fit_saturating_exp(points) -> SaturatingExpFit:
    """Least-squares fit of a0*(1 - exp(-a1*(x - a2))) + a3 with a0, a1 >= 0.

    The family has three free parameters, so a2 = min(x).  For each rate a1
    the fit is linear in (a0, a3) and solved in closed form, and a1 alone is
    searched (variable projection, Golub & Pereyra 1973).  Data that no
    rising curve fits better than a constant give the flat member
    a0 = a1 = 0.  The result does not depend on the order of the points.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be an iterable of (x, y) pairs")
    return _fit_curves([(pts[:, 0], pts[:, 1])])[0]


def _fit_curves(curves) -> list[SaturatingExpFit]:
    """Fit each (x, y) curve; curves with the same number of points form one batch."""
    batches: dict[int, list] = {}
    for i, (x, y) in enumerate(curves):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("points must be finite")
        if len(x) < 4:
            raise InsufficientDataError(f"need at least 4 points to fit a curve, got {len(x)}")
        if len(np.unique(x)) < 3:
            raise DegenerateDesignError(
                f"need at least 3 distinct x values, got {len(np.unique(x))}")
        order = np.lexsort((y, x))
        batches.setdefault(len(x), []).append((i, x[order], y[order]))
    fits: list = [None] * len(curves)
    for batch in batches.values():
        idx, X, Y = zip(*batch)
        for i, fit in zip(idx, _fit_batch(np.array(X), np.array(Y))):
            fits[i] = fit
    return fits


def _profile(t: np.ndarray, yc: np.ndarray, log_rate: np.ndarray):
    """Best a0 >= 0, the SSE and mean(g) of curves (B, n) at rates (B, m),
    where g = 1 - exp(-r t).

    It works in place on h = expm1(-r t) = -g and one scratch buffer.  IEEE
    negation is exact, so each sum of h is minus that sum of g, and the
    results equal those of the formula written in g bit for bit."""
    n = t.shape[-1]
    h = np.multiply(-np.exp(log_rate)[..., None], t[:, None, :])
    np.expm1(h, out=h)
    h_mean = np.add.reduce(h, axis=-1) / n
    h -= h_mean[..., None]                                # -(g - mean(g))
    scratch = np.multiply(h, yc[:, None, :])
    cov = -np.add.reduce(scratch, axis=-1)
    np.multiply(h, h, out=scratch)
    a0 = np.where(cov > 0.0, cov / np.add.reduce(scratch, axis=-1), 0.0)
    h *= a0[..., None]
    h += yc[:, None, :]                                   # the residuals
    np.multiply(h, h, out=h)
    return a0, np.add.reduce(h, axis=-1), -h_mean


def _fit_batch(X: np.ndarray, Y: np.ndarray) -> list[SaturatingExpFit]:
    """Fit B curves of n points sorted by x, X and Y of shape (B, n): a grid
    over log r between bounds set by the x range and the smallest x gap, then
    golden-section refinement between the best grid point's neighbours."""
    B, n = X.shape
    t = X - X[:, :1]
    gaps = np.diff(X, axis=1)
    lo = np.log(_MIN_RATE_SPAN / t[:, -1:])
    hi = np.log(_MAX_RATE_GAP / np.where(gaps > 0.0, gaps, np.inf).min(axis=1, keepdims=True))
    # each curve's grid stops at its own hi, so it does not depend on the batch
    J = int(np.ceil(np.max((hi - lo) / _LOG_RATE_STEP)))
    grid = np.minimum(lo + _LOG_RATE_STEP * np.arange(J + 1), hi)
    y_off = Y - Y[:, :1]           # constant data centre to exact zeros
    yc = y_off - y_off.mean(axis=1, keepdims=True)
    sse = _profile(t, yc, grid)[1]
    j = np.argmin(sse, axis=1)[:, None]
    best, best_sse = np.take_along_axis(grid, j, 1), np.take_along_axis(sse, j, 1)
    a = np.take_along_axis(grid, np.maximum(j - 1, 0), 1)
    b = np.take_along_axis(grid, np.minimum(j + 1, J), 1)
    step = _GOLDEN * (b - a)
    c, d = b - step, a + step
    fc, fd = _profile(t, yc, c)[1], _profile(t, yc, d)[1]
    for _ in range(_GOLDEN_STEPS):
        left = fc < fd          # the minimum lies in [a, d]
        a, b = np.where(left, a, c), np.where(left, d, b)
        step = _GOLDEN * (b - a)
        new = np.where(left, b - step, a + step)
        f_new = _profile(t, yc, new)[1]
        c, d, fc, fd = (np.where(left, new, d), np.where(left, c, new),
                        np.where(left, f_new, fd), np.where(left, fc, f_new))
    for point, f_point in ((c, fc), (d, fd)):
        best = np.where(f_point < best_sse, point, best)
        best_sse = np.minimum(f_point, best_sse)
    a0, sse, g_mean = (v[:, 0] for v in _profile(t, yc, best))
    rate = np.where(a0 > 0.0, np.exp(best[:, 0]), 0.0)
    a3 = Y[:, 0] + y_off.mean(axis=1) - a0 * g_mean
    return [SaturatingExpFit(a0=float(a0[i]), a1=float(rate[i]), a2=float(X[i, 0]),
                             a3=float(a3[i]), rmse=float(np.sqrt(sse[i] / n)))
            for i in range(B)]


# ---------------------------------------------------------------------------
# interaction logs


@dataclass(frozen=True)
class InteractionLog:
    """Logged steps: the trajectory columns the platform observed (t, both
    populations, s, e, welfare), the realized utilities q of shape (T, K, L),
    and the known reactiveness rates.  The arrays are read-only copies."""

    table: TrajectoryTable
    q: np.ndarray
    eta_viewer: np.ndarray
    eta_provider: np.ndarray

    def __post_init__(self):
        for name in ("q", "eta_viewer", "eta_provider"):
            object.__setattr__(self, name, _readonly(np.asarray(getattr(self, name), dtype=float)))
        t = self.table.t
        if len(t) and not np.array_equal(t, np.arange(t[0], t[0] + len(t))):
            raise ValueError("steps must be consecutive in t with no gaps")
        if self.q.shape != (len(t), *self.table.s.shape[1:], *self.table.e.shape[1:]):
            raise ValueError(f"q has shape {self.q.shape}, expected (T, K, L)")

    def __len__(self) -> int:
        return len(self.table.t)

    @classmethod
    def from_trajectory(cls, traj: Trajectory, eta_viewer, eta_provider) -> "InteractionLog":
        return cls(table=traj.table, q=traj.q, eta_viewer=eta_viewer, eta_provider=eta_provider)


def _q_header(K: int, L: int) -> list[str]:
    return [f"q_{k + 1}_{l + 1}" for k in range(K) for l in range(L)]


def interaction_log_to_csv(log: InteractionLog) -> str:
    """Trajectory CSV schema plus the per-pair utility columns q_k_l."""
    if not len(log):
        raise ValueError("cannot serialize an empty log")
    T, K, L = log.q.shape
    tab = log.table
    return _csv_text(trajectory_header(K, L) + _q_header(K, L), tab.t,
                     tab.lambda_viewer, tab.lambda_provider, tab.s, tab.e, tab.welfare,
                     log.q.reshape(T, K * L))


def parse_interaction_csv(text: str, eta_viewer, eta_provider) -> InteractionLog:
    """Inverse of interaction_log_to_csv."""
    table, q = _parse_csv(text, "interaction", _q_header)
    return InteractionLog(table=table, q=q.reshape(len(q), table.s.shape[1], table.e.shape[1]),
                          eta_viewer=eta_viewer, eta_provider=eta_provider)


# ---------------------------------------------------------------------------
# fitted dynamics


@dataclass(frozen=True)
class FittedDynamics:
    """Per-curve saturating-exponential fits of the reference maps and the
    population effects."""

    lambda_bar_viewer_hat: tuple[SaturatingExpFit, ...]
    lambda_bar_provider_hat: tuple[SaturatingExpFit, ...]
    f_hat: tuple[tuple[SaturatingExpFit, ...], ...]
    b_known: bool = True

    def __post_init__(self):
        object.__setattr__(self, "lambda_bar_viewer_hat", tuple(self.lambda_bar_viewer_hat))
        object.__setattr__(self, "lambda_bar_provider_hat", tuple(self.lambda_bar_provider_hat))
        object.__setattr__(self, "f_hat", tuple(tuple(row) for row in self.f_hat))

    def to_dict(self) -> dict:
        return {
            "lambda_bar_viewer_hat": [f.to_dict() for f in self.lambda_bar_viewer_hat],
            "lambda_bar_provider_hat": [f.to_dict() for f in self.lambda_bar_provider_hat],
            "f_hat": [[f.to_dict() for f in row] for row in self.f_hat],
            "b_known": self.b_known,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FittedDynamics":
        return cls(
            lambda_bar_viewer_hat=tuple(SaturatingExpFit.from_dict(v)
                                        for v in d["lambda_bar_viewer_hat"]),
            lambda_bar_provider_hat=tuple(SaturatingExpFit.from_dict(v)
                                          for v in d["lambda_bar_provider_hat"]),
            f_hat=tuple(tuple(SaturatingExpFit.from_dict(v) for v in row)
                        for row in d["f_hat"]),
            b_known=d.get("b_known", True),
        )

    def surrogate_env(self, B: np.ndarray | None, eta_viewer, eta_provider,
                      seed: int = 0) -> EnvironmentSpec:
        """EnvironmentSpec whose dynamics are the fitted curves.

        When base utilities were unknown during fitting they are absorbed in
        the f_hat offsets, and the surrogate B is zero.
        """
        K = len(self.lambda_bar_viewer_hat)
        L = len(self.lambda_bar_provider_hat)
        if B is None:
            B = np.zeros((K, L))
        return EnvironmentSpec(
            K=K, L=L, B=np.asarray(B, dtype=float),
            f=tuple(tuple(f.fn for f in row) for row in self.f_hat),
            lambda_bar_viewer=tuple(f.fn for f in self.lambda_bar_viewer_hat),
            lambda_bar_provider=tuple(f.fn for f in self.lambda_bar_provider_hat),
            eta_viewer=np.asarray(eta_viewer, dtype=float),
            eta_provider=np.asarray(eta_provider, dtype=float),
            seed=seed,
        )


def fit_dynamics(log: InteractionLog, B: np.ndarray | None) -> FittedDynamics:
    """Fit every reference curve and population effect from a log.

    Targets for the reference curves come from inverting consecutive
    population pairs; effects are fit on (provider population, q - b) pairs
    (or raw q when B is unknown, absorbing b into the offset).  All K + L + K*L
    curves are fitted together; each fit equals fit_saturating_exp on its points.
    """
    if len(log) < 2:
        raise InsufficientDataError("need at least 2 logged steps to recover references")
    tab, q = log.table, log.q                                     # q: (T, K, L)
    lam_u, lam_c, s, e = tab.lambda_viewer, tab.lambda_provider, tab.s, tab.e
    K, L = s.shape[1], e.shape[1]

    curves = [(s[:-1, k], recover_reference(lam_u[:-1, k], lam_u[1:, k],
                                            float(log.eta_viewer[k]))) for k in range(K)]
    curves += [(e[:-1, l], recover_reference(lam_c[:-1, l], lam_c[1:, l],
                                             float(log.eta_provider[l]))) for l in range(L)]
    curves += [(lam_c[:, l], q[:, k, l] if B is None else q[:, k, l] - B[k, l])
               for k in range(K) for l in range(L)]
    fits = _fit_curves(curves)
    return FittedDynamics(lambda_bar_viewer_hat=tuple(fits[:K]),
                          lambda_bar_provider_hat=tuple(fits[K:K + L]),
                          f_hat=tuple(tuple(fits[K + L + k * L:K + L + (k + 1) * L])
                                      for k in range(K)),
                          b_known=B is not None)


# ---------------------------------------------------------------------------
# explore-then-commit


class SimulatorBlackbox:
    """Step-and-observe handle over an environment.

    The caller sees the known quantities (B, reactiveness rates, dimensions)
    and per-step observations; the reference curves and population effects
    stay hidden behind step().
    """

    def __init__(self, env: EnvironmentSpec, init: PopulationState, seed: int = 0):
        if not _is(seed, int):
            raise SpecValidationError(f"seed must be an integer, got {seed!r}")
        self._env = env
        self._init = init
        self.seed = int(seed)
        self.K, self.L = env.K, env.L
        self.B = env.B
        self.eta_viewer = env.eta_viewer
        self.eta_provider = env.eta_provider
        self.env_digest = env.digest()
        self.reset()

    def reset(self) -> None:
        self._state = self._init
        self._rng = np.random.default_rng(self.seed)

    @property
    def state(self) -> PopulationState:
        return self._state

    def step(self, pi) -> TrajectoryStep:
        """Deploy a policy for one step; returns the step observed at the
        pre-step state, then advances the hidden state (as rollout does)."""
        pi, state = validate_policy(pi), self._state
        q, se, w, x = _step_one(self._env, state, pi, self._rng)
        self._state = PopulationState(t=state.t + 1, viewer=x[:self.K], provider=x[self.K:])
        return TrajectoryStep(state=state, policy=pi, welfare=w,
                              payoffs=Payoffs(s=se[:self.K], e=se[self.K:], q=q))


@dataclass(frozen=True)
class ExploreCommitConfig:
    T_b: int                 # burn-in steps under epsilon-greedy exploration
    T: int                   # total horizon
    beta: float              # exploration strength and interpolation weight
    refit_every: int = 1

    def __post_init__(self):
        _check_kinds(self)
        if self.T_b < 1:
            raise ExperimentConfigError("T_b must be >= 1")
        if self.T <= self.T_b:
            raise ExperimentConfigError("T must exceed T_b")
        if not (0.0 <= self.beta <= 1.0):
            raise ExperimentConfigError("beta must be in [0, 1]")
        if self.refit_every < 1:
            raise ExperimentConfigError("refit_every must be >= 1")


def explore_then_commit(blackbox: SimulatorBlackbox, config: ExploreCommitConfig,
                        lookahead: LookaheadConfig | None = None,
                        b_known: bool = True) -> tuple[Trajectory, FittedDynamics]:
    """Burn in with epsilon-greedy exploration, then alternate refitting the
    dynamics with deploying the optimized policy of the fitted surrogate.

    A refit that fails falls back to the previous fit with a warning; a
    failure before any fit succeeded is an error.
    """
    if lookahead is None:
        lookahead = LookaheadConfig()
    blackbox.reset()
    explore_pi = epsilon_greedy(blackbox.B, config.beta)
    init, T, K, L = blackbox.state, config.T, blackbox.K, blackbox.L
    viewer, provider, s, e = np.empty((T, K)), np.empty((T, L)), np.empty((T, K)), np.empty((T, L))
    welfare, q, policy = np.empty(T), np.empty((T, K, L)), np.empty((T, K, L))

    def first_steps(n: int) -> Trajectory:
        return Trajectory(
            table=TrajectoryTable(t=np.arange(init.t, init.t + n), lambda_viewer=viewer[:n],
                                  lambda_provider=provider[:n], s=s[:n], e=e[:n],
                                  welfare=welfare[:n]),
            q=q[:n], policy=policy[:n], env_digest=blackbox.env_digest, seed=blackbox.seed,
            init=init)

    fitted: FittedDynamics | None = None
    committed: PolicyMatrix | None = None
    B_for_fit = blackbox.B if b_known else None
    for i in range(T):
        if i < config.T_b:
            pi = explore_pi
        else:
            if (i - config.T_b) % config.refit_every == 0:
                log = InteractionLog.from_trajectory(first_steps(i), blackbox.eta_viewer,
                                                     blackbox.eta_provider)
                try:
                    fitted = fit_dynamics(log, B_for_fit)
                except EstimationError as err:
                    if fitted is None:
                        raise EstimationError(
                            f"first dynamics fit failed at step {i}: {err}") from err
                    warnings.warn(f"refit at step {i} failed ({err}); keeping "
                                  "previous fit", EstimationWarning)
                surrogate = fitted.surrogate_env(
                    blackbox.B if b_known else None,
                    blackbox.eta_viewer, blackbox.eta_provider)
                here = blackbox.state
                pi_d = optimize_lookahead(surrogate, here, lookahead)
                pi_m = myopic_greedy(surrogate, here)
                committed = interpolate(pi_d, pi_m, config.beta)
            pi = committed
        st = blackbox.step(pi)
        viewer[i], provider[i], policy[i] = st.state.viewer, st.state.provider, st.policy.rows
        s[i], e[i], q[i], welfare[i] = st.payoffs.s, st.payoffs.e, st.payoffs.q, st.welfare
    for column in (viewer, provider, s, e, welfare, q, policy):
        column.flags.writeable = False
    assert fitted is not None
    return first_steps(T), fitted
