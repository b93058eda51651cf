"""Shared instance generators for the test suite.

Random environments are built from a seeded generator so hypothesis can
drive them with a single integer; all sampled functions are smooth unless a
test asks for the table variant, and population effects are nonnegative on
x >= 0 so welfare stays nonnegative.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from twoside_sim import (EnvironmentSpec, InteractionLog, NoiseSpec, PopulationState, fn_deriv,
                         fn_eval, linear_fn, saturating_exp, scaled_logistic, sigmoid_half,
                         table_fn, weighted_sigmoid_sum)
from twoside_sim.functions import FnVector

SMOOTH_KINDS = ("linear", "sigmoid_half", "saturating_exp", "scaled_logistic",
                "weighted_sigmoid_sum")


def random_smooth_fn(rng: np.random.Generator, nonneg: bool = False):
    kind = SMOOTH_KINDS[rng.integers(len(SMOOTH_KINDS))]
    if kind == "linear":
        return linear_fn(rng.uniform(0.0, 2.0), rng.uniform(0.0, 3.0))
    if kind == "sigmoid_half":
        return sigmoid_half(rng.uniform(1.0, 50.0), rng.uniform(1.0, 20.0))
    if kind == "saturating_exp":
        a2 = rng.uniform(-5.0, 0.0) if nonneg else rng.uniform(-5.0, 5.0)
        return saturating_exp(rng.uniform(0.5, 20.0), rng.uniform(0.01, 0.5),
                              a2, rng.uniform(0.0, 5.0))
    if kind == "scaled_logistic":
        return scaled_logistic(rng.uniform(1.0, 30.0), rng.uniform(0.05, 1.0),
                               rng.uniform(-5.0, 10.0))
    d = int(rng.integers(1, 5))
    return weighted_sigmoid_sum(rng.uniform(0.0, 1.0, d),
                                rng.uniform(0.5, 5.0, d),
                                rng.uniform(1.0, 30.0, d))



def reference_value(fn, x: float) -> float:
    """fn at the point x by its kind's scalar formula, written here apart from
    the package's kernels as the reference they are tested against; the
    operations run in the kernels' order, so the two agree bit for bit."""
    p, x = fn.params, float(x)
    if fn.kind == "linear":
        return p["slope"] * x + p["intercept"]
    if fn.kind == "sigmoid_half":
        return float((0.5 * p["max"]) * np.tanh(x / (2.0 * p["tau"])))
    if fn.kind == "saturating_exp":
        return float(p["a0"] * (1.0 - np.exp(-p["a1"] * (x - p["a2"]))) + p["a3"])
    if fn.kind == "scaled_logistic":
        half_gain = 0.5 * p["gain"]
        return float(half_gain + half_gain * np.tanh((0.5 * p["scale"]) * (x - p["shift"])))
    if fn.kind == "table":
        xs, ys = zip(*p["knots"])
        return float(np.interp(x, xs, ys))     # flat outside the knot range
    w, m, t = (np.asarray(p[k], dtype=float) for k in ("weights", "max_values", "taus"))
    return float((0.5 * w * m) @ np.tanh((0.5 / t) * x))


def reference_slope(fn, x: float) -> float:
    """fn's slope at the point x (right-hand at table knots), as reference_value."""
    p, x = fn.params, float(x)
    if fn.kind == "linear":
        return float(p["slope"])
    if fn.kind == "sigmoid_half":
        th = np.tanh(x / (2.0 * p["tau"]))
        return float((p["max"] / (4.0 * p["tau"])) * (1.0 - th * th))
    if fn.kind == "saturating_exp":
        return float(p["a0"] * p["a1"] * np.exp(-p["a1"] * (x - p["a2"])))
    if fn.kind == "scaled_logistic":
        th = np.tanh((0.5 * p["scale"]) * (x - p["shift"]))
        return float((0.25 * p["gain"] * p["scale"]) * (1.0 - th * th))
    if fn.kind == "table":
        xs, ys = (np.asarray(v, dtype=float) for v in zip(*p["knots"]))
        if x < xs[0] or x >= xs[-1]:
            return 0.0
        i = int(np.searchsorted(xs, x, side="right")) - 1
        return float((ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i]))
    w, m, t = (np.asarray(p[k], dtype=float) for k in ("weights", "max_values", "taus"))
    th = np.tanh((0.5 / t) * x)
    return float((0.25 * w * m / t) @ (1.0 - th * th))


def assert_bitwise_equal(got, want) -> None:
    """Equal shapes and equal bytes: -0.0 differs from 0.0 and a NaN equals itself."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape and got.tobytes() == want.tobytes(), (got, want)


def gradient_gap(analytic, fd) -> float:
    """Worst gap between an analytic gradient and a finite-difference one:
    entries where both magnitudes are below 1e-8 must agree to 1e-8
    absolutely (inf when they do not), the rest are compared relative to the
    larger magnitude."""
    diff = np.abs(analytic - fd)
    scale = np.maximum(np.abs(analytic), np.abs(fd))
    tiny = scale < 1e-8
    rel = np.where(tiny, np.where(diff > 1e-8, np.inf, 0.0),
                   diff / np.maximum(scale, 1e-300))
    return float(np.max(rel))


def reference_profile(t, yc, log_rate):
    """estimation._profile written in g = 1 - exp(-r t) with a new array per
    step, the reference the in-place profile is tested against: the best
    a0 >= 0, the SSE and mean(g) of curves (B, n) at rates (B, m)."""
    g = -np.expm1(-np.exp(log_rate)[..., None] * t[:, None, :])
    g_mean = g.mean(axis=-1)
    gc = g - g_mean[..., None]
    cov = np.sum(gc * yc[:, None, :], axis=-1)
    a0 = np.where(cov > 0.0, cov / np.sum(gc * gc, axis=-1), 0.0)
    resid = yc[:, None, :] - a0[..., None] * gc
    return a0, np.sum(resid * resid, axis=-1), g_mean


def reference_lookahead(env: EnvironmentSpec, state: PopulationState, rows, gamma: float):
    """(objective, gradient) of the look-ahead at `rows`, each reference curve
    evaluated on its own by fn_eval / fn_deriv and f by the checked public
    grid call, written apart from the package's forward pass as the
    reference it is tested against."""
    q = env.B + env.f_grid.value(state.provider)
    s = (rows * q).sum(axis=1)
    e = rows.T @ state.viewer
    big_lambda, d_viewer = per_curve(env.lambda_bar_viewer, s)
    ref_provider, d_provider = per_curve(env.lambda_bar_provider, e)
    f_ref, df = env.f_grid.value_and_deriv(ref_provider)
    w = env.B + f_ref
    logits = gamma * w
    z = np.exp(logits - logits.max(axis=1, keepdims=True))
    pi_soft = z / z.sum(axis=1, keepdims=True)
    w_mean = (pi_soft * w).sum(axis=1)
    col = (big_lambda[:, None] * pi_soft * df
           * (1.0 + gamma * (w - w_mean[:, None]))).sum(axis=0)
    gradient = (d_viewer * w_mean)[:, None] * q + np.outer(state.viewer, d_provider * col)
    return float(big_lambda @ w_mean), gradient


def per_curve(fns, x):
    """(fns[i](x[i]), fns[i]'(x[i])) for every i, one fn_eval and one fn_deriv per curve."""
    return (np.array([fn_eval(fn, v) for fn, v in zip(fns, x)]),
            np.array([fn_deriv(fn, v) for fn, v in zip(fns, x)]))


# The one-step map and its linearization with each side's reference curves
# and rates kept apart, a FnVector and a curve pass per side: the reference
# the stacked evaluators of dynamics are tested against.

def reference_update(env: EnvironmentSpec, q, rows, viewer, provider):
    """(s, e, welfare, next viewer, next provider) before noise and clipping,
    over any leading (cell) axes; called under np.errstate."""
    s = (rows * q).sum(axis=-1)
    e = np.matmul(viewer[..., None, :], rows)[..., 0, :]
    w = np.matmul(viewer[..., None, :], s[..., None])[..., 0, 0]
    viewer_curves, provider_curves = (FnVector(env.lambda_bar_viewer),
                                      FnVector(env.lambda_bar_provider))
    return (s, e, w,
            (1.0 - env.eta_viewer) * viewer + env.eta_viewer * viewer_curves._apply(s),
            (1.0 - env.eta_provider) * provider + env.eta_provider * provider_curves._apply(e))


def reference_step_cells(env: EnvironmentSpec, viewer, provider, rows, noise=None):
    """(q, s, e, welfare, next viewer, next provider, the cells whose outputs
    are not all finite) of S cells, `rows` (S, K, L), `noise` (S, K + L) or
    None; a failed cell keeps its populations."""
    with np.errstate(over="ignore", invalid="ignore"):
        q = env.B + env.f_grid.value(provider)
        s, e, w, new_viewer, new_provider = reference_update(env, q, rows, viewer, provider)
        if noise is not None:
            new_viewer *= noise[:, :env.K]
            new_provider *= noise[:, env.K:]
    failed = [c for c in range(len(viewer)) if not all(
        np.isfinite(a[c]).all() for a in (w, s, e, new_viewer, new_provider))]
    new_viewer, new_provider = np.maximum(new_viewer, 0.0), np.maximum(new_provider, 0.0)
    new_viewer[failed], new_provider[failed] = viewer[failed], provider[failed]
    return q, s, e, w, new_viewer, new_provider, failed


def reference_linearization(env: EnvironmentSpec, rows, x, clipped=None):
    """(J, dv, dc, df): the Jacobian of the noiseless map at x = (viewer,
    provider), the slopes of each side's reference curves and those of f,
    with the rows of the `clipped` groups zeroed (a rate of 1 and slopes of 0)."""
    K = env.K
    f, df = env.f_grid.value_and_deriv(x[K:])
    s = (rows * (env.B + f)).sum(axis=-1)
    e = x[:K] @ rows
    dv = FnVector(env.lambda_bar_viewer).value_and_deriv(s)[1]
    dc = FnVector(env.lambda_bar_provider).value_and_deriv(e)[1]
    eta_v, eta_p = env.eta_viewer, env.eta_provider
    if clipped is not None:
        cv, cp = clipped[:K], clipped[K:]
        dv, dc = np.where(cv, 0.0, dv), np.where(cp, 0.0, dc)
        eta_v, eta_p = np.where(cv, 1.0, eta_v), np.where(cp, 1.0, eta_p)
    jac = np.diag(np.concatenate([1.0 - eta_v, 1.0 - eta_p]))
    jac[:K, K:] = (eta_v * dv)[:, None] * rows * df
    jac[K:, :K] = (eta_p * dc)[:, None] * rows.T
    return jac, dv, dc, df


def reference_contracts(env: EnvironmentSpec, rows, dv, dc, df) -> bool:
    """rho(G12 G21) < 1 by the one solve of _LinearizedMap.coupling_contracts,
    from the per-side slopes (every rate positive)."""
    K, L = env.K, env.L
    G12, G21 = dv[:, None] * rows * df, dc[:, None] * rows.T
    i_minus_c = np.eye(min(K, L)) - (G12 @ G21 if K <= L else G21 @ G12)
    try:
        return bool(np.all(np.linalg.solve(i_minus_c, np.ones(min(K, L))) > 0.0))
    except np.linalg.LinAlgError:
        return False


def one_viewer_equilibria(env: EnvironmentSpec, rows, v_max: float, grid: int = 4001):
    """The exact equilibria of an environment with one viewer group (K = 1)
    under the policy rows (1, L), stacked (viewer, providers) one per row.

    At an equilibrium every population equals its reference curve, clipped
    at 0 as the map clips it, so provider l is lambda_p,l(pi_l v) and the
    viewer v is a root of

        g(v) = lambda_v(sum_l pi_l (B_l + f_l(lambda_p,l(pi_l v)))) - v.

    Each sign change of g on a grid of [0, v_max] (v_max at least the
    viewer curve's supremum) is refined by brentq to round-off; a root
    where g touches 0 without changing sign is missed.
    """
    from scipy.optimize import brentq

    pi = np.asarray(rows, dtype=float)[0]
    L = len(pi)

    def providers(v):
        return [np.maximum(fn_eval(env.lambda_bar_provider[l], pi[l] * v), 0.0)
                for l in range(L)]

    def g(v):
        s = sum(pi[l] * (env.B[0, l] + fn_eval(env.f[0][l], p))
                for l, p in enumerate(providers(v)))
        return np.maximum(fn_eval(env.lambda_bar_viewer[0], s), 0.0) - v

    vs = np.linspace(0.0, v_max, grid)
    gs = g(vs)
    roots = [v for v, gv in zip(vs, gs) if gv == 0.0]
    roots += [brentq(g, a, b, xtol=1e-15, rtol=1e-15)
              for a, b, ga, gb in zip(vs, vs[1:], gs, gs[1:]) if ga * gb < 0.0]
    return np.array([[v, *providers(v)] for v in sorted(roots)]).reshape(-1, 1 + L)


MIXED_KINDS = ("table", "linear", "saturating_exp", "scaled_logistic")


def mixed_fn(rng: np.random.Generator, kind: str):
    """A curve of `kind`, one of MIXED_KINDS, with random parameters."""
    if kind == "table":
        xs = np.cumsum(rng.uniform(0.5, 10.0, 4)) - 5.0
        return table_fn(list(zip(xs, np.cumsum(rng.uniform(0.0, 8.0, 4)))))
    if kind == "linear":
        return linear_fn(rng.uniform(0.0, 2.0), rng.uniform(0.0, 3.0))
    if kind == "saturating_exp":
        return saturating_exp(rng.uniform(0.5, 20.0), rng.uniform(0.01, 0.5),
                              rng.uniform(-5.0, 5.0), rng.uniform(0.0, 5.0))
    return scaled_logistic(rng.uniform(1.0, 30.0), rng.uniform(0.05, 1.0), rng.uniform(-5.0, 10.0))


def mixed_env(seed: int, noise_std: float = 0.0) -> EnvironmentSpec:
    """random_env(seed), at least 2 x 2, with its reference curves redrawn so
    that each side mixes kinds and the two sides' kinds differ: with the
    MIXED_KINDS in a random order (a, b, c, d), the viewer side cycles
    through (a, b, c) and the provider side through (d, c, b), so a and d
    are each on one side alone and, from three groups a side, b and c on both."""
    env = random_env(seed, noise_std=noise_std)
    rng = np.random.default_rng([seed, 11])
    K, L = max(env.K, 2), max(env.L, 2)
    a, b, c, d = (str(kind) for kind in rng.permutation(MIXED_KINDS))
    kinds = [(a, b, c)[i % 3] for i in range(K)] + [(d, c, b)[i % 3] for i in range(L)]
    return EnvironmentSpec(
        K=K, L=L, B=rng.uniform(0.0, 5.0, (K, L)),
        f=tuple(tuple(env.f[k % env.K][l % env.L] for l in range(L)) for k in range(K)),
        lambda_bar_viewer=tuple(mixed_fn(rng, kind) for kind in kinds[:K]),
        lambda_bar_provider=tuple(mixed_fn(rng, kind) for kind in kinds[K:]),
        eta_viewer=rng.uniform(0.2, 0.9, K), eta_provider=rng.uniform(0.2, 0.9, L),
        noise=env.noise, seed=seed)


def random_env(seed: int, max_dim: int = 5, noise_std: float = 0.0) -> EnvironmentSpec:
    rng = np.random.default_rng(seed)
    K = int(rng.integers(1, max_dim + 1))
    L = int(rng.integers(1, max_dim + 1))
    B = rng.uniform(0.0, 5.0, (K, L))
    f = tuple(tuple(random_smooth_fn(rng, nonneg=True) for _ in range(L))
              for _ in range(K))
    lam_v = tuple(random_smooth_fn(rng) for _ in range(K))
    lam_c = tuple(random_smooth_fn(rng) for _ in range(L))
    return EnvironmentSpec(
        K=K, L=L, B=B, f=f, lambda_bar_viewer=lam_v, lambda_bar_provider=lam_c,
        eta_viewer=rng.uniform(0.2, 0.9, K), eta_provider=rng.uniform(0.2, 0.9, L),
        noise=NoiseSpec(relative_std=noise_std) if noise_std > 0 else None,
        seed=seed)


def random_state(seed: int, env: EnvironmentSpec, scale: float = 20.0) -> PopulationState:
    rng = np.random.default_rng([seed, 99])
    return PopulationState(t=0,
                           viewer=rng.uniform(0.0, scale, env.K),
                           provider=rng.uniform(0.0, scale, env.L))


def random_policy(seed: int, K: int, L: int) -> np.ndarray:
    rng = np.random.default_rng([seed, 7])
    raw = rng.uniform(0.05, 1.0, (K, L))
    return raw / raw.sum(axis=1, keepdims=True)


def assert_columns_stack_steps(traj, env: EnvironmentSpec) -> None:
    """A trajectory's columns are its steps stacked, read-only, and an
    interaction log built from it carries the same values."""
    steps = traj.steps
    stacked = {"t": [st.state.t for st in steps],
               "lambda_viewer": [st.state.viewer for st in steps],
               "lambda_provider": [st.state.provider for st in steps],
               "s": [st.payoffs.s for st in steps],
               "e": [st.payoffs.e for st in steps],
               "welfare": [st.welfare for st in steps]}
    assert set(stacked) == {f.name for f in dataclasses.fields(traj.table)}
    for name, column in stacked.items():
        got = getattr(traj.table, name)
        assert np.array_equal(got, np.asarray(column)), name
        assert not got.flags.writeable, name
    assert traj.table.t.dtype.kind == "i"
    assert traj.q.shape == (len(steps), env.K, env.L)
    assert np.array_equal(traj.q, np.asarray([st.payoffs.q for st in steps]))
    assert not traj.q.flags.writeable
    log = InteractionLog.from_trajectory(traj, env.eta_viewer, env.eta_provider)
    for name in stacked:
        assert np.array_equal(getattr(log.table, name), getattr(traj.table, name)), name
    assert np.array_equal(log.q, traj.q)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one line per release criterion after an acceptance run."""
    import sys

    mod = sys.modules.get("test_acceptance")
    if mod is None:
        return
    terminalreporter.ensure_newline()
    terminalreporter.section("acceptance criteria")
    for num, label in sorted(mod.CRITERIA.items()):
        got = mod.RESULTS.get(num)
        if got is None:
            terminalreporter.write_line(
                f"[criterion {num:02d}] NOT RUN — {label}", yellow=True)
            continue
        ok, detail = got
        word = "PASS" if ok else "FAIL"
        terminalreporter.write_line(
            f"[criterion {num:02d}] {word} — {label}: {detail}",
            green=ok, red=not ok)
