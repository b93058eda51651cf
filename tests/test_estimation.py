import dataclasses
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares

from twoside_sim import (DegenerateDesignError, DivergenceError, EnvironmentSpec,
                         EstimationError, EstimationWarning,
                         ExploreCommitConfig, FittedDynamics,
                         InsufficientDataError, InteractionLog, LookaheadConfig,
                         NoiseSpec,
                         PopulationState, SimulatorBlackbox, TrajectoryTable,
                         epsilon_greedy,
                         explore_then_commit, fit_dynamics, fit_saturating_exp,
                         fn_eval, interaction_log_to_csv, linear_fn, myopic_greedy,
                         parse_interaction_csv, payoffs, recover_reference, rollout,
                         saturating_exp, step)
import twoside_sim.estimation as estimation_module

from conftest import (assert_bitwise_equal, assert_columns_stack_steps, random_env, random_policy,
                      random_state, reference_profile)

SRC = Path(__file__).resolve().parents[1] / "src"


def sat_env(seed=0, eta=0.4, noise=None):
    """A 2x2 environment whose curves all live in the fittable family."""
    return EnvironmentSpec(
        K=2, L=2,
        B=[[2.0, 1.0], [0.5, 1.5]],
        f=tuple(tuple(saturating_exp(1.5, 0.03, 0.0, 0.2) for _ in range(2))
                for _ in range(2)),
        lambda_bar_viewer=(saturating_exp(40.0, 0.05, 0.0, 5.0),
                           saturating_exp(35.0, 0.06, 0.0, 4.0)),
        lambda_bar_provider=(saturating_exp(30.0, 0.04, 0.0, 4.0),
                             saturating_exp(25.0, 0.05, 0.0, 3.0)),
        eta_viewer=[eta, eta], eta_provider=[eta, eta],
        noise=noise, seed=seed,
    )


START = PopulationState(t=0, viewer=[10.0, 12.0], provider=[8.0, 9.0])


# --- reference recovery ---


def test_recover_reference_examples():
    assert recover_reference(10.0, 15.0, 1.0) == 15.0
    assert recover_reference(7.0, 7.0, 0.3) == 7.0
    assert recover_reference(10.0, 15.0, 0.5) == 20.0
    with pytest.raises(EstimationError):
        recover_reference(10.0, 15.0, 0.0)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_recover_reference_inverts_the_update(seed):
    env = random_env(seed, max_dim=3)
    state = random_state(seed, env)
    pi = random_policy(seed, env.K, env.L)
    nxt = step(env, state, pi)
    from twoside_sim.dynamics import payoffs
    p = payoffs(env, state, pi)
    truth = env.curves.value(np.concatenate([p.s, p.e]))[:env.K]
    for k in range(env.K):
        eta = float(env.eta_viewer[k])
        if eta == 0 or nxt.viewer[k] == 0.0:   # clipped or unidentifiable steps excluded
            continue
        got = recover_reference(state.viewer[k], nxt.viewer[k], eta)
        assert got == pytest.approx(truth[k], abs=1e-12 * max(1.0, abs(truth[k])))


# --- curve fitting ---


def test_fit_recovers_generating_curve():
    true = saturating_exp(5.0, 0.1, 0.0, 1.0)
    x = np.linspace(0.0, 30.0, 20)
    y = np.array([fn_eval(true, v) for v in x])
    fit = fit_saturating_exp(np.column_stack([x, y]))
    grid = np.linspace(0.0, 30.0, 200)
    resid = fit.predict(grid) - np.array([fn_eval(true, v) for v in grid])
    assert np.sqrt(np.mean(resid ** 2)) <= 1e-6
    assert fit.rmse <= 1e-6


def test_fit_constant_data():
    x = np.array([0.0, 1.0, 2.0, 3.0, 7.0])
    fit = fit_saturating_exp(np.column_stack([x, np.full(5, 3.7)]))
    np.testing.assert_allclose(fit.predict(np.linspace(-2, 10, 50)), 3.7, atol=1e-8)


def test_fit_tracks_straight_line_on_short_range():
    x = np.linspace(0.0, 2.0, 20)
    y = 0.5 * x + 1.0
    fit = fit_saturating_exp(np.column_stack([x, y]))
    pred = fit.predict(x)
    assert np.max(np.abs(pred - y) / np.abs(y)) <= 0.01


def test_fit_data_requirements():
    with pytest.raises(InsufficientDataError):
        fit_saturating_exp([(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)])
    with pytest.raises(DegenerateDesignError):
        fit_saturating_exp([(1.0, 1.0), (1.0, 2.0), (2.0, 3.0), (2.0, 4.0)])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_fitted_curves_are_monotone_nondecreasing(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 25))
    x = np.sort(rng.uniform(0, 50, n))
    y = rng.uniform(0, 20, n)        # arbitrary (even decreasing) data
    try:
        fit = fit_saturating_exp(np.column_stack([x, y]))
    except DegenerateDesignError:
        return
    grid = np.linspace(x.min(), x.max(), 100)
    vals = fit.predict(grid)
    assert np.all(np.diff(vals) >= -1e-9)


def test_fit_round_trips_through_dict():
    fit = fit_saturating_exp([(0.0, 1.0), (1.0, 1.5), (2.0, 1.9), (4.0, 2.4)])
    back = type(fit).from_dict(fit.to_dict())
    assert back == fit


def trf_multistart_sse(x, y):
    """Lowest SSE of a four-parameter trust-region-reflective fit from five
    starts (the data-range anchors and a spread of rates), with a0, a1 >= 0."""
    def model(th):
        a0, a1, a2, a3 = th
        return a0 * (1.0 - np.exp(np.clip(-a1 * (x - a2), -700.0, 700.0))) + a3

    def jac(th):
        a0, a1, a2, a3 = th
        E = np.exp(np.clip(-a1 * (x - a2), -700.0, 700.0))
        return np.column_stack([1.0 - E, a0 * (x - a2) * E, -a0 * a1 * E,
                                np.ones_like(x)])

    x_range, y_range = float(np.ptp(x)), float(np.ptp(y))
    ceiling = y.max() + 0.05 * max(y_range, 1.0)
    slope = np.polyfit(x, np.log(np.maximum(ceiling - y, 1e-12)), 1)[0]
    rates = [-slope if slope < 0 else 1.0 / x_range] + [
        m / x_range for m in (0.5, 1.0, 2.0, 8.0)]
    best = np.inf
    for rate in rates:
        start = np.array([y_range or 1.0, max(rate, 1e-12), x.min(), y.min()])
        with np.errstate(over="ignore"):    # a trial step's cost may overflow in np.dot
            sol = least_squares(lambda th: model(th) - y, start, jac=jac,
                                bounds=([0.0, 0.0, -np.inf, -np.inf], np.inf), method="trf")
        best = min(best, float(np.sum(sol.fun ** 2)))
    return best


def fit_sse(fit, x, y):
    """SSE of a fit, with 1 - exp evaluated without cancellation."""
    pred = fit.a3 + fit.a0 * -np.expm1(-fit.a1 * (x - fit.a2))
    return float(np.sum((pred - y) ** 2))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6), shape=st.sampled_from(["family", "line", "noise"]))
@example(seed=418, shape="line")   # the reference's trial step overflows
def test_fit_sse_never_above_multistart_trust_region(seed, shape):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 40))
    x = rng.uniform(-20.0, 50.0, n)
    if shape == "family":
        a0 = rng.uniform(0.5, 40.0)
        y = (a0 * (1.0 - np.exp(-10 ** rng.uniform(-3, 0.5) * (x - x.min())))
             + rng.uniform(-5, 5) + rng.normal(0.0, 10 ** rng.uniform(-3, -1) * a0, n))
    elif shape == "line":
        y = rng.uniform(-1, 1) * x + rng.normal(0.0, 0.5, n)
    else:
        y = rng.uniform(0.0, 20.0, n)
    if len(np.unique(x)) < 3:
        return
    fit = fit_saturating_exp(np.column_stack([x, y]))
    sse = fit_sse(fit, x, y)
    assert sse <= trf_multistart_sse(x, y) * (1.0 + 1e-9)
    assert np.sqrt(sse / n) == pytest.approx(fit.rmse, rel=1e-9, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_fit_is_canonical_and_order_free(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 30))
    x = np.round(rng.uniform(0.0, 30.0, n), 1)     # ties included
    y = 3.0 * (1.0 - np.exp(-0.2 * x)) + rng.normal(0.0, 0.3, n)
    if len(np.unique(x)) < 3:
        return
    fit = fit_saturating_exp(np.column_stack([x, y]))
    assert fit.a2 == x.min()
    perm = rng.permutation(n)
    again = fit_saturating_exp(np.column_stack([x[perm], y[perm]]))
    assert again.params == fit.params and again.rmse == fit.rmse


def test_fit_of_decreasing_data_is_the_flat_member():
    x = np.array([0.0, 1.0, 2.5, 4.0, 7.0, 9.0])
    y = 10.0 - x ** 1.5
    fit = fit_saturating_exp(np.column_stack([x, y]))
    assert (fit.a0, fit.a1, fit.a2) == (0.0, 0.0, 0.0)
    assert fit.a3 == pytest.approx(y.mean(), rel=1e-14)
    assert fit.rmse == pytest.approx(np.std(y), rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), case=st.sampled_from(["noise", "constant", "one_rate", "grid"]))
def test_profile_equals_the_reference_bit_for_bit(seed, case):
    """The in-place profile in h = -g equals the formula in g, outputs and
    signed zeros alike: random batches, constant data (a0 = 0), one rate per
    curve and the fit's grid of rates."""
    rng = np.random.default_rng(seed)
    B, n = int(rng.integers(1, 7)), int(rng.integers(4, 50))
    X = np.sort(rng.uniform(-20.0, rng.uniform(0.0, 300.0), (B, n)), axis=1)
    t = X - X[:, :1]
    Y = (np.full((B, n), rng.normal()) if case == "constant"
         else rng.normal(0.0, 10 ** rng.uniform(-2, 2), (B, n)) + np.sqrt(t))
    y_off = Y - Y[:, :1]
    yc = y_off - y_off.mean(axis=1, keepdims=True)
    if case == "grid":
        log_rate = np.minimum(-6.0 + 0.1 * np.arange(150), rng.uniform(-2.0, 3.0, (B, 1)))
    else:
        log_rate = rng.uniform(-12.0, 3.0, (B, 1 if case == "one_rate" else int(rng.integers(2, 30))))
    got, want = estimation_module._profile(t, yc, log_rate), reference_profile(t, yc, log_rate)
    for g, w in zip(got, want):
        assert_bitwise_equal(g, w)
    if case == "constant":
        assert not got[0].any()


def test_fit_takes_no_initial_guess():
    with pytest.raises(TypeError):
        fit_saturating_exp([(0.0, 1.0), (1.0, 1.5), (2.0, 1.9), (4.0, 2.4)],
                           init=[1.0, 1.0, 0.0, 1.0])


def test_package_does_not_import_scipy_optimize():
    code = "import sys, twoside_sim; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert out.stdout.strip() == "False"


def test_package_runs_without_scipy():
    """A plain import loads no scipy module, and with scipy blocked (any import
    of it raises ImportError) the package optimizes a look-ahead policy, rolls
    out with noise, finds a fixed point and fits dynamics."""
    code = textwrap.dedent("""
        import sys
        import twoside_sim
        loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
        assert not loaded, loaded
        sys.modules["scipy"] = None
        import dataclasses
        import numpy as np
        import twoside_sim.cli
        from twoside_sim import (InteractionLog, LookaheadConfig, NoiseSpec,
                                 SyntheticScenarioConfig, epsilon_greedy,
                                 find_fixed_point, fit_dynamics, gen_synthetic,
                                 optimize_lookahead, rollout, sample_initial_state)
        scen = SyntheticScenarioConfig(K=3, L=3, d=4, seed=5)
        env = gen_synthetic(scen)
        init = sample_initial_state(scen)
        pi = optimize_lookahead(env, init, LookaheadConfig(iterations=20))
        fp = find_fixed_point(env, pi, init)
        noisy = dataclasses.replace(env, noise=NoiseSpec(relative_std=0.02))
        traj = rollout(noisy, epsilon_greedy(env.B, 0.3), 40, init, seed=3)
        fitted = fit_dynamics(
            InteractionLog.from_trajectory(traj, env.eta_viewer, env.eta_provider), env.B)
        assert np.all(np.isfinite(np.concatenate([fp.viewer, fp.provider])))
        assert len(fitted.f_hat) == 3 and all(fit.rmse >= 0 for fit in fitted.f_hat[0])
        print("ok")
    """)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)})
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"


# --- interaction logs ---


def test_log_from_trajectory_and_csv_round_trip():
    env = sat_env()
    traj = rollout(env, epsilon_greedy(env.B, 0.3), 8, START)
    log = InteractionLog.from_trajectory(traj, env.eta_viewer, env.eta_provider)
    assert len(log) == 8
    text = interaction_log_to_csv(log)
    assert "q_1_1" in text.splitlines()[0]
    back = parse_interaction_csv(text, env.eta_viewer, env.eta_provider)
    for name in ("t", "lambda_viewer", "lambda_provider", "s", "e", "welfare"):
        np.testing.assert_array_equal(getattr(back.table, name), getattr(log.table, name))
    np.testing.assert_array_equal(back.q, log.q)
    assert back.q.shape == (8, env.K, env.L)
    assert not (back.q.flags.writeable or back.table.s.flags.writeable)
    assert fit_dynamics(back, env.B) == fit_dynamics(log, env.B)


def test_interaction_csv_without_rows_and_with_a_short_row():
    env = sat_env()
    traj = rollout(env, epsilon_greedy(env.B, 0.3), 3, START)
    text = interaction_log_to_csv(
        InteractionLog.from_trajectory(traj, env.eta_viewer, env.eta_provider))
    header, first = text.splitlines()[:2]
    assert len(parse_interaction_csv(header + "\n", env.eta_viewer, env.eta_provider)) == 0
    short = header + "\n" + first.rsplit(",", 1)[0] + "\n"
    with pytest.raises(ValueError):
        parse_interaction_csv(short, env.eta_viewer, env.eta_provider)


def test_log_rejects_time_gaps():
    env = sat_env()
    traj = rollout(env, epsilon_greedy(env.B, 0.3), 5, START)
    table = traj.table
    gapped = TrajectoryTable(**{f.name: getattr(table, f.name)[::2]
                                for f in dataclasses.fields(table)})
    q = np.array([st.payoffs.q for st in traj.steps])
    with pytest.raises(ValueError):
        InteractionLog(table=gapped, q=q[::2], eta_viewer=env.eta_viewer,
                       eta_provider=env.eta_provider)


def test_log_refuses_rates_that_are_not_one_per_group():
    env = EnvironmentSpec(K=1, L=1, B=[[1.0]], f=((linear_fn(0.1),),),
                          lambda_bar_viewer=(linear_fn(0.5, 1.0),),
                          lambda_bar_provider=(linear_fn(0.5, 1.0),),
                          eta_viewer=[0.5], eta_provider=[0.5])
    traj = rollout(env, [[1.0]], 4, PopulationState(t=0, viewer=[1.0], provider=[1.0]))
    for eta_viewer, eta_provider, field in (([0.5], [0.5, 0.2], "eta_provider"),
                                            ([], [], "eta_viewer"),
                                            ([[0.5]], [0.5], "eta_viewer")):
        with pytest.raises(ValueError, match=f"^{field} must have one rate per group"):
            InteractionLog.from_trajectory(traj, eta_viewer, eta_provider)


# --- full dynamics fitting ---


def test_fit_dynamics_recovers_noiseless_truth():
    env = sat_env()
    traj = rollout(env, epsilon_greedy(env.B, 0.5), 30, START)
    log = InteractionLog.from_trajectory(traj, env.eta_viewer, env.eta_provider)
    fitted = fit_dynamics(log, env.B)
    s_obs = log.table.s
    for k in range(env.K):
        grid = np.linspace(s_obs[:, k].min(), s_obs[:, k].max(), 50)
        truth = np.array([fn_eval(env.lambda_bar_viewer[k], v) for v in grid])
        got = fitted.lambda_bar_viewer_hat[k].predict(grid)
        assert np.max(np.abs(got - truth) / np.maximum(np.abs(truth), 1e-9)) <= 0.01


def test_fit_dynamics_serde_and_surrogate():
    env = sat_env()
    traj = rollout(env, epsilon_greedy(env.B, 0.5), 20, START)
    log = InteractionLog.from_trajectory(traj, env.eta_viewer, env.eta_provider)
    fitted = fit_dynamics(log, env.B)
    back = FittedDynamics.from_dict(fitted.to_dict())
    assert back == fitted
    surrogate = back.surrogate_env(env.B, env.eta_viewer, env.eta_provider)
    np.testing.assert_array_equal(surrogate.B, env.B)
    assert surrogate.K == env.K and surrogate.L == env.L
    blind = back.surrogate_env(None, env.eta_viewer, env.eta_provider)
    np.testing.assert_array_equal(blind.B, np.zeros((2, 2)))


def test_fit_dynamics_curves_equal_single_fits():
    env = sat_env(noise=NoiseSpec(relative_std=0.02))
    traj = rollout(env, epsilon_greedy(env.B, 0.5), 25, START, seed=4)
    log = InteractionLog.from_trajectory(traj, env.eta_viewer, env.eta_provider)
    fitted = fit_dynamics(log, env.B)
    lam_u = np.array([st.state.viewer for st in traj.steps])
    lam_c = np.array([st.state.provider for st in traj.steps])
    s = np.array([st.payoffs.s for st in traj.steps])
    e = np.array([st.payoffs.e for st in traj.steps])
    q = np.array([st.payoffs.q for st in traj.steps])
    for k in range(env.K):
        target = recover_reference(lam_u[:-1, k], lam_u[1:, k], float(env.eta_viewer[k]))
        assert fitted.lambda_bar_viewer_hat[k] == fit_saturating_exp(
            np.column_stack([s[:-1, k], target]))
    for l in range(env.L):
        target = recover_reference(lam_c[:-1, l], lam_c[1:, l], float(env.eta_provider[l]))
        assert fitted.lambda_bar_provider_hat[l] == fit_saturating_exp(
            np.column_stack([e[:-1, l], target]))
        for k in range(env.K):
            assert fitted.f_hat[k][l] == fit_saturating_exp(
                np.column_stack([lam_c[:, l], q[:, k, l] - env.B[k, l]]))


def test_fit_dynamics_needs_two_records():
    env = sat_env()
    traj = rollout(env, epsilon_greedy(env.B, 0.5), 1, START)
    log = InteractionLog.from_trajectory(traj, env.eta_viewer, env.eta_provider)
    with pytest.raises(InsufficientDataError):
        fit_dynamics(log, env.B)


# --- blackbox handle ---


def test_blackbox_observes_before_advancing():
    env = sat_env()
    box = SimulatorBlackbox(env, START, seed=0)
    pi = epsilon_greedy(env.B, 0.2)
    rec = box.step(pi)
    assert rec.state.t == 0
    np.testing.assert_array_equal(rec.state.viewer, START.viewer)
    assert box.state.t == 1
    rec2 = box.step(pi)
    assert rec2.state.t == 1
    box.reset()
    again = box.step(pi)
    np.testing.assert_array_equal(again.payoffs.s, rec.payoffs.s)


def test_blackbox_reset_reproduces_noisy_runs():
    env = sat_env(noise=None)
    noisy = EnvironmentSpec.from_dict({**env.to_dict(), "noise": {"relative_std": 0.05}})
    box = SimulatorBlackbox(noisy, START, seed=3)
    pi = epsilon_greedy(env.B, 0.2)
    first = [box.step(pi) for _ in range(5)]
    box.reset()
    second = [box.step(pi) for _ in range(5)]
    for a, b in zip(first, second):
        np.testing.assert_array_equal(a.state.viewer, b.state.viewer)
        np.testing.assert_array_equal(a.payoffs.q, b.payoffs.q)


def noisy_step_reference(env, state, pi, rng):
    """The next populations of a noisy step, from the public payoffs and
    fn_eval: the noiseless update times (1 + xi), K viewer draws and then L
    provider draws from `rng`, clipped at zero."""
    p = payoffs(env, state, pi)
    std = env.noise.relative_std
    return [np.maximum(((1.0 - eta) * pop + eta * np.array([fn_eval(f, x) for f, x in
                                                           zip(curves, served)]))
                       * (1.0 + rng.normal(0.0, std, len(pop))), 0.0)
            for eta, pop, curves, served in (
                (env.eta_viewer, state.viewer, env.lambda_bar_viewer, p.s),
                (env.eta_provider, state.provider, env.lambda_bar_provider, p.e))]


def test_noisy_blackbox_and_step_draw_viewer_then_provider_each_step():
    env = sat_env(noise=NoiseSpec(relative_std=0.05))
    box, rng = SimulatorBlackbox(env, START, seed=7), np.random.default_rng(7)
    state, pi = START, epsilon_greedy(env.B, 0.2)
    for i in range(12):
        deployed = pi if i % 2 else myopic_greedy(env, state)
        viewer, provider = noisy_step_reference(env, state, deployed, rng)
        assert box.step(deployed).state is state
        state = box.state
        assert_bitwise_equal(state.viewer, viewer)
        assert_bitwise_equal(state.provider, provider)
    # step() with one generator over the whole run
    state, ours, theirs = START, np.random.default_rng(3), np.random.default_rng(3)
    for _ in range(12):
        viewer, provider = noisy_step_reference(env, state, pi, theirs)
        state = step(env, state, pi, ours)
        assert_bitwise_equal(state.viewer, viewer)
        assert_bitwise_equal(state.provider, provider)


def test_blackbox_step_diverges_where_rollout_does():
    # welfare overflows at t=2 (viewer 1e200 times satisfaction 2e200) while
    # the payoffs themselves are still finite
    env = EnvironmentSpec(K=1, L=1, B=[[1.0]], f=((linear_fn(1.0),),),
                          lambda_bar_viewer=(linear_fn(1e100),),
                          lambda_bar_provider=(linear_fn(1e100),),
                          eta_viewer=[1.0], eta_provider=[1.0])
    init = PopulationState(t=0, viewer=[1.0], provider=[1.0])
    with pytest.raises(DivergenceError) as rolled:
        rollout(env, [[1.0]], 3, init)
    box = SimulatorBlackbox(env, init)
    box.step([[1.0]])
    box.step([[1.0]])
    with pytest.raises(DivergenceError) as stepped:
        box.step([[1.0]])
    assert stepped.value.last_state.t == rolled.value.last_state.t == 2
    assert box.state.t == 2


# --- explore-then-commit ---


def test_etc_config_validation():
    with pytest.raises(ValueError):
        ExploreCommitConfig(T_b=0, T=10, beta=0.2)
    with pytest.raises(ValueError):
        ExploreCommitConfig(T_b=10, T=10, beta=0.2)
    with pytest.raises(ValueError):
        ExploreCommitConfig(T_b=2, T=10, beta=1.5)
    with pytest.raises(ValueError):
        ExploreCommitConfig(T_b=2, T=10, beta=0.2, refit_every=0)


def test_etc_bookkeeping_and_burn_in_policy():
    env = sat_env()
    box = SimulatorBlackbox(env, START)
    cfg = ExploreCommitConfig(T_b=10, T=16, beta=0.3)
    traj, fitted = explore_then_commit(box, cfg,
                                       LookaheadConfig(iterations=20))
    assert len(traj) == 16
    explore = epsilon_greedy(env.B, 0.3)
    for rec in traj.steps[:10]:
        np.testing.assert_array_equal(rec.policy.rows, explore.rows)
    for rec in traj.steps:
        np.testing.assert_allclose(rec.policy.rows.sum(axis=1), 1.0, atol=1e-9)
    assert isinstance(fitted, FittedDynamics)


def test_etc_trajectory_columns_are_its_steps_stacked():
    env = EnvironmentSpec.from_dict({**sat_env().to_dict(), "noise": {"relative_std": 0.02}})
    traj, _ = explore_then_commit(SimulatorBlackbox(env, START, seed=4),
                                  ExploreCommitConfig(T_b=8, T=12, beta=0.3, refit_every=2),
                                  LookaheadConfig(iterations=10))
    assert_columns_stack_steps(traj, env)


def test_etc_beta_zero_commits_to_surrogate_greedy():
    env = sat_env()
    box = SimulatorBlackbox(env, START)
    cfg = ExploreCommitConfig(T_b=6, T=12, beta=0.0, refit_every=1)
    traj, fitted = explore_then_commit(box, cfg, LookaheadConfig(iterations=10))
    # the last refit happened at the last step, so the final deployed policy is
    # the surrogate-greedy policy of the returned fit at the recorded state
    surrogate = fitted.surrogate_env(env.B, env.eta_viewer, env.eta_provider)
    last = traj.steps[-1]
    np.testing.assert_array_equal(
        last.policy.rows, myopic_greedy(surrogate, last.state).rows)


def test_etc_is_deterministic():
    env = sat_env()
    cfg = ExploreCommitConfig(T_b=6, T=12, beta=0.4, refit_every=2)
    runs = []
    for _ in range(2):
        box = SimulatorBlackbox(env, START, seed=5)
        traj, _ = explore_then_commit(box, cfg, LookaheadConfig(iterations=15))
        runs.append(traj)
    for a, b in zip(runs[0].steps, runs[1].steps):
        np.testing.assert_array_equal(a.state.viewer, b.state.viewer)
        np.testing.assert_array_equal(a.policy.rows, b.policy.rows)
        assert a.welfare == b.welfare


def test_etc_accuracy_on_noiseless_run():
    env = sat_env()
    box = SimulatorBlackbox(env, START)
    cfg = ExploreCommitConfig(T_b=10, T=50, beta=0.2, refit_every=5)
    traj, fitted = explore_then_commit(box, cfg, LookaheadConfig(iterations=20))
    s_obs = np.array([rec.payoffs.s for rec in traj.steps])
    for k in range(env.K):
        grid = np.linspace(s_obs[:, k].min(), s_obs[:, k].max(), 50)
        truth = np.array([fn_eval(env.lambda_bar_viewer[k], v) for v in grid])
        got = fitted.lambda_bar_viewer_hat[k].predict(grid)
        assert np.max(np.abs(got - truth) / np.maximum(np.abs(truth), 1e-9)) <= 0.01


def test_etc_first_fit_failure_is_fatal():
    env = sat_env()
    box = SimulatorBlackbox(env, START)
    cfg = ExploreCommitConfig(T_b=1, T=4, beta=0.2)   # one record: nothing to invert
    with pytest.raises(EstimationError):
        explore_then_commit(box, cfg, LookaheadConfig(iterations=5))


def test_etc_refit_failure_falls_back_with_warning(monkeypatch):
    env = sat_env()
    real_fit = estimation_module.fit_dynamics
    calls = {"n": 0}

    def flaky_fit(log, B):
        calls["n"] += 1
        if calls["n"] >= 2:
            raise InsufficientDataError("synthetic refit failure")
        return real_fit(log, B)

    monkeypatch.setattr(estimation_module, "fit_dynamics", flaky_fit)
    box = SimulatorBlackbox(env, START)
    cfg = ExploreCommitConfig(T_b=6, T=10, beta=0.2, refit_every=1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        traj, fitted = explore_then_commit(box, cfg, LookaheadConfig(iterations=5))
    assert len(traj) == 10
    assert any(issubclass(w.category, EstimationWarning) for w in caught)
    assert calls["n"] > 2   # kept refitting (and failing) after the fallback
