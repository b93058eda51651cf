import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twoside_sim import (EnvironmentSpec, GradientCheckError, LookaheadConfig,
                         OptimizationError, PolicyValidationError,
                         PopulationState, SyntheticScenarioConfig,
                         check_gradient, counterexample_env, find_fixed_point,
                         finite_difference_gradient, fn_eval, gen_synthetic,
                         interpolate, linear_fn, lookahead_gradient,
                         lookahead_objective, myopic_greedy, optimize_lookahead,
                         sample_initial_state, softmax_myopic, table_fn,
                         uniform_policy, validate_policy)
from twoside_sim.policies import row_softmax

from conftest import random_env, random_policy, random_state


def flat_env(B, eta=0.5):
    B = np.asarray(B, dtype=float)
    K, L = B.shape
    return EnvironmentSpec(
        K=K, L=L, B=B,
        f=tuple(tuple(linear_fn(0.0) for _ in range(L)) for _ in range(K)),
        lambda_bar_viewer=tuple(linear_fn(0.5) for _ in range(K)),
        lambda_bar_provider=tuple(linear_fn(0.5) for _ in range(L)),
        eta_viewer=[eta] * K, eta_provider=[eta] * L,
    )


# --- policy constructors ---


def test_uniform_policy():
    pi = uniform_policy(2, 4)
    np.testing.assert_array_equal(pi.rows, np.full((2, 4), 0.25))
    with pytest.raises(ValueError):
        uniform_policy(0, 3)


def test_myopic_greedy_reacts_to_population_effects():
    env = EnvironmentSpec(
        K=1, L=2, B=[[1.0, 0.9]],
        f=((linear_fn(0.0), linear_fn(0.5)),),
        lambda_bar_viewer=(linear_fn(0.5),),
        lambda_bar_provider=(linear_fn(0.5), linear_fn(0.5)),
        eta_viewer=[0.5], eta_provider=[0.5, 0.5],
    )
    low = PopulationState(t=0, viewer=[1.0], provider=[1.0, 0.1])
    high = PopulationState(t=0, viewer=[1.0], provider=[1.0, 1.0])
    np.testing.assert_array_equal(myopic_greedy(env, low).rows, [[1.0, 0.0]])
    # the second column's utility 0.9 + 0.5 overtakes the first's 1.0
    np.testing.assert_array_equal(myopic_greedy(env, high).rows, [[0.0, 1.0]])


def test_row_softmax_shift_invariance_and_rows():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(3, 5)) * 10
    base = row_softmax(logits)
    shifted = row_softmax(logits + rng.normal(size=(3, 1)) * 50)
    np.testing.assert_allclose(base, shifted, atol=1e-14)
    np.testing.assert_allclose(base.sum(axis=1), np.ones(3), atol=1e-14)
    extreme = row_softmax(np.array([[1e4, 0.0]]))
    assert np.all(np.isfinite(extreme))


def test_softmax_myopic_sharpens_to_greedy():
    env = flat_env([[1.0, 0.5], [0.2, 0.9]])
    e_ref = np.array([1.0, 1.0])
    sharp = softmax_myopic(env, e_ref, 1e4)
    np.testing.assert_allclose(sharp.rows, [[1.0, 0.0], [0.0, 1.0]], atol=1e-3)
    mild = softmax_myopic(env, e_ref, 1e-6)
    np.testing.assert_allclose(mild.rows, np.full((2, 2), 0.5), atol=1e-5)
    with pytest.raises(ValueError):
        softmax_myopic(env, np.array([1.0]), 1.0)
    with pytest.raises(ValueError):
        softmax_myopic(env, e_ref, 0.0)


def test_interpolate_endpoints_are_bitwise_exact():
    a = random_policy(1, 3, 4)
    b = random_policy(2, 3, 4)
    np.testing.assert_array_equal(interpolate(a, b, 1.0).rows, a)
    np.testing.assert_array_equal(interpolate(a, b, 0.0).rows, b)
    mid = interpolate(a, b, 0.3)
    np.testing.assert_array_equal(mid.rows, 0.3 * a + 0.7 * b)
    with pytest.raises(PolicyValidationError):
        interpolate(a, b, 1.2)
    with pytest.raises(PolicyValidationError):
        interpolate(a, random_policy(2, 2, 4), 0.5)


# --- objective ---


def independent_objective(env, state, rows, gamma):
    # deliberately scalar-looped reimplementation of the anticipated-welfare score
    K, L = env.K, env.L
    q = np.array([[env.B[k, l] + fn_eval(env.f[k][l], state.provider[l])
                   for l in range(L)] for k in range(K)])
    s = np.array([sum(rows[k, l] * q[k, l] for l in range(L)) for k in range(K)])
    e = np.array([sum(rows[k, l] * state.viewer[k] for k in range(K)) for l in range(L)])
    lam = np.array([fn_eval(env.lambda_bar_viewer[k], s[k]) for k in range(K)])
    ref = np.array([fn_eval(env.lambda_bar_provider[l], e[l]) for l in range(L)])
    w = np.array([[env.B[k, l] + fn_eval(env.f[k][l], ref[l]) for l in range(L)]
                  for k in range(K)])
    total = 0.0
    for k in range(K):
        z = np.exp(gamma * w[k] - max(gamma * w[k]))
        soft = z / z.sum()
        total += lam[k] * float(soft @ w[k])
    return total


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), gamma=st.floats(0.1, 5.0))
def test_objective_matches_independent_recomputation(seed, gamma):
    env = random_env(seed, max_dim=4)
    state = random_state(seed, env)
    rows = random_policy(seed, env.K, env.L)
    got = lookahead_objective(env, state, rows, gamma)
    want = independent_objective(env, state, rows, gamma)
    assert got == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_objective_rejects_wrong_shape():
    env = flat_env([[1.0, 0.5]])
    state = PopulationState(t=0, viewer=[1.0], provider=[1.0, 1.0])
    with pytest.raises(ValueError):
        lookahead_objective(env, state, np.ones((2, 2)) / 2, 1.0)


# --- gradient ---


def richardson_gap(env, state, rows, gamma, h=1e-3):
    """Worst gap between the analytic gradient and the Richardson extrapolation
    (4*D(h/2) - D(h))/3 of central differences, by check_gradient's rule:
    entries where both magnitudes are below 1e-8 must agree to 1e-8 absolutely,
    the rest are compared relative to the larger magnitude.

    The extrapolation cancels the h^2 truncation term, so the step can be large
    enough that round-off in an objective of order 1e3 stays far below 1e-4 of
    a gradient entry of order 1e-4."""
    coarse = finite_difference_gradient(env, state, rows, gamma, h)
    fine = finite_difference_gradient(env, state, rows, gamma, h / 2)
    fd = (4.0 * fine - coarse) / 3.0
    analytic = lookahead_gradient(env, state, rows, gamma)
    diff = np.abs(analytic - fd)
    scale = np.maximum(np.abs(analytic), np.abs(fd))
    tiny = scale < 1e-8
    rel = np.where(tiny, np.where(diff > 1e-8, np.inf, 0.0),
                   diff / np.maximum(scale, 1e-300))
    return float(np.max(rel))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), gamma=st.floats(0.1, 4.0))
@example(seed=100, gamma=2.0)   # an entry of 9.3e-5 beside an objective of 938
def test_analytic_gradient_agrees_with_finite_differences(seed, gamma):
    env = random_env(seed, max_dim=4)
    state = random_state(seed, env, scale=5)
    rows = random_policy(seed, env.K, env.L)
    assert richardson_gap(env, state, rows, gamma) <= 1e-4


def test_gradient_is_tight_on_smooth_instances():
    env = counterexample_env()
    state = PopulationState(t=0, viewer=[0.8], provider=[0.4, 0.7])
    rows = np.array([[0.6, 0.4]])
    worst = check_gradient(env, state, rows, 1.0, h=1e-6, tol=1e-6)
    assert worst <= 1e-6


def test_gradient_checker_detects_discrepancies():
    env = counterexample_env()
    state = PopulationState(t=0, viewer=[0.8], provider=[0.4, 0.7])
    rows = np.array([[0.6, 0.4]])
    with pytest.raises(GradientCheckError):
        # an absurd step makes the probe itself wrong, which must be reported
        check_gradient(env, state, rows, 1.0, h=0.5, tol=1e-10)


def test_table_environments_fall_back_to_finite_differences():
    fn = table_fn([(0.0, 0.0), (1.0, 1.0), (3.0, 1.4)])
    env = EnvironmentSpec(
        K=1, L=2, B=[[0.5, 0.2]],
        f=((fn, linear_fn(0.3)),),
        lambda_bar_viewer=(linear_fn(0.5),),
        lambda_bar_provider=(linear_fn(0.4), linear_fn(0.4)),
        eta_viewer=[0.5], eta_provider=[0.5, 0.5],
    )
    state = PopulationState(t=0, viewer=[1.0], provider=[0.5, 0.5])
    rows = np.array([[0.5, 0.5]])
    got = lookahead_gradient(env, state, rows, 1.0)
    np.testing.assert_array_equal(got, finite_difference_gradient(env, state, rows, 1.0))


# --- optimizer ---


def test_optimizer_returns_valid_policy_and_beats_its_start():
    env = counterexample_env()
    fp = find_fixed_point(env, [[1.0, 0.0]],
                          PopulationState(t=0, viewer=[1.0], provider=[1.0, 1.0]),
                          1e-12, 100000)
    cfg = LookaheadConfig(iterations=300, learning_rate=0.2)
    pi = optimize_lookahead(env, fp, cfg)
    assert pi.rows.shape == (1, 2)
    init = 0.9 * myopic_greedy(env, fp).rows + 0.1 * uniform_policy(1, 2).rows
    j_init = lookahead_objective(env, fp, init, cfg.gamma)
    j_opt = lookahead_objective(env, fp, pi, cfg.gamma)
    assert j_opt > j_init  # ascent must actually move on this instance


def test_optimizer_is_deterministic():
    env = counterexample_env()
    state = PopulationState(t=0, viewer=[0.9], provider=[0.5, 0.6])
    cfg = LookaheadConfig(iterations=50)
    a = optimize_lookahead(env, state, cfg)
    b = optimize_lookahead(env, state, cfg)
    np.testing.assert_array_equal(a.rows, b.rows)


def test_optimizer_grad_check_hook_runs():
    env = counterexample_env()
    state = PopulationState(t=0, viewer=[0.9], provider=[0.5, 0.6])
    cfg = LookaheadConfig(iterations=5, grad_check={"h": 1e-6, "tol": 1e-4})
    optimize_lookahead(env, state, cfg)  # must not raise


def ascent_through_public_functions(env, state, cfg):
    """optimize_lookahead's ascent, rebuilt from lookahead_objective and
    lookahead_gradient."""
    pi = 0.9 * myopic_greedy(env, state).rows + 0.1 * uniform_policy(env.K, env.L).rows
    theta = np.log(pi)
    best, best_obj = None, -np.inf
    for it in range(cfg.iterations + 1):
        pi = row_softmax(theta)
        obj = lookahead_objective(env, state, pi, cfg.gamma)
        if obj > best_obj:
            best, best_obj = pi, obj
        if it == cfg.iterations:
            break
        grad = lookahead_gradient(env, state, pi, cfg.gamma)
        grad_theta = pi * (grad - (pi * grad).sum(axis=1, keepdims=True))
        theta = theta + cfg.learning_rate * grad_theta
    return best


def synthetic_instance():
    scen = SyntheticScenarioConfig(K=3, L=4, d=5, seed=1)
    return gen_synthetic(scen), sample_initial_state(scen)


def random_instance():
    env = random_env(7)
    return env, random_state(7, env)


def table_instance():
    env = EnvironmentSpec(
        K=1, L=2, B=[[0.5, 0.2]],
        f=((table_fn([(0.0, 0.0), (1.0, 1.0), (3.0, 1.4)]), linear_fn(0.3)),),
        lambda_bar_viewer=(linear_fn(0.5),),
        lambda_bar_provider=(linear_fn(0.4), linear_fn(0.4)),
        eta_viewer=[0.5], eta_provider=[0.5, 0.5],
    )
    return env, PopulationState(t=0, viewer=[1.0], provider=[0.5, 0.5])


@pytest.mark.parametrize("instance", [synthetic_instance, random_instance, table_instance])
def test_optimizer_equals_ascent_through_public_functions(instance):
    env, state = instance()
    cfg = LookaheadConfig(iterations=40, learning_rate=0.1)
    got = optimize_lookahead(env, state, cfg).rows
    assert np.array_equal(got, ascent_through_public_functions(env, state, cfg))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_optimizer_reports_overflow_with_iteration():
    env = EnvironmentSpec(
        K=1, L=1, B=[[1e200]],
        f=((linear_fn(0.0),),),
        lambda_bar_viewer=(linear_fn(1e200),),
        lambda_bar_provider=(linear_fn(0.5),),
        eta_viewer=[0.5], eta_provider=[0.5],
    )
    state = PopulationState(t=0, viewer=[1.0], provider=[1.0])
    with pytest.raises(OptimizationError) as exc:
        optimize_lookahead(env, state, LookaheadConfig(iterations=3))
    assert exc.value.iteration == 0


def test_config_validation():
    with pytest.raises(ValueError):
        LookaheadConfig(iterations=0)
    with pytest.raises(ValueError):
        LookaheadConfig(gamma=0.0)
    with pytest.raises(ValueError):
        LookaheadConfig(parameterization="projected")
    with pytest.raises(ValueError):
        LookaheadConfig(grad_check={"h": 1e-6})
    LookaheadConfig(grad_check={"h": 1e-6, "tol": 1e-4})
