import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twoside_sim import (EnvironmentSpec, LinearGameParams, OracleDomainError,
                         PopulationState, THREE_EQUILIBRIA_INITS,
                         counterexample_env, counterexample_welfare,
                         epsilon_greedy, epsilon_welfare_bounds,
                         find_fixed_point, game_utilities,
                         gradient_ascent_update, greedy_cluster_size,
                         linear_env, linear_fn, linear_ne, linear_welfare,
                         payoffs, step, three_equilibria_env, validate_policy,
                         welfare, welfare_from_ne)
from twoside_sim.oracles import greedy_cluster_size as _gcs  # same symbol, direct module path

from conftest import random_env, random_policy, random_state


def id_env(B, slopes_p=None):
    B = np.asarray(B, dtype=float)
    K, L = B.shape
    sp = slopes_p if slopes_p is not None else [1.0] * L
    return EnvironmentSpec(
        K=K, L=L, B=B,
        f=tuple(tuple(linear_fn(0.0) for _ in range(L)) for _ in range(K)),
        lambda_bar_viewer=tuple(linear_fn(1.0) for _ in range(K)),
        lambda_bar_provider=tuple(linear_fn(s) for s in sp),
        eta_viewer=[0.5] * K, eta_provider=[0.5] * L,
    )


# --- utilities ---


def test_utilities_hand_instance():
    env = id_env([[1.0]])
    state = PopulationState(t=0, viewer=[2.0], provider=[3.0])
    u, v = game_utilities(env, [[1.0]], state)
    assert u[0] == pytest.approx(0.0, abs=1e-15)    # 2*1 - 2
    assert v[0] == pytest.approx(1.5, abs=1e-15)    # 3*2 - 4.5


def test_utilities_trivial_cases():
    env = id_env([[1.0, 0.5]])
    state = PopulationState(t=0, viewer=[0.0], provider=[2.0, 3.0])
    u, _ = game_utilities(env, [[0.5, 0.5]], state)
    assert u[0] == 0.0

    flat = EnvironmentSpec(
        K=1, L=1, B=[[1.0]], f=((linear_fn(0.0),),),
        lambda_bar_viewer=(linear_fn(0.0),),      # reference identically zero
        lambda_bar_provider=(linear_fn(0.0),),
        eta_viewer=[0.5], eta_provider=[0.5])
    state = PopulationState(t=0, viewer=[3.0], provider=[2.0])
    u, v = game_utilities(flat, [[1.0]], state)
    assert u[0] == pytest.approx(-4.5)
    assert v[0] == pytest.approx(-2.0)


# --- the ascent identity ---


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_ascent_step_equals_dynamics_step(seed):
    env = random_env(seed, max_dim=4)
    state = random_state(seed, env)
    pi = random_policy(seed, env.K, env.L)
    via_ascent = gradient_ascent_update(env, pi, state)
    via_dynamics = step(env, state, pi)
    assert np.max(np.abs(via_ascent.viewer - via_dynamics.viewer)) <= 1e-12
    assert np.max(np.abs(via_ascent.provider - via_dynamics.provider)) <= 1e-12
    assert via_ascent.t == via_dynamics.t == state.t + 1


# --- linear closed forms ---


PINNED = LinearGameParams(a0=0.5, a1=0.5, a2=0.5, b2=1.0, B=[[1.0]])


def test_linear_ne_pinned_instance():
    ne = linear_ne(PINNED, [[1.0]])
    assert ne.viewer[0] == pytest.approx(6.0 / 7.0, abs=1e-12)      # ~0.857143
    assert ne.provider[0] == pytest.approx(10.0 / 7.0, abs=1e-12)   # ~1.428571
    assert linear_welfare(PINNED, [[1.0]]) == pytest.approx(72.0 / 49.0, abs=1e-12)
    assert welfare_from_ne(PINNED, ne) == pytest.approx(72.0 / 49.0, abs=1e-12)


def test_linear_ne_tiny_population_effect_limit():
    params = LinearGameParams(a0=1e-12, a1=0.5, a2=0.5, b2=0.0,
                              B=[[2.0, 1.0], [0.5, 3.0]])
    pi = np.array([[0.75, 0.25], [0.5, 0.5]])
    ne = linear_ne(params, pi)
    np.testing.assert_allclose(ne.viewer, 0.5 * (pi * params.B).sum(axis=1), atol=1e-9)


def params_strategy(seed):
    rng = np.random.default_rng(seed)
    K = int(rng.integers(1, 5))
    L = int(rng.integers(1, 5))
    return LinearGameParams(
        a0=float(rng.uniform(0.05, 0.4)),
        a1=float(rng.uniform(0.05, 0.4)),
        a2=float(rng.uniform(0.05, 0.4)),
        b2=float(rng.uniform(0.0, 2.0)),
        B=rng.uniform(0.0, 3.0, size=(K, L)),
    )


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_welfare_routes_agree(seed):
    params = params_strategy(seed)
    pi = random_policy(seed, params.K, params.L)
    direct = linear_welfare(params, pi)
    via_ne = welfare_from_ne(params, linear_ne(params, pi))
    assert direct == pytest.approx(via_ne, rel=1e-10, abs=1e-10)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_closed_form_matches_simulator(seed):
    params = params_strategy(seed)
    pi = random_policy(seed, params.K, params.L)
    ne = linear_ne(params, pi)
    env = linear_env(params)
    zeros = PopulationState(t=0, viewer=np.zeros(params.K), provider=np.zeros(params.L))
    fp = find_fixed_point(env, pi, zeros, tol=1e-12, max_iter=200000)
    assert np.max(np.abs(fp.viewer - ne.viewer)) <= 1e-8
    assert np.max(np.abs(fp.provider - ne.provider)) <= 1e-8
    p = payoffs(env, fp, validate_policy(pi))
    assert welfare(fp, p) == pytest.approx(linear_welfare(params, pi), abs=1e-8)


def test_non_positive_definite_system_is_rejected():
    params = LinearGameParams(a0=1.5, a1=1.5, a2=1.5, b2=0.0, B=[[1.0]])
    with pytest.raises(OracleDomainError):
        linear_ne(params, [[1.0]])
    with pytest.raises(OracleDomainError):
        linear_welfare(params, [[1.0]])


def test_negative_equilibrium_is_rejected():
    params = LinearGameParams(a0=0.1, a1=0.5, a2=0.5, b2=0.0, B=[[-10.0]])
    with pytest.raises(OracleDomainError):
        linear_ne(params, [[1.0]])


def test_params_validation():
    with pytest.raises(OracleDomainError):
        LinearGameParams(a0=0.0, a1=0.5, a2=0.5, b2=0.0, B=[[1.0]])
    with pytest.raises(OracleDomainError):
        LinearGameParams(a0=0.5, a1=0.5, a2=0.5, b2=np.nan, B=[[1.0]])
    with pytest.raises(OracleDomainError):
        LinearGameParams(a0=0.5, a1=0.5, a2=0.5, b2=0.0, B=[1.0])


# --- equilibria maximize own-coordinate utility ---


def deviation_gaps(env, pi, at):
    """Best unilateral utility improvement found by sampled own-population deviations."""
    best = -np.inf
    u0, v0 = game_utilities(env, pi, at)
    for delta in (1e-3, 1e-2, 1e-1):
        for sign in (+1.0, -1.0):
            for k in range(env.K):
                viewer = at.viewer.copy()
                viewer[k] = max(viewer[k] + sign * delta, 0.0)
                trial = PopulationState(t=0, viewer=viewer, provider=at.provider)
                u, _ = game_utilities(env, pi, trial)
                best = max(best, u[k] - u0[k])
            for l in range(env.L):
                provider = at.provider.copy()
                provider[l] = max(provider[l] + sign * delta, 0.0)
                trial = PopulationState(t=0, viewer=at.viewer, provider=provider)
                _, v = game_utilities(env, pi, trial)
                best = max(best, v[l] - v0[l])
    return best


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_linear_equilibria_resist_unilateral_deviations(seed):
    params = params_strategy(seed)
    pi = random_policy(seed, params.K, params.L)
    ne = linear_ne(params, pi)
    assert deviation_gaps(linear_env(params), pi, ne) <= 1e-9


def test_sigmoid_equilibria_resist_unilateral_deviations():
    env = three_equilibria_env()
    for init in THREE_EQUILIBRIA_INITS.values():
        fp = find_fixed_point(env, [[1.0]], init, 1e-12, 100000)
        assert deviation_gaps(env, [[1.0]], fp) <= 1e-9


# --- exploration welfare bracket ---


def test_greedy_cluster_size():
    assert greedy_cluster_size(np.array([[1.0, 0.0], [2.0, 0.5], [0.0, 1.0]])) == 2
    assert greedy_cluster_size(np.array([[1.0, 2.0]])) == 1
    assert _gcs is greedy_cluster_size


def test_bounds_at_zero_match_formulas():
    params = LinearGameParams(a0=0.2, a1=0.3, a2=0.25, b2=1.0,
                              B=np.array([[2.0, 1.0], [1.5, 0.5], [0.2, 1.8]]))
    g, h = epsilon_welfare_bounds(params, params.B, 0.0)
    b0 = params.B.max(axis=1)
    vec = b0 + params.a0 * params.b2
    prod = params.a0 * params.a1 * params.a2
    assert g == pytest.approx(params.a1 * vec @ vec, rel=1e-12)
    assert h == pytest.approx((1 - prod * greedy_cluster_size(params.B)) ** -2, rel=1e-12)


def test_single_viewer_bracket_is_tight_and_decreasing():
    params = LinearGameParams(a0=0.3, a1=0.4, a2=0.35, b2=0.5,
                              B=np.array([[3.0, 1.0, 0.5]]))
    eps_grid = np.linspace(0.0, 1.0, 21)
    values = []
    for eps in eps_grid:
        g, h = epsilon_welfare_bounds(params, params.B, float(eps))
        R = linear_welfare(params, epsilon_greedy(params.B, float(eps)))
        assert R == pytest.approx(g * h, rel=1e-10)   # one viewer row: the bracket closes
        values.append(R)
    assert all(a > b for a, b in zip(values, values[1:]))


def test_bracket_holds_on_grid():
    rng = np.random.default_rng(7)
    params = LinearGameParams(a0=0.2, a1=0.3, a2=0.3, b2=0.8,
                              B=rng.uniform(0.0, 3.0, size=(4, 2)))
    for eps in np.linspace(0.0, 1.0, 21):
        g, h = epsilon_welfare_bounds(params, params.B, float(eps))  # asserts internally
        R = linear_welfare(params, epsilon_greedy(params.B, float(eps)))
        assert g <= R * (1 + 1e-9) + 1e-9
        assert R <= g * h * (1 + 1e-9) + 1e-9


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_bounds_are_nonincreasing_in_epsilon(seed):
    params = params_strategy(seed)
    assume(params.a0 * params.a1 * params.a2 * greedy_cluster_size(params.B) < 1.0)
    grid = np.linspace(0.0, 1.0, 21)
    gs, hs = zip(*(epsilon_welfare_bounds(params, params.B, float(e)) for e in grid))
    assert all(a >= b - 1e-12 for a, b in zip(gs, gs[1:]))
    assert all(a >= b - 1e-12 for a, b in zip(hs, hs[1:]))


def test_bounds_precondition_and_range_errors():
    params = LinearGameParams(a0=0.9, a1=0.9, a2=0.9, b2=0.0,
                              B=np.array([[1.0, 0.0], [1.5, 0.2]]))  # cluster size 2
    with pytest.raises(OracleDomainError):
        epsilon_welfare_bounds(params, params.B, 0.5)   # 0.729*2 >= 1
    ok = LinearGameParams(a0=0.2, a1=0.2, a2=0.2, b2=0.0, B=[[1.0, 0.0]])
    with pytest.raises(OracleDomainError):
        epsilon_welfare_bounds(ok, ok.B, 1.5)


# --- the two-provider counterexample ---


def test_counterexample_curve_values():
    assert counterexample_welfare(1.0) == 1.0
    assert counterexample_welfare(0.5) == pytest.approx(0.95 / 0.9, rel=1e-12)
    with pytest.raises(OracleDomainError):
        counterexample_welfare(1.5)


def test_all_mass_on_best_base_utility_is_beaten_below_070():
    grid = np.arange(0.0, 0.70, 0.01)
    assert all(counterexample_welfare(float(p)) > 1.0 for p in grid)


def test_simulator_reproduces_counterexample_curve():
    env = counterexample_env()
    for pi11 in (0.0, 0.3, 0.7, 1.0):
        pi = [[pi11, 1.0 - pi11]]
        zeros = PopulationState(t=0, viewer=[0.0], provider=[0.0, 0.0])
        fp = find_fixed_point(env, pi, zeros, tol=1e-12, max_iter=200000)
        r_tilde = counterexample_welfare(pi11)
        assert fp.viewer[0] == pytest.approx(r_tilde, abs=1e-9)
        p = payoffs(env, fp, validate_policy(pi))
        assert welfare(fp, p) == pytest.approx(r_tilde ** 2, abs=1e-8)


@pytest.mark.xfail(strict=True, reason=(
    "false for every single-viewer instance: with non-decreasing curves a mixed "
    "policy's equilibrium satisfaction never exceeds the best pure policy's, and "
    "equilibrium welfare is non-decreasing in it, so the maximum sits at an "
    "endpoint (here pi11 = 0, value 1.5); see the README's release-gate section"))
def test_counterexample_argmax_is_interior():
    grid = np.arange(0.0, 1.0 + 1e-12, 0.001)
    values = [counterexample_welfare(float(p)) for p in grid]
    best = grid[int(np.argmax(values))]
    assert max(values) > counterexample_welfare(1.0)
    assert 0.0 < best < 0.7
