import dataclasses

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

import twoside_sim.dynamics as dynamics
from twoside_sim import (ConvergenceError, DivergenceError, EnvironmentSpec,
                         FixedPointPreconditionError, FunctionDomainError, LinearGameParams,
                         NoiseSpec, PolicyValidationError, PopulationState, SimulatorBlackbox,
                         SpecValidationError, SyntheticScenarioConfig, assemble_jacobian,
                         enumerate_fixed_points, epsilon_greedy,
                         find_fixed_point, fixed_point_residual, fn_deriv,
                         fn_eval, game_utilities, gen_synthetic, gradient_ascent_update,
                         interpolate, jacobian_eigenvalues, linear_fn, linear_ne,
                         lookahead_gradient, lookahead_objective,
                         linear_welfare, lockstep_rollouts, myopic_greedy,
                         parse_interaction_csv, parse_trajectory_csv, payoffs, rollout,
                         saturating_exp, scaled_logistic, step, table_fn,
                         three_equilibria_env,
                         THREE_EQUILIBRIA_INITS, trajectory_header,
                         trajectory_to_csv, validate_policy, welfare)

from conftest import (assert_bitwise_equal, assert_columns_stack_steps, mixed_env,
                      one_viewer_equilibria, random_env, random_policy, random_state,
                      reference_contracts, reference_linearization, reference_lookahead,
                      reference_step_cells)


def linear_env(K, L, slopes_v, slopes_p, f_slopes, B, eta_v, eta_p,
               intercepts_v=None, intercepts_p=None):
    iv = intercepts_v if intercepts_v is not None else [0.0] * K
    ip = intercepts_p if intercepts_p is not None else [0.0] * L
    return EnvironmentSpec(
        K=K, L=L, B=B,
        f=tuple(tuple(linear_fn(f_slopes[k][l]) for l in range(L)) for k in range(K)),
        lambda_bar_viewer=tuple(linear_fn(slopes_v[k], iv[k]) for k in range(K)),
        lambda_bar_provider=tuple(linear_fn(slopes_p[l], ip[l]) for l in range(L)),
        eta_viewer=eta_v, eta_provider=eta_p,
    )


# --- payoffs and welfare ---


def test_payoffs_hand_instance():
    env = linear_env(2, 2, [1, 1], [1, 1], [[0.5, 0.0], [0.0, 0.25]],
                     B=[[1.0, 2.0], [3.0, 4.0]], eta_v=[0.5, 0.5], eta_p=[0.5, 0.5])
    state = PopulationState(t=0, viewer=[2.0, 3.0], provider=[4.0, 8.0])
    pi = validate_policy([[0.25, 0.75], [0.5, 0.5]])
    p = payoffs(env, state, pi)
    # q = B + f(provider): [[1+2, 2+0], [3+0, 4+2]]
    np.testing.assert_allclose(p.q, [[3.0, 2.0], [3.0, 6.0]])
    np.testing.assert_allclose(p.s, [0.25 * 3 + 0.75 * 2, 0.5 * 3 + 0.5 * 6])
    np.testing.assert_allclose(p.e, [0.25 * 2 + 0.5 * 3, 0.75 * 2 + 0.5 * 3])
    assert welfare(state, p) == pytest.approx(2.0 * 2.25 + 3.0 * 4.5)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_welfare_nonnegative_for_nonnegative_instances(seed):
    env = random_env(seed)
    state = random_state(seed, env)
    pi = random_policy(seed, env.K, env.L)
    p = payoffs(env, state, pi)
    assert welfare(state, p) >= 0.0


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_exposure_conserves_viewer_mass(seed):
    env = random_env(seed)
    state = random_state(seed, env)
    pi = random_policy(seed, env.K, env.L)
    p = payoffs(env, state, pi)
    assert p.e.sum() == pytest.approx(state.viewer.sum(), rel=1e-12)


# --- single step ---


def test_step_matches_update_formula():
    env = linear_env(1, 1, [0.5], [0.5], [[0.2]], B=[[1.0]], eta_v=[0.3], eta_p=[0.7])
    state = PopulationState(t=4, viewer=[2.0], provider=[3.0])
    pi = validate_policy([[1.0]])
    nxt = step(env, state, pi)
    s = 1.0 + 0.2 * 3.0
    e = 2.0
    assert nxt.t == 5
    assert nxt.viewer[0] == pytest.approx(0.7 * 2.0 + 0.3 * 0.5 * s, abs=1e-15)
    assert nxt.provider[0] == pytest.approx(0.3 * 3.0 + 0.7 * 0.5 * e, abs=1e-15)


def test_step_with_zero_rate_is_identity():
    env = linear_env(2, 2, [1, 1], [1, 1], [[0, 0], [0, 0]],
                     B=[[1, 0], [0, 1]], eta_v=[0, 0], eta_p=[0, 0])
    state = PopulationState(t=0, viewer=[5.0, 6.0], provider=[7.0, 8.0])
    nxt = step(env, state, validate_policy([[0.5, 0.5], [0.5, 0.5]]))
    np.testing.assert_array_equal(nxt.viewer, state.viewer)
    np.testing.assert_array_equal(nxt.provider, state.provider)


def test_step_clips_at_zero():
    # strongly negative reference pulls the population below zero before the clip
    env = linear_env(1, 1, [1.0], [1.0], [[0.0]], B=[[0.0]],
                     eta_v=[1.0], eta_p=[1.0], intercepts_v=[-5.0], intercepts_p=[-5.0])
    state = PopulationState(t=0, viewer=[1.0], provider=[1.0])
    nxt = step(env, state, validate_policy([[1.0]]))
    assert nxt.viewer[0] == 0.0
    assert nxt.provider[0] == 0.0


def test_step_noise_draw_order_and_reproducibility():
    base = linear_env(2, 1, [0.5, 0.5], [0.5], [[0.1], [0.1]],
                      B=[[1.0], [1.0]], eta_v=[0.5, 0.5], eta_p=[0.5])
    noisy = EnvironmentSpec.from_dict({**base.to_dict(), "noise": {"relative_std": 0.05}})
    state = PopulationState(t=0, viewer=[2.0, 3.0], provider=[4.0])
    pi = validate_policy([[1.0], [1.0]])
    clean = step(base, state, pi)
    got = step(noisy, state, pi, rng=np.random.default_rng(12))
    ref = np.random.default_rng(12)
    xi_v = ref.normal(0.0, 0.05, 2)   # viewer draws first
    xi_p = ref.normal(0.0, 0.05, 1)
    np.testing.assert_allclose(got.viewer, np.maximum(clean.viewer * (1 + xi_v), 0.0))
    np.testing.assert_allclose(got.provider, np.maximum(clean.provider * (1 + xi_p), 0.0))
    again = step(noisy, state, pi, rng=np.random.default_rng(12))
    np.testing.assert_array_equal(got.viewer, again.viewer)


def test_step_noise_without_rng_is_an_error():
    base = linear_env(1, 1, [0.5], [0.5], [[0.0]], B=[[1.0]], eta_v=[0.5], eta_p=[0.5])
    noisy = EnvironmentSpec.from_dict({**base.to_dict(), "noise": {"relative_std": 0.01}})
    state = PopulationState(t=0, viewer=[1.0], provider=[1.0])
    with pytest.raises(ValueError):
        step(noisy, state, validate_policy([[1.0]]))


# --- rollout ---


def test_rollout_zero_rate_keeps_init():
    env = linear_env(2, 2, [1, 1], [1, 1], [[0, 0], [0, 0]],
                     B=[[1, 0], [0, 1]], eta_v=[0, 0], eta_p=[0, 0])
    init = PopulationState(t=0, viewer=[3.0, 4.0], provider=[5.0, 6.0])
    uniform = [[0.5, 0.5], [0.5, 0.5]]
    traj = rollout(env, uniform, 5, init)
    assert len(traj) == 5
    for s in traj.steps:
        np.testing.assert_array_equal(s.state.viewer, init.viewer)
        np.testing.assert_array_equal(s.state.provider, init.provider)


def test_rollout_single_step_and_bad_horizon():
    env = linear_env(1, 1, [0.5], [0.5], [[0.1]], B=[[1.0]], eta_v=[0.5], eta_p=[0.5])
    init = PopulationState(t=0, viewer=[1.0], provider=[1.0])
    traj = rollout(env, [[1.0]], 1, init)
    assert len(traj) == 1
    assert traj.steps[0].state is init
    with pytest.raises(ValueError):
        rollout(env, [[1.0]], 0, init)


def test_rollout_matches_affine_recursion_when_fully_reactive():
    # with full reactiveness and linear curves the trajectory obeys a closed-form
    # affine recursion, recomputed here through an independent matrix route
    rng = np.random.default_rng(5)
    K, L = 3, 2
    cv, dv = rng.uniform(0.1, 0.5, K), rng.uniform(0, 2, K)
    cp, dp = rng.uniform(0.1, 0.5, L), rng.uniform(0, 2, L)
    alpha = rng.uniform(0, 0.3, (K, L))
    B = rng.uniform(0, 3, (K, L))
    env = linear_env(K, L, cv, cp, alpha, B, [1.0] * K, [1.0] * L,
                     intercepts_v=dv, intercepts_p=dp)
    pi = random_policy(9, K, L)
    init = PopulationState(t=0, viewer=rng.uniform(0, 5, K), provider=rng.uniform(0, 5, L))
    traj = rollout(env, pi, 6, init)

    u0 = (pi * B).sum(axis=1)
    M = pi * alpha
    v, p = init.viewer.copy(), init.provider.copy()
    for i, rec in enumerate(traj.steps):
        np.testing.assert_allclose(rec.state.viewer, v, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(rec.state.provider, p, rtol=1e-12, atol=1e-12)
        v, p = (np.maximum(cv * (u0 + M @ p) + dv, 0.0),
                np.maximum(cp * (pi.T @ v) + dp, 0.0))


def test_rollout_records_welfare_before_update():
    env = linear_env(1, 1, [0.5], [0.5], [[0.3]], B=[[1.0]], eta_v=[0.6], eta_p=[0.6])
    init = PopulationState(t=0, viewer=[2.0], provider=[1.0])
    traj = rollout(env, [[1.0]], 4, init)
    for rec in traj.steps:
        p = payoffs(env, rec.state, rec.policy)
        assert rec.welfare == welfare(rec.state, p)
    np.testing.assert_allclose(traj.table.welfare,
                               [rec.welfare for rec in traj.steps])
    assert traj.cumulative_welfare() == pytest.approx(traj.table.welfare.sum())


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_rollout_is_bit_deterministic(seed):
    env = random_env(seed, noise_std=0.02)
    init = random_state(seed, env)
    pi = random_policy(seed, env.K, env.L)
    a = rollout(env, pi, 7, init, seed=seed)
    b = rollout(env, pi, 7, init, seed=seed)
    for ra, rb in zip(a.steps, b.steps):
        np.testing.assert_array_equal(ra.state.viewer, rb.state.viewer)
        np.testing.assert_array_equal(ra.state.provider, rb.state.provider)
        assert ra.welfare == rb.welfare
    assert a.env_digest == b.env_digest == env.digest()


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6), T=st.integers(1, 12))
def test_trajectory_columns_are_its_steps_stacked(seed, T):
    env = random_env(seed, noise_std=0.05)
    traj = rollout(env, random_policy(seed, env.K, env.L), T, random_state(seed, env))
    assert_columns_stack_steps(traj, env)


def test_rollout_propagates_policy_rule_errors():
    env = linear_env(1, 1, [0.5], [0.5], [[0.0]], B=[[1.0]], eta_v=[0.5], eta_p=[0.5])
    init = PopulationState(t=0, viewer=[1.0], provider=[1.0])

    def bad_rule(env, state):
        return np.array([[0.4, 0.4]])  # wrong shape and wrong row sum

    with pytest.raises(PolicyValidationError):
        rollout(env, bad_rule, 3, init)


@pytest.mark.parametrize("bad", [2.5, True, "3", -1])
@pytest.mark.parametrize("noise_std", [0.0, 0.05])
def test_runs_refuse_a_horizon_or_seed_that_is_not_a_non_negative_integer(bad, noise_std):
    env = random_env(4, max_dim=2, noise_std=noise_std)
    init = random_state(4, env)
    asked = []

    def rule(e, s):     # records every step taken
        asked.append(s.t)
        return np.full((e.K, e.L), 1.0 / e.L)

    for call, field in ((lambda: rollout(env, rule, bad, init), "horizon T"),
                        (lambda: rollout(env, rule, 3, init, seed=bad), "seed"),
                        (lambda: lockstep_rollouts(env, [rule], 3, init, [0, bad]), "seed"),
                        (lambda: SimulatorBlackbox(env, init, seed=bad), "seed")):
        with pytest.raises(SpecValidationError, match=f"^{field} must be .*integer"):
            call()
    with pytest.raises(SpecValidationError, match="seeds must be non-empty"):
        lockstep_rollouts(env, [rule], 3, init, [])
    with pytest.raises(SpecValidationError, match="policies must be non-empty"):
        lockstep_rollouts(env, [], 3, init, [0])
    assert asked == []


# --- the policy check: every call that takes a policy ---

CHECK_ENV = linear_env(2, 1, [0.5, 0.5], [0.5], [[0.1], [0.1]], B=[[1.0], [0.5]],
                       eta_v=[0.5, 0.5], eta_p=[0.5])       # one rate per side: a closed form
CHECK_AT = PopulationState(t=0, viewer=[1.0, 1.0], provider=[1.0])
CHECK_PARAMS = LinearGameParams(a0=0.1, a1=0.5, a2=0.5, b2=0.0, B=[[1.0], [0.5]])
CHECK_POLICY = [[1.0], [1.0]]


def at_fixed_point(call):
    """call(env, pi, fp) at CHECK_POLICY's fixed point from CHECK_AT."""
    return lambda pi: call(CHECK_ENV, pi, find_fixed_point(CHECK_ENV, CHECK_POLICY, CHECK_AT))


POLICY_CALLS = {
    "payoffs": lambda pi: payoffs(CHECK_ENV, CHECK_AT, pi),
    "step": lambda pi: step(CHECK_ENV, CHECK_AT, pi),
    "rollout": lambda pi: rollout(CHECK_ENV, pi, 2, CHECK_AT),
    "find_fixed_point": lambda pi: find_fixed_point(CHECK_ENV, pi, CHECK_AT),
    "enumerate_fixed_points": lambda pi: enumerate_fixed_points(CHECK_ENV, pi, [CHECK_AT]),
    "enumerate_fixed_points no inits": lambda pi: enumerate_fixed_points(CHECK_ENV, pi, []),
    "fixed_point_residual": lambda pi: fixed_point_residual(CHECK_ENV, pi, CHECK_AT),
    "assemble_jacobian": lambda pi: assemble_jacobian(CHECK_ENV, pi, CHECK_AT),
    "jacobian_eigenvalues": at_fixed_point(jacobian_eigenvalues),
    "game_utilities": lambda pi: game_utilities(CHECK_ENV, pi, CHECK_AT),
    "gradient_ascent_update": lambda pi: gradient_ascent_update(CHECK_ENV, pi, CHECK_AT),
    "linear_ne": lambda pi: linear_ne(CHECK_PARAMS, pi),
    "linear_welfare": lambda pi: linear_welfare(CHECK_PARAMS, pi),
    "interpolate": lambda pi: interpolate(pi, CHECK_POLICY, 0.5),
}
NOT_POLICIES = {"rows sum to 0.7": [[0.7], [0.7]], "wrong shape": [[0.5, 0.5], [0.5, 0.5]]}


@pytest.mark.parametrize("bad", NOT_POLICIES.values(), ids=list(NOT_POLICIES))
@pytest.mark.parametrize("call", POLICY_CALLS.values(), ids=list(POLICY_CALLS))
def test_every_call_that_takes_a_policy_refuses_a_matrix_that_is_not_one(call, bad):
    """A K x L row-stochastic matrix is taken; one whose rows sum to 0.7 or of
    another shape is a PolicyValidationError, an empty `inits` included."""
    call(CHECK_POLICY)
    with pytest.raises(PolicyValidationError):
        call(bad)


# --- fixed points ---


def test_fixed_point_zero_rate_returns_init():
    env = linear_env(1, 1, [0.5], [0.5], [[0.1]], B=[[1.0]], eta_v=[0.0], eta_p=[0.0])
    init = PopulationState(t=0, viewer=[3.3], provider=[4.4])
    fp = find_fixed_point(env, [[1.0]], init, tol=1e-10, max_iter=10)
    np.testing.assert_array_equal(fp.viewer, init.viewer)
    np.testing.assert_array_equal(fp.provider, init.provider)


def test_three_equilibria_recovered_from_presets():
    env = three_equilibria_env()
    pi = [[1.0]]
    expected = {"low": [0.0278, 0.0555], "mid": [0.5, 0.5], "high": [0.9722, 0.9445]}
    for name, init in THREE_EQUILIBRIA_INITS.items():
        fp = find_fixed_point(env, pi, init, tol=1e-10, max_iter=100000)
        got = [fp.viewer[0], fp.provider[0]]
        np.testing.assert_allclose(got, expected[name], atol=1e-3)
        assert fixed_point_residual(env, pi, fp) <= 1e-10


def test_nonconvergence_carries_last_iterate():
    # viewer' = 2(1 + provider) + 1, provider' = 2*viewer + 1: composite gain 4
    env = linear_env(1, 1, [2.0], [2.0], [[1.0]], B=[[1.0]],
                     eta_v=[1.0], eta_p=[1.0], intercepts_v=[1.0], intercepts_p=[1.0])
    init = PopulationState(t=0, viewer=[1.0], provider=[1.0])
    with pytest.raises(ConvergenceError) as exc:
        find_fixed_point(env, [[1.0]], init, tol=1e-10, max_iter=50)
    assert exc.value.residual > 0
    assert exc.value.last_state.viewer[0] > 1.0


def test_fixed_point_search_builds_one_population_state(monkeypatch):
    # the search runs on the stacked populations, so a converging search
    # makes one PopulationState: the point it returns
    env = gen_synthetic(SyntheticScenarioConfig(K=20, L=20, d=20, eta=0.05, seed=0))
    rng = np.random.default_rng(0)
    init = PopulationState(t=0, viewer=rng.uniform(0.0, 2.0, 20),
                           provider=rng.uniform(0.0, 2.0, 20))
    built, post_init = [], PopulationState.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(PopulationState, "__post_init__", counted)
    fp = find_fixed_point(env, epsilon_greedy(env.B, 0.1), init)
    assert len(built) == 1 and built[0] is fp


def quiet_image(env, rows, x, t=0, failed=None):
    """dynamics._image under the np.errstate its callers set."""
    with np.errstate(over="ignore", invalid="ignore"):
        return dynamics._image(env, rows, x, t, failed)


def one_cell_image(env, rows, x, t=0):
    """F(x) by the noiseless one-cell _step_cells: the point, or the cell's error."""
    failed = {}
    *_, next_x = dynamics._step_cells(env, t, x[None], lambda q: rows, None, failed)
    return failed[0] if failed else next_x[0]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), cells=st.integers(1, 4),
       scale=st.sampled_from([0.5, 20.0, 1e3]), t=st.integers(0, 5))
def test_stacked_evaluators_equal_the_per_side_reference_bit_for_bit(seed, cells, scale, t):
    """Noisy environments whose reference curves mix kinds, some on one side
    only and some on both: the one stacked curve pass of every evaluator
    equals a pass per side, bit for bit, cell by cell."""
    env = mixed_env(seed, noise_std=0.3)
    K, L = env.K, env.L
    kinds = [{fn.kind for fn in side} for side in (env.lambda_bar_viewer, env.lambda_bar_provider)]
    assert len(kinds[0]) > 1 and len(kinds[1]) > 1 and kinds[0] != kinds[1]
    rng = np.random.default_rng([seed, 5])
    x = rng.uniform(0.0, scale, (cells, K + L))
    rows = np.stack([random_policy(seed + c, K, L) for c in range(cells)])
    noise = dynamics._noise_factors(env, rng, cells)
    failed = {}
    q, se, w, next_x = dynamics._step_cells(env, t, x, lambda q: rows, noise, failed)
    *want, want_failed = reference_step_cells(env, x[:, :K], x[:, K:], rows, noise)
    for got, ref in zip((q, se[:, :K], se[:, K:], w, next_x[:, :K], next_x[:, K:]), want):
        assert_bitwise_equal(got, ref)
    assert sorted(failed) == want_failed
    for c in range(cells):
        lone = {}
        image = quiet_image(env, rows[c], x[c], t, lone)
        *_, v, p, gone = reference_step_cells(env, x[c:c + 1, :K], x[c:c + 1, K:], rows[c:c + 1])
        assert sorted(lone) == gone
        if gone:
            continue
        assert_bitwise_equal(image, np.concatenate([v[0], p[0]]))
        for clipped in (None, image == 0.0, rng.random(K + L) < 0.3):
            linearized = dynamics._LinearizedMap(env, rows[c], x[c], clipped)
            jac, dv, dc, df = reference_linearization(env, rows[c], x[c], clipped)
            assert_bitwise_equal(linearized.jacobian(), jac)
            # the Newton steps' J - I, built directly, is the subtraction's
            assert_bitwise_equal(linearized.jacobian(minus_identity=True), jac - np.eye(K + L))
            assert linearized.coupling_contracts() == reference_contracts(env, rows[c], dv, dc, df)
        state = PopulationState(t=t, viewer=x[c, :K], provider=x[c, K:])
        for gamma in (0.5, 2.0):
            objective, gradient = reference_lookahead(env, state, rows[c], gamma)
            assert_bitwise_equal(lookahead_objective(env, state, rows[c], gamma), objective)
            assert_bitwise_equal(lookahead_gradient(env, state, rows[c], gamma), gradient)


def assert_same_error(got, want):
    assert type(got) is type(want) and str(got) == str(want)
    assert got.residual == want.residual and got.last_state.t == want.last_state.t
    assert np.array_equal(got.last_state.viewer, want.last_state.viewer)
    assert np.array_equal(got.last_state.provider, want.last_state.provider)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), scale=st.sampled_from([0.5, 20.0, 1e3]),
       t=st.integers(0, 5))
def test_image_is_the_one_cell_step_bit_for_bit(seed, scale, t):
    env = random_env(seed)
    rows = random_policy(seed, env.K, env.L)
    x = stacked(random_state(seed, env, scale=scale))
    got, want = quiet_image(env, rows, x, t), one_cell_image(env, rows, x, t)
    assert got.dtype == want.dtype and np.array_equal(got, want)


# (what overflows, env, x): each failure a one-point map can reach
OVERFLOWS = [
    # s = 1e200 and the viewer 1e200: the welfare overflows, s and e do not
    ("welfare", linear_env(1, 1, [1.0], [1.0], [[1.0]], B=[[1.0]], eta_v=[0.5], eta_p=[0.5]),
     [1e200, 1e200]),
    # e sums two viewers of 1.7e308 while q = s = 0 keeps the welfare at 0
    ("payoffs", linear_env(2, 1, [1.0, 1.0], [1.0], [[0.0], [0.0]], B=[[0.0], [0.0]],
                           eta_v=[0.5, 0.5], eta_p=[0.5]), [1.7e308, 1.7e308, 1.0]),
    # s = 1e200 and the viewer 1: the reference curve's slope 1e200 overflows
    ("populations", linear_env(1, 1, [1e200], [1.0], [[1.0]], B=[[1.0]], eta_v=[0.5],
                               eta_p=[0.5]), [1.0, 1e200]),
]


@pytest.mark.parametrize("what,env,x", OVERFLOWS, ids=[case[0] for case in OVERFLOWS])
def test_image_raises_the_divergence_error_of_the_one_cell_step(what, env, x):
    rows, x = np.ones((env.K, env.L)) / env.L, np.asarray(x)
    want = one_cell_image(env, rows, x, t=3)
    assert isinstance(want, DivergenceError) and f"non-finite {what} after t=3" in str(want)
    with pytest.raises(DivergenceError) as got:
        quiet_image(env, rows, x, t=3)
    assert_same_error(got.value, want)
    failed = {}
    quiet_image(env, rows, x, t=3, failed=failed)
    assert_same_error(failed[0], want)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_image_fails_where_the_one_cell_step_fails(seed):
    # linear curves with slopes up to 1e200 at populations up to 1e250
    rng = np.random.default_rng(seed)
    K, L = (int(n) for n in rng.integers(1, 4, 2))
    env = linear_env(K, L, 10.0 ** rng.uniform(0, 200, K), 10.0 ** rng.uniform(0, 200, L),
                     10.0 ** rng.uniform(0, 200, (K, L)), B=rng.uniform(0.0, 5.0, (K, L)),
                     eta_v=rng.uniform(0.1, 1.0, K), eta_p=rng.uniform(0.1, 1.0, L))
    rows = random_policy(seed, K, L)
    x = rng.uniform(0.0, 1.0, K + L) * 10.0 ** rng.uniform(0, 250)
    want = one_cell_image(env, rows, x)
    if isinstance(want, DivergenceError):
        with pytest.raises(DivergenceError) as got:
            quiet_image(env, rows, x)
        assert_same_error(got.value, want)
        failed = {}
        quiet_image(env, rows, x, failed=failed)
        assert_same_error(failed[0], want)
    else:
        assert np.array_equal(quiet_image(env, rows, x), want)


def test_fixed_point_calls_never_take_the_rollout_step(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("the fixed-point map went through _step_cells")

    env = gen_synthetic(SyntheticScenarioConfig(K=20, L=20, d=20, eta=0.05, seed=0))
    rng = np.random.default_rng(0)
    starts = [PopulationState(t=0, viewer=rng.uniform(0.0, 2.0, 20),
                              provider=rng.uniform(0.0, 2.0, 20)) for _ in range(3)]
    pi = epsilon_greedy(env.B, 0.1)
    monkeypatch.setattr(dynamics, "_step_cells", refused)
    fp = find_fixed_point(env, pi, starts[0])
    assert fixed_point_residual(env, pi, fp) <= 1e-10
    assert len(enumerate_fixed_points(env, pi, starts)) == 1
    report = jacobian_eigenvalues(env, pi, fp)
    assert report.stable and report.sufficient_condition_holds


def test_fixed_point_rejects_noisy_environment():
    base = linear_env(1, 1, [0.5], [0.5], [[0.0]], B=[[1.0]], eta_v=[0.5], eta_p=[0.5])
    noisy = EnvironmentSpec.from_dict({**base.to_dict(), "noise": {"relative_std": 0.01}})
    init = PopulationState(t=0, viewer=[1.0], provider=[1.0])
    with pytest.raises(ValueError):
        find_fixed_point(noisy, [[1.0]], init, tol=1e-10, max_iter=100)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
@example(seed=2026)   # overflows to inf before max_iter
@example(seed=1986)
def test_returned_fixed_points_meet_residual_tolerance(seed):
    env = random_env(seed, max_dim=3)
    init = random_state(seed, env)
    pi = random_policy(seed, env.K, env.L)
    try:
        fp = find_fixed_point(env, pi, init, tol=1e-10, max_iter=20000)
    except ConvergenceError:
        assume(False)
    assert fixed_point_residual(env, pi, fp) <= 1e-10


def test_diverging_fixed_point_search_raises_convergence_error():
    env = random_env(2026, max_dim=3)
    pi = random_policy(2026, env.K, env.L)
    with pytest.raises(DivergenceError) as exc:
        find_fixed_point(env, pi, random_state(2026, env), tol=1e-10, max_iter=20000)
    assert isinstance(exc.value, ConvergenceError)
    last = exc.value.last_state
    assert np.all(np.isfinite(last.viewer)) and np.all(np.isfinite(last.provider))
    assert last.t > 0


def test_diverging_rollout_raises_convergence_error():
    # composite gain 1e200 per step: the populations overflow within a few steps
    env = linear_env(1, 1, [1e100], [1e100], [[1.0]], B=[[1.0]],
                     eta_v=[1.0], eta_p=[1.0])
    init = PopulationState(t=0, viewer=[1.0], provider=[1.0])
    with pytest.raises(DivergenceError) as exc:
        rollout(env, [[1.0]], 50, init)
    last = exc.value.last_state
    assert 0 < last.t < 50
    assert np.isfinite(last.viewer[0]) and np.isfinite(last.provider[0])


def test_step_checks_the_welfare_as_rollout_does():
    # from t=2 the welfare overflows while the populations stay finite
    env = linear_env(1, 1, [1e100], [1e100], [[1.0]], B=[[1.0]], eta_v=[1.0], eta_p=[1.0])
    state = PopulationState(t=0, viewer=[1.0], provider=[1.0])
    for _ in range(2):
        state = step(env, state, [[1.0]])
    with pytest.raises(DivergenceError, match="non-finite welfare after t=2") as stepped:
        step(env, state, [[1.0]])
    with pytest.raises(DivergenceError) as rolled:
        rollout(env, [[1.0]], 3, PopulationState(t=0, viewer=[1.0], provider=[1.0]))
    assert str(stepped.value) == str(rolled.value)
    assert np.array_equal(stepped.value.last_state.viewer, rolled.value.last_state.viewer)


def test_lockstep_cells_equal_rollouts_of_each_seed():
    env = random_env(11, max_dim=3, noise_std=0.05)
    init = random_state(11, env)
    seeds = [4, 0, 9]
    # a rule that returns an invalid policy at one state of seed 0's run only
    target = rollout(env, lambda e, s: myopic_greedy(e, s), 5, init, seed=0).table.lambda_viewer[2]

    def rule(e, s):
        if np.array_equal(s.viewer, target):
            return np.full((e.K, e.L), 2.0)
        return myopic_greedy(e, s)

    for policy in (random_policy(11, env.K, env.L), myopic_greedy, rule):
        runs = lockstep_rollouts(env, [policy], 5, init, seeds)
        for seed, run in zip(seeds, runs):
            try:
                want = rollout(env, policy, 5, init, seed=seed)
            except PolicyValidationError as err:
                assert policy is rule and seed == 0
                assert type(run) is PolicyValidationError and str(run) == str(err)
                continue
            assert run.seed == seed and run.steps[0].state is init
            for name in ("t", "lambda_viewer", "lambda_provider", "s", "e", "welfare"):
                assert np.array_equal(getattr(run.table, name), getattr(want.table, name))
            assert np.array_equal(run.q, want.q) and np.array_equal(run.policy, want.policy)


def test_constant_policy_column_is_one_matrix_and_steps_are_built_once():
    env = random_env(12, max_dim=3, noise_std=0.05)
    init = random_state(12, env)
    pi = random_policy(12, env.K, env.L)
    traj = rollout(env, pi, 6, init, seed=1)
    assert traj.policy.shape == (6, env.K, env.L) and traj.policy.strides[0] == 0
    assert np.array_equal(traj.policy[3], pi) and not traj.policy.flags.writeable
    assert traj.steps is traj.steps
    assert_columns_stack_steps(traj, env)
    assert all(np.array_equal(st.policy.rows, pi) for st in traj.steps)


def test_enumerate_deduplicates_and_separates():
    env = three_equilibria_env()
    pi = [[1.0]]
    inits = [PopulationState(t=0, viewer=[a], provider=[b])
             for a, b in [(0.0, 0.0), (0.001, 0.001), (0.5, 0.5), (1.0, 1.0)]]
    points = enumerate_fixed_points(env, pi, inits, tol=1e-10, max_iter=100000)
    assert len(points) == 3
    viewers = sorted(p.viewer[0] for p in points)
    np.testing.assert_allclose(viewers, [0.0278, 0.5, 0.9722], atol=1e-3)


def test_enumerate_skips_nonconvergent_starts():
    env = linear_env(1, 1, [2.0], [2.0], [[1.0]], B=[[1.0]],
                     eta_v=[1.0], eta_p=[1.0], intercepts_v=[1.0], intercepts_p=[1.0])
    inits = [PopulationState(t=0, viewer=[1.0], provider=[1.0])]
    assert enumerate_fixed_points(env, [[1.0]], inits, tol=1e-10, max_iter=20) == []


def plain_iteration(env, pi, init, tol=1e-13, max_iter=20000):
    """The reference search: step until the residual is at most tol (None
    when max_iter steps do not get there)."""
    state = init
    for _ in range(max_iter):
        nxt = step(env, state, pi)
        if max(np.max(np.abs(nxt.viewer - state.viewer)),
               np.max(np.abs(nxt.provider - state.provider))) <= tol:
            return state
        state = nxt
    return None


def stacked(state):
    return np.concatenate([state.viewer, state.provider])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), scale=st.sampled_from([2.0, 20.0, 50.0]))
@example(seed=387, scale=20.0)   # unguarded Newton from here lands on another point
@example(seed=450, scale=2.0)
def test_search_reaches_the_point_plain_iteration_reaches(seed, scale):
    env = random_env(seed, max_dim=4)
    pi = random_policy(seed, env.K, env.L)
    init = random_state(seed, env, scale=scale)
    try:
        want = plain_iteration(env, pi, init)
    except DivergenceError:
        want = None
    assume(want is not None)
    got = find_fixed_point(env, pi, init, tol=1e-10, max_iter=20000)
    assert fixed_point_residual(env, pi, got) <= 1e-10
    gap = np.max(np.abs(stacked(got) - stacked(want)))
    assert gap <= 1e-8 * max(1.0, np.max(np.abs(stacked(want))))


@settings(max_examples=30, deadline=None)
@given(eta=st.sampled_from([0.05, 0.2, 0.5]),
       viewer=st.floats(0.0, 1.3), provider=st.floats(0.0, 1.3))
# starts near the separatrix of the slow instance, each needing a guard on Newton steps
@example(eta=0.05, viewer=0.873686705871161, provider=0.21324423968505288)   # contraction
@example(eta=0.05, viewer=0.7740588634013635, provider=0.26511981277667956)  # step length
@example(eta=0.05, viewer=1.0654040461016736, provider=0.0015300536169820522)  # halving
@example(eta=0.05, viewer=0.9061171755686914, provider=0.14266492178269377)  # next step
def test_search_keeps_the_basin_of_the_three_equilibria(eta, viewer, provider):
    env = three_equilibria_env(eta)
    init = PopulationState(t=0, viewer=[viewer], provider=[provider])
    want = plain_iteration(env, [[1.0]], init)
    assume(want is not None)
    got = find_fixed_point(env, [[1.0]], init, tol=1e-10)
    np.testing.assert_allclose(stacked(got), stacked(want), atol=1e-8)


def test_search_lands_at_the_fixed_point_not_short_of_it():
    # plain iteration stops about tol * rho / (1 - rho) short; rho = 0.968 here
    env = gen_synthetic(SyntheticScenarioConfig(K=20, L=20, d=20, eta=0.05, seed=0))
    pi = epsilon_greedy(env.B, 0.1)
    zero = PopulationState(t=0, viewer=np.zeros(20), provider=np.zeros(20))
    reference = stacked(plain_iteration(env, pi, zero, tol=1e-14, max_iter=100000))
    short = plain_iteration(env, pi, zero, tol=1e-10)
    assert np.max(np.abs(stacked(short) - reference)) > 1e-9
    got = stacked(find_fixed_point(env, pi, zero, tol=1e-10))
    assert np.max(np.abs(got - reference)) <= 1e-12
    # a start already within tol is only polished
    polished = stacked(find_fixed_point(env, pi, short, tol=1e-10))
    assert np.max(np.abs(polished - reference)) <= 1e-12


def count_steps(monkeypatch):
    """The evaluations of the map F that the search makes."""
    calls = []
    image = dynamics._image
    monkeypatch.setattr(dynamics, "_image", lambda *a, **k: calls.append(1) or image(*a, **k))
    return calls


def test_search_zeroes_the_rows_of_a_collapsed_group(monkeypatch):
    # provider 2's reference curve is negative at every exposure it gets, so
    # the map clips it to 0; plain iteration takes 328 steps
    env = EnvironmentSpec(
        K=2, L=2, B=[[1.0, 0.2], [0.5, 0.3]],
        f=((saturating_exp(2.0, 0.5, 0.0, 0.0), saturating_exp(1.0, 0.5, 0.0, 0.0)),) * 2,
        lambda_bar_viewer=(scaled_logistic(5.0, 1.0, 1.0), scaled_logistic(4.0, 1.0, 1.5)),
        lambda_bar_provider=(linear_fn(0.8, 0.5), linear_fn(0.3, -2.0)),
        eta_viewer=[0.1, 0.1], eta_provider=[0.1, 0.1])
    pi = [[0.7, 0.3], [0.6, 0.4]]
    calls = count_steps(monkeypatch)
    fp = find_fixed_point(env, pi, PopulationState(t=0, viewer=[1.0, 1.0], provider=[1.0, 1.0]))
    assert len(calls) <= 20
    assert fp.provider[1] == 0.0
    assert fixed_point_residual(env, pi, fp) <= 1e-10


def test_search_counts_newton_trials_against_max_iter(monkeypatch):
    env = gen_synthetic(SyntheticScenarioConfig(K=5, L=5, d=5, eta=0.1, seed=0))
    pi = epsilon_greedy(env.B, 0.1)
    zero = PopulationState(t=0, viewer=np.zeros(5), provider=np.zeros(5))
    calls = count_steps(monkeypatch)
    outcomes = set()
    for max_iter in range(1, 80):
        calls.clear()
        try:
            find_fixed_point(env, pi, zero, tol=1e-10, max_iter=max_iter)
            outcomes.add("found")
        except ConvergenceError:
            outcomes.add("ran out")
        assert len(calls) <= max_iter
    assert outcomes == {"found", "ran out"}


def test_enumerate_merges_one_equilibrium_reached_from_both_sides():
    # the second start lies above the equilibrium, the first below it; with
    # plain iteration the two searches stopped 6.1e-9 apart, outside 10 * tol
    env = gen_synthetic(SyntheticScenarioConfig(K=20, L=20, d=20, eta=0.05, seed=0))
    pi = epsilon_greedy(env.B, 0.1)
    zero = PopulationState(t=0, viewer=np.zeros(20), provider=np.zeros(20))
    fp = find_fixed_point(env, pi, zero, tol=1e-10)
    above = PopulationState(t=0, viewer=2 * fp.viewer + 1, provider=2 * fp.provider + 1)
    assert len(enumerate_fixed_points(env, pi, [zero, above], tol=1e-10)) == 1


def enumerate_by_pseudo_inverse(env, pi, inits, tol=1e-10):
    """The reference merge rule: every found point's radius
    tol * ||(J - I)^+||_inf from its own pseudo-inverse."""
    rows = validate_policy(pi).rows
    found = []
    for init in inits:
        try:
            fp = find_fixed_point(env, pi, init, tol=tol)
        except ConvergenceError:
            continue
        x = stacked(fp)
        clipped = stacked(step(env, fp, pi)) == 0.0
        jac = dynamics._LinearizedMap(env, rows, x, clipped).jacobian()
        radius = tol * np.linalg.norm(np.linalg.pinv(jac - np.eye(len(jac))), np.inf)
        if all(np.max(np.abs(x - other)) > radius + r for _, other, r in found):
            found.append((fp, x, radius))
    return [fp for fp, *_ in found]


def test_enumerate_merges_as_the_pseudo_inverse_rule_does():
    cases = [(three_equilibria_env(), [[1.0]], list(THREE_EQUILIBRIA_INITS.values()) * 2)]
    for seed in range(30):
        env = random_env(seed, max_dim=4)
        if seed % 3 == 0:       # a group with rate 0 makes J - I singular
            env = dataclasses.replace(env, eta_viewer=np.r_[0.0, env.eta_viewer[1:]])
        pi = random_policy(seed, env.K, env.L)
        inits = [random_state(seed, env, scale=scale) for scale in (0.5, 5.0, 50.0)]
        fp = find_fixed_point(env, pi, inits[1])
        inits.append(PopulationState(t=0, viewer=2 * fp.viewer + 1, provider=2 * fp.provider + 1))
        cases.append((env, pi, inits))
    merged = split = 0
    for env, pi, inits in cases:
        got = enumerate_fixed_points(env, pi, inits)
        want = enumerate_by_pseudo_inverse(env, pi, inits)
        assert len(got) == len(want)
        assert all(np.array_equal(stacked(a), stacked(b)) for a, b in zip(got, want))
        merged, split = merged + (len(got) < len(inits)), split + (len(got) > 1)
    assert merged >= 10 and split >= 10


def test_enumerate_takes_a_pseudo_inverse_only_for_an_open_comparison(monkeypatch):
    calls = []
    pinv = np.linalg.pinv
    monkeypatch.setattr(np.linalg, "pinv", lambda a: calls.append(1) or pinv(a))
    # three starts of one equilibrium merge by the lower bound alone
    env = gen_synthetic(SyntheticScenarioConfig(K=20, L=20, d=20, eta=0.05, seed=0))
    zero = PopulationState(t=0, viewer=np.zeros(20), provider=np.zeros(20))
    half = PopulationState(t=0, viewer=np.full(20, 0.5), provider=np.full(20, 0.5))
    assert len(enumerate_fixed_points(env, epsilon_greedy(env.B, 0.1), [zero, half, zero])) == 1
    assert calls == []
    # three distinct points, each pseudo-inverted once however often compared
    inits = list(THREE_EQUILIBRIA_INITS.values()) * 2
    assert len(enumerate_fixed_points(three_equilibria_env(), [[1.0]], inits)) == 3
    assert len(calls) == 3


# --- the lockstep search: every start of a multi-start search steps together ---


def runaway_env(seed):
    """Exponentially growing reference curves c (exp(r (x - a)) - 1) + b:
    starts near 0 settle at a low equilibrium, starts far out overflow."""
    rng = np.random.default_rng([seed, 43])
    K, L = (int(n) for n in rng.integers(1, 4, 2))

    def runaway():
        c = rng.uniform(0.2, 1.0)
        return saturating_exp(-c, -rng.uniform(0.5, 2.0), rng.uniform(2.0, 6.0), c)

    return EnvironmentSpec(
        K=K, L=L, B=rng.uniform(0.0, 1.0, (K, L)),
        f=tuple(tuple(linear_fn(rng.uniform(0.1, 1.0)) for _ in range(L)) for _ in range(K)),
        lambda_bar_viewer=tuple(runaway() for _ in range(K)),
        lambda_bar_provider=tuple(runaway() for _ in range(L)),
        eta_viewer=rng.uniform(0.1, 0.9, K), eta_provider=rng.uniform(0.1, 0.9, L))


def lockstep_search(seed, count, runaway, max_iter):
    """(env, policy rows, inits, the lockstep search's outcomes) for `count`
    starts at scales 1e-2 to 1e3 and times 0 to 3, on a runaway_env or a
    random_env."""
    env = runaway_env(seed) if runaway else random_env(seed, max_dim=5)
    rows = random_policy(seed, env.K, env.L)
    rng = np.random.default_rng([seed, 47])
    inits = [PopulationState(t=int(rng.integers(0, 4)), viewer=rng.uniform(0.0, scale, env.K),
                             provider=rng.uniform(0.0, scale, env.L))
             for scale in 10.0 ** rng.uniform(-2, 3, count)]
    return env, rows, inits, dynamics._search(env, rows, [stacked(init) for init in inits],
                                              [init.t for init in inits], 1e-10, max_iter)


# starts that converge, overflow and run out of max_iter in one stack
MIXED_STACKS = [dict(seed=0, count=6, runaway=True, max_iter=5),
                dict(seed=240, count=6, runaway=True, max_iter=12)]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), count=st.integers(2, 6), runaway=st.booleans(),
       max_iter=st.sampled_from([2, 5, 12, 40, 100000]))
@example(**MIXED_STACKS[0])
@example(**MIXED_STACKS[1])
def test_lockstep_search_gives_each_start_its_lone_search_bit_for_bit(seed, count, runaway,
                                                                        max_iter):
    env, rows, inits, got = lockstep_search(seed, count, runaway, max_iter)
    assert len(got) == count
    for init, outcome in zip(inits, got):
        try:
            want = find_fixed_point(env, rows, init, tol=1e-10, max_iter=max_iter)
        except ConvergenceError as err:
            assert_same_error(outcome, err)
        else:
            assert_bitwise_equal(outcome, stacked(want))


@pytest.mark.parametrize("stack", MIXED_STACKS)
def test_lockstep_examples_mix_every_outcome(stack):
    """Each explicit example above stacks starts that converge with starts
    that overflow and starts that run out of max_iter."""
    *_, got = lockstep_search(**stack)
    assert {type(outcome).__name__ for outcome in got} == {
        "ndarray", "DivergenceError", "ConvergenceError"}


def test_a_singular_system_fails_only_its_own_start_of_the_stack():
    env = gen_synthetic(SyntheticScenarioConfig(K=5, L=5, d=5, eta=0.1, seed=0))
    rows = epsilon_greedy(env.B, 0.1).rows
    x = np.random.default_rng(3).uniform(0.0, 2.0, (3, 10))
    with np.errstate(all="ignore"):
        fx = dynamics._image(env, rows, x)
        linearized = dynamics._LinearizedMap(env, rows, x, fx == 0.0)
        singular = linearized.jacobian(minus_identity=True)
        singular[1, 0] = 0.0        # a zero row in start 1's J - I

        class Stub:
            def jacobian(self, minus_identity):
                return singular

        y, ok = dynamics._newton_points(Stub(), x, fx)
        assert ok == [True, False, True]     # start 1's Newton trial fails at its first guard
        for i in (0, 2):
            alone = dynamics._LinearizedMap(env, rows, x[i], fx[i] == 0.0)
            want, want_ok = dynamics._newton_points(alone, x[i], fx[i])
            assert want_ok == [True]
            assert_bitwise_equal(y[i], want)


# --- the exact equilibria of one viewer group ---


def one_viewer_env(seed):
    """(env, policy rows, the viewer curve's supremum, starts): one viewer
    group and 1-3 providers with logistic reference curves, bistable about
    one time in seven, as three_equilibria_env is."""
    rng = np.random.default_rng([seed, 41])
    L = int(rng.integers(1, 4))
    gain = rng.uniform(0.5, 2.0)
    env = EnvironmentSpec(
        K=1, L=L, B=rng.uniform(0.0, 0.5, (1, L)),
        f=(tuple(linear_fn(rng.uniform(0.5, 2.0)) for _ in range(L)),),
        lambda_bar_viewer=(scaled_logistic(gain, rng.uniform(2.0, 12.0), rng.uniform(0.2, 1.5)),),
        lambda_bar_provider=tuple(scaled_logistic(rng.uniform(0.5, 2.0), rng.uniform(2.0, 12.0),
                                                  rng.uniform(0.0, 1.0)) for _ in range(L)),
        eta_viewer=rng.uniform(0.1, 0.9, 1), eta_provider=rng.uniform(0.1, 0.9, L))
    starts = [PopulationState(t=0, viewer=rng.uniform(0.0, gain, 1),
                              provider=rng.uniform(0.0, 2.0, L)) for _ in range(6)]
    return env, random_policy(seed, 1, L), gain, starts


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6))
@example(seed=4)        # bistable
def test_enumerate_reports_only_equilibria_of_the_one_viewer_oracle(seed):
    env, rows, gain, starts = one_viewer_env(seed)
    roots = one_viewer_equilibria(env, rows, gain)
    for fp in enumerate_fixed_points(env, rows, starts):
        assert np.abs(roots - stacked(fp)).max(axis=1).min() <= 1e-9


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the search reaches the attracting equilibria only; the unstable "
                          "middle one of a bistable instance needs deflated Newton")
def test_enumerate_reports_every_equilibrium_of_the_one_viewer_oracle():
    for seed in range(40):
        env, rows, gain, starts = one_viewer_env(seed)
        roots = one_viewer_equilibria(env, rows, gain)
        assert len(enumerate_fixed_points(env, rows, starts)) == len(roots), seed


# --- stability analysis ---


def stable_env_and_fp():
    env = three_equilibria_env()
    pi = validate_policy([[1.0]])
    fp = find_fixed_point(env, pi, THREE_EQUILIBRIA_INITS["high"], 1e-12, 100000)
    return env, pi, fp


def test_jacobian_matches_finite_difference():
    env, pi, fp = stable_env_and_fp()
    J = assemble_jacobian(env, pi, fp)
    h = 1e-7
    x0 = np.concatenate([fp.viewer, fp.provider])

    def fmap(x):
        st_ = PopulationState(t=0, viewer=x[:env.K], provider=x[env.K:])
        nxt = step(env, st_, pi)
        return np.concatenate([nxt.viewer, nxt.provider])

    num = np.empty_like(J)
    for j in range(x0.size):
        ep = np.zeros_like(x0)
        ep[j] = h
        num[:, j] = (fmap(x0 + ep) - fmap(x0 - ep)) / (2 * h)
    np.testing.assert_allclose(J, num, atol=1e-6)


def test_jacobian_refuses_a_population_effect_that_overflows():
    """An f that overflows at a finite state makes the payoffs infinite, and
    the Jacobian raises instead of returning non-finite entries."""
    env = linear_env(2, 2, [1.0, 1.0], [1.0, 1.0], [[1e308, 1e308]] * 2, np.ones((2, 2)),
                     np.full(2, 0.5), np.full(2, 0.5))
    state = PopulationState(t=0, viewer=[1.0, 1.0], provider=[10.0, 10.0])
    with np.errstate(over="ignore"), pytest.raises(FunctionDomainError):
        assemble_jacobian(env, np.full((2, 2), 0.5), state)


def test_report_spectrum_matches_dense_eigensolver():
    env, pi, fp = stable_env_and_fp()
    rep = jacobian_eigenvalues(env, pi, fp)
    dense = np.linalg.eigvals(assemble_jacobian(env, pi, fp))
    np.testing.assert_allclose(sorted(rep.eigenvalues, key=abs),
                               sorted(dense, key=abs), atol=1e-12)
    assert rep.spectral_radius == pytest.approx(max(abs(dense)))
    assert rep.stable == (rep.spectral_radius < 1.0)
    assert rep.residual <= 1e-9


def test_middle_equilibrium_is_unstable_outer_ones_stable():
    env = three_equilibria_env()
    pi = validate_policy([[1.0]])
    verdicts = {}
    for name, init in THREE_EQUILIBRIA_INITS.items():
        fp = find_fixed_point(env, pi, init, 1e-12, 100000)
        verdicts[name] = jacobian_eigenvalues(env, pi, fp).stable
    assert verdicts == {"low": True, "mid": False, "high": True}


def test_fully_reactive_viewer_block_eigenvalues_vanish():
    env = linear_env(2, 1, [0.2, 0.2], [0.2], [[0.1], [0.1]], B=[[1.0], [1.0]],
                     eta_v=[1.0, 1.0], eta_p=[0.5])
    pi = validate_policy([[1.0], [1.0]])
    fp = find_fixed_point(env, pi, PopulationState(t=0, viewer=[0.1, 0.1], provider=[0.1]),
                          1e-12, 100000)
    analytic = jacobian_eigenvalues(env, pi, fp).analytic_eigenvalues
    dense = np.linalg.eigvals(assemble_jacobian(env, pi, fp))
    # K - L = 1 leftover eigenvalue equal to 1 - eta_viewer = 0, exactly
    assert list(analytic).count(0.0) == 1
    np.testing.assert_allclose(np.sort(analytic), np.sort(dense.real), atol=1e-12)
    np.testing.assert_array_equal(dense.imag, 0.0)


def test_constant_population_effect_zeroes_coupling_eigenvalues():
    env = linear_env(2, 2, [0.3, 0.3], [0.3, 0.3], [[0.0, 0.0], [0.0, 0.0]],
                     B=[[1.0, 0.5], [0.5, 1.0]], eta_v=[0.5, 0.5], eta_p=[0.5, 0.5])
    pi = validate_policy([[0.5, 0.5], [0.5, 0.5]])
    fp = find_fixed_point(env, pi, PopulationState(t=0, viewer=[1.0, 1.0], provider=[1.0, 1.0]),
                          1e-12, 100000)
    analytic = jacobian_eigenvalues(env, pi, fp).analytic_eigenvalues
    # no coupling (sigma = 0): the spectrum is {1 - eta_viewer} u {1 - eta_provider}
    expected = np.concatenate([1.0 - env.eta_viewer, 1.0 - env.eta_provider])
    np.testing.assert_allclose(np.sort(analytic), np.sort(expected), atol=1e-15)
    dense = np.linalg.eigvals(assemble_jacobian(env, pi, fp))
    np.testing.assert_allclose(np.sort(analytic), np.sort(dense.real), atol=1e-12)


@pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf"), True, "1e-10"])
def test_fixed_point_calls_refuse_a_tol_that_is_not_a_finite_number(tol):
    env, start = three_equilibria_env(), PopulationState(t=0, viewer=[0.3], provider=[0.9])
    for call in (lambda: find_fixed_point(env, [[1.0]], start, tol=tol),
                 lambda: enumerate_fixed_points(env, [[1.0]], [start], tol=tol),
                 lambda: jacobian_eigenvalues(env, [[1.0]], start, tol=tol)):
        with pytest.raises(ValueError, match="tol must be a finite number") as err:
            call()
        assert not isinstance(err.value, FixedPointPreconditionError)


@pytest.mark.parametrize("max_iter", [2.5, 1e5, True, "100"])
def test_fixed_point_searches_refuse_a_max_iter_that_is_not_an_integer(max_iter):
    env, start = three_equilibria_env(), PopulationState(t=0, viewer=[0.3], provider=[0.9])
    for call in (lambda: find_fixed_point(env, [[1.0]], start, max_iter=max_iter),
                 lambda: enumerate_fixed_points(env, [[1.0]], [start], max_iter=max_iter)):
        with pytest.raises(SpecValidationError, match="max_iter must be an integer"):
            call()


def test_not_a_fixed_point_is_a_precondition_error():
    env, pi, _ = stable_env_and_fp()
    with pytest.raises(FixedPointPreconditionError):
        jacobian_eigenvalues(env, pi, PopulationState(t=0, viewer=[0.2], provider=[0.9]))


def test_closed_form_list_matches_dense_spectrum():
    env, pi, fp = stable_env_and_fp()
    rep = jacobian_eigenvalues(env, pi, fp)
    analytic = np.sort(np.asarray(rep.analytic_eigenvalues, dtype=float))
    numeric = np.sort(np.real(rep.eigenvalues))
    assert np.max(np.abs(analytic - numeric)) <= 1e-8


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6))
@example(seed=1419)   # four eigenvalues share one real part
def test_closed_form_matches_dense_spectrum_with_one_rate_per_side(seed):
    # K != L included; the formula needs no fixed point, so any state will do
    env = random_env(seed)
    d = env.to_dict()
    d["eta_viewer"] = [float(env.eta_viewer[0])] * env.K
    d["eta_provider"] = [float(env.eta_provider[0])] * env.L
    env = EnvironmentSpec.from_dict(d)
    state = random_state(seed, env)
    pi = random_policy(seed, env.K, env.L)
    linearized = dynamics._LinearizedMap(env, *dynamics._stacked(env, state, pi))
    analytic = np.asarray(linearized.closed_form_spectrum(), dtype=complex)
    dense = np.linalg.eigvals(assemble_jacobian(env, pi, state))
    assert analytic.shape == (env.K + env.L,)
    # pair the spectra by minimum-cost assignment: sorting mispairs eigenvalues
    # whose real parts agree up to round-off
    cost = np.abs(analytic[:, None] - dense[None, :])
    rows, cols = linear_sum_assignment(cost)
    assert np.max(cost[rows, cols]) <= 1e-8


def test_closed_form_refuses_per_group_rates():
    env = linear_env(2, 1, [0.2, 0.2], [0.2], [[0.1], [0.1]], B=[[1.0], [1.0]],
                     eta_v=[0.5, 0.6], eta_p=[0.5])
    pi = validate_policy([[1.0], [1.0]])
    fp = find_fixed_point(env, pi, PopulationState(t=0, viewer=[0.1, 0.1], provider=[0.1]),
                          1e-12, 100000)
    linearized = dynamics._LinearizedMap(env, *dynamics._stacked(env, fp, pi))
    assert linearized.closed_form_spectrum() is None
    rep = jacobian_eigenvalues(env, pi, fp)
    assert rep.analytic_eigenvalues is None
    assert rep.eigenvalues.shape == (3,)


# --- stability flag: rho(G12 G21) < 1 ---


def test_stability_flag_rejects_the_unstable_middle_equilibrium():
    # the middle point has spectral radius 1.366; the old column-sum bound admitted it
    env = three_equilibria_env()
    pi = validate_policy([[1.0]])
    for name, init in THREE_EQUILIBRIA_INITS.items():
        rep = jacobian_eigenvalues(env, pi, find_fixed_point(env, pi, init, 1e-12, 100000))
        assert rep.sufficient_condition_holds == rep.stable == (name != "mid")
        if name == "mid":
            assert rep.spectral_radius == pytest.approx(1.3660254037844386)


def test_stability_flag_is_false_when_a_rate_vanishes():
    # a group with rate 0 never moves: J has the eigenvalue 1 whatever the slopes
    env = linear_env(2, 1, [0.2, 0.2], [0.2], [[0.1], [0.1]], B=[[1.0], [1.0]],
                     eta_v=[0.0, 0.5], eta_p=[0.5])
    pi = validate_policy([[1.0], [1.0]])
    fp = find_fixed_point(env, pi, PopulationState(t=0, viewer=[0.1, 0.1], provider=[0.1]),
                          1e-12, 100000)
    rep = jacobian_eigenvalues(env, pi, fp)
    assert rep.spectral_radius >= 1.0 - 1e-12
    assert not rep.stable and not rep.sufficient_condition_holds


@pytest.mark.parametrize("K", [1, 2])
@pytest.mark.parametrize("gain,contracts", [(1.0, False), (1.0 + 1e-6, False),
                                             (1.0 - 1e-6, True)])
def test_stability_flag_at_the_edge_of_contraction(monkeypatch, K, gain, contracts):
    # linear curves and the uniform policy make C = G12 G21 = (gain / K) ones((K, K)),
    # so rho(C) = gain; at gain 1, I - C is exactly singular
    env = linear_env(K, K, [1.0] * K, [gain] * K, [[1.0] * K] * K, B=[[1.0] * K] * K,
                     eta_v=[0.5] * K, eta_p=[0.5] * K)
    linearized = dynamics._LinearizedMap(env, np.full((K, K), 1.0 / K), np.ones(2 * K))
    monkeypatch.setattr(np.linalg, "eigvals", None)    # decided without an eigensolve
    assert linearized.coupling_contracts() is contracts


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_stability_flag_matches_dense_spectrum_at_linear_equilibria(seed):
    # linear curves whose intercepts put the equilibrium at a chosen positive
    # point; steep slopes make most draws unstable
    rng = np.random.default_rng(seed)
    K, L = (int(n) for n in rng.integers(1, 5, 2))
    slopes_v, slopes_p = rng.uniform(0.0, 3.0, K), rng.uniform(0.0, 3.0, L)
    f_slopes, B = rng.uniform(0.0, 2.0, (K, L)), rng.uniform(0.0, 2.0, (K, L))
    eta_v, eta_p = rng.uniform(0.05, 1.0, K), rng.uniform(0.05, 1.0, L)
    fp = PopulationState(t=0, viewer=rng.uniform(0.5, 5.0, K), provider=rng.uniform(0.5, 5.0, L))
    pi = random_policy(seed, K, L)
    p = payoffs(linear_env(K, L, slopes_v, slopes_p, f_slopes, B, eta_v, eta_p), fp, pi)
    env = linear_env(K, L, slopes_v, slopes_p, f_slopes, B, eta_v, eta_p,
                     intercepts_v=fp.viewer - slopes_v * p.s,
                     intercepts_p=fp.provider - slopes_p * p.e)
    rep = jacobian_eigenvalues(env, pi, fp)
    assume(abs(rep.spectral_radius - 1.0) > 1e-9)
    assert rep.sufficient_condition_holds == (rep.spectral_radius < 1.0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_stability_flag_matches_dense_spectrum_anywhere(seed):
    # the test needs no fixed point, so any state of a nonlinear instance will do
    env = random_env(seed)
    state = random_state(seed, env, scale=float(np.random.default_rng(seed).uniform(0.5, 20)))
    pi = random_policy(seed, env.K, env.L)
    rho = float(np.max(np.abs(np.linalg.eigvals(assemble_jacobian(env, pi, state)))))
    assume(abs(rho - 1.0) > 1e-9)
    x = np.concatenate([state.viewer, state.provider])
    assert dynamics._LinearizedMap(env, pi, x).coupling_contracts() == (rho < 1.0)


# --- perturbation-return behavior at stable points ---


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_stable_points_attract_small_perturbations(seed):
    env = random_env(seed, max_dim=3)
    init = random_state(seed, env)
    pi = random_policy(seed, env.K, env.L)
    try:
        fp = find_fixed_point(env, pi, init, tol=1e-12, max_iter=20000)
    except ConvergenceError:
        assume(False)
    rep = jacobian_eigenvalues(env, pi, fp, tol=1e-12)
    # the advertised step budget is only meaningful away from the stability
    # boundary: the linear contraction rate rho^n cannot beat a fixed budget
    # as rho -> 1, so the check is run on clearly-contracting instances
    assume(rep.stable and rep.spectral_radius <= 0.75)
    delta = np.full(env.K, 1e-4 / np.sqrt(env.K + env.L))
    pert = PopulationState(t=0,
                           viewer=np.maximum(fp.viewer + delta, 0.0),
                           provider=fp.provider.copy())
    budget = int(np.ceil(10.0 / min(env.eta_viewer.min(), env.eta_provider.min())))
    traj = rollout(env, pi, budget, pert)
    final = traj.steps[-1].state
    dist = max(np.max(np.abs(final.viewer - fp.viewer)),
               np.max(np.abs(final.provider - fp.provider)))
    assert dist <= 1e-6


# --- trajectory serialization ---


def test_trajectory_csv_round_trip_is_exact():
    env = three_equilibria_env()
    init = PopulationState(t=0, viewer=[0.9], provider=[0.8])
    traj = rollout(env, [[1.0]], 10, init)
    text = trajectory_to_csv(traj)
    lines = text.splitlines()
    assert lines[0] == ",".join(trajectory_header(1, 1))
    assert "\r" not in text
    table = parse_trajectory_csv(text)
    np.testing.assert_array_equal(table.welfare, traj.table.welfare)
    np.testing.assert_array_equal(table.lambda_viewer[:, 0],
                                  [rec.state.viewer[0] for rec in traj.steps])
    np.testing.assert_array_equal(table.lambda_provider[:, 0],
                                  [rec.state.provider[0] for rec in traj.steps])


def test_trajectory_header_layout():
    assert trajectory_header(2, 3) == [
        "t", "lambda_u_1", "lambda_u_2", "lambda_c_1", "lambda_c_2", "lambda_c_3",
        "s_1", "s_2", "e_1", "e_2", "e_3", "welfare"]


def test_parse_rejects_wrong_header():
    with pytest.raises(ValueError):
        parse_trajectory_csv("a,b,c\n1,2,3\n")
    # empty text has no header at all: the same refusal
    with pytest.raises(ValueError, match="unexpected trajectory CSV header"):
        parse_trajectory_csv("")
    with pytest.raises(ValueError, match="unexpected interaction CSV header"):
        parse_interaction_csv("", [0.5], [0.5])


def test_table_functions_are_usable_in_dynamics():
    fn = table_fn([(0.0, 0.0), (1.0, 1.0), (2.0, 1.5)])
    env = EnvironmentSpec(K=1, L=1, B=[[0.5]], f=((fn,),),
                          lambda_bar_viewer=(fn,), lambda_bar_provider=(fn,),
                          eta_viewer=[0.5], eta_provider=[0.5])
    init = PopulationState(t=0, viewer=[1.0], provider=[1.0])
    traj = rollout(env, [[1.0]], 5, init)
    fp = find_fixed_point(env, [[1.0]], init, 1e-10, 100000)
    assert fixed_point_residual(env, [[1.0]], fp) <= 1e-10
    assert all(np.isfinite(rec.welfare) for rec in traj.steps)
