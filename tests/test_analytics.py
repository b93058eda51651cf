"""Regret decomposition over paired trajectories."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_env, random_policy, random_state
from twoside_sim import (EnvironmentSpec, LookaheadConfig, NoiseSpec, PairingError,
                         PopulationState, SyntheticScenarioConfig,
                         decompose_regret, empirical_regret_suite, gen_synthetic,
                         linear_fn, myopic_greedy, optimize_lookahead, payoffs,
                         regret_report_to_csv, rollout, sample_initial_state,
                         suite_summary, table_fn, uniform_policy,
                         welfare)


def small_env(seed=0):
    return random_env(seed, max_dim=3)


def two_trajectories(seed, T=6):
    env = small_env(seed)
    init = random_state(seed, env)
    base = rollout(env, random_policy(seed, env.K, env.L), T, init)
    subj = rollout(env, random_policy(seed + 1, env.K, env.L), T, init)
    return env, base, subj


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_terms_sum_to_total_at_every_step(seed):
    env, base, subj = two_trajectories(seed)
    rep = decompose_regret(env, base, subj)
    lhs = rep.per_step_population + rep.per_step_policy + rep.per_step_const
    np.testing.assert_allclose(lhs, rep.per_step_total, rtol=0, atol=1e-10)


def test_total_is_the_recorded_welfare_gap():
    env, base, subj = two_trajectories(3, T=5)
    rep = decompose_regret(env, base, subj)
    expect = np.array([b.welfare - s.welfare
                       for b, s in zip(base.steps, subj.steps)])
    np.testing.assert_array_equal(rep.per_step_total, expect)


def test_cumulative_is_prefix_sum_and_mean_matches():
    env, base, subj = two_trajectories(4, T=8)
    rep = decompose_regret(env, base, subj)
    np.testing.assert_allclose(np.cumsum(rep.per_step_total),
                               rep.cumulative_total, rtol=0, atol=1e-10)
    assert rep.mean_total == pytest.approx(rep.per_step_total.mean(), abs=1e-12)
    assert rep.t.tolist() == [s.state.t for s in subj.steps]


def test_self_pairing_zeroes_total_and_population():
    # Pairing a trajectory with itself: the welfare gap and the population
    # gap vanish identically, and the policy term mirrors the const term.
    env, base, _ = two_trajectories(5, T=6)
    rep = decompose_regret(env, base, base)
    assert np.all(rep.per_step_total == 0.0)
    assert np.all(rep.per_step_population == 0.0)
    np.testing.assert_array_equal(rep.per_step_policy, -rep.per_step_const)


def test_self_pairing_of_best_response_player_zeroes_every_term():
    # When the trajectory itself deployed the per-step best response, the
    # policy/const mirror terms vanish too: the self-report is all-zero.
    env = small_env(6)
    init = random_state(6, env)
    base = rollout(env, lambda e, s: myopic_greedy(e, s), 6, init)
    rep = decompose_regret(env, base, base)
    for series in (rep.per_step_total, rep.per_step_population,
                   rep.per_step_policy, rep.per_step_const):
        assert np.all(series == 0.0)
    assert rep.mean_total == 0.0 and np.all(rep.cumulative_total == 0.0)


def test_best_response_subject_has_zero_policy_term():
    env, base, _ = two_trajectories(7, T=6)
    init = random_state(7, env)
    subj = rollout(env, lambda e, s: myopic_greedy(e, s), 6, init)
    rep = decompose_regret(env, base, subj)
    assert np.all(rep.per_step_policy == 0.0)


def test_two_by_two_terms_match_direct_recomputation():
    env = EnvironmentSpec(
        K=2, L=2,
        B=[[1.0, 0.4], [0.2, 0.9]],
        f=[[linear_fn(0.3), linear_fn(0.05)], [linear_fn(0.1), linear_fn(0.5)]],
        lambda_bar_viewer=(linear_fn(0.8, 1.0), linear_fn(0.5, 2.0)),
        lambda_bar_provider=(linear_fn(0.6, 0.5), linear_fn(0.9)),
        eta_viewer=[0.4, 0.7], eta_provider=[0.5, 0.3], seed=11)
    init = PopulationState(t=0, viewer=[3.0, 4.0], provider=[2.0, 5.0])
    base = rollout(env, uniform_policy(2, 2), 3, init)
    subj = rollout(env, lambda e, s: myopic_greedy(e, s), 3, init)
    rep = decompose_regret(env, base, subj)

    def R(state, pi):
        return welfare(state, payoffs(env, state, pi))

    for i, (b, s) in enumerate(zip(base.steps, subj.steps)):
        best_b = R(b.state, myopic_greedy(env, b.state))
        best_s = R(s.state, myopic_greedy(env, s.state))
        assert rep.per_step_total[i] == pytest.approx(
            R(b.state, b.policy) - R(s.state, s.policy), abs=1e-10)
        assert rep.per_step_population[i] == pytest.approx(best_b - best_s, abs=1e-12)
        assert rep.per_step_policy[i] == pytest.approx(
            best_s - R(s.state, s.policy), abs=1e-10)
        assert rep.per_step_const[i] == pytest.approx(
            R(b.state, b.policy) - best_b, abs=1e-10)


def test_terms_equal_the_greedy_policy_welfare_exactly():
    # Tables in the grid send it through the per-cell path.  Providers 1 and 2
    # stay above 9, on the tables' flat top, so rows 1 and 2 tie between
    # columns 1 and 2 at every step.  Each term must equal, bit for bit, the
    # welfare of the greedy policy built explicitly.
    table = table_fn([(0.0, 0.0), (3.0, 1.0), (9.0, 1.5)])
    env = EnvironmentSpec(
        K=3, L=3,
        B=[[1.0, 0.6, 0.6], [0.2, 0.9, 0.9], [0.5, 0.5, 0.5]],
        f=[[table, linear_fn(0.1), linear_fn(0.1)],
           [linear_fn(0.3), table, table],
           [table, table, table]],
        lambda_bar_viewer=(linear_fn(0.8, 1.0), linear_fn(0.5, 2.0), linear_fn(0.6, 1.5)),
        lambda_bar_provider=(linear_fn(0.6, 0.5), linear_fn(0.9, 12.0), linear_fn(0.9, 12.0)),
        eta_viewer=[0.4, 0.7, 0.5], eta_provider=[0.5, 0.3, 0.3],
        noise=NoiseSpec(relative_std=0.05), seed=11)
    init = PopulationState(t=0, viewer=[3.0, 4.0, 2.0], provider=[2.0, 12.0, 15.0])
    base = rollout(env, uniform_policy(3, 3), 8, init)
    subj = rollout(env, random_policy(2, 3, 3), 8, init)
    rep = decompose_regret(env, base, subj)

    def best(state):
        return welfare(state, payoffs(env, state, myopic_greedy(env, state)))

    for i, (b, s) in enumerate(zip(base.steps, subj.steps)):
        assert rep.per_step_total[i] == b.welfare - s.welfare
        assert rep.per_step_population[i] == best(b.state) - best(s.state)
        assert rep.per_step_policy[i] == best(s.state) - s.welfare
        assert rep.per_step_const[i] == b.welfare - best(b.state)


def test_pairing_rejects_foreign_environment():
    env, base, _ = two_trajectories(8)
    other_env, _, other_subj = two_trajectories(9)
    with pytest.raises(PairingError):
        decompose_regret(env, base, other_subj)


def test_pairing_rejects_horizon_mismatch():
    env = small_env(10)
    init = random_state(10, env)
    base = rollout(env, uniform_policy(env.K, env.L), 5, init)
    subj = rollout(env, uniform_policy(env.K, env.L), 4, init)
    with pytest.raises(PairingError, match="horizon"):
        decompose_regret(env, base, subj)


# ---------------------------------------------------------------------------
# suite


def test_suite_picks_highest_cumulative_welfare_as_baseline():
    env = small_env(12)
    init = random_state(12, env)
    trajs = {
        "uniform": rollout(env, uniform_policy(env.K, env.L), 6, init),
        "greedy": rollout(env, lambda e, s: myopic_greedy(e, s), 6, init),
        "skewed": rollout(env, random_policy(12, env.K, env.L), 6, init),
    }
    suite = empirical_regret_suite(env, trajs)
    cums = {n: t.cumulative_welfare() for n, t in trajs.items()}
    assert suite.baseline == max(cums, key=cums.get)
    assert set(suite.reports) == set(trajs)
    self_report = suite.reports[suite.baseline]
    assert np.all(self_report.per_step_total == 0.0)
    assert np.all(self_report.cumulative_total == 0.0)


def test_suite_requires_at_least_two_trajectories():
    env = small_env(13)
    init = random_state(13, env)
    only = {"solo": rollout(env, uniform_policy(env.K, env.L), 4, init)}
    with pytest.raises(PairingError):
        empirical_regret_suite(env, only)


@pytest.mark.slow
def test_reduced_comparison_selects_lookahead_and_myopic_pays_population_regret():
    # Three-policy comparison at reduced scale: the anticipating policy ends
    # up the empirical baseline and the greedy subject's population term is
    # positive once the trajectories have separated.
    cfg = SyntheticScenarioConfig(
        K=5, L=5, d=20, T=100, seed=3,
        feature_bernoulli_p=0.8, eta=0.3,
        quality_max_range=(0.5, 16.0), quality_tau_range=(100.0, 200.0),
        lambda_max_range=(200.0, 400.0), tau_range=(4.0, 20.0))
    env = gen_synthetic(cfg)
    init = sample_initial_state(cfg)
    la = LookaheadConfig(iterations=100)
    trajs = {
        "uniform": rollout(env, uniform_policy(5, 5), 100, init),
        "myopic": rollout(env, lambda e, s: myopic_greedy(e, s), 100, init),
        "lookahead": rollout(env, lambda e, s: optimize_lookahead(e, s, la), 100, init),
    }
    suite = empirical_regret_suite(env, trajs)
    assert suite.baseline == "lookahead"
    tail = suite.reports["myopic"].per_step_population[-25:]
    assert np.all(tail > 0.0)


# ---------------------------------------------------------------------------
# emission


def test_csv_schema_and_values():
    env, base, subj = two_trajectories(14, T=4)
    rep = decompose_regret(env, base, subj)
    text = regret_report_to_csv(rep)
    lines = text.strip("\n").split("\n")
    assert lines[0] == "t,total,population,policy,const,cumulative"
    assert len(lines) == 1 + 4
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert int(cells[0]) == rep.t[i]
        got = [float(c) for c in cells[1:]]
        want = [rep.per_step_total[i], rep.per_step_population[i],
                rep.per_step_policy[i], rep.per_step_const[i],
                rep.cumulative_total[i]]
        assert got == want  # 17-significant-digit floats round-trip exactly


def test_suite_summary_contents():
    env = small_env(15)
    init = random_state(15, env)
    trajs = {
        "uniform": rollout(env, uniform_policy(env.K, env.L), 5, init),
        "greedy": rollout(env, lambda e, s: myopic_greedy(e, s), 5, init),
    }
    suite = empirical_regret_suite(env, trajs)
    summary = suite_summary(suite)
    assert summary["baseline"] == suite.baseline
    assert "empirical" in summary["regrets"]
    for name, rep in suite.reports.items():
        entry = summary["reports"][name]
        assert entry["mean_total"] == rep.mean_total
        assert entry["final_cumulative_total"] == rep.cumulative_total[-1]
    import json

    assert json.loads(json.dumps(summary)) == summary
