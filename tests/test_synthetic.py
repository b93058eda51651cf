"""Seeded scenario generation: feature-product utilities, quality curves,
preset initial populations."""

import dataclasses

import numpy as np
import pytest

from twoside_sim import (EnvironmentSpec, SyntheticScenarioConfig, fn_deriv,
                         fn_eval, gen_synthetic, rollout, sample_initial_state,
                         uniform_policy)


def test_all_zero_feature_row_gives_zero_utilities():
    # At p=0.1 and seed 0, viewer row 1 draws an all-zero feature vector: its
    # base utilities and every population effect must vanish identically.
    cfg = SyntheticScenarioConfig(K=6, L=4, d=4, feature_bernoulli_p=0.1, seed=0)
    env = gen_synthetic(cfg)
    rng = np.random.default_rng(0)
    U = (rng.random((6, 4)) < 0.1).astype(float)
    assert U[1].sum() == 0.0  # the premise this test is built on
    assert np.all(env.B[1] == 0.0)
    for l in range(4):
        for x in (0.0, 12.5, 200.0):
            assert fn_eval(env.f[1][l], x) == 0.0


def test_single_dimension_rows_share_the_provider_curve():
    # With d=1 the population effect for a viewer with feature 1 is exactly
    # the provider's single quality curve; feature-0 viewers get zero.
    cfg = SyntheticScenarioConfig(K=5, L=3, d=1, feature_bernoulli_p=0.5, seed=0)
    env = gen_synthetic(cfg)
    rng = np.random.default_rng(0)
    U = (rng.random((5, 1)) < 0.5).astype(float)
    ones = [k for k in range(5) if U[k, 0] == 1.0]
    zeros = [k for k in range(5) if U[k, 0] == 0.0]
    assert ones and zeros
    grid = np.linspace(0.0, 300.0, 13)
    for l in range(3):
        ref = [fn_eval(env.f[ones[0]][l], x) for x in grid]
        for k in ones[1:]:
            assert [fn_eval(env.f[k][l], x) for x in grid] == ref
        for k in zeros:
            assert all(fn_eval(env.f[k][l], x) == 0.0 for x in grid)
        spec = env.f[ones[0]][l].to_dict()
        assert spec["params"]["weights"] == [1.0]
        assert len(spec["params"]["max_values"]) == 1


def test_generation_is_deterministic_and_seed_sensitive():
    cfg = SyntheticScenarioConfig(K=4, L=4, d=6, seed=21)
    a = gen_synthetic(cfg).to_json()
    b = gen_synthetic(cfg).to_json()
    assert a == b
    c = gen_synthetic(dataclasses.replace(cfg, seed=22)).to_json()
    assert c != a


def test_generated_env_round_trips_and_rolls_out():
    cfg = SyntheticScenarioConfig(K=3, L=5, d=4, seed=9, T=5)
    env = gen_synthetic(cfg)
    clone = EnvironmentSpec.from_json(env.to_json())
    assert clone.digest() == env.digest()
    init = sample_initial_state(cfg)
    traj = rollout(env, uniform_policy(3, 5), 5, init)
    assert len(traj) == 5


@pytest.mark.parametrize("seed", [0, 7, 33])
def test_generated_functions_are_monotone_nondecreasing(seed):
    cfg = SyntheticScenarioConfig(K=3, L=3, d=3, seed=seed)
    env = gen_synthetic(cfg)
    pts = np.linspace(0.0, 500.0, 9)
    fns = [fn for row in env.f for fn in row]
    fns += list(env.lambda_bar_viewer) + list(env.lambda_bar_provider)
    for fn in fns:
        assert all(fn_deriv(fn, x) >= 0.0 for x in pts)


def test_initial_state_presets_and_determinism():
    small = SyntheticScenarioConfig(K=50, L=50, d=2, seed=5, init="small")
    large = dataclasses.replace(small, init="large")
    s1, s2 = sample_initial_state(small), sample_initial_state(small)
    np.testing.assert_array_equal(s1.viewer, s2.viewer)
    np.testing.assert_array_equal(s1.provider, s2.provider)
    assert s1.t == 0
    lg = sample_initial_state(large)
    assert 10.0 < s1.viewer.mean() < 30.0
    assert 80.0 < lg.viewer.mean() < 120.0
    # initial draws are a stream independent of the environment sampling
    assert np.all(s1.viewer >= 0.0) and np.all(lg.provider >= 0.0)


def test_initial_state_clips_negative_draws_to_zero():
    cfg = SyntheticScenarioConfig(K=12, L=12, d=3, seed=0, init="small")
    state = sample_initial_state(cfg)
    assert (state.viewer == 0.0).sum() >= 1  # seed 0 draws below-zero normals
    assert np.all(state.viewer >= 0.0) and np.all(state.provider >= 0.0)


@pytest.mark.parametrize("kwargs", [
    dict(feature_bernoulli_p=0.0),
    dict(feature_bernoulli_p=1.0),
    dict(lambda_max_range=(0.0, 10.0)),
    dict(quality_tau_range=(5.0, 2.0)),
    dict(tau_range=(-1.0, 4.0)),
    dict(init="tiny"),
    dict(init="custom"),                      # not a preset
    dict(eta=1.5),
    dict(T=0),
    dict(seed=-1),
    dict(K=0),
])
def test_config_validation_rejects(kwargs):
    with pytest.raises(ValueError):
        SyntheticScenarioConfig(**kwargs)


def test_config_dict_round_trip():
    cfg = SyntheticScenarioConfig(K=7, L=3, d=5, feature_bernoulli_p=0.25,
                                  lambda_max_range=(30.0, 60.0), eta=0.4,
                                  T=50, seed=123)
    assert SyntheticScenarioConfig.from_dict(cfg.to_dict()) == cfg


@pytest.mark.parametrize("bad", [(4.0, 8.0, 20.0), (4.0,), 5.0, ((4.0, 8.0),), ("4", "8"),
                                 np.array([[4.0, 8.0]]), (True, 2.0)])
def test_range_fields_must_be_two_numbers(bad):
    with pytest.raises(ValueError, match="tau_range"):
        SyntheticScenarioConfig(tau_range=bad)
