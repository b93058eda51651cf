import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoside_sim import (EnvironmentSpec, NoiseSpec, PolicyMatrix, PolicyValidationError,
                         PopulationState, SpecValidationError, epsilon_greedy,
                         fn_deriv, fn_eval,
                         greedy_rows, linear_fn, sigmoid_half,
                         validate_policy, weighted_sigmoid_sum)

from twoside_sim.functions import FnGrid

from conftest import random_env


def tiny_env(noise=None, seed=0):
    return EnvironmentSpec(
        K=2, L=2,
        B=[[1.0, 0.0], [0.0, 1.0]],
        f=((linear_fn(0.1), linear_fn(0.2)),
           (linear_fn(0.0), sigmoid_half(2.0, 5.0))),
        lambda_bar_viewer=(sigmoid_half(40.0, 10.0), linear_fn(0.5)),
        lambda_bar_provider=(linear_fn(0.3), sigmoid_half(30.0, 8.0)),
        eta_viewer=[0.5, 0.4],
        eta_provider=[0.3, 0.6],
        noise=noise,
        seed=seed,
    )


# --- environment spec ---


def test_env_rejects_shape_mismatches():
    good = tiny_env()
    with pytest.raises(SpecValidationError):
        EnvironmentSpec(K=2, L=3, B=good.B, f=good.f,
                        lambda_bar_viewer=good.lambda_bar_viewer,
                        lambda_bar_provider=good.lambda_bar_provider,
                        eta_viewer=good.eta_viewer, eta_provider=good.eta_provider)
    with pytest.raises(SpecValidationError):
        EnvironmentSpec(K=2, L=2, B=good.B, f=good.f[:1],
                        lambda_bar_viewer=good.lambda_bar_viewer,
                        lambda_bar_provider=good.lambda_bar_provider,
                        eta_viewer=good.eta_viewer, eta_provider=good.eta_provider)
    with pytest.raises(SpecValidationError):
        EnvironmentSpec(K=2, L=2, B=good.B, f=good.f,
                        lambda_bar_viewer=good.lambda_bar_viewer,
                        lambda_bar_provider=good.lambda_bar_provider,
                        eta_viewer=[0.5, 1.2], eta_provider=good.eta_provider)


def test_env_arrays_are_readonly():
    env = tiny_env()
    with pytest.raises(ValueError):
        env.B[0, 0] = 99.0
    with pytest.raises(ValueError):
        env.eta_viewer[0] = 0.0


def test_env_json_round_trip_preserves_digest():
    env = tiny_env(noise=NoiseSpec(0.01), seed=7)
    back = EnvironmentSpec.from_json(env.to_json())
    assert back.digest() == env.digest()
    assert back.noise.relative_std == 0.01
    assert back.seed == 7
    np.testing.assert_array_equal(back.B, env.B)


def test_digest_distinguishes_environments():
    a = tiny_env()
    b = tiny_env(seed=1)
    c = EnvironmentSpec.from_dict({**a.to_dict(), "B": [[1.0, 0.0], [0.0, 2.0]]})
    assert a.digest() != b.digest()
    assert a.digest() != c.digest()


def test_digest_is_kept_and_equals_a_recomputation():
    env = random_env(5)
    canonical = json.dumps(env.to_dict(), sort_keys=True, separators=(",", ":"))
    want = hashlib.sha256(canonical.encode()).hexdigest()[:16]
    assert env.digest() == want
    assert env.digest() is env.digest()         # computed once
    noisy = dataclasses.replace(env, noise=NoiseSpec(0.05))
    assert noisy.digest() != want


# (key, value, the field named): from_dict takes each value as it is, never cast
@pytest.mark.parametrize("key,value,field", [
    ("K", 1.7, "K"), ("L", "2", "L"), ("seed", True, "seed"), ("seed", 1.0, "seed"),
    ("noise", {"relative_std": "0.1"}, "relative_std"),
    ("noise", {"relative_std": True}, "relative_std"),
    ("B", [["1.5", "0.0"], ["0.0", "1.0"]], "B"),
])
def test_env_from_dict_refuses_a_value_of_another_kind(key, value, field):
    with pytest.raises(SpecValidationError, match=field):
        EnvironmentSpec.from_dict({**tiny_env().to_dict(), key: value})
    text = json.dumps({**tiny_env().to_dict(), key: value})
    with pytest.raises(SpecValidationError, match=field):
        EnvironmentSpec.from_json(text)


def test_env_takes_numpy_integers():
    env = dataclasses.replace(tiny_env(), K=np.int64(2), seed=np.int32(3))
    assert env.digest() == tiny_env(seed=3).digest()


def test_noise_spec_validation():
    assert not NoiseSpec(0.0).active
    assert NoiseSpec(0.05).active
    with pytest.raises(SpecValidationError):
        NoiseSpec(-0.1)
    with pytest.raises(SpecValidationError, match="relative_std"):
        NoiseSpec(np.inf)
    assert not tiny_env().noise_active
    assert tiny_env(noise=NoiseSpec(0.02)).noise_active


# --- population state ---


def test_population_state_rejects_bad_values():
    with pytest.raises(SpecValidationError):
        PopulationState(t=0, viewer=[-1.0, 2.0], provider=[1.0, 1.0])
    with pytest.raises(SpecValidationError):
        PopulationState(t=0, viewer=[1.0, np.nan], provider=[1.0, 1.0])
    with pytest.raises(SpecValidationError):
        PopulationState(t=-1, viewer=[1.0], provider=[1.0])


# (construction, error, field named): a value of another kind than the
# field's annotation, refused by the domain's error; each was once accepted,
# cast, ignored, or refused by a bare KeyError
OTHER_KINDS = [
    ("state t float", SpecValidationError, "t",
     lambda: PopulationState(t=2.5, viewer=[5.0], provider=[5.0])),
    ("state t bool", SpecValidationError, "t",
     lambda: PopulationState(t=True, viewer=[5.0], provider=[5.0])),
    ("state viewer strings", SpecValidationError, "viewer",
     lambda: PopulationState(t=0, viewer=["5", "5"], provider=[5.0])),
    ("state provider bools", SpecValidationError, "provider",
     lambda: PopulationState(t=0, viewer=[5.0], provider=[True])),
    ("policy strings", PolicyValidationError, "rows", lambda: validate_policy([["0.5", "0.5"]])),
    ("policy bools", PolicyValidationError, "rows", lambda: validate_policy([[True, False]])),
    ("environment missing keys", SpecValidationError, "L",
     lambda: EnvironmentSpec.from_dict({"K": 1})),
    ("environment noise key", SpecValidationError, "colour", lambda: EnvironmentSpec.from_dict(
        {**tiny_env().to_dict(), "noise": {"relative_std": 0.1, "colour": 1}})),
]


@pytest.mark.parametrize("error,field,make", [case[1:] for case in OTHER_KINDS],
                         ids=[case[0] for case in OTHER_KINDS])
def test_model_types_refuse_a_value_of_another_kind(error, field, make):
    with pytest.raises(error, match=rf"\b{field}\b"):
        make()


# --- policies ---


@pytest.mark.parametrize("make", [validate_policy, PolicyMatrix], ids=lambda m: m.__name__)
def test_validate_policy_accepts_and_rejects(make):
    pi = make([[0.5, 0.5], [1.0, 0.0]])
    assert validate_policy(pi) is pi                    # a PolicyMatrix was checked when made
    with pytest.raises(PolicyValidationError):
        make([[0.5, 0.4], [1.0, 0.0]])                  # row sum 0.9
    with pytest.raises(PolicyValidationError):
        make([[1.5, -0.5], [1.0, 0.0]])                 # negative entry
    with pytest.raises(PolicyValidationError):
        make([[2.0, -1.0]])                             # entries outside [0, 1]
    with pytest.raises(PolicyValidationError):
        make([[np.nan, 1.0]])                           # not finite
    with pytest.raises(PolicyValidationError):
        make([0.5, 0.5])                                # not 2-d


def test_validate_policy_keeps_entries_bitwise():
    rows = np.array([[0.3, 0.7], [0.25 + 1e-10, 0.75]])
    pi = validate_policy(rows)
    np.testing.assert_array_equal(pi.rows, rows)


def test_greedy_rows_breaks_ties_low():
    out = greedy_rows([[1.0, 1.0, 0.5], [0.0, 2.0, 2.0]])
    np.testing.assert_array_equal(out, [[1, 0, 0], [0, 1, 0]])


def test_epsilon_greedy_is_exact_convex_combination():
    B = np.array([[3.0, 1.0, 2.0], [0.0, 0.0, 5.0]])
    eps = 0.37
    pi = epsilon_greedy(B, eps)
    expected = (1 - eps) * greedy_rows(B) + eps * np.full_like(B, 1 / 3)
    np.testing.assert_array_equal(pi.rows, expected)
    np.testing.assert_array_equal(epsilon_greedy(B, 0.0).rows, greedy_rows(B))
    np.testing.assert_array_equal(epsilon_greedy(B, 1.0).rows, np.full_like(B, 1 / 3))
    with pytest.raises(PolicyValidationError):
        epsilon_greedy(B, 1.5)


# --- function grids ---


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_fn_grid_matches_entrywise_eval(seed):
    env = random_env(seed)
    x = np.random.default_rng(seed + 1).uniform(0, 30, size=env.L)
    grid_val = FnGrid(env.f).value(x)
    grid_der = FnGrid(env.f).value_and_deriv(x)[1]
    for k in range(env.K):
        for l in range(env.L):
            assert grid_val[k, l] == pytest.approx(fn_eval(env.f[k][l], x[l]), abs=1e-12)
            assert grid_der[k, l] == pytest.approx(fn_deriv(env.f[k][l], x[l]), abs=1e-12)


def test_shared_sigmoid_grid_fast_path_matches_entrywise():
    rng = np.random.default_rng(3)
    K, L, d = 4, 3, 5
    U = rng.random((K, d))
    maxes = [rng.uniform(0.5, 2, d) for _ in range(L)]
    taus = [rng.uniform(5, 40, d) for _ in range(L)]
    grid = tuple(tuple(weighted_sigmoid_sum(U[k], maxes[l], taus[l]) for l in range(L))
                 for k in range(K))
    x = rng.uniform(0, 100, L)
    val = FnGrid(grid).value(x)
    der = FnGrid(grid).value_and_deriv(x)[1]
    for k in range(K):
        for l in range(L):
            assert val[k, l] == pytest.approx(fn_eval(grid[k][l], x[l]), abs=1e-10)
            assert der[k, l] == pytest.approx(fn_deriv(grid[k][l], x[l]), abs=1e-10)
