import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from twoside_sim import (FunctionConfigError, FunctionDomainError, ScalarFn,
                         SyntheticScenarioConfig, fn_deriv, fn_eval, gen_synthetic,
                         linear_fn, saturating_exp,
                         scaled_logistic, sigmoid_half, table_fn,
                         weighted_sigmoid_sum)
from twoside_sim.functions import FnGrid, FnVector

from conftest import random_env, random_smooth_fn


def central_diff(fn, x, h=1e-5):
    return (fn_eval(fn, x + h) - fn_eval(fn, x - h)) / (2 * h)


def test_linear_values():
    fn = linear_fn(2.0, 1.0)
    assert fn_eval(fn, 3.0) == 7.0
    assert fn_deriv(fn, 100.0) == 2.0


def test_sigmoid_half_is_zero_at_origin_and_bounded():
    fn = sigmoid_half(10.0, 2.0)
    assert fn_eval(fn, 0.0) == 0.0
    assert abs(fn_eval(fn, 1e6) - 5.0) < 1e-9   # max/2 asymptote
    assert fn_eval(fn, 3.0) == pytest.approx(10.0 * (expit(1.5) - 0.5))


def test_scaled_logistic_value():
    fn = scaled_logistic(4.0, 2.0, 1.0)
    assert fn_eval(fn, 1.0) == pytest.approx(2.0)   # gain * sigmoid(0)


def test_saturating_exp_value():
    fn = saturating_exp(5.0, 0.1, 0.0, 1.0)
    assert fn_eval(fn, 0.0) == pytest.approx(1.0)
    assert fn_eval(fn, 10.0) == pytest.approx(5.0 * (1 - np.exp(-1.0)) + 1.0)


def test_weighted_sigmoid_sum_single_component_matches_sigmoid_half():
    fn = weighted_sigmoid_sum([1.0], [7.0], [3.0])
    ref = sigmoid_half(7.0, 3.0)
    for x in (0.0, 0.5, 2.0, 11.0):
        assert fn_eval(fn, x) == pytest.approx(fn_eval(ref, x), abs=1e-12)
        assert fn_deriv(fn, x) == pytest.approx(fn_deriv(ref, x), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), x=st.floats(-20, 60))
def test_smooth_derivative_matches_finite_difference(seed, x):
    fn = random_smooth_fn(np.random.default_rng(seed))
    num = central_diff(fn, x)
    ana = fn_deriv(fn, x)
    assert ana == pytest.approx(num, rel=1e-4, abs=1e-6)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), a=st.floats(-10, 50), b=st.floats(-10, 50))
def test_smooth_fns_are_monotone_nondecreasing(seed, a, b):
    fn = random_smooth_fn(np.random.default_rng(seed))
    lo, hi = min(a, b), max(a, b)
    assert fn_eval(fn, lo) <= fn_eval(fn, hi) + 1e-12


def test_vectorized_eval_matches_scalar():
    fn = scaled_logistic(3.0, 0.5, 1.0)
    xs = np.array([-1.0, 0.0, 2.5, 7.0])
    np.testing.assert_allclose(fn_eval(fn, xs), [fn_eval(fn, x) for x in xs])
    np.testing.assert_allclose(fn_deriv(fn, xs), [fn_deriv(fn, x) for x in xs])
    assert isinstance(fn_eval(fn, 1.0), float)


# --- table variant ---


def test_table_interpolates_and_extrapolates_flat():
    fn = table_fn([(0.0, 0.0), (1.0, 2.0), (3.0, 2.5)])
    assert fn_eval(fn, 0.5) == pytest.approx(1.0)
    assert fn_eval(fn, 2.0) == pytest.approx(2.25)
    assert fn_eval(fn, -5.0) == 0.0     # flat below range
    assert fn_eval(fn, 10.0) == 2.5     # flat above range


def test_table_derivative_uses_right_segment_and_zero_outside():
    fn = table_fn([(0.0, 0.0), (1.0, 2.0), (3.0, 2.5)])
    assert fn_deriv(fn, 0.0) == pytest.approx(2.0)    # slope of [0,1] segment
    assert fn_deriv(fn, 1.0) == pytest.approx(0.25)   # right segment at a knot
    assert fn_deriv(fn, 0.5) == pytest.approx(2.0)
    assert fn_deriv(fn, -1.0) == 0.0
    assert fn_deriv(fn, 3.0) == 0.0                   # at/after the last knot
    assert fn_deriv(fn, 4.0) == 0.0


def test_table_rejects_bad_knots():
    with pytest.raises(FunctionConfigError):
        table_fn([(0.0, 0.0)])                          # too few
    with pytest.raises(FunctionConfigError):
        table_fn([(0.0, 0.0), (0.0, 1.0)])              # not strictly increasing x
    with pytest.raises(FunctionConfigError):
        table_fn([(0.0, 1.0), (1.0, 0.0)])              # decreasing y


# --- validation ---


def test_monotonicity_constraints_rejected():
    with pytest.raises(FunctionConfigError):
        linear_fn(-0.5)
    with pytest.raises(FunctionConfigError):
        sigmoid_half(-1.0, 2.0)
    with pytest.raises(FunctionConfigError):
        sigmoid_half(1.0, 0.0)
    with pytest.raises(FunctionConfigError):
        saturating_exp(1.0, -0.1, 0.0, 0.0)             # a0*a1 < 0
    with pytest.raises(FunctionConfigError):
        scaled_logistic(1.0, -2.0, 0.0)                 # gain*scale < 0
    with pytest.raises(FunctionConfigError):
        weighted_sigmoid_sum([-0.5], [1.0], [1.0])
    with pytest.raises(FunctionConfigError):
        ScalarFn(kind="nope", params={})


def test_non_finite_inputs_rejected():
    fn = linear_fn(1.0)
    with pytest.raises(FunctionDomainError):
        fn_eval(fn, np.nan)
    with pytest.raises(FunctionDomainError):
        fn_deriv(fn, np.inf)


# --- serialization ---


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_round_trip_through_dict(seed):
    fn = random_smooth_fn(np.random.default_rng(seed))
    back = ScalarFn.from_dict(fn.to_dict())
    assert back.kind == fn.kind
    for x in (0.0, 1.5, 30.0):
        assert fn_eval(back, x) == fn_eval(fn, x)


def test_table_round_trip():
    fn = table_fn([(0.0, 0.0), (2.0, 1.0), (5.0, 1.5)])
    back = ScalarFn.from_dict(fn.to_dict())
    for x in (-1.0, 0.7, 3.3, 9.0):
        assert fn_eval(back, x) == fn_eval(fn, x)


# --- array kernels ---


def random_fn(rng: np.random.Generator):
    """A function of any kind, tables included."""
    if rng.random() < 0.25:
        xs = np.cumsum(rng.uniform(0.5, 8.0, int(rng.integers(2, 6)))) - 10.0
        ys = np.cumsum(rng.uniform(0.0, 3.0, len(xs)))
        return table_fn(list(zip(xs, ys)))
    return random_smooth_fn(rng)


def evaluation_points(rng, fns):
    """Uniform draws, with table entries sometimes placed exactly on a knot."""
    x = rng.uniform(-20.0, 60.0, len(fns))
    for i, fn in enumerate(fns):
        if fn.kind == "table" and rng.random() < 0.5:
            knots = fn.params["knots"]
            x[i] = knots[int(rng.integers(len(knots)))][0]
    return x


def assert_entrywise_exact(got_value, got_deriv, fns, x):
    np.testing.assert_array_equal(got_value, [fn_eval(fn, xi) for fn, xi in zip(fns, x)])
    np.testing.assert_array_equal(got_deriv, [fn_deriv(fn, xi) for fn, xi in zip(fns, x)])


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 12))
def test_fn_vector_equals_scalar_evaluation_exactly(seed, n):
    rng = np.random.default_rng(seed)
    fns = [random_fn(rng) for _ in range(n)]
    x = evaluation_points(rng, fns)
    vec = FnVector(fns)
    assert_entrywise_exact(vec.value(x), vec.deriv(x), fns, x)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), K=st.integers(2, 4), L=st.integers(1, 4),
       sums_only=st.booleans())
def test_fn_grid_equals_scalar_evaluation_exactly(seed, K, L, sums_only):
    """Mixed kinds, or weighted sigmoid sums whose components differ per cell.
    K >= 2 keeps a lone sum out of the shared structure, which is one matrix
    product and matches only to round-off (see test_model)."""
    rng = np.random.default_rng(seed)
    if sums_only:
        grid = [[weighted_sigmoid_sum(rng.uniform(0.0, 1.0, 3), rng.uniform(0.5, 5.0, 3),
                                      rng.uniform(1.0, 30.0, 3)) for _ in range(L)]
                for _ in range(K)]
    else:
        grid = [[random_fn(rng) for _ in range(L)] for _ in range(K)]
    cells = [fn for row in grid for fn in row]
    x = evaluation_points(rng, grid[0])
    columns = np.tile(x, K)
    fg = FnGrid(grid)
    assert fg.value(x).shape == fg.deriv(x).shape == (K, L)
    assert_entrywise_exact(fg.value(x).ravel(), fg.deriv(x).ravel(), cells, columns)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_kernels_reject_non_finite_points(bad):
    fns = [linear_fn(1.0), sigmoid_half(2.0, 3.0), table_fn([(0.0, 0.0), (1.0, 1.0)])]
    # row k's weights, one set of components: the matrix-product case
    shared = [[weighted_sigmoid_sum(w, [1.0, 2.0, 3.0], [5.0, 6.0, 7.0]) for _ in range(2)]
              for w in ([0.2, 0.5, 0.1], [0.9, 0.0, 0.4])]
    mixed = [fns[:2], fns[1:]]
    for kernel, n in ((FnVector(fns), 3), (FnGrid(shared), 2), (FnGrid(mixed), 2)):
        x = np.ones(n)
        x[-1] = bad
        with pytest.raises(FunctionDomainError):
            kernel.value(x)
        with pytest.raises(FunctionDomainError):
            kernel.deriv(x)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6),
       batch=st.lists(st.integers(1, 3), min_size=1, max_size=2).map(tuple))
def test_batched_rows_equal_unbatched_calls(seed, batch):
    """Leading axes are batch axes: every row of a batched call equals the
    unbatched call bit for bit, a non-finite entry anywhere in the batch
    raises, and a wrong last-axis length is a shape error."""
    rng = np.random.default_rng(seed)
    env = random_env(seed)
    mixed = [random_fn(rng) for _ in range(3)] + [table_fn([(0.0, 0.0), (5.0, 2.0)])]
    mixed_grid = [mixed, mixed[::-1]]     # a table in every row: the cell path
    synthetic = gen_synthetic(SyntheticScenarioConfig(K=3, L=4, d=3, seed=seed % 97))
    kernels = [(env.viewer_curves, env.K), (env.provider_curves, env.L),
               (env.f_grid, env.L), (FnVector(mixed), 4), (FnGrid(mixed_grid), 4),
               (synthetic.f_grid, 4)]
    for kernel, n in kernels:
        x = rng.uniform(-20.0, 60.0, batch + (n,))
        for method in (kernel.value, kernel.deriv):
            got = method(x)
            assert got.shape == batch + method(x[(0,) * len(batch)]).shape
            for idx in np.ndindex(*batch):
                np.testing.assert_array_equal(got[idx], method(x[idx]))
            bad = x.copy()
            bad[tuple(int(rng.integers(m)) for m in bad.shape)] = (np.nan, np.inf)[seed % 2]
            with pytest.raises(FunctionDomainError):
                method(bad)
            with pytest.raises(ValueError) as err:
                method(np.ones(batch + (n + 1,)))
            assert err.type is ValueError
