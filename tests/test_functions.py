import warnings

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

from conftest import random_env, random_smooth_fn, reference_slope, reference_value


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


# (curve entry, words its refusal names): the kind and the key at fault
@pytest.mark.parametrize("entry,names", [
    ({"kind": "linear"}, ["params"]),
    ([["linear", {"slope": 1.0}]], ["params"]),
    ({"kind": "linear", "params": [1.0, 0.0]}, ["params"]),
    ({"kind": "linear", "params": {}}, ["linear", "slope"]),
    ({"kind": "linear", "params": {"slope": 1.0, "intercept": 0.0, "colour": 1.0}},
     ["linear", "colour"]),
    ({"kind": "linear", "params": {"slope": "a", "intercept": 0.0}}, ["linear", "slope"]),
    ({"kind": "linear", "params": {"slope": True, "intercept": 0.0}}, ["linear", "slope"]),
    ({"kind": "sigmoid_half", "params": {"max": 1.0, "tau": np.nan}}, ["sigmoid_half", "tau"]),
    ({"kind": "sigmoid_half", "params": {"max": 10**400, "tau": 1.0}}, ["sigmoid_half", "max"]),
    ({"kind": "table", "params": {"knots": [[0.0, 0.0], [1.0]]}}, ["table", "knots"]),
    ({"kind": "table", "params": {"knots": [[0.0, 0.0, 1.0], [1.0, 1.0, 2.0]]}},
     ["table", "knots"]),
    ({"kind": "weighted_sigmoid_sum",
      "params": {"weights": [1.0], "max_values": ["1"], "taus": [1.0]}},
     ["weighted_sigmoid_sum", "max_values"]),
    ({"kind": "quadratic", "params": {}}, ["quadratic"]),
    ({"kind": "linear", "params": {"slope": 1.0, "intercept": 0.0}, "colour": 1}, ["colour"]),
])
def test_from_dict_refuses_a_malformed_curve(entry, names):
    with pytest.raises(FunctionConfigError) as err:
        ScalarFn.from_dict(entry)
    assert all(name in str(err.value) for name in names)


@pytest.mark.parametrize("make,args,kind,params", [
    (linear_fn, (10**400,), "linear", {"slope": 10**400, "intercept": 0.0}),
    (sigmoid_half, (1.0, 10**400), "sigmoid_half", {"max": 1.0, "tau": 10**400}),
    (saturating_exp, (1.0, 0.5, 0.0, -10**400), "saturating_exp",
     {"a0": 1.0, "a1": 0.5, "a2": 0.0, "a3": -10**400}),
    (scaled_logistic, (1.0, 10**400, 0.0), "scaled_logistic",
     {"gain": 1.0, "scale": 10**400, "shift": 0.0}),
    (table_fn, ([(0.0, 0.0), (10**400, 1.0)],), "table",
     {"knots": [(0.0, 0.0), (10**400, 1.0)]}),
    (weighted_sigmoid_sum, ([1.0], [10**400], [1.0]), "weighted_sigmoid_sum",
     {"weights": [1.0], "max_values": [10**400], "taus": [1.0]}),
])
def test_helpers_refuse_an_int_past_the_float_range_as_from_dict_does(make, args, kind, params):
    with pytest.raises(FunctionConfigError) as want:
        ScalarFn.from_dict({"kind": kind, "params": params})
    with pytest.raises(FunctionConfigError) as got:
        make(*args)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("make,args,kind,params", [
    (table_fn, ([[0, 1], [1]],), "table", {"knots": [[0, 1], [1]]}),
    (table_fn, ([(0, 1, 2), (1, 2, 3)],), "table", {"knots": [(0, 1, 2), (1, 2, 3)]}),
    (linear_fn, (None,), "linear", {"slope": None, "intercept": 0.0}),
    (saturating_exp, (None, 1, 1, 1), "saturating_exp", {"a0": None, "a1": 1, "a2": 1, "a3": 1}),
    (sigmoid_half, ("x", 1.0), "sigmoid_half", {"max": "x", "tau": 1.0}),
    (scaled_logistic, ("a", 1, 1), "scaled_logistic", {"gain": "a", "scale": 1, "shift": 1}),
], ids=["ragged-knots", "triple-knots", "linear-none", "saturating-none", "sigmoid-string",
        "logistic-string"])
def test_helpers_refuse_what_float_cannot_convert_as_from_dict_does(make, args, kind, params):
    """A value float() refuses reaches the kind's check, which names the kind."""
    with pytest.raises(FunctionConfigError) as want:
        ScalarFn.from_dict({"kind": kind, "params": params})
    with pytest.raises(FunctionConfigError) as got:
        make(*args)
    assert str(got.value) == str(want.value)
    assert kind in str(got.value)


def test_helpers_refuse_a_list_of_lists_as_from_dict_does():
    params = {"weights": [[1.0]], "max_values": [[1.0]], "taus": [[1.0]]}
    with pytest.raises(FunctionConfigError) as want:
        ScalarFn.from_dict({"kind": "weighted_sigmoid_sum", "params": params})
    with pytest.raises(FunctionConfigError) as got:
        weighted_sigmoid_sum([[1.0]], [[1.0]], [[1.0]])
    assert str(got.value) == str(want.value)
    assert "weighted_sigmoid_sum" in str(got.value)


def test_a_curve_keeps_its_parameters_when_the_caller_changes_them():
    params = {"slope": 1.0, "intercept": 0.0}
    line = ScalarFn("linear", params)
    params["slope"] = -5.0
    assert fn_eval(line, 2.0) == 2.0 and line.params["slope"] == 1.0
    weights = [1.0, 1.0]
    wss = ScalarFn("weighted_sigmoid_sum",
                   {"weights": weights, "max_values": [1.0, 2.0], "taus": [1.0, 3.0]})
    weights[0] = -3.0
    assert fn_eval(wss, 1.0) < fn_eval(wss, 2.0) and wss.params["weights"] == [1.0, 1.0]
    knots = [[0.0, 0.0], [1.0, 1.0]]
    table = ScalarFn("table", {"knots": knots})
    knots[1][1] = -1.0
    assert fn_eval(table, 1.0) == 1.0


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


def one_of_each_kind(rng: np.random.Generator):
    """One function of every kind, with random parameters."""
    d = int(rng.integers(1, 4))
    return [linear_fn(rng.uniform(0.0, 2.0), rng.uniform(-3.0, 3.0)),
            sigmoid_half(rng.uniform(1.0, 50.0), rng.uniform(0.5, 20.0)),
            saturating_exp(rng.uniform(0.5, 20.0), rng.uniform(0.01, 0.5),
                           rng.uniform(-5.0, 5.0), rng.uniform(0.0, 5.0)),
            scaled_logistic(rng.uniform(1.0, 30.0), rng.uniform(0.05, 2.0),
                            rng.uniform(-5.0, 10.0)),
            weighted_sigmoid_sum(rng.uniform(0.0, 1.0, d), rng.uniform(0.5, 5.0, d),
                                 rng.uniform(1.0, 30.0, d)),
            table_fn([(-3.0, 0.0), (1.0, 2.0), (8.0, 2.5)])]


def evaluation_points(rng, fns):
    """Uniform draws, with table entries sometimes placed exactly on a knot."""
    x = rng.uniform(-20.0, 60.0, len(fns))
    for i, fn in enumerate(fns):
        if fn.kind == "table" and rng.random() < 0.5:
            knots = fn.params["knots"]
            x[i] = knots[int(rng.integers(len(knots)))][0]
    return x


def assert_entrywise_exact(got_value, got_deriv, fns, x):
    """Entry i equals the scalar reference formulas of fns[i] at x[i] bit for bit."""
    np.testing.assert_array_equal(got_value, [reference_value(fn, xi) for fn, xi in zip(fns, x)])
    np.testing.assert_array_equal(got_deriv, [reference_slope(fn, xi) for fn, xi in zip(fns, x)])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_fn_eval_and_fn_deriv_follow_the_shape_of_x(seed):
    """A float for a float or 0-d x, an array of x's shape for a 1-D or 2-D x,
    every point equal to the scalar reference bit for bit, for every kind."""
    rng = np.random.default_rng(seed)
    for fn in one_of_each_kind(rng):
        points = evaluation_points(rng, [fn] * 12)
        for x in (float(points[0]), np.array(points[1]), points, points.reshape(3, 4),
                  points.reshape(4, 3).T):
            for call, reference in ((fn_eval, reference_value), (fn_deriv, reference_slope)):
                got = call(fn, x)
                want = [reference(fn, xi) for xi in np.ravel(x)]
                if np.ndim(x) == 0:
                    assert type(got) is float and got == want[0], (fn.kind, call)
                else:
                    assert isinstance(got, np.ndarray) and got.shape == x.shape, (fn.kind, call)
                    np.testing.assert_array_equal(got.ravel(), want, err_msg=fn.kind)


def test_fn_deriv_warns_only_when_the_slope_overflows():
    """The value computed beside the slope may overflow where the slope does
    not; fn_deriv then returns the slope without a warning, which the test
    run would raise.  A slope that overflows still warns."""
    steep = linear_fn(1e300)
    assert fn_deriv(steep, 1e10) == 1e300
    np.testing.assert_array_equal(fn_deriv(steep, np.array([[1e10], [-1e10]])),
                                  np.full((2, 1), 1e300))
    fn = saturating_exp(1e300, 0.5, 0.0, 0.0)
    assert fn_deriv(fn, -39.0) == reference_slope(fn, -39.0)     # value 2.9e308
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert fn_deriv(fn, -3000.0) == np.inf
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        fn_deriv(fn, np.array([-39.0, -3000.0]))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 12))
def test_fn_vector_equals_scalar_evaluation_exactly(seed, n):
    rng = np.random.default_rng(seed)
    fns = [random_fn(rng) for _ in range(n)]
    x = evaluation_points(rng, fns)
    vec = FnVector(fns)
    value, deriv = vec.value_and_deriv(x)
    assert_entrywise_exact(vec.value(x), deriv, fns, x)
    assert_entrywise_exact(value, deriv, fns, x)


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
    value, deriv = fg.value_and_deriv(x)
    assert fg.value(x).shape == value.shape == deriv.shape == (K, L)
    assert_entrywise_exact(fg.value(x).ravel(), deriv.ravel(), cells, columns)
    assert_entrywise_exact(value.ravel(), deriv.ravel(), cells, columns)


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
        for method in (kernel.value, kernel.value_and_deriv):
            with pytest.raises(FunctionDomainError):
                method(x)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6),
       batch=st.lists(st.integers(1, 3), min_size=1, max_size=2).map(tuple))
def test_batched_rows_equal_unbatched_calls(seed, batch):
    """Leading axes are batch axes: every row of a batched call equals the
    unbatched call bit for bit, a non-finite entry anywhere in the batch
    raises, and a wrong last-axis length is a shape error.  The same holds
    for value_and_deriv, whose value equals value bit for bit, batched and
    not."""
    rng = np.random.default_rng(seed)
    env = random_env(seed)
    each = one_of_each_kind(rng)
    mixed = [random_fn(rng) for _ in range(3)] + [table_fn([(0.0, 0.0), (5.0, 2.0)])]
    mixed_grid = [mixed, mixed[::-1]]     # a table in every row: the cell path
    synthetic = gen_synthetic(SyntheticScenarioConfig(K=3, L=4, d=3, seed=seed % 97))
    kernels = [(env.curves, env.K + env.L), (env.f_grid, env.L), (FnVector(mixed), 4),
               (FnGrid(mixed_grid), 4), (synthetic.f_grid, 4), (FnVector(each), 6), (FnGrid([each, each[::-1]]), 6)]
    kernels += [(FnVector([fn, fn]), 2) for fn in each]    # one kind: the single-group path
    for kernel, n in kernels:
        x = rng.uniform(-20.0, 60.0, batch + (n,))
        for rows in (x, x[(0,) * len(batch)]):
            np.testing.assert_array_equal(kernel.value_and_deriv(rows)[0], kernel.value(rows))

        def fused(x, kernel=kernel):
            return np.stack(kernel.value_and_deriv(x), axis=-1)

        for method in (kernel.value, fused):
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


# --- accuracy of the closed sigmoid forms ---


def logistic_ld(u):
    return 1.0 / (1.0 + np.exp(-u))


def sigmoid_cases():
    """(fn, z, x, reference value, reference slope, value scale, peak slope)
    on z in [-40, 40], the references in np.longdouble from the float64
    points x."""
    ld = np.longdouble
    z = np.linspace(-40.0, 40.0, 8001)
    for max_value, tau in ((3.0, 0.5), (10.0, 7.3), (47.0, 13.1)):
        x = z * tau
        sig = logistic_ld(x.astype(ld) / ld(tau))
        yield (sigmoid_half(max_value, tau), z, x, ld(max_value) * (sig - ld(0.5)),
               ld(max_value) / ld(tau) * sig * (1 - sig), max_value, max_value / (4 * tau))
    for gain, scale, shift in ((2.0, 1.0, 0.0), (13.0, 0.37, 4.2), (30.0, 0.05, -3.3)):
        x = z / scale + shift
        sig = logistic_ld(ld(scale) * (x.astype(ld) - ld(shift)))
        yield (scaled_logistic(gain, scale, shift), z, x, ld(gain) * sig,
               ld(gain) * ld(scale) * sig * (1 - sig), gain, gain * scale / 4)
    w, m, t = np.array([0.3, 0.9, 0.5]), np.array([1.5, 4.0, 2.2]), np.array([2.0, 9.0, 25.0])
    x = z * 9.0
    sig = logistic_ld(np.multiply.outer(x.astype(ld), 1 / t.astype(ld)))
    yield (weighted_sigmoid_sum(w, m, t), z, x, (sig - ld(0.5)) @ (w * m).astype(ld),
           (sig * (1 - sig)) @ (w.astype(ld) * m / t), (w * m).sum(), (w * m / t).sum() / 4)


@pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(float).eps,
                    reason="np.longdouble is float64 here, so it is no reference")
def test_sigmoid_kinds_are_accurate_against_longdouble():
    """Over z in [-40, 40], values are within 2 eps of the curve's scale (max,
    gain or the summed w * max) and slopes within 2 eps of the peak slope.  A
    half sigmoid's value is within 4 eps relatively for z in (0, 2), where
    sigma(z) - 1/2 would cancel."""
    eps = np.finfo(float).eps
    for fn, z, x, ref_value, ref_slope, value_scale, peak_slope in sigmoid_cases():
        value_err = np.abs(fn_eval(fn, x).astype(np.longdouble) - ref_value)
        slope_err = np.abs(fn_deriv(fn, x).astype(np.longdouble) - ref_slope)
        assert float(value_err.max()) <= 2 * eps * value_scale, fn
        assert float(slope_err.max()) <= 2 * eps * peak_slope, fn
        if fn.kind != "scaled_logistic":
            near = (z > 0) & (z < 2)
            assert float((value_err[near] / ref_value[near]).max()) <= 4 * eps, fn


@pytest.mark.parametrize("x", [800.0, 1e6])
def test_sigmoid_tails_are_exact_limits_without_warnings(x):
    cases = [(scaled_logistic(2.0, 1.0, 0.0), 0.0, 2.0), (sigmoid_half(3.0, 0.5), -1.5, 1.5),
             (weighted_sigmoid_sum([1.0, 0.5], [2.0, 4.0], [0.5, 3.0]), -2.0, 2.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn, lower, upper in cases:
            assert (fn_eval(fn, -x), fn_eval(fn, x)) == (lower, upper)
            assert fn_deriv(fn, -x) == fn_deriv(fn, x) == 0.0
            value, deriv = FnVector([fn, fn]).value_and_deriv(np.array([-x, x]))
            assert value.tolist() == [lower, upper] and deriv.tolist() == [0.0, 0.0]
