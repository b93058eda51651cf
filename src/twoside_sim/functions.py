"""Closed family of monotone scalar functions with analytic derivatives.

Every reference-population curve and population-effect curve in the simulator
is one of the variants below.  Keeping the family closed (instead of accepting
arbitrary callables) makes environments serializable and keeps every derivative
exact, which the look-ahead optimizer relies on.

Variants:
    linear              slope * x + intercept            (slope >= 0)
    sigmoid_half        max * (sigma(x / tau) - 0.5)     (upper half of a sigmoid)
    saturating_exp      a0 * (1 - exp(-a1 * (x - a2))) + a3
    scaled_logistic     gain * sigma(scale * (x - shift))
    table               monotone piecewise-linear interpolation, flat outside
    weighted_sigmoid_sum  sum_i w_i * max_i * (sigma(x / tau_i) - 0.5)

The weighted sum of half-sigmoids exists so that feature-weighted quality
curves can be represented with exact gradients instead of being tabulated.

Every sigmoid is evaluated in closed form through sigma(z) = (1 + tanh(z/2)) / 2,
so sigma(z)(1 - sigma(z)) = (1 - tanh(z/2)^2) / 4: one np.tanh gives the value
and the slope, cannot overflow, and loses no digits to cancellation near
sigma = 1/2.

Each kind is one kernel class at the end of this module, the only place its
parameter checks, value and slope are written.  fn_eval / fn_deriv evaluate
one function through a one-function kernel of its kind, built for the call.
fn_deriv warns only when the slope is not finite, not when the value computed
beside it overflows.  FnVector and FnGrid evaluate a whole side's curves, or
the K x L population-effect grid, in a few array operations; every
EnvironmentSpec builds them once, at construction.  Both take leading
batch axes: row i of a batched call equals the unbatched call on row i bit
for bit.  They have two calls, value and value_and_deriv, the latter
returning value and slope from one pass.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field
from typing import Any

import numpy as np

from .kinds import _read


class FunctionDomainError(ValueError):
    """An evaluation point is outside the variant's domain."""


class FunctionConfigError(ValueError):
    """The variant's parameters do not describe a valid monotone function."""


@dataclass(frozen=True)
class ScalarFn:
    """One member of the closed function family.

    ``params`` holds plain floats (or lists for the table / weighted-sum
    variants) so the value serializes directly to JSON.  Instances are
    immutable; construct them through the helpers below, which validate.
    """

    kind: str
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _KERNELS:
            raise FunctionConfigError(f"unknown function kind {self.kind!r}")
        object.__setattr__(self, "params", _copied(self.params))
        _KERNELS[self.kind].check(self.params)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "params": _jsonable_params(self.params)}

    @staticmethod
    def from_dict(d: dict) -> "ScalarFn":
        fn = _read(d, "curve {kind, params}", {"kind": (None, MISSING), "params": (dict, MISSING)},
                   FunctionConfigError)
        return ScalarFn(kind=fn["kind"], params=fn["params"])


_PLAIN_NUMBERS = {float, int}


def _copied(value):
    """`value` with every dict, list and array in it copied, so that a checked
    curve shares no mutable parameter with its caller.  A list of plain
    numbers is copied whole, with no call per entry (a 20-component weighted
    sigmoid sum is one of 400 curves of a 20 x 20 environment)."""
    if isinstance(value, dict):
        return {key: _copied(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        if set(map(type, value)) <= _PLAIN_NUMBERS:
            return value[:] if isinstance(value, list) else value
        return list(map(_copied, value)) if isinstance(value, list) else tuple(map(_copied, value))
    return value.copy() if isinstance(value, np.ndarray) else value


def _params(kind: str, params, **annotations) -> list[np.ndarray]:
    """The parameters of a `kind` curve, each required and of its annotation
    (float, or np.ndarray for finite numbers in one or two axes), read by
    kinds._read and returned as float arrays."""
    read = _read(params, f"{kind} params", {key: (a, MISSING) for key, a in annotations.items()},
                 FunctionConfigError)
    return [np.asarray(value, dtype=float) for value in read.values()]


def _jsonable_params(p: dict) -> dict:
    out = {}
    for key, value in p.items():
        if isinstance(value, np.ndarray):
            out[key] = value.tolist()
        elif isinstance(value, (list, tuple)):
            out[key] = [list(v) if isinstance(v, (list, tuple)) else float(v) for v in value]
        else:
            out[key] = float(value)
    return out


# ---------------------------------------------------------------------------
# constructors


def linear_fn(slope: float, intercept: float = 0.0) -> ScalarFn:
    return ScalarFn("linear", {"slope": _float(slope), "intercept": _float(intercept)})


def sigmoid_half(max_value: float, tau: float) -> ScalarFn:
    """Upper half of a sigmoid: max * (sigma(x / tau) - 0.5); zero at x = 0."""
    return ScalarFn("sigmoid_half", {"max": _float(max_value), "tau": _float(tau)})


def saturating_exp(a0: float, a1: float, a2: float, a3: float) -> ScalarFn:
    return ScalarFn("saturating_exp",
                    {"a0": _float(a0), "a1": _float(a1), "a2": _float(a2), "a3": _float(a3)})


def scaled_logistic(gain: float, scale: float, shift: float) -> ScalarFn:
    return ScalarFn("scaled_logistic",
                    {"gain": _float(gain), "scale": _float(scale), "shift": _float(shift)})


def table_fn(knots: list[tuple[float, float]]) -> ScalarFn:
    pairs = _converted(lambda k: [(float(x), float(y)) for x, y in k], knots)
    return ScalarFn("table", {"knots": pairs})


def weighted_sigmoid_sum(weights, max_values, taus) -> ScalarFn:
    """Non-negatively weighted sum of sigmoid_half components."""
    return ScalarFn("weighted_sigmoid_sum", {
        "weights": _floats(weights), "max_values": _floats(max_values), "taus": _floats(taus)})


# A value the helper cannot convert to floats (None, a string that is not a
# number, an int past the largest float, knots that are not pairs, values that
# are not one flat list of numbers) is kept as given, so that the kind's
# parameter check refuses it by name, as from_dict does.

def _converted(convert, value):
    try:
        return convert(value)
    except (OverflowError, TypeError, ValueError):
        return value


def _float(value):
    return _converted(float, value)


def _floats(values):
    return _converted(lambda v: [float(x) for x in np.asarray(v, dtype=float)], values)


# ---------------------------------------------------------------------------
# evaluation


def fn_eval(fn: ScalarFn, x):
    """Evaluate fn at x: a float for a scalar or 0-d x, else an array of x's shape."""
    return _pointwise(_KERNELS[fn.kind]([fn]).value, x)


def fn_deriv(fn: ScalarFn, x):
    """Analytic derivative of fn at x (right-hand slope at table knots),
    returned as fn_eval returns the value."""
    kernel = _KERNELS[fn.kind]([fn])
    return _pointwise(lambda x: _slope(kernel, x), x)


def _slope(kernel, x: np.ndarray) -> np.ndarray:
    """The kernel's slope at x, warning only if the slope is not finite: the
    value computed beside it can overflow where the slope does not (a steep
    linear curve, a saturating_exp far below a2)."""
    with np.errstate(over="ignore", invalid="ignore"):
        slope = kernel.value_and_deriv(x)[1]
    if not np.isfinite(slope).all():
        kernel.value_and_deriv(x)       # warns, or raises, as numpy is set to
    return slope


def _pointwise(method, x):
    """A one-function kernel's `method` at every point of x: each point is an
    entry of its own along a new last axis of length 1."""
    arr = np.asarray(x, dtype=float)
    if not np.isfinite(arr).all():
        raise FunctionDomainError(f"non-finite evaluation point {x!r}")
    out = method(arr[..., None])[..., 0]
    return out if arr.ndim else float(out)


# ---------------------------------------------------------------------------
# array kernels: many functions evaluated at once


class FnVector:
    """A sequence of ScalarFn evaluated as one: entry i is fns[i](x[..., i]).

    The parameters are grouped into arrays by kind once, at construction, so
    value and value_and_deriv cost a few array operations per kind present
    instead of one Python call per entry.  Each group runs its kind's kernel,
    the same code fn_eval / fn_deriv run, so entry i equals fn_eval /
    fn_deriv of fns[i] at x[..., i] bit for bit; weighted sigmoid sums are
    grouped by component count.  Any leading axes of x are batch axes, and
    the parameters broadcast over the last one.
    """

    def __init__(self, fns):
        fns = tuple(fns)
        self.size = len(fns)
        members: dict[tuple[str, int], list[int]] = {}
        for i, fn in enumerate(fns):
            d = len(fn.params["weights"]) if fn.kind == "weighted_sigmoid_sum" else 0
            members.setdefault((fn.kind, d), []).append(i)
        self._groups = tuple(
            (slice(None) if len(idx) == self.size else np.asarray(idx),
             _KERNELS[kind]([fns[i] for i in idx]))
            for (kind, _), idx in members.items())

    def value(self, x) -> np.ndarray:
        """fns[i](x[..., i]) for every i; x must be finite, with a last axis
        of length size.  The result has the shape of x."""
        return self._apply(_finite_vector(x, self.size))

    def value_and_deriv(self, x) -> tuple[np.ndarray, np.ndarray]:
        """(value(x), fns[i]'(x[..., i]) for every i) from one pass and one
        finiteness check, the slope taken from the right at table knots; the
        value equals value(x) bit for bit."""
        return self._apply_both(_finite_vector(x, self.size))

    def _apply(self, x: np.ndarray) -> np.ndarray:
        if len(self._groups) == 1:
            return self._groups[0][1].value(x)
        out = np.empty(x.shape)
        for idx, kernel in self._groups:
            out[..., idx] = kernel.value(x[..., idx])
        return out

    def _apply_both(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if len(self._groups) == 1:
            return self._groups[0][1].value_and_deriv(x)
        value, deriv = np.empty(x.shape), np.empty(x.shape)
        for idx, kernel in self._groups:
            value[..., idx], deriv[..., idx] = kernel.value_and_deriv(x[..., idx])
        return value, deriv


class FnGrid:
    """A K x L ScalarFn grid evaluated column-wise: entry (k, l) is
    grid[k][l](x[..., l]), so x of shape (..., L) gives (..., K, L).

    When every entry is a weighted_sigmoid_sum whose weights depend only on k
    and whose components depend only on l (the grids gen_synthetic builds),
    the grid is one matrix product of the weights with the L columns'
    components, equal to the entrywise values to round-off.  Any other grid
    is one FnVector over its cells, exact entry by entry.
    """

    def __init__(self, grid):
        grid = tuple(tuple(row) for row in grid)
        self.shape = (len(grid), len(grid[0]))
        shared = _shared_sigmoid_components(grid)
        if shared is None:
            self._cells = FnVector(fn for row in grid for fn in row)
            self._cell_columns = np.tile(np.arange(self.shape[1]), self.shape[0])   # cell -> l
        else:
            self._cells = None
            self._weights, max_values, taus = shared   # (K, d), (L, d), (L, d)
            self._half_max, self._two_taus = 0.5 * max_values, 2.0 * taus
            self._slopes = max_values / (4.0 * taus)

    def value(self, x) -> np.ndarray:
        return self._apply(_finite_vector(x, self.shape[1]))

    def value_and_deriv(self, x) -> tuple[np.ndarray, np.ndarray]:
        """(value(x), the slope of entry (k, l) at x[..., l]) from one pass and
        one finiteness check; the value equals value(x) bit for bit."""
        return self._apply_both(_finite_vector(x, self.shape[1]))

    def _apply(self, x: np.ndarray) -> np.ndarray:
        if self._cells is not None:
            return self._cells._apply(x[..., self._cell_columns]).reshape(
                x.shape[:-1] + self.shape)
        comp = self._half_max * np.tanh(x[..., None] / self._two_taus)     # (..., L, d)
        return self._weights @ comp.swapaxes(-1, -2)

    def _apply_both(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if self._cells is not None:
            shape = x.shape[:-1] + self.shape
            value, deriv = self._cells._apply_both(x[..., self._cell_columns])
            return value.reshape(shape), deriv.reshape(shape)
        th = np.tanh(x[..., None] / self._two_taus)                        # (..., L, d)
        return (self._weights @ (self._half_max * th).swapaxes(-1, -2),
                self._weights @ (self._slopes * (1.0 - th * th)).swapaxes(-1, -2))


def _finite_vector(x, n: int) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.shape[-1:] != (n,):
        raise ValueError(f"expected {n} evaluation points along the last axis, "
                         f"got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise FunctionDomainError(f"non-finite evaluation point in {arr!r}")
    return arr


def _shared_sigmoid_components(grid):
    """(weights (K, d), max_values (L, d), taus (L, d)) when every entry (k, l)
    is a weighted_sigmoid_sum with row k's weights and column l's components;
    None otherwise."""
    if not all(fn.kind == "weighted_sigmoid_sum" for row in grid for fn in row):
        return None
    weights = [tuple(row[0].params["weights"]) for row in grid]
    max_values = [tuple(fn.params["max_values"]) for fn in grid[0]]
    taus = [tuple(fn.params["taus"]) for fn in grid[0]]
    for k, row in enumerate(grid):
        for l, fn in enumerate(row):
            p = fn.params
            if (tuple(p["weights"]) != weights[k] or tuple(p["max_values"]) != max_values[l]
                    or tuple(p["taus"]) != taus[l]):
                return None
    return (np.asarray(weights, dtype=float), np.asarray(max_values, dtype=float),
            np.asarray(taus, dtype=float))


def _column(fns: list[ScalarFn], key: str) -> np.ndarray:
    return np.asarray([fn.params[key] for fn in fns], dtype=float)


def _row_dots(coef: np.ndarray, comp: np.ndarray) -> np.ndarray:
    """coef[..., i, :] @ comp[..., i, :] for every row i, through the same dot
    as a 1-d @; leading axes broadcast."""
    return np.matmul(coef[..., None, :], comp[..., None])[..., 0, 0]


# One class per kind, the one place its formulas are written: check(params)
# is the parameter check ScalarFn runs at construction, and an instance built
# from that kind's functions holds their parameters as arrays and applies the
# value and slope elementwise, function i on x[..., i].  FnVector runs one
# per kind present, fn_eval / fn_deriv a one-function instance.
# value_and_deriv shares the one transcendental call (exp or tanh) between
# value and slope; value stays separate because rollouts need no slopes.


class _Linear:
    @staticmethod
    def check(p):
        slope, _ = _params("linear", p, slope=float, intercept=float)
        if slope < 0:
            raise FunctionConfigError("linear slope must be >= 0 for monotonicity")

    def __init__(self, fns):
        self.slope, self.intercept = (_column(fns, k) for k in ("slope", "intercept"))

    def value(self, x):
        return self.slope * x + self.intercept

    def value_and_deriv(self, x):
        deriv = np.empty(x.shape)
        deriv[...] = self.slope
        return self.value(x), deriv


class _SigmoidHalf:
    @staticmethod
    def check(p):
        max_value, tau = _params("sigmoid_half", p, max=float, tau=float)
        if max_value <= 0 or tau <= 0:
            raise FunctionConfigError("sigmoid_half requires max > 0 and tau > 0")

    def __init__(self, fns):
        max_value, tau = (_column(fns, k) for k in ("max", "tau"))
        self.half_max, self.two_tau = 0.5 * max_value, 2.0 * tau
        self.slope = max_value / (4.0 * tau)

    def value(self, x):
        return self.half_max * np.tanh(x / self.two_tau)

    def value_and_deriv(self, x):
        th = np.tanh(x / self.two_tau)
        return self.half_max * th, self.slope * (1.0 - th * th)


class _SaturatingExp:
    @staticmethod
    def check(p):
        a0, a1, _, _ = _params("saturating_exp", p, a0=float, a1=float, a2=float, a3=float)
        if a0 * a1 < 0:
            raise FunctionConfigError(
                "saturating_exp requires a0 * a1 >= 0 for monotonicity")

    def __init__(self, fns):
        a0, a1, self.a2, self.a3 = (_column(fns, k) for k in ("a0", "a1", "a2", "a3"))
        self.a0, self.neg_a1, self.a0_a1 = a0, -a1, a0 * a1

    def value(self, x):
        return self.a0 * (1.0 - np.exp(self.neg_a1 * (x - self.a2))) + self.a3

    def value_and_deriv(self, x):
        decay = np.exp(self.neg_a1 * (x - self.a2))
        return self.a0 * (1.0 - decay) + self.a3, self.a0_a1 * decay


class _ScaledLogistic:
    @staticmethod
    def check(p):
        gain, scale, _ = _params("scaled_logistic", p, gain=float, scale=float, shift=float)
        if gain * scale < 0:
            raise FunctionConfigError(
                "scaled_logistic requires gain * scale >= 0 for monotonicity")

    def __init__(self, fns):
        gain, scale, self.shift = (_column(fns, k) for k in ("gain", "scale", "shift"))
        self.half_gain, self.half_scale = 0.5 * gain, 0.5 * scale
        self.slope = 0.25 * gain * scale

    def value(self, x):
        return self.half_gain + self.half_gain * np.tanh(self.half_scale * (x - self.shift))

    def value_and_deriv(self, x):
        th = np.tanh(self.half_scale * (x - self.shift))
        return self.half_gain + self.half_gain * th, self.slope * (1.0 - th * th)


class _Table:
    @staticmethod
    def check(p):
        (knots,) = _params("table", p, knots=np.ndarray)
        if knots.shape[1:] != (2,):
            raise FunctionConfigError("table knots must be (x, y) pairs")
        if len(knots) < 2:
            raise FunctionConfigError("table requires at least 2 knots")
        xs, ys = knots.T
        if np.any(np.diff(xs) <= 0):
            raise FunctionConfigError("table knot x values must be strictly increasing")
        if np.any(np.diff(ys) < 0):
            raise FunctionConfigError("table knot y values must be non-decreasing")

    def __init__(self, fns):
        self.knots = []
        for fn in fns:
            xs, ys = np.asarray(fn.params["knots"], dtype=float).T
            self.knots.append((xs, ys, np.diff(ys) / np.diff(xs)))

    def value(self, x):
        out = np.empty(x.shape)
        for i, (xs, ys, _) in enumerate(self.knots):
            out[..., i] = np.interp(x[..., i], xs, ys)   # flat outside the knot range
        return out

    def value_and_deriv(self, x):
        deriv = np.empty(x.shape)
        for i, (xs, _, slopes) in enumerate(self.knots):
            xi = x[..., i]
            # the segment whose left knot is <= x, so the right-hand slope at a
            # knot; 0 outside the knot range, where the table is flat
            idx = np.clip(np.searchsorted(xs, xi, side="right") - 1, 0, len(slopes) - 1)
            deriv[..., i] = np.where((xi < xs[0]) | (xi >= xs[-1]), 0.0, slopes[idx])
        return self.value(x), deriv


class _WeightedSigmoidSum:
    """Functions with equally many components, as (n, d) arrays."""

    @staticmethod
    def check(p):
        w, m, t = _params("weighted_sigmoid_sum", p, weights=np.ndarray, max_values=np.ndarray,
                          taus=np.ndarray)
        if not (w.ndim == 1 and w.shape == m.shape == t.shape):
            raise FunctionConfigError("weighted_sigmoid_sum arrays must be lists of equal length")
        if np.any(w < 0) or np.any(m <= 0) or np.any(t <= 0):
            raise FunctionConfigError(
                "weighted_sigmoid_sum requires weights >= 0, max_values > 0, taus > 0")

    def __init__(self, fns):
        w, m, t = (_column(fns, k) for k in ("weights", "max_values", "taus"))
        self.coef, self.slope_coef, self.inv_two_tau = 0.5 * w * m, 0.25 * w * m / t, 0.5 / t

    def value(self, x):
        return _row_dots(self.coef, np.tanh(self.inv_two_tau * x[..., None]))

    def value_and_deriv(self, x):
        th = np.tanh(self.inv_two_tau * x[..., None])
        return _row_dots(self.coef, th), _row_dots(self.slope_coef, 1.0 - th * th)


_KERNELS = {"linear": _Linear, "sigmoid_half": _SigmoidHalf,
            "saturating_exp": _SaturatingExp, "scaled_logistic": _ScaledLogistic,
            "table": _Table, "weighted_sigmoid_sum": _WeightedSigmoidSum}
