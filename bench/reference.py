"""An evaluator of the model written apart from the package.

It reads an environment from the plain dictionary that
``EnvironmentSpec.to_dict()`` produces and evaluates the curves, the payoffs,
the one-step map, the look-ahead objective and a finite-difference Jacobian
with numpy alone.  The benchmark checks the package's outputs against it, so
it imports nothing from ``twoside_sim``.

Curve formulas (sigma is the logistic function, computed through tanh):

    linear                slope * x + intercept
    sigmoid_half          max * (sigma(x / tau) - 0.5)
    saturating_exp        a0 * (1 - exp(-a1 * (x - a2))) + a3
    scaled_logistic       gain * sigma(scale * (x - shift))
    weighted_sigmoid_sum  sum_i weights_i * max_values_i * (sigma(x / taus_i) - 0.5)
"""

from __future__ import annotations

import numpy as np


def sigma(z):
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(z, dtype=float)))


class Curves:
    """A fixed list of curves, evaluated together: entry i at x[i]."""

    def __init__(self, fds: list[dict]):
        self.n = len(fds)
        self._groups = []
        kinds = sorted({fd["kind"] for fd in fds})
        for kind in kinds:
            idx = np.array([i for i, fd in enumerate(fds) if fd["kind"] == kind])
            params = [fds[i]["params"] for i in idx]
            if kind == "weighted_sigmoid_sum":
                width = max(len(p["weights"]) for p in params)
                arrays = {}
                for key, pad in (("weights", 0.0), ("max_values", 1.0), ("taus", 1.0)):
                    arr = np.full((len(params), width), pad)
                    for row, p in enumerate(params):
                        arr[row, :len(p[key])] = p[key]
                    arrays[key] = arr
            elif kind in ("linear", "sigmoid_half", "saturating_exp", "scaled_logistic"):
                arrays = {key: np.array([float(p[key]) for p in params])
                          for key in params[0]}
            else:
                raise ValueError(f"the reference evaluator has no formula for {kind!r}")
            self._groups.append((kind, idx, arrays))

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.empty(self.n)
        for kind, idx, p in self._groups:
            xi = x[idx]
            if kind == "linear":
                out[idx] = p["slope"] * xi + p["intercept"]
            elif kind == "sigmoid_half":
                out[idx] = p["max"] * (sigma(xi / p["tau"]) - 0.5)
            elif kind == "saturating_exp":
                out[idx] = p["a0"] * (1.0 - np.exp(-p["a1"] * (xi - p["a2"]))) + p["a3"]
            elif kind == "scaled_logistic":
                out[idx] = p["gain"] * sigma(p["scale"] * (xi - p["shift"]))
            else:
                comp = sigma(xi[:, None] / p["taus"]) - 0.5
                out[idx] = (p["weights"] * p["max_values"] * comp).sum(axis=1)
        return out


def curve(fd: dict, x) -> np.ndarray:
    """One curve evaluated at every point of x (a scalar or a 1-d array)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return Curves([fd] * x.size)(x)


class RefEnv:
    """The one-step map of an environment dictionary.

    viewer'   = (1 - eta_v) * viewer   + eta_v * lambda_bar_viewer(s)
    provider' = (1 - eta_p) * provider + eta_p * lambda_bar_provider(e)

    each multiplied by (1 + xi) when noise draws are given, then clipped at 0,
    with q = B + f(provider) column-wise, s = rowsum(pi * q), e = pi^T viewer.
    """

    def __init__(self, d: dict):
        self.K, self.L = int(d["K"]), int(d["L"])
        self.B = np.array(d["B"], dtype=float).reshape(self.K, self.L)
        self.eta_v = np.array(d["eta_viewer"], dtype=float)
        self.eta_p = np.array(d["eta_provider"], dtype=float)
        noise = d.get("noise")
        self.noise_std = 0.0 if noise is None else float(noise["relative_std"])
        self._f = Curves([fd for row in d["f"] for fd in row])
        self._ref_v = Curves(d["lambda_bar_viewer"])
        self._ref_p = Curves(d["lambda_bar_provider"])

    def utilities(self, provider) -> np.ndarray:
        """q = B + f(provider), entry (k, l) evaluated at provider[l]."""
        x = np.tile(np.asarray(provider, dtype=float), self.K)
        return self.B + self._f(x).reshape(self.K, self.L)

    def payoffs(self, pi, viewer, provider):
        """(q, s, e) under policy pi at the given populations."""
        pi = np.asarray(pi, dtype=float)
        q = self.utilities(provider)
        return q, (pi * q).sum(axis=1), pi.T @ np.asarray(viewer, dtype=float)

    def step(self, pi, viewer, provider, xi_viewer=None, xi_provider=None):
        viewer = np.asarray(viewer, dtype=float)
        provider = np.asarray(provider, dtype=float)
        _, s, e = self.payoffs(pi, viewer, provider)
        new_v = (1.0 - self.eta_v) * viewer + self.eta_v * self._ref_v(s)
        new_p = (1.0 - self.eta_p) * provider + self.eta_p * self._ref_p(e)
        if xi_viewer is not None:
            new_v = new_v * (1.0 + xi_viewer)
            new_p = new_p * (1.0 + xi_provider)
        return np.maximum(new_v, 0.0), np.maximum(new_p, 0.0)

    def map_vector(self, pi, x: np.ndarray) -> np.ndarray:
        """The noiseless map on the stacked vector (viewer, provider)."""
        v, p = self.step(pi, x[:self.K], x[self.K:])
        return np.concatenate([v, p])

    def fd_jacobian(self, pi, viewer, provider, rel_h: float = 1e-6) -> np.ndarray:
        """Central finite differences of the noiseless map."""
        x = np.concatenate([np.asarray(viewer, float), np.asarray(provider, float)])
        n = x.size
        J = np.empty((n, n))
        for j in range(n):
            h = rel_h * max(1.0, abs(x[j]))
            up, down = x.copy(), x.copy()
            up[j] += h
            down[j] -= h
            J[:, j] = (self.map_vector(pi, up) - self.map_vector(pi, down)) / (2.0 * h)
        return J

    def lookahead_objective(self, pi, viewer, provider, gamma: float) -> float:
        """Welfare one reaction ahead: anticipated viewers times the mean
        utility of the softmax-myopic policy at the anticipated providers."""
        _, s, e = self.payoffs(pi, viewer, provider)
        big_lambda = self._ref_v(s)
        w = self.utilities(self._ref_p(e))
        z = np.exp(gamma * (w - w.max(axis=1, keepdims=True)))
        soft = z / z.sum(axis=1, keepdims=True)
        return float(big_lambda @ (soft * w).sum(axis=1))


def greedy(q: np.ndarray) -> np.ndarray:
    """Per-row argmax indicator; ties go to the lowest column."""
    out = np.zeros_like(q)
    out[np.arange(q.shape[0]), np.argmax(q, axis=1)] = 1.0
    return out


def row_stochastic(pi, tol: float = 1e-9) -> bool:
    pi = np.asarray(pi, dtype=float)
    return bool(pi.ndim == 2 and np.all(np.isfinite(pi)) and np.all(pi >= 0.0)
                and np.all(np.abs(pi.sum(axis=1) - 1.0) <= tol))


def close(a, b, rel: float = 1e-9, abs_: float = 1e-9) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return bool(a.shape == b.shape
                and np.all(np.abs(a - b) <= abs_ + rel * np.maximum(np.abs(a), np.abs(b))))
