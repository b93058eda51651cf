"""Self-test of the benchmark's reference evaluator (not part of the tests).

    python3 bench/check_reference.py

Checks values known in closed form, and that the reference map's fixed point
on an all-linear environment is the one ``oracles.linear_ne`` gives.  Exits
with code 1 on the first mismatch.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import reference as ref  # noqa: E402


def fn(kind, **params):
    return {"kind": kind, "params": params}


def main() -> int:
    cases = [
        ("sigmoid_half(0) = 0", ref.curve(fn("sigmoid_half", max=3.7, tau=2.5), 0.0)[0], 0.0),
        ("saturating_exp(a2) = a3",
         ref.curve(fn("saturating_exp", a0=4.0, a1=0.3, a2=-1.5, a3=0.25), -1.5)[0], 0.25),
        ("linear(2) = 2 slope + intercept",
         ref.curve(fn("linear", slope=1.5, intercept=0.5), 2.0)[0], 3.5),
        ("scaled_logistic(shift) = gain / 2",
         ref.curve(fn("scaled_logistic", gain=6.0, scale=0.7, shift=3.0), 3.0)[0], 3.0),
        ("weighted_sigmoid_sum(0) = 0",
         ref.curve(fn("weighted_sigmoid_sum", weights=[0.5, 1.0], max_values=[2.0, 1.0],
                      taus=[3.0, 7.0]), 0.0)[0], 0.0),
        ("sigmoid_half -> max / 2 far out",
         ref.curve(fn("sigmoid_half", max=3.0, tau=1.0), 1e3)[0], 1.5),
    ]
    ok = True
    for what, got, want in cases:
        got = float(got)
        good = got == want
        ok &= good
        print(f"{'ok  ' if good else 'FAIL'} {what}: {got!r}")

    from twoside_sim import LinearGameParams, linear_env, linear_ne

    B = np.array([[1.0, 0.4, 0.2], [0.3, 1.2, 0.5]])
    params = LinearGameParams(a0=0.3, a1=0.8, a2=0.6, b2=0.5, B=B)
    pi = np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3]])
    env = ref.RefEnv(linear_env(params, eta_viewer=0.5, eta_provider=0.5).to_dict())
    x = np.zeros(env.K + env.L)
    for _ in range(10000):
        nxt = env.map_vector(pi, x)
        if np.max(np.abs(nxt - x)) <= 1e-14:
            break
        x = nxt
    ne = linear_ne(params, pi)
    want = np.concatenate([ne.viewer, ne.provider])
    good = ref.close(x, want, rel=1e-10, abs_=1e-12)
    ok &= good
    print(f"{'ok  ' if good else 'FAIL'} linear fixed point = linear_ne: "
          f"worst gap {float(np.max(np.abs(x - want))):.2e}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
