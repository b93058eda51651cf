"""Spans and counts around the package's public functions, from outside.

``Tracer.install()`` rebinds every name that refers to a listed function
across the loaded ``twoside_sim`` modules (and the method on its class), so
calls made inside the package go through the wrapper too.  A listed function
that a later version no longer has is reported as absent, and the run goes
on without it.  ``uninstall()`` puts the original objects back.

A span records (id, name, start, end, parent id, operation id).  Each thread
keeps its own stack; a span opened on a worker thread with an empty stack
takes the outermost span open on the main thread as its parent, so the
worker spans of ``run_experiment`` are its children.  Spans stay in memory
until ``write()``.  Functions called up to a million times per run are
counted, not spanned.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time

# (module, attribute, how): "span" records a span per call, "count" only counts.
WRAPPED = (
    ("functions", "fn_eval", "count"),
    ("functions", "fn_deriv", "count"),
    ("model", "eval_fn_grid", "span"),
    ("model", "eval_fn_grid_deriv", "span"),
    ("model", "validate_policy", "span"),
    ("model", "EnvironmentSpec.digest", "span"),
    ("dynamics", "step", "span"),
    ("dynamics", "payoffs", "span"),
    ("dynamics", "rollout", "span"),
    ("dynamics", "trajectory_to_csv", "span"),
    ("dynamics", "find_fixed_point", "span"),
    ("dynamics", "enumerate_fixed_points", "span"),
    ("dynamics", "jacobian_eigenvalues", "span"),
    ("policies", "optimize_lookahead", "span"),
    ("policies", "lookahead_objective", "span"),
    ("policies", "lookahead_gradient", "span"),
    ("policies", "myopic_greedy", "span"),
    ("estimation", "explore_then_commit", "span"),
    ("estimation", "fit_dynamics", "span"),
    ("estimation", "fit_saturating_exp", "span"),
    ("estimation", "least_squares", "span"),
    ("analytics", "decompose_regret", "span"),
    ("analytics", "regret_report_to_csv", "span"),
    ("experiment", "run_experiment", "span"),
    ("synthetic", "gen_synthetic", "span"),
)


def span_name(module: str, attribute: str) -> str:
    """``model.digest`` for ``EnvironmentSpec.digest``; ``module.function`` otherwise."""
    return f"{module}.{attribute.rsplit('.', 1)[-1]}"


class Tracer:
    def __init__(self):
        self.op = "setup"
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._span_lists: list[list] = []
        self._count_dicts: list[dict] = []
        self._outer: int | None = None
        self._main = threading.main_thread()
        self._restore: list[tuple[object, str, object]] = []

    # -- per-thread storage -------------------------------------------------

    def _thread_state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.spans = []
            local.counts = {}
            with self._lock:
                self._span_lists.append(local.spans)
                self._count_dicts.append(local.counts)
        return local

    def count(self, name: str, n: int = 1) -> None:
        counts = self._thread_state().counts
        counts[name] = counts.get(name, 0) + n

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, name: str, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = tracer._thread_state()
            stack = local.stack
            sid = next(tracer._ids)
            parent = stack[-1] if stack else (
                None if threading.current_thread() is tracer._main else tracer._outer)
            if not stack and threading.current_thread() is tracer._main:
                tracer._outer = sid
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if not stack and tracer._outer == sid:
                    tracer._outer = None
                local.spans.append((sid, name, t0, t1, parent, tracer.op))
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced

    def _count_wrapper(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.count(name)
            return fn(*args, **kwargs)

        return counted

    def _result_hook(self, name: str):
        if name == "estimation.least_squares":
            return lambda args, kwargs, res: self.count(
                "estimation.least_squares.nfev", int(getattr(res, "nfev", 0)))
        if name == "dynamics.enumerate_fixed_points":
            def hook(args, kwargs, res):
                inits = kwargs["inits"] if "inits" in kwargs else args[2]
                self.count("dynamics.fixed_point_starts", len(inits))
                self.count("dynamics.fixed_points_found", len(res))
            return hook
        return None

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        import twoside_sim

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "twoside_sim" or n.startswith("twoside_sim."))]
        for module_name, attribute, how in WRAPPED:
            name = span_name(module_name, attribute)
            owner = getattr(twoside_sim, module_name, None)
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            if how == "count":
                wrapper = self._count_wrapper(name, original)
            else:
                wrapper = self._span_wrapper(name, original, self._result_hook(name))
            if path:   # a method: rebind it on its class
                self._rebind(owner, leaf, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, wrapper)

    def _rebind(self, owner, key: str, wrapper) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- reading -----------------------------------------------------------

    def spans(self) -> list[tuple]:
        with self._lock:
            return [s for spans in self._span_lists for s in spans]

    def counts(self) -> dict[str, int]:
        """Counts since the last reset_counts(), summed over threads."""
        total: dict[str, int] = {}
        with self._lock:
            for counts in self._count_dicts:
                for key, value in counts.items():
                    total[key] = total.get(key, 0) + value
        return total

    def reset_counts(self) -> None:
        with self._lock:
            for counts in self._count_dicts:
                counts.clear()

    def write(self, path) -> None:
        """One JSON line naming the absent functions, then one per span."""
        with open(path, "w") as out:
            out.write(json.dumps({"absent": self.absent}) + "\n")
            for sid, name, t0, t1, parent, op in sorted(self.spans()):
                out.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                      "parent": parent, "op": op}) + "\n")


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, _, t0, t1, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((t0, t1))
    out = {}
    for sid, _, t0, t1, _, _ in spans:
        covered, end = 0.0, t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[sid] = (t1 - t0) - covered
    return out
