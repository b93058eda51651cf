"""Batch experiment orchestration: run named policies across seeds, emit
trajectory and regret CSVs plus a JSON summary.

The seeds of one policy run in lockstep (see dynamics.lockstep_rollouts),
policy after policy in config order.  Each (policy, seed) cell draws its
noise from its own seed and writes only its own files, and equals its run
alone bit for bit; the summary is assembled after all cells finish.  A run
that fails raises the error of its first failed cell in config order
(policies, then seeds), after writing the files of the cells before it.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .analytics import empirical_regret_suite, regret_report_to_csv, suite_summary
from .dynamics import Trajectory, lockstep_rollouts, trajectory_to_csv
from .model import EnvironmentSpec, PopulationState, epsilon_greedy
from .policies import (LookaheadConfig, interpolate, myopic_greedy,
                       optimize_lookahead, uniform_policy)
from .synthetic import SyntheticScenarioConfig, gen_synthetic, sample_initial_state

_POLICY_KINDS = ("uniform", "myopic", "epsilon_greedy", "lookahead")
_NAME_RE = re.compile(r"^[A-Za-z0-9_.\-]+$")


class ExperimentConfigError(ValueError):
    """The experiment configuration is invalid."""


def _reject_unknown(d: dict[str, Any], allowed: set[str], what: str) -> None:
    # a typo'd optional key would otherwise be dropped silently by .get()
    unknown = sorted(set(d) - allowed)
    if unknown:
        raise ExperimentConfigError(f"{what}: unknown key(s) {unknown}")


def _json_typed(value, key: str, kind: type = int):
    """`value` when its type is exactly `kind`: int for a JSON integer, bool
    for a JSON boolean, and int or float for float, a JSON number.  Else
    ExperimentConfigError: a value of another type (2.7, "3" or true for an
    integer, "0.5" or true for a number) is refused, never cast."""
    if type(value) not in ((int, float) if kind is float else (kind,)):
        name = "number" if kind is float else kind.__name__
        raise ExperimentConfigError(f"{key} must be a JSON {name}, got {value!r}")
    return value


def _lookahead_config(d) -> LookaheadConfig:
    """A look-ahead block: iterations a JSON integer, gamma and learning_rate JSON numbers."""
    return LookaheadConfig(**{k: _json_typed(v, k, int if k == "iterations" else float)
                              for k, v in dict(d).items()})


@dataclass(frozen=True)
class PolicySpec:
    name: str
    kind: str
    epsilon: float | None = None
    beta: float | None = None
    lookahead: LookaheadConfig | None = None

    def __post_init__(self):
        if not _NAME_RE.match(self.name):
            raise ExperimentConfigError(
                f"policy name {self.name!r} must match {_NAME_RE.pattern}")
        if self.kind not in _POLICY_KINDS:
            raise ExperimentConfigError(
                f"policy {self.name!r}: unknown kind {self.kind!r}")
        if self.kind == "epsilon_greedy":
            if self.epsilon is None or not (0.0 <= self.epsilon <= 1.0):
                raise ExperimentConfigError(
                    f"policy {self.name!r}: epsilon_greedy needs epsilon in [0, 1]")
        if self.kind == "lookahead":
            beta = 1.0 if self.beta is None else self.beta
            if not (0.0 <= beta <= 1.0):
                raise ExperimentConfigError(
                    f"policy {self.name!r}: beta must be in [0, 1]")
            object.__setattr__(self, "beta", float(beta))
            if self.lookahead is None:
                object.__setattr__(self, "lookahead", LookaheadConfig())

    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {"name": self.name, "kind": self.kind}
        if self.epsilon is not None:
            d["epsilon"] = self.epsilon
        if self.beta is not None:
            d["beta"] = self.beta
        if self.lookahead is not None:
            d["lookahead"] = {"gamma": self.lookahead.gamma,
                              "iterations": self.lookahead.iterations,
                              "learning_rate": self.lookahead.learning_rate}
        return d

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "PolicySpec":
        _reject_unknown(d, {"name", "kind", "epsilon", "beta", "lookahead"},
                        "policy spec")
        try:
            name, kind = d["name"], d["kind"]
        except KeyError as err:
            raise ExperimentConfigError(
                f"policy spec is missing {err.args[0]!r}") from err
        la = d.get("lookahead")
        numbers = {k: _json_typed(d[k], k, float) for k in ("epsilon", "beta")
                   if d.get(k) is not None}
        return cls(name=name, kind=kind, **numbers,
                   lookahead=_lookahead_config(la) if la is not None else None)


def build_policy(env: EnvironmentSpec, spec: PolicySpec):
    """The policy a spec names, in the form rollout and lockstep_rollouts
    take: a PolicyMatrix (uniform, epsilon-greedy), myopic_greedy, or a
    per-step rule over (env, state) (look-ahead)."""
    try:
        if spec.kind == "uniform":
            return uniform_policy(env.K, env.L)
        if spec.kind == "myopic":
            return myopic_greedy
        if spec.kind == "epsilon_greedy":
            return epsilon_greedy(env.B, spec.epsilon)
        if spec.kind == "lookahead":
            cfg, beta = spec.lookahead, spec.beta

            def rule(e, s):
                return interpolate(optimize_lookahead(e, s, cfg),
                                   myopic_greedy(e, s), beta)

            return rule
    except ExperimentConfigError:
        raise
    except Exception as err:
        raise ExperimentConfigError(f"policy {spec.name!r}: {err}") from err
    raise ExperimentConfigError(f"policy {spec.name!r}: unknown kind {spec.kind!r}")


def load_environment(d: dict[str, Any]) -> tuple[EnvironmentSpec | SyntheticScenarioConfig,
                                                  PopulationState | None]:
    """Parse a config's 'environment' block, {'synthetic': {...}} or
    {'inline': {...}}, and its optional 'init' block, which must have K viewer
    and L provider entries."""
    envd = d.get("environment")
    if not isinstance(envd, dict) or not ({"synthetic", "inline"} & set(envd)):
        raise ExperimentConfigError(
            "environment must be {'synthetic': {...}} or {'inline': {...}}")
    _reject_unknown(envd, {"synthetic", "inline"}, "environment block")
    if "synthetic" in envd:
        environment: EnvironmentSpec | SyntheticScenarioConfig = (
            SyntheticScenarioConfig.from_dict(envd["synthetic"]))
    else:
        environment = EnvironmentSpec.from_dict(envd["inline"])
    init = None
    if d.get("init") is not None:
        init = PopulationState(t=0, viewer=np.asarray(d["init"]["viewer"], dtype=float),
                               provider=np.asarray(d["init"]["provider"], dtype=float))
        if init.viewer.shape != (environment.K,) or init.provider.shape != (environment.L,):
            raise ExperimentConfigError(
                f"init has {len(init.viewer)} viewer and {len(init.provider)} provider "
                f"entries; the environment has K={environment.K}, L={environment.L}")
    return environment, init


def resolve_environment(environment: EnvironmentSpec | SyntheticScenarioConfig,
                        init: PopulationState | None
                        ) -> tuple[EnvironmentSpec, PopulationState]:
    """Generate a synthetic environment and, without an explicit init, sample
    the scenario's initial state; an inline environment needs an init."""
    if isinstance(environment, SyntheticScenarioConfig):
        return (gen_synthetic(environment),
                init if init is not None else sample_initial_state(environment))
    if init is None:
        raise ExperimentConfigError("inline environments need an explicit init")
    return environment, init


@dataclass(frozen=True)
class ExperimentConfig:
    environment: EnvironmentSpec | SyntheticScenarioConfig
    policies: tuple[PolicySpec, ...]
    T: int
    seeds: tuple[int, ...]
    outputs: str
    init: PopulationState | None = None     # required for an inline environment

    def __post_init__(self):
        object.__setattr__(self, "policies", tuple(self.policies))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        if not self.policies:
            raise ExperimentConfigError("at least one policy is required")
        names = [p.name for p in self.policies]
        if len(set(names)) != len(names):
            raise ExperimentConfigError(f"duplicate policy names in {names}")
        if not self.seeds:
            raise ExperimentConfigError("seeds must be non-empty")
        if self.T < 1:
            raise ExperimentConfigError("T must be >= 1")
        if isinstance(self.environment, EnvironmentSpec) and self.init is None:
            raise ExperimentConfigError("inline environments need an explicit init")

    def resolve(self) -> tuple[EnvironmentSpec, PopulationState]:
        return resolve_environment(self.environment, self.init)

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "ExperimentConfig":
        _reject_unknown(d, {"environment", "policies", "T", "seeds", "outputs",
                            "init"}, "experiment config")
        environment, init = load_environment(d)
        default_T = environment.T if isinstance(environment, SyntheticScenarioConfig) else None
        T = d.get("T", default_T)
        if T is None:
            raise ExperimentConfigError("T is required for inline environments")
        return cls(environment=environment,
                   policies=tuple(PolicySpec.from_dict(p) for p in d.get("policies", [])),
                   T=_json_typed(T, "T"),
                   seeds=tuple(_json_typed(s, "seeds") for s in d.get("seeds", [0])),
                   outputs=d.get("outputs", "out"), init=init)


def run_experiment(config: ExperimentConfig) -> dict[str, Any]:
    """Run every (policy, seed) cell, write per-cell CSVs, and return the
    summary (also written as summary.json)."""
    env, init = config.resolve()
    out_dir = Path(config.outputs)
    out_dir.mkdir(parents=True, exist_ok=True)
    policies = {spec.name: build_policy(env, spec) for spec in config.policies}

    results: dict[tuple[str, int], Trajectory] = {}
    for spec in config.policies:
        runs = lockstep_rollouts(env, policies[spec.name], config.T, init, config.seeds)
        for seed, traj in zip(config.seeds, runs):
            if not isinstance(traj, Trajectory):
                raise traj     # the first failed cell in config order, as run one by one
            path = out_dir / f"trajectory_{spec.name}_{seed}.csv"
            path.write_text(trajectory_to_csv(traj), newline="")
            results[(spec.name, seed)] = traj

    summary: dict[str, Any] = {
        "environment_digest": env.digest(),
        "T": config.T,
        "seeds": list(config.seeds),
        "policies": {},
    }
    for spec in config.policies:
        per_seed = {}
        welfare_means = []
        for seed in config.seeds:
            traj = results[(spec.name, seed)]
            tab = traj.table
            per_seed[str(seed)] = {
                "final_welfare": float(tab.welfare[-1]),
                "final_viewer_total": float(tab.lambda_viewer[-1].sum()),
                "final_provider_total": float(tab.lambda_provider[-1].sum()),
                "cumulative_welfare": traj.cumulative_welfare(),
            }
            welfare_means.append(traj.welfare_series().mean())
        summary["policies"][spec.name] = {
            "per_seed": per_seed,
            "mean_welfare": float(np.mean(welfare_means)),
        }

    if len(config.policies) >= 2:
        regret: dict[str, Any] = {}
        for seed in config.seeds:
            suite = empirical_regret_suite(
                env, {spec.name: results[(spec.name, seed)] for spec in config.policies})
            regret[str(seed)] = suite_summary(suite)
            for name, report in suite.reports.items():
                path = out_dir / f"regret_{name}_{seed}.csv"
                path.write_text(regret_report_to_csv(report), newline="")
        summary["regret"] = regret

    (out_dir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", newline="")
    return summary
