"""Batch experiment orchestration: run named policies across seeds, emit
trajectory and regret CSVs plus a JSON summary.

Every (policy, seed) cell of the grid runs in one lockstep, one array step
per timestep (see dynamics.lockstep_rollouts).  Each cell draws its noise
from its own seed and writes only its own files, and equals its run alone
bit for bit; without noise, one cell per policy is stepped and its run is
written for every seed.  The files are written in config order (policies,
then seeds) and the summary is assembled after all cells finish.  A run that
fails raises the error of its first failed cell in config order, after
writing the files of the cells before it.
"""

from __future__ import annotations

import json
import re
from dataclasses import MISSING, asdict, dataclass
from itertools import product
from pathlib import Path
from typing import Any

import numpy as np

from .analytics import empirical_regret_suite, regret_report_to_csv, suite_summary
from .dynamics import Trajectory, lockstep_rollouts, trajectory_to_csv
from .functions import FunctionConfigError
from .kinds import ExperimentConfigError, _check_kinds, _fields_table, _read
from .model import (EnvironmentSpec, PopulationState, SpecValidationError, _check_seed,
                    epsilon_greedy)
from .oracles import OracleDomainError
from .policies import (LookaheadConfig, interpolate, myopic_greedy,
                       optimize_lookahead, uniform_policy)
from .synthetic import SyntheticScenarioConfig, gen_synthetic, sample_initial_state

_POLICY_KINDS = ("uniform", "myopic", "epsilon_greedy", "lookahead")
_NAME_RE = re.compile(r"^[A-Za-z0-9_.\-]+$")


# the keys through which a config names its environment and initial populations
_ENVIRONMENT_KEYS = {"environment": (None, MISSING), "init": (None, None)}


@dataclass(frozen=True)
class PolicySpec:
    name: str
    kind: str
    epsilon: float | None = None
    beta: float | None = None
    lookahead: LookaheadConfig | None = None

    def __post_init__(self):
        _check_kinds(self)
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
        """The fields that are not None, the look-ahead config as a dict."""
        return {k: v for k, v in asdict(self).items() if v is not None}

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "PolicySpec":
        spec = _read(d, "policy spec", _fields_table(cls))
        if spec["lookahead"] is not None:
            spec["lookahead"] = LookaheadConfig(
                **_read(spec["lookahead"], "lookahead", _fields_table(LookaheadConfig)))
        return cls(**spec)


def build_policy(env: EnvironmentSpec, spec: PolicySpec):
    """The policy a spec names, in the form rollout and lockstep_rollouts
    take: a PolicyMatrix (uniform, epsilon-greedy), myopic_greedy, or a
    per-step rule over (env, state) (look-ahead)."""
    if spec.kind == "uniform":
        return uniform_policy(env.K, env.L)
    if spec.kind == "myopic":
        return myopic_greedy
    if spec.kind == "epsilon_greedy":
        return epsilon_greedy(env.B, spec.epsilon)
    cfg, beta = spec.lookahead, spec.beta       # look-ahead, the one kind left

    def rule(e, s):
        return interpolate(optimize_lookahead(e, s, cfg), myopic_greedy(e, s), beta)

    return rule


def _from_config(what: str, build, *args, **kwargs):
    """build(*args, **kwargs), its refusal of a config's value by a domain
    type's own check (a SpecValidationError, FunctionConfigError or
    OracleDomainError) raised as an ExperimentConfigError naming `what`."""
    try:
        return build(*args, **kwargs)
    except (SpecValidationError, FunctionConfigError, OracleDomainError) as err:
        raise ExperimentConfigError(f"invalid {what}: {err}") from err


def load_environment(d: dict[str, Any]) -> tuple[EnvironmentSpec | SyntheticScenarioConfig,
                                                  PopulationState | None]:
    """The environment and init of a config read with _ENVIRONMENT_KEYS: an
    'environment' block {'synthetic': {...}} or {'inline': {...}}, and an
    'init' block with K viewer and L provider entries, optional for a
    synthetic environment and required for an inline one."""
    blocks = _read(d["environment"], "environment",
                   {"synthetic": (None, None), "inline": (None, None)})
    if (blocks["synthetic"] is None) == (blocks["inline"] is None):
        raise ExperimentConfigError(
            "environment must be {'synthetic': {...}} or {'inline': {...}}")
    if blocks["synthetic"] is not None:
        environment: EnvironmentSpec | SyntheticScenarioConfig = (
            SyntheticScenarioConfig.from_dict(blocks["synthetic"]))
    else:
        environment = _from_config("inline environment", EnvironmentSpec.from_dict,
                                   blocks["inline"])
    init = None
    if d["init"] is None and isinstance(environment, EnvironmentSpec):
        raise ExperimentConfigError("inline environments need an explicit init")
    if d["init"] is not None:
        init = _from_config("init", PopulationState, t=0, **_read(
            d["init"], "init", dict.fromkeys(("viewer", "provider"), (None, MISSING))))
        if init.viewer.shape != (environment.K,) or init.provider.shape != (environment.L,):
            raise ExperimentConfigError(
                f"init has {len(init.viewer)} viewer and {len(init.provider)} provider "
                f"entries; the environment has K={environment.K}, L={environment.L}")
    return environment, init


def resolve_environment(environment: EnvironmentSpec | SyntheticScenarioConfig,
                        init: PopulationState | None
                        ) -> tuple[EnvironmentSpec, PopulationState]:
    """Generate a synthetic environment and, without an explicit init, sample
    the scenario's initial state; an inline environment comes with its init
    (load_environment and ExperimentConfig refuse one without)."""
    if isinstance(environment, SyntheticScenarioConfig):
        return (gen_synthetic(environment),
                init if init is not None else sample_initial_state(environment))
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
        _check_kinds(self)
        object.__setattr__(self, "policies", tuple(self.policies))
        object.__setattr__(self, "seeds", tuple(map(int, self.seeds)))
        if not self.policies:
            raise ExperimentConfigError("at least one policy is required")
        names = [p.name for p in self.policies]
        if len(set(names)) != len(names):
            raise ExperimentConfigError(f"duplicate policy names in {names}")
        if not self.seeds:
            raise ExperimentConfigError("seeds must be non-empty")
        for seed in self.seeds:
            try:
                _check_seed(seed)
            except SpecValidationError as err:
                raise ExperimentConfigError(f"seeds: {err}") from None
        if self.T < 1:
            raise ExperimentConfigError("T must be >= 1")
        if isinstance(self.environment, EnvironmentSpec) and self.init is None:
            raise ExperimentConfigError("inline environments need an explicit init")

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "ExperimentConfig":
        c = _read(d, "experiment config", {
            **_ENVIRONMENT_KEYS, "policies": (list, []), "T": (None, None),
            "seeds": (None, [0]), "outputs": (None, "out")})
        environment, init = load_environment(c)
        default_T = environment.T if isinstance(environment, SyntheticScenarioConfig) else None
        T = default_T if c["T"] is None else c["T"]
        if T is None:
            raise ExperimentConfigError("T is required for inline environments")
        return cls(environment=environment,
                   policies=tuple(PolicySpec.from_dict(p) for p in c["policies"]),
                   T=T, seeds=c["seeds"], outputs=c["outputs"], init=init)


def run_experiment(config: ExperimentConfig) -> dict[str, Any]:
    """Run every (policy, seed) cell, write per-cell CSVs, and return the
    summary (also written as summary.json)."""
    env, init = resolve_environment(config.environment, config.init)
    out_dir = Path(config.outputs)
    out_dir.mkdir(parents=True, exist_ok=True)
    runs = lockstep_rollouts(env, [build_policy(env, spec) for spec in config.policies],
                             config.T, init, config.seeds)

    results: dict[tuple[str, int], Trajectory] = {}
    for (spec, seed), traj in zip(product(config.policies, config.seeds), runs):
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
            welfare_means.append(tab.welfare.mean())
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
