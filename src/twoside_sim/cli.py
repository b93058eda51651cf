"""Command-line surface: scenario generation, experiment runs, fixed-point
and stability analysis, regret comparison, dynamics estimation, and the
closed-form oracles.

Usage errors and invalid configs exit 2; runtime failures print a JSON error
record to stderr and exit 1; success prints JSON (or writes files under
--out) and exits 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .analytics import empirical_regret_suite, regret_report_to_csv, suite_summary
from .dynamics import (find_fixed_point, fixed_point_residual,
                       jacobian_eigenvalues, rollout, trajectory_to_csv)
from .estimation import (ExploreCommitConfig, SimulatorBlackbox,
                         explore_then_commit, interaction_log_to_csv,
                         InteractionLog)
from .experiment import (ExperimentConfig, ExperimentConfigError, PolicySpec,
                         build_policy_rule, load_environment, resolve_environment,
                         run_experiment)
from .model import EnvironmentSpec, PopulationState, epsilon_greedy
from .oracles import (LinearGameParams, THREE_EQUILIBRIA_INITS,
                      counterexample_welfare, linear_env, linear_ne,
                      linear_welfare, epsilon_welfare_bounds,
                      three_equilibria_env, welfare_from_ne)
from .policies import LookaheadConfig
from .synthetic import SyntheticScenarioConfig, gen_synthetic


class _ConfigError(ValueError):
    """Invalid configuration — reported as a usage-class failure (exit 2)."""


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as err:
        raise _ConfigError(f"config file not found: {path}") from err
    except json.JSONDecodeError as err:
        raise _ConfigError(f"config file {path} is not valid JSON: {err}") from err


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _emit(record, args, filename: str) -> None:
    text = json.dumps(_jsonable(record), indent=2) + "\n"
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / filename).write_text(text, newline="")
    if not args.quiet:
        sys.stdout.write(text)


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise _ConfigError(f"config is missing required key {key!r}")
    return cfg[key]


def _from_config(build, payload, what: str):
    """Construct a config object, mapping constructor complaints to exit 2.

    Unknown keys surface as TypeError from the dataclass constructors and
    field validation as ValueError; both describe a bad config file, not a
    runtime failure.
    """
    try:
        return build(payload)
    except _ConfigError:
        raise
    except (TypeError, ValueError, KeyError) as err:
        raise _ConfigError(f"invalid {what}: {err}") from err


def _env_and_init(cfg: dict) -> tuple[EnvironmentSpec, PopulationState]:
    return _from_config(lambda d: resolve_environment(*load_environment(d)), cfg,
                        "environment")


def _command_config(args, allowed: set[str]) -> dict:
    """The --config JSON of a subcommand whose top-level keys must be `allowed`."""
    command = " ".join(filter(None, (args.command, getattr(args, "oracle_cmd", None))))
    if not args.config:
        raise _ConfigError(f"{command} requires --config")
    cfg = _load_json(args.config)
    if not isinstance(cfg, dict):
        raise _ConfigError(f"{command} config must be a JSON object")
    unknown = sorted(set(cfg) - allowed)
    if unknown:
        raise _ConfigError(f"{command} config: unknown key(s) {unknown}")
    return cfg


def _state_record(state: PopulationState) -> dict:
    return {"viewer": state.viewer, "provider": state.provider}


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args) -> int:
    cfg = _load_json(args.config) if args.config else {}
    if set(cfg) == {"synthetic"} and isinstance(cfg["synthetic"], dict):
        cfg = cfg["synthetic"]  # accept the experiment-style environment block
    if args.seed is not None:
        cfg = {**cfg, "seed": args.seed}
    scen = _from_config(SyntheticScenarioConfig.from_dict, cfg, "synthetic scenario")
    env = gen_synthetic(scen)
    text = env.to_json() + "\n"
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "environment.json").write_text(text, newline="")
    if not args.quiet:
        sys.stdout.write(text)
    return 0


def cmd_run(args) -> int:
    if not args.config:
        raise _ConfigError("run requires --config")
    cfg = _load_json(args.config)
    if args.out:
        cfg = {**cfg, "outputs": args.out}
    if args.seed is not None:
        cfg = {**cfg, "seeds": [args.seed]}
    config = _from_config(ExperimentConfig.from_dict, cfg, "experiment config")
    summary = run_experiment(config)
    if not args.quiet:
        sys.stdout.write(json.dumps(_jsonable(summary), indent=2, sort_keys=True) + "\n")
    return 0


def _preset_cases(args):
    """(env, policy, named inits, tol, max_iter) for fixed-point/stability."""
    cfg = (_command_config(args, {"environment", "init", "policy", "tol", "max_iter"})
           if args.config else None)
    if args.preset is not None:
        if args.preset != "sigmoid-triple":
            raise _ConfigError(f"unknown preset {args.preset!r}")
        env = three_equilibria_env()
        inits = dict(THREE_EQUILIBRIA_INITS)
        if args.init is not None:
            if args.init not in inits:
                raise _ConfigError(f"unknown init preset {args.init!r}")
            inits = {args.init: inits[args.init]}
        return env, np.array([[1.0]]), inits, 1e-10, 100000
    if cfg is None:
        raise _ConfigError("either --preset or --config is required")
    env, init = _env_and_init(cfg)
    policy = np.asarray(_require(cfg, "policy"), dtype=float)
    return (env, policy, {"init": init},
            float(cfg.get("tol", 1e-10)), int(cfg.get("max_iter", 100000)))


def cmd_fixed_point(args) -> int:
    env, policy, inits, tol, max_iter = _preset_cases(args)
    records = []
    for name, init in inits.items():
        fp = find_fixed_point(env, policy, init, tol=tol, max_iter=max_iter)
        records.append({"init": name, **_state_record(fp),
                        "residual": fixed_point_residual(env, policy, fp)})
    _emit(records, args, "fixed_points.json")
    return 0


def _complex_pairs(values) -> list[list[float]]:
    """[re, im] pairs in descending magnitude order."""
    values = np.asarray(values, dtype=complex)
    return [[float(v.real), float(v.imag)] for v in values[np.argsort(-np.abs(values))]]


def cmd_stability(args) -> int:
    env, policy, inits, tol, max_iter = _preset_cases(args)
    records = []
    for name, init in inits.items():
        fp = find_fixed_point(env, policy, init, tol=tol, max_iter=max_iter)
        report = jacobian_eigenvalues(env, policy, fp, tol=tol)
        analytic = report.analytic_eigenvalues
        records.append({
            "init": name,
            "fixed_point": _state_record(fp),
            "spectral_radius": report.spectral_radius,
            "stable": report.stable,
            "sufficient_condition_holds": report.sufficient_condition_holds,
            "residual": report.residual,
            "eigenvalues": _complex_pairs(report.eigenvalues),
            "analytic_eigenvalues": None if analytic is None else _complex_pairs(analytic),
        })
    _emit(records, args, "stability.json")
    return 0


def cmd_regret(args) -> int:
    cfg = _command_config(args, {"environment", "init", "T", "policies", "seed"})
    env, init = _env_and_init(cfg)
    T = int(_require(cfg, "T"))
    if T < 1:
        raise _ConfigError("T must be >= 1")
    specs = [_from_config(PolicySpec.from_dict, p, "policy spec")
             for p in _require(cfg, "policies")]
    if len(specs) < 2:
        raise _ConfigError("regret needs at least 2 policies")
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    trajectories = {
        spec.name: rollout(env, build_policy_rule(env, spec), T, init, seed=seed)
        for spec in specs}
    suite = empirical_regret_suite(env, trajectories)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, report in suite.reports.items():
            (out_dir / f"regret_{name}_{seed}.csv").write_text(
                regret_report_to_csv(report), newline="")
    _emit(suite_summary(suite), args, "regret_summary.json")
    return 0


def cmd_estimate(args) -> int:
    cfg = _command_config(args, {"environment", "init", "T_b", "T", "beta", "refit_every",
                                 "lookahead", "seed", "b_known"})
    env, init = _env_and_init(cfg)
    try:
        etc = ExploreCommitConfig(
            T_b=int(_require(cfg, "T_b")), T=int(_require(cfg, "T")),
            beta=float(_require(cfg, "beta")),
            refit_every=int(cfg.get("refit_every", 1)))
        lookahead = (LookaheadConfig(**cfg["lookahead"])
                     if cfg.get("lookahead") else None)
    except (TypeError, ValueError) as err:
        raise _ConfigError(str(err)) from err
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    blackbox = SimulatorBlackbox(env, init, seed=seed)
    traj, fitted = explore_then_commit(blackbox, etc, lookahead,
                                       b_known=bool(cfg.get("b_known", True)))
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "trajectory_estimate.csv").write_text(
            trajectory_to_csv(traj), newline="")
        log = InteractionLog.from_trajectory(traj, env.eta_viewer, env.eta_provider)
        (out_dir / "interaction_log.csv").write_text(
            interaction_log_to_csv(log), newline="")
    record = {
        "fitted": fitted.to_dict(),
        "final_welfare": float(traj.table.welfare[-1]),
        "cumulative_welfare": traj.cumulative_welfare(),
    }
    _emit(record, args, "fitted.json")
    return 0


_LINEAR_PARAM_KEYS = {"a0", "a1", "a2", "b2", "B"}

# top-level config keys of each oracle subcommand that reads a config
_ORACLE_KEYS = {"linear-ne": {"params", "pi"}, "linear-welfare": {"params", "pi"},
                "epsilon-bounds": {"params", "epsilon_grid"}}


def _linear_params_from(cfg: dict) -> tuple[LinearGameParams, np.ndarray]:
    p = _require(cfg, "params")
    if not isinstance(p, dict):
        raise _ConfigError("linear params must be a JSON object")
    unknown = sorted(set(p) - _LINEAR_PARAM_KEYS)
    if unknown:
        raise _ConfigError(f"invalid linear params: unknown key(s) {unknown}")
    try:
        params = LinearGameParams(a0=float(p["a0"]), a1=float(p["a1"]),
                                  a2=float(p["a2"]), b2=float(p["b2"]),
                                  B=np.asarray(p["B"], dtype=float))
    except (KeyError, ValueError, TypeError) as err:
        raise _ConfigError(f"invalid linear params: {err}") from err
    pi = np.asarray(_require(cfg, "pi"), dtype=float) if "pi" in cfg else None
    return params, pi


def cmd_oracle(args) -> int:
    if args.oracle_cmd == "counterexample":
        value = counterexample_welfare(args.pi11)
        _emit({"pi11": args.pi11, "r_tilde": value}, args, "counterexample.json")
        return 0
    cfg = _command_config(args, _ORACLE_KEYS[args.oracle_cmd])
    if args.oracle_cmd == "linear-ne":
        params, pi = _linear_params_from(cfg)
        if pi is None:
            raise _ConfigError("linear-ne requires 'pi' in the config")
        ne = linear_ne(params, pi)
        env = linear_env(params)
        zeros = PopulationState(t=0, viewer=np.zeros(params.K),
                                provider=np.zeros(params.L))
        sim = find_fixed_point(env, pi, zeros)
        residual = max(float(np.max(np.abs(ne.viewer - sim.viewer))),
                       float(np.max(np.abs(ne.provider - sim.provider))))
        _emit({"params": cfg["params"], "pi": pi, **_state_record(ne),
               "simulator_max_residual": residual}, args, "linear_ne.json")
        return 0
    if args.oracle_cmd == "linear-welfare":
        params, pi = _linear_params_from(cfg)
        if pi is None:
            raise _ConfigError("linear-welfare requires 'pi' in the config")
        R = linear_welfare(params, pi)
        R_ne = welfare_from_ne(params, linear_ne(params, pi))
        _emit({"params": cfg["params"], "pi": pi, "welfare": R,
               "welfare_via_equilibrium": R_ne, "difference": abs(R - R_ne)},
              args, "linear_welfare.json")
        return 0
    # epsilon-bounds: argparse admits no other subcommand
    params, _ = _linear_params_from(cfg)
    grid = [float(v) for v in cfg.get("epsilon_grid",
                                      np.round(np.linspace(0, 1, 21), 10))]
    rows = []
    for eps in grid:
        g, h = epsilon_welfare_bounds(params, params.B, eps)
        R = linear_welfare(params, epsilon_greedy(params.B, eps))
        rows.append({"epsilon": eps, "g": g, "h": h, "welfare": R,
                     "upper": g * h})
    _emit({"params": cfg["params"], "grid": rows}, args, "epsilon_bounds.json")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twoside-sim",
        description="Simulation and policy optimization for two-sided platforms "
                    "with co-evolving viewer/provider populations.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="path to a JSON config file")
        p.add_argument("--out", help="directory to write outputs into")
        p.add_argument("--seed", type=int, help="seed override")
        p.add_argument("--quiet", action="store_true", help="suppress stdout output")

    common(sub.add_parser("gen", help="generate a synthetic environment"))
    common(sub.add_parser("run", help="run an experiment config"))
    for name in ("fixed-point", "stability"):
        p = sub.add_parser(name, help=f"{name.replace('-', ' ')} analysis")
        common(p)
        p.add_argument("--preset", help="built-in instance (sigmoid-triple)")
        p.add_argument("--init", help="preset initial condition (low|mid|high)")
    common(sub.add_parser("regret", help="pairwise regret decomposition"))
    common(sub.add_parser("estimate", help="explore-then-commit estimation"))

    oracle = sub.add_parser("oracle", help="closed-form oracle evaluations")
    osub = oracle.add_subparsers(dest="oracle_cmd", required=True)
    pc = osub.add_parser("counterexample", help="two-provider greedy-suboptimality curve")
    common(pc)
    pc.add_argument("--pi11", type=float, required=True,
                    help="exposure mass on provider 1")
    for name in ("linear-ne", "linear-welfare", "epsilon-bounds"):
        common(osub.add_parser(name))
    return parser


_DISPATCH = {
    "gen": cmd_gen,
    "run": cmd_run,
    "fixed-point": cmd_fixed_point,
    "stability": cmd_stability,
    "regret": cmd_regret,
    "estimate": cmd_estimate,
    "oracle": cmd_oracle,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (_ConfigError, ExperimentConfigError) as err:
        record = {"error": {"type": type(err).__name__, "message": str(err)}}
        sys.stderr.write(json.dumps(record) + "\n")
        return 2
    except Exception as err:  # runtime failure: machine-readable record, exit 1
        record = {"error": {"type": type(err).__name__, "message": str(err)}}
        sys.stderr.write(json.dumps(record) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
