"""Command-line surface: scenario generation, experiment runs (trajectories,
pairwise regret and summary), fixed-point and stability analysis, dynamics
estimation, and the closed-form oracles.

Usage errors and invalid configs exit 2, the latter with an
ExperimentConfigError record on stderr; runtime failures print a JSON error
record to stderr and exit 1; success prints JSON (or writes files under
--out) and exits 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import MISSING, replace
from pathlib import Path

import numpy as np

from .dynamics import (_check_tol, find_fixed_point, fixed_point_residual,
                       jacobian_eigenvalues, trajectory_to_csv)
from .estimation import (ExploreCommitConfig, SimulatorBlackbox,
                         explore_then_commit, interaction_log_to_csv,
                         InteractionLog)
from .experiment import (_ENVIRONMENT_KEYS, ExperimentConfig, _from_config, load_environment,
                         resolve_environment, run_experiment)
from .kinds import ExperimentConfigError, _fields_table, _read
from .model import PopulationState, _policy_rows, epsilon_greedy
from .policies import LookaheadConfig
from .oracles import (LinearGameParams, THREE_EQUILIBRIA_INITS,
                      counterexample_welfare, linear_env, linear_ne,
                      linear_welfare, epsilon_welfare_bounds,
                      three_equilibria_env, welfare_from_ne)
from .synthetic import SyntheticScenarioConfig, gen_synthetic


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError as err:
        raise ExperimentConfigError(f"config file not found: {path}") from err
    except json.JSONDecodeError as err:
        raise ExperimentConfigError(f"config file {path} is not valid JSON: {err}") from err
    return cfg


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


def _command_config(args, table: dict) -> dict:
    """The --config JSON of a subcommand, read by `table` (see kinds._read)."""
    command = " ".join(filter(None, (args.command, getattr(args, "oracle_cmd", None))))
    if not args.config:
        raise ExperimentConfigError(f"{command} requires --config")
    return _read(_load_json(args.config), f"{command} config", table)


def _state_record(state: PopulationState) -> dict:
    return {"viewer": state.viewer, "provider": state.provider}


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args) -> int:
    cfg = _load_json(args.config) if args.config else {}
    scen = SyntheticScenarioConfig.from_dict(cfg)
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
        raise ExperimentConfigError("run requires --config")
    config = ExperimentConfig.from_dict(_load_json(args.config))
    if args.out:
        config = replace(config, outputs=args.out)
    summary = run_experiment(config)
    if not args.quiet:
        sys.stdout.write(json.dumps(_jsonable(summary), indent=2, sort_keys=True) + "\n")
    return 0


def _preset_cases(args):
    """(env, policy, named inits, tol, max_iter) for fixed-point/stability:
    the --preset instance, its inits narrowed by --init, or a --config."""
    if args.preset is not None:
        if args.config:
            raise ExperimentConfigError("--preset and --config exclude each other")
        if args.preset != "sigmoid-triple":
            raise ExperimentConfigError(f"unknown preset {args.preset!r}")
        env = three_equilibria_env()
        inits = dict(THREE_EQUILIBRIA_INITS)
        if args.init is not None:
            if args.init not in inits:
                raise ExperimentConfigError(f"unknown init preset {args.init!r}")
            inits = {args.init: inits[args.init]}
        return env, np.array([[1.0]]), inits, 1e-10, 100000
    if args.init is not None:
        raise ExperimentConfigError("--init names a preset's initial condition; "
                                    "it needs --preset")
    if not args.config:
        raise ExperimentConfigError("either --preset or --config is required")
    cfg = _command_config(args, {**_ENVIRONMENT_KEYS, "policy": (None, MISSING),
                                 "tol": (None, 1e-10), "max_iter": (None, 100000)})
    env, init = resolve_environment(*load_environment(cfg))
    policy = _from_config("policy", _policy_rows, cfg["policy"], env.K, env.L)
    _from_config(f"{args.command} config", _check_tol, cfg["tol"], cfg["max_iter"])
    return env, policy, {"init": init}, cfg["tol"], cfg["max_iter"]


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


def cmd_estimate(args) -> int:
    etc_keys = _fields_table(ExploreCommitConfig)
    cfg = _command_config(args, {**_ENVIRONMENT_KEYS, **etc_keys, "lookahead": (None, None),
                                 "seed": (None, 0), "b_known": (bool, True)})
    env, init = resolve_environment(*load_environment(cfg))
    etc = ExploreCommitConfig(**{k: cfg[k] for k in etc_keys})
    lookahead = None if cfg["lookahead"] is None else LookaheadConfig(
        **_read(cfg["lookahead"], "lookahead", _fields_table(LookaheadConfig)))
    blackbox = _from_config("estimate config", SimulatorBlackbox, env, init, seed=cfg["seed"])
    traj, fitted = explore_then_commit(blackbox, etc, lookahead, b_known=cfg["b_known"])
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


# the config table of each oracle subcommand that reads a config
_PI = {"params": (None, MISSING), "pi": (None, MISSING)}
_ORACLE_TABLES = {"linear-ne": _PI, "linear-welfare": _PI, "epsilon-bounds": {
    "params": (None, MISSING),
    "epsilon_grid": (tuple[float, ...], np.round(np.linspace(0, 1, 21), 10))}}


def cmd_oracle(args) -> int:
    if args.oracle_cmd == "counterexample":
        value = counterexample_welfare(args.pi11)
        _emit({"pi11": args.pi11, "r_tilde": value}, args, "counterexample.json")
        return 0
    cfg = _command_config(args, _ORACLE_TABLES[args.oracle_cmd])
    params = _from_config(f"oracle {args.oracle_cmd} config", LinearGameParams,
                          **_read(cfg["params"], "params", _fields_table(LinearGameParams)))
    pi = _from_config("pi", _policy_rows, cfg["pi"], params.K, params.L) if "pi" in cfg else None
    if args.oracle_cmd == "linear-ne":
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
        R = linear_welfare(params, pi)
        R_ne = welfare_from_ne(params, linear_ne(params, pi))
        _emit({"params": cfg["params"], "pi": pi, "welfare": R,
               "welfare_via_equilibrium": R_ne, "difference": abs(R - R_ne)},
              args, "linear_welfare.json")
        return 0
    # epsilon-bounds: argparse admits no other subcommand
    rows = []
    for eps in np.asarray(cfg["epsilon_grid"], dtype=float).tolist():
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

    def outputs(p):
        p.add_argument("--out", help="directory to write outputs into")
        p.add_argument("--quiet", action="store_true", help="suppress stdout output")
        return p

    def configured(p):
        p.add_argument("--config", help="path to a JSON config file")
        return outputs(p)

    configured(sub.add_parser("gen", help="generate a synthetic environment"))
    configured(sub.add_parser("run", help="run an experiment config: trajectories, "
                                          "pairwise regret and summary"))
    for name in ("fixed-point", "stability"):
        p = configured(sub.add_parser(name, help=f"{name.replace('-', ' ')} analysis"))
        p.add_argument("--preset", help="built-in instance (sigmoid-triple)")
        p.add_argument("--init", help="preset initial condition (low|mid|high)")
    configured(sub.add_parser("estimate", help="explore-then-commit estimation"))

    oracle = sub.add_parser("oracle", help="closed-form oracle evaluations")
    osub = oracle.add_subparsers(dest="oracle_cmd", required=True)
    pc = outputs(osub.add_parser("counterexample",
                                 help="two-provider greedy-suboptimality curve"))
    pc.add_argument("--pi11", type=float, required=True,
                    help="exposure mass on provider 1")
    for name in ("linear-ne", "linear-welfare", "epsilon-bounds"):
        configured(osub.add_parser(name))
    return parser


_DISPATCH = {
    "gen": cmd_gen,
    "run": cmd_run,
    "fixed-point": cmd_fixed_point,
    "stability": cmd_stability,
    "estimate": cmd_estimate,
    "oracle": cmd_oracle,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except ExperimentConfigError as err:
        record = {"error": {"type": type(err).__name__, "message": str(err)}}
        sys.stderr.write(json.dumps(record) + "\n")
        return 2
    except Exception as err:  # runtime failure: machine-readable record, exit 1
        record = {"error": {"type": type(err).__name__, "message": str(err)}}
        sys.stderr.write(json.dumps(record) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
