"""Command-line surface: scenario generation, experiment runs, fixed-point
and stability analysis, regret comparison, dynamics estimation, and the
closed-form oracles.

Usage errors and invalid configs exit 2, the latter with an
ExperimentConfigError record on stderr; runtime failures print a JSON error
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
from .dynamics import (_check_tol, find_fixed_point, fixed_point_residual,
                       jacobian_eigenvalues, rollout, trajectory_to_csv)
from .estimation import (ExploreCommitConfig, SimulatorBlackbox,
                         explore_then_commit, interaction_log_to_csv,
                         InteractionLog)
from .experiment import (ExperimentConfig, ExperimentConfigError, PolicySpec, _json_typed,
                         _lookahead_config, _reject_unknown, build_policy, load_environment,
                         resolve_environment, run_experiment)
from .model import EnvironmentSpec, PopulationState, epsilon_greedy
from .oracles import (LinearGameParams, THREE_EQUILIBRIA_INITS,
                      counterexample_welfare, linear_env, linear_ne,
                      linear_welfare, epsilon_welfare_bounds,
                      three_equilibria_env, welfare_from_ne)
from .synthetic import SyntheticScenarioConfig, gen_synthetic


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError as err:
        raise ExperimentConfigError(f"config file not found: {path}") from err
    except json.JSONDecodeError as err:
        raise ExperimentConfigError(f"config file {path} is not valid JSON: {err}") from err
    if not isinstance(cfg, dict):
        raise ExperimentConfigError(f"config file {path} must hold a JSON object")
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


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ExperimentConfigError(f"config is missing required key {key!r}")
    return cfg[key]


def _from_config(build, payload, what: str):
    """build(payload), mapping its complaints to ExperimentConfigError (exit 2).

    Unknown keys surface as TypeError from the dataclass constructors, field
    validation and unparsable values as ValueError, missing keys as KeyError;
    each describes a bad config file, not a runtime failure.  Every value a
    subcommand reads from its config is read inside one such call.
    """
    try:
        return build(payload)
    except ExperimentConfigError:
        raise
    except (TypeError, ValueError, KeyError) as err:
        raise ExperimentConfigError(f"invalid {what}: {err}") from err


def _environment(cfg: dict) -> tuple[EnvironmentSpec, PopulationState]:
    return resolve_environment(*load_environment(cfg))


def _command_config(args, allowed: set[str]) -> dict:
    """The --config JSON of a subcommand whose top-level keys must be `allowed`."""
    command = " ".join(filter(None, (args.command, getattr(args, "oracle_cmd", None))))
    if not args.config:
        raise ExperimentConfigError(f"{command} requires --config")
    cfg = _load_json(args.config)
    _reject_unknown(cfg, allowed, f"{command} config")
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
        raise ExperimentConfigError("run requires --config")
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
    cfg = _command_config(args, {"environment", "init", "policy", "tol", "max_iter"})

    def inputs(c):
        env, init = _environment(c)
        policy = np.asarray(_require(c, "policy"), dtype=float)
        if policy.shape != (env.K, env.L):
            raise ExperimentConfigError(
                f"policy shape {policy.shape} does not match (K, L)={(env.K, env.L)}")
        tol = c.get("tol", 1e-10)
        _check_tol(tol)
        return env, policy, {"init": init}, tol, _json_typed(c.get("max_iter", 100000), "max_iter")

    return _from_config(inputs, cfg, f"{args.command} config")


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

    def inputs(c):
        env, init = _environment(c)
        T = _json_typed(_require(c, "T"), "T")
        if T < 1:
            raise ExperimentConfigError("T must be >= 1")
        specs = [PolicySpec.from_dict(p) for p in _require(c, "policies")]
        if len(specs) < 2:
            raise ExperimentConfigError("regret needs at least 2 policies")
        return env, init, T, specs, _json_typed(c.get("seed", 0), "seed")

    env, init, T, specs, seed = _from_config(inputs, cfg, "regret config")
    seed = args.seed if args.seed is not None else seed
    trajectories = {
        spec.name: rollout(env, build_policy(env, spec), T, init, seed=seed)
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

    def inputs(c):
        env, init = _environment(c)
        etc = ExploreCommitConfig(T_b=_json_typed(_require(c, "T_b"), "T_b"),
                                  T=_json_typed(_require(c, "T"), "T"),
                                  beta=_json_typed(_require(c, "beta"), "beta", float),
                                  refit_every=_json_typed(c.get("refit_every", 1), "refit_every"))
        lookahead = _lookahead_config(c["lookahead"]) if c.get("lookahead") else None
        return (env, init, etc, lookahead, _json_typed(c.get("seed", 0), "seed"),
                _json_typed(c.get("b_known", True), "b_known", bool))

    env, init, etc, lookahead, seed, b_known = _from_config(inputs, cfg, "estimate config")
    seed = args.seed if args.seed is not None else seed
    blackbox = SimulatorBlackbox(env, init, seed=seed)
    traj, fitted = explore_then_commit(blackbox, etc, lookahead, b_known=b_known)
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


def _oracle_inputs(cfg: dict) -> tuple[LinearGameParams, np.ndarray | None, list[float]]:
    """(params, pi or None, epsilon grid) of an oracle config."""
    p = _require(cfg, "params")
    if not isinstance(p, dict):
        raise ExperimentConfigError("linear params must be a JSON object")
    _reject_unknown(p, _LINEAR_PARAM_KEYS, "linear params")
    params = LinearGameParams(a0=float(p["a0"]), a1=float(p["a1"]), a2=float(p["a2"]),
                              b2=float(p["b2"]), B=np.asarray(p["B"], dtype=float))
    pi = _from_config(lambda v: np.asarray(v, float), cfg["pi"], "pi") if "pi" in cfg else None
    if pi is not None and pi.shape != params.B.shape:
        raise ExperimentConfigError(f"pi shape {pi.shape} does not match B's {params.B.shape}")
    grid = cfg.get("epsilon_grid", np.round(np.linspace(0, 1, 21), 10))
    grid = _from_config(lambda g: [float(v) for v in g], grid, "epsilon_grid")
    return params, pi, grid


def cmd_oracle(args) -> int:
    if args.oracle_cmd == "counterexample":
        value = counterexample_welfare(args.pi11)
        _emit({"pi11": args.pi11, "r_tilde": value}, args, "counterexample.json")
        return 0
    cfg = _command_config(args, _ORACLE_KEYS[args.oracle_cmd])
    params, pi, grid = _from_config(_oracle_inputs, cfg, f"oracle {args.oracle_cmd} config")
    if args.oracle_cmd == "linear-ne":
        if pi is None:
            raise ExperimentConfigError("linear-ne requires 'pi' in the config")
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
        if pi is None:
            raise ExperimentConfigError("linear-welfare requires 'pi' in the config")
        R = linear_welfare(params, pi)
        R_ne = welfare_from_ne(params, linear_ne(params, pi))
        _emit({"params": cfg["params"], "pi": pi, "welfare": R,
               "welfare_via_equilibrium": R_ne, "difference": abs(R - R_ne)},
              args, "linear_welfare.json")
        return 0
    # epsilon-bounds: argparse admits no other subcommand
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

    def outputs(p):
        p.add_argument("--out", help="directory to write outputs into")
        p.add_argument("--quiet", action="store_true", help="suppress stdout output")
        return p

    def configured(p):
        p.add_argument("--config", help="path to a JSON config file")
        return outputs(p)

    def seeded(p):
        configured(p).add_argument("--seed", type=int, help="seed override")

    seeded(sub.add_parser("gen", help="generate a synthetic environment"))
    seeded(sub.add_parser("run", help="run an experiment config"))
    for name in ("fixed-point", "stability"):
        p = configured(sub.add_parser(name, help=f"{name.replace('-', ' ')} analysis"))
        p.add_argument("--preset", help="built-in instance (sigmoid-triple)")
        p.add_argument("--init", help="preset initial condition (low|mid|high)")
    seeded(sub.add_parser("regret", help="pairwise regret decomposition"))
    seeded(sub.add_parser("estimate", help="explore-then-commit estimation"))

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
    "regret": cmd_regret,
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
