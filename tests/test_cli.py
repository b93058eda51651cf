"""Command-line surface: subcommand behavior, exit codes, emitted files."""

import json
import subprocess
import sys

import numpy as np
import pytest

from twoside_sim import (EnvironmentSpec, empirical_regret_suite, experiment, linear_fn,
                         parse_trajectory_csv, regret_report_to_csv, rollout, suite_summary,
                         trajectory_to_csv)
from twoside_sim.cli import main


def write_json(tmp_path, name, payload):
    """payload as a JSON file, an infinity written as 1e400: a number past the
    float range, which the JSON reader takes for an infinity."""
    path = tmp_path / name
    path.write_text(json.dumps(payload).replace("Infinity", "1e400"))
    return str(path)


def scenario_dict(**over):
    d = dict(K=3, L=3, d=3, T=4, seed=11, eta=0.3)
    d.update(over)
    return d


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# usage errors


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["decompile"])
    assert exc.value.code == 2


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--frobnicate"])
    assert exc.value.code == 2


def test_run_without_config_exits_2(capsys):
    code, _, err = run_cli(capsys, ["run"])
    assert code == 2
    assert json.loads(err)["error"]["type"] == "ExperimentConfigError"


def test_run_with_zero_horizon_exits_2(tmp_path, capsys):
    cfg = write_json(tmp_path, "exp.json", {
        "environment": {"synthetic": scenario_dict()},
        "policies": [{"name": "u", "kind": "uniform"}],
        "T": 0,
        "outputs": str(tmp_path / "out"),
    })
    code, _, err = run_cli(capsys, ["run", "--config", cfg, "--quiet"])
    assert code == 2
    assert json.loads(err)["error"]["type"] == "ExperimentConfigError"


@pytest.mark.parametrize("seeds", [[-1], [0, -3]])
def test_run_with_a_negative_seed_exits_2_before_writing(tmp_path, capsys, seeds):
    cfg = write_json(tmp_path, "exp.json", {
        "environment": {"synthetic": scenario_dict()},
        "policies": [{"name": "u", "kind": "uniform"}],
        "seeds": seeds,
    })
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, ["run", "--config", cfg, "--out", str(out), "--quiet"])
    assert code == 2 and stdout == ""
    record = json.loads(err)["error"]
    assert record["type"] == "ExperimentConfigError" and "seeds" in record["message"]
    assert not out.exists()


def test_missing_config_file_exits_2(capsys):
    code, _, err = run_cli(capsys, ["run", "--config", "/nonexistent/x.json"])
    assert code == 2
    record = json.loads(err)["error"]
    assert record["type"] == "ExperimentConfigError" and "not found" in record["message"]


@pytest.mark.parametrize("command", ["gen", "run", "fixed-point"])
def test_config_that_is_not_an_object_exits_2(tmp_path, capsys, command):
    cfg = write_json(tmp_path, "cfg.json", [{"synthetic": scenario_dict()}])
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, [command, "--config", cfg, "--out", str(out)])
    assert code == 2 and stdout == ""
    record = json.loads(err)["error"]
    assert record["type"] == "ExperimentConfigError" and "JSON object" in record["message"]
    assert not out.exists()


# ---------------------------------------------------------------------------
# gen


def test_gen_deterministic_and_seed_override(tmp_path, capsys):
    cfg = write_json(tmp_path, "scen.json", scenario_dict())
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert run_cli(capsys, ["gen", "--config", cfg, "--out", str(a), "--quiet"])[0] == 0
    assert run_cli(capsys, ["gen", "--config", cfg, "--out", str(b), "--quiet"])[0] == 0
    assert (a / "environment.json").read_bytes() == (b / "environment.json").read_bytes()
    c = tmp_path / "c"
    cfg = write_json(tmp_path, "scen99.json", scenario_dict(seed=99))
    assert run_cli(capsys, ["gen", "--config", cfg, "--out", str(c), "--quiet"])[0] == 0
    assert (c / "environment.json").read_bytes() != (a / "environment.json").read_bytes()


def test_gen_prints_unless_quiet(tmp_path, capsys):
    cfg = write_json(tmp_path, "scen.json", scenario_dict())
    code, out, _ = run_cli(capsys, ["gen", "--config", cfg])
    assert code == 0
    env = EnvironmentSpec.from_json(out)
    assert env.K == 3
    code, out, _ = run_cli(capsys, ["gen", "--config", cfg, "--quiet"])
    assert code == 0 and out == ""


def test_gen_refuses_a_wrapped_scenario(tmp_path, capsys):
    """gen reads the bare scenario; the {"synthetic": ...} block is the
    environment form of the other subcommands' configs."""
    cfg = write_json(tmp_path, "wrapped.json", {"synthetic": scenario_dict()})
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, ["gen", "--config", cfg, "--out", str(out)])
    assert code == 2 and stdout == ""
    record = json.loads(err)["error"]
    assert record["type"] == "ExperimentConfigError" and "synthetic" in record["message"]
    assert not out.exists()


def test_gen_with_unknown_key_is_config_error(tmp_path, capsys):
    cfg = write_json(tmp_path, "scen.json", scenario_dict(num_groups=7))
    code, _, err = run_cli(capsys, ["gen", "--config", cfg])
    assert code == 2
    record = json.loads(err)["error"]
    assert record["type"] == "ExperimentConfigError"
    assert "num_groups" in record["message"]


def test_run_with_misspelled_policy_field_is_config_error(tmp_path, capsys):
    cfg = write_json(tmp_path, "exp.json", {
        "environment": {"synthetic": scenario_dict()},
        "policies": [{"name": "u", "kind": "uniform", "epsilom": 0.1}],
        "T": 3,
        "outputs": str(tmp_path / "out"),
    })
    code, _, err = run_cli(capsys, ["run", "--config", cfg])
    assert code == 2
    assert json.loads(err)["error"]["type"] == "ExperimentConfigError"


# look-ahead settings that no longer exist, with values the config once accepted
REMOVED_LOOKAHEAD_KEYS = {"grad_check": {"h": 1e-6, "tol": 1e-4},
                          "parameterization": "softmax-logits"}


@pytest.mark.parametrize("command", ["run", "estimate"])
@pytest.mark.parametrize("key", sorted(REMOVED_LOOKAHEAD_KEYS))
def test_removed_lookahead_keys_are_config_errors(tmp_path, capsys, command, key):
    lookahead = {"iterations": 2, key: REMOVED_LOOKAHEAD_KEYS[key]}
    if command == "run":
        payload = {"environment": {"synthetic": scenario_dict()}, "T": 2,
                   "policies": [{"name": "la", "kind": "lookahead", "lookahead": lookahead}]}
    else:
        payload = {"environment": {"synthetic": scenario_dict(K=2, L=2, d=2)},
                   "T_b": 2, "T": 3, "beta": 1.0, "lookahead": lookahead}
    cfg = write_json(tmp_path, "cfg.json", payload)
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, [command, "--config", cfg, "--out", str(out)])
    assert code == 2 and stdout == ""
    record = json.loads(err)["error"]
    assert record["type"] == "ExperimentConfigError" and key in record["message"]
    assert not out.exists()


def test_emit_block_is_config_error(tmp_path, capsys):
    cfg = write_json(tmp_path, "exp.json", {
        "environment": {"synthetic": scenario_dict()}, "T": 2,
        "policies": [{"name": "u", "kind": "uniform"}],
        "emit": {"csv": False, "json_summary": True},
    })
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, ["run", "--config", cfg, "--out", str(out)])
    assert code == 2 and stdout == ""
    record = json.loads(err)["error"]
    assert record["type"] == "ExperimentConfigError" and "emit" in record["message"]
    assert not out.exists()


def _two_group_inline():
    return {"inline": EnvironmentSpec(
        K=2, L=1, B=[[1.0], [1.0]],
        f=[[linear_fn(0.1)], [linear_fn(0.1)]],
        lambda_bar_viewer=(linear_fn(0.2), linear_fn(0.2)),
        lambda_bar_provider=(linear_fn(0.2),),
        eta_viewer=[0.5, 0.5], eta_provider=[0.5], seed=0).to_dict()}


# one misspelled optional key per command, each of which the command once ignored
MISSPELLED_KEYS = {
    "run": ("polcies", {"environment": {"synthetic": scenario_dict()}, "T": 3,
                        "policies": [{"name": "u", "kind": "uniform"},
                                     {"name": "g", "kind": "myopic"}]}),
    "estimate": ("refit_evry", {"environment": {"synthetic": scenario_dict(K=2, L=2, d=2)},
                                "T_b": 6, "T": 8, "beta": 0.5,
                                "lookahead": {"iterations": 2}}),
    "fixed-point": ("max_iters", {"environment": {"synthetic": scenario_dict()},
                                  "policy": np.full((3, 3), 1 / 3).tolist()}),
    "stability": ("tolerance", {"environment": {"synthetic": scenario_dict()},
                                "policy": np.full((3, 3), 1 / 3).tolist()}),
}


@pytest.mark.parametrize("command", sorted(MISSPELLED_KEYS))
def test_unknown_top_level_key_is_config_error(tmp_path, capsys, command):
    key, payload = MISSPELLED_KEYS[command]
    cfg = write_json(tmp_path, "cfg.json", {**payload, key: 1})
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, [command, "--config", cfg, "--out", str(out)])
    assert code == 2 and stdout == ""
    record = json.loads(err)["error"]
    assert record["type"] == "ExperimentConfigError" and key in record["message"]
    assert not out.exists()


RUN_CONFIG = {"environment": {"synthetic": scenario_dict()}, "T": 2,
              "policies": [{"name": "u", "kind": "uniform"}]}
LINEAR_PARAMS = {"a0": 0.5, "a1": 0.5, "a2": 0.5, "b2": 1.0, "B": [[1.0]]}
LOOKAHEAD = {"name": "la", "kind": "lookahead", "lookahead": {"iterations": 2}}
FIXED_POINT_CONFIG = {"environment": _two_group_inline(),
                      "init": {"viewer": [0.1, 0.1], "provider": [0.1]},
                      "policy": [[1.0], [1.0]]}


def _inline_config(**keys):
    """FIXED_POINT_CONFIG with `keys` of its inline environment replaced."""
    inline = FIXED_POINT_CONFIG["environment"]["inline"]
    return {**FIXED_POINT_CONFIG, "environment": {"inline": {**inline, **keys}}}


# (command, key, payload): a value of the wrong type or shape for a command
# that reads a config, or an unknown key in one of its blocks.  Each was once
# reported as a runtime failure (exit 1), read as some other value (an
# integer key given a float, a string or a bool; a number or an array of
# numbers given a bool or a string; a b_known given a string), ignored (an
# unknown key, a value a flag replaces) or refused by a message that did not
# name the key.
UNPARSABLE_VALUES = [
    ("run", "seeds", {**RUN_CONFIG, "seeds": [2.7]}),
    ("run", "T", {**RUN_CONFIG, "T": True}),
    ("estimate", "seed", {**MISSPELLED_KEYS["estimate"][1], "seed": "one"}),
    ("estimate", "T_b", {**MISSPELLED_KEYS["estimate"][1], "T_b": "6"}),
    ("estimate", "refit_every", {**MISSPELLED_KEYS["estimate"][1], "refit_every": 1.0}),
    ("estimate", "b_known", {**MISSPELLED_KEYS["estimate"][1], "b_known": "false"}),
    ("fixed-point", "tol", {**MISSPELLED_KEYS["fixed-point"][1], "tol": "small"}),
    ("fixed-point", "tol", {**MISSPELLED_KEYS["fixed-point"][1], "tol": True}),
    ("fixed-point", "tol", {**MISSPELLED_KEYS["fixed-point"][1], "tol": float("nan")}),
    ("fixed-point", "tol", {**MISSPELLED_KEYS["fixed-point"][1], "tol": -1.0}),
    ("fixed-point", "max_iter", {**MISSPELLED_KEYS["fixed-point"][1], "max_iter": 1e5}),
    ("fixed-point", "policy", {**MISSPELLED_KEYS["fixed-point"][1],
                               "policy": np.full((2, 3), 1 / 3).tolist()}),
    ("stability", "policy", {**MISSPELLED_KEYS["stability"][1],
                             "policy": np.full((3, 2), 1 / 2).tolist()}),
    ("stability", "tol", {**MISSPELLED_KEYS["stability"][1], "tol": float("nan")}),
    ("stability", "tol", {**MISSPELLED_KEYS["stability"][1], "tol": -1e-10}),
    ("oracle linear-ne", "pi", {"params": LINEAR_PARAMS, "pi": [[0.5, 0.5]]}),
    ("oracle linear-welfare", "pi", {"params": LINEAR_PARAMS, "pi": [["all"]]}),
    ("oracle linear-welfare", "pi", {"params": LINEAR_PARAMS, "pi": [[1.0], [1.0]]}),
    ("oracle epsilon-bounds", "epsilon_grid", {"params": LINEAR_PARAMS,
                                               "epsilon_grid": ["half"]}),
    ("gen", "K", scenario_dict(K=2.5)),
    ("gen", "seed", scenario_dict(seed=2.7)),
    ("run", "iterations", {**RUN_CONFIG, "policies": [
        LOOKAHEAD | {"lookahead": {"iterations": 2.5}}]}),
    ("run", "epsilon", {**RUN_CONFIG, "policies": [{"name": "e", "kind": "epsilon_greedy",
                                                    "epsilon": True}]}),
    ("run", "beta", {**RUN_CONFIG, "policies": [LOOKAHEAD | {"beta": "0.5"}]}),
    ("run", "gamma", {**RUN_CONFIG, "policies": [LOOKAHEAD | {"lookahead": {"gamma": True}}]}),
    ("run", "learning_rate", {**RUN_CONFIG, "policies": [
        LOOKAHEAD | {"lookahead": {"learning_rate": "0.1"}}]}),
    ("estimate", "beta", {**MISSPELLED_KEYS["estimate"][1], "beta": True}),
    ("estimate", "iterations", {**MISSPELLED_KEYS["estimate"][1],
                                "lookahead": {"iterations": 2.5}}),
    ("gen", "eta", scenario_dict(eta=True)),
    ("oracle linear-ne", "a0", {"params": {**LINEAR_PARAMS, "a0": True}, "pi": [[1.0]]}),
    ("oracle linear-ne", "a1", {"params": {**LINEAR_PARAMS, "a1": "0.5"}, "pi": [[1.0]]}),
    ("fixed-point", "policy", {**MISSPELLED_KEYS["fixed-point"][1], "policy": [
        ["0.5", "0.5", 0.0], [True, False, False], [1.0, 0.0, 0.0]]}),
    ("run", "viewer", {**RUN_CONFIG, "init": {"viewer": ["5", "5", "5"],
                                              "provider": [5.0, 5.0, 5.0]}}),
    ("run", "outputs", {**RUN_CONFIG, "outputs": 5}),
    ("run", "name", {**RUN_CONFIG, "policies": [{"name": 5, "kind": "uniform"}]}),
    ("run", "policies", {**RUN_CONFIG, "policies": "u"}),
    ("fixed-point", "K", {**FIXED_POINT_CONFIG, "environment": {
        "inline": {**FIXED_POINT_CONFIG["environment"]["inline"], "K": 2.5}}}),
    ("run", "'t'", {**RUN_CONFIG, "init": {"viewer": [5.0] * 3, "provider": [5.0] * 3,
                                           "t": 9}}),
    ("fixed-point", "colour", {**FIXED_POINT_CONFIG, "environment": {
        "inline": {**FIXED_POINT_CONFIG["environment"]["inline"], "colour": "red"}}}),
    ("run", "iters", {**RUN_CONFIG, "policies": [LOOKAHEAD | {"lookahead": {"iters": 2}}]}),
    ("estimate", "iters", {**MISSPELLED_KEYS["estimate"][1], "lookahead": {"iters": 2}}),
    ("gen", "tau_range", scenario_dict(tau_range=[4, 8, 20])),
    ("gen", "tau_range", scenario_dict(tau_range=[[4, 8]])),
    ("fixed-point", "params", _inline_config(f=[[{"kind": "linear"}]] * 2)),
    ("fixed-point", "slope", _inline_config(f=[[{"kind": "linear", "params": {}}]] * 2)),
    ("fixed-point", "slope", _inline_config(f=[[{"kind": "linear", "params": {
        "slope": True, "intercept": 0.0}}]] * 2)),
    ("fixed-point", "grid", _inline_config(f=[5, 5])),
    ("fixed-point", "policy", {**MISSPELLED_KEYS["fixed-point"][1],
                               "policy": np.full((3, 3), 0.7 / 3).tolist()}),
    ("stability", "policy", {**MISSPELLED_KEYS["stability"][1],
                             "policy": np.full((3, 3), 0.7 / 3).tolist()}),
    ("oracle linear-ne", "pi", {"params": LINEAR_PARAMS, "pi": [[0.7]]}),
    ("oracle linear-welfare", "pi", {"params": LINEAR_PARAMS, "pi": [[0.7]]}),
    ("gen", "tau_range", scenario_dict(tau_range=[4, int("9" * 400)])),
    ("gen", "tau_range", scenario_dict(tau_range=[np.inf, np.inf])),
    ("run", "B", {**RUN_CONFIG, "init": FIXED_POINT_CONFIG["init"],
                  "environment": _inline_config(B=[[np.inf], [1.0]])["environment"]}),
    ("run", "colour", {**RUN_CONFIG, "init": FIXED_POINT_CONFIG["init"], "environment":
                       _inline_config(noise={"relative_std": 0.05, "colour": 1})["environment"]}),
    ("run", "relative_std", {**RUN_CONFIG, "init": FIXED_POINT_CONFIG["init"], "environment":
                             _inline_config(noise={"relative_std": "0.05"})["environment"]}),
    ("fixed-point", "init", {k: v for k, v in FIXED_POINT_CONFIG.items() if k != "init"}),
]


def _case_ids(cases):
    """The first case of a command is named by the command, a later one by
    the command and its key, numbered from 2 when that name repeats."""
    ids, seen = [], {}
    for i, (command, key, _) in enumerate(cases):
        name = command if all(command != c for c, *_ in cases[:i]) else f"{command} {key}"
        seen[name] = seen.get(name, 0) + 1
        ids.append(name if seen[name] == 1 else f"{name} {seen[name]}")
    return ids


@pytest.mark.parametrize("command,key,payload", UNPARSABLE_VALUES,
                         ids=_case_ids(UNPARSABLE_VALUES))
def test_unparsable_value_is_config_error(tmp_path, capsys, command, key, payload):
    cfg = write_json(tmp_path, "cfg.json", payload)
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, command.split() + ["--config", cfg, "--out", str(out)])
    assert code == 2 and stdout == ""
    record = json.loads(err)["error"]
    assert record["type"] == "ExperimentConfigError" and key in record["message"]
    assert key != "tol" or "tol must be a finite number" in record["message"]
    # a JSON number past the float range is read as an infinity, refused as not finite
    assert "Infinity" not in json.dumps(payload) or "finite" in record["message"]
    assert "__init__" not in record["message"]     # the block is named, not a constructor
    assert not out.exists()


def test_init_of_the_wrong_length_is_config_error(tmp_path, capsys):
    cfg = write_json(tmp_path, "cfg.json", {
        "environment": _two_group_inline(), "T": 2,
        "init": {"viewer": [1.0], "provider": [1.0]},
        "policies": [{"name": "u", "kind": "uniform"}, {"name": "g", "kind": "myopic"}]})
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, ["run", "--config", cfg, "--out", str(out)])
    assert code == 2 and stdout == ""
    record = json.loads(err)["error"]
    assert record["type"] == "ExperimentConfigError" and "K=2" in record["message"]
    assert not out.exists()


# given populations go in the config's init block; the scenario's own custom
# init is gone, with its (key, value) pairs once accepted
REMOVED_SYNTHETIC_INIT = {"init": "custom", "init_viewer": [1.0, 2.0],
                          "init_provider": [3.0, 4.0]}


@pytest.mark.parametrize("key", sorted(REMOVED_SYNTHETIC_INIT))
def test_synthetic_custom_init_is_config_error(tmp_path, capsys, key):
    scenario = scenario_dict(K=2, L=2, d=2, **{key: REMOVED_SYNTHETIC_INIT[key]})
    cfg = write_json(tmp_path, "cfg.json", {
        "environment": {"synthetic": scenario}, "T": 2,
        "policies": [{"name": "u", "kind": "uniform"}, {"name": "g", "kind": "myopic"}]})
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, ["run", "--config", cfg, "--out", str(out)])
    assert code == 2 and stdout == ""
    record = json.loads(err)["error"]
    assert record["type"] == "ExperimentConfigError" and key in record["message"]
    assert key != "init" or "'custom'" in record["message"]
    assert not out.exists()


# ---------------------------------------------------------------------------
# run / estimate


def test_run_emits_files_and_summary(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_json(tmp_path, "exp.json", {
        "environment": {"synthetic": scenario_dict()},
        "policies": [{"name": "uni", "kind": "uniform"},
                     {"name": "greedy", "kind": "myopic"}],
        "seeds": [0],
        "outputs": str(out),
    })
    code, stdout, _ = run_cli(capsys, ["run", "--config", cfg])
    assert code == 0
    summary = json.loads(stdout)
    assert set(summary["policies"]) == {"uni", "greedy"}
    assert (out / "summary.json").exists()
    assert (out / "trajectory_uni_0.csv").exists()
    assert (out / "regret_greedy_0.csv").exists()


def test_run_regret_is_the_suite_of_its_own_trajectories(tmp_path, capsys):
    """A one-seed run writes the regret CSVs of the regret suite of the
    trajectories it wrote, and that suite's summary under its seed."""
    policies = [{"name": "u", "kind": "uniform"}, {"name": "m", "kind": "myopic"},
                {"name": "e", "kind": "epsilon_greedy", "epsilon": 0.2}]
    payload = {"environment": {"synthetic": scenario_dict(K=3, L=4, T=7)},
               "policies": policies, "seeds": [5]}
    out = tmp_path / "out"
    cfg = write_json(tmp_path, "exp.json", payload)
    code, stdout, _ = run_cli(capsys, ["run", "--config", cfg, "--out", str(out)])
    assert code == 0
    config = experiment.ExperimentConfig.from_dict(payload)
    env, init = experiment.resolve_environment(config.environment, config.init)
    trajectories = {}
    for spec in config.policies:
        traj = rollout(env, experiment.build_policy(env, spec), config.T, init, seed=5)
        assert (out / f"trajectory_{spec.name}_5.csv").read_bytes() == \
            trajectory_to_csv(traj).encode()
        trajectories[spec.name] = traj
    suite = empirical_regret_suite(env, trajectories)
    assert sorted(suite.reports) == ["e", "m", "u"]
    for name, report in suite.reports.items():
        assert (out / f"regret_{name}_5.csv").read_bytes() == \
            regret_report_to_csv(report).encode()
    assert json.loads(stdout)["regret"] == {"5": suite_summary(suite)}


def test_inline_noise_block_gives_each_seed_its_own_trajectory(tmp_path, capsys):
    inline = _inline_config(noise={"relative_std": 0.05})["environment"]
    out = tmp_path / "out"
    cfg = write_json(tmp_path, "exp.json", {
        "environment": inline, "init": FIXED_POINT_CONFIG["init"], "T": 4, "seeds": [1, 2],
        "policies": [{"name": "u", "kind": "uniform"}]})
    code, _, _ = run_cli(capsys, ["run", "--config", cfg, "--out", str(out), "--quiet"])
    assert code == 0
    one, two = (parse_trajectory_csv((out / f"trajectory_u_{seed}.csv").read_text())
                for seed in (1, 2))
    assert not np.array_equal(one.lambda_viewer, two.lambda_viewer)


def test_estimate_subcommand(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_json(tmp_path, "est.json", {
        "environment": {"synthetic": scenario_dict(K=2, L=2, d=2)},
        "T_b": 8, "T": 12, "beta": 0.5, "refit_every": 2,
    })
    code, stdout, _ = run_cli(capsys, ["estimate", "--config", cfg, "--out", str(out)])
    assert code == 0
    record = json.loads(stdout)
    assert "fitted" in record and "final_welfare" in record
    assert (out / "fitted.json").exists()
    assert (out / "trajectory_estimate.csv").exists()
    assert (out / "interaction_log.csv").exists()


# ---------------------------------------------------------------------------
# fixed-point / stability


EQ_LOW = (0.0278, 0.0555)
EQ_MID = (0.5, 0.5)
EQ_HIGH = (0.9722, 0.9445)


def test_fixed_point_preset_recovers_three_equilibria(tmp_path, capsys):
    code, stdout, _ = run_cli(capsys, ["fixed-point", "--preset", "sigmoid-triple"])
    assert code == 0
    records = {r["init"]: r for r in json.loads(stdout)}
    assert set(records) == {"low", "mid", "high"}
    for name, (v, p) in zip(("low", "mid", "high"), (EQ_LOW, EQ_MID, EQ_HIGH)):
        assert records[name]["viewer"][0] == pytest.approx(v, abs=1e-3)
        assert records[name]["provider"][0] == pytest.approx(p, abs=1e-3)
        assert records[name]["residual"] < 1e-9


def test_fixed_point_single_init(tmp_path, capsys):
    out = tmp_path / "out"
    code, stdout, _ = run_cli(capsys, ["fixed-point", "--preset", "sigmoid-triple",
                                       "--init", "mid", "--out", str(out)])
    assert code == 0
    records = json.loads(stdout)
    assert len(records) == 1 and records[0]["init"] == "mid"
    assert json.loads((out / "fixed_points.json").read_text()) == records


def test_fixed_point_unknown_preset_exits_2(capsys):
    code, _, err = run_cli(capsys, ["fixed-point", "--preset", "other"])
    assert code == 2
    record = json.loads(err)["error"]
    assert record["type"] == "ExperimentConfigError" and "preset" in record["message"]


def test_stability_preset_classifies_equilibria(capsys):
    code, stdout, _ = run_cli(capsys, ["stability", "--preset", "sigmoid-triple"])
    assert code == 0
    records = {r["init"]: r for r in json.loads(stdout)}
    assert records["low"]["stable"] and records["high"]["stable"]
    assert not records["mid"]["stable"]
    for rec in records.values():
        assert rec["spectral_radius"] >= 0.0
        mags = [abs(complex(re, im)) for re, im in rec["eigenvalues"]]
        assert mags == sorted(mags, reverse=True)
        assert len(rec["analytic_eigenvalues"]) == len(rec["eigenvalues"])
        # [re, im] pairs in the same magnitude order as the dense spectrum
        np.testing.assert_allclose([complex(*ev) for ev in rec["analytic_eigenvalues"]],
                                   [complex(*ev) for ev in rec["eigenvalues"]], atol=1e-8)


def test_stability_per_group_rates_report_null_closed_form(tmp_path, capsys):
    env = EnvironmentSpec(
        K=2, L=1, B=[[1.0], [1.0]],
        f=[[linear_fn(0.1)], [linear_fn(0.1)]],
        lambda_bar_viewer=(linear_fn(0.2), linear_fn(0.2)),
        lambda_bar_provider=(linear_fn(0.2),),
        eta_viewer=[0.5, 0.6], eta_provider=[0.5], seed=0)
    cfg = write_json(tmp_path, "st.json", {
        "environment": {"inline": json.loads(env.to_json())},
        "init": {"viewer": [0.1, 0.1], "provider": [0.1]},
        "policy": [[1.0], [1.0]],
    })
    code, stdout, _ = run_cli(capsys, ["stability", "--config", cfg])
    assert code == 0
    (rec,) = json.loads(stdout)
    assert rec["analytic_eigenvalues"] is None
    assert len(rec["eigenvalues"]) == 3


def test_diverging_run_exits_1_with_divergence_error(tmp_path, capsys):
    env = EnvironmentSpec(
        K=1, L=1, B=[[1.0]],
        f=[[linear_fn(1.0)]],
        lambda_bar_viewer=(linear_fn(1e100),),
        lambda_bar_provider=(linear_fn(1e100),),
        eta_viewer=[1.0], eta_provider=[1.0], seed=0)
    cfg = write_json(tmp_path, "div.json", {
        "environment": {"inline": json.loads(env.to_json())},
        "init": {"viewer": [1.0], "provider": [1.0]},
        "policy": [[1.0]],
    })
    code, _, err = run_cli(capsys, ["fixed-point", "--config", cfg, "--quiet"])
    assert code == 1
    assert json.loads(err)["error"]["type"] == "DivergenceError"


def test_runtime_failure_exits_1(tmp_path, capsys):
    # A diverging instance: fixed-point iteration cannot converge, which is a
    # runtime failure rather than a config mistake.
    env = EnvironmentSpec(
        K=1, L=1, B=[[1.0]],
        f=[[linear_fn(1.0)]],
        lambda_bar_viewer=(linear_fn(2.0, 1.0),),
        lambda_bar_provider=(linear_fn(2.0, 1.0),),
        eta_viewer=[1.0], eta_provider=[1.0], seed=0)
    cfg = write_json(tmp_path, "div.json", {
        "environment": {"inline": json.loads(env.to_json())},
        "init": {"viewer": [3.0], "provider": [7.0]},
        "policy": [[1.0]],
        "max_iter": 500,
    })
    code, _, err = run_cli(capsys, ["fixed-point", "--config", cfg, "--quiet"])
    assert code == 1
    assert json.loads(err)["error"]["type"] == "ConvergenceError"


# a program bug is a runtime failure, never reported as a config error
@pytest.mark.parametrize("name,error", [("load_environment", TypeError("a bug")),
                                        ("uniform_policy", ValueError("a bug"))])
def test_program_bug_in_a_run_exits_1(tmp_path, capsys, monkeypatch, name, error):
    def bug(*args, **kwargs):
        raise error

    monkeypatch.setattr(experiment, name, bug)
    cfg = write_json(tmp_path, "exp.json", RUN_CONFIG)
    code, _, err = run_cli(capsys, ["run", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 1
    assert json.loads(err)["error"] == {"type": type(error).__name__, "message": "a bug"}


# ---------------------------------------------------------------------------
# oracle


def test_oracle_counterexample_endpoint(capsys):
    code, stdout, _ = run_cli(capsys, ["oracle", "counterexample", "--pi11", "1.0"])
    assert code == 0
    record = json.loads(stdout)
    assert record == {"pi11": 1.0, "r_tilde": 1.0}


def test_oracle_linear_ne_matches_hand_values(tmp_path, capsys):
    cfg = write_json(tmp_path, "lin.json", {
        "params": {"a0": 0.5, "a1": 0.5, "a2": 0.5, "b2": 1.0, "B": [[1.0]]},
        "pi": [[1.0]],
    })
    code, stdout, _ = run_cli(capsys, ["oracle", "linear-ne", "--config", cfg])
    assert code == 0
    record = json.loads(stdout)
    assert record["viewer"][0] == pytest.approx(6.0 / 7.0, abs=1e-12)
    assert record["provider"][0] == pytest.approx(10.0 / 7.0, abs=1e-12)
    assert record["simulator_max_residual"] < 1e-8


def test_oracle_linear_welfare_two_routes_agree(tmp_path, capsys):
    cfg = write_json(tmp_path, "lin.json", {
        "params": {"a0": 0.5, "a1": 0.5, "a2": 0.5, "b2": 1.0, "B": [[1.0]]},
        "pi": [[1.0]],
    })
    code, stdout, _ = run_cli(capsys, ["oracle", "linear-welfare", "--config", cfg])
    assert code == 0
    record = json.loads(stdout)
    assert record["welfare"] == pytest.approx(72.0 / 49.0, abs=1e-12)
    assert record["difference"] < 1e-10


def test_oracle_epsilon_bounds_single_viewer_curve(tmp_path, capsys):
    cfg = write_json(tmp_path, "eps.json", {
        "params": {"a0": 0.2, "a1": 0.3, "a2": 0.25, "b2": 0.8,
                   "B": [[2.0, 1.0, 0.5]]},
    })
    code, stdout, _ = run_cli(capsys, ["oracle", "epsilon-bounds", "--config", cfg])
    assert code == 0
    rows = json.loads(stdout)["grid"]
    assert len(rows) == 21
    welf = [r["welfare"] for r in rows]
    assert all(a > b for a, b in zip(welf, welf[1:]))  # single viewer: strict decay
    for r in rows:
        assert r["welfare"] == pytest.approx(r["upper"], rel=1e-9)


LINEAR_PARAMS = {"a0": 0.5, "a1": 0.5, "a2": 0.5, "b2": 1.0, "B": [[1.0, 0.5]]}

# (subcommand, misspelled key, config with it); the params typos sit inside 'params'
MISSPELLED_ORACLE_KEYS = [
    ("linear-ne", "pi_init", {"params": LINEAR_PARAMS, "pi": [[0.5, 0.5]], "pi_init": 1}),
    ("linear-welfare", "b1", {"params": {**LINEAR_PARAMS, "b1": 0.3}, "pi": [[0.5, 0.5]]}),
    ("epsilon-bounds", "epsilon_gird", {"params": LINEAR_PARAMS, "epsilon_gird": [0.0, 0.5]}),
    ("epsilon-bounds", "a_2", {"params": {**LINEAR_PARAMS, "a_2": 0.5}}),
]


@pytest.mark.parametrize("oracle_cmd, key, payload", MISSPELLED_ORACLE_KEYS,
                         ids=[f"{cmd}-{key}" for cmd, key, _ in MISSPELLED_ORACLE_KEYS])
def test_oracle_unknown_key_is_config_error(tmp_path, capsys, oracle_cmd, key, payload):
    cfg = write_json(tmp_path, "cfg.json", payload)
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, ["oracle", oracle_cmd, "--config", cfg,
                                         "--out", str(out)])
    assert code == 2 and stdout == ""
    record = json.loads(err)["error"]
    assert record["type"] == "ExperimentConfigError" and key in record["message"]
    assert not out.exists()


def test_oracle_missing_config_exits_2(capsys):
    code, _, err = run_cli(capsys, ["oracle", "linear-ne"])
    assert code == 2
    record = json.loads(err)["error"]
    assert record["type"] == "ExperimentConfigError" and "config" in record["message"]


# ---------------------------------------------------------------------------
# flags a subcommand would not read


LINEAR_CONFIG = {"params": LINEAR_PARAMS, "pi": [[0.5, 0.5]]}

# (id, argv with {cfg} for the config path, config payload, how the CLI
# refuses): "config" is an ExperimentConfigError record, "usage" argparse's
# own exit 2
UNREAD_FLAGS = [
    ("fixed-point-preset-and-config",
     ["fixed-point", "--preset", "sigmoid-triple", "--config", "{cfg}"], FIXED_POINT_CONFIG,
     "config"),
    ("stability-preset-and-config",
     ["stability", "--preset", "sigmoid-triple", "--config", "{cfg}"], FIXED_POINT_CONFIG,
     "config"),
    ("fixed-point-init-and-config",
     ["fixed-point", "--config", "{cfg}", "--init", "mid"], FIXED_POINT_CONFIG, "config"),
    ("stability-init-and-config",
     ["stability", "--config", "{cfg}", "--init", "mid"], FIXED_POINT_CONFIG, "config"),
    ("fixed-point-init-alone", ["fixed-point", "--init", "mid"], None, "config"),
    ("gen-seed", ["gen", "--config", "{cfg}", "--seed", "3"], scenario_dict(), "usage"),
    ("run-seed", ["run", "--config", "{cfg}", "--seed", "3"], RUN_CONFIG, "usage"),
    ("estimate-seed", ["estimate", "--config", "{cfg}", "--seed", "3"],
     MISSPELLED_KEYS["estimate"][1], "usage"),
    ("fixed-point-seed",
     ["fixed-point", "--preset", "sigmoid-triple", "--seed", "3"], None, "usage"),
    ("stability-seed",
     ["stability", "--config", "{cfg}", "--seed", "3"], FIXED_POINT_CONFIG, "usage"),
    ("counterexample-seed",
     ["oracle", "counterexample", "--pi11", "0.3", "--seed", "3"], None, "usage"),
    ("counterexample-config",
     ["oracle", "counterexample", "--pi11", "0.3", "--config", "{cfg}"], LINEAR_CONFIG, "usage"),
    ("linear-ne-seed",
     ["oracle", "linear-ne", "--config", "{cfg}", "--seed", "3"], LINEAR_CONFIG, "usage"),
    ("linear-welfare-seed",
     ["oracle", "linear-welfare", "--config", "{cfg}", "--seed", "3"], LINEAR_CONFIG, "usage"),
    ("epsilon-bounds-seed",
     ["oracle", "epsilon-bounds", "--config", "{cfg}", "--seed", "3"],
     {"params": LINEAR_PARAMS}, "usage"),
]


@pytest.mark.parametrize("argv, payload, refusal", [case[1:] for case in UNREAD_FLAGS],
                         ids=[case[0] for case in UNREAD_FLAGS])
def test_flags_the_subcommand_would_not_read_exit_2(tmp_path, capsys, argv, payload, refusal):
    cfg = write_json(tmp_path, "cfg.json", payload) if payload is not None else None
    out = tmp_path / "out"
    argv = [cfg if a == "{cfg}" else a for a in argv] + ["--out", str(out)]
    try:
        code = main(argv)
    except SystemExit as exc:      # argparse: the subcommand has no such flag
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and not out.exists()
    if refusal == "config":
        assert json.loads(captured.err)["error"]["type"] == "ExperimentConfigError"
    else:
        assert "unrecognized arguments" in captured.err


# ---------------------------------------------------------------------------
# installed surface


def test_module_execution_round_trip():
    proc = subprocess.run(
        [sys.executable, "-m", "twoside_sim.cli", "oracle", "counterexample",
         "--pi11", "0.5"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    record = json.loads(proc.stdout)
    assert record["pi11"] == 0.5
    assert record["r_tilde"] == pytest.approx(0.95 / 0.9, rel=1e-12)
