"""Experiment orchestration: policy specs, per-cell emission, summaries."""

import dataclasses
import json

import numpy as np
import pytest

from conftest import random_env, random_state
from twoside_sim import (ExperimentConfig, ExperimentConfigError,
                         LookaheadConfig, NoiseSpec, PolicySpec,
                         SyntheticScenarioConfig, build_policy_rule,
                         gen_synthetic, parse_trajectory_csv,
                         run_experiment, sample_initial_state)


def scenario(**over):
    base = dict(K=3, L=3, d=3, T=4, seed=11, eta=0.3)
    base.update(over)
    return SyntheticScenarioConfig(**base)


def fast_lookahead():
    return LookaheadConfig(iterations=3, learning_rate=0.2)


# ---------------------------------------------------------------------------
# specs and config


def test_policy_spec_validation():
    with pytest.raises(ExperimentConfigError, match="name"):
        PolicySpec(name="has space", kind="uniform")
    with pytest.raises(ExperimentConfigError, match="kind"):
        PolicySpec(name="x", kind="thompson")
    with pytest.raises(ExperimentConfigError, match="epsilon"):
        PolicySpec(name="x", kind="epsilon_greedy")
    with pytest.raises(ExperimentConfigError, match="epsilon"):
        PolicySpec(name="x", kind="epsilon_greedy", epsilon=1.5)
    with pytest.raises(ExperimentConfigError, match="beta"):
        PolicySpec(name="x", kind="lookahead", beta=-0.1)


def test_lookahead_spec_defaults():
    spec = PolicySpec(name="la", kind="lookahead")
    assert spec.beta == 1.0
    assert spec.lookahead == LookaheadConfig()


def test_policy_spec_dict_round_trip():
    specs = [
        PolicySpec(name="uni", kind="uniform"),
        PolicySpec(name="eps", kind="epsilon_greedy", epsilon=0.25),
        PolicySpec(name="la", kind="lookahead", beta=0.6, lookahead=fast_lookahead()),
    ]
    for spec in specs:
        assert PolicySpec.from_dict(spec.to_dict()) == spec


def test_experiment_config_validation(tmp_path):
    ok = dict(environment=scenario(), T=3, seeds=(0,), outputs=str(tmp_path))
    with pytest.raises(ExperimentConfigError, match="policy"):
        ExperimentConfig(policies=(), **ok)
    dup = (PolicySpec(name="a", kind="uniform"), PolicySpec(name="a", kind="myopic"))
    with pytest.raises(ExperimentConfigError, match="duplicate"):
        ExperimentConfig(policies=dup, **ok)
    uni = (PolicySpec(name="u", kind="uniform"),)
    with pytest.raises(ExperimentConfigError, match="seeds"):
        ExperimentConfig(environment=scenario(), policies=uni, T=3, seeds=(),
                         outputs=str(tmp_path))
    with pytest.raises(ExperimentConfigError, match="T"):
        ExperimentConfig(environment=scenario(), policies=uni, T=0, seeds=(0,),
                         outputs=str(tmp_path))
    env = random_env(1, max_dim=2)
    with pytest.raises(ExperimentConfigError, match="init"):
        ExperimentConfig(environment=env, policies=uni, T=3, seeds=(0,),
                         outputs=str(tmp_path))


def test_config_from_dict_synthetic_defaults_horizon(tmp_path):
    d = {
        "environment": {"synthetic": scenario(T=7).to_dict()},
        "policies": [{"name": "u", "kind": "uniform"}],
        "seeds": [1, 2],
        "outputs": str(tmp_path),
    }
    cfg = ExperimentConfig.from_dict(d)
    assert cfg.T == 7 and cfg.seeds == (1, 2)
    with pytest.raises(ExperimentConfigError, match="environment"):
        ExperimentConfig.from_dict({"policies": [], "T": 3})
    inline = {
        "environment": {"inline": random_env(2, max_dim=2).to_dict()},
        "policies": [{"name": "u", "kind": "uniform"}],
        "outputs": str(tmp_path),
    }
    with pytest.raises(ExperimentConfigError, match="T"):
        ExperimentConfig.from_dict(inline)


# ---------------------------------------------------------------------------
# runs


def test_single_frozen_policy_emits_constant_population_csv(tmp_path):
    cfg = ExperimentConfig(
        environment=scenario(eta=0.0, T=3, K=2, L=2),
        policies=(PolicySpec(name="uni", kind="uniform"),),
        T=3, seeds=(5,), outputs=str(tmp_path))
    summary = run_experiment(cfg)
    csv_path = tmp_path / "trajectory_uni_5.csv"
    traj = parse_trajectory_csv(csv_path.read_text())
    assert traj.lambda_viewer.shape[0] == 3
    # learning rate zero: populations never move
    assert np.all(traj.lambda_viewer == traj.lambda_viewer[0])
    assert np.all(traj.lambda_provider == traj.lambda_provider[0])
    assert "regret" not in summary  # a single policy has nothing to pair


def test_beta_sweep_emits_all_files_and_one_summary(tmp_path):
    betas = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
    policies = tuple(
        PolicySpec(name=f"beta_{b:.1f}", kind="lookahead", beta=b,
                   lookahead=fast_lookahead())
        for b in betas)
    cfg = ExperimentConfig(environment=scenario(), policies=policies,
                           T=4, seeds=(0,), outputs=str(tmp_path))
    summary = run_experiment(cfg)
    trajs = sorted(p.name for p in tmp_path.glob("trajectory_*.csv"))
    regrets = sorted(p.name for p in tmp_path.glob("regret_*.csv"))
    assert len(trajs) == 6 and len(regrets) == 6
    assert (tmp_path / "summary.json").exists()
    on_disk = json.loads((tmp_path / "summary.json").read_text())
    assert on_disk == summary
    assert set(summary["policies"]) == {f"beta_{b:.1f}" for b in betas}
    assert set(summary["regret"]["0"]["reports"]) == set(summary["policies"])
    for entry in summary["policies"].values():
        assert set(entry["per_seed"]) == {"0"}
        for cell in entry["per_seed"].values():
            assert set(cell) == {"final_welfare", "final_viewer_total",
                                 "final_provider_total", "cumulative_welfare"}


def test_rerun_is_byte_identical(tmp_path):
    policies = (PolicySpec(name="uni", kind="uniform"),
                PolicySpec(name="greedy", kind="myopic"),
                PolicySpec(name="eps", kind="epsilon_greedy", epsilon=0.3))
    dirs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        cfg = ExperimentConfig(environment=scenario(T=5), policies=policies,
                               T=5, seeds=(0, 1), outputs=str(out))
        run_experiment(cfg)
        dirs.append(out)
    names_a = sorted(p.name for p in dirs[0].iterdir())
    names_b = sorted(p.name for p in dirs[1].iterdir())
    assert names_a == names_b and len(names_a) > 0
    for name in names_a:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_noisy_cells_use_their_seed(tmp_path):
    # With noise active, different seeds give different trajectories and the
    # same seed reproduces bit-for-bit.
    scen = scenario(T=4)
    env_noisy = dataclasses.replace(gen_synthetic(scen),
                                    noise=NoiseSpec(relative_std=0.05))
    init = sample_initial_state(scen)
    cfg = ExperimentConfig(environment=env_noisy, init=init,
                           policies=(PolicySpec(name="uni", kind="uniform"),),
                           T=4, seeds=(0, 1), outputs=str(tmp_path))
    run_experiment(cfg)
    t0 = (tmp_path / "trajectory_uni_0.csv").read_text()
    t1 = (tmp_path / "trajectory_uni_1.csv").read_text()
    assert t0 != t1


def test_inline_environment_with_myopic(tmp_path):
    env = random_env(4, max_dim=3)
    init = random_state(4, env)
    cfg = ExperimentConfig(environment=env, init=init,
                           policies=(PolicySpec(name="greedy", kind="myopic"),
                                     PolicySpec(name="uni", kind="uniform")),
                           T=4, seeds=(0,), outputs=str(tmp_path))
    summary = run_experiment(cfg)
    assert summary["environment_digest"] == env.digest()
    assert summary["regret"]["0"]["baseline"] in {"greedy", "uni"}


def test_unwritable_output_directory_errors(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    cfg = ExperimentConfig(environment=scenario(),
                           policies=(PolicySpec(name="u", kind="uniform"),),
                           T=2, seeds=(0,), outputs=str(blocker / "nested"))
    with pytest.raises(OSError):
        run_experiment(cfg)


def test_build_policy_rule_produces_valid_rows():
    scen = scenario()
    env = gen_synthetic(scen)
    init = sample_initial_state(scen)
    for spec in (PolicySpec(name="u", kind="uniform"),
                 PolicySpec(name="m", kind="myopic"),
                 PolicySpec(name="e", kind="epsilon_greedy", epsilon=0.5),
                 PolicySpec(name="l", kind="lookahead", beta=0.5,
                            lookahead=fast_lookahead())):
        rule = build_policy_rule(env, spec)
        pi = rule(env, init)
        rows = np.asarray(pi.rows if hasattr(pi, "rows") else pi)
        np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-9)
