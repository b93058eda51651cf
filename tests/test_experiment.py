"""Experiment orchestration: policy specs, per-cell emission, summaries."""

import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_env, random_state
from twoside_sim import (DivergenceError, EnvironmentSpec, ExperimentConfig,
                         ExperimentConfigError, LookaheadConfig, NoiseSpec,
                         PolicySpec, PopulationState, SyntheticScenarioConfig,
                         Trajectory, TrajectoryTable, build_policy_rule,
                         empirical_regret_suite, epsilon_greedy, gen_synthetic,
                         interpolate, linear_fn, myopic_greedy, optimize_lookahead,
                         parse_trajectory_csv, payoffs, regret_report_to_csv, rollout,
                         run_experiment, sample_initial_state, step, suite_summary,
                         table_fn, trajectory_to_csv, uniform_policy, welfare)


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


# ---------------------------------------------------------------------------
# lockstep runs against cells run one at a time


def diverging_env():
    """K=1, L=2 under 30% noise.  Deployed on provider 2 (epsilon-greedy with
    epsilon 0) it stays bounded; uniform feeds provider 1, whose population
    effect and curves compound at a seed-dependent rate until the welfare
    overflows."""
    return EnvironmentSpec(
        K=1, L=2, B=[[0.0, 1.0]], f=((linear_fn(1.0), linear_fn(0.0)),),
        lambda_bar_viewer=(linear_fn(10.0),),
        lambda_bar_provider=(linear_fn(10.0), linear_fn(0.0, 1.0)),
        eta_viewer=[1.0], eta_provider=[1.0, 1.0], noise=NoiseSpec(0.3))


def test_divergence_raises_the_first_failed_cell_in_config_order(tmp_path):
    env = diverging_env()
    init = PopulationState(t=0, viewer=[1.0], provider=[1.0, 1.0])
    policies = (PolicySpec(name="eps", kind="epsilon_greedy", epsilon=0.0),
                PolicySpec(name="uni", kind="uniform"),
                PolicySpec(name="myo", kind="myopic"))
    seeds, T = (0, 6, 5, 1), 234
    # the reference: each cell run alone, in config order
    serial: dict[tuple[str, int], Trajectory | DivergenceError] = {}
    for spec in policies:
        for seed in seeds:
            try:
                serial[spec.name, seed] = rollout(env, build_policy_rule(env, spec), T, init,
                                                  seed=seed)
            except DivergenceError as err:
                serial[spec.name, seed] = err
    first_step = {key: r.last_state.t for key, r in serial.items()
                  if not isinstance(r, Trajectory)}
    # under uniform, seed 0 survives, seed 6 diverges last and seed 1 first
    assert ("uni", 0) not in first_step
    assert first_step["uni", 1] < first_step["uni", 5] < first_step["uni", 6] < T
    cfg = ExperimentConfig(environment=env, init=init, policies=policies, T=T, seeds=seeds,
                           outputs=str(tmp_path))
    with pytest.raises(DivergenceError) as exc:
        run_experiment(cfg)
    want = serial["uni", 6]
    assert str(exc.value) == str(want)
    assert exc.value.last_state.t == want.last_state.t
    assert np.array_equal(exc.value.last_state.viewer, want.last_state.viewer)
    assert np.array_equal(exc.value.last_state.provider, want.last_state.provider)
    # the files of the cells before it, and no summary
    written = [("eps", seed) for seed in seeds] + [("uni", 0)]
    assert {p.name for p in tmp_path.iterdir()} == {
        f"trajectory_{name}_{seed}.csv" for name, seed in written}
    for name, seed in written:
        assert ((tmp_path / f"trajectory_{name}_{seed}.csv").read_text()
                == trajectory_to_csv(serial[name, seed]))


KINDS = {
    "uniform": dict(kind="uniform"),
    "myopic": dict(kind="myopic"),
    "epsilon_greedy": dict(kind="epsilon_greedy", epsilon=0.3),
    "lookahead": dict(kind="lookahead", beta=0.6,
                      lookahead=LookaheadConfig(iterations=2, learning_rate=0.2)),
}


def reference_decision(env, spec, state):
    if spec.kind == "uniform":
        return uniform_policy(env.K, env.L)
    if spec.kind == "myopic":
        return myopic_greedy(env, state)
    if spec.kind == "epsilon_greedy":
        return epsilon_greedy(env.B, spec.epsilon)
    return interpolate(optimize_lookahead(env, state, spec.lookahead),
                       myopic_greedy(env, state), spec.beta)


def reference_cell(env, init, spec, T, seed):
    """One cell alone, step by step through the public payoffs, welfare and
    step, drawing from its own generator."""
    rng = np.random.default_rng(seed)
    state, rows = init, []
    for _ in range(T):
        pi = reference_decision(env, spec, state)
        p = payoffs(env, state, pi)
        rows.append((state, pi, p, welfare(state, p)))
        state = step(env, state, pi, rng)
    states, pis, ps, ws = zip(*rows)
    table = TrajectoryTable(t=[st.t for st in states],
                            lambda_viewer=[st.viewer for st in states],
                            lambda_provider=[st.provider for st in states],
                            s=[p.s for p in ps], e=[p.e for p in ps], welfare=ws)
    return Trajectory(table=table, q=[p.q for p in ps], policy=[pi.rows for pi in pis],
                      env_digest=env.digest(), seed=seed)


def reference_files(env, init, specs, T, seeds) -> dict[str, str]:
    """The files of a run_experiment call, rebuilt from reference cells."""
    cells = {(spec.name, seed): reference_cell(env, init, spec, T, seed)
             for spec in specs for seed in seeds}
    files = {f"trajectory_{name}_{seed}.csv": trajectory_to_csv(traj)
             for (name, seed), traj in cells.items()}
    summary = {"environment_digest": env.digest(), "T": T, "seeds": list(seeds),
               "policies": {spec.name: {
                   "per_seed": {str(seed): {
                       "final_welfare": float(cells[spec.name, seed].table.welfare[-1]),
                       "final_viewer_total":
                           float(cells[spec.name, seed].table.lambda_viewer[-1].sum()),
                       "final_provider_total":
                           float(cells[spec.name, seed].table.lambda_provider[-1].sum()),
                       "cumulative_welfare": float(cells[spec.name, seed].table.welfare.sum()),
                   } for seed in seeds},
                   "mean_welfare": float(np.mean([cells[spec.name, seed].table.welfare.mean()
                                                  for seed in seeds])),
               } for spec in specs}}
    if len(specs) >= 2:
        summary["regret"] = {}
        for seed in seeds:
            suite = empirical_regret_suite(env, {spec.name: cells[spec.name, seed]
                                                 for spec in specs})
            summary["regret"][str(seed)] = suite_summary(suite)
            files.update({f"regret_{name}_{seed}.csv": regret_report_to_csv(report)
                          for name, report in suite.reports.items()})
    files["summary.json"] = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    return files


def assert_run_equals_reference(env, init, specs, T, seeds):
    with tempfile.TemporaryDirectory() as out:
        run_experiment(ExperimentConfig(environment=env, init=init, policies=specs, T=T,
                                        seeds=seeds, outputs=out))
        got = {p.name: p.read_bytes() for p in Path(out).iterdir()}
    want = reference_files(env, init, specs, T, seeds)
    assert sorted(got) == sorted(want)
    for name, text in want.items():
        assert got[name] == text.encode(), name


def with_tables(env, seed):
    """`env` with one population effect and one viewer curve replaced by
    tables, so that its curves go through the per-cell evaluation path."""
    rng = np.random.default_rng([seed, 5])

    def table():
        xs, ys = np.sort(rng.uniform(0.0, 30.0, 3)), np.sort(rng.uniform(0.0, 10.0, 3))
        return table_fn(list(zip(xs.tolist(), ys.tolist())))

    f = [list(row) for row in env.f]
    f[-1][0] = table()
    viewer = list(env.lambda_bar_viewer)
    viewer[0] = table()
    return dataclasses.replace(env, f=tuple(map(tuple, f)), lambda_bar_viewer=tuple(viewer))


@settings(max_examples=30, deadline=None)
@given(env_seed=st.integers(0, 10**6), max_dim=st.sampled_from([1, 2, 4]),
       noise=st.sampled_from([0.0, 0.05]), tables=st.booleans(),
       seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4, unique=True),
       kinds=st.lists(st.sampled_from(sorted(KINDS)), min_size=1, max_size=4, unique=True),
       T=st.integers(1, 6))
@example(env_seed=3, max_dim=1, noise=0.05, tables=True, seeds=[2, 0, 1],
         kinds=["lookahead", "myopic", "uniform", "epsilon_greedy"], T=5)
def test_run_equals_cells_rebuilt_from_public_functions(env_seed, max_dim, noise, tables,
                                                         seeds, kinds, T):
    env = random_env(env_seed, max_dim=max_dim, noise_std=noise)
    if tables:
        env = with_tables(env, env_seed)
    specs = tuple(PolicySpec(name=kind, **KINDS[kind]) for kind in kinds)
    assert_run_equals_reference(env, random_state(env_seed, env), specs, T, tuple(seeds))


def test_synthetic_20x20_run_equals_cells_rebuilt_from_public_functions():
    scen = SyntheticScenarioConfig(K=20, L=20, d=20, T=6, seed=4)
    env = dataclasses.replace(gen_synthetic(scen), noise=NoiseSpec(relative_std=0.01))
    specs = tuple(PolicySpec(name=kind, **spec) for kind, spec in KINDS.items())
    assert_run_equals_reference(env, sample_initial_state(scen), specs, 6, (3, 1, 2))
