"""The four workloads: inputs from a seed, the timed work, and the checks.

Each workload has
    build(seed, scratch) -> inputs      set-up, not timed in wall_s
    ops(inputs)          -> labels      the operations one round attempts
    run(inputs)          -> outputs     the timed work
    check(inputs, outputs) -> {label: [problem, ...]}

Every call into the package goes through the ``ts`` module object at call
time, so the tracer's rebinding sees the calls the benchmark makes itself.
The checks use ``reference`` (the benchmark's own evaluator) and properties
the method must have; nothing is compared with stored output.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import warnings
from itertools import islice, product
from pathlib import Path

import numpy as np

import twoside_sim as ts

import reference as ref

# -- lookahead-10x10 ---------------------------------------------------------

# The criterion-9 comparison instance.  Its instance does not depend on the
# workload seed: the ordering it checks holds for this initial state and not
# for other draws of it (see README).
COMPARISON = dict(K=10, L=10, d=20, T=200, seed=57, feature_bernoulli_p=0.8, eta=0.3,
                  lambda_max_range=(200.0, 400.0), tau_range=(4.0, 20.0),
                  quality_max_range=(0.5, 16.0), quality_tau_range=(100.0, 200.0),
                  init="small")
LOOKAHEAD_T = 25
LOOKAHEAD_POLICIES = ("lookahead", "uniform", "myopic")


class Lookahead:
    name = "lookahead-10x10"

    def build(self, seed, scratch):
        scen = ts.SyntheticScenarioConfig(**COMPARISON)
        env = ts.gen_synthetic(scen)
        return {"env": env, "init": ts.sample_initial_state(scen),
                "config": ts.LookaheadConfig(iterations=100)}

    def ops(self, inputs):
        return [f"{p}:t{t}" for p in LOOKAHEAD_POLICIES for t in range(LOOKAHEAD_T)]

    def run(self, inputs):
        env, init, cfg = inputs["env"], inputs["init"], inputs["config"]
        rules = {
            "lookahead": lambda e, s: ts.optimize_lookahead(e, s, cfg),
            "uniform": lambda e, s: ts.uniform_policy(e.K, e.L),
            "myopic": lambda e, s: ts.myopic_greedy(e, s),
        }
        return {name: ts.rollout(env, rules[name], LOOKAHEAD_T, init)
                for name in LOOKAHEAD_POLICIES}

    def check(self, inputs, trajs):
        env = ref.RefEnv(json.loads(inputs["env"].to_json()))
        gamma = inputs["config"].gamma
        problems = {}
        gains = []
        for name, traj in trajs.items():
            steps = traj.steps
            if len(steps) != LOOKAHEAD_T:
                continue     # every op of this policy is reported missing
            for t, st in enumerate(steps):
                bad = problems.setdefault(f"{name}:t{t}", [])
                v, p, pi = st.state.viewer, st.state.provider, np.asarray(st.policy.rows)
                if not ref.row_stochastic(pi):
                    bad.append("decision is not row-stochastic")
                q, s, e = env.payoffs(pi, v, p)
                if not (ref.close(st.payoffs.s, s) and ref.close(st.payoffs.e, e)
                        and ref.close(st.welfare, float(v @ s))):
                    bad.append("recorded payoffs or welfare differ from the reference")
                if t + 1 < len(steps):
                    nv, np_ = env.step(pi, v, p)
                    if not (ref.close(steps[t + 1].state.viewer, nv)
                            and ref.close(steps[t + 1].state.provider, np_)):
                        bad.append("next state differs from the reference map")
                if name == "uniform" and not ref.close(pi, np.full_like(pi, 1.0 / env.L)):
                    bad.append("uniform decision is not uniform")
                if name == "myopic" and not _is_greedy(pi, q):
                    bad.append("myopic decision is not greedy on q")
                if name == "lookahead":
                    start = 0.9 * ref.greedy(q) + 0.1 / env.L
                    got = env.lookahead_objective(pi, v, p, gamma)
                    want = env.lookahead_objective(start, v, p, gamma)
                    if got < want - 1e-9 * max(1.0, abs(want)):
                        bad.append(f"objective {got!r} below the ascent start {want!r}")
                    gains.append(got / want - 1.0)
        if all(len(trajs[n].steps) == LOOKAHEAD_T for n in LOOKAHEAD_POLICIES):
            final = {n: trajs[n].steps[-1].welfare for n in LOOKAHEAD_POLICIES}
            last = f":t{LOOKAHEAD_T - 1}"
            if not final["lookahead"] > final["uniform"] > final["myopic"]:
                for n in LOOKAHEAD_POLICIES:
                    problems[n + last].append(f"final welfare not ordered: {final}")
            # The best iterate may be the start at a few decisions (2 of 25
            # here), but an ascent that keeps it at most of them is not ascending.
            raised = sum(g > 1e-6 for g in gains)
            if not raised >= len(gains) / 2:
                problems["lookahead" + last].append(
                    f"the ascent raised the objective at only {raised} of {len(gains)} decisions")
            for n, grows in (("myopic", False), ("lookahead", True)):
                first = float(np.sum(trajs[n].steps[0].state.provider))
                end = float(np.sum(trajs[n].steps[-1].state.provider))
                if (end > first) != grows:
                    problems[n + last].append(
                        f"provider total went {first:.1f} -> {end:.1f}")
        return problems


def _is_greedy(pi, q, tol=1e-9):
    """pi puts all mass on a column whose utility ties the row maximum."""
    pi = np.asarray(pi)
    cols = np.argmax(pi, axis=1)
    best = q.max(axis=1)
    one_hot = np.all(np.isin(pi, (0.0, 1.0))) and np.all(pi.sum(axis=1) == 1.0)
    return bool(one_hot and np.all(q[np.arange(q.shape[0]), cols]
                                   >= best - tol * np.maximum(1.0, np.abs(best))))


# -- grid-20x20 ----------------------------------------------------------------

GRID_T = 50
GRID_NOISE = 0.01
GRID_SEEDS_PER_POLICY = 4
GRID_EPSILON = 0.1


class Grid:
    name = "grid-20x20"

    def build(self, seed, scratch):
        scen = ts.SyntheticScenarioConfig(K=20, L=20, d=20, T=GRID_T, seed=seed)
        env = dataclasses.replace(ts.gen_synthetic(scen),
                                  noise=ts.NoiseSpec(relative_std=GRID_NOISE))
        policies = (ts.PolicySpec(name="uni", kind="uniform"),
                    ts.PolicySpec(name="myo", kind="myopic"),
                    ts.PolicySpec(name="eps", kind="epsilon_greedy", epsilon=GRID_EPSILON))
        seeds = tuple(seed * GRID_SEEDS_PER_POLICY + i for i in range(GRID_SEEDS_PER_POLICY))
        out = Path(scratch) / "grid"
        config = ts.ExperimentConfig(environment=env, policies=policies, T=GRID_T,
                                     seeds=seeds, outputs=str(out),
                                     init=ts.sample_initial_state(scen))
        return {"config": config, "out": out}

    def ops(self, inputs):
        cfg = inputs["config"]
        return [f"{p.name}:seed{s}" for p in cfg.policies for s in cfg.seeds]

    def run(self, inputs):
        return ts.run_experiment(inputs["config"])

    def cleanup(self, inputs):
        shutil.rmtree(inputs["out"], ignore_errors=True)

    def written_bytes(self, inputs) -> int:
        out = inputs["out"]
        return sum(p.stat().st_size for p in out.iterdir()) if out.is_dir() else 0

    def check(self, inputs, summary):
        cfg, out = inputs["config"], inputs["out"]
        env = ref.RefEnv(json.loads(cfg.environment.to_json()))
        kinds = {p.name: p.kind for p in cfg.policies}
        problems = {label: [] for label in self.ops(inputs)}
        tables = {}
        for name in kinds:
            for seed in cfg.seeds:
                label = f"{name}:seed{seed}"
                try:
                    tables[label] = _read_trajectory(out / f"trajectory_{name}_{seed}.csv",
                                                     env.K, env.L)
                except (OSError, ValueError) as err:
                    problems[label].append(f"trajectory CSV unreadable: {err}")
                    continue
                problems[label] += _replay(env, kinds[name], tables[label], seed,
                                           cfg.init, cfg.T)
        if not isinstance(summary, dict):
            summary = {}
        try:
            on_disk = json.loads((out / "summary.json").read_text())
        except (OSError, ValueError) as err:
            on_disk = None
            for label in problems:
                problems[label].append(f"summary.json unreadable: {err}")
        if on_disk is not None and on_disk != summary:
            for label in problems:
                problems[label].append("summary.json differs from the returned summary")
        for seed in cfg.seeds:
            cells = {n: tables.get(f"{n}:seed{seed}") for n in kinds}
            if any(t is None for t in cells.values()):
                continue
            for name, why in _check_regret(env, cells, out, seed).items():
                problems[f"{name}:seed{seed}"] += why
            for name, why in _check_summary_cells(summary, cells, seed).items():
                problems[f"{name}:seed{seed}"] += why
        for name in kinds:
            means = [tables[f"{name}:seed{s}"]["welfare"].mean() for s in cfg.seeds
                     if f"{name}:seed{s}" in tables]
            got = summary.get("policies", {}).get(name, {}).get("mean_welfare")
            if len(means) == len(cfg.seeds) and not (
                    got is not None and ref.close(got, float(np.mean(means)), rel=1e-12)):
                for s in cfg.seeds:
                    problems[f"{name}:seed{s}"].append("summary mean_welfare disagrees")
        return problems


def _read_trajectory(path: Path, K: int, L: int) -> dict:
    lines = path.read_text().split("\n")
    header = lines[0].split(",")
    want = (["t"] + [f"lambda_u_{k + 1}" for k in range(K)]
            + [f"lambda_c_{l + 1}" for l in range(L)] + [f"s_{k + 1}" for k in range(K)]
            + [f"e_{l + 1}" for l in range(L)] + ["welfare"])
    if header != want:
        raise ValueError("unexpected header")
    data = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:] if ln])
    c = np.cumsum([1, K, L, K, L])
    return {"t": data[:, 0], "viewer": data[:, c[0]:c[1]], "provider": data[:, c[1]:c[2]],
            "s": data[:, c[2]:c[3]], "e": data[:, c[3]:c[4]], "welfare": data[:, c[4]]}


def _replay(env, kind, tab, seed, init, T):
    """Replay one cell step by step with the reference map and its own noise
    stream: one generator per seed, viewer draws before provider draws."""
    bad = []
    if tab["t"].shape != (T,) or not np.array_equal(tab["t"], np.arange(T)):
        return [f"expected rows t = 0..{T - 1}"]
    if not (np.array_equal(tab["viewer"][0], init.viewer)
            and np.array_equal(tab["provider"][0], init.provider)):
        bad.append("first row is not the initial state")
    rng = np.random.default_rng(seed)
    fixed = None
    if kind == "uniform":
        fixed = np.full((env.K, env.L), 1.0 / env.L)
    elif kind == "epsilon_greedy":
        fixed = (1.0 - GRID_EPSILON) * ref.greedy(env.B) + GRID_EPSILON * np.full(
            (env.K, env.L), 1.0 / env.L)
    for t in range(T):
        v, p = tab["viewer"][t], tab["provider"][t]
        q = env.utilities(p)
        pi = fixed if fixed is not None else _myopic_choice(q, v, tab["e"][t])
        s, e = (pi * q).sum(axis=1), pi.T @ v
        if not (ref.close(tab["s"][t], s) and ref.close(tab["e"][t], e)
                and ref.close(tab["welfare"][t], float(v @ s))):
            bad.append(f"t={t}: payoffs or welfare differ from the replay")
            break
        xi_v = rng.normal(0.0, env.noise_std, env.K)
        xi_p = rng.normal(0.0, env.noise_std, env.L)
        if t + 1 < T:
            nv, np_ = env.step(pi, v, p, xi_v, xi_p)
            if not (ref.close(tab["viewer"][t + 1], nv)
                    and ref.close(tab["provider"][t + 1], np_)):
                bad.append(f"t={t + 1}: state differs from the replay")
                break
    return bad


def _myopic_choice(q, v, e_rec, tol=1e-9):
    """The greedy policy on q.  Where a row's maximum ties within round-off,
    take the tied choice that reproduces the recorded exposure."""
    tied = [np.flatnonzero(row >= row.max() - tol * max(1.0, abs(row.max()))) for row in q]
    pi = ref.greedy(q)
    rows = [k for k, c in enumerate(tied) if len(c) > 1]
    for choice in islice(product(*(tied[k] for k in rows)), 256):
        cand = pi.copy()
        for k, col in zip(rows, choice):
            cand[k] = 0.0
            cand[k, col] = 1.0
        if ref.close(cand.T @ v, e_rec):
            return cand
    return pi


def _check_regret(env, cells, out, seed):
    """Regret CSVs against the trajectories: the identity, the recorded
    welfare gaps and the greedy welfare terms."""
    cum = {n: float(np.sum(t["welfare"])) for n, t in cells.items()}
    base_name = max(cells, key=lambda n: cum[n])    # first maximum, like the package
    base = cells[base_name]
    best_base = _greedy_welfare(env, base)
    bad = {}
    for name, tab in cells.items():
        why = bad.setdefault(name, [])
        try:
            rows = _read_regret(out / f"regret_{name}_{seed}.csv")
        except (OSError, ValueError) as err:
            why.append(f"regret CSV unreadable: {err}")
            continue
        if rows.shape != (len(tab["t"]), 6) or not np.array_equal(rows[:, 0], tab["t"]):
            why.append("regret CSV rows do not match the trajectory")
            continue
        total, pop, pol, const, cumulative = rows[:, 1:].T
        scale = np.maximum(1.0, np.max(np.abs(rows[:, 2:5]), axis=1))
        if np.any(np.abs(total - (pop + pol + const)) > 1e-10 * scale):
            why.append("total != population + policy + const to 1e-10")
        if not ref.close(total, base["welfare"] - tab["welfare"], rel=1e-12, abs_=1e-12):
            why.append("total is not the recorded welfare gap")
        if not ref.close(cumulative, np.cumsum(total), rel=1e-9):
            why.append("cumulative is not the running sum of total")
        best_sub = _greedy_welfare(env, tab)
        wscale = 1e-9 * max(1.0, float(np.max(np.abs(tab["welfare"]))))
        if not (ref.close(pol, best_sub - tab["welfare"], rel=0.0, abs_=wscale)
                and ref.close(const, base["welfare"] - best_base, rel=0.0, abs_=wscale)
                and ref.close(pop, best_base - best_sub, rel=0.0, abs_=wscale)):
            why.append("regret terms differ from the reference greedy welfare")
    return bad


def _read_regret(path: Path) -> np.ndarray:
    lines = [ln for ln in path.read_text().split("\n") if ln]
    if lines[0] != "t,total,population,policy,const,cumulative":
        raise ValueError("unexpected header")
    return np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])


def _greedy_welfare(env, tab):
    """Welfare of the best response at each recorded state: sum_k v_k max_l q."""
    return np.array([float(v @ env.utilities(p).max(axis=1))
                     for v, p in zip(tab["viewer"], tab["provider"])])


def _check_summary_cells(summary, cells, seed):
    bad = {}
    cum = {n: float(np.sum(t["welfare"])) for n, t in cells.items()}
    regret = summary.get("regret", {}).get(str(seed), {})
    if regret.get("baseline") != max(cells, key=lambda n: cum[n]):
        for n in cells:
            bad.setdefault(n, []).append("summary regret baseline is not the best run")
    for name, tab in cells.items():
        why = bad.setdefault(name, [])
        cell = summary.get("policies", {}).get(name, {}).get("per_seed", {}).get(str(seed))
        want = {"final_welfare": tab["welfare"][-1],
                "final_viewer_total": float(tab["viewer"][-1].sum()),
                "final_provider_total": float(tab["provider"][-1].sum()),
                "cumulative_welfare": cum[name]}
        if cell is None or any(not ref.close(cell.get(k, np.nan), w, rel=1e-12)
                               for k, w in want.items()):
            why.append("summary per-seed entry disagrees with the CSV")
        rep = regret.get("reports", {}).get(name)
        baseline = cells.get(regret.get("baseline"))
        if rep is None or baseline is None:
            why.append("summary has no regret entry for this cell")
            continue
        total = baseline["welfare"] - tab["welfare"]
        if not (ref.close(rep["mean_total"], total.mean(), rel=1e-9, abs_=1e-9)
                and ref.close(rep["final_cumulative_total"], total.sum(),
                              rel=1e-9, abs_=1e-9)):
            why.append("summary regret entry disagrees with the CSVs")
    return bad


# -- etc-2x2 -------------------------------------------------------------------

ETC_CONFIG = dict(T_b=25, T=50, beta=0.5, refit_every=5)


def saturating_truth():
    """Criterion 10's noiseless 2x2 truth."""
    sat = ts.saturating_exp
    return ts.EnvironmentSpec(
        K=2, L=2, B=[[2.0, 1.0], [0.5, 1.5]],
        f=tuple(tuple(sat(1.5, 0.03, 0.0, 0.2) for _ in range(2)) for _ in range(2)),
        lambda_bar_viewer=(sat(40.0, 0.05, 0.0, 5.0), sat(35.0, 0.06, 0.0, 4.0)),
        lambda_bar_provider=(sat(30.0, 0.04, 0.0, 4.0), sat(25.0, 0.05, 0.0, 3.0)),
        eta_viewer=[0.4, 0.4], eta_provider=[0.4, 0.4])


class ExploreCommit:
    name = "etc-2x2"

    def build(self, seed, scratch):
        env = saturating_truth()
        init = ts.PopulationState(t=0, viewer=[10.0, 12.0], provider=[8.0, 9.0])
        # a noiseless truth draws nothing from the blackbox seed
        return {"env": env, "blackbox": ts.SimulatorBlackbox(env, init, seed=seed),
                "config": ts.ExploreCommitConfig(**ETC_CONFIG),
                "lookahead": ts.LookaheadConfig(iterations=30, learning_rate=0.1)}

    def refit_steps(self):
        return list(range(ETC_CONFIG["T_b"], ETC_CONFIG["T"], ETC_CONFIG["refit_every"]))

    def ops(self, inputs):
        return [f"refit@{i}" for i in self.refit_steps()]

    def run(self, inputs):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ts.EstimationWarning)
            traj, fitted = ts.explore_then_commit(inputs["blackbox"], inputs["config"],
                                                  inputs["lookahead"])
        return traj, fitted, [str(w.message) for w in caught
                              if issubclass(w.category, ts.EstimationWarning)]

    def check(self, inputs, outputs):
        traj, fitted, fallbacks = outputs
        truth = json.loads(inputs["env"].to_json())
        env = ref.RefEnv(truth)
        refits = self.refit_steps()
        problems = {label: [] for label in self.ops(inputs)}

        def owner(t):     # the refit whose policy was deployed at step t
            return f"refit@{max([refits[0]] + [i for i in refits if i <= t])}"

        for msg in fallbacks:
            hit = [i for i in refits if f"refit at step {i} " in msg]
            problems[f"refit@{hit[0]}" if hit else owner(0)].append(
                f"fell back to the previous fit: {msg}")
        steps = traj.steps
        if len(steps) != ETC_CONFIG["T"]:
            for label in problems:
                problems[label].append(f"trajectory has {len(steps)} steps")
            return problems
        for t, st in enumerate(steps):
            v, p, pi = st.state.viewer, st.state.provider, np.asarray(st.policy.rows)
            if not ref.row_stochastic(pi):
                problems[owner(t)].append(f"t={t}: policy is not row-stochastic")
            _, s, e = env.payoffs(pi, v, p)
            if not (ref.close(st.payoffs.s, s) and ref.close(st.payoffs.e, e)):
                problems[owner(t)].append(f"t={t}: payoffs differ from the reference")
            if t + 1 < len(steps):
                nv, np_ = env.step(pi, v, p)
                if not (ref.close(steps[t + 1].state.viewer, nv)
                        and ref.close(steps[t + 1].state.provider, np_)):
                    problems[owner(t)].append(f"t={t + 1}: state differs from the truth")
            if t >= refits[0] and t not in refits and not np.array_equal(
                    pi, np.asarray(steps[t - 1].policy.rows)):
                problems[owner(t)].append(f"t={t}: policy changed between refits")
        # explore_then_commit returns the last refit's fit
        prov = np.array([st.state.provider for st in steps])
        sat = np.array([st.payoffs.s for st in steps])
        expo = np.array([st.payoffs.e for st in steps])
        pairs = [(fitted.f_hat[k][l], truth["f"][k][l], prov[:, l])
                 for k in range(env.K) for l in range(env.L)]
        pairs += [(fitted.lambda_bar_viewer_hat[k], truth["lambda_bar_viewer"][k], sat[:, k])
                  for k in range(env.K)]
        pairs += [(fitted.lambda_bar_provider_hat[l], truth["lambda_bar_provider"][l],
                   expo[:, l]) for l in range(env.L)]
        worst = max(_curve_error(fit, true, args) for fit, true, args in pairs)
        if not worst <= 0.01:
            problems[f"refit@{refits[-1]}"].append(
                f"worst fitted curve is {worst:.2%} off the truth (tol 1%)")
        return problems


def _curve_error(fit, true_fd, args):
    grid = np.linspace(float(np.min(args)), float(np.max(args)), 201)
    fitted_fd = {"kind": "saturating_exp",
                 "params": {k: fit.to_dict()[k] for k in ("a0", "a1", "a2", "a3")}}
    got, want = ref.curve(fitted_fd, grid), ref.curve(true_fd, grid)
    return float(np.max(np.abs(got - want)) / max(float(np.max(np.abs(want))), 1e-12))


# -- equilibria-20x20 ------------------------------------------------------------

EQ_ENV_SEED = 0
EQ_ETA = 0.05
EQ_STARTS = 3
EQ_START_HIGH = 2.0
EQ_TOL = 1e-10


class Equilibria:
    name = "equilibria-20x20"
    # check_sufficient_stability admits the unstable middle point (see CHANGES.md)
    known_failures = {"preset-mid": "sufficient condition holds"}

    def build(self, seed, scratch):
        env = ts.gen_synthetic(ts.SyntheticScenarioConfig(K=20, L=20, d=20, eta=EQ_ETA,
                                                          seed=EQ_ENV_SEED))
        rng = np.random.default_rng(seed)
        # every start lies below the equilibrium, so all approach it from one side
        starts = [ts.PopulationState(t=0, viewer=rng.uniform(0.0, EQ_START_HIGH, env.K),
                                     provider=rng.uniform(0.0, EQ_START_HIGH, env.L))
                  for _ in range(EQ_STARTS)]
        policies = {"uniform": ts.uniform_policy(env.K, env.L),
                    "eps0.1": ts.epsilon_greedy(env.B, 0.1),
                    "eps0.5": ts.epsilon_greedy(env.B, 0.5)}
        return {"env": env, "starts": starts, "policies": policies,
                "preset": ts.three_equilibria_env(),
                "preset_inits": dict(ts.THREE_EQUILIBRIA_INITS)}

    def ops(self, inputs):
        return list(inputs["policies"]) + [f"preset-{n}" for n in inputs["preset_inits"]]

    def run(self, inputs):
        out = {}
        for name, pi in inputs["policies"].items():
            points = ts.enumerate_fixed_points(inputs["env"], pi, inputs["starts"], tol=EQ_TOL)
            out[name] = [(fp, ts.jacobian_eigenvalues(inputs["env"], pi, fp, tol=EQ_TOL))
                         for fp in points]
        points = ts.enumerate_fixed_points(inputs["preset"], [[1.0]],
                                           list(inputs["preset_inits"].values()), tol=EQ_TOL)
        out["preset"] = [(fp, ts.jacobian_eigenvalues(inputs["preset"], [[1.0]], fp,
                                                      tol=EQ_TOL)) for fp in points]
        return out

    def check(self, inputs, out):
        problems = {label: [] for label in self.ops(inputs)}
        env = ref.RefEnv(json.loads(inputs["env"].to_json()))
        for name, pi in inputs["policies"].items():
            found = out.get(name, [])
            if len(found) != 1:
                problems[name].append(
                    f"{len(found)} points reported for one equilibrium from starts below it")
            for fp, rep in found:
                problems[name] += _classify(env, np.asarray(pi.rows), fp, rep, generic=True)
        preset = ref.RefEnv(json.loads(inputs["preset"].to_json()))
        inits = inputs["preset_inits"]
        seen = set()
        for fp, rep in out.get("preset", []):
            x = np.concatenate([fp.viewer, fp.provider])
            name = min(inits, key=lambda n: np.max(np.abs(
                x - np.concatenate([inits[n].viewer, inits[n].provider]))))
            seen.add(name)
            problems[f"preset-{name}"] += _classify(preset, np.array([[1.0]]), fp, rep,
                                                    generic=False)
        for name in set(inits) - seen:
            problems[f"preset-{name}"].append("no fixed point found from this start")
        return problems


def _classify(env, pi, fp, rep, generic):
    bad = []
    x = np.concatenate([fp.viewer, fp.provider])
    residual = float(np.max(np.abs(env.map_vector(pi, x) - x)))
    if not residual <= EQ_TOL + 1e-11:
        bad.append(f"residual {residual:.3e} under the reference map exceeds {EQ_TOL}")
    rho = float(np.max(np.abs(np.linalg.eigvals(env.fd_jacobian(pi, fp.viewer, fp.provider)))))
    if abs(rho - rep.spectral_radius) > 1e-5 * max(1.0, rho):
        bad.append(f"spectral radius {rep.spectral_radius!r} vs finite differences {rho!r}")
    if rep.stable != (rho < 1.0):
        bad.append(f"stable={rep.stable} at spectral radius {rho:.4f}")
    if generic and not rho < 1.0:
        bad.append(f"point reached from a generic start has radius {rho:.4f}")
    if rho >= 1.0 and rep.sufficient_condition_holds:
        bad.append(f"sufficient condition holds at an unstable point (radius {rho:.4f})")
    return bad


WORKLOADS = {w.name: w for w in (Lookahead(), Grid(), ExploreCommit(), Equilibria())}
