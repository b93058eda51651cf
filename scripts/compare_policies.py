"""Reduced-scale policy comparison: look-ahead vs uniform vs myopic-greedy.

Runs the 10x10 synthetic scenario used in the release gate and writes
per-policy trajectory CSVs, regret CSVs, and summary.json.  Takes a few
seconds (about 3.5 s on a 2-core machine); nearly all of it is the look-ahead
cell, which re-optimizes every step.
"""

import argparse
import json
import sys

from twoside_sim import (ExperimentConfig, LookaheadConfig, PolicySpec,
                         SyntheticScenarioConfig, run_experiment)


def build_config(out: str, seed: int, iterations: int) -> ExperimentConfig:
    scenario = SyntheticScenarioConfig(
        K=10, L=10, d=20, T=200, seed=seed, feature_bernoulli_p=0.8, eta=0.3,
        lambda_max_range=(200.0, 400.0), tau_range=(4.0, 20.0),
        quality_max_range=(0.5, 16.0), quality_tau_range=(100.0, 200.0),
        init="small")
    policies = (
        PolicySpec(name="myopic", kind="myopic"),
        PolicySpec(name="uniform", kind="uniform"),
        PolicySpec(name="lookahead", kind="lookahead", beta=1.0,
                   lookahead=LookaheadConfig(iterations=iterations)),
    )
    return ExperimentConfig(environment=scenario, policies=policies,
                            T=scenario.T, seeds=(0,), outputs=out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs/compare")
    ap.add_argument("--seed", type=int, default=57,
                    help="scenario generator seed (57 = the gate instance)")
    ap.add_argument("--iterations", type=int, default=100,
                    help="look-ahead ascent iterations per step")
    args = ap.parse_args(argv)

    summary = run_experiment(build_config(args.out, args.seed, args.iterations))
    for name, block in summary["policies"].items():
        print(f"{name:10s} mean final welfare {block['mean_welfare']:.1f}")
    print(f"wrote {args.out}/summary.json")
    with open(f"{args.out}/summary.json") as fh:
        json.load(fh)  # sanity: the file on disk is valid JSON
    return 0


if __name__ == "__main__":
    sys.exit(main())
