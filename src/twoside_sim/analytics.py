"""Regret computation over paired trajectories.

Welfare shortfall of a subject trajectory against a designated baseline is
split exactly, at every step, into a population term (welfare gap of the
per-step best-response policy caused by the populations having drifted
apart), a policy term (gap between the best-response and the deployed policy
at the subject's own populations), and a constant term (gap between the
baseline's deployed policy and the best response at the baseline's
populations).  The three sum to the total by construction.

The best response sends each viewer group to its highest current utility
q = B + f(provider pops), so its welfare is sum_k v_k max_l q_kl.  That sum
is evaluated for a whole trajectory at once, from the utilities it recorded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import Trajectory, _csv_text
from .functions import _row_dots
from .model import EnvironmentSpec, _readonly


class PairingError(ValueError):
    """The two trajectories do not describe the same experiment."""


@dataclass(frozen=True)
class RegretReport:
    t: np.ndarray
    per_step_total: np.ndarray
    per_step_population: np.ndarray
    per_step_policy: np.ndarray
    per_step_const: np.ndarray
    cumulative_total: np.ndarray
    mean_total: float

    def __post_init__(self):
        for name in ("t", "per_step_total", "per_step_population",
                     "per_step_policy", "per_step_const", "cumulative_total"):
            object.__setattr__(self, name, _readonly(np.asarray(getattr(self, name))))


@dataclass(frozen=True)
class RegretSuite:
    baseline: str
    reports: dict[str, RegretReport]


def _best_response_welfare(traj: Trajectory) -> np.ndarray:
    """sum_k v_k max_l q_kl at every step of `traj`, from its recorded q.

    Equal bit for bit to the welfare of the one-hot greedy policy: its row k
    gathers q[k, argmax] plus exact zeros, and the final sum is the same dot.
    """
    return _row_dots(traj.table.lambda_viewer, traj.q.max(axis=2))


def decompose_regret(env: EnvironmentSpec, baseline: Trajectory,
                     subject: Trajectory) -> RegretReport:
    """Per-step regret of `subject` against `baseline`, exactly decomposed.

    At each step, with the per-step best response pi1 (all of viewer group
    k's exposure on argmax_l q_kl at the respective populations, so that
    R(pi1) = sum_k v_k max_l q_kl):

        total      = R(baseline policy; baseline pops) - R(subject policy; subject pops)
        population = R(pi1 at baseline pops) - R(pi1 at subject pops)
        policy     = R(pi1 at subject pops) - R(subject policy; subject pops)
        const      = R(baseline policy; baseline pops) - R(pi1 at baseline pops)

    Recorded welfare values are reused for the two deployed-policy terms, so
    a subject that deployed the best response has a policy term of exactly 0.
    """
    digest = env.digest()
    if baseline.env_digest != digest or subject.env_digest != digest:
        raise PairingError("trajectories were not produced by this environment")
    if len(baseline) != len(subject):
        raise PairingError(
            f"horizon mismatch: baseline {len(baseline)} vs subject {len(subject)}")
    base_welfare = baseline.welfare_series()
    subject_welfare = subject.welfare_series()
    best_at_baseline = _best_response_welfare(baseline)
    best_at_subject = _best_response_welfare(subject)
    total = base_welfare - subject_welfare
    return RegretReport(t=subject.table.t,
                        per_step_total=total,
                        per_step_population=best_at_baseline - best_at_subject,
                        per_step_policy=best_at_subject - subject_welfare,
                        per_step_const=base_welfare - best_at_baseline,
                        cumulative_total=np.cumsum(total),
                        mean_total=float(total.mean()))


def empirical_regret_suite(env: EnvironmentSpec,
                           trajectories: dict[str, Trajectory]) -> RegretSuite:
    """Decompose every trajectory against the empirically best one.

    The baseline is the trajectory with the highest cumulative welfare (ties
    broken by insertion order); its self-report is included and has zero
    total regret.  All regrets are empirical — relative to the best policy
    actually run, not a certified optimum.
    """
    if len(trajectories) < 2:
        raise PairingError("need at least 2 trajectories to compare")
    baseline_name = max(trajectories, key=lambda n: trajectories[n].cumulative_welfare())
    base = trajectories[baseline_name]
    reports = {name: decompose_regret(env, base, traj)
               for name, traj in trajectories.items()}
    return RegretSuite(baseline=baseline_name, reports=reports)


# ---------------------------------------------------------------------------
# emission


def regret_report_to_csv(report: RegretReport) -> str:
    return _csv_text(["t", "total", "population", "policy", "const", "cumulative"],
                     report.t, report.per_step_total, report.per_step_population,
                     report.per_step_policy, report.per_step_const, report.cumulative_total)


def suite_summary(suite: RegretSuite) -> dict:
    """JSON-ready summary: baseline name plus per-trajectory means."""
    return {
        "baseline": suite.baseline,
        "regrets": "empirical (relative to the best policy run, not a certified optimum)",
        "reports": {
            name: {
                "mean_total": rep.mean_total,
                "final_cumulative_total": float(rep.cumulative_total[-1]),
            }
            for name, rep in suite.reports.items()
        },
    }

