"""Simulation and policy optimization for two-sided platforms with
co-evolving viewer and provider populations."""

from .functions import (FunctionConfigError, FunctionDomainError, ScalarFn,
                        fn_deriv, fn_eval, linear_fn, saturating_exp,
                        scaled_logistic, sigmoid_half, table_fn,
                        weighted_sigmoid_sum)
from .model import (EnvironmentSpec, NoiseSpec, Payoffs, PolicyMatrix,
                    PolicyValidationError, PopulationState,
                    SpecValidationError, as_rows, epsilon_greedy,
                    greedy_rows, validate_policy)
from .dynamics import (ClosedFormDomainError, ConvergenceError,
                       DivergenceError, FixedPointPreconditionError,
                       StabilityReport, Trajectory, TrajectoryStep,
                       TrajectoryTable, assemble_jacobian,
                       closed_form_eigenvalues, enumerate_fixed_points,
                       find_fixed_point, fixed_point_residual,
                       jacobian_eigenvalues, lockstep_rollouts,
                       parse_trajectory_csv, payoffs, rollout, step,
                       trajectory_header, trajectory_to_csv, welfare)
from .policies import (GradientCheckError, LookaheadConfig, OptimizationError,
                       check_gradient, finite_difference_gradient, interpolate,
                       lookahead_gradient, lookahead_objective, myopic_greedy,
                       optimize_lookahead, softmax_myopic, uniform_policy)
from .oracles import (LinearGameParams, OracleDomainError,
                      THREE_EQUILIBRIA_INITS, counterexample_env,
                      counterexample_welfare, epsilon_welfare_bounds,
                      game_utilities, gradient_ascent_update,
                      greedy_cluster_size, linear_env, linear_ne,
                      linear_welfare, three_equilibria_env, welfare_from_ne)
from .estimation import (DegenerateDesignError, EstimationError,
                         EstimationWarning, ExploreCommitConfig,
                         FittedDynamics, InsufficientDataError,
                         InteractionLog, SaturatingExpFit,
                         SimulatorBlackbox, explore_then_commit, fit_dynamics,
                         fit_saturating_exp, interaction_log_to_csv,
                         parse_interaction_csv, recover_reference)
from .analytics import (PairingError, RegretReport, RegretSuite,
                        decompose_regret, empirical_regret_suite,
                        regret_report_to_csv, suite_summary)
from .synthetic import (SyntheticScenarioConfig, gen_synthetic,
                        sample_initial_state)
from .experiment import (ExperimentConfig, ExperimentConfigError, PolicySpec,
                         build_policy, build_policy_rule, run_experiment)

__version__ = "0.1.0"
