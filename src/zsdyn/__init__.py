"""Independent learning dynamics for two-player zero-sum games.

Four payoff-based dynamics (matrix games and stochastic games, each with a
plain and an exploration-mixed softmax), exact solution oracles (matrix
game value, best-response MDP values, Nash distribution), Nash-gap metrics,
and a seeded experiment harness with CSV/JSON output.
"""

import types as _types

from .config import (MatrixRunConfig, StepsizeSchedule, VisbrConfig,
                     matrix_condition_warnings, visbr_condition_warnings)
from .errors import (BadConfig, BadDiscount, BadGameSource, BadTransitionRow,
                     DimensionMismatch, GridMismatch, MissingGamma, NoConvergence,
                     NonFiniteInput, NonPositiveValues, NotADistribution, NotErgodic,
                     NotZeroSum, OutputExists, PayoffOutOfRange, ZsdynError)
from .games import (JointPolicy, MatrixGame, StochasticGame,
                    TrajectoryRecord, game_hash, load_game, matching_pennies,
                    rock_paper_scissors, tilted_rps, uniform_joint_policy,
                    validate_joint_policy, validate_matrix_game,
                    validate_stochastic_game)
from .harness import (AggregateSeries, ExperimentBundle, ExperimentConfig,
                      PointResult, aggregate, rate_fit, run_experiment,
                      splitmix64, sweep_point_key, trajectory_seed)
from .matrix_dyn import MATRIX_METRICS, player_seed_sequences, run_matrix_dynamics
from .metrics import (NashDistribution, generalized_gap_vx, nash_distribution,
                      nash_gap_matrix, nash_gap_stochastic, regularized_nash_gap)
from .ops import (BestResponse, GameValue, SoftmaxParams, bellman_T,
                  best_response_value, entropy, exploration_bound,
                  matrix_game_value, minimax_bellman, minimax_fixed_point,
                  policy_value, softmax, stationary_distribution)
from .visbr import VISBR_METRICS, run_visbr, visbr_seed_sequences

__version__ = "0.1.0"

# the public names are exactly what is imported above; submodules are not
__all__ = sorted(name for name, obj in globals().items()
                 if not name.startswith("_") and not isinstance(obj, _types.ModuleType))
__all__.append("__version__")
