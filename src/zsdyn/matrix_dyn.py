"""Payoff-based independent learning in zero-sum matrix games.

Each player keeps a local payoff estimate q over own actions and a mixed
policy pi. One iteration, in this order:

  1. pi <- pi + beta_k (sigma(q) - pi), where sigma is the softmax of the
     previous iteration's q (the plain variant), optionally eps-mixed with
     uniform (the explore variant).
  2. Both players draw an action from their updated policies, independently.
  3. q is corrected at the realized own action only:
     q[a] += alpha_k (payoff - q[a]).

Neither player sees the opponent's policy, estimate, or action; the realized
own payoff is the only coupling.

A matrix game is the one-state stochastic game with gamma = 0, and
run_matrix_dynamics runs it as that: it checks the game, builds the
one-state tables and the warnings, and calls _core._run, the driver that
run_visbr calls too. The driver steps B trajectories in the step loop of
_loops.c, each with its own tau, eps_bar and K, so each leaves the batch at
its own K; the loop draws no environment uniform at S = 1. Configs share a
batch when they share schedule and normalize_q_in_softmax, which the
loop's softmax reads. Each chunk of recorded policies is scored in one
metrics.matrix_gaps call, compiled or its numpy body, to the same bits, so
a trajectory's bytes depend neither on its batch nor on the loop or scorer
that ran it.

Player i draws from stream i of player_seed_sequences(seed).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ._core import _run
from .config import MatrixRunConfig, matrix_condition_warnings
from .games import MatrixGame, TrajectoryRecord, check_zero_sum_game
from .metrics import matrix_gaps

MATRIX_METRICS = ("ng", "ngtau", "min_pi", "q_inf")


def player_seed_sequences(seed: int) -> tuple[np.random.SeedSequence, np.random.SeedSequence]:
    """Per-player child seeds; player i consumes one uniform per iteration."""
    c1, c2 = np.random.SeedSequence(seed).spawn(2)
    return c1, c2


def run_matrix_dynamics(game: MatrixGame,
                        configs: Sequence[MatrixRunConfig]) -> list[TrajectoryRecord]:
    """Run each config for K iterations; one record per config, in order.

    Configs that share schedule and normalize_q_in_softmax run as one
    batch, each stepped only to its own K, and a record is the same
    whatever batch it ran in. Rows carry index (0, k) at every stride
    multiple plus the final k=K, so stride=K yields exactly one row.
    Metrics at row k are computed from the policy after k iterations.
    The iterates do not depend on K or record_stride, so a config with K=k
    ends where the same config with a larger K stands after k iterations,
    and the truncated runs K=1..k of one config share one batch.
    Convergence-condition violations land in warnings.
    """
    check_zero_sum_game(game, MatrixGame)
    n1, n2 = game.n_actions_1, game.n_actions_2
    # the one state: no transition to pick, R1 and R2 as (1, ., .) tables
    tables = (np.empty((1, n1, n2, 0)),
              *(np.ascontiguousarray(R, dtype=np.float64)[None] for R in (game.R1, game.R2)),
              np.ones(1))
    # the warnings read only tau and the schedule
    warn = {(c.tau, c.schedule): c for c in configs}
    warn = {key: matrix_condition_warnings(c, game.a_max) for key, c in warn.items()}
    return _run(configs, tables, fixed2=None,
                normalize=[c.normalize_q_in_softmax for c in configs], gamma=0.0, v_star=None,
                gaps=lambda pi, tau: matrix_gaps(game.R1, game.R2, pi[:, 0, :n1].T,
                                                 pi[:, 0, n1:].T, tau),
                names=MATRIX_METRICS, warnings=[warn[c.tau, c.schedule] for c in configs])
