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
own payoff is the only coupling. run_matrix_dynamics and repeated step_matrix
calls produce bitwise-identical trajectories because they share one core.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._core import pick_action, policy_step, smoothed_policy
from .config import MatrixRunConfig, matrix_condition_warnings
from .errors import DimensionMismatch
from .games import (JointPolicy, LearnerState, MatrixGame, TrajectoryRecord,
                    check_zero_sum_game)
from .metrics import matrix_gaps_lists

MATRIX_METRICS = ("ng", "ngtau", "min_pi", "q_inf")


@dataclass(frozen=True, eq=False)
class MatrixDynamicsState:
    """Snapshot of both learners plus the shared iteration counter.

    The generator objects are carried by reference and advance in place as
    steps are taken; snapshotting a state does not freeze the randomness.
    """

    players: tuple[LearnerState, LearnerState]
    k: int
    rngs: tuple[np.random.Generator, np.random.Generator]
    last_actions: tuple[int, int] | None = None
    last_payoffs: tuple[float, float] | None = None


def player_seed_sequences(seed: int) -> tuple[np.random.SeedSequence, np.random.SeedSequence]:
    """Per-player child seeds; player i consumes one uniform per iteration."""
    c1, c2 = np.random.SeedSequence(seed).spawn(2)
    return c1, c2


def _setup(game: MatrixGame, config: MatrixRunConfig):
    # The start of every run as lists: (q1, q2, pi1, pi2) and the generators.
    check_zero_sum_game(game, MatrixGame)
    c1, c2 = player_seed_sequences(config.seed)
    n1, n2 = game.n_actions_1, game.n_actions_2
    lists = ([0.0] * n1, [0.0] * n2, [1.0 / n1] * n1, [1.0 / n2] * n2)
    return lists, (np.random.default_rng(c1), np.random.default_rng(c2))


def init_matrix_state(game: MatrixGame, config: MatrixRunConfig) -> MatrixDynamicsState:
    """Uniform policies, zero payoff estimates, per-player generators."""
    (q1, q2, pi1, pi2), rngs = _setup(game, config)
    players = (LearnerState(q=np.array(q1), pi=np.array(pi1)),
               LearnerState(q=np.array(q2), pi=np.array(pi2)))
    return MatrixDynamicsState(players=players, k=0, rngs=rngs)


def _advance(q1, q2, pi1, pi2, R1, R2, tau, eps, norm, alpha, beta, u1, u2):
    # One full iteration on list state; shared by step and run.
    t1 = smoothed_policy(q1, tau, eps, norm)
    t2 = smoothed_policy(q2, tau, eps, norm)
    policy_step(pi1, t1, beta)
    policy_step(pi2, t2, beta)
    a1 = pick_action(pi1, u1)
    a2 = pick_action(pi2, u2)
    r1 = R1[a1][a2]
    r2 = R2[a2][a1]
    q1[a1] += alpha * (r1 - q1[a1])
    q2[a2] += alpha * (r2 - q2[a2])
    return a1, a2, r1, r2


def step_matrix(state: MatrixDynamicsState, game: MatrixGame,
                config: MatrixRunConfig) -> MatrixDynamicsState:
    """Advance one iteration; returns the new state, generators advanced in place."""
    check_zero_sum_game(game, MatrixGame)
    if state.players[0].q.shape != (game.n_actions_1,) or \
            state.players[1].q.shape != (game.n_actions_2,):
        raise DimensionMismatch("state shapes do not match the game")
    alpha, beta = config.schedule.rates(state.k)
    q1 = state.players[0].q.tolist()
    q2 = state.players[1].q.tolist()
    pi1 = state.players[0].pi.tolist()
    pi2 = state.players[1].pi.tolist()
    a1, a2, r1, r2 = _advance(
        q1, q2, pi1, pi2, game.R1.tolist(), game.R2.tolist(),
        config.tau, config.eps_bar, config.normalize_q_in_softmax,
        alpha, beta, state.rngs[0].random(), state.rngs[1].random())
    players = (LearnerState(q=np.array(q1), pi=np.array(pi1)),
               LearnerState(q=np.array(q2), pi=np.array(pi2)))
    return MatrixDynamicsState(players=players, k=state.k + 1, rngs=state.rngs,
                               last_actions=(a1, a2), last_payoffs=(r1, r2))


def run_matrix_dynamics(game: MatrixGame, config: MatrixRunConfig) -> TrajectoryRecord:
    """Run K iterations and record metrics every record_stride steps.

    Rows carry index (0, k) at every stride multiple plus the final k=K,
    so stride=K yields exactly one row. Metrics at row k are computed from
    the policy after k iterations. Convergence-condition violations land
    in warnings.
    """
    (q1, q2, pi1, pi2), (rng1, rng2) = _setup(game, config)
    warnings = matrix_condition_warnings(config, game.a_max)
    u1, u2 = rng1.random(config.K), rng2.random(config.K)
    R1, R2 = game.R1.tolist(), game.R2.tolist()

    tau, eps, norm = config.tau, config.eps_bar, config.normalize_q_in_softmax
    sched = config.schedule
    stride = config.record_stride

    index: list[tuple[int, int]] = []
    series: dict[str, list] = {name: [] for name in MATRIX_METRICS}

    def record(k: int) -> None:
        index.append((0, k))
        ng, ngtau = matrix_gaps_lists(R1, R2, pi1, pi2, tau)
        series["ng"].append(ng)
        series["ngtau"].append(ngtau)
        series["min_pi"].append(min(min(pi1), min(pi2)))
        series["q_inf"].append(max(max(abs(x) for x in q1), max(abs(x) for x in q2)))

    for k in range(config.K):
        alpha, beta = sched.rates(k)
        _advance(q1, q2, pi1, pi2, R1, R2, tau, eps, norm, alpha, beta, u1[k], u2[k])
        done = k + 1
        if done % stride == 0 or done == config.K:
            record(done)

    return TrajectoryRecord(
        config_echo=config.to_dict(),
        index=np.array(index, dtype=np.int64),
        series={name: np.array(vals) for name, vals in series.items()},
        final_policy=JointPolicy(pi1=np.array(pi1), pi2=np.array(pi2)),
        final_q=(np.array(q1), np.array(q2)),
        final_v=None,
        warnings=warnings,
    )
