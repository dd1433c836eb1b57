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

One kernel serves step and run: each player's q and pi are (B, n) arrays,
one row per trajectory, with tau, eps_bar and the seed per row.
run_matrix_dynamics batches the configs that share K, schedule,
record_stride and normalize_q_in_softmax; step_matrix is the case B=1.
Sums run left to right, nothing uses a matmul, and exp and log come from
the C library, so a trajectory's bytes do not depend on its batch and a
run is bitwise equal to repeated step_matrix calls.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ._core import _targets
from .config import MatrixRunConfig, matrix_condition_warnings
from .errors import DimensionMismatch
from .games import (JointPolicy, LearnerState, MatrixGame, TrajectoryRecord,
                    check_zero_sum_game)
from .metrics import matrix_gaps

MATRIX_METRICS = ("ng", "ngtau", "min_pi", "q_inf")

# steps whose uniforms each generator draws at once: bounds the memory of
# long runs and leaves the stream as one rng.random(K) call would draw it
_UNIFORM_CHUNK = 64

_SCORE_CHUNK = 256  # joint policies per matrix_gaps call, or B if larger: bounds memory


@dataclass(frozen=True, eq=False)
class MatrixDynamicsState:
    """Snapshot of both learners plus the shared iteration counter.

    The generator objects are carried by reference and advance in place as
    steps are taken; snapshotting a state does not freeze the randomness.
    """

    players: tuple[LearnerState, LearnerState]
    k: int
    rngs: tuple[np.random.Generator, np.random.Generator]


def player_seed_sequences(seed: int) -> tuple[np.random.SeedSequence, np.random.SeedSequence]:
    """Per-player child seeds; player i consumes one uniform per iteration."""
    c1, c2 = np.random.SeedSequence(seed).spawn(2)
    return c1, c2


def init_matrix_state(game: MatrixGame, config: MatrixRunConfig) -> MatrixDynamicsState:
    """Uniform policies, zero payoff estimates, per-player generators."""
    check_zero_sum_game(game, MatrixGame)
    players = tuple(LearnerState(q=np.zeros(n), pi=np.full(n, 1.0 / n))
                    for n in (game.n_actions_1, game.n_actions_2))
    rngs = tuple(map(np.random.default_rng, player_seed_sequences(config.seed)))
    return MatrixDynamicsState(players=players, k=0, rngs=rngs)


def _step(q, pi, R, tau, eps, normalize, alpha, beta, u):
    # One iteration for a batch. q, pi and u are per-player lists of (B, n)
    # arrays and (B,) uniforms; q and pi are updated in place.
    targets = [_targets(qi, tau, eps, normalize) for qi in q]
    for p, t in zip(pi, targets):
        p += beta * (t - p)
    # inverse-CDF sampling: the smallest a with u < pi[0] + ... + pi[a] is
    # the count of partial sums u passes, since they never decrease
    a1, a2 = ((ui[:, None] >= np.cumsum(p[:, :-1], axis=1)).sum(axis=1)
              for p, ui in zip(pi, u))
    payoffs = (R[0][a1, a2], R[1][a2, a1])
    rows = np.arange(len(a1))
    for qi, a, r in zip(q, (a1, a2), payoffs):
        qi[rows, a] += alpha * (r - qi[rows, a])


def step_matrix(state: MatrixDynamicsState, game: MatrixGame,
                config: MatrixRunConfig) -> MatrixDynamicsState:
    """Advance one iteration; returns the new state, generators advanced in place."""
    check_zero_sum_game(game, MatrixGame)
    if state.players[0].q.shape != (game.n_actions_1,) or \
            state.players[1].q.shape != (game.n_actions_2,):
        raise DimensionMismatch("state shapes do not match the game")
    alpha, beta = config.schedule.rates(state.k)
    q = [np.array(p.q, dtype=np.float64)[None] for p in state.players]
    pi = [np.array(p.pi, dtype=np.float64)[None] for p in state.players]
    _step(q, pi, (game.R1, game.R2), np.array([[config.tau]]), np.array([[config.eps_bar]]),
          config.normalize_q_in_softmax, alpha, beta, [np.array([g.random()]) for g in state.rngs])
    players = tuple(LearnerState(q=qi[0], pi=p[0]) for qi, p in zip(q, pi))
    return MatrixDynamicsState(players=players, k=state.k + 1, rngs=state.rngs)


def run_matrix_dynamics(game: MatrixGame,
                        configs: Sequence[MatrixRunConfig]) -> list[TrajectoryRecord]:
    """Run each config for K iterations; one record per config, in order.

    Configs that share K, schedule, record_stride and
    normalize_q_in_softmax run as one batch, and a record is the same
    whatever batch it ran in. Rows carry index (0, k) at every stride
    multiple plus the final k=K, so stride=K yields exactly one row.
    Metrics at row k are computed from the policy after k iterations.
    Convergence-condition violations land in warnings.
    """
    check_zero_sum_game(game, MatrixGame)
    groups: dict[tuple, list[int]] = {}
    for i, c in enumerate(configs):
        key = (c.K, c.schedule, c.record_stride, c.normalize_q_in_softmax)
        groups.setdefault(key, []).append(i)
    records: list = [None] * len(configs)
    for members in groups.values():
        for i, rec in zip(members, _run_batch(game, [configs[i] for i in members])):
            records[i] = rec
    return records


def _run_batch(game: MatrixGame, configs: list[MatrixRunConfig]) -> list[TrajectoryRecord]:
    # configs share K, schedule, record_stride and normalize_q_in_softmax
    first = configs[0]
    K, stride = first.K, first.record_stride
    B = len(configs)
    tau = np.array([[c.tau] for c in configs])
    eps = np.array([[c.eps_bar] for c in configs])
    # generator 2b + i and row 2b + i of u belong to player i of trajectory b
    rngs = [np.random.default_rng(s) for c in configs for s in player_seed_sequences(c.seed)]
    u = np.empty((2 * B, _UNIFORM_CHUNK))
    q = [np.zeros((B, n)) for n in (game.n_actions_1, game.n_actions_2)]
    pi = [np.full((B, n), 1.0 / n) for n in (game.n_actions_1, game.n_actions_2)]
    ks, gaps, stats, held = [], [], [], []
    for k in range(K):
        col = k % _UNIFORM_CHUNK
        if col == 0:
            for g, row in zip(rngs, u):
                g.random(out=row[:min(_UNIFORM_CHUNK, K - k)])
        alpha, beta = first.schedule.rates(k)
        _step(q, pi, (game.R1, game.R2), tau, eps, first.normalize_q_in_softmax,
              alpha, beta, (u[0::2, col], u[1::2, col]))
        done = k + 1
        if done % stride == 0 or done == K:
            ks.append((0, done))
            stats.append((np.minimum(pi[0].min(axis=1), pi[1].min(axis=1)),
                          np.maximum(np.abs(q[0]).max(axis=1), np.abs(q[1]).max(axis=1))))
            held.append((pi[0].copy(), pi[1].copy()))
            if (len(held) + 1) * B > _SCORE_CHUNK or done == K:  # a (rows * B, n) batch
                p1, p2 = (np.concatenate(p) for p in zip(*held))
                ng, ngtau = matrix_gaps(game.R1, game.R2, p1, p2, np.tile(tau[:, 0], len(held)))
                gaps += zip(ng.reshape(-1, B), ngtau.reshape(-1, B))
                held.clear()
    series = np.concatenate((np.array(gaps), np.array(stats)), axis=1)  # (row, metric, b)
    # the warnings read only tau and the schedule the batch shares
    warnings = {t: matrix_condition_warnings(c, game.a_max)
                for t, c in {c.tau: c for c in configs}.items()}
    index = np.array(ks, dtype=np.int64)
    return [TrajectoryRecord(
        config_echo=c.to_dict(),
        index=index.copy(),
        series={name: series[:, m, b].copy() for m, name in enumerate(MATRIX_METRICS)},
        final_policy=JointPolicy(pi1=pi[0][b].copy(), pi2=pi[1][b].copy()),
        final_q=(q[0][b].copy(), q[1][b].copy()),
        final_v=None,
        warnings=warnings[c.tau],
    ) for b, c in enumerate(configs)]
