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

One kernel runs B trajectories. Row i*B + b belongs to player i of
trajectory b, with its own tau, eps_bar and generator: a square game keeps
q and pi each as one (2B, n) stack, so every update runs once per step, and
any other game as one (B, n_i) stack per player. run_matrix_dynamics
batches the configs that share K, schedule, record_stride and
normalize_q_in_softmax. Sums run left to right, nothing uses a matmul, and
exp and log come from the C library, so a trajectory's bytes do not depend
on its batch.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ._core import _targets
from .config import MatrixRunConfig, matrix_condition_warnings
from .games import JointPolicy, MatrixGame, TrajectoryRecord, check_zero_sum_game
from .metrics import matrix_gaps

MATRIX_METRICS = ("ng", "ngtau", "min_pi", "q_inf")

# steps whose uniforms each generator draws at once: bounds the memory of
# long runs and leaves the stream as one rng.random(K) call would draw it
_UNIFORM_CHUNK = 64

_SCORE_CHUNK = 256  # joint policies per matrix_gaps call, or B if larger: bounds memory


def player_seed_sequences(seed: int) -> tuple[np.random.SeedSequence, np.random.SeedSequence]:
    """Per-player child seeds; player i consumes one uniform per iteration."""
    c1, c2 = np.random.SeedSequence(seed).spawn(2)
    return c1, c2


def _stacks(game: MatrixGame, rows) -> list:
    # the kernel's layout of player 1's and player 2's (B, ...) arrays: one
    # stack of both when the action counts match, else one per player
    return [np.concatenate(rows)] if game.n_actions_1 == game.n_actions_2 else list(rows)


def _split(stacks: list, rows: int) -> list:
    # consecutive `rows`-row views of each stack, valid while it updates in place
    return [s[j:j + rows] for s in stacks for j in range(0, len(s), rows)]


def _step(q, pi, R, tau, eps, normalize, alpha, beta, u):
    # One iteration for a batch, in place on q and pi: lists of stacks whose
    # rows hold player 1's B trajectories, then player 2's, in one (2B, n)
    # stack for a square game, else a (B, n_i) stack per player. tau and eps
    # are (rows, 1) columns and u (rows,) uniforms, one of each per stack.
    a = []
    for qs, ps, t, e, us in zip(q, pi, tau, eps, u):
        ps += beta * (_targets(qs, t, e, normalize) - ps)
        # inverse-CDF sampling: the smallest a with u < pi[0] + ... + pi[a]
        # is the count of partial sums u passes, since they never decrease
        a.append((us[:, None] >= np.cumsum(ps[:, :-1], axis=1)).sum(axis=1))
    a = np.concatenate(a)  # player 1's B actions, then player 2's
    B, m = len(a) // 2, len(q[0])
    r = np.concatenate((R[0][a[:B], a[B:]], R[1][a[B:], a[:B]]))
    rows = np.arange(m)
    for qs, ai, ri in zip(q, _split([a], m), _split([r], m)):
        qs[rows, ai] += alpha * (ri - qs[rows, ai])


def run_matrix_dynamics(game: MatrixGame,
                        configs: Sequence[MatrixRunConfig]) -> list[TrajectoryRecord]:
    """Run each config for K iterations; one record per config, in order.

    Configs that share K, schedule, record_stride and
    normalize_q_in_softmax run as one batch, and a record is the same
    whatever batch it ran in. Rows carry index (0, k) at every stride
    multiple plus the final k=K, so stride=K yields exactly one row.
    Metrics at row k are computed from the policy after k iterations.
    The iterates do not depend on K or record_stride, so a config with K=k
    ends where the same config with a larger K stands after k iterations.
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
    tau = _stacks(game, [np.array([[c.tau] for c in configs])] * 2)
    eps = _stacks(game, [np.array([[c.eps_bar] for c in configs])] * 2)
    # generator i*B + b and row i*B + b of u belong to player i of trajectory b
    seeds = [player_seed_sequences(c.seed) for c in configs]
    rngs = [np.random.default_rng(s[i]) for i in range(2) for s in seeds]
    u = np.empty((2 * B, _UNIFORM_CHUNK))
    q = _stacks(game, [np.zeros((B, n)) for n in (game.n_actions_1, game.n_actions_2)])
    pi = _stacks(game, [np.full((B, n), 1.0 / n) for n in (game.n_actions_1, game.n_actions_2)])
    (q1, q2), (pi1, pi2) = _split(q, B), _split(pi, B)
    us = _split([u], len(q[0]))  # each stack's rows of u
    ks, gaps, stats, held = [], [], [], []
    for k in range(K):
        col = k % _UNIFORM_CHUNK
        if col == 0:
            for g, row in zip(rngs, u):
                g.random(out=row[:min(_UNIFORM_CHUNK, K - k)])
        alpha, beta = first.schedule.rates(k)
        _step(q, pi, (game.R1, game.R2), tau, eps, first.normalize_q_in_softmax,
              alpha, beta, [x[:, col] for x in us])
        done = k + 1
        if done % stride == 0 or done == K:
            ks.append((0, done))
            stats.append((np.minimum(pi1.min(axis=1), pi2.min(axis=1)),
                          np.maximum(np.abs(q1).max(axis=1), np.abs(q2).max(axis=1))))
            held.append((pi1.copy(), pi2.copy()))
            if (len(held) + 1) * B > _SCORE_CHUNK or done == K:  # a (rows * B, n) batch
                p1, p2 = (np.concatenate(p) for p in zip(*held))
                ng, ngtau = matrix_gaps(game.R1, game.R2, p1, p2,
                                        np.tile(tau[0][:B, 0], len(held)))
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
        final_policy=JointPolicy(pi1=pi1[b].copy(), pi2=pi2[b].copy()),
        final_q=(q1[b].copy(), q2[b].copy()),
        final_v=None,
        warnings=warnings[c.tau],
    ) for b, c in enumerate(configs)]
