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

One kernel runs B trajectories. Its stacks are action-major: column
i*B + b belongs to player i of trajectory b, with its own tau, eps_bar and
generator. A square game keeps q and pi each as one (n, 2B) stack, so every
update runs once per step, and any other game as one (n_i, B) stack per
player. Each operation over actions is then a loop of n vector operations
over the whole batch. run_matrix_dynamics batches the configs that share
schedule and normalize_q_in_softmax; each config records at its own
stride multiples and leaves the batch at its own K. Sums run left to
right, nothing uses a matmul, and exp and log come from the C library, so a
trajectory's bytes do not depend on its batch.

Player i draws from stream i of player_seed_sequences(seed); _core's
_generators seeds all 2B generators from one vectorized pass of
SeedSequence's hash, at B=128 in 0.11-0.17x the time of 2B SeedSequences.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ._core import _UNIFORM_CHUNK, _generators, _targets
from .config import MatrixRunConfig, matrix_condition_warnings
from .games import JointPolicy, MatrixGame, TrajectoryRecord, check_zero_sum_game
from .metrics import matrix_gaps

MATRIX_METRICS = ("ng", "ngtau", "min_pi", "q_inf")

_SCORE_CHUNK = 256  # joint policies per matrix_gaps call, or B if larger: bounds memory


def player_seed_sequences(seed: int) -> tuple[np.random.SeedSequence, np.random.SeedSequence]:
    """Per-player child seeds; player i consumes one uniform per iteration."""
    c1, c2 = np.random.SeedSequence(seed).spawn(2)
    return c1, c2


def _stacks(game: MatrixGame, cols) -> list:
    # the kernel's layout of player 1's and player 2's (..., B) arrays: one
    # stack, player 1's columns first, when the action counts match, else two
    return [np.concatenate(cols, axis=-1)] if game.n_actions_1 == game.n_actions_2 else list(cols)


def _split(stacks: list, cols: int) -> list:
    # consecutive `cols`-column views of each stack, valid while it updates in place
    return [s[..., j:j + cols] for s in stacks for j in range(0, s.shape[-1], cols)]


def _step(q, pi, R, tau, eps, normalize, alpha, beta, u):
    # One iteration for a batch, in place on q and pi: lists of stacks whose
    # columns hold player 1's B trajectories, then player 2's, in one
    # (n, 2B) stack for a square game, else an (n_i, B) stack per player.
    # tau, eps and u (uniforms) are rows, one of each per stack.
    a = []
    for qs, ps, t, e, us in zip(q, pi, tau, eps, u):
        ps += beta * (_targets(qs, t, e, normalize) - ps)
        # inverse-CDF sampling: the smallest a with u < pi[0] + ... + pi[a]
        # is the count of partial sums u passes, since they never decrease
        acc, ai = np.zeros(len(us)), np.zeros(len(us), dtype=np.intp)
        for j in range(len(ps) - 1):
            acc += ps[j]
            ai += us >= acc
        a.append(ai)
    a = np.concatenate(a)  # player 1's B actions, then player 2's
    B, m = len(a) // 2, q[0].shape[1]
    r = np.concatenate((R[0][a[:B], a[B:]], R[1][a[B:], a[:B]]))
    cols = np.arange(m)
    for qs, ai, ri in zip(q, _split([a], m), _split([r], m)):
        # the stacks are contiguous, so entry (a, c) sits at a * m + c of the flat view
        at, flat = ai * m + cols, qs.reshape(-1)
        flat[at] += alpha * (ri - flat[at])


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
    groups: dict[tuple, list[int]] = {}
    for i, c in enumerate(configs):
        groups.setdefault((c.schedule, c.normalize_q_in_softmax), []).append(i)
    records: list = [None] * len(configs)
    for members in groups.values():
        members.sort(key=lambda i: -configs[i].K)  # _run_batch takes the longest first
        for i, rec in zip(members, _run_batch(game, [configs[i] for i in members])):
            records[i] = rec
    return records


def _run_batch(game: MatrixGame, configs: list[MatrixRunConfig]) -> list[TrajectoryRecord]:
    # configs share schedule and normalize_q_in_softmax and come longest K
    # first, so the trajectories still running are always the first B
    first = configs[0]
    B, K = len(configs), configs[0].K
    ends, strides = np.array([c.K for c in configs]), np.array([c.record_stride for c in configs])
    taus, epss = np.array([c.tau for c in configs]), np.array([c.eps_bar for c in configs])
    # generator i*B + b, row i*B + b of u and column i*B + b of ut belong to
    # player i of trajectory b; ut holds the chunk one step per row
    rngs = _generators([c.seed for c in configs], 2)
    u, ut = np.empty((2 * B, _UNIFORM_CHUNK)), np.empty((_UNIFORM_CHUNK, 2 * B))
    q1, q2 = (np.zeros((n, B)) for n in (game.n_actions_1, game.n_actions_2))
    pi1, pi2 = (np.full((n, B), 1.0 / n) for n in (game.n_actions_1, game.n_actions_2))
    due = np.zeros(K + 1, dtype=bool)  # the steps at which some trajectory records
    for s, e in set(zip(strides.tolist(), ends.tolist())):
        due[s:e + 1:s] = due[e] = True
    rows, gaps, held, finals = [], [], [], {}
    for k in range(K):
        if k == 0 or ends[-1] == k:  # keep only the trajectories still running
            n = np.count_nonzero(ends > k)
            q, pi = (_stacks(game, [x[:, :n].copy() for x in xs]) for xs in ((q1, q2), (pi1, pi2)))
            (q1, q2), (pi1, pi2) = _split(q, n), _split(pi, n)
            tau, eps = (_stacks(game, [x[:n]] * 2) for x in (taus, epss))
            # u is refilled before it is read again; ut keeps the chunk's live columns
            rngs, u = rngs[:n] + rngs[B:B + n], u[:2 * n]
            ut = np.concatenate((ut[:, :n], ut[:, B:B + n]), axis=1)
            B, ends, strides = n, ends[:n], strides[:n]
            us = _split([ut], q[0].shape[1])  # each stack's columns of ut
        col = k % _UNIFORM_CHUNK
        if col == 0:
            for g, row in zip(rngs, u):
                g.random(out=row[:min(_UNIFORM_CHUNK, K - k)])
            ut[...] = u.T
        alpha, beta = first.schedule.rates(k)
        _step(q, pi, (game.R1, game.R2), tau, eps, first.normalize_q_in_softmax,
              alpha, beta, [x[col] for x in us])
        done = k + 1
        if not due[done]:
            continue
        now = np.flatnonzero((done % strides == 0) | (ends == done))  # the trajectories recording
        if ends[-1] == done:  # each trajectory ending here keeps its (q1, q2, pi1, pi2)
            end = np.flatnonzero(ends == done)
            finals.update(zip(end, zip(*(x[:, end].T.copy() for x in (q1, q2, pi1, pi2)))))
        p1, p2, a1, a2 = (x.take(now, axis=1) for x in (pi1, pi2, q1, q2))  # take beats [:, now]
        rows.append((np.full(len(now), done), now, np.minimum(p1.min(axis=0), p2.min(axis=0)),
                     np.maximum(np.abs(a1).max(axis=0), np.abs(a2).max(axis=0))))
        held.append((p1, p2, taus[now]))
        if sum(len(h[2]) for h in held) + B > _SCORE_CHUNK or done == K:
            p1, p2, t = (np.concatenate(x, axis=-1) for x in zip(*held))
            gaps.append(matrix_gaps(game.R1, game.R2, p1, p2, t))
            held.clear()
    ks, owner, min_pi, q_inf = (np.concatenate(x) for x in zip(*rows))
    index = np.column_stack((np.zeros_like(ks), ks))
    series = np.stack((*map(np.concatenate, zip(*gaps)), min_pi, q_inf))  # (metric, entry)
    # each trajectory's entries, in step order
    mine = np.split(np.argsort(owner, kind="stable"),
                    np.cumsum(np.bincount(owner, minlength=len(configs)))[:-1])
    # the warnings read only tau and the schedule the batch shares
    warnings = {t: matrix_condition_warnings(c, game.a_max)
                for t, c in {c.tau: c for c in configs}.items()}
    return [TrajectoryRecord(
        config_echo=c.to_dict(),
        index=index[mine[b]],
        series=dict(zip(MATRIX_METRICS, series.take(mine[b], axis=1))),
        final_policy=JointPolicy(pi1=finals[b][2], pi2=finals[b][3]),
        final_q=finals[b][:2],
        final_v=None,
        warnings=warnings[c.tau],
    ) for b, c in enumerate(configs)]
