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

A matrix game is the one-state stochastic game with gamma = 0, and one
kernel runs B trajectories of it in the step loop that run_visbr uses
(_loops.c, loaded by _core._visbr_loop): q, the policies and their cached
softmax targets as (B, 1, .) arrays with v = 0, one row per trajectory with
its own tau, eps_bar and K. The loop draws each trajectory's uniforms from
its PCG64 streams and its rates from the schedule itself, so a kernel call
runs from one step at which some trajectory records to the next. Trajectory
b steps only while k < its K, so each leaves the batch at its own K, and
the loop draws no environment uniform at S = 1.
run_matrix_dynamics batches the configs that share schedule and
normalize_q_in_softmax, which the loop's softmax reads. Recording stays
here: each chunk of up to 256 recorded policies is scored in one
metrics.matrix_gaps call, which runs the compiled gap scorer of the same
library, or its numpy body where that is not built. The loop runs the
float operations of _core._visbr_steps, the list loop that specifies it
bit for bit and runs wherever it cannot be built, in their order: sums
left to right, exp and sqrt from the C library, no FMA contraction; the
scorer keeps its numpy body's bits the same way. So a trajectory's bytes
depend neither on its batch nor on the loop or scorer that ran it.

Player i draws from stream i of player_seed_sequences(seed); _core's
_streams seeds all 2B streams from one vectorized pass of SeedSequence's
hash.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ._core import _start, _streams, _visbr_loop
from .config import MatrixRunConfig, matrix_condition_warnings
from .games import JointPolicy, MatrixGame, TrajectoryRecord, check_zero_sum_game
from .metrics import matrix_gaps

MATRIX_METRICS = ("ng", "ngtau", "min_pi", "q_inf")

_SCORE_CHUNK = 256  # joint policies per matrix_gaps call, or B if larger: bounds memory


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
    groups: dict[tuple, list[int]] = {}
    for i, c in enumerate(configs):
        groups.setdefault((c.schedule, c.normalize_q_in_softmax), []).append(i)
    records: list = [None] * len(configs)
    for members in groups.values():
        for i, rec in zip(members, _run_batch(game, [configs[i] for i in members])):
            records[i] = rec
    return records


def _run_batch(game: MatrixGame, configs: list[MatrixRunConfig]) -> list[TrajectoryRecord]:
    # configs share schedule and normalize_q_in_softmax. They step as
    # trajectories of a one-state stochastic game with gamma = 0, so state 0
    # and v = 0 throughout, and the loop draws no environment uniform.
    # Trajectory b steps while k < its K, and the loop runs from one
    # recording step to the next
    first, (n1, n2) = configs[0], (game.n_actions_1, game.n_actions_2)
    B, K = len(configs), max(c.K for c in configs)
    ends = np.array([c.K for c in configs], dtype=np.int64)
    strides = np.array([c.record_stride for c in configs])
    taus, epss = np.array([[c.tau for c in configs], [c.eps_bar for c in configs]], np.float64)
    normalize = first.normalize_q_in_softmax
    q1, q2, v1, v2, pi, tg = _start(B, 1, n1, n2, taus, epss, normalize)
    R1, R2 = (np.ascontiguousarray(R, dtype=np.float64)[None] for R in (game.R1, game.R2))
    # stream i*B + b is player i's of trajectory b
    steps = _visbr_loop()(q1, q2, v1, v2, pi, tg, np.zeros(B, np.int64), R1, R2,
                          np.empty((1, n1, n2, 0)), taus, epss, ends, False, normalize, 0.0,
                          _streams([c.seed for c in configs], 2), first.schedule)
    due = np.zeros(K + 1, dtype=bool)  # the steps at which some trajectory records
    for s, e in set(zip(strides.tolist(), ends.tolist())):
        due[s:e + 1:s] = due[e] = True
    stops = [0, *np.flatnonzero(due).tolist()]
    rows, gaps, held = [], [], []
    for k, done in zip(stops, stops[1:]):
        steps(k, done)
        now = np.flatnonzero((ends >= done) & ((done % strides == 0) | (ends == done)))
        p, a1, a2 = pi[now, 0], q1[now, 0], q2[now, 0]
        rows.append((np.full(len(now), done), now, p.min(axis=1),
                     np.maximum(np.abs(a1).max(axis=1), np.abs(a2).max(axis=1))))
        held.append((p[:, :n1].T, p[:, n1:].T, taus[now]))
        live = np.count_nonzero(ends > done)  # the most rows the next stop can add
        if sum(len(h[2]) for h in held) + live > _SCORE_CHUNK or done == K:
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
    # the loop leaves each trajectory as it stood at its own K
    q1, q2, pi1, pi2 = q1[:, 0], q2[:, 0], pi[:, 0, :n1].copy(), pi[:, 0, n1:].copy()
    return [TrajectoryRecord(
        config_echo=c.to_dict(),
        index=index[mine[b]],
        series=dict(zip(MATRIX_METRICS, series.take(mine[b], axis=1))),
        final_policy=JointPolicy(pi1=pi1[b], pi2=pi2[b]),
        final_q=(q1[b], q2[b]),
        final_v=None,
        warnings=warnings[c.tau],
    ) for b, c in enumerate(configs)]
