"""Nested value-iteration / smoothed-best-response learning in stochastic games.

The outer loop maintains per-player value vectors v_t. Each outer round
freezes v_t and runs K inner iterations of the matrix-game dynamics on the
induced one-step game: policies are pushed toward the softmax of q at every
state (stale q), both players act at the current environment state only,
and q is TD-corrected at the visited state-action toward

    payoff + gamma * v_t(next state).

After K inner steps, v_{t+1}(s) is the policy-weighted average of q(s, .),
and q, policies, and the environment state all carry over: the whole run
consumes a single continuing trajectory of exactly T*K transitions. The
inner stepsize schedule restarts at k=0 every round.

The explore variant mixes the softmax target with the uniform distribution,
which floors every policy entry at eps_bar / n_actions.

run_visbr steps the trajectories of configs that share (schedule, K, T),
and so every step's beta, in lockstep as one group. Both players'
policies, and each state's softmax target of q, are two (B*S, n1 + n2)
float64 arrays pi and tg, player 1's columns first, where row b*S + s is
state s of trajectory b; both players' columns are always present. Every
state of every trajectory moves in the one expression pi += beta (tg - pi),
the same three operations per entry as a list loop. The work at each
trajectory's visited state s stays in _core's list code: sampling, the TD
update of q, and the softmax that rewrites tg[s]. q moves only at s, so
tg[st] stays the target of q[st]. The next state is bisect_right on the
transition row's partial sums, cached once per call and added as
pick_action adds them. A frozen player 2's target is its own table: its
columns of pi and tg start equal, so the policy step leaves them exactly
where they are, while its q and v stay 0. The v* and game tables are built
once per call; v_err is recorded on every game.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from itertools import accumulate

import numpy as np

from ._core import _UNIFORM_CHUNK, _generators, _targets, pick_action, smoothed_policy
from .config import VisbrConfig, visbr_condition_warnings
from .errors import DimensionMismatch, NotErgodic
from .games import (JointPolicy, StochasticGame, TrajectoryRecord,
                    _check_distributions, check_zero_sum_game, uniform_joint_policy)
from .metrics import stochastic_gaps
from .ops import minimax_fixed_point, stationary_distribution

VISBR_METRICS = ("ng", "min_pi", "q_inf", "lsum", "v_inf", "v_err")

_SCORE_CHUNK = 128  # a group's recorded rows per stochastic_gaps call and reduction: bounds held memory


def visbr_seed_sequences(seed: int):
    """Child seeds (player 1, player 2, environment).

    Player i consumes one uniform per inner step; the environment consumes
    one for the initial state and one per inner step.
    """
    ss = np.random.SeedSequence(seed)
    return tuple(ss.spawn(3))


def _weighted_rows(pi: list, q: list) -> list:
    # v(s) = sum_a pi(a|s) q(s,a), accumulated in action order.
    out = []
    for pi_row, q_row in zip(pi, q):
        acc = 0.0
        for p, x in zip(pi_row, q_row):
            acc += p * x
        out.append(acc)
    return out


def _ergodicity_warning(game: StochasticGame) -> tuple[str, ...]:
    try:
        stationary_distribution(game, uniform_joint_policy(game))
    except NotErgodic as exc:
        return (f"ergodicity diagnostic: uniform joint policy is not "
                f"irreducible+aperiodic ({exc}); a different reference policy "
                f"may still certify the mixing assumption",)
    return ()


def _v_stats(v1: list, v2: list, v_star: tuple, frozen: bool) -> tuple:
    # lsum, v_inf and v_err of the v every row of a round shares; a frozen
    # player 2's v stays 0, so v_err then measures player 1 alone
    err1 = max(abs(a - b) for a, b in zip(v1, v_star[0]))
    err2 = max(abs(a - b) for a, b in zip(v2, v_star[1]))
    return (max(abs(a + b) for a, b in zip(v1, v2)), max(abs(x) for x in v1 + v2),
            err1 if frozen else max(err1, err2))


def run_visbr(game: StochasticGame, configs: Sequence[VisbrConfig], *,
              frozen_pi2: np.ndarray | None = None) -> list[TrajectoryRecord]:
    """Run T outer rounds of K inner steps per config; one record each, in order.

    The game and frozen_pi2 checks, the ergodicity warning, v*, the list
    tables of the game and the transition rows' partial sums are built once
    per call. Configs that share (schedule, K, T) step in lockstep as one
    group; a trajectory's iterates depend on its own config only, so a
    record is the same whichever configs share its call.
    Rows carry index (t, k): every stride multiple within a round, each
    round's final (t, K), the initial point (0, 0), and the final (T, 0)
    written after the last outer update. The iterates do not depend on T,
    so a config with T=t records the first rows of the same config with a
    larger T, then its own final (t, 0). Metrics: stochastic Nash gap (best
    responses to tolerance 1e-6), min policy entry, max |q|, the zero-sum
    drift |v1+v2| sup-norm (lsum), max |v|, and the distance v_err to the
    exact minimax fixed point, recorded on every game. ng, min_pi and q_inf
    are taken per _SCORE_CHUNK rows of a group (same bytes), so a row's
    NoConvergence or NotADistribution surfaces at that scoring.

    frozen_pi2 pins player 2 to a fixed per-state policy: player 2 stops
    learning, its target is its own table, and final_policy.pi2 is that
    table. ng is the gap of the joint policy actually played,
    (pi1, frozen_pi2); player 2's q and v stay 0, so min_pi, q_inf, lsum
    (then equal to v_inf), v_inf and v_err cover player 1 only. Used to study
    one-sided learning against a stationary opponent.
    """
    check_zero_sum_game(game, StochasticGame)
    S, n1, n2 = game.n_states, game.n_actions_1, game.n_actions_2
    fixed2 = None
    if frozen_pi2 is not None:
        fixed2 = np.asarray(frozen_pi2, dtype=np.float64)
        if fixed2.shape != (S, n2):
            raise DimensionMismatch(
                f"frozen_pi2 must have shape {(S, n2)}, got {fixed2.shape}")
        _check_distributions(fixed2, "frozen_pi2")  # before the run, not at the first score
    ergodicity = _ergodicity_warning(game)
    v1_star = minimax_fixed_point(game, 1, tol=1e-6)  # zero-sum, so player 2's v* is -v1*
    v_star = (v1_star.tolist(), (-v1_star).tolist())
    sums = [[[_partial_sums(p) for p in row] for row in state]
            for state in game.transition.tolist()]
    tables = (sums, game.R1.tolist(), game.R2.tolist())
    groups: dict[tuple, list[int]] = {}
    for i, c in enumerate(configs):
        groups.setdefault((c.schedule, c.K, c.T), []).append(i)
    records: list = [None] * len(configs)
    for members in groups.values():
        group = _group(game, [configs[i] for i in members], *tables, fixed2, v_star, ergodicity)
        for i, rec in zip(members, group):
            records[i] = rec
    return records


def _partial_sums(p: list) -> list:
    # p[0], p[0] + p[1], ... up to the last entry but one, added left to
    # right as pick_action adds them: bisect_right(sums, u) is then
    # pick_action(p, u), and p >= 0 keeps the sums sorted
    return list(accumulate(p[:-1]))


def _group(game, configs, sums, R1, R2, fixed2, v_star, ergodicity):
    # the trajectories of configs sharing (schedule, K, T), on the tables
    # and v* that the call shares. Each starts from zero q as nested lists,
    # uniform policies (fixed2 for a frozen player 2) and v = 0, with S0
    # drawn from its environment stream.
    S, n1, n2 = game.n_states, game.n_actions_1, game.n_actions_2
    T, K, schedule = configs[0].T, configs[0].K, configs[0].schedule
    gamma, frozen = game.gamma, fixed2 is not None
    # generator i*B + b and row i*B + b of u are player 1's (i = 0),
    # player 2's (i = 1) or the environment's (i = 2) of trajectory b
    B = len(configs)
    rngs = _generators([c.seed for c in configs], 3)
    u = np.empty((3 * B, _UNIFORM_CHUNK))
    start = game.initial_dist.tolist()
    # q starts at zero, so a learner's target starts as the softmax of zero
    # rows; a frozen player's target is its own table. The targets depend on
    # q only, which the end-of-round v update leaves alone, so the cache
    # carries across rounds. The softmax takes one column per state; the
    # copy keeps tg in C order, as pi, for the per-state row writes
    pi = np.tile(np.hstack((np.full((S, n1), 1.0 / n1),
                            fixed2 if frozen else np.full((S, n2), 1.0 / n2))), (B, 1))
    tg = np.vstack([np.hstack([_targets(np.zeros((n, S)), c.tau, c.eps_bar, False).T
                               for n in (n1, n2)]) for c in configs]).copy()
    if frozen:
        tg[:, n1:] = pi[:, n1:]
    # per trajectory, what a step reads and writes: the state, the first
    # row of its block, q1, q2, v1, v2, tau and eps
    runs = [[pick_action(start, rng.random()), b * S, [[0.0] * n1 for _ in range(S)],
             [[0.0] * n2 for _ in range(S)], [0.0] * S, [0.0] * S, c.tau, c.eps_bar]
            for b, (c, rng) in enumerate(zip(configs, rngs[2 * B:]))]
    outs = [([], [], [], [], []) for _ in configs]  # index, ng, min_pi, q_inf, v rows
    stats = [_v_stats(run[4], run[5], v_star, frozen) for run in runs]
    held, held_q, owners = [], [], []  # recorded joint policies and flat q, not reduced yet
    by_stride: dict[int, list[int]] = {}
    for b, c in enumerate(configs):
        by_stride.setdefault(c.record_stride, []).append(b)

    def score() -> None:
        stack = np.array(held)
        for b, *row in zip(owners, stochastic_gaps(game, stack[..., :n1], stack[..., n1:]).tolist(),
                           stack[..., :n1 if frozen else None].min(axis=(1, 2)).tolist(),
                           np.abs(held_q).max(axis=1).tolist()):
            for col, x in zip(outs[b][1:4], row):
                col.append(x)
        del held[:], held_q[:], owners[:]

    def record(b: int, t: int, k: int) -> None:
        _, first, q1, q2 = runs[b][:4]
        outs[b][0].append((t, k))
        outs[b][4].append(stats[b])
        held.append(pi[first:first + S].copy())
        held_q.append([x for row in q1 + q2 for x in row])
        owners.append(b)
        if len(held) == _SCORE_CHUNK:
            score()

    for b in range(B):
        record(b, 0, 0)
    for t in range(T):
        due = min(K, *by_stride)  # the next step at which some trajectory records
        for k in range(0, K, _UNIFORM_CHUNK):
            # the same streams as one draw of K per generator and round
            n = min(_UNIFORM_CHUNK, K - k)
            for rng, row in zip(rngs, u):
                rng.random(out=row[:n])
            draws = u[:, :n].T.reshape(n, 3, B).tolist()  # [step][i][b]
            # beta as a numpy float64, which the array step takes faster than a float
            rates = [(a, np.float64(r)) for a, r in map(schedule.rates, range(k, k + n))]
            for done, (alpha, beta), step in zip(range(k + 1, k + n + 1), rates, draws):
                # tg[s] is recomputed from the q row that a full rebuild
                # would use; a frozen player 2 keeps its columns of tg[s]
                pi += beta * (tg - pi)
                for run, u1, u2, ue in zip(runs, *step):
                    s, row, q1, q2, v1, v2, tau, eps = run
                    row += s
                    here = pi[row].tolist()
                    a1 = pick_action(here[:n1], u1)
                    a2 = pick_action(here[n1:], u2)
                    s_next = bisect_right(sums[s][a1][a2], ue)
                    row1 = q1[s]
                    row1[a1] += alpha * (R1[s][a1][a2] + gamma * v1[s_next] - row1[a1])
                    target = smoothed_policy(row1, tau, eps, False)
                    if frozen:
                        tg[row, :n1] = target
                    else:  # the whole-row write is the faster one
                        row2 = q2[s]
                        row2[a2] += alpha * (R2[s][a2][a1] + gamma * v2[s_next] - row2[a2])
                        target += smoothed_policy(row2, tau, eps, False)
                        tg[row] = target
                    run[0] = s_next
                if done == due:
                    for stride, members in by_stride.items():
                        if done % stride == 0 or done == K:
                            for b in members:
                                record(b, t, done)
                    due = min(K, *(done - done % stride + stride for stride in by_stride))
            del draws  # so the next chunk's floats are not built while these are held
        for b, run in enumerate(runs):
            block = pi[run[1]:run[1] + S]
            run[4] = _weighted_rows(block[:, :n1].tolist(), run[2])
            run[5] = _weighted_rows(block[:, n1:].tolist(), run[3])
            stats[b] = _v_stats(run[4], run[5], v_star, frozen)
    for b in range(B):
        record(b, T, 0)
    if held:
        score()

    records = []
    for (_, first, q1, q2, v1, v2, _, _), (index, ng, min_pi, q_inf, v_rows), c in zip(
            runs, outs, configs):
        block = pi[first:first + S]
        columns = zip(VISBR_METRICS, (ng, min_pi, q_inf, *zip(*v_rows)), strict=True)
        records.append(TrajectoryRecord(
            config_echo=c.to_dict(),
            index=np.array(index, dtype=np.int64),
            series={name: np.array(col) for name, col in columns},
            final_policy=JointPolicy(pi1=block[:, :n1].copy(), pi2=block[:, n1:].copy()),
            final_q=(np.array(q1), np.array(q2)),
            final_v=(np.array(v1), np.array(v2)),
            warnings=visbr_condition_warnings(c, game.gamma) + ergodicity,
        ))
    return records
