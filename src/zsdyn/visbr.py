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

Both players' policies, and each state's softmax target of q, are two
(S, n1 + n2) float64 arrays pi and tg, player 1's columns first; both
players' columns are always present. Every state's policy moves in the one
expression pi += beta (tg - pi), the same three operations per entry as a
list loop; sampling and the TD update of q stay in _core's list code. q
moves only at the visited state s, so tg[st] stays the target of q[st]
once tg[s] is recomputed after each step. A frozen player 2's target is
its own table: its columns of pi and tg start equal, so the policy step
leaves them exactly where they are, while its q and v stay 0. run_visbr
takes a sequence of configs, as run_matrix_dynamics does, and runs their
trajectories one after another on the v* and game tables it builds once
per call; v_err is recorded on every game.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ._core import _targets, pick_action, smoothed_policy
from .config import VisbrConfig, visbr_condition_warnings
from .errors import DimensionMismatch, NotErgodic
from .games import (JointPolicy, StochasticGame, TrajectoryRecord,
                    _check_distributions, check_zero_sum_game, uniform_joint_policy)
from .metrics import stochastic_gaps
from .ops import minimax_fixed_point, stationary_distribution

VISBR_METRICS = ("ng", "min_pi", "q_inf", "lsum", "v_inf", "v_err")

_SCORE_CHUNK = 128  # recorded rows per stochastic_gaps call and reduction: bounds held memory


def visbr_seed_sequences(seed: int):
    """Child seeds (player 1, player 2, environment).

    Player i consumes one uniform per inner step; the environment consumes
    one for the initial state and one per inner step.
    """
    ss = np.random.SeedSequence(seed)
    return tuple(ss.spawn(3))


def _advance_inner(q1, q2, pi, tg, v1, v2, s, R1, R2, P, gamma, tau, eps,
                   alpha, beta, u1, u2, ue, frozen):
    # One inner iteration. pi and tg are the arrays of the module docstring,
    # with both players' columns; q, v, R and P are nested lists. tg[st]
    # must equal the target of q[st] on entry; q moves only at s, so only
    # tg[s] is recomputed, from the same q row as a full rebuild would use,
    # which keeps every output byte. A frozen player 2's target is its own
    # table, so only player 1's columns of tg[s] are rewritten then.
    pi += beta * (tg - pi)
    n1 = len(q1[s])
    here = pi[s].tolist()
    a1 = pick_action(here[:n1], u1)
    a2 = pick_action(here[n1:], u2)
    s_next = pick_action(P[s][a1][a2], ue)
    row1 = q1[s]
    row1[a1] += alpha * (R1[s][a1][a2] + gamma * v1[s_next] - row1[a1])
    target = smoothed_policy(row1, tau, eps, False)
    if frozen:
        tg[s, :n1] = target
    else:  # the whole-row write is the faster one
        row2 = q2[s]
        row2[a2] += alpha * (R2[s][a2][a1] + gamma * v2[s_next] - row2[a2])
        target += smoothed_policy(row2, tau, eps, False)
        tg[s] = target
    return s_next


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

    The game and frozen_pi2 checks, the ergodicity warning, v* and the list
    tables of the game are built once per call; each trajectory then runs
    on its own, so a record is the same whichever configs share its call.
    Rows carry index (t, k): every stride multiple within a round, each
    round's final (t, K), the initial point (0, 0), and the final (T, 0)
    written after the last outer update. The iterates do not depend on T,
    so a config with T=t records the first rows of the same config with a
    larger T, then its own final (t, 0). Metrics: stochastic Nash gap (best
    responses to tolerance 1e-6), min policy entry, max |q|, the zero-sum
    drift |v1+v2| sup-norm (lsum), max |v|, and the distance v_err to the
    exact minimax fixed point, recorded on every game. ng, min_pi and q_inf
    are taken per _SCORE_CHUNK rows (same bytes), so a row's NoConvergence
    or NotADistribution surfaces at that scoring.

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
    tables = (game.transition.tolist(), game.R1.tolist(), game.R2.tolist())
    return [_trajectory(game, c, *tables, fixed2, v_star, ergodicity) for c in configs]


def _trajectory(game, config, P, R1, R2, fixed2, v_star, ergodicity):
    # one run_visbr trajectory on the tables and v* that its call shares. It
    # starts from zero q as nested lists, uniform policies (fixed2 for a
    # frozen player 2) and v = 0, with S0 drawn from the environment stream.
    rng1, rng2, rng_env = map(np.random.default_rng, visbr_seed_sequences(config.seed))
    S, n1, n2 = game.n_states, game.n_actions_1, game.n_actions_2
    q1, q2 = [[0.0] * n1 for _ in range(S)], [[0.0] * n2 for _ in range(S)]
    s = pick_action(game.initial_dist.tolist(), rng_env.random())
    frozen = fixed2 is not None
    v1 = v2 = [0.0] * S
    # beta as a numpy float64, which the array step takes faster than a float
    rates = [(a, np.float64(b)) for a, b in map(config.schedule.rates, range(config.K))]
    gamma, tau, eps = game.gamma, config.tau, config.eps_bar
    # q starts at zero, so a learner's target starts as the softmax of zero
    # rows; a frozen player's target is its own table. The targets depend on
    # q only, which the end-of-round v update leaves alone, so the cache
    # carries across rounds. The softmax takes one column per state; the
    # copy keeps tg in C order, as pi, for the per-state row writes
    pi1, pi2 = np.full((S, n1), 1.0 / n1), np.full((S, n2), 1.0 / n2)
    tg1, tg2 = (_targets(np.zeros((n, S)), tau, eps, False).T.copy() for n in (n1, n2))
    if frozen:
        pi2 = tg2 = fixed2
    pi, tg = np.hstack((pi1, pi2)), np.hstack((tg1, tg2))
    q_rows = q1 + q2  # the row lists, which the TD update edits in place
    index, ng, min_pi, q_inf, v_rows = [], [], [], [], []
    held, held_q = [], []  # recorded (S, n1 + n2) joint policies and flat q, not reduced yet
    stats = _v_stats(v1, v2, v_star, frozen)

    def record(t: int, k: int) -> None:
        index.append((t, k))
        v_rows.append(stats)
        held.append(pi.copy())
        held_q.append([x for row in q_rows for x in row])
        if len(held) == _SCORE_CHUNK or t == config.T:  # (T, 0) is the last row
            stack = np.array(held)
            ng.extend(stochastic_gaps(game, stack[..., :n1], stack[..., n1:]).tolist())
            min_pi.extend(stack[..., :n1 if frozen else None].min(axis=(1, 2)).tolist())
            q_inf.extend(np.abs(held_q).max(axis=1).tolist())
            del held[:], held_q[:]

    stride = config.record_stride
    record(0, 0)
    for t in range(config.T):
        # K uniforms per generator and round, the same stream as one draw
        # of T*K; a memoryview hands them out as Python floats one by one
        draws = zip(rates, *(memoryview(rng.random(config.K)) for rng in (rng1, rng2, rng_env)))
        for k, ((alpha, beta), u1, u2, ue) in enumerate(draws):
            s = _advance_inner(q1, q2, pi, tg, v1, v2, s, R1, R2, P, gamma, tau,
                               eps, alpha, beta, u1, u2, ue, frozen)
            done = k + 1
            if done % stride == 0 or done == config.K:
                record(t, done)
        v1 = _weighted_rows(pi[:, :n1].tolist(), q1)
        v2 = _weighted_rows(pi[:, n1:].tolist(), q2)
        stats = _v_stats(v1, v2, v_star, frozen)
    record(config.T, 0)

    columns = zip(VISBR_METRICS, (ng, min_pi, q_inf, *zip(*v_rows)), strict=True)
    return TrajectoryRecord(
        config_echo=config.to_dict(),
        index=np.array(index, dtype=np.int64),
        series={name: np.array(col) for name, col in columns},
        final_policy=JointPolicy(pi1=pi[:, :n1].copy(), pi2=pi[:, n1:].copy()),
        final_q=(np.array(q1), np.array(q2)),
        final_v=(np.array(v1), np.array(v2)),
        warnings=visbr_condition_warnings(config, game.gamma) + ergodicity,
    )
