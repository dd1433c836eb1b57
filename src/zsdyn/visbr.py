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

run_visbr steps the configs that share (schedule, K, T), and so every
step's rates, as one group in the compiled C loop of _loops.c (loaded by
_core._visbr_loop), from one step at which some trajectory records to the
next: the loop draws each trajectory's uniforms from its PCG64 streams and
its rates from the schedule itself. A group's q, v and policies are
(B, S, .) float64 arrays, and tg caches each state's softmax target of q,
both players' columns beside each other in pi and tg. A step moves every
state by pi += beta (tg - pi), samples at the visited state, picks the next
state by counting the transition row's partial sums (cached once per call),
TD-updates q there and rewrites that state's target: q moves only there. A
frozen player 2's columns of pi and tg start equal, so they stay put, while
its q and v stay 0. The loop runs the float operations of
_core._visbr_steps, the list loop that specifies it bit for bit and runs
wherever it cannot be built. Recording, the start state and the round-end
v stay here. run_matrix_dynamics steps a matrix game in the same loop, as
the one-state case with gamma = 0 and its own recorder; its
normalize_q_in_softmax is passed to the loop, and here it is off.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ._core import _start, _streams, _uniforms, _visbr_loop, pick_action
from .config import VisbrConfig, visbr_condition_warnings
from .errors import DimensionMismatch, NotErgodic
from .games import (JointPolicy, StochasticGame, TrajectoryRecord,
                    _check_distributions, check_zero_sum_game, uniform_joint_policy)
from .metrics import stochastic_gaps
from .ops import minimax_fixed_point, stationary_distribution

VISBR_METRICS = ("ng", "min_pi", "q_inf", "lsum", "v_inf", "v_err")

_SCORE_CHUNK = 128  # recorded rows per stochastic_gaps call, or B if larger: bounds held memory


def visbr_seed_sequences(seed: int):
    """Child seeds (player 1, player 2, environment).

    Player i consumes one uniform per inner step; the environment consumes
    one for the initial state and one per inner step, and none in a
    one-state game, where it has no state to pick.
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


def _v_stats(v1: np.ndarray, v2: np.ndarray, v_star: np.ndarray, frozen: bool) -> list:
    # lsum, v_inf and v_err of each trajectory's (S,) v, which every row of a
    # round shares; a frozen player 2's v stays 0, so v_err then measures
    # player 1 alone. Player 2's v* is -v_star, as the game is zero-sum
    err = np.abs(v1 - v_star).max(axis=1)
    if not frozen:
        err = np.maximum(err, np.abs(v2 + v_star).max(axis=1))
    vinf = np.maximum(np.abs(v1), np.abs(v2)).max(axis=1)
    return list(zip(np.abs(v1 + v2).max(axis=1).tolist(), vinf.tolist(), err.tolist()))


def run_visbr(game: StochasticGame, configs: Sequence[VisbrConfig], *,
              frozen_pi2: np.ndarray | None = None) -> list[TrajectoryRecord]:
    """Run T outer rounds of K inner steps per config; one record each, in order.

    The game and frozen_pi2 checks, the ergodicity warning, v* and the
    transition rows' partial sums are built once per call. Configs that
    share (schedule, K, T) step as one group; a trajectory's iterates depend
    on its own config only, so a record is the same whichever configs share
    its call.
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
            raise DimensionMismatch(f"frozen_pi2 must have shape {(S, n2)}, got {fixed2.shape}")
        _check_distributions(fixed2, "frozen_pi2")  # before the run, not at the first score
    ergodicity = _ergodicity_warning(game)
    v_star = minimax_fixed_point(game, 1, tol=1e-6)  # player 1's; player 2's is -v_star
    # each transition row's partial sums up to its last entry but one, added
    # left to right as pick_action adds them; p >= 0 keeps them sorted
    tables = [np.cumsum(game.transition[..., :-1], axis=-1),
              *(np.ascontiguousarray(R, dtype=np.float64) for R in (game.R1, game.R2))]
    groups: dict[tuple, list[int]] = {}
    for i, c in enumerate(configs):
        groups.setdefault((c.schedule, c.K, c.T), []).append(i)
    records: list = [None] * len(configs)
    for members in groups.values():
        group = _group(game, [configs[i] for i in members], *tables, fixed2, v_star, ergodicity)
        for i, rec in zip(members, group):
            records[i] = rec
    return records


def _group(game, configs, sums, R1, R2, fixed2, v_star, ergodicity):
    # the trajectories of configs sharing (schedule, K, T), on the tables
    # and v* that the call shares, as (B, S, .) arrays: zero q and v, uniform
    # policies (fixed2 for a frozen player 2) and S0 drawn from each
    # environment stream. The loop steps them from one recording step to the next
    S, n1, n2, B = game.n_states, game.n_actions_1, game.n_actions_2, len(configs)
    T, K, frozen = configs[0].T, configs[0].K, fixed2 is not None
    # stream i*B + b is player 1's (i = 0), player 2's (i = 1) or, where
    # there are states to pick, the environment's (i = 2) of trajectory b
    streams = _streams([c.seed for c in configs], 2 + (S > 1))
    states = np.zeros(B, dtype=np.int64)
    if S > 1:
        states[:] = [pick_action(game.initial_dist.tolist(), u)
                     for u in _uniforms(streams[2 * B:], 1)[:, 0].tolist()]
    strides = [c.record_stride for c in configs]
    taus, epss = np.array([[c.tau for c in configs], [c.eps_bar for c in configs]], np.float64)
    # a frozen player's target is its own table, which its policy starts at.
    # Targets depend on q only, so the cache carries across rounds
    q1, q2, v1, v2, pi, tg = _start(B, S, n1, n2, taus, epss, False)
    if frozen:
        pi[..., n1:] = tg[..., n1:] = fixed2
    steps = _visbr_loop()(q1, q2, v1, v2, pi, tg, states, R1, R2, sums, taus, epss,
                          np.full(B, K, np.int64), frozen, False, game.gamma, streams,
                          configs[0].schedule)
    stops = [0, *sorted({k for stride in strides for k in range(stride, K, stride)} | {K})]
    outs = [([], [], [], [], []) for _ in configs]  # index, ng, min_pi, q_inf, v rows
    held, owners = [], []  # recorded policies and q, not scored yet

    def score() -> None:
        stack, h1, h2 = map(np.concatenate, zip(*held))
        for b, *row in zip(owners, stochastic_gaps(game, stack[..., :n1], stack[..., n1:]).tolist(),
                           stack[..., :n1 if frozen else None].min(axis=(1, 2)).tolist(),
                           np.maximum(*(np.abs(h).max(axis=(1, 2)) for h in (h1, h2))).tolist()):
            for col, x in zip(outs[b][1:4], row):
                col.append(x)
        del held[:], owners[:]

    def record(now: list, t: int, k: int) -> None:
        if owners and len(owners) + len(now) > _SCORE_CHUNK:
            score()
        for b in now:
            outs[b][0].append((t, k))
            outs[b][4].append(stats[b])
        held.append((pi[now], q1[now], q2[now]))
        owners.extend(now)

    stats = _v_stats(v1, v2, v_star, frozen)
    record(list(range(B)), 0, 0)
    for t in range(T):
        for k, done in zip(stops, stops[1:]):
            steps(k, done)
            record([b for b, n in enumerate(strides) if done % n == 0 or done == K], t, done)
        for v, q, p in ((v1, q1, pi[..., :n1]), (v2, q2, pi[..., n1:])):
            v[:] = [_weighted_rows(*x) for x in zip(p.tolist(), q.tolist())]
        stats = _v_stats(v1, v2, v_star, frozen)
    record(list(range(B)), T, 0)
    score()

    return [TrajectoryRecord(
        config_echo=c.to_dict(),
        index=np.array(index, dtype=np.int64),
        series={name: np.array(col) for name, col in
                zip(VISBR_METRICS, (ng, min_pi, q_inf, *zip(*v_rows)), strict=True)},
        final_policy=JointPolicy(pi1=pi[b, :, :n1].copy(), pi2=pi[b, :, n1:].copy()),
        final_q=(q1[b].copy(), q2[b].copy()),
        final_v=(v1[b].copy(), v2[b].copy()),
        warnings=visbr_condition_warnings(c, game.gamma) + ergodicity,
    ) for b, ((index, ng, min_pi, q_inf, v_rows), c) in enumerate(zip(outs, configs))]
