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

The list kernel caches each state's softmax target: q moves only at the
visited state, so only that state's target is recomputed after a step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._core import pick_action, policy_step, smoothed_policy
from .config import VisbrConfig, visbr_condition_warnings
from .errors import BadConfig, DimensionMismatch, NotErgodic
from .games import (JointPolicy, LearnerState, StochasticGame, TrajectoryRecord,
                    check_zero_sum_game, uniform_joint_policy)
from .metrics import nash_gap_stochastic
from .ops import minimax_fixed_point, stationary_distribution

VISBR_METRICS = ("ng", "min_pi", "q_inf", "lsum", "v_inf")

# run_visbr adds the v_err column when n_states * n_actions_1 * n_actions_2
# is at most this, since it solves player 1's minimax fixed point for it
V_STAR_BUDGET = 4096


@dataclass(frozen=True, eq=False)
class VisbrState:
    """Both learners, the shared environment state, and the loop counters.

    players[i].q has shape (n_states, n_actions_i), .pi likewise, .v is the
    frozen outer value vector of shape (n_states,). Generator objects are
    carried by reference and advance in place.
    """

    players: tuple[LearnerState, LearnerState]
    s: int
    t: int
    k: int
    rngs: tuple[np.random.Generator, np.random.Generator, np.random.Generator]


def visbr_seed_sequences(seed: int):
    """Child seeds (player 1, player 2, environment).

    Player i consumes one uniform per inner step; the environment consumes
    one for the initial state and one per inner step.
    """
    ss = np.random.SeedSequence(seed)
    return tuple(ss.spawn(3))


def _setup(game: StochasticGame, config: VisbrConfig):
    # The start of every run as lists: (q1, q2, pi1, pi2, v1, v2), the
    # (player 1, player 2, environment) generators, and S0 drawn from the
    # environment stream.
    check_zero_sum_game(game, StochasticGame)
    rngs = tuple(np.random.default_rng(c) for c in visbr_seed_sequences(config.seed))
    S, n1, n2 = game.n_states, game.n_actions_1, game.n_actions_2
    lists = ([[0.0] * n1 for _ in range(S)], [[0.0] * n2 for _ in range(S)],
             [[1.0 / n1] * n1 for _ in range(S)], [[1.0 / n2] * n2 for _ in range(S)],
             [0.0] * S, [0.0] * S)
    s0 = pick_action(game.initial_dist.tolist(), rngs[2].random())
    return lists, rngs, s0


def init_visbr(game: StochasticGame, config: VisbrConfig) -> VisbrState:
    """Zero values and estimates, uniform policies, S0 drawn from initial_dist."""
    (q1, q2, pi1, pi2, v1, v2), rngs, s0 = _setup(game, config)
    players = (LearnerState(q=np.array(q1), pi=np.array(pi1), v=np.array(v1)),
               LearnerState(q=np.array(q2), pi=np.array(pi2), v=np.array(v2)))
    return VisbrState(players=players, s=s0, t=0, k=0, rngs=rngs)


def _targets(q: list, tau: float, eps: float) -> list:
    # each state's softmax target of q: the cache _advance_inner keeps
    return [smoothed_policy(row, tau, eps, False) for row in q]


def _advance_inner(q1, q2, pi1, pi2, v1, v2, tg1, tg2, s, R1, R2, P, gamma, tau,
                   eps, alpha, beta, u1, u2, ue, frozen2):
    # One inner iteration on nested-list state; shared by step and run.
    # tg_i[st] must equal _targets(q_i)[st] on entry. q moves only at s, so
    # only that state's target is recomputed, from the same q row as before,
    # which keeps every output byte. With frozen2, tg2 is unused.
    for st in range(len(pi1)):
        policy_step(pi1[st], tg1[st], beta)
        if frozen2 is None:
            policy_step(pi2[st], tg2[st], beta)
    a1 = pick_action(pi1[s], u1)
    a2 = pick_action(pi2[s] if frozen2 is None else frozen2[s], u2)
    s_next = pick_action(P[s][a1][a2], ue)
    row1 = q1[s]
    row1[a1] += alpha * (R1[s][a1][a2] + gamma * v1[s_next] - row1[a1])
    tg1[s] = smoothed_policy(row1, tau, eps, False)
    if frozen2 is None:
        row2 = q2[s]
        row2[a2] += alpha * (R2[s][a2][a1] + gamma * v2[s_next] - row2[a2])
        tg2[s] = smoothed_policy(row2, tau, eps, False)
    return a1, a2, s_next


def inner_step(state: VisbrState, game: StochasticGame, config: VisbrConfig) -> VisbrState:
    """One inner iteration: policies move at every state, play happens at s."""
    check_zero_sum_game(game, StochasticGame)
    if state.k >= config.K:
        raise BadConfig(f"inner loop is complete (k={state.k}, K={config.K}); "
                        "call outer_update")
    alpha, beta = config.schedule.rates(state.k)
    p1, p2 = state.players
    q1, q2 = p1.q.tolist(), p2.q.tolist()
    pi1, pi2 = p1.pi.tolist(), p2.pi.tolist()
    v1, v2 = p1.v.tolist(), p2.v.tolist()
    tau, eps = config.tau, config.eps_bar
    _, _, s_next = _advance_inner(
        q1, q2, pi1, pi2, v1, v2, _targets(q1, tau, eps), _targets(q2, tau, eps),
        state.s, game.R1.tolist(), game.R2.tolist(), game.transition.tolist(),
        game.gamma, tau, eps, alpha, beta,
        state.rngs[0].random(), state.rngs[1].random(), state.rngs[2].random(),
        None)
    players = (LearnerState(q=np.array(q1), pi=np.array(pi1), v=p1.v),
               LearnerState(q=np.array(q2), pi=np.array(pi2), v=p2.v))
    return VisbrState(players=players, s=s_next, t=state.t, k=state.k + 1,
                      rngs=state.rngs)


def _weighted_rows(pi: list, q: list) -> list:
    # v(s) = sum_a pi(a|s) q(s,a), accumulated in action order.
    out = []
    for pi_row, q_row in zip(pi, q):
        acc = 0.0
        for p, x in zip(pi_row, q_row):
            acc += p * x
        out.append(acc)
    return out


def outer_update(state: VisbrState, game: StochasticGame,
                 config: VisbrConfig) -> VisbrState:
    """Refresh v from the current policy and q; everything else carries over."""
    check_zero_sum_game(game, StochasticGame)
    if state.k != config.K:
        raise BadConfig(f"outer_update requires k == K ({config.K}), got k={state.k}")
    players = tuple(
        LearnerState(q=p.q, pi=p.pi,
                     v=np.array(_weighted_rows(p.pi.tolist(), p.q.tolist())))
        for p in state.players)
    return VisbrState(players=players, s=state.s, t=state.t + 1, k=0,
                      rngs=state.rngs)


def _ergodicity_warning(game: StochasticGame) -> tuple[str, ...]:
    try:
        stationary_distribution(game, uniform_joint_policy(game))
    except NotErgodic as exc:
        return (f"ergodicity diagnostic: uniform joint policy is not "
                f"irreducible+aperiodic ({exc}); a different reference policy "
                f"may still certify the mixing assumption",)
    return ()


def run_visbr(game: StochasticGame, config: VisbrConfig, *,
              frozen_pi2: np.ndarray | None = None) -> TrajectoryRecord:
    """Run T outer rounds of K inner steps and record metrics.

    Rows carry index (t, k): every stride multiple within a round, each
    round's final (t, K), the initial point (0, 0), and the final (T, 0)
    written after the last outer update. Metrics: stochastic Nash gap (best
    responses to tolerance 1e-6), min policy entry, max |q|, the zero-sum
    drift |v1+v2| sup-norm (lsum), max |v|, and the distance v_err to the
    exact minimax fixed point when n_states*n_actions_1*n_actions_2 <=
    V_STAR_BUDGET.

    frozen_pi2 pins player 2 to a fixed per-state policy: player 2 stops
    learning (its q, pi, v stay put) and min_pi / q_inf then cover player 1
    only, while ng is the gap of the joint policy actually played,
    (pi1, frozen_pi2). Used to study one-sided learning against a
    stationary opponent.
    """
    (q1, q2, pi1, pi2, v1, v2), (rng1, rng2, rng_env), s = _setup(game, config)
    S, n1, n2 = game.n_states, game.n_actions_1, game.n_actions_2
    warnings = visbr_condition_warnings(config, game.gamma) + _ergodicity_warning(game)

    frozen2 = None
    if frozen_pi2 is not None:
        arr = np.asarray(frozen_pi2, dtype=np.float64)
        if arr.shape != (S, n2):
            raise DimensionMismatch(
                f"frozen_pi2 must have shape {(S, n2)}, got {arr.shape}")
        frozen2 = arr.tolist()

    v_star = None
    if S * n1 * n2 <= V_STAR_BUDGET:  # zero-sum, so player 2's v* is -v1*
        v1_star = minimax_fixed_point(game, 1, tol=1e-6)
        v_star = (v1_star.tolist(), (-v1_star).tolist())

    total = config.T * config.K
    u1, u2, ue = (rng.random(total) for rng in (rng1, rng2, rng_env))
    P, R1, R2 = game.transition.tolist(), game.R1.tolist(), game.R2.tolist()
    gamma, tau, eps = game.gamma, config.tau, config.eps_bar
    # the targets depend on q only, which the end-of-round v update leaves
    # alone, so the caches carry across rounds
    tg1 = _targets(q1, tau, eps)
    tg2 = _targets(q2, tau, eps) if frozen2 is None else None

    metric_names = VISBR_METRICS + (("v_err",) if v_star is not None else ())
    index: list[tuple[int, int]] = []
    series: dict[str, list] = {name: [] for name in metric_names}

    def record(t: int, k: int) -> None:
        index.append((t, k))
        joint = JointPolicy(pi1=np.array(pi1),
                            pi2=np.array(pi2 if frozen2 is None else frozen2))
        series["ng"].append(nash_gap_stochastic(game, joint, tol=1e-6))
        rows = pi1 + ([] if frozen2 is not None else pi2)
        series["min_pi"].append(min(min(row) for row in rows))
        q_rows = q1 + ([] if frozen2 is not None else q2)
        series["q_inf"].append(max(max(abs(x) for x in row) for row in q_rows))
        series["lsum"].append(max(abs(a + b) for a, b in zip(v1, v2)))
        v_all = v1 + ([] if frozen2 is not None else v2)
        series["v_inf"].append(max(abs(x) for x in v_all))
        if v_star is not None:
            err1 = max(abs(a - b) for a, b in zip(v1, v_star[0]))
            err2 = max(abs(a - b) for a, b in zip(v2, v_star[1]))
            series["v_err"].append(err1 if frozen2 is not None else max(err1, err2))

    sched = config.schedule
    stride = config.record_stride
    record(0, 0)
    step = 0
    for t in range(config.T):
        for k in range(config.K):
            alpha, beta = sched.rates(k)
            _, _, s = _advance_inner(q1, q2, pi1, pi2, v1, v2, tg1, tg2, s,
                                     R1, R2, P, gamma, tau, eps, alpha, beta,
                                     u1[step], u2[step], ue[step], frozen2)
            step += 1
            done = k + 1
            if done % stride == 0 or done == config.K:
                record(t, done)
        v1 = _weighted_rows(pi1, q1)
        if frozen2 is None:
            v2 = _weighted_rows(pi2, q2)
    record(config.T, 0)

    return TrajectoryRecord(
        config_echo=config.to_dict(),
        index=np.array(index, dtype=np.int64),
        series={name: np.array(vals) for name, vals in series.items()},
        final_policy=JointPolicy(pi1=np.array(pi1), pi2=np.array(pi2)),
        final_q=(np.array(q1), np.array(q2)),
        final_v=(np.array(v1), np.array(v2)),
        warnings=warnings,
    )
