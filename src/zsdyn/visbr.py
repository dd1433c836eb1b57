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

run_visbr checks the game and frozen_pi2, builds v*, the transition rows'
partial sums and the warnings once per call, and calls _core._run, the
driver that run_matrix_dynamics calls too. Configs that share the
schedule, and so every step's rates, step as one group of (B, S, .) arrays
in the C loop of _loops.c, from one step at which some trajectory records
to the next; each trajectory runs its own K steps in each of its own T
rounds, then sits still. tg caches each state's softmax target of q, both
players' columns beside each other in pi and tg. A step moves every state
by pi += beta (tg - pi), samples at the visited state, picks the next state
by counting the transition row's partial sums, TD-updates q there and
rewrites that state's target: q moves only there. A frozen player 2's
columns of pi and tg start equal, so they stay put, while its q and v stay
0. Recorded rows are scored with metrics.stochastic_gaps.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ._core import _run
from .config import VisbrConfig, visbr_condition_warnings
from .errors import DimensionMismatch, NotErgodic
from .games import (StochasticGame, TrajectoryRecord, _check_distributions,
                    check_zero_sum_game, uniform_joint_policy)
from .metrics import stochastic_gaps
from .ops import minimax_fixed_point, stationary_distribution

VISBR_METRICS = ("ng", "min_pi", "q_inf", "lsum", "v_inf", "v_err")


def visbr_seed_sequences(seed: int):
    """Child seeds (player 1, player 2, environment).

    Player i consumes one uniform per inner step; the environment consumes
    one for the initial state and one per inner step, and none in a
    one-state game, where it has no state to pick.
    """
    ss = np.random.SeedSequence(seed)
    return tuple(ss.spawn(3))


def _ergodicity_warning(game: StochasticGame) -> tuple[str, ...]:
    try:
        stationary_distribution(game, uniform_joint_policy(game))
    except NotErgodic as exc:
        return (f"ergodicity diagnostic: uniform joint policy is not "
                f"irreducible+aperiodic ({exc}); a different reference policy "
                f"may still certify the mixing assumption",)
    return ()


def run_visbr(game: StochasticGame, configs: Sequence[VisbrConfig], *,
              frozen_pi2: np.ndarray | None = None) -> list[TrajectoryRecord]:
    """Run T outer rounds of K inner steps per config; one record each, in order.

    The game and frozen_pi2 checks, the ergodicity warning, v* and the
    transition rows' partial sums are built once per call. Configs that
    share the schedule step as one group, each to its own K and T; a
    trajectory's iterates depend on its own config only, so a record is the
    same whichever configs share its call.
    Rows carry index (t, k): every stride multiple within a round, each
    round's final (t, K), the initial point (0, 0), and the final (T, 0)
    written after the last outer update. The iterates do not depend on T,
    so a config with T=t records the first rows of the same config with a
    larger T, then its own final (t, 0). Metrics: stochastic Nash gap (best
    responses to tolerance 1e-6), min policy entry, max |q|, the zero-sum
    drift |v1+v2| sup-norm (lsum), max |v|, and the distance v_err to the
    exact minimax fixed point, recorded on every game. ng, min_pi and q_inf
    are taken per _core._SCORE_CHUNK rows of a group (same bytes), so a
    row's NoConvergence or NotADistribution surfaces at that scoring.

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
    tables = (np.cumsum(game.transition[..., :-1], axis=-1),
              *(np.ascontiguousarray(R, dtype=np.float64) for R in (game.R1, game.R2)),
              game.initial_dist)
    return _run(configs, tables, fixed2=fixed2, normalize=[False] * len(configs),
                gamma=game.gamma, v_star=v_star,
                gaps=lambda pi, tau: (stochastic_gaps(game, pi[..., :n1], pi[..., n1:]),),
                names=VISBR_METRICS,
                warnings=[visbr_condition_warnings(c, game.gamma) + ergodicity for c in configs])
