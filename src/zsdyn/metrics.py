"""Equilibrium-quality measures.

Nash gap and its entropy-regularized version for matrix games, the
generalized two-matrix diagnostic, the Nash-distribution (quantal response)
fixed point, and the Nash gap for stochastic games. The entropy-regularized
inner maximum is evaluated in closed form,

    max_mu (mu^T x + tau nu(mu)) = tau * logsumexp(x / tau),

attained at the softmax of x, rather than by numerical optimization over
the simplex.

The module also carries batched forms for the recording loops: both
matrix-game gaps for (B, n) policy arrays, and the stochastic gap for
(N, S, n_i) stacks of policy tables. A row's gaps are the same bits in any
batch, and the public gap functions are the one-row cases. The softmax,
entropy, the C library's exp and log, and left-to-right sums come from
_core, so the Nash distribution's softmax reply is the matrix kernel's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._core import _entropy, _exp, _log, _row_sum, _targets
from .errors import DimensionMismatch, NoConvergence, NonFiniteInput, NotZeroSum
from .games import (JointPolicy, MatrixGame, StochasticGame, _check_distributions,
                    validate_joint_policy)
from .ops import SoftmaxParams, _best_response, _policy_value


def nash_gap_matrix(game: MatrixGame, joint: JointPolicy) -> float:
    """Sum over players of the best pure-deviation improvement.

    Zero exactly at a Nash equilibrium; tiny negative float residue is
    clamped to zero. The one-row case of matrix_gaps.
    """
    joint = validate_joint_policy(joint.pi1, joint.pi2, game)
    # tau enters only the regularized gap, which is dropped
    return float(matrix_gaps(game.R1, game.R2, joint.pi1[None], joint.pi2[None],
                             np.ones(1))[0][0])


def regularized_nash_gap(game: MatrixGame, joint: JointPolicy, tau: float) -> float:
    """Entropy-regularized Nash gap; zero exactly at the Nash distribution."""
    joint = validate_joint_policy(joint.pi1, joint.pi2, game)
    return generalized_gap_vx(game.R1, game.R2, joint, tau)


def generalized_gap_vx(X1, X2, joint: JointPolicy, tau: float) -> float:
    """Regularized-gap diagnostic for an arbitrary matrix pair.

    X1 and X2 need not be antisymmetric counterparts of each other; with
    X2 = -X1^T this coincides with regularized_nash_gap on that game. Also
    serves as the per-state inner-loop policy diagnostic. The one-row case
    of matrix_gaps. The matrices must be finite (NonFiniteInput) and the
    policies distributions (NotADistribution): for distributions each
    player's term is >= 0 by Gibbs' inequality, so the clamp to zero only
    removes float residue.
    """
    a1 = np.asarray(X1, dtype=np.float64)
    a2 = np.asarray(X2, dtype=np.float64)
    if a1.ndim != 2 or a2.ndim != 2 or a2.shape != (a1.shape[1], a1.shape[0]):
        raise DimensionMismatch(
            f"X1 and X2 must be transposed-compatible matrices, got {a1.shape}, {a2.shape}")
    SoftmaxParams(tau)  # checks tau
    pi1 = np.asarray(joint.pi1, dtype=np.float64)
    pi2 = np.asarray(joint.pi2, dtype=np.float64)
    if pi1.shape != (a1.shape[0],) or pi2.shape != (a1.shape[1],):
        raise DimensionMismatch("policy shapes do not match the matrices")
    if not (np.isfinite(a1).all() and np.isfinite(a2).all()):
        raise NonFiniteInput("generalized_gap_vx matrices contain non-finite entries")
    _check_distributions(pi1, "pi1")
    _check_distributions(pi2, "pi2")
    return float(matrix_gaps(a1, a2, pi1[None], pi2[None], np.array([tau]))[1][0])


# ---------------------------------------------------------------------------
# Nash distribution (quantal response fixed point)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NashDistribution:
    """The unique joint policy with each side a softmax reply to the other."""

    joint: JointPolicy
    residual: float


def nash_distribution(game: MatrixGame, tau: float, tol: float = 1e-10,
                      damping: float = 0.5, max_iters: int = 100_000) -> NashDistribution:
    """Damped simultaneous fixed-point iteration for the Nash distribution.

    pi^i <- (1 - eta) pi^i + eta softmax(R_i pi^{-i} / tau), from uniform.
    The iteration is not globally contractive for small tau, so on
    NoConvergence the damping is halved down to 1/256 (from the default,
    up to eight rounds of max_iters iterations) before the error surfaces.
    """
    if not game.zero_sum:
        raise NotZeroSum("nash_distribution requires a zero-sum game")
    SoftmaxParams(tau)  # checks tau
    if not (0.0 < damping <= 1.0):
        raise ValueError(f"damping must lie in (0, 1], got {damping}")
    if not (tol >= 0.0 and max_iters >= 1):
        raise ValueError(f"need tol >= 0 and max_iters >= 1, got {tol}, {max_iters}")
    eta = damping
    while True:
        pi = [np.full(n, 1.0 / n) for n in (game.n_actions_1, game.n_actions_2)]
        for _ in range(max_iters):
            # each player's payoff vector x = R_i pi^{-i} as matrix_gaps computes
            # it, and its softmax reply, serve the residual and the step
            targets = [_targets(_row_sum(R * opp)[None], tau, 0.0, False)[0]
                       for R, opp in ((game.R1, pi[1]), (game.R2, pi[0]))]
            residual = max(float(np.abs(p - t).max()) for p, t in zip(pi, targets))
            if residual <= tol:
                joint = validate_joint_policy(*(p / p.sum() for p in pi), game)
                return NashDistribution(joint=joint, residual=residual)
            pi = [(1.0 - eta) * p + eta * t for p, t in zip(pi, targets)]
        if eta <= 1.0 / 256.0 + 1e-15:
            raise NoConvergence(
                f"Nash-distribution iteration missed tol={tol} within {max_iters} "
                f"iterations even at damping {eta}")
        eta = eta / 2.0


# ---------------------------------------------------------------------------
# Stochastic-game Nash gap
# ---------------------------------------------------------------------------

def nash_gap_stochastic(game: StochasticGame, joint: JointPolicy,
                        tol: float = 1e-6) -> float:
    """Sum over players of best-response minus achieved utility under p_o.

    Best responses come from the policy-iteration oracle, whose values pass
    a Bellman-residual certificate that puts each within tol/2 of the
    optimum; achieved values come from an exact linear solve. The result is
    therefore correct to tol and is clamped to zero from below. It is the
    one-row case of stochastic_gaps, which run_visbr calls per chunk of
    recorded rows, so there a row's error surfaces when its chunk is scored.
    """
    joint = validate_joint_policy(joint.pi1, joint.pi2, game)
    return float(stochastic_gaps(game, joint.pi1[None], joint.pi2[None], tol)[0])


def stochastic_gaps(game: StochasticGame, pi1, pi2, tol: float = 1e-6) -> np.ndarray:
    """nash_gap_stochastic, to the same bits, of each (pi1[n], pi2[n]) of two
    (N, n_states, n_actions_i) stacks. One pass per player checks every table
    ("row n, s" names a bad one); NoConvergence if any row's certificate fails."""
    a1, a2 = (np.asarray(p, dtype=np.float64) for p in (pi1, pi2))
    if a1.shape[1:] != game.R1.shape[:2] or a2.shape != a1.shape[:1] + game.R2.shape[:2]:
        raise DimensionMismatch(f"policy stacks {a1.shape}, {a2.shape} do not fit the game")
    _check_distributions(a1, "pi1")
    _check_distributions(a2, "pi2")
    # a (1, S) @ (S, 1) product per row is p_o @ v's dot; a batched V @ p_o is not
    d, gap = game.initial_dist[:, None], 0.0
    for player, opponent in ((1, a2), (2, a1)):
        br = _best_response(game, player, opponent, tol).v
        achieved = _policy_value(game, player, a1, a2)
        gap = gap + ((br[:, None] @ d)[:, 0, 0] - (achieved[:, None] @ d)[:, 0, 0])
    return np.where(gap > 0.0, gap, 0.0)


# ---------------------------------------------------------------------------
# Batched form for the recording loop
# ---------------------------------------------------------------------------

def matrix_gaps(R1: np.ndarray, R2: np.ndarray, pi1: np.ndarray, pi2: np.ndarray,
                tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(nash_gap_matrix, regularized_nash_gap) for a batch of joint policies.

    pi1 and pi2 hold one policy per row and tau one temperature per row.
    Each player's payoff vector x = R_i pi^{-i}, its max and pi^i . x are
    computed once and shared by both gaps: the plain gap uses max(x), the
    regularized one tau * logsumexp(x / tau) and the entropy of pi^i. No
    result depends on the other rows of the batch.
    """
    ng = ngtau = 0.0
    for R, own, opp in ((R1, pi1, pi2), (R2, pi2, pi1)):
        x = _row_sum(R * opp[:, None, :])
        m = x.max(axis=1)
        total = _row_sum(_exp((x - m[:, None]) / tau[:, None]))
        ach = _row_sum(own * x)
        ng += m - ach
        ngtau += m + tau * _log(total) - ach - tau * _entropy(own)
    return np.where(ng > 0.0, ng, 0.0), np.where(ngtau > 0.0, ngtau, 0.0)
