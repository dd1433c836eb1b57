"""Stateless mathematical operators.

Softmax and entropy (validated one-row cases of _core's batched
primitives), guaranteed exploration floors, one-step lookahead and minimax
Bellman operators, the exact matrix-game value (dense simplex, Bland's
rule), one policy-iteration MDP core serving the best-response oracle and
the Hoffman-Karp minimax fixed point (both certified by their Bellman
residuals), exact policy evaluation, and the ergodicity diagnostic.
Everything here is a pure function of its arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._core import _entropy, _targets
from .errors import (
    DimensionMismatch,
    MissingGamma,
    NoConvergence,
    NonFiniteInput,
    NotADistribution,
    NotErgodic,
)
from .games import JointPolicy, StochasticGame, _check_distributions, validate_joint_policy


# ---------------------------------------------------------------------------
# Softmax, entropy and exploration floors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SoftmaxParams:
    """Temperature and exploration mix for the smoothed best response."""

    tau: float
    eps_bar: float = 0.0

    def __post_init__(self):
        if not (self.tau > 0.0 and math.isfinite(self.tau)):
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
        if not (0.0 <= self.eps_bar <= 1.0):
            raise ValueError(f"eps_bar must lie in [0, 1], got {self.eps_bar}")


def softmax(q, tau: float, eps_bar: float = 0.0) -> np.ndarray:
    """Temperature-tau softmax, eps_bar-mixed with uniform, computed shift-stably.

    Returns eps_bar * uniform + (1 - eps_bar) * softmax(q / tau), the target
    of the explore variants (eps_bar = 0 gives the plain softmax). Subtracts
    the max before exponentiation, so temperatures down to 1e-4 underflow
    harmlessly instead of overflowing. Output sums to 1 with every entry
    >= eps_bar / n, and >= 1/((n-1) exp(2 max|q| / tau) + 1) at eps_bar = 0
    when that floor is representable. The one-row case of the matrix
    kernel's softmax; tau and eps_bar are checked as SoftmaxParams.
    """
    params = SoftmaxParams(tau, eps_bar)
    arr = np.asarray(q, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise DimensionMismatch(f"q must be a non-empty vector, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonFiniteInput("softmax input contains non-finite entries")
    return _targets(arr[None], params.tau, params.eps_bar, False)[0]


def entropy(mu) -> float:
    """Shannon entropy with the convention 0 log 0 = 0."""
    arr = np.asarray(mu, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise NotADistribution(f"entropy input must be a non-empty vector, got {arr.shape}")
    if not np.isfinite(arr).all() or arr.min() < 0.0:
        raise NotADistribution("entropy input has a negative or non-finite entry")
    if abs(float(arr.sum()) - 1.0) > 1e-12:
        raise NotADistribution(f"entropy input sums to {float(arr.sum())}")
    return float(_entropy(arr[None])[0])


def _softmax_floor(x: float, a_max: int) -> float:
    # 1 / ((a_max - 1) e^x + 1) in the underflow-safe form
    # e^{-x} / (e^{-x} + (a_max - 1)).
    if a_max == 1:
        return 1.0
    em = math.exp(-x)
    return em / (em + (a_max - 1))


def exploration_bound(setting: str, variant: str, params: SoftmaxParams,
                      a_max: int, gamma: float | None = None) -> float:
    """Lower bound on every policy entry maintained by the named dynamics.

    setting is "matrix" or "stochastic", variant "plain" or "explore".
    The plain stochastic bound needs gamma (MissingGamma otherwise); the
    explore stochastic bound is eps_bar / a_max and does not. For extremely
    small temperatures the true floor can fall below the smallest positive
    float; it then degrades to 0.0, which is still a valid (if vacuous)
    lower bound.
    """
    if a_max < 1:
        raise ValueError(f"a_max must be >= 1, got {a_max}")
    if setting == "matrix":
        if variant == "plain":
            value = _softmax_floor(2.0 / params.tau, a_max)
        elif variant == "explore":
            value = params.eps_bar / a_max + (1.0 - params.eps_bar) * _softmax_floor(
                2.0 / params.tau, a_max)
        else:
            raise ValueError(f"unknown variant {variant!r}")
    elif setting == "stochastic":
        if variant == "plain":
            if gamma is None:
                raise MissingGamma("the plain stochastic bound needs gamma")
            value = _softmax_floor(2.0 / ((1.0 - gamma) * params.tau), a_max)
        elif variant == "explore":
            value = params.eps_bar / a_max
        else:
            raise ValueError(f"unknown variant {variant!r}")
    else:
        raise ValueError(f"unknown setting {setting!r}")
    return float(value)


# ---------------------------------------------------------------------------
# Matrix-game value via dense simplex
# ---------------------------------------------------------------------------

class GameValue(NamedTuple):
    value: float
    maximin: np.ndarray
    minimax: np.ndarray


_PIVOT_EPS = 1e-12


def _simplex_max(A: np.ndarray, b: np.ndarray, c: np.ndarray):
    """Maximize c^T z subject to A z <= b, z >= 0, with b >= 0.

    Dense tableau simplex from the slack basis. Entering and leaving
    variables follow Bland's smallest-index rule so degenerate ties cannot
    cycle. Returns (z, y, objective) where y holds the dual multipliers of
    the rows, read off the slack columns of the final cost row.
    """
    n_rows, n_cols = A.shape
    width = n_cols + n_rows + 1
    T = np.zeros((n_rows + 1, width))
    T[:n_rows, :n_cols] = A
    T[:n_rows, n_cols:n_cols + n_rows] = np.eye(n_rows)
    T[:n_rows, -1] = b
    T[-1, :n_cols] = -c
    basis = list(range(n_cols, n_cols + n_rows))

    max_pivots = 50 * (n_rows + n_cols) + 1000  # Bland terminates; cap is defensive
    for _ in range(max_pivots):
        enter = -1
        for j in range(n_cols + n_rows):
            if T[-1, j] < -_PIVOT_EPS:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best = math.inf
        for i in range(n_rows):
            coef = T[i, enter]
            if coef > _PIVOT_EPS:
                ratio = T[i, -1] / coef
                if ratio < best - 1e-15:
                    best = ratio
                    leave = i
                elif ratio <= best + 1e-15 and leave >= 0 and basis[i] < basis[leave]:
                    leave = i
        if leave < 0:
            raise ArithmeticError("LP is unbounded; a shifted game LP never is")
        T[leave] /= T[leave, enter]
        col = T[:, enter].copy()
        col[leave] = 0.0
        T -= np.outer(col, T[leave])
        basis[leave] = enter
    else:
        raise ArithmeticError("simplex exceeded its pivot budget")

    z = np.zeros(n_cols)
    for i, var in enumerate(basis):
        if var < n_cols:
            z[var] = T[i, -1]
    y = T[-1, n_cols:n_cols + n_rows].copy()
    return z, y, float(c @ z)


def matrix_game_value(X) -> GameValue:
    """Exact value and optimal mixed strategies of the game with payoff X.

    X pays the row player, who maximizes. Solved by the standard
    normalization: shift X by 1 + max|X| so the value is positive, solve
    the bounded LP max 1^T z s.t. (X + shift) z <= 1, z >= 0, and
    renormalize. The primal solution gives the column player's minimax
    strategy and the dual multipliers give the row player's maximin one.
    """
    arr = np.asarray(X, dtype=np.float64)
    if arr.ndim != 2 or arr.size == 0:
        raise DimensionMismatch(f"X must be a non-empty matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonFiniteInput("matrix_game_value input contains non-finite entries")
    shift = 1.0 + float(np.abs(arr).max())
    shifted = arr + shift
    n, m = shifted.shape
    z, y, w = _simplex_max(shifted, np.ones(n), np.ones(m))
    if not (w > 0.0 and np.isfinite(w)):
        raise ArithmeticError(f"degenerate LP objective {w}")
    minimax = z / w
    y_sum = float(y.sum())
    if y_sum <= 0.0:
        raise ArithmeticError("simplex returned a non-positive dual vector")
    maximin = y / y_sum
    value = 1.0 / w - shift
    return GameValue(value=float(value), maximin=maximin, minimax=minimax)


# ---------------------------------------------------------------------------
# Bellman operators for stochastic games
# ---------------------------------------------------------------------------

def _check_values(game: StochasticGame, v) -> np.ndarray:
    arr = np.asarray(v, dtype=np.float64)
    if arr.shape != (game.n_states,):
        raise DimensionMismatch(
            f"v must have shape {(game.n_states,)}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonFiniteInput("value vector contains non-finite entries")
    return arr


def bellman_T(game: StochasticGame, v, player: int) -> np.ndarray:
    """One-step lookahead tensor: R_i(s,a,b) + gamma E[v(S') | s,a,b].

    Indexed (state, own action, opponent action) for the given player, so
    player 2's slice at each state is a matrix over (a2, a1).
    """
    arr = _check_values(game, v)
    expect = np.tensordot(game.transition, arr, axes=([3], [0]))  # (S, A1, A2)
    if player == 1:
        return game.R1 + game.gamma * expect
    if player == 2:
        return game.R2 + game.gamma * np.swapaxes(expect, 1, 2)
    raise ValueError(f"player must be 1 or 2, got {player}")


def minimax_bellman(game: StochasticGame, v, player: int) -> np.ndarray:
    """Per-state game value of the lookahead tensor: a gamma-contraction."""
    return np.array([matrix_game_value(X).value for X in bellman_T(game, v, player)])


def minimax_fixed_point(game: StochasticGame, player: int, tol: float = 1e-6) -> np.ndarray:
    """Fixed point v* of `player`'s minimax Bellman operator T, within tol/2.

    Hoffman-Karp iteration from the lower bound v = -max|R| / (1 - gamma).
    A round solves the matrix game of bellman_T(v) at each state, for T v and
    the player's maximin strategy sigma, and returns v once the certificate
    max|T v - v| <= tol (1 - gamma) / 2 puts it within tol/2 of v*. Else v
    becomes what sigma guarantees against the opponent's exact best response,
    scored with -R_player (so v* depends on R_player alone). v never
    decreases and the round count does not grow with 1/(1 - gamma); if v
    stops improving first, tol cannot be certified: NoConvergence.
    """
    gamma = game.gamma
    reward = -np.swapaxes(game.R1 if player == 1 else game.R2, 1, 2)  # the opponent MDP's
    bound = float(np.abs(reward).max()) / (1.0 - gamma)  # |v*| <= bound
    margin = 64 * np.finfo(np.float64).eps * (1.0 / (1.0 - gamma) + bound)
    v = np.full(game.n_states, -bound) + 0.0  # + 0.0 turns -0.0 into 0.0
    for _ in range(1000):
        solved = [matrix_game_value(X) for X in bellman_T(game, v, player)]
        residual = float(np.abs(np.array([g.value for g in solved]) - v).max())
        if residual <= tol * (1.0 - gamma) / 2.0:
            return v
        sigma = np.array([g.maximin for g in solved])
        v_next = -_solve_mdp(*_marginalize(game, 3 - player, sigma[None], reward), gamma)[0][0]
        if not float((v_next - v).max()) > margin:
            break  # v has stopped improving: tol cannot be certified
        v = v_next
    raise NoConvergence(f"minimax fixed point: Bellman residual {residual} > tol (1 - gamma) / 2")


class BestResponse(NamedTuple):
    v: np.ndarray
    policy: np.ndarray  # deterministic, one action index per state


def _marginalize(game: StochasticGame, player: int, opponent: np.ndarray, reward=None):
    """Rewards (N, S, A) (from R_player unless `reward` is given) and kernels
    (N, S, A, S) of the MDPs `player` faces against each opponent table."""
    if player == 1:
        r = np.einsum("sab,nsb->nsa", game.R1 if reward is None else reward, opponent)
        kernel = np.einsum("sabt,nsb->nsat", game.transition, opponent)
    elif player == 2:
        r = np.einsum("sba,nsa->nsb", game.R2 if reward is None else reward, opponent)
        kernel = np.einsum("sabt,nsa->nsbt", game.transition, opponent)
    else:
        raise ValueError(f"player must be 1 or 2, got {player}")
    return r, kernel


def _check_opponent(game: StochasticGame, player: int, opponent) -> np.ndarray:
    arr = np.asarray(opponent, dtype=np.float64)
    n_opp = game.n_actions_2 if player == 1 else game.n_actions_1
    if arr.shape != (game.n_states, n_opp):
        raise DimensionMismatch(
            f"opponent policy must have shape {(game.n_states, n_opp)}, got {arr.shape}")
    _check_distributions(arr, "opponent policy")
    return arr


def best_response_value(game: StochasticGame, player: int, opponent,
                        tol: float = 1e-6) -> BestResponse:
    """Optimal value against a fixed opponent policy, with a policy attaining it.

    Howard policy iteration on the MDP left by marginalizing the opponent,
    from the reward-greedy policy: each round solves (I - gamma P_act) v =
    r_act and switches a state's action only on a gain above float noise,
    so near-ties cannot cycle. The returned v passes the Bellman-residual
    certificate max|max_a(r + gamma P v) - v| <= tol (1 - gamma) / 2, which
    puts it within tol/2 of the optimum; NoConvergence otherwise.
    """
    br = _best_response(game, player, _check_opponent(game, player, opponent)[None], tol)
    return BestResponse(v=br.v[0], policy=br.policy[0])


def _best_response(game: StochasticGame, player: int, opp: np.ndarray,
                   tol: float) -> BestResponse:
    # unchecked core: (N, S) values and policies against an (N, S, n_opp) stack
    v, act, residual = _solve_mdp(*_marginalize(game, player, opp), game.gamma)
    if not (residual <= tol * (1.0 - game.gamma) / 2.0).all():
        raise NoConvergence("best-response Bellman residual exceeds tol (1 - gamma) / 2")
    return BestResponse(v=v, policy=act)


def _solve_mdp(r: np.ndarray, kernel: np.ndarray, gamma: float):
    """Howard policy iteration on a stack of MDPs (r[n, s, a], kernel[n, s, a, t]),
    each row with its own margin; a stable row stays stable, so it gets the same
    bits in any stack. Returns (N, S) optimal values and policies attaining them
    and (N,) residuals max|max_a(r + gamma P v) - v|: callers check them, run_visbr
    once per scored chunk, so a recorded row's NoConvergence surfaces there."""
    rows, states, eye = np.arange(len(r))[:, None], np.arange(r.shape[1]), np.eye(r.shape[1])
    margin = 64 * np.finfo(np.float64).eps * (1.0 + np.abs(r).max(axis=(1, 2))) / (1.0 - gamma)
    act = r.argmax(axis=2)
    for _ in range(1000):
        at = (rows, states, act)
        v = np.linalg.solve(eye - gamma * kernel[at], r[at][..., None])[..., 0]
        q = r + gamma * (kernel @ v[:, None, :, None])[..., 0]
        best, top = q.argmax(axis=2), q.max(axis=2)
        switch = top > q[at] + margin[:, None]
        if not switch.any():
            return v, act, np.abs(top - v).max(axis=1)
        act = np.where(switch, best, act)
    raise NoConvergence("policy iteration exhausted its budget")


def policy_value(game: StochasticGame, player: int, joint: JointPolicy) -> np.ndarray:
    """Exact discounted value of a fixed joint policy via a linear solve."""
    joint = validate_joint_policy(joint.pi1, joint.pi2, game)
    return _policy_value(game, player, joint.pi1[None], joint.pi2[None])[0]


def _policy_value(game: StochasticGame, player: int, pi1, pi2) -> np.ndarray:
    # unchecked core: (N, S) values of the validated (N, S, n_i) stacks pi1, pi2
    if player == 1:
        r = np.einsum("sab,nsa,nsb->ns", game.R1, pi1, pi2)
    elif player == 2:
        r = np.einsum("sba,nsb,nsa->ns", game.R2, pi2, pi1)
    else:
        raise ValueError(f"player must be 1 or 2, got {player}")
    kernel = np.einsum("sabt,nsa,nsb->nst", game.transition, pi1, pi2)
    return np.linalg.solve(np.eye(game.n_states) - game.gamma * kernel, r[..., None])[..., 0]


# ---------------------------------------------------------------------------
# Stationary distribution and ergodicity diagnostic
# ---------------------------------------------------------------------------

_EDGE_EPS = 1e-12


def _bfs_levels(adj: np.ndarray) -> list[int]:
    # breadth-first distance from state 0 along edges u -> v with adj[u, v];
    # -1 marks a state that state 0 cannot reach
    succ = [np.flatnonzero(row).tolist() for row in adj]
    level = [-1] * adj.shape[0]
    level[0] = 0
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in succ[u]:
                if level[v] < 0:
                    level[v] = level[u] + 1
                    nxt.append(v)
        frontier = nxt
    return level


def _is_irreducible(adj: np.ndarray) -> bool:
    # strongly connected iff state 0 reaches every state and every state
    # reaches state 0, i.e. state 0 reaches all on the reversed graph too
    return min(_bfs_levels(adj)) >= 0 and min(_bfs_levels(adj.T)) >= 0


def _period(adj: np.ndarray) -> int:
    # gcd of (level[u] + 1 - level[v]) over edges of a strongly connected
    # graph, with BFS levels from state 0.
    level = np.array(_bfs_levels(adj))
    us, vs = np.nonzero(adj)
    return int(np.gcd.reduce(np.abs(level[us] + 1 - level[vs])))


def stationary_distribution(game: StochasticGame, joint: JointPolicy) -> np.ndarray:
    """Stationary distribution of the chain induced by a joint policy.

    Raises NotErgodic when the chain (on edges with probability above
    1e-12) is reducible or periodic. Otherwise solves mu^T P = mu^T with
    the normalization row and checks the residual to 1e-10.
    """
    joint = validate_joint_policy(joint.pi1, joint.pi2, game)
    P = np.einsum("sabt,sa,sb->st", game.transition, joint.pi1, joint.pi2)
    adj = P > _EDGE_EPS
    if not _is_irreducible(adj):
        raise NotErgodic("induced chain is reducible")
    if _period(adj) != 1:
        raise NotErgodic("induced chain is periodic")
    n = P.shape[0]
    A = P.T - np.eye(n)
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    mu = np.linalg.solve(A, b)
    residual = float(np.abs(mu @ P - mu).max())
    if residual > 1e-10:
        raise ArithmeticError(f"stationary solve residual {residual} exceeds 1e-10")
    return mu
