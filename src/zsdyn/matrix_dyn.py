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

Player i draws from stream i of player_seed_sequences(seed); one
vectorized pass of SeedSequence's hash seeds all 2B generators, at B=128
in 0.11-0.17x the time of 2B SeedSequences. run_visbr keeps numpy's
SeedSequence, as the pass's fixed ~0.1 ms loses at its small batches.
"""

from __future__ import annotations

import functools
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


# SeedSequence's hash (numpy/random/bit_generator.pyx, stable under NEP 19)
# on uint32 arrays, which wrap as its C words do. Hash call t xors a word with
# c[t] and multiplies it by c[t + 1]. Every constant is a numpy integer, as
# numpy < 2 turns a np.uint64 meeting a Python int into a float64.
_HASH_A, _HASH_B = (np.array([[a * pow(m, t, 2 ** 32) % 2 ** 32] for t in range(n)], np.uint32)
                    for a, m, n in ((0x43B0D7E5, 0x931E8875, 21), (0x8B51F9DD, 0x58F38DED, 9)))
_MIX_L, _MIX_R, _S16, _S32 = (*map(np.uint32, (0xCA01F9DD, 0x4973F715, 16)), np.uint64(32))


def _hashmix(v, t0, t1, c=_HASH_A):  # hash calls t0 to t1 - 1 as a column, against v
    v = (v ^ c[t0:t1]) * c[t0 + 1:t1 + 1]
    return v ^ (v >> _S16)


def _mix(x, y):
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> _S16)


def _stream_words(seeds: Sequence[int], n: int) -> np.ndarray:
    # PCG64 state words of SeedSequence(seeds[b]).spawn(n)[i] at [i, b], from the
    # seed's two words zero-padded to the pool size 4, then the spawn key i. A
    # pool word mixes into the other three at once, as it does not change meanwhile
    s = np.array(seeds, dtype=np.uint64)
    pool = _hashmix(np.stack((s, s >> _S32, *[np.zeros_like(s)] * 2)).astype(np.uint32), 0, 4)
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], 4 + 3 * src, 7 + 3 * src))
    pool = _mix(pool, _hashmix(np.arange(n, dtype=np.uint32), 16, 20).T[..., None])
    # generate_state(4, np.uint64): 8 words cycling over the pool, paired low word first
    w = _hashmix(pool[:, [0, 1, 2, 3] * 2], 0, 8, _HASH_B).astype(np.uint64)
    return (w[:, 0::2] | (w[:, 1::2] << _S32)).transpose(0, 2, 1).copy()


@functools.cache
def _state_words():
    # built on first use, so importing zsdyn does not load numpy.random
    from numpy.random.bit_generator import ISeedSequence

    class StateWords(ISeedSequence):  # hands a PCG64 its 4 state words, computed beforehand
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError(f"holds 4 uint64 state words, not {n_words} {np.dtype(dtype)}")
            return self.words

    return StateWords


def _generators(seeds: Sequence[int], n: int) -> list:
    # default_rng(SeedSequence(seeds[b]).spawn(n)[i]) as generator i*B + b
    words, g = _stream_words(seeds, n).reshape(-1, 4), _state_words()
    return [np.random.Generator(np.random.PCG64(g(w))) for w in words]


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
