"""Float-order-sensitive primitives of both kernels and the smoothing oracles.

List code (smoothed_policy, pick_action) for the list step loop, on
vectors of length 2 or 3 where lists beat numpy, and batched code on
action-major (n, B) stacks, one vector per column, for the kernels' initial
targets, the oracles (_targets, _entropy: ops.softmax and ops.entropy are
their one-column cases) and the numpy body of metrics.matrix_gaps. Both sum
left to right and take exp and log from the C library: the list code
through math.exp and math.log, the batched code through numpy's complex
exp (_exp) and math.log (_log). Tests pin _exp to math.exp and the list and
batched softmaxes to each other bitwise.

Both kernels step in one C loop of _loops.c, which _library compiles on the
first kernel call, never at import, and loads through ctypes; _visbr_loop
binds it, and a matrix run is its one-state case with gamma = 0. The loop
draws its own uniforms, from numpy's PCG64 in C, and its own rates, so a
call stops only where its caller records. _visbr_steps is that loop on
lists: its bitwise specification, and the fallback wherever the library is
not built; its uniforms come from numpy Generators, per _UNIFORM_CHUNK
steps, and its rates from schedule.rates. The C loop keeps the bits by the
same float operations in the same order, no FMA contraction and the C
library's exp, log and sqrt, as math.exp, math.log and math.sqrt. The same
library holds the matrix-game simplex, which _lp_loop binds for
ops._game_values, with ops._simplex_max as its specification and fallback,
and the gap scorer that records matrix runs, which _gaps_loop binds for
metrics.matrix_gaps, whose numpy body is its specification and fallback.

It also seeds both kernels: _streams holds the PCG64 streams
default_rng(SeedSequence(seed).spawn(n)[i]) of a batch of seeds as 4 words
each, computed in one vectorized pass of SeedSequence's hash, and _uniforms
draws from them. _run is the one driver of both kinds of run: it groups
the configs, seeds them, binds the step loop, steps from one recording step
to the next, scores the recorded rows in chunks with its caller's gap
scorer and builds the TrajectoryRecords; a matrix run is its case with one
state, one round and no v.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
from bisect import bisect_right
from collections.abc import Sequence

import numpy as np

from .errors import NoConvergence
from .games import JointPolicy, TrajectoryRecord

# steps whose uniforms the list loop draws from each stream at once: bounds
# the memory of long runs and leaves the stream as one draw per step leaves it
_UNIFORM_CHUNK = 64

# recorded rows per gap-scorer call, or B if larger: bounds the memory held
_SCORE_CHUNK = 256


def smoothed_policy(q: list, tau: float, eps_bar: float, normalize: bool) -> list:
    """Softmax of q/tau (optionally of the l2-normalized q), eps-mixed with uniform."""
    # sums run left to right in explicit loops: the builtin sum() of floats
    # is compensated from Python 3.12 on, which would change output bytes
    if normalize:
        sq = 0.0
        for x in q:
            sq += x * x
        nrm = math.sqrt(sq)
        if nrm > 0.0:
            q = [x / nrm for x in q]
    # the exps and their total in one pass, then the mix, both as loops: on
    # 2 or 3 actions a comprehension's frame costs more than the appends
    m = max(q)
    exps = []
    tot = 0.0
    for x in q:
        e = math.exp((x - m) / tau)
        exps.append(e)
        tot += e
    out = []
    if eps_bar > 0.0:
        mix = eps_bar / len(exps)
        keep = 1.0 - eps_bar
        for e in exps:
            out.append(mix + keep * (e / tot))
    else:
        for e in exps:
            out.append(e / tot)
    return out


def pick_action(pi: list, u: float) -> int:
    """Smallest index a with u < pi[0] + ... + pi[a]; inverse-CDF sampling."""
    acc = 0.0
    last = len(pi) - 1
    for a in range(last):
        acc += pi[a]
        if u < acc:
            return a
    return last


def _visbr_steps(q1, q2, v1, v2, pi, tg, states, R1, R2, sums, tau, eps, ends, frozen,
                 normalize, gamma, streams, schedule):
    # The dynamics' step loop: the compiled loop's bitwise specification and
    # its fallback, on the arrays zsdyn_visbr_steps takes. steps(k0, k1) runs
    # steps k0..k1-1 of each trajectory b while k < ends[b]: the live
    # trajectories' policy rows move in one array expression, the same three
    # operations per entry as a loop, then list code runs at each visited
    # state; bisect_right on the partial sums counts those that u passes. A
    # frozen player 2's columns keep tg = pi. Row i*B + b of streams is
    # player i's, or at S > 1 the environment's (i = 2), of trajectory b; the
    # rows become Generators when it is bound, and those carry the streams
    # from then on: each live trajectory's uniforms come from
    # Generator.random once per _UNIFORM_CHUNK steps, the rates from
    # schedule.rates(k).
    (S, n1, _), B = R1.shape, len(states)
    R1, R2, sums = R1.tolist(), R2.tolist(), sums.tolist()
    taus, epss = tau.tolist(), eps.tolist()
    gens = [np.random.Generator(_bit_generator(row)) for row in streams]
    us = [[]] * len(gens)  # each stream's uniforms of the current chunk

    def steps(k0: int, k1: int) -> None:
        # ends is read on each call, as the compiled loop reads it
        at, qs, vs = states.tolist(), (q1.tolist(), q2.tolist()), (v1.tolist(), v2.tolist())
        last = ends.tolist()
        # the live trajectories change only at an end
        cuts = sorted({k0, k1, *(e for e in last if k0 < e < k1)})
        for lo, hi in zip(cuts, cuts[1:]):
            live = [b for b, e in enumerate(last) if e > lo]
            drawn = [i + b for i in range(0, len(gens), B) for b in live]
            for k in range(lo, hi):
                if (c := k % _UNIFORM_CHUNK) == 0:
                    for i in drawn:
                        us[i] = gens[i].random(min(_UNIFORM_CHUNK, last[i % B] - k)).tolist()
                al, be = schedule.rates(k)
                if len(live) == B:
                    np.add(pi, be * (tg - pi), out=pi)
                else:
                    pi[live] += be * (tg[live] - pi[live])
                for b in live:
                    s = at[b]
                    here, x1, x2 = pi[b, s].tolist(), qs[0][b][s], qs[1][b][s]
                    a1, a2 = pick_action(here[:n1], us[b][c]), pick_action(here[n1:], us[B + b][c])
                    at[b] = nxt = bisect_right(sums[s][a1][a2], us[2 * B + b][c]) if S > 1 else 0
                    x1[a1] += al * (R1[s][a1][a2] + gamma * vs[0][b][nxt] - x1[a1])
                    target = smoothed_policy(x1, taus[b], epss[b], normalize)
                    if not frozen:
                        x2[a2] += al * (R2[s][a2][a1] + gamma * vs[1][b][nxt] - x2[a2])
                        target += smoothed_policy(x2, taus[b], epss[b], normalize)
                    tg[b, s, :len(target)] = target
        q1[:], q2[:], states[:] = *qs, at
    return steps


def _exp(a: np.ndarray) -> np.ndarray:
    # math.exp elementwise at C speed: numpy's complex128 exp calls the C
    # library's cexp, and cexp(x + 0i) is exp(x) + 0i. The float64 np.exp has
    # its own SIMD loop, which differed from math.exp in the last bit on
    # 46,697 of 10^6 inputs on glibc 2.36 with AVX-512
    return np.exp(a.astype(np.complex128)).real


def _log(a: np.ndarray) -> np.ndarray:
    # math.log elementwise: np.log differed from it on 5,742 of 2 x 10^6
    # inputs, and numpy's complex log on 230,057 of 10^6 inputs in (0, 1), on
    # glibc 2.36 with AVX-512
    return np.fromiter(map(math.log, a.ravel().tolist()), np.float64, a.size).reshape(a.shape)


def _row_sum(a: np.ndarray) -> np.ndarray:
    # adds a's rows (axis 0) first to last, as a loop over floats adds;
    # np.sum may add pairwise from 8 entries on, which changes the last bits
    tot = 0.0 + a[0]
    for j in range(1, len(a)):
        tot += a[j]
    return tot


def _targets(q: np.ndarray, tau, eps, normalize: bool) -> np.ndarray:
    # smoothed_policy of each column of the (n, B) array q; tau and eps are
    # (B,) rows or scalars. A zero column divides by 1.0 and eps = 0 mixes
    # 0.0 + 1.0 * p, both exact no-ops; the max is exact in any order.
    if normalize:
        nrm = np.sqrt(_row_sum(q * q))
        q = q / np.where(nrm > 0.0, nrm, 1.0)
    e = _exp((q - q.max(axis=0)) / tau)
    return eps / len(q) + (1.0 - eps) * (e / _row_sum(e))


def _start(B: int, S: int, n1: int, n2: int, tau, eps, normalize: bool) -> tuple:
    # a step loop's (B, S, .) start: zero q1, q2, v1 and v2, uniform
    # policies, and as their targets the smoothed_policy of zero q, one
    # _targets call per player; both players' columns of pi and tg side by side
    pi = np.hstack((np.full(n1, 1.0 / n1), np.full(n2, 1.0 / n2)))
    tg = np.hstack([_targets(np.zeros((n, B)), tau, eps, normalize).T for n in (n1, n2)])
    return (np.zeros((B, S, n1)), np.zeros((B, S, n2)), *np.zeros((2, B, S)),
            np.tile(pi, (B, S, 1)), np.repeat(tg[:, None], S, axis=1))


def _entropy(p: np.ndarray) -> np.ndarray:
    # Shannon entropy of each column of p, 0 log 0 = 0: a p = 0 entry adds -0.0,
    # and the sum starts at 0.0, so a point mass gets 0.0, not -0.0
    return _row_sum(-(p * _log(np.where(p > 0.0, p, 1.0))))


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


_LOW64 = 2 ** 64 - 1


def _streams(seeds: Sequence[int], n: int) -> np.ndarray:
    # row i*B + b: the PCG64 stream of default_rng(SeedSequence(seeds[b]).spawn(n)[i])
    # as (state, increment), each high word first, seeded from its
    # _stream_words as numpy's pcg64_set_seed seeds it: in C where the
    # library is built, by numpy where not
    words, lib = _stream_words(seeds, n).reshape(-1, 4), _library()
    if lib is None:
        return np.array([_stream_row(np.random.PCG64(_state_words()(w))) for w in words],
                        dtype=np.uint64)
    lib.zsdyn_pcg64_seed(len(words), words.ctypes.data)
    return words


def _bit_generator(row: np.ndarray) -> np.random.PCG64:
    # a numpy PCG64 standing where the stream of a row of _streams stands
    bg = np.random.PCG64(_state_words()(row))  # any 4 words; the state is set next
    hi, lo, inc_hi, inc_lo = map(int, row)
    bg.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                "state": {"state": hi << 64 | lo, "inc": inc_hi << 64 | inc_lo}}
    return bg


def _stream_row(bg: np.random.PCG64) -> list:
    # the row of _streams standing where bg stands
    st = bg.state["state"]
    return [st["state"] >> 64, st["state"] & _LOW64, st["inc"] >> 64, st["inc"] & _LOW64]


def _uniforms(streams: np.ndarray, m: int) -> np.ndarray:
    # (len(streams), m): m draws of Generator.random from each stream, which
    # moves past them; in C where the library is built, by numpy where not
    if streams.dtype != np.uint64 or streams.shape[1:] != (4,) or not streams.flags.c_contiguous:
        raise ValueError("streams must be a C-contiguous (n, 4) uint64 array")
    lib, out = _library(), np.empty((len(streams), m))
    if lib is None:
        gens = [np.random.Generator(_bit_generator(row)) for row in streams]
        for g, row in zip(gens, out):
            row[:] = g.random(m)
        streams[:] = np.array([_stream_row(g.bit_generator) for g in gens], dtype=np.uint64)
    else:
        lib.zsdyn_uniforms(len(streams), m, streams.ctypes.data, out.ctypes.data)
    return out


# the compile command of _loops.c: no FMA contraction (gcc contracts by default
# on FMA targets such as aarch64) and no -ffast-math, so it keeps the list loops' bits
_CC = ("cc", "-O2", "-ffp-contract=off", "-fPIC", "-shared")


def _build() -> str:
    # _loops.c compiled into __pycache__ beside it, or into a private temp dir
    # where that is not writable, named by the SHA-256 of source and _CC. cc
    # runs through posix_spawnp (importing subprocess costs 0.5 MB of RSS)
    # into a temp name moved into place, so concurrent builds are safe; then
    # the objects of older sources are removed
    import hashlib
    import tempfile

    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_loops.c")
    with open(src, "rb") as f:
        key = hashlib.sha256(f.read() + " ".join(_CC).encode()).hexdigest()[:16]
    so = os.path.join(os.path.dirname(src), "__pycache__", f"_loops.{key}.so")
    if os.path.exists(so):
        return so
    try:
        os.makedirs(os.path.dirname(so), exist_ok=True)
        fd, tmp = tempfile.mkstemp(".so", dir=os.path.dirname(so))
    except OSError:  # not writable
        so = os.path.join(tempfile.mkdtemp(), os.path.basename(so))
        fd, tmp = tempfile.mkstemp(".so", dir=os.path.dirname(so))
    os.close(fd)
    try:
        if not hasattr(os, "posix_spawnp"):
            raise OSError("no posix_spawnp to run cc")
        quiet = [(os.POSIX_SPAWN_OPEN, out, os.devnull, os.O_WRONLY, 0) for out in (1, 2)]
        pid = os.posix_spawnp(_CC[0], [*_CC, "-o", tmp, src], os.environ, file_actions=quiet)
        if os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]):
            raise OSError(f"{' '.join(_CC)} failed on {src}")
        os.chmod(tmp, 0o755)  # mkstemp's 0o600 would hide it from other users
        os.replace(tmp, so)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    for name in os.listdir(os.path.dirname(so)):
        if name.startswith("_loops.") and name.endswith(".so") and name != os.path.basename(so):
            with contextlib.suppress(OSError):  # another build may have removed it
                os.remove(os.path.join(os.path.dirname(so), name))
    return so


@functools.cache
def _library():
    # the compiled loops, built on the first kernel call and never at import;
    # None wherever there is no cc, the compile fails or the object does not
    # load (each an OSError), and then both kernels run the list step loop
    import ctypes

    try:
        lib = ctypes.CDLL(_build())
    except OSError:
        return None
    i, d, p = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    lib.zsdyn_visbr_steps.argtypes = [i] * 9 + [d] * 4 + [p] * 14
    lib.zsdyn_visbr_steps.restype = None
    lib.zsdyn_pcg64_seed.argtypes, lib.zsdyn_pcg64_seed.restype = [i, p], None
    lib.zsdyn_uniforms.argtypes, lib.zsdyn_uniforms.restype = [i, i, p, p], None
    lib.zsdyn_game_lps.argtypes, lib.zsdyn_game_lps.restype = [i] * 3 + [d] + [p] * 5, i
    lib.zsdyn_matrix_gaps.argtypes, lib.zsdyn_matrix_gaps.restype = [i] * 3 + [p] * 7, None
    return lib


def _visbr_loop():
    # _visbr_steps, or the compiled loop that binds the same arguments: each
    # array checked to be C-contiguous, of its shape and of its dtype (int64
    # states and ends, uint64 streams, float64 otherwise), and held by steps,
    # so the arrays outlive their pointers
    lib = _library()
    if lib is None:
        return _visbr_steps

    def compiled_steps(q1, q2, v1, v2, pi, tg, states, R1, R2, sums, tau, eps, ends, frozen,
                       normalize, gamma, streams, schedule):
        B, (S, n1, n2) = len(states), R1.shape
        held = (q1, q2, v1, v2, pi, tg, states, streams, R1, R2, sums, tau, eps, ends)
        shapes = [(B, S, n1), (B, S, n2), (B, S), (B, S), *[(B, S, n1 + n2)] * 2, (B,),
                  ((2 + (S > 1)) * B, 4), (S, n1, n2), (S, n2, n1), (S, n1, n2, S - 1),
                  (B,), (B,), (B,)]
        dtypes = [np.float64] * 6 + [np.int64, np.uint64] + [np.float64] * 5 + [np.int64]
        for a, shape, dtype in zip(held, shapes, dtypes, strict=True):
            if a.shape != shape or a.dtype != dtype or not a.flags.c_contiguous:
                raise ValueError(f"the compiled loop needs a C-contiguous {shape} "
                                 f"{dtype.__name__} array, got {a.shape} {a.dtype}")
        args = (B, S, n1, n2, int(frozen), int(normalize), int(schedule.kind == "diminishing"),
                *map(float, (gamma, schedule.alpha, schedule.beta, schedule.h)),
                *(a.ctypes.data for a in held))
        return lambda k0, k1, held=held: lib.zsdyn_visbr_steps(k0, k1, *args)
    return compiled_steps


def _weighted_rows(pi: list, q: list) -> list:
    # v(s) = sum_a pi(a|s) q(s,a), accumulated in action order.
    out = []
    for pi_row, q_row in zip(pi, q):
        acc = 0.0
        for p, x in zip(pi_row, q_row):
            acc += p * x
        out.append(acc)
    return out


def _run(configs, tables, *, fixed2, normalize, gamma, v_star, gaps, names, warnings) -> list:
    # Both kinds of run: each config's TrajectoryRecord, in order. tables holds
    # the transition rows' partial sums (S, n1, n2, S - 1), R1 (S, n1, n2),
    # R2 (S, n2, n1) and the initial distribution; fixed2 a frozen player 2's
    # (S, n2) table or None; normalize[i] and warnings[i] are config i's.
    # Configs sharing schedule and normalize step as one group in the step
    # loop, from one recording step to the next; in round t, ends[b] is K_b
    # while t < T_b, else 0, so b sits still after its own rounds. v_star None
    # is a matrix run: one round, rows (0, k), no v. Otherwise rows (0, 0) and
    # (T, 0) join them, v = pi . q ends each round of the live trajectories,
    # and rows carry lsum, v_inf and v_err. gaps(pi, tau) scores up to
    # _SCORE_CHUNK recorded policies per call into the first columns of names
    sums, R1, R2, initial = tables
    (S, n1, n2), frozen, matrix = R1.shape, fixed2 is not None, v_star is None
    groups: dict[tuple, list[int]] = {}
    for i, c in enumerate(configs):
        groups.setdefault((c.schedule, normalize[i]), []).append(i)
    records: list = [None] * len(configs)
    for (schedule, norm), members in groups.items():
        cs, B = [configs[i] for i in members], len(members)
        Ks, strides, rounds = np.array([(c.K, c.record_stride, 1 if matrix else c.T)
                                        for c in cs], np.int64).T
        taus, epss = np.array([[c.tau for c in cs], [c.eps_bar for c in cs]], np.float64)
        # stream i*B + b is player 1's (i = 0), player 2's (i = 1) or, where
        # there are states to pick, the environment's (i = 2) of trajectory b,
        # whose first draw picks S0
        streams = _streams([c.seed for c in cs], 2 + (S > 1))
        states = np.zeros(B, dtype=np.int64)
        if S > 1:
            states[:] = [pick_action(initial.tolist(), u)
                         for u in _uniforms(streams[2 * B:], 1)[:, 0].tolist()]
        # a frozen player's target is its own table, which its policy starts
        # at. Targets depend on q only, so the cache carries across rounds
        q1, q2, v1, v2, pi, tg = _start(B, S, n1, n2, taus, epss, norm)
        if frozen:
            pi[..., n1:] = tg[..., n1:] = fixed2
        ends = np.zeros(B, np.int64)
        steps = _visbr_loop()(q1, q2, v1, v2, pi, tg, states, R1, R2, sums, taus, epss, ends,
                              frozen, norm, gamma, streams, schedule)
        due = np.zeros(Ks.max() + 1, dtype=bool)  # the steps at which some trajectory records
        for s, e in set(zip(strides.tolist(), Ks.tolist())):
            due[s:e + 1:s] = due[e] = True
        stops = np.flatnonzero(due)
        # the trajectories that record at each stop of a round they run in
        by = (Ks >= stops[:, None]) & ((stops[:, None] % strides == 0) | (Ks == stops[:, None]))
        whos = np.split(np.nonzero(by)[1], np.cumsum(np.count_nonzero(by, axis=1))[:-1])
        stops = [0, *stops.tolist()]
        rows, held, scored, stats = [], [], [], []  # stats[t]: the v columns after t rounds
        n_held = 0

        def score() -> None:
            nonlocal n_held
            p, h1, h2, t = map(np.concatenate, zip(*held))
            scored.append((*gaps(p, t), p[..., :n1 if frozen else None].min(axis=(1, 2)),
                           np.maximum(*(np.abs(h).max(axis=(1, 2)) for h in (h1, h2)))))
            held.clear()
            n_held = 0

        def record(who: np.ndarray, t: int, k: int) -> None:
            nonlocal n_held
            if n_held and n_held + len(who) > _SCORE_CHUNK:
                score()
            rows.append((t, k, who))
            held.append((pi[who], q1[who], q2[who], taus[who]))
            n_held += len(who)

        def v_stats() -> None:
            # a frozen player 2's v stays 0, so v_err then measures player 1
            # alone. Player 2's v* is -v_star, as the game is zero-sum
            err = np.abs(v1 - v_star).max(axis=1)
            if not frozen:
                err = np.maximum(err, np.abs(v2 + v_star).max(axis=1))
            stats.append((np.abs(v1 + v2).max(axis=1),
                          np.maximum(np.abs(v1), np.abs(v2)).max(axis=1), err))

        if not matrix:
            v_stats()
            record(np.arange(B), 0, 0)
        for t in range(rounds.max()):
            live = rounds > t  # a slice when all are, to spare the masks' copies
            ends[:] = np.where(live, Ks, 0)
            now, live = (whos, slice(None)) if live.all() else ([w[live[w]] for w in whos], live)
            for k, done, who in zip(stops, stops[1:], now):
                steps(k, done)
                record(who, t, done)
            if not matrix:
                for v, q, p in ((v1, q1, pi[..., :n1]), (v2, q2, pi[..., n1:])):
                    v[live] = [_weighted_rows(*x) for x in zip(p[live].tolist(), q[live].tolist())]
                v_stats()
                record(np.flatnonzero(rounds == t + 1), t + 1, 0)
        score()
        owner = np.concatenate([who for _, _, who in rows])
        index = np.repeat([(t, k) for t, k, _ in rows], [len(who) for _, _, who in rows], axis=0)
        series = [*map(np.concatenate, zip(*scored))]
        if not matrix:  # each row's v columns, of its trajectory after t rounds
            series += list(np.stack(stats)[index[:, 0], :, owner].T)
        series = np.stack(series)  # (metric, entry)
        # each trajectory's entries, in step order
        mine = np.split(np.argsort(owner, kind="stable"),
                        np.cumsum(np.bincount(owner, minlength=B))[:-1])
        # the final iterates as views, one trajectory each; a matrix run's
        # policies and q are vectors
        at = 0 if matrix else slice(None)
        pi1, pi2 = pi[:, at, :n1].copy(), pi[:, at, n1:].copy()
        for b, i in enumerate(members):
            records[i] = TrajectoryRecord(
                config_echo=configs[i].to_dict(),
                index=index[mine[b]],
                series=dict(zip(names, series.take(mine[b], axis=1), strict=True)),
                final_policy=JointPolicy(pi1=pi1[b], pi2=pi2[b]),
                final_q=(q1[b, at], q2[b, at]),
                final_v=None if matrix else (v1[b], v2[b]),
                warnings=warnings[i])
    return records


def _lp_loop():
    # solve(A, pivot_eps) -> (z, y): ops._simplex_max on each matrix of an
    # (N, n, m) stack in one call of the compiled simplex; None where not built
    lib = _library()
    if lib is None:
        return None

    def solve(A, pivot_eps):
        (N, n, m), A = A.shape, np.ascontiguousarray(A, np.float64)
        z, y = np.empty((N, m)), np.empty((N, n))
        scratch = np.empty((n + 1, m + n + 1)), np.empty(n, np.int64)  # tableau, basis
        args = (a.ctypes.data for a in (A, z, y, *scratch))
        rc = lib.zsdyn_game_lps(N, n, m, pivot_eps, *args)
        if rc == 1:
            raise ArithmeticError("LP is unbounded; a shifted game LP never is")
        if rc == 2:
            raise NoConvergence("simplex exceeded its pivot budget")
        return z, y
    return solve


def _gaps_loop():
    # score(R1, R2, pi1, pi2, tau) -> (ng, ngtau): metrics.matrix_gaps on the
    # action-major (n_i, N) stacks in one call of the compiled scorer; None
    # where not built
    lib = _library()
    if lib is None:
        return None

    def score(R1, R2, pi1, pi2, tau):
        (n1, N), n2 = pi1.shape, len(pi2)
        held = [np.ascontiguousarray(a, np.float64) for a in (R1, R2, pi1, pi2, tau)]
        shapes = [(n1, n2), (n2, n1), (n1, N), (n2, N), (N,)]
        if [a.shape for a in held] != shapes:
            raise ValueError(f"the compiled scorer needs R1, R2, pi1, pi2 and tau of shapes "
                             f"{shapes}, got {[a.shape for a in held]}")
        gaps, x = np.empty((2, N)), np.empty(max(n1, n2))  # x: the scorer's scratch
        args = (a.ctypes.data for a in (*held, gaps, x))
        lib.zsdyn_matrix_gaps(N, n1, n2, *args)
        return gaps[0], gaps[1]
    return score
