"""Float-order-sensitive primitives of both kernels and the smoothing oracles.

List code for the stochastic kernel's work at the visited state, on vectors
of length 2 or 3 where lists beat numpy (sampling, smoothed_policy), and
batched code on action-major (n, B) stacks, one vector per column, for the
matrix kernel, the stochastic kernel's initial targets, the matrix gaps and
the oracles (_targets, _entropy: ops.softmax and ops.entropy are their
one-column cases); an operation over actions is n contiguous vector ops.
Both sum left to right and take exp and log from the C library: the list
code through math.exp and math.log, the batched code through numpy's
complex exp (_exp) and math.log (_log). Tests pin _exp to math.exp and the
list and batched softmaxes to each other bitwise.
"""

from __future__ import annotations

import math

import numpy as np


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
    m = max(q)
    exps = [math.exp((x - m) / tau) for x in q]
    tot = 0.0
    for e in exps:
        tot += e
    if eps_bar > 0.0:
        mix = eps_bar / len(exps)
        keep = 1.0 - eps_bar
        return [mix + keep * (e / tot) for e in exps]
    return [e / tot for e in exps]


def pick_action(pi: list, u: float) -> int:
    """Smallest index a with u < pi[0] + ... + pi[a]; inverse-CDF sampling."""
    acc = 0.0
    last = len(pi) - 1
    for a in range(last):
        acc += pi[a]
        if u < acc:
            return a
    return last


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


def _entropy(p: np.ndarray) -> np.ndarray:
    # Shannon entropy of each column of p, 0 log 0 = 0: a p = 0 entry adds -0.0,
    # and the sum starts at 0.0, so a point mass gets 0.0, not -0.0
    return _row_sum(-(p * _log(np.where(p > 0.0, p, 1.0))))
