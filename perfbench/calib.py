"""Machine-speed calibration.

On a shared machine the speed available to one process drifts: on a
shared 2-vCPU VM, back-to-back identical runs differed by up to 1.8x
while CPU time tracked wall time, so the drift is the machine, not the
scheduler. The benchmark therefore times a fixed
calibration block next to every measured interval and scales the
interval's wall time by CAL_REF_S / (block time), i.e. reports it in
seconds of a machine on which one block takes CAL_REF_S.

The block mixes the two kinds of work the program does: scalar float
code on Python lists (the dynamics kernels) and many numpy calls on tiny
arrays (the oracles). It is frozen: editing it, or CAL_REF_S, changes the
meaning of every reported time, so a change to it is a re-baseline.
"""

from __future__ import annotations

import math
import time

import numpy as np

# about the fastest block time on the reference machine (shared 2-vCPU
# VM, OpenBLAS pinned to one thread); the scale only sets the unit
CAL_REF_S = 0.025

_A = np.random.default_rng(0).random((4, 3, 4))
_A /= _A.sum(axis=2, keepdims=True)
_R = np.random.default_rng(1).uniform(-1.0, 1.0, (4, 3))
_M = np.eye(4) - 0.5 * _A[:, 0, :]


def _scalar_part(n: int = 10000) -> float:
    q = [0.1, -0.2, 0.3]
    pi = [1.0 / 3.0] * 3
    for k in range(n):
        m = max(q)
        e = [math.exp((x - m) / 0.1) for x in q]
        tot = sum(e)
        for a in range(3):
            pi[a] += 0.01 * (e[a] / tot - pi[a])
        j = k % 3
        q[j] += 0.5 * (0.3 - q[j])
    return pi[0]


def _array_part(n: int = 1000) -> float:
    v = np.zeros(4)
    acc = 0.0
    for _ in range(n):
        q = _R + 0.9 * np.tensordot(_A, v, axes=([2], [0]))
        v_next = q.max(axis=1)
        acc += float(np.abs(v_next - v).max())
        v = v_next
    acc += float(np.linalg.solve(_M, _R[:, 0]).sum())
    return acc


def block() -> float:
    """Wall time of one calibration block."""
    t0 = time.perf_counter()
    _scalar_part()
    _array_part()
    return time.perf_counter() - t0


def measure(n_blocks: int) -> float:
    """Mean wall time per block over n_blocks consecutive blocks."""
    return sum(block() for _ in range(max(1, n_blocks))) / max(1, n_blocks)
