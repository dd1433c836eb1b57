"""Inner-loop primitives of the stochastic-game dynamics.

Plain-float list code for the work at the visited state, on vectors of
length 2 or 3 where lists beat numpy: sampling, and the softmax target of
the q row the TD update moved (visbr steps every state's policy in numpy).
Shared by inner_step and run_visbr; matrix_dyn's batched softmax adds in
the same order, and a test pins the two softmaxes to each other bitwise.
"""

from __future__ import annotations

import math


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

