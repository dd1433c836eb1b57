"""Inner-loop primitives of the stochastic-game dynamics.

Plain-float list code for one trajectory's millions of tiny updates on
vectors of length 2 or 3, where lists beat numpy arrays. inner_step and
run_visbr share these functions, so a run is bitwise-identical to
iterating steps; matrix_dyn's batched kernel adds in the same order.
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
    probs = [e / tot for e in exps]
    if eps_bar > 0.0:
        n = len(probs)
        mix = eps_bar / n
        keep = 1.0 - eps_bar
        probs = [mix + keep * p for p in probs]
    return probs


def pick_action(pi: list, u: float) -> int:
    """Smallest index a with u < pi[0] + ... + pi[a]; inverse-CDF sampling."""
    acc = 0.0
    last = len(pi) - 1
    for a in range(last):
        acc += pi[a]
        if u < acc:
            return a
    return last


def policy_step(pi: list, target: list, beta: float) -> None:
    """In place: pi += beta (target - pi). beta <= 1 keeps pi a distribution."""
    for a in range(len(pi)):
        pi[a] += beta * (target[a] - pi[a])
