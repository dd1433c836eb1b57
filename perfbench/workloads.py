"""Workload definitions: seed -> (game documents, experiment config dict).

Every workload has a fixed shape (grid size, trajectories, K, T, game size)
so that the amount of work does not depend on the seed; the seed only picks
the base seed, the swept values and, for stochastic games, the game itself.
"""

from __future__ import annotations

import numpy as np

NAMES = ("matrix-sweep", "matrix-grid", "sg-long", "sg-record")


def _dense_game(rng: np.random.Generator, n_states: int, n1: int, n2: int,
                gamma: float) -> dict:
    # every transition has probability >= 0.05 / (n_states * 1.05), so the
    # chain is irreducible and aperiodic under any joint policy
    p = rng.random((n_states, n1, n2, n_states)) + 0.05
    p /= p.sum(axis=3, keepdims=True)
    r1 = rng.uniform(-0.95, 0.95, (n_states, n1, n2))
    return {"type": "stochastic", "transition": p.tolist(), "R1": r1.tolist(),
            "gamma": gamma}


def build(name: str, seed: int) -> tuple[dict | None, dict]:
    """Return (stochastic game document or None, experiment config dict).

    The config's "game" field is left for the caller to fill when a game
    document is returned, because it names the file the document goes to.
    """
    rng = np.random.default_rng([seed, NAMES.index(name)])
    base_seed = int(rng.integers(0, 2 ** 63))
    if name == "matrix-sweep":
        taus = [round(t * float(np.exp(rng.uniform(-0.1, 0.1))), 6)
                for t in (0.05, 0.1, 0.2, 0.4)]
        return None, {
            "kind": "matrix", "game": "builtin:appF:N=5",
            "run": {"variant": "plain", "normalize_q_in_softmax": True,
                    "schedule": {"kind": "constant", "alpha": 0.5, "beta": 0.01},
                    "K": 600, "record_stride": 25},
            "n_trajectories": 20, "base_seed": base_seed,
            "sweep": {"tau": taus}}
    if name == "matrix-grid":
        eps = sorted(round(float(x), 6) for x in rng.uniform(0.02, 0.9, 16))
        taus = sorted(round(float(x), 6)
                      for x in np.exp(rng.uniform(np.log(0.05), 0.0, 16)))
        return None, {
            "kind": "matrix", "game": "builtin:rps",
            "run": {"variant": "explore",
                    "schedule": {"kind": "constant", "alpha": 0.5, "beta": 0.05},
                    "K": 20, "record_stride": 1},
            "n_trajectories": 2, "base_seed": base_seed,
            "sweep": {"eps_bar": eps, "tau": taus}}
    if name == "sg-long":
        tau = round(float(rng.uniform(0.08, 0.12)), 6)
        return _dense_game(rng, 20, 3, 3, 0.9), {
            "kind": "stochastic",
            "run": {"variant": "explore", "tau": tau, "eps_bar": tau,
                    "schedule": {"kind": "constant", "alpha": 0.5, "beta": 0.005},
                    "T": 4, "K": 1500, "record_stride": 1500},
            "n_trajectories": 2, "base_seed": base_seed}
    if name == "sg-record":
        tau = round(float(rng.uniform(0.08, 0.12)), 6)
        return _dense_game(rng, 3, 2, 2, 0.9), {
            "kind": "stochastic",
            "run": {"variant": "explore", "tau": tau, "eps_bar": tau,
                    "schedule": {"kind": "constant", "alpha": 0.5, "beta": 0.005},
                    "T": 2, "K": 40, "record_stride": 1},
            "n_trajectories": 2, "base_seed": base_seed}
    raise ValueError(f"unknown workload {name!r}")
