"""Acceptance suite: nine end-to-end checks, one test per criterion.

Each test prints a single `acceptance N (<label>): PASS|FAIL` line (visible
under pytest -s) and then asserts. The empirical experiments freeze base
seeds so every run is reproducible bit for bit.
"""

import itertools
import json
import os
import time

import numpy as np
import pytest

from zsdyn.config import MatrixRunConfig, VisbrConfig
from zsdyn.games import (
    validate_joint_policy,
    validate_matrix_game,
    validate_stochastic_game,
)
from zsdyn.harness import (
    AggregateSeries,
    ExperimentConfig,
    rate_fit,
    run_experiment,
    trajectory_seed,
)
from zsdyn.matrix_dyn import run_matrix_dynamics
from zsdyn.metrics import (
    nash_gap_matrix,
    nash_gap_stochastic,
    regularized_nash_gap,
)
from zsdyn.ops import (
    SoftmaxParams,
    best_response_value,
    exploration_bound,
    matrix_game_value,
    minimax_bellman,
    minimax_fixed_point,
    policy_value,
)
from zsdyn.visbr import run_visbr


def report(number, label, ok):
    print(f"acceptance {number} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance {number} ({label}) failed"


def random_matrix_game(rng, n1, n2):
    return validate_matrix_game(rng.uniform(-1.0, 1.0, (n1, n2)))


def random_stochastic_game(rng, n_states, n1, n2, gamma):
    p = rng.random((n_states, n1, n2, n_states)) + 0.1
    p /= p.sum(axis=3, keepdims=True)
    r1 = rng.uniform(-0.95, 0.95, (n_states, n1, n2))
    return validate_stochastic_game(p, r1, gamma=gamma)


# the stochastic-game fixture shared by the progress and rationality tests:
# a dense random 3-state 2-action game. Low discount keeps the zero-sum
# drift floor of the outer values close to the single-round level, which is
# what the t=T vs t=1 comparison below needs; see notes on the suite design.
def progress_fixture():
    rng = np.random.default_rng(5)
    return random_stochastic_game(rng, 3, 2, 2, gamma=0.2)


PROGRESS_RUN = {
    "variant": "explore", "tau": 0.1, "eps_bar": 0.1,
    "schedule": {"kind": "constant", "alpha": 0.5, "beta": 0.005},
    "T": 20, "K": 5000, "record_stride": 5000,
}


def row_lookup(record):
    return {(int(t), int(k)): i for i, (t, k) in enumerate(record.index)}


def test_acceptance_1_smoothing_bias_grows_with_tau():
    t0 = time.perf_counter()
    taus = [0.05, 0.1, 0.2, 0.4]
    config = ExperimentConfig(
        kind="matrix", game="builtin:appF:N=5",
        run={"variant": "plain", "normalize_q_in_softmax": True,
             "schedule": {"kind": "constant", "alpha": 0.5, "beta": 0.01},
             "K": 2000, "record_stride": 1},
        n_trajectories=100, base_seed=20260819,
        sweep={"tau": taus})
    bundle = run_experiment(config)
    tails = []
    for point in bundle.points:
        ng = next(s for s in point.aggregates if s.name == "ng")
        mask = ng.index[:, 1] > 2000 - 500
        tails.append(float(ng.mean[mask].mean()))
    elapsed = time.perf_counter() - t0
    gaps = [tails[i + 1] - tails[i] for i in range(len(tails) - 1)]
    ok = all(g >= 1e-3 for g in gaps) and elapsed < 30.0
    report(1, "smoothing bias grows with tau", ok)


def test_acceptance_2_one_over_k_rate_on_matching_pennies():
    t0 = time.perf_counter()
    config = ExperimentConfig(
        kind="matrix", game="builtin:mp",
        run={"variant": "plain", "tau": 1.0,
             "schedule": {"kind": "diminishing", "alpha": 128.0,
                          "beta": 8.0, "h": 128.0},
             "K": 100_000, "record_stride": 1000},
        n_trajectories=50, base_seed=20260819)
    bundle = run_experiment(config)
    ngtau = next(s for s in bundle.points[0].aggregates if s.name == "ngtau")
    targets = np.unique(
        (np.round(np.logspace(3, 5, 21) / 1000) * 1000).astype(np.int64))
    mask = np.isin(ngtau.index[:, 1], targets)
    subset = AggregateSeries(
        name=ngtau.name, index=ngtau.index[mask], mean=ngtau.mean[mask],
        std=ngtau.std[mask], median=ngtau.median[mask], min=ngtau.min[mask],
        max=ngtau.max[mask], n=ngtau.n)
    slope = rate_fit(subset, k_min=1000)
    elapsed = time.perf_counter() - t0
    # a decade of iterations should shrink the mean regularized gap by
    # roughly 10x as well
    at_1e4 = float(ngtau.mean[ngtau.index[:, 1] == 10_000][0])
    at_1e5 = float(ngtau.mean[ngtau.index[:, 1] == 100_000][0])
    ratio = at_1e5 / at_1e4
    ok = slope <= -0.7 and (1 / 30) <= ratio <= (3 / 10) and elapsed < 120.0
    report(2, "regularized gap decays at a 1/K rate", ok)


def test_acceptance_3_boundedness_fuzz():
    rng = np.random.default_rng(314159)
    violations = 0

    def schedule(max_beta=0.9):
        if rng.random() < 0.5:
            alpha = rng.uniform(0.05, 1.0)
            beta = min(alpha, max_beta) * rng.uniform(0.05, 1.0)
            return {"kind": "constant", "alpha": float(alpha),
                    "beta": float(beta)}
        h = rng.uniform(1.0, 200.0)
        alpha = h * rng.uniform(0.2, 1.0)
        beta = alpha * rng.uniform(0.05, 1.0)
        return {"kind": "diminishing", "alpha": float(alpha),
                "beta": float(beta), "h": float(h)}

    for case in range(100):
        n1, n2 = rng.integers(2, 5, size=2)
        game = random_matrix_game(rng, int(n1), int(n2))
        variant = "plain" if case % 2 == 0 else "explore"
        eps_bar = float(rng.uniform(0.01, 1.0)) if variant == "explore" else 0.0
        tau = float(np.exp(rng.uniform(np.log(0.05), np.log(2.0))))
        cfg = MatrixRunConfig.from_dict({
            "variant": variant, "tau": tau, "eps_bar": eps_bar,
            "normalize_q_in_softmax": bool(rng.random() < 0.3),
            "schedule": schedule(),
            "K": int(rng.integers(30, 301)), "record_stride": 1,
            "seed": int(rng.integers(0, 2**63))})
        rec = run_matrix_dynamics(game, [cfg])[0]
        bound = exploration_bound("matrix", variant,
                                  SoftmaxParams(tau, eps_bar),
                                  int(max(n1, n2)))
        if (rec.metric("min_pi") < bound).any():
            violations += 1
        if (rec.metric("q_inf") > 1.0).any():
            violations += 1

    for case in range(100):
        n_states = int(rng.integers(2, 4))
        n1, n2 = rng.integers(2, 4, size=2)
        gamma = float(rng.uniform(0.2, 0.9))
        game = random_stochastic_game(rng, n_states, int(n1), int(n2), gamma)
        variant = "plain" if case % 2 == 0 else "explore"
        eps_bar = float(rng.uniform(0.01, 1.0)) if variant == "explore" else 0.0
        tau = float(np.exp(rng.uniform(np.log(0.05), np.log(2.0))))
        cfg = VisbrConfig.from_dict({
            "variant": variant, "tau": tau, "eps_bar": eps_bar,
            "schedule": schedule(),
            "T": int(rng.integers(2, 5)), "K": int(rng.integers(40, 151)),
            "record_stride": 1, "seed": int(rng.integers(0, 2**63))})
        [rec] = run_visbr(game, [cfg])
        bound = exploration_bound("stochastic", variant,
                                  SoftmaxParams(tau, eps_bar),
                                  int(max(n1, n2)), gamma=gamma)
        cap = 1.0 / (1.0 - gamma)
        if (rec.metric("min_pi") < bound).any():
            violations += 1
        if (rec.metric("q_inf") > cap).any():
            violations += 1
        if (rec.metric("v_inf") > cap).any():
            violations += 1

    report(3, "iterate bounds hold across 200 fuzzed runs", violations == 0)


def test_acceptance_4_contraction_and_fixed_point():
    rng = np.random.default_rng(2718)
    worst_defect = 0.0
    worst_sum = 0.0
    for _ in range(100):
        n_states = int(rng.integers(1, 5))
        n1, n2 = rng.integers(2, 4, size=2)
        gamma = float(rng.uniform(0.2, 0.9))
        game = random_stochastic_game(rng, n_states, int(n1), int(n2), gamma)
        span = 1.0 / (1.0 - gamma)
        for _ in range(3):
            v = rng.uniform(-span, span, n_states)
            w = rng.uniform(-span, span, n_states)
            lhs = np.abs(minimax_bellman(game, v, 1)
                         - minimax_bellman(game, w, 1)).max()
            defect = lhs - gamma * np.abs(v - w).max()
            worst_defect = max(worst_defect, float(defect))
        v1 = minimax_fixed_point(game, 1)
        v2 = minimax_fixed_point(game, 2)
        worst_sum = max(worst_sum, float(np.abs(v1 + v2).max()))
    ok = worst_defect <= 1e-9 and worst_sum <= 1e-6
    report(4, "Bellman contraction and value cancellation", ok)


def simplex_grid(n_actions, step=0.01):
    ticks = int(round(1.0 / step))
    if n_actions == 2:
        i = np.arange(ticks + 1)
        return np.stack([i, ticks - i], axis=1) / ticks
    points = [(i, j, ticks - i - j)
              for i in range(ticks + 1) for j in range(ticks + 1 - i)]
    return np.asarray(points, dtype=np.float64) / ticks


def test_acceptance_5_oracle_equivalence():
    rng = np.random.default_rng(577215)
    worst = 0.0
    for n in (2, 3):
        grid = simplex_grid(n)
        for _ in range(25):
            X = rng.uniform(-1.0, 1.0, (n, n))
            value = matrix_game_value(X).value
            maximin_grid = (grid @ X).min(axis=1).max()
            minimax_grid = (X @ grid.T).max(axis=0).min()
            worst = max(worst, abs(value - maximin_grid),
                        abs(value - minimax_grid))
    grid_ok = worst <= 0.02

    worst_ng = 0.0
    det = [np.eye(2)[list(c)] for c in itertools.product(range(2), repeat=2)]
    for _ in range(25):
        game = random_stochastic_game(rng, 2, 2, 2,
                                      float(rng.uniform(0.2, 0.9)))
        pi1 = rng.dirichlet(np.ones(2), size=2)
        pi2 = rng.dirichlet(np.ones(2), size=2)
        joint = validate_joint_policy(pi1, pi2, game)
        p0 = game.initial_dist
        enum = 0.0
        for player, mine, other in ((1, pi1, pi2), (2, pi2, pi1)):
            incumbent = float(p0 @ policy_value(game, player, joint))
            best = -np.inf
            for d in det:
                pair = (d, other) if player == 1 else (other, d)
                dev = validate_joint_policy(pair[0], pair[1], game)
                best = max(best, float(p0 @ policy_value(game, player, dev)))
            enum += best - incumbent
        got = nash_gap_stochastic(game, joint, tol=1e-6)
        worst_ng = max(worst_ng, abs(got - enum))
    enum_ok = worst_ng <= 2e-6

    report(5, "exact solvers agree with brute force", grid_ok and enum_ok)


def test_acceptance_6_visbr_progress():
    t0 = time.perf_counter()
    game = progress_fixture()
    ng0, ngT, lsum1, lsumT = [], [], [], []
    all_warnings = set()
    cfgs = [VisbrConfig.from_dict(dict(PROGRESS_RUN, seed=trajectory_seed(4242, {}, j)))
            for j in range(20)]
    for rec in run_visbr(game, cfgs):
        all_warnings.update(rec.warnings)
        rows = row_lookup(rec)
        ng = rec.metric("ng")
        lsum = rec.metric("lsum")
        ng0.append(ng[rows[(0, 0)]])
        ngT.append(ng[rows[(20, 0)]])
        lsum1.append(lsum[rows[(1, 5000)]])
        lsumT.append(lsum[rows[(20, 0)]])
    elapsed = time.perf_counter() - t0
    gap_halved = np.median(ngT) <= 0.5 * np.median(ng0)
    drift_settled = np.median(lsumT) <= np.median(lsum1)
    ok = (gap_halved and drift_settled and elapsed < 180.0
          and not all_warnings)
    report(6, "learning halves the gap and the value drift settles", ok)


def test_acceptance_7_rationality_against_frozen_opponent():
    game = progress_fixture()
    rng = np.random.default_rng(77)
    frozen = rng.random((3, 2)) + 0.05
    frozen /= frozen.sum(axis=1, keepdims=True)
    best = float(game.initial_dist
                 @ best_response_value(game, 1, frozen, tol=1e-8).v)
    gaps = []
    cfgs = [VisbrConfig.from_dict(dict(PROGRESS_RUN, seed=trajectory_seed(612, {}, j)))
            for j in range(20)]
    for rec in run_visbr(game, cfgs, frozen_pi2=frozen):
        joint = validate_joint_policy(rec.final_policy.pi1, frozen, game)
        got = float(game.initial_dist @ policy_value(game, 1, joint))
        gaps.append(best - got)
    ok = float(np.median(gaps)) <= 0.1
    report(7, "learner approaches the best response", ok)


def test_acceptance_8_smoothing_bias_inequality():
    rng = np.random.default_rng(161803)
    worst_slack = np.inf
    for _ in range(1000):
        n1, n2 = rng.integers(2, 5, size=2)
        game = random_matrix_game(rng, int(n1), int(n2))
        joint = validate_joint_policy(rng.dirichlet(np.ones(n1)),
                                      rng.dirichlet(np.ones(n2)), game)
        tau = float(np.exp(rng.uniform(np.log(0.01), np.log(4.0))))
        ng = nash_gap_matrix(game, joint)
        ngtau = regularized_nash_gap(game, joint, tau)
        bound = ngtau + 2.0 * tau * np.log(max(n1, n2))
        worst_slack = min(worst_slack, bound - ng)
    report(8, "gap bounded by regularized gap plus bias", worst_slack >= -1e-9)


def test_acceptance_9_reruns_are_byte_identical(tmp_path):
    sg_doc = {
        "type": "stochastic",
        "transition": [[[[1.0], [1.0]], [[1.0], [1.0]]]],
        "R1": [[[0.9, -0.9], [-0.9, 0.9]]],
        "gamma": 0.5,
    }
    configs = [
        ExperimentConfig(
            kind="matrix", game="builtin:rps",
            run={"variant": "explore", "tau": 0.3, "eps_bar": 0.3,
                 "schedule": {"kind": "constant", "alpha": 0.5, "beta": 0.1},
                 "K": 60, "record_stride": 20},
            n_trajectories=3, base_seed=98,
            sweep={"tau": [0.2, 0.5]}, out_dir=str(tmp_path / "m")),
        ExperimentConfig(
            kind="stochastic", game=sg_doc,
            run={"variant": "explore", "tau": 0.2, "eps_bar": 0.2,
                 "schedule": {"kind": "constant", "alpha": 0.5, "beta": 0.05},
                 "T": 2, "K": 30, "record_stride": 10},
            n_trajectories=3, base_seed=99, out_dir=str(tmp_path / "s")),
    ]
    identical = True
    for config in configs:
        run_experiment(config)
        out = config.out_dir
        first = {name: open(os.path.join(out, name), "rb").read()
                 for name in sorted(os.listdir(out))}
        run_experiment(config, force=True)
        second = {name: open(os.path.join(out, name), "rb").read()
                  for name in sorted(os.listdir(out))}
        if first != second or "manifest.json" not in first:
            identical = False
    report(9, "identical configs reproduce outputs byte for byte", identical)
