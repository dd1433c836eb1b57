"""Correctness checks on the files a sweep wrote.

Every check is counted once per file it runs on; a check that fails adds
one to `failed` and a line to `messages`. The expectations (CSV schema,
row index, iterate bounds, Nash-gap reference) are computed here from the
experiment config and the game, not read back from the program.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

MATRIX_HEADER = ["k", "ng_mean", "ng_std", "ngtau_mean", "ngtau_std", "min_pi", "q_inf"]
STOCHASTIC_HEADER = ["t", "k", "ng_mean", "ng_std", "lsum", "min_pi", "q_inf", "v_inf"]
V_STAR_BUDGET = 4096  # run_visbr records v_err when S * A1 * A2 is at most this

# tolerance of the final ng_mean against the independent reference: the
# matrix gap is exact up to summation order; the stochastic gap is exact
# here and accurate to 2 * 1e-6 in the program (value-iteration oracle)
NG_TOL = {"matrix": 1e-9, "stochastic": 1e-5}


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
        return ok

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.messages.extend(other.messages[:20 - len(self.messages)])


def sweep_points(cfg: dict) -> list[dict]:
    """Cross product of the sweep axes, in the program's documented order
    (axes sorted by name, values in list order)."""
    points = [{}]
    for axis in sorted(cfg.get("sweep", {})):
        points = [dict(p, **{axis: v}) for p in points for v in cfg["sweep"][axis]]
    return points


def total_steps(cfg: dict) -> int:
    """Dynamics steps in one sweep: matrix iterations or inner visbr steps."""
    run = cfg["run"]
    return len(sweep_points(cfg)) * cfg["n_trajectories"] * run["K"] * run.get("T", 1)


def _softmax_floor(x: float, a_max: int) -> float:
    em = math.exp(-x)
    return em / (em + (a_max - 1))


def exploration_floor(kind: str, run: dict, a_max: int, gamma: float | None) -> float:
    """Guaranteed minimum policy entry of the dynamics (paper's bounds)."""
    tau, eps = run["tau"], run.get("eps_bar", 0.0)
    if kind == "matrix":
        floor = _softmax_floor(2.0 / tau, a_max)
        return floor if run.get("variant", "plain") == "plain" else eps / a_max + (1.0 - eps) * floor
    if run.get("variant", "plain") == "explore":
        return eps / a_max
    return _softmax_floor(2.0 / ((1.0 - gamma) * tau), a_max)


def expected_index(kind: str, run: dict) -> list[tuple[int, int]]:
    K, stride = run["K"], run.get("record_stride", 1)
    ks = [k for k in range(1, K + 1) if k % stride == 0 or k == K]
    if kind == "matrix":
        return [(0, k) for k in ks]
    return [(0, 0)] + [(t, k) for t in range(run["T"]) for k in ks] + [(run["T"], 0)]


def _read_csv(path: str) -> tuple[list[str], list[list[float]]]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return lines[0].split(","), [[float(c) for c in line.split(",")] for line in lines[1:]]


def check_outputs(out_dir: str, cfg: dict, game) -> tuple[Tally, dict[str, float]]:
    """Check every CSV and the manifest; return the tally and each point's
    final ng_mean by file label."""
    tally = Tally()
    kind = cfg["kind"]
    points = sweep_points(cfg)
    labels = [f"point_{i:04d}" for i in range(len(points))]
    files = sorted(os.listdir(out_dir))
    tally.check(files == sorted([f"{lab}.csv" for lab in labels] + ["manifest.json"]),
                f"output files are {files[:5]}...")
    try:
        with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        tally.check({"config", "warnings", "game_hash", "tool_version"} <= set(manifest)
                    and manifest["config"]["base_seed"] == cfg["base_seed"],
                    "manifest lacks keys or names another base seed")
    except (OSError, ValueError, KeyError) as exc:
        tally.check(False, f"manifest unreadable: {exc}")

    a_max = max(game.n_actions_1, game.n_actions_2)
    gamma = getattr(game, "gamma", None)
    cap = 1.0 if kind == "matrix" else 1.0 / (1.0 - gamma)
    header = list(MATRIX_HEADER if kind == "matrix" else STOCHASTIC_HEADER)
    if kind == "stochastic" and game.n_states * game.n_actions_1 * game.n_actions_2 <= V_STAR_BUDGET:
        header.append("v_err")
    final_ng = {}
    for label, point in zip(labels, points):
        run = dict(cfg["run"], **point)
        path = os.path.join(out_dir, f"{label}.csv")
        try:
            cols, rows = _read_csv(path)
        except (OSError, ValueError, IndexError) as exc:
            tally.check(False, f"{label}: unreadable CSV: {exc}")
            continue
        if not tally.check(cols == header, f"{label}: header {cols}"):
            continue
        col = {name: [r[i] for r in rows] for i, name in enumerate(cols)}
        n_index = 1 if kind == "matrix" else 2
        index = [tuple(int(x) for x in r[:n_index]) for r in rows]
        if kind == "matrix":
            index = [(0, k) for (k,) in index]
        tally.check(index == expected_index(kind, run), f"{label}: row index differs")
        tally.check(all(math.isfinite(x) for r in rows for x in r), f"{label}: non-finite cell")
        floor = exploration_floor(kind, run, a_max, gamma)
        tally.check(min(col["min_pi"]) >= floor,
                    f"{label}: min_pi {min(col['min_pi'])} below bound {floor}")
        tally.check(max(col["q_inf"]) <= cap, f"{label}: q_inf above {cap}")
        if kind == "stochastic":
            tally.check(max(col["v_inf"]) <= cap, f"{label}: v_inf above {cap}")
        tally.check(min(col["ng_mean"]) >= 0.0, f"{label}: negative ng_mean")
        final_ng[label] = col["ng_mean"][-1]
    return tally, final_ng


def dir_digest(out_dir: str) -> str:
    """SHA-256 over (name, bytes) of every file in the directory, sorted."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Independent Nash-gap reference for the final policies
# ---------------------------------------------------------------------------

def _matrix_gap(R1: np.ndarray, R2: np.ndarray, pi1: np.ndarray, pi2: np.ndarray) -> float:
    x1 = R1 @ pi2
    x2 = R2 @ pi1
    return max(0.0, float(x1.max() - pi1 @ x1 + x2.max() - pi2 @ x2))


def _mdp(game, player: int, opp: np.ndarray):
    # reward (S, A) and kernel (S, A, S) of the MDP `player` faces
    if player == 1:
        return (np.einsum("sab,sb->sa", game.R1, opp),
                np.einsum("sabt,sb->sat", game.transition, opp))
    return (np.einsum("sba,sa->sb", game.R2, opp),
            np.einsum("sabt,sa->sbt", game.transition, opp))


def _policy_iteration(r: np.ndarray, P: np.ndarray, gamma: float) -> np.ndarray:
    """Optimal values of a finite discounted MDP by Howard's policy iteration."""
    S = r.shape[0]
    act = np.zeros(S, dtype=np.int64)
    eye = np.eye(S)
    for _ in range(1000):
        v = np.linalg.solve(eye - gamma * P[np.arange(S), act], r[np.arange(S), act])
        q = r + gamma * P @ v
        best = q.argmax(axis=1)
        improve = q[np.arange(S), best] > q[np.arange(S), act] + 1e-12
        if not improve.any():
            return v
        act = np.where(improve, best, act)
    raise ArithmeticError("policy iteration did not settle")


def _stochastic_gap(game, pi1: np.ndarray, pi2: np.ndarray) -> float:
    S = game.n_states
    gap = 0.0
    for player, own, opp in ((1, pi1, pi2), (2, pi2, pi1)):
        r, P = _mdp(game, player, opp)
        best = _policy_iteration(r, P, game.gamma)
        achieved = np.linalg.solve(np.eye(S) - game.gamma * np.einsum("sat,sa->st", P, own),
                                   np.einsum("sa,sa->s", r, own))
        gap += float(game.initial_dist @ best) - float(game.initial_dist @ achieved)
    return max(0.0, gap)


def check_reference(bundle, cfg: dict, game, final_ng: dict[str, float]) -> tuple[Tally, dict]:
    """Compare each point's final ng_mean in the CSV with the mean Nash gap
    of the trajectories' final policies, computed independently here."""
    tally = Tally()
    kind = cfg["kind"]
    reference = {}
    for point in bundle.points:
        gaps = []
        for rec in point.records:
            pi1, pi2 = rec.final_policy.pi1, rec.final_policy.pi2
            gaps.append(_matrix_gap(game.R1, game.R2, pi1, pi2) if kind == "matrix"
                        else _stochastic_gap(game, pi1, pi2))
        ref = float(np.mean(gaps))
        reference[point.label] = ref
        got = final_ng.get(point.label, math.nan)
        tally.check(abs(got - ref) <= NG_TOL[kind],
                    f"{point.label}: final ng_mean {got} vs reference {ref}")
    return tally, reference
