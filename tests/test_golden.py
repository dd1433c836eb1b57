"""Golden digests: SHA-256 of small sweep outputs, pinned across versions.

Three fixtures cover the three ways the dynamics produce output: a matrix
sweep through run_experiment, a stochastic sweep through run_experiment
(with the v_err column), and a frozen-opponent run_visbr record, a mode
run_experiment cannot reach, pinned through the bytes of its series.

A mismatch means an output byte changed. If the change is intended, copy
the new digest map from the failure message into GOLDEN and record the
re-baseline in CHANGES.md.
"""

import hashlib
import json
import os

import numpy as np

import zsdyn as z
from zsdyn.harness import ExperimentConfig, run_experiment

SCHED = {"kind": "constant", "alpha": 0.5, "beta": 0.1}

# a fixed 3-state 2x2 zero-sum game with dense transitions
SG3 = {
    "type": "stochastic",
    "transition": [
        [[[0.5, 0.25, 0.25], [0.25, 0.5, 0.25]],
         [[0.25, 0.25, 0.5], [0.375, 0.375, 0.25]]],
        [[[0.125, 0.5, 0.375], [0.5, 0.125, 0.375]],
         [[0.25, 0.5, 0.25], [0.375, 0.25, 0.375]]],
        [[[0.25, 0.375, 0.375], [0.625, 0.25, 0.125]],
         [[0.125, 0.125, 0.75], [0.5, 0.25, 0.25]]],
    ],
    "R1": [
        [[0.75, -0.5], [-0.25, 0.5]],
        [[-0.625, 0.25], [0.5, -0.375]],
        [[0.125, -0.75], [-0.5, 0.875]],
    ],
    "gamma": 0.6,
}

GOLDEN = {
    "matrix": {
        "manifest.json": "1b0615e02a4361b66a9b788a85f2b82c85f376c464b49f27b4fae091b6b179fc",
        "point_0000.csv": "5913670d90058435063332577396fe8e632454c15cc5bcf69b752c85ac7f4535",
        "point_0001.csv": "abfa9e2953f06cdf28d7aba49ae92d86a12206e7b80b5cd9295bd801886babc1",
    },
    "stochastic": {
        "manifest.json": "ee8814591b2eb8aae52dd82ae5eb662e9845086cc7623255f19bc3f08a8c9f88",
        "point_0000.csv": "3d50f544d064f2291d4dc738678b3e2d2e9d65750a976ceaeaecbcb8ce7efa20",
    },
    "frozen": {
        "index": "de1c819e13c14faaf21b57fa7c951c3fd2dd05c7f9ef7e7c9c5712da152aa5c3",
        "ng": "38003c2e3d0d5a62ec22d9b18b45a3c47f4ab8714584279b5db608bae608363e",
        "min_pi": "114a06745e51a29db11383123bd6e193533638c1bb67a9cd7cc4c655279ddbfb",
        "q_inf": "5d4a5ec5d6f38e9e13301fe32e9ac46a62b0267186f758537268914627c56d30",
        "lsum": "2c4f37544ef6df9cd2495910ff7dc7b9a836dd09ad9688b7670a8437750130e8",
        "v_inf": "2c4f37544ef6df9cd2495910ff7dc7b9a836dd09ad9688b7670a8437750130e8",
        "v_err": "57c5847a912920fe3fb550a86a51c608c9f606cb4dc8b44205b940df767ba0bb",
    },
}


def _sweep_digests(cfg: ExperimentConfig) -> dict:
    run_experiment(cfg)
    return {name: hashlib.sha256(open(os.path.join(cfg.out_dir, name), "rb").read()).hexdigest()
            for name in sorted(os.listdir(cfg.out_dir))}


def _check(fixture: str, got: dict) -> None:
    assert got == GOLDEN[fixture], (
        f"{fixture} outputs changed; new digest map:\n{json.dumps(got, indent=4)}")


def test_golden_matrix_sweep(tmp_path, monkeypatch):
    # a relative out_dir keeps manifest.json independent of the temp path
    monkeypatch.chdir(tmp_path)
    cfg = ExperimentConfig(
        kind="matrix", game="builtin:rps",
        run={"variant": "explore", "eps_bar": 0.1, "tau": 0.5,
             "schedule": dict(SCHED), "K": 200, "record_stride": 20},
        n_trajectories=3, base_seed=2024, sweep={"tau": [0.25, 0.5]},
        out_dir="out")
    _check("matrix", _sweep_digests(cfg))


def test_golden_stochastic_sweep(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = ExperimentConfig(
        kind="stochastic", game=SG3,
        run={"variant": "explore", "eps_bar": 0.2, "tau": 0.2,
             "schedule": dict(SCHED), "T": 2, "K": 30, "record_stride": 10},
        n_trajectories=2, base_seed=77, out_dir="out")
    digests = _sweep_digests(cfg)
    header = (tmp_path / "out" / "point_0000.csv").read_text().splitlines()[0]
    assert header.endswith(",v_err")
    _check("stochastic", digests)


def test_golden_frozen_opponent_record():
    game = z.load_game(SG3)
    config = z.VisbrConfig(tau=0.2, schedule=z.StepsizeSchedule.from_dict(SCHED),
                           T=2, K=30, seed=5, variant="explore", eps_bar=0.2,
                           record_stride=10)
    frozen = np.array([[0.7, 0.3], [0.5, 0.5], [0.2, 0.8]])
    rec = z.run_visbr(game, config, frozen_pi2=frozen)
    arrays = {"index": rec.index, **rec.series}
    got = {name: hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()
           for name, arr in arrays.items()}
    _check("frozen", got)
