"""Golden digests: SHA-256 of small sweep outputs, pinned across versions.

Seven fixtures cover the ways the dynamics produce output: a matrix sweep
through run_experiment, a matrix sweep over every axis that splits the
matrix kernel's batch into groups (K, schedule) or varies per row (tau,
eps_bar), a matrix sweep on a game with unequal action counts, a stochastic sweep through run_experiment (with the v_err
column), and a frozen-opponent run_visbr record, a mode run_experiment
cannot reach, pinned through the bytes of its series. A larger stochastic
game with unequal action counts gets both a sweep, recorded at every step,
and a frozen-opponent record. Every fixture runs on both kinds of step
loop, the compiled one and the list one.

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

# a fixed 3x2 matrix game from closed-form dyadic entries: R1 takes odd
# eighths in [-7/8, 7/8], and R2 is the zero-sum complement
MG32 = {"type": "matrix",
        "R1": [[((3 * a + 5 * b) % 8 - 3.5) / 4 for b in range(2)] for a in range(3)]}

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

# a fixed 5-state game with 3 actions for player 1 and 2 for player 2, from
# closed-form dyadic entries: each transition row is a rotation of one of
# four weight patterns that sum to 16, and R1 takes odd eighths in [-7/8, 7/8]
_WEIGHTS16 = ((4, 3, 3, 3, 3), (6, 4, 2, 2, 2), (1, 2, 3, 4, 6), (8, 2, 2, 2, 2))
SG5 = {
    "type": "stochastic",
    "transition": [[[[_WEIGHTS16[(s + 2 * a + b) % 4][(j - s - a - b) % 5] / 16
                      for j in range(5)] for b in range(2)] for a in range(3)]
                   for s in range(5)],
    "R1": [[[((3 * s + 5 * a + 7 * b) % 8 - 3.5) / 4 for b in range(2)]
            for a in range(3)] for s in range(5)],
    "gamma": 0.75,
}

GOLDEN = {
    "matrix": {
        "manifest.json": "1b0615e02a4361b66a9b788a85f2b82c85f376c464b49f27b4fae091b6b179fc",
        "point_0000.csv": "5913670d90058435063332577396fe8e632454c15cc5bcf69b752c85ac7f4535",
        "point_0001.csv": "abfa9e2953f06cdf28d7aba49ae92d86a12206e7b80b5cd9295bd801886babc1",
    },
    "matrix_grouped": {
        "manifest.json": "ef4b5c4787e5344c6e3b449b9e7590549fb291aeb919eb82959026ebc732ebf4",
        "point_0000.csv": "ed9a1c5980db80e8db487676d677549142027f84272df8419bc90d5c6798355b",
        "point_0001.csv": "a01f345438ad89bdd40ea9f1334d166767e3bc8dc9d946fa6533fd320f749a22",
        "point_0002.csv": "cadfefdf89824ddf6102f53777d90ff2b7f75be76f85bb2b30481fdd009783c9",
        "point_0003.csv": "fe9ca5ff0cec87b34e265801313fb144a420ee0841571205d6bc67a682cea215",
        "point_0004.csv": "a07fc2abece17ff4b72a4994e300b9b878d58505b6a8b6d16be9e1b5a3a62be2",
        "point_0005.csv": "552c51145e7e6be69d16ee1a4a9de0302d415be9fd9c94becd1c306df1c0a44a",
        "point_0006.csv": "2df07613679bf9f5802455492f0a68208e78d0f25c5e58671d246fe910b59e42",
        "point_0007.csv": "59d2339f5ec482b4c0f48a7ca4162afcbaa2f4e162e72208f9eaf19622c58566",
        "point_0008.csv": "0dd60b865442c7cdff7195021593f15ae14c3ad93c15f5955c41a86174e94313",
        "point_0009.csv": "4af818a89dd2ab482a93e8df54acbac19b2593534ecee1d98be527d80933a3b8",
        "point_0010.csv": "54b59603ca4e0358b9d0ebd1d04db7b6e0228a37f21f9bc890bd38adf8cdc821",
        "point_0011.csv": "3dc32760d5cf5c231ddb4ba39fba3178162e89c0ce72f08908343a94417de9ed",
        "point_0012.csv": "cd544b2413223de48cc6a00f1beb873cdd59204af146d1226e8708050bf53871",
        "point_0013.csv": "7d9508620cfc3bf65823b5ce392f36055fd46adc78c6e404abfe319cb5409d5f",
        "point_0014.csv": "7f1e09b36d951d2ae9e8bb0c1526e14189f1e03aaa281fea49520b29436f4555",
        "point_0015.csv": "7bb1747bf677c0fdcd3832a2356de8d101bf96064a3751ee40d276b4c4d324d1",
    },
    "matrix_3x2": {
        "manifest.json": "861e1fdd9e204419b16e8aafaa91fba96c9d41cbb7f181d911e503132e0588a4",
        "point_0000.csv": "353ac973df9d060b6cc140af7f5cf3bcd1bd3df649aabf05364fba76a007a3f4",
        "point_0001.csv": "df165993a0c842c7eb02d2792f5d6750a46a947b5d0be26b68b005797c7ff9b8",
    },
    "stochastic": {
        "manifest.json": "ee8814591b2eb8aae52dd82ae5eb662e9845086cc7623255f19bc3f08a8c9f88",
        "point_0000.csv": "0fad467cbc7b5195c49a1370084829f32304562703b7605dddd467e8b386518a",
    },
    "frozen": {
        "index": "de1c819e13c14faaf21b57fa7c951c3fd2dd05c7f9ef7e7c9c5712da152aa5c3",
        "ng": "b90ac9b9e5c51606e0a2a66baec25c718fa98b5f606635178f4c0a573a9248a2",
        "min_pi": "114a06745e51a29db11383123bd6e193533638c1bb67a9cd7cc4c655279ddbfb",
        "q_inf": "5d4a5ec5d6f38e9e13301fe32e9ac46a62b0267186f758537268914627c56d30",
        "lsum": "2c4f37544ef6df9cd2495910ff7dc7b9a836dd09ad9688b7670a8437750130e8",
        "v_inf": "2c4f37544ef6df9cd2495910ff7dc7b9a836dd09ad9688b7670a8437750130e8",
        "v_err": "57c5847a912920fe3fb550a86a51c608c9f606cb4dc8b44205b940df767ba0bb",
    },
    "stochastic_3x2": {
        "manifest.json": "4530fae7ce394a2b5e914bbb5d751dec3f86c6f0fcd80a2051ee5735165bc025",
        "point_0000.csv": "4d5f169be5b92c570699249cf0f0ebfa55d89acae79aa807ce9aa5b1c0f91849",
        "point_0001.csv": "516c56fa4ec6985c4bd9d2253cf81996f83061393e8087f0f384ac190b33bb30",
    },
    "frozen_3x2": {
        "index": "fb410c6b6f67fbd05367b6af6a7b56c2a63f098f3885434ea76564224246a66b",
        "ng": "fd8c67544345d7872ffce285e3d05422c5e8564cd36ae7c66a5fc52a259afac9",
        "min_pi": "e01ee6e7869700ac8cde34dadcc842af764b4e3902e83134f49f1c268ee43ec5",
        "q_inf": "5fcf5ab8d03280a1c0b6a1e066320488f07e07fc1636117f8ae420bfe44a813a",
        "lsum": "5fba07879d2e8a79b0fce780b8a7586372d954c39fd7eddb56583ed2f65596b7",
        "v_inf": "5fba07879d2e8a79b0fce780b8a7586372d954c39fd7eddb56583ed2f65596b7",
        "v_err": "f767cf74a6862aa0b5bf54958e08f01941e0d558b754a0e943a51329eeaf0185",
    },
}


def _sweep_digests(cfg: ExperimentConfig) -> dict:
    run_experiment(cfg, force=True)
    return {name: hashlib.sha256(open(os.path.join(cfg.out_dir, name), "rb").read()).hexdigest()
            for name in sorted(os.listdir(cfg.out_dir))}


def _series_digests(rec) -> dict:
    arrays = {"index": rec.index, **rec.series}
    return {name: hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()
            for name, arr in arrays.items()}


def _check(fixture: str, got: dict) -> None:
    assert got == GOLDEN[fixture], (
        f"{fixture} outputs changed; new digest map:\n{json.dumps(got, indent=4)}")


# the "matrix" fixture; a relative out_dir keeps manifest.json independent
# of the temp path
MATRIX_SWEEP = dict(
    kind="matrix", game="builtin:rps",
    run={"variant": "explore", "eps_bar": 0.1, "tau": 0.5,
         "schedule": dict(SCHED), "K": 200, "record_stride": 20},
    n_trajectories=3, base_seed=2024, sweep={"tau": [0.25, 0.5]},
    out_dir="out")


def test_golden_matrix_sweep(tmp_path, monkeypatch, loops):
    monkeypatch.chdir(tmp_path)
    for _ in loops:
        _check("matrix", _sweep_digests(ExperimentConfig(**MATRIX_SWEEP)))


def test_golden_matrix_grouped_sweep(tmp_path, monkeypatch, loops):
    # two K values (record_stride 10 does not divide 45) and two schedules
    # give four kernel groups; tau and eps_bar vary within each group
    monkeypatch.chdir(tmp_path)
    cfg = ExperimentConfig(
        kind="matrix", game="builtin:appF:N=5",
        run={"variant": "explore", "normalize_q_in_softmax": True, "tau": 0.5,
             "eps_bar": 0.1, "schedule": dict(SCHED), "K": 30, "record_stride": 10},
        n_trajectories=3, base_seed=31337,
        sweep={"K": [30, 45],
               "schedule": [dict(SCHED),
                            {"kind": "diminishing", "alpha": 4.0, "beta": 1.0, "h": 8.0}],
               "tau": [0.2, 0.5], "eps_bar": [0.05, 0.3]},
        out_dir="out")
    for _ in loops:
        _check("matrix_grouped", _sweep_digests(cfg))


def test_golden_matrix_unequal_actions_sweep(tmp_path, monkeypatch, loops):
    # the 3x2 action counts catch a slip between the two players' rows in
    # the kernel; K=90 spans two
    # uniform chunks of 64
    monkeypatch.chdir(tmp_path)
    cfg = ExperimentConfig(
        kind="matrix", game=MG32,
        run={"variant": "explore", "normalize_q_in_softmax": True, "eps_bar": 0.1,
             "tau": 0.5, "schedule": dict(SCHED), "K": 90, "record_stride": 15},
        n_trajectories=3, base_seed=808, sweep={"tau": [0.25, 0.5]},
        out_dir="out")
    for _ in loops:
        _check("matrix_3x2", _sweep_digests(cfg))


# the "stochastic" fixture
STOCHASTIC_SWEEP = dict(
    kind="stochastic", game=SG3,
    run={"variant": "explore", "eps_bar": 0.2, "tau": 0.2,
         "schedule": dict(SCHED), "T": 2, "K": 30, "record_stride": 10},
    n_trajectories=2, base_seed=77, out_dir="out")


def test_golden_stochastic_sweep(tmp_path, monkeypatch, loops):
    monkeypatch.chdir(tmp_path)
    for _ in loops:
        digests = _sweep_digests(ExperimentConfig(**STOCHASTIC_SWEEP))
        header = (tmp_path / "out" / "point_0000.csv").read_text().splitlines()[0]
        assert header.endswith(",v_err")
        _check("stochastic", digests)


def test_golden_frozen_opponent_record(loops):
    game = z.load_game(SG3)
    config = z.VisbrConfig(tau=0.2, schedule=z.StepsizeSchedule.from_dict(SCHED),
                           T=2, K=30, seed=5, variant="explore", eps_bar=0.2,
                           record_stride=10)
    frozen = np.array([[0.7, 0.3], [0.5, 0.5], [0.2, 0.8]])
    for _ in loops:
        _check("frozen", _series_digests(z.run_visbr(game, [config], frozen_pi2=frozen)[0]))


def test_golden_stochastic_unequal_actions_sweep(tmp_path, monkeypatch, loops):
    # eps_bar 0.0 runs the explore variant like the plain one; recording
    # every step pins each intermediate policy, and the 3x2 action counts
    # catch a slip between the two players' columns
    monkeypatch.chdir(tmp_path)
    cfg = ExperimentConfig(
        kind="stochastic", game=SG5,
        run={"variant": "explore", "eps_bar": 0.2, "tau": 0.3,
             "schedule": dict(SCHED), "T": 2, "K": 25, "record_stride": 1},
        n_trajectories=2, base_seed=4242, sweep={"eps_bar": [0.0, 0.2]},
        out_dir="out")
    for _ in loops:
        _check("stochastic_3x2", _sweep_digests(cfg))


def test_golden_frozen_opponent_unequal_actions_record(loops):
    game = z.load_game(SG5)
    config = z.VisbrConfig(tau=0.3, schedule=z.StepsizeSchedule.from_dict(SCHED),
                           T=3, K=20, seed=9, variant="explore", eps_bar=0.1,
                           record_stride=1)
    frozen = np.array([[0.75, 0.25], [0.5, 0.5], [0.125, 0.875], [0.375, 0.625],
                       [1.0, 0.0]])
    for _ in loops:
        _check("frozen_3x2", _series_digests(z.run_visbr(game, [config], frozen_pi2=frozen)[0]))
