"""Experiment harness: seeding, sweeps, aggregation, output files, CLI."""

import dataclasses
import hashlib
import itertools
import json
import os

import numpy as np
import pytest

from zsdyn.cli import main as cli_main
from zsdyn.config import MatrixRunConfig
from zsdyn.errors import (
    BadConfig,
    GridMismatch,
    NonPositiveValues,
    OutputExists,
)
from zsdyn.games import (
    TrajectoryRecord,
    game_hash,
    load_game,
    uniform_joint_policy,
)
from zsdyn.harness import (
    MATRIX_CSV_COLUMNS,
    STOCHASTIC_CSV_COLUMNS,
    AggregateSeries,
    ExperimentConfig,
    _aggregate_points,
    _atomic_write,
    _csv_text,
    aggregate,
    rate_fit,
    run_experiment,
    splitmix64,
    sweep_point_key,
    trajectory_seed,
)
from zsdyn.matrix_dyn import run_matrix_dynamics
from zsdyn.metrics import nash_gap_stochastic
from zsdyn.ops import minimax_fixed_point

MASK = (1 << 64) - 1

CONST_SCHED = {"kind": "constant", "alpha": 0.5, "beta": 0.1}


def matrix_template(**overrides):
    run = {"variant": "plain", "tau": 0.5, "schedule": dict(CONST_SCHED), "K": 40}
    run.update(overrides)
    return run


def matrix_config(**overrides):
    kwargs = dict(kind="matrix", game="builtin:mp", run=matrix_template(),
                  n_trajectories=2, base_seed=11)
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


# single-state embedding of matching pennies; scaled to stay inside the
# payoff range used by the stochastic validators
SG_MP = {
    "type": "stochastic",
    "transition": [[[[1.0], [1.0]], [[1.0], [1.0]]]],
    "R1": [[[0.9, -0.9], [-0.9, 0.9]]],
    "gamma": 0.5,
}


def sg_template(**overrides):
    run = {"variant": "explore", "tau": 0.2, "eps_bar": 0.2,
           "schedule": dict(CONST_SCHED), "T": 2, "K": 10}
    run.update(overrides)
    return run


# ---------------------------------------------------------------------------
# Seed derivation
# ---------------------------------------------------------------------------

def test_splitmix64_reference_vector():
    # first outputs of the published splitmix64 stream from state 0
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert splitmix64(1) == 10451216379200822465
    assert splitmix64(MASK) == 16490336266968443936


def test_splitmix64_stays_in_range():
    rng = np.random.default_rng(5)
    for x in rng.integers(0, 1 << 64, size=200, dtype=np.uint64):
        y = splitmix64(int(x))
        assert 0 <= y <= MASK


def test_splitmix64_independent_reimplementation():
    def reference(x):
        x = (x + 0x9E3779B97F4A7C15) & MASK
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        return (z ^ (z >> 31)) & MASK

    rng = np.random.default_rng(6)
    for x in rng.integers(0, 1 << 64, size=300, dtype=np.uint64):
        assert splitmix64(int(x)) == reference(int(x))


def test_sweep_point_key_ignores_insertion_order():
    a = {"tau": 0.1, "K": 500, "eps_bar": 0.0}
    b = {"eps_bar": 0.0, "K": 500, "tau": 0.1}
    assert list(a) != list(b)
    assert sweep_point_key(a) == sweep_point_key(b)


def test_sweep_point_key_depends_on_values():
    base = sweep_point_key({"tau": 0.1})
    assert sweep_point_key({"tau": 0.2}) != base
    assert sweep_point_key({"tau": 0.1, "K": 5}) != base
    assert sweep_point_key({}) != base


def test_trajectory_seed_matches_documented_formula():
    # key = first 8 bytes (big endian) of blake2b over canonical JSON;
    # seed_j = splitmix64(splitmix64(base XOR key) XOR j)
    def reference(base, point, j):
        blob = json.dumps(point, sort_keys=True,
                          separators=(",", ":")).encode()
        key = int.from_bytes(hashlib.blake2b(blob, digest_size=8).digest(),
                             "big")
        return splitmix64(splitmix64(base ^ key) ^ j)

    cases = [
        (0, {}, 0),
        (7, {"tau": 0.5}, 3),
        (2**63, {"K": 100, "tau": 0.05}, 17),
        (12345, {"schedule": {"kind": "constant", "alpha": 1.0, "beta": 1.0}}, 0),
    ]
    for base, point, j in cases:
        assert trajectory_seed(base, point, j) == reference(base, point, j)
    assert trajectory_seed(0, {}, 0) == 13859787898081748737
    assert trajectory_seed(7, {"tau": 0.5}, 3) == 15816656617988852476


def test_trajectory_seed_varies_across_inputs():
    point = {"tau": 0.1}
    seeds = {trajectory_seed(9, point, j) for j in range(64)}
    assert len(seeds) == 64
    assert trajectory_seed(9, point, 0) != trajectory_seed(10, point, 0)
    assert trajectory_seed(9, point, 0) != trajectory_seed(9, {"tau": 0.2}, 0)


# ---------------------------------------------------------------------------
# ExperimentConfig
# ---------------------------------------------------------------------------

def test_experiment_config_rejects_bad_kind():
    with pytest.raises(BadConfig, match="kind"):
        matrix_config(kind="tabular")


def test_experiment_config_rejects_non_source_game():
    with pytest.raises(BadConfig, match="game"):
        matrix_config(game=42)


def test_experiment_config_rejects_seed_in_template():
    with pytest.raises(BadConfig, match="seed"):
        matrix_config(run=matrix_template(seed=3))


def test_experiment_config_rejects_axis_for_wrong_kind():
    # T is an outer-round count; matrix runs have no such axis
    with pytest.raises(BadConfig, match="axis"):
        matrix_config(sweep={"T": [1, 2]})
    with pytest.raises(BadConfig, match="axis"):
        matrix_config(sweep={"zeta": [0.1]})


def test_experiment_config_rejects_empty_axis():
    with pytest.raises(BadConfig, match="non-empty"):
        matrix_config(sweep={"tau": []})


def test_experiment_config_enforces_sweep_cap():
    with pytest.raises(BadConfig, match="cap"):
        matrix_config(sweep={"tau": [0.1, 0.2, 0.3], "K": [10, 20]},
                      sweep_cap=5)
    # exactly at the cap is fine
    matrix_config(sweep={"tau": [0.1, 0.2, 0.3], "K": [10, 20]}, sweep_cap=6)


def test_experiment_config_rejects_bad_aggregation():
    # aggregate() computes every statistic, so there is no aggregation key
    d = matrix_config().to_dict()
    d["aggregation"] = "both"
    with pytest.raises(BadConfig, match="aggregation"):
        ExperimentConfig.from_dict(d)


def test_experiment_config_rejects_bad_trajectory_count():
    with pytest.raises(BadConfig):
        matrix_config(n_trajectories=0)
    with pytest.raises(BadConfig):
        matrix_config(base_seed=-1)


def test_experiment_config_from_dict_rejects_fractional_counts():
    d = matrix_config().to_dict()
    d["n_trajectories"] = 2.9
    with pytest.raises(BadConfig, match="n_trajectories"):
        ExperimentConfig.from_dict(d)
    with pytest.raises(BadConfig, match="n_trajectories"):
        matrix_config(n_trajectories=True)


def test_experiment_config_validates_every_sweep_point():
    # the template alone is fine; one swept value is not
    with pytest.raises(BadConfig):
        matrix_config(sweep={"tau": [0.1, -0.5]})


def test_experiment_config_allows_axis_only_in_sweep():
    run = matrix_template()
    del run["K"]
    cfg = matrix_config(run=run, sweep={"K": [10, 20]})
    assert cfg.sweep_points() == [{"K": 10}, {"K": 20}]


def test_experiment_config_dict_roundtrip():
    cfg = matrix_config(sweep={"tau": [0.1, 0.2]}, out_dir="results")
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg


def test_sweep_point_run_configs_are_built_once(monkeypatch):
    # the configs that validation builds are the ones run_experiment runs,
    # and keeping them changes neither to_dict nor ==
    built = []
    from_dict = MatrixRunConfig.from_dict.__func__
    monkeypatch.setattr(MatrixRunConfig, "from_dict",
                        classmethod(lambda cls, d: built.append(d) or from_dict(cls, d)))
    cfg = matrix_config(sweep={"tau": [0.1, 0.2], "K": [10, 20]})
    assert len(built) == 4
    bundle = run_experiment(cfg)
    assert len(built) == 4 and len(bundle.points) == 4
    assert list(cfg.to_dict()) == [f.name for f in dataclasses.fields(cfg)]
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg


def test_experiment_config_from_dict_rejects_unknown_keys():
    d = matrix_config().to_dict()
    d["threads"] = 4
    with pytest.raises(BadConfig, match="threads"):
        ExperimentConfig.from_dict(d)


def test_experiment_config_from_dict_requires_core_keys():
    d = matrix_config().to_dict()
    del d["base_seed"]
    with pytest.raises(BadConfig, match="base_seed"):
        ExperimentConfig.from_dict(d)


@pytest.mark.parametrize("key, value, match", [
    ("run", [1, 2], "run must be"),
    ("sweep", {"K": "12"}, "sweep axis 'K' must be a non-empty list"),
    ("sweep", [1], "sweep must be"),
    ("out_dir", 5, "out_dir"),
], ids=["run-list", "sweep-axis-string", "sweep-list", "out-dir-int"])
def test_experiment_config_from_dict_rejects_malformed_fields(key, value, match):
    d = matrix_config().to_dict()
    d[key] = value
    with pytest.raises(BadConfig, match=match):
        ExperimentConfig.from_dict(d)


def test_experiment_config_copies_run_and_sweep():
    run, sweep = matrix_template(), {"tau": [0.1, 0.2]}
    cfg = matrix_config(run=run, sweep=sweep)
    run["K"] = 0
    sweep["tau"].append(-1.0)
    assert cfg.run["K"] == 40 and cfg.sweep == {"tau": [0.1, 0.2]}


def test_sweep_points_sorted_axes_cross_product():
    cfg = matrix_config(sweep={"tau": [0.1, 0.2], "K": [5, 10]})
    assert cfg.sweep_points() == [
        {"K": 5, "tau": 0.1},
        {"K": 5, "tau": 0.2},
        {"K": 10, "tau": 0.1},
        {"K": 10, "tau": 0.2},
    ]
    assert matrix_config().sweep_points() == [{}]


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def synthetic_record(values_by_name, index=None, seed_tag=0):
    names = sorted(values_by_name)
    n = len(values_by_name[names[0]])
    if index is None:
        index = np.stack([np.zeros(n, dtype=np.int64),
                          np.arange(1, n + 1, dtype=np.int64)], axis=1)
    game = load_game("builtin:mp")
    return TrajectoryRecord(
        config_echo={"seed": seed_tag},
        index=np.asarray(index, dtype=np.int64),
        series={name: np.asarray(values_by_name[name], dtype=np.float64)
                for name in values_by_name},
        final_policy=uniform_joint_policy(game),
        final_q=(np.zeros(2), np.zeros(2)),
        final_v=None,
    )


def test_aggregate_single_record_statistics():
    values = [3.0, 1.0, 4.0]
    out = aggregate([synthetic_record({"ng": values})])
    assert len(out) == 1
    series = out[0]
    assert series.name == "ng"
    assert series.n == 1
    assert np.array_equal(series.mean, values)
    assert np.array_equal(series.std, np.zeros(3))
    assert np.array_equal(series.median, values)
    assert np.array_equal(series.min, values)
    assert np.array_equal(series.max, values)
    assert np.array_equal(series.index, [[0, 1], [0, 2], [0, 3]])


def test_aggregate_pair_mean_and_std():
    a = synthetic_record({"ng": [2.0, 6.0]})
    b = synthetic_record({"ng": [-2.0, -6.0]}, seed_tag=1)
    series = aggregate([a, b])[0]
    assert np.array_equal(series.mean, [0.0, 0.0])
    # population std of {v, -v} is |v|
    assert np.array_equal(series.std, [2.0, 6.0])
    assert np.array_equal(series.min, [-2.0, -6.0])
    assert np.array_equal(series.max, [2.0, 6.0])
    assert series.n == 2


def test_aggregate_matches_numpy_oracle():
    rng = np.random.default_rng(31)
    data = rng.normal(size=(5, 7))
    records = [synthetic_record({"ng": data[i], "q_inf": data[i] ** 2},
                                seed_tag=i)
               for i in range(5)]
    by_name = {s.name: s for s in aggregate(records)}
    assert sorted(by_name) == ["ng", "q_inf"]
    for name, stacked in (("ng", data), ("q_inf", data ** 2)):
        s = by_name[name]
        assert np.allclose(s.mean, stacked.mean(axis=0), atol=0.0)
        assert np.allclose(s.std, stacked.std(axis=0), atol=0.0)
        assert np.allclose(s.median, np.median(stacked, axis=0), atol=0.0)
        assert np.array_equal(s.min, stacked.min(axis=0))
        assert np.array_equal(s.max, stacked.max(axis=0))


def test_aggregate_rejects_index_mismatch():
    a = synthetic_record({"ng": [1.0, 2.0]})
    b = synthetic_record({"ng": [1.0, 2.0]}, index=[[0, 1], [0, 3]])
    with pytest.raises(GridMismatch, match="index"):
        aggregate([a, b])


def test_aggregate_rejects_metric_mismatch():
    a = synthetic_record({"ng": [1.0]}, index=[[0, 1]])
    b = synthetic_record({"ngtau": [1.0]}, index=[[0, 1]])
    with pytest.raises(GridMismatch, match="metrics"):
        aggregate([a, b])


def test_aggregate_rejects_empty_and_bad_mode():
    with pytest.raises(GridMismatch):
        aggregate([])
    # every statistic is always computed; there is no mode to choose
    with pytest.raises(TypeError, match="mode"):
        aggregate([synthetic_record({"ng": [1.0]}, index=[[0, 1]])],
                  mode="both")


def per_point_statistics(runs):
    # the statistics of one point computed on their own: one (trajectory,
    # row) stack per metric, reduced over the trajectory axis
    out = []
    for name in runs[0].series:
        values = np.stack([rec.series[name] for rec in runs])
        out.append((name, runs[0].index, values.mean(axis=0), values.std(axis=0),
                    np.median(values, axis=0), values.min(axis=0), values.max(axis=0),
                    len(runs)))
    return out


def assert_same_bits(got, want):
    # got: AggregateSeries list; want: the same fields as tuples
    assert [s.name for s in got] == [w[0] for w in want]
    for series, expected in zip(got, want):
        fields = (series.index, series.mean, series.std, series.median,
                  series.min, series.max)
        for field, other in zip(fields, expected[1:7]):
            assert field.dtype == other.dtype and field.shape == other.shape
            assert field.tobytes() == other.tobytes()
        assert series.n == expected[7]


# one kernel call holds each sweep (128 trajectories at most); its
# index grids differ by K, and K=7 and K=10 give one row each, where numpy
# sums 8 or more trajectories pairwise
MIXED_GRID_SWEEPS = [
    *(dict(kind="matrix", game="builtin:mp", run=matrix_template(record_stride=10),
           sweep={"tau": [0.2, 0.3, 0.5], "K": [7, 10, 25, 30]}, n_trajectories=n)
      for n in (1, 3, 5, 9)),
    dict(kind="stochastic", game=SG_MP, run=sg_template(),
         sweep={"eps_bar": [0.1, 0.2], "K": [4, 10]}, n_trajectories=3),
]


@pytest.mark.parametrize("sweep", MIXED_GRID_SWEEPS,
                         ids=["matrix-n1", "matrix-n3", "matrix-n5", "matrix-n9", "stochastic"])
def test_point_aggregates_do_not_depend_on_the_points_sharing_a_pass(sweep):
    bundle = run_experiment(ExperimentConfig(base_seed=8, **sweep), keep_records=True)
    assert len({p.aggregates[0].index.tobytes() for p in bundle.points}) > 1
    for point in bundle.points:
        want = per_point_statistics(point.records)
        assert_same_bits(point.aggregates, want)
        assert_same_bits(aggregate(list(point.records)), want)


def test_aggregate_points_mixes_grids_of_one_kernel_call():
    # one run_matrix_dynamics call over configs that differ in K and
    # record_stride, cut into points of 9 trajectories
    game = load_game("builtin:rps")
    configs = [MatrixRunConfig.from_dict(
        {"variant": "explore", "tau": tau, "eps_bar": 0.1, "schedule": CONST_SCHED,
         "K": K, "record_stride": stride, "seed": 9 * i + j})
        for i, (tau, K, stride) in enumerate(itertools.product(
            (0.2, 0.4), (12, 20), (1, 4, 20))) for j in range(9)]
    records = run_matrix_dynamics(game, configs)
    points = [records[m:m + 9] for m in range(0, len(records), 9)]
    for got, runs in zip(_aggregate_points(points), points):
        assert_same_bits(got, per_point_statistics(runs))


# ---------------------------------------------------------------------------
# Rate fitting
# ---------------------------------------------------------------------------

def power_law_series(ks, values):
    ks = np.asarray(ks, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    index = np.stack([np.zeros_like(ks), ks], axis=1)
    return AggregateSeries(name="ng", index=index, mean=values,
                           std=np.zeros_like(values), median=values * 2.0,
                           min=values, max=values, n=1)


def test_rate_fit_recovers_exact_power_law():
    ks = np.unique(np.logspace(1, 4, 25).astype(np.int64))
    series = power_law_series(ks, 3.7 / ks)
    assert abs(rate_fit(series, k_min=0) - (-1.0)) < 1e-9
    series = power_law_series(ks, 0.5 / np.sqrt(ks))
    assert abs(rate_fit(series, k_min=0) - (-0.5)) < 1e-9


def test_rate_fit_constant_series_has_zero_slope():
    ks = [10, 100, 1000]
    series = power_law_series(ks, [0.25, 0.25, 0.25])
    assert abs(rate_fit(series, k_min=0)) < 1e-12


def test_rate_fit_honours_k_min():
    # flat head, 1/k tail: the tail alone gives slope -1
    ks = np.array([1, 2, 100, 200, 400, 800])
    values = np.where(ks < 100, 5.0, 40.0 / ks)
    series = power_law_series(ks, values)
    assert abs(rate_fit(series, k_min=100) - (-1.0)) < 1e-9
    assert rate_fit(series, k_min=0) > -1.0


def test_rate_fit_noisy_slope_stays_near_minus_one():
    rng = np.random.default_rng(42)
    ks = np.unique(np.logspace(1, 5, 30).astype(np.int64))
    noise = np.exp(rng.normal(scale=0.05, size=ks.size))
    series = power_law_series(ks, (2.0 / ks) * noise)
    slope = rate_fit(series, k_min=0)
    assert -1.1 < slope < -0.9


def test_rate_fit_stat_selector():
    ks = np.array([10, 100, 1000])
    series = power_law_series(ks, 1.0 / ks)
    # the median array holds 2/k; same slope, different intercept
    assert abs(rate_fit(series, k_min=0, stat="median") - (-1.0)) < 1e-9


def test_rate_fit_rejects_unknown_stat():
    # n is the trajectory count, index the (t, k) grid and foo no field:
    # none of them is a statistic to fit
    series = power_law_series([10, 100, 1000], [0.1, 0.01, 0.001])
    for stat in ("n", "foo", "index"):
        with pytest.raises(ValueError, match="stat must be one of"):
            rate_fit(series, k_min=0, stat=stat)


def test_rate_fit_rejects_nonpositive_values():
    series = power_law_series([10, 100, 1000], [0.1, 0.0, 0.001])
    with pytest.raises(NonPositiveValues):
        rate_fit(series, k_min=0)


def test_rate_fit_rejects_zero_k_rows():
    series = power_law_series([0, 10, 100], [1.0, 0.1, 0.01])
    with pytest.raises(NonPositiveValues, match="k"):
        rate_fit(series, k_min=0)
    # excluding the k=0 row restores a clean fit
    assert abs(rate_fit(series, k_min=10) - (-1.0)) < 1e-9


def test_rate_fit_needs_two_rows():
    series = power_law_series([10, 20], [1.0, 0.5])
    with pytest.raises(ValueError, match="2 rows"):
        rate_fit(series, k_min=15)


# ---------------------------------------------------------------------------
# run_experiment
# ---------------------------------------------------------------------------

def test_run_experiment_writes_expected_files(tmp_path):
    cfg = matrix_config(sweep={"tau": [0.2, 0.5]}, out_dir=str(tmp_path))
    bundle = run_experiment(cfg)
    assert [p.label for p in bundle.points] == ["point_0000", "point_0001"]
    assert bundle.points[0].point == {"tau": 0.2}
    assert sorted(os.listdir(tmp_path)) == [
        "manifest.json", "point_0000.csv", "point_0001.csv"]
    for name in ("point_0000.csv", "point_0001.csv"):
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == ",".join(MATRIX_CSV_COLUMNS)
        assert len(lines) == 1 + 40  # stride 1, no k=0 row
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == len(MATRIX_CSV_COLUMNS)
            int(cells[0])
            for cell in cells[1:]:
                float(cell)


def test_run_experiment_manifest_contents(tmp_path):
    import zsdyn

    cfg = matrix_config(out_dir=str(tmp_path))
    bundle = run_experiment(cfg)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest == bundle.manifest
    assert ExperimentConfig.from_dict(manifest["config"]) == cfg
    assert manifest["game_hash"] == game_hash(load_game("builtin:mp"))
    assert manifest["tool_version"] == zsdyn.__version__
    assert list(manifest["warnings"]) == ["point_0000"]


def test_run_experiment_refuses_overwrite(tmp_path):
    cfg = matrix_config(out_dir=str(tmp_path))
    run_experiment(cfg)
    with pytest.raises(OutputExists, match="force"):
        run_experiment(cfg)
    run_experiment(cfg, force=True)


def test_forced_rerun_removes_csvs_of_points_it_does_not_write(tmp_path):
    run_experiment(matrix_config(sweep={"tau": [0.2, 0.3, 0.5]}, out_dir=str(tmp_path)))
    assert len(os.listdir(tmp_path)) == 4
    run_experiment(matrix_config(out_dir=str(tmp_path)), force=True)
    assert sorted(os.listdir(tmp_path)) == ["manifest.json", "point_0000.csv"]
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert list(manifest["warnings"]) == ["point_0000"]


def test_run_experiment_reruns_byte_identical(tmp_path):
    cfg = matrix_config(sweep={"tau": [0.2, 0.5]}, out_dir=str(tmp_path),
                        n_trajectories=3)
    run_experiment(cfg)
    first = {name: (tmp_path / name).read_bytes()
             for name in os.listdir(tmp_path)}
    run_experiment(cfg, force=True)
    second = {name: (tmp_path / name).read_bytes()
              for name in os.listdir(tmp_path)}
    assert first == second


def _random_stochastic_game(seed: int, shape=(3, 2, 2), gamma=0.8) -> dict:
    rng = np.random.default_rng(seed)
    P = rng.random((*shape, shape[0])) + 0.05
    P /= P.sum(axis=3, keepdims=True)
    return {"type": "stochastic", "transition": P.tolist(),
            "R1": rng.uniform(-1.0, 1.0, shape).tolist(), "gamma": gamma}


# 9 points of 3 trajectories on several index grids (matrix K=7 gives one row)
BUDGET_SWEEPS = {
    "matrix": dict(kind="matrix", game="builtin:mp", run=matrix_template(record_stride=10),
                   sweep={"tau": [0.2, 0.3, 0.5], "K": [7, 30, 40]}),
    "stochastic": dict(kind="stochastic", game=_random_stochastic_game(5),
                       run=sg_template(record_stride=3), sweep={"K": [4, 6, 9], "T": [1, 2, 3]}),
}


@pytest.mark.parametrize("kind", sorted(BUDGET_SWEEPS))
def test_run_experiment_bytes_do_not_depend_on_the_batch_budget(kind, tmp_path, monkeypatch):
    # a budget of 1 or 4 runs one point per kernel call, 7 two points per
    # call, 128 all nine in one call and one statistics pass per grid; a
    # stochastic call solves v* once, whatever points share it
    import zsdyn.harness
    import zsdyn.visbr

    calls = {"kernel": 0, "fixed_point": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    kernel = "run_matrix_dynamics" if kind == "matrix" else "run_visbr"
    monkeypatch.setattr(zsdyn.harness, kernel, counted("kernel", getattr(zsdyn.harness, kernel)))
    monkeypatch.setattr(zsdyn.visbr, "minimax_fixed_point",
                        counted("fixed_point", zsdyn.visbr.minimax_fixed_point))
    outputs = []
    for budget in (1, 4, 7, 128):
        monkeypatch.setattr(zsdyn.harness, "_BATCH_TRAJECTORIES", budget)
        calls.update(kernel=0, fixed_point=0)
        out = tmp_path / str(budget)
        run_experiment(ExperimentConfig(n_trajectories=3, base_seed=11, out_dir=str(out),
                                        **BUDGET_SWEEPS[kind]))
        assert calls["kernel"] == {1: 9, 4: 9, 7: 5, 128: 1}[budget]
        assert calls["fixed_point"] == (calls["kernel"] if kind == "stochastic" else 0)
        outputs.append({name: (out / name).read_bytes() for name in os.listdir(out)
                        if name != "manifest.json"})
    assert len(outputs[0]) == 9  # point CSVs
    assert all(out == outputs[0] for out in outputs[1:])


def test_atomic_write_removes_its_temporary_file_on_failure(tmp_path, monkeypatch):
    target = tmp_path / "point_0000.csv"

    def fail(src, dst):
        assert os.path.exists(src)
        raise OSError("replace failed")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="replace failed"):
        _atomic_write(str(target), "k\n1\n")
    assert os.listdir(tmp_path) == []


# one cell of each kind: signed zero, the smallest subnormal, a large
# integer-valued float, a rounding residue, a repeating fraction and nan
CELL_VALUES = (-0.0, 5e-324, 1e16, 0.1 + 0.2, 1 / 3, float("nan"))


def hand_built_series(names, index):
    values = np.array(CELL_VALUES)
    return [AggregateSeries(name=name, index=np.array(index, dtype=np.int64),
                            mean=np.roll(values, m), std=np.roll(values[::-1], m),
                            median=np.full(6, 7.0), min=np.roll(values, m + 2),
                            max=np.roll(values, m + 4), n=2)
            for m, name in enumerate(names)]


def test_csv_cells_are_the_repr_of_each_float():
    matrix = hand_built_series(("ng", "ngtau", "min_pi", "q_inf"),
                               [[0, 1], [0, 2], [0, 10], [0, 99], [0, 1000], [0, 10 ** 12]])
    assert _csv_text("matrix", matrix) == (
        "k,ng_mean,ng_std,ngtau_mean,ngtau_std,min_pi,q_inf\n"
        "1,-0.0,nan,nan,-0.0,1e+16,nan\n"
        "2,5e-324,0.3333333333333333,-0.0,nan,0.30000000000000004,-0.0\n"
        "10,1e+16,0.30000000000000004,5e-324,0.3333333333333333,0.3333333333333333,5e-324\n"
        "99,0.30000000000000004,1e+16,1e+16,0.30000000000000004,nan,1e+16\n"
        "1000,0.3333333333333333,5e-324,0.30000000000000004,1e+16,-0.0,0.30000000000000004\n"
        "1000000000000,nan,-0.0,0.3333333333333333,5e-324,5e-324,0.3333333333333333\n")
    stochastic = hand_built_series(("ng", "lsum", "min_pi", "q_inf", "v_inf", "v_err"),
                                   [[0, 0], [0, 5], [1, 0], [1, 5], [2, 0], [12, 3]])
    assert _csv_text("stochastic", stochastic) == (
        "t,k,ng_mean,ng_std,lsum,min_pi,q_inf,v_inf,v_err\n"
        "0,0,-0.0,nan,nan,1e+16,nan,0.3333333333333333,5e-324\n"
        "0,5,5e-324,0.3333333333333333,-0.0,0.30000000000000004,-0.0,nan,1e+16\n"
        "1,0,1e+16,0.30000000000000004,5e-324,0.3333333333333333,5e-324,-0.0,0.30000000000000004\n"
        "1,5,0.30000000000000004,1e+16,1e+16,nan,1e+16,5e-324,0.3333333333333333\n"
        "2,0,0.3333333333333333,5e-324,0.30000000000000004,-0.0,0.30000000000000004,1e+16,nan\n"
        "12,3,nan,-0.0,0.3333333333333333,5e-324,0.3333333333333333,0.30000000000000004,-0.0\n")


def test_run_experiment_derives_trajectory_seeds(monkeypatch):
    # each point's key is hashed once, and trajectory j's seed is still
    # trajectory_seed(base_seed, point, j), for both kernels
    sweep = {"tau": [0.2, 0.5], "K": [4, 6]}
    hashed = []

    def key(point):
        hashed.append(point)
        return sweep_point_key(point)
    for cfg in (matrix_config(sweep=sweep, n_trajectories=3),
                ExperimentConfig(kind="stochastic", game=SG_MP, run=sg_template(),
                                 n_trajectories=3, base_seed=5, sweep=sweep)):
        hashed.clear()
        with monkeypatch.context() as patch:
            patch.setattr("zsdyn.harness.sweep_point_key", key)
            bundle = run_experiment(cfg, keep_records=True)
        assert hashed == cfg.sweep_points()
        for point_result in bundle.points:
            assert len(point_result.records) == 3
            for j, rec in enumerate(point_result.records):
                expected = trajectory_seed(cfg.base_seed, point_result.point, j)
                assert rec.config_echo["seed"] == expected


def test_run_experiment_discards_records_by_default():
    bundle = run_experiment(matrix_config())
    assert bundle.points[0].records == ()
    assert bundle.out_dir is None


def test_run_experiment_stride_equal_to_k_gives_one_row(tmp_path):
    cfg = matrix_config(run=matrix_template(record_stride=40),
                        out_dir=str(tmp_path))
    run_experiment(cfg)
    lines = (tmp_path / "point_0000.csv").read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].split(",")[0] == "40"


def test_run_experiment_stochastic_inline_game(tmp_path):
    cfg = ExperimentConfig(kind="stochastic", game=SG_MP, run=sg_template(),
                           n_trajectories=2, base_seed=3,
                           out_dir=str(tmp_path))
    bundle = run_experiment(cfg)
    lines = (tmp_path / "point_0000.csv").read_text().splitlines()
    assert lines[0] == ",".join(STOCHASTIC_CSV_COLUMNS)
    # rows: initial (0,0), strides, round ends, final (T,0) marker
    first = lines[1].split(",")
    assert (first[0], first[1]) == ("0", "0")
    last = lines[-1].split(",")
    assert (last[0], last[1]) == ("2", "0")
    names = {s.name for s in bundle.points[0].aggregates}
    assert "v_err" in names and "lsum" in names


def test_run_experiment_rejects_kind_game_mismatch():
    cfg = ExperimentConfig(kind="stochastic", game="builtin:mp",
                           run=sg_template(), n_trajectories=1, base_seed=0)
    with pytest.raises(BadConfig, match="stochastic"):
        run_experiment(cfg)
    cfg = matrix_config(game=SG_MP)
    with pytest.raises(BadConfig, match="matrix"):
        run_experiment(cfg)


# ---------------------------------------------------------------------------
# Command-line interface
# ---------------------------------------------------------------------------

def write_json(path, obj):
    path.write_text(json.dumps(obj) + "\n")
    return str(path)


def run_config_file(tmp_path, **extra):
    doc = {"run": matrix_template(), "n_trajectories": 2, "base_seed": 11}
    doc.update(extra)
    return write_json(tmp_path / "run.json", doc)


def test_cli_matrix_run_writes_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    rc = cli_main(["matrix-run", "--game", "builtin:mp",
                   "--config", run_config_file(tmp_path),
                   "--out", str(out)])
    assert rc == 0
    assert sorted(os.listdir(out)) == ["manifest.json", "point_0000.csv"]
    header = (out / "point_0000.csv").read_text().splitlines()[0]
    assert header == ",".join(MATRIX_CSV_COLUMNS)
    progress = capsys.readouterr().out
    assert "point_0000" in progress and "wrote 1 sweep point" in progress


def test_cli_quiet_suppresses_progress(tmp_path, capsys):
    rc = cli_main(["--quiet", "matrix-run", "--game", "builtin:mp",
                   "--config", run_config_file(tmp_path),
                   "--out", str(tmp_path / "out")])
    assert rc == 0
    assert capsys.readouterr().out == ""


def test_cli_run_config_must_not_carry_game(tmp_path, capsys):
    cfg = run_config_file(tmp_path, game="builtin:rps")
    rc = cli_main(["matrix-run", "--game", "builtin:mp", "--config", cfg,
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_cli_run_requires_a_seed(tmp_path, capsys):
    doc = {"run": matrix_template(), "n_trajectories": 1}
    cfg = write_json(tmp_path / "noseed.json", doc)
    rc = cli_main(["matrix-run", "--game", "builtin:mp", "--config", cfg,
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "seed" in capsys.readouterr().err


def test_cli_seed_and_stride_overrides(tmp_path):
    out = tmp_path / "out"
    rc = cli_main(["--quiet", "--seed", "99", "--stride", "20",
                   "matrix-run", "--game", "builtin:mp",
                   "--config", run_config_file(tmp_path),
                   "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["base_seed"] == 99
    assert manifest["config"]["run"]["record_stride"] == 20
    lines = (out / "point_0000.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in lines[1:]] == ["20", "40"]


def test_cli_refuses_then_forces_overwrite(tmp_path, capsys):
    out = str(tmp_path / "out")
    base = ["matrix-run", "--game", "builtin:mp",
            "--config", run_config_file(tmp_path), "--out", out]
    assert cli_main(["--quiet"] + base) == 0
    assert cli_main(["--quiet"] + base) == 2
    assert "force" in capsys.readouterr().err
    assert cli_main(["--quiet", "--force"] + base) == 0


def test_cli_sg_run_with_game_file(tmp_path):
    game_file = write_json(tmp_path / "game.json", SG_MP)
    cfg = write_json(tmp_path / "sg.json",
                     {"run": sg_template(), "n_trajectories": 2,
                      "base_seed": 5})
    out = tmp_path / "out"
    rc = cli_main(["--quiet", "sg-run", "--game", game_file,
                   "--config", cfg, "--out", str(out)])
    assert rc == 0
    header = (out / "point_0000.csv").read_text().splitlines()[0]
    assert header.startswith("t,k,")


def test_cli_sweep_full_config(tmp_path):
    doc = {"kind": "matrix", "game": "builtin:mp", "run": matrix_template(),
           "n_trajectories": 2, "base_seed": 4,
           "sweep": {"tau": [0.2, 0.5]}}
    cfg = write_json(tmp_path / "sweep.json", doc)
    out = tmp_path / "out"
    rc = cli_main(["--quiet", "sweep", "--config", cfg, "--out", str(out)])
    assert rc == 0
    assert sorted(os.listdir(out)) == [
        "manifest.json", "point_0000.csv", "point_0001.csv"]


def test_cli_sweep_requires_out_dir(tmp_path, capsys):
    doc = {"kind": "matrix", "game": "builtin:mp", "run": matrix_template(),
           "n_trajectories": 1, "base_seed": 4}
    cfg = write_json(tmp_path / "sweep.json", doc)
    rc = cli_main(["--quiet", "sweep", "--config", cfg])
    assert rc == 2
    assert "output directory" in capsys.readouterr().err


def test_cli_run_rejects_non_object_config(tmp_path, capsys):
    cfg = write_json(tmp_path / "list.json", [matrix_template()])
    rc = cli_main(["matrix-run", "--game", "builtin:mp", "--config", cfg,
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "JSON object" in capsys.readouterr().err


def test_cli_stride_with_non_object_run_exits_2(tmp_path, capsys):
    cfg = write_json(tmp_path / "run.json", {"run": [1, 2], "base_seed": 1})
    rc = cli_main(["--stride", "5", "matrix-run", "--game", "builtin:mp",
                   "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "run must be" in capsys.readouterr().err


@pytest.mark.parametrize("game, policy", [
    ("{not json", None),
    ({"type": "matrix", "R2": [[0.0]]}, None),
    ({"type": "stochastic", "R1": [[[0.0]]], "gamma": 0.5}, None),
    ("builtin:zz", None),
    ("builtin:appF:N=x", None),
    ("builtin:appF:N=-1", None),
    ("builtin:mp", {"pi1": [[0.5, 0.5], [1.0]], "pi2": [0.5, 0.5]}),
    ("builtin:mp", "{not json"),
    ({"type": "matrix", "R1": [[0.5, -0.5], [-0.5, 0.5]], "r2": [[0, 0], [0, 0]]}, None),
    ({"type": "stochastic", "transition": [[[[1.0]]]], "R1": [[["0.5"]]], "gamma": "0.5"},
     None),
    ({"type": "matrix", "R1": [[True, False], [False, True]]}, None),
], ids=["game-invalid-json", "matrix-missing-R1", "stochastic-missing-transition",
        "unknown-builtin", "appF-not-int", "appF-negative", "ragged-policy",
        "policy-invalid-json", "matrix-unknown-key", "stochastic-string-values",
        "matrix-bool-values"])
def test_cli_bad_game_or_policy_exits_2(tmp_path, capsys, game, policy):
    def as_file(name, doc):
        path = tmp_path / name
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        return str(path)

    if not (isinstance(game, str) and game.startswith("builtin:")):
        game = as_file("game.json", game)
    if policy is None:
        argv = ["oracle", "value", "--game", game]
    else:
        argv = ["oracle", "ng", "--game", game,
                "--policy", as_file("policy.json", policy)]
    assert cli_main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["nashdist", "--tau", "0"],
    ["nashdist", "--tau", "0.3", "--damping", "2"],
    ["ngtau", "--tau", "-1"],
], ids=["nashdist-tau-0", "nashdist-damping-2", "ngtau-tau-negative"])
def test_cli_bad_numeric_argument_exits_2(tmp_path, capsys, argv):
    if argv[0] == "ngtau":
        argv = argv + ["--policy", write_json(tmp_path / "policy.json",
                                              {"pi1": [1 / 3] * 3, "pi2": [1 / 3] * 3})]
    assert cli_main(["oracle", argv[0], "--game", "builtin:rps"] + argv[1:]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["oracle", "ng", "--game", "builtin:mp", "--tol", "nan"],
    ["oracle", "ng", "--game", "builtin:mp", "--tol", "1e-6"],
    ["--seed", "5", "--stride", "3", "oracle", "value", "--game", "builtin:mp"],
    ["--seed", "0", "oracle", "value", "--game", "builtin:mp"],
    ["--force", "oracle", "value", "--game", "builtin:mp"],
    ["--quiet", "oracle", "value", "--game", "builtin:mp"],
], ids=["matrix-ng-tol-nan", "matrix-ng-tol", "oracle-seed-stride", "oracle-seed-0",
        "oracle-force", "oracle-quiet"])
def test_cli_rejects_flags_it_would_ignore(tmp_path, capsys, argv):
    if "ng" in argv:
        argv = argv + ["--policy", write_json(tmp_path / "policy.json",
                                              {"pi1": [0.5, 0.5], "pi2": [0.5, 0.5]})]
    assert cli_main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_oracle_ng_stochastic_tol(tmp_path, capsys):
    # --tol defaults to 1e-6 for a stochastic game, and a NaN one is an error
    game = _random_stochastic_game(83)
    argv = ["oracle", "ng", "--game", write_json(tmp_path / "g.json", game), "--policy",
            write_json(tmp_path / "p.json", {"pi1": [[0.5, 0.5]] * 3, "pi2": [[0.5, 0.5]] * 3})]
    joint = uniform_joint_policy(load_game(game))
    for extra, tol in (([], 1e-6), (["--tol", "1e-3"], 1e-3)):
        assert cli_main(argv + extra) == 0
        assert json.loads(capsys.readouterr().out) == {
            "ng": nash_gap_stochastic(load_game(game), joint, tol=tol)}
    assert cli_main(argv + ["--tol", "nan"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_oracle_value_matrix(capsys):
    rc = cli_main(["oracle", "value", "--game", "builtin:mp"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["value"]) <= 1e-9
    assert np.allclose(doc["maximin"], [0.5, 0.5], atol=1e-6)
    assert np.allclose(doc["minimax"], [0.5, 0.5], atol=1e-6)


def test_cli_oracle_value_stochastic(tmp_path, capsys):
    game_file = write_json(tmp_path / "game.json", SG_MP)
    rc = cli_main(["oracle", "value", "--game", game_file])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    v1 = np.asarray(doc["v1"])
    v2 = np.asarray(doc["v2"])
    assert np.abs(v1).max() <= 1e-5
    assert np.abs(v1 + v2).max() <= 1e-5


def test_cli_oracle_value_stochastic_reports_v2_as_minus_v1(tmp_path, capsys):
    game = _random_stochastic_game(83, shape=(3, 2, 3))
    assert cli_main(["oracle", "value", "--game", write_json(tmp_path / "g.json", game)]) == 0
    doc = json.loads(capsys.readouterr().out)
    # one fixed point, negated for player 2: the values cancel exactly
    assert np.array_equal(np.add(doc["v1"], doc["v2"]), np.zeros(3))
    assert doc["v1"] == minimax_fixed_point(load_game(game), 1).tolist()


def test_cli_oracle_ng(tmp_path, capsys):
    policy = write_json(tmp_path / "policy.json",
                        {"pi1": [0.0, 1.0], "pi2": [0.0, 1.0]})
    rc = cli_main(["oracle", "ng", "--game", "builtin:mp",
                   "--policy", policy])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["ng"] - 2.0) <= 1e-12


def test_cli_oracle_ngtau_uniform_is_zero(tmp_path, capsys):
    policy = write_json(tmp_path / "policy.json",
                        {"pi1": [0.5, 0.5], "pi2": [0.5, 0.5]})
    rc = cli_main(["oracle", "ngtau", "--game", "builtin:mp",
                   "--policy", policy, "--tau", "1.0"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ngtau"] == 0.0


def test_cli_oracle_ngtau_rejects_stochastic(tmp_path, capsys):
    game_file = write_json(tmp_path / "game.json", SG_MP)
    policy = write_json(tmp_path / "policy.json",
                        {"pi1": [[0.5, 0.5]], "pi2": [[0.5, 0.5]]})
    rc = cli_main(["oracle", "ngtau", "--game", game_file,
                   "--policy", policy, "--tau", "1.0"])
    assert rc == 2
    assert "matrix" in capsys.readouterr().err


def test_cli_oracle_nashdist(capsys):
    rc = cli_main(["oracle", "nashdist", "--game", "builtin:mp",
                   "--tau", "0.5"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert np.allclose(doc["pi1"], [0.5, 0.5], atol=1e-9)
    assert np.allclose(doc["pi2"], [0.5, 0.5], atol=1e-9)
    assert doc["residual"] <= 1e-10


def test_cli_oracle_nashdist_rejects_stochastic(tmp_path, capsys):
    game_file = write_json(tmp_path / "game.json", SG_MP)
    rc = cli_main(["oracle", "nashdist", "--game", game_file,
                   "--tau", "0.5"])
    assert rc == 2
    assert "matrix" in capsys.readouterr().err


def test_cli_missing_files_exit_cleanly(tmp_path, capsys):
    rc = cli_main(["oracle", "value", "--game",
                   str(tmp_path / "absent.json")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    rc = cli_main(["matrix-run", "--game", "builtin:mp",
                   "--config", str(tmp_path / "absent.json"),
                   "--out", str(tmp_path / "out")])
    assert rc == 2


# ---------------------------------------------------------------------------
# Package surface
# ---------------------------------------------------------------------------

def test_package_all_is_the_imported_public_names():
    import pkgutil

    import zsdyn

    submodules = {m.name for m in pkgutil.iter_modules(zsdyn.__path__)}
    assert "harness" in submodules and "__version__" in zsdyn.__all__
    assert len(set(zsdyn.__all__)) == len(zsdyn.__all__)
    for name in zsdyn.__all__:
        getattr(zsdyn, name)
        assert name not in submodules
    namespace = {}
    exec("from zsdyn import *", namespace)
    assert set(zsdyn.__all__) <= set(namespace)
    assert namespace["run_experiment"] is run_experiment
