"""Seeded multi-trajectory experiments: sweeps, aggregation, CSV/JSON output.

Seed derivation (documented contract): the seed of trajectory j at a sweep
point is

    splitmix64(splitmix64(base_seed XOR point_key) XOR j)

where point_key is the first 8 bytes (big-endian) of the BLAKE2b digest of
the sweep point's canonical JSON {axis: value, ...} with sorted keys. The
key depends only on the point's own axis values, never on the position of
the point in the grid, so reordering an axis's value list or adding axes
elsewhere leaves every trajectory's seed unchanged and points can run in
parallel in any order.

A kernel call runs whole sweep points, as many as fit in 128 trajectories
(at least one), and its points share one statistics pass over stacked
arrays; a point's statistics are the same bits whichever points share its
pass.
CSV cells use the shortest round-trip decimal representation of each float
(Python repr), so identical runs produce byte-identical files.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os
from dataclasses import dataclass, field
from typing import Any, ClassVar

import numpy as np

from .config import DictConfig, MatrixRunConfig, VisbrConfig, _is_int, _require
from .errors import GridMismatch, NonPositiveValues, OutputExists
from .games import MatrixGame, StochasticGame, TrajectoryRecord, game_hash, load_game
from .matrix_dyn import run_matrix_dynamics
from .visbr import run_visbr

_M64 = (1 << 64) - 1

_SWEEP_AXES = {
    "matrix": ("tau", "eps_bar", "schedule", "K"),
    "stochastic": ("tau", "eps_bar", "schedule", "K", "T"),
}

MATRIX_CSV_COLUMNS = ("k", "ng_mean", "ng_std", "ngtau_mean", "ngtau_std",
                      "min_pi", "q_inf")
STOCHASTIC_CSV_COLUMNS = ("t", "k", "ng_mean", "ng_std", "lsum", "min_pi",
                          "q_inf", "v_inf", "v_err")

# trajectories per kernel call, in whole points: larger calls run the matrix
# kernel faster per step and solve a stochastic game's v* and ergodicity
# check fewer times, but a call holds max(_BATCH_TRAJECTORIES,
# n_trajectories) records at once
_BATCH_TRAJECTORIES = 128


def splitmix64(x: int) -> int:
    """One output of the splitmix64 generator seeded at x."""
    x = (x + 0x9E3779B97F4A7C15) & _M64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return (z ^ (z >> 31)) & _M64


def sweep_point_key(point: dict[str, Any]) -> int:
    """64-bit content key of a sweep point; independent of grid ordering."""
    blob = json.dumps(point, sort_keys=True, separators=(",", ":")).encode()
    return int.from_bytes(hashlib.blake2b(blob, digest_size=8).digest(), "big")


def _point_seed(base_seed: int, point: dict[str, Any]) -> int:
    return splitmix64(base_seed ^ sweep_point_key(point))


def trajectory_seed(base_seed: int, point: dict[str, Any], j: int) -> int:
    """Seed for trajectory j at the given sweep point."""
    return splitmix64(_point_seed(base_seed, point) ^ j)


@dataclass(frozen=True)
class ExperimentConfig(DictConfig):
    """One experiment: a game, a run template, sweep axes, and seeding.

    run is a run-config dict without the seed field; seeds are derived per
    trajectory. sweep maps axis names to value lists; the run executes at
    every point of the cross product. Both are copied, and every point's run
    config is built, at construction: edits made later are never run.
    """

    label: ClassVar[str] = "experiment config"

    kind: str
    game: Any
    run: dict[str, Any]
    n_trajectories: int
    base_seed: int
    sweep: dict[str, list] = field(default_factory=dict)
    out_dir: str | None = None
    sweep_cap: int = 10_000

    def __post_init__(self) -> None:
        _require(self.kind in ("matrix", "stochastic"),
                 f"kind must be 'matrix' or 'stochastic', got {self.kind!r}")
        _require(isinstance(self.game, (str, dict)),
                 "game must be a source string or an inline dict")
        _require(self.out_dir is None or isinstance(self.out_dir, str),
                 f"out_dir must be a path string or null, got {self.out_dir!r}")
        _require(isinstance(self.run, dict), "run must be a run-config dict")
        _require("seed" not in self.run,
                 "run template must not carry a seed; seeds are derived per trajectory")
        _require(_is_int(self.n_trajectories) and self.n_trajectories >= 1,
                 f"n_trajectories must be an integer >= 1, got {self.n_trajectories!r}")
        _require(_is_int(self.base_seed) and 0 <= self.base_seed < 2 ** 64,
                 f"base_seed must be an integer in [0, 2^64), got {self.base_seed!r}")
        allowed = _SWEEP_AXES[self.kind]
        _require(isinstance(self.sweep, dict), "sweep must be a dict of axis lists")
        total = 1
        for axis, values in self.sweep.items():
            _require(axis in allowed,
                     f"sweep axis {axis!r} not allowed for kind {self.kind!r}; "
                     f"allowed: {allowed}")
            _require(isinstance(values, list) and len(values) >= 1,
                     f"sweep axis {axis!r} must be a non-empty list")
            total *= len(values)
        object.__setattr__(self, "run", dict(self.run))
        object.__setattr__(self, "sweep", {k: list(v) for k, v in self.sweep.items()})
        _require(_is_int(self.sweep_cap) and self.sweep_cap >= 1,
                 "sweep_cap must be a positive integer")
        _require(total <= self.sweep_cap,
                 f"sweep cross product has {total} points, above the cap "
                 f"{self.sweep_cap}")
        # every sweep point must yield a valid run config once a seed is
        # supplied; swept axes may be absent from the template. The configs,
        # seed 0 and in sweep order, are kept outside the fields, so to_dict,
        # == and the manifest do not see them
        cls = MatrixRunConfig if self.kind == "matrix" else VisbrConfig
        object.__setattr__(self, "_run_configs", [cls.from_dict({**self.run, **point, "seed": 0})
                                                 for point in self.sweep_points()])

    def sweep_points(self) -> list[dict[str, Any]]:
        """Cross product of axis values; axes in sorted name order."""
        if not self.sweep:
            return [{}]
        axes = sorted(self.sweep)
        return [dict(zip(axes, combo))
                for combo in itertools.product(*(self.sweep[a] for a in axes))]


@dataclass(frozen=True)
class AggregateSeries:
    """Per-index statistics of one metric across trajectories."""

    name: str
    index: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    median: np.ndarray
    min: np.ndarray
    max: np.ndarray
    n: int


def aggregate(runs: list[TrajectoryRecord]) -> list[AggregateSeries]:
    """Elementwise statistics over trajectories sharing one index grid; the
    one-point case of run_experiment's pass over a kernel call's points."""
    return _aggregate_points([runs])[0]


def _aggregate_points(points: list[list[TrajectoryRecord]]) -> list[list[AggregateSeries]]:
    # aggregate() of each point. The points of one index grid, metric list
    # and trajectory count form a (point, metric, trajectory, row) stack,
    # reduced over trajectories at once. Trajectories just before rows make
    # numpy add as for one point's (trajectory, row) stack, pairwise when
    # there is one row; another order moves bits from 8 trajectories on.
    groups: dict[tuple, list[int]] = {}
    for p, runs in enumerate(points):
        if not runs:
            raise GridMismatch("need at least one record to aggregate")
        first = runs[0]
        names = tuple(first.series)
        for rec in runs[1:]:
            if not np.array_equal(rec.index, first.index):
                raise GridMismatch("records disagree on the (t, k) index grid")
            if tuple(rec.series) != names:
                raise GridMismatch(
                    f"records disagree on metrics: {list(rec.series)} vs {list(names)}")
        if names:
            groups.setdefault((first.index.tobytes(), names, len(runs)), []).append(p)
    out: list[list[AggregateSeries]] = [[] for _ in points]
    for (_, names, n), members in groups.items():
        values = np.stack([points[p][j].series[name] for p in members
                           for name in names for j in range(n)])
        values = values.reshape(len(members), len(names), n, *values.shape[1:])
        stats = (values.mean(axis=2), values.std(axis=2), np.median(values, axis=2),
                 values.min(axis=2), values.max(axis=2))
        for g, p in enumerate(members):
            index = points[p][0].index
            out[p] = [AggregateSeries(name, index.copy(), *(s[g, m] for s in stats), n)
                      for m, name in enumerate(names)]
    return out


_STATS = ("mean", "std", "median", "min", "max")  # the statistics rate_fit can fit


def rate_fit(series: AggregateSeries, k_min: int, stat: str = "mean") -> float:
    """OLS slope of log(stat) against log(k) over rows with k >= k_min.

    k is the inner-index column of the series grid, and stat one of
    mean, std, median, min and max. All selected values must be strictly
    positive.
    """
    if stat not in _STATS:
        raise ValueError(f"stat must be one of {', '.join(_STATS)}, got {stat!r}")
    k = series.index[:, 1].astype(np.float64)
    values = np.asarray(getattr(series, stat), dtype=np.float64)
    mask = k >= k_min
    k, values = k[mask], values[mask]
    if k.size < 2:
        raise ValueError(f"need at least 2 rows with k >= {k_min}, got {k.size}")
    if np.any(values <= 0.0) or not np.all(np.isfinite(values)):
        raise NonPositiveValues(
            f"rate_fit needs positive finite values beyond k_min={k_min}")
    if np.any(k <= 0.0):
        raise NonPositiveValues("rate_fit needs positive k indices")
    return float(np.polyfit(np.log(k), np.log(values), 1)[0])


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------

def _atomic_write(path: str, data: str) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


_WORST_CASE = {"min_pi": "min", "q_inf": "max", "v_inf": "max"}


def _csv_text(kind: str, aggregates: list[AggregateSeries]) -> str:
    """Fixed-schema CSV, a column at a time: the t and k index, then mean/std
    for the gap metrics, worst case for the bound metrics (min over
    trajectories for min_pi, max for q_inf and v_inf), mean for the drift
    diagnostics (lsum, v_err), each as repr(float(x))."""
    by_name = {s.name: s for s in aggregates}
    index = aggregates[0].index
    columns = MATRIX_CSV_COLUMNS if kind == "matrix" else STOCHASTIC_CSV_COLUMNS
    cells = [map(str, index[:, ("t", "k").index(c)].tolist())
             for c in columns if c in ("t", "k")]
    for col in columns[len(cells):]:
        if col.endswith(("_mean", "_std")):
            name, _, stat = col.rpartition("_")
        else:
            name, stat = col, _WORST_CASE.get(col, "mean")
        values = np.asarray(getattr(by_name[name], stat), dtype=np.float64)
        cells.append(map(repr, values.tolist()))
    return "\n".join([",".join(columns), *map(",".join, zip(*cells))]) + "\n"


@dataclass(frozen=True)
class PointResult:
    """Everything produced at one sweep point."""

    point: dict[str, Any]
    label: str
    aggregates: list[AggregateSeries]
    warnings: tuple[str, ...]
    records: tuple[TrajectoryRecord, ...]


@dataclass(frozen=True)
class ExperimentBundle:
    """run_experiment output: per-point results plus the manifest dict."""

    config: ExperimentConfig
    points: list[PointResult]
    manifest: dict[str, Any]
    out_dir: str | None


def _point_results(config: ExperimentConfig, game):
    # yields (point, its records, their aggregates) in sweep order; each
    # kernel call runs whole points up to _BATCH_TRAJECTORIES trajectories,
    # which bounds the records held. Each call's points share one statistics
    # pass; each key is hashed once.
    n = config.n_trajectories
    per_call = max(1, _BATCH_TRAJECTORIES // n)
    points = config.sweep_points()
    for first in range(0, len(points), per_call):
        batch = points[first:first + per_call]
        # one validated config per point; its trajectories differ by seed only
        templates = config._run_configs[first:first + per_call]
        keys = [_point_seed(config.base_seed, point) for point in batch]
        configs = [c._with_seed(splitmix64(key ^ j))
                   for key, c in zip(keys, templates) for j in range(n)]
        records = (run_matrix_dynamics(game, configs) if config.kind == "matrix"
                   else run_visbr(game, configs))
        per_point = [records[m * n:(m + 1) * n] for m in range(len(batch))]
        yield from zip(batch, per_point, _aggregate_points(per_point))


def run_experiment(config: ExperimentConfig, *, force: bool = False,
                   quiet: bool = True, keep_records: bool = False) -> ExperimentBundle:
    """Execute every (sweep point, trajectory) run, aggregate, write files.

    Writes point_NNNN.csv per sweep point plus manifest.json when out_dir
    is set; refuses to overwrite existing outputs unless force is given,
    and then deletes the point CSVs this run does not write.
    keep_records retains the raw per-trajectory records on each PointResult
    (memory permitting) for library callers.
    """
    from . import __version__

    out_dir = config.out_dir
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        manifest_path = os.path.join(out_dir, "manifest.json")
        existing = [name for name in sorted(os.listdir(out_dir)) if name == "manifest.json"
                    or (name.startswith("point_") and name.endswith(".csv"))]
        if existing and not force:
            raise OutputExists(
                f"{out_dir} already holds {existing[:3]}; pass force to overwrite")

    game = load_game(config.game)
    _require(isinstance(game, MatrixGame if config.kind == "matrix" else StochasticGame),
             f"kind {config.kind!r} needs a {config.kind} game source")
    points = []
    warnings_manifest: dict[str, list[str]] = {}
    for i, (point, records, aggregates) in enumerate(_point_results(config, game)):
        label = f"point_{i:04d}"
        # each distinct warning once, in order of first appearance
        warnings = list(dict.fromkeys(w for rec in records for w in rec.warnings))
        if not quiet:
            print(f"{label}: {point if point else 'no sweep'}"
                  f" ({config.n_trajectories} trajectories)")
            for w in warnings:
                print(f"  warning: {w}")
        if out_dir is not None:
            _atomic_write(os.path.join(out_dir, f"{label}.csv"),
                          _csv_text(config.kind, aggregates))
        warnings_manifest[label] = warnings
        points.append(PointResult(
            point=point, label=label, aggregates=aggregates,
            warnings=tuple(warnings),
            records=tuple(records) if keep_records else ()))

    manifest = {
        "config": config.to_dict(),
        "warnings": warnings_manifest,
        "condition_notes": ("closed-form stepsize checks only; remaining "
                            "conditions depend on analysis constants that are "
                            "not machine-checkable"),
        "tool_version": __version__,
        "game_hash": game_hash(game),
    }
    if out_dir is not None:
        for name in set(existing) - {"manifest.json"} - {f"{p.label}.csv" for p in points}:
            os.remove(os.path.join(out_dir, name))
        _atomic_write(manifest_path,
                      json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return ExperimentBundle(config=config, points=points, manifest=manifest,
                            out_dir=out_dir)
