"""Game descriptions, joint policies, and trajectory records.

Immutable, validated containers shared by every other module. Payoff
matrices are required to lie in [-1, 1] entrywise and are rejected rather
than rescaled when they do not, so that the temperature values quoted in
experiment configs keep their meaning. Each player's payoff table is
indexed (own action, opponent action); for stochastic games a leading
state axis is added.
"""

from __future__ import annotations

import hashlib
import json
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    BadDiscount,
    BadGameSource,
    BadTransitionRow,
    DimensionMismatch,
    NotADistribution,
    NotZeroSum,
    PayoffOutOfRange,
)

ZERO_SUM_TOL = 1e-12
DIST_TOL = 1e-12


def _as_float_array(x, name: str, ndim: int | None) -> np.ndarray:
    # ndim None leaves the number of axes to the caller
    try:
        arr = np.asarray(x, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise DimensionMismatch(f"{name} is not a rectangular numeric array: {exc}") from None
    if ndim is not None and arr.ndim != ndim:
        raise DimensionMismatch(f"{name} must have {ndim} axes, got shape {arr.shape}")
    if arr.size == 0:
        raise DimensionMismatch(f"{name} must be non-empty")
    return arr


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.float64, order="C", copy=True)
    out.setflags(write=False)
    return out


def _check_payoff_range(arr: np.ndarray, name: str) -> None:
    if not np.isfinite(arr).all():
        raise PayoffOutOfRange(f"{name} contains non-finite entries")
    worst = float(np.abs(arr).max())
    if worst > 1.0:
        raise PayoffOutOfRange(f"{name} entries must satisfy |r| <= 1, max |r| is {worst}")


def _payoff_pair(R1, R2, ndim: int,
                 require_zero_sum: bool) -> tuple[np.ndarray, np.ndarray, bool]:
    """Validate payoff tables with the action axes last: R1[..., a1, a2] and
    R2[..., a2, a1]. R2 defaults to -R1 with the action axes swapped.
    Returns (R1, R2, zero_sum)."""
    r1 = _as_float_array(R1, "R1", ndim)
    r2 = -np.swapaxes(r1, -1, -2) if R2 is None else _as_float_array(R2, "R2", ndim)
    want = r1.shape[:-2] + (r1.shape[-1], r1.shape[-2])
    if r2.shape != want:
        raise DimensionMismatch(f"R2 must have shape {want}, got {r2.shape}")
    _check_payoff_range(r1, "R1")
    _check_payoff_range(r2, "R2")
    defect = float(np.abs(r1 + np.swapaxes(r2, -1, -2)).max())
    zero_sum = defect <= ZERO_SUM_TOL
    if require_zero_sum and not zero_sum:
        raise NotZeroSum(f"max |R1 + R2 (action axes swapped)| = {defect} "
                         f"exceeds {ZERO_SUM_TOL}")
    return r1, r2, zero_sum


def _check_distributions(table: np.ndarray, name: str) -> None:
    """Require each row (last axis) to be finite, non-negative and to sum to 1
    within DIST_TOL, in one vectorised pass; the error names the first bad row."""
    rows = table.reshape(-1, table.shape[-1])
    sums = rows.sum(axis=1)  # a non-finite entry makes its row's sum non-finite
    bad = (rows < 0.0).any(axis=1) | ~(np.abs(sums - 1.0) <= DIST_TOL)
    if bad.any():
        s = int(bad.argmax())
        at = ", ".join(str(int(i)) for i in np.unravel_index(s, table.shape[:-1]))
        where = name if table.ndim == 1 else f"{name} row {at}"
        raise NotADistribution(f"{where} is not a distribution within {DIST_TOL}: "
                               f"sum {sums[s]}, smallest entry {rows[s].min()}")


# ---------------------------------------------------------------------------
# Structural equality and the shared game interface
# ---------------------------------------------------------------------------

def _same(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[key], b[key]) for key in a)
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


class _Structural:
    """== over the dataclass fields: arrays by value, dicts and tuples
    elementwise."""

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(_same(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))


class _Game(_Structural):
    """What matrix and stochastic games share: payoff tables whose last two
    axes are (own action, opponent action)."""

    @property
    def n_actions_1(self) -> int:
        return self.R1.shape[-2]

    @property
    def n_actions_2(self) -> int:
        return self.R1.shape[-1]

    @property
    def a_max(self) -> int:
        return max(self.n_actions_1, self.n_actions_2)


def check_zero_sum_game(game, kind: type) -> None:
    """The learning dynamics' guard: `game` is a validated zero-sum `kind`."""
    if not isinstance(game, kind):
        raise DimensionMismatch(f"expected a {kind.__name__}, got {type(game).__name__}")
    if not game.zero_sum:
        raise NotZeroSum("the learning dynamics assume a zero-sum game")


# ---------------------------------------------------------------------------
# Matrix games
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MatrixGame(_Game):
    """Two-player matrix game with payoffs normalized into [-1, 1].

    R1 has shape (n1, n2), R2 has shape (n2, n1). zero_sum records whether
    R1 + R2^T vanishes to tolerance; learning-dynamics runs require it,
    the generalized-gap diagnostic does not.
    """

    R1: np.ndarray
    R2: np.ndarray
    zero_sum: bool


def validate_matrix_game(R1, R2=None, require_zero_sum: bool = True) -> MatrixGame:
    """Validate a payoff pair into a MatrixGame.

    R2 defaults to -R1^T. Raises DimensionMismatch, PayoffOutOfRange, or
    NotZeroSum (the latter only when require_zero_sum). Validating an
    already-validated game returns an equal game.
    """
    if isinstance(R1, MatrixGame):
        return validate_matrix_game(R1.R1, R1.R2, require_zero_sum)
    r1, r2, zero_sum = _payoff_pair(R1, R2, 2, require_zero_sum)
    return MatrixGame(R1=_frozen(r1), R2=_frozen(r2), zero_sum=zero_sum)


# ---------------------------------------------------------------------------
# Stochastic games
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class StochasticGame(_Game):
    """Tabular discounted two-player zero-sum stochastic game.

    transition[s, a1, a2, s'] is the probability of moving to s'; R1 is
    indexed (s, a1, a2) and R2 (s, a2, a1), each player seeing (state, own
    action, opponent action). initial_dist is the start-state distribution,
    uniform when the description omitted it.
    """

    transition: np.ndarray
    R1: np.ndarray
    R2: np.ndarray
    gamma: float
    initial_dist: np.ndarray
    zero_sum: bool

    @property
    def n_states(self) -> int:
        return self.transition.shape[0]


def validate_stochastic_game(transition, R1, R2=None, gamma: float | None = None,
                             initial_dist=None, require_zero_sum: bool = True) -> StochasticGame:
    """Validate a raw description into a StochasticGame.

    R2 defaults to the antisymmetric counterpart -R1 with the action axes
    swapped; initial_dist defaults to uniform.
    """
    if isinstance(transition, StochasticGame):
        g = transition
        return validate_stochastic_game(g.transition, g.R1, g.R2, g.gamma,
                                        g.initial_dist, require_zero_sum)
    p = _as_float_array(transition, "transition", 4)
    r1, r2, zero_sum = _payoff_pair(R1, R2, 3, require_zero_sum)
    n_states, n_a1, n_a2 = r1.shape
    if p.shape != (n_states, n_a1, n_a2, n_states):
        raise DimensionMismatch(
            f"transition must have shape {(n_states, n_a1, n_a2, n_states)}, got {p.shape}")

    if gamma is None:
        raise BadDiscount("gamma is required")
    gamma = float(gamma)
    if not (0.0 < gamma < 1.0) or not np.isfinite(gamma):
        raise BadDiscount(f"gamma must lie in (0, 1), got {gamma}")

    if not np.isfinite(p).all() or p.min() < 0.0:
        raise BadTransitionRow("transition has a negative or non-finite entry")
    row_sums = p.sum(axis=-1)
    worst = float(np.abs(row_sums - 1.0).max())
    if worst > DIST_TOL:
        raise BadTransitionRow(f"a transition row sums to 1 only within {worst}")

    if initial_dist is None:
        p_o = np.full(n_states, 1.0 / n_states)
    else:
        p_o = _as_float_array(initial_dist, "initial_dist", 1)
        if p_o.shape != (n_states,):
            raise DimensionMismatch(f"initial_dist must have shape {(n_states,)}, got {p_o.shape}")
        _check_distributions(p_o, "initial_dist")

    return StochasticGame(transition=_frozen(p), R1=_frozen(r1), R2=_frozen(r2),
                          gamma=gamma, initial_dist=_frozen(p_o),
                          zero_sum=zero_sum)


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class JointPolicy(_Structural):
    """Per-player mixed strategies; one row per state for stochastic games."""

    pi1: np.ndarray
    pi2: np.ndarray


def _policy_shapes(game) -> tuple[tuple, tuple]:
    # a policy row per state (none for a matrix game) over the player's actions
    if not isinstance(game, _Game):
        raise TypeError(f"unsupported game type {type(game).__name__}")
    return game.R1.shape[:-1], game.R2.shape[:-1]


def validate_joint_policy(pi1, pi2, game=None) -> JointPolicy:
    """Validate a policy pair. Rows must be distributions to 1e-12.

    When `game` is given the shapes are checked against it: vectors for a
    MatrixGame, (n_states, n_actions) tables for a StochasticGame.
    """
    a1 = _as_float_array(pi1, "pi1", None)
    a2 = _as_float_array(pi2, "pi2", None)
    if a1.ndim != a2.ndim or a1.ndim not in (1, 2):
        raise DimensionMismatch(
            f"policies must both be vectors or both be tables, got shapes {a1.shape}, {a2.shape}")
    if game is not None:
        want1, want2 = _policy_shapes(game)
        if a1.shape != want1 or a2.shape != want2:
            raise DimensionMismatch(
                f"policy shapes {a1.shape}, {a2.shape} do not match game "
                f"requirements {want1}, {want2}")
    _check_distributions(a1, "pi1")
    _check_distributions(a2, "pi2")
    return JointPolicy(pi1=_frozen(a1), pi2=_frozen(a2))


def uniform_joint_policy(game) -> JointPolicy:
    """The uniform joint policy for a matrix or stochastic game."""
    shape1, shape2 = _policy_shapes(game)
    return JointPolicy(pi1=_frozen(np.full(shape1, 1.0 / game.n_actions_1)),
                       pi2=_frozen(np.full(shape2, 1.0 / game.n_actions_2)))


# ---------------------------------------------------------------------------
# Trajectory records
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TrajectoryRecord(_Structural):
    """Metric series plus final iterates for one seeded run.

    index holds (t, k) rows, strictly increasing lexicographically; series
    maps each metric name to a value per row. Matrix-game runs use t = 0
    throughout. config_echo is the full resolved run configuration.
    """

    config_echo: dict
    index: np.ndarray
    series: dict
    final_policy: JointPolicy
    final_q: tuple
    final_v: tuple | None
    warnings: tuple = ()

    def __post_init__(self):
        idx = np.asarray(self.index, dtype=np.int64)
        if idx.ndim != 2 or idx.shape[1] != 2:
            raise DimensionMismatch(f"index must have shape (n, 2), got {idx.shape}")
        if idx.shape[0] > 1:
            t, k = idx[:, 0], idx[:, 1]
            increasing = (t[1:] > t[:-1]) | ((t[1:] == t[:-1]) & (k[1:] > k[:-1]))
            if not increasing.all():
                raise DimensionMismatch("index rows must be strictly increasing")
        for name, values in self.series.items():
            if len(values) != idx.shape[0]:
                raise DimensionMismatch(
                    f"series {name!r} has {len(values)} values for {idx.shape[0]} index rows")
        object.__setattr__(self, "index", idx)

    def metric(self, name: str) -> np.ndarray:
        return np.asarray(self.series[name], dtype=np.float64)


# ---------------------------------------------------------------------------
# Builtin games and file loading
# ---------------------------------------------------------------------------

def matching_pennies() -> MatrixGame:
    return validate_matrix_game([[1.0, -1.0], [-1.0, 1.0]])


def rock_paper_scissors() -> MatrixGame:
    R1 = [[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]]
    return validate_matrix_game(R1)


def tilted_rps(n: int) -> MatrixGame:
    """3x3 cyclic game whose (0,0) payoff is tilted to n, then scaled by
    1/max(n,1) so payoffs stay in [-1, 1]. Its equilibrium moves toward
    ((1/3, 2/3, 0), (0, 2/3, 1/3)) as n grows."""
    # bool is an Integral; a float such as 2.7 must not truncate to 2
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise BadGameSource(f"n must be an integer, got {n!r}")
    n = int(n)
    if n < 0:
        raise BadGameSource("n must be nonnegative")
    # divide rather than multiply by a reciprocal: n/n is exactly 1.0,
    # n * (1.0/n) rounds above 1.0 for some n and would fail range checks
    R1 = np.array([[n, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]]) / max(n, 1)
    return validate_matrix_game(R1)


_GAME_KEYS = {"matrix": ("type", "R1", "R2"),
              "stochastic": ("type", "transition", "R1", "R2", "gamma", "initial_dist")}


def _check_numbers(key: str, value) -> None:
    # a game document holds numbers, never strings or bools: nested lists
    # (or arrays) of them in every numeric field, a bare number for gamma
    value = value.tolist() if isinstance(value, np.ndarray) else value
    if key != "gamma" and isinstance(value, (list, tuple)):
        for item in value:
            if type(item) is not float:  # floats, the common leaf, need no call
                _check_numbers(key, item)
    elif isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise BadGameSource(f"game document field {key!r} holds {value!r}, not a number")


def _game_from_dict(doc: dict):
    if not isinstance(doc, dict) or "type" not in doc:
        raise DimensionMismatch("game document must be a mapping with a 'type' field")
    kind = doc["type"]
    if kind not in ("matrix", "stochastic"):
        raise DimensionMismatch(f"unknown game type {kind!r}")
    needed = ("R1",) if kind == "matrix" else ("transition", "R1")
    missing = [key for key in needed if key not in doc]
    if missing:
        raise BadGameSource(f"{kind} game document is missing {missing}")
    unknown = [key for key in doc if key not in _GAME_KEYS[kind]]
    if unknown:
        raise BadGameSource(f"{kind} game document has unknown keys {unknown}; "
                            f"expected only {list(_GAME_KEYS[kind])}")
    for key, value in doc.items():
        if key != "type" and value is not None:
            _check_numbers(key, value)
    if kind == "matrix":
        return validate_matrix_game(doc["R1"], doc.get("R2"))
    return validate_stochastic_game(doc["transition"], doc["R1"], doc.get("R2"),
                                    gamma=doc.get("gamma"),
                                    initial_dist=doc.get("initial_dist"))


def load_game(source):
    """Load a game from a dict, a JSON file path, or a builtin name.

    Builtins: "builtin:mp", "builtin:rps", "builtin:appF:N=<int>".
    File documents carry fields: type ("matrix" | "stochastic"), R1, and
    optionally R2 (default -R1^T), transition, gamma, initial_dist; any
    other key is rejected.
    """
    if isinstance(source, _Game):
        return source
    if isinstance(source, dict):
        return _game_from_dict(source)
    if not isinstance(source, str):
        raise TypeError(f"game source must be dict or str, got {type(source).__name__}")
    if source.startswith("builtin:"):
        name = source[len("builtin:"):]
        if name == "mp":
            return matching_pennies()
        if name == "rps":
            return rock_paper_scissors()
        if name.startswith("appF:N="):
            try:
                n = int(name[len("appF:N="):])
            except ValueError:
                raise BadGameSource(f"bad builtin game id {source!r}") from None
            return tilted_rps(n)
        raise BadGameSource(f"unknown builtin game {source!r}")
    with open(source, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # invalid JSON or invalid UTF-8
            raise BadGameSource(f"game file {source} is not valid JSON: {exc}") from None
    return _game_from_dict(doc)


def game_hash(game) -> str:
    """Stable hex digest of a validated game's numeric content."""
    if isinstance(game, MatrixGame):
        parts = (b"matrix", np.array(game.R1.shape, dtype=np.int64), game.R1, game.R2)
    elif isinstance(game, StochasticGame):
        parts = (b"stochastic", np.array(game.transition.shape, dtype=np.int64),
                 game.transition, game.R1, game.R2, np.float64(game.gamma), game.initial_dist)
    else:
        raise TypeError(f"unsupported game type {type(game).__name__}")
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(part if isinstance(part, bytes) else part.tobytes())
    return h.hexdigest()
