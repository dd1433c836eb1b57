"""Run configuration for the learning dynamics.

Stepsize schedules, the matrix-game and stochastic-game run configs on
their shared RunConfig base, the field-driven dict round-trip (DictConfig)
that harness.ExperimentConfig also uses, and the convergence-condition
checkers. The checkers only test the closed-form parameter inequalities;
the remaining conditions involve analysis constants with no computable
form, so violations surface as warnings rather than errors and runs always
proceed.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import sys
import typing
from dataclasses import dataclass
from typing import Any, Callable, ClassVar

from .errors import BadConfig
from .ops import SoftmaxParams, exploration_bound

_VARIANTS = ("plain", "explore")


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise BadConfig(msg)


def _is_int(x: Any) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_real(x: Any) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _check_seed(seed: Any) -> None:
    _require(_is_int(seed) and 0 <= seed < 2 ** 64,
             f"seed must be an integer in [0, 2^64), got {seed!r}")


def _float(x: Any) -> Any:
    # a JSON number without a fraction (1 for 1.0) parses as int; other
    # values pass through unchanged so __post_init__ can reject them
    return float(x) if _is_int(x) else x


@functools.cache
def _field_table(cls: type) -> dict[str, tuple[bool, Callable | None]]:
    # field name -> (required, converter applied by from_dict)
    hints = typing.get_type_hints(cls)
    table = {}
    for f in dataclasses.fields(cls):
        hint = hints[f.name]
        nested = DictConfig in getattr(hint, "__mro__", ())
        convert = _float if hint is float else hint.from_dict if nested else None
        required = (f.default is dataclasses.MISSING
                    and f.default_factory is dataclasses.MISSING)
        table[f.name] = (required, convert)
    return table


class DictConfig:
    """Dict round-trip driven by the dataclass fields of the subclass.

    from_dict rejects unknown keys, requires every field without a default,
    turns JSON ints into floats for float fields and builds nested configs
    from dicts; every other value reaches __post_init__ unconverted.
    `label` names the config in error messages.
    """

    label: ClassVar[str] = "config"

    @classmethod
    def from_dict(cls, d: dict[str, Any]):
        _require(isinstance(d, dict),
                 f"{cls.label} must be a dict, got {type(d).__name__}")
        table = _field_table(cls)
        extra = d.keys() - table.keys()
        _require(not extra, f"unknown {cls.label} keys: {sorted(extra)}")
        kwargs = {}
        for name, (required, convert) in table.items():
            if name in d:
                kwargs[name] = d[name] if convert is None else convert(d[name])
            else:
                _require(not required, f"{cls.label} is missing {name!r}")
        return cls(**kwargs)

    def to_dict(self) -> dict[str, Any]:
        out = {}
        for name in _field_table(type(self)):
            val = getattr(self, name)
            out[name] = val.to_dict() if isinstance(val, DictConfig) else val
        return out


@dataclass(frozen=True)
class StepsizeSchedule(DictConfig):
    """Learning-rate pair (alpha_k, beta_k), constant or diminishing.

    constant:     alpha_k = alpha, beta_k = beta
    diminishing:  alpha_k = alpha / (k + h), beta_k = beta / (k + h)

    Both rates must stay in (0, 1] with beta_k <= alpha_k for every k >= 0,
    which for the diminishing kind pins h >= alpha.
    """

    label: ClassVar[str] = "schedule"

    kind: str
    alpha: float
    beta: float
    h: float = 0.0

    def __post_init__(self) -> None:
        _require(self.kind in ("constant", "diminishing"),
                 f"schedule kind must be 'constant' or 'diminishing', got {self.kind!r}")
        for name in ("alpha", "beta", "h"):
            val = getattr(self, name)
            _require(_is_real(val) and math.isfinite(val),
                     f"schedule {name} must be a finite number, got {val!r}")
        _require(self.alpha > 0.0, f"alpha must be positive, got {self.alpha}")
        _require(0.0 < self.beta <= self.alpha,
                 f"need 0 < beta <= alpha, got beta={self.beta}, alpha={self.alpha}")
        if self.kind == "constant":
            _require(self.alpha <= 1.0, f"constant alpha must be <= 1, got {self.alpha}")
            _require(self.h == 0.0, "constant schedule takes no offset h")
        else:
            _require(self.h >= self.alpha and self.h > 0.0,
                     f"diminishing schedule needs h >= alpha > 0 so alpha_0 <= 1, "
                     f"got h={self.h}, alpha={self.alpha}")

    def rates(self, k: int) -> tuple[float, float]:
        """(alpha_k, beta_k) at iteration k, or elementwise at an int array k."""
        if self.kind == "constant":
            return self.alpha, self.beta
        denom = k + self.h
        return self.alpha / denom, self.beta / denom

    @property
    def ratio(self) -> float:
        """beta_k / alpha_k, the same for every k."""
        return self.beta / self.alpha

    def to_dict(self) -> dict[str, Any]:
        d = super().to_dict()
        if self.kind == "constant":
            del d["h"]  # always 0.0 for a constant schedule
        return d


@dataclass(frozen=True, kw_only=True)
class RunConfig(DictConfig):
    """The run parameters both dynamics share; subclasses add their own."""

    tau: float
    schedule: StepsizeSchedule
    K: int
    seed: int
    variant: str = "plain"
    eps_bar: float = 0.0
    record_stride: int = 1

    def __post_init__(self) -> None:
        _require(self.variant in _VARIANTS,
                 f"variant must be one of {_VARIANTS}, got {self.variant!r}")
        tau, eps_bar = self.tau, self.eps_bar
        # a subnormal tau overflows (x - m) / tau in the batched softmax and gaps
        _require(_is_real(tau) and math.isfinite(tau) and tau >= sys.float_info.min,
                 f"tau must be finite and at least {sys.float_info.min}, got {tau!r}")
        _require(_is_real(eps_bar) and 0.0 <= eps_bar <= 1.0,
                 f"eps_bar must lie in [0, 1], got {eps_bar!r}")
        if self.variant == "plain":
            _require(eps_bar == 0.0, "plain variant must keep eps_bar == 0")
        _require(_is_int(self.K) and self.K >= 1,
                 f"K must be an integer >= 1, got {self.K!r}")
        _check_seed(self.seed)
        _require(_is_int(self.record_stride) and self.record_stride >= 1,
                 f"record_stride must be an integer >= 1, got {self.record_stride!r}")
        _require(isinstance(self.schedule, StepsizeSchedule),
                 f"schedule must be a StepsizeSchedule, got {type(self.schedule).__name__}")

    def _with_seed(self, seed: int):
        # this validated config with another seed, which alone is checked again
        _check_seed(seed)
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__, seed=seed)
        return new


@dataclass(frozen=True, kw_only=True)
class MatrixRunConfig(RunConfig):
    """Everything one matrix-game run depends on, besides the game."""

    normalize_q_in_softmax: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()
        _require(isinstance(self.normalize_q_in_softmax, bool),
                 "normalize_q_in_softmax must be a bool")


@dataclass(frozen=True, kw_only=True)
class VisbrConfig(RunConfig):
    """Run config for the stochastic-game dynamics: T outer x K inner steps."""

    T: int

    def __post_init__(self) -> None:
        super().__post_init__()
        _require(_is_int(self.T) and self.T >= 1,
                 f"T must be an integer >= 1, got {self.T!r}")


def matrix_condition_warnings(config: MatrixRunConfig, a_max: int) -> tuple[str, ...]:
    """Closed-form checks behind the matrix-game convergence guarantee.

    Checked: tau <= 1, beta_0 < tau / (128 a_max^2), and the ratio cap
    c = beta/alpha <= min(tau l^3 / 32, l tau^3 / (128 a_max^2)) with l the
    softmax exploration floor. Violations are reported, never enforced.
    """
    warnings: list[str] = []
    tau = config.tau
    if tau > 1.0:
        warnings.append(f"condition check: tau={tau} exceeds 1")
    floor = exploration_bound("matrix", "plain", SoftmaxParams(tau=tau), a_max)
    _, beta0 = config.schedule.rates(0)
    beta_cap = tau / (128.0 * a_max ** 2)
    if not beta0 < beta_cap:
        warnings.append(
            f"condition check: beta_0={beta0:.6g} not below tau/(128 A^2)={beta_cap:.6g}")
    ratio_cap = min(tau * floor ** 3 / 32.0, floor * tau ** 3 / (128.0 * a_max ** 2))
    if not config.schedule.ratio <= ratio_cap:
        warnings.append(
            f"condition check: beta/alpha={config.schedule.ratio:.6g} exceeds "
            f"ratio cap {ratio_cap:.6g}")
    return tuple(warnings)


def visbr_condition_warnings(config: VisbrConfig, gamma: float) -> tuple[str, ...]:
    """Closed-form checks behind the stochastic-game convergence guarantee.

    Checked: tau <= 1/(1-gamma), and for the explore variant the coupling
    eps_bar == tau that the guarantee assumes. Violations are reported,
    never enforced.
    """
    warnings: list[str] = []
    cap = 1.0 / (1.0 - gamma)
    if config.tau > cap:
        warnings.append(f"condition check: tau={config.tau} exceeds 1/(1-gamma)={cap:.6g}")
    if config.variant == "explore" and config.eps_bar != config.tau:
        warnings.append(
            f"condition check: explore variant analyzed at eps_bar == tau, "
            f"got eps_bar={config.eps_bar}, tau={config.tau}")
    return tuple(warnings)
