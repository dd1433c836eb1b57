"""Run configuration for the learning dynamics.

Stepsize schedules, the matrix-game and stochastic-game run configs, and
the convergence-condition checkers. The checkers only test the closed-form
parameter inequalities; the remaining conditions involve analysis constants
with no computable form, so violations surface as warnings rather than
errors and runs always proceed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

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


def _float(x: Any) -> Any:
    # a JSON number without a fraction (1 for 1.0) parses as int; other
    # values pass through unchanged so __post_init__ can reject them
    return float(x) if _is_int(x) else x


@dataclass(frozen=True)
class StepsizeSchedule:
    """Learning-rate pair (alpha_k, beta_k), constant or diminishing.

    constant:     alpha_k = alpha, beta_k = beta
    diminishing:  alpha_k = alpha / (k + h), beta_k = beta / (k + h)

    Both rates must stay in (0, 1] with beta_k <= alpha_k for every k >= 0,
    which for the diminishing kind pins h >= alpha.
    """

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
        """(alpha_k, beta_k) at iteration k."""
        if self.kind == "constant":
            return self.alpha, self.beta
        denom = k + self.h
        return self.alpha / denom, self.beta / denom

    @property
    def ratio(self) -> float:
        """beta_k / alpha_k, the same for every k."""
        return self.beta / self.alpha

    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {"kind": self.kind, "alpha": self.alpha, "beta": self.beta}
        if self.kind == "diminishing":
            d["h"] = self.h
        return d

    @staticmethod
    def from_dict(d: dict[str, Any]) -> "StepsizeSchedule":
        _require(isinstance(d, dict), f"schedule must be a dict, got {type(d).__name__}")
        extra = set(d) - {"kind", "alpha", "beta", "h"}
        _require(not extra, f"unknown schedule keys: {sorted(extra)}")
        _require("kind" in d and "alpha" in d and "beta" in d,
                 "schedule dict needs kind, alpha, beta")
        return StepsizeSchedule(kind=d["kind"], alpha=_float(d["alpha"]),
                                beta=_float(d["beta"]), h=_float(d.get("h", 0.0)))


def _check_common(variant: str, tau: float, eps_bar: float, K: int, seed: int,
                  record_stride: int, schedule: StepsizeSchedule) -> None:
    _require(variant in _VARIANTS, f"variant must be one of {_VARIANTS}, got {variant!r}")
    _require(_is_real(tau) and math.isfinite(tau) and tau > 0.0,
             f"tau must be positive and finite, got {tau!r}")
    _require(_is_real(eps_bar) and 0.0 <= eps_bar <= 1.0,
             f"eps_bar must lie in [0, 1], got {eps_bar!r}")
    if variant == "plain":
        _require(eps_bar == 0.0, "plain variant must keep eps_bar == 0")
    _require(_is_int(K) and K >= 1, f"K must be an integer >= 1, got {K!r}")
    _require(_is_int(seed) and 0 <= seed < 2 ** 64,
             f"seed must be an integer in [0, 2^64), got {seed!r}")
    _require(_is_int(record_stride) and record_stride >= 1,
             f"record_stride must be an integer >= 1, got {record_stride!r}")
    _require(isinstance(schedule, StepsizeSchedule),
             f"schedule must be a StepsizeSchedule, got {type(schedule).__name__}")


@dataclass(frozen=True)
class MatrixRunConfig:
    """Everything one matrix-game run depends on, besides the game."""

    tau: float
    schedule: StepsizeSchedule
    K: int
    seed: int
    variant: str = "plain"
    eps_bar: float = 0.0
    record_stride: int = 1
    normalize_q_in_softmax: bool = False

    def __post_init__(self) -> None:
        _check_common(self.variant, self.tau, self.eps_bar, self.K, self.seed,
                      self.record_stride, self.schedule)
        _require(isinstance(self.normalize_q_in_softmax, bool),
                 "normalize_q_in_softmax must be a bool")

    def to_dict(self) -> dict[str, Any]:
        return {
            "tau": self.tau,
            "schedule": self.schedule.to_dict(),
            "K": self.K,
            "seed": self.seed,
            "variant": self.variant,
            "eps_bar": self.eps_bar,
            "record_stride": self.record_stride,
            "normalize_q_in_softmax": self.normalize_q_in_softmax,
        }

    @staticmethod
    def from_dict(d: dict[str, Any]) -> "MatrixRunConfig":
        _require(isinstance(d, dict), f"config must be a dict, got {type(d).__name__}")
        known = {"tau", "schedule", "K", "seed", "variant", "eps_bar",
                 "record_stride", "normalize_q_in_softmax"}
        extra = set(d) - known
        _require(not extra, f"unknown config keys: {sorted(extra)}")
        for key in ("tau", "schedule", "K", "seed"):
            _require(key in d, f"config is missing {key!r}")
        return MatrixRunConfig(
            tau=_float(d["tau"]),
            schedule=StepsizeSchedule.from_dict(d["schedule"]),
            K=d["K"],
            seed=d["seed"],
            variant=d.get("variant", "plain"),
            eps_bar=_float(d.get("eps_bar", 0.0)),
            record_stride=d.get("record_stride", 1),
            normalize_q_in_softmax=d.get("normalize_q_in_softmax", False),
        )


@dataclass(frozen=True)
class VisbrConfig:
    """Run config for the stochastic-game dynamics: T outer x K inner steps."""

    tau: float
    schedule: StepsizeSchedule
    T: int
    K: int
    seed: int
    variant: str = "plain"
    eps_bar: float = 0.0
    record_stride: int = 1

    def __post_init__(self) -> None:
        _check_common(self.variant, self.tau, self.eps_bar, self.K, self.seed,
                      self.record_stride, self.schedule)
        _require(_is_int(self.T) and self.T >= 1,
                 f"T must be an integer >= 1, got {self.T!r}")

    def to_dict(self) -> dict[str, Any]:
        return {
            "tau": self.tau,
            "schedule": self.schedule.to_dict(),
            "T": self.T,
            "K": self.K,
            "seed": self.seed,
            "variant": self.variant,
            "eps_bar": self.eps_bar,
            "record_stride": self.record_stride,
        }

    @staticmethod
    def from_dict(d: dict[str, Any]) -> "VisbrConfig":
        _require(isinstance(d, dict), f"config must be a dict, got {type(d).__name__}")
        known = {"tau", "schedule", "T", "K", "seed", "variant", "eps_bar", "record_stride"}
        extra = set(d) - known
        _require(not extra, f"unknown config keys: {sorted(extra)}")
        for key in ("tau", "schedule", "T", "K", "seed"):
            _require(key in d, f"config is missing {key!r}")
        return VisbrConfig(
            tau=_float(d["tau"]),
            schedule=StepsizeSchedule.from_dict(d["schedule"]),
            T=d["T"],
            K=d["K"],
            seed=d["seed"],
            variant=d.get("variant", "plain"),
            eps_bar=_float(d.get("eps_bar", 0.0)),
            record_stride=d.get("record_stride", 1),
        )


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
    floor = exploration_bound("matrix", "plain", SoftmaxParams(tau=tau), a_max).value
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
