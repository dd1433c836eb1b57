"""Exception types raised by validation, oracles, dynamics, and the harness."""


class ZsdynError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(ZsdynError):
    """Array shapes are inconsistent with each other or with the game."""


class PayoffOutOfRange(ZsdynError):
    """A payoff entry falls outside [-1, 1] or is not finite."""


class NotZeroSum(ZsdynError):
    """R1 + R2^T is not zero to tolerance where a zero-sum game is required."""


class BadTransitionRow(ZsdynError):
    """A transition row has a negative entry or does not sum to 1."""


class BadDiscount(ZsdynError):
    """Discount factor outside the open interval (0, 1)."""


class NotADistribution(ZsdynError):
    """A vector meant to be a probability distribution is not one."""


class NonFiniteInput(ZsdynError):
    """An operator received NaN or infinite input."""


class MissingGamma(ZsdynError):
    """A stochastic-variant computation needs a discount factor and got none."""


class NotErgodic(ZsdynError):
    """The induced Markov chain is reducible or periodic."""


class NoConvergence(ZsdynError):
    """A fixed-point iteration exhausted its iteration budget."""


class BadGameSource(ZsdynError, ValueError):
    """A game source (builtin id, game file or game document) cannot be read."""


class BadConfig(ZsdynError):
    """A run or experiment configuration violates its invariants."""


class GridMismatch(ZsdynError):
    """Trajectory records being aggregated do not share one index grid."""


class NonPositiveValues(ZsdynError):
    """A log-log rate fit was asked for on non-positive values."""


class OutputExists(ZsdynError):
    """Refusing to overwrite existing experiment output without force."""
