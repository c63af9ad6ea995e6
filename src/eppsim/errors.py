"""Exception hierarchy.

Estimation failures that depend on the realised data (degenerate variance,
no overlap, saturated flat-trade probability, too few observations) derive
from EstimationError so ensemble drivers can count them per point without
swallowing genuine caller bugs, which raise ParameterError instead.
"""


class EppsimError(Exception):
    """Base class for all package errors."""


class ParameterError(EppsimError, ValueError):
    """Invalid parameters, shapes or preconditions supplied by the caller."""


class StabilityError(ParameterError):
    """Hawkes kernel is not stationary (spectral radius >= 1)."""


class OutOfRangeError(ParameterError):
    """A time lies outside the domain of the series it is applied to."""


class NumericError(EppsimError):
    """A numerical routine failed to produce a usable result."""


class DomainError(NumericError):
    """An analytic formula was evaluated at a degenerate parameter point."""


class DataError(EppsimError):
    """An input file is unreadable or structurally invalid."""


class SkipDay(EppsimError):
    """Signal: this trading day cannot form a usable pair and is skipped."""


class EstimationError(EppsimError):
    """Base class for data-dependent estimation failures."""


class DegenerateSeriesError(EstimationError):
    """A series has too few observations or zero realised variance."""


class NoOverlapError(EstimationError):
    """The overlap expectation between the two legs is zero."""


class SaturationError(EstimationError):
    """A flat-trade probability reached 1, the correction factor blows up."""


class InsufficientDataError(EstimationError):
    """Not enough replications or curve points for the requested statistic."""


class ScalingError(EstimationError):
    """A curve cannot be rescaled (non-positive saturation level)."""
