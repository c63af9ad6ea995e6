"""Epps-effect simulation, estimation, and discrimination toolkit.

Synthetic price processes (correlated Brownian, Merton jump-diffusion, a
mutually exciting Hawkes price model), asynchronous observation schemes,
correlation estimators with asynchrony corrections, replicated experiment
drivers with a discrimination verdict, and a trade-file ingestion path
that applies the same machinery to real tick data. On glibc, importing it
sets malloc's mmap and trim thresholds to 32 and 64 MiB, so each tick pair
reuses the heap pages the last one freed instead of faulting them in again;
MALLOC_MMAP_THRESHOLD_ or MALLOC_TRIM_THRESHOLD_ in the environment wins.
"""

import ctypes
import os

from .errors import (
    DataError,
    DegenerateSeriesError,
    DomainError,
    EppsimError,
    EstimationError,
    InsufficientDataError,
    NoOverlapError,
    NumericError,
    OutOfRangeError,
    ParameterError,
    SaturationError,
    ScalingError,
    SkipDay,
    StabilityError,
)
from .estimators import (
    CorrelationEstimate,
    OverlapStats,
    flat_trade_correction,
    flat_trade_probability,
    hayashi_yoshida,
    measured_correlation,
    overlap_correction,
    overlap_expectation,
    realised_covariance,
    theoretical_poisson_epps,
)
from .experiments import (
    CurvePoint,
    EppsCurve,
    ExperimentConfig,
    Verdict,
    discriminate,
    ribbon,
    write_curve_csv,
    write_curve_json,
    write_verdict_json,
)
from .hawkes import (
    HawkesPriceParams,
    HawkesSpec,
    StabilityReport,
    branching_matrix,
    classify_stability,
    hawkes_price_model,
    intensity_at,
    limiting_correlation,
    simulate_hawkes,
    theoretical_hawkes_correlation,
    theoretical_hawkes_covariance,
)
from .paths import (
    DAY_SECONDS,
    GbmParams,
    MertonParams,
    simulate_gbm,
    simulate_merton,
)
from .sampling import (
    hawkes_arrivals,
    k_skip,
    observe_path,
    poisson_arrivals,
    previous_tick_grid,
    synchronous_ticks,
)
from .series import ArrivalSet, GridSeries, PricePath, TickSeries
from .taq import (
    DayPair,
    TradeDay,
    TradeRecord,
    build_day_pair,
    empirical_curve,
    empirical_kskip,
    interarrival_stats,
    pair_days,
    parse_trades,
    saturation_scale,
)

__version__ = "0.1.0"


def _keep_freed_pages() -> None:
    """Pin glibc's mmap threshold at the ceiling of its dynamic one and the trim
    threshold at twice that; setting only one would freeze the other."""
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")  # the M_* numbers are glibc's
    except (AttributeError, ValueError, OSError):
        return
    if glibc and not {"MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_"} & os.environ.keys():
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


_keep_freed_pages()
