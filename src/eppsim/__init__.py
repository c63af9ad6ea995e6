"""Epps-effect simulation, estimation, and discrimination toolkit.

Synthetic price processes (correlated Brownian, Merton jump-diffusion, a
mutually exciting Hawkes price model), asynchronous observation schemes,
correlation estimators with asynchrony corrections, replicated experiment
drivers with a discrimination verdict, and a trade-file ingestion path
that applies the same machinery to real tick data.
"""

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
    epps_curve,
    experiment_hy_vs_interarrival,
    experiment_k_skip,
    experiment_overlap_multi_rate,
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
    mutual_excitation_spec,
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
