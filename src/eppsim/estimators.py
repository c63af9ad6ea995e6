"""Correlation estimators and corrections across sampling time scales.

The measured (realised-covariance) correlation on a previous-tick grid
shrinks as the grid step falls because asynchronous observation windows
stop overlapping. Three responses are implemented: the overlap correction
(rescale by the measured overlap expectations of the two assets'
previous-tick windows), the flat-trade correction (rescale by the
probability of zero grid returns), and the Hayashi-Yoshida estimator
(sum return products over genuinely overlapping tick intervals, no grid).
The analytic correlation-vs-scale curve under Poisson sampling closes the
loop for the simulation experiments.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSeriesError,
    InsufficientDataError,
    NoOverlapError,
    NumericError,
    ParameterError,
    SaturationError,
)
from .index import _left_right_counts, _tick_counts
from .series import ArrivalSet, GridSeries, TickSeries


@dataclass(frozen=True)
class CorrelationEstimate:
    """A correlation estimate and the grid step dt it was formed at; None
    for estimators that do not synchronise onto a grid."""

    rho: float
    dt: float | None = None


@dataclass(frozen=True)
class OverlapStats:
    """Average previous-tick window lengths and their pairwise overlap.

    kappa_ii, kappa_jj : mean length of [gamma(t-dt), gamma(t)] per asset
    kappa_ij : mean length of the intersection of the two windows
    """

    kappa_ii: float
    kappa_jj: float
    kappa_ij: float
    dt: float


def _check_common_grid(gi: GridSeries, gj: GridSeries) -> None:
    if len(gi) != len(gj):
        raise ParameterError(
            f"grid series lengths differ: {len(gi)} vs {len(gj)}"
        )
    if abs(gi.dt - gj.dt) > 1e-12 * max(gi.dt, gj.dt):
        raise ParameterError(f"grid steps differ: {gi.dt} vs {gj.dt}")
    if len(gi) < 2:
        raise DegenerateSeriesError("need at least two grid points")


def realised_covariance(gi: GridSeries, gj: GridSeries) -> float:
    """Sum of products of grid returns over h = 1..floor(T/dt)."""
    _check_common_grid(gi, gj)
    return float(np.sum(gi.returns() * gj.returns()))


def measured_correlation(gi: GridSeries, gj: GridSeries) -> CorrelationEstimate:
    """Realised-covariance correlation on a common grid."""
    _check_common_grid(gi, gj)
    return _measured_correlation(gi.returns(), gj.returns(), gi.dt)


def _finite(total: float, estimator: str, name: str) -> float:
    """total, a sum an estimator formed; NumericError when it overflowed or is nan."""
    if not math.isfinite(total):
        raise NumericError(f"{estimator}: {name} is {total}, not a finite number")
    return total


def _root_product(var_i: float, var_j: float, estimator: str) -> float:
    """sqrt(var_i * var_j), NumericError where the product overflows or underflows to 0."""
    name = "the product of the realised variances"
    if (norm := _finite(var_i * var_j, estimator, name)) == 0.0:
        raise NumericError(f"{estimator}: {name} underflows to 0")
    return math.sqrt(norm)


@np.errstate(over="ignore")  # _finite refuses a sum that overflowed
def _measured_correlation(ri, rj, dt: float) -> CorrelationEstimate:
    """measured_correlation of two checked grids of step dt with returns ri and rj."""
    cov = _finite(float(np.add.reduce(ri * rj)), "measured", "the cross sum")
    var_i = _finite(float(np.add.reduce(np.square(ri))), "measured", "the realised variance of leg i")
    var_j = _finite(float(np.add.reduce(np.square(rj))), "measured", "the realised variance of leg j")
    if var_i <= 0:
        raise DegenerateSeriesError("realised variance of leg i is zero")
    if var_j <= 0:
        raise DegenerateSeriesError("realised variance of leg j is zero")
    return CorrelationEstimate(cov / _root_product(var_i, var_j, "measured"), dt)


def hayashi_yoshida(si: TickSeries, sj: TickSeries) -> CorrelationEstimate:
    """Correlation from return products over overlapping tick intervals.

    Returns are taken over the half-open intervals (t_{l-1}, t_l] of each
    series; a product contributes iff the intervals intersect, so a shared
    endpoint does not count as overlap. The own-variance legs reduce to
    plain sums of squared returns because a series' own intervals are
    disjoint. The double sum is evaluated by a two-cursor sweep: for each
    interval of leg i, the range of overlapping leg-j intervals is read off
    the counts of leg-j ticks before and at or before each leg-i tick, which
    one merge of the two legs gives (index._left_right_counts), and their
    return sum off a prefix-sum table.
    """
    if len(si) < 2 or len(sj) < 2:
        raise DegenerateSeriesError("each leg needs at least two observations")
    return _hy_estimate(si.values, sj.values, *_left_right_counts(sj.times, si.times))


@np.errstate(over="ignore")  # _finite refuses a sum that overflowed
def _hy_estimate(vi, vj, below, upto) -> CorrelationEstimate:
    """hayashi_yoshida from the legs' values (two or more each) and, for each
    leg-i tick, the number of leg-j ticks before it (below) and at or before
    it (upto).

    It consumes upto, in which the interval bounds are built, so a caller
    passes count arrays that nothing reads afterwards. The leg-j returns
    are written into the prefix-sum table and summed there. The table is
    read with take(mode="clip"), which moves a bound that lies before its
    first entry or past its last onto that entry.
    """
    di = np.subtract(vi[1:], vi[:-1])
    var_i = _finite(float(np.add.reduce(np.square(di))), "hy", "the realised variance of leg i")
    pref = np.empty(vj.size)  # pref[k]: the sum of the first k leg-j returns
    pref[0] = 0.0
    dj = np.subtract(vj[1:], vj[:-1], out=pref[1:])
    var_j = _finite(float(np.add.reduce(np.square(dj))), "hy", "the realised variance of leg j")
    if var_i <= 0:
        raise DegenerateSeriesError("leg i has zero realised variance")
    if var_j <= 0:
        raise DegenerateSeriesError("leg j has zero realised variance")
    dj.cumsum(out=dj)
    # j-interval k = (tj[k], tj[k+1]] overlaps i-interval (a, b] iff
    # tj[k+1] > a and tj[k] < b; both bounds are monotone in k
    upto -= 1
    span = pref.take(below[1:], mode="clip")
    span -= pref.take(upto[:-1], mode="clip")
    span *= di
    cross = _finite(float(np.add.reduce(span)), "hy", "the cross sum")
    return CorrelationEstimate(cross / _root_product(var_i, var_j, "hy"))


def overlap_expectation(
    ui: ArrivalSet,
    uj: ArrivalSet,
    dt: float,
    horizon: float,
    stride: float | None = None,
) -> OverlapStats:
    """Estimate the previous-tick window expectations on the grid.

    For each evaluation time t (grid-aligned t = h*dt by default, or an
    arbitrary finer stride) the windows [gamma(t-dt), gamma(t)] of both
    assets are formed from the last arrival at or before each endpoint,
    and the own lengths and intersection length are averaged. Windows
    beginning before both assets have an observation are excluded.
    """
    if len(ui) == 0 or len(uj) == 0:
        raise DegenerateSeriesError("overlap expectation needs non-empty arrivals")
    if not dt > 0:
        raise ParameterError(f"dt must be positive, got {dt}")
    if stride is None:
        stride = dt
    if not 0 < stride <= horizon:
        raise ParameterError(f"stride must lie in (0, horizon], got {stride}")
    ends = dt + stride * np.arange(_n_windows(dt, horizon, stride))
    starts = ends - dt
    # each asset's last arrival at or before each window end and start
    hi_i, lo_i, hi_j, lo_j = (
        _tick_counts(t, q, stride) - 1 for t in (ui.times, uj.times) for q in (ends, starts)
    )
    first = _first_window(lo_i, lo_j)
    return _window_overlap(
        ui.times.take(hi_i[first:]),
        ui.times.take(lo_i[first:]),
        uj.times.take(hi_j[first:]),
        uj.times.take(lo_j[first:]),
        dt,
    )


def _n_windows(dt: float, horizon: float, stride: float) -> int:
    return int(math.floor((horizon - dt) / stride + 1e-9)) + 1


def _grid_overlap(ti, tj, idx_i, idx_j, dt: float, horizon: float) -> OverlapStats | None:
    """overlap_expectation at stride dt, read off each asset's previous-tick
    index idx_i, idx_j (its arrival counts - 1) at the grid points h*dt;
    None when the windows are not certainly the grid cells.

    The m windows are [h*dt, (h+1)*dt] bit for bit when dt = num/2**e with
    num*(m+1) <= 2**53: every multiple k*dt, and every sum or difference
    of two of them, is then exact, so the window ends dt + h*dt and starts
    (dt + h*dt) - dt are grid points, and each window's two ends are
    adjacent entries of one previous-tick time grid per asset. At dt = 0.1
    float rounding moves some of them off the grid by an ulp.
    """
    if not dt <= horizon:
        return None
    m = _n_windows(dt, horizon, dt)
    num, _ = float(dt).as_integer_ratio()
    if num * (m + 1) > 2**53 or m >= idx_i.size:
        return None
    first = _first_window(idx_i[:m], idx_j[:m])
    gi = ti.take(idx_i[first : m + 1])
    gj = tj.take(idx_j[first : m + 1])
    return _window_overlap(gi[1:], gi[:-1], gj[1:], gj[:-1], dt)


def _first_window(lo_i, lo_j) -> int:
    """The first window that starts after both assets' first arrivals, from
    each asset's last-arrival index at the window starts (-1 before its
    first arrival). Indices never fall, so the windows kept form a suffix."""
    first = max(lo_i.searchsorted(0), lo_j.searchsorted(0))
    if first == lo_i.size:
        raise InsufficientDataError(
            "no evaluation windows start after both assets' first observations"
        )
    return int(first)


def _window_overlap(hi_i, lo_i, hi_j, lo_j, dt: float) -> OverlapStats:
    """OverlapStats of each asset's windows [lo, hi] between previous-tick times.

    The intersection lengths are built inside hi_i, which nothing reads
    afterwards (lo_i may share its memory: it is read first).
    """
    kappa_ii = float(np.add.reduce(hi_i - lo_i) / hi_i.size)
    kappa_jj = float(np.add.reduce(hi_j - lo_j) / hi_j.size)
    lo = np.maximum(lo_i, lo_j)
    cross = np.minimum(hi_i, hi_j, out=hi_i)
    cross -= lo
    np.maximum(cross, 0.0, out=cross)
    return OverlapStats(kappa_ii, kappa_jj, float(np.add.reduce(cross) / cross.size), dt)


def overlap_correction(rho_measured: float, stats: OverlapStats) -> CorrelationEstimate:
    """Rescale a measured correlation by its window-overlap expectations.

    rho = rho_measured * sqrt(kappa_ii * kappa_jj) / kappa_ij. A zero
    cross-overlap (or a degenerate own window) leaves nothing to rescale.
    """
    if stats.kappa_ij <= 0:
        raise NoOverlapError("window overlap expectation is zero")
    if stats.kappa_ii <= 0 or stats.kappa_jj <= 0:
        raise NoOverlapError("own window expectation is zero")
    factor = math.sqrt(stats.kappa_ii * stats.kappa_jj) / stats.kappa_ij
    return CorrelationEstimate(rho_measured * factor, stats.dt)


def flat_trade_probability(g: GridSeries) -> float:
    """Fraction of exactly-zero grid returns."""
    return _zero_fraction(g.returns())


def _zero_fraction(r: np.ndarray) -> float:
    """flat_trade_probability of a grid with returns r."""
    if r.size == 0:
        raise DegenerateSeriesError("need at least one grid return")
    return np.count_nonzero(r == 0.0) / r.size


def flat_trade_correction(
    rho_measured: float, p_i: float, p_j: float, dt: float | None = None
) -> CorrelationEstimate:
    """Rescale a measured correlation by the flat-trading probabilities.

    rho = rho_measured * (1 - p_i p_j) / ((1 - p_i)(1 - p_j)). The factor
    is >= 1 and the correction can push estimates outside [-1, 1]; that is
    a property of the correction, not clipped here.
    """
    for name, p in (("p_i", p_i), ("p_j", p_j)):
        if not 0.0 <= p <= 1.0:
            raise ParameterError(f"{name} must lie in [0, 1], got {p}")
    if p_i == 1.0 or p_j == 1.0:
        raise SaturationError("flat-trade probability of 1 cannot be corrected")
    factor = (1.0 - p_i * p_j) / ((1.0 - p_i) * (1.0 - p_j))
    return CorrelationEstimate(rho_measured * factor, dt)


def theoretical_poisson_epps(c: float, rate: float, dt: float) -> float:
    """Expected measured correlation under independent Poisson sampling.

    c * (1 + (exp(-rate*dt) - 1)/(rate*dt)) for an underlying correlation c;
    evaluated with expm1 so the small-(rate*dt) limit c*rate*dt/2 comes out
    without cancellation.
    """
    if not rate > 0:
        raise ParameterError(f"rate must be positive, got {rate}")
    if not dt > 0:
        raise ParameterError(f"dt must be positive, got {dt}")
    if not -1.0 <= c <= 1.0:
        raise ParameterError(f"c must lie in [-1, 1], got {c}")
    x = rate * dt
    return c * (1.0 + math.expm1(-x) / x)
