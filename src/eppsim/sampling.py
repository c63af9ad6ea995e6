"""Asynchronous observation schemes and previous-tick synchronisation.

Arrival processes (homogeneous Poisson or mutually exciting Hawkes) pick
the observation times of each asset; observe_path reads the latent path at
those times; previous_tick_grid synchronises a tick series back onto a
regular grid by carrying the last observed value forward; k_skip thins a
series to every k-th observation. Both search a uniform grid (n, step) by
exact arithmetic on a power-of-two step and by bisection against
index._lattice on any other: observe_path truncates t/dt to the node at
or before t, previous_tick_grid ranks ticks on the left through
_tick_counts, which counts a sparse leg by run lengths and a dense one by a
cumulative sum. A leg from time 0, such as a synchronous one, is first tried
as a strided read of its ticks (_strided_counts). estimate_matrix counts
each leg once per base step and reads a step that is an exact multiple of
it as a strided view of those counts.
"""

import math
from dataclasses import replace

import numpy as np

from . import index, seeding
from .errors import DegenerateSeriesError, NumericError, OutOfRangeError, ParameterError
from .hawkes import HawkesSpec, simulate_hawkes
from .index import _strided_counts, _tick_counts, expected_ticks, grid_count
from .series import ArrivalSet, GridSeries, PricePath, TickSeries


def poisson_arrivals(rate: float, horizon: float, seed: int) -> ArrivalSet:
    """Homogeneous Poisson arrival times on [0, horizon].

    Draws standard exponential gaps in deterministic blocks until the
    horizon is crossed, so the output depends only on (seed, stream id);
    each block is scaled by 1/rate and summed in place. A rate likely to
    draw two equal float64 times is refused before anything is drawn
    (index.expected_ticks, which also caps a leg at about 1.3 * 10**7 ticks);
    two equal times drawn all the same raise NumericError.
    """
    if rate < 0 or not math.isfinite(rate):
        raise ParameterError(f"rate must be finite and >= 0, got {rate}")
    if not horizon >= 0:
        raise ParameterError(f"horizon must be non-negative, got {horizon}")
    if rate == 0 or horizon == 0:
        return ArrivalSet(times=np.empty(0), horizon=horizon)
    expected = expected_ticks(rate, horizon)
    rng = seeding.stream(seed, seeding.POISSON)
    block = max(16, int(expected + 5.0 * math.sqrt(expected)))
    scale = 1.0 / rate
    total = rng.standard_exponential(size=block)
    total *= scale
    total.cumsum(out=total)
    while total[-1] <= horizon:
        gaps = rng.standard_exponential(size=block)
        gaps *= scale
        gaps.cumsum(out=gaps)
        gaps += total[-1]
        total = np.append(total, gaps)
    times = total[: total.searchsorted(horizon, "right")]
    try:
        return ArrivalSet(times=times, horizon=horizon)
    except ParameterError as exc:
        raise NumericError(
            f"rate {rate} over horizon {horizon} drew two equal float64 arrival times"
        ) from exc


def hawkes_arrivals(
    spec: HawkesSpec, horizon: float, seed: int
) -> tuple[ArrivalSet, ArrivalSet]:
    """Paired arrival times from a 2-dim mutually exciting kernel."""
    if spec.dim != 2:
        raise ParameterError(f"sampling spec must be 2-dimensional, got {spec.dim}")
    a, b = simulate_hawkes(spec, horizon, seed)
    return a, b


def observe_path(path: PricePath, arrivals: ArrivalSet, asset: int) -> TickSeries:
    """Read one asset of the latent path at the arrival times.

    The value at arrival t is the path value at the greatest grid point <= t.
    Arrivals past the path's horizon are refused (an ArrivalSet starts at
    0, as every path does). On a power-of-two step (every preset path: 1 s)
    that point's index is t/dt truncated: t/dt is exact or below 1 and t >= 0,
    so truncation is a floor, and the horizon check bounds it by n_steps.
    Any other path's grid is built and bisected.
    """
    if asset not in (0, 1):
        raise ParameterError(f"asset must be 0 or 1, got {asset}")
    t = arrivals.times
    if t.size and t[-1] > path.horizon:
        raise OutOfRangeError(
            f"arrivals end at {t[-1]}, past the path horizon {path.horizon}"
        )
    # the last node of path.times() at or before each t
    if math.frexp(path.dt)[0] == 0.5:
        idx = np.divide(t, path.dt).astype(np.intp)
    else:
        idx = index._lattice(path.n_steps + 1, path.dt).searchsorted(t, "right") - 1
    return TickSeries(
        times=t, values=path.values[:, asset].take(idx), horizon=arrivals.horizon
    )


def previous_tick_grid(ticks: TickSeries, dt: float, horizon: float) -> GridSeries:
    """Synchronise a tick series onto the grid h*dt, h = 0..floor(T/dt).

    Each grid point takes the last tick value at or before it; grid points
    before the first tick are backfilled with the first tick value (they
    produce leading zero returns, the flat-trading convention).
    """
    idx = _previous_tick_counts(ticks, dt, horizon)
    idx -= 1  # the tick index, -1 before the first tick
    return GridSeries(dt=dt, values=ticks.values.take(idx, mode="clip"))


def _previous_tick_counts(ticks: TickSeries, dt: float, horizon: float) -> np.ndarray:
    """The number of ticks at or before each grid point h*dt, h = 0..floor(T/dt)."""
    if len(ticks) == 0:
        raise DegenerateSeriesError("cannot synchronise an empty tick series")
    n, t = grid_count(horizon, dt) + 1, ticks.times
    counts = _strided_counts(t, n, dt)
    return _tick_counts(t, n, dt) if counts is None else counts


def synchronous_ticks(path: PricePath, asset: int) -> TickSeries:
    """One asset of the path viewed as a (dense, synchronous) tick series."""
    if asset not in (0, 1):
        raise ParameterError(f"asset must be 0 or 1, got {asset}")
    return TickSeries(
        times=path.times(), values=path.values[:, asset], horizon=path.horizon
    )


def k_skip(obj, k: int):
    """Every k-th observation (1-based positions k, 2k, ...) of an arrival
    set or tick series; the result keeps floor(n/k) elements."""
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or k < 1:
        raise ParameterError(f"k must be a positive integer, got {k!r}")
    if isinstance(obj, ArrivalSet):
        return ArrivalSet(times=obj.times[k - 1 :: k], horizon=obj.horizon)
    if isinstance(obj, TickSeries):
        return replace(obj, times=obj.times[k - 1 :: k], values=obj.values[k - 1 :: k])
    raise ParameterError(f"k_skip expects an ArrivalSet or TickSeries, got {type(obj).__name__}")
