"""Searches against sorted arrays: grid counts, tick ranks and tick counts.

Every place that asks how many ticks lie before or at a time asks it here.
_lattice_ranks ranks ticks against a grid (n, step) from 0 on the left,
exactly: ceil(x/step) on a power-of-two step (sampling.observe_path reads
the node at or before x as x/step truncated), bisection against the grid
on any other. _tick_counts counts ticks from those ranks among the grid
points, or among other ascending queries by bisection: a leg with fewer
than one tick per RUN_LENGTH_POINTS_PER_TICK points repeats its run
lengths, at a cost in its ticks, and a denser one sums a bincount over the
points. Ticks against ticks, the HY rank of a pair, are one merge of the
two sorted legs and a tie test (_left_right_counts). Each kernel equals
np.searchsorted bit for bit. The size bounds live here too:
a grid's steps (_step_ratio) and a Poisson leg's expected pairs of equal
times (expected_ticks), the one bound on its ticks. The module imports
only numpy and errors, so series, hawkes, sampling and estimators can all use it.
"""

import math

import numpy as np

from .errors import ParameterError


# the most steps a grid of step dt over a horizon may have: estimate_matrix
# peaks at 48 bytes per grid point (tracemalloc at 10**6 points, every preset
# estimator set, at dt = 1 and per point of the finest step over FIG_DT_GRID;
# tests/footprint.py prints it), so a grid at the bound needs about 4.8 GB
MAX_GRID_STEPS = 10**8


def _step_ratio(horizon: float, dt: float, of: str = "") -> float:
    """horizon/dt, refused past MAX_GRID_STEPS before any grid is allocated
    by a message that ends in of (" of dt" names a step field)."""
    ratio = horizon / dt
    if not ratio <= MAX_GRID_STEPS:
        raise ParameterError(
            f"horizon {horizon} at step {dt} needs more than {MAX_GRID_STEPS} grid steps{of}"
        )
    return ratio


# the most pairs of equal times a Poisson leg may expect: a gap rounds away
# when it is below half an ulp of the time it is added to, which each of the
# rate * horizon gaps is with chance at most rate * ulp(horizon) / 2. As
# ulp(horizon) / horizon lies in (2**-53, 2**-52], this caps a leg at about
# 1.3 * 10**7 ticks at any horizon, the one bound on a leg's size: the two
# legs hold 16 bytes per tick each and hayashi_yoshida peaks at 48 more (same
# measurement), so a pair of legs at the cap needs about 1.1 GB
MAX_EXPECTED_COLLISIONS = 0.01


def expected_ticks(rate: float, horizon: float) -> float:
    """rate*horizon, refused where the float64 arrival times expect
    MAX_EXPECTED_COLLISIONS or more pairs of equal times, before any arrival
    is drawn."""
    expected = rate * horizon
    collisions = expected * rate * math.ulp(horizon) / 2
    if not collisions < MAX_EXPECTED_COLLISIONS:
        many = (f"{collisions:.2g} pairs of equal float64 arrival times, at most "
                f"{MAX_EXPECTED_COLLISIONS} are allowed")
        if collisions == math.inf:  # past counting: the ticks against a leg's cap instead
            cap = math.sqrt(2 * MAX_EXPECTED_COLLISIONS * horizon / math.ulp(horizon))
            ticks = f"{expected:.2g}" if expected < math.inf else "more than 1e308"
            many = (f"{ticks} ticks, past the {cap:.2g} at which {MAX_EXPECTED_COLLISIONS} "
                    f"pairs of equal float64 arrival times are expected")
        raise ParameterError(f"rate {rate} over horizon {horizon} expects {many}")
    return expected


def grid_count(horizon: float, dt: float) -> int:
    """floor(horizon/dt) with a tolerance absorbing float division error."""
    if not dt > 0:
        raise ParameterError(f"dt must be positive, got {dt}")
    if not horizon >= 0:
        raise ParameterError(f"horizon must be non-negative, got {horizon}")
    return int(math.floor(_step_ratio(horizon, dt) + 1e-9))


# _tick_counts repeats run lengths on a leg with fewer than one tick per this
# many grid points, and sums a bincount on a denser one: from the same ranks,
# the repeat costs as much as the sum near m = n/6 ticks at n = 72 001 grid
# points and near m = n/4 at n = 28 201, and less below (best of nine timeit
# repeats of 50 calls, uniform legs, 2-vCPU VM)
RUN_LENGTH_POINTS_PER_TICK = 5


def _lattice(n: int, step: float) -> np.ndarray:
    """The grid step * np.arange(n), scaled in place."""
    nodes = np.arange(n, dtype=np.float64)
    nodes *= step
    return nodes


def _lattice_ranks(x: np.ndarray, n: int, step: float) -> np.ndarray:
    """np.searchsorted(_lattice(n, step), x, side="left") for x >= 0. On a
    power-of-two step each node k*step (k < 2**53) is a double and x/step is
    exact or subnormal (below 1), so the rank is ceil(x/step), where a
    positive x whose quotient underflows to 0 still lies past node 0; on any
    other step bisection against the grid."""
    if math.frexp(step)[0] != 0.5:
        return _lattice(n, step).searchsorted(x, "left")
    r = np.divide(x, step)
    np.ceil(r, out=r)
    np.maximum(r, x > 0, out=r)
    return np.minimum(r, n, out=r).astype(np.intp)


def _tick_counts(times: np.ndarray, queries, step: float) -> np.ndarray:
    """np.searchsorted(times, queries, side="right") for ascending queries, or
    for queries an int n, against the grid _lattice(n, step).

    A tick lies at or before every query from the first one not below it, so
    each tick is ranked among the queries, side "left": against the grid by
    _lattice_ranks, else by bisection. The count is j from the (j-1)-th of
    the m ranks (0 for j = 0) up to the j-th (n for j = m), so a leg of
    fewer than n/RUN_LENGTH_POINTS_PER_TICK ticks repeats np.arange(m + 1)
    by the differences of its ranks padded with 0 and n, a cost per tick; a
    denser one takes np.bincount and a cumulative sum in place, per query.
    """
    if isinstance(queries, int):
        n, ranks = queries, _lattice_ranks(times, queries, step)
    else:
        n, ranks = queries.size, queries.searchsorted(times, "left")
    m = ranks.size
    if m * RUN_LENGTH_POINTS_PER_TICK < n:
        lengths = np.empty(m + 1, dtype=np.intp)
        lengths[:m] = ranks
        lengths[m] = n
        lengths[1:] -= ranks
        return np.arange(m + 1).repeat(lengths)
    counts = np.bincount(ranks, minlength=n + 1)[:-1]
    return counts.cumsum(out=counts)


def _left_right_counts(times: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.searchsorted(times, x, side) for side "left" and "right", times
    strictly increasing and x ascending, both >= 0.

    One merge ranks every x among the ticks. The two legs are written into
    one buffer, x first, as the bit patterns of their values, shifted left
    one bit with the low bit set on the ticks: the shift drops the sign bit,
    so a -0.0 (which TickSeries accepts) keys as +0.0 and the keys sort as
    the values do, and a tick sorts after an x of equal value. A stable sort
    of those two ascending runs is one merge pass; the ticks before each x
    are its position in the merged order less its own index. At most one
    tick can equal x, so a tie test against the next tick gives those at or
    before.
    """
    n = x.size
    keys = np.empty(n + times.size, dtype=np.uint64)
    values = keys.view(np.float64)
    values[:n] = x
    values[n:] = times
    keys <<= 1
    keys[n:] |= 1
    keys.sort(kind="stable")
    keys &= 1
    below = (keys == 0).nonzero()[0]
    del keys, values
    below -= np.arange(n)
    if times.size == 0:
        return below, below.copy()
    tie = times.take(below, mode="clip") == x
    return below, below + tie
