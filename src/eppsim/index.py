"""Searches against sorted arrays: grid counts, tick ranks and tick counts.

Every place that asks how many ticks lie before or at a time asks it here.
Against a uniform grid the answer comes by arithmetic in linear time
(_rank, _tick_counts); against a caller's grid (n, step) from 0 with a
power-of-two step it is exact: floor(x/step) + 1 nodes lie at or before x
(_lattice_ranks), ceil(t/step) before tick t (_tick_counts given n); for a
leg on the grid's own points it is a strided read (_strided_counts);
against ticks, one bisection and a tie test (_left_right_counts). Each
kernel equals np.searchsorted bit for bit. The module imports only numpy and
errors, so hawkes, sampling and estimators can all use it.
"""

import math

import numpy as np

from .errors import ParameterError


# the most steps a grid of step dt over a horizon may have: estimate_matrix
# peaks at 48 bytes per grid point (tracemalloc at 10**6 points, every preset
# estimator set, at dt = 1 and per point of the finest step over FIG_DT_GRID;
# tests/footprint.py prints it), so a grid at the bound needs about 4.8 GB
MAX_GRID_STEPS = 10**8

# the most ticks a leg may expect (rate * horizon): the two legs hold 16 bytes
# per tick each and hayashi_yoshida peaks at 48 more (same measurement), so a
# pair of legs at the bound needs about 8 GB
MAX_TICKS = 10**8


def _step_ratio(horizon: float, dt: float) -> float:
    """horizon/dt, refused past MAX_GRID_STEPS before any grid is allocated."""
    ratio = horizon / dt
    if not ratio <= MAX_GRID_STEPS:
        raise ParameterError(
            f"horizon {horizon} at step {dt} needs more than {MAX_GRID_STEPS} grid steps"
        )
    return ratio


def expected_ticks(rate: float, horizon: float) -> float:
    """rate*horizon, refused past MAX_TICKS before any arrival is drawn."""
    expected = rate * horizon
    if not expected <= MAX_TICKS:
        raise ParameterError(
            f"rate {rate} over horizon {horizon} expects more than {MAX_TICKS} ticks"
        )
    return expected


def grid_count(horizon: float, dt: float) -> int:
    """floor(horizon/dt) with a tolerance absorbing float division error."""
    if not dt > 0:
        raise ParameterError(f"dt must be positive, got {dt}")
    if not horizon >= 0:
        raise ParameterError(f"horizon must be non-negative, got {horizon}")
    return int(math.floor(_step_ratio(horizon, dt) + 1e-9))


# The index kernels below visit every tick once, bisection visits every
# grid point once at log(ticks) cost; past this many ticks per grid point
# bisection is the cheaper (a dense leg on a coarse grid, for example).
MAX_TICKS_PER_POINT = 2


def _rank(x: np.ndarray, n: int, node, step: float, right: bool) -> np.ndarray:
    """np.searchsorted(node(np.arange(n)), x, side="right" if right else "left").

    node(k) is ascending, close to node(0) + step*k, and defined for k = -1
    (before every x) and k = n (after every x). Each rank is guessed from
    that arithmetic, then corrected against node itself until no rank
    moves, so ties and one-ulp neighbours land where bisection puts them.
    Linear in the size of x.
    """
    r = np.subtract(x, node(0))
    r /= step
    if right:
        np.floor(r, out=r)
        r += 1.0
    else:
        np.ceil(r, out=r)
    r = np.clip(r, 0, n, out=r).astype(np.intp)
    before = np.less_equal if right else np.less
    at, ranks, values = None, r, x
    while True:
        up = before(node(ranks), values)
        down = ~before(node(ranks - 1), values)
        moved = np.flatnonzero(up | down)
        if moved.size == 0:
            return r
        at = moved if at is None else at[moved]
        r[at] += up[moved].astype(np.intp) - down[moved]
        ranks, values = r[at], x[at]


def _lattice_ranks(x: np.ndarray, n: int, step: float) -> np.ndarray | None:
    """np.searchsorted(step * np.arange(n), x, side="right") for x >= 0 if step
    is a power of two, else None: each node k*step (k < 2**53) is then a double,
    and x/step is exact or subnormal (below 1, so it floors to 0 either way)."""
    if math.frexp(step)[0] != 0.5:
        return None
    r = np.divide(x, step)
    np.floor(r, out=r)
    r += 1.0
    return np.minimum(r, n, out=r).astype(np.intp)


def _lattice(n: int, step: float) -> np.ndarray:
    """The grid step * np.arange(n), scaled in place."""
    nodes = np.arange(n, dtype=np.float64)
    nodes *= step
    return nodes


def _tick_counts(times: np.ndarray, queries, step: float) -> np.ndarray:
    """np.searchsorted(times, queries, side="right") for ascending queries about
    step apart, or for queries an int n, against the grid _lattice(n, step).

    Each tick is ranked among the queries: exactly on that grid if step is a
    power of two, as ceil(t/step) nodes lie before a tick t >= 0 (the left-side
    twin of _lattice_ranks; a positive tick whose quotient underflows to 0 lies
    past node 0); else by _rank's correction loop, reading -inf and inf for the
    nodes past either end. np.bincount and a cumulative sum in place count them.
    """
    if isinstance(queries, int):  # None: exact arithmetic needs no query array
        n, queries = queries, None if math.frexp(step)[0] == 0.5 else _lattice(queries, step)
    else:
        n = queries.size
    if times.size >= MAX_TICKS_PER_POINT * n:
        return np.searchsorted(times, _lattice(n, step) if queries is None else queries, side="right")
    if queries is None:
        r = np.ceil(np.divide(times, step))
        np.maximum(r, times > 0, out=r)
        ranks = np.minimum(r, n, out=r).astype(np.intp)
    else:
        def node(k):
            q = queries.take(k, mode="clip")
            if np.ndim(k):  # the scalar _rank reads is node(0), a query
                q[k < 0] = -np.inf
                q[k >= n] = np.inf
            return q
        ranks = _rank(times, n, node, step, right=False)
    counts = np.bincount(ranks, minlength=n + 1)[:-1]
    return np.cumsum(counts, out=counts)


def _strided_counts(times: np.ndarray, queries: np.ndarray) -> np.ndarray | None:
    """np.searchsorted(times, queries, side="right") when every query is a tick.

    For strictly increasing times and ascending queries that start at
    times[0] and are s ticks apart (a synchronous leg on a grid whose step
    is s path steps), query h is tick s*h, so s*h + 1 ticks lie at or
    before it, and every tick at or before a query past the last one. That
    is checked bit for bit against the queries, never assumed; None when
    it does not hold.
    """
    n = times.size
    if n < 2 or queries.size < 2 or times[0] != queries[0]:
        return None
    t0, t1, q1 = float(times[0]), float(times[1]), float(queries[1])
    s = round(min((q1 - t0) / (t1 - t0), n))  # Python floats: inf, not a warning
    if s < 1:
        return None
    m = min((n - 1) // s + 1, queries.size)  # the queries that can be ticks
    if not np.array_equal(times[: s * (m - 1) + 1 : s], queries[:m]):
        return None
    if m < queries.size and not queries[m] >= times[-1]:
        return None
    counts = np.arange(1, s * (queries.size - 1) + 2, s)  # s*h + 1
    return np.minimum(counts, n, out=counts)


def _left_right_counts(times: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.searchsorted(times, x, side) for side "left" and "right", times strictly increasing.

    One bisection gives the ticks before each x; at most one tick can
    equal x, so a tie test against the next tick gives those at or before.
    """
    below = np.searchsorted(times, x, side="left")
    if times.size == 0:
        return below, below.copy()
    tie = times.take(below, mode="clip") == x
    return below, below + tie
