"""Arrival generation, previous-tick synchronization, k-skip thinning."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from eppsim import index, sampling
from eppsim.errors import DegenerateSeriesError, OutOfRangeError, ParameterError
from eppsim.paths import GbmParams, simulate_gbm
from eppsim.index import grid_count
from eppsim.sampling import (
    hawkes_arrivals,
    k_skip,
    observe_path,
    poisson_arrivals,
    previous_tick_grid,
    synchronous_ticks,
)
from eppsim.hawkes import HawkesSpec
from eppsim.series import ArrivalSet, PricePath, TickSeries


def make_path(values_by_asset, dt=1.0):
    from eppsim.series import PricePath

    vals = np.column_stack([np.asarray(values_by_asset, float)] * 2)
    return PricePath(dt=dt, values=vals)


# ---------------------------------------------------------------------------
# arrivals


def test_poisson_count_within_3_sigma():
    arr = poisson_arrivals(1.0 / 15.0, 72000.0, seed=0)
    assert abs(len(arr) - 4800) < 3 * math.sqrt(4800)


def test_poisson_interarrivals_pass_ks():
    arr = poisson_arrivals(1.0 / 15.0, 72000.0, seed=1)
    gaps = np.diff(arr.times)
    assert stats.kstest(gaps, "expon", args=(0, 15.0)).pvalue > 0.01


def test_poisson_tiny_horizon_empty():
    arr = poisson_arrivals(0.001, 0.1, seed=2)
    assert len(arr) == 0
    assert arr.horizon == 0.1


def test_poisson_deterministic_and_monotone():
    a = poisson_arrivals(0.5, 1000.0, seed=3)
    b = poisson_arrivals(0.5, 1000.0, seed=3)
    np.testing.assert_array_equal(a.times, b.times)
    assert np.all(np.diff(a.times) > 0)
    assert a.times[0] >= 0 and a.times[-1] <= 1000.0


def test_poisson_invalid_rate():
    with pytest.raises(ParameterError):
        poisson_arrivals(-1.0, 10.0, seed=0)


def test_poisson_refuses_a_rate_past_the_tick_bound_before_drawing(monkeypatch):
    def no_draw(*args):
        raise AssertionError("a random stream was opened")

    monkeypatch.setattr(sampling.seeding, "stream", no_draw)
    with pytest.raises(ParameterError, match=(
            "^rate 1e\\+300 over horizon 72000.0 expects 7.2e\\+304 ticks, past the 9.9e\\+06 at "
            "which 0.01 pairs of equal float64 arrival times are expected$")):
        poisson_arrivals(1e300, 72000.0, seed=0)
    # rate * horizon itself past the largest float
    with pytest.raises(ParameterError, match=(
            "^rate 1e\\+308 over horizon 3000.0 expects more than 1e308 ticks, past the 1.1e\\+07 ")):
        poisson_arrivals(1e308, 3000.0, seed=0)


def test_poisson_refuses_a_rate_likely_to_draw_equal_times_before_drawing(monkeypatch):
    # rate**2 * horizon * ulp(horizon) / 2 pairs of equal float64 times are
    # expected: 0.52 at 1000/s over 72 000 s is refused, 5e-7 at the presets'
    # fastest 1/s and just under index.MAX_EXPECTED_COLLISIONS are not
    def no_draw(*args):
        raise AssertionError("a random stream was opened")

    monkeypatch.setattr(sampling.seeding, "stream", no_draw)
    with pytest.raises(ParameterError, match=(
            "^rate 1000.0 over horizon 72000.0 expects 0.52 pairs of equal float64 "
            "arrival times, at most 0.01 are allowed$")):
        poisson_arrivals(1000.0, 72000.0, seed=0)
    assert index.expected_ticks(1.0, 72000.0) == 72000.0
    edge = math.sqrt(2 * index.MAX_EXPECTED_COLLISIONS / (72000.0 * math.ulp(72000.0)))
    index.expected_ticks(0.999 * edge, 72000.0)
    with pytest.raises(ParameterError, match="pairs of equal float64 arrival times"):
        index.expected_ticks(1.001 * edge, 72000.0)


def test_hawkes_arrivals_mean_interarrival_near_stationary_value():
    # (I - Gamma)^-1 lambda0 with the reference kernel gives ~52.7 s gaps
    spec = HawkesSpec(lambda0=[0.015, 0.015], alpha=[[0.0, 0.023], [0.023, 0.0]],
                      beta=[[0.11, 0.11], [0.11, 0.11]])
    a, b = hawkes_arrivals(spec, 72000.0, seed=4)
    want = (1.0 - 0.023 / 0.11) / 0.015
    for arr in (a, b):
        assert np.mean(np.diff(arr.times)) == pytest.approx(want, rel=0.05)


def test_hawkes_arrivals_rejects_wrong_dimension():
    spec3 = HawkesSpec(lambda0=np.ones(3) * 0.1, alpha=np.zeros((3, 3)), beta=np.ones((3, 3)))
    with pytest.raises(ParameterError):
        hawkes_arrivals(spec3, 10.0, seed=0)


def test_hawkes_arrivals_alpha_zero_reduces_to_poisson_law():
    spec = HawkesSpec(lambda0=[1.0 / 15.0, 1.0 / 15.0], alpha=np.zeros((2, 2)), beta=np.ones((2, 2)))
    a, _ = hawkes_arrivals(spec, 72000.0, seed=5)
    gaps = np.diff(a.times)
    assert stats.kstest(gaps, "expon", args=(0, 15.0)).pvalue > 0.01


# ---------------------------------------------------------------------------
# observe_path


def test_observe_path_on_grid_points():
    path = make_path([0.0, 1.0, 2.0, 3.0, 4.0])
    arr = ArrivalSet(times=np.array([0.0, 2.0, 4.0]), horizon=4.0)
    ticks = observe_path(path, arr, 0)
    np.testing.assert_array_equal(ticks.values, [0.0, 2.0, 4.0])
    np.testing.assert_array_equal(ticks.times, arr.times)


def test_observe_path_between_grid_points_takes_previous():
    path = make_path([10.0, 11.0, 12.0])
    arr = ArrivalSet(times=np.array([0.5, 1.0, 1.9]), horizon=2.0)
    ticks = observe_path(path, arr, 0)
    np.testing.assert_array_equal(ticks.values, [10.0, 11.0, 11.0])


def test_observe_path_empty_arrivals():
    path = make_path([0.0, 1.0])
    ticks = observe_path(path, ArrivalSet(times=np.array([]), horizon=1.0), 0)
    assert len(ticks) == 0


def test_observe_path_out_of_domain():
    path = make_path([0.0, 1.0])
    with pytest.raises(OutOfRangeError):
        observe_path(path, ArrivalSet(times=np.array([0.5, 1.5]), horizon=2.0), 0)
    with pytest.raises(ParameterError):
        observe_path(path, ArrivalSet(times=np.array([0.5]), horizon=1.0), 2)


def test_observe_path_selects_asset():
    from eppsim.series import PricePath

    vals = np.column_stack([[0.0, 1.0, 2.0], [5.0, 6.0, 7.0]])
    path = PricePath(dt=1.0, values=vals)
    arr = ArrivalSet(times=np.array([2.0]), horizon=2.0)
    assert observe_path(path, arr, 0).values[0] == 2.0
    assert observe_path(path, arr, 1).values[0] == 7.0


# ---------------------------------------------------------------------------
# previous_tick_grid


def brute_force_grid(ticks, dt, horizon):
    # literal gamma(t) = value at max{t_k <= t}, first value before t_1
    n = int(math.floor(horizon / dt + 1e-9))
    out = np.empty(n + 1)
    for h in range(n + 1):
        t = h * dt
        idx = None
        for k in range(len(ticks.times)):
            if ticks.times[k] <= t:
                idx = k
        out[h] = ticks.values[idx] if idx is not None else ticks.values[0]
    return out


def test_grid_single_observation_constant():
    ticks = TickSeries(times=np.array([0.0]), values=np.array([3.5]), horizon=10.0)
    g = previous_tick_grid(ticks, 2.0, 10.0)
    np.testing.assert_array_equal(g.values, np.full(6, 3.5))


def test_grid_observation_at_every_point():
    ticks = TickSeries(times=np.arange(5.0), values=np.array([1.0, 2.0, 3.0, 4.0, 5.0]),
                       horizon=4.0)
    g = previous_tick_grid(ticks, 1.0, 4.0)
    np.testing.assert_array_equal(g.values, ticks.values)


def test_grid_matches_brute_force_scan():
    rng = np.random.default_rng(6)
    for _ in range(25):
        n = int(rng.integers(1, 40))
        times = np.sort(rng.uniform(0.0, 100.0, n))
        times = np.unique(times)
        ticks = TickSeries(times=times, values=rng.normal(size=times.size), horizon=100.0)
        dt = float(rng.uniform(0.3, 20.0))
        got = previous_tick_grid(ticks, dt, 100.0)
        np.testing.assert_array_equal(got.values, brute_force_grid(ticks, dt, 100.0))


def test_grid_run_lengths_match_gap_sizes():
    # a gap g between ticks repeats the older value ceil(g/dt) times,
    # give or take one depending on grid alignment
    times = np.array([0.0, 7.3, 30.1, 52.9])
    ticks = TickSeries(times=times, values=np.array([1.0, 2.0, 3.0, 4.0]), horizon=60.0)
    dt = 2.0
    g = previous_tick_grid(ticks, dt, 60.0)
    changes = np.flatnonzero(np.diff(g.values) != 0)
    runs = np.diff(np.concatenate([[-1], changes]))
    for run, gap in zip(runs, np.diff(times)):
        assert abs(run - math.ceil(gap / dt)) <= 1, (run, gap)


def test_grid_empty_series_rejected():
    empty = TickSeries(times=np.array([]), values=np.array([]), horizon=10.0)
    with pytest.raises(DegenerateSeriesError):
        previous_tick_grid(empty, 1.0, 10.0)


def test_grid_idempotent_at_same_dt():
    rng = np.random.default_rng(7)
    times = np.sort(rng.uniform(0.0, 50.0, 12))
    ticks = TickSeries(times=times, values=rng.normal(size=12), horizon=50.0)
    g1 = previous_tick_grid(ticks, 5.0, 50.0)
    regrid = TickSeries(times=5.0 * np.arange(len(g1)), values=g1.values, horizon=50.0)
    g2 = previous_tick_grid(regrid, 5.0, 50.0)
    np.testing.assert_array_equal(g1.values, g2.values)


def test_dense_arrivals_reproduce_path():
    params = GbmParams(mu1=0.01, mu2=0.01, sigma_sq1=0.1, sigma_sq2=0.2, rho=0.65,
                       dt=1.0, horizon=500.0)
    path = simulate_gbm(params, seed=8)
    ticks = synchronous_ticks(path, 0)
    g = previous_tick_grid(ticks, 1.0, 500.0)
    np.testing.assert_array_equal(g.values, path.values[:, 0])


def test_grid_count_tolerates_float_division():
    assert grid_count(1.0, 0.1) == 10
    assert grid_count(72000.0, 15.0) == 4800
    assert grid_count(10.0, 3.0) == 3


# ---------------------------------------------------------------------------
# linear-time index kernels against bisection


def near_nodes(nodes, picks, rng):
    """Nodes themselves, their one-ulp neighbours and points between them."""
    at = nodes[picks % nodes.size]
    kind = rng.integers(0, 4, at.size)
    out = np.where(kind == 1, np.nextafter(at, -np.inf), at)
    out = np.where(kind == 2, np.nextafter(at, np.inf), out)
    gap = nodes[1] - nodes[0] if nodes.size > 1 else 1.0
    return np.where(kind == 3, at + rng.uniform(0.0, 1.0, at.size) * gap, out)


kernel_cases = dict(
    dt=st.sampled_from([0.1, 0.7, 3.0, 1.0, 0.3, 2.5e-3]),
    n_grid=st.integers(min_value=0, max_value=300),
    n_ticks=st.integers(min_value=0, max_value=400),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)


@given(**kernel_cases)
@settings(max_examples=300, deadline=None)
def test_tick_counts_equal_bisection(dt, n_grid, n_ticks, seed):
    # grids both denser and sparser than the ticks (a dense leg is ranked
    # among the queries like a sparse one), ticks on grid points, at one ulp
    # of them and past the last one
    rng = np.random.default_rng(seed)
    horizon = dt * n_grid
    nodes = dt * np.arange(n_grid + 1)
    times = near_nodes(nodes, rng.integers(0, 2**31, n_ticks), rng)
    times = np.unique(np.abs(np.concatenate([times, rng.uniform(0.0, 1.2 * horizon + dt, 3)])))
    ticks = TickSeries(times=times, values=np.arange(times.size, dtype=float), horizon=times.max(initial=0.0))
    got = index._tick_counts(times, nodes, dt)
    np.testing.assert_array_equal(got, np.searchsorted(times, nodes, side="right"))
    # the overlap windows: ends dt + k*dt and starts (dt + k*dt) - dt
    ends = dt + dt * np.arange(n_grid)
    for queries in (ends, ends - dt):
        got = index._tick_counts(times, queries, dt)
        np.testing.assert_array_equal(got, np.searchsorted(times, queries, side="right"))
    if len(ticks):
        grid = previous_tick_grid(ticks, dt, horizon)
        want = np.maximum(np.searchsorted(times, nodes, side="right") - 1, 0)
        np.testing.assert_array_equal(grid.values, want.astype(float))


@pytest.mark.parametrize("n_ticks, n_grid", [(0, 50), (1, 50), (1, 1), (5000, 10), (10, 5000)])
def test_tick_counts_edge_sizes(n_ticks, n_grid):
    rng = np.random.default_rng(n_ticks + n_grid)
    times = np.sort(rng.uniform(0.0, 100.0, n_ticks))
    nodes = (100.0 / n_grid) * np.arange(n_grid + 1)
    got = index._tick_counts(times, nodes, 100.0 / n_grid)
    np.testing.assert_array_equal(got, np.searchsorted(times, nodes, side="right"))
    got = index._tick_counts(times, n_grid + 1, 100.0 / n_grid)
    want = np.searchsorted(times, index._lattice(n_grid + 1, 100.0 / n_grid), side="right")
    np.testing.assert_array_equal(got, want)


CUT = index.RUN_LENGTH_POINTS_PER_TICK


@pytest.mark.parametrize("n_ticks, n, past, run_lengths", [
    (80, 80 * CUT + 1, False, True),  # one tick below the density cut
    (80, 80 * CUT, False, False),  # at it
    (81, 80 * CUT, False, False),  # above it
    (0, 80 * CUT, False, True),  # an empty leg
    (0, 0, False, False),
    (80, 80 * CUT + 1, True, True),  # every rank clips to n
    (80 * CUT, 80 * CUT, True, False),
])
@pytest.mark.parametrize("step", [1.0, 0.1])
def test_tick_counts_take_both_paths_around_the_density_cut(
    monkeypatch, n_ticks, n, past, run_lengths, step
):
    # legs that repeat run lengths and legs that sum a bincount, ranked against
    # the grid (exactly on step 1, by bisection on step 0.1) and among queries,
    # with ticks on nodes, at one ulp of them and past the last one
    calls = []
    bincount = np.bincount
    monkeypatch.setattr(np, "bincount", lambda *a, **k: calls.append(1) or bincount(*a, **k))
    rng = np.random.default_rng(n_ticks + n)
    nodes = index._lattice(n, step)
    span = step * max(n, 1)
    times = near_nodes(nodes, rng.integers(0, 2**31, n_ticks), rng) if n else np.empty(0)
    times = np.unique(np.abs(np.concatenate([times, rng.uniform(0.0, span, n_ticks)])))[:n_ticks]
    if past:
        times = np.sort(rng.uniform(span, 2 * span, n_ticks))
    assert times.size == n_ticks
    want = np.searchsorted(times, nodes, side="right")
    for queries in (n, nodes):
        np.testing.assert_array_equal(index._tick_counts(times, queries, step), want)
    assert calls == ([] if run_lengths else [1, 1])


@given(
    step=st.sampled_from([1.0, 0.5, 0.1]),
    n_steps=st.integers(min_value=0, max_value=400),
    multiple=st.sampled_from([1, 2, 5, 15, 1.5, 0.5]),
    span=st.sampled_from([1.0, 0.3, 0.77, 1.3]),
)
@settings(max_examples=300, deadline=None)
def test_synchronous_grid_counts_equal_bisection(step, n_steps, multiple, span):
    # a synchronous leg's previous-tick counts at dt = multiple * step over
    # horizons that are not multiples of dt, short of the path's and past it
    path = PricePath(dt=step, values=np.zeros((n_steps + 1, 2)))
    ticks = synchronous_ticks(path, 0)
    dt = multiple * step
    horizon = span * (path.horizon + step)
    queries = dt * np.arange(grid_count(horizon, dt) + 1)
    want = np.searchsorted(ticks.times, queries, side="right")
    np.testing.assert_array_equal(sampling._previous_tick_counts(ticks, dt, horizon), want)
    np.testing.assert_array_equal(index._tick_counts(ticks.times, queries, dt), want)
    strided = index._strided_counts(ticks.times, queries.size, dt)
    if strided is not None:
        np.testing.assert_array_equal(strided, want)
    lattice = step != 0.1 and n_steps >= 1
    if lattice and isinstance(multiple, int) and queries.size >= 2:
        assert strided is not None
    # at dt = 1.5 * step the second grid point falls between two ticks
    # unless the leg ends before it
    between = multiple == 1.5 and n_steps >= 2 and queries.size >= 2
    if multiple == 0.5 or between:
        assert strided is None


@pytest.mark.parametrize("dt, strided", [(0.3, False), (0.7, False), (1.1, False),
                                          (0.2, True), (1.0, True), (5.0, True)])
def test_synchronous_grid_at_a_step_of_a_tenth(dt, strided):
    # 0.1 * 3 is 0.30000000000000004, so the grid h * 0.3 misses ticks by an
    # ulp and takes the general path; 0.1 * (10 * h) rounds to h exactly, so
    # the one-second grid is every tenth tick
    path = PricePath(dt=0.1, values=np.zeros((3001, 2)))
    ticks = synchronous_ticks(path, 0)
    queries = dt * np.arange(grid_count(300.0, dt) + 1)
    want = np.searchsorted(ticks.times, queries, side="right")
    got = index._strided_counts(ticks.times, queries.size, dt)
    assert (got is not None) == strided
    if strided:
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(sampling._previous_tick_counts(ticks, dt, 300.0), want)


@pytest.mark.parametrize("at, nudge", [(0, np.inf), (1, -np.inf), (40, -np.inf),
                                       (40, np.inf), (99, np.inf), (100, -np.inf)])
def test_strided_counts_check_every_tick_they_read(at, nudge):
    # one tick of a one-second lattice moved by an ulp: an even one is no
    # longer a point of the two-second grid, an odd one is not read
    times = np.arange(101.0)
    times[at] = np.nextafter(times[at], nudge)
    queries = 2.0 * np.arange(grid_count(103.0, 2.0) + 1)
    want = np.searchsorted(times, queries, side="right")
    got = index._strided_counts(times, queries.size, 2.0)
    assert (got is None) == (at % 2 == 0)
    if got is not None:
        np.testing.assert_array_equal(got, want)
    ticks = TickSeries(times=times, values=times, horizon=times[-1])
    np.testing.assert_array_equal(sampling._previous_tick_counts(ticks, 2.0, 103.0), want)


@given(
    dt=st.sampled_from([0.1, 0.7, 3.0, 1.0, 2.0, 0.5, 2**-10]),
    n_steps=st.integers(min_value=0, max_value=300),
    n_arrivals=st.integers(min_value=0, max_value=400),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    order=st.sampled_from("CF"),
)
@settings(max_examples=300, deadline=None)
def test_observe_path_equals_bisection(dt, n_steps, n_arrivals, seed, order):
    # paths built from row-major and from column-major arrays alike
    rng = np.random.default_rng(seed)
    values = np.column_stack([np.arange(n_steps + 1.0), -np.arange(n_steps + 1.0)])
    path = PricePath(dt=dt, values=np.asarray(values, order=order))
    assert path.values.flags.f_contiguous
    nodes = path.times()
    times = near_nodes(nodes, rng.integers(0, 2**31, n_arrivals), rng)
    times = np.unique(np.clip(times, 0.0, path.horizon))
    arrivals = ArrivalSet(times=times, horizon=path.horizon)
    want = np.searchsorted(nodes, times, side="right") - 1
    np.testing.assert_array_equal(observe_path(path, arrivals, 0).values, want.astype(float))
    np.testing.assert_array_equal(observe_path(path, arrivals, 1).values, -want.astype(float))


@pytest.mark.parametrize("step", [1.0, 2.0, 0.5, 2**-10, 2.0**60, 0.1, 1.5, 3.0])
def test_observe_path_reads_the_node_at_or_before_each_arrival(step):
    # 0.0 or -0.0 first, the least subnormal (whose quotient underflows to 0
    # at 2**60), every node and its one-ulp neighbours, and the horizon,
    # which is the last node; one ulp past it is refused. A step that is not
    # a power of two is bisected against the grid
    rng = np.random.default_rng(11)
    path = PricePath(dt=step, values=rng.standard_normal((7, 2)))
    nodes = path.times()
    assert nodes[-1] == path.horizon
    near = np.concatenate([np.nextafter(nodes, -np.inf), nodes, np.nextafter(nodes, np.inf)])
    near = near[(near > 0) & (near <= path.horizon)]
    for zero in (0.0, -0.0):
        t = np.concatenate([[zero], np.unique(np.concatenate([[5e-324, path.horizon], near]))])
        arrivals = ArrivalSet(times=t, horizon=path.horizon)
        for asset in (0, 1):
            want = path.values[np.searchsorted(path.times(), t, "right") - 1, asset]
            got = observe_path(path, arrivals, asset)
            np.testing.assert_array_equal(got.values, want)
            assert got.times is arrivals.times
    past = ArrivalSet(times=np.array([np.nextafter(path.horizon, np.inf)]), horizon=2 * path.horizon)
    with pytest.raises(OutOfRangeError):
        observe_path(path, past, 0)


@pytest.mark.parametrize("step", [1.0, 2.0, 0.5, 2**-10, 2**-1074, 2.0**60, 0.1, 1.5, 3.0])
def test_lattice_ranks_equal_bisection(step):
    # zeros of either sign, the least subnormal, a node and its one-ulp
    # neighbours, the last node and past it; at 2**60 the subnormal's
    # quotient underflows to 0, yet it lies past node 0. A step that is not
    # a power of two is bisected against the grid
    n = 7
    nodes = step * np.arange(n)
    x = np.array([0.0, -0.0, 5e-324, np.nextafter(nodes[3], -np.inf), nodes[3],
                  np.nextafter(nodes[3], np.inf), nodes[-1], np.nextafter(nodes[-1], np.inf),
                  nodes[-1] + 5 * step])
    got = index._lattice_ranks(x, n, step)
    assert got.dtype == np.intp
    np.testing.assert_array_equal(got, np.searchsorted(nodes, x, side="left"))


@pytest.mark.parametrize("step", [2**-10, 1.0, 2.0, 2.0**20, 0.1, 1.5, 3.0])
def test_lattice_counts_equal_bisection(step):
    # ticks on grid points, one ulp either side of them, between them and
    # past the last; a first tick of 5e-324, whose quotient rounds to 0 at
    # steps 2 and 2**20 yet which lies past node 0. Sparse and dense legs
    # alike are ranked (exactly on a power-of-two step, by bisection on any
    # other); pool holds more than 2 ticks per node
    n = 9
    nodes = index._lattice(n, step)
    np.testing.assert_array_equal(nodes, step * np.arange(n))
    pool = np.concatenate([np.nextafter(nodes, -np.inf), nodes, np.nextafter(nodes, np.inf),
                           nodes + 0.5 * step, [5e-324, nodes[-1] + 3 * step]])
    pool = np.unique(pool[pool >= 0])
    rng = np.random.default_rng(7)
    legs = [pool[:0], pool[:1], pool[:3], np.array([5e-324, step]), pool]
    legs += [np.unique(rng.choice(pool, size)) for size in (4, 9, 15)]
    assert pool.size > 2 * n
    for times in legs:
        got = index._tick_counts(times, n, step)
        np.testing.assert_array_equal(got, np.searchsorted(times, nodes, side="right"))


@given(
    step=st.sampled_from([2**-10, 1.0, 2.0, 2.0**20]),
    n=st.integers(min_value=0, max_value=300),
    n_ticks=st.integers(min_value=0, max_value=700),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_lattice_counts_equal_bisection_on_random_legs(step, n, n_ticks, seed):
    rng = np.random.default_rng(seed)
    nodes = step * np.arange(n)
    times = near_nodes(nodes, rng.integers(0, 2**31, n_ticks), rng) if n else np.empty(0)
    times = np.unique(np.abs(np.concatenate([times, rng.uniform(0.0, 1.2 * step * n, 3)])))
    got = index._tick_counts(times, n, step)
    np.testing.assert_array_equal(got, np.searchsorted(times, nodes, side="right"))


# zero, subnormals, the smallest normal, ulp neighbours and values far apart
RANK_SPECIALS = np.array([0.0, 5e-324, 1e-323, 1e-310, 2.2250738585072014e-308, 1e-300,
                          0.5, 1.0, np.nextafter(1.0, 2.0), 3.0, 2.0**53, 1e300])


@given(
    sizes=st.sampled_from([(0, 0), (0, 4), (4, 0), (1, 1), (1, 2), (2, 1), (1, 300),
                           (300, 1), (3, 900), (900, 3), (200, 200)]),
    negative_zero=st.tuples(st.booleans(), st.booleans()),
    shared=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_left_right_counts_equal_bisection(sizes, negative_zero, shared, seed):
    # the HY rank of x (ascending, repeats allowed) among strictly
    # increasing ticks, both >= 0, on both sides: ties shared between the
    # legs, a -0.0 first in either leg, subnormals, empty and one-tick legs
    # and legs of very unequal size
    n_x, n_times = sizes
    rng = np.random.default_rng(seed)
    pool = np.unique(np.concatenate([
        RANK_SPECIALS, rng.uniform(0.0, 4.0, 900), rng.uniform(0.0, 1e-308, 100)]))
    times = np.sort(rng.choice(pool, n_times, replace=False))
    n_tied = min(rng.binomial(n_x, shared), n_times)
    x = np.sort(np.concatenate([rng.choice(times, n_tied), rng.choice(pool, n_x - n_tied)]))
    if negative_zero[0] and times.size:
        times = np.concatenate([[-0.0], times[times > 0][: n_times - 1]])
    if negative_zero[1] and x.size:
        x[0] = -0.0  # a +0.0 after it is kept
    given_times, given_x = times.copy(), x.copy()
    below, upto = index._left_right_counts(times, x)
    assert below.dtype == upto.dtype == np.intp
    np.testing.assert_array_equal(below, np.searchsorted(times, x, side="left"))
    np.testing.assert_array_equal(upto, np.searchsorted(times, x, side="right"))
    assert np.array_equal(times, given_times) and np.array_equal(x, given_x)


@pytest.fixture
def lattice_builds(monkeypatch):
    """(n, built by _strided_counts) for every grid index._lattice builds."""
    lattice, strided, built, inside = index._lattice, sampling._strided_counts, [], []

    def counted_lattice(n, step):
        built.append((n, bool(inside)))
        return lattice(n, step)

    def counted_strided(*args):
        inside.append(True)
        try:
            return strided(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(index, "_lattice", counted_lattice)
    monkeypatch.setattr(sampling, "_strided_counts", counted_strided)
    return built


def test_preset_grids_are_counted_without_the_correction_loop(lattice_builds):
    # every preset's base step is 1 s, a power of two, so no preset grid is
    # built to be searched: Poisson legs (2a) and Hawkes-clocked legs of a
    # Hawkes path (6b) are counted by exact arithmetic on their stated grid,
    # synchronous legs (5) read by _strided_counts, which builds only the
    # grid points it compares
    from eppsim.presets import figure_recipe, run_figure

    for name in ("2a", "6b"):
        run_figure(figure_recipe(name, seed=0, n_replications=2))
        assert lattice_builds == [], name
    run_figure(figure_recipe("5", seed=0, n_replications=2))
    assert lattice_builds and all(strided for _, strided in lattice_builds)


def test_observe_path_ranks_preset_paths_without_the_correction_loop(lattice_builds):
    # every preset path has a 1 s step, so no preset replication builds a
    # grid to rank its arrivals; a path at a step of 0.1 or 3 builds its own
    from eppsim.presets import figure_recipe, run_figure

    for name, n in (("8b", 2), ("10a", None)):
        run_figure(figure_recipe(name, seed=0, n_replications=n))
        assert lattice_builds == [], name
    arrivals = ArrivalSet(times=np.array([0.35, 1.0, 1.95]), horizon=2.0)
    for dt, rows in ((0.1, 31), (3.0, 2), (0.5, 5)):
        lattice_builds.clear()
        observe_path(PricePath(dt=dt, values=np.zeros((rows, 2))), arrivals, 0)
        assert lattice_builds == ([] if dt == 0.5 else [(rows, False)]), dt


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_price_path_refuses_a_non_finite_dt(bad):
    # node 0 of a grid at dt = inf is 0 * inf = nan, so no search against
    # it means anything
    with pytest.raises(ParameterError, match=r"^dt must be"):
        PricePath(dt=bad, values=np.zeros((3, 2)))


# ---------------------------------------------------------------------------
# k_skip


def test_k_skip_identity():
    arr = ArrivalSet(times=np.arange(1.0, 11.0), horizon=10.0)
    np.testing.assert_array_equal(k_skip(arr, 1).times, arr.times)


def test_k_skip_every_third():
    arr = ArrivalSet(times=np.arange(1.0, 11.0), horizon=10.0)
    np.testing.assert_array_equal(k_skip(arr, 3).times, [3.0, 6.0, 9.0])


def test_k_skip_cardinality():
    arr = ArrivalSet(times=np.arange(1.0, 11.0), horizon=10.0)
    for k in range(1, 12):
        assert len(k_skip(arr, k)) == 10 // k


def test_k_skip_tick_series_keeps_alignment():
    ticks = TickSeries(times=np.arange(1.0, 7.0), values=np.arange(10.0, 16.0), horizon=6.0)
    out = k_skip(ticks, 2)
    np.testing.assert_array_equal(out.times, [2.0, 4.0, 6.0])
    np.testing.assert_array_equal(out.values, [11.0, 13.0, 15.0])


@pytest.mark.parametrize("bad", [0, -1, 1.5, True, "2"])
def test_k_skip_invalid_k(bad):
    arr = ArrivalSet(times=np.arange(1.0, 5.0), horizon=5.0)
    with pytest.raises(ParameterError):
        k_skip(arr, bad)


def test_k_skip_rejects_other_types():
    with pytest.raises(ParameterError):
        k_skip(np.arange(5.0), 2)


@given(
    n=st.integers(min_value=0, max_value=200),
    a=st.integers(min_value=1, max_value=6),
    b=st.integers(min_value=1, max_value=6),
)
@settings(max_examples=60, deadline=None)
def test_k_skip_composition_property(n, a, b):
    arr = ArrivalSet(times=np.arange(1.0, n + 1.0), horizon=float(max(n, 1)))
    once = k_skip(k_skip(arr, a), b)
    direct = k_skip(arr, a * b)
    np.testing.assert_array_equal(once.times, direct.times)
    if len(once) > 1:
        assert np.all(np.diff(once.times) > 0)
