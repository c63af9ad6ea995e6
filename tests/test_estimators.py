"""Correlation estimators and corrections against brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eppsim.errors import (
    DegenerateSeriesError,
    NoOverlapError,
    NumericError,
    ParameterError,
    SaturationError,
)
from eppsim.estimators import (
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
from eppsim.paths import GbmParams, simulate_gbm
from eppsim.sampling import observe_path, poisson_arrivals, previous_tick_grid
from eppsim.series import ArrivalSet, GridSeries, TickSeries


def grids(vi, vj, dt=1.0):
    return GridSeries(dt=dt, values=np.asarray(vi, float)), GridSeries(
        dt=dt, values=np.asarray(vj, float)
    )


def random_ticks(rng, n, horizon=100.0):
    times = np.unique(rng.uniform(0.0, horizon, n))
    while times.size < 2:
        times = np.unique(rng.uniform(0.0, horizon, n + 2))
    return TickSeries(times=times, values=rng.normal(size=times.size), horizon=horizon)


# ---------------------------------------------------------------------------
# realised covariance


def test_rv_straight_line_value():
    # n equal steps summing to r: covariance with itself is n*(r/n)^2
    n, r = 8, 2.0
    gi, gj = grids(np.linspace(0.0, r, n + 1), np.linspace(0.0, r, n + 1))
    assert realised_covariance(gi, gj) == pytest.approx(r * r / n, abs=1e-15)


def test_rv_constant_series_zero():
    gi, gj = grids(np.full(10, 1.3), np.arange(10.0))
    assert realised_covariance(gi, gj) == 0.0


def test_rv_matches_naive_loop():
    rng = np.random.default_rng(0)
    for _ in range(30):
        n = int(rng.integers(2, 200))
        gi, gj = grids(rng.normal(size=n), rng.normal(size=n))
        want = 0.0
        for h in range(1, n):
            want += (gi.values[h] - gi.values[h - 1]) * (gj.values[h] - gj.values[h - 1])
        assert realised_covariance(gi, gj) == pytest.approx(want, abs=1e-12)


def test_rv_shape_errors():
    gi = GridSeries(dt=1.0, values=np.arange(5.0))
    gj = GridSeries(dt=1.0, values=np.arange(4.0))
    with pytest.raises(ParameterError):
        realised_covariance(gi, gj)
    gk = GridSeries(dt=2.0, values=np.arange(5.0))
    with pytest.raises(ParameterError):
        realised_covariance(gi, gk)


# ---------------------------------------------------------------------------
# measured correlation


def test_measured_identical_series_is_one():
    gi, gj = grids([0.0, 1.0, 0.5, 2.0], [0.0, 1.0, 0.5, 2.0])
    assert measured_correlation(gi, gj).rho == pytest.approx(1.0, abs=1e-15)


def test_measured_negated_series_is_minus_one():
    v = np.array([0.0, 1.0, 0.5, 2.0])
    gi, gj = grids(v, -v)
    assert measured_correlation(gi, gj).rho == pytest.approx(-1.0, abs=1e-15)


def test_measured_flat_leg_raises_with_leg_tag():
    gi, gj = grids(np.zeros(5), np.arange(5.0))
    with pytest.raises(DegenerateSeriesError):
        measured_correlation(gi, gj)
    with pytest.raises(DegenerateSeriesError):
        measured_correlation(gj, gi)


@pytest.mark.parametrize("vi, vj, name", [
    ([0.0, 1e200, 0.0], [0.0, 1.0, 0.0], "the realised variance of leg i is inf"),
    ([0.0, 1.0, 0.0], [0.0, 1e200, 0.0], "the realised variance of leg j is inf"),
    ([0.0, 1e100, 0.0, 1e100], [0.0, 1e100, 0.0, 1e100],
     "the product of the realised variances is inf"),
])
def test_sums_that_overflow_raise_numeric_error_naming_estimator_and_leg(vi, vj, name):
    # finite values whose squared returns overflow: the estimates read 0.0
    legs = [TickSeries(times=np.arange(len(v), dtype=float), values=np.array(v),
                       horizon=float(len(v))) for v in (vi, vj)]
    with np.errstate(over="ignore"):
        with pytest.raises(NumericError, match=f"^measured: {name}, not a finite number$"):
            measured_correlation(*grids(vi, vj))
        with pytest.raises(NumericError, match=f"^hy: {name}, not a finite number$"):
            hayashi_yoshida(*legs)


# ---------------------------------------------------------------------------
# Hayashi-Yoshida


def hy_brute_force(si, sj):
    di = np.diff(si.values)
    dj = np.diff(sj.values)
    cov = 0.0
    for a in range(di.size):
        lo_i, hi_i = si.times[a], si.times[a + 1]
        for b in range(dj.size):
            lo_j, hi_j = sj.times[b], sj.times[b + 1]
            # half-open intervals (lo, hi] intersect iff each opens before
            # the other closes
            if lo_i < hi_j and lo_j < hi_i:
                cov += di[a] * dj[b]
    return cov / math.sqrt(np.sum(di * di) * np.sum(dj * dj))


def test_hy_identical_series_is_one():
    rng = np.random.default_rng(1)
    s = random_ticks(rng, 30)
    assert hayashi_yoshida(s, s).rho == pytest.approx(1.0, abs=1e-15)


def test_hy_small_literal_case():
    si = TickSeries(times=np.array([0.0, 2.0, 5.0]), values=np.array([0.0, 1.0, 3.0]),
                    horizon=6.0)
    sj = TickSeries(times=np.array([1.0, 3.0, 4.0]), values=np.array([0.0, 2.0, 1.0]),
                    horizon=6.0)
    # interval products written out: (0,2]x(1,3] and (2,5]x(1,3], (2,5]x(3,4]
    cov = 1.0 * 2.0 + 2.0 * 2.0 + 2.0 * (-1.0)
    want = cov / math.sqrt((1.0 + 4.0) * (4.0 + 1.0))
    assert hayashi_yoshida(si, sj).rho == pytest.approx(want, abs=1e-15)


def test_hy_shared_endpoint_does_not_overlap():
    si = TickSeries(times=np.array([0.0, 1.0, 2.0]), values=np.array([0.0, 1.0, 3.0]),
                    horizon=5.0)
    sj = TickSeries(times=np.array([2.0, 3.0, 4.0]), values=np.array([0.0, 2.0, 5.0]),
                    horizon=5.0)
    assert hayashi_yoshida(si, sj).rho == 0.0


def test_hy_sweep_matches_double_loop_on_200_cases():
    rng = np.random.default_rng(2)
    for _ in range(200):
        si = random_ticks(rng, int(rng.integers(2, 60)))
        sj = random_ticks(rng, int(rng.integers(2, 60)))
        got = hayashi_yoshida(si, sj).rho
        assert got == pytest.approx(hy_brute_force(si, sj), abs=1e-12)


def test_hy_synchronous_equals_measured():
    params = GbmParams(mu1=0.01, mu2=0.01, sigma_sq1=0.1, sigma_sq2=0.2, rho=0.65,
                       dt=1.0, horizon=3000.0)
    path = simulate_gbm(params, seed=3)
    times = np.arange(0.0, 3000.1, 5.0)
    si = TickSeries(times=times, values=path.values[::5, 0], horizon=3000.0)
    sj = TickSeries(times=times, values=path.values[::5, 1], horizon=3000.0)
    rho_hy = hayashi_yoshida(si, sj).rho
    gi = previous_tick_grid(si, 5.0, 3000.0)
    gj = previous_tick_grid(sj, 5.0, 3000.0)
    assert rho_hy == pytest.approx(measured_correlation(gi, gj).rho, abs=1e-12)


def test_hy_degenerate_inputs():
    one = TickSeries(times=np.array([0.0]), values=np.array([1.0]), horizon=1.0)
    two = TickSeries(times=np.array([0.0, 1.0]), values=np.array([1.0, 2.0]), horizon=1.0)
    flat = TickSeries(times=np.array([0.0, 1.0]), values=np.array([1.0, 1.0]), horizon=1.0)
    with pytest.raises(DegenerateSeriesError):
        hayashi_yoshida(one, two)
    with pytest.raises(DegenerateSeriesError):
        hayashi_yoshida(two, flat)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_hy_sweep_matches_double_loop_fuzz(data):
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**31)))
    si = random_ticks(rng, data.draw(st.integers(min_value=2, max_value=25)))
    sj = random_ticks(rng, data.draw(st.integers(min_value=2, max_value=25)))
    got = hayashi_yoshida(si, sj).rho
    assert got == pytest.approx(hy_brute_force(si, sj), abs=1e-12)


def hy_two_bisections(si, sj):
    """hayashi_yoshida as it was written with two bisections per leg-i tick."""
    if len(si) < 2 or len(sj) < 2:
        raise DegenerateSeriesError("each leg needs at least two observations")
    di = np.diff(si.values)
    dj = np.diff(sj.values)
    var_i = float(np.sum(di * di))
    var_j = float(np.sum(dj * dj))
    if var_i <= 0:
        raise DegenerateSeriesError("leg i has zero realised variance")
    if var_j <= 0:
        raise DegenerateSeriesError("leg j has zero realised variance")
    k_lo = np.searchsorted(sj.times[1:], si.times[:-1], side="right")
    k_hi = np.searchsorted(sj.times[:-1], si.times[1:], side="left")
    pref = np.concatenate([[0.0], np.cumsum(dj)])
    cov = float(np.sum(di * (pref[k_hi] - pref[k_lo])))
    return cov / math.sqrt(var_i * var_j)


def shared_time_legs(rng, n_i, n_j, n_shared, flat_i=False):
    """Two tick series on [0, 100] with up to n_shared timestamps in common
    and values on a coarse lattice, so that equal and zero returns occur;
    leg i is flat on request."""
    pool = np.unique(np.round(rng.uniform(0.0, 100.0, n_i + n_j + n_shared), 1))
    shared = rng.choice(pool, size=min(n_shared, pool.size), replace=False)
    rest = np.setdiff1d(pool, shared)
    own_i = rng.choice(rest, size=min(n_i, rest.size), replace=False)
    own_j = np.setdiff1d(rest, own_i)[:n_j]
    ti = np.unique(np.concatenate([shared, own_i]))
    tj = np.unique(np.concatenate([shared, own_j]))
    vi = np.zeros(ti.size) if flat_i else rng.integers(-2, 3, ti.size).astype(float)
    vj = rng.integers(-2, 3, tj.size).astype(float)
    return (
        TickSeries(times=ti, values=vi, horizon=100.0),
        TickSeries(times=tj, values=vj, horizon=100.0),
    )


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_i=st.integers(min_value=0, max_value=40),
    n_j=st.integers(min_value=0, max_value=40),
    n_shared=st.integers(min_value=0, max_value=40),
    flat_i=st.booleans(),
    swap=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_hy_equals_two_bisection_oracle_bitwise(seed, n_i, n_j, n_shared, flat_i, swap):
    # shared timestamps (ties between the legs), legs of 0-3 ticks, flat legs
    si, sj = shared_time_legs(np.random.default_rng(seed), n_i, n_j, n_shared, flat_i)
    if swap:
        si, sj = sj, si
    try:
        want = hy_two_bisections(si, sj)
    except DegenerateSeriesError as exc:
        with pytest.raises(DegenerateSeriesError) as got:
            hayashi_yoshida(si, sj)
        assert str(got.value) == str(exc)
        return
    assert hayashi_yoshida(si, sj).rho == want


# ---------------------------------------------------------------------------
# overlap correction


def test_overlap_expectation_on_full_grid():
    times = np.arange(0.0, 101.0)
    ui = ArrivalSet(times=times, horizon=100.0)
    stats = overlap_expectation(ui, ui, dt=5.0, horizon=100.0)
    assert stats.kappa_ii == pytest.approx(5.0, abs=1e-12)
    assert stats.kappa_jj == pytest.approx(5.0, abs=1e-12)
    assert stats.kappa_ij == pytest.approx(5.0, abs=1e-12)


def test_overlap_expectation_disjoint_sparse_arrivals():
    ui = ArrivalSet(times=np.array([0.0, 100.0, 200.0]), horizon=250.0)
    uj = ArrivalSet(times=np.array([50.0, 150.0, 250.0]), horizon=250.0)
    stats = overlap_expectation(ui, uj, dt=1.0, horizon=250.0)
    assert stats.kappa_ij < 0.05
    assert stats.kappa_ii > 0.05


def test_overlap_ratio_tracks_analytic_poisson_factor():
    rate, dt, horizon = 1.0 / 15.0, 15.0, 72000.0
    factor = 1.0 + math.expm1(-rate * dt) / (rate * dt)
    ratios = []
    for seed in range(30):
        ui = poisson_arrivals(rate, horizon, seed=2 * seed)
        uj = poisson_arrivals(rate, horizon, seed=2 * seed + 1)
        s = overlap_expectation(ui, uj, dt, horizon)
        ratios.append(s.kappa_ij / math.sqrt(s.kappa_ii * s.kappa_jj))
    err = np.std(ratios, ddof=1) / math.sqrt(len(ratios))
    assert abs(np.mean(ratios) - factor) < 4 * err + 1e-3


def test_overlap_expectation_errors():
    empty = ArrivalSet(times=np.array([]), horizon=10.0)
    full = ArrivalSet(times=np.arange(11.0), horizon=10.0)
    with pytest.raises(DegenerateSeriesError):
        overlap_expectation(empty, full, 1.0, 10.0)
    with pytest.raises(ParameterError):
        overlap_expectation(full, full, -1.0, 10.0)


def test_overlap_correction_identity_factor():
    stats = OverlapStats(kappa_ii=3.0, kappa_jj=3.0, kappa_ij=3.0, dt=3.0)
    assert overlap_correction(0.4, stats).rho == pytest.approx(0.4, abs=1e-15)


def test_overlap_correction_round_trips_poisson_epps():
    rate, dt = 1.0 / 15.0, 15.0
    rho_tilde = theoretical_poisson_epps(0.65, rate, dt)
    factor = 1.0 + math.expm1(-rate * dt) / (rate * dt)
    stats = OverlapStats(kappa_ii=1.0, kappa_jj=1.0, kappa_ij=factor, dt=dt)
    assert overlap_correction(rho_tilde, stats).rho == pytest.approx(0.65, abs=1e-12)
    assert rho_tilde == pytest.approx(0.65 * math.exp(-1.0), abs=1e-12)


def test_overlap_correction_zero_overlap_rejected():
    stats = OverlapStats(kappa_ii=1.0, kappa_jj=1.0, kappa_ij=0.0, dt=1.0)
    with pytest.raises(NoOverlapError):
        overlap_correction(0.4, stats)


def test_overlap_correction_preserves_sign():
    stats = OverlapStats(kappa_ii=2.0, kappa_jj=2.0, kappa_ij=1.0, dt=1.0)
    assert overlap_correction(-0.3, stats).rho < 0
    assert overlap_correction(0.3, stats).rho > 0


# ---------------------------------------------------------------------------
# flat-trade correction


def test_flat_probability_values():
    assert flat_trade_probability(GridSeries(dt=1.0, values=np.arange(5.0))) == 0.0
    assert flat_trade_probability(GridSeries(dt=1.0, values=np.full(5, 2.0))) == 1.0
    stepped = GridSeries(dt=1.0, values=np.array([0.0, 1.0, 1.0, 2.0, 2.0]))
    assert flat_trade_probability(stepped) == 0.5


def test_flat_probability_needs_a_return():
    with pytest.raises(DegenerateSeriesError):
        flat_trade_probability(GridSeries(dt=1.0, values=np.array([1.0])))


def test_flat_correction_identity_and_factor_three():
    assert flat_trade_correction(0.3, 0.0, 0.0).rho == pytest.approx(0.3, abs=1e-15)
    assert flat_trade_correction(0.2, 0.5, 0.5).rho == pytest.approx(0.6, abs=1e-15)
    assert flat_trade_correction(1.0, 0.5, 0.5).rho == pytest.approx(3.0, abs=1e-15)


def test_flat_correction_saturation_and_domain():
    with pytest.raises(SaturationError):
        flat_trade_correction(0.2, 1.0, 0.3)
    with pytest.raises(ParameterError):
        flat_trade_correction(0.2, -0.1, 0.3)
    with pytest.raises(ParameterError):
        flat_trade_correction(0.2, 0.1, 1.3)


@given(
    p_i=st.floats(min_value=0.0, max_value=0.999),
    p_j=st.floats(min_value=0.0, max_value=0.999),
    rho=st.floats(min_value=-1.0, max_value=1.0),
)
@settings(max_examples=200, deadline=None)
def test_flat_correction_factor_at_least_one_and_sign_preserving(p_i, p_j, rho):
    out = flat_trade_correction(rho, p_i, p_j)
    factor = flat_trade_correction(1.0, p_i, p_j).rho  # the factor itself
    assert factor >= 1.0 - 1e-12
    if p_i == 0.0 and p_j == 0.0:
        assert factor == 1.0
    elif p_i > 1e-6 and p_j > 1e-6:
        # strictness is only observable above float rounding of (1-p)
        assert factor > 1.0
    assert math.copysign(1.0, out.rho) == math.copysign(1.0, rho) or rho == 0.0


# ---------------------------------------------------------------------------
# analytic Poisson Epps curve


def test_poisson_epps_large_dt_tends_to_c():
    assert theoretical_poisson_epps(0.65, 1.0 / 15.0, 1e9) == pytest.approx(0.65, abs=1e-7)


def test_poisson_epps_at_unit_rate_dt():
    want = 0.65 * math.exp(-1.0)  # 0.2391216...
    assert theoretical_poisson_epps(0.65, 1.0 / 15.0, 15.0) == pytest.approx(want, abs=1e-12)
    assert want == pytest.approx(0.2391, abs=5e-5)


def test_poisson_epps_small_dt_taylor_limit():
    c, rate, dt = 0.65, 1.0 / 15.0, 1e-6
    got = theoretical_poisson_epps(c, rate, dt)
    assert got == pytest.approx(c * rate * dt / 2.0, rel=1e-5)


def test_poisson_epps_validates_inputs():
    with pytest.raises(ParameterError):
        theoretical_poisson_epps(0.65, 0.0, 1.0)
    with pytest.raises(ParameterError):
        theoretical_poisson_epps(0.65, 1.0, -1.0)
    with pytest.raises(ParameterError):
        theoretical_poisson_epps(1.5, 1.0, 1.0)


def test_poisson_epps_monotone_in_dt():
    rate = 1.0 / 15.0
    grid = np.logspace(-3, 4, 50)
    vals = [theoretical_poisson_epps(0.65, rate, dt) for dt in grid]
    assert np.all(np.diff(vals) > 0)
