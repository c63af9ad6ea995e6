"""Replication harness, ribbons, discrimination rule, serialization."""

import json
import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats
from test_estimators import hy_two_bisections, shared_time_legs

from eppsim.errors import (
    DegenerateSeriesError,
    EppsimError,
    EstimationError,
    InsufficientDataError,
    ParameterError,
    StabilityError,
)
from eppsim.estimators import (
    OverlapStats,
    flat_trade_correction,
    flat_trade_probability,
    hayashi_yoshida,
    measured_correlation,
    overlap_correction,
    overlap_expectation,
)
from eppsim import experiments
from eppsim.experiments import (
    ESTIMATOR_NAMES,
    FIG_DT_GRID,
    _map_replications,
    _replicate,
    _simulate_path,
    _t_quantile,
    _tick_pairs,
    CurvePoint,
    EppsCurve,
    ExperimentConfig,
    curve_to_dict,
    aggregate_curve,
    discriminate,
    estimate_matrix,
    k_skip_row,
    ribbon,
    write_curve_csv,
    write_curve_json,
    write_verdict_json,
)
from eppsim.hawkes import HawkesPriceParams, HawkesSpec, simulate_hawkes
from eppsim.paths import GbmParams, MertonParams, simulate_gbm
from eppsim.presets import WIDE_DT_GRID, FigureRecipe, read_run, run_figure
from eppsim.index import grid_count
from eppsim.sampling import (
    k_skip,
    observe_path,
    poisson_arrivals,
    synchronous_ticks,
)
from eppsim import seeding
from eppsim.series import ArrivalSet, GridSeries, TickSeries

GBM = GbmParams(mu1=0.01, mu2=0.01, sigma_sq1=0.1, sigma_sq2=0.2, rho=0.65)


def small_cfg(**kw):
    base = dict(
        price_model="gbm",
        price_params=replace(GBM, horizon=3000.0),
        sampler="poisson",
        poisson_rate=1.0 / 5.0,
        horizon=3000.0,
        dt_grid=(5.0, 15.0),
        estimators=("measured", "hy"),
        n_replications=6,
        seed=0,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def run_kind(kind, cfg, max_workers=1, k_max=None):
    """run_figure's result for cfg run as a recipe of kind."""
    return run_figure(FigureRecipe("test", kind, cfg, k_max=k_max), max_workers=max_workers)


def epps_curve(cfg, max_workers=1):
    return run_kind("epps", cfg, max_workers).curves["curve"]


def hy_curve(cfg, max_workers=1):
    return run_kind("hy", cfg, max_workers).curves["curve"]


def replication_seed(cfg, r):
    """The seed of replication r, derived from cfg.seed as _replicate derives it."""
    return seeding.child_seed(cfg.seed, seeding.REPLICATION, r)


def epps_measure(cfg):
    """The measure run_figure maps over an epps recipe's replications."""
    return partial(estimate_matrix, dt_grid=cfg.dt_grid, estimators=cfg.estimators,
                   horizon=cfg.horizon)


def poisson_legs(path, rate, horizon, rep_seed, j):
    """The tick pair of rate j: Poisson legs from streams (j, 1) and (j, 2) of rep_seed."""
    u1 = poisson_arrivals(rate, horizon, seeding.child_seed(rep_seed, j, 1))
    u2 = poisson_arrivals(rate, horizon, seeding.child_seed(rep_seed, j, 2))
    return observe_path(path, u1, 0), observe_path(path, u2, 1)


# ---------------------------------------------------------------------------
# estimate_matrix against its bisection form


def oracle_overlap(u1, u2, dt, horizon, stride=None):
    """overlap_expectation as it was written with np.searchsorted: four
    bisections for the window ends and starts of the two legs."""
    if len(u1) == 0 or len(u2) == 0:
        raise DegenerateSeriesError("overlap expectation needs non-empty arrivals")
    step = dt if stride is None else stride
    if not 0 < step <= horizon:
        raise ParameterError(f"stride must lie in (0, horizon], got {step}")
    n_eval = int(math.floor((horizon - dt) / step + 1e-9))
    t_eval = dt + step * np.arange(n_eval + 1)
    t_eval = t_eval[t_eval - dt >= max(u1.times[0], u2.times[0])]
    if t_eval.size == 0:
        raise InsufficientDataError("no evaluation windows")
    gi_hi = u1.times[np.searchsorted(u1.times, t_eval, side="right") - 1]
    gi_lo = u1.times[np.searchsorted(u1.times, t_eval - dt, side="right") - 1]
    gj_hi = u2.times[np.searchsorted(u2.times, t_eval, side="right") - 1]
    gj_lo = u2.times[np.searchsorted(u2.times, t_eval - dt, side="right") - 1]
    cross = np.minimum(gi_hi, gj_hi) - np.maximum(gi_lo, gj_lo)
    return OverlapStats(
        kappa_ii=float(np.mean(gi_hi - gi_lo)),
        kappa_jj=float(np.mean(gj_hi - gj_lo)),
        kappa_ij=float(np.mean(np.maximum(cross, 0.0))),
        dt=dt,
    )


def searchsorted_oracle(s1, s2, dt_grid, estimators, horizon):
    """estimate_matrix as it was written with np.searchsorted: a bisection
    for each leg's previous-tick grid, and oracle_overlap on the tick times."""

    def grid(ticks, dt):
        if len(ticks) == 0:
            raise DegenerateSeriesError("cannot synchronise an empty tick series")
        grid_t = dt * np.arange(grid_count(horizon, dt) + 1)
        idx = np.maximum(np.searchsorted(ticks.times, grid_t, side="right") - 1, 0)
        return GridSeries(dt=dt, values=ticks.values[idx])

    out = np.full((len(estimators), len(dt_grid)), np.nan)
    col = {name: i for i, name in enumerate(estimators)}
    if "hy" in col:
        try:
            out[col["hy"], :] = hayashi_yoshida(s1, s2).rho
        except EstimationError:
            pass
    for j, dt in enumerate(dt_grid):
        try:
            g1, g2 = grid(s1, dt), grid(s2, dt)
            measured = measured_correlation(g1, g2)
        except EstimationError:
            continue
        if "measured" in col:
            out[col["measured"], j] = measured.rho
        if "flat_trade" in col:
            try:
                p1, p2 = flat_trade_probability(g1), flat_trade_probability(g2)
                out[col["flat_trade"], j] = flat_trade_correction(measured.rho, p1, p2, dt).rho
            except EstimationError:
                pass
        if "overlap" in col:
            try:
                kap = oracle_overlap(s1, s2, dt, horizon)
                out[col["overlap"], j] = overlap_correction(measured.rho, kap).rho
            except EstimationError:
                pass
    return out


ORACLE_GRIDS = {
    "figures": (72000.0, FIG_DT_GRID),
    "fractional": (3000.0, (0.1, 0.7, 3.0, 7.3, 2999.9999999999995, 3000.0, 4000.0)),
    # steps that are exact multiples of an earlier step, and some that are not
    "multiples": (3000.0, (0.1, 0.2, 0.3, 0.6, 0.9, 7.3, 14.6)),
    "dyadic": (3000.0, (0.25, 0.5, 1.5, 2.0, 2.75)),
    "short_horizon": (2999.7, (0.3, 0.9, 2.7, 8.1, 2999.7, 3000.0)),
    # grid_count's tolerance gives 0.5 and 1.0 a last point that 0.25's grid
    # lacks, so 0.5 starts a new base, which 1.0 strides
    "tolerance": (2999.9999999996, (0.25, 0.5, 1.0)),
}


def oracle_clock(clock, horizon, seed):
    """The two arrival sets of oracle case seed on a Poisson or Hawkes clock."""
    if clock == "hawkes":
        spec = HawkesSpec(lambda0=[0.015 * (1 + seed)] * 2, alpha=[[0.0, 0.023], [0.023, 0.0]],
                          beta=[[0.11, 0.11], [0.11, 0.11]])
        return simulate_hawkes(spec, horizon, seed)
    rates = (1.0 / 15.0, 1.0 / 3.0, 1.0, 1.0 / 300.0)[seed]
    u1 = poisson_arrivals(rates, horizon, 2 * seed)
    return u1, poisson_arrivals(rates / 2.0, horizon, 2 * seed + 1)


@pytest.mark.parametrize("grid", sorted(ORACLE_GRIDS))
@pytest.mark.parametrize("clock", ["poisson", "hawkes"])
def test_estimate_matrix_matches_searchsorted_oracle(grid, clock):
    horizon, dt_grid = ORACLE_GRIDS[grid]
    path = simulate_gbm(replace(GBM, horizon=float(math.ceil(horizon))), seed=11)
    estimators = ("measured", "flat_trade", "overlap", "hy")
    for seed in range(4):
        u1, u2 = oracle_clock(clock, horizon, seed)
        s1, s2 = observe_path(path, u1, 0), observe_path(path, u2, 1)
        args = (s1, s2, dt_grid, estimators, horizon)
        want = searchsorted_oracle(*args)
        got = estimate_matrix(*args)
        assert np.array_equal(got, want, equal_nan=True), seed
        assert np.isfinite(want).sum() > want.size // 2


def _outcome(fn, *args):
    """fn(*args), or the class of the eppsim error it raised."""
    try:
        return fn(*args)
    except EppsimError as exc:
        return type(exc)


@pytest.mark.parametrize("grid", sorted(ORACLE_GRIDS))
def test_overlap_expectation_matches_searchsorted_oracle(grid):
    # windows from arrival sets other than any tick series' times
    horizon, dt_grid = ORACLE_GRIDS[grid]
    n_stats = 0
    for seed in range(4):
        _, u2 = oracle_clock("poisson", horizon, seed)
        u1 = poisson_arrivals(0.2, horizon, 100 + seed)
        u2 = ArrivalSet(times=u2.times[::2], horizon=horizon)
        for stride in (None, 1.5):
            for dt in dt_grid:
                want = _outcome(oracle_overlap, u1, u2, dt, horizon, stride)
                got = _outcome(overlap_expectation, u1, u2, dt, horizon, stride)
                assert got == want, (seed, stride, dt)
                n_stats += isinstance(want, OverlapStats)
    assert n_stats > 4 * 2 * len(dt_grid) // 2


def test_estimate_matrix_hy_alone_builds_no_grid(monkeypatch):
    path = simulate_gbm(replace(GBM, horizon=600.0), seed=3)
    u1, u2 = oracle_clock("poisson", 600.0, 0)
    s1, s2 = observe_path(path, u1, 0), observe_path(path, u2, 1)
    dt_grid = (5.0, 15.0, 30.0)
    full = estimate_matrix(s1, s2, dt_grid, ("measured", "hy"), 600.0)

    def no_grid(*args):
        raise AssertionError("a previous-tick grid was built")

    monkeypatch.setattr(experiments, "_previous_tick_counts", no_grid)
    alone = estimate_matrix(s1, s2, dt_grid, ("hy",), 600.0)
    assert np.array_equal(alone, full[1:])
    assert np.isfinite(alone).all()


@pytest.mark.parametrize(
    "dt_grid, bases",
    [
        (FIG_DT_GRID, (1.0,)),
        (WIDE_DT_GRID, (1.0,)),
        ((0.1, 0.2, 0.3, 0.6, 0.9, 7.3, 14.6), (0.1, 0.3, 0.9, 7.3)),
    ],
    ids=["figures", "wide", "multiples"],
)
def test_estimate_matrix_indexes_each_leg_once_per_base_step(monkeypatch, dt_grid, bases):
    # a step that is exactly k times the base step reads every k-th entry of
    # the base's index; 0.3 is not 3 * 0.1, nor 0.9 3 * 0.3, as doubles
    horizon = 3000.0
    path = simulate_gbm(replace(GBM, horizon=horizon), seed=7)
    u1, u2 = oracle_clock("poisson", horizon, 1)
    s1, s2 = observe_path(path, u1, 0), observe_path(path, u2, 1)
    built = []
    real = experiments._previous_tick_counts

    def counted(ticks, dt, horizon):
        built.append((ticks is s1, dt))
        return real(ticks, dt, horizon)

    monkeypatch.setattr(experiments, "_previous_tick_counts", counted)
    args = (s1, s2, dt_grid, ESTIMATOR_NAMES, horizon)
    got = estimate_matrix(*args)
    assert built == [(leg, dt) for dt in bases for leg in (True, False)]
    assert np.array_equal(got, searchsorted_oracle(*args), equal_nan=True)


def test_estimate_matrix_strides_only_by_exact_multiples():
    # 9 * 0.1 rounds to 0.9, but the grid point h*0.9 and the point (9*h)*0.1
    # of the finer grid are not always the same double (for 10 * 0.1 and 1.0
    # they are: each rounds to h); ticks of their own values on both, where
    # they differ, are taken by one grid and not the other, so dt = 0.9 must
    # not be read off the index of dt = 0.1
    horizon, dt_grid = 3000.0, (0.1, 0.9)
    assert 9 * dt_grid[0] == dt_grid[1]
    h = np.arange(grid_count(horizon, 0.9) + 1, dtype=float)
    coarse, fine = h * 0.9, (9 * h) * 0.1
    off = coarse != fine
    assert off.sum() > 50
    snapped = np.concatenate([coarse[off], fine[off]])
    legs = []
    for seed, extra in ((1, snapped), (2, ())):
        t = np.unique(np.concatenate([poisson_arrivals(0.5, horizon, seed).times, extra]))
        v = np.random.default_rng(seed).standard_normal(t.size).cumsum()
        legs.append(TickSeries(times=t, values=v, horizon=horizon))
    args = (*legs, dt_grid, ("measured", "flat_trade", "overlap"), horizon)
    want = searchsorted_oracle(*args)
    assert np.isfinite(want).all()
    assert np.array_equal(estimate_matrix(*args), want)


def test_estimate_matrix_overlap_windows_off_the_grid():
    # for these dt the window ends dt + k*dt and starts (dt + k*dt) - dt
    # miss some grid points h*dt by an ulp; ticks placed on exactly those
    # grid points are counted differently by the two, so the grid's counts
    # must not stand in for the windows there
    horizon, dt_grid = 300.0, (0.1, 0.7, 7.3)
    path = simulate_gbm(replace(GBM, horizon=horizon), seed=5)
    snapped = []
    for dt in dt_grid:
        k = np.arange(int(horizon / dt))
        ends, grid = dt + dt * k, dt * (k + 1)
        starts = ends - dt
        snapped += [grid[ends != grid], (dt * k)[starts != dt * k]]
    snapped = np.concatenate(snapped)
    assert snapped.size > 50
    base = poisson_arrivals(0.5, horizon, 1).times
    u1 = ArrivalSet(times=np.unique(np.concatenate([base, snapped])), horizon=horizon)
    u2 = poisson_arrivals(0.5, horizon, 2)
    s1, s2 = observe_path(path, u1, 0), observe_path(path, u2, 1)
    args = (s1, s2, dt_grid, ("measured", "overlap"), horizon)
    want = searchsorted_oracle(*args)
    assert np.isfinite(want).all()
    assert np.array_equal(estimate_matrix(*args), want)


# ---------------------------------------------------------------------------
# ribbon


def test_ribbon_all_equal_values():
    mean, hw = ribbon(np.full(10, 0.4), 0.95)
    assert mean == 0.4
    assert hw == 0.0


def test_ribbon_multiplier_n100():
    vals = np.concatenate([np.zeros(50), np.ones(50)])
    mean, hw = ribbon(vals, 0.95)
    sd = vals.std(ddof=1)
    assert hw / sd == pytest.approx(stats.t.ppf(0.975, 99), abs=1e-12)
    assert hw / sd == pytest.approx(1.9842, abs=5e-5)
    assert mean == 0.5


def test_ribbon_multiplier_n40():
    vals = np.linspace(0.0, 1.0, 40)
    _, hw = ribbon(vals, 0.95)
    assert hw / vals.std(ddof=1) == pytest.approx(2.0227, abs=5e-5)


QUANTILE_CONFIDENCES = (0.8, 0.9, 0.95, 0.99, 0.999)
QUANTILE_DFS = tuple(range(1, 301)) + tuple(
    sorted({int(round(v)) for v in np.logspace(np.log10(301), 4, 25)})
)


def test_t_quantile_matches_stdtrit():
    for c in QUANTILE_CONFIDENCES:
        want = special.stdtrit(np.array(QUANTILE_DFS), 0.5 * (1.0 + c))
        got = np.array([_t_quantile(df, c) for df in QUANTILE_DFS])
        np.testing.assert_allclose(got, want, rtol=1e-11, atol=0.0, err_msg=f"confidence {c}")


def test_t_quantile_closed_forms_for_one_and_two_df():
    for c in QUANTILE_CONFIDENCES:
        p = 0.5 * (1.0 + c)
        # df = 1 is the Cauchy law; df = 2 has F(t) = 1/2 + t / (2 sqrt(2 + t^2))
        assert _t_quantile(1, c) == pytest.approx(math.tan(math.pi * (p - 0.5)), rel=1e-11)
        assert _t_quantile(2, c) == pytest.approx((2 * p - 1) / math.sqrt(2 * p * (1 - p)), rel=1e-11)


def test_t_quantile_rises_with_confidence_and_falls_with_df():
    table = np.array([[_t_quantile(df, c) for df in QUANTILE_DFS] for c in QUANTILE_CONFIDENCES])
    assert (np.diff(table, axis=0) > 0).all()
    assert (np.diff(table, axis=1) < 0).all()


def test_ribbon_rejects_degenerate_input():
    with pytest.raises(InsufficientDataError):
        ribbon(np.array([1.0]), 0.95)
    with pytest.raises(ParameterError):
        ribbon(np.array([1.0, 2.0]), 1.5)


# ---------------------------------------------------------------------------
# run_figure replication driver


def test_identical_replication_seeds_give_zero_ribbons():
    # replication 0 twice: two estimates from the same seed
    cfg = small_cfg(n_replications=2)
    row = _replicate(cfg, _simulate_path(cfg, cfg.seed), None, epps_measure(cfg), 0)
    stack = np.stack([row, row])[:, 0]
    curve = aggregate_curve(cfg.estimators, cfg.confidence, cfg.dt_grid, "dt", stack, {})
    for pts in curve.series.values():
        for p in pts:
            assert p.half_width == 0.0
            assert p.n_ok == 2


def test_epps_curve_deterministic():
    cfg = small_cfg()
    assert epps_curve(cfg) == epps_curve(cfg)


def test_epps_curve_parallel_matches_serial_bitwise():
    cfg = small_cfg()
    serial = epps_curve(cfg, max_workers=1)
    parallel = epps_curve(cfg, max_workers=3)
    assert serial == parallel
    with pytest.raises(ParameterError):
        epps_curve(cfg, max_workers=0)


def test_overlap_multi_rate_parallel_matches_serial_bitwise():
    cfg = small_cfg(n_replications=3, estimators=("measured", "overlap"), overlap_rates=(2.0, 5.0))
    serial = run_kind("multirate", cfg, max_workers=1).curves
    parallel = run_kind("multirate", cfg, max_workers=2).curves
    assert list(serial) == ["rate_2", "rate_5"]
    assert {m: curve_to_dict(c) for m, c in serial.items()} == {
        m: curve_to_dict(c) for m, c in parallel.items()
    }


def test_replication_order_does_not_move_the_mean():
    cfg = small_cfg(n_replications=4)
    path, measure = _simulate_path(cfg, cfg.seed), epps_measure(cfg)
    fwd = _map_replications(cfg, None, measure, 1)[:, 0]
    rev = np.stack([_replicate(cfg, path, None, measure, r) for r in range(3, -1, -1)])[:, 0]
    assert np.array_equal(rev, fwd[::-1], equal_nan=True)
    fwd, rev = (aggregate_curve(cfg.estimators, cfg.confidence, cfg.dt_grid, "dt", stack, {})
                for stack in (fwd, rev))
    for name in fwd.series:
        a = [p.mean for p in fwd.series[name]]
        b = [p.mean for p in rev.series[name]]
        np.testing.assert_allclose(a, b, rtol=1e-12)


def test_epps_curve_qualitative_shape():
    # at dt far below the mean inter-arrival the measured estimate is
    # squashed toward zero while HY has no dt to squash it at
    cfg = small_cfg(n_replications=10)
    curve = epps_curve(cfg)
    measured_small_dt = curve.series["measured"][0].mean
    hy = curve.series["hy"][0].mean
    assert measured_small_dt < hy
    assert hy == pytest.approx(0.65, abs=0.2)


def test_epps_curve_axis_and_meta():
    cfg = small_cfg()
    curve = epps_curve(cfg)
    np.testing.assert_array_equal(curve.axis(), [5.0, 15.0])
    assert curve.axis_label == "dt"
    assert curve.meta["n_replications"] == 6


def test_config_validation_errors():
    with pytest.raises(ParameterError):
        small_cfg(price_model="ou")
    with pytest.raises(ParameterError):
        small_cfg(sampler="poisson", poisson_rate=None)
    with pytest.raises(ParameterError):
        small_cfg(sampler="synchronous", estimators=("measured", "hy"))
    with pytest.raises(ParameterError):
        small_cfg(dt_grid=(15.0, 5.0))
    for bad in (math.inf, math.nan):
        with pytest.raises(ParameterError, match="^dt_grid must be non-empty, positive, finite"):
            small_cfg(dt_grid=(5.0, bad))
    with pytest.raises(ParameterError):
        small_cfg(estimators=("kernel",))
    with pytest.raises(ParameterError):
        small_cfg(confidence=0.0)
    for bad in (math.inf, math.nan, 0.0, None):
        with pytest.raises(ParameterError, match="poisson_rate"):
            small_cfg(sampler="poisson", poisson_rate=bad)
    for bad in (math.inf, math.nan, 0.0):
        with pytest.raises(ParameterError, match="^mean_interarrivals must be non-empty, positive, finite"):
            small_cfg(mean_interarrivals=(1.0, bad))
        with pytest.raises(ParameterError, match="^overlap_rates must be non-empty, positive, finite"):
            small_cfg(overlap_rates=(bad,))
    with pytest.raises(ParameterError, match="^mean_interarrivals"):
        small_cfg(mean_interarrivals=(2.0, 1.0))


def test_config_refuses_legs_and_strides_past_the_size_bounds():
    # refused when the config is built, before a replication draws a tick
    # or builds a grid; only values far past the bounds are tried
    number = r"\d(\.\d+)?e\+\d+"  # finite: an overflowing count names the ticks instead
    ticks = rf"expects {number} ticks, past the {number} at which 0.01 pairs of equal float64 arrival times"
    with pytest.raises(ParameterError, match=rf"^poisson_rate: rate 1e\+300 over horizon 3000.0 {ticks}"):
        small_cfg(poisson_rate=1e300)
    for axis in ("mean_interarrivals", "overlap_rates"):
        with pytest.raises(ParameterError, match=rf"^{axis} entry 1e-300: rate .* {ticks}"):
            small_cfg(**{axis: (1e-300, 1.0)})
    # the finest grid step, at which the overlap windows are evaluated too
    with pytest.raises(
        ParameterError, match="^dt_grid: horizon 3000.0 at step 1e-300 needs more than 100000000 grid"
    ):
        small_cfg(dt_grid=(1e-300, 1.0))
    assert small_cfg(dt_grid=(3000.0,)).dt_grid == (3000.0,)


def test_config_refuses_a_horizon_past_the_latent_path():
    # the path of a gbm/merton model spans price_params.horizon, and the
    # observation times must lie on it
    with pytest.raises(ParameterError, match=r"^horizon: 72000.0 exceeds price_params.horizon 3000.0"):
        small_cfg(horizon=72000.0)
    with pytest.raises(ParameterError, match=r"^horizon: "):
        small_cfg(price_model="merton", horizon=3000.5, price_params=MertonParams(
            mu1=0.0, mu2=0.0, sigma_sq1=0.1, sigma_sq2=0.1, rho=0.5, jump_rate=0.0,
            horizon=3000.0))
    assert small_cfg(horizon=2999.5).horizon == 2999.5


def test_config_refuses_a_hawkes_price_horizon_off_its_grid():
    params = HawkesPriceParams(mu=0.015, alpha_r=0.023, alpha_c=0.05, beta=0.11)
    with pytest.raises(ParameterError, match=r"^horizon: horizon 3600.5 is not a positive integer"):
        small_cfg(price_model="hawkes", price_params=params, horizon=3600.5)
    assert small_cfg(price_model="hawkes", price_params=params, horizon=3600.0).horizon == 3600.0


@pytest.mark.parametrize(
    "amplitude, kind, radius",
    [(2.0, "non_stationary", "2.000000"), (1.0, "quasi_stationary", "1.000000")],
)
def test_config_refuses_a_hawkes_sampler_that_is_not_stationary(amplitude, kind, radius):
    message = (rf"^hawkes_sampler: kernel is {kind} \(spectral radius {radius}\); "
               r"the sampler needs a stationary kernel$")
    spec = HawkesSpec(lambda0=[0.1, 0.1], alpha=[[0.0, amplitude], [amplitude, 0.0]],
                      beta=np.ones((2, 2)))
    with pytest.raises(StabilityError, match=message):
        small_cfg(sampler="hawkes", hawkes_sampler=spec)
    # the same kernel is not checked when no replication would sample it
    small_cfg(hawkes_sampler=spec)


def test_config_refuses_a_hawkes_sampler_that_is_not_2_dimensional():
    # a stationary 3-component kernel once passed, to be refused inside
    # replication 0 after the latent path was simulated
    spec = HawkesSpec(lambda0=np.full(3, 0.1), alpha=np.zeros((3, 3)), beta=np.ones((3, 3)))
    with pytest.raises(ParameterError, match="^hawkes_sampler must be 2-dimensional, got 3"):
        small_cfg(sampler="hawkes", hawkes_sampler=spec)


@pytest.mark.parametrize("kind", ["hy", "multirate"])
@pytest.mark.parametrize("sampler", ["hawkes", "synchronous"])
def test_rate_recipes_refuse_a_sampler_other_than_poisson(kind, sampler):
    # each rate is sampled by Poisson legs, whatever the config's sampler says
    cfg = small_cfg(sampler=sampler, estimators=("measured",),
                    hawkes_sampler=HawkesSpec(
                        lambda0=[0.015, 0.015], alpha=[[0.0, 0.023], [0.023, 0.0]],
                        beta=[[0.11, 0.11], [0.11, 0.11]]),
                    mean_interarrivals=(2.0, 4.0, 6.0, 8.0, 10.0))
    with pytest.raises(ParameterError, match=rf"^sampler must be 'poisson' for a {kind} recipe"):
        FigureRecipe("test", kind, cfg)
    assert FigureRecipe("test", "epps", cfg).config.sampler == sampler


SYNCHRONOUS_GBM = {"price_model": "gbm", "price_params": {
    "mu1": 0.01, "mu2": 0.01, "sigma_sq1": 0.1, "sigma_sq2": 0.2, "rho": 0.65, "horizon": 600.0},
    "sampler": "synchronous", "horizon": 600.0, "estimators": ["measured"], "seed": 5}


def test_a_synchronous_epps_document_equals_its_tick_route():
    # fresh paths; 1.5 and 7.5 are no whole multiple of the 1 s path step,
    # so those two dt take the tick route and the rest read the path grid
    experiment = {**SYNCHRONOUS_GBM, "dt_grid": [1.0, 1.5, 3.0, 7.5, 50.0, 600.0, 900.0],
                  "n_replications": 3, "fresh_paths": True}
    recipe = read_run({"kind": "epps", "experiment": experiment})[0]
    cfg = recipe.config
    stack = np.stack([
        estimate_matrix(synchronous_ticks(path, 0), synchronous_ticks(path, 1), cfg.dt_grid,
                        cfg.estimators, cfg.horizon)
        for path in (_simulate_path(cfg, seeding.child_seed(replication_seed(cfg, r), 0))
                     for r in range(3))
    ])
    want = aggregate_curve(cfg.estimators, cfg.confidence, cfg.dt_grid, "dt", stack, {})
    assert run_figure(recipe).curves["curve"].series == want.series


def test_a_synchronous_kskip_document_thins_the_path_grid():
    # a kskip run keeps its tick pair on a synchronous sampler: k_skip_row of
    # the path's two columns as synchronous tick series
    recipe = read_run({"kind": "kskip", "k_max": 8, "experiment": SYNCHRONOUS_GBM})[0]
    path = _simulate_path(recipe.config, 5)
    want = k_skip_row(synchronous_ticks(path, 0), synchronous_ticks(path, 1), 8)
    got = run_figure(recipe).curves["curve"].series["hy"]
    assert np.array([p.mean for p in got]).tobytes() == want[0].tobytes()
    assert all(p.n_ok == 1 for p in got)


def test_a_synchronous_kskip_document_thins_the_path_only_up_to_its_horizon():
    # a GBM path over 1000 s is a bitwise prefix of the one over 2000 s, so a
    # run over the first 1000 s of either thins the same tick pair
    def curve(path_horizon):
        experiment = {**SYNCHRONOUS_GBM, "horizon": 1000.0, "seed": 4, "price_params": {
            **SYNCHRONOUS_GBM["price_params"], "horizon": path_horizon}}
        recipe = read_run({"kind": "kskip", "k_max": 8, "experiment": experiment})[0]
        return run_figure(recipe).curves["curve"].series

    assert curve(2000.0) == curve(1000.0)


# ---------------------------------------------------------------------------
# experiment drivers


def test_hy_vs_interarrival_single_rate_single_replication():
    cfg = small_cfg(n_replications=1, mean_interarrivals=(5.0,))
    hy = partial(estimate_matrix, dt_grid=cfg.dt_grid, estimators=("hy",), horizon=cfg.horizon)
    row = _replicate(cfg, _simulate_path(cfg, cfg.seed), cfg.mean_interarrivals, hy, 0)
    assert row.shape == (1, 1, len(cfg.dt_grid))
    assert np.isfinite(row).all()
    # one point is too few to classify, so the recipe runs five rates
    with pytest.raises(ParameterError, match="^mean_interarrivals must hold >= 5 points"):
        hy_curve(cfg)
    curve = hy_curve(replace(cfg, mean_interarrivals=(1.0, 2.0, 3.0, 4.0, 5.0)))
    assert curve.axis_label == "mean_interarrival"
    (pts,) = curve.series.values()
    assert len(pts) == 5
    assert all(p.n_ok == 1 and p.half_width == 0.0 for p in pts)
    assert all(math.isfinite(p.mean) for p in pts)


def test_hy_replicate_draws_the_poisson_sampler_streams():
    # each rate's legs are Poisson arrivals from streams (j, 1) and (j, 2)
    cfg = small_cfg(n_replications=2, mean_interarrivals=(2.0, 5.0, 10.0))
    path = _simulate_path(cfg, cfg.seed)
    hy = partial(estimate_matrix, dt_grid=cfg.dt_grid, estimators=("hy",), horizon=cfg.horizon)
    for r in range(cfg.n_replications):
        want = []
        for j, m in enumerate(cfg.mean_interarrivals):
            s1, s2 = poisson_legs(path, 1.0 / m, cfg.horizon, replication_seed(cfg, r), j)
            want.append(hayashi_yoshida(s1, s2).rho)
        got = _replicate(cfg, path, cfg.mean_interarrivals, hy, r)
        # one HY estimate per rate, repeated along the dt axis
        assert got.shape == (3, 1, len(cfg.dt_grid))
        assert np.array_equal(got, np.broadcast_to(np.array(want)[:, None, None], got.shape))


def test_hy_vs_interarrival_parallel_matches_serial():
    # five rates, the fewest the verdict of the hy kind classifies
    cfg = small_cfg(n_replications=3, mean_interarrivals=(2.0, 4.0, 6.0, 8.0, 10.0))
    assert hy_curve(cfg, max_workers=1) == hy_curve(cfg, max_workers=2)


@pytest.mark.parametrize("kind", ["hy", "multirate"])
def test_rate_kinds_honour_fresh_paths(kind):
    # replication r samples each rate from a path of its own, simulated from
    # stream 0 of its seed, as the epps kind does
    cfg = small_cfg(n_replications=3, fresh_paths=True,
                    mean_interarrivals=(2.0, 4.0, 6.0, 8.0, 10.0),
                    overlap_rates=(2.0, 5.0), estimators=("measured", "overlap"))
    rates = cfg.mean_interarrivals if kind == "hy" else cfg.overlap_rates
    estimators = ("hy",) if kind == "hy" else cfg.estimators
    stack = np.full((cfg.n_replications, len(rates), len(estimators), len(cfg.dt_grid)), np.nan)
    for r in range(cfg.n_replications):
        rep_seed = replication_seed(cfg, r)
        path = _simulate_path(cfg, seeding.child_seed(rep_seed, 0))
        for j, m in enumerate(rates):
            s1, s2 = poisson_legs(path, 1.0 / m, cfg.horizon, rep_seed, j)
            if kind == "hy":
                stack[r, j] = hayashi_yoshida(s1, s2).rho
            else:
                stack[r, j] = estimate_matrix(s1, s2, cfg.dt_grid, estimators, cfg.horizon)
    got = run_kind(kind, cfg).curves
    if kind == "hy":
        want = aggregate_curve(estimators, cfg.confidence, rates, "mean_interarrival",
                               stack[:, :, :, 0].swapaxes(1, 2), {})
        assert got["curve"].series == want.series
    else:
        for j, m in enumerate(rates):
            want = aggregate_curve(estimators, cfg.confidence, cfg.dt_grid, "dt", stack[:, j], {})
            assert got[f"rate_{m:g}"].series == want.series
    # the fixed-path run differs: the flag is not ignored
    fixed = run_kind(kind, replace(cfg, fresh_paths=False)).curves
    assert {k: c.series for k, c in fixed.items()} != {k: c.series for k, c in got.items()}


def test_hy_vs_interarrival_flat_for_brownian():
    cfg = small_cfg(
        price_params=GBM,
        horizon=72000.0,
        n_replications=4,
        mean_interarrivals=(1.0, 5.0, 15.0, 30.0, 45.0),
    )
    curve = hy_curve(cfg)
    means = [p.mean for p in curve.series["hy"]]
    assert max(means) - min(means) < 0.05
    assert np.mean(means) == pytest.approx(0.65, abs=0.05)


def random_walk_ticks(n, seed):
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.exponential(1.0, n))
    return TickSeries(times=times, values=np.cumsum(rng.normal(size=n)), horizon=times[-1])


def test_k_skip_truncates_when_ticks_run_out():
    # legs of about 60 ticks, thinned up to k = 40
    cfg = small_cfg(n_replications=1, poisson_rate=1.0 / 50.0, estimators=("hy",))
    si, sj = next(_tick_pairs(cfg, _simulate_path(cfg, cfg.seed), None, replication_seed(cfg, 0)))
    last = min(len(si), len(sj)) // 2  # the last k that leaves both legs two ticks
    assert 20 < last < 40
    result = run_kind("kskip", cfg, k_max=40)
    curve, verdict = result.curves["curve"], result.verdicts["verdict"]
    pts = curve.series["hy"]
    assert len(pts) == 40
    assert all(p.n_ok == 0 and math.isnan(p.mean) for p in pts if p.axis > last)
    assert all(p.n_ok == 1 and p.half_width == 0.0 for p in pts if p.axis <= last)
    assert verdict.n_points == last


@pytest.mark.parametrize("fresh_paths", [False, True])
def test_a_kskip_recipe_honours_its_config(fresh_paths):
    # each replication's tick pair thinned by k_skip_row, pooled as every kind pools
    cfg = small_cfg(n_replications=4, horizon=3600.0, price_params=replace(GBM, horizon=3600.0),
                    estimators=("hy",), fresh_paths=fresh_paths)
    seeds = [replication_seed(cfg, r) for r in range(cfg.n_replications)]
    paths = [_simulate_path(cfg, seeding.child_seed(rep_seed, 0)) if fresh_paths
             else _simulate_path(cfg, cfg.seed) for rep_seed in seeds]
    stack = np.stack([
        np.stack([k_skip_row(s1, s2, 10) for s1, s2 in _tick_pairs(cfg, path, None, rep_seed)])
        for path, rep_seed in zip(paths, seeds)
    ])
    want = aggregate_curve(("hy",), cfg.confidence, range(1, 11), "k", stack[:, 0], {})
    serial = run_kind("kskip", cfg, k_max=10)
    assert serial.curves["curve"].series == want.series
    assert all(p.n_ok == 4 and p.half_width > 0 for p in want.series["hy"])
    pooled = run_kind("kskip", cfg, max_workers=2, k_max=10)
    assert pooled.curves == serial.curves and pooled.verdicts == serial.verdicts
    # the other path mode differs: the flag is not ignored
    other = run_kind("kskip", replace(cfg, fresh_paths=not fresh_paths), k_max=10)
    assert other.curves["curve"].series != serial.curves["curve"].series


def k_skip_stack_per_k(pairs, k_max):
    """k_skip_row of each pair as it was written: thinned tick series for
    every k, and hayashi_yoshida with two bisections on each."""
    pairs = list(pairs)
    stack = np.full((len(pairs), 1, k_max), np.nan)
    for r, (si, sj) in enumerate(pairs):
        for k in range(1, k_max + 1):
            a, b = k_skip(si, k), k_skip(sj, k)
            if len(a) < 2 or len(b) < 2:
                continue
            try:
                stack[r, 0, k - 1] = hy_two_bisections(a, b)
            except EstimationError:
                pass
    return stack


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    sizes=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=30),
            st.integers(min_value=0, max_value=30),
            st.integers(min_value=0, max_value=30),
        ),
        min_size=1,
        max_size=3,
    ),
    period=st.integers(min_value=0, max_value=3),
    k_max=st.integers(min_value=1, max_value=40),
)
@settings(max_examples=200, deadline=None)
def test_k_skip_row_equals_per_k_oracle_bitwise(seed, sizes, period, k_max):
    # legs of 0-3 ticks with k far past n/2, shared timestamps, and with a
    # period, leg j values that repeat every period ticks, so that leg j
    # thinned to every k-th tick has zero variance whenever period divides k
    rng = np.random.default_rng(seed)
    pairs = []
    for n_i, n_j, n_shared in sizes:
        si, sj = shared_time_legs(rng, n_i, n_j, n_shared)
        if period:
            sj = replace(sj, values=(np.arange(len(sj)) % period).astype(float))
        pairs.append((si, sj))
    got = np.stack([k_skip_row(si, sj, k_max) for si, sj in pairs])
    want = k_skip_stack_per_k(pairs, k_max)
    assert np.array_equal(got, want, equal_nan=True)


def test_k_skip_row_equals_per_k_oracle_on_long_legs():
    si = random_walk_ticks(3000, seed=5)
    rng = np.random.default_rng(6)
    # half of leg j's ticks are leg i's
    tj = np.union1d(si.times[::2], np.sort(rng.uniform(0.0, si.horizon, 1500)))
    sj = TickSeries(times=tj, values=np.cumsum(rng.normal(size=tj.size)), horizon=si.horizon)
    pairs = [(si, sj), (sj, si)]
    want = k_skip_stack_per_k(pairs, 50)
    assert np.isfinite(want).all()
    assert np.array_equal(np.stack([k_skip_row(si, sj, 50) for si, sj in pairs]), want)


def test_k_skip_rejects_bad_kmax():
    for k_max in (0, None, 2.5):
        with pytest.raises(ParameterError):
            run_kind("kskip", small_cfg(n_replications=1), k_max=k_max)


# ---------------------------------------------------------------------------
# discriminate


def flat_curve(level=0.65, hw=0.01, n=50, label="k"):
    pts = tuple(CurvePoint(float(k), level, hw, 1, 0) for k in range(1, n + 1))
    return EppsCurve(axis_label=label, series={"hy": pts})


def rising_curve(lo=0.2, hi=0.6, hw=0.01, n=50):
    means = np.linspace(lo, hi, n)
    pts = tuple(
        CurvePoint(float(k + 1), float(m), hw, 1, 0) for k, m in enumerate(means)
    )
    return EppsCurve(axis_label="k", series={"hy": pts})


def test_discriminate_flat_curve_is_diffusion_like():
    v = discriminate(flat_curve(), "hy")
    assert v.classification == "diffusion_like"
    assert v.gap == pytest.approx(0.0, abs=1e-12)
    assert v.threshold == 0.05


def test_discriminate_monotone_rise_is_discrete_events():
    v = discriminate(rising_curve(), "hy")
    assert v.classification == "discrete_events"
    assert v.gap > 0.3
    assert v.rho_early < v.rho_late


def test_discriminate_fall_is_inconclusive():
    falling = rising_curve(lo=0.6, hi=0.2)
    v = discriminate(falling, "hy")
    assert v.classification == "inconclusive"
    assert v.gap < -0.05


def test_discriminate_threshold_uses_pooled_ribbon():
    # a 0.08 rise is above tau_abs but inside wide ribbons
    v = discriminate(rising_curve(lo=0.50, hi=0.58, hw=0.2), "hy")
    assert v.classification == "diffusion_like"
    assert v.threshold == pytest.approx(0.2, abs=1e-12)
    narrow = discriminate(rising_curve(lo=0.50, hi=0.58, hw=0.001), "hy")
    assert narrow.classification == "discrete_events"


def test_discriminate_shift_invariant():
    base = rising_curve()
    shifted_pts = tuple(
        CurvePoint(p.axis, p.mean + 5.0, p.half_width, p.n_ok, p.n_fail)
        for p in base.series["hy"]
    )
    shifted = EppsCurve(axis_label="k", series={"hy": shifted_pts})
    a, b = discriminate(base, "hy"), discriminate(shifted, "hy")
    assert a.classification == b.classification
    assert a.gap == pytest.approx(b.gap, abs=1e-9)


def test_discriminate_ignores_failed_points():
    pts = list(flat_curve(n=10).series["hy"])
    pts[3] = CurvePoint(4.0, math.nan, math.nan, 0, 1)
    curve = EppsCurve(axis_label="k", series={"hy": tuple(pts)})
    v = discriminate(curve, "hy")
    assert v.n_points == 9
    assert v.classification == "diffusion_like"


def test_discriminate_needs_five_points():
    with pytest.raises(InsufficientDataError):
        discriminate(flat_curve(n=4), "hy")


def test_discriminate_needs_series_name_when_ambiguous():
    pts = flat_curve().series["hy"]
    curve = EppsCurve(axis_label="k", series={"hy": pts, "measured": pts})
    with pytest.raises(ParameterError, match="no series 'overlap'"):
        discriminate(curve, "overlap")
    assert discriminate(curve, "measured").estimator == "measured"


def test_discriminate_echoes_rule_inputs():
    v = discriminate(flat_curve(), "hy", tau_abs=0.1, z=2.0)
    assert v.tau_abs == 0.1
    assert v.z == 2.0
    assert v.threshold == max(0.1, 2.0 * v.pooled_half_width)


@pytest.mark.parametrize("field", ["tau_abs", "z"])
@pytest.mark.parametrize("bad", [-1.0, -1e-300, math.nan, math.inf])
def test_discriminate_refuses_a_negative_or_non_finite_rule(field, bad):
    # a negative threshold once classified a flat Brownian k-skip curve as discrete events
    with pytest.raises(ParameterError, match=rf"^{field}: must be finite and >= 0"):
        discriminate(flat_curve(), "hy", **{field: bad})
    assert discriminate(flat_curve(), "hy", **{field: 0.0}).classification == "diffusion_like"


@pytest.mark.parametrize("field", ["tau_abs", "z"])
@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
def test_the_rule_is_refused_before_any_replication_or_day(monkeypatch, field, bad):
    # run_figure once simulated every replication, and empirical_kskip
    # thinned every day, before discriminate refused the rule
    from types import SimpleNamespace

    from eppsim import presets, taq

    def never(*args, **kwargs):
        raise AssertionError("work started before the rule was checked")

    monkeypatch.setattr(presets, "_map_replications", never)
    monkeypatch.setattr(taq, "k_skip_row", never)
    message = rf"^{field}: must be finite and >= 0"
    with pytest.raises(ParameterError, match=message):
        presets.run_figure(presets.figure_recipe("8b", n_replications=4), **{field: bad})
    day = SimpleNamespace(series_a=None, series_b=None, date="2024-01-02")
    with pytest.raises(ParameterError, match=message):
        taq.empirical_kskip([day], 5, **{field: bad})


# ---------------------------------------------------------------------------
# serialization


def test_curve_csv_layout(tmp_path):
    pts = (CurvePoint(1.0, 0.5, 0.1, 3, 0), CurvePoint(2.0, math.nan, math.nan, 0, 3))
    curve = EppsCurve(axis_label="dt", series={"measured": pts})
    out = tmp_path / "curve.csv"
    write_curve_csv(curve, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "axis,estimator,mean,half_width,n_ok,n_fail"
    assert lines[1] == "1.0,measured,0.5,0.1,3,0"
    assert lines[2] == "2.0,measured,,,0,3"


def test_curve_json_nan_becomes_null(tmp_path):
    pts = (CurvePoint(1.0, 0.5, 0.1, 3, 0), CurvePoint(2.0, math.nan, math.nan, 0, 3))
    curve = EppsCurve(axis_label="dt", series={"measured": pts}, meta={"n": 3})
    out = tmp_path / "curve.json"
    write_curve_json(curve, out)
    doc = json.loads(out.read_text())
    assert doc["axis_label"] == "dt"
    assert doc["meta"] == {"n": 3}
    assert doc["series"]["measured"][0]["mean"] == 0.5
    assert doc["series"]["measured"][1]["mean"] is None


def test_curve_to_dict_round_trip_values():
    curve = flat_curve(n=6)
    doc = curve_to_dict(curve)
    assert [p["axis"] for p in doc["series"]["hy"]] == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]


def test_verdict_json_contract(tmp_path):
    v = discriminate(rising_curve(), "hy")
    out = tmp_path / "verdict.json"
    write_verdict_json(v, out)
    doc = json.loads(out.read_text())
    for key in ("classification", "rho_early", "rho_late", "gap", "tau_abs", "z",
                "pooled_half_width", "threshold", "ci_overlap", "n_points",
                "axis_label", "estimator"):
        assert key in doc, key
    assert doc["classification"] == "discrete_events"
