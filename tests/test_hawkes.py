"""Hawkes engine: branching algebra, cluster simulation law, closed-form covariance."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from eppsim import hawkes, seeding
from eppsim.errors import DomainError, NumericError, ParameterError, StabilityError
from eppsim.hawkes import (
    PRICE_GRID_DT,
    HawkesPriceParams,
    HawkesSpec,
    branching_matrix,
    classify_stability,
    expected_events,
    hawkes_price_model,
    intensity_at,
    limiting_correlation,
    price_spec,
    simulate_hawkes,
    theoretical_hawkes_correlation,
    theoretical_hawkes_covariance,
)
from eppsim.series import ArrivalSet

PRICE = HawkesPriceParams(mu=0.015, alpha_r=0.023, alpha_c=0.05, beta=0.11)
SAMPLING = HawkesSpec(lambda0=[0.015, 0.015], alpha=[[0.0, 0.023], [0.023, 0.0]],
                      beta=[[0.11, 0.11], [0.11, 0.11]])


def two_dim_spec(a: float, b: float) -> HawkesSpec:
    return HawkesSpec(
        lambda0=np.array([0.1, 0.1]),
        alpha=np.array([[0.0, a], [a, 0.0]]),
        beta=np.full((2, 2), b),
    )


# ---------------------------------------------------------------------------
# branching matrix and stability


def test_branching_matrix_zero_alpha():
    spec = HawkesSpec(lambda0=np.array([0.1]), alpha=np.zeros((1, 1)), beta=np.zeros((1, 1)))
    np.testing.assert_array_equal(branching_matrix(spec), np.zeros((1, 1)))


def test_branching_matrix_sampling_spec():
    gamma = branching_matrix(SAMPLING)
    np.testing.assert_allclose(gamma, [[0.0, 0.023 / 0.11], [0.023 / 0.11, 0.0]])


def test_branching_matrix_price_spec():
    gamma = branching_matrix(price_spec(PRICE))
    g12, g13 = 0.023 / 0.11, 0.05 / 0.11
    assert gamma[0, 1] == pytest.approx(g12, abs=1e-15)
    assert gamma[0, 2] == pytest.approx(g13, abs=1e-15)
    assert gamma[0, 0] == 0.0 and gamma[0, 3] == 0.0


@pytest.mark.parametrize(
    "field, value",
    [
        ("lambda0", ["x", 1]),  # non-numeric
        ("alpha", [[0.0, "0.1"], [0.1, 0.0]]),  # a numeric string is no number either
        ("lambda0", [True, True]),  # boolean, once read as 1.0
        ("beta", [[1.0, 1.0], [True, 1.0]]),
        ("alpha", [[0.0, 0.1], [0.1]]),  # ragged
        ("beta", [[1.0, 1.0], [1.0, [1.0]]]),
    ],
)
def test_spec_refuses_entries_that_are_not_numbers(field, value):
    fields = {"lambda0": [0.1, 0.1], "alpha": [[0.0, 0.1], [0.1, 0.0]],
              "beta": [[1.0, 1.0], [1.0, 1.0]], field: value}
    with pytest.raises(ParameterError, match=f"^{field} must hold numbers in rows of equal length"):
        HawkesSpec(**fields)


def test_stability_zero_matrix():
    spec = HawkesSpec(lambda0=np.array([0.1, 0.1]), alpha=np.zeros((2, 2)), beta=np.ones((2, 2)))
    rep = classify_stability(spec)
    assert rep.classification == "stationary"
    assert rep.spectral_radius == 0.0


def test_stability_sampling_spec_vs_char_poly_oracle():
    # eigenvalues of [[0, a], [a, 0]] are the roots of x^2 - a^2
    a = 0.023 / 0.11
    rep = classify_stability(SAMPLING)
    roots = np.roots([1.0, 0.0, -a * a])
    assert rep.spectral_radius == pytest.approx(np.max(np.abs(roots)), abs=1e-12)
    assert rep.spectral_radius == pytest.approx(0.20909, abs=5e-6)
    assert rep.classification == "stationary"


def test_stability_price_spec_vs_dense_eigen_oracle():
    rep = classify_stability(price_spec(PRICE))
    dense = np.max(np.abs(np.linalg.eigvals(branching_matrix(price_spec(PRICE)))))
    assert rep.spectral_radius == pytest.approx(dense, abs=1e-12)
    assert rep.spectral_radius == pytest.approx(0.023 / 0.11 + 0.05 / 0.11, abs=1e-12)
    assert rep.spectral_radius == pytest.approx(0.66364, abs=5e-6)
    assert rep.classification == "stationary"


def test_stability_critical_and_supercritical():
    critical = two_dim_spec(0.11, 0.11)  # branching ratio exactly 1
    assert classify_stability(critical).classification == "quasi_stationary"
    hot = two_dim_spec(0.2, 0.11)
    assert classify_stability(hot).classification == "non_stationary"


# ---------------------------------------------------------------------------
# intensity


def test_intensity_empty_history_is_baseline():
    lam = intensity_at(SAMPLING, [np.array([]), np.array([])], t=5.0)
    np.testing.assert_allclose(lam, [0.015, 0.015])


def test_intensity_single_event_kernel_value():
    # event of component 1 at s, queried at s + 1/beta: contributes alpha/e
    s, beta = 3.0, 0.11
    lam = intensity_at(SAMPLING, [np.array([]), np.array([s])], t=s + 1.0 / beta)
    assert lam[0] == pytest.approx(0.015 + 0.023 * math.exp(-1.0), abs=1e-15)
    assert lam[1] == pytest.approx(0.015, abs=1e-15)


def test_intensity_ignores_events_at_or_after_t():
    lam = intensity_at(SAMPLING, [np.array([2.0, 5.0]), np.array([])], t=2.0)
    np.testing.assert_allclose(lam, [0.015, 0.015])


def brute_force_intensity(spec, history, t):
    lam = spec.lambda0.copy()
    for n, times in enumerate(history):
        for s in np.asarray(times):
            if s < t:
                lam += spec.alpha[:, n] * np.exp(-spec.beta[:, n] * (t - s))
    return lam


def test_intensity_recursion_matches_brute_force():
    rng = np.random.default_rng(42)
    spec = HawkesSpec(
        lambda0=np.array([0.3, 0.2, 0.1]),
        alpha=rng.uniform(0.0, 0.4, (3, 3)),
        beta=rng.uniform(0.5, 2.0, (3, 3)),
    )
    history = [np.sort(rng.uniform(0.0, 100.0, size=rng.integers(300, 1000))) for _ in range(3)]
    for t in (0.5, 10.0, 50.0, 100.0, 101.0):
        got = intensity_at(spec, history, t)
        want = brute_force_intensity(spec, history, t)
        np.testing.assert_allclose(got, want, atol=1e-10, rtol=0.0)
        assert np.all(got >= spec.lambda0 - 1e-15)


# ---------------------------------------------------------------------------
# simulation


def test_simulate_poisson_degeneracy_counts_and_ks():
    spec = HawkesSpec(
        lambda0=np.array([1.0 / 15.0, 1.0 / 15.0]),
        alpha=np.zeros((2, 2)),
        beta=np.ones((2, 2)),
    )
    a, b = simulate_hawkes(spec, 72000.0, seed=1)
    for arr in (a, b):
        assert abs(len(arr) - 4800) < 3 * math.sqrt(4800)
        gaps = np.diff(arr.times)
        assert stats.kstest(gaps, "expon", args=(0, 15.0)).pvalue > 0.01


def test_simulate_poisson_degeneracy_chi2_counts():
    # event counts over 20 seeds behave like Poisson(4800) draws
    spec = HawkesSpec(
        lambda0=np.array([1.0 / 15.0]), alpha=np.zeros((1, 1)), beta=np.ones((1, 1))
    )
    counts = np.array([len(simulate_hawkes(spec, 72000.0, seed=s)[0]) for s in range(20)])
    chi2 = np.sum((counts - 4800.0) ** 2 / 4800.0)
    lo, hi = stats.chi2.ppf([0.0005, 0.9995], df=20)
    assert lo < chi2 < hi


def test_simulate_stationary_rate_matches_formula():
    # mean rate per component: (I - Gamma)^-1 lambda0 = 0.015/(1 - 0.20909)
    want_rate = 0.015 / (1.0 - 0.023 / 0.11)
    a, b = simulate_hawkes(SAMPLING, 72000.0, seed=2)
    for arr in (a, b):
        assert len(arr) / 72000.0 == pytest.approx(want_rate, rel=0.05)


def test_simulate_zero_horizon_empty():
    out = simulate_hawkes(SAMPLING, 0.0, seed=0)
    assert all(len(arr) == 0 for arr in out)


def test_simulate_rejects_unstable_without_override():
    hot = two_dim_spec(0.2, 0.11)
    message = (r"^kernel is non_stationary \(spectral radius 1\.818182\); "
               r"the simulation needs a stationary kernel$")
    with pytest.raises(StabilityError, match=message):
        simulate_hawkes(hot, 100.0, seed=0)


def test_simulate_run_stops_at_event_cap(monkeypatch):
    # branching ratio 0.91: about 200 immigrants, but about 2200 events in all
    warm = two_dim_spec(0.1, 0.11)
    monkeypatch.setattr(hawkes, "MAX_EVENTS", 1000)
    with pytest.raises(NumericError, match="1000 events"):
        simulate_hawkes(warm, 1000.0, seed=0)


def test_expected_events_is_the_stationary_count_and_bounded(monkeypatch):
    # each price component runs at mu / (1 - gamma_r - gamma_c)
    rate = PRICE.mu / (1.0 - PRICE.gamma_r - PRICE.gamma_c)
    assert expected_events(price_spec(PRICE), 1000.0) == pytest.approx(4 * rate * 1000.0, rel=1e-12)
    assert expected_events(SAMPLING, 0.0) == 0.0
    monkeypatch.setattr(hawkes, "MAX_EVENTS", 100)
    with pytest.raises(ParameterError, match="expects 178.* events, more than 100"):
        expected_events(price_spec(PRICE), 1000.0)


def test_simulate_refuses_unusable_horizons():
    with pytest.raises(NumericError):
        simulate_hawkes(SAMPLING, 1e30, seed=0)
    for bad in (-1.0, math.inf, math.nan):
        with pytest.raises(ParameterError):
            simulate_hawkes(SAMPLING, bad, seed=0)


def test_simulate_deterministic_per_seed():
    a1 = simulate_hawkes(SAMPLING, 5000.0, seed=9)
    a2 = simulate_hawkes(SAMPLING, 5000.0, seed=9)
    a3 = simulate_hawkes(SAMPLING, 5000.0, seed=10)
    for x, y in zip(a1, a2):
        np.testing.assert_array_equal(x.times, y.times)
    assert any(not np.array_equal(x.times, y.times) for x, y in zip(a1, a3))


def test_simulate_times_strictly_increasing_within_horizon():
    for arr in simulate_hawkes(price_spec(PRICE), 2000.0, seed=3):
        if len(arr):
            assert np.all(np.diff(arr.times) > 0)
            assert arr.times[0] >= 0.0 and arr.times[-1] <= 2000.0


def thinning_oracle(spec: HawkesSpec, horizon: float, seed: int) -> tuple[ArrivalSet, ...]:
    """Ogata thinning, the reference law for simulate_hawkes.

    The candidate wait is exponential at the current total intensity I(t);
    the mark u ~ U[0, I(t)] accepts the candidate iff u <= I(t + tau) and
    attributes it to the component whose cumulative intensity bracket
    contains u. The excitation state decays across rejected candidates too.
    """
    rng = seeding.stream(seed, seeding.HAWKES)
    # S[m, n]: excitation of component m from past events of component n,
    # decayed to the current time
    state = np.zeros((spec.dim, spec.dim))
    events: list[list[float]] = [[] for _ in range(spec.dim)]
    t = 0.0
    while True:
        total = float(spec.lambda0.sum() + state.sum())
        if total <= 0.0:
            break
        tau = rng.exponential(1.0 / total)
        u = rng.uniform(0.0, total)
        t_cand = t + tau
        if t_cand > horizon:
            break
        state *= np.exp(-spec.beta * tau)
        t = t_cand
        cum = np.cumsum(spec.lambda0 + state.sum(axis=1))
        if u <= cum[-1]:
            i = int(np.searchsorted(cum, u, side="left"))
            events[i].append(t)
            state[:, i] += spec.alpha[:, i]
    return tuple(ArrivalSet(times=np.asarray(ev), horizon=horizon) for ev in events)


# Fixed before the first run: 30 seeds per sampler, disjoint seed sets, a
# 20 000 s horizon and level 1e-3 for each per-component test.
ORACLE_HORIZON = 20000.0
CLUSTER_SEEDS = range(30)
ORACLE_SEEDS = range(1000, 1030)
ORACLE_LEVEL = 1e-3


@pytest.mark.parametrize("spec", [SAMPLING, price_spec(PRICE)], ids=["sampling", "price"])
def test_cluster_sampler_matches_thinning_oracle(spec):
    cluster = [simulate_hawkes(spec, ORACLE_HORIZON, seed=s) for s in CLUSTER_SEEDS]
    oracle = [thinning_oracle(spec, ORACLE_HORIZON, seed=s) for s in ORACLE_SEEDS]
    for m in range(spec.dim):
        # per-run counts: overdispersed, so Welch's t-test rather than a
        # Poisson comparison
        counts_c = [len(run[m]) for run in cluster]
        counts_o = [len(run[m]) for run in oracle]
        p_counts = stats.ttest_ind(counts_c, counts_o, equal_var=False).pvalue
        assert p_counts > ORACLE_LEVEL, (m, np.mean(counts_c), np.mean(counts_o))
        gaps_c = np.concatenate([np.diff(run[m].times) for run in cluster])
        gaps_o = np.concatenate([np.diff(run[m].times) for run in oracle])
        p_gaps = stats.ks_2samp(gaps_c, gaps_o).pvalue
        assert p_gaps > ORACLE_LEVEL, (m, p_gaps)


def test_intensity_positive_along_simulated_history():
    arrivals = simulate_hawkes(SAMPLING, 1000.0, seed=4)
    for t in (1.0, 250.0, 999.0):
        lam = intensity_at(SAMPLING, [a.times for a in arrivals], t)
        assert np.all(lam >= SAMPLING.lambda0)


# ---------------------------------------------------------------------------
# price model


def test_price_model_counts_match_arrival_sets():
    path, arrivals = hawkes_price_model(PRICE, 3000.0, seed=5)
    t_grid = path.times()
    up1 = np.searchsorted(arrivals[0].times, t_grid, side="right")
    dn1 = np.searchsorted(arrivals[1].times, t_grid, side="right")
    up2 = np.searchsorted(arrivals[2].times, t_grid, side="right")
    dn2 = np.searchsorted(arrivals[3].times, t_grid, side="right")
    np.testing.assert_array_equal(path.values[:, 0], up1 - dn1)
    np.testing.assert_array_equal(path.values[:, 1], up2 - dn2)


def price_values_by_bisection(params, arrivals, n_steps):
    """The price model's grid values as they were counted, with np.searchsorted."""
    grid = PRICE_GRID_DT * np.arange(n_steps + 1)
    counts = [np.searchsorted(a.times, grid, side="right").astype(np.float64) for a in arrivals]
    return np.column_stack(
        [params.x0[0] + counts[0] - counts[1], params.x0[1] + counts[2] - counts[3]]
    )


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_steps=st.integers(min_value=1, max_value=400),
    mu=st.sampled_from([0.015, 0.3, 2.0]),
)
@settings(max_examples=60, deadline=None)
def test_price_model_counts_equal_bisection(seed, n_steps, mu):
    # sparse and dense events per grid step, so both the linear kernel and
    # its bisection fallback count
    params = HawkesPriceParams(mu=mu, alpha_r=0.023, alpha_c=0.05, beta=0.11, x0=(0.5, -3.0))
    path, arrivals = hawkes_price_model(params, PRICE_GRID_DT * n_steps, seed)
    want = price_values_by_bisection(params, arrivals, n_steps)
    assert np.array_equal(path.values, want)


def test_price_model_counts_events_on_and_next_to_grid_points(monkeypatch):
    # events exactly on grid points and one ulp either side of them, which a
    # continuous-time simulation almost never draws
    n_steps = 300
    grid = PRICE_GRID_DT * np.arange(n_steps + 1)
    rng = np.random.default_rng(10)

    def on_the_grid(spec, horizon, seed):
        out = []
        for _ in range(4):
            at = grid[rng.integers(0, grid.size, 150)]
            near = np.concatenate([at, np.nextafter(at[:50], -np.inf), np.nextafter(at[50:], np.inf)])
            times = np.unique(np.clip(near, 0.0, horizon))
            out.append(ArrivalSet(times=times, horizon=horizon))
        return tuple(out)

    monkeypatch.setattr(hawkes, "simulate_hawkes", on_the_grid)
    path, arrivals = hawkes_price_model(PRICE, PRICE_GRID_DT * n_steps, 0)
    assert np.isin(arrivals[0].times, grid).sum() > 50
    assert np.array_equal(path.values, price_values_by_bisection(PRICE, arrivals, n_steps))


@pytest.mark.parametrize("horizon, message", [
    (3600.5, "horizon 3600.5 is not a positive integer multiple of dt 1.0"),
    (0.0, "horizon must be positive"),
    (-5.0, "horizon must be positive"),
])
def test_price_model_refuses_a_horizon_off_its_grid(horizon, message):
    with pytest.raises(ParameterError, match=message):
        hawkes_price_model(PRICE, horizon, seed=1)


def test_price_model_grid_spans_the_horizon():
    path, _ = hawkes_price_model(PRICE, 3601.0, seed=1)
    assert path.horizon == 3601.0


def test_price_model_initial_levels():
    params = HawkesPriceParams(mu=0.015, alpha_r=0.023, alpha_c=0.05, beta=0.11,
                               x0=(100.0, 50.0))
    path, _ = hawkes_price_model(params, 500.0, seed=6)
    assert path.values[0, 0] == 100.0
    assert path.values[0, 1] == 50.0


def test_price_model_integer_tick_moves():
    path, _ = hawkes_price_model(PRICE, 2000.0, seed=7)
    steps = np.diff(path.values, axis=0)
    assert np.all(steps == np.round(steps))


# ---------------------------------------------------------------------------
# closed-form covariance and correlation


def test_limiting_correlation_trivial_values():
    assert limiting_correlation(0.5, 0.0) == 0.0
    assert limiting_correlation(0.0, 1.0) == pytest.approx(1.0, abs=1e-15)


def test_limiting_correlation_reference_ratios():
    got = limiting_correlation(0.023 / 0.11, 0.05 / 0.11)
    assert got == pytest.approx(0.6587745802, abs=1e-9)


def test_limiting_correlation_rejects_negative():
    with pytest.raises(ParameterError):
        limiting_correlation(-0.1, 0.2)


def test_correlation_large_dt_approaches_limit():
    rho_inf = limiting_correlation(PRICE.gamma_r, PRICE.gamma_c)
    assert theoretical_hawkes_correlation(PRICE, 1e6) == pytest.approx(rho_inf, abs=1e-3)


def test_correlation_vanishes_at_small_dt():
    assert abs(theoretical_hawkes_correlation(PRICE, 1e-3)) < 1e-2


def test_correlation_monotone_and_bounded_by_limit():
    rho_inf = limiting_correlation(PRICE.gamma_r, PRICE.gamma_c)
    grid = np.logspace(-2, 5, 60)
    rho = np.array([theoretical_hawkes_correlation(PRICE, dt) for dt in grid])
    assert np.all(np.diff(rho) > 0)
    assert np.all(rho <= rho_inf + 1e-9)


def test_covariance_small_dt_poisson_floor():
    # per unit time the own variance tends to the total event rate of the
    # asset (up plus down ticks) and the cross covariance to zero
    rate = PRICE.mu / (1.0 - PRICE.gamma_r - PRICE.gamma_c)  # of each component
    c11, c12 = theoretical_hawkes_covariance(PRICE, 1e-8)
    assert c11 / 1e-8 == pytest.approx(2.0 * rate, rel=1e-6)
    assert abs(c12 / 1e-8) < 1e-6


def test_covariance_requires_positive_dt():
    with pytest.raises(ParameterError):
        theoretical_hawkes_covariance(PRICE, 0.0)


def test_covariance_refuses_a_kernel_whose_denominator_product_vanishes():
    # 1-g_r-g_c and 1+g_r-g_c are each 2e-9, above the 1e-12 cut; their product is not
    near = HawkesPriceParams(mu=0.015, alpha_r=0.0, alpha_c=0.11 * (1 - 2e-9), beta=0.11)
    with pytest.raises(DomainError, match="product"):
        theoretical_hawkes_correlation(near, 10.0)


def test_uncoupled_assets_have_zero_cross_covariance():
    uncoupled = HawkesPriceParams(mu=0.015, alpha_r=0.023, alpha_c=0.0, beta=0.11)
    for dt in (0.1, 1.0, 10.0, 100.0, 1e4):
        _, c12 = theoretical_hawkes_covariance(uncoupled, dt)
        assert abs(c12 / dt) < 1e-10
    assert limiting_correlation(uncoupled.gamma_r, 0.0) == 0.0


def test_uncoupled_assets_monte_carlo_correlation_near_zero():
    uncoupled = HawkesPriceParams(mu=0.015, alpha_r=0.023, alpha_c=0.0, beta=0.11)
    path, _ = hawkes_price_model(uncoupled, 72000.0, seed=8)
    inc1 = np.diff(path.values[::10, 0])
    inc2 = np.diff(path.values[::10, 1])
    assert abs(np.corrcoef(inc1, inc2)[0, 1]) < 0.05


def test_spec_validation_errors():
    with pytest.raises(ParameterError):
        HawkesSpec(lambda0=np.array([-0.1]), alpha=np.zeros((1, 1)), beta=np.ones((1, 1)))
    with pytest.raises(ParameterError):
        HawkesSpec(lambda0=np.array([0.1]), alpha=np.ones((1, 1)), beta=np.zeros((1, 1)))
    with pytest.raises(ParameterError):
        HawkesSpec(lambda0=np.array([0.1, 0.1]), alpha=np.zeros((1, 1)), beta=np.ones((1, 1)))
    with pytest.raises(ParameterError):
        HawkesPriceParams(mu=0.015, alpha_r=0.023, alpha_c=0.05, beta=0.0)


@pytest.mark.parametrize(
    "alpha_r, alpha_c, kind, radius",
    [(0.5, 0.6, "non_stationary", "1.100000"), (0.4, 0.6, "quasi_stationary", "1.000000")],
)
def test_price_params_refuse_a_kernel_that_is_not_stationary(alpha_r, alpha_c, kind, radius):
    message = (rf"^kernel is {kind} \(spectral radius {radius}\); "
               r"the price model needs a stationary kernel$")
    with pytest.raises(StabilityError, match=message):
        HawkesPriceParams(mu=0.01, alpha_r=alpha_r, alpha_c=alpha_c, beta=1.0)


@pytest.mark.parametrize(
    "field, kwargs",
    [
        ("alpha_r", dict(alpha_r=float("nan"))),
        ("alpha_c", dict(alpha_c=float("inf"))),
        ("beta", dict(beta=float("inf"))),
        ("x0", dict(x0=(0.0, float("nan")))),
        ("x0", dict(x0=(0.0,))),
    ],
)
def test_price_params_refuse_non_finite_fields(field, kwargs):
    base = dict(mu=0.015, alpha_r=0.023, alpha_c=0.05, beta=0.11)
    base.update(kwargs)
    with pytest.raises(ParameterError, match=rf"^{field} must be"):
        HawkesPriceParams(**base)
