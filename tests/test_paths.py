"""Latent path simulators: degeneracies, moment checks, determinism."""

import math

import numpy as np
import pytest

from eppsim import seeding
from eppsim.errors import ParameterError
from eppsim.hawkes import hawkes_price_model
from eppsim.index import grid_count
from eppsim.paths import (
    DAY_SECONDS,
    GbmParams,
    MertonParams,
    _jump_increments,
    _n_steps,
    simulate_gbm,
    simulate_merton,
)
from eppsim.experiments import ExperimentConfig
from eppsim.presets import _induced_rho, hawkes_price_reference
from eppsim.sampling import synchronous_ticks
from eppsim.series import PricePath

PAPER_GBM = dict(mu1=0.01, mu2=0.01, sigma_sq1=0.1, sigma_sq2=0.2, rho=0.65)


def test_drift_only_paths_are_straight_lines():
    params = GbmParams(mu1=0.01, mu2=-0.02, sigma_sq1=0.0, sigma_sq2=0.0, rho=0.0,
                       dt=1.0, horizon=100.0)
    path = simulate_gbm(params, seed=7)
    inc = np.diff(path.values, axis=0)
    np.testing.assert_allclose(inc[:, 0], 0.01 / DAY_SECONDS, rtol=1e-12)
    np.testing.assert_allclose(inc[:, 1], -0.02 / DAY_SECONDS, rtol=1e-12)


def test_increment_correlation_matches_pearson_oracle():
    params = GbmParams(**PAPER_GBM)
    path = simulate_gbm(params, seed=11)
    inc = np.diff(path.values, axis=0)
    rho_hat = np.corrcoef(inc[:, 0], inc[:, 1])[0, 1]
    assert abs(rho_hat - 0.65) < 0.02


def test_gbm_deterministic_per_seed():
    params = GbmParams(**PAPER_GBM, horizon=2000.0)
    a = simulate_gbm(params, seed=3)
    b = simulate_gbm(params, seed=3)
    c = simulate_gbm(params, seed=4)
    np.testing.assert_array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_path_grid_metadata():
    params = GbmParams(**PAPER_GBM, dt=2.0, horizon=100.0)
    path = simulate_gbm(params, seed=0)
    assert path.values.shape == (51, 2)
    assert path.horizon == 100.0
    np.testing.assert_allclose(path.times()[:3], [0.0, 2.0, 4.0])


def test_merton_zero_rate_is_bitwise_gbm_twin():
    # jump draws live on their own stream, so switching them off must not
    # perturb the diffusion component
    gbm = GbmParams(**PAPER_GBM)
    mert = MertonParams(**PAPER_GBM, jump_rate=0.0)
    np.testing.assert_array_equal(
        simulate_merton(mert, seed=21).values, simulate_gbm(gbm, seed=21).values
    )


def test_merton_degenerate_jump_size_equals_no_jump_path():
    gbm = GbmParams(**PAPER_GBM)
    mert = MertonParams(**PAPER_GBM, jump_rate=0.2, jump_mean=0.0, jump_std=0.0)
    np.testing.assert_array_equal(
        simulate_merton(mert, seed=5).values, simulate_gbm(gbm, seed=5).values
    )


def test_merton_jump_count_within_3_sigma():
    # a step holds at least one jump with p = 1 - exp(-0.2), so of 72 000
    # steps about 13 052 do, sd = sqrt(72000 p (1 - p)) ~ 103; a step with
    # jumps has a non-zero jump sum (its normal draw is never exactly 0)
    params = MertonParams(**PAPER_GBM, jump_rate=0.2, jump_std=0.001)
    p = 1.0 - math.exp(-0.2)
    mean, sd = 72000 * p, math.sqrt(72000 * p * (1.0 - p))
    for seed in range(5):
        steps = np.count_nonzero(_jump_increments(params, 72000, seed), axis=0)
        assert np.all(np.abs(steps - mean) < 3 * sd), (seed, steps)


def test_variance_scales_linearly_in_step_size():
    # the h=100 block estimate is noisy on one path; average the ratio
    # over a few seeds to test the scaling law itself at 5%
    params = GbmParams(**PAPER_GBM)
    for h in (10, 100):
        ratios = []
        for seed in range(6):
            x = simulate_gbm(params, seed).values
            var1 = np.var(np.diff(x, axis=0), axis=0, ddof=1)
            var_h = np.var(x[h:] - x[:-h], axis=0, ddof=1)
            ratios.append(var_h / (h * var1))
        np.testing.assert_allclose(np.mean(ratios, axis=0), 1.0, rtol=0.05)


def test_merton_jumps_inflate_increment_variance():
    gbm_path = simulate_gbm(GbmParams(**PAPER_GBM), seed=9)
    mert_path = simulate_merton(
        MertonParams(**PAPER_GBM, jump_rate=0.2, jump_std=0.001), seed=9
    )
    var_gbm = np.var(np.diff(gbm_path.values, axis=0), axis=0)
    var_mert = np.var(np.diff(mert_path.values, axis=0), axis=0)
    assert np.all(var_mert > var_gbm)


@pytest.mark.parametrize("jumps", [dict(jump_mean=0.0, jump_std=0.001),
                                   dict(jump_mean=0.001, jump_std=0.0005)])
def test_merton_induced_rho_is_the_realised_return_correlation(jumps):
    # three 10-day paths: the 1 s return correlation sits within about six
    # standard errors of the formula, and far from the diffusion's rho
    params = MertonParams(**PAPER_GBM, jump_rate=0.2, **jumps, horizon=10 * DAY_SECONDS)
    cfg = ExperimentConfig(price_model="merton", price_params=params, sampler="synchronous",
                           estimators=("measured",))
    want = _induced_rho(cfg)
    got = np.mean([np.corrcoef(np.diff(simulate_merton(params, seed).values, axis=0).T)[0, 1]
                   for seed in range(3)])
    assert got == pytest.approx(want, abs=0.003)
    assert PAPER_GBM["rho"] - want > 0.05


def test_induced_rho_without_jumps_is_rho_itself():
    rho = 0.6543210987654321
    for model, params in (("gbm", GbmParams(**dict(PAPER_GBM, rho=rho))),
                          ("merton", MertonParams(**dict(PAPER_GBM, rho=rho), jump_rate=0.0)),
                          ("merton", MertonParams(**dict(PAPER_GBM, rho=rho), jump_rate=0.2,
                                                  jump_std=0.0))):
        cfg = ExperimentConfig(price_model=model, price_params=params, sampler="synchronous",
                               estimators=("measured",))
        assert _induced_rho(cfg) == rho


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(sigma_sq1=-0.1),
        dict(rho=1.5),
        dict(rho=-1.01),
        dict(dt=0.0),
        dict(horizon=10.5, dt=3.0),
        dict(mu1=float("nan")),
    ],
)
def test_gbm_invalid_params_rejected(kwargs):
    base = dict(PAPER_GBM, dt=1.0, horizon=100.0)
    base.update(kwargs)
    with pytest.raises(ParameterError):
        GbmParams(**base)


@pytest.mark.parametrize("kwargs", [dict(jump_rate=-0.1), dict(jump_rate=0.2, jump_std=-1.0)])
def test_merton_invalid_params_rejected(kwargs):
    with pytest.raises(ParameterError):
        MertonParams(**PAPER_GBM, **kwargs)


NON_FINITE_FIELDS = ["mu1", "sigma_sq1", "sigma_sq2", "rho", "dt", "horizon"]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("name", NON_FINITE_FIELDS)
def test_gbm_non_finite_field_is_named(name, value):
    base = dict(PAPER_GBM, dt=1.0, horizon=100.0)
    base[name] = value
    with pytest.raises(ParameterError, match=rf"^{name} must be finite"):
        GbmParams(**base)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("name", [*NON_FINITE_FIELDS, "jump_rate", "jump_mean", "jump_std"])
def test_merton_non_finite_field_is_named(name, value):
    base = dict(PAPER_GBM, jump_rate=0.01, dt=1.0, horizon=100.0)
    base[name] = value
    with pytest.raises(ParameterError, match=rf"^{name} must be finite"):
        MertonParams(**base)


def test_path_csv_export(tmp_path):
    params = GbmParams(**PAPER_GBM, dt=1.0, horizon=10.0)
    path = simulate_gbm(params, seed=2)
    out = tmp_path / "path.csv"
    path.write_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "t,logp1,logp2"
    assert len(lines) == 12
    t, p1, p2 = (float(v) for v in lines[3].split(","))
    assert t == 2.0
    assert p1 == path.values[2, 0] and p2 == path.values[2, 1]


def test_grids_past_the_size_bound_are_refused():
    # both far past the bound, so nothing near it is ever allocated
    for steps in (grid_count, _n_steps):
        for horizon, dt in ((DAY_SECONDS, 1e-300), (1e300, 1.0)):
            with pytest.raises(ParameterError, match="needs more than 100000000 grid steps"):
                steps(horizon, dt)


# ---------------------------------------------------------------------------
# column-major paths


def row_major_reference(params, seed):
    """The path as np.vstack of a cumulative sum of row-major increments,
    each written as one expression of the draws."""
    n = _n_steps(params.horizon, params.dt)
    z = seeding.stream(seed, seeding.DIFFUSION).standard_normal((n, 2))
    rho = params.rho
    z2 = rho * z[:, 0] + np.sqrt(1.0 - rho * rho) * z[:, 1]
    mu_s = np.array([params.mu1, params.mu2]) / DAY_SECONDS
    var_s = np.array([params.sigma_sq1, params.sigma_sq2]) / DAY_SECONDS
    drift = (mu_s - 0.5 * var_s) * params.dt
    vol = np.sqrt(var_s) * np.sqrt(params.dt)
    inc = np.column_stack([drift[0] + vol[0] * z[:, 0], drift[1] + vol[1] * z2])
    if getattr(params, "jump_rate", 0) > 0:
        rng = seeding.stream(seed, seeding.JUMPS)
        counts = rng.poisson(params.jump_rate * params.dt, size=(n, 2))
        zj = rng.standard_normal((n, 2))
        inc = inc + (params.jump_mean * counts + params.jump_std * np.sqrt(counts) * zj)
    return np.vstack([np.zeros((1, 2)), np.cumsum(inc, axis=0)])


@pytest.mark.parametrize("rho", [0.65, 0.0, 1.0, -1.0])
def test_simulated_paths_equal_the_row_major_reference_bit_for_bit(rho):
    gbm = GbmParams(**dict(PAPER_GBM, rho=rho), horizon=5000.0)
    merton = MertonParams(**dict(PAPER_GBM, rho=rho), jump_rate=0.2, jump_mean=0.001,
                          horizon=5000.0)
    for simulate, params in ((simulate_gbm, gbm), (simulate_merton, merton)):
        values = simulate(params, seed=11).values
        assert values.flags.f_contiguous
        np.testing.assert_array_equal(values, row_major_reference(params, 11))


@pytest.mark.parametrize("layout", ["C", "F", "list", "strided", "one row"])
def test_price_path_values_are_column_major_whatever_the_input(layout):
    rows = np.arange(12.0).reshape(6, 2)
    given = {
        "C": rows, "F": np.asfortranarray(rows), "list": rows.tolist(),
        "strided": np.arange(24.0).reshape(6, 4)[:, ::2], "one row": rows[:1],
    }[layout]
    path = PricePath(dt=1.0, values=given)
    assert path.values.flags.f_contiguous
    np.testing.assert_array_equal(path.values, np.asarray(given))
    for asset in (0, 1):
        assert path.values[:, asset].flags.c_contiguous


def test_a_column_major_path_is_kept_without_a_copy():
    values = np.asfortranarray(np.arange(12.0).reshape(6, 2))
    assert PricePath(dt=1.0, values=values).values is values


def test_simulators_build_column_major_paths():
    gbm = GbmParams(**PAPER_GBM, horizon=2000.0)
    merton = MertonParams(**PAPER_GBM, jump_rate=0.2, horizon=2000.0)
    paths = [simulate_gbm(gbm, 3), simulate_merton(merton, 3),
             hawkes_price_model(hawkes_price_reference(), 2000.0, 3)[0]]
    for path in paths:
        assert path.values.flags.f_contiguous
        for asset in (0, 1):
            leg = synchronous_ticks(path, asset)
            assert leg.values.flags.c_contiguous and np.shares_memory(leg.values, path.values)
