"""Replication harness, ribbons, discrimination rule, serialization."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from eppsim.errors import InsufficientDataError, ParameterError, StabilityError
from eppsim.experiments import (
    CurvePoint,
    EppsCurve,
    ExperimentConfig,
    curve_to_dict,
    discriminate,
    epps_curve,
    experiment_hy_vs_interarrival,
    experiment_k_skip,
    experiment_overlap_multi_rate,
    ribbon,
    verdict_to_dict,
    write_curve_csv,
    write_curve_json,
    write_verdict_json,
)
from eppsim.paths import GbmParams
from eppsim.sampling import mutual_excitation_spec
from eppsim.series import TickSeries

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


def test_ribbon_rejects_degenerate_input():
    with pytest.raises(InsufficientDataError):
        ribbon(np.array([1.0]), 0.95)
    with pytest.raises(ParameterError):
        ribbon(np.array([1.0, 2.0]), 1.5)


# ---------------------------------------------------------------------------
# epps_curve harness


def test_identical_replication_seeds_give_zero_ribbons():
    cfg = small_cfg(n_replications=2, replication_seeds=(7, 7))
    curve = epps_curve(cfg)
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
    serial = experiment_overlap_multi_rate(cfg, max_workers=1)
    parallel = experiment_overlap_multi_rate(cfg, max_workers=2)
    assert list(serial) == [2.0, 5.0]
    assert {m: curve_to_dict(c) for m, c in serial.items()} == {
        m: curve_to_dict(c) for m, c in parallel.items()
    }


def test_replication_order_does_not_move_the_mean():
    seeds = (11, 23, 37, 41)
    fwd = epps_curve(small_cfg(n_replications=4, replication_seeds=seeds))
    rev = epps_curve(small_cfg(n_replications=4, replication_seeds=seeds[::-1]))
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
    with pytest.raises(ParameterError):
        small_cfg(estimators=("kernel",))
    with pytest.raises(ParameterError):
        small_cfg(confidence=0.0)
    with pytest.raises(ParameterError):
        small_cfg(replication_seeds=(1, 2, 3))


@pytest.mark.parametrize(
    "amplitude, kind, radius",
    [(2.0, "non_stationary", "2.000000"), (1.0, "quasi_stationary", "1.000000")],
)
def test_config_refuses_a_hawkes_sampler_that_is_not_stationary(amplitude, kind, radius):
    message = rf"^hawkes_sampler: kernel is {kind} \(spectral radius {radius}\)"
    with pytest.raises(StabilityError, match=message):
        small_cfg(sampler="hawkes", hawkes_sampler=mutual_excitation_spec(0.1, amplitude, 1.0))
    # the same kernel is not checked when no replication would sample it
    small_cfg(hawkes_sampler=mutual_excitation_spec(0.1, amplitude, 1.0))


# ---------------------------------------------------------------------------
# experiment drivers


def test_hy_vs_interarrival_single_rate_single_replication():
    cfg = small_cfg(n_replications=1, mean_interarrivals=(5.0,))
    curve = experiment_hy_vs_interarrival(cfg)
    assert curve.axis_label == "mean_interarrival"
    (pts,) = curve.series.values()
    assert len(pts) == 1
    assert pts[0].n_ok == 1
    assert pts[0].half_width == 0.0
    assert math.isfinite(pts[0].mean)


def test_hy_vs_interarrival_parallel_matches_serial():
    cfg = small_cfg(n_replications=3, mean_interarrivals=(2.0, 5.0, 10.0))
    assert experiment_hy_vs_interarrival(cfg, max_workers=1) == experiment_hy_vs_interarrival(
        cfg, max_workers=2
    )


def test_hy_vs_interarrival_flat_for_brownian():
    cfg = small_cfg(
        price_params=GBM,
        horizon=72000.0,
        n_replications=4,
        mean_interarrivals=(1.0, 5.0, 15.0, 30.0, 45.0),
    )
    curve = experiment_hy_vs_interarrival(cfg)
    means = [p.mean for p in curve.series["hy"]]
    assert max(means) - min(means) < 0.05
    assert np.mean(means) == pytest.approx(0.65, abs=0.05)


def random_walk_ticks(n, seed):
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.exponential(1.0, n))
    return TickSeries(times=times, values=np.cumsum(rng.normal(size=n)), horizon=times[-1])


def test_k_skip_truncates_when_ticks_run_out():
    si = random_walk_ticks(60, seed=0)
    rng = np.random.default_rng(1)
    sj = TickSeries(times=si.times, values=np.cumsum(rng.normal(size=60)), horizon=si.horizon)
    curve, verdict = experiment_k_skip(si, sj, k_max=40)
    pts = curve.series["hy"]
    assert len(pts) == 40
    assert curve.meta["first_infeasible_k"] == 31
    assert all(p.n_ok == 0 and math.isnan(p.mean) for p in pts if p.axis > 30)
    assert all(p.n_ok == 1 and p.half_width == 0.0 for p in pts if p.axis <= 30)
    assert verdict.n_points == 30


def test_k_skip_rejects_bad_kmax():
    si = random_walk_ticks(20, seed=2)
    with pytest.raises(ParameterError):
        experiment_k_skip(si, si, k_max=0)


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
    v = discriminate(flat_curve())
    assert v.classification == "diffusion_like"
    assert v.gap == pytest.approx(0.0, abs=1e-12)
    assert v.threshold == 0.05


def test_discriminate_monotone_rise_is_discrete_events():
    v = discriminate(rising_curve())
    assert v.classification == "discrete_events"
    assert v.gap > 0.3
    assert v.rho_early < v.rho_late


def test_discriminate_fall_is_inconclusive():
    falling = rising_curve(lo=0.6, hi=0.2)
    v = discriminate(falling)
    assert v.classification == "inconclusive"
    assert v.gap < -0.05


def test_discriminate_threshold_uses_pooled_ribbon():
    # a 0.08 rise is above tau_abs but inside wide ribbons
    v = discriminate(rising_curve(lo=0.50, hi=0.58, hw=0.2))
    assert v.classification == "diffusion_like"
    assert v.threshold == pytest.approx(0.2, abs=1e-12)
    narrow = discriminate(rising_curve(lo=0.50, hi=0.58, hw=0.001))
    assert narrow.classification == "discrete_events"


def test_discriminate_shift_invariant():
    base = rising_curve()
    shifted_pts = tuple(
        CurvePoint(p.axis, p.mean + 5.0, p.half_width, p.n_ok, p.n_fail)
        for p in base.series["hy"]
    )
    shifted = EppsCurve(axis_label="k", series={"hy": shifted_pts})
    a, b = discriminate(base), discriminate(shifted)
    assert a.classification == b.classification
    assert a.gap == pytest.approx(b.gap, abs=1e-9)


def test_discriminate_ignores_failed_points():
    pts = list(flat_curve(n=10).series["hy"])
    pts[3] = CurvePoint(4.0, math.nan, math.nan, 0, 1)
    curve = EppsCurve(axis_label="k", series={"hy": tuple(pts)})
    v = discriminate(curve)
    assert v.n_points == 9
    assert v.classification == "diffusion_like"


def test_discriminate_needs_five_points():
    with pytest.raises(InsufficientDataError):
        discriminate(flat_curve(n=4))


def test_discriminate_needs_series_name_when_ambiguous():
    pts = flat_curve().series["hy"]
    curve = EppsCurve(axis_label="k", series={"hy": pts, "measured": pts})
    with pytest.raises(ParameterError):
        discriminate(curve)
    assert discriminate(curve, "measured").estimator == "measured"


def test_discriminate_echoes_rule_inputs():
    v = discriminate(flat_curve(), tau_abs=0.1, z=2.0)
    assert v.tau_abs == 0.1
    assert v.z == 2.0
    assert v.threshold == max(0.1, 2.0 * v.pooled_half_width)


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
    v = discriminate(rising_curve())
    doc = verdict_to_dict(v)
    for key in ("classification", "rho_early", "rho_late", "gap", "tau_abs", "z",
                "pooled_half_width", "threshold", "ci_overlap", "n_points",
                "axis_label", "estimator"):
        assert key in doc, key
    out = tmp_path / "verdict.json"
    write_verdict_json(v, out)
    assert json.loads(out.read_text())["classification"] == "discrete_events"
