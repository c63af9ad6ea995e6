"""End-to-end acceptance checks, one per shipped guarantee.

Run `pytest tests/test_acceptance.py -s` to see one ACCEPTANCE line per
check. Each check prints its verdict before asserting, so a FAIL line
always reaches the console together with the failing detail.
"""

import hashlib
import io
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy import stats

from eppsim.estimators import (
    hayashi_yoshida,
    realised_covariance,
    theoretical_poisson_epps,
)
from eppsim.hawkes import (
    HawkesSpec,
    intensity_at,
    limiting_correlation,
    simulate_hawkes,
    theoretical_hawkes_correlation,
)
from eppsim.presets import (
    FIG_DT_GRID,
    FIGURE_NAMES,
    figure_recipe,
    hawkes_price_reference,
    run_figure,
)
from eppsim.series import GridSeries, TickSeries
from eppsim.taq import build_day_pair, parse_trades, ticker_interarrival_stats
from golden import GOLDEN_PATH

SEED = 0
N_REPLICATIONS = 100


def check(num, name, failures):
    status = "FAIL" if failures else "PASS"
    print(f"\nACCEPTANCE {num:02d} {name}: {status}")
    assert not failures, "; ".join(failures)


def timed_figure(name, n=N_REPLICATIONS):
    t0 = time.perf_counter()
    result = run_figure(figure_recipe(name, seed=SEED, n_replications=n))
    return result, time.perf_counter() - t0


def points(result, estimator):
    return {p.axis: p for p in result.curves["curve"].series[estimator]}


@pytest.fixture(scope="module")
def fig2a():
    return timed_figure("2a")


@pytest.fixture(scope="module")
def fig2b():
    return timed_figure("2b")


@pytest.fixture(scope="module")
def fig3a():
    return timed_figure("3a")


@pytest.fixture(scope="module")
def fig5():
    return timed_figure("5")


def test_01_poisson_sampled_epps_curve_matches_analytic(fig2a):
    result, elapsed = fig2a
    failures = []
    measured = points(result, "measured")
    if sorted(measured) != sorted(FIG_DT_GRID):
        failures.append(f"axis {sorted(measured)} != {sorted(FIG_DT_GRID)}")
    covered = 0
    for dt, p in measured.items():
        analytic = theoretical_poisson_epps(0.65, 1.0 / 15.0, dt)
        if abs(analytic - p.mean) <= p.half_width:
            covered += 1
    if covered < math.ceil(0.9 * len(measured)):
        failures.append(f"analytic curve inside ribbon at only {covered}/{len(measured)} points")
    spot = measured[15.0]
    if abs(spot.mean - 0.2391) > spot.half_width:
        failures.append(
            f"dt=15 mean {spot.mean:.4f} not within ribbon {spot.half_width:.4f} of 0.2391"
        )
    if elapsed > 120.0:
        failures.append(f"runtime {elapsed:.0f}s exceeds 120s")
    check(1, "poisson epps curve", failures)


def test_02_overlap_and_hy_recover_the_induced_correlation(fig2a, fig2b):
    failures = []
    for tag, (result, _) in (("poisson", fig2a), ("hawkes", fig2b)):
        for estimator in ("overlap", "hy"):
            for dt, p in points(result, estimator).items():
                if dt >= 5.0 and abs(p.mean - 0.65) > 0.02:
                    failures.append(
                        f"{tag} {estimator} dt={dt:g}: mean {p.mean:.4f} off 0.65 by > 0.02"
                    )
    check(2, "correction recovery", failures)


def test_03_flat_trade_correction_overshoots_under_event_clock(fig2b):
    result, _ = fig2b
    over = [
        (dt, p.mean)
        for dt, p in points(result, "flat_trade").items()
        if dt <= 10.0 and p.mean > 1.0
    ]
    failures = [] if over else ["no flat-trade mean above 1.0 for dt <= 10"]
    check(3, "flat-trade overcorrection", failures)


def test_04_jump_model_saturates_below_the_diffusion_correlation(fig3a):
    result, _ = fig3a
    failures = []
    measured = points(result, "measured")[100.0]
    if not measured.mean <= 0.65 - 0.02:
        failures.append(f"measured mean at dt=100 is {measured.mean:.4f}, not <= 0.63")
    ov = points(result, "overlap")[100.0]
    hy = points(result, "hy")[100.0]
    ribbon = max(ov.half_width, hy.half_width)
    if abs(ov.mean - hy.mean) > ribbon:
        failures.append(
            f"overlap {ov.mean:.4f} and hy {hy.mean:.4f} differ beyond ribbon {ribbon:.4f}"
        )
    check(4, "jump saturation", failures)


def test_05_event_model_limiting_correlation_values():
    failures = []
    # exact kernel-norm ratios 0.023/0.11 and 0.05/0.11 (their 5-digit
    # decimal truncations shift the value by more than the tolerance)
    rho_inf = limiting_correlation(0.023 / 0.11, 0.05 / 0.11)
    if abs(rho_inf - 0.658775) > 1e-6:
        failures.append(f"limiting correlation {rho_inf:.9f} != 0.658775 +- 1e-6")
    params = hawkes_price_reference()
    wide = theoretical_hawkes_correlation(params, 1e6)
    if abs(wide - rho_inf) > 1e-3:
        failures.append(f"rho(1e6) {wide:.6f} not within 1e-3 of limit")
    tiny = theoretical_hawkes_correlation(params, 1e-3)
    if abs(tiny) >= 1e-2:
        failures.append(f"|rho(1e-3)| = {abs(tiny):.4f} not below 1e-2")
    check(5, "limiting correlation", failures)


def test_06_synchronous_event_model_curve_matches_analytic(fig5):
    result, elapsed = fig5
    failures = []
    params = hawkes_price_reference()
    measured = points(result, "measured")
    if min(measured) != 1.0 or max(measured) != 1000.0:
        failures.append(f"dt grid spans [{min(measured):g}, {max(measured):g}], not [1, 1000]")
    covered = sum(
        abs(theoretical_hawkes_correlation(params, dt) - p.mean) <= p.half_width
        for dt, p in measured.items()
    )
    if covered < math.ceil(0.9 * len(measured)):
        failures.append(f"analytic curve inside ribbon at only {covered}/{len(measured)} points")
    if elapsed > 600.0:
        failures.append(f"runtime {elapsed:.0f}s exceeds 600s")
    check(6, "synchronous epps curve", failures)


def test_07_interarrival_sweep_discriminates_the_two_models():
    failures = []
    hawkes, _ = timed_figure("8a")
    gbm, _ = timed_figure("8b")
    v_hawkes = hawkes.verdicts["verdict"]
    v_gbm = gbm.verdicts["verdict"]
    if v_hawkes.classification != "discrete_events":
        failures.append(f"event model classified {v_hawkes.classification}")
    hy = points(hawkes, "hy")
    lo, hi = hy[1.0], hy[45.0]
    separation = (hi.mean - hi.half_width) - (lo.mean + lo.half_width)
    if not separation > 0.05:
        failures.append(f"endpoint separation beyond ribbons {separation:.4f} not > 0.05")
    if v_gbm.classification != "diffusion_like":
        failures.append(f"diffusion model classified {v_gbm.classification}")
    check(7, "interarrival discrimination", failures)


def test_08_k_skip_discriminates_the_two_models():
    failures = []
    hawkes, _ = timed_figure("10a", n=1)
    gbm, _ = timed_figure("10b", n=1)
    got = (
        hawkes.verdicts["verdict"].classification,
        gbm.verdicts["verdict"].classification,
    )
    if got != ("discrete_events", "diffusion_like"):
        failures.append(f"verdicts {got}")
    k_axis = hawkes.curves["curve"].axis()
    if k_axis[0] != 1.0 or k_axis[-1] != 50.0:
        failures.append(f"k axis spans [{k_axis[0]:g}, {k_axis[-1]:g}], not [1, 50]")
    check(8, "k-skip discrimination", failures)


def random_ticks(rng, n, horizon=100.0):
    times = np.unique(rng.uniform(0.0, horizon, n))
    while times.size < 2:
        times = np.unique(rng.uniform(0.0, horizon, n + 2))
    return TickSeries(times=times, values=rng.normal(size=times.size), horizon=horizon)


def hy_brute_force(si, sj):
    di = np.diff(si.values)
    dj = np.diff(sj.values)
    cov = 0.0
    for a in range(di.size):
        lo_i, hi_i = si.times[a], si.times[a + 1]
        for b in range(dj.size):
            lo_j, hi_j = sj.times[b], sj.times[b + 1]
            if lo_i < hi_j and lo_j < hi_i:
                cov += di[a] * dj[b]
    return cov / math.sqrt(np.sum(di * di) * np.sum(dj * dj))


def brute_force_intensity(spec, history, t):
    lam = spec.lambda0.copy()
    for n, times in enumerate(history):
        for s in np.asarray(times):
            if s < t:
                lam += spec.alpha[:, n] * np.exp(-spec.beta[:, n] * (t - s))
    return lam


def test_09_estimators_match_brute_force_oracles():
    failures = []
    rng = np.random.default_rng(7)

    worst = 0.0
    for _ in range(200):
        si = random_ticks(rng, int(rng.integers(2, 60)))
        sj = random_ticks(rng, int(rng.integers(2, 60)))
        worst = max(worst, abs(hayashi_yoshida(si, sj).rho - hy_brute_force(si, sj)))
    if worst > 1e-12:
        failures.append(f"hy vs double loop max diff {worst:.2e} > 1e-12")

    spec = HawkesSpec(
        lambda0=np.array([0.3, 0.2, 0.1]),
        alpha=rng.uniform(0.0, 0.4, (3, 3)),
        beta=rng.uniform(0.5, 2.0, (3, 3)),
    )
    history = [np.sort(rng.uniform(0.0, 100.0, rng.integers(300, 1000))) for _ in range(3)]
    worst = max(
        np.max(np.abs(intensity_at(spec, history, t) - brute_force_intensity(spec, history, t)))
        for t in (0.5, 10.0, 50.0, 100.0, 101.0)
    )
    if worst > 1e-10:
        failures.append(f"intensity recursion max diff {worst:.2e} > 1e-10")

    worst = 0.0
    for _ in range(30):
        n = int(rng.integers(2, 200))
        gi = GridSeries(dt=1.0, values=rng.normal(size=n))
        gj = GridSeries(dt=1.0, values=rng.normal(size=n))
        naive = sum(
            (gi.values[h] - gi.values[h - 1]) * (gj.values[h] - gj.values[h - 1])
            for h in range(1, n)
        )
        worst = max(worst, abs(realised_covariance(gi, gj) - naive))
    if worst > 1e-12:
        failures.append(f"realised covariance vs naive loop max diff {worst:.2e} > 1e-12")

    flat = HawkesSpec(lambda0=np.array([0.2, 0.2]), alpha=np.zeros((2, 2)), beta=np.ones((2, 2)))
    rejections = 0
    for seed in range(50):
        arrivals = simulate_hawkes(flat, 4000.0, seed=seed)
        gaps = np.diff(np.concatenate(([0.0], arrivals[0].times)))
        if stats.kstest(gaps, "expon", args=(0, 5.0)).pvalue < 0.01:
            rejections += 1
    # Binomial(50, 0.01): P(X >= 4) ~ 1.7e-3, so 3 chance rejections is the cap
    if rejections > 3:
        failures.append(f"thinning with alpha=0: {rejections}/50 KS rejections at 1%")

    check(9, "oracle equivalence", failures)


HEADER = "date,ticker,timestamp,price,volume"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "eppsim.cli", *args], capture_output=True, text=True
    )


def test_10_tick_data_pipeline_fixture_properties(tmp_path):
    failures = []

    # volume weighted merge of equal timestamps, notional conserved
    res = parse_trades(io.StringIO(
        f"{HEADER}\n"
        "2023-01-02,AAA,10.0,100.0,1\n"
        "2023-01-02,AAA,10.0,102.0,3\n"
    ))
    day_recs = res.records[("AAA", "2023-01-02")]
    rec = day_recs[0]
    if len(day_recs) != 1 or rec.price != 101.5 or rec.volume != 4.0:
        failures.append(f"merge gave {[(r.price, r.volume) for r in day_recs]}")
    if rec.price * rec.volume != 100.0 * 1 + 102.0 * 3:
        failures.append("merged notional not conserved")

    # alignment at the latest first trade, with the standing value at t=0
    both = parse_trades(io.StringIO(
        f"{HEADER}\n"
        "2023-01-02,AAA,10.0,100.0,1\n"
        "2023-01-02,AAA,40.0,101.0,1\n"
        "2023-01-02,BBB,30.0,50.0,1\n"
        "2023-01-02,BBB,50.0,51.0,1\n"
        "2023-01-02,BBB,28600.0,52.0,1\n"
    ))
    day = build_day_pair(
        both.records[("AAA", "2023-01-02")],
        both.records[("BBB", "2023-01-02")],
        date="2023-01-02",
    )
    if list(day.series_a.times) != [0.0, 10.0] or list(day.series_b.times) != [0.0, 20.0]:
        failures.append(
            f"alignment gave times {list(day.series_a.times)} / {list(day.series_b.times)}"
        )
    if day.series_a.values[0] != math.log(100.0):
        failures.append("standing value at the origin is not the prior trade's log price")
    if day.series_b.times.size != 2:
        failures.append("trade after the 28200 s window survived truncation")

    # per ticker statistics pool day gaps: [2, 4] and [3] give mean 3, sd 1
    pooled = parse_trades(io.StringIO(
        f"{HEADER}\n"
        "2023-01-02,AAA,0.0,100,1\n"
        "2023-01-02,AAA,2.0,100,1\n"
        "2023-01-02,AAA,6.0,100,1\n"
        "2023-01-03,AAA,0.0,100,1\n"
        "2023-01-03,AAA,3.0,100,1\n"
    ))
    mean, sd = ticker_interarrival_stats(pooled, "AAA")
    if (mean, sd) != (3.0, 1.0):
        failures.append(f"pooled interarrival stats ({mean}, {sd}) != (3.0, 1.0)")

    # end to end verdict on a synthetic two ticker file
    rng = np.random.default_rng(0)
    rows = [HEADER]
    for tick in ("AAA", "BBB"):
        times = np.sort(rng.uniform(1.0, 28000.0, 200))
        prices = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 1e-3, 200)))
        rows.extend(
            f"2023-01-02,{tick},{float(t)!r},{float(p):.8f},10"
            for t, p in zip(times, prices)
        )
    src = tmp_path / "trades.csv"
    src.write_text("\n".join(rows) + "\n")
    out_dir = tmp_path / "kskip"
    proc = run_cli("taq", "kskip", str(src), "--pair", "AAA,BBB",
                   "--kmax", "10", "--out", str(out_dir))
    if proc.returncode != 0:
        failures.append(f"taq kskip exited {proc.returncode}: {proc.stderr.strip()}")
    else:
        verdict = json.loads((out_dir / "verdict.json").read_text())
        if verdict.get("classification") not in (
            "discrete_events", "diffusion_like", "inconclusive"
        ):
            failures.append(f"verdict JSON malformed: {verdict}")

    check(10, "tick pipeline fixtures", failures)


def test_11_figure_presets_are_deterministic(tmp_path):
    """Two runs per preset at 3 replications; run "a" also matches the golden digests.

    Determinism does not depend on the replication count and the full-size
    runs are exercised above. The golden file locks the output bytes from
    version to version; rewrite it only on purpose, with

        PYTHONPATH=src python tests/golden.py
    """
    golden = json.loads(GOLDEN_PATH.read_text())["epps"]
    failures = []
    for name in FIGURE_NAMES:
        dirs = []
        for run in ("a", "b"):
            out_dir = tmp_path / f"{name}_{run}"
            proc = run_cli("epps", "--figure", name, "--seed", "3",
                           "--replications", "3", "--out", str(out_dir))
            if proc.returncode != 0:
                failures.append(f"{name} run {run} exited {proc.returncode}")
                break
            dirs.append(out_dir)
        if dirs and json.loads((dirs[0] / "manifest.json").read_text())["outputs"] != golden[name]:
            failures.append(f"{name}: output digests differ from {GOLDEN_PATH.name}")
        if len(dirs) != 2:
            continue
        files_a = sorted(p.name for p in dirs[0].iterdir())
        files_b = sorted(p.name for p in dirs[1].iterdir())
        if files_a != files_b:
            failures.append(f"{name}: output sets differ {files_a} vs {files_b}")
            continue
        for fname in files_a:
            if fname == "manifest.json":
                a = json.loads((dirs[0] / fname).read_text())["outputs"]
                b = json.loads((dirs[1] / fname).read_text())["outputs"]
                if a != b:
                    failures.append(f"{name}: manifest digests differ")
            elif (dirs[0] / fname).read_bytes() != (dirs[1] / fname).read_bytes():
                failures.append(f"{name}: {fname} not byte identical")
    check(11, "preset determinism", failures)
