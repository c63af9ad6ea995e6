"""Replicated correlation-vs-scale experiments and the discrimination rule.

An experiment fixes one latent price path, re-samples observation times n
times with per-replication derived seeds, evaluates the requested
estimators at each scale, and aggregates means with Student-t ribbons whose
half-width is the t quantile times the cross-replication standard
deviation (not a standard error: the ribbon describes the spread of
single-day estimates). A fresh-path mode re-simulates the latent path per
replication instead, for experiments about the synchronous process itself.

The discrimination rule compares the early part of a correlation curve
against its plateau: event-driven prices need time to correlate, so a
curve that keeps rising beyond noise as the scale grows is classified
discrete_events; a flat one is diffusion_like.
"""

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np
from scipy.special import stdtrit

from . import seeding
from .errors import (
    EstimationError,
    InsufficientDataError,
    ParameterError,
    StabilityError,
)
from .estimators import (
    flat_trade_correction,
    flat_trade_probability,
    hayashi_yoshida,
    measured_correlation,
    overlap_correction,
    overlap_expectation,
)
from .hawkes import HawkesPriceParams, HawkesSpec, classify_stability, hawkes_price_model
from .paths import DAY_SECONDS, GbmParams, MertonParams, simulate_gbm, simulate_merton
from .sampling import (
    hawkes_arrivals,
    k_skip,
    observe_path,
    poisson_arrivals,
    previous_tick_grid,
    synchronous_ticks,
)
from .series import PricePath, TickSeries

ESTIMATOR_NAMES = ("measured", "flat_trade", "overlap", "hy")

FIG_DT_GRID = (1.0, 2.0, 5.0, 10.0, 15.0, 20.0, 30.0, 50.0, 75.0, 100.0)

# the parameter type of each price model
PRICE_PARAMS = {"gbm": GbmParams, "merton": MertonParams, "hawkes": HawkesPriceParams}


def ribbon(values, confidence: float) -> tuple[float, float]:
    """Mean and Student-t half-width of an ensemble of n estimates.

    half_width = t_{(1+confidence)/2, n-1} * sample standard deviation.
    """
    vals = np.asarray(values, dtype=float)
    if vals.size < 2:
        raise InsufficientDataError(f"ribbon needs at least 2 values, got {vals.size}")
    if not 0.0 < confidence < 1.0:
        raise ParameterError(f"confidence must lie in (0, 1), got {confidence}")
    # scipy.stats.t.ppf is stdtrit behind argument checks; importing
    # scipy.stats would add about a second to every CLI start-up
    quantile = float(stdtrit(vals.size - 1, 0.5 * (1.0 + confidence)))
    return float(vals.mean()), quantile * float(vals.std(ddof=1))


@dataclass(frozen=True)
class CurvePoint:
    axis: float
    mean: float  # nan when every replication failed here
    half_width: float  # 0.0 for a single estimate, nan when all failed
    n_ok: int
    n_fail: int


@dataclass(frozen=True)
class EppsCurve:
    """Per-estimator correlation curves over a common axis."""

    axis_label: str  # "dt" | "mean_interarrival" | "k"
    series: dict[str, tuple[CurvePoint, ...]]
    meta: dict = field(default_factory=dict)

    def axis(self) -> np.ndarray:
        first = next(iter(self.series.values()))
        return np.array([p.axis for p in first])


@dataclass(frozen=True)
class Verdict:
    """Outcome of the early-vs-plateau discrimination rule."""

    classification: str  # discrete_events | diffusion_like | inconclusive
    rho_early: float
    rho_late: float
    gap: float
    tau_abs: float
    z: float
    pooled_half_width: float
    threshold: float  # max(tau_abs, z * pooled_half_width)
    ci_overlap: bool
    n_points: int
    axis_label: str
    estimator: str


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of a replicated correlation experiment.

    price_model selects the latent path generator ("gbm", "merton",
    "hawkes") with its params object; sampler selects how observation
    times arise ("poisson" with poisson_rate, "hawkes" with
    hawkes_sampler, or "synchronous" which reads the path grid itself and
    only supports the measured estimator). Replication r derives its
    streams from (seed, r), so results do not depend on evaluation order;
    replication_seeds overrides the derivation for degenerate-spread
    checks. fresh_paths re-simulates the latent path each replication.
    """

    price_model: str
    price_params: GbmParams | MertonParams | HawkesPriceParams
    sampler: str
    horizon: float = DAY_SECONDS
    dt_grid: tuple[float, ...] = FIG_DT_GRID
    estimators: tuple[str, ...] = ESTIMATOR_NAMES
    n_replications: int = 100
    confidence: float = 0.95
    seed: int = 0
    fresh_paths: bool = False
    poisson_rate: float | None = None
    hawkes_sampler: HawkesSpec | None = None
    replication_seeds: tuple[int, ...] | None = None
    kappa_stride: float | None = None
    mean_interarrivals: tuple[float, ...] = tuple(float(m) for m in range(1, 46))
    overlap_rates: tuple[float, ...] = (1.0, 10.0, 25.0)

    def __post_init__(self):
        if self.price_model not in PRICE_PARAMS:
            raise ParameterError(f"unknown price model {self.price_model!r}")
        if not isinstance(self.price_params, PRICE_PARAMS[self.price_model]):
            raise ParameterError(
                f"price_params must be {PRICE_PARAMS[self.price_model].__name__} "
                f"for model {self.price_model!r}"
            )
        if self.sampler not in ("poisson", "hawkes", "synchronous"):
            raise ParameterError(f"unknown sampler {self.sampler!r}")
        if self.sampler == "poisson" and not (self.poisson_rate and self.poisson_rate > 0):
            raise ParameterError("poisson sampler needs a positive poisson_rate")
        if self.sampler == "hawkes" and self.hawkes_sampler is None:
            raise ParameterError("hawkes sampler needs a hawkes_sampler spec")
        if self.sampler == "hawkes":
            report = classify_stability(self.hawkes_sampler)
            if report.classification != "stationary":
                raise StabilityError(
                    f"hawkes_sampler: kernel is {report.classification} (spectral radius "
                    f"{report.spectral_radius:.6f}); the sampler needs a stationary kernel"
                )
        if self.sampler == "synchronous" and set(self.estimators) != {"measured"}:
            raise ParameterError(
                "synchronous sampling produces no arrival sets; only the "
                "measured estimator applies"
            )
        if not self.horizon > 0:
            raise ParameterError(f"horizon must be positive, got {self.horizon}")
        if len(self.dt_grid) == 0 or any(d <= 0 for d in self.dt_grid):
            raise ParameterError("dt_grid must be non-empty and positive")
        if any(b <= a for a, b in zip(self.dt_grid, self.dt_grid[1:])):
            raise ParameterError("dt_grid must be strictly increasing")
        unknown = set(self.estimators) - set(ESTIMATOR_NAMES)
        if unknown or not self.estimators:
            raise ParameterError(f"unknown estimators: {sorted(unknown)}")
        if self.n_replications < 1:
            raise ParameterError("n_replications must be >= 1")
        if not 0.0 < self.confidence < 1.0:
            raise ParameterError(f"confidence must lie in (0, 1), got {self.confidence}")
        seeding.check_seed(self.seed)
        if self.replication_seeds is not None and len(self.replication_seeds) != self.n_replications:
            raise ParameterError("replication_seeds must have one seed per replication")
        if any(m <= 0 for m in self.mean_interarrivals) or any(
            b <= a for a, b in zip(self.mean_interarrivals, self.mean_interarrivals[1:])
        ):
            raise ParameterError("mean_interarrivals must be positive and increasing")
        if any(m <= 0 for m in self.overlap_rates):
            raise ParameterError("overlap_rates must be positive")


def _simulate_path(cfg: ExperimentConfig, seed: int) -> PricePath:
    if cfg.price_model == "gbm":
        return simulate_gbm(cfg.price_params, seed)
    if cfg.price_model == "merton":
        return simulate_merton(cfg.price_params, seed)
    path, _ = hawkes_price_model(cfg.price_params, cfg.horizon, seed)
    return path


def _replication_seed(cfg: ExperimentConfig, r: int) -> int:
    if cfg.replication_seeds is not None:
        return seeding.check_seed(cfg.replication_seeds[r])
    return seeding.child_seed(cfg.seed, seeding.REPLICATION, r)


def _sample_ticks(cfg: ExperimentConfig, path: PricePath, rep_seed: int, ns: tuple[int, ...]):
    """Arrival sets and tick series of one replication (None for synchronous)."""
    if cfg.sampler == "synchronous":
        return None, None, synchronous_ticks(path, 0), synchronous_ticks(path, 1)
    if cfg.sampler == "poisson":
        u1 = poisson_arrivals(cfg.poisson_rate, cfg.horizon, seeding.child_seed(rep_seed, *ns, 1))
        u2 = poisson_arrivals(cfg.poisson_rate, cfg.horizon, seeding.child_seed(rep_seed, *ns, 2))
    else:
        u1, u2 = hawkes_arrivals(cfg.hawkes_sampler, cfg.horizon, seeding.child_seed(rep_seed, *ns, 1))
    return u1, u2, observe_path(path, u1, 0), observe_path(path, u2, 1)


def estimate_matrix(
    s1: TickSeries,
    s2: TickSeries,
    u1,
    u2,
    dt_grid,
    estimators,
    horizon: float,
    stride: float | None = None,
) -> np.ndarray:
    """All requested estimates on one pair of tick series.

    Returns shape (n_estimators, n_dt) with nan marking an estimator that
    failed at that scale. The HY estimate uses the raw ticks and is
    repeated across the dt axis; the grid estimators share one previous
    tick interpolation per dt, and the two corrections reuse the measured
    value, so a degenerate grid fails all three together. The overlap
    correction needs the arrival sets u1/u2 and stays nan without them.
    """
    out = np.full((len(estimators), len(dt_grid)), np.nan)
    col = {name: i for i, name in enumerate(estimators)}
    if "hy" in col:
        try:
            out[col["hy"], :] = hayashi_yoshida(s1, s2).rho
        except EstimationError:
            pass
    for j, dt in enumerate(dt_grid):
        try:
            g1 = previous_tick_grid(s1, dt, horizon)
            g2 = previous_tick_grid(s2, dt, horizon)
            measured = measured_correlation(g1, g2)
        except EstimationError:
            continue  # the grid estimators all need the measured value
        if "measured" in col:
            out[col["measured"], j] = measured.rho
        if "flat_trade" in col:
            try:
                p1 = flat_trade_probability(g1)
                p2 = flat_trade_probability(g2)
                out[col["flat_trade"], j] = flat_trade_correction(measured.rho, p1, p2, dt).rho
            except EstimationError:
                pass
        if "overlap" in col and u1 is not None and u2 is not None:
            try:
                kap = overlap_expectation(u1, u2, dt, horizon, stride=stride)
                out[col["overlap"], j] = overlap_correction(measured.rho, kap).rho
            except EstimationError:
                pass
    return out


def _replicate(
    cfg: ExperimentConfig, path: PricePath | None, r: int, ns: tuple[int, ...] = ()
) -> np.ndarray:
    """Estimates of one replication, shape (n_estimators, n_dt); nan = failed.

    ns extends the sampling stream ids, so that each rate of a multi-rate
    experiment samples independently from the same replication seed.
    """
    rep_seed = _replication_seed(cfg, r)
    if cfg.fresh_paths or path is None:
        path = _simulate_path(cfg, seeding.child_seed(rep_seed, 0))
    u1, u2, s1, s2 = _sample_ticks(cfg, path, rep_seed, ns)
    return estimate_matrix(
        s1, s2, u1, u2, cfg.dt_grid, cfg.estimators, cfg.horizon, cfg.kappa_stride
    )


def _hy_replicate(cfg: ExperimentConfig, path: PricePath, r: int) -> np.ndarray:
    """HY estimates of one replication at every mean inter-arrival, shape (1, n_m)."""
    rep_seed = _replication_seed(cfg, r)
    row = np.full((1, len(cfg.mean_interarrivals)), np.nan)
    for j, m in enumerate(cfg.mean_interarrivals):
        rate_cfg = replace(cfg, estimators=("hy",), sampler="poisson", poisson_rate=1.0 / m)
        _, _, s1, s2 = _sample_ticks(rate_cfg, path, rep_seed, (j,))
        try:
            row[0, j] = hayashi_yoshida(s1, s2).rho
        except EstimationError:
            pass
    return row


def _map_replications(fn, n: int, max_workers: int) -> np.ndarray:
    """np.stack of fn(r) for r = 0..n-1, in replication order.

    With max_workers > 1 the replications run in a process pool. fn is a
    functools.partial over a module-level function, so it pickles, and it
    is sent once per chunk of replications rather than once per
    replication. Results are stacked in replication order whatever the
    order of completion, so the worker count never changes an output bit.
    """
    if max_workers < 1:
        raise ParameterError(f"max_workers must be >= 1, got {max_workers}")
    if max_workers == 1:
        return np.stack([fn(r) for r in range(n)])
    with ProcessPoolExecutor(max_workers=max_workers) as pool:
        chunksize = max(1, n // (4 * max_workers))
        return np.stack(list(pool.map(fn, range(n), chunksize=chunksize)))


def aggregate_curve(
    estimators, confidence: float, axis, label: str, stack: np.ndarray, meta: dict
) -> EppsCurve:
    """Fold an estimate stack (n_rep, n_est, n_axis) into curve points."""
    series: dict[str, tuple[CurvePoint, ...]] = {}
    for i, name in enumerate(estimators):
        pts = []
        for j, a in enumerate(axis):
            vals = stack[:, i, j]
            ok = vals[np.isfinite(vals)]
            n_ok = int(ok.size)
            n_fail = int(vals.size - n_ok)
            if n_ok == 0:
                pts.append(CurvePoint(float(a), math.nan, math.nan, 0, n_fail))
            elif n_ok == 1:
                pts.append(CurvePoint(float(a), float(ok[0]), 0.0, 1, n_fail))
            else:
                mean, hw = ribbon(ok, confidence)
                pts.append(CurvePoint(float(a), mean, hw, n_ok, n_fail))
        series[name] = tuple(pts)
    return EppsCurve(axis_label=label, series=series, meta=meta)


def epps_curve(cfg: ExperimentConfig, max_workers: int = 1) -> EppsCurve:
    """Correlation-vs-dt curves under the configured sampling scheme.

    One latent path is simulated from the master seed and re-sampled
    n_replications times (fresh_paths re-simulates it per replication).
    Replications are independent and may run in parallel; aggregation
    always folds them in replication order, so worker count does not
    change a single output bit.
    """
    path = None if cfg.fresh_paths else _simulate_path(cfg, cfg.seed)
    stack = _map_replications(partial(_replicate, cfg, path), cfg.n_replications, max_workers)
    meta = {
        "experiment": "epps_curve",
        "price_model": cfg.price_model,
        "sampler": cfg.sampler,
        "n_replications": cfg.n_replications,
        "confidence": cfg.confidence,
        "seed": cfg.seed,
        "fresh_paths": cfg.fresh_paths,
    }
    return aggregate_curve(cfg.estimators, cfg.confidence, cfg.dt_grid, "dt", stack, meta)


def experiment_hy_vs_interarrival(cfg: ExperimentConfig, max_workers: int = 1) -> EppsCurve:
    """Hayashi-Yoshida estimates as a function of the mean inter-arrival.

    One latent path; for each mean inter-arrival m the two assets are
    re-sampled with independent Poisson processes of rate 1/m,
    n_replications times, and the HY estimate is recorded. The axis is m,
    so "early" means densely sampled.
    """
    path = _simulate_path(cfg, cfg.seed)
    stack = _map_replications(partial(_hy_replicate, cfg, path), cfg.n_replications, max_workers)
    meta = {
        "experiment": "hy_vs_interarrival",
        "price_model": cfg.price_model,
        "n_replications": cfg.n_replications,
        "confidence": cfg.confidence,
        "seed": cfg.seed,
    }
    return aggregate_curve(
        ("hy",), cfg.confidence, cfg.mean_interarrivals, "mean_interarrival", stack, meta
    )


def experiment_overlap_multi_rate(
    cfg: ExperimentConfig, max_workers: int = 1
) -> dict[float, EppsCurve]:
    """Overlap-corrected curves for several Poisson sampling rates.

    The same latent path is sampled at each mean inter-arrival in
    cfg.overlap_rates; each rate gets its own full curve over cfg.dt_grid.
    """
    path = _simulate_path(cfg, cfg.seed)
    out: dict[float, EppsCurve] = {}
    for idx, m in enumerate(cfg.overlap_rates):
        sub = replace(
            cfg,
            sampler="poisson",
            poisson_rate=1.0 / m,
            estimators=tuple(e for e in cfg.estimators if e != "hy") or ("measured", "overlap"),
            fresh_paths=False,
        )
        stack = _map_replications(
            partial(_replicate, sub, path, ns=(idx,)), sub.n_replications, max_workers
        )
        meta = {
            "experiment": "overlap_multi_rate",
            "mean_interarrival": m,
            "price_model": cfg.price_model,
            "n_replications": cfg.n_replications,
            "confidence": cfg.confidence,
            "seed": cfg.seed,
        }
        out[m] = aggregate_curve(sub.estimators, sub.confidence, sub.dt_grid, "dt", stack, meta)
    return out


def k_skip_stack(pairs, k_max: int) -> np.ndarray:
    """HY estimates of tick-series pairs thinned to every k-th tick, k = 1..k_max.

    Returns shape (n_pairs, 1, k_max), nan where either thinned leg has
    fewer than two ticks or the estimate fails. This is the one k-loop of
    the simulated and the empirical k-skip experiments.
    """
    if not isinstance(k_max, (int, np.integer)) or isinstance(k_max, bool) or k_max < 1:
        raise ParameterError(f"k_max must be a positive integer, got {k_max!r}")
    pairs = list(pairs)
    stack = np.full((len(pairs), 1, int(k_max)), np.nan)
    for r, (si, sj) in enumerate(pairs):
        for k in range(1, int(k_max) + 1):
            a = k_skip(si, k)
            b = k_skip(sj, k)
            if len(a) < 2 or len(b) < 2:
                continue
            try:
                stack[r, 0, k - 1] = hayashi_yoshida(a, b).rho
            except EstimationError:
                pass
    return stack


def experiment_k_skip(
    si: TickSeries, sj: TickSeries, k_max: int, confidence: float = 0.95
) -> tuple[EppsCurve, Verdict]:
    """HY estimates from one tick set thinned to every k-th observation.

    Emulates coarser asynchronous sampling without fresh data: k runs from
    1 to k_max, each leg keeps floor(n/k) ticks. Points where either leg
    drops below two ticks are recorded as failed, not fabricated. There is
    a single estimate per k, so ribbons are zero-width and the verdict
    threshold reduces to its absolute floor.
    """
    stack = k_skip_stack([(si, sj)], k_max)
    meta = {"experiment": "k_skip", "k_max": int(k_max), "confidence": confidence}
    # a leg of n ticks keeps floor(n/k) >= 2 of them exactly while k <= n // 2
    first_infeasible = min(len(si), len(sj)) // 2 + 1
    if first_infeasible <= k_max:
        meta["first_infeasible_k"] = first_infeasible
    curve = aggregate_curve(("hy",), confidence, range(1, int(k_max) + 1), "k", stack, meta)
    return curve, discriminate(curve, "hy")


def discriminate(
    curve: EppsCurve,
    estimator: str | None = None,
    tau_abs: float = 0.05,
    z: float = 1.0,
) -> Verdict:
    """Classify a correlation curve as event-driven or diffusion-like.

    rho_early is the mean over points in the lowest 10% of the axis range,
    rho_late the mean over the highest 25%. The deciding threshold is
    max(tau_abs, z * pooled half-width), the pooled half-width being the
    mean ribbon half-width over the early and late points: a curve that
    rises by more than the threshold is discrete_events, one whose |gap|
    stays within it is diffusion_like, and a fall beyond it (neither
    pattern) is inconclusive. The absolute floor tau_abs keeps single
    estimate curves with zero-width ribbons classifiable.
    """
    if estimator is None:
        if len(curve.series) != 1:
            raise ParameterError("curve has several series; name the estimator")
        estimator = next(iter(curve.series))
    if estimator not in curve.series:
        raise ParameterError(f"curve has no series {estimator!r}")
    pts = [p for p in curve.series[estimator] if p.n_ok > 0 and math.isfinite(p.mean)]
    if len(pts) < 5:
        raise InsufficientDataError(
            f"discrimination needs >= 5 usable points, got {len(pts)}"
        )
    axis = np.array([p.axis for p in pts])
    lo, hi = axis.min(), axis.max()
    span = hi - lo
    early = [p for p in pts if p.axis <= lo + 0.10 * span]
    late = [p for p in pts if p.axis >= hi - 0.25 * span]
    rho_early = float(np.mean([p.mean for p in early]))
    rho_late = float(np.mean([p.mean for p in late]))
    gap = rho_late - rho_early
    pooled = float(np.mean([p.half_width for p in early + late]))
    hw_early = float(np.mean([p.half_width for p in early]))
    hw_late = float(np.mean([p.half_width for p in late]))
    ci_overlap = (rho_early - hw_early) <= (rho_late + hw_late) and (
        rho_late - hw_late
    ) <= (rho_early + hw_early)
    threshold = max(tau_abs, z * pooled)
    if gap > threshold:
        kind = "discrete_events"
    elif abs(gap) <= threshold:
        kind = "diffusion_like"
    else:
        kind = "inconclusive"
    return Verdict(
        classification=kind,
        rho_early=rho_early,
        rho_late=rho_late,
        gap=gap,
        tau_abs=tau_abs,
        z=z,
        pooled_half_width=pooled,
        threshold=threshold,
        ci_overlap=ci_overlap,
        n_points=len(pts),
        axis_label=curve.axis_label,
        estimator=estimator,
    )


# ---------------------------------------------------------------------------
# serialization


def _fmt(x: float) -> str:
    return "" if not math.isfinite(x) else repr(float(x))


def write_curve_csv(curve: EppsCurve, path) -> None:
    """axis,estimator,mean,half_width,n_ok,n_fail; empty fields for dead points."""
    with open(path, "w", newline="") as fh:
        fh.write("axis,estimator,mean,half_width,n_ok,n_fail\n")
        for name, pts in curve.series.items():
            for p in pts:
                fh.write(
                    f"{repr(p.axis)},{name},{_fmt(p.mean)},{_fmt(p.half_width)},"
                    f"{p.n_ok},{p.n_fail}\n"
                )


def curve_to_dict(curve: EppsCurve) -> dict:
    return {
        "axis_label": curve.axis_label,
        "meta": curve.meta,
        "series": {
            name: [
                {
                    "axis": p.axis,
                    "mean": p.mean if math.isfinite(p.mean) else None,
                    "half_width": p.half_width if math.isfinite(p.half_width) else None,
                    "n_ok": p.n_ok,
                    "n_fail": p.n_fail,
                }
                for p in pts
            ]
            for name, pts in curve.series.items()
        },
    }


def write_curve_json(curve: EppsCurve, path) -> None:
    with open(path, "w") as fh:
        json.dump(curve_to_dict(curve), fh, indent=2, sort_keys=True)
        fh.write("\n")


def verdict_to_dict(v: Verdict) -> dict:
    return {
        "classification": v.classification,
        "rho_early": v.rho_early,
        "rho_late": v.rho_late,
        "gap": v.gap,
        "tau_abs": v.tau_abs,
        "z": v.z,
        "pooled_half_width": v.pooled_half_width,
        "threshold": v.threshold,
        "ci_overlap": v.ci_overlap,
        "n_points": v.n_points,
        "axis_label": v.axis_label,
        "estimator": v.estimator,
    }


def write_verdict_json(v: Verdict, path) -> None:
    with open(path, "w") as fh:
        json.dump(verdict_to_dict(v), fh, indent=2, sort_keys=True)
        fh.write("\n")
