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
import os
from dataclasses import asdict, dataclass, field
from functools import lru_cache, partial
from numbers import Integral

import numpy as np

from . import seeding
from .errors import EstimationError, InsufficientDataError, ParameterError
from .estimators import (
    _grid_overlap,
    _hy_estimate,
    _measured_correlation,
    _zero_fraction,
    flat_trade_correction,
    hayashi_yoshida,
    overlap_correction,
    overlap_expectation,
)
from .hawkes import (
    PRICE_GRID_DT,
    HawkesPriceParams,
    HawkesSpec,
    _require_stationary,
    expected_events,
    hawkes_price_model,
    price_spec,
    simulate_hawkes,
)
from .index import _left_right_counts, expected_ticks, grid_count
from .paths import DAY_SECONDS, GbmParams, MertonParams, _n_steps, simulate_gbm, simulate_merton
from .sampling import (
    _previous_tick_counts,
    observe_path,
    poisson_arrivals,
    synchronous_ticks,
)
from .series import PricePath, TickSeries

ESTIMATOR_NAMES = ("measured", "flat_trade", "overlap", "hy")

FIG_DT_GRID = (1.0, 2.0, 5.0, 10.0, 15.0, 20.0, 30.0, 50.0, 75.0, 100.0)

# the parameter type of each price model
PRICE_PARAMS = {"gbm": GbmParams, "merton": MertonParams, "hawkes": HawkesPriceParams}

# the fewest usable curve points discriminate classifies
MIN_VERDICT_POINTS = 5

# the most replications an experiment runs: _map_replications holds each
# replication's estimates until np.stack copies them, at most 1.3 kB per
# replication for a preset (tracemalloc at 4 * 10**4 replications of figure
# 9's 3 rates x 2 estimators x 10 dt), so a run at the bound needs about 1.3 GB
MAX_REPLICATIONS = 10**6


def check_axis(values, name: str) -> tuple:
    """values as a tuple if they are a curve axis: non-empty, positive,
    finite and strictly increasing; else ParameterError naming the axis."""
    values = tuple(values)
    if not values or not all(0 < v < math.inf for v in values) or any(
        b <= a for a, b in zip(values, values[1:])
    ):
        raise ParameterError(
            f"{name} must be non-empty, positive, finite and strictly increasing, got {values}"
        )
    return values


def _named(name: str, check, *args, **kwargs):
    """check(*args, **kwargs), its ParameterError, of its own class, prefixed with the field."""
    try:
        return check(*args, **kwargs)
    except ParameterError as exc:
        raise type(exc)(f"{name}: {exc}") from exc


def _check_dt_axis(values, horizon: float, name: str) -> tuple:
    """check_axis of a dt axis, whose finest grid over horizon must fit the grid-size bound."""
    values = check_axis(values, name)
    _named(name, grid_count, horizon, values[0])
    return values


def _t_central(t: float, df: int) -> float:
    """P(|T| <= t) for a Student t with integer df, t >= 0.

    The finite sums of Abramowitz & Stegun 26.7.4 (even df) and 26.7.3
    (odd df) in theta = atan(t / sqrt(df)). The powers of cos^2(theta)
    come from one log1p, not from repeated products: the rounding of
    cos^2(theta) itself would otherwise grow k-fold in the k-th term.
    """
    u = t * t / df
    odd = df % 2
    log_cos_sq = -math.log1p(u)
    coef = total = 1.0
    for k in range(1, df // 2):
        coef *= (2 * k - 1 + odd) / (2 * k + odd)
        total += coef * math.exp(k * log_cos_sq)
    sin_theta = math.sqrt(u / (1.0 + u))
    if not odd:
        return sin_theta * total
    tail = sin_theta * math.sqrt(1.0 / (1.0 + u)) * total if df > 1 else 0.0
    return (math.atan2(t, math.sqrt(df)) + tail) / (math.pi / 2)


def _hill_start(df: int, two_tail: float) -> float:
    """Hill's (1970, CACM Algorithm 396) approximate t quantile of P(|T| > t) = two_tail."""
    if df == 1:
        return math.tan(math.pi / 2 * (1.0 - two_tail))
    if df == 2:
        return math.sqrt(2.0 / (two_tail * (2.0 - two_tail)) - 2.0)
    a = 1.0 / (df - 0.5)
    b = 48.0 / (a * a)
    c = ((20700.0 * a / b - 98.0) * a - 16.0) * a + 96.36
    d = ((94.5 / (b + c) - 3.0) / b + 1.0) * math.sqrt(a * math.pi / 2) * df
    y = (d * two_tail) ** (2.0 / df)
    if y <= 0.05 + a:
        y = ((1.0 / (((df + 6.0) / (df * y) - 0.089 * d - 0.822) * (df + 2.0) * 3.0)
              + 0.5 / (df + 4.0)) * y - 1.0) * (df + 1.0) / (df + 2.0) + 1.0 / y
        return math.sqrt(df * y)
    from statistics import NormalDist  # only the ribbon needs it

    x = NormalDist().inv_cdf(0.5 * two_tail)
    y = x * x
    if df < 5:
        c += 0.3 * (df - 4.5) * (x + 0.6)
    c = (((0.05 * d * x - 5.0) * x - 7.0) * x - 2.0) * x + b + c
    y = (((((0.4 * y + 6.3) * y + 36.0) * y + 94.5) / c - y - 3.0) / b + 1.0) * x
    return math.sqrt(df * math.expm1(a * y * y))


@lru_cache(maxsize=256)
def _t_quantile(df: int, confidence: float) -> float:
    """t with P(|T| <= t) = confidence for a Student t with integer df >= 1.

    Newton steps with the t density from Hill's start until a step no
    longer shrinks (the CDF's rounding noise), then single-ulp steps while
    |CDF - confidence| falls.
    """
    # the two-sided level that p = (1 + confidence) / 2, rounded, stands for
    level = (1.0 + confidence) - 1.0
    log_norm = math.lgamma((df + 1) / 2) - math.lgamma(df / 2) - 0.5 * math.log(df * math.pi)
    t, last = _hill_start(df, 1.0 - level), math.inf
    for _ in range(20):
        density = math.exp(log_norm - 0.5 * (df + 1) * math.log1p(t * t / df))
        step = (_t_central(t, df) - level) / (2.0 * density)
        if not abs(step) < last:
            break  # at the rounding noise of the CDF
        t, last = max(t - step, 0.5 * t), abs(step)
    best = abs(_t_central(t, df) - level)
    for toward in (math.inf, 0.0):
        while (err := abs(_t_central(math.nextafter(t, toward), df) - level)) < best:
            t, best = math.nextafter(t, toward), err
    return t


def ribbon(values, confidence: float) -> tuple[float, float]:
    """Mean and Student-t half-width of an ensemble of n estimates.

    half_width = t_{(1+confidence)/2, n-1} * sample standard deviation.
    The quantile inverts the finite-sum t CDF of Abramowitz & Stegun
    26.7.3/26.7.4 by Newton steps from Hill's (1970) start, finished to
    the last ulp, once per (n - 1, confidence). It agrees with
    scipy.special.stdtrit to 1e-11 relative (3e-13 at worst measured)
    for n - 1 from 1 to 10^4 at confidence 0.8 to 0.999.
    """
    vals = np.asarray(values, dtype=float)
    if vals.size < 2:
        raise InsufficientDataError(f"ribbon needs at least 2 values, got {vals.size}")
    if not 0.0 < confidence < 1.0:
        raise ParameterError(f"confidence must lie in (0, 1), got {confidence}")
    quantile = _t_quantile(vals.size - 1, float(confidence))
    mean = np.add.reduce(vals) / vals.size  # mean() and std(ddof=1) as numpy forms them
    sd = math.sqrt(np.add.reduce(np.square(vals - mean)) / (vals.size - 1))
    return float(mean), quantile * sd


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
    times arise ("poisson" with poisson_rate, "hawkes" with hawkes_sampler,
    or "synchronous", every path node, read off strided views of the path
    by the measured estimator alone). Replication r derives its streams
    from (seed, r), so results do not depend on evaluation order.
    fresh_paths re-simulates the latent path each replication.
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
    mean_interarrivals: tuple[float, ...] = tuple(float(m) for m in range(1, 46))
    overlap_rates: tuple[float, ...] = (1.0, 10.0, 25.0)
    # no annotation, so no field: perfbench/traced.py reads both until ROADMAP items 17 and 6
    replication_seeds = kappa_stride = None

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
        if self.sampler == "poisson" and not (
            self.poisson_rate is not None and 0 < self.poisson_rate < math.inf
        ):
            raise ParameterError(
                f"poisson sampler needs a positive, finite poisson_rate, got {self.poisson_rate}"
            )
        if self.sampler == "hawkes" and self.hawkes_sampler is None:
            raise ParameterError("hawkes sampler needs a hawkes_sampler spec")
        if self.sampler == "hawkes":
            if (dim := self.hawkes_sampler.dim) != 2:
                raise ParameterError(f"hawkes_sampler must be 2-dimensional, got {dim}")
            _named("hawkes_sampler", _require_stationary, self.hawkes_sampler, "the sampler")
        if self.sampler == "synchronous" and set(self.estimators) != {"measured"}:
            raise ParameterError(
                "synchronous sampling produces no arrival sets; only the "
                "measured estimator applies"
            )
        if not self.horizon > 0:
            raise ParameterError(f"horizon must be positive, got {self.horizon}")
        if self.price_model == "hawkes":
            _named("horizon", _n_steps, self.horizon, PRICE_GRID_DT)
        elif self.horizon > self.price_params.horizon:
            raise ParameterError(
                f"horizon: {self.horizon} exceeds price_params.horizon "
                f"{self.price_params.horizon}, the span of the latent path"
            )
        _check_dt_axis(self.dt_grid, self.horizon, "dt_grid")
        # every Poisson leg a replication may draw fits the tick-count bound,
        # every Hawkes process the event bound
        if self.sampler == "poisson":
            _named("poisson_rate", expected_ticks, self.poisson_rate, self.horizon)
        elif self.sampler == "hawkes":
            _named("hawkes_sampler", expected_events, self.hawkes_sampler, self.horizon)
        if self.price_model == "hawkes":
            _named("price_params", expected_events, price_spec(self.price_params), self.horizon)
        for axis in ("mean_interarrivals", "overlap_rates"):
            for m in check_axis(getattr(self, axis), axis):
                _named(f"{axis} entry {m}", expected_ticks, 1.0 / m, self.horizon)
        unknown = set(self.estimators) - set(ESTIMATOR_NAMES)
        if unknown or not self.estimators:
            raise ParameterError(f"unknown estimators: {sorted(unknown)}")
        if not (isinstance(self.n_replications, Integral)
                and 1 <= self.n_replications <= MAX_REPLICATIONS):
            got = repr(self.n_replications)
            if isinstance(self.n_replications, Integral) and len(got) > 20:
                from decimal import Context  # only to print a long integer: 10**308 as 1e+308

                got = f"{Context(prec=6).normalize(int(self.n_replications)):g}"
            raise ParameterError(f"n_replications must be an integer in [1, "
                                 f"{MAX_REPLICATIONS}], got {got}")
        if not 0.0 < self.confidence < 1.0:
            raise ParameterError(f"confidence must lie in (0, 1), got {self.confidence}")
        seeding.check_seed(self.seed)


def _simulate_path(cfg: ExperimentConfig, seed: int) -> PricePath:
    if cfg.price_model == "gbm":
        return simulate_gbm(cfg.price_params, seed)
    if cfg.price_model == "merton":
        return simulate_merton(cfg.price_params, seed)
    path, _ = hawkes_price_model(cfg.price_params, cfg.horizon, seed)
    return path


def estimate_matrix(
    s1: TickSeries,
    s2: TickSeries,
    dt_grid,
    estimators,
    horizon: float,
) -> np.ndarray:
    """All requested estimates on one pair of tick series.

    Returns shape (n_estimators, n_dt) with nan marking an estimator that
    failed at that scale. The HY estimate uses the raw ticks and is
    repeated across the dt axis; the grid estimators share one previous
    tick index per leg, and the two corrections reuse the measured value,
    so a degenerate grid fails all three together. Each leg is indexed on
    the grid of a base step; a later dt that is exactly k times that step
    (as rationals, see _stride) reads every k-th entry, any other dt
    becomes the base. The overlap correction reads its windows off the
    tick times (in sampled and traded data the ticks are the arrivals)
    at the grid points: from the grid's own previous-tick index where the
    windows are exactly the grid cells, else from overlap_expectation.
    """
    out = np.full((len(estimators), len(dt_grid)), np.nan)
    col = {name: i for i, name in enumerate(estimators)}
    if "hy" in col:
        try:
            out[col["hy"], :] = hayashi_yoshida(s1, s2).rho
        except EstimationError:
            pass
        if len(col) == 1:
            return out  # no grid estimator: no previous-tick grid to build
    step = None  # the latest base step, on whose grid idx1 and idx2 index the legs
    for j, dt in enumerate(dt_grid):
        coarse = None if step is None else _stride(step, idx1.size - 1, dt, horizon)
        if coarse is None:
            step = idx1 = idx2 = None  # the old base goes before the new is built
            try:
                # each leg's tick counts at the grid points, turned in place
                # into its previous-tick index (-1 before the first tick)
                idx1 = _previous_tick_counts(s1, dt, horizon)
                idx1 -= 1
                idx2 = _previous_tick_counts(s2, dt, horizon)
                idx2 -= 1
            except EstimationError:
                continue  # the grid estimators all need both indices
            step, coarse = dt, slice(None)
        _grid_estimates(out[:, j], col, s1, s2, idx1[coarse], idx2[coarse], dt, horizon)
    return out


def _stride(step: float, n_step: int, dt: float, horizon: float) -> slice | None:
    """The every-k-th slice of step's n_step + 1 grid points that is dt's
    grid over horizon, when dt is exactly k times step; else None.

    Exactly means as the rationals the two floats are: then h*dt and
    (h*k)*step are the same real number and round to the same double. A
    float test k*step == dt is not enough: 9 * 0.1 rounds to 0.9, yet
    h * 0.9 and (9*h) * 0.1 do not always round alike.
    """
    a, b = float(step).as_integer_ratio()
    c, d = float(dt).as_integer_ratio()
    k, rest = divmod(c * b, d * a)
    n = grid_count(horizon, dt)
    return slice(None, k * n + 1, k) if rest == 0 and k * n <= n_step else None


def _grid_estimates(out, col, s1, s2, idx1, idx2, dt: float, horizon: float) -> None:
    """estimate_matrix's grid estimators at one dt, written into out by col,
    from each leg's previous-tick index idx1, idx2 at the grid points h*dt
    (-1 before the first tick, whose value a clipped take backfills there).

    Each grid-sized array built here is dropped after its last reader,
    and all of them when this returns; the indices stay the caller's.
    """
    v = s1.values.take(idx1, mode="clip")
    r1, v = np.subtract(v[1:], v[:-1]), None  # each value grid goes before the next is taken
    v = s2.values.take(idx2, mode="clip")
    r2, v = np.subtract(v[1:], v[:-1]), None
    try:
        measured = _measured_correlation(r1, r2, dt)
    except EstimationError:
        return  # the grid estimators all need the measured value
    if "measured" in col:
        out[col["measured"]] = measured.rho
    if "flat_trade" in col:
        try:
            p1 = _zero_fraction(r1)
            p2 = _zero_fraction(r2)
            out[col["flat_trade"]] = flat_trade_correction(measured.rho, p1, p2, dt).rho
        except EstimationError:
            pass
    r1 = r2 = None
    if "overlap" in col:
        try:
            kap = _grid_overlap(s1.times, s2.times, idx1, idx2, dt, horizon)
            if kap is None:
                kap = overlap_expectation(s1, s2, dt, horizon)
            out[col["overlap"]] = overlap_correction(measured.rho, kap).rho
        except EstimationError:
            pass


def _tick_pairs(cfg: ExperimentConfig, path: PricePath, rates, rep_seed: int):
    """The tick-series pairs of the replication of seed rep_seed, one at a time.

    With rates None this is the one pair of cfg.sampler: the path's own
    grid up to cfg.horizon, a Hawkes pair from stream 1 or Poisson legs
    from streams 1 and 2. Otherwise pair j samples by Poisson legs at rate
    1 / rates[j] from streams (j, 1) and (j, 2), so each rate samples
    independently.
    """
    if rates is None and cfg.sampler == "synchronous":
        path = PricePath(path.dt, path.values[: grid_count(cfg.horizon, path.dt) + 1])
        yield synchronous_ticks(path, 0), synchronous_ticks(path, 1)
    elif rates is None and cfg.sampler == "hawkes":
        u1, u2 = simulate_hawkes(cfg.hawkes_sampler, cfg.horizon, seeding.child_seed(rep_seed, 1))
        yield observe_path(path, u1, 0), observe_path(path, u2, 1)
    else:
        if rates is None:
            legs = [((), cfg.poisson_rate)]
        else:
            legs = [((j,), 1.0 / m) for j, m in enumerate(rates)]
        for ns, rate in legs:  # ns: the stream ids ahead of each leg's 1 or 2
            u1 = poisson_arrivals(rate, cfg.horizon, seeding.child_seed(rep_seed, *ns, 1))
            u2 = poisson_arrivals(rate, cfg.horizon, seeding.child_seed(rep_seed, *ns, 2))
            yield observe_path(path, u1, 0), observe_path(path, u2, 1)


def _replicate(cfg: ExperimentConfig, path: PricePath | None, rates, measure, r: int) -> np.ndarray:
    """measure of each tick pair of replication r, shape (n_rates, n_series, n_axis).

    measure maps a tick pair (s1, s2) to an (n_series, n_axis) array, nan
    = failed: estimate_matrix or k_skip_row with its other arguments bound.
    rates None counts as one rate, that of cfg.sampler (see _tick_pairs); a
    synchronous sampler's estimate_matrix reads the path (_synchronous_matrix).
    path None simulates a fresh latent path from the replication seed's stream 0.
    """
    rep_seed = seeding.child_seed(cfg.seed, seeding.REPLICATION, r)
    if path is None:
        path = _simulate_path(cfg, seeding.child_seed(rep_seed, 0))
    if rates is None and cfg.sampler == "synchronous" and getattr(measure, "func", None) is estimate_matrix:
        return _synchronous_matrix(path, *measure.args, **measure.keywords)[None]
    return np.stack([measure(s1, s2) for s1, s2 in _tick_pairs(cfg, path, rates, rep_seed)])


def _synchronous_matrix(path: PricePath, dt_grid, estimators, horizon: float):
    """estimate_matrix of the path's two columns as synchronous tick series:
    at a dt of exactly k path steps (_stride) grid point h is node k*h, so
    the measured estimator, the only one a synchronous sampler runs, reads
    the strided views values[::k]; any other dt takes the tick route."""
    out = np.full((len(estimators), len(dt_grid)), np.nan)
    for j, dt in enumerate(dt_grid):
        if (nodes := _stride(path.dt, path.n_steps, dt, horizon)) is None:
            out[:, j : j + 1] = estimate_matrix(synchronous_ticks(path, 0), synchronous_ticks(path, 1),
                                                (dt,), estimators, horizon)
            continue
        v = path.values[nodes]
        r = np.subtract(v[1:], v[:-1])
        try:
            out[:, j] = _measured_correlation(r[:, 0], r[:, 1], dt).rho
        except EstimationError:
            pass
    return out


def _worker_count(max_workers: int, n_replications: int) -> int:
    """The processes _map_replications runs: max_workers, at most one per
    replication and one per CPU this process may use."""
    if max_workers < 1:
        raise ParameterError(f"max_workers must be >= 1, got {max_workers}")
    return min(max_workers, n_replications, len(os.sched_getaffinity(0)))


def _map_replications(cfg: ExperimentConfig, rates, measure, max_workers: int) -> np.ndarray:
    """_replicate of every replication, shape (n_rep, n_rates, n_series, n_axis).

    The replications share one latent path simulated from the master seed
    (fresh_paths re-simulates it per replication). With more than one
    _worker_count they run in one process pool of that many workers; the
    job, a functools.partial over module-level functions, pickles once per
    chunk of replications. Results stack in replication order whatever the
    order of completion, so the worker count never changes an output bit.
    """
    workers = _worker_count(max_workers, cfg.n_replications)
    path = None if cfg.fresh_paths else _simulate_path(cfg, cfg.seed)
    fn = partial(_replicate, cfg, path, rates, measure)
    n = cfg.n_replications
    if workers == 1:
        return np.stack([fn(r) for r in range(n)])
    # the pool module pulls in multiprocessing, socket and subprocess, which
    # a serial run never uses
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunksize = max(1, n // (4 * workers))
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


def k_skip_row(si: TickSeries, sj: TickSeries, k_max: int) -> np.ndarray:
    """HY estimates of one tick pair thinned to every k-th tick, k = 1..k_max.

    Returns shape (1, k_max), nan where either thinned leg has fewer than
    two ticks or the estimate fails. This is the one k-loop of the
    simulated and the empirical k-skip experiments. The pair is ranked
    once, by one merge of its two legs (index._left_right_counts): of the
    c leg-j ticks before (or at) a leg-i tick, leg j thinned
    to every k-th tick keeps c // k, so each k reads its HY index off
    strided views of the pair's arrays. The counts are copied out of their
    views and divided in place: copy and division take about half the time
    numpy needs to divide the strided view.
    """
    if not isinstance(k_max, (int, np.integer)) or isinstance(k_max, bool) or k_max < 1:
        raise ParameterError(f"k_max must be a positive integer, got {k_max!r}")
    row = np.full((1, int(k_max)), np.nan)
    below, upto = _left_right_counts(sj.times, si.times)
    # a leg of n ticks keeps floor(n/k) >= 2 of them exactly while k <= n // 2;
    # _hy_estimate consumes its counts, so each k gets fresh ones, divided in
    # place, except k = 1, run last, which is handed the pair's own
    for k in range(min(int(k_max), len(si) // 2, len(sj) // 2), 0, -1):
        thinned = slice(k - 1, None, k)
        counts = (below, upto) if k == 1 else [
            np.floor_divide(c, k, out=c) for c in (below[thinned].copy(), upto[thinned].copy())]
        try:
            row[0, k - 1] = _hy_estimate(si.values[thinned], sj.values[thinned], *counts).rho
        except EstimationError:
            pass
    return row


def _rule_bound(tau_abs: float, z: float, table: str = "") -> tuple[float, float]:
    """(tau_abs, z) if both can bound the discrimination rule (finite, >= 0), else ParameterError."""
    for name, value in (("tau_abs", tau_abs), ("z", z)):
        if not 0 <= value < math.inf:
            raise ParameterError(f"{table}{name}: must be finite and >= 0, got {value!r}")
    return tau_abs, z


def discriminate(
    curve: EppsCurve, estimator: str, tau_abs: float = 0.05, z: float = 1.0
) -> Verdict:
    """Classify a correlation curve as event-driven or diffusion-like.

    rho_early is the mean over points in the lowest 10% of the axis range,
    rho_late the mean over the highest 25%. The deciding threshold is
    max(tau_abs, z * pooled half-width), the pooled half-width being the
    mean ribbon half-width over the early and late points: a curve that
    rises by more than the threshold is discrete_events, one whose |gap|
    stays within it is diffusion_like, and a fall beyond it (neither
    pattern) is inconclusive. The absolute floor tau_abs keeps single
    estimate curves with zero-width ribbons classifiable; a negative or
    non-finite tau_abs or z raises ParameterError naming it.
    """
    _rule_bound(tau_abs, z)
    if estimator not in curve.series:
        raise ParameterError(f"curve has no series {estimator!r}")
    pts = [p for p in curve.series[estimator] if p.n_ok > 0 and math.isfinite(p.mean)]
    if len(pts) < MIN_VERDICT_POINTS:
        raise InsufficientDataError(
            f"discrimination needs >= {MIN_VERDICT_POINTS} usable points, got {len(pts)}"
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


def _json_default(obj):
    if isinstance(obj, np.ndarray):  # a HawkesSpec's, in a manifest's config
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def dump_json(obj, path) -> None:
    """The one JSON layout of every output file: indented, keys sorted, final newline."""
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True, default=_json_default) + "\n")


def write_curve_json(curve: EppsCurve, path) -> None:
    dump_json(curve_to_dict(curve), path)


def write_verdict_json(v: Verdict, path) -> None:
    dump_json(asdict(v), path)
