"""The traced run: each replication rebuilt from eppsim's public functions.

`run_figure`, `empirical_curve` and `empirical_kskip` are opaque from the
outside, so this backend makes the same calls they make, in the same
order (those of `experiments._replicate`, `estimate_matrix`,
`experiment_hy_vs_interarrival`, `experiment_k_skip`, `empirical_curve`
and `empirical_kskip`), with a span around each call. The benchmark checks that the
rebuilt curves equal the program's own, so a rebuild that drifts from the
program shows up as a failed operation instead of as wrong layer times.

Span layers name the eppsim module whose public function was called;
`hawkes` covers `hawkes_price_model` and `hawkes_arrivals`, the two entry
points into `simulate_hawkes`.
"""

import math
from dataclasses import replace

import numpy as np

from eppsim import seeding
from eppsim.errors import EstimationError
from eppsim.estimators import (
    flat_trade_correction,
    flat_trade_probability,
    hayashi_yoshida,
    measured_correlation,
    overlap_correction,
    overlap_expectation,
)
from eppsim.experiments import CurvePoint, EppsCurve, aggregate_curve, discriminate
from eppsim.hawkes import hawkes_price_model
from eppsim.paths import simulate_gbm, simulate_merton
from eppsim.presets import FigureResult
from eppsim.sampling import (
    hawkes_arrivals,
    k_skip,
    observe_path,
    poisson_arrivals,
    previous_tick_grid,
    synchronous_ticks,
)
from eppsim.series import ArrivalSet
from eppsim.taq import pair_days, parse_trades, saturation_scale

def _events(arrivals) -> int:
    return sum(len(a) for a in arrivals)


class Traced:
    """Backend for workloads.*.run_pass that records a span per program call."""

    workers = 1  # the rebuild runs every replication in this process

    def __init__(self, tracer, reference: dict):
        self.tr = tracer
        self.reference = reference  # op -> the untraced pass's result
        self.paths = {}  # figure -> latent path, for the pickled job size

    def step(self, name: str, layer: str | None = None):
        return self.tr.span(name, layer)

    # -- simulation and sampling --------------------------------------------

    def simulate_path(self, cfg, seed):
        call = self.tr.call
        if cfg.price_model == "gbm":
            return call("simulate_gbm", "paths", simulate_gbm, cfg.price_params, seed)
        if cfg.price_model == "merton":
            return call("simulate_merton", "paths", simulate_merton, cfg.price_params, seed)
        path, _ = call(
            "hawkes_price_model", "hawkes", hawkes_price_model, cfg.price_params, cfg.horizon, seed,
            count=lambda out: _events(out[1]),
        )
        return path

    def sample_ticks(self, cfg, path, rep_seed, ns):
        call = self.tr.call
        if cfg.sampler == "synchronous":
            s1 = call("synchronous_ticks", "sampling.observe", synchronous_ticks, path, 0, count=len)
            s2 = call("synchronous_ticks", "sampling.observe", synchronous_ticks, path, 1, count=len)
            return None, None, s1, s2
        if cfg.sampler == "poisson":
            u1 = call(
                "poisson_arrivals", "sampling.arrivals", poisson_arrivals,
                cfg.poisson_rate, cfg.horizon, seeding.child_seed(rep_seed, *ns, 1),
            )
            u2 = call(
                "poisson_arrivals", "sampling.arrivals", poisson_arrivals,
                cfg.poisson_rate, cfg.horizon, seeding.child_seed(rep_seed, *ns, 2),
            )
        else:
            u1, u2 = call(
                "hawkes_arrivals", "hawkes", hawkes_arrivals,
                cfg.hawkes_sampler, cfg.horizon, seeding.child_seed(rep_seed, *ns, 1),
                count=_events,
            )
        s1 = call("observe_path", "sampling.observe", observe_path, path, u1, 0, count=len)
        s2 = call("observe_path", "sampling.observe", observe_path, path, u2, 1, count=len)
        return u1, u2, s1, s2

    # -- estimation ----------------------------------------------------------

    def estimate_matrix(self, s1, s2, u1, u2, dt_grid, estimators, horizon, stride):
        call = self.tr.call
        out = np.full((len(estimators), len(dt_grid)), np.nan)
        col = {name: i for i, name in enumerate(estimators)}
        if "hy" in col:
            try:
                out[col["hy"], :] = call("hayashi_yoshida", "estimators.hy", hayashi_yoshida, s1, s2).rho
            except EstimationError:
                pass
        for j, dt in enumerate(dt_grid):
            try:
                g1 = call("previous_tick_grid", "sampling.grid", previous_tick_grid, s1, dt, horizon, dt=dt)
                g2 = call("previous_tick_grid", "sampling.grid", previous_tick_grid, s2, dt, horizon, dt=dt)
                measured = call("measured_correlation", "estimators.measured", measured_correlation, g1, g2)
            except EstimationError:
                continue
            if "measured" in col:
                out[col["measured"], j] = measured.rho
            if "flat_trade" in col:
                try:
                    p1 = call("flat_trade_probability", "estimators.flat_trade", flat_trade_probability, g1)
                    p2 = call("flat_trade_probability", "estimators.flat_trade", flat_trade_probability, g2)
                    out[col["flat_trade"], j] = call(
                        "flat_trade_correction", "estimators.flat_trade", flat_trade_correction,
                        measured.rho, p1, p2, dt,
                    ).rho
                except EstimationError:
                    pass
            if "overlap" in col and u1 is not None and u2 is not None:
                try:
                    kap = call(
                        "overlap_expectation", "estimators.overlap", overlap_expectation,
                        u1, u2, dt, horizon, stride, dt=dt,
                    )
                    out[col["overlap"], j] = call(
                        "overlap_correction", "estimators.overlap", overlap_correction,
                        measured.rho, kap, dt=dt,
                    ).rho
                except EstimationError:
                    pass
        return out

    def aggregate(self, *args):
        return self.tr.call("aggregate_curve", "experiments.aggregate", aggregate_curve, *args)

    def discriminate(self, *args):
        return self.tr.call("discriminate", "experiments.aggregate", discriminate, *args)

    def hy(self, a, b):
        return self.tr.call("hayashi_yoshida", "estimators.hy", hayashi_yoshida, a, b).rho

    def thin(self, series, k):
        return self.tr.call("k_skip", "sampling.kskip", k_skip, series, k)

    # -- figures ---------------------------------------------------------------

    def figure(self, recipe):
        cfg = recipe.config
        if cfg.replication_seeds is not None:
            raise ValueError("the rebuild follows the presets, which derive replication seeds")
        curves, verdicts = {}, {}
        if recipe.kind == "epps":
            curves["curve"] = self._epps(recipe.name, cfg)
        elif recipe.kind == "hy":
            curves["curve"] = curve = self._hy(recipe.name, cfg)
            verdicts["verdict"] = self.discriminate(curve, "hy")
        elif recipe.kind == "kskip":
            path = self.simulate_path(cfg, cfg.seed)
            rep_seed = seeding.child_seed(cfg.seed, seeding.REPLICATION, 0)
            _, _, s1, s2 = self.sample_ticks(cfg, path, rep_seed, ())
            curves["curve"], verdicts["verdict"] = self._k_skip(s1, s2, recipe.k_max, cfg.confidence)
        else:
            raise ValueError(f"no rebuild for recipe kind {recipe.kind!r}")
        # the analytic overlays are no replication work: take the program's own
        ref = self.reference.get(recipe.name)
        return FigureResult(recipe.name, recipe.kind, curves, verdicts, ref.theory if ref else {})

    def _epps(self, name, cfg):
        path = None if cfg.fresh_paths else self.simulate_path(cfg, cfg.seed)
        self.paths[name] = path
        stack = np.empty((cfg.n_replications, len(cfg.estimators), len(cfg.dt_grid)))
        for r in range(cfg.n_replications):
            rep_seed = seeding.child_seed(cfg.seed, seeding.REPLICATION, r)
            p = self.simulate_path(cfg, seeding.child_seed(rep_seed, 0)) if path is None else path
            u1, u2, s1, s2 = self.sample_ticks(cfg, p, rep_seed, ())
            stack[r] = self.estimate_matrix(
                s1, s2, u1, u2, cfg.dt_grid, cfg.estimators, cfg.horizon, cfg.kappa_stride
            )
        meta = {
            "experiment": "epps_curve",
            "price_model": cfg.price_model,
            "sampler": cfg.sampler,
            "n_replications": cfg.n_replications,
            "confidence": cfg.confidence,
            "seed": cfg.seed,
            "fresh_paths": cfg.fresh_paths,
        }
        return self.aggregate(cfg.estimators, cfg.confidence, cfg.dt_grid, "dt", stack, meta)

    def _hy(self, name, cfg):
        path = self.paths[name] = self.simulate_path(cfg, cfg.seed)
        grid = cfg.mean_interarrivals
        stack = np.full((cfg.n_replications, 1, len(grid)), np.nan)
        for r in range(cfg.n_replications):
            rep_seed = seeding.child_seed(cfg.seed, seeding.REPLICATION, r)
            for j, m in enumerate(grid):
                rate_cfg = replace(cfg, estimators=("hy",), sampler="poisson", poisson_rate=1.0 / m)
                _, _, s1, s2 = self.sample_ticks(rate_cfg, path, rep_seed, (j,))
                try:
                    stack[r, 0, j] = self.hy(s1, s2)
                except EstimationError:
                    pass
        meta = {
            "experiment": "hy_vs_interarrival",
            "price_model": cfg.price_model,
            "n_replications": cfg.n_replications,
            "confidence": cfg.confidence,
            "seed": cfg.seed,
        }
        return self.aggregate(("hy",), cfg.confidence, grid, "mean_interarrival", stack, meta)

    def _k_skip(self, si, sj, k_max, confidence):
        pts = []
        truncated_at = None
        for k in range(1, int(k_max) + 1):
            a, b = self.thin(si, k), self.thin(sj, k)
            if len(a) < 2 or len(b) < 2:
                pts.append(CurvePoint(float(k), math.nan, math.nan, 0, 1))
                truncated_at = truncated_at or k
                continue
            try:
                pts.append(CurvePoint(float(k), self.hy(a, b), 0.0, 1, 0))
            except EstimationError:
                pts.append(CurvePoint(float(k), math.nan, math.nan, 0, 1))
        meta = {"experiment": "k_skip", "k_max": int(k_max), "confidence": confidence}
        if truncated_at is not None:
            meta["first_infeasible_k"] = truncated_at
        curve = EppsCurve(axis_label="k", series={"hy": tuple(pts)}, meta=meta)
        return curve, self.discriminate(curve, "hy")

    # -- trade pipeline --------------------------------------------------------

    def parse(self, path):
        return self.tr.call("parse_trades", "taq.parse", parse_trades, path)

    def pair(self, parsed, a, b):
        return self.tr.call("pair_days", "taq.pair", pair_days, parsed, a, b)

    def curve(self, days, dt_grid, estimators=("measured", "flat_trade", "overlap", "hy")):
        with self.tr.span("empirical_curve", "taq.curve"):
            dt_grid = tuple(float(d) for d in dt_grid)
            stack = np.empty((len(days), len(estimators), len(dt_grid)))
            for r, day in enumerate(days):
                u1 = ArrivalSet(times=day.series_a.times, horizon=day.horizon)
                u2 = ArrivalSet(times=day.series_b.times, horizon=day.horizon)
                stack[r] = self.estimate_matrix(
                    day.series_a, day.series_b, u1, u2, dt_grid, estimators, day.horizon, None
                )
            meta = {
                "experiment": "empirical",
                "n_days": len(days),
                "confidence": 0.95,
                "dates": [d.date for d in days],
            }
            return self.aggregate(estimators, 0.95, dt_grid, "dt", stack, meta)

    def scale(self, curve):
        return self.tr.call("saturation_scale", "taq.curve", saturation_scale, curve)

    def kskip(self, days, k_max):
        with self.tr.span("empirical_kskip", "taq.kskip"):
            ks = tuple(float(k) for k in range(1, k_max + 1))
            stack = np.full((len(days), 1, len(ks)), np.nan)
            for r, day in enumerate(days):
                for j, k in enumerate(range(1, k_max + 1)):
                    a, b = self.thin(day.series_a, k), self.thin(day.series_b, k)
                    if len(a) < 2 or len(b) < 2:
                        continue
                    try:
                        stack[r, 0, j] = self.hy(a, b)
                    except EstimationError:
                        continue
            meta = {
                "experiment": "empirical_kskip",
                "n_days": len(days),
                "k_max": k_max,
                "confidence": 0.95,
                "dates": [d.date for d in days],
            }
            curve = self.aggregate(("hy",), 0.95, ks, "k", stack, meta)
            return curve, self.discriminate(curve, "hy", 0.05, 1.0)

