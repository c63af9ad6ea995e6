"""Canned figure recipes: every parameter of each experiment pinned in one place.

Each recipe names a figure panel and binds the full simulation and
estimation setup for it, so command line runs and acceptance checks share
a single parameter source instead of re-encoding values. Recipes carry a
seed and replication count that callers may override; everything else is
fixed.
"""

from dataclasses import dataclass, field, replace
from functools import partial
from numbers import Integral

from .errors import DomainError, ParameterError
from .experiments import (
    FIG_DT_GRID,
    MIN_VERDICT_POINTS,
    EppsCurve,
    ExperimentConfig,
    Verdict,
    _map_replications,
    _rule_bound,
    aggregate_curve,
    discriminate,
    estimate_matrix,
    k_skip_row,
)
from .hawkes import (
    HawkesPriceParams,
    HawkesSpec,
    limiting_correlation,
    theoretical_hawkes_correlation,
)
from .paths import DAY_SECONDS, GbmParams, MertonParams
from .sampling import mutual_excitation_spec
from .estimators import theoretical_poisson_epps

POISSON_MEAN_INTERARRIVAL = 15.0
KSKIP_TICK_RATE = 1.0  # per second; one dense tick set thinned by k

WIDE_DT_GRID = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0)


def gbm_reference() -> GbmParams:
    """Correlated Brownian log prices, daily-scaled coefficients."""
    return GbmParams(
        mu1=0.01, mu2=0.01, sigma_sq1=0.1, sigma_sq2=0.2, rho=0.65,
        dt=1.0, horizon=DAY_SECONDS,
    )


def merton_reference() -> MertonParams:
    """The Brownian setup plus compound-Poisson jumps on each asset."""
    return MertonParams(
        mu1=0.01, mu2=0.01, sigma_sq1=0.1, sigma_sq2=0.2, rho=0.65,
        dt=1.0, horizon=DAY_SECONDS,
        jump_rate=0.2, jump_mean=0.0, jump_std=0.001,
    )


def hawkes_price_reference() -> HawkesPriceParams:
    return HawkesPriceParams(mu=0.015, alpha_r=0.023, alpha_c=0.05, beta=0.11)


def hawkes_sampling_reference() -> HawkesSpec:
    """Mutually exciting 2-dim arrival process used as the event clock."""
    return mutual_excitation_spec(0.015, 0.023, 0.11)


@dataclass(frozen=True)
class FigureRecipe:
    """An experiment and the kind of curve run_figure makes of it; the hy
    and kskip curves are classified, so they need MIN_VERDICT_POINTS points,
    and hy and multirate sample each rate by Poisson legs, whatever the sampler."""

    name: str
    kind: str  # "epps" | "hy" | "multirate" | "kskip"
    config: ExperimentConfig
    k_max: int | None = None

    def __post_init__(self):
        if self.kind not in ("epps", "hy", "multirate", "kskip"):
            raise ParameterError(f"unknown recipe kind {self.kind!r}")
        if self.kind in ("hy", "multirate") and self.config.sampler != "poisson":
            raise ParameterError(f"sampler must be 'poisson' for a {self.kind} recipe, "
                                 f"got {self.config.sampler!r}")
        if self.kind == "kskip" and not (
            isinstance(self.k_max, Integral) and self.k_max >= MIN_VERDICT_POINTS
        ):
            raise ParameterError(
                f"k_max must be an integer >= {MIN_VERDICT_POINTS}, got {self.k_max!r}"
            )
        n_points = len(self.config.mean_interarrivals)
        if self.kind == "hy" and n_points < MIN_VERDICT_POINTS:
            raise ParameterError(
                f"mean_interarrivals must hold >= {MIN_VERDICT_POINTS} points, got {n_points}"
            )


@dataclass(frozen=True)
class FigureResult:
    name: str
    kind: str
    curves: dict[str, EppsCurve]
    verdicts: dict[str, Verdict] = field(default_factory=dict)
    theory: dict[str, tuple[tuple[float, float], ...]] = field(default_factory=dict)


# the reference parameters of each price model
REFERENCE_PARAMS = {
    "gbm": gbm_reference, "merton": merton_reference, "hawkes": hawkes_price_reference,
}

# name -> (kind, price model, sampler, config fields other than the
# defaults of ExperimentConfig and of the sampler)
_FIGURES = {
    "2a": ("epps", "gbm", "poisson", {}),
    "2b": ("epps", "gbm", "hawkes", {}),
    "3a": ("epps", "merton", "poisson", {}),
    "3b": ("epps", "merton", "hawkes", {}),
    "5": ("epps", "hawkes", "synchronous",
          {"estimators": ("measured",), "dt_grid": WIDE_DT_GRID, "fresh_paths": True}),
    "6a": ("epps", "hawkes", "poisson", {}),
    "6b": ("epps", "hawkes", "hawkes", {}),
    "8a": ("hy", "hawkes", "poisson", {"estimators": ("hy",)}),
    "8b": ("hy", "gbm", "poisson", {"estimators": ("hy",)}),
    "9": ("multirate", "hawkes", "poisson",
          {"estimators": ("measured", "overlap"), "dt_grid": WIDE_DT_GRID}),
    "10a": ("kskip", "hawkes", "poisson", {"estimators": ("hy",), "poisson_rate": KSKIP_TICK_RATE}),
    "10b": ("kskip", "gbm", "poisson", {"estimators": ("hy",), "poisson_rate": KSKIP_TICK_RATE}),
}
FIGURE_NAMES = tuple(_FIGURES)


def figure_recipe(name: str, seed: int = 0, n_replications: int | None = None) -> FigureRecipe:
    """Build the full recipe for one figure panel.

    seed and n_replications may be overridden (the defaults are 0 and the
    standard 100; a kskip figure records one replication); unknown names
    raise ParameterError.
    """
    if name not in FIGURE_NAMES:  # compared, not hashed: a config's value may be any JSON type
        raise ParameterError(f"figure: expected one of {', '.join(FIGURE_NAMES)}, got {name!r}")
    kind, model, sampler, fields = _FIGURES[name]
    base = {"seed": seed}
    if n_replications is not None:
        base["n_replications"] = n_replications
    if sampler == "poisson":
        base["poisson_rate"] = 1.0 / POISSON_MEAN_INTERARRIVAL
    elif sampler == "hawkes":
        base["hawkes_sampler"] = hawkes_sampling_reference()
    cfg = ExperimentConfig(model, REFERENCE_PARAMS[model](), sampler, **{**base, **fields})
    if kind == "kskip":  # the override is checked above, but k-skip thins one tick pair
        return FigureRecipe(name, kind, replace(cfg, n_replications=1), k_max=50)
    return FigureRecipe(name, kind, cfg)


def _induced_rho(cfg: ExperimentConfig) -> float:
    if cfg.price_model == "hawkes":
        p = cfg.price_params
        return limiting_correlation(p.gamma_r, p.gamma_c)
    return cfg.price_params.rho


def _theory(recipe: FigureRecipe) -> dict[str, tuple[tuple[float, float], ...]]:
    """The analytic overlays of a recipe; one without a closed form at its
    parameters (a zero-baseline Hawkes price model, say) is left out."""
    cfg = recipe.config
    out: dict[str, tuple[tuple[float, float], ...]] = {}
    if recipe.kind == "hy":
        axis = cfg.mean_interarrivals
    elif recipe.kind == "kskip":
        axis = tuple(float(k) for k in range(1, recipe.k_max + 1))
    else:
        axis = cfg.dt_grid
    rho_inf = _induced_rho(cfg)
    out["induced_rho"] = tuple((a, rho_inf) for a in axis)
    if recipe.kind in ("epps", "multirate") and cfg.price_model == "hawkes":
        try:
            out["synchronous_epps"] = tuple(
                (dt, theoretical_hawkes_correlation(cfg.price_params, dt))
                for dt in cfg.dt_grid
            )
        except DomainError:
            pass
    if recipe.kind == "epps" and cfg.sampler == "poisson" and cfg.price_model == "gbm":
        out["poisson_epps"] = tuple(
            (dt, theoretical_poisson_epps(cfg.price_params.rho, cfg.poisson_rate, dt))
            for dt in cfg.dt_grid
        )
    return out


def run_figure(
    recipe: FigureRecipe, max_workers: int = 1, tau_abs: float = 0.05, z: float = 1.0
) -> FigureResult:
    """Execute a recipe and return its curves, verdicts, and overlays.

    Every kind maps one measure of a tick pair over its replications in
    one _map_replications call, with max_workers processes: epps the
    estimators at the sampler's own rate, hy HY alone at each of
    cfg.mean_interarrivals, multirate the grid estimators at each of
    cfg.overlap_rates, kskip HY thinned by k = 1..k_max at the sampler's
    own rate. The hy and kskip curves are classified by discriminate with
    the rule (tau_abs, z).
    """
    _rule_bound(tau_abs, z)  # before the first replication
    cfg = recipe.config
    rates = {"hy": cfg.mean_interarrivals, "multirate": cfg.overlap_rates}.get(recipe.kind)
    if recipe.kind == "multirate":
        estimators = tuple(e for e in cfg.estimators if e != "hy") or ("measured", "overlap")
    else:
        estimators = cfg.estimators if recipe.kind == "epps" else ("hy",)
    if recipe.kind == "kskip":
        measure = partial(k_skip_row, k_max=recipe.k_max)
    else:
        measure = partial(estimate_matrix, dt_grid=cfg.dt_grid, estimators=estimators,
                          horizon=cfg.horizon, stride=cfg.kappa_stride)
    stack = _map_replications(cfg, rates, measure, max_workers)
    common = {
        "price_model": cfg.price_model,
        "n_replications": cfg.n_replications,
        "confidence": cfg.confidence,
        "seed": cfg.seed,
    }
    curves: dict[str, EppsCurve] = {}
    if recipe.kind == "epps":
        meta = {"experiment": "epps_curve", "sampler": cfg.sampler,
                "fresh_paths": cfg.fresh_paths, **common}
        curves["curve"] = aggregate_curve(
            estimators, cfg.confidence, cfg.dt_grid, "dt", stack[:, 0], meta
        )
    elif recipe.kind == "hy":
        # HY takes no dt: each rate's estimate fills its dt axis, so one
        # column is the curve over the mean inter-arrivals
        meta = {"experiment": "hy_vs_interarrival", **common}
        curves["curve"] = aggregate_curve(
            estimators, cfg.confidence, rates, "mean_interarrival",
            stack[..., 0].swapaxes(1, 2), meta,
        )
    elif recipe.kind == "multirate":
        for j, m in enumerate(rates):
            meta = {"experiment": "overlap_multi_rate", "mean_interarrival": m, **common}
            curves[f"rate_{m:g}"] = aggregate_curve(
                estimators, cfg.confidence, cfg.dt_grid, "dt", stack[:, j], meta
            )
    else:  # kskip
        k_max = int(recipe.k_max)
        meta = {"experiment": "k_skip", "k_max": k_max, "confidence": cfg.confidence}
        curves["curve"] = aggregate_curve(
            estimators, cfg.confidence, range(1, k_max + 1), "k", stack[:, 0], meta
        )
    verdicts: dict[str, Verdict] = {}
    if recipe.kind in ("hy", "kskip"):
        verdicts["verdict"] = discriminate(curves["curve"], "hy", tau_abs, z)
    return FigureResult(
        name=recipe.name,
        kind=recipe.kind,
        curves=curves,
        verdicts=verdicts,
        theory=_theory(recipe),
    )
