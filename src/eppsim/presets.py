"""Canned figure recipes: every parameter of each experiment pinned in one place.

Each recipe names a figure panel and binds the full simulation and
estimation setup for it, so command line runs and acceptance checks share
a single parameter source instead of re-encoding values. Recipes carry a
seed and replication count that callers may override; everything else is
fixed.
"""

from dataclasses import dataclass, field

from . import seeding
from .errors import ParameterError
from .experiments import (
    FIG_DT_GRID,
    EppsCurve,
    ExperimentConfig,
    Verdict,
    _sample_ticks,
    _simulate_path,
    discriminate,
    epps_curve,
    experiment_hy_vs_interarrival,
    experiment_k_skip,
    experiment_overlap_multi_rate,
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

FIGURE_NAMES = ("2a", "2b", "3a", "3b", "5", "6a", "6b", "8a", "8b", "9", "10a", "10b")


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
    name: str
    kind: str  # "epps" | "hy" | "multirate" | "kskip"
    config: ExperimentConfig
    k_max: int | None = None


@dataclass(frozen=True)
class FigureResult:
    name: str
    kind: str
    curves: dict[str, EppsCurve]
    verdicts: dict[str, Verdict] = field(default_factory=dict)
    theory: dict[str, tuple[tuple[float, float], ...]] = field(default_factory=dict)


def _price(model: str):
    return {
        "gbm": ("gbm", gbm_reference()),
        "merton": ("merton", merton_reference()),
        "hawkes": ("hawkes", hawkes_price_reference()),
    }[model]


def _epps_cfg(model: str, sampler: str, seed: int, n: int, **kw) -> ExperimentConfig:
    kind, params = _price(model)
    base = dict(
        price_model=kind,
        price_params=params,
        sampler=sampler,
        dt_grid=FIG_DT_GRID,
        n_replications=n,
        seed=seed,
    )
    if sampler == "poisson":
        base["poisson_rate"] = 1.0 / POISSON_MEAN_INTERARRIVAL
    elif sampler == "hawkes":
        base["hawkes_sampler"] = hawkes_sampling_reference()
    base.update(kw)
    return ExperimentConfig(**base)


def figure_recipe(name: str, seed: int = 0, n_replications: int | None = None) -> FigureRecipe:
    """Build the full recipe for one figure panel.

    seed and n_replications may be overridden (the defaults are 0 and the
    standard 100); unknown names raise ParameterError.
    """
    seeding.check_seed(seed)
    n = 100 if n_replications is None else int(n_replications)
    if n < 1:
        raise ParameterError(f"n_replications must be >= 1, got {n_replications}")
    if name == "2a":
        cfg = _epps_cfg("gbm", "poisson", seed, n)
        return FigureRecipe(name, "epps", cfg)
    if name == "2b":
        cfg = _epps_cfg("gbm", "hawkes", seed, n)
        return FigureRecipe(name, "epps", cfg)
    if name == "3a":
        cfg = _epps_cfg("merton", "poisson", seed, n)
        return FigureRecipe(name, "epps", cfg)
    if name == "3b":
        cfg = _epps_cfg("merton", "hawkes", seed, n)
        return FigureRecipe(name, "epps", cfg)
    if name == "5":
        cfg = _epps_cfg(
            "hawkes", "synchronous", seed, n,
            estimators=("measured",), dt_grid=WIDE_DT_GRID, fresh_paths=True,
        )
        return FigureRecipe(name, "epps", cfg)
    if name == "6a":
        cfg = _epps_cfg("hawkes", "poisson", seed, n)
        return FigureRecipe(name, "epps", cfg)
    if name == "6b":
        cfg = _epps_cfg("hawkes", "hawkes", seed, n)
        return FigureRecipe(name, "epps", cfg)
    if name in ("8a", "8b"):
        model = "hawkes" if name == "8a" else "gbm"
        cfg = _epps_cfg(
            model, "poisson", seed, n,
            estimators=("hy",),
            mean_interarrivals=tuple(float(m) for m in range(1, 46)),
        )
        return FigureRecipe(name, "hy", cfg)
    if name == "9":
        cfg = _epps_cfg(
            "hawkes", "poisson", seed, n,
            estimators=("measured", "overlap"),
            dt_grid=WIDE_DT_GRID,
            overlap_rates=(1.0, 10.0, 25.0),
        )
        return FigureRecipe(name, "multirate", cfg)
    if name in ("10a", "10b"):
        model = "hawkes" if name == "10a" else "gbm"
        cfg = _epps_cfg(
            model, "poisson", seed, 1,
            estimators=("hy",), poisson_rate=KSKIP_TICK_RATE,
        )
        return FigureRecipe(name, "kskip", cfg, k_max=50)
    raise ParameterError(
        f"unknown figure {name!r}; choose one of {', '.join(FIGURE_NAMES)}"
    )


def _induced_rho(cfg: ExperimentConfig) -> float:
    if cfg.price_model == "hawkes":
        p = cfg.price_params
        return limiting_correlation(p.gamma_r, p.gamma_c)
    return cfg.price_params.rho


def _theory(recipe: FigureRecipe) -> dict[str, tuple[tuple[float, float], ...]]:
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
        out["synchronous_epps"] = tuple(
            (dt, theoretical_hawkes_correlation(cfg.price_params, dt))
            for dt in cfg.dt_grid
        )
    if recipe.kind == "epps" and cfg.sampler == "poisson" and cfg.price_model == "gbm":
        out["poisson_epps"] = tuple(
            (dt, theoretical_poisson_epps(cfg.price_params.rho, cfg.poisson_rate, dt))
            for dt in cfg.dt_grid
        )
    return out


def run_figure(recipe: FigureRecipe, max_workers: int = 1) -> FigureResult:
    """Execute a recipe and return its curves, verdicts, and overlays."""
    cfg = recipe.config
    curves: dict[str, EppsCurve] = {}
    verdicts: dict[str, Verdict] = {}
    if recipe.kind == "epps":
        curves["curve"] = epps_curve(cfg, max_workers)
    elif recipe.kind == "hy":
        curve = experiment_hy_vs_interarrival(cfg, max_workers)
        curves["curve"] = curve
        verdicts["verdict"] = discriminate(curve, "hy")
    elif recipe.kind == "multirate":
        for m, curve in experiment_overlap_multi_rate(cfg, max_workers).items():
            curves[f"rate_{m:g}"] = curve
    elif recipe.kind == "kskip":
        path = _simulate_path(cfg, cfg.seed)
        rep_seed = seeding.child_seed(cfg.seed, seeding.REPLICATION, 0)
        _, _, s1, s2 = _sample_ticks(cfg, path, rep_seed, ())
        curve, verdict = experiment_k_skip(s1, s2, recipe.k_max, cfg.confidence)
        curves["curve"] = curve
        verdicts["verdict"] = verdict
    else:
        raise ParameterError(f"unknown recipe kind {recipe.kind!r}")
    return FigureResult(
        name=recipe.name,
        kind=recipe.kind,
        curves=curves,
        verdicts=verdicts,
        theory=_theory(recipe),
    )
