"""Run documents, the one description of an `epps` run, and the figure presets.

A run document holds `kind`, `experiment` (an ExperimentConfig table),
`k_max`, `seed`, `replications`, `threads` and `verdict`, or a preset's
name as `figure` plus those run keys. read_run reads each table by the
type hints of the object it builds, so an unknown key or a bad value is
refused naming it. Every preset is such a document, and `eppsim epps`
records the resolved document, which replays the run, in its manifest.
"""

import math
import typing
from dataclasses import dataclass, field, is_dataclass, replace
from functools import partial
from numbers import Integral

from .errors import DomainError, ParameterError
from .experiments import (
    FIG_DT_GRID,
    MIN_VERDICT_POINTS,
    PRICE_PARAMS,
    EppsCurve,
    ExperimentConfig,
    Verdict,
    _map_replications,
    _named,
    _rule_bound,
    aggregate_curve,
    discriminate,
    estimate_matrix,
    k_skip_row,
)
from .hawkes import limiting_correlation, theoretical_hawkes_correlation
from .paths import DAY_SECONDS
from .estimators import theoretical_poisson_epps

POISSON_MEAN_INTERARRIVAL = 15.0
KSKIP_TICK_RATE = 1.0  # per second; one dense tick set thinned by k
K_MAX = 50  # the k_max of a kskip document that sets none

WIDE_DT_GRID = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0)
RECIPE_KINDS = ("epps", "hy", "multirate", "kskip")

# the reference parameters of each price model, as config tables: Brownian
# log prices with daily-scaled coefficients, the same plus compound-Poisson
# jumps on each asset, and the Hawkes price model
_BROWNIAN = {"mu1": 0.01, "mu2": 0.01, "sigma_sq1": 0.1, "sigma_sq2": 0.2, "rho": 0.65,
             "dt": 1.0, "horizon": DAY_SECONDS}
REFERENCE_TABLES = {
    "gbm": _BROWNIAN,
    "merton": {**_BROWNIAN, "jump_rate": 0.2, "jump_mean": 0.0, "jump_std": 0.001},
    "hawkes": {"mu": 0.015, "alpha_r": 0.023, "alpha_c": 0.05, "beta": 0.11},
}


def reference_params(model: str):
    """The reference parameter object of a price model."""
    return PRICE_PARAMS[model](**REFERENCE_TABLES[model])


hawkes_price_reference = partial(reference_params, "hawkes")


@dataclass(frozen=True)
class FigureRecipe:
    """An experiment and the kind of curve run_figure makes of it; the hy
    and kskip curves are classified, so they need MIN_VERDICT_POINTS points,
    and hy and multirate sample each rate by Poisson legs, whatever the sampler."""

    name: str
    kind: str  # one of RECIPE_KINDS
    config: ExperimentConfig
    k_max: int | None = None

    def __post_init__(self):
        if self.kind not in RECIPE_KINDS:
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


# the experiment tables the presets share: each price model at its reference
# parameters; the Poisson clock at a 15 s mean inter-arrival; the reference
# Hawkes clock, two components each exciting only the other
_GBM, _MERTON, _HAWKES = ({"price_model": model, "price_params": table}
                          for model, table in REFERENCE_TABLES.items())
_POISSON = {"sampler": "poisson", "poisson_rate": 1.0 / POISSON_MEAN_INTERARRIVAL}
_HAWKES_CLOCK = {"sampler": "hawkes", "hawkes_sampler": {"lambda0": [0.015, 0.015],
                 "alpha": [[0.0, 0.023], [0.023, 0.0]], "beta": [[0.11, 0.11], [0.11, 0.11]]}}
_KSKIP = {**_POISSON, "poisson_rate": KSKIP_TICK_RATE, "estimators": ["hy"]}
_WIDE = {"dt_grid": list(WIDE_DT_GRID)}

# name -> the run document of the figure
_FIGURES = {
    "2a": {"kind": "epps", "experiment": {**_GBM, **_POISSON}},
    "2b": {"kind": "epps", "experiment": {**_GBM, **_HAWKES_CLOCK}},
    "3a": {"kind": "epps", "experiment": {**_MERTON, **_POISSON}},
    "3b": {"kind": "epps", "experiment": {**_MERTON, **_HAWKES_CLOCK}},
    "5": {"kind": "epps", "experiment": {**_HAWKES, **_WIDE, "sampler": "synchronous",
                                         "estimators": ["measured"], "fresh_paths": True}},
    "6a": {"kind": "epps", "experiment": {**_HAWKES, **_POISSON}},
    "6b": {"kind": "epps", "experiment": {**_HAWKES, **_HAWKES_CLOCK}},
    "8a": {"kind": "hy", "experiment": {**_HAWKES, **_POISSON, "estimators": ["hy"]}},
    "8b": {"kind": "hy", "experiment": {**_GBM, **_POISSON, "estimators": ["hy"]}},
    "9": {"kind": "multirate", "experiment": {**_HAWKES, **_POISSON, **_WIDE,
                                              "estimators": ["measured", "overlap"]}},
    "10a": {"kind": "kskip", "k_max": K_MAX, "experiment": {**_HAWKES, **_KSKIP}},
    "10b": {"kind": "kskip", "k_max": K_MAX, "experiment": {**_GBM, **_KSKIP}},
}
FIGURE_NAMES = tuple(_FIGURES)


# ---------------------------------------------------------------------------
# the reader


def _number(value, name: str, integer: bool = False):
    """A finite number or numeric string as a float (an int for an integer
    field); anything else, a boolean included, is a ParameterError naming it."""
    try:
        x = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    if not math.isfinite(x) or (integer and not x.is_integer()):
        kind = "an integer" if integer else "a finite number"
        raise ParameterError(f"{name}: expected {kind}, got {value!r}")
    if integer:
        return value if isinstance(value, int) else int(x)
    return x


def _table(value, name: str) -> dict:
    """A config table, which must be a JSON object; ParameterError names it."""
    if not isinstance(value, dict):
        raise ParameterError(f"{name}: expected an object, got {value!r}")
    return value


def _read(hint, value, name: str):
    """A config value read as its field's type hint says: float and int by
    _number, bool and str type-checked, a Literal one of its values, dict an
    object, a dataclass from its table, tuple[T, ...] a list of T, X | None
    also null; any other type is passed on for its class to check."""
    args = typing.get_args(hint)
    if type(None) in args:  # X | None
        return None if value is None else _read(args[0], value, name)
    if hint in (float, int):
        return _number(value, name, integer=hint is int)
    if hint in (bool, str):
        if not isinstance(value, hint):
            kind = "true or false" if hint is bool else "a string"
            raise ParameterError(f"{name}: expected {kind}, got {value!r}")
        return value
    if typing.get_origin(hint) is typing.Literal:
        if value not in args:  # compared, not hashed: the value may be any JSON type
            raise ParameterError(f"{name}: expected one of {', '.join(args)}, got {value!r}")
        return value
    if hint is dict:
        return _table(value, name)
    if is_dataclass(hint):
        return _from_table(hint, value, name)
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise ParameterError(f"{name}: expected a list, got {value!r}")
        return tuple(_read(args[0], x, name) for x in value)
    return value


def _from_table(cls, table, name: str, **given):
    """cls (a dataclass or an annotated function) called with the config
    table called name ("" for a document's top level), each field read by
    _read but those given, which are set elsewhere. An unknown key, a bad
    field or a value cls refuses is a ParameterError naming it."""
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for key, value in _table(table, name).items():
        if key not in hints:
            raise ParameterError(f"{name or 'config'}: unknown key {key!r}")
        if key not in given:
            kwargs[key] = _read(hints[key], value, f"{name}.{key}" if name else key)
    try:
        return cls(**kwargs, **given)
    except TypeError as exc:
        raise ParameterError(f"{name}: {exc}") from exc
    except ParameterError as exc:
        raise type(exc)(f"{name}: {exc}" if name else str(exc)) from exc


def _verdict_table(tau_abs: float = 0.05, z: float = 1.0):
    """(tau_abs, z) of the discrimination rule, as the config's verdict table sets it."""
    return tau_abs, z


def verdict_rule(table: dict) -> tuple[float, float]:
    """The verdict table's (tau_abs, z), each refused as discriminate refuses it."""
    return _rule_bound(*_from_table(_verdict_table, table, "verdict"), table="verdict.")


def _run(kind: typing.Literal[RECIPE_KINDS] = "epps", experiment: dict | None = None,
         k_max: int | None = None, seed: int | None = None, replications: int | None = None,
         threads: int = 1, verdict: dict | None = None, figure: str | None = None):
    """(recipe, threads, (tau_abs, z)) of the keys of a run document. seed
    and replications replace the experiment's own; a kskip run thins one
    tick pair, so it runs one replication whatever it asks."""
    if threads < 1:
        raise ParameterError(f"threads must be >= 1, got {threads}")
    rule = verdict_rule(verdict or {})
    if experiment is None:
        raise ParameterError(
            "epps: nothing to run; pass --figure NAME or a config with an experiment table"
        )
    model = _read(typing.Literal[tuple(PRICE_PARAMS)], experiment.get("price_model"),
                  "experiment.price_model")
    params = _from_table(PRICE_PARAMS[model], experiment.get("price_params"),
                         "experiment.price_params")
    cfg = _from_table(ExperimentConfig, experiment, "experiment", price_params=params)
    overrides = {"seed": seed, "n_replications": replications}
    cfg = replace(cfg, **{key: value for key, value in overrides.items() if value is not None})
    if kind == "kskip":
        cfg = replace(cfg, n_replications=1)
    recipe = _named("experiment", FigureRecipe, figure or kind, kind, cfg,
                    K_MAX if kind == "kskip" else None)
    if k_max is not None and kind != "kskip":
        raise ParameterError(f"k_max only applies to kskip documents, not to kind {kind!r}")
    return recipe if k_max is None else _named("k_max", replace, recipe, k_max=k_max), threads, rule


def read_run(doc: dict, **given) -> tuple[FigureRecipe, int, tuple[float, float]]:
    """(recipe, threads, (tau_abs, z)) of a run document whose keys given
    (the flags) replace, unless None. A document with a figure is that
    preset's document with the run keys it sets, and no other."""
    doc = {**doc, **{key: value for key, value in given.items() if value is not None}}
    if doc.get("figure") is not None:
        figure = _read(typing.Literal[FIGURE_NAMES], doc["figure"], "figure")
        for key in ("kind", "k_max", "experiment"):
            if doc.get(key) is not None:
                raise ParameterError(f"{key}: not with figure {figure}, which sets its own")
        doc = {**_FIGURES[figure], **doc}
    return _from_table(_run, doc, "")


def figure_recipe(name: str, seed: int = 0, n_replications: int | None = None) -> FigureRecipe:
    """The recipe of a figure preset at seed, and at n_replications if given
    (the preset's own is 100; a kskip figure runs one); an unknown name is
    a ParameterError."""
    return read_run({"figure": name, "seed": seed, "replications": n_replications})[0]


def _induced_rho(cfg: ExperimentConfig) -> float:
    """The correlation of the path's returns: Merton's (1976) compound-Poisson
    jumps, independent across assets, add jump_rate * E[J^2] to each variance."""
    p = cfg.price_params
    if cfg.price_model == "hawkes":
        return limiting_correlation(p.gamma_r, p.gamma_c)
    jumps = p.jump_rate * (p.jump_std**2 + p.jump_mean**2) if cfg.price_model == "merton" else 0.0
    if jumps == 0:
        return p.rho
    v1, v2 = p.sigma_sq1 / DAY_SECONDS, p.sigma_sq2 / DAY_SECONDS  # per second
    return p.rho * math.sqrt(v1 / (v1 + jumps) * v2 / (v2 + jumps))


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
    if recipe.kind == "epps" and cfg.sampler == "poisson" and cfg.price_model != "hawkes":
        out["poisson_epps"] = tuple(
            (dt, theoretical_poisson_epps(rho_inf, cfg.poisson_rate, dt))
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
