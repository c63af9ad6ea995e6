"""Command line front end.

Three subcommands: `simulate` writes raw model output (price path CSV,
and arrival CSVs where the model has them), `epps` runs a replicated
correlation experiment (a named figure recipe or an ad-hoc config), and
`taq` runs the empirical pipeline on trade CSV files.

Every run is driven by an optional JSON config document plus flags, with
flags taking precedence, and emits a manifest.json carrying the fully
resolved configuration, the package version, a sha256 digest of every
output file, and wall-clock timings. Given identical inputs and seed,
output files are byte-identical across runs (the manifest's timing block
is the only varying part).

Exit codes: 0 success, 2 usage or configuration, 3 data or estimation,
4 numeric.
"""

import argparse
import dataclasses
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    DataError,
    EppsimError,
    EstimationError,
    NumericError,
    ParameterError,
    ScalingError,
)
from .experiments import (
    PRICE_PARAMS,
    ExperimentConfig,
    discriminate,
    epps_curve,
    experiment_hy_vs_interarrival,
    experiment_overlap_multi_rate,
    write_curve_csv,
    write_curve_json,
    write_verdict_json,
)
from .hawkes import hawkes_price_model
from .paths import DAY_SECONDS, simulate_gbm, simulate_merton
from .presets import (
    FIG_DT_GRID,
    FIGURE_NAMES,
    figure_recipe,
    gbm_reference,
    hawkes_price_reference,
    merton_reference,
    run_figure,
)
from .sampling import mutual_excitation_spec
from .series import write_arrivals_csv
from .taq import (
    combine,
    empirical_curve,
    empirical_kskip,
    pair_days,
    parse_trades,
    saturation_scale,
    ticker_interarrival_stats,
)


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return dataclasses.asdict(obj)
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _dump_json(obj, path: Path) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _sha256(path: Path) -> dict:
    h = hashlib.sha256()
    data = path.read_bytes()
    h.update(data)
    return {"sha256": h.hexdigest(), "bytes": len(data)}


class Run:
    """Output directory plus the manifest bookkeeping for one command."""

    def __init__(self, command: str, out_dir: str, config: dict, seed: int):
        self.command = command
        self.dir = Path(out_dir)
        try:
            self.dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise DataError(f"cannot create output directory {out_dir!r}: {exc}") from exc
        self.config = config
        self.seed = seed
        self.notes: dict = {}
        self._files: list[str] = []
        self._t0 = time.perf_counter()

    def emit(self, name: str, writer) -> None:
        writer(self.dir / name)
        self._files.append(name)

    def finish(self) -> Path:
        manifest = {
            "command": self.command,
            "version": __version__,
            "seed": self.seed,
            "config": self.config,
            "outputs": {name: _sha256(self.dir / name) for name in self._files},
            "notes": self.notes,
            "timings": {"total_s": time.perf_counter() - self._t0},
        }
        _dump_json(manifest, self.dir / "manifest.json")
        return self.dir


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParameterError(f"cannot read config {path!r}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParameterError(f"config {path!r}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ParameterError(f"config {path!r}: top level must be an object")
    return doc


def _number(value, name: str, integer: bool = False):
    """A finite numeric config or flag value (an int for an integer field).

    Numbers and numeric strings are accepted; a boolean, a non-finite
    value or, for an integer field, a fractional one raises ParameterError
    naming the field.
    """
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


def _verdict_args(doc: dict) -> tuple[float, float]:
    """(tau_abs, z) of the discrimination rule from the config's verdict table."""
    vdoc = _table(doc.get("verdict", {}), "verdict")
    return (
        _number(vdoc.get("tau_abs", 0.05), "verdict.tau_abs"),
        _number(vdoc.get("z", 1.0), "verdict.z"),
    )


def _floats_arg(text: str, flag: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise ParameterError(f"{flag}: expected comma-separated numbers, got {text!r}") from exc


def _price_params_from(model: str, d: dict, name: str):
    """Price-model parameters from the config table called name.

    Every field is a number but the hawkes x0, a list of two; a bad value
    raises ParameterError naming the field.
    """
    cls = PRICE_PARAMS.get(model)
    if cls is None:
        raise ParameterError(f"experiment.price_model: unknown model {model!r}")
    fields = {f.name for f in dataclasses.fields(cls)}
    d = dict(d)
    for key in fields & d.keys():
        if key == "x0":
            if not isinstance(d[key], list) or len(d[key]) != 2:
                raise ParameterError(f"{name}.x0: expected a list of two numbers, got {d[key]!r}")
            d[key] = tuple(_number(x, f"{name}.x0") for x in d[key])
        else:
            d[key] = _number(d[key], f"{name}.{key}")
    try:
        return cls(**d)
    except TypeError as exc:
        raise ParameterError(f"{name}: {exc}") from exc


# numeric fields of the experiment table: name -> is an integer
_EXPERIMENT_NUMBERS = {
    "horizon": False,
    "n_replications": True,
    "confidence": False,
    "seed": True,
    "poisson_rate": False,
    "kappa_stride": False,
}
_EXPERIMENT_NUMBER_LISTS = {
    "dt_grid": False,
    "mean_interarrivals": False,
    "overlap_rates": False,
    "replication_seeds": True,
}


def _experiment_from(doc) -> ExperimentConfig:
    """Build an ExperimentConfig from the config file's experiment table."""
    d = dict(_table(doc, "experiment"))
    model = d.get("price_model")
    params_doc = d.pop("price_params", None)
    if model is None or params_doc is None:
        raise ParameterError("experiment: price_model and price_params are required")
    d["price_params"] = _price_params_from(
        model, _table(params_doc, "experiment.price_params"), "experiment.price_params"
    )
    sampler_doc = d.pop("hawkes_sampler", None)
    if sampler_doc is not None:
        sampler_doc = _table(sampler_doc, "experiment.hawkes_sampler")
        keys = ("baseline", "amplitude", "decay")
        if any(k not in sampler_doc for k in keys):
            raise ParameterError("experiment.hawkes_sampler: needs baseline, amplitude, decay")
        d["hawkes_sampler"] = mutual_excitation_spec(
            *(_number(sampler_doc[k], f"experiment.hawkes_sampler.{k}") for k in keys)
        )
    fresh = d.get("fresh_paths", False)
    if not isinstance(fresh, bool):
        raise ParameterError(f"experiment.fresh_paths: expected true or false, got {fresh!r}")
    # null stands for "not set" only where that is the field's default
    nullable = {f.name for f in dataclasses.fields(ExperimentConfig) if f.default is None}
    for key, integer in _EXPERIMENT_NUMBERS.items():
        if key in d and not (d[key] is None and key in nullable):
            d[key] = _number(d[key], f"experiment.{key}", integer=integer)
    for key in ("estimators", *_EXPERIMENT_NUMBER_LISTS):
        if key not in d or (d[key] is None and key in nullable):
            continue
        if not isinstance(d[key], list):
            raise ParameterError(f"experiment.{key}: expected a list, got {d[key]!r}")
        if key in _EXPERIMENT_NUMBER_LISTS:
            integer = _EXPERIMENT_NUMBER_LISTS[key]
            d[key] = [_number(x, f"experiment.{key}", integer=integer) for x in d[key]]
        d[key] = tuple(d[key])
    try:
        return ExperimentConfig(**d)
    except TypeError as exc:
        raise ParameterError(f"experiment: {exc}") from exc


def _config_echo(cfg: ExperimentConfig) -> dict:
    d = dataclasses.asdict(cfg)
    if cfg.hawkes_sampler is not None:
        d["hawkes_sampler"] = {
            "lambda0": cfg.hawkes_sampler.lambda0.tolist(),
            "alpha": cfg.hawkes_sampler.alpha.tolist(),
            "beta": cfg.hawkes_sampler.beta.tolist(),
        }
    return d


def _write_theory_csv(theory: dict, path: Path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("name,axis,value\n")
        for name in sorted(theory):
            for axis, value in theory[name]:
                fh.write(f"{name},{axis!r},{value!r}\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(args) -> int:
    doc = _load_config(args.config)
    seed = args.seed if args.seed is not None else _number(doc.get("seed", 0), "seed", integer=True)
    model = args.model
    sim = _table(doc.get("simulate", {}), "simulate")
    horizon = _number(sim.get("horizon", DAY_SECONDS), "simulate.horizon")
    if args.preset == "reference":
        params = {"gbm": gbm_reference, "merton": merton_reference, "hawkes-price": hawkes_price_reference}[model]()
    else:
        pdoc = sim.get("params")
        if pdoc is None:
            raise ParameterError(
                "simulate: no parameters; pass --preset reference or a config with simulate.params"
            )
        pdoc = _table(pdoc, "simulate.params")
        params = _price_params_from(model.replace("-price", ""), pdoc, "simulate.params")

    run = Run(
        "simulate",
        args.out,
        {
            "model": model,
            "preset": args.preset,
            "seed": seed,
            "horizon": horizon,
            "params": dataclasses.asdict(params),
        },
        seed,
    )
    if model == "gbm":
        path = simulate_gbm(params, seed)
        run.emit("path.csv", path.write_csv)
    elif model == "merton":
        path = simulate_merton(params, seed)
        run.emit("path.csv", path.write_csv)
    else:
        path, arrivals = hawkes_price_model(params, horizon, seed)
        run.emit("path.csv", path.write_csv)
        labels = ("up1", "down1", "up2", "down2")
        run.emit(
            "arrivals.csv",
            lambda p: write_arrivals_csv(p, dict(zip(labels, arrivals))),
        )
    out = run.finish()
    print(f"simulate: wrote {out}/path.csv (model={model}, seed={seed})")
    return 0


def _figure_outputs(run: Run, result, verdict_overrides) -> None:
    for name, curve in sorted(result.curves.items()):
        run.emit(f"{name}.csv", lambda p, c=curve: write_curve_csv(c, p))
        run.emit(f"{name}.json", lambda p, c=curve: write_curve_json(c, p))
    verdicts = dict(result.verdicts)
    if verdict_overrides and "verdict" in verdicts:
        tau_abs, z = verdict_overrides
        curve = result.curves["curve"]
        verdicts["verdict"] = discriminate(curve, None, tau_abs, z)
    for name, verdict in sorted(verdicts.items()):
        run.emit(f"{name}.json", lambda p, v=verdict: write_verdict_json(v, p))
    if result.theory:
        run.emit("theory.csv", lambda p: _write_theory_csv(result.theory, p))


def cmd_epps(args) -> int:
    doc = _load_config(args.config)
    seed = args.seed if args.seed is not None else _number(doc.get("seed", 0), "seed", integer=True)
    threads = _number(
        args.threads if args.threads is not None else doc.get("threads", 1), "threads", integer=True
    )
    if threads < 1:
        raise ParameterError(f"threads must be >= 1, got {threads}")
    figure = args.figure or doc.get("figure")
    overrides = _verdict_args(doc) if _table(doc.get("verdict", {}), "verdict") else None

    if figure is not None:
        reps = args.replications
        if reps is None and doc.get("replications") is not None:
            reps = _number(doc["replications"], "replications", integer=True)
        recipe = figure_recipe(figure, seed=seed, n_replications=reps)
        cfg = recipe.config
        if args.dt_grid is not None:
            cfg = dataclasses.replace(cfg, dt_grid=_floats_arg(args.dt_grid, "--dt-grid"))
        if args.rates is not None:
            cfg = dataclasses.replace(cfg, overlap_rates=_floats_arg(args.rates, "--rates"))
        recipe = dataclasses.replace(recipe, config=cfg)
        if args.kmax is not None:
            if recipe.kind != "kskip":
                raise ParameterError("--kmax only applies to the k-skip figures")
            recipe = dataclasses.replace(recipe, k_max=args.kmax)
        run = Run(
            "epps",
            args.out,
            {
                "figure": figure,
                "kind": recipe.kind,
                "seed": seed,
                "threads": threads,
                "k_max": recipe.k_max,
                "experiment": _config_echo(recipe.config),
            },
            seed,
        )
        result = run_figure(recipe, max_workers=threads)
        _figure_outputs(run, result, overrides)
        out = run.finish()
        print(f"epps: figure {figure} -> {out} ({len(result.curves)} curve(s))")
        return 0

    if "experiment" not in doc:
        raise ParameterError(
            "epps: nothing to run; pass --figure NAME or a config with an "
            "experiment table"
        )
    cfg = _experiment_from(doc["experiment"])
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if args.dt_grid is not None:
        cfg = dataclasses.replace(cfg, dt_grid=_floats_arg(args.dt_grid, "--dt-grid"))
    if args.replications is not None:
        cfg = dataclasses.replace(cfg, n_replications=args.replications)
    mode = doc.get("mode", "epps")
    run = Run(
        "epps",
        args.out,
        {"mode": mode, "seed": cfg.seed, "threads": threads, "experiment": _config_echo(cfg)},
        cfg.seed,
    )
    if mode == "epps":
        curve = epps_curve(cfg, max_workers=threads)
        run.emit("curve.csv", lambda p: write_curve_csv(curve, p))
        run.emit("curve.json", lambda p: write_curve_json(curve, p))
    elif mode == "hy_vs_interarrival":
        curve = experiment_hy_vs_interarrival(cfg, max_workers=threads)
        run.emit("curve.csv", lambda p: write_curve_csv(curve, p))
        run.emit("curve.json", lambda p: write_curve_json(curve, p))
        tau_abs, z = overrides or (0.05, 1.0)
        verdict = discriminate(curve, "hy", tau_abs, z)
        run.emit("verdict.json", lambda p: write_verdict_json(verdict, p))
    elif mode == "overlap_multi_rate":
        if args.rates is not None:
            cfg = dataclasses.replace(cfg, overlap_rates=_floats_arg(args.rates, "--rates"))
        for m, curve in sorted(experiment_overlap_multi_rate(cfg, max_workers=threads).items()):
            run.emit(f"rate_{m:g}.csv", lambda p, c=curve: write_curve_csv(c, p))
            run.emit(f"rate_{m:g}.json", lambda p, c=curve: write_curve_json(c, p))
    else:
        raise ParameterError(f"config mode: unknown {mode!r}")
    out = run.finish()
    print(f"epps: {mode} -> {out}")
    return 0


def _parse_taq_files(files) -> tuple:
    results = []
    for f in files:
        res = parse_trades(f)
        for diag in res.diagnostics:
            print(f"warning: {f}: {diag}", file=sys.stderr)
        results.append(res)
    return combine(results)


def _pair_arg(text: str) -> tuple[str, str]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2 or not all(parts):
        raise ParameterError(f"--pair: expected TICKER_A,TICKER_B, got {text!r}")
    return parts[0], parts[1]


def cmd_taq(args) -> int:
    doc = _load_config(args.config)
    parsed = _parse_taq_files(args.files)
    taq_doc = _table(doc.get("taq", {}), "taq")
    dt_grid = (
        _floats_arg(args.dt_grid, "--dt-grid")
        if args.dt_grid is not None
        else tuple(_number(x, "taq.dt_grid") for x in taq_doc.get("dt_grid", FIG_DT_GRID))
    )
    tau_abs, z = _verdict_args(doc)

    base_config = {
        "taq_command": args.taq_command,
        "files": list(args.files),
        "n_rows": parsed.n_rows,
        "n_used": parsed.n_used,
        "n_rejected": len(parsed.diagnostics),
        "timestamp_format": parsed.timestamp_format,
    }

    if args.taq_command == "stats":
        run = Run("taq", args.out, base_config, 0)
        table = {}
        for ticker in parsed.tickers():
            mean, sd = ticker_interarrival_stats(parsed, ticker)
            days = parsed.dates(ticker)
            n_trades = sum(len(parsed.records[(ticker, d)]) for d in days)
            table[ticker] = {
                "mean_interarrival": mean,
                "sd_interarrival": sd,
                "n_days": len(days),
                "n_trades": n_trades,
            }
        run.emit("stats.json", lambda p: _dump_json(table, p))

        def write_stats_csv(p):
            with open(p, "w", newline="") as fh:
                fh.write("ticker,mean_interarrival,sd_interarrival,n_days,n_trades\n")
                for t in sorted(table):
                    row = table[t]
                    fh.write(
                        f"{t},{row['mean_interarrival']!r},{row['sd_interarrival']!r},"
                        f"{row['n_days']},{row['n_trades']}\n"
                    )

        run.emit("stats.csv", write_stats_csv)
        out = run.finish()
        print(f"taq stats: {len(table)} ticker(s) -> {out}")
        return 0

    if args.pair is None:
        raise ParameterError(f"taq {args.taq_command}: --pair TICKER_A,TICKER_B is required")
    ticker_a, ticker_b = _pair_arg(args.pair)
    days, skipped = pair_days(parsed, ticker_a, ticker_b)
    for d in skipped:
        print(f"warning: skipped day {d}: no usable pair window", file=sys.stderr)
    if not days:
        raise DataError(f"pair {ticker_a}/{ticker_b}: zero usable days")
    base_config.update({"pair": [ticker_a, ticker_b], "n_days": len(days)})

    if args.taq_command == "epps":
        base_config["dt_grid"] = list(dt_grid)
        run = Run("taq", args.out, base_config, 0)
        run.notes["skipped_days"] = skipped
        curve = empirical_curve(days, dt_grid)
        run.emit("curve.csv", lambda p: write_curve_csv(curve, p))
        run.emit("curve.json", lambda p: write_curve_json(curve, p))
        try:
            scaled = saturation_scale(curve)
            run.emit("curve_scaled.csv", lambda p: write_curve_csv(scaled, p))
            run.emit("curve_scaled.json", lambda p: write_curve_json(scaled, p))
        except ScalingError as exc:
            run.notes["saturation_scale"] = f"skipped: {exc}"
            print(f"warning: saturation scaling skipped: {exc}", file=sys.stderr)
        out = run.finish()
        print(f"taq epps: {ticker_a}/{ticker_b} over {len(days)} day(s) -> {out}")
        return 0

    if args.taq_command == "kskip":
        k_max = args.kmax
        if k_max is None:
            k_max = _number(taq_doc.get("kmax", 50), "taq.kmax", integer=True)
        base_config.update({"kmax": k_max, "tau_abs": tau_abs, "z": z})
        run = Run("taq", args.out, base_config, 0)
        run.notes["skipped_days"] = skipped
        curve, verdict = empirical_kskip(days, k_max, tau_abs=tau_abs, z=z)
        run.emit("curve.csv", lambda p: write_curve_csv(curve, p))
        run.emit("curve.json", lambda p: write_curve_json(curve, p))
        run.emit("verdict.json", lambda p: write_verdict_json(verdict, p))
        out = run.finish()
        print(
            f"taq kskip: {ticker_a}/{ticker_b} -> {verdict.classification} "
            f"(gap {verdict.gap:.4f}, threshold {verdict.threshold:.4f}) -> {out}"
        )
        return 0

    raise ParameterError(f"unknown taq command {args.taq_command!r}")


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eppsim",
        description="Epps-effect simulation, estimation, and discrimination toolkit.",
    )
    parser.add_argument("--version", action="version", version=f"eppsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None, help="master seed (overrides config)")
        p.add_argument("--out", default="eppsim_out", help="output directory")
        p.add_argument("--config", default=None, help="JSON config file")

    p_sim = sub.add_parser("simulate", help="write raw model output")
    common(p_sim)
    p_sim.add_argument(
        "--model", required=True, choices=("gbm", "merton", "hawkes-price")
    )
    p_sim.add_argument(
        "--preset", choices=("reference",), default=None, help="named parameter set"
    )
    p_sim.set_defaults(fn=cmd_simulate)

    p_epps = sub.add_parser("epps", help="replicated correlation experiment")
    common(p_epps)
    p_epps.add_argument("--figure", choices=FIGURE_NAMES, default=None)
    p_epps.add_argument("--threads", type=int, default=None, help="parallel replications")
    p_epps.add_argument("--replications", type=int, default=None)
    p_epps.add_argument("--dt-grid", default=None, help="comma-separated seconds")
    p_epps.add_argument("--rates", default=None, help="comma-separated mean inter-arrivals")
    p_epps.add_argument("--kmax", type=int, default=None)
    p_epps.set_defaults(fn=cmd_epps)

    p_taq = sub.add_parser("taq", help="empirical trade-file pipeline")
    common(p_taq)
    p_taq.add_argument("taq_command", choices=("stats", "epps", "kskip"))
    p_taq.add_argument("files", nargs="+", help="trade CSV file(s)")
    p_taq.add_argument("--pair", default=None, help="TICKER_A,TICKER_B")
    p_taq.add_argument("--dt-grid", default=None, help="comma-separated seconds")
    p_taq.add_argument("--kmax", type=int, default=None)
    p_taq.set_defaults(fn=cmd_taq)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataError, EstimationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except EppsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
