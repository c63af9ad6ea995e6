"""Command line front end.

Three subcommands: `simulate` writes raw model output (price path CSV,
and arrival CSVs where the model has them), `epps` runs a replicated
correlation experiment (a run document of presets.read_run: a figure
preset or an ad-hoc config), and `taq` runs the trade-file pipeline.

Every run reads an optional JSON config, each table by _from_table so
that an unknown key is refused, plus flags, which take precedence; it
emits a manifest.json with the resolved configuration (for `epps` the
resolved run document, which replays the run), the package version, a
sha256 digest of every output file, and wall-clock timings. Given
identical inputs and seed, output files are byte-identical across runs
(the manifest's timing block is the only varying part).

Exit codes: 0 success, 2 usage or configuration, 3 data or estimation,
4 numeric.
"""

import argparse
import dataclasses
import hashlib
import json
import sys
import time
from pathlib import Path

from . import __version__, seeding
from .errors import (
    DataError,
    EppsimError,
    NumericError,
    ParameterError,
    ScalingError,
)
from .experiments import (
    MIN_VERDICT_POINTS,
    PRICE_PARAMS,
    _check_dt_axis,
    _named,
    _worker_count,
    dump_json,
    write_curve_csv,
    write_curve_json,
    write_verdict_json,
)
from .hawkes import PRICE_GRID_DT, expected_events, hawkes_price_model, price_spec
from .paths import DAY_SECONDS, _n_steps, simulate_gbm, simulate_merton
from .presets import (
    FIG_DT_GRID,
    FIGURE_NAMES,
    K_MAX,
    FigureResult,
    _from_table,
    _read,
    _table,
    read_run,
    reference_params,
    run_figure,
    verdict_rule,
)
from .series import write_arrivals_csv
from .taq import (
    DAY_WINDOW,
    combine,
    empirical_curve,
    empirical_kskip,
    pair_days,
    parse_trades,
    saturation_scale,
    ticker_interarrival_stats,
)


def _sha256(path: Path) -> dict:
    data = path.read_bytes()
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


class Run:
    """Output directory plus the manifest bookkeeping for one command."""

    def __init__(self, command: str, out_dir: str, config: dict, seed: int):
        self.command = command
        self.seed = seeding.check_seed(seed)
        self.dir = Path(out_dir)
        try:
            self.dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise DataError(f"cannot create output directory {out_dir!r}: {exc}") from exc
        self.config = config
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
        dump_json(manifest, self.dir / "manifest.json")
        return self.dir


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParameterError(f"cannot read config {path!r}: {exc}") from exc
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ParameterError(f"config {path!r}: not a UTF-8 JSON document ({exc})") from exc
    return _table(doc, f"config {path!r}")


def _simulate_document(seed: int = 0, simulate: dict | None = None):
    """(seed, simulate table) as the top level of a simulate config sets them."""
    return seed, simulate or {}


def _simulate_table(horizon: float | None = None, params: dict | None = None):
    """(horizon, params table) as the config's simulate table sets them."""
    return horizon, params


def _taq_document(taq: dict | None = None, verdict: dict | None = None):
    """(taq table, verdict table) as the top level of a taq config sets them."""
    return taq or {}, verdict or {}


def _taq_table(dt_grid: tuple[float, ...] = FIG_DT_GRID, kmax: int = K_MAX):
    """(dt_grid, kmax) as the config's taq table sets them."""
    return dt_grid, kmax


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
    seed, sim = _from_table(_simulate_document, doc, "",
                            **({} if args.seed is None else {"seed": args.seed}))
    horizon, pdoc = _from_table(_simulate_table, sim, "simulate")
    model = args.model
    name = model.removesuffix("-price")  # the key of the model's parameter tables
    if args.preset == "reference":
        params = reference_params(name)
    else:
        if pdoc is None:
            raise ParameterError(
                "simulate: no parameters; pass --preset reference or a config with simulate.params"
            )
        params = _from_table(PRICE_PARAMS[name], pdoc, "simulate.params")
    if model == "hawkes-price":
        horizon = DAY_SECONDS if horizon is None else horizon
        _named("simulate.horizon", _n_steps, horizon, PRICE_GRID_DT)  # the path spans it
        _named("simulate.params", expected_events, price_spec(params), horizon)
    elif horizon is not None:
        # the diffusion models carry their horizon in their parameters
        params = _named("simulate.horizon", dataclasses.replace, params, horizon=horizon)

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
    if model in ("gbm", "merton"):
        path = (simulate_gbm if model == "gbm" else simulate_merton)(params, seed)
        run.config["horizon"] = path.horizon  # the span of the path
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


def _figure_outputs(run: Run, result) -> None:
    for name, curve in sorted(result.curves.items()):
        run.emit(f"{name}.csv", lambda p, c=curve: write_curve_csv(c, p))
        run.emit(f"{name}.json", lambda p, c=curve: write_curve_json(c, p))
    for name, verdict in sorted(result.verdicts.items()):
        run.emit(f"{name}.json", lambda p, v=verdict: write_verdict_json(v, p))
    if result.theory:
        run.emit("theory.csv", lambda p: _write_theory_csv(result.theory, p))


def cmd_epps(args) -> int:
    doc = _load_config(args.config)
    # a flag replaces the document's key of its name
    recipe, threads, (tau_abs, z) = read_run(
        doc, figure=args.figure, seed=args.seed, replications=args.replications,
        threads=args.threads,
    )
    # each flag sets the field of the recipe kinds that read it
    for flag, value, fields in (
        ("--dt-grid", args.dt_grid, {"epps": "dt_grid", "multirate": "dt_grid"}),
        ("--rates", args.rates, {"hy": "mean_interarrivals", "multirate": "overlap_rates"}),
        ("--kmax", args.kmax, {"kskip": "k_max"}),
    ):
        if value is None:
            continue
        if recipe.kind not in fields:
            raise ParameterError(f"{flag} only applies to {' and '.join(fields)} recipes, "
                                 f"not to {recipe.name} ({recipe.kind})")
        if flag != "--kmax":
            value = _read(tuple[float, ...], value.split(","), flag)
        change = {fields[recipe.kind]: value}
        if flag != "--kmax":
            change = {"config": _named(flag, dataclasses.replace, recipe.config, **change)}
        recipe = _named(flag, dataclasses.replace, recipe, **change)
    cfg = recipe.config
    # the document as resolved: fed back as --config, it replays this run
    resolved = {"kind": recipe.kind, "k_max": recipe.k_max, "threads": threads,
                "verdict": {"tau_abs": tau_abs, "z": z}, "experiment": dataclasses.asdict(cfg)}
    run = Run("epps", args.out, resolved, cfg.seed)
    if args.figure or doc.get("figure"):
        run.notes["figure"] = recipe.name
    run.notes["workers"] = _worker_count(threads, cfg.n_replications)
    result = run_figure(recipe, max_workers=threads, tau_abs=tau_abs, z=z)
    _figure_outputs(run, result)
    out = run.finish()
    print(f"epps: {recipe.name} -> {out} ({len(result.curves)} curve(s))")
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
    # each flag applies to the commands that read it
    for flag, value, commands in (
        ("--dt-grid", args.dt_grid, ("epps",)),
        ("--kmax", args.kmax, ("kskip",)),
        ("--pair", args.pair, ("epps", "kskip")),
    ):
        if value is not None and args.taq_command not in commands:
            raise ParameterError(f"{flag} only applies to taq {' and '.join(commands)}, "
                                 f"not to taq {args.taq_command}")
    # the whole config, then the flags that replace its values, before any file is read
    taq_doc, verdict = _from_table(_taq_document, _load_config(args.config), "")
    dt_grid, k_max = _from_table(_taq_table, taq_doc, "taq")
    dt_grid = _check_dt_axis(dt_grid, DAY_WINDOW, "taq.dt_grid")
    if args.dt_grid is not None:
        dt_grid = _read(tuple[float, ...], args.dt_grid.split(","), "--dt-grid")
        dt_grid = _check_dt_axis(dt_grid, DAY_WINDOW, "--dt-grid")
    for name, value in (("taq.kmax", k_max), ("--kmax", args.kmax)):
        if value is not None and value < MIN_VERDICT_POINTS:
            raise ParameterError(f"{name}: expected an integer >= {MIN_VERDICT_POINTS}, got {value}")
    k_max = args.kmax if args.kmax is not None else k_max
    tau_abs, z = verdict_rule(verdict)
    parsed = _parse_taq_files(args.files)

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
        run.emit("stats.json", lambda p: dump_json(table, p))

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
        curves = {"curve": empirical_curve(days, dt_grid)}
        try:
            curves["curve_scaled"] = saturation_scale(curves["curve"])
        except ScalingError as exc:
            run.notes["saturation_scale"] = f"skipped: {exc}"
            print(f"warning: saturation scaling skipped: {exc}", file=sys.stderr)
        _figure_outputs(run, FigureResult("taq epps", "epps", curves))
        out = run.finish()
        print(f"taq epps: {ticker_a}/{ticker_b} over {len(days)} day(s) -> {out}")
        return 0

    base_config.update({"kmax": k_max, "tau_abs": tau_abs, "z": z})
    run = Run("taq", args.out, base_config, 0)
    run.notes["skipped_days"] = skipped
    curve, verdict = empirical_kskip(days, k_max, tau_abs=tau_abs, z=z)
    _figure_outputs(run, FigureResult("taq kskip", "kskip", {"curve": curve},
                                      {"verdict": verdict}))
    out = run.finish()
    print(
        f"taq kskip: {ticker_a}/{ticker_b} -> {verdict.classification} "
        f"(gap {verdict.gap:.4f}, threshold {verdict.threshold:.4f}) -> {out}"
    )
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eppsim",
        description="Epps-effect simulation, estimation, and discrimination toolkit.",
    )
    parser.add_argument("--version", action="version", version=f"eppsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seeded=True):  # a trade file is read, not drawn: taq takes no seed
        if seeded:
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
    common(p_taq, seeded=False)
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
    out, fresh = Path(args.out), not Path(args.out).exists()
    try:
        return args.fn(args)
    except EppsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if fresh and out.is_dir() and not any(out.iterdir()):
            out.rmdir()  # a failed run leaves no --out it made
        return 2 if isinstance(exc, ParameterError) else 4 if isinstance(exc, NumericError) else 3


if __name__ == "__main__":
    sys.exit(main())
