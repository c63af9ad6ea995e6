"""Command-line interface: exit codes, manifests, determinism, TAQ flows."""

import ast
import concurrent.futures
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eppsim import cli, experiments, presets, seeding
from eppsim.experiments import discriminate
import golden
from golden import (
    ADHOC_CONFIG,
    ADHOC_KINDS,
    GOLDEN_PATH,
    SIMULATE_MODELS,
    adhoc_outputs,
    changed_entries,
    figure_argv,
    recipe_digest,
    taq_outputs,
    write_trade_files,
)

HEADER = "date,ticker,timestamp,price,volume"
# the reference Hawkes clock as a config table: HawkesSpec's own fields
HAWKES_CLOCK = {"lambda0": [0.015, 0.015], "alpha": [[0.0, 0.023], [0.023, 0.0]],
                "beta": [[0.11, 0.11], [0.11, 0.11]]}


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "eppsim.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_fixture(path, n_per_ticker=200, seed=0):
    rng = np.random.default_rng(seed)
    rows = [HEADER]
    for tick in ("AAA", "BBB"):
        times = np.sort(rng.uniform(1.0, 28000.0, n_per_ticker))
        prices = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 1e-3, n_per_ticker)))
        rows.extend(
            f"2023-01-02,{tick},{float(t)!r},{float(p):.8f},10"
            for t, p in zip(times, prices)
        )
    path.write_text("\n".join(rows) + "\n")


SMALL_GBM = {
    "price_model": "gbm",
    "price_params": {
        "mu1": 0.01, "mu2": 0.01, "sigma_sq1": 0.1, "sigma_sq2": 0.2,
        "rho": 0.65, "horizon": 2000.0,
    },
    "sampler": "poisson",
    "poisson_rate": 0.2,
    "horizon": 2000.0,
    "dt_grid": [5.0, 15.0],
    "estimators": ["measured", "hy"],
    "n_replications": 3,
}


def small_gbm_config(tmp_path, **experiment):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"experiment": {**SMALL_GBM, **experiment}}))
    return cfg


def adhoc_config(tmp_path, kind, **experiment):
    """small_gbm_config run as a recipe of kind."""
    cfg = small_gbm_config(tmp_path, **experiment)
    cfg.write_text(json.dumps({**json.loads(cfg.read_text()), "kind": kind}))
    return cfg


# ---------------------------------------------------------------------------
# generic behavior


def test_version_flag():
    out = run_cli("--version")
    assert out.returncode == 0
    assert "eppsim" in out.stdout


def test_unknown_model_is_usage_error():
    out = run_cli("simulate", "--model", "ou")
    assert out.returncode == 2


def test_unknown_figure_is_usage_error(tmp_path):
    out = run_cli("epps", "--figure", "7", "--out", str(tmp_path / "x"))
    assert out.returncode == 2


def test_epps_without_figure_or_config_is_usage_error(tmp_path):
    out = run_cli("epps", "--out", str(tmp_path / "x"))
    assert out.returncode == 2
    assert "nothing to run" in out.stderr


@pytest.mark.parametrize("text", [b'{"seed": "\xe9"}', b"[1, 2]", b"{seed"],
                         ids=["not_utf8", "not_an_object", "not_json"])
def test_a_config_that_is_no_json_object_is_a_usage_error(tmp_path, capsys, text):
    cfg = tmp_path / "config.json"
    cfg.write_bytes(text)
    out_dir = tmp_path / "out"
    for argv in (["epps"], ["simulate", "--model", "gbm", "--preset", "reference"]):
        assert cli.main([*argv, "--config", str(cfg), "--out", str(out_dir)]) == 2
        assert capsys.readouterr().err.startswith(f"error: config {str(cfg)!r}: ")
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "command, config, flags, field",
    [
        ("epps", {"seed": "abc"}, [], "seed"),
        ("epps", {"threads": "x"}, [], "threads"),
        ("epps", {"replications": "abc"}, [], "replications"),
        ("epps", {"verdict": {"tau_abs": "x"}}, [], "verdict.tau_abs"),
        ("epps", {}, ["--threads", "0"], "threads"),
        ("epps", {}, ["--threads", "-3"], "threads"),
        ("simulate", {"seed": "abc"}, [], "seed"),
        ("taq", {"taq": {"kmax": 2.5}}, [], "taq.kmax"),
        ("epps", {}, ["--figure", "2a", "--dt-grid", "1,inf"], "--dt-grid"),
        ("epps", {}, ["--figure", "2a", "--dt-grid", "1,nan"], "--dt-grid"),
        ("taq", {}, ["--dt-grid", "1,inf"], "--dt-grid"),
        ("taq", {}, ["--dt-grid", "2,1"], "--dt-grid"),
        ("taq", {}, ["--dt-grid", "0,5"], "--dt-grid"),
        ("taq", {"taq": {"dt_grid": [5, "inf"]}}, [], "taq.dt_grid"),
        ("taq", {"taq": {"dt_grid": [5, 5]}}, [], "taq.dt_grid"),
        ("taq", {"taq": {"dt_grid": 5}}, [], "taq.dt_grid"),
        ("epps", {}, ["--figure", "2a", "--replications", "0"], "n_replications"),
        ("epps", {}, ["--figure", "10a", "--replications", "0"], "n_replications"),
        ("epps", {}, ["--replications", "0"], "n_replications"),
        # a negative rule once classified the Brownian figure 10b as discrete events
        ("epps", {"verdict": {"tau_abs": -1, "z": -1}}, [], "verdict.tau_abs"),
        ("epps", {"verdict": {"z": -1}}, [], "verdict.z"),
        ("taq", {"verdict": {"tau_abs": -0.5}}, [], "verdict.tau_abs"),
        ("taq", {"verdict": {"z": -1e-300}}, [], "verdict.z"),
    ],
)
def test_bad_numeric_values_are_usage_errors(tmp_path, capsys, command, config, flags, field):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    trades = tmp_path / "trades.csv"
    write_fixture(trades)
    argv = {
        "epps": ["epps", "--figure", "10b"],  # a --figure in flags replaces 10b
        "simulate": ["simulate", "--model", "gbm", "--preset", "reference"],
        # --dt-grid goes to the one taq command that reads it
        "taq": ["taq", "epps" if "--dt-grid" in flags else "kskip", str(trades),
                "--pair", "AAA,BBB"],
    }[command]
    out_dir = tmp_path / "out"
    code = cli.main([*argv, "--config", str(cfg), *flags, "--out", str(out_dir)])
    assert code == 2
    assert f"error: {field}" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "command, config, table",
    [
        ("epps", {"verdict": 5}, "verdict"),
        ("epps", {"verdict": [1]}, "verdict"),
        ("simulate", {"simulate": [1]}, "simulate"),
        ("simulate-params", {"simulate": {"params": 3}}, "simulate.params"),
        ("taq", {"taq": "x"}, "taq"),
        ("taq", {"verdict": 5}, "verdict"),
        ("adhoc", {"experiment": 7}, "experiment"),
        ("adhoc", {"experiment": {"price_model": "gbm", "price_params": [1]}},
         "experiment.price_params"),
    ],
)
def test_config_tables_that_are_not_objects_are_usage_errors(
    tmp_path, capsys, command, config, table
):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    trades = tmp_path / "trades.csv"
    write_fixture(trades)
    argv = {
        "epps": ["epps", "--figure", "10b"],
        "adhoc": ["epps"],
        "simulate": ["simulate", "--model", "gbm", "--preset", "reference"],
        "simulate-params": ["simulate", "--model", "gbm"],
        "taq": ["taq", "kskip", str(trades), "--pair", "AAA,BBB"],
    }[command]
    code = cli.main([*argv, "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"error: {table}: expected an object" in capsys.readouterr().err


@pytest.mark.parametrize(
    "experiment, field",
    [
        ({"n_replications": "abc"}, "experiment.n_replications"),
        ({"n_replications": 2.5}, "experiment.n_replications"),
        ({"horizon": "long"}, "experiment.horizon"),
        ({"seed": True}, "experiment.seed"),
        ({"confidence": None}, "experiment.confidence"),
        ({"poisson_rate": "fast"}, "experiment.poisson_rate"),
        ({"dt_grid": [5.0, "x"]}, "experiment.dt_grid"),
        ({"dt_grid": 5.0}, "experiment.dt_grid"),
        ({"estimators": 3}, "experiment.estimators"),
        ({"replication_seeds": [1, 2, 3.5]}, "experiment.replication_seeds"),
        (
            {"sampler": "hawkes", "hawkes_sampler": {**HAWKES_CLOCK, "alpha": [[0, "x"], ["x", 0]]}},
            "experiment.hawkes_sampler",
        ),
        ({"sampler": "hawkes", "hawkes_sampler": [0.1]}, "experiment.hawkes_sampler"),
        ({"dt_grid": None}, "experiment.dt_grid"),
        ({"fresh_paths": "no"}, "experiment.fresh_paths"),
        ({"price_params": {"mu1": 0.01, "mu2": 0.01, "sigma_sq1": "abc", "sigma_sq2": 0.2,
                           "rho": 0.65, "horizon": 2000.0}}, "experiment.price_params.sigma_sq1"),
        ({"price_model": "hawkes", "price_params": {"mu": 0.01, "alpha_r": 0.0, "alpha_c": 0.0,
                                                    "beta": 1.0, "x0": 5}},
         "experiment.price_params.x0"),
        ({"price_model": "hawkes", "price_params": {"mu": 0.01, "alpha_r": 0.0, "alpha_c": 0.0,
                                                    "beta": 1.0, "x0": [0.0, "up"]}},
         "experiment.price_params.x0"),
        (
            {"sampler": "hawkes", "hawkes_sampler": {**HAWKES_CLOCK, "alpha": [[0, 2], [2, 0]],
                                                     "beta": [[1, 1], [1, 1]]}},
            "experiment: hawkes_sampler",
        ),
        ({"horizon": 72000.0}, "experiment: horizon"),
        ({"price_model": "hawkes", "price_params": {"mu": 0.01, "alpha_r": 0.0, "alpha_c": 0.0,
                                                    "beta": 1.0}, "horizon": 2000.5},
         "experiment: horizon"),
        ({"price_model": [1]}, "experiment.price_model"),
        ({"n_replications": 2, "replication_seeds": [-1, 3]}, "experiment: replication_seeds"),
    ],
)
def test_bad_experiment_fields_are_named(tmp_path, capsys, experiment, field):
    cfg = small_gbm_config(tmp_path, **experiment)
    code = cli.main(["epps", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"error: {field}: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# every field the CLI reads from a table, taken from the dataclasses themselves
TABLE_FIELDS = [
    ("experiment", f.name)
    for f in dataclasses.fields(experiments.ExperimentConfig)
    if f.name not in ("price_params", "hawkes_sampler")
] + [
    (model, f.name)
    for model, params_cls in experiments.PRICE_PARAMS.items()
    for f in dataclasses.fields(params_cls)
]


@pytest.mark.parametrize(
    "table, field", TABLE_FIELDS, ids=[f"{t}.{f}" for t, f in TABLE_FIELDS]
)
def test_an_object_in_any_field_is_a_usage_error_naming_it(tmp_path, capsys, table, field):
    if table == "experiment":
        cfg = small_gbm_config(tmp_path, **{field: {}})
        name = f"experiment.{field}"
    else:
        cfg = small_gbm_config(tmp_path, price_model=table, price_params={field: {}})
        name = f"experiment.price_params.{field}"
    out_dir = tmp_path / "out"
    code = cli.main(["epps", "--config", str(cfg), "--out", str(out_dir)])
    assert code == 2
    assert f"error: {name}: " in capsys.readouterr().err
    assert not out_dir.exists()


# one field of the experiment table or of its GBM parameters, and one value
FUZZ_FIELDS = [(None, f.name) for f in dataclasses.fields(experiments.ExperimentConfig)] + [
    ("price_params", f.name) for f in dataclasses.fields(experiments.GbmParams)
]
FUZZ_VALUES = [None, "", "abc", "1", [], [1.0], ["hy"], {}, {"dt": 1.0}, True, False,
               -1, 0, -0.0, "nan", "inf", "-inf", "1e400", 1e308, -1e308, 2**63,
               5e-324, 1e-310, 2.2250738585072014e-308]


@given(st.sampled_from(FUZZ_FIELDS), st.sampled_from(FUZZ_VALUES))
@settings(max_examples=300, deadline=None)
def test_any_value_in_any_field_exits_cleanly(field, value):
    # a config is run, or refused with exit 2 naming the field it reads and
    # leaving no --out, or stopped by a numeric or estimation error; no
    # exception escapes. The base run has 2 replications on one thread.
    table, name = field
    experiment = json.loads(json.dumps({**SMALL_GBM, "n_replications": 2}))
    (experiment[table] if table else experiment)[name] = value
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out_dir = Path(tmp) / "config.json", Path(tmp) / "out"
        cfg.write_text(json.dumps({"experiment": experiment}))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["epps", "--config", str(cfg), "--threads", "1", "--out", str(out_dir)])
        assert code in (0, 2, 3, 4), err.getvalue()
        if code == 2:
            assert err.getvalue().startswith("error: ") and name in err.getvalue()
            assert not out_dir.exists()


@pytest.mark.parametrize(
    "experiment",
    [
        {"overlap_rates": []},
        {"mean_interarrivals": []},
        {"overlap_rates": [2, 2]},
        {"dt_grid": []},
    ],
)
def test_bad_axes_are_named(tmp_path, capsys, experiment):
    ((field, values),) = experiment.items()
    cfg = small_gbm_config(tmp_path, **experiment)
    out_dir = tmp_path / "out"
    code = cli.main(["epps", "--config", str(cfg), "--out", str(out_dir)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: experiment: {field} must be non-empty, positive, finite")
    assert not out_dir.exists()


def test_experiment_numeric_strings_are_read_as_numbers(tmp_path):
    # the same experiment, once with numbers and once with numeric strings
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    plain = small_gbm_config(tmp_path / "a", n_replications=2)
    text = small_gbm_config(
        tmp_path / "b", n_replications="2", horizon="2000", dt_grid=["5", "15.0"]
    )
    digests = []
    for name, cfg in (("a", plain), ("b", text)):
        assert cli.main(["epps", "--config", str(cfg), "--out", str(tmp_path / name / "out")]) == 0
        digests.append(sha256(tmp_path / name / "out" / "curve.csv"))
    assert digests[0] == digests[1]


def test_bad_simulate_params_are_named(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"simulate": {"params": {"mu": "x", "alpha_r": 0.0,
                                                       "alpha_c": 0.0, "beta": 1.0}}}))
    code = cli.main(["simulate", "--model", "hawkes-price", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    assert "error: simulate.params.mu: " in capsys.readouterr().err


UNSTABLE_PRICE = {"mu": 0.01, "alpha_r": 0.5, "alpha_c": 0.6, "beta": 1.0}


@pytest.mark.parametrize("command", ["simulate", "epps"])
def test_unstable_price_kernel_is_a_usage_error(tmp_path, capsys, command):
    cfg = tmp_path / "config.json"
    if command == "simulate":
        cfg.write_text(json.dumps({"simulate": {"params": UNSTABLE_PRICE}}))
        argv, table = ["simulate", "--model", "hawkes-price"], "simulate.params"
    else:
        cfg = small_gbm_config(tmp_path, price_model="hawkes", price_params=UNSTABLE_PRICE)
        argv, table = ["epps"], "experiment.price_params"
    code = cli.main([*argv, "--config", str(cfg), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err == (f"error: {table}: kernel is non_stationary (spectral radius 1.100000); "
                   "the price model needs a stationary kernel\n")
    assert "allow_unstable" not in err


def test_simulate_without_params_is_usage_error(tmp_path):
    out = run_cli("simulate", "--model", "gbm", "--out", str(tmp_path / "x"))
    assert out.returncode == 2


# ---------------------------------------------------------------------------
# simulate


def simulate_config(tmp_path):
    cfg = tmp_path / "sim.json"
    cfg.write_text(
        json.dumps(
            {
                "simulate": {
                    "horizon": 500.0,
                    "params": {
                        "mu1": 0.01, "mu2": 0.01, "sigma_sq1": 0.1,
                        "sigma_sq2": 0.2, "rho": 0.65, "horizon": 500.0,
                    },
                }
            }
        )
    )
    return cfg


@pytest.mark.parametrize("model", ["gbm", "merton"])
@pytest.mark.parametrize("preset", [None, "reference"])
def test_simulate_horizon_sets_the_path_span(tmp_path, model, preset):
    params = {"mu1": 0.01, "mu2": 0.01, "sigma_sq1": 0.1, "sigma_sq2": 0.2, "rho": 0.65}
    if model == "merton":
        params["jump_rate"] = 0.001
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"simulate": {"horizon": 3600, "params": params}}))
    flags = ["--preset", preset] if preset else []
    out_dir = tmp_path / "run"
    code = cli.main(["simulate", "--model", model, *flags, "--config", str(cfg),
                     "--out", str(out_dir)])
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    last_t = float((out_dir / "path.csv").read_text().splitlines()[-1].split(",")[0])
    assert manifest["config"]["horizon"] == last_t == 3600.0
    assert manifest["config"]["params"]["horizon"] == 3600.0


def test_simulate_horizon_off_the_grid_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"simulate": {"horizon": 3600.5}}))
    for model in SIMULATE_MODELS:
        code = cli.main(["simulate", "--model", model, "--preset", "reference",
                         "--config", str(cfg), "--out", str(tmp_path / model)])
        assert code == 2, model
        assert "error: simulate.horizon: horizon 3600.5 is not a positive integer multiple" in (
            capsys.readouterr().err
        ), model
        assert not (tmp_path / model).exists(), model


def test_cli_start_up_does_not_import_scipy():
    # nor the process pool's module, which only --threads > 1 needs, nor
    # numpy.random, which only a simulation needs
    code = (
        "import sys, eppsim.cli; eppsim.cli.build_parser(); "
        "print('scipy' in sys.modules, 'concurrent.futures.process' in sys.modules, "
        "'numpy.random' in sys.modules)"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False False False"


def test_a_one_replication_run_starts_no_pool(tmp_path):
    # a preset k-skip figure thins one day: --threads 2 runs it serially
    code = "\n".join([
        "import sys",
        "from eppsim import cli",
        f"assert cli.main(['epps', '--figure', '10b', '--threads', '2', "
        f"'--out', {str(tmp_path / 'out')!r}]) == 0",
        "print('concurrent.futures.process' in sys.modules)",
    ])
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "False"


def test_runs_that_use_the_ribbon_do_not_import_scipy(tmp_path):
    files = [str(p) for p in write_trade_files(tmp_path)]
    code = "\n".join([
        "import sys",
        "from eppsim import cli",
        f"assert cli.main(['epps', '--figure', '2a', '--replications', '2', "
        f"'--out', {str(tmp_path / 'fig2a')!r}]) == 0",
        f"assert cli.main(['taq', 'kskip', *{files!r}, '--pair', 'AAA,BBB', '--kmax', '8', "
        f"'--out', {str(tmp_path / 'kskip')!r}]) == 0",
        "print('scipy' in sys.modules)",
    ])
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "False"  # after each run's summary line
    # both runs folded several replications (or days) into Student-t ribbons
    for name in ("fig2a", "kskip"):
        curve = json.loads((tmp_path / name / "curve.json").read_text())
        widths = [p["half_width"] for pts in curve["series"].values() for p in pts]
        assert any(w for w in widths), name


def test_no_module_imports_scipy():
    src = Path(cli.__file__).parent
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "scipy" for n in names), (path.name, node.lineno)


def test_simulate_same_seed_gives_identical_digests(tmp_path):
    cfg = simulate_config(tmp_path)
    digests = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        res = run_cli("simulate", "--model", "gbm", "--config", str(cfg),
                      "--seed", "5", "--out", str(out_dir))
        assert res.returncode == 0, res.stderr
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["outputs"]["path.csv"]["sha256"] == sha256(out_dir / "path.csv")
        digests.append(manifest["outputs"]["path.csv"]["sha256"])
    assert digests[0] == digests[1]


def test_simulate_reference_matches_golden_digests(tmp_path):
    """Every model's reference output is locked by the golden digests.

    Rewrite the golden file only on purpose, with

        PYTHONPATH=src python tests/golden.py
    """
    golden = json.loads(GOLDEN_PATH.read_text())["simulate"]
    for model in SIMULATE_MODELS:
        out_dir = tmp_path / model
        assert cli.main(["simulate", "--model", model, "--preset", "reference",
                         "--seed", "3", "--out", str(out_dir)]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["outputs"] == golden[model], model


def test_simulate_hawkes_price_emits_arrival_components(tmp_path):
    cfg = tmp_path / "sim.json"
    cfg.write_text(
        json.dumps(
            {
                "simulate": {
                    "horizon": 2000.0,
                    "params": {"mu": 0.015, "alpha_r": 0.023, "alpha_c": 0.05,
                               "beta": 0.11},
                }
            }
        )
    )
    out_dir = tmp_path / "run"
    res = run_cli("simulate", "--model", "hawkes-price", "--config", str(cfg),
                  "--out", str(out_dir))
    assert res.returncode == 0, res.stderr
    lines = (out_dir / "arrivals.csv").read_text().splitlines()
    assert lines[0] == "component,t"
    components = {line.split(",")[0] for line in lines[1:]}
    assert components <= {"up1", "down1", "up2", "down2"}
    assert (out_dir / "path.csv").exists()


# ---------------------------------------------------------------------------
# epps


def test_epps_figure_preset_outputs_and_manifest(tmp_path):
    out_dir = tmp_path / "fig"
    res = run_cli("epps", "--figure", "2a", "--replications", "2",
                  "--dt-grid", "5,15", "--out", str(out_dir))
    assert res.returncode == 0, res.stderr
    manifest = json.loads((out_dir / "manifest.json").read_text())
    for name in ("curve.csv", "curve.json", "theory.csv"):
        assert (out_dir / name).exists(), name
        assert manifest["outputs"][name]["sha256"] == sha256(out_dir / name)
    assert manifest["config"]["experiment"]["n_replications"] == 2
    doc = json.loads((out_dir / "curve.json").read_text())
    assert set(doc["series"]) == {"measured", "flat_trade", "overlap", "hy"}
    theory = (out_dir / "theory.csv").read_text().splitlines()
    assert theory[0] == "name,axis,value"
    assert any(row.startswith("induced_rho,") for row in theory[1:])


def test_epps_adhoc_config(tmp_path):
    cfg = small_gbm_config(tmp_path)
    out_dir = tmp_path / "run"
    res = run_cli("epps", "--config", str(cfg), "--out", str(out_dir))
    assert res.returncode == 0, res.stderr
    lines = (out_dir / "curve.csv").read_text().splitlines()
    assert lines[0] == "axis,estimator,mean,half_width,n_ok,n_fail"
    assert len(lines) == 1 + 2 * 2  # two estimators, two grid points


def test_epps_adhoc_modes_emit_verdicts(tmp_path):
    cfg = small_gbm_config(
        tmp_path,
        mean_interarrivals=[2.0, 4.0, 6.0, 8.0, 10.0],
    )
    doc = json.loads(cfg.read_text())
    doc["kind"] = "hy"
    cfg.write_text(json.dumps(doc))
    out_dir = tmp_path / "run"
    res = run_cli("epps", "--config", str(cfg), "--out", str(out_dir))
    assert res.returncode == 0, res.stderr
    verdict = json.loads((out_dir / "verdict.json").read_text())
    assert verdict["classification"] in ("discrete_events", "diffusion_like", "inconclusive")
    assert verdict["axis_label"] == "mean_interarrival"


@pytest.mark.parametrize("mode", ["nope", [1], {"a": 1}, None])
def test_epps_unknown_mode_is_a_usage_error_before_any_output(tmp_path, capsys, mode):
    # `kind` replaced `mode`, which is now an unknown key whatever its value
    cfg = small_gbm_config(tmp_path)
    doc = json.loads(cfg.read_text())
    doc["mode"] = mode
    cfg.write_text(json.dumps(doc))
    out_dir = tmp_path / "run"
    code = cli.main(["epps", "--config", str(cfg), "--out", str(out_dir)])
    assert code == 2
    assert capsys.readouterr().err == "error: config: unknown key 'mode'\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("kind", ["nope", [1], {"a": 1}, "hy_vs_interarrival"])
def test_epps_unknown_kind_is_a_usage_error_before_any_output(tmp_path, capsys, kind):
    cfg = adhoc_config(tmp_path, kind)
    out_dir = tmp_path / "run"
    assert cli.main(["epps", "--config", str(cfg), "--out", str(out_dir)]) == 2
    kinds = "epps, hy, multirate, kskip"
    assert capsys.readouterr().err == f"error: kind: expected one of {kinds}, got {kind!r}\n"
    assert not out_dir.exists()


def test_epps_adhoc_zero_baseline_hawkes_leaves_out_the_synchronous_overlay(tmp_path):
    # no events at all: theoretical_hawkes_correlation has no value to give
    cfg = small_gbm_config(
        tmp_path,
        price_model="hawkes",
        price_params={"mu": 0.0, "alpha_r": 0.02, "alpha_c": 0.05, "beta": 0.11},
    )
    out_dir = tmp_path / "run"
    assert cli.main(["epps", "--config", str(cfg), "--out", str(out_dir)]) == 0
    rows = (out_dir / "theory.csv").read_text().splitlines()
    assert rows[0] == "name,axis,value"
    assert {row.split(",")[0] for row in rows[1:]} == {"induced_rho"}
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert "theory.csv" in manifest["outputs"]


def test_epps_kmax_flag_only_for_kskip_figures(tmp_path):
    out = run_cli("epps", "--figure", "2a", "--kmax", "10",
                  "--out", str(tmp_path / "x"))
    assert out.returncode == 2
    assert "kmax" in out.stderr
    # an ad-hoc config of kind epps is no k-skip recipe
    cfg = small_gbm_config(tmp_path)
    for flags, flag in (
        (["--kmax", "7"], "--kmax"),
        (["--rates", "abc"], "--rates"),
        (["--kmax", "7", "--rates", "abc"], "--rates"),
    ):
        out_dir = tmp_path / "adhoc"
        out = run_cli("epps", "--config", str(cfg), *flags, "--out", str(out_dir))
        assert out.returncode == 2, flags
        assert f"error: {flag}" in out.stderr, flags
        assert not out_dir.exists(), flags


@pytest.mark.parametrize(
    "argv, field",
    [
        (["hy"], "experiment: mean_interarrivals"),
        (["--figure", "10a", "--kmax", "3"], "--kmax: k_max"),
        (["--figure", "10a", "--kmax", "0"], "--kmax: k_max"),
        (["--figure", "8b", "--rates", "1,2,3"], "--rates: mean_interarrivals"),
        (["taq", "--kmax", "3"], "--kmax"),
    ],
    ids=["adhoc_hy_3_rates", "kmax_3", "kmax_0", "figure_8b_3_rates", "taq_kmax_3"],
)
def test_unclassifiable_curves_are_refused_before_any_output(tmp_path, capsys, argv, field):
    # a classified curve needs MIN_VERDICT_POINTS points: refused before --out exists
    out_dir = tmp_path / "out"
    if argv[0] == "hy":
        cfg = adhoc_config(tmp_path, argv[0], mean_interarrivals=[2.0, 4.0, 6.0])
        argv = ["epps", "--config", str(cfg)]
    elif argv[0] == "taq":
        trades = tmp_path / "trades.csv"
        write_fixture(trades)
        argv = ["taq", "kskip", str(trades), "--pair", "AAA,BBB", *argv[1:]]
    else:
        argv = ["epps", *argv]
    assert cli.main([*argv, "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field}")
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "figure, flags",
    [
        ("2a", ["--rates", "1,2"]),
        ("8b", ["--dt-grid", "1,2"]),
        ("10b", ["--dt-grid", "1,2"]),
        ("10b", ["--rates", "1,2,3,4,5"]),
    ],
)
def test_axis_flags_the_recipe_does_not_read_are_refused(tmp_path, capsys, figure, flags):
    out_dir = tmp_path / "out"
    assert cli.main(["epps", "--figure", figure, *flags, "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {flags[0]} only applies to ")
    assert not out_dir.exists()


def test_a_kskip_figure_records_its_one_replication(tmp_path):
    out_dir = tmp_path / "out"
    assert cli.main(["epps", "--figure", "10a", "--replications", "5", "--out", str(out_dir)]) == 0
    experiment = json.loads((out_dir / "manifest.json").read_text())["config"]["experiment"]
    assert experiment["n_replications"] == 1


def test_rates_set_the_mean_interarrivals_of_a_hy_figure(tmp_path):
    out_dir = tmp_path / "out"
    argv = ["epps", "--figure", "8b", "--rates", "1,2,3,4,5", "--replications", "2"]
    assert cli.main([*argv, "--out", str(out_dir)]) == 0
    experiment = json.loads((out_dir / "manifest.json").read_text())["config"]["experiment"]
    assert experiment["mean_interarrivals"] == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert experiment["overlap_rates"] == list(presets.figure_recipe("8b").config.overlap_rates)
    curve = json.loads((out_dir / "curve.json").read_text())
    assert [p["axis"] for p in curve["series"]["hy"]] == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_rates_and_dt_grid_set_the_axes_of_a_multirate_run(tmp_path):
    cfg = adhoc_config(tmp_path, "multirate", estimators=["measured", "overlap"])
    out_dir = tmp_path / "out"
    argv = ["epps", "--config", str(cfg), "--rates", "2,5", "--dt-grid", "10,20,30"]
    assert cli.main([*argv, "--out", str(out_dir)]) == 0
    experiment = json.loads((out_dir / "manifest.json").read_text())["config"]["experiment"]
    assert experiment["overlap_rates"] == [2.0, 5.0]
    assert experiment["dt_grid"] == [10.0, 20.0, 30.0]
    for name in ("rate_2", "rate_5"):
        curve = json.loads((out_dir / f"{name}.json").read_text())
        assert [p["axis"] for p in curve["series"]["measured"]] == [10.0, 20.0, 30.0]


@pytest.mark.parametrize("config, flags", [({}, ["--seed", "-1"]), ({"seed": -1}, [])])
def test_simulate_refuses_a_negative_seed_before_any_output(tmp_path, capsys, config, flags):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out_dir = tmp_path / "out"
    argv = ["simulate", "--model", "gbm", "--preset", "reference", "--config", str(cfg)]
    assert cli.main([*argv, *flags, "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err.startswith("error: seed must be non-negative")
    assert not out_dir.exists()


def test_figure_recipes_match_golden_digests(tmp_path, monkeypatch):
    """Each preset's manifest config, as tests/golden.py runs it, without a replication."""
    golden = json.loads(GOLDEN_PATH.read_text())["recipes"]
    monkeypatch.setattr(
        cli, "run_figure", lambda recipe, **_: presets.FigureResult(recipe.name, recipe.kind, {})
    )
    digests = {}
    for name in presets.FIGURE_NAMES:
        out_dir = tmp_path / name
        assert cli.main([*figure_argv(name), "--out", str(out_dir)]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        digests[name] = recipe_digest(manifest["config"])
    assert digests == golden


def test_epps_adhoc_matches_golden_digests(tmp_path):
    """epps --config as every kind, with a verdict table, as tests/golden.py runs it."""
    golden = json.loads(GOLDEN_PATH.read_text())["adhoc"]
    assert adhoc_outputs(cli, tmp_path) == golden


def test_epps_adhoc_modes_on_two_workers_match_golden_digests_through_one_pool_each(
    tmp_path, monkeypatch
):
    pools = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    golden = json.loads(GOLDEN_PATH.read_text())["adhoc"]
    assert adhoc_outputs(cli, tmp_path, threads=2) == golden
    # multirate maps its (rate, replication) jobs over one pool too; kskip
    # runs one replication, so it starts no pool
    assert pools == [2] * (len(ADHOC_KINDS) - 1)


def test_figure_presets_on_two_workers_match_golden_digests(tmp_path):
    """Every preset's locked run with --threads 2 writes the bytes of the serial run."""
    golden = json.loads(GOLDEN_PATH.read_text())["epps"]
    digests = {}
    for name in presets.FIGURE_NAMES:
        out_dir = tmp_path / name
        assert cli.main([*figure_argv(name), "--threads", "2", "--out", str(out_dir)]) == 0
        digests[name] = json.loads((out_dir / "manifest.json").read_text())["outputs"]
    assert digests == golden


@pytest.mark.parametrize(
    "run", [*presets.FIGURE_NAMES, *(f"adhoc_{kind}" for kind in ADHOC_KINDS)]
)
def test_every_manifest_replays_to_the_same_outputs(tmp_path, run):
    """A manifest's config block, fed back with no flag, writes the same bytes."""
    if run in presets.FIGURE_NAMES:
        argv = ["--figure", run, "--replications", "2"]
    else:
        kind = run.removeprefix("adhoc_")
        doc = {"kind": kind, "experiment": ADHOC_CONFIG["experiment"], "replications": 2}
        if kind == "hy":  # a rule other than the default, recorded in verdict.json
            doc["verdict"] = {"tau_abs": 0.02, "z": 2.0}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        argv = ["--config", str(config)]
    assert cli.main(["epps", *argv, "--seed", "4", "--out", str(tmp_path / "run")]) == 0
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    replay = tmp_path / "replay.json"
    replay.write_text(json.dumps(manifest["config"]))
    assert cli.main(["epps", "--config", str(replay), "--out", str(tmp_path / "replay")]) == 0
    again = json.loads((tmp_path / "replay" / "manifest.json").read_text())
    assert again["outputs"] == manifest["outputs"]
    assert again["config"] == manifest["config"]


@pytest.mark.parametrize("kind", ["hy", "multirate"])
def test_rate_modes_refuse_a_sampler_they_do_not_draw_from(tmp_path, capsys, kind):
    # both kinds sample each rate by Poisson legs, so a hawkes sampler would be
    # recorded in the manifest of a run that never drew from it
    experiment = {**ADHOC_CONFIG["experiment"], "sampler": "hawkes",
                  "hawkes_sampler": HAWKES_CLOCK}
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"kind": kind, "experiment": experiment}))
    out_dir = tmp_path / "out"
    assert cli.main(["epps", "--config", str(config), "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err.startswith("error: experiment: sampler must be 'poisson'")
    assert not out_dir.exists()


@pytest.mark.parametrize("cpus", [1, 2])
def test_threads_past_the_cpus_start_one_worker_per_cpu(tmp_path, monkeypatch, cpus):
    # the fake pool records its size and runs the jobs in this process, so
    # --threads 3000 starts no process whatever it asks for
    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    out_dir = tmp_path / "out"
    argv = ["epps", "--figure", "2a", "--replications", "4", "--threads", "3000"]
    assert cli.main([*argv, "--out", str(out_dir)]) == 0
    assert json.loads((out_dir / "manifest.json").read_text())["notes"]["workers"] == cpus
    assert pools == ([] if cpus == 1 else [cpus])


@pytest.mark.parametrize("mode", ["hy", "figure"])
def test_epps_verdict_table_classifies_once(tmp_path, monkeypatch, mode):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1:] + tuple(kwargs.values()))
        return discriminate(*args, **kwargs)

    # every name a run could call it by
    monkeypatch.setattr(experiments, "discriminate", counting)
    monkeypatch.setattr(presets, "discriminate", counting)
    monkeypatch.setattr(cli, "discriminate", counting, raising=False)
    if mode == "figure":
        doc = {"figure": "10b", "verdict": {"tau_abs": 0.03, "z": 2.0}}
    else:
        doc = {**ADHOC_CONFIG, "kind": mode}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert cli.main(["epps", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
    tau_abs, z = doc["verdict"]["tau_abs"], doc["verdict"]["z"]
    assert len(calls) == 1
    verdict = json.loads((tmp_path / "run" / "verdict.json").read_text())
    assert (verdict["tau_abs"], verdict["z"]) == (tau_abs, z)


@pytest.mark.parametrize("table", ["top_level", "experiment"])
def test_epps_config_seed_and_replications_act_as_the_flags(tmp_path, table):
    experiment = {k: v for k, v in ADHOC_CONFIG["experiment"].items()
                  if k not in ("seed", "n_replications")}
    flagged = tmp_path / "flagged.json"
    flagged.write_text(json.dumps({"experiment": experiment}))
    if table == "top_level":
        doc = {"seed": 9, "replications": 2, "experiment": experiment}
    else:
        doc = {"experiment": {**experiment, "seed": 9, "n_replications": 2}}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    runs = {
        "flags": ["--config", str(flagged), "--seed", "9", "--replications", "2"],
        "config": ["--config", str(config)],
    }
    manifests = {}
    for name, argv in runs.items():
        assert cli.main(["epps", *argv, "--out", str(tmp_path / name)]) == 0
        manifests[name] = json.loads((tmp_path / name / "manifest.json").read_text())
    for m in manifests.values():
        assert m["seed"] == 9
        assert m["config"]["experiment"]["n_replications"] == 2
    assert manifests["config"]["outputs"]["curve.csv"] == manifests["flags"]["outputs"]["curve.csv"]
    # a flag still outranks the config's keys
    argv = ["epps", "--config", str(config), "--seed", "4", "--replications", "3"]
    assert cli.main([*argv, "--out", str(tmp_path / "flag_wins")]) == 0
    manifest = json.loads((tmp_path / "flag_wins" / "manifest.json").read_text())
    assert manifest["seed"] == 4
    assert manifest["config"]["experiment"]["n_replications"] == 3


# ---------------------------------------------------------------------------
# taq


def test_taq_matches_golden_digests(tmp_path):
    """taq stats|epps|kskip on the seeded pair of trade files of tests/golden.py."""
    golden = json.loads(GOLDEN_PATH.read_text())["taq"]
    assert taq_outputs(cli, tmp_path) == golden


def test_taq_stats_exact_fixture_means(tmp_path):
    src = tmp_path / "trades.csv"
    src.write_text(
        f"{HEADER}\n"
        "2023-01-02,AAA,0.0,100,1\n"
        "2023-01-02,AAA,2.0,100.5,1\n"
        "2023-01-02,AAA,6.0,101,1\n"
        "2023-01-03,AAA,0.0,100,1\n"
        "2023-01-03,AAA,3.0,100.2,1\n"
        "2023-01-02,BBB,5.0,50,1\n"
    )
    out_dir = tmp_path / "stats"
    res = run_cli("taq", "stats", str(src), "--out", str(out_dir))
    assert res.returncode == 0, res.stderr
    table = json.loads((out_dir / "stats.json").read_text())
    assert table["AAA"]["mean_interarrival"] == pytest.approx(3.0, abs=1e-12)
    assert table["AAA"]["sd_interarrival"] == pytest.approx(1.0, abs=1e-12)
    assert table["AAA"]["n_days"] == 2
    assert table["AAA"]["n_trades"] == 5
    csv_lines = (out_dir / "stats.csv").read_text().splitlines()
    assert csv_lines[0] == "ticker,mean_interarrival,sd_interarrival,n_days,n_trades"
    assert len(csv_lines) == 3


def test_taq_epps_and_scaled_curve(tmp_path):
    src = tmp_path / "trades.csv"
    write_fixture(src)
    out_dir = tmp_path / "epps"
    res = run_cli("taq", "epps", str(src), "--pair", "AAA,BBB",
                  "--dt-grid", "60,300,900", "--out", str(out_dir))
    assert res.returncode == 0, res.stderr
    for name in ("curve.csv", "curve.json", "curve_scaled.csv", "curve_scaled.json"):
        assert (out_dir / name).exists(), name
    scaled = json.loads((out_dir / "curve_scaled.json").read_text())
    assert "saturation_level" in scaled["meta"]


def test_taq_kskip_verdict_contract(tmp_path):
    src = tmp_path / "trades.csv"
    write_fixture(src)
    out_dir = tmp_path / "kskip"
    res = run_cli("taq", "kskip", str(src), "--pair", "AAA,BBB",
                  "--kmax", "10", "--out", str(out_dir))
    assert res.returncode == 0, res.stderr
    verdict = json.loads((out_dir / "verdict.json").read_text())
    for key in ("classification", "gap", "threshold", "tau_abs", "z", "n_points"):
        assert key in verdict, key
    lines = (out_dir / "curve.csv").read_text().splitlines()
    assert len(lines) == 11


def test_taq_corrupt_row_warns_and_continues(tmp_path):
    src = tmp_path / "trades.csv"
    src.write_text(
        f"{HEADER}\n"
        "2023-01-02,AAA,0.0,100,1\n"
        "2023-01-02,AAA,garbage,100,1\n"
        "2023-01-02,AAA,2.0,100.5,1\n"
    )
    res = run_cli("taq", "stats", str(src), "--out", str(tmp_path / "out"))
    assert res.returncode == 0
    assert "line 3" in res.stderr
    table = json.loads((tmp_path / "out" / "stats.json").read_text())
    assert table["AAA"]["n_trades"] == 2


def test_taq_zero_usable_days_is_fatal(tmp_path):
    src = tmp_path / "trades.csv"
    src.write_text(
        f"{HEADER}\n"
        "2023-01-02,AAA,10.0,100,1\n"
        "2023-01-02,AAA,20.0,100.5,1\n"
        "2023-01-02,BBB,28500.0,50,1\n"
    )
    res = run_cli("taq", "kskip", str(src), "--pair", "AAA,BBB",
                  "--out", str(tmp_path / "out"))
    assert res.returncode == 3
    assert "zero usable days" in res.stderr


def test_taq_file_that_is_not_utf8_is_a_data_error(tmp_path):
    src = tmp_path / "trades.csv"
    text = f"{HEADER}\n2023-01-02,AAA,0.0,100,1\n2023-01-02,Caf\xe9,1.0,5,1\n"
    src.write_bytes(text.encode("latin-1"))
    res = run_cli("taq", "stats", str(src), "--out", str(tmp_path / "out"))
    assert res.returncode == 3
    assert "Traceback" not in res.stderr
    assert f"{src}: not UTF-8 text: byte 0xe9 at offset 74" in res.stderr


@pytest.mark.parametrize(
    "command, flags",
    [
        ("kskip", ["--pair", "AAA,BBB", "--dt-grid", "5,30"]),
        ("epps", ["--pair", "AAA,BBB", "--kmax", "7"]),
        ("stats", ["--pair", "AAA,BBB"]),
    ],
)
def test_taq_flags_the_command_does_not_read_are_refused(tmp_path, capsys, command, flags):
    trades = tmp_path / "trades.csv"
    write_fixture(trades)
    out_dir = tmp_path / "out"
    assert cli.main(["taq", command, str(trades), *flags, "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {flags[-2]} only applies to taq ")
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["stats", "epps", "kskip"])
def test_taq_refuses_a_seed(tmp_path, capsys, command):
    # a trade file is read, not drawn, so no seed reaches a taq run: the flag
    # is refused before the (missing) trade file is read or --out is made
    out_dir = tmp_path / "out"
    argv = ["taq", command, "MISSING", "--pair", "AAA,BBB", "--seed", "5", "--out", str(out_dir)]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err
    assert not out_dir.exists()


GRID_BOUND = "needs more than 100000000 grid steps"
EVENT_BOUND = "events, more than 5000000"
HAWKES_PRICE = {"mu": 0.015, "alpha_r": 0.023, "alpha_c": 0.05, "beta": 0.11}


@pytest.mark.parametrize(
    "argv, config, message, named",
    [
        (["epps"], {"figure": ["2a"]}, "error: figure: expected one of 2a, ", "['2a']"),
        (["epps"], {"figure": {}}, "error: figure: expected one of 2a, ", "{}"),
        (["epps", "--figure", "10b"], {"verdict": {"tau": 0.5}}, "error: verdict: ", "'tau'"),
        # the trade file is missing: the config is refused before any file is read
        (["taq", "kskip", "MISSING", "--pair", "AAA,BBB"], {"verdict": {"tau": 0.5}},
         "error: verdict: ", "'tau'"),
        (["taq", "epps", "MISSING", "--pair", "AAA,BBB"], {"taq": {"kmaxx": 7}},
         "error: taq: ", "'kmaxx'"),
        (["taq", "kskip", "MISSING", "--pair", "AAA,BBB"], {"taq": {"kmax": 3}},
         "error: taq.kmax: expected an integer >= 5", "got 3"),
        # grids past the size bound, refused before any grid is allocated
        (["epps", "--figure", "2a", "--replications", "2", "--dt-grid", "1e-300,1"], {},
         "error: --dt-grid: dt_grid: horizon 72000.0 at step 1e-300 ", GRID_BOUND),
        (["taq", "epps", "MISSING", "--pair", "AAA,BBB", "--dt-grid", "1e-300,1"], {},
         "error: --dt-grid: horizon 28200.0 at step 1e-300 ", GRID_BOUND),
        (["taq", "stats", "MISSING"], {"taq": {"dt_grid": [1e-300, 1.0]}},
         "error: taq.dt_grid: horizon 28200.0 at step 1e-300 ", GRID_BOUND),
        (["simulate", "--model", "gbm", "--preset", "reference"], {"simulate": {"horizon": 1e300}},
         "error: simulate.horizon: horizon 1e+300 at step 1.0 ", GRID_BOUND),
        (["simulate", "--model", "hawkes-price", "--preset", "reference"],
         {"simulate": {"horizon": 1e300}}, "error: simulate.horizon: horizon 1e+300 at step 1.0 ",
         GRID_BOUND),
        # Poisson legs past the tick bound and overlap windows past the grid bound
        (["epps", "--figure", "8b", "--replications", "2", "--rates", "1e-300,1,2,3,4"], {},
         "error: --rates: mean_interarrivals entry 1e-300: rate ",
         "expects 7.2e+304 ticks, past the 9.9e+06 at which 0.01 pairs of equal float64 arrival times"),
        (["epps"], {"experiment": {**ADHOC_CONFIG["experiment"], "kappa_stride": 1e-300}},
         "error: experiment: kappa_stride: horizon 2000.0 at step 1e-300 ", GRID_BOUND),
        # Hawkes processes expected to draw more events than simulate_hawkes may
        (["epps"], {"experiment": {
            **ADHOC_CONFIG["experiment"], "sampler": "hawkes",
            "hawkes_sampler": {**HAWKES_CLOCK, "lambda0": [1e300, 1e300]}}},
         "error: experiment: hawkes_sampler: Hawkes process over horizon 2000.0 ", EVENT_BOUND),
        (["epps"], {"experiment": {**ADHOC_CONFIG["experiment"], "price_model": "hawkes",
                                   "price_params": {**HAWKES_PRICE, "mu": 1e6}}},
         "error: experiment: price_params: Hawkes process over horizon 2000.0 ", EVENT_BOUND),
        (["simulate", "--model", "hawkes-price"],
         {"simulate": {"params": {**HAWKES_PRICE, "mu": 1e6}}},
         "error: simulate.params: Hawkes process over horizon 72000.0 ", EVENT_BOUND),
        # every top-level key and table of every command is read by its fields
        (["simulate", "--model", "gbm", "--preset", "reference"],
         {"seeed": 9, "simulte": {"horizon": 10}}, "error: config: unknown key ", "'seeed'"),
        (["simulate", "--model", "gbm", "--preset", "reference"], {"simulate": {"horizn": 10}},
         "error: simulate: unknown key ", "'horizn'"),
        (["taq", "stats", "MISSING"], {"tqa": {"kmax": 7}}, "error: config: unknown key ", "'tqa'"),
        (["epps"], {"mdoe": "hy_vs_interarrival", "verdcit": {"z": -1}},
         "error: config: unknown key ", "'mdoe'"),
        # a figure sets its own kind, k_max and experiment
        (["epps"], {"figure": "2a", "experiment": {**ADHOC_CONFIG["experiment"], "dt_grid": [1, 2]}},
         "error: experiment: not with figure 2a", "sets its own"),
        (["epps", "--figure", "8b"], {"kind": "multirate"}, "error: kind: not with figure 8b", "sets its own"),
        (["epps", "--figure", "10a"], {"k_max": 10}, "error: k_max: not with figure 10a", "sets its own"),
        (["epps"], {"experiment": ADHOC_CONFIG["experiment"], "k_max": 10},
         "error: k_max only applies to kskip documents", "'epps'"),
        (["epps"], {"kind": "kskip", "experiment": ADHOC_CONFIG["experiment"], "k_max": 3},
         "error: k_max: k_max must be an integer >= 5", "got 3"),
        (["epps"], {"experiment": {**ADHOC_CONFIG["experiment"], "sampler": "hawkes",
                                   "hawkes_sampler": {**HAWKES_CLOCK, "lambda0": [True, True]}}},
         "error: experiment.hawkes_sampler: lambda0 must hold numbers", "[True, True]"),
        # Poisson legs likely to draw two equal float64 times
        (["epps", "--figure", "8b", "--replications", "2", "--rates", "0.001,1,2,3,4"], {},
         "error: --rates: mean_interarrivals entry 0.001: rate 1000.0 over horizon 72000.0 ",
         "expects 0.52 pairs of equal float64 arrival times, at most 0.01 are allowed"),
        (["epps"], {"experiment": {**ADHOC_CONFIG["experiment"], "poisson_rate": 1e4}},
         "error: experiment: poisson_rate: rate 10000.0 over horizon 2000.0 ",
         "expects 0.023 pairs of equal float64 arrival times"),
        # replication counts past the replication bound, which would run until memory ran out
        (["epps"], {"experiment": {**SMALL_GBM, "n_replications": 1e308}},
         "error: experiment: n_replications must be an integer in [1, 1000000]",
         "got 1e+308"),
        (["epps"], {"experiment": {**SMALL_GBM, "n_replications": 2**63}},
         "error: experiment: n_replications must be an integer in [1, 1000000]",
         "got 9223372036854775808"),
    ],
)
def test_bad_config_values_and_keys_are_refused_before_any_output(
    tmp_path, argv, config, message, named
):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out_dir = tmp_path / "out"
    argv = [str(tmp_path / "missing.csv") if a == "MISSING" else a for a in argv]
    res = run_cli(*argv, "--config", str(cfg), "--out", str(out_dir))
    assert res.returncode == 2
    assert res.stderr.startswith(message)
    assert named in res.stderr
    assert "Traceback" not in res.stderr
    assert not out_dir.exists()


def test_poisson_times_that_collide_all_the_same_exit_4_naming_the_leg(
    tmp_path, capsys, monkeypatch
):
    # a rate the config accepts still draws two equal float64 times with a
    # small chance; a zero gap stands in for one that rounds away
    real = seeding.stream

    class ZeroGap:
        def __init__(self, rng):
            self.rng = rng

        def standard_exponential(self, size):
            gaps = self.rng.standard_exponential(size=size)
            gaps[5] = 0.0
            return gaps

    def stream(seed, *ids):
        rng = real(seed, *ids)
        return ZeroGap(rng) if ids == (seeding.POISSON,) else rng

    monkeypatch.setattr(seeding, "stream", stream)
    out_dir = tmp_path / "out"
    argv = ["epps", "--figure", "8b", "--replications", "1", "--rates", "15,30,45,60,75"]
    assert cli.main([*argv, "--out", str(out_dir)]) == 4
    assert capsys.readouterr().err == (
        "error: rate 0.06666666666666667 over horizon 72000.0 "
        "drew two equal float64 arrival times\n"
    )


@pytest.mark.filterwarnings("error::RuntimeWarning")  # numpy's overflow warning must not leak
@pytest.mark.parametrize("estimator", ["measured", "hy"])
def test_an_overflowing_realised_variance_exits_4_naming_the_estimator(
    tmp_path, capsys, estimator
):
    # asset 1's returns are about 1e154 a step, so their squares overflow
    # and the realised variance of leg i reads inf
    cfg = small_gbm_config(
        tmp_path, price_params={**SMALL_GBM["price_params"], "sigma_sq1": 1e308},
        estimators=[estimator], n_replications=2,
    )
    out_dir = tmp_path / "out"
    code = cli.main(["epps", "--config", str(cfg), "--threads", "1", "--out", str(out_dir)])
    assert code == 4
    assert capsys.readouterr().err == (
        f"error: {estimator}: the realised variance of leg i is inf, not a finite number\n"
    )
    assert not out_dir.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")  # no numpy warning may leak either
@pytest.mark.parametrize("sampler, estimator", [
    ({"sampler": "poisson"}, "hy"),  # estimate_matrix forms HY first
    ({"sampler": "synchronous", "estimators": ["measured"]}, "measured"),
])
def test_a_product_of_variances_that_underflows_exits_4_naming_it(
    tmp_path, capsys, sampler, estimator
):
    # returns of about 1e-102 a step: each realised variance is about 1e-200
    # and their product underflows to 0, which no correlation can divide by
    params = {**SMALL_GBM["price_params"], "mu1": 0.0, "mu2": 0.0,
              "sigma_sq1": 1e-200, "sigma_sq2": 1e-200}
    cfg = small_gbm_config(tmp_path, price_params=params, **sampler)
    out_dir = tmp_path / "out"
    assert cli.main(["epps", "--config", str(cfg), "--threads", "1", "--out", str(out_dir)]) == 4
    assert capsys.readouterr().err == (
        f"error: {estimator}: the product of the realised variances underflows to 0\n"
    )
    assert not out_dir.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_poisson_rate_whose_gaps_overflow_runs_without_a_warning(tmp_path, capsys):
    # at rate 1e-308 the scaled gaps and their sums overflow to inf, past the
    # horizon as they should be; numpy's overflow warning must not leak
    cfg = small_gbm_config(tmp_path, poisson_rate=1e-308, n_replications=2)
    out_dir = tmp_path / "out"
    assert cli.main(["epps", "--config", str(cfg), "--threads", "1", "--out", str(out_dir)]) == 0
    assert capsys.readouterr().err == ""
    assert (out_dir / "curve.csv").exists()


FAST_DECAY = 1e13  # delays far below an ulp of the times they are added to


@pytest.mark.parametrize("argv, config", [
    (["epps"], {"kind": "epps", "experiment": {
        **ADHOC_CONFIG["experiment"], "price_params": {
            **ADHOC_CONFIG["experiment"]["price_params"], "horizon": 3600.0},
        "horizon": 3600.0, "n_replications": 1, "sampler": "hawkes", "hawkes_sampler": {
            "lambda0": [0.5, 0.5], "alpha": [[0.0, 0.9 * FAST_DECAY], [0.9 * FAST_DECAY, 0.0]],
            "beta": [[FAST_DECAY] * 2] * 2}}}),
    (["simulate", "--model", "hawkes-price"], {"simulate": {"horizon": 3600.0, "params": {
        "mu": 0.5, "alpha_r": 0.023 / 0.11 * FAST_DECAY, "alpha_c": 0.05 / 0.11 * FAST_DECAY,
        "beta": FAST_DECAY}}}),
], ids=["hawkes_sampler", "hawkes_price"])
def test_hawkes_times_that_collide_exit_4_naming_the_kernel(tmp_path, capsys, argv, config):
    # a stationary kernel with a fast decay draws children at delays that
    # round away, so two event times of a component are equal
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    assert cli.main([*argv, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: Hawkes simulation drew two equal float64 event times in component ")
    assert err.endswith("fastest decay 1e+13, horizon 3600.0)\n")
    assert "spectral radius 0." in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()  # the failed run removes the --out it made
    # an --out that was there before the run stays, with what it held
    (tmp_path / "kept").mkdir()
    (tmp_path / "kept" / "notes.txt").write_text("mine")
    assert cli.main([*argv, "--config", str(cfg), "--out", str(tmp_path / "kept")]) == 4
    assert [p.name for p in (tmp_path / "kept").iterdir()] == ["notes.txt"]
    (tmp_path / "empty").mkdir()
    assert cli.main([*argv, "--config", str(cfg), "--out", str(tmp_path / "empty")]) == 4
    assert (tmp_path / "empty").is_dir()


def test_an_unwritable_out_is_refused_before_any_work(tmp_path, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli, "run_figure", no_work)
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "out"  # under a file: no directory can be made there
    assert cli.main(["epps", "--figure", "2a", "--replications", "2", "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith(f"error: cannot create output directory {str(out)!r}")


def test_taq_pair_flag_required(tmp_path):
    src = tmp_path / "trades.csv"
    src.write_text(f"{HEADER}\n2023-01-02,AAA,0.0,100,1\n")
    res = run_cli("taq", "epps", str(src), "--out", str(tmp_path / "out"))
    assert res.returncode == 2
    assert "--pair" in res.stderr


def test_golden_tool_lists_changed_entries():
    old = {"epps": {"2a": {"a.csv": 1}, "5": {"a.csv": 1}, "9": {}}, "simulate": {"gbm": {}}}
    new = {"epps": {"2a": {"a.csv": 1}, "5": {"a.csv": 2}, "6a": {}}, "simulate": {"gbm": {}}}
    assert changed_entries(old, new) == ["changed: epps 5 a.csv", "added: epps 6a", "removed: epps 9"]
    assert changed_entries(new, new) == ["no entry changed"]
    # an entry that is one digest, not a table of output files, names no file
    assert changed_entries({"recipes": {"5": "x"}}, {"recipes": {"5": "y"}}) == ["changed: recipes 5"]


def test_golden_check_lists_changed_entries_and_rewrites_nothing(tmp_path, monkeypatch, capsys):
    path = tmp_path / "golden_digests.json"
    fresh = {"epps": {"2a": {"a.csv": 1}, "5": {"a.csv": 2}}, "simulate": {"gbm": {}}}
    monkeypatch.setattr(golden, "GOLDEN_PATH", path)
    monkeypatch.setattr(golden, "current_digests", lambda: fresh)
    path.write_text(json.dumps(fresh))
    assert golden.main(["--check"]) == 0
    assert capsys.readouterr().out == "no entry changed\n"
    stale = '{"epps": {"2a": {"a.csv": 1}, "5": {"a.csv": 1}}}'
    path.write_text(stale)
    assert golden.main(["--check"]) == 1
    assert capsys.readouterr().out == "changed: epps 5 a.csv\nadded: simulate gbm\n"
    assert path.read_text() == stale
    assert golden.main([]) == 0
    assert json.loads(path.read_text()) == fresh
