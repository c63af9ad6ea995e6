"""Command-line interface: exit codes, manifests, determinism, TAQ flows."""

import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from eppsim import cli
from golden import GOLDEN_PATH, SIMULATE_MODELS, changed_entries, taq_outputs

HEADER = "date,ticker,timestamp,price,volume"


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


def small_gbm_config(tmp_path, **experiment):
    base = {
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
    base.update(experiment)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"experiment": base}))
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
    ],
)
def test_bad_numeric_values_are_usage_errors(tmp_path, capsys, command, config, flags, field):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    trades = tmp_path / "trades.csv"
    write_fixture(trades)
    argv = {
        "epps": ["epps", "--figure", "10b"],
        "simulate": ["simulate", "--model", "gbm", "--preset", "reference"],
        "taq": ["taq", "kskip", str(trades), "--pair", "AAA,BBB"],
    }[command]
    code = cli.main([*argv, "--config", str(cfg), *flags, "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"error: {field}" in capsys.readouterr().err


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
            {
                "sampler": "hawkes",
                "hawkes_sampler": {"baseline": 0.1, "amplitude": "x", "decay": 1},
            },
            "experiment.hawkes_sampler.amplitude",
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
            {
                "sampler": "hawkes",
                "hawkes_sampler": {"baseline": 0.1, "amplitude": 2, "decay": 1},
            },
            "hawkes_sampler",
        ),
    ],
)
def test_bad_experiment_fields_are_named(tmp_path, capsys, experiment, field):
    cfg = small_gbm_config(tmp_path, **experiment)
    code = cli.main(["epps", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"error: {field}: " in capsys.readouterr().err


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
    doc["mode"] = "hy_vs_interarrival"
    cfg.write_text(json.dumps(doc))
    out_dir = tmp_path / "run"
    res = run_cli("epps", "--config", str(cfg), "--out", str(out_dir))
    assert res.returncode == 0, res.stderr
    verdict = json.loads((out_dir / "verdict.json").read_text())
    assert verdict["classification"] in ("discrete_events", "diffusion_like", "inconclusive")
    assert verdict["axis_label"] == "mean_interarrival"


def test_epps_kmax_flag_only_for_kskip_figures(tmp_path):
    out = run_cli("epps", "--figure", "2a", "--kmax", "10",
                  "--out", str(tmp_path / "x"))
    assert out.returncode == 2
    assert "kmax" in out.stderr


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


def test_taq_pair_flag_required(tmp_path):
    src = tmp_path / "trades.csv"
    src.write_text(f"{HEADER}\n2023-01-02,AAA,0.0,100,1\n")
    res = run_cli("taq", "epps", str(src), "--out", str(tmp_path / "out"))
    assert res.returncode == 2
    assert "--pair" in res.stderr


def test_golden_tool_lists_changed_entries():
    old = {"epps": {"2a": {"a.csv": 1}, "5": {"a.csv": 1}, "9": {}}, "simulate": {"gbm": {}}}
    new = {"epps": {"2a": {"a.csv": 1}, "5": {"a.csv": 2}, "6a": {}}, "simulate": {"gbm": {}}}
    assert changed_entries(old, new) == ["changed: epps 5", "added: epps 6a", "removed: epps 9"]
    assert changed_entries(new, new) == ["no entry changed"]
