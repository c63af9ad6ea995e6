"""Rewrite golden_digests.json, the behaviour lock of the CLI's outputs.

The file holds the manifest `outputs` block (sha256 and size of every file
a run writes) of

    eppsim epps --figure NAME --seed 3 --replications 3      (every preset)
    eppsim epps --config adhoc.json                           (every recipe kind)
    eppsim simulate --model MODEL --preset reference --seed 3 (every model)
    eppsim taq COMMAND a.csv b.csv ...                        (stats, epps, kskip)

where adhoc.json is ADHOC_CONFIG with its kind set, and a.csv and b.csv
are the seeded trade files of `write_trade_files`. Its `recipes` section
holds, for each preset run, the sha256 of the manifest `config` block (the
run document as resolved: kind, k_max, threads, verdict rule and
experiment), so a recipe field that no output reads is locked as well. `test_11`, `test_figure_recipes_match_golden_digests`,
`test_epps_adhoc_matches_golden_digests`,
`test_simulate_reference_matches_golden_digests` and
`test_taq_matches_golden_digests` compare fresh runs against it.
Rewriting it is a deliberate act, for a change that
is meant to alter output bytes (such as a new way of drawing random
numbers), and is logged in CHANGES.md with its reason:

    PYTHONPATH=src python tests/golden.py

It prints to stderr the entries whose digests changed, for that log. With
--check it rewrites nothing: it prints the entries whose digests would
change and exits 1 if any would, so a change that must keep every output
byte can show that it did:

    PYTHONPATH=src python tests/golden.py --check
"""

import argparse
import contextlib
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

GOLDEN_PATH = Path(__file__).with_name("golden_digests.json")
SEED = "3"
REPLICATIONS = "3"
SIMULATE_MODELS = ("gbm", "merton", "hawkes-price")
# a small gbm/Poisson experiment with a verdict table, run as every kind
ADHOC_KINDS = ("epps", "hy", "multirate", "kskip")
ADHOC_CONFIG = {
    "experiment": {
        "price_model": "gbm",
        "price_params": {
            "mu1": 0.01, "mu2": 0.01, "sigma_sq1": 0.1, "sigma_sq2": 0.2,
            "rho": 0.65, "horizon": 2000.0,
        },
        "sampler": "poisson",
        "poisson_rate": 0.2,
        "horizon": 2000.0,
        "dt_grid": [2.0, 5.0, 15.0, 30.0],
        "n_replications": 3,
        "seed": 5,
        "mean_interarrivals": [2.0, 4.0, 6.0, 8.0, 10.0],
        "overlap_rates": [2.0, 10.0],
    },
    "verdict": {"tau_abs": 0.02, "z": 2.0},
}
TAQ_ARGS = {
    "stats": [],
    "epps": ["--pair", "AAA,BBB", "--dt-grid", "5,30,120,600"],
    "kskip": ["--pair", "AAA,BBB", "--kmax", "8"],
}

# rows every parse must reject, one per diagnostic kind, and rows it must
# read despite their blank lines and padding
_ODD_ROWS = (
    "{date},{ticker},{ts},{px}",
    "{date},{ticker},{ts},{px},100,7",
    "2024-02-30,{ticker},{ts},{px},100",
    "{date},,{ts},{px},100",
    "{date},{ticker},09:30:00,{px},100",
    "{date},{ticker},{ts}.5.1,{px},100",
    "{date},{ticker},-{ts},{px},100",
    "{date},{ticker},inf,{px},100",
    "{date},{ticker},{ts},n/a,100",
    "{date},{ticker},{ts},-{px},100",
    "{date},{ticker},{ts},nan,100",
    "{date},{ticker},{ts},{px},0",
    "",
    "   ",
    " {date} , {ticker} , {ts} , {px} , 300 ",
)


def write_trade_files(directory: Path, seed: int = 3) -> list[Path]:
    """Two seeded trade files of three tickers over five days, for the taq lock.

    Each row kind of _ODD_ROWS appears in both files; AAA trades ten
    times at one timestamp on the second day; the third day is split
    between the files with some timestamps in both, so `combine` merges
    across files; on the fifth day BBB trades only after the 28 200 s
    window, so that day is skipped.
    """
    rng = np.random.default_rng([seed, 0x7A9])
    dates = ("2024-03-04", "2024-03-05", "2024-03-06", "2024-03-07", "2024-03-08")
    rows = ([], [])
    for d, date in enumerate(dates):
        for ticker, base in (("AAA", 50.0), ("BBB", 80.0), ("CCC", 20.0)):
            ms = np.sort(rng.integers(0, 28_300_000, size=300))
            late = ticker == "BBB" and d == 4
            if late:
                ms = 28_200_001 + ms % 90_000
            px = base * np.exp(np.cumsum(rng.normal(0.0, 2e-3, ms.size)))
            vol = rng.integers(1, 40, size=ms.size) * 100
            lines = [f"{date},{ticker},{m / 1000:.3f},{p:.4f},{v}" for m, p, v in zip(ms, px, vol)]
            if ticker == "AAA" and d == 1:
                lines += [f"{date},AAA,1000.125,{50 + k / 8:.4f},{100 * (k + 1)}"
                          for k in range(10)]
            for k, kind in enumerate(_ODD_ROWS):
                ts = f"{(28250.5 if late else 17.5) + k:.3f}"
                row = kind.format(date=date, ticker=ticker, ts=ts, px="12.5")
                lines.insert(int(rng.integers(len(lines))), row)
            if d < 2:
                rows[0].extend(lines)
            elif d > 2:
                rows[1].extend(lines)
            else:
                shared = rng.random(len(lines)) < 0.2
                for i, (line, both) in enumerate(zip(lines, shared)):
                    if both or i % 2:
                        rows[0].append(line)
                    if both or not i % 2:
                        rows[1].append(line)
    paths = []
    for name, lines in zip(("a.csv", "b.csv"), rows):
        path = directory / name
        path.write_text("date,ticker,timestamp,price,volume\n" + "\n".join(lines) + "\n")
        paths.append(path)
    return paths


def _manifest(cli, argv, out_dir: Path) -> dict:
    code = cli.main([*argv, "--out", str(out_dir)])
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return json.loads((out_dir / "manifest.json").read_text())


def _outputs(cli, argv, out_dir: Path) -> dict:
    return _manifest(cli, argv, out_dir)["outputs"]


def figure_argv(name: str) -> list[str]:
    """The locked run of the figure preset called name."""
    return ["epps", "--figure", name, "--seed", SEED, "--replications", REPLICATIONS]


def recipe_digest(config: dict) -> str:
    """sha256 of a manifest's config block, as the recipes section holds it."""
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()


def taq_outputs(cli, tmp: Path) -> dict:
    """Manifest outputs of every taq command on the two seeded trade files."""
    files = [str(p) for p in write_trade_files(tmp)]
    return {
        command: _outputs(cli, ["taq", command, *files, *args], tmp / f"taq_{command}")
        for command, args in TAQ_ARGS.items()
    }


def adhoc_outputs(cli, tmp: Path, **top_level) -> dict:
    """Manifest outputs of `epps --config` of ADHOC_CONFIG as every kind,
    with the top-level config keys top_level added (such as threads)."""
    out = {}
    for kind in ADHOC_KINDS:
        config = tmp / f"adhoc_{kind}.json"
        config.write_text(json.dumps({**ADHOC_CONFIG, **top_level, "kind": kind}))
        out[kind] = _outputs(cli, ["epps", "--config", str(config)], tmp / f"adhoc_{kind}")
    return out


def current_digests() -> dict:
    """The manifest outputs of every locked run, made now."""
    from eppsim import cli
    from eppsim.presets import FIGURE_NAMES

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        figures = {
            name: _manifest(cli, figure_argv(name), tmp / f"fig{name}") for name in FIGURE_NAMES
        }
        return {
            "epps": {name: m["outputs"] for name, m in figures.items()},
            "recipes": {name: recipe_digest(m["config"]) for name, m in figures.items()},
            "adhoc": adhoc_outputs(cli, tmp),
            "simulate": {
                model: _outputs(
                    cli,
                    ["simulate", "--model", model, "--preset", "reference", "--seed", SEED],
                    tmp / model,
                )
                for model in SIMULATE_MODELS
            },
            "taq": taq_outputs(cli, tmp),
        }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Rewrite or check golden_digests.json.")
    ap.add_argument("--check", action="store_true",
                    help="print the entries that would change and exit 1 if any would; "
                         "rewrite nothing")
    args = ap.parse_args(argv)
    with contextlib.redirect_stdout(sys.stderr):  # the runs' progress lines
        doc = current_digests()
    old = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    lines = changed_entries(old, doc)
    if args.check:
        for line in lines:
            print(line)
        return int(doc != old)
    GOLDEN_PATH.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}", file=sys.stderr)
    for line in lines:
        print(line, file=sys.stderr)
    return 0


def changed_entries(old: dict, new: dict) -> list[str]:
    """'changed: SECTION NAME FILE...' (or added/removed) for every differing
    entry; a changed entry of output files names those that differ in it."""
    lines = []
    for section in sorted(old.keys() | new.keys()):
        before, after = old.get(section, {}), new.get(section, {})
        for name in sorted(before.keys() | after.keys()):
            if name not in before:
                lines.append(f"added: {section} {name}")
            elif name not in after:
                lines.append(f"removed: {section} {name}")
            elif before[name] != after[name]:
                b, a, files = before[name], after[name], []
                if isinstance(b, dict) and isinstance(a, dict):  # output file -> digest
                    files = sorted(f for f in b.keys() | a.keys() if b.get(f) != a.get(f))
                lines.append(" ".join([f"changed: {section} {name}", *files]))
    return lines or ["no entry changed"]


if __name__ == "__main__":
    sys.exit(main())
