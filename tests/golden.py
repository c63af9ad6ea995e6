"""Rewrite golden_digests.json, the behaviour lock of the CLI's outputs.

The file holds the manifest `outputs` block (sha256 and size of every file
a run writes) of

    eppsim epps --figure NAME --seed 3 --replications 3      (every preset)
    eppsim simulate --model MODEL --preset reference --seed 3 (every model)
    eppsim taq COMMAND a.csv b.csv ...                        (stats, epps, kskip)

where a.csv and b.csv are the seeded trade files of `write_trade_files`.
`test_11`, `test_simulate_reference_matches_golden_digests` and
`test_taq_matches_golden_digests` compare fresh runs against it.
Rewriting it is a deliberate act, for a change that
is meant to alter output bytes (such as a new way of drawing random
numbers), and is logged in CHANGES.md with its reason:

    PYTHONPATH=src python tests/golden.py

It prints to stderr the entries whose digests changed, for that log.
"""

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

GOLDEN_PATH = Path(__file__).with_name("golden_digests.json")
SEED = "3"
REPLICATIONS = "3"
SIMULATE_MODELS = ("gbm", "merton", "hawkes-price")
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


def _outputs(cli, argv, out_dir: Path) -> dict:
    code = cli.main([*argv, "--out", str(out_dir)])
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return json.loads((out_dir / "manifest.json").read_text())["outputs"]


def taq_outputs(cli, tmp: Path) -> dict:
    """Manifest outputs of every taq command on the two seeded trade files."""
    files = [str(p) for p in write_trade_files(tmp)]
    return {
        command: _outputs(cli, ["taq", command, *files, *args], tmp / f"taq_{command}")
        for command, args in TAQ_ARGS.items()
    }


def main() -> None:
    from eppsim import cli
    from eppsim.presets import FIGURE_NAMES

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        doc = {
            "epps": {
                name: _outputs(
                    cli,
                    ["epps", "--figure", name, "--seed", SEED, "--replications", REPLICATIONS],
                    tmp / f"fig{name}",
                )
                for name in FIGURE_NAMES
            },
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
    old = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    GOLDEN_PATH.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}", file=sys.stderr)
    for line in changed_entries(old, doc):
        print(line, file=sys.stderr)


def changed_entries(old: dict, new: dict) -> list[str]:
    """'changed: SECTION NAME' (or added/removed) for every differing entry."""
    lines = []
    for section in sorted(old.keys() | new.keys()):
        before, after = old.get(section, {}), new.get(section, {})
        for name in sorted(before.keys() | after.keys()):
            if name not in before:
                lines.append(f"added: {section} {name}")
            elif name not in after:
                lines.append(f"removed: {section} {name}")
            elif before[name] != after[name]:
                lines.append(f"changed: {section} {name}")
    return lines or ["no entry changed"]


if __name__ == "__main__":
    main()
