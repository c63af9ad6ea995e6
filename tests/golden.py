"""Rewrite golden_digests.json, the behaviour lock of the CLI's outputs.

The file holds the manifest `outputs` block (sha256 and size of every file
a run writes) of

    eppsim epps --figure NAME --seed 3 --replications 3      (every preset)
    eppsim simulate --model MODEL --preset reference --seed 3 (every model)

`test_11` and `test_simulate_reference_matches_golden_digests` compare
fresh runs against it. Rewriting it is a deliberate act, for a change that
is meant to alter output bytes (such as a new way of drawing random
numbers), and is logged in CHANGES.md with its reason:

    PYTHONPATH=src python tests/golden.py

It prints to stderr the entries whose digests changed, for that log.
"""

import json
import sys
import tempfile
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden_digests.json")
SEED = "3"
REPLICATIONS = "3"
SIMULATE_MODELS = ("gbm", "merton", "hawkes-price")


def _outputs(cli, argv, out_dir: Path) -> dict:
    code = cli.main([*argv, "--out", str(out_dir)])
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return json.loads((out_dir / "manifest.json").read_text())["outputs"]


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
