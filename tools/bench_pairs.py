"""Paired benchmark runs of a change against its parent commit, written to one BENCH file.

Run from the root of a checkout whose HEAD is the change:

    python3 tools/bench_pairs.py --out BENCH_<n>.json [--base HEAD~1] [--seed 2101]

--base names the commit the change is measured against when the change
spans several commits. The base commit's files are extracted by `git
archive` into a temporary directory, which is removed when the script
ends. Then, one process at a time:

1. an A/A block: AA_PAIRS pairs per workload of the base against itself,
   which measure each metric's spread when nothing changed;
2. PAIRS pairs per workload of base and change, each pair on its own
   seed for both sides, the side that runs first alternating from pair
   to pair;
3. the tier-1 suite once on each tree;
4. the CLI cold start (`eppsim --version` in a fresh interpreter) in the
   same A/A and paired blocks, summarised as a workload is.

Every workload run is `perfbench/run.py --trace 0` of BENCHMARK.json's
command for its run_seconds; its workloads, metrics and bounds come from
BENCHMARK.json. The file holds per workload and metric: each side's
median and q1-q3, the pairs won, the bound and whether the change's
median stays inside it, the A/A spread and the verdict of RULE; per
workload and operation, which operation moved (see summarize); and
every run's correct/failed, its per-operation times and mean reference
time, whether every output digest equals the base's on the same seed,
both SHAs, the seeds and the machine, with its C library and the MALLOC_*
variables the runs inherit.
summarize() does the arithmetic alone, so it can be checked on fixed
reports.
"""

import argparse
import functools
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

RULE = (
    "a gain needs at least 10 pairs, the change winning >= 9/10 of them (ties count "
    "for neither), and its median to beat the base's by more than the A/A q1-q3 "
    "spread and the base's own q1-q3 spread; anything less is no change"
)
PAIRS = 10
AA_PAIRS = 5
WIN_SHARE = 0.9
RUN_TIMEOUT_S = 600
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
TIER1_TIMEOUT_S = 1800
COLD_START = "from eppsim.cli import main; main(['--version'])"
# the cold start is a start-up cost, so it is held to setup_s's bound
COLD_START_METRIC = {"name": "wall_s", "unit": "s", "better": "lower", "bound_of": "setup_s"}


def quartiles(values) -> dict:
    """median and q1-q3 as statistics.quantiles(values, n=4) gives them
    (perfbench's convention); a single value is its own quartiles."""
    values = sorted(values)
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3}


def _better(a: float, b: float, lower: bool) -> bool:
    return a < b if lower else a > b


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload and end-to-end metric, the comparison of the change's
    runs with the base's.

    runs: one dict per run with workload, block ("aa" or "pairs"), pair,
    side ("base" or "change"; in the A/A block "base" and "base2"), seed,
    correct, failed, metrics (name -> value; empty when the run crashed)
    and digests (the sha256 of its output digests, or None), and, from a
    perfbench report, op_walls_s (operation -> its median wall time) and
    reference_s (the mean reference time).
    end_to_end: BENCHMARK.json's list of {name, better, bound, unit}.

    Each workload's ops holds, per operation that both runs of a pair
    timed, the median over those pairs of the change/base ratio of its
    time over the run's mean reference time, and the pairs whose ratio is
    below 1, so a moved end-to-end time can be traced to an operation.
    """
    out = {}
    for workload in sorted({r["workload"] for r in runs}):
        mine = [r for r in runs if r["workload"] == workload]

        def pairs(block, second):
            by_pair = {}
            for r in mine:
                if r["block"] == block:
                    by_pair.setdefault(r["pair"], {})[r["side"]] = r
            return [(p["base"], p[second]) for p in by_pair.values() if "base" in p and second in p]

        aa, paired = pairs("aa", "base2"), pairs("pairs", "change")
        metrics = {}
        for m in end_to_end:
            name, lower = m["name"], m["better"] == "lower"
            both = [(b["metrics"][name], c["metrics"][name]) for b, c in paired
                    if name in b["metrics"] and name in c["metrics"]]
            null = [r["metrics"][name] for pair in aa for r in pair if name in r["metrics"]]
            if not both:
                metrics[name] = {"pairs": 0, "verdict": "no runs"}
                continue
            base = quartiles([b for b, _ in both])
            change = quartiles([c for _, c in both])
            won = sum(_better(c, b, lower) for b, c in both)
            aa_q = quartiles(null) if null else None
            spread = max(base["q3"] - base["q1"], aa_q["q3"] - aa_q["q1"] if aa_q else 0.0)
            shift = change["median"] - base["median"]
            gain = (len(both) >= PAIRS and won >= WIN_SHARE * len(both) and abs(shift) > spread
                    and _better(change["median"], base["median"], lower))
            worse = shift if lower else -shift
            metrics[name] = {
                "unit": m.get("unit"),
                "better": m["better"],
                "base": base,
                "change": change,
                "pairs": len(both),
                "pairs_won": won,
                "aa": None if aa_q is None else dict(aa_q, spread=aa_q["q3"] - aa_q["q1"], runs=len(null)),
                "shift": shift,
                "bound": m["bound"],
                "within_bound": worse <= m["bound"] * abs(base["median"]),
                "verdict": "gain" if gain else "no change",
            }
        ops = {}
        for b, c in paired:
            for op, wall in (c.get("op_walls_s") or {}).items():
                if op in (b.get("op_walls_s") or {}):
                    ops.setdefault(op, []).append(
                        (wall / c["reference_s"]) / (b["op_walls_s"][op] / b["reference_s"]))
        out[workload] = {
            "metrics": metrics,
            "ops": {op: {"ratio": statistics.median(r), "pairs": len(r),
                         "pairs_won": sum(x < 1 for x in r)} for op, r in sorted(ops.items())},
            "runs_correct": all(r["correct"] for r in mine),
            "failed": sum(r["failed"] or 0 for r in mine),
            "digests_equal": all(b["digests"] is not None and b["digests"] == c["digests"]
                                 for b, c in aa + paired),
        }
    return out


def _git(*args, cwd) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def _env(root: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # let the unmeasured first start write caches
    return env


def allocator() -> dict:
    """The C library and every MALLOC_* variable the runs inherit: eppsim sets
    glibc's malloc thresholds unless such a variable does, and they move the numbers."""
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):  # no confstr, or not glibc
        libc = None
    return {"libc": libc,
            "malloc_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("MALLOC_")}}


def bench_run(root: Path, seed: int, command: list, workload: str, seconds: float) -> dict:
    """One perfbench run in root: its result line, and its report's output digests."""
    done = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=root, env=_env(root), capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    run = {"correct": False, "failed": None, "metrics": {}, "digests": None, "environment": None}
    if done.returncode != 0:
        run["error"] = done.stderr.strip().splitlines()[-1:] or [f"exit {done.returncode}"]
        return run
    res = json.loads(done.stdout.strip().splitlines()[-1])
    report = json.loads((root / ".perfbench_out" /
                         f"report-{workload}-seed{seed}-trace0.json").read_text())
    run.update(
        correct=res["correct"], failed=res["failed"], attempted=res["attempted"],
        metrics={k: v["value"] for k, v in res["metrics"].items()},
        digests=hashlib.sha256(json.dumps(report["digests"], sort_keys=True).encode()).hexdigest(),
        environment=report["environment"], op_walls_s=report["op_walls_s"],
        reference_s=statistics.fmean(report["reference_s"]),
    )
    return run


def tier1(root: Path) -> dict:
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *TIER1], cwd=root, env=_env(root),
                          capture_output=True, text=True, timeout=TIER1_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    return {"wall_s": time.perf_counter() - start, "returncode": done.returncode,
            "summary": lines[-1] if lines else ""}


def cold_start(root: Path, seed: int) -> dict:
    """One fresh `eppsim --version` in root, as a run with the metric wall_s."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", COLD_START], cwd=root, env=_env(root),
                          capture_output=True, timeout=RUN_TIMEOUT_S)
    wall = time.perf_counter() - start
    ok = done.returncode == 0
    return {"correct": ok, "failed": 0 if ok else 1, "metrics": {"wall_s": wall} if ok else {},
            "digests": hashlib.sha256(done.stdout).hexdigest() if ok else None, "environment": None}


def run_pairs(trees: dict, measure, workload: str, seeds, block: str, sides) -> list[dict]:
    """measure(root, seed) on both sides of each seed's pair, the first side alternating."""
    runs = []
    for pair, seed in enumerate(seeds):
        order = sides if pair % 2 == 0 else sides[::-1]
        for side in order:
            run = measure(trees[side], seed)
            run.update(workload=workload, seed=seed, block=block, pair=pair, side=side, first=order[0])
            runs.append(run)
            print(f"{block} {workload} seed {seed} {side}: correct={run['correct']} "
                  f"wall_s={run['metrics'].get('wall_s')}", flush=True)
    return runs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="the BENCH_<name>.json to write")
    ap.add_argument("--base", default="HEAD~1", help="the commit the change is measured against")
    ap.add_argument("--seed", type=int, default=2101, help="the first seed; each pair takes the next")
    args = ap.parse_args(argv)

    root = Path(_git("rev-parse", "--show-toplevel", cwd=Path.cwd()))
    bench = json.loads((root / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    cold_metric = dict(COLD_START_METRIC, bound=bounds[COLD_START_METRIC["bound_of"]])
    sha = {"base": _git("rev-parse", args.base, cwd=root), "change": _git("rev-parse", "HEAD", cwd=root)}
    dirty = bool(_git("status", "--porcelain", "--untracked-files=no", cwd=root))
    aa_seeds = list(range(args.seed, args.seed + AA_PAIRS))
    seeds = list(range(aa_seeds[-1] + 1, aa_seeds[-1] + 1 + PAIRS))
    blocks = (("aa", aa_seeds, ("base", "base2")), ("pairs", seeds, ("base", "change")))

    tmp = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    base = tmp / "base"
    try:
        base.mkdir()
        archive = subprocess.run(["git", "archive", sha["base"]], cwd=root, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(base)], input=archive, check=True)
        trees = {"base": base, "base2": base, "change": root}
        runs = []
        for block, block_seeds, sides in blocks:
            for workload in workloads:
                measure = functools.partial(bench_run, command=bench["command"], workload=workload,
                                            seconds=seconds)
                runs += run_pairs(trees, measure, workload, block_seeds, block, sides)
        tier1_s = {"base": tier1(base), "change": tier1(root)}
        for tree in (base, root):  # the first start writes the bytecode caches
            cold_start(tree, 0)
        cold_runs = [run for block, block_seeds, sides in blocks
                     for run in run_pairs(trees, cold_start, "cli_cold_start", block_seeds, block, sides)]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    summary = summarize(runs, bench["end_to_end"])
    cold = summarize(cold_runs, [cold_metric])["cli_cold_start"]
    environment = dict(next((r["environment"] for r in runs if r["environment"]), {}), **allocator())
    doc = {
        "rule": RULE,
        "sha": sha,
        "change_tree_dirty": dirty,
        "command": [*bench["command"], "--seconds", str(seconds), "--trace", "0"],
        "seconds": seconds,
        "aa_seeds": aa_seeds,
        "seeds": seeds,
        "environment": environment,
        "digests_equal": all(w["digests_equal"] for w in summary.values()),
        "workloads": summary,
        "tier1": tier1_s,
        "cold_start": cold,
        "runs": [{k: v for k, v in r.items() if k != "environment"} for r in runs + cold_runs],
    }
    Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")

    print(f"\nrule: {RULE}")
    for workload, w in {**summary, "cli_cold_start": cold}.items():
        print(f"{workload}: correct={w['runs_correct']} digests_equal={w['digests_equal']}")
        for name, m in w["metrics"].items():
            if m["pairs"]:
                print(f"  {name}: {m['base']['median']:.4g} -> {m['change']['median']:.4g} "
                      f"won {m['pairs_won']}/{m['pairs']} within_bound={m['within_bound']} "
                      f"{m['verdict']}")
        for op, o in w.get("ops", {}).items():
            print(f"  op {op}: change/base {o['ratio']:.3f} won {o['pairs_won']}/{o['pairs']}")
    for side in ("base", "change"):
        print(f"{side}: tier-1 {tier1_s[side]['wall_s']:.1f} s ({tier1_s[side]['summary']})")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
