"""eppsim benchmark: one workload, one seed, end-to-end or per-layer metrics.

Run from the root of an eppsim checkout:

    python3 perfbench/run.py --workload sim_grid --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are
the end-to-end ones of BENCHMARK.json, with --trace 1 the per-layer ones.
A full report (environment, pass times, output digests, failures) goes
to .perfbench_out/report-<workload>-seed<seed>-trace<t>.json, and the
traced run's spans to .perfbench_out/spans-<workload>-seed<seed>.json.

Set-up (CLI start-up timing, the trade file) happens here; the workload
itself runs in a fresh process (worker.py), so its peak RSS is its own.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import gen_trades
import measure

# the workload table lives in workloads.py, which imports eppsim; this
# process does not, so that a missing checkout fails before any work
WORKLOADS = ("sim_hawkes", "sim_grid", "taq_pipeline")
TRADE_WORKLOADS = ("taq_pipeline",)

SETUP_REPEATS = 5
IMPORT_REPEATS = 3
WORKER_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "throughput": "1/s",
    "peak_rss_mb": "MB",
    "ops_ok": "ratio",
}


def per_layer_units(names) -> dict[str, str]:
    units = {}
    for name in names:
        if name.endswith("rows_per_s"):
            units[name] = "1/s"
        elif name.endswith("_ms"):
            units[name] = "ms"
        elif name.endswith("_s"):
            units[name] = "s"
        elif ".us_per_" in name:
            units[name] = "us"
        elif ".ms_per_" in name:
            units[name] = "ms"
        elif name.endswith("_mb"):
            units[name] = "MB"
        elif name.endswith(("_bytes", ".bytes")):
            units[name] = "B"
        elif name.endswith(("_ratio", "_eff", "ops_failed")):
            units[name] = "ratio"
        else:
            units[name] = "count"
    return units


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    root = Path.cwd()
    if not (root / "src" / "eppsim" / "__init__.py").is_file():
        print("perfbench: src/eppsim not found; run from the root of an eppsim checkout", file=sys.stderr)
        return 2
    out = root / ".perfbench_out"
    out.mkdir(exist_ok=True)

    spec = {
        "root": str(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    if args.workload in TRADE_WORKLOADS:
        csv = out / f"trades-seed{args.seed}.csv"
        spec["expect"] = gen_trades.generate(csv, args.seed)
        spec["csv"] = str(csv.relative_to(root))

    if args.trace:
        imports = measure.import_times(root, IMPORT_REPEATS)
    else:
        setup, setup_refs = measure.time_setup(root, SETUP_REPEATS)

    try:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("worker.py")), json.dumps(spec)],
            env=measure.src_env(root),
            cwd=root,
            capture_output=True,
            text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    finally:
        if "csv" in spec:  # regenerated by every run; do not let seeds pile up
            (root / spec["csv"]).unlink()
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        print(f"perfbench: the workload process exited with {done.returncode}", file=sys.stderr)
        return 1
    res = json.loads(done.stdout.strip().splitlines()[-1])

    raw = res["metrics"]
    if args.trace:
        raw.update({f"cli.import.{k}_s": v for k, v in imports.items()})
        raw["ops_failed"] = res["failed"] / res["attempted"]
        names = sorted(k for k in raw if k not in ("wall_s", "throughput", "peak_rss_mb"))
        units = per_layer_units(names)
    else:
        # scaled by every reference time of the run: the start-ups themselves
        # span a few of the machine's fast and slow seconds, so what needs
        # removing is the slower drift, which the whole run's mean tracks best
        raw["setup_s"] = measure.at_reference_speed(setup, setup_refs + res["report"]["reference_s"])
        raw["ops_ok"] = 1.0 - res["failed"] / res["attempted"]
        names = list(END_TO_END_UNITS)
        units = END_TO_END_UNITS
    metrics = {name: {"value": raw[name], "unit": units[name]} for name in names}

    report = dict(
        res["report"],
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        environment=measure.environment(),
        inputs=spec.get("expect"),
        setup_samples_s=None if args.trace else setup,
        setup_reference_s=None if args.trace else setup_refs,
        metrics=metrics,
    )
    report_file = out / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_file.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")

    for f in report["failures"]:
        print(f"FAILED {f['op']}: {'; '.join(f['problems'])}", file=sys.stderr)
    for name in names:
        print(f"{name} {raw[name]!r} {units[name]}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
