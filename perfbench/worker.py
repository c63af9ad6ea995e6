"""One workload in a fresh process: the measured passes and the traced run.

run.py starts this script with PYTHONPATH pointing at the checkout's
src/ and one JSON argument (workload, seed, seconds, trace, root, and the
trade file for taq_pipeline). It prints one JSON object as its last line
of standard output.

The first pass warms up (lazy imports, allocator, page cache) and is
checked but not timed. Timed passes then repeat until `seconds` have gone
by and at least MIN_PASSES have run. The reference computation of
measure.py runs before the first timed pass and after every operation of
every timed pass, outside the passes' time, and wall_s is the timed
passes' mean scaled to the reference speed (measure.at_reference_speed);
the raw times go to the report. With trace on, one more pass runs through
the span-wrapped rebuild, and its results must equal those of the last
untraced pass; the sim_* workloads then run PARALLEL_PASSES passes with
max_workers=2, whose outputs must equal the serial ones byte for byte.
"""

import gc
import json
import math
import os
import pickle
import resource
import shutil
import sys
import time
import tracemalloc
from pathlib import Path

import eppsim
import numpy as np
from eppsim.taq import parse_trades

from measure import at_reference_speed, median, reference_kernel, reference_times
from spans import Tracer, self_times
from traced import Traced
from workloads import Direct, SimWorkload, make_workload

MIN_PASSES = 3
MAX_MEASURE_S = 90.0  # stop adding passes past this, so a run ends well inside 180 s
GRID_DTS = (1, 2, 5, 10, 15, 20, 30, 50, 75, 100, 200, 500, 1000)  # FIG_DT_GRID and WIDE_DT_GRID
OVERLAP_DTS = (1, 2, 5, 10, 15, 20, 30, 50, 75, 100)  # FIG_DT_GRID
TOLERANCE = 1e-12
PARALLEL_WORKERS = 2  # max_workers of the traced run's process-pool passes
PARALLEL_PASSES = 2


def _same_curve(a, b) -> list[str]:
    if a.series.keys() != b.series.keys():
        return [f"series {sorted(a.series)} != {sorted(b.series)}"]
    problems = []
    for name, pts in a.series.items():
        other = b.series[name]
        if len(pts) != len(other):
            problems.append(f"{name}: {len(pts)} points != {len(other)}")
            continue
        for p, q in zip(pts, other):
            same_mean = (math.isnan(p.mean) and math.isnan(q.mean)) or abs(p.mean - q.mean) <= TOLERANCE
            if p.axis != q.axis or (p.n_ok, p.n_fail) != (q.n_ok, q.n_fail) or not same_mean:
                problems.append(f"{name} at {p.axis:g}: traced {p} != untraced {q}")
    return problems


def _same_verdicts(a: dict, b: dict) -> list[str]:
    va = {k: v.classification for k, v in a.items()}
    vb = {k: v.classification for k, v in b.items()}
    return [] if va == vb else [f"verdicts {va} != {vb}"]


def compare(op: str, traced, untraced) -> list[str]:
    """Problems where the traced rebuild's result differs from the program's."""
    if op == "write":
        return []  # writes the results compared above; its own check still ran
    if untraced is None:
        return ["no untraced result to compare with"]
    if op == "parse":
        same = (traced.n_rows, traced.n_used, traced.diagnostics, traced.records) == (
            untraced.n_rows, untraced.n_used, untraced.diagnostics, untraced.records
        )
        return [] if same else ["parsed records differ"]
    if op == "pair":
        (da, sa), (db, sb) = traced, untraced
        same = sa == sb and len(da) == len(db) and all(
            x.date == y.date
            and all(
                np.array_equal(getattr(x, leg).times, getattr(y, leg).times)
                and np.array_equal(getattr(x, leg).values, getattr(y, leg).values)
                for leg in ("series_a", "series_b")
            )
            for x, y in zip(da, db)
        )
        return [] if same else ["paired days differ"]
    if op in ("curve", "scale"):
        return _same_curve(traced, untraced)
    if op == "kskip":
        return _same_curve(traced[0], untraced[0]) + _same_verdicts(
            {"verdict": traced[1]}, {"verdict": untraced[1]}
        )
    # a figure
    if traced.curves.keys() != untraced.curves.keys():
        return ["curve names differ"]
    problems = [p for k in traced.curves for p in _same_curve(traced.curves[k], untraced.curves[k])]
    return problems + _same_verdicts(traced.verdicts, untraced.verdicts)


def _verdicts(results: dict) -> dict:
    """Discrimination verdicts of one pass, by operation."""
    found = {op: r.verdicts.get("verdict") for op, r in results.items() if hasattr(r, "verdicts")}
    if "kskip" in results:
        found["kskip"] = results["kskip"][1]
    return {
        op: {"classification": v.classification, "gap": v.gap, "threshold": v.threshold}
        for op, v in found.items()
        if v is not None
    }


def per_layer(spans) -> dict[str, float]:
    """Layer metrics of one traced pass, from its spans.

    experiments.self_s is the pass's time outside every call into eppsim:
    the replication loops, seeding and output checks around those calls.
    It is taken within the traced pass, because the untraced passes' wall
    time moves by more than this between passes.
    """
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    n: dict[str, int] = {}
    grid_dt: dict[float, float] = {}
    overlap_dt: dict[float, float] = {}
    est_calls = est_failed = 0
    by_id = {s.id: s for s in spans}
    outermost = total = 0.0
    for s in spans:
        if s.parent is None:
            total += s.duration
        if s.layer is None:
            continue
        busy[s.layer] = busy.get(s.layer, 0.0) + s.duration
        calls[s.layer] = calls.get(s.layer, 0) + 1
        n[s.layer] = n.get(s.layer, 0) + s.attrs.get("n", 0)
        if s.layer == "sampling.grid":
            grid_dt[s.attrs["dt"]] = grid_dt.get(s.attrs["dt"], 0.0) + s.duration
        if s.layer == "estimators.overlap":
            overlap_dt[s.attrs["dt"]] = overlap_dt.get(s.attrs["dt"], 0.0) + s.duration
        if s.layer.startswith("estimators."):
            est_calls += 1
            est_failed += bool(s.error and issubclass(s.error, eppsim.EstimationError))
        if s.parent is None or by_id[s.parent].layer is None:
            outermost += s.duration

    def b(layer):
        return busy.get(layer, 0.0)

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    out = {
        "hawkes.calls": calls.get("hawkes", 0),
        "hawkes.events": n.get("hawkes", 0),
        "hawkes.busy_s": b("hawkes"),
        "hawkes.us_per_event": ratio(b("hawkes"), n.get("hawkes", 0), 1e6),
        "paths.calls": calls.get("paths", 0),
        "paths.busy_s": b("paths"),
        "paths.ms_per_day": ratio(b("paths"), calls.get("paths", 0), 1e3),
        "sampling.arrivals.busy_s": b("sampling.arrivals"),
        "sampling.observe.busy_s": b("sampling.observe"),
        "sampling.observe.ticks": n.get("sampling.observe", 0),
        "sampling.grid.busy_s": b("sampling.grid"),
        "sampling.grid.calls": calls.get("sampling.grid", 0),
    }
    for dt in GRID_DTS:
        out[f"sampling.grid.dt{dt}.busy_ms"] = grid_dt.get(float(dt), 0.0) * 1e3
    out["sampling.kskip.busy_s"] = b("sampling.kskip")
    for est in ("measured", "flat_trade", "overlap", "hy"):
        out[f"estimators.{est}.busy_s"] = b(f"estimators.{est}")
    for dt in OVERLAP_DTS:
        out[f"estimators.overlap.dt{dt}.busy_ms"] = overlap_dt.get(float(dt), 0.0) * 1e3
    out["estimators.calls"] = est_calls
    out["estimators.failed"] = est_failed
    out["estimators.ok_ratio"] = 1.0 - ratio(est_failed, est_calls)
    out["experiments.aggregate.busy_s"] = b("experiments.aggregate")
    out["experiments.self_s"] = total - outermost
    out["taq.parse.busy_s"] = b("taq.parse")
    out["taq.pair.busy_s"] = b("taq.pair")
    out["taq.curve.busy_s"] = b("taq.curve")
    out["taq.kskip.busy_s"] = b("taq.kskip")
    out["cli.write.busy_s"] = b("cli.write")
    return out


def job_bytes(workload, paths: dict) -> int:
    """Bytes the process pool pickles per pass: one job tuple per replication.

    The tuples are laid out as experiments.epps_curve and
    experiment_hy_vs_interarrival build them.
    """
    total = 0
    for recipe in workload.recipes:
        cfg = recipe.config
        if recipe.kind == "epps":
            jobs = ((cfg, paths[recipe.name], r) for r in range(cfg.n_replications))
        elif recipe.kind == "hy":
            jobs = ((cfg, paths[recipe.name], cfg.mean_interarrivals, r) for r in range(cfg.n_replications))
        else:
            continue  # k-skip figures run in the calling process
        total += sum(len(pickle.dumps(job)) for job in jobs)
    return total


def _mark_changed(res, reference: dict, what: str) -> None:
    """Fail each operation of res whose output digests differ from reference."""
    for op in res.ops:
        if op.ok and res.digests.get(op.name) != reference.get(op.name):
            op.problems.append(f"output bytes differ from {what}")


def _taq_metrics(tres, spec: dict, parse_busy_s: float) -> dict[str, float]:
    """Trade-file counts of the traced pass, and the parse's rate and traced peak memory."""
    names = ("rows", "rows_rejected", "records", "days", "days_skipped", "file_bytes")
    out = {f"taq.{k}": 0 for k in names} | {"taq.parse.rows_per_s": 0.0, "taq.parse.peak_mb": 0.0}
    if "parse" not in tres.results:
        return out
    parsed = tres.results["parse"]
    days, skipped = tres.results.get("pair", ((), ()))
    tracemalloc.start()  # a separate parse, outside every timed span
    parse_trades(spec["csv"])
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {
        "taq.rows": parsed.n_rows,
        "taq.rows_rejected": len(parsed.diagnostics),
        "taq.records": sum(len(r) for r in parsed.records.values()),
        "taq.days": len(days),
        "taq.days_skipped": len(skipped),
        "taq.file_bytes": spec["expect"]["file_bytes"],
        "taq.parse.rows_per_s": parsed.n_rows / parse_busy_s,
        "taq.parse.peak_mb": peak / 2**20,
    }


def main(spec: dict) -> dict:
    root = Path(spec["root"])
    if not Path(eppsim.__file__).resolve().is_relative_to((root / "src").resolve()):
        raise SystemExit(f"eppsim imported from {eppsim.__file__}, not from the checkout")
    taq_input = (spec["csv"], spec["expect"]) if spec.get("csv") else None
    workload = make_workload(spec["workload"], spec["seed"], taq_input)
    work = root / ".perfbench_out" / f"work-{os.getpid()}"

    def one_pass(backend, between=None):
        d = work / f"pass{len(passes)}"
        try:
            return workload.run_pass(d, backend, between)
        finally:
            shutil.rmtree(d, ignore_errors=True)

    reference_kernel()  # makes its buffers before the program's, and its first call is slower
    passes = []
    passes.append(one_pass(Direct(1)))  # warm-up, checked but not timed
    verdicts = _verdicts(passes[0].results)
    refs = reference_times()
    t0 = time.perf_counter()
    while True:
        # hold one pass's results at a time, and start each pass from a
        # collected heap, as a fresh process does, so peak RSS is that of one pass
        passes[-1].results = {}
        gc.collect()
        passes.append(one_pass(Direct(1), lambda: refs.extend(reference_times())))
        elapsed = time.perf_counter() - t0
        if (len(passes) > MIN_PASSES and elapsed >= spec["seconds"]) or elapsed > MAX_MEASURE_S:
            break
    first = passes[0].digests
    for res in passes[1:]:
        _mark_changed(res, first, "the first pass")
    raw_walls = [p.wall_s for p in passes[1:]]
    raw_wall_s = median(raw_walls)
    wall_s = at_reference_speed(raw_walls, refs)
    metrics = {
        "wall_s": wall_s,
        "throughput": workload.work_items / wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    report = {
        "warmup_wall_s": passes[0].wall_s,
        "pass_walls_s": raw_walls,
        "reference_s": refs,
        "raw_wall_s": raw_wall_s,
        "op_walls_s": {
            op.name: median([o.wall_s for p in passes[1:] for o in p.ops if o.name == op.name])
            for op in passes[0].ops
        },
        "digests": first,
        "write_bytes": passes[0].write_bytes,
        "verdicts": verdicts,
    }
    labelled = [("", p) for p in passes]

    if spec["trace"]:
        tracer = Tracer()
        tracer.pass_id = len(passes)
        traced = Traced(tracer, passes[-1].results)
        with tracer.span("pass"):
            tres = one_pass(traced)
        for op in tres.ops:
            if op.ok:
                op.problems += compare(op.name, tres.results.get(op.name), passes[-1].results.get(op.name))
        labelled.append(("traced ", tres))
        metrics.update(per_layer(tracer.spans))
        metrics["trace.overhead_s"] = tres.wall_s - raw_wall_s
        metrics["trace.spans"] = len(tracer.spans)
        metrics["cli.write.bytes"] = tres.write_bytes
        metrics.update(_taq_metrics(tres, spec, metrics["taq.parse.busy_s"]))
        x2_wall = eff = n_bytes = 0.0
        if isinstance(workload, SimWorkload):
            # the process-pool path: same inputs, two workers, same output bytes
            x2 = [one_pass(Direct(PARALLEL_WORKERS)) for _ in range(PARALLEL_PASSES)]
            for res in x2:
                _mark_changed(res, first, "the serial pass")
                labelled.append(("pooled ", res))
            x2_wall = median([res.wall_s for res in x2])
            eff = raw_wall_s / (PARALLEL_WORKERS * x2_wall)
            n_bytes = job_bytes(workload, traced.paths)
        metrics["experiments.x2_wall_s"] = x2_wall
        metrics["experiments.parallel_eff"] = eff
        metrics["experiments.job_bytes"] = n_bytes
        selfs = self_times(tracer.spans)
        spans_file = root / ".perfbench_out" / f"spans-{spec['workload']}-seed{spec['seed']}.json"
        with open(spans_file, "w") as fh:
            json.dump([dict(s.to_dict(), self=selfs[s.id]) for s in tracer.spans], fh)
        report["spans_file"] = str(spans_file.relative_to(root))
        report["traced_wall_s"] = tres.wall_s
        report["traced_digests_equal"] = tres.digests == passes[-1].digests

    shutil.rmtree(work, ignore_errors=True)
    ops = [(label, op) for label, res in labelled for op in res.ops]
    report["failures"] = [{"op": label + op.name, "problems": op.problems} for label, op in ops if not op.ok]
    failed = sum(not op.ok for _, op in ops)
    return {"attempted": len(ops), "failed": failed, "metrics": metrics, "report": report}


if __name__ == "__main__":
    result = main(json.loads(sys.argv[1]))
    sys.stdout.write(json.dumps(result) + "\n")
