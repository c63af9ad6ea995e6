"""tools/bench_pairs.py's summary of paired runs, on fixed synthetic reports
(no benchmark process runs and nothing is timed here)."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "throughput", "unit": "1/s", "better": "higher", "bound": 0.25},
]


def run(block, pair, side, wall, throughput=10.0, digests="d", correct=True, failed=0):
    metrics = {} if wall is None else {"wall_s": wall, "throughput": throughput}
    return {"workload": "w", "block": block, "pair": pair, "side": side, "seed": pair,
            "correct": correct, "failed": failed, "metrics": metrics, "digests": digests}


def aa_block(walls=(1.0, 1.01, 0.99, 1.02, 0.98)):
    return [run("aa", i, side, w) for i, w in enumerate(walls) for side in ("base", "base2")]


def paired(base_walls, change_walls, start=0, **change):
    out = []
    for i, (b, c) in enumerate(zip(base_walls, change_walls), start):
        out += [run("pairs", i, "base", b), run("pairs", i, "change", c, **change)]
    return out


BASE = [1.0, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.0, 1.01, 0.99]


def test_a_change_that_wins_every_pair_by_more_than_the_spread_is_a_gain():
    runs = aa_block() + paired(BASE, [w - 0.1 for w in BASE], throughput=12.0)
    got = bench_pairs.summarize(runs, END_TO_END)["w"]
    wall = got["metrics"]["wall_s"]
    assert wall["pairs"] == 10 and wall["pairs_won"] == 10
    assert wall["base"]["median"] == pytest.approx(1.0)
    assert wall["change"]["median"] == pytest.approx(0.9)
    assert wall["shift"] == pytest.approx(-0.1)
    assert wall["aa"]["runs"] == 10 and wall["aa"]["spread"] == pytest.approx(0.025)
    assert wall["verdict"] == "gain" and wall["within_bound"]
    throughput = got["metrics"]["throughput"]  # higher is better
    assert throughput["pairs_won"] == 10 and throughput["verdict"] == "gain"
    assert got["runs_correct"] and got["digests_equal"] and got["failed"] == 0


def test_eight_of_ten_pairs_or_a_shift_inside_the_spread_is_no_change():
    eight = [w - 0.1 if i < 8 else w + 0.01 for i, w in enumerate(BASE)]
    got = bench_pairs.summarize(aa_block() + paired(BASE, eight), END_TO_END)["w"]
    assert got["metrics"]["wall_s"]["pairs_won"] == 8
    assert got["metrics"]["wall_s"]["verdict"] == "no change"
    # ten wins, but by less than the A/A block's q1-q3
    wide = aa_block((0.8, 1.2, 0.9, 1.1, 1.0))
    got = bench_pairs.summarize(wide + paired(BASE, [w - 0.05 for w in BASE]), END_TO_END)["w"]
    assert got["metrics"]["wall_s"]["pairs_won"] == 10
    assert got["metrics"]["wall_s"]["verdict"] == "no change"
    # ties count for neither side
    got = bench_pairs.summarize(aa_block() + paired(BASE, BASE), END_TO_END)["w"]
    assert got["metrics"]["wall_s"]["pairs_won"] == 0
    assert got["metrics"]["throughput"]["verdict"] == "no change"


def test_a_median_worse_than_the_bound_is_out_of_bound():
    runs = aa_block() + paired(BASE, [w * 1.3 for w in BASE], throughput=7.0)
    got = bench_pairs.summarize(runs, END_TO_END)["w"]["metrics"]
    assert not got["wall_s"]["within_bound"] and got["wall_s"]["verdict"] == "no change"
    assert not got["throughput"]["within_bound"]
    inside = bench_pairs.summarize(aa_block() + paired(BASE, [w * 1.2 for w in BASE]), END_TO_END)
    assert inside["w"]["metrics"]["wall_s"]["within_bound"]


def test_failures_crashes_and_changed_outputs_are_reported():
    runs = aa_block() + paired(BASE, BASE, digests="other")
    got = bench_pairs.summarize(runs, END_TO_END)["w"]
    assert not got["digests_equal"] and got["runs_correct"]
    crashed = paired([1.0], [None], start=9, correct=False, digests=None)
    runs = aa_block() + paired(BASE[:9], BASE[:9]) + crashed
    got = bench_pairs.summarize(runs, END_TO_END)["w"]
    # the crashed run's pair has no metrics to compare and no digests
    assert got["metrics"]["wall_s"]["pairs"] == 9
    assert not got["runs_correct"] and not got["digests_equal"]
    runs = aa_block() + paired(BASE, BASE, failed=2, correct=False)
    assert bench_pairs.summarize(runs, END_TO_END)["w"]["failed"] == 20


def test_ops_name_the_operation_that_moved_at_the_reference_speed():
    # op b halves in every pair; op a only looks faster because the change
    # ran in a fast period (reference 0.5 s against 1.0 s), op c is timed by
    # the change alone and a crashed pair has no ops
    runs = aa_block() + paired(BASE, BASE)
    for r in runs[len(aa_block()):]:
        change = r["side"] == "change"
        ref = 0.5 if change else 1.0
        r.update(reference_s=ref, op_walls_s={"a": 2.0 * ref, "b": (0.5 if change else 1.0) * ref})
        if change:
            r["op_walls_s"]["c"] = 1.0
    crashed = paired([1.0], [None], start=10, correct=False, digests=None)
    got = bench_pairs.summarize(runs + crashed, END_TO_END)["w"]["ops"]
    assert sorted(got) == ["a", "b"]
    assert got["a"] == {"ratio": pytest.approx(1.0), "pairs": 10, "pairs_won": 0}
    assert got["b"] == {"ratio": pytest.approx(0.5), "pairs": 10, "pairs_won": 10}
    # the median over pairs: one pair slower, the other nine faster
    runs[len(aa_block()) + 1]["op_walls_s"]["b"] = 0.75
    got = bench_pairs.summarize(runs, END_TO_END)["w"]["ops"]["b"]
    assert got == {"ratio": pytest.approx(0.5), "pairs": 10, "pairs_won": 9}
    assert bench_pairs.summarize(aa_block(), END_TO_END)["w"]["ops"] == {}


def test_quartiles_follow_perfbench():
    assert bench_pairs.quartiles([3.0]) == {"median": 3.0, "q1": 3.0, "q3": 3.0}
    got = bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0])
    assert got == {"median": 2.5, "q1": 1.25, "q3": 3.75}


def test_fewer_than_ten_pairs_is_never_a_gain():
    # every pair won by far, but the rule needs at least PAIRS pairs
    for n in (1, 9):
        runs = aa_block() + paired(BASE[:n], [w - 0.5 for w in BASE[:n]], throughput=20.0)
        got = bench_pairs.summarize(runs, END_TO_END)["w"]["metrics"]
        assert got["wall_s"]["pairs"] == got["wall_s"]["pairs_won"] == n
        assert got["wall_s"]["verdict"] == got["throughput"]["verdict"] == "no change"
    assert bench_pairs.PAIRS == 10


def test_run_pairs_alternates_the_first_side_and_labels_each_run():
    calls = []

    def measure(root, seed):
        calls.append((root, seed))
        return {"correct": True, "failed": 0, "metrics": {"wall_s": 1.0}, "digests": "d"}

    trees = {"base": "B", "change": "C"}
    runs = bench_pairs.run_pairs(trees, measure, "w", [7, 8, 9], "pairs", ("base", "change"))
    assert calls == [("B", 7), ("C", 7), ("C", 8), ("B", 8), ("B", 9), ("C", 9)]
    assert [(r["pair"], r["side"], r["first"]) for r in runs] == [
        (0, "base", "base"), (0, "change", "base"), (1, "change", "change"),
        (1, "base", "change"), (2, "base", "base"), (2, "change", "base")]
    assert {r["workload"] for r in runs} == {"w"} and {r["block"] for r in runs} == {"pairs"}


def test_the_environment_names_the_c_library_and_the_malloc_variables(monkeypatch):
    for name in [k for k in bench_pairs.os.environ if k.startswith("MALLOC_")]:
        monkeypatch.delenv(name)
    assert bench_pairs.allocator()["malloc_env"] == {}
    monkeypatch.setenv("MALLOC_TRIM_THRESHOLD_", "131072")
    monkeypatch.setenv("MALLOC_ARENA_MAX", "2")
    got = bench_pairs.allocator()
    assert got["malloc_env"] == {"MALLOC_ARENA_MAX": "2", "MALLOC_TRIM_THRESHOLD_": "131072"}
    try:
        libc = bench_pairs.os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        libc = None
    assert got["libc"] == libc
    assert libc is None or libc.startswith("glibc ")
