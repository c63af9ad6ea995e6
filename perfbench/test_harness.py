"""Self-checks of the benchmark's own arithmetic and inputs.

    python3 -m pytest perfbench/test_harness.py

They need neither eppsim nor a checkout: spans, summaries, the import
time parser and the trade-file generator are checked on their own.
"""

import math
import statistics

import gen_trades
import measure
from spans import Span, Tracer, self_times


def _span(i, parent, start, end):
    return Span(i, f"s{i}", "layer", parent, 0, start, end)


def test_self_time_subtracts_children_once():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 3.0),
        _span(2, 0, 4.0, 8.0),
        _span(3, 2, 5.0, 6.0),  # grandchild: charged to span 2, not to 0
    ]
    got = self_times(spans)
    assert got == {0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0}


def test_self_time_counts_overlapping_children_once():
    # children of one span never overlap in a single thread, but a clipped or
    # overlapping interval must still not be subtracted twice
    spans = [_span(0, None, 0.0, 10.0), _span(1, 0, 2.0, 6.0), _span(2, 0, 5.0, 12.0)]
    assert self_times(spans)[0] == 2.0


def test_tracer_nests_and_records_errors():
    tr = Tracer()
    with tr.span("outer"):
        tr.call("inner", "layer", len, "abc", count=lambda n: n)
        try:
            tr.call("bad", "layer", int, "x")
        except ValueError:
            pass
    outer, inner, bad = tr.spans
    assert (outer.parent, inner.parent, bad.parent) == (None, 0, 0)
    assert inner.attrs["n"] == 3 and inner.error is None
    assert bad.error is ValueError
    assert outer.start <= inner.start <= inner.end <= bad.start <= bad.end <= outer.end


def test_quartiles_match_statistics_and_spread():
    values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0]
    q1, q2, q3 = measure.quartiles(values)
    assert [q1, q2, q3] == statistics.quantiles(values, n=4)
    assert q2 == measure.median(values) == 3.5
    assert measure.spread(values) == (q3 - q1) / q2
    assert measure.spread([2.0] * 4) == 0.0


def test_at_reference_speed_scales_the_mean():
    ref = measure.REFERENCE_S
    assert math.isclose(measure.at_reference_speed([2.0, 4.0], [ref, ref]), 3.0)
    # a machine at half speed doubles the reference and the raw time alike
    assert math.isclose(measure.at_reference_speed([4.0, 8.0], [2 * ref, 2 * ref, 2 * ref]), 3.0)


def test_reference_kernel_is_deterministic():
    assert measure.reference_kernel() == measure.reference_kernel()
    assert len(measure.reference_times(calls=3)) == 3


def test_importtime_sums_self_time_per_package():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:        50 |        150 |   numpy",
        "import time:      2000 |       2000 |       scipy.special",
        "import time:        10 |       2160 |     scipy.stats",
        "import time:         5 |       2315 | eppsim.cli",
        "import time:         7 |          7 | json",
    ])
    assert measure.parse_importtime(text) == {"numpy": 150e-6, "scipy": 2010e-6, "eppsim": 5e-6}


def test_generator_is_byte_identical_per_seed(tmp_path):
    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    ea = gen_trades.generate(a, 7, n_days=2)
    eb = gen_trades.generate(b, 7, n_days=2)
    gen_trades.generate(c, 8, n_days=2)
    assert a.read_bytes() == b.read_bytes() and ea == eb
    assert a.read_bytes() != c.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == "date,ticker,timestamp,price,volume"
    assert ea["rows"] == len(lines) - 1 and ea["file_bytes"] == a.stat().st_size
    assert ea["trades_past_window"] > 0


def test_generator_counts_match_the_rows(tmp_path):
    # recount what a correct parse must find, without eppsim
    path = tmp_path / "t.csv"
    expect = gen_trades.generate(path, 3, n_days=3)
    good, keys = 0, set()
    for line in path.read_text().splitlines()[1:]:
        parts = line.split(",")
        ok = (
            len(parts) == 5
            and parts[0].startswith("2024-01-")
            and parts[1] in gen_trades.TICKERS
            and ":" not in parts[2]
            and parts[2].count(".") == 1
            and parts[3].replace(".", "", 1).isdigit()
            and parts[4].isdigit()
            and int(parts[4]) > 0
        )
        if ok:
            good += 1
            keys.add((parts[0], parts[1], float(parts[2])))
    assert good == expect["rows"] - expect["rows_rejected"]
    assert len(keys) == expect["records"]
    assert expect["rows_rejected"] >= 1
