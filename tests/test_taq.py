"""Trade-file ingestion, day alignment, empirical ensembles, scaling."""

import io
import math
import tempfile
from dataclasses import replace
from datetime import date as _date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eppsim import taq
from eppsim.errors import DataError, ParameterError, ScalingError, SkipDay
from eppsim.experiments import CurvePoint, EppsCurve, ribbon
from eppsim.estimators import measured_correlation
from eppsim.sampling import previous_tick_grid
from eppsim.taq import (
    DAY_WINDOW,
    ParseResult,
    TradeDay,
    TradeRecord,
    build_day_pair,
    combine,
    empirical_curve,
    empirical_kskip,
    interarrival_stats,
    pair_days,
    parse_trades,
    saturation_scale,
    ticker_interarrival_stats,
    write_trades,
)

HEADER = "date,ticker,timestamp,price,volume"


def parse_text(text: str):
    return parse_trades(io.StringIO(text))


def rec(ts, price, volume=1.0, ticker="AAA", date="2023-01-02"):
    return TradeRecord(ts, price, volume, ticker, date)


# ---------------------------------------------------------------------------
# parsing


def test_empty_data_section_is_fine():
    res = parse_text(HEADER + "\n")
    assert res.records == {}
    assert res.n_rows == 0
    assert res.diagnostics == ()


def test_volume_weighted_same_timestamp_merge():
    res = parse_text(
        f"{HEADER}\n"
        "2023-01-02,AAA,100.0,100,1\n"
        "2023-01-02,AAA,100.0,102,3\n"
    )
    (only,) = res.records[("AAA", "2023-01-02")]
    assert only.price == pytest.approx(101.5, abs=1e-12)
    assert only.volume == 4.0


def test_merge_conserves_notional():
    rows = [
        "2023-01-02,AAA,10.0,100,2",
        "2023-01-02,AAA,10.0,104,1",
        "2023-01-02,AAA,10.0,98,5",
        "2023-01-02,AAA,20.0,101,3",
    ]
    res = parse_text(HEADER + "\n" + "\n".join(rows) + "\n")
    notional_in = 100 * 2 + 104 * 1 + 98 * 5 + 101 * 3
    merged = res.records[("AAA", "2023-01-02")]
    notional_out = sum(r.price * r.volume for r in merged)
    assert notional_out == pytest.approx(notional_in, rel=1e-12)
    assert len(merged) == 2


def test_out_of_order_rows_come_back_sorted():
    res = parse_text(
        f"{HEADER}\n"
        "2023-01-02,AAA,30.0,101,1\n"
        "2023-01-02,AAA,10.0,100,1\n"
        "2023-01-02,AAA,20.0,99,1\n"
    )
    times = [r.timestamp for r in res.records[("AAA", "2023-01-02")]]
    assert times == [10.0, 20.0, 30.0]


def test_clock_timestamps_rebased_to_earliest_trade_per_date():
    res = parse_text(
        f"{HEADER}\n"
        "2023-01-02,AAA,09:00:10.500,100,1\n"
        "2023-01-02,BBB,09:00:00.000,50,1\n"
        "2023-01-02,AAA,09:01:00.000,101,1\n"
    )
    assert res.timestamp_format == "clock"
    aaa = res.records[("AAA", "2023-01-02")]
    bbb = res.records[("BBB", "2023-01-02")]
    assert bbb[0].timestamp == 0.0
    assert aaa[0].timestamp == pytest.approx(10.5, abs=1e-9)
    assert aaa[1].timestamp == pytest.approx(60.0, abs=1e-9)


def test_bad_header_raises():
    with pytest.raises(DataError):
        parse_text("ticker,date,timestamp,price,volume\n")
    with pytest.raises(DataError):
        parse_text("")


def test_corrupt_rows_get_line_numbered_diagnostics():
    res = parse_text(
        f"{HEADER}\n"
        "2023-01-02,AAA,10.0,100,1\n"
        "2023-01-02,AAA,11.0,100\n"
        "not-a-date,AAA,12.0,100,1\n"
        "2023-01-02,,13.0,100,1\n"
        "2023-01-02,AAA,xyz,100,1\n"
        "2023-01-02,AAA,-5.0,100,1\n"
        "2023-01-02,AAA,14.0,-100,1\n"
        "2023-01-02,AAA,15.0,100,0\n"
    )
    assert res.n_used == 1
    assert len(res.diagnostics) == 7
    for lineno, needle in [(3, "5 fields"), (4, "bad date"), (5, "empty ticker"),
                           (6, "bad timestamp"), (7, "outside the day"),
                           (8, "non-positive price"), (9, "non-positive volume")]:
        matching = [d for d in res.diagnostics if d.startswith(f"line {lineno}:")]
        assert matching and needle in matching[0], (lineno, needle, res.diagnostics)


def test_mixed_timestamp_formats_rejected_per_row():
    res = parse_text(
        f"{HEADER}\n"
        "2023-01-02,AAA,10.0,100,1\n"
        "2023-01-02,AAA,09:00:05,101,1\n"
    )
    assert res.n_used == 1
    assert len(res.diagnostics) == 1
    assert "does not match" in res.diagnostics[0]


def test_unreadable_file_raises():
    with pytest.raises(DataError):
        parse_trades("/nonexistent/trades.csv")


def test_write_then_parse_round_trip(tmp_path):
    res = parse_text(
        f"{HEADER}\n"
        "2023-01-02,AAA,10.25,100.5,2\n"
        "2023-01-02,BBB,11.125,50.25,3\n"
        "2023-01-03,AAA,9.5,101.75,1\n"
    )
    out = tmp_path / "trades.csv"
    all_records = [r for recs in res.records.values() for r in recs]
    write_trades(out, all_records)
    again = parse_trades(out)
    assert again.records == res.records


def test_combine_merges_across_files():
    a = parse_text(f"{HEADER}\n2023-01-02,AAA,10.0,100,1\n")
    b = parse_text(f"{HEADER}\n2023-01-02,AAA,10.0,102,3\n2023-01-02,BBB,5.0,50,1\n")
    merged = combine([a, b])
    (rec_aaa,) = merged.records[("AAA", "2023-01-02")]
    assert rec_aaa.price == pytest.approx(101.5)
    assert ("BBB", "2023-01-02") in merged.records
    assert merged.n_rows == 3
    with pytest.raises(DataError):
        combine([])


def test_records_are_read_only_columnar_days():
    res = parse_text(f"{HEADER}\n2023-01-02,AAA,10.0,100,1\n2023-01-02,AAA,5.0,101,2\n")
    day = res.records[("AAA", "2023-01-02")]
    assert isinstance(day, TradeDay)
    assert day.timestamp.tolist() == [5.0, 10.0]
    assert day[-1] == rec(10.0, 100.0)
    assert list(day) == [rec(5.0, 101.0, 2.0), rec(10.0, 100.0)]
    with pytest.raises(ValueError):
        day.price[0] = 1.0
    assert day != replace(day, volume=np.array([2.0, 2.0]))


def test_parse_and_pair_build_no_trade_records(monkeypatch):
    monkeypatch.setattr(taq, "TradeRecord", None)
    parsed = parse_text(
        f"{HEADER}\n2023-01-02,AAA,10.0,100,1\n2023-01-02,AAA,10.0,102,3\n"
        "2023-01-02,BBB,20.0,50,1\n"
    )
    days, skipped = pair_days(combine([parsed, parsed]), "AAA", "BBB")
    assert len(days) == 1 and not skipped
    assert all(math.isnan(x) for x in ticker_interarrival_stats(parsed, "AAA"))


@pytest.mark.parametrize("chunk", [1, taq.CHUNK_LINES])
def test_non_utf8_file_is_a_data_error_with_its_offset(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(taq, "CHUNK_LINES", chunk)
    data = f"{HEADER}\n2023-01-02,AAA,1.0,100,1\n2023-01-02,Caf\xe9,2.0,1,1\n".encode("latin-1")
    src = tmp_path / "trades.csv"
    src.write_bytes(data)
    offset = data.index(b"\xe9")
    message = f"trades.csv: not UTF-8 text: byte 0xe9 at offset {offset}$"
    with pytest.raises(DataError, match=message):
        parse_trades(src)


# ---------------------------------------------------------------------------
# the row-by-row parser, kept as the oracle of parse_trades and combine


def _oracle_merge(day) -> tuple[TradeRecord, ...]:
    merged: list[TradeRecord] = []
    i = 0
    while i < len(day):
        j = i
        while j + 1 < len(day) and day[j + 1].timestamp == day[i].timestamp:
            j += 1
        if j == i:
            merged.append(day[i])
        else:
            batch = day[i : j + 1]
            vol = 0.0
            notional = 0.0
            for r in batch:  # strictly left to right, as parse_trades sums
                vol += r.volume
                notional += r.price * r.volume
            merged.append(replace(batch[0], price=notional / vol, volume=vol))
        i = j + 1
    return tuple(merged)


def row_parse_oracle(text: str) -> ParseResult:
    """parse_trades one row at a time, with one TradeRecord per row."""
    lines = text.splitlines()
    if not lines:
        raise DataError("empty file")
    header = tuple(h.strip().lower() for h in lines[0].split(","))
    if header != ("date", "ticker", "timestamp", "price", "volume"):
        raise DataError("bad header")
    fmt = None
    for line in lines[1:]:
        parts = [p.strip() for p in line.split(",")]
        if line.strip() and len(parts) == 5:
            fmt = "clock" if ":" in parts[2] else "seconds"
            break
    diagnostics: list[str] = []
    raw: list[TradeRecord] = []
    n_rows = 0
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        n_rows += 1
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 5:
            diagnostics.append(f"line {lineno}: expected 5 fields, got {len(parts)}")
            continue
        date_s, ticker, ts_s, price_s, vol_s = parts
        try:
            _date.fromisoformat(date_s)
        except ValueError:
            diagnostics.append(f"line {lineno}: bad date {date_s!r}")
            continue
        if not ticker:
            diagnostics.append(f"line {lineno}: empty ticker")
            continue
        is_clock = ":" in ts_s
        if is_clock != (fmt == "clock"):
            diagnostics.append(
                f"line {lineno}: timestamp {ts_s!r} does not match the {fmt}-format column"
            )
            continue
        try:
            ts = taq._parse_clock(ts_s) if is_clock else float(ts_s)
        except ValueError:
            diagnostics.append(f"line {lineno}: bad timestamp {ts_s!r}")
            continue
        if not math.isfinite(ts) or ts < 0.0:
            diagnostics.append(f"line {lineno}: timestamp {ts_s!r} outside the day")
            continue
        try:
            price = float(price_s)
            volume = float(vol_s)
        except ValueError:
            diagnostics.append(f"line {lineno}: bad price/volume {price_s!r}/{vol_s!r}")
            continue
        if not math.isfinite(price) or price <= 0.0:
            diagnostics.append(f"line {lineno}: non-positive price {price_s}")
            continue
        if not math.isfinite(volume) or volume <= 0.0:
            diagnostics.append(f"line {lineno}: non-positive volume {vol_s}")
            continue
        raw.append(TradeRecord(ts, price, volume, ticker, date_s))
    if fmt == "clock" and raw:
        origin: dict[str, float] = {}
        for r in raw:
            origin[r.date] = min(origin.get(r.date, math.inf), r.timestamp)
        raw = [replace(r, timestamp=r.timestamp - origin[r.date]) for r in raw]
    grouped: dict[tuple[str, str], list[TradeRecord]] = {}
    for r in raw:
        grouped.setdefault((r.ticker, r.date), []).append(r)
    return ParseResult(
        records={
            key: _oracle_merge(sorted(grouped[key], key=lambda r: r.timestamp))
            for key in sorted(grouped)
        },
        diagnostics=tuple(diagnostics),
        n_rows=n_rows,
        n_used=len(raw),
        timestamp_format=fmt if n_rows else None,
    )


def row_combine_oracle(results) -> dict:
    pooled: dict[tuple[str, str], list[TradeRecord]] = {}
    for res in results:
        for key, recs in res.records.items():
            pooled.setdefault(key, []).extend(recs)
    return {
        key: _oracle_merge(sorted(pooled[key], key=lambda r: r.timestamp))
        for key in sorted(pooled)
    }


def bits(records: dict) -> dict:
    """Every record as exact float bits, so -0.0 and 0.0 differ."""
    return {
        key: [(r.timestamp.hex(), r.price.hex(), r.volume.hex(), r.ticker, r.date) for r in day]
        for key, day in records.items()
    }


# field values, the valid ones first: (valid, invalid)
_DATES = (("2024-01-02", "2024-01-03", "20240104"), ("2024-02-30", "not-a-date", ""))
_TICKERS = (("AAA", "BBB", "C C"), ("",))
_SECONDS = (("0", "0.0", "-0.0", "1.5", "1.50", "15e-1", "2", "7.25", "1_0"),
            ("-3", "inf", "nan", "x", "", "09:30:00"))
_CLOCK = (("09:30:00", "09:30:00.250", "09:30", "10:00:00", "10:00:00+01:00", "09:45:00"),
          ("25:00:00", "ab:cd", "12.5"))
_PRICES = (("100", "100.5", "99.25", "1e-3", "3", "0.1"), ("0", "-1", "nan", "inf", "n/a", ""))
_VOLUMES = (("1", "2", "3.5", "100", "0.7"), ("0", "-2", "nan", "x", ""))
_PADS = ("", " ", "\t", "\xa0 ")


def _values(pool):
    valid, invalid = pool
    return st.sampled_from(valid * 8 + invalid)


@st.composite
def trade_lines(draw, clock: bool):
    """Data lines of one trade file: every row kind, padding and long runs."""
    pools = (_DATES, _TICKERS, _CLOCK if clock else _SECONDS, _PRICES, _VOLUMES)
    lines = []
    for kind in draw(st.lists(st.sampled_from(["row"] * 8 + ["short", "long", "blank", "run"]),
                              max_size=40)):
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", "   ", "\t"])))
            continue
        if kind == "run":  # one valid trade time, nine to twelve times over
            stamp = draw(st.sampled_from(["09:45:00"] if clock else ["7.25", "0"]))
            ticker = draw(st.sampled_from(_TICKERS[0]))
            lines += [f"2024-01-02,{ticker},{stamp},{draw(st.sampled_from(_PRICES[0]))},"
                      f"{draw(st.sampled_from(_VOLUMES[0]))}"
                      for _ in range(draw(st.integers(9, 12)))]
            continue
        parts = [draw(_values(pool)) for pool in pools]
        if kind == "short":
            parts = parts[: draw(st.integers(1, 4))]
        elif kind == "long":
            parts.append("7")
        pad = draw(st.sampled_from(_PADS))
        lines.append(",".join(f"{pad}{p}{pad}" if draw(st.booleans()) else p for p in parts))
    return lines


@st.composite
def trade_files(draw):
    """Text of two trade files and the block size to parse them with."""
    texts = []
    for _ in range(2):
        lines = draw(trade_lines(clock=draw(st.booleans())))
        ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
        body = "".join(line + end for line, end in zip(lines, ends))
        texts.append(HEADER + "\n" + (body if draw(st.booleans()) else body.rstrip("\r\n")))
    return texts, draw(st.sampled_from([1, 2, 3, 7, taq.CHUNK_LINES]))


@given(trade_files())
@settings(max_examples=150, deadline=None)
def test_parse_trades_matches_row_parser_oracle(files):
    texts, chunk = files
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        mp.setattr(taq, "CHUNK_LINES", chunk)
        parsed = []
        for k, text in enumerate(texts):
            path = Path(tmp) / f"{k}.csv"
            path.write_bytes(text.encode("utf-8"))
            want = row_parse_oracle(text)
            for got in (parse_trades(io.StringIO(text)), parse_trades(path)):
                assert got.diagnostics == want.diagnostics
                assert (got.n_rows, got.n_used, got.timestamp_format) == (
                    want.n_rows, want.n_used, want.timestamp_format
                )
                assert list(got.records) == list(want.records)
                assert bits(got.records) == bits(want.records)
            parsed.append((got, want))
        both = combine([got for got, _ in parsed])
        assert bits(both.records) == bits(row_combine_oracle([want for _, want in parsed]))


# ---------------------------------------------------------------------------
# day alignment


def test_day_pair_origin_and_standing_value():
    a = [rec(10.0, 100.0), rec(40.0, 101.0)]
    b = [rec(30.0, 50.0, ticker="BBB"), rec(50.0, 51.0, ticker="BBB")]
    pair = build_day_pair(a, b, "2023-01-02")
    np.testing.assert_allclose(pair.series_a.times, [0.0, 10.0])
    np.testing.assert_allclose(pair.series_a.values, [math.log(100.0), math.log(101.0)])
    np.testing.assert_allclose(pair.series_b.times, [0.0, 20.0])
    np.testing.assert_allclose(pair.series_b.values, [math.log(50.0), math.log(51.0)])
    assert pair.horizon == DAY_WINDOW


def test_day_pair_skips_when_all_trades_late():
    a = [rec(28201.0, 100.0), rec(29000.0, 101.0)]
    b = [rec(30.0, 50.0, ticker="BBB")]
    with pytest.raises(SkipDay):
        build_day_pair(a, b, "2023-01-02")


def test_day_pair_drops_trades_outside_window():
    a = [rec(10.0, 100.0), rec(28000.0, 101.0), rec(28600.0, 102.0)]
    b = [rec(20.0, 50.0, ticker="BBB")]
    pair = build_day_pair(a, b)
    # the 28600 s trade fell outside the absolute day window
    assert len(pair.series_a) == 2
    assert pair.series_a.times[-1] == pytest.approx(28000.0 - 20.0)


def test_pair_days_reports_skips_and_validates_tickers():
    text = (
        f"{HEADER}\n"
        "2023-01-02,AAA,10.0,100,1\n"
        "2023-01-02,BBB,20.0,50,1\n"
        "2023-01-03,AAA,28999.0,100,1\n"
        "2023-01-03,BBB,10.0,50,1\n"
    )
    parsed = parse_text(text)
    days, skipped = pair_days(parsed, "AAA", "BBB")
    assert [d.date for d in days] == ["2023-01-02"]
    assert skipped == ["2023-01-03"]
    with pytest.raises(ParameterError):
        pair_days(parsed, "AAA", "AAA")
    with pytest.raises(DataError):
        pair_days(parsed, "AAA", "ZZZ")


# ---------------------------------------------------------------------------
# inter-arrival statistics


def test_interarrival_equispaced():
    day = [rec(float(t), 100.0) for t in range(0, 30, 5)]
    mean, sd = interarrival_stats([day])
    assert mean == 5.0
    assert sd == 0.0


def test_interarrival_hand_computed_pooled_fixture():
    day1 = [rec(0.0, 100.0), rec(2.0, 100.5), rec(6.0, 101.0)]
    day2 = [rec(0.0, 100.0, date="2023-01-03"), rec(3.0, 100.2, date="2023-01-03")]
    mean, sd = interarrival_stats([day1, day2])
    # pooled gaps {2, 4, 3}: never a cross-day 6 -> 0 difference
    assert mean == pytest.approx(3.0, abs=1e-12)
    assert sd == pytest.approx(1.0, abs=1e-12)


def test_interarrival_single_trade_day_contributes_nothing():
    day1 = [rec(0.0, 100.0), rec(2.0, 100.5), rec(6.0, 101.0)]
    lonely = [rec(5.0, 100.0, date="2023-01-03")]
    assert interarrival_stats([day1, lonely]) == interarrival_stats([day1])


def test_interarrival_no_usable_day_is_nan():
    mean, sd = interarrival_stats([[rec(5.0, 100.0)]])
    assert math.isnan(mean) and math.isnan(sd)


def test_ticker_interarrival_stats_runs_per_ticker():
    text = (
        f"{HEADER}\n"
        "2023-01-02,AAA,0.0,100,1\n"
        "2023-01-02,AAA,2.0,100,1\n"
        "2023-01-02,AAA,6.0,100,1\n"
        "2023-01-03,AAA,0.0,100,1\n"
        "2023-01-03,AAA,3.0,100,1\n"
        "2023-01-02,BBB,0.0,50,1\n"
    )
    parsed = parse_text(text)
    mean, sd = ticker_interarrival_stats(parsed, "AAA")
    assert (mean, sd) == (pytest.approx(3.0), pytest.approx(1.0))


def test_day_order_does_not_change_pooled_stats():
    day1 = [rec(0.0, 100.0), rec(2.0, 100.5), rec(6.0, 101.0)]
    day2 = [rec(0.0, 100.0, date="2023-01-03"), rec(3.0, 100.2, date="2023-01-03")]
    assert interarrival_stats([day1, day2]) == pytest.approx(
        interarrival_stats([day2, day1])
    )


# ---------------------------------------------------------------------------
# empirical ensembles


def synthetic_days(n_days=3, rate=0.2, seed0=100):
    from eppsim.paths import GbmParams, simulate_gbm
    from eppsim.sampling import observe_path, poisson_arrivals

    days = []
    horizon = DAY_WINDOW
    gbm = GbmParams(mu1=0.01, mu2=0.01, sigma_sq1=0.1, sigma_sq2=0.2, rho=0.65,
                    horizon=horizon)
    for d in range(n_days):
        path = simulate_gbm(gbm, seed0 + d)
        rows_a, rows_b = [], []
        date = f"2023-01-{2 + d:02d}"
        for asset, rows, tick in ((0, rows_a, "AAA"), (1, rows_b, "BBB")):
            u = poisson_arrivals(rate, horizon, seed0 + 10 * d + asset)
            s = observe_path(path, u, asset)
            rows.extend(
                rec(float(t), float(np.exp(v)) * 100.0, ticker=tick, date=date)
                for t, v in zip(s.times, s.values)
            )
        days.append(build_day_pair(rows_a, rows_b, date))
    return days


def test_empirical_curve_matches_in_memory_pipeline():
    days = synthetic_days()
    dt_grid = (10.0, 30.0)
    curve = empirical_curve(days, dt_grid, estimators=("measured",))
    for j, dt in enumerate(dt_grid):
        per_day = []
        for day in days:
            gi = previous_tick_grid(day.series_a, dt, DAY_WINDOW)
            gj = previous_tick_grid(day.series_b, dt, DAY_WINDOW)
            per_day.append(measured_correlation(gi, gj).rho)
        mean, hw = ribbon(per_day, 0.95)
        point = curve.series["measured"][j]
        assert point.mean == pytest.approx(mean, abs=1e-14)
        assert point.half_width == pytest.approx(hw, abs=1e-14)
        assert point.n_ok == len(days)
    assert curve.meta["n_days"] == 3


def test_empirical_curve_carries_all_default_estimators():
    days = synthetic_days(n_days=2)
    curve = empirical_curve(days, (15.0,))
    assert set(curve.series) == {"measured", "flat_trade", "overlap", "hy"}


def test_empirical_kskip_produces_curve_and_verdict():
    days = synthetic_days()
    curve, verdict = empirical_kskip(days, k_max=12)
    assert curve.axis_label == "k"
    assert len(curve.series["hy"]) == 12
    assert verdict.classification in ("discrete_events", "diffusion_like", "inconclusive")
    assert curve.meta["n_days"] == 3
    with pytest.raises(DataError):
        empirical_kskip([], 10)
    for bad in (0, 7.9, True):
        with pytest.raises(ParameterError):
            empirical_kskip(days, bad)


# ---------------------------------------------------------------------------
# saturation scaling


def curve_from_means(means, hw=0.05, label="measured"):
    pts = tuple(
        CurvePoint(float(10 * (i + 1)), float(m), hw, 3, 0) for i, m in enumerate(means)
    )
    return EppsCurve(axis_label="dt", series={label: pts})


def test_saturation_identity_when_plateau_is_one():
    curve = curve_from_means(np.concatenate([np.linspace(0.2, 1.0, 9), [1.0]]))
    scaled = saturation_scale(curve)
    assert scaled.meta["saturation_level"] == pytest.approx(1.0, abs=1e-12)
    got = [p.mean for p in scaled.series["measured"]]
    want = [p.mean for p in curve.series["measured"]]
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_saturation_constant_curve_becomes_one():
    scaled = saturation_scale(curve_from_means(np.full(10, 0.4)))
    assert all(p.mean == pytest.approx(1.0, abs=1e-12) for p in scaled.series["measured"])
    assert scaled.meta["saturation_level"] == pytest.approx(0.4, abs=1e-12)


def test_saturation_monotone_curve_plateaus_at_one():
    means = 0.65 * (1.0 - np.exp(-np.arange(1, 21) / 4.0))
    scaled = saturation_scale(curve_from_means(means, hw=0.02))
    last = scaled.series["measured"][-1]
    assert abs(last.mean - 1.0) <= last.half_width
    # half-widths rescale with the means
    assert last.half_width == pytest.approx(0.02 / scaled.meta["saturation_level"])


def test_saturation_negative_level_rejected():
    with pytest.raises(ScalingError):
        saturation_scale(curve_from_means(np.full(10, -0.2)))


def test_saturation_reference_series_selection():
    pts = curve_from_means(np.full(10, 0.5)).series["measured"]
    two = EppsCurve(axis_label="dt", series={"overlap": pts, "hy": pts})
    with pytest.raises(ParameterError):
        saturation_scale(two)
    assert saturation_scale(two, "hy").meta["saturation_series"] == "hy"
    with pytest.raises(ParameterError):
        saturation_scale(two, "kernel")
