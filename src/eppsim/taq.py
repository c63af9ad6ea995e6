"""Trade-record ingestion and the empirical correlation pipeline.

Input is a trade CSV with header `date,ticker,timestamp,price,volume`.
Timestamps are either decimal seconds from the start of the trading day
or wall-clock `HH:MM:SS[.fff]`; the format is detected from the file
content. Clock times are re-based per date so that the earliest trade
across all tickers sits at 0, putting both conventions on the same
"seconds since day start" footing.

Cleaning conventions: trades of one ticker sharing a bit-equal timestamp
are merged into a single volume-weighted record (no epsilon merging);
each day is cut to the window [0, 28200] seconds; a pair's common clock
starts once both legs have traded, with the later first trade defining
t=0 and any earlier trade of the other leg standing as its previous-tick
value at 0. Ensembles treat days as replications, so ribbon quantiles
use n_days - 1 degrees of freedom.
"""

import math
from dataclasses import dataclass, replace
from datetime import date as _date, time as _time

import numpy as np

from .errors import DataError, ParameterError, ScalingError, SkipDay
from .experiments import (
    CurvePoint,
    EppsCurve,
    aggregate_curve,
    discriminate,
    estimate_matrix,
    k_skip_stack,
)
from .series import ArrivalSet, TickSeries

DAY_WINDOW = 28200.0

_HEADER = ("date", "ticker", "timestamp", "price", "volume")


@dataclass(frozen=True)
class TradeRecord:
    timestamp: float  # seconds since day start
    price: float
    volume: float
    ticker: str
    date: str  # ISO YYYY-MM-DD


@dataclass(frozen=True)
class ParseResult:
    """Validated, aggregated records keyed by (ticker, date).

    diagnostics carries one line-numbered message per rejected row;
    rejected rows never abort the parse. n_rows counts data rows seen.
    """

    records: dict[tuple[str, str], tuple[TradeRecord, ...]]
    diagnostics: tuple[str, ...]
    n_rows: int
    n_used: int
    timestamp_format: str | None  # "seconds" | "clock" | None for empty files

    def tickers(self) -> tuple[str, ...]:
        return tuple(sorted({t for t, _ in self.records}))

    def dates(self, ticker: str) -> tuple[str, ...]:
        return tuple(sorted(d for t, d in self.records if t == ticker))


@dataclass(frozen=True)
class DayPair:
    """One day of a ticker pair on the common clock, log prices."""

    series_a: TickSeries
    series_b: TickSeries
    date: str = ""
    horizon: float = DAY_WINDOW


def _parse_clock(text: str) -> float:
    t = _time.fromisoformat(text)
    return t.hour * 3600.0 + t.minute * 60.0 + t.second + t.microsecond / 1e6


def _split_row(line: str) -> list[str]:
    return [part.strip() for part in line.split(",")]


def _merge_same_timestamp(day) -> tuple[TradeRecord, ...]:
    """Collapse bit-equal timestamps into volume-weighted records."""
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
            vol = sum(r.volume for r in batch)
            px = sum(r.price * r.volume for r in batch) / vol
            merged.append(replace(batch[0], price=px, volume=vol))
        i = j + 1
    return tuple(merged)


def parse_trades(source) -> ParseResult:
    """Read, validate, and aggregate a trade CSV.

    source is a path or an open text file. A missing or reordered header
    and an unreadable file raise DataError; everything row-level (wrong
    field count, bad date, bad timestamp, non-positive price or volume,
    timestamp format mixing) is rejected with a line-numbered diagnostic
    and skipped. Per (ticker, date) the surviving rows are sorted by
    timestamp (stable) and same-timestamp trades are merged into one
    record with the volume-weighted price and the summed volume, which
    conserves traded notional.
    """
    if hasattr(source, "read"):
        lines = source.read().splitlines()
        name = getattr(source, "name", "<stream>")
    else:
        name = str(source)
        try:
            with open(source, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except OSError as exc:
            raise DataError(f"cannot read {name}: {exc}") from exc
    if not lines:
        raise DataError(f"{name}: empty file, expected header {','.join(_HEADER)}")
    header = tuple(h.strip().lower() for h in _split_row(lines[0]))
    if header != _HEADER:
        raise DataError(
            f"{name}: bad header {','.join(header)!r}, expected {','.join(_HEADER)}"
        )

    fmt = None
    for line in lines[1:]:
        if not line.strip():
            continue
        parts = _split_row(line)
        if len(parts) == len(_HEADER):
            fmt = "clock" if ":" in parts[2] else "seconds"
            break

    diagnostics: list[str] = []
    raw: list[TradeRecord] = []
    n_rows = 0
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        n_rows += 1
        parts = _split_row(line)
        if len(parts) != len(_HEADER):
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
                f"line {lineno}: timestamp {ts_s!r} does not match the "
                f"{fmt}-format column"
            )
            continue
        try:
            ts = _parse_clock(ts_s) if is_clock else float(ts_s)
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
        # put each date's earliest trade (over all tickers) at t=0
        origin: dict[str, float] = {}
        for rec in raw:
            origin[rec.date] = min(origin.get(rec.date, math.inf), rec.timestamp)
        raw = [replace(r, timestamp=r.timestamp - origin[r.date]) for r in raw]

    grouped: dict[tuple[str, str], list[TradeRecord]] = {}
    for rec in raw:
        grouped.setdefault((rec.ticker, rec.date), []).append(rec)
    records = {
        key: _merge_same_timestamp(sorted(grouped[key], key=lambda r: r.timestamp))
        for key in sorted(grouped)
    }
    return ParseResult(
        records=records,
        diagnostics=tuple(diagnostics),
        n_rows=n_rows,
        n_used=len(raw),
        timestamp_format=fmt if n_rows else None,
    )


def combine(results) -> ParseResult:
    """Merge several parsed files into one record set.

    Records landing on the same (ticker, date, timestamp) across files are
    volume-weight merged exactly as within one file; diagnostics and row
    counts concatenate.
    """
    results = list(results)
    if not results:
        raise DataError("no parse results to combine")
    if len(results) == 1:
        return results[0]
    pooled: dict[tuple[str, str], list[TradeRecord]] = {}
    for res in results:
        for key, recs in res.records.items():
            pooled.setdefault(key, []).extend(recs)
    records = {
        key: _merge_same_timestamp(sorted(pooled[key], key=lambda r: r.timestamp))
        for key in sorted(pooled)
    }
    fmts = {r.timestamp_format for r in results} - {None}
    return ParseResult(
        records=records,
        diagnostics=tuple(d for r in results for d in r.diagnostics),
        n_rows=sum(r.n_rows for r in results),
        n_used=sum(r.n_used for r in results),
        timestamp_format="mixed" if len(fmts) > 1 else (fmts.pop() if fmts else None),
    )


def write_trades(path, records) -> None:
    """Inverse of parse_trades at full float precision (decimal seconds)."""
    recs = sorted(records, key=lambda r: (r.ticker, r.date, r.timestamp))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_HEADER) + "\n")
        for r in recs:
            fh.write(f"{r.date},{r.ticker},{r.timestamp!r},{r.price!r},{r.volume!r}\n")


def _day_leg(records, origin: float) -> TickSeries:
    """Shifted log-price ticks of one leg, standing value first."""
    before = [r for r in records if r.timestamp <= origin]
    after = [r for r in records if r.timestamp > origin]
    times = [0.0] + [r.timestamp - origin for r in after]
    values = [math.log(before[-1].price)] + [math.log(r.price) for r in after]
    return TickSeries(
        times=np.array(times), values=np.array(values), horizon=DAY_WINDOW
    )


def build_day_pair(records_a, records_b, date: str = "") -> DayPair:
    """Align one day of two tickers on the pair's common clock.

    Trades outside the [0, 28200] s day window are dropped first; if that
    empties either leg the day is skipped (SkipDay). t=0 is the later of
    the two first trades, each leg's last trade at or before it stands as
    the value at 0, and later times shift by the origin. Prices come out
    as natural logs.
    """
    a = [r for r in records_a if 0.0 <= r.timestamp <= DAY_WINDOW]
    b = [r for r in records_b if 0.0 <= r.timestamp <= DAY_WINDOW]
    if not a or not b:
        empty = "both legs" if not a and not b else ("leg a" if not a else "leg b")
        raise SkipDay(f"{date or 'day'}: no trades inside the day window for {empty}")
    origin = max(a[0].timestamp, b[0].timestamp)
    return DayPair(
        series_a=_day_leg(a, origin), series_b=_day_leg(b, origin), date=date
    )


def pair_days(parsed: ParseResult, ticker_a: str, ticker_b: str):
    """Aligned DayPair per shared date, plus the dates that were skipped."""
    if ticker_a == ticker_b:
        raise ParameterError(f"pair needs two distinct tickers, got {ticker_a!r} twice")
    for t in (ticker_a, ticker_b):
        if t not in parsed.tickers():
            raise DataError(f"ticker {t!r} not present in the file")
    shared = sorted(set(parsed.dates(ticker_a)) & set(parsed.dates(ticker_b)))
    days: list[DayPair] = []
    skipped: list[str] = []
    for d in shared:
        try:
            days.append(
                build_day_pair(
                    parsed.records[(ticker_a, d)], parsed.records[(ticker_b, d)], d
                )
            )
        except SkipDay:
            skipped.append(d)
    return days, skipped


def interarrival_stats(day_records) -> tuple[float, float]:
    """Pooled inter-arrival mean and standard deviation in seconds.

    day_records is an iterable of per-day record sequences for one
    ticker. Differences are taken within each day only; days with fewer
    than two trades contribute nothing. The sd uses ddof=1, is 0.0 for a
    single pooled difference, and both moments are nan when no day has
    two trades.
    """
    diffs: list[np.ndarray] = []
    for day in day_records:
        ts = np.array([r.timestamp for r in day], dtype=float)
        if ts.size >= 2:
            diffs.append(np.diff(ts))
    if not diffs:
        return math.nan, math.nan
    pool = np.concatenate(diffs)
    sd = float(pool.std(ddof=1)) if pool.size >= 2 else 0.0
    return float(pool.mean()), sd


def ticker_interarrival_stats(parsed: ParseResult, ticker: str) -> tuple[float, float]:
    days = [parsed.records[(ticker, d)] for d in parsed.dates(ticker)]
    return interarrival_stats(days)


def empirical_curve(
    days,
    dt_grid,
    estimators=("measured", "flat_trade", "overlap", "hy"),
    confidence: float = 0.95,
) -> EppsCurve:
    """Correlation curves over a day ensemble, one replication per day.

    Each DayPair contributes one estimate per (estimator, dt); the tick
    times double as the arrival sets for the overlap correction. Ribbons
    are Student t with n_days - 1 degrees of freedom.
    """
    days = list(days)
    if not days:
        raise DataError("no usable days: cannot build an empirical curve")
    dt_grid = tuple(float(d) for d in dt_grid)
    stack = np.empty((len(days), len(estimators), len(dt_grid)))
    for r, day in enumerate(days):
        u1 = ArrivalSet(times=day.series_a.times, horizon=day.horizon)
        u2 = ArrivalSet(times=day.series_b.times, horizon=day.horizon)
        stack[r] = estimate_matrix(
            day.series_a, day.series_b, u1, u2, dt_grid, estimators, day.horizon
        )
    meta = {
        "experiment": "empirical",
        "n_days": len(days),
        "confidence": confidence,
        "dates": [d.date for d in days],
    }
    return aggregate_curve(estimators, confidence, dt_grid, "dt", stack, meta)


def empirical_kskip(
    days,
    k_max: int,
    confidence: float = 0.95,
    tau_abs: float = 0.05,
    z: float = 1.0,
):
    """Per-day k-skip HY curves pooled into a day ensemble, plus verdict.

    Each day contributes one HY estimate per k from its thinned tick sets;
    days where a leg drops below two ticks at some k fail at that point
    only. Returns the aggregated curve and the discrimination verdict on
    it.
    """
    days = list(days)
    if not days:
        raise DataError("no usable days: cannot run the k-skip experiment")
    stack = k_skip_stack(((d.series_a, d.series_b) for d in days), k_max)
    meta = {
        "experiment": "empirical_kskip",
        "n_days": len(days),
        "k_max": int(k_max),
        "confidence": confidence,
        "dates": [d.date for d in days],
    }
    curve = aggregate_curve(("hy",), confidence, range(1, int(k_max) + 1), "k", stack, meta)
    return curve, discriminate(curve, "hy", tau_abs, z)


def saturation_scale(curve: EppsCurve, series: str | None = None) -> EppsCurve:
    """Rescale a curve so that its large-dt plateau sits at 1.

    The saturation level is the mean of the reference series' means over
    the top 10% of the axis range (the "measured" series when present,
    else the curve's only series). Every series' means and half-widths
    are divided by it; a level <= 0 raises ScalingError. The convention
    is recorded in the returned meta.
    """
    if series is None:
        if "measured" in curve.series:
            series = "measured"
        elif len(curve.series) == 1:
            series = next(iter(curve.series))
        else:
            raise ParameterError(
                "curve has several series and none named 'measured'; "
                "name the reference series"
            )
    if series not in curve.series:
        raise ParameterError(f"curve has no series {series!r}")
    ref = [p for p in curve.series[series] if p.n_ok > 0 and math.isfinite(p.mean)]
    if not ref:
        raise ScalingError(f"series {series!r} has no usable points")
    axis = np.array([p.axis for p in ref])
    cut = axis.max() - 0.10 * (axis.max() - axis.min())
    top = [p.mean for p in ref if p.axis >= cut]
    level = float(np.mean(top))
    if level <= 0.0:
        raise ScalingError(f"saturation level {level!r} is not positive")
    scaled = {
        name: tuple(
            CurvePoint(p.axis, p.mean / level, p.half_width / level, p.n_ok, p.n_fail)
            for p in pts
        )
        for name, pts in curve.series.items()
    }
    meta = dict(curve.meta)
    meta.update(
        {
            "saturation_level": level,
            "saturation_series": series,
            "saturation_convention": "mean of the reference series' means over "
            "the top 10% of the axis range",
        }
    )
    return EppsCurve(axis_label=curve.axis_label, series=scaled, meta=meta)
