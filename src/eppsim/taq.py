"""Trade-record ingestion and the empirical correlation pipeline.

Input is a trade CSV with header `date,ticker,timestamp,price,volume`.
Timestamps are either decimal seconds from the start of the trading day
or wall-clock `HH:MM:SS[.fff]`; the format is detected from the file
content. Clock times are re-based per date so that the earliest trade
across all tickers sits at 0, putting both conventions on the same
"seconds since day start" footing.

The file must be UTF-8 (anything else is a DataError naming the byte
offset, exit 3 from the CLI). It is read CHUNK_LINES lines at a time into
numpy columns, and each (ticker, date) comes out as a TradeDay: read-only
timestamp, price and volume arrays that index and iterate as
TradeRecords.

Cleaning conventions: trades of one ticker sharing a bit-equal timestamp
are merged into a single volume-weighted record (no epsilon merging),
summing volume and price * volume strictly left to right in file order
(and, for `combine`, in the order of the files); each day is cut to the
window [0, 28200] seconds; a pair's common clock starts once both legs
have traded, with the later first trade defining t=0 and any earlier
trade of the other leg standing as its previous-tick value at 0.
Ensembles treat days as replications, so ribbon quantiles use
n_days - 1 degrees of freedom.
"""

import math
from dataclasses import dataclass
from datetime import date as _date, time as _time
from itertools import islice

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
CHUNK_LINES = 32768  # lines parsed per block; bounds the parse's transient memory

_HEADER = ("date", "ticker", "timestamp", "price", "volume")


@dataclass(frozen=True)
class TradeRecord:
    timestamp: float  # seconds since day start
    price: float
    volume: float
    ticker: str
    date: str  # ISO YYYY-MM-DD


@dataclass(frozen=True, eq=False)
class TradeDay:
    """The merged trades of one (ticker, date), as read-only columns.

    timestamp, price and volume are float arrays sorted by time, one
    entry per distinct timestamp. len, indexing and iteration give the
    trades as TradeRecords; two days are equal when their ticker, date
    and every column are.
    """

    ticker: str
    date: str
    timestamp: np.ndarray
    price: np.ndarray
    volume: np.ndarray

    def __len__(self) -> int:
        return self.timestamp.size

    def __getitem__(self, i) -> TradeRecord:
        return TradeRecord(
            float(self.timestamp[i]), float(self.price[i]), float(self.volume[i]),
            self.ticker, self.date,
        )

    def __iter__(self):
        for t, p, v in zip(self.timestamp.tolist(), self.price.tolist(), self.volume.tolist()):
            yield TradeRecord(t, p, v, self.ticker, self.date)

    def __eq__(self, other):
        if not isinstance(other, TradeDay):
            return NotImplemented
        return (self.ticker, self.date) == (other.ticker, other.date) and all(
            np.array_equal(getattr(self, c), getattr(other, c))
            for c in ("timestamp", "price", "volume")
        )

    __hash__ = None


@dataclass(frozen=True)
class ParseResult:
    """Validated, aggregated records keyed by (ticker, date).

    diagnostics carries one line-numbered message per rejected row;
    rejected rows never abort the parse. n_rows counts data rows seen.
    """

    records: dict[tuple[str, str], TradeDay]
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


def _is_date(text: str) -> bool:
    try:
        _date.fromisoformat(text)
    except ValueError:
        return False
    return True


def _floats(strings) -> tuple[np.ndarray, np.ndarray]:
    """float() of every string, and the mask of the strings float() accepts.

    A refused string reads as nan. The conversion stays in C between
    refusals, so a clean column costs no interpreted loop.
    """
    values: list[float] = []
    refused: list[int] = []
    rest = iter(strings)
    while True:
        try:
            values.extend(map(float, rest))
            break
        except ValueError:
            refused.append(len(values))
            values.append(math.nan)
    accepted = np.ones(len(values), dtype=bool)
    accepted[refused] = False
    return np.array(values, dtype=float), accepted


def _codes(strings, table: dict[str, int]) -> np.ndarray:
    """The code of each string in table, adding new strings with the next code."""
    for text in dict.fromkeys(strings):
        table.setdefault(text, len(table))
    return np.fromiter(map(table.__getitem__, strings), dtype=np.int64, count=len(strings))


# outside any line, str.strip removes these ASCII characters and no others;
# every other ASCII whitespace character ends a line for str.splitlines
_ASCII_FIELD_SPACE = (" ", "\t", "\x1f")


class _TradeTable:
    """Columns of the accepted rows of one trade file, filled block by block."""

    def __init__(self):
        self.fmt: str | None = None
        self.n_rows = 0
        self.diagnostics: list[str] = []
        self.tickers: dict[str, int] = {}
        self.dates: dict[str, int] = {}
        self.date_ok: list[bool] = []
        self.columns: list[tuple[np.ndarray, ...]] = []  # (ticker, date, t, price, volume)

    def add(self, lines: list[str], first_lineno: int) -> None:
        """Validate one block of data lines, the first numbered first_lineno."""
        n_fields = np.fromiter(
            (line.count(",") + 1 for line in lines), dtype=np.int64, count=len(lines)
        )
        five = np.flatnonzero(n_fields == len(_HEADER))
        problems = [
            (first_lineno + i, f"expected 5 fields, got {n_fields[i]}")
            for i in np.flatnonzero(n_fields != len(_HEADER)).tolist()
            if lines[i].strip()
        ]
        self.n_rows += five.size + len(problems)
        rows = lines if five.size == len(lines) else [lines[i] for i in five.tolist()]
        if rows:
            problems += self._add_rows(rows, first_lineno + five)
        problems.sort()
        self.diagnostics.extend(f"line {n}: {text}" for n, text in problems)

    def _add_rows(self, rows: list[str], linenos: np.ndarray) -> list[tuple[int, str]]:
        """Keep the valid rows of five fields; (line, message) for the others."""
        if self.fmt is None:
            self.fmt = "clock" if ":" in rows[0].split(",")[2] else "seconds"
        joined = ",".join(rows)
        fields = joined.split(",")
        if not joined.isascii() or any(c in joined for c in _ASCII_FIELD_SPACE):
            fields = [f.strip() for f in fields]
        date_s, ticker_s, ts_s, price_s, vol_s = (fields[k::5] for k in range(5))

        dates = _codes(date_s, self.dates)
        self.date_ok.extend(_is_date(d) for d in list(self.dates)[len(self.date_ok):])
        date_ok = np.array(self.date_ok)[dates]
        tickers = _codes(ticker_s, self.tickers)
        ticker_ok = tickers != self.tickers.get("", -1)
        if self.fmt == "seconds":
            ts, ts_read = _floats(ts_s)
            fmt_ok = np.ones(ts.size, dtype=bool)
            fmt_ok[[i for i in np.flatnonzero(~ts_read).tolist() if ":" in ts_s[i]]] = False
        else:
            fmt_ok = np.array([":" in t for t in ts_s], dtype=bool)
            clock = {t: _clock_or_nan(t) for t in dict.fromkeys(ts_s) if ":" in t}
            ts = np.array([clock.get(t, math.nan) for t in ts_s], dtype=float)
            ts_read = ~np.isnan(ts)
        in_day = np.isfinite(ts) & (ts >= 0.0)
        price, price_read = _floats(price_s)
        volume, volume_read = _floats(vol_s)
        price_ok = np.isfinite(price) & (price > 0.0)
        volume_ok = np.isfinite(volume) & (volume > 0.0)
        checks = (date_ok, ticker_ok, fmt_ok, ts_read, in_day, price_read & volume_read,
                  price_ok, volume_ok)
        ok = np.logical_and.reduce(checks)
        self.columns.append((tickers[ok], dates[ok], ts[ok], price[ok], volume[ok]))

        problems = []
        for i in np.flatnonzero(~ok).tolist():
            first = next(k for k, check in enumerate(checks) if not check[i])
            problems.append((int(linenos[i]), (
                f"bad date {date_s[i]!r}",
                "empty ticker",
                f"timestamp {ts_s[i]!r} does not match the {self.fmt}-format column",
                f"bad timestamp {ts_s[i]!r}",
                f"timestamp {ts_s[i]!r} outside the day",
                f"bad price/volume {price_s[i]!r}/{vol_s[i]!r}",
                f"non-positive price {price_s[i]}",
                f"non-positive volume {vol_s[i]}",
            )[first]))
        return problems

    def result(self) -> ParseResult:
        if self.columns:
            tickers, dates, ts, price, volume = map(np.concatenate, zip(*self.columns))
        else:
            tickers = dates = np.empty(0, dtype=np.int64)
            ts = price = volume = np.empty(0)
        if self.fmt == "clock" and ts.size:
            # put each date's earliest trade (over all tickers) at t=0
            origin = np.full(len(self.dates), np.inf)
            np.minimum.at(origin, dates, ts)
            ts = ts - origin[dates]
        ticker_names, ticker_rank = _sorted_codes(self.tickers)
        date_names, date_rank = _sorted_codes(self.dates)
        n_dates = max(len(date_names), 1)
        group = ticker_rank[tickers] * n_dates + date_rank[dates]
        records = _trade_days(
            group, ts, price, volume,
            lambda g: (ticker_names[g // n_dates], date_names[g % n_dates]),
        )
        return ParseResult(
            records=records,
            diagnostics=tuple(self.diagnostics),
            n_rows=self.n_rows,
            n_used=int(ts.size),
            timestamp_format=self.fmt if self.n_rows else None,
        )


def _clock_or_nan(text: str) -> float:
    try:
        return _parse_clock(text)
    except ValueError:
        return math.nan


def _sorted_codes(table: dict[str, int]) -> tuple[list[str], np.ndarray]:
    """The strings of a code table in sorted order, and each code's rank in it."""
    names = sorted(table)
    rank = np.empty(len(table), dtype=np.int64)
    rank[[table[n] for n in names]] = np.arange(len(names))
    return names, rank


def _merge_equal_times(group, ts, price, volume):
    """Collapse each run of bit-equal timestamps within a group into one trade.

    The arrays are sorted by group, then by time. A run keeps its first
    timestamp, its summed volume, and the sum of price * volume over that
    volume as its price. Both sums run strictly left to right, in file
    order, so merged values depend on no library's summation order.
    """
    first = np.ones(ts.size, dtype=bool)
    first[1:] = (ts[1:] != ts[:-1]) | (group[1:] != group[:-1])
    starts = np.flatnonzero(first)
    if starts.size == ts.size:
        return group, ts, price, volume
    lengths = np.diff(starts, append=ts.size)
    runs = np.flatnonzero(lengths > 1)
    runs = runs[np.argsort(-lengths[runs], kind="stable")]  # longest first
    run_start, run_length = starts[runs], lengths[runs]
    total_volume = volume[run_start]
    notional = price[run_start] * total_volume
    for k in range(1, int(run_length[0])):
        live = np.searchsorted(-run_length, -k)  # the runs longer than k
        at = run_start[:live] + k
        total_volume[:live] += volume[at]
        notional[:live] += price[at] * volume[at]
    price, volume = price[starts], volume[starts]
    price[runs] = notional / total_volume
    volume[runs] = total_volume
    return group[starts], ts[starts], price, volume


def _trade_days(group, ts, price, volume, key_of) -> dict[tuple[str, str], TradeDay]:
    """TradeDays of flat trade columns, one per group, in group order.

    Rows are sorted stably by (group, timestamp), equal timestamps are
    merged, and key_of maps a group to its (ticker, date).
    """
    order = np.lexsort((ts, group))
    group, ts, price, volume = _merge_equal_times(
        group[order], ts[order], price[order], volume[order]
    )
    for column in (ts, price, volume):
        column.flags.writeable = False
    cuts = [0, *(np.flatnonzero(group[1:] != group[:-1]) + 1).tolist(), group.size]
    records = {}
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if hi > lo:
            ticker, date = key_of(int(group[lo]))
            records[(ticker, date)] = TradeDay(ticker, date, ts[lo:hi], price[lo:hi], volume[lo:hi])
    return records


def _text_blocks(stream):
    """An open text file's content, CHUNK_LINES lines at a time."""
    while block := "".join(islice(stream, CHUNK_LINES)):
        yield block


def _utf8_blocks(fh, name: str):
    """A binary file's content decoded as UTF-8, CHUNK_LINES lines at a time.

    Blocks end at a newline byte, which never falls inside a UTF-8
    sequence. Bytes that are not UTF-8 raise DataError with their offset.
    """
    offset = 0
    while block := b"".join(islice(fh, CHUNK_LINES)):
        try:
            text = block.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(
                f"{name}: not UTF-8 text: byte {block[exc.start]:#04x} at offset "
                f"{offset + exc.start}"
            ) from None
        offset += len(block)
        yield text


def parse_trades(source) -> ParseResult:
    """Read, validate, and aggregate a trade CSV.

    source is a path or an open text file. A missing or reordered header,
    an unreadable file and one that is not UTF-8 raise DataError;
    everything row-level (wrong field count, bad date, bad timestamp,
    non-positive price or volume, timestamp format mixing) is rejected
    with a line-numbered diagnostic and skipped. Per (ticker, date) the
    surviving rows are sorted by timestamp (stable) and same-timestamp
    trades are merged into one record with the volume-weighted price and
    the summed volume, which conserves traded notional. The file is read
    and checked CHUNK_LINES lines at a time, into columns.
    """
    if hasattr(source, "read"):
        return _parse_blocks(_text_blocks(source), getattr(source, "name", "<stream>"))
    name = str(source)
    try:
        with open(source, "rb") as fh:
            return _parse_blocks(_utf8_blocks(fh, name), name)
    except OSError as exc:
        raise DataError(f"cannot read {name}: {exc}") from exc


def _parse_blocks(blocks, name: str) -> ParseResult:
    table = None
    lineno = 2
    for block in blocks:
        lines = block.splitlines()
        if table is None:
            header = tuple(h.strip().lower() for h in lines[0].split(","))
            if header != _HEADER:
                raise DataError(
                    f"{name}: bad header {','.join(header)!r}, expected {','.join(_HEADER)}"
                )
            table, lines = _TradeTable(), lines[1:]
        table.add(lines, lineno)
        lineno += len(lines)
    if table is None:
        raise DataError(f"{name}: empty file, expected header {','.join(_HEADER)}")
    return table.result()


def combine(results) -> ParseResult:
    """Merge several parsed files into one record set.

    Records landing on the same (ticker, date, timestamp) across files are
    volume-weight merged exactly as within one file, in the order of the
    files; diagnostics and row counts concatenate.
    """
    results = list(results)
    if not results:
        raise DataError("no parse results to combine")
    if len(results) == 1:
        return results[0]
    keys = sorted({key for r in results for key in r.records})
    days = [(g, r.records[key]) for g, key in enumerate(keys) for r in results if key in r.records]
    records = {}
    if days:
        columns = (
            np.concatenate([getattr(d, c) for _, d in days])
            for c in ("timestamp", "price", "volume")
        )
        group = np.concatenate([np.full(len(d), g) for g, d in days])
        records = _trade_days(group, *columns, keys.__getitem__)
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


def _column(records, field: str) -> np.ndarray:
    """One column of a TradeDay, or of any sequence of TradeRecords."""
    if isinstance(records, TradeDay):
        return getattr(records, field)
    return np.array([getattr(r, field) for r in records], dtype=float)


def _day_leg(ts: np.ndarray, price: np.ndarray, origin: float) -> TickSeries:
    """Shifted log-price ticks of one leg, standing value first."""
    after = ts > origin
    standing = price[np.flatnonzero(~after)[-1]]
    return TickSeries(
        times=np.concatenate(([0.0], ts[after] - origin)),
        values=np.array([math.log(p) for p in (standing, *price[after].tolist())]),
        horizon=DAY_WINDOW,
    )


def build_day_pair(records_a, records_b, date: str = "") -> DayPair:
    """Align one day of two tickers on the pair's common clock.

    records_a and records_b are TradeDays or sequences of TradeRecords
    in time order. Trades outside the [0, 28200] s day window are dropped
    first; if that empties either leg the day is skipped (SkipDay). t=0
    is the later of the two first trades, each leg's last trade at or
    before it stands as the value at 0, and later times shift by the
    origin. Prices come out as natural logs (math.log, so bit for bit
    the same on every CPU).
    """
    legs = []
    for records in (records_a, records_b):
        ts, price = _column(records, "timestamp"), _column(records, "price")
        inside = (ts >= 0.0) & (ts <= DAY_WINDOW)
        legs.append((ts[inside], price[inside]))
    (ts_a, px_a), (ts_b, px_b) = legs
    a, b = ts_a.size, ts_b.size
    if not a or not b:
        empty = "both legs" if not a and not b else ("leg a" if not a else "leg b")
        raise SkipDay(f"{date or 'day'}: no trades inside the day window for {empty}")
    origin = float(max(ts_a[0], ts_b[0]))
    return DayPair(
        series_a=_day_leg(ts_a, px_a, origin), series_b=_day_leg(ts_b, px_b, origin), date=date
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

    day_records is an iterable of per-day TradeDays (or TradeRecord
    sequences) for one ticker. Differences are taken within each day only; days with fewer
    than two trades contribute nothing. The sd uses ddof=1, is 0.0 for a
    single pooled difference, and both moments are nan when no day has
    two trades.
    """
    diffs: list[np.ndarray] = []
    for day in day_records:
        ts = _column(day, "timestamp")
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
