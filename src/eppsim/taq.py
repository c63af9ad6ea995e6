"""Trade-record ingestion and the empirical correlation pipeline.

Input is a trade CSV with header `date,ticker,timestamp,price,volume`.
Timestamps are either decimal seconds from the start of the trading day
or wall-clock `HH:MM:SS[.fff]`; the format is detected from the file
content. Clock times are re-based per date so that the earliest trade
across all tickers sits at 0, putting both conventions on the same
"seconds since day start" footing.

The file must be UTF-8 (anything else is a DataError naming the byte
offset, exit 3 from the CLI). It is read in byte blocks of about
CHUNK_BYTES, each cut after a line break; numpy finds every line and its
field count on the raw bytes, and the five-field lines of a block are
decoded and split in one call each, into numpy columns. The columns are
then joined, sorted and merged one at a time, so the parse holds one
block's transient data plus its result. Lines end where
str.splitlines ends them. Each (ticker, date) comes out as a TradeDay:
read-only timestamp, price and volume arrays that index and iterate as
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

import numpy as np

from .errors import DataError, ParameterError, ScalingError, SkipDay
from .experiments import (
    ESTIMATOR_NAMES,
    CurvePoint,
    EppsCurve,
    _rule_bound,
    aggregate_curve,
    discriminate,
    estimate_matrix,
    k_skip_row,
)
from .series import TickSeries

DAY_WINDOW = 28200.0
CHUNK_BYTES = 1 << 18  # bytes read per block; bounds the whole parse's transient memory
CONFIDENCE = 0.95  # of the ribbons of the empirical curves

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
    entry per distinct timestamp. len and indexing (and so iteration)
    give the trades as TradeRecords; two days are equal when their
    ticker, date and every column are.
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
    return np.fromiter(values, float, len(values)), accepted


class _CodeTable(dict):
    """Codes of strings in the order they are first seen: looking up a new
    string gives it the next code."""

    def __missing__(self, text: str) -> int:
        self[text] = code = len(self)
        return code


def _codes(strings, table: _CodeTable) -> np.ndarray:
    """The code of each string in table, in one pass that adds the new ones."""
    return np.fromiter(map(table.__getitem__, strings), np.int32, len(strings))


# outside any line, str.strip removes these ASCII characters and no others;
# every other ASCII whitespace character ends a line for str.splitlines
_ASCII_FIELD_SPACE = (" ", "\t", "\x1f")


class _TradeTable:
    """Columns of the accepted rows of one trade file, filled block by block."""

    def __init__(self):
        self.fmt: str | None = None
        self.n_lines = 1  # the header
        self.n_rows = 0
        self.diagnostics: list[str] = []
        self.tickers = _CodeTable()
        self.dates = _CodeTable()
        self.date_ok: list[bool] = []
        # the accepted rows' ticker, date, t, price and volume: one piece per block each
        self.columns: tuple[list[np.ndarray], ...] = ([], [], [], [], [])

    def add(self, block: bytes) -> None:
        """Validate the next block of data lines: UTF-8, each ending in b"\\n"."""
        data = np.frombuffer(block, dtype=np.uint8)
        ends = np.flatnonzero(data == ord("\n"))
        n_fields = np.diff(np.searchsorted(np.flatnonzero(data == ord(",")), ends), prepend=0) + 1
        first = self.n_lines + 1
        self.n_lines += ends.size
        # the rare lines without five fields, one at a time; a blank one is no row
        other = np.flatnonzero(n_fields != len(_HEADER))
        starts = np.concatenate(([0], ends[:-1] + 1))[other].tolist()
        stops = ends[other].tolist()
        problems = [
            (first + i, f"expected 5 fields, got {n}")
            for i, n, lo, hi in zip(other.tolist(), n_fields[other].tolist(), starts, stops)
            if block[lo:hi].decode("utf-8", "surrogatepass").strip()
        ]
        five = np.flatnonzero(n_fields == len(_HEADER))
        self.n_rows += five.size + len(problems)
        if five.size:
            if other.size:  # the runs of five-field lines between the others
                runs = zip([0, *(hi + 1 for hi in stops)], [*starts, len(block)])
                block = b"".join(block[lo:hi] for lo, hi in runs)
            text = block.decode("utf-8", "surrogatepass")
            fields = text.replace("\n", ",").split(",")
            fields.pop()  # the empty string after the last line's newline
            if not text.isascii() or any(c in text for c in _ASCII_FIELD_SPACE):
                fields = [f.strip() for f in fields]
            problems += self._add_rows(fields, first + five)
        problems.sort()
        self.diagnostics.extend(f"line {n}: {message}" for n, message in problems)

    def _add_rows(self, fields: list[str], linenos: np.ndarray) -> list[tuple[int, str]]:
        """Keep the valid rows of five stripped fields each, the fields of all
        rows in one list; (line, message) for the others."""
        if self.fmt is None:
            self.fmt = "clock" if ":" in fields[2] else "seconds"
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
        for pieces, column in zip(self.columns, (tickers, dates, ts, price, volume)):
            pieces.append(column[ok])

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
        """The parse of every block added; consumes the table's columns."""
        tickers, dates, ts, price, volume = self.columns
        n_used = sum(t.size for t in ts)
        if self.fmt == "clock":
            # put each date's earliest trade (over all tickers) at t=0
            origin = np.full(len(self.dates), np.inf)
            for d, t in zip(dates, ts):
                np.minimum.at(origin, d, t)
            for d, t in zip(dates, ts):
                t -= origin[d]
        ticker_names, ticker_code = _sorted_codes(self.tickers)
        date_names, date_code = _sorted_codes(self.dates)
        n_dates = max(len(date_names), 1)
        group = [ticker_code[t] * n_dates + date_code[d] for t, d in zip(tickers, dates)]
        tickers.clear()
        dates.clear()
        records = {}
        if n_used:
            records = _trade_days(
                [group, ts, price, volume],
                lambda g: (ticker_names[g // n_dates], date_names[g % n_dates]),
            )
        return ParseResult(
            records=records,
            diagnostics=tuple(self.diagnostics),
            n_rows=self.n_rows,
            n_used=n_used,
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


def _merge_equal_times(columns: list[np.ndarray]) -> None:
    """Collapse each run of bit-equal timestamps within a group into one trade.

    columns is [group, timestamp, price, volume], sorted by group, then by
    time; each entry is replaced by its merged column, one at a time. A
    run keeps its first timestamp, its summed volume, and the sum of
    price * volume over that volume as its price. Both sums run strictly
    left to right, in file order, so merged values depend on no library's
    summation order.
    """
    group, ts, price, volume = columns
    first = np.ones(ts.size, dtype=bool)
    first[1:] = (ts[1:] != ts[:-1]) | (group[1:] != group[:-1])
    starts = np.flatnonzero(first)
    if starts.size == ts.size:
        return
    lengths = np.diff(starts, append=ts.size)
    runs = np.flatnonzero(lengths > 1)
    runs = runs[np.argsort(-lengths[runs], kind="stable")]  # longest first
    run_start, run_length = starts[runs], lengths[runs]
    del first, lengths
    total_volume = volume[run_start]
    notional = price[run_start] * total_volume
    for k in range(1, int(run_length[0])):
        live = np.searchsorted(-run_length, -k)  # the runs longer than k
        at = run_start[:live] + k
        total_volume[:live] += volume[at]
        notional[:live] += price[at] * volume[at]
    del group, ts, price, volume  # so that each column is freed as it is replaced
    for k in range(len(columns)):
        columns[k] = columns[k][starts]
    columns[2][runs] = notional / total_volume
    columns[3][runs] = total_volume


def _joined(pieces: list[np.ndarray]) -> np.ndarray:
    """The pieces as one array; empties the list, so that they can be freed."""
    whole = np.concatenate(pieces)
    pieces.clear()
    return whole


def _trade_days(pieces, key_of) -> dict[tuple[str, str], TradeDay]:
    """TradeDays of flat trade columns, one per group, in group order.

    pieces holds the group, timestamp, price and volume columns, each a
    non-empty list of arrays that is emptied here; groups are integer
    codes >= 0. Rows are sorted stably by (group, timestamp), equal
    timestamps are merged, and key_of maps a group to its (ticker, date).
    The group column is kept in the narrowest unsigned type that holds its
    codes: up to 65 536 groups give a uint8 or uint16 key, whose stable
    sort numpy does by radix, in the same order as on int64 codes. The
    columns are joined, sorted and merged one at a time, so no step holds
    two copies of more than one column.
    """
    group = _joined(pieces[0])
    columns = [group.astype(np.min_scalar_type(group.max())), _joined(pieces[1])]
    del group
    order = np.lexsort(columns[::-1])  # by group, then by time
    for k in range(2):
        columns[k] = columns[k][order]
    for k in range(2, 4):
        columns.append(_joined(pieces[k])[order])
    del order
    _merge_equal_times(columns)
    group, ts, price, volume = columns
    for column in (ts, price, volume):
        column.flags.writeable = False
    cuts = [0, *(np.flatnonzero(group[1:] != group[:-1]) + 1).tolist(), group.size]
    records = {}
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if hi > lo:
            ticker, date = key_of(int(group[lo]))
            records[(ticker, date)] = TradeDay(ticker, date, ts[lo:hi], price[lo:hi], volume[lo:hi])
    return records


# str.splitlines ends a line at each of these; within a UTF-8 block every
# one of them becomes b"\n", b"\r\n" as a whole
_BYTE_BREAKS = b"\r\x0b\x0c\x1c\x1d\x1e"
_TO_NEWLINE = bytes.maketrans(_BYTE_BREAKS, b"\n" * len(_BYTE_BREAKS))
_WIDE_BREAKS = tuple(c.encode() for c in "\x85\u2028\u2029")


def _line_blocks(read, errors: str, name: str):
    """A file's lines in UTF-8 blocks of about CHUNK_BYTES, each line ending in b"\\n".

    read(n) gives the next piece of the file: bytes, or str that is encoded
    with errors. A block is cut after its last b"\\n" or b"\\r", never
    between b"\\r" and b"\\n", so no line and no UTF-8 sequence spans two
    blocks. A block that does not decode as UTF-8 with errors raises
    DataError naming the file offset of its first bad byte.
    """
    buf = bytearray()
    offset = 0
    while piece := read(CHUNK_BYTES):
        buf += piece if isinstance(piece, bytes) else piece.encode("utf-8", errors)
        cut = max(buf.rfind(b"\n"), buf.rfind(b"\r", 0, len(buf) - 1)) + 1
        if cut:
            yield _newlines(bytes(buf[:cut]), offset, errors, name)
            del buf[:cut]
            offset += cut
    if buf:  # a last line without a break; a blank line after a break is no row
        yield _newlines(bytes(buf) + b"\n", offset, errors, name)


def _newlines(block: bytes, offset: int, errors: str, name: str) -> bytes:
    """block, checked as UTF-8, with every str.splitlines line break as one b"\\n"."""
    if block.isascii():
        if not any(byte in block for byte in _BYTE_BREAKS):
            return block
    else:
        try:
            block.decode("utf-8", errors)
        except UnicodeDecodeError as exc:
            raise DataError(
                f"{name}: not UTF-8 text: byte {block[exc.start]:#04x} at offset "
                f"{offset + exc.start}"
            ) from None
    block = block.replace(b"\r\n", b"\n").translate(_TO_NEWLINE)
    for wide in _WIDE_BREAKS:  # a whole UTF-8 sequence matches only itself
        block = block.replace(wide, b"\n")
    return block


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
    and checked in blocks of about CHUNK_BYTES, into columns. A text
    stream's characters, lone surrogates included, parse as they read.
    """
    if hasattr(source, "read"):
        name = getattr(source, "name", "<stream>")
        return _parse_blocks(_line_blocks(source.read, "surrogatepass", name), name)
    name = str(source)
    try:
        with open(source, "rb") as fh:
            return _parse_blocks(_line_blocks(fh.read, "strict", name), name)
    except OSError as exc:
        raise DataError(f"cannot read {name}: {exc}") from exc


def _parse_blocks(blocks, name: str) -> ParseResult:
    table = None
    for block in blocks:
        if table is None:
            head, _, block = block.partition(b"\n")
            header = tuple(
                h.strip().lower() for h in head.decode("utf-8", "surrogatepass").split(",")
            )
            if header != _HEADER:
                raise DataError(
                    f"{name}: bad header {','.join(header)!r}, expected {','.join(_HEADER)}"
                )
            table = _TradeTable()
        if block:
            table.add(block)
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
        pieces = [[np.repeat([g for g, _ in days], [len(d) for _, d in days])]]
        pieces += ([getattr(d, c) for _, d in days] for c in ("timestamp", "price", "volume"))
        records = _trade_days(pieces, keys.__getitem__)
    fmts = {r.timestamp_format for r in results} - {None}
    return ParseResult(
        records=records,
        diagnostics=tuple(d for r in results for d in r.diagnostics),
        n_rows=sum(r.n_rows for r in results),
        n_used=sum(r.n_used for r in results),
        timestamp_format="mixed" if len(fmts) > 1 else (fmts.pop() if fmts else None),
    )


def _day_leg(ts: np.ndarray, price: np.ndarray, origin: float) -> TickSeries:
    """Shifted log-price ticks of one leg, standing value first."""
    after = ts > origin
    prices = [price[np.flatnonzero(~after)[-1]], *price[after].tolist()]
    return TickSeries(
        times=np.concatenate(([0.0], ts[after] - origin)),
        values=np.fromiter(map(math.log, prices), float, len(prices)),
        horizon=DAY_WINDOW,
    )


def build_day_pair(day_a: TradeDay, day_b: TradeDay, date: str = "") -> DayPair:
    """Align one day of two tickers on the pair's common clock.

    Trades outside the [0, 28200] s day window are dropped first; if
    that empties either leg the day is skipped (SkipDay). t=0 is the
    later of the two first trades, each leg's last trade at or before it
    stands as the value at 0, and later times shift by the origin.
    Prices come out as natural logs (math.log, so bit for bit the same
    on every CPU).
    """
    legs = []
    for day in (day_a, day_b):
        ts, price = day.timestamp, day.price
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


def interarrival_stats(days) -> tuple[float, float]:
    """Pooled inter-arrival mean and standard deviation in seconds.

    days is an iterable of one ticker's TradeDays. Differences are taken
    within each day only; days with fewer than two trades contribute
    nothing. The sd uses ddof=1, is 0.0 for a single pooled difference,
    and both moments are nan when no day has two trades.
    """
    diffs: list[np.ndarray] = []
    for day in days:
        if len(day) >= 2:
            diffs.append(np.diff(day.timestamp))
    if not diffs:
        return math.nan, math.nan
    pool = np.concatenate(diffs)
    sd = float(pool.std(ddof=1)) if pool.size >= 2 else 0.0
    return float(pool.mean()), sd


def ticker_interarrival_stats(parsed: ParseResult, ticker: str) -> tuple[float, float]:
    days = [parsed.records[(ticker, d)] for d in parsed.dates(ticker)]
    return interarrival_stats(days)


def empirical_curve(days, dt_grid) -> EppsCurve:
    """Correlation curves over a day ensemble, one replication per day.

    Each DayPair contributes one estimate per (estimator, dt), for every
    estimator, from its two tick series, whose trade times are also the
    overlap correction's arrivals. Ribbons are Student t at CONFIDENCE
    with n_days - 1 degrees of freedom.
    """
    days = list(days)
    if not days:
        raise DataError("no usable days: cannot build an empirical curve")
    dt_grid = tuple(float(d) for d in dt_grid)
    stack = np.stack([
        estimate_matrix(d.series_a, d.series_b, dt_grid, ESTIMATOR_NAMES, d.horizon) for d in days
    ])
    meta = {
        "experiment": "empirical",
        "n_days": len(days),
        "confidence": CONFIDENCE,
        "dates": [d.date for d in days],
    }
    return aggregate_curve(ESTIMATOR_NAMES, CONFIDENCE, dt_grid, "dt", stack, meta)


def empirical_kskip(days, k_max: int, tau_abs: float = 0.05, z: float = 1.0):
    """Per-day k-skip HY curves pooled into a day ensemble, plus verdict.

    Each day contributes one HY estimate per k from its thinned tick sets;
    days where a leg drops below two ticks at some k fail at that point
    only. Returns the aggregated curve and the discrimination verdict on
    it.
    """
    _rule_bound(tau_abs, z)  # before the first day is thinned
    days = list(days)
    if not days:
        raise DataError("no usable days: cannot run the k-skip experiment")
    stack = np.stack([k_skip_row(d.series_a, d.series_b, k_max) for d in days])
    meta = {
        "experiment": "empirical_kskip",
        "n_days": len(days),
        "k_max": int(k_max),
        "confidence": CONFIDENCE,
        "dates": [d.date for d in days],
    }
    curve = aggregate_curve(("hy",), CONFIDENCE, range(1, int(k_max) + 1), "k", stack, meta)
    return curve, discriminate(curve, "hy", tau_abs, z)


def saturation_scale(curve: EppsCurve) -> EppsCurve:
    """Rescale a curve so that its large-dt plateau sits at 1.

    The saturation level is the mean of the "measured" series' means over
    the top 10% of the axis range; a curve without that series raises
    ParameterError. Every series' means and half-widths are divided by
    it; a level <= 0 raises ScalingError. The convention is recorded in
    the returned meta.
    """
    if "measured" not in curve.series:
        raise ParameterError("curve has no series 'measured' to scale by")
    ref = [p for p in curve.series["measured"] if p.n_ok > 0 and math.isfinite(p.mean)]
    if not ref:
        raise ScalingError("series 'measured' has no usable points")
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
            "saturation_series": "measured",
            "saturation_convention": "mean of the reference series' means over "
            "the top 10% of the axis range",
        }
    )
    return EppsCurve(axis_label=curve.axis_label, series=scaled, meta=meta)
