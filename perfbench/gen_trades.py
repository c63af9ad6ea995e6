"""Seeded synthetic trade file for the taq_pipeline workload.

Three tickers over many trading days, in the `date,ticker,timestamp,
price,volume` format that `eppsim.taq.parse_trades` reads, with seconds
timestamps at millisecond resolution:

- AAA and BBB are correlated Brownian log prices (correlation RHO), CCC
  is independent of both;
- trade times are Poisson per ticker, and a few fall past the 28 200 s
  day window, so pairing has trades to drop;
- about DUP_SHARE of trades repeat the timestamp of the trade before them
  bit for bit, with another price and volume, so the volume-weighted
  merge has work to do;
- about BAD_SHARE of rows are malformed in one of several ways, so the
  diagnostics have work to do.

The generator also returns what a correct parse must find (row, reject,
record and day counts), which the benchmark checks exactly. The same seed
gives byte-identical files.
"""

import datetime

import numpy as np

RHO = 0.6
TICKERS = ("AAA", "BBB", "CCC")
RATES = (1 / 7.0, 1 / 9.0, 1 / 8.0)  # trades per second
DAY_END = 28260.0  # trades run 60 s past the 28 200 s day window
VAR_PER_S = 1.5e-8  # log-price variance per second
DUP_SHARE = 0.05
BAD_SHARE = 0.001
N_DAYS = 20

# rows no parse may accept; each hits another diagnostic of parse_trades
_BAD_ROWS = (
    "{date},{ticker},{ts},{px}",  # four fields
    "2024-13-45,{ticker},{ts},{px},100",  # bad date
    "{date},{ticker},{ts}.5.1,{px},100",  # bad timestamp
    "{date},{ticker},10:15:00,{px},100",  # clock time in a seconds file
    "{date},{ticker},{ts},-{px},100",  # negative price
    "{date},{ticker},{ts},{px},0",  # zero volume
    "{date},{ticker},{ts},n/a,100",  # unreadable price
    "{date},,{ts},{px},100",  # empty ticker
)


def trading_days(n: int) -> list[str]:
    days, d = [], datetime.date(2024, 1, 2)
    while len(days) < n:
        if d.weekday() < 5:
            days.append(d.isoformat())
        d += datetime.timedelta(days=1)
    return days


def _log_prices(rng, n_sec: int) -> np.ndarray:
    """Log-price paths on a 1 s grid, one column per ticker."""
    z = rng.standard_normal((n_sec, 3)) * np.sqrt(VAR_PER_S)
    z[:, 1] = RHO * z[:, 0] + np.sqrt(1.0 - RHO * RHO) * z[:, 1]
    base = np.log([50.0, 80.0, 120.0])
    return base + np.cumsum(z, axis=0)


def generate(path, seed: int, n_days: int = N_DAYS) -> dict:
    """Write the trade file to path and return the expected parse counts."""
    rng = np.random.default_rng([seed, 0x7A9])
    lines = ["date,ticker,timestamp,price,volume"]
    n_bad = 0
    n_records = 0
    past_window = 0
    n_sec = int(DAY_END) + 1
    for date in trading_days(n_days):
        logp = _log_prices(rng, n_sec)
        rows = []  # (time, order, text)
        for col, (ticker, rate) in enumerate(zip(TICKERS, RATES)):
            n = rng.poisson(rate * DAY_END)
            ms = np.unique(np.sort(rng.integers(0, int(DAY_END * 1000), size=n)))
            n_records += ms.size
            past_window += int(np.count_nonzero(ms > 28_200_000))
            px = np.exp(logp[ms // 1000, col])
            vol = rng.integers(1, 50, size=ms.size) * 100
            dup = rng.random(ms.size) < DUP_SHARE
            nudge = rng.choice((-1e-4, 1e-4), size=ms.size)
            dup_vol = rng.integers(1, 20, size=ms.size) * 100
            for i in range(ms.size):
                ts = f"{ms[i] / 1000:.3f}"
                rows.append((ms[i], 0, f"{date},{ticker},{ts},{px[i]:.4f},{vol[i]}"))
                if dup[i]:
                    rows.append(
                        (ms[i], 1, f"{date},{ticker},{ts},{px[i] + nudge[i]:.4f},{dup_vol[i]}")
                    )
        rows.sort(key=lambda r: (r[0], r[1]))
        out = []
        for t, _, text in rows:
            out.append(text)
            if rng.random() < BAD_SHARE:
                kind = _BAD_ROWS[int(rng.integers(len(_BAD_ROWS)))]
                ticker = TICKERS[int(rng.integers(3))]
                out.append(kind.format(date=date, ticker=ticker, ts=f"{t / 1000:.3f}", px="12.5"))
                n_bad += 1
        lines.extend(out)
    text = "\n".join(lines) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(text)
    return {
        "rows": len(lines) - 1,
        "rows_rejected": n_bad,
        "records": n_records,
        "days": n_days,
        "trades_past_window": past_window,
        "file_bytes": len(text.encode()),
        "rho": RHO,
    }
