"""Core data containers: price paths, arrival sets, tick and grid series.

CSV writers format floats with repr() so output is byte-identical across
runs and round-trips exactly.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .index import _lattice


def _as_float_array(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if not np.logical_and.reduce(np.isfinite(arr), axis=None):
        raise ParameterError(f"{name} contains non-finite values")
    return arr


def _check_times(t: np.ndarray, horizon: float, kind: str, faults) -> None:
    """Refuse times that are not finite, 1-d, strictly increasing and inside
    [0, horizon], or that a caller's (failed, message) fault refuses. One
    comparison pass accepts them (t[1:] > t[:-1] fails on any nan, finite ends
    bound the rest); only if it or a fault fails do the checks run in order,
    naming the first fault: non-finite times, the faults, order, range."""
    if t.ndim == 1 and not any(failed for failed, _ in faults) and (t.size == 0 or bool(
            0 <= t[0] and t[-1] <= horizon and t[-1] < np.inf and np.logical_and.reduce(t[1:] > t[:-1]))):
        return
    _as_float_array(t, "times")
    for failed, message in faults:
        if failed:
            raise ParameterError(message)
    if np.logical_or.reduce(t[1:] <= t[:-1]):
        raise ParameterError(f"{kind} times must be strictly increasing")
    if t.size and (t[0] < 0 or t[-1] > horizon):
        raise ParameterError(f"{kind} times must lie in [0, horizon]")


def _fmt(x: float) -> str:
    return repr(float(x))


@dataclass(frozen=True)
class PricePath:
    """Synchronous bivariate log-price path on a regular grid.

    values[k] holds the two log-prices at time k*dt, stored column-major.
    """

    dt: float
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = _as_float_array(self.values, "values")
        if vals.ndim != 2 or vals.shape[1] != 2:
            raise ParameterError(f"values must have shape (n+1, 2), got {vals.shape}")
        if vals.shape[0] < 1:
            raise ParameterError("path must contain at least one grid point")
        if not 0 < self.dt < np.inf:
            raise ParameterError(f"dt must be positive and finite, got {self.dt}")
        object.__setattr__(self, "values", np.asfortranarray(vals))

    @property
    def n_steps(self) -> int:
        return self.values.shape[0] - 1

    @property
    def horizon(self) -> float:
        return self.n_steps * self.dt

    def times(self) -> np.ndarray:
        return _lattice(self.values.shape[0], self.dt)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("t,logp1,logp2\n")
            for t, (p1, p2) in zip(self.times(), self.values):
                fh.write(f"{_fmt(t)},{_fmt(p1)},{_fmt(p2)}\n")


@dataclass(frozen=True)
class ArrivalSet:
    """Strictly increasing observation times of one asset on [0, horizon]."""

    times: np.ndarray = field(repr=False)
    horizon: float = 0.0

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.float64)
        _check_times(t, self.horizon, "arrival", (
            (t.ndim != 1, "times must be one-dimensional"),
            (not self.horizon >= 0, f"horizon must be non-negative, got {self.horizon}"),
        ))
        object.__setattr__(self, "times", t)

    def __len__(self) -> int:
        return self.times.size


def write_arrivals_csv(path, components: dict[str, ArrivalSet]) -> None:
    """One row per event: component label, time (components in key order)."""
    with open(path, "w", newline="") as fh:
        fh.write("component,t\n")
        for name, arr in components.items():
            for t in arr.times:
                fh.write(f"{name},{_fmt(t)}\n")


@dataclass(frozen=True)
class TickSeries:
    """Asynchronous observations of one asset: (time, log-price) pairs."""

    times: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    horizon: float = 0.0

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.float64)
        v = np.asarray(self.values, dtype=np.float64)
        _check_times(t, self.horizon, "tick", (
            (not np.logical_and.reduce(np.isfinite(v), axis=None), "values contains non-finite values"),
            (t.ndim != 1 or v.ndim != 1 or t.size != v.size, "times and values must be 1-d and equally long"),
        ))
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.times.size


@dataclass(frozen=True)
class GridSeries:
    """Synchronised log-prices of one asset at h*dt, h = 0..floor(T/dt)."""

    dt: float
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not self.dt > 0:
            raise ParameterError(f"dt must be positive, got {self.dt}")
        v = _as_float_array(self.values, "values")
        if v.ndim != 1 or v.size < 1:
            raise ParameterError("values must be a non-empty 1-d array")
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.values.size

    def returns(self) -> np.ndarray:
        return np.diff(self.values)
