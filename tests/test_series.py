"""ArrivalSet and TickSeries accept exactly the times their ordered checks
accept, and refuse the rest with the same message."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eppsim.errors import ParameterError
from eppsim.series import ArrivalSet, TickSeries

SUBNORMAL = 5e-324


def ordered_times_error(t, horizon, kind):
    """The message of the first ordered check that refuses 1-d times t."""
    if np.any(t[1:] <= t[:-1]):
        return f"{kind} times must be strictly increasing"
    if t.size and (t[0] < 0 or t[-1] > horizon):
        return f"{kind} times must lie in [0, horizon]"
    return None


def arrival_error(times, horizon):
    """ArrivalSet's checks one at a time, in their order: finite, 1-d, horizon, times."""
    t = np.asarray(times, dtype=np.float64)
    if t.size and not np.all(np.isfinite(t)):
        return "times contains non-finite values"
    if t.ndim != 1:
        return "times must be one-dimensional"
    if not horizon >= 0:
        return f"horizon must be non-negative, got {horizon}"
    return ordered_times_error(t, horizon, "arrival")


def tick_error(times, values, horizon):
    """TickSeries's checks one at a time, in their order: finite times,
    finite values, shapes, times."""
    t = np.asarray(times, dtype=np.float64)
    v = np.asarray(values, dtype=np.float64)
    for arr, name in ((t, "times"), (v, "values")):
        if arr.size and not np.all(np.isfinite(arr)):
            return f"{name} contains non-finite values"
    if t.ndim != 1 or v.ndim != 1 or t.size != v.size:
        return "times and values must be 1-d and equally long"
    return ordered_times_error(t, horizon, "tick")


def outcome(build):
    try:
        build()
    except ParameterError as exc:
        return str(exc)
    return None


MUTATIONS = ("none", "nan", "inf", "-inf", "equal", "decrease", "negative first",
             "past horizon", "subnormal first", "-0.0 first", "2-d")


@st.composite
def times_and_horizon(draw):
    """Strictly increasing times, then one fault (or none), and a horizon
    at, past or short of the last tick, 0, inf, nan or negative."""
    base = draw(st.lists(st.floats(min_value=0.0, max_value=1e3, allow_subnormal=True),
                         max_size=8, unique=True))
    t = sorted(set(base))
    mutation = draw(st.sampled_from(MUTATIONS))
    at = draw(st.integers(min_value=0, max_value=max(len(t) - 1, 0)))
    if mutation in ("nan", "inf", "-inf") and t:
        t[at] = float(mutation)
    elif mutation == "equal" and len(t) >= 2:
        t[at] = t[at - 1] if at else t[1]
    elif mutation == "decrease" and len(t) >= 2:
        t[at], t[at - 1] = t[at - 1], t[at]
    elif mutation == "negative first" and t:
        t[0] = -max(t[0], 1.0)
    elif mutation == "past horizon":
        t.append((t[-1] if t else 0.0) + 1.0)
    elif mutation == "subnormal first":
        t = [SUBNORMAL] + [x for x in t if x > SUBNORMAL]
    elif mutation == "-0.0 first":
        t = [-0.0] + [x for x in t if x > 0]
    last = max((x for x in t if math.isfinite(x)), default=0.0)
    horizon = draw(st.sampled_from(
        [last, last + 1.0, math.nextafter(last, -math.inf), 0.0, math.inf, math.nan, -1.0]))
    if mutation == "past horizon" and horizon == last:
        horizon = last - 1.0
    arr = np.array(t, dtype=np.float64)
    return (arr.reshape(-1, 1) if mutation == "2-d" else arr), horizon


@given(times_and_horizon())
@settings(max_examples=600, deadline=None)
def test_arrival_set_accepts_and_refuses_as_the_ordered_checks(case):
    times, horizon = case
    got = outcome(lambda: ArrivalSet(times=times, horizon=horizon))
    assert got == arrival_error(times, horizon)


@given(
    times_and_horizon(),
    st.sampled_from(("finite", "nan", "inf", "longer", "shorter")),
    st.integers(min_value=0, max_value=7),
)
@settings(max_examples=600, deadline=None)
def test_tick_series_accepts_and_refuses_as_the_ordered_checks(case, values_kind, at):
    times, horizon = case
    values = np.arange(np.asarray(times).size, dtype=np.float64)
    if values_kind in ("nan", "inf") and values.size:
        values[at % values.size] = float(values_kind)
    elif values_kind == "longer":
        values = np.append(values, 1.0)
    elif values_kind == "shorter":
        values = values[:-1]
    got = outcome(lambda: TickSeries(times=times, values=values, horizon=horizon))
    assert got == tick_error(times, values, horizon)


@pytest.mark.parametrize("times, horizon", [
    ([], 0.0), ([0.0], 0.0), ([-0.0, 1.0], 1.0), ([SUBNORMAL], 1.0), ([0.0, 1e308], math.inf),
])
def test_edge_times_that_the_checks_accept(times, horizon):
    arrivals = ArrivalSet(times=times, horizon=horizon)
    ticks = TickSeries(times=times, values=np.zeros(len(times)), horizon=horizon)
    np.testing.assert_array_equal(arrivals.times, ticks.times)
