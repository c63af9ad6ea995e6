"""The replication path's reductions, called as ufuncs, against method-form oracles.

Every sum, mean, standard deviation and all/any test on the per-replication
path is a ufunc reduce: ndarray.sum/.mean/.std/.all and np.all/np.any run
through numpy's Python-level wrappers, once per call. The oracles here are
those method forms, and the results must agree bit for bit, on arrays
around numpy's pairwise-sum blocks (8 and 128 elements) and with zeros,
-0.0, subnormal and huge values; a profile hook checks that no wrapper is
called on the path.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

try:
    from numpy._core import _methods, fromnumeric
except ImportError:  # numpy < 2
    from numpy.core import _methods, fromnumeric

from eppsim import estimators
from eppsim.errors import DegenerateSeriesError, EppsimError
from eppsim.estimators import (
    _finite, _hy_estimate, _measured_correlation, _root_product, _window_overlap, _zero_fraction)
from eppsim.experiments import _t_quantile, estimate_matrix, k_skip_row, ribbon
from eppsim.hawkes import HawkesSpec
from eppsim.index import _left_right_counts
from eppsim.paths import GbmParams, simulate_gbm
from eppsim.sampling import observe_path, poisson_arrivals
from eppsim.series import ArrivalSet, PricePath, TickSeries

# sizes at and around numpy's unrolled block (8) and pairwise block (128)
BLOCK_SIZES = (7, 8, 9, 127, 128, 129, 1000, 1024, 1031, 2049)
SPECIAL = np.array([
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
    1e154, -1e154, 1e300, -1e300, 1.7976931348623157e308,
])


@st.composite
def float_arrays(draw, size=None):
    """A float64 array of 2-300 elements or of a BLOCK_SIZES size: normal
    draws at a drawn scale, some of them replaced by SPECIAL values."""
    n = size if size is not None else draw(st.one_of(
        st.integers(2, 300), st.sampled_from(BLOCK_SIZES)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal(n) * 10.0 ** draw(st.integers(-320, 300))
    k = draw(st.sampled_from((0, 1, 3, n // 2, n)))
    x[rng.integers(0, n, k)] = rng.choice(SPECIAL, k)
    return x


def bits(x: float) -> bytes:
    return np.float64(x).tobytes()


def outcome(fn, *args):
    """fn(*args) as bit patterns of its floats, or the class and message of the
    package error it raised (a NumericError where the product of two tiny
    variances underflows to 0)."""
    try:
        result = fn(*args)
    except EppsimError as exc:
        return type(exc), str(exc)
    values = result if isinstance(result, tuple) else (
        (result,) if isinstance(result, float) else tuple(vars(result).values()))
    return tuple(bits(v) if isinstance(v, float) else v for v in values)


def measured_oracle(ri, rj, dt):
    cov = _finite(float((ri * rj).sum()), "measured", "the cross sum")
    var_i = _finite(float(np.square(ri).sum()), "measured", "the realised variance of leg i")
    var_j = _finite(float(np.square(rj).sum()), "measured", "the realised variance of leg j")
    if var_i <= 0:
        raise DegenerateSeriesError("realised variance of leg i is zero")
    if var_j <= 0:
        raise DegenerateSeriesError("realised variance of leg j is zero")
    return estimators.CorrelationEstimate(cov / _root_product(var_i, var_j, "measured"), dt)


def hy_oracle(vi, vj, below, upto):
    di, dj = np.diff(vi), np.diff(vj)
    var_i = _finite(float(np.square(di).sum()), "hy", "the realised variance of leg i")
    var_j = _finite(float(np.square(dj).sum()), "hy", "the realised variance of leg j")
    if var_i <= 0:
        raise DegenerateSeriesError("leg i has zero realised variance")
    if var_j <= 0:
        raise DegenerateSeriesError("leg j has zero realised variance")
    pref = np.concatenate(([0.0], dj.cumsum()))
    span = pref.take(below[1:], mode="clip") - pref.take(upto[:-1] - 1, mode="clip")
    cross = _finite(float((span * di).sum()), "hy", "the cross sum")
    return estimators.CorrelationEstimate(cross / _root_product(var_i, var_j, "hy"))


def window_oracle(hi_i, lo_i, hi_j, lo_j, dt):
    cross = np.maximum(np.minimum(hi_i, hi_j) - np.maximum(lo_i, lo_j), 0.0)
    return estimators.OverlapStats(
        float((hi_i - lo_i).mean()), float((hi_j - lo_j).mean()), float(cross.mean()), dt)


@given(float_arrays(), st.sampled_from((0.8, 0.95, 0.999)))
@settings(max_examples=300, deadline=None)
def test_ribbon_equals_mean_and_std_methods(vals, confidence):
    with np.errstate(all="ignore"):
        want = (vals.mean(), _t_quantile(vals.size - 1, confidence) * float(vals.std(ddof=1)))
        assert outcome(ribbon, vals, confidence) == outcome(lambda: want)


@given(float_arrays())
@settings(max_examples=300, deadline=None)
def test_zero_fraction_equals_boolean_mean(r):
    assert bits(_zero_fraction(r)) == bits(float((r == 0.0).mean()))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_window_overlap_equals_mean_methods(data):
    n = data.draw(st.one_of(st.integers(1, 300), st.sampled_from(BLOCK_SIZES)))
    lo_i, lo_j, len_i, len_j = (np.abs(data.draw(float_arrays(n))) for _ in range(4))
    with np.errstate(all="ignore"):
        hi_i, hi_j = lo_i + len_i, lo_j + len_j
        want = outcome(window_oracle, hi_i, lo_i, hi_j, lo_j, 1.0)
        # _window_overlap builds the intersections inside its first argument
        assert outcome(_window_overlap, hi_i.copy(), lo_i, hi_j, lo_j, 1.0) == want


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_measured_correlation_equals_sum_methods(data):
    ri = data.draw(float_arrays())
    rj = data.draw(float_arrays(ri.size))
    with np.errstate(all="ignore"):
        assert outcome(_measured_correlation, ri, rj, 5.0) == outcome(measured_oracle, ri, rj, 5.0)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_hy_estimate_equals_sum_methods(data):
    vi, vj = data.draw(float_arrays()), data.draw(float_arrays())
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    ti = np.cumsum(rng.exponential(size=vi.size))
    tj = ti.copy() if vj.size == vi.size and data.draw(st.booleans()) else np.cumsum(
        rng.exponential(data.draw(st.sampled_from((0.1, 1.0, 10.0))), size=vj.size))
    counts = _left_right_counts(tj, ti)
    with np.errstate(all="ignore"):
        want = outcome(hy_oracle, vi, vj, *(c.copy() for c in counts))
        assert outcome(_hy_estimate, vi, vj, *counts) == want


# ---------------------------------------------------------------------------
# no Python-level reduction wrapper on the replication path

WRAPPERS = {_methods.__file__, fromnumeric.__file__}


def wrapper_calls(fn) -> int:
    """Python calls into numpy's _methods and fromnumeric modules while fn runs."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename in WRAPPERS:
            calls += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


@pytest.fixture(scope="module")
def tick_pair():
    path = simulate_gbm(GbmParams(0.01, 0.01, 0.1, 0.2, 0.65, horizon=2000.0), 1)
    u1, u2 = poisson_arrivals(0.5, 2000.0, 2), poisson_arrivals(0.3, 2000.0, 3)
    return path, u1, u2, observe_path(path, u1, 0), observe_path(path, u2, 1)


def test_the_profile_hook_sees_a_method_form_reduction():
    assert wrapper_calls(lambda: np.ones(3).sum()) == 1
    assert wrapper_calls(lambda: np.all(np.ones(3))) > 0


@pytest.mark.parametrize("estimators, stride", [
    (("measured", "flat_trade", "overlap", "hy"), None),
    (("measured", "flat_trade", "overlap", "hy"), 2.5),
    (("hy",), None),
])
def test_estimate_matrix_calls_no_reduction_wrapper(tick_pair, estimators, stride):
    *_, s1, s2 = tick_pair
    # 5 then 15 reads a strided view; 0.1 is no power-of-two step, so its
    # overlap windows come from overlap_expectation
    args = (s1, s2, (5.0, 15.0, 0.1), estimators, 2000.0, stride)
    assert np.isfinite(estimate_matrix(*args)).all()
    assert wrapper_calls(lambda: estimate_matrix(*args)) == 0


def test_k_skip_row_and_ribbon_call_no_reduction_wrapper(tick_pair):
    *_, s1, s2 = tick_pair
    row = k_skip_row(s1, s2, 20)
    assert np.isfinite(row).all()
    assert wrapper_calls(lambda: k_skip_row(s1, s2, 20)) == 0
    assert wrapper_calls(lambda: ribbon(row[0], 0.95)) == 0


def test_containers_call_no_reduction_wrapper(tick_pair):
    path, u1, _, s1, _ = tick_pair
    assert wrapper_calls(lambda: ArrivalSet(times=u1.times, horizon=2000.0)) == 0
    assert wrapper_calls(lambda: TickSeries(times=s1.times, values=s1.values, horizon=2000.0)) == 0
    assert wrapper_calls(lambda: PricePath(dt=1.0, values=path.values).times()) == 0
    assert wrapper_calls(lambda: HawkesSpec(
        lambda0=[0.015, 0.015], alpha=[[0.0, 0.023], [0.023, 0.0]],
        beta=[[0.11, 0.11], [0.11, 0.11]])) == 0
