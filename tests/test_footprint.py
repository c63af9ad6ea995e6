"""The peak working memory of the estimators, of observe_path and of the
simulators (measured by footprint.py) and the hand-over of the count arrays
_hy_estimate consumes, and the heap pages one tick pair leaves to the next."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from footprint import K_MAX, footprint, poisson_legs

from eppsim import estimators, experiments
from eppsim.estimators import hayashi_yoshida
from eppsim.experiments import ESTIMATOR_NAMES, estimate_matrix, k_skip_row
from eppsim.sampling import k_skip

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def peaks():
    return footprint(2 * 10**5)


def test_estimate_matrix_peaks_at_a_few_grid_sized_arrays(peaks):
    # 8 bytes per grid point per array: two previous-tick indices, two
    # returns and one product, or two indices, two time grids and one
    # window bound; the parent of the in-place rewrite peaked at 96. Over a
    # whole dt grid the same bound holds per point of its finest grid
    got = {key: v for key, v in peaks.items() if key.startswith("estimate_matrix")}
    assert len(got) == 16
    assert max(got.values()) <= 50, got


def test_hayashi_yoshida_and_k_skip_peak_per_tick(peaks):
    # two counts, leg-i returns, the prefix sums and the span with its
    # lower bound; 72 and 88 before the in-place rewrite. The rank before
    # them merges both legs' keys (16), through numpy's stable-sort buffer
    # of 8 per tick of the shorter leg, which tracemalloc does not see and
    # footprint.merge_peak adds by hand, then holds the query positions and
    # the two counts: 34 in all, so the estimators stay at <= 50
    assert peaks["_left_right_counts"] <= 36, peaks
    assert peaks["hayashi_yoshida"] <= 50, peaks
    assert peaks[f"k_skip_row k_max {K_MAX}"] <= 50, peaks


def test_observe_path_peak_per_tick(peaks):
    # the ranks and the values read, or the grid bisected on a step that is
    # not a power of two (one node per arrival here): 17 bytes per tick at
    # either step; the guess-and-correct ranking it replaced took 25
    got = {key: v for key, v in peaks.items() if key.startswith("observe_path")}
    assert len(got) == 2
    assert max(got.values()) <= 18, got


def test_simulators_hold_no_second_copy_of_the_path(peaks):
    # a path is 16 bytes per step, built column-major in place beside the
    # simulator's own draws: GBM's normals (16); Merton's normals, jump
    # counts and jump normals (48, with a 16-byte temporary for the jump
    # sums); Hawkes's one count column (8) and its events (about 2). A
    # second path-sized array while the draws live adds 16 (the row-major
    # build by np.vstack of a cumulative sum peaked at 56, 80 and 34)
    assert peaks["simulate_gbm per step"] <= 34, peaks
    assert peaks["simulate_merton per step"] <= 66, peaks
    assert peaks["hawkes_price_model per step"] <= 28, peaks


def test_hy_estimate_callers_never_read_the_counts_it_consumes(monkeypatch):
    # each call is handed count arrays of its own, which are wrecked once it
    # returns: a caller that read them again would change its results
    s1, s2 = poisson_legs(1.0, 3000.0, seed=4)
    dt_grid = (1.0, 5.0, 15.0)
    want_hy = hayashi_yoshida(s1, s2).rho
    want_kskip = [hayashi_yoshida(k_skip(s1, k), k_skip(s2, k)).rho for k in range(1, K_MAX + 1)]
    want_matrix = estimate_matrix(s1, s2, dt_grid, ESTIMATOR_NAMES, 3000.0)
    consumed = []
    real = estimators._hy_estimate

    def consume(vi, vj, below, upto):
        for arr in (below, upto):
            assert not any(np.shares_memory(arr, other) for other in consumed)
            consumed.append(arr)
        try:
            return real(vi, vj, below, upto)
        finally:
            below.fill(-1)
            upto.fill(-1)

    monkeypatch.setattr(estimators, "_hy_estimate", consume)
    monkeypatch.setattr(experiments, "_hy_estimate", consume)
    assert hayashi_yoshida(s1, s2).rho == want_hy
    np.testing.assert_array_equal(k_skip_row(s1, s2, K_MAX)[0], want_kskip)
    np.testing.assert_array_equal(
        estimate_matrix(s1, s2, dt_grid, ESTIMATOR_NAMES, 3000.0), want_matrix
    )
    assert len(consumed) == 2 * (1 + K_MAX + 1)


# a child interpreter imports eppsim, draws one 72 000 s tick pair off a
# GBM path and estimates it with HY, then prints the minor page faults that
# ten more pairs take
TICK_PAIRS = """
import resource
from eppsim import hayashi_yoshida, observe_path, poisson_arrivals, simulate_gbm
from eppsim.presets import reference_params

path = simulate_gbm(reference_params("gbm"), 0)

def pair(s):
    legs = [observe_path(path, poisson_arrivals(1.0, 72000.0, 2 * s + a), a) for a in (0, 1)]
    hayashi_yoshida(*legs)

pair(0)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for s in range(1, 11):
    pair(s)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


@pytest.mark.skipif(not _glibc(), reason="the malloc thresholds are glibc's")
@pytest.mark.parametrize("malloc_env, faults", [
    ({}, lambda n: n < 100),  # the glibc default faults some 14 600 pages back in
    # the user's own thresholds win over the ones eppsim sets
    ({"MALLOC_MMAP_THRESHOLD_": "131072", "MALLOC_TRIM_THRESHOLD_": "131072"}, lambda n: n > 1000),
], ids=["eppsim", "user"])
def test_tick_pairs_reuse_the_heap_pages_the_last_pair_freed(malloc_env, faults):
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    env.update(malloc_env, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", TICK_PAIRS], env=env, capture_output=True,
                          text=True)
    assert done.returncode == 0, done.stderr
    assert faults(int(done.stdout)), done.stdout
