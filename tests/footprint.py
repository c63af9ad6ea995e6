"""Peak working memory of the estimators, of observe_path and of the simulators,
per grid point, per tick and per path step.

traced_peak runs a call under tracemalloc, which counts the bytes the call
allocates (not its inputs, made before tracing starts) and keeps the peak.
footprint divides those peaks by the size of the input: estimate_matrix
at dt = 1, and over FIG_DT_GRID (whose finest step is 1), by the points of
the dt = 1 grid, for each estimator set the figure presets use and for
Poisson legs of mean inter-arrival 15 s (the presets' rate) and 1 s (the
k-skip tick rate); hayashi_yoshida, k_skip_row and their rank
_left_right_counts by the ticks of one leg, at 1 s; observe_path by its arrivals, one per path step
on average, on a path of step 1 (ranked by exact arithmetic) and of step
0.1 (ranked by bisection against the path's grid); each simulator (simulate_gbm, simulate_merton,
hawkes_price_model at the reference parameters) by the steps of its path.
tracemalloc does not see numpy's stable-sort buffer, so merge_peak adds the
rank's merge buffer by hand to every peak that includes it.
index.MAX_GRID_STEPS is sized from these numbers. Print them at 10**6 points, with the memory a
grid needs at that bound and a pair of legs at the most ticks index.MAX_EXPECTED_COLLISIONS
lets a leg expect, by

    PYTHONPATH=src python tests/footprint.py [n_points]
"""

import math
import sys
import tracemalloc
from dataclasses import replace

import numpy as np

from eppsim.experiments import ESTIMATOR_NAMES, FIG_DT_GRID, estimate_matrix, k_skip_row
from eppsim.estimators import hayashi_yoshida
from eppsim.hawkes import hawkes_price_model
from eppsim.paths import simulate_gbm, simulate_merton
from eppsim.presets import hawkes_price_reference, reference_params
from eppsim.index import MAX_EXPECTED_COLLISIONS, MAX_GRID_STEPS, _left_right_counts
from eppsim.sampling import observe_path, poisson_arrivals
from eppsim.series import PricePath, TickSeries

# the estimator sets of the figure presets, by their CLI spelling
ESTIMATOR_SETS = {
    "measured": ("measured",),
    "measured,overlap": ("measured", "overlap"),
    ",".join(ESTIMATOR_NAMES): ESTIMATOR_NAMES,
    "hy": ("hy",),
}
MEAN_INTERARRIVALS = (15.0, 1.0)
PATH_STEPS = (1.0, 0.1)  # a preset path's step, and one that is not a power of two
K_MAX = 10  # the k-skip figures' curve length is about this


def traced_peak(fn, *args):
    """fn(*args), and the peak memory that tracemalloc counts while it runs."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def poisson_legs(rate: float, horizon: float, seed: int = 0) -> tuple[TickSeries, TickSeries]:
    """Two independent Poisson tick series on [0, horizon] with random-walk values."""
    legs = []
    for k in (1, 2):
        t = poisson_arrivals(rate, horizon, seed + k).times
        v = np.cumsum(np.random.default_rng(seed + k).standard_normal(t.size))
        legs.append(TickSeries(times=t, values=v, horizon=horizon))
    return legs[0], legs[1]


def merge_peak(si: TickSeries, sj: TickSeries) -> int:
    """Peak bytes of the HY rank _left_right_counts(sj.times, si.times): what
    tracemalloc counts, plus the merge buffer of numpy's stable sort, which
    it does not count. The legs are two ascending runs, so the sort merges
    once, through a buffer of 8 bytes per tick of the shorter leg."""
    return traced_peak(_left_right_counts, sj.times, si.times)[1] + 8 * min(len(si), len(sj))


def footprint(n_points: int) -> dict[str, float]:
    """Peak bytes per grid point of estimate_matrix at dt = 1 over n_points
    grid points, keyed "estimate_matrix[<set>] legs <m> s", and over
    FIG_DT_GRID per point of its dt = 1 grid, keyed "estimate_matrix[<set>]
    FIG_DT_GRID legs <m> s"; and per leg tick of hayashi_yoshida and
    k_skip_row at n_points ticks per leg, and of the rank they share, keyed
    "_left_right_counts", and of observe_path, keyed
    "observe_path path step <step>", at about n_points arrivals on a path
    of n_points steps; and per path step of each simulator over n_points
    steps of 1 s, keyed "<simulator> per step". Each caller of the rank
    runs it first, holding at most a small result array, so its peak is
    the larger of its traced peak and merge_peak."""
    horizon = float(n_points - 1)
    out = {}
    for m in MEAN_INTERARRIVALS:
        s1, s2 = poisson_legs(1.0 / m, horizon)
        merge = merge_peak(s1, s2)
        for name, estimators in ESTIMATOR_SETS.items():
            for grid, dt_grid in (("", (1.0,)), (" FIG_DT_GRID", FIG_DT_GRID)):
                _, peak = traced_peak(estimate_matrix, s1, s2, dt_grid, estimators, horizon)
                if "hy" in estimators:
                    peak = max(peak, merge)
                out[f"estimate_matrix[{name}]{grid} legs {m:g} s"] = peak / n_points
    s1, s2 = poisson_legs(1.0, float(n_points))
    n = (len(s1) + len(s2)) / 2
    merge = merge_peak(s1, s2)
    out["_left_right_counts"] = merge / n
    out["hayashi_yoshida"] = max(traced_peak(hayashi_yoshida, s1, s2)[1], merge) / n
    out[f"k_skip_row k_max {K_MAX}"] = max(traced_peak(k_skip_row, s1, s2, K_MAX)[1], merge) / n
    for step in PATH_STEPS:
        path = PricePath(dt=step, values=np.zeros((n_points + 1, 2)))
        arrivals = poisson_arrivals(1.0 / step, path.horizon, seed=3)
        out[f"observe_path path step {step:g}"] = (
            traced_peak(observe_path, path, arrivals, 0)[1] / len(arrivals)
        )
    horizon = float(n_points)
    for name, fn, *args in (
        ("simulate_gbm", simulate_gbm, replace(reference_params("gbm"), horizon=horizon)),
        ("simulate_merton", simulate_merton, replace(reference_params("merton"), horizon=horizon)),
        ("hawkes_price_model", hawkes_price_model, hawkes_price_reference(), horizon),
    ):
        out[f"{name} per step"] = traced_peak(fn, *args, 5)[1] / n_points
    return out


if __name__ == "__main__":
    n_points = int(sys.argv[1]) if len(sys.argv) > 1 else 10**6
    peaks = footprint(n_points)
    print(f"peak bytes per grid point (estimate_matrix) or per tick, at {n_points} points")
    for key, value in peaks.items():
        print(f"{key:70s} {value:6.1f}")
    grid = max(v for key, v in peaks.items() if key.startswith("estimate_matrix"))
    # a pair of legs holds times and values, 16 bytes per tick each
    legs = 2 * 16 + peaks["hayashi_yoshida"]
    print(f"a grid at index.MAX_GRID_STEPS: {grid * MAX_GRID_STEPS / 1e9:.1f} GB")
    # rate * horizon ticks expect N**2 * ulp(horizon) / (2 * horizon) pairs
    # of equal times, and ulp(horizon) / horizon > 2**-53 at any horizon
    cap = math.sqrt(2 * MAX_EXPECTED_COLLISIONS * 2.0**53)
    print(f"a pair of legs at the {cap:.3g} ticks the collision bound allows: "
          f"{legs * cap / 1e9:.1f} GB")
