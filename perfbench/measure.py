"""Measurement helpers: robust summaries, the machine-speed reference, CLI start-up timing, environment.

Everything here runs in the benchmark's own process or in fresh
interpreters it starts and waits for; nothing imports eppsim.
"""

import importlib.metadata
import os
import platform
import statistics
import subprocess
import sys
import time

SETUP_CODE = "import eppsim.cli as c; c.build_parser()"
IMPORT_PACKAGES = ("numpy", "scipy", "eppsim")
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Machine speed. The host is shared, and its speed flips between a fast and
# a slow state (about 35 % apart) every second or two and drifts over
# minutes, for every program alike. So every time that an end-to-end metric
# reports is scaled by the speed of a fixed reference computation, sampled
# all through the measurement: REFERENCE_CALLS calls between any two
# measured operations. The scaled time is the mean raw time times
# REFERENCE_S over the mean reference time (at_reference_speed). REFERENCE_S
# is what one reference call takes on the machine described in README.md in
# a fast period, so scaled times read as seconds there. It and the kernel
# are fixed: changing either changes every scaled time.
REFERENCE_S = 0.020
REFERENCE_CALLS = 2
REFERENCE_LOOPS = 3  # size of one reference call


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


_REFERENCE_INPUTS = None


def reference_kernel() -> float:
    """A fixed computation in the mix that eppsim's hot paths have.

    Half is an interpreted loop over floats, as Hawkes thinning is; half
    is numpy summing, sorting and searching, as path simulation and
    previous-tick sampling are. It calls nothing of eppsim, so no change
    to the program can change its time. Its inputs and buffers are made
    once and its working set (about 1.5 MB) stays in a core's cache, so
    neither the calling process's heap nor what ran before it moves its
    time; only the machine's speed does.
    """
    global _REFERENCE_INPUTS
    import numpy as np

    if _REFERENCE_INPUTS is None:
        rng = np.random.default_rng(12345)
        _REFERENCE_INPUTS = (
            rng.random(20_000).tolist(),
            rng.standard_normal(50_000),
            np.empty(50_000),
            rng.random(25_000) * 28_200.0,
            np.empty(25_000),
            np.arange(0.0, 28_200.0, 5.0),
        )
    draws, steps, walk, raw_ticks, ticks, grid = _REFERENCE_INPUTS
    t, lam, kept = 0.0, 1.0, 0
    for _ in range(REFERENCE_LOOPS):
        for u in draws:
            t += 0.5 * u
            lam = 0.2 + (lam - 0.2) * 0.99
            if 2.0 * u < lam:
                kept += 1
                lam += 0.1
    total = 0.0
    for _ in range(REFERENCE_LOOPS * 6):
        np.cumsum(steps, out=walk)
        ticks[:] = raw_ticks
        ticks.sort()
        total += float(walk[np.searchsorted(ticks, grid, side="right")].sum())
    return total + kept + t


def reference_times(calls: int = REFERENCE_CALLS) -> list[float]:
    """Seconds of each of `calls` calls of reference_kernel: the machine's speed now."""
    samples = []
    for _ in range(calls):
        t0 = time.perf_counter()
        reference_kernel()
        samples.append(time.perf_counter() - t0)
    return samples


def at_reference_speed(raw: list[float], refs: list[float]) -> float:
    """Mean of raw, scaled to the machine speed at which a reference call takes REFERENCE_S."""
    return statistics.fmean(raw) * REFERENCE_S / statistics.fmean(refs)


def src_env(root) -> dict:
    """Environment for a child interpreter that imports eppsim from root/src."""
    env = dict(os.environ)
    src = os.path.join(str(root), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def time_setup(root, repeats: int) -> tuple[list[float], list[float]]:
    """Wall seconds for fresh interpreters to import eppsim.cli and build the parser.

    One unmeasured start first writes the bytecode caches, which a user
    pays once per install, not per invocation. Returns the samples and
    the reference times taken before, between and after them.
    """
    env = src_env(root)
    cmd = [sys.executable, "-c", SETUP_CODE]
    subprocess.run(cmd, env=env, cwd=root, check=True, timeout=120)
    reference_kernel()  # its first call is slower than the rest
    samples, refs = [], reference_times()
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=root, check=True, timeout=120)
        samples.append(time.perf_counter() - t0)
        refs += reference_times()
    return samples, refs


def parse_importtime(text: str) -> dict[str, float]:
    """Seconds of import self time per top-level package in -X importtime output.

    Self time excludes nested imports, so the packages' shares add up
    instead of counting numpy once more inside every scipy module.
    """
    micros = {name: 0 for name in IMPORT_PACKAGES}
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        try:
            us = int(self_us)
        except ValueError:  # the header line
            continue
        top = name.strip().split(".")[0]
        if top in micros:
            micros[top] += us
    return {name: us / 1e6 for name, us in micros.items()}


def import_times(root, repeats: int) -> dict[str, float]:
    """Median per-package import self time of `import eppsim.cli` in fresh interpreters."""
    env = src_env(root)
    cmd = [sys.executable, "-X", "importtime", "-c", SETUP_CODE]
    subprocess.run(cmd, env=env, cwd=root, check=True, capture_output=True, timeout=120)
    runs = []
    for _ in range(repeats):
        done = subprocess.run(
            cmd, env=env, cwd=root, check=True, capture_output=True, text=True, timeout=120
        )
        runs.append(parse_importtime(done.stderr))
    return {name: median([r[name] for r in runs]) for name in IMPORT_PACKAGES}


def environment() -> dict:
    """The machine and thread settings the numbers were taken on."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        blas = None
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": blas,
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
    }
