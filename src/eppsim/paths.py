"""Synchronous price-process simulators: correlated GBM and jump-diffusion.

Drift and variance parameters are quoted per trading day and converted with
DAY_SECONDS; simulation runs on a regular grid in seconds. Both simulators
draw their Brownian increments from the same derived stream, so the
jump-diffusion with jump intensity zero reproduces the plain GBM path
bitwise under the same seed.
"""

from dataclasses import dataclass, fields

import numpy as np

from . import seeding
from .errors import ParameterError
from .index import _step_ratio
from .series import PricePath

# one trading day in seconds (20 hours), the unit the daily parameters refer to
DAY_SECONDS = 72000.0


def _n_steps(horizon: float, dt: float) -> int:
    if not dt > 0:
        raise ParameterError(f"dt must be positive, got {dt}")
    if not horizon > 0:
        raise ParameterError(f"horizon must be positive, got {horizon}")
    ratio = _step_ratio(horizon, dt, " of dt")
    n = int(round(ratio))
    if n < 1 or abs(ratio - n) > 1e-9 * max(1.0, abs(ratio)):
        raise ParameterError(
            f"horizon {horizon} is not a positive integer multiple of dt {dt}"
        )
    return n


def _check_diffusion(params):
    """Every field finite (the error names it), variances >= 0, |rho| <= 1."""
    for f in fields(params):
        value = getattr(params, f.name)
        if not np.isfinite(value):
            raise ParameterError(f"{f.name} must be finite, got {value}")
    for name in ("sigma_sq1", "sigma_sq2"):
        if getattr(params, name) < 0:
            raise ParameterError(f"{name} must be non-negative, got {getattr(params, name)}")
    if not -1.0 <= params.rho <= 1.0:
        raise ParameterError(f"rho must lie in [-1, 1], got {params.rho}")


@dataclass(frozen=True)
class GbmParams:
    """Correlated geometric Brownian motion, parameters per trading day.

    mu1, mu2 : daily drifts of the two assets
    sigma_sq1, sigma_sq2 : daily variances
    rho : instantaneous correlation of the driving Brownian motions
    dt : simulation grid step in seconds
    horizon : total time in seconds, a positive multiple of dt
    """

    mu1: float
    mu2: float
    sigma_sq1: float
    sigma_sq2: float
    rho: float
    dt: float = 1.0
    horizon: float = DAY_SECONDS

    def __post_init__(self):
        _check_diffusion(self)
        _n_steps(self.horizon, self.dt)


@dataclass(frozen=True)
class MertonParams:
    """GBM plus compound-Poisson log-normal jumps.

    jump_rate : jump intensity per second, per asset (independent across assets)
    jump_mean : mean of the log jump size
    jump_std : standard deviation of the log jump size
    """

    mu1: float
    mu2: float
    sigma_sq1: float
    sigma_sq2: float
    rho: float
    jump_rate: float
    jump_mean: float = 0.0
    jump_std: float = 0.001
    dt: float = 1.0
    horizon: float = DAY_SECONDS

    def __post_init__(self):
        _check_diffusion(self)
        if self.jump_rate < 0:
            raise ParameterError(f"jump_rate must be non-negative, got {self.jump_rate}")
        if self.jump_std < 0:
            raise ParameterError(f"jump_std must be non-negative, got {self.jump_std}")
        _n_steps(self.horizon, self.dt)


def _diffusion_path(params, n: int, seed: int) -> np.ndarray:
    """Column-major (n + 1, 2): 0, then the Euler-Maruyama log-price increments
    of the correlated diffusion part (the caller sums them in place)."""
    rng = seeding.stream(seed, seeding.DIFFUSION)
    z = rng.standard_normal((n, 2))
    mu_s = np.array([params.mu1, params.mu2]) / DAY_SECONDS
    var_s = np.array([params.sigma_sq1, params.sigma_sq2]) / DAY_SECONDS
    drift = (mu_s - 0.5 * var_s) * params.dt
    vol = np.sqrt(var_s) * np.sqrt(params.dt)
    values = np.zeros((n + 1, 2), order="F")
    x1, x2 = values[1:, 0], values[1:, 1]
    np.add(drift[0], np.multiply(vol[0], z[:, 0], out=x1), out=x1)
    # lower-triangular square root of [[1, rho], [rho, 1]]
    np.multiply(params.rho, z[:, 0], out=x2)
    z[:, 1] *= np.sqrt(1.0 - params.rho * params.rho)
    x2 += z[:, 1]
    np.add(drift[1], np.multiply(vol[1], x2, out=x2), out=x2)
    return values


def _jump_increments(params: MertonParams, n: int, seed: int) -> np.ndarray:
    """Per-step log-price jump sums of each asset, shape (n, 2).

    A step with c jumps contributes N(c*jump_mean, c*jump_std^2), the exact
    law of the sum of c independent log jump sizes.
    """
    rng = seeding.stream(seed, seeding.JUMPS)
    counts = rng.poisson(params.jump_rate * params.dt, size=(n, 2))
    z = rng.standard_normal((n, 2))
    z *= params.jump_std * np.sqrt(counts)  # the jump sums, in place
    z += params.jump_mean * counts
    return z


def simulate_gbm(params: GbmParams, seed: int) -> PricePath:
    """Simulate the correlated GBM log-price pair on its grid.

    Log-prices start at zero; increments follow the Euler-Maruyama scheme
    (mu - sigma^2/2) dt + sigma dW with daily parameters rescaled to seconds.
    """
    values = _diffusion_path(params, _n_steps(params.horizon, params.dt), seed)
    np.cumsum(values[1:], axis=0, out=values[1:])
    return PricePath(dt=params.dt, values=values)


def simulate_merton(params: MertonParams, seed: int) -> PricePath:
    """Simulate the jump-diffusion log-price pair on its grid.

    Jump arrivals are Poisson per step and independent across assets; each
    jump adds a log-normal log return at the step it occurs. Diffusion and
    jump draws come from separate streams of the same seed.
    """
    n = _n_steps(params.horizon, params.dt)
    values = _diffusion_path(params, n, seed)
    if params.jump_rate > 0:
        values[1:] += _jump_increments(params, n, seed)
    np.cumsum(values[1:], axis=0, out=values[1:])
    return PricePath(dt=params.dt, values=values)
