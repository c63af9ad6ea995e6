"""Multivariate Hawkes processes with exponential kernels.

Covers the generic M-variate engine (intensities, branching matrix,
stability classification, simulation) and the 4-component event-driven
price model built on top of it: two assets whose log-prices are
differences of counting processes, coupled by a self-reversion kernel
within each asset and a cross-excitation kernel between assets. The
analytic covariance of that model over an interval, its correlation curve
and the large-interval limit are provided in closed form.

Simulation uses the cluster (branching) representation of Hawkes & Oakes
(1974): baseline events arrive as independent Poisson processes, and each
event independently starts a Poisson number of children, alpha/beta on
average per target component, at exponential delays. Every generation is
drawn at once in numpy, so the cost is a few array operations per
generation rather than interpreted work per event.
"""

import math
from dataclasses import dataclass, field
from numbers import Real

import numpy as np

from . import seeding
from .errors import DomainError, NumericError, ParameterError, StabilityError
from .index import _tick_counts
from .paths import _n_steps
from .series import ArrivalSet, PricePath

STABILITY_TOL = 1e-9
# most events simulate_hawkes draws in one run before it raises NumericError
MAX_EVENTS = 5_000_000
# the step in seconds of hawkes_price_model's grid, a power of two: ranks on it are exact
PRICE_GRID_DT = 1.0


def _real_array(value, name: str) -> np.ndarray:
    """value as a float64 array if every entry is a number (not a boolean)
    and no row is ragged, else ParameterError naming the field."""
    try:
        cells = np.asarray(value, dtype=object)
        if all(isinstance(x, Real) and not isinstance(x, bool) for x in cells.flat):
            return cells.astype(np.float64)
    except ValueError:  # a shape numpy cannot hold even as objects
        pass
    raise ParameterError(f"{name} must hold numbers in rows of equal length, got {value!r}")


@dataclass(frozen=True)
class HawkesSpec:
    """Exponential-kernel Hawkes process specification.

    lambda0 : baseline intensities, shape (M,)
    alpha : excitation amplitudes, shape (M, M); alpha[m, n] is the jump in
        component m's intensity caused by an event of component n
    beta : decay rates, shape (M, M); must be positive wherever alpha > 0
    """

    lambda0: np.ndarray = field(repr=False)
    alpha: np.ndarray = field(repr=False)
    beta: np.ndarray = field(repr=False)

    def __post_init__(self):
        lam0 = np.atleast_1d(_real_array(self.lambda0, "lambda0"))
        alpha = _real_array(self.alpha, "alpha")
        beta = _real_array(self.beta, "beta")
        m = lam0.size
        if lam0.ndim != 1:
            raise ParameterError("lambda0 must be one-dimensional")
        if alpha.shape != (m, m) or beta.shape != (m, m):
            raise ParameterError(
                f"alpha and beta must have shape ({m}, {m}), got "
                f"{alpha.shape} and {beta.shape}"
            )
        if not np.logical_and.reduce(np.isfinite(lam0) & (lam0 >= 0)):
            raise ParameterError("baseline intensities must be finite and >= 0")
        if not np.logical_and.reduce(np.isfinite(alpha) & (alpha >= 0), axis=None):
            raise ParameterError("excitation amplitudes must be finite and >= 0")
        if not np.logical_and.reduce(np.isfinite(beta) & (beta >= 0), axis=None):
            raise ParameterError("decay rates must be finite and >= 0")
        if np.logical_or.reduce((alpha > 0) & (beta <= 0), axis=None):
            raise ParameterError("beta must be positive wherever alpha > 0")
        object.__setattr__(self, "lambda0", lam0)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    @property
    def dim(self) -> int:
        return self.lambda0.size


def branching_matrix(spec: HawkesSpec) -> np.ndarray:
    """Expected offspring counts alpha/beta, with 0/0 read as 0."""
    out = np.zeros_like(spec.alpha)
    mask = spec.alpha > 0
    out[mask] = spec.alpha[mask] / spec.beta[mask]
    return out


@dataclass(frozen=True)
class StabilityReport:
    classification: str  # stationary | quasi_stationary | non_stationary
    spectral_radius: float


def classify_stability(spec: HawkesSpec) -> StabilityReport:
    """Classify the kernel by the spectral radius of its branching matrix."""
    gamma = branching_matrix(spec)
    try:
        radius = float(np.maximum.reduce(np.abs(np.linalg.eigvals(gamma))))
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigenvalue computation failed: {exc}") from exc
    if abs(radius - 1.0) <= STABILITY_TOL:
        kind = "quasi_stationary"
    elif radius < 1.0:
        kind = "stationary"
    else:
        kind = "non_stationary"
    return StabilityReport(classification=kind, spectral_radius=radius)


def _require_stationary(spec: HawkesSpec, needs: str) -> StabilityReport:
    """classify_stability(spec), or StabilityError saying what needs it stationary."""
    report = classify_stability(spec)
    if report.classification != "stationary":
        raise StabilityError(
            f"kernel is {report.classification} (spectral radius "
            f"{report.spectral_radius:.6f}); {needs} needs a stationary kernel"
        )
    return report


def expected_events(spec: HawkesSpec, horizon: float) -> float:
    """horizon * sum((I - Gamma)^-1 lambda0), the stationary expected event
    count over horizon (a process started empty expects fewer), for a
    stationary spec; refused past MAX_EVENTS before any event is drawn."""
    rates = np.linalg.solve(np.eye(spec.dim) - branching_matrix(spec), spec.lambda0)
    expected = horizon * float(rates.sum())
    if not expected <= MAX_EVENTS:
        raise ParameterError(
            f"Hawkes process over horizon {horizon} expects {expected:.6g} events, "
            f"more than {MAX_EVENTS}"
        )
    return expected


def intensity_at(spec: HawkesSpec, history, t: float) -> np.ndarray:
    """Conditional intensities at time t given events strictly before t.

    history holds one array of event times per component.

    Uses the per-pair decayed-state recursion over each source component's
    events instead of a full history scan: along events s_1 < ... < s_k the
    accumulator E_j = 1 + E_{j-1} * exp(-beta (s_j - s_{j-1})) carries the
    whole excitation sum, and the pair contributes
    alpha * E_k * exp(-beta (t - s_k)).
    """
    m_dim = spec.dim
    if len(history) != m_dim:
        raise ParameterError(f"history must have {m_dim} components")
    lam = spec.lambda0.copy()
    for n in range(m_dim):
        times = np.asarray(history[n], dtype=float)
        times = times[times < t]
        if times.size == 0:
            continue
        gaps = np.diff(times)
        tail = t - times[-1]
        for m in range(m_dim):
            a = spec.alpha[m, n]
            if a == 0.0:
                continue
            b = spec.beta[m, n]
            acc = 1.0
            for g in gaps:
                acc = 1.0 + acc * math.exp(-b * g)
            lam[m] += a * acc * math.exp(-b * tail)
    return lam


def simulate_hawkes(spec: HawkesSpec, horizon: float, seed: int) -> tuple[ArrivalSet, ...]:
    """Simulate the process on [0, horizon], started empty at t = 0.

    Uses the cluster (branching) representation of Hawkes & Oakes (1974),
    one generation at a time: Poisson(lambda0[m] * horizon) immigrants of
    each component m, uniform on [0, horizon]; then every event of
    component n gets Poisson(alpha[m, n] / beta[m, n]) children in
    component m at Exp(beta[m, n]) delays. Children past the horizon are
    dropped together with their descendants, which all come later still.
    The union of all generations, sorted per component, has the law of the
    process on [0, horizon].

    Non-stationary kernels are refused. A run that would draw more than
    MAX_EVENTS events, or whose baseline events alone are expected to,
    raises NumericError before those draws are made; so does a component
    whose drawn times hold two equal float64 values (a fast decay adds
    delays below an ulp of the parent's time).
    """
    if not (horizon >= 0 and math.isfinite(horizon)):
        raise ParameterError(f"horizon must be finite and non-negative, got {horizon}")
    report = _require_stationary(spec, "the simulation")
    rng = seeding.stream(seed, seeding.HAWKES)
    m_dim = spec.dim
    # offspring means, transposed: gamma_t[n, m] children in m per event of n
    gamma_t = branching_matrix(spec).T
    beta_t = spec.beta.T

    def check_cap(total: float) -> None:
        if total > MAX_EVENTS:
            raise NumericError(
                f"Hawkes simulation needs more than {MAX_EVENTS} events "
                f"(spectral radius {report.spectral_radius:.6f}, horizon {horizon})"
            )

    expected = spec.lambda0 * horizon
    check_cap(np.add.reduce(expected))  # also keeps the Poisson mean in numpy's range
    n_immigrants = rng.poisson(expected)
    total = int(np.add.reduce(n_immigrants))
    check_cap(total)
    comps = np.arange(m_dim).repeat(n_immigrants)
    times = rng.uniform(0.0, horizon, total)
    all_comps, all_times = [comps], [times]
    while times.size:
        # children per (parent, target component), flattened row-major
        n_children = rng.poisson(gamma_t[comps]).ravel()
        n_new = int(np.add.reduce(n_children))
        total += n_new
        check_cap(total)
        slot = np.arange(n_children.size).repeat(n_children)
        parent, target = np.divmod(slot, m_dim)
        source = comps[parent]
        times = times[parent] + rng.standard_exponential(n_new) / beta_t[source, target]
        keep = times <= horizon
        times, comps = times[keep], target[keep]
        all_comps.append(comps)
        all_times.append(times)
    comps = np.concatenate(all_comps)
    times = np.concatenate(all_times)
    arrivals = []
    for m in range(m_dim):
        try:
            arrivals.append(ArrivalSet(times=np.sort(times[comps == m]), horizon=horizon))
        except ParameterError as exc:
            raise NumericError(
                f"Hawkes simulation drew two equal float64 event times in component {m} "
                f"(spectral radius {report.spectral_radius:.6f}, fastest decay "
                f"{spec.beta.max():g}, horizon {horizon})"
            ) from exc
    return tuple(arrivals)


# ---------------------------------------------------------------------------
# event-driven price model: X1 = x0_1 + N1 - N2, X2 = x0_2 + N3 - N4


@dataclass(frozen=True)
class HawkesPriceParams:
    """Parameters of the 4-component mutually exciting price model.

    mu : common baseline intensity of the four counting components
    alpha_r : self-reversion amplitude (up-tick excites the same asset's
        down-tick component and vice versa)
    alpha_c : cross-asset amplitude (up-tick excites the other asset's
        up-tick component, down-tick its down-tick component)
    beta : common decay rate of both kernels
    x0 : initial log-prices of the two assets
    """

    mu: float
    alpha_r: float
    alpha_c: float
    beta: float
    x0: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if self.mu < 0 or not np.isfinite(self.mu):
            raise ParameterError(f"mu must be finite and >= 0, got {self.mu}")
        for name in ("alpha_r", "alpha_c", "beta"):
            if not np.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite, got {getattr(self, name)}")
        if self.alpha_r < 0 or self.alpha_c < 0:
            raise ParameterError("excitation amplitudes must be >= 0")
        if not self.beta > 0:
            raise ParameterError(f"beta must be positive, got {self.beta}")
        if len(self.x0) != 2 or not np.logical_and.reduce(np.isfinite(self.x0)):
            raise ParameterError(f"x0 must be two finite log-prices, got {self.x0}")
        _require_stationary(price_spec(self), "the price model")

    @property
    def gamma_r(self) -> float:
        return self.alpha_r / self.beta

    @property
    def gamma_c(self) -> float:
        return self.alpha_c / self.beta


def price_spec(params: HawkesPriceParams) -> HawkesSpec:
    """4-dim HawkesSpec of the price model.

    Components are (asset1 up, asset1 down, asset2 up, asset2 down); the
    reversion amplitude couples the up/down pair within each asset, the
    cross amplitude couples same-direction components across assets.
    """
    r, c = params.alpha_r, params.alpha_c
    alpha = np.array(
        [
            [0.0, r, c, 0.0],
            [r, 0.0, 0.0, c],
            [c, 0.0, 0.0, r],
            [0.0, c, r, 0.0],
        ]
    )
    beta = np.full((4, 4), params.beta)
    lam0 = np.full(4, params.mu)
    return HawkesSpec(lambda0=lam0, alpha=alpha, beta=beta)


def hawkes_price_model(
    params: HawkesPriceParams, horizon: float, seed: int
) -> tuple[PricePath, tuple[ArrivalSet, ...]]:
    """Simulate the price model and extract the log-price pair on a grid.

    The grid value at k*PRICE_GRID_DT counts events up to and including it
    (the counting processes are right-continuous and an event landing
    exactly on a grid point belongs to that grid point). The horizon must
    be a positive integer multiple of PRICE_GRID_DT, so the path spans it.
    """
    n = _n_steps(horizon, PRICE_GRID_DT) + 1
    arrivals = simulate_hawkes(price_spec(params), horizon, seed)
    values = np.empty((n, 2), order="F")
    # each column is x0 + up counts - down counts, filled in place
    for col, x0, (up, down) in zip(values.T, params.x0, (arrivals[:2], arrivals[2:])):
        np.add(x0, _tick_counts(up.times, n, PRICE_GRID_DT), out=col)
        col -= _tick_counts(down.times, n, PRICE_GRID_DT)
    return PricePath(dt=PRICE_GRID_DT, values=values), arrivals


# ---------------------------------------------------------------------------
# analytic second-order structure of the price model


def theoretical_hawkes_covariance(params: HawkesPriceParams, dt: float) -> tuple[float, float]:
    """Closed-form (own, cross) covariance of log-price changes over dt.

    Returns (C11, C12): the stationary variance of one asset's change over
    an interval of length dt and the covariance between the two assets'
    changes. Both decompose over the two relaxation channels through
    u(g) = 1 - (1 - exp(-g dt))/(g dt), which rises from 0 to 1:

        C11/dt = rate_a + u(G1) w1 + u(G2) w2
        C12/dt =        - u(G1) w1 + u(G2) w2

    with rate_a the aggregate (up plus down) event rate of one asset and
    w1, w2 the channel weights. Monte Carlo confirms this form across
    dt in [1, 1000] s, and it has the right dt -> 0 limit (C11/dt -> rate_a,
    the Poissonian floor; C12/dt -> 0).

    A commonly transcribed variant is not this model's covariance: its
    own-variance bracket uses a slow-channel weight where symmetry requires
    w_sum and its rate counts one tick direction only, so its C11 diverges
    as dt -> 0 and both legs halve at large dt.

    All brackets are grouped through expm1 so small-dt evaluation does not
    cancel catastrophically; the groupings are algebraically identical to
    the direct expressions.
    """
    if not dt > 0:
        raise ParameterError(f"dt must be positive, got {dt}")
    g_r, g_c = params.gamma_r, params.gamma_c
    mu, beta = params.mu, params.beta
    den_rate = 1.0 - g_r - g_c
    den_diff = 1.0 + g_r - g_c
    den_prod = ((g_r + 1.0) ** 2 - g_c**2) * den_rate  # = (1+g_r+g_c) den_diff den_rate
    for name, den in (("1-g_r-g_c", den_rate), ("1+g_r-g_c", den_diff), ("product", den_prod)):
        if abs(den) < 1e-12:
            raise DomainError(f"covariance coefficients degenerate: {name} ~ 0")
    # the relaxation rates of the sum and difference channels
    g1, g2 = beta * (1.0 + g_r + g_c), beta * (1.0 + g_r - g_c)
    em1 = math.expm1(-g1 * dt)
    em2 = math.expm1(-g2 * dt)
    rate_a = 2.0 * (mu / den_rate)  # twice the stationary rate of each component
    scale_a = 2.0 * (beta * mu / (g_r + g_c - 1.0))
    # u(g) = 1 - (1 - e^{-g dt})/(g dt) = 1 + expm1(-g dt)/(g dt)
    u1 = 1.0 + em1 / (g1 * dt)
    u2 = 1.0 + em2 / (g2 * dt)
    w1 = scale_a * ((2.0 + g_r + g_c) * (g_r + g_c) / (1.0 + g_r + g_c)) / (2.0 * g1)
    w2 = scale_a * ((2.0 + g_r - g_c) * (g_r - g_c) / den_diff) / (2.0 * g2)
    c11 = rate_a + u1 * w1 + u2 * w2
    c12 = -u1 * w1 + u2 * w2
    return c11 * dt, c12 * dt


def theoretical_hawkes_correlation(params: HawkesPriceParams, dt: float) -> float:
    """Correlation of the two assets' log-price changes over dt."""
    c11, c12 = theoretical_hawkes_covariance(params, dt)
    if c11 <= 0:
        raise DomainError(f"own covariance is not positive at dt={dt}")
    return c12 / c11


def limiting_correlation(gamma_r: float, gamma_c: float) -> float:
    """Large-interval limit of the price-model correlation.

    2 g_c (1 + g_r) / (1 + g_c^2 + 2 g_r + g_r^2) in the branching ratios.
    """
    if gamma_r < 0 or gamma_c < 0:
        raise ParameterError("branching ratios must be non-negative")
    den = 1.0 + gamma_c**2 + 2.0 * gamma_r + gamma_r**2
    return 2.0 * gamma_c * (1.0 + gamma_r) / den
