"""Bias and extreme-value behavior of the partition minimum.

Idealized model: the N = s * n_s segment metrics are i.i.d. N(mu, sigma^2),
so the reported minimum Z is the minimum of N normals. This module gives

* the exact expectation of Z by quadrature,
      E[Z] = mu + sigma * N * Int z phi(z) [1 - Phi(z)]^(N-1) dz,
* the exact bias E[X] - E[Z] (always >= 0),
* the extreme-value constants b (location) and a = 1/b (scale) from the
  Mills-ratio tail approximation, and the asymptotic bias sigma * b,
* seeded Monte Carlo draws of Z, one uniform per trial by the inverse
  CDF, and a Gumbel-limit diagnostic.

All integration happens in log space: [1 - Phi(z)]^(N-1) underflows
catastrophically in linear space for large N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidModel, QuadratureFailed


@dataclass(frozen=True)
class BiasModel:
    """Parameters of the i.i.d.-normal idealized model.

    ``s`` splits give groups of segment metrics; ``n_s`` is the number of
    valid split sets, so the effective order-statistic count is N = s * n_s.
    """

    mu: float
    sigma: float
    s: int = 1
    n_s: int = 1

    def __post_init__(self):
        if not (self.sigma > 0):
            raise InvalidModel(f"sigma must be > 0, got {self.sigma}")
        if self.s < 1 or self.n_s < 1:
            raise InvalidModel("s and n_s must be >= 1")

    @property
    def N(self) -> int:
        return self.s * self.n_s


@dataclass(frozen=True)
class GumbelConstants:
    """Location b and scale a = 1/b of the normal-extreme Gumbel limit."""

    b: float
    a: float


def gumbel_constants(N: int) -> GumbelConstants:
    """Closed-form extreme-value constants for N i.i.d. standard normals.

    b solves 1 - Phi(b) = 1/N through the Mills-ratio tail approximation:
    b = sqrt(2 ln N) - (ln ln N + ln 4 pi) / (2 sqrt(2 ln N)). For N = 2
    the correction term is outside its domain and only the leading order
    is used.
    """
    if N < 2:
        raise InvalidModel(f"need N >= 2, got {N}")
    lead = math.sqrt(2.0 * math.log(N))
    if N == 2:
        b = lead
    else:
        b = lead - (math.log(math.log(N)) + math.log(4.0 * math.pi)) / (2.0 * lead)
    return GumbelConstants(b=b, a=1.0 / b)


def _std_expected_min(N: int) -> float:
    """E[min of N std normals] = N * Int z phi(z) [1 - Phi(z)]^(N-1) dz.

    Evaluated in log space to absolute accuracy <= 1e-8. The factor N is
    folded into the integrand so the quadrature error estimate applies to
    the expectation itself rather than to an O(1/N) integral.
    """
    # imported by their only user, so `import minregime` loads no scipy
    from scipy import integrate
    from scipy.special import log_ndtr

    if N >= 3:
        consts = gumbel_constants(N)
        bound = (consts.b + 12.0 / consts.b) + 2.0
        # density of the minimum peaks near -b with width ~ a
        peak = [-consts.b - 3.0 * consts.a, -consts.b, -consts.b + 3.0 * consts.a]
    else:
        bound = 10.0
        peak = [0.0]
    log_n = math.log(N) - 0.5 * math.log(2.0 * math.pi)

    def integrand(z: float) -> float:
        return z * math.exp(log_n - 0.5 * z * z + (N - 1) * log_ndtr(-z))

    value, abserr = integrate.quad(integrand, -bound, bound, points=peak,
                                   epsabs=1e-10, epsrel=1e-10, limit=500)
    if abserr > 1e-8:
        raise QuadratureFailed(
            f"quadrature error {abserr:.2e} too large for N={N}")
    return value


def expected_min_exact(model: BiasModel) -> float:
    """Exact E[min of N i.i.d. N(mu, sigma^2)] by quadrature."""
    return model.mu + model.sigma * _std_expected_min(model.N)


def bias_exact(model: BiasModel) -> float:
    """Exact bias E[X] - E[Z] = -sigma * E[min of N std normals].

    Non-negative for every N >= 1 and linear in sigma.
    """
    # 0.0 - x rather than -x: at N = 1 the expectation is 0.0, and -x
    # would give -0.0
    return 0.0 - model.sigma * _std_expected_min(model.N)


def bias_asymptotic(model: BiasModel) -> float:
    """Extreme-value approximation of the bias, sigma * b.

    Equivalent to sigma * (4 ln N - ln ln N - ln 4 pi) / (2 sqrt(2 ln N)).
    Returned as a positive magnitude to match the exact bias convention
    E[X] - E[Z] >= 0. The Gumbel mean offset a * gamma (gamma being
    Euler's constant, a from ``gumbel_constants``) is deliberately
    excluded: E[max] is approximated by b alone.
    """
    if model.N < 3:
        raise InvalidModel(f"asymptotic form needs N >= 3, got {model.N}")
    return model.sigma * gumbel_constants(model.N).b


def simulate_min_model(model: BiasModel, trials: int, seed: int = 0) -> np.ndarray:
    """Monte Carlo draws of Z = min over n_s groups of min over s normals.

    Z is the minimum of N = s * n_s i.i.d. normals, so P(Z > z) =
    Phi(-z)^N and the inverse-CDF draw Z = -ndtri_exp(log V / N), with V
    uniform on (0, 1), has the same law exactly (David & Nagaraja, *Order
    Statistics*, 3rd ed., 2003). One uniform per trial from a Philox
    generator: O(trials) time and memory whatever N is, and the sample
    depends on the grouping only through N. Returns an array of
    ``trials`` values of Z in metric units.
    """
    from scipy.special import ndtri_exp

    if trials < 1:
        raise InvalidModel("trials must be >= 1")
    rng = np.random.Generator(np.random.Philox(seed))
    # V = 1 - U takes the values k * 2^-53, k = 1..2^53; V = 1 would give
    # ndtri_exp(0) = inf, so it moves to 1 - 2^-54, the middle of its cell
    log_v = np.minimum(np.log1p(-rng.random(trials)), -2.0 ** -54)
    return model.mu - model.sigma * ndtri_exp(log_v / model.N)


@dataclass(frozen=True)
class GumbelDiagnostic:
    """Simulation check of the Gumbel limit and of the minimum's divergence.

    ``ks_distance`` measures (Z' + b)/a against the negated-Gumbel law
    (CDF 1 - exp(-e^x)); ``drift`` lists (N, simulated mean, standard
    error) over a decade grid and demonstrates the strict decrease of
    E[Z] as the number of valid splits grows.
    """

    ks_distance: float
    drift: tuple[tuple[int, float, float], ...]


def gumbel_limit_diagnostic(model: BiasModel, trials: int,
                            seed: int = 0) -> GumbelDiagnostic:
    """KS distance to the Gumbel limit plus the mean-drift table, each
    from ``trials`` draws.

    The drift grid runs over decades 10, 100, ... up to N (flat groups).
    """
    # imported by its only user, so `import minregime` does not pay for
    # loading scipy.stats
    from scipy import stats

    if model.N < 10:
        raise InvalidModel(f"diagnostic needs N >= 10, got {model.N}")
    z = simulate_min_model(model, trials, seed=seed)
    zp = (z - model.mu) / model.sigma
    consts = gumbel_constants(model.N)
    standardized = (zp + consts.b) / consts.a
    # (Z' + b)/a -> -G with G standard Gumbel; the CDF of -G is 1 - exp(-e^x)
    ks = stats.kstest(standardized, stats.gumbel_l.cdf).statistic

    drift = []
    decades = [10 ** k for k in range(1, int(math.log10(model.N)) + 1)]
    for idx, n in enumerate(decades):
        sub = BiasModel(mu=model.mu, sigma=model.sigma, s=1, n_s=n)
        sample = simulate_min_model(sub, trials, seed=seed + 1 + idx)
        drift.append((n, float(np.mean(sample)),
                      float(np.std(sample, ddof=1) / math.sqrt(trials))))
    return GumbelDiagnostic(ks_distance=float(ks), drift=tuple(drift))
