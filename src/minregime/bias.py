"""Bias and extreme-value behavior of the partition minimum.

Idealized model: the N = s * n_s segment metrics are i.i.d. N(mu, sigma^2),
so the reported minimum Z is the minimum of N normals. This module gives

* the exact expectation of Z by one fixed exp-sinh quadrature of the
  sampler's inverse-CDF draw against the Exp(1) law of -log V,
      E[Z] = mu - sigma * Int_0^inf ndtri_exp(-t / N) e^-t dt,
* the exact bias E[X] - E[Z] (always >= 0),
* the extreme-value constants b (location) and a = 1/b (scale) from the
  Mills-ratio tail approximation, and the asymptotic bias sigma * b,
* seeded Monte Carlo draws of Z, one uniform per trial by the inverse
  CDF, and a Gumbel-limit diagnostic.

Both sides go through ``_max_of_normals``, ndtri_exp (the inverse of log
Phi) at log V / N, so no power of Phi is formed at any N that fits a float.
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
        try:
            float(self.s * self.n_s)
        except OverflowError:
            raise InvalidModel("N = s * n_s is too large for a float") from None

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
    """E[min of N std normals] = -Int_0^inf ndtri_exp(-t / N) e^-t dt.

    The integrand is the sampler's inverse-CDF draw at log V = -t, weighted
    by the Exp(1) density of -log V. One exp-sinh rule (Takahasi & Mori,
    1974): t = exp(pi/2 sinh u) at 241 fixed u = -4..3.5, step 2^-5, with
    positive weights, so the value falls strictly in N; the error estimate
    is the change from the rule on every other node. Exactly 0.0 at N = 1.
    """
    if N == 1:
        return 0.0
    u = np.arange(-128, 113) / 32.0
    t = np.exp(np.pi / 2 * np.sinh(u))
    terms = t * (np.pi / 2) * np.cosh(u) * np.exp(-t) * _max_of_normals(-t, N)
    value, coarse = math.fsum(terms) / 32.0, math.fsum(terms[::2]) / 16.0
    if abs(value - coarse) > 1e-8:
        raise QuadratureFailed(
            f"quadrature error {abs(value - coarse):.2e} too large for N={N}")
    return -value


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
    ``trials`` values of Z in metric units: ``_min_draws`` of ``_log_uniforms``.
    """
    return _min_draws(model, _log_uniforms(trials, seed))


def _log_uniforms(trials: int, seed: int) -> np.ndarray:
    """log V for ``trials`` uniforms V on (0, 1) from ``Philox(seed)``."""
    if trials < 1:
        raise InvalidModel("trials must be >= 1")
    rng = np.random.Generator(np.random.Philox(seed))
    # V = 1 - U takes the values k * 2^-53, k = 1..2^53; V = 1 would give
    # ndtri_exp(0) = inf, so it moves to 1 - 2^-54, the middle of its cell
    return np.minimum(np.log1p(-rng.random(trials)), -2.0 ** -54)


def _max_of_normals(log_v: np.ndarray, N: int) -> np.ndarray:
    """Inverse-CDF draws Phi^-1(V^(1/N)) = ndtri_exp(log V / N) of the
    maximum of N std normals. A quotient that underflows to -0.0, where
    ndtri_exp is inf, is taken as -5e-324, the negative float nearest 0."""
    from scipy.special import ndtri_exp

    return ndtri_exp(np.minimum(log_v / float(N), -5e-324))


def _min_draws(model: BiasModel, log_v: np.ndarray) -> np.ndarray:
    """Inverse-CDF draws of Z, one per ``log_v``; InvalidModel on overflow."""
    with np.errstate(over="ignore"):
        z = model.mu - model.sigma * _max_of_normals(log_v, model.N)
    if not np.isfinite(z).all():
        raise InvalidModel("a draw of Z overflows: mu or sigma too large")
    return z


def _mean_se(sample: np.ndarray) -> tuple[float, float]:
    """A sample's mean and standard error, recomputed at an exact scale of
    2^-e where numpy's sums overflow; InvalidModel if either is inf."""
    if sample.size < 2:
        raise InvalidModel(f"a standard error needs >= 2 draws, got {sample.size}")
    root_n = math.sqrt(sample.size)
    with np.errstate(over="ignore", invalid="ignore"):
        m = np.array([np.mean(sample), np.std(sample, ddof=1) / root_n])
        if not np.isfinite(m).all():
            e = math.frexp(float(np.max(np.abs(sample))))[1]
            x = np.ldexp(sample, -e)
            m = np.ldexp([np.mean(x), np.std(x, ddof=1) / root_n], e)
    if not np.isfinite(m).all():
        raise InvalidModel("simulated mean or standard error overflows")
    return float(m[0]), float(m[1])


@dataclass(frozen=True)
class GumbelDiagnostic:
    """Simulation check of the Gumbel limit and of the minimum's divergence.

    ``ks_distance`` is the KS statistic (no p-value) of (Z' + b)/a against
    the negated-Gumbel law (CDF 1 - exp(-e^x)); ``drift`` lists (N,
    simulated mean, standard error) over a decade grid and demonstrates
    the strict decrease of E[Z] as the number of valid splits grows.
    """

    ks_distance: float
    drift: tuple[tuple[int, float, float], ...]


def gumbel_limit_diagnostic(model: BiasModel, trials: int,
                            seed: int = 0) -> GumbelDiagnostic:
    """KS distance to the Gumbel limit plus the mean-drift table, each
    from ``trials`` draws. The KS statistic is ``scipy.stats.kstest``'s to
    the bit, without its p-value or ``scipy.stats``; the drift grid runs
    over decades 10, 100, ... up to N (flat groups).
    """
    from scipy.special import expm1

    if model.N < 10:
        raise InvalidModel(f"diagnostic needs N >= 10, got {model.N}")
    zp = (simulate_min_model(model, trials, seed=seed) - model.mu) / model.sigma
    consts = gumbel_constants(model.N)
    # (Z' + b)/a -> -G with G standard Gumbel; the CDF of -G is 1 - exp(-e^x)
    cdf = -expm1(-np.exp(np.sort((zp + consts.b) / consts.a)))
    edf = np.arange(trials + 1.0) / trials  # the empirical CDF's steps
    ks = max(np.max(edf[1:] - cdf), np.max(cdf - edf[:-1]))

    drift = []
    decades = [10 ** k for k in range(1, int(math.log10(model.N)) + 1)]
    for idx, n in enumerate(decades):
        sub = BiasModel(mu=model.mu, sigma=model.sigma, s=1, n_s=n)
        sample = simulate_min_model(sub, trials, seed=seed + 1 + idx)
        drift.append((n, *_mean_se(sample)))
    return GumbelDiagnostic(ks_distance=float(ks), drift=tuple(drift))
