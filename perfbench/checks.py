"""Output checks, run outside the timed region.

The checks use oracles, not pinned digests: segment metrics are
recomputed with a compensated two-pass formula (``math.fsum``), engine
results on reduced-size instances are compared with ``mrp_brute_force``,
and Monte Carlo output is compared with the quadrature expectation.
Each check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import log_ndtr

from minregime.engine import MrpResult, PartitionSpec, mrp_brute_force
from minregime.series import MetricKind, ReturnSeries

#: value_rel_err reads errors up to this as this. The prefix-sum error on
#: the degenerate offset series reaches 2e-6 across seeds and moves by a
#: decade from seed to seed, so a finer floor would make the metric noise.
VALUE_RESOLUTION = 1e-5
#: a segment metric further than this (relative) from the two-pass value
#: is a wrong answer, not rounding; precision itself is value_rel_err
SEGMENT_REL_TOL = 1e-4
#: fast engine against brute force on reduced-size instances
ORACLE_TOL = 1e-12
#: a KS distance check fails by chance with at most this probability
KS_ALPHA = 1e-6


def two_pass_metric(returns: np.ndarray, kind: MetricKind,
                    periods_per_year: int) -> float:
    """Segment metric from a compensated two-pass computation."""
    seg = returns.tolist()
    n = len(seg)
    mean = math.fsum(seg) / n
    if kind.name == "sortino":
        down = math.fsum(min(x - kind.mar, 0.0) ** 2 for x in seg) / n
        return (mean - kind.mar) / math.sqrt(down) * math.sqrt(periods_per_year)
    var = math.fsum((x - mean) ** 2 for x in seg) / (n - 1)
    return mean / math.sqrt(var) * math.sqrt(periods_per_year)


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


def check_result(series: ReturnSeries, s: int, d: int, kind: MetricKind,
                 res: MrpResult, errors: list[float]) -> list[str]:
    """Partition validity and segment metrics against the two-pass oracle.

    Appends the relative error of every segment metric to ``errors``.
    """
    n = len(series)
    splits = res.optimal_splits.splits
    try:
        PartitionSpec(splits=splits, n=n, d=d)
    except ValueError as exc:
        return [f"invalid partition {splits}: {exc}"]
    bad = []
    if len(splits) != s:
        bad.append(f"{len(splits)} splits, expected {s}")
    if res.split_dates != tuple(series.dates[t - 1] for t in splits):
        bad.append("split dates do not match the splits")
    metrics = res.segment_metrics
    if res.value != metrics[res.argmin_segment] or res.value != min(metrics):
        bad.append("value is not the minimum segment metric")
    for (a, b), got in zip(res.optimal_splits.segments, metrics):
        want = two_pass_metric(series.returns[a:b], kind,
                               series.periods_per_year)
        err = rel_err(got, want)
        errors.append(err)
        if not err <= SEGMENT_REL_TOL:
            bad.append(f"segment [{a}, {b}) metric {got!r} vs two-pass {want!r}")
    return bad


def worst_segment(res: MrpResult) -> tuple[int, int]:
    return res.optimal_splits.segments[res.argmin_segment]


def check_against_brute_force(series: ReturnSeries, s: int, d: int,
                              kind: MetricKind, res: MrpResult) -> list[str]:
    """Fast result equals brute force within ORACLE_TOL, with the same
    worst segment, and with the same splits where s = 1.

    For s >= 2 the other splits of a minimising partition are not unique:
    brute force takes the lexicographically first, the window scan a
    canonical completion, so only the worst segment is compared.
    """
    oracle = mrp_brute_force(series, s, d, kind)
    bad = []
    if not abs(res.value - oracle.value) <= ORACLE_TOL * max(1.0, abs(oracle.value)):
        bad.append(f"value {res.value!r} vs brute force {oracle.value!r}")
    if worst_segment(res) != worst_segment(oracle):
        bad.append(f"worst segment {worst_segment(res)} vs brute force "
                   f"{worst_segment(oracle)}")
    if s == 1 and res.optimal_splits.splits != oracle.optimal_splits.splits:
        bad.append(f"splits {res.optimal_splits.splits} vs brute force "
                   f"{oracle.optimal_splits.splits}")
    return bad


def quantised_error(errors: list[float]) -> float:
    """Largest error, floored at VALUE_RESOLUTION and rounded up to a
    power of ten, so changes in the last bits do not register."""
    worst = max(errors, default=0.0)
    if worst <= VALUE_RESOLUTION:
        return VALUE_RESOLUTION
    return 10.0 ** math.ceil(math.log10(worst))


def gumbel_limit_ks(N: int) -> float:
    """KS distance between the exact law of (Z + b)/a, Z the minimum of N
    standard normals, and the negated Gumbel law, with b from the
    Mills-ratio formula and a = 1/b.

    A simulated KS distance against the Gumbel law lies within
    ``ks_margin(trials)`` of this value unless the sampler is wrong. At
    N = 1e4 it is about 0.045, so a fixed bound of 0.05 would fail on some
    seeds however many trials are drawn.
    """
    lead = math.sqrt(2.0 * math.log(N))
    b = lead - (math.log(math.log(N)) + math.log(4.0 * math.pi)) / (2.0 * lead)
    w = np.linspace(-15.0, 8.0, 460_001)
    exact = -np.expm1(N * log_ndtr(b - w / b))
    gumbel = -np.expm1(-np.exp(w))
    return float(np.max(np.abs(exact - gumbel)))


def ks_margin(trials: int) -> float:
    """Dvoretzky-Kiefer-Wolfowitz bound: the empirical CDF of ``trials``
    draws is further than this from the true CDF with probability at
    most KS_ALPHA."""
    return math.sqrt(math.log(2.0 / KS_ALPHA) / (2.0 * trials))
