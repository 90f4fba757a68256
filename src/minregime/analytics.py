"""Empirical products built on the partition engine.

Per-factor reports, the decay-risk frontier, sensitivity grids over
(lookback, minimum-segment-length), cross-metric robustness correlations,
portfolio-level minimum regime performance, and block-bootstrap stability
checks, in process, each on one ``PrefixTable``: a factor report's window's,
or a chunk's of grid windows or bootstrap replicates in ``_replicate_mrp``.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .engine import (_CHUNK, MrpResult, _check_feasible, _first_min, _result,
                     _scores, _search, _split_scan, mrp_fast)
from .errors import (
    DateMismatch,
    DegenerateVector,
    Infeasible,
    InvalidBlock,
    MinRegimeError,
    NonFiniteReturn,
)
from .series import (
    SHARPE,
    MetricKind,
    PrefixTable,
    ReturnSeries,
    _kind_arrays,
    _moments,
    _prefix_table,
    _score,
    build_prefix_sums,
)

#: rolling-Sharpe-volatility window defaults per frequency (periods)
DEFAULT_ROLLING_WINDOW = {"daily": 252, "monthly": 36}


def _trailing_window(series: ReturnSeries, lookback_years: float) -> ReturnSeries:
    """Last lookback_years of data (the whole series if shorter)."""
    w = min(len(series), series.frequency.periods(lookback_years))
    return series.window(len(series) - w, len(series))


@dataclass(frozen=True)
class FactorReport:
    """Full-window Sharpe and single-split minimum for one factor."""

    label: str
    full_sharpe: float
    mrp1: float
    left_sr: float
    right_sr: float
    split_date: datetime.date


def factor_report(series: ReturnSeries, lookback_years: float = 40.0,
                  d_years: float = 2.0, kind: MetricKind = SHARPE) -> FactorReport:
    """Full-window metric and MRP_1 on the trailing window's prefix table."""
    win = _trailing_window(series, lookback_years)
    d = series.frequency.periods(d_years)
    if len(win) < 2 * d:
        raise Infeasible(
            f"{series.label!r}: window of {len(win)} periods < 2*d = {2 * d}")
    _check_feasible(len(win), 1, d)
    table = build_prefix_sums(win)
    res = _result(win, table, _search(table, 1, d, kind)[1], d, kind)
    return FactorReport(
        label=series.label,
        full_sharpe=float(_scores(table, 0, np.array([len(win)]), kind)[0]),
        mrp1=res.value,
        left_sr=res.segment_metrics[0],
        right_sr=res.segment_metrics[1],
        split_date=res.split_dates[0],
    )


@dataclass(frozen=True)
class FrontierPoint:
    """One strategy on the efficiency-durability plane."""

    label: str
    x: float  # full-sample metric
    y: float  # minimum regime performance
    dominated: bool


def frontier(reports: Sequence[FactorReport]) -> list[FrontierPoint]:
    """Decay-risk frontier: a point is dominated iff another point is
    strictly higher on both axes."""
    if not reports:
        raise ValueError("need at least one report")
    points = []
    for r in reports:
        dominated = any(
            o.full_sharpe > r.full_sharpe and o.mrp1 > r.mrp1 for o in reports
        )
        points.append(FrontierPoint(r.label, r.full_sharpe, r.mrp1, dominated))
    return points


@dataclass(frozen=True)
class SensitivityGrid:
    """Matrix of (MRP - full-window metric) over lookback x d.

    ``cells[i, j]`` corresponds to ``lookbacks_years[i]`` and
    ``d_years[j]``; infeasible combinations hold NaN.
    """

    label: str
    lookbacks_years: tuple[float, ...]
    d_years: tuple[float, ...]
    cells: np.ndarray


def _replicate_mrp(draw, count: int, n: int, ppy: int, s: int,
                   ds: Sequence[int], kind: MetricKind, full: bool = False):
    """MRP_s, a (count, len(ds)) array, of ``count`` rows of n returns at
    each d of ``ds`` (all fit), each row's as its own series', bit for
    bit; and if ``full`` each row's full-window metric, read off its
    table's last column unchecked (defined if a partition is), else None.
    ``draw(k, rows)`` gives rows k..k + rows, in order, ``max(1, _CHUNK //
    n)`` to a prefix table. At s = 1 the split scan at the least d holds
    each d's as its columns [d - d0, n - d - d0]; at s >= 2 each d is one
    ``_search``."""
    step, d0 = max(1, _CHUNK // n), min(ds)
    values, metric = np.empty((count, len(ds))), np.empty(count)
    for k in range(0, count, step):
        at = slice(k, k + step)
        table = _prefix_table(draw(k, min(step, count - k)), ppy)
        if s == 1:
            pair = np.minimum(*_split_scan(table, d0, kind))
            for c, cut in enumerate(pair[:, d - d0:n - d - d0 + 1] for d in ds):
                values[at, c] = cut[np.arange(len(cut)), _first_min(cut)]
        else:  # a row's table, a view of its chunk's, serves every d
            ones = (PrefixTable(*row, ppy, n) for row in zip(table.sum1, table.returns))
            values[at] = [[_search(one, s, d, kind)[0] for d in ds] for one in ones]
        if full:
            sums = table.sum1[:, -1], _kind_arrays(table, kind)[0][:, -1]
            metric[at] = _score(table, True, *_moments(n, *sums, kind), kind, 0, n)
    return values, metric if full else None


def sensitivity_grids(series_list: Sequence[ReturnSeries],
                      lookbacks_years: Sequence[float] = (10, 15, 20, 25, 30, 35, 40),
                      d_years: Sequence[float] = (1, 2, 3, 4, 5), s: int = 1,
                      kind: MetricKind = SHARPE) -> list[SensitivityGrid]:
    """(MRP - metric) for every lookback/d combination, one grid per series.

    Per lookback, the trailing windows of one length and frequency are the
    rows of one ``_replicate_mrp`` call. s < 1 raises Infeasible. Where it
    raises, each series is searched alone, in order: the first error wins.
    """
    if not lookbacks_years or not d_years:
        raise ValueError("lookback and d grids must be non-empty")
    if s < 1:
        raise Infeasible("s must be >= 1")
    cells = np.full((len(series_list), len(lookbacks_years), len(d_years)), np.nan)
    try:
        for j, lookback in enumerate(lookbacks_years):
            groups: dict = {}
            for i, x in enumerate(series_list):
                n = min(len(x), x.frequency.periods(lookback))
                groups.setdefault((n, x.frequency), []).append(i)
            for (n, freq), rows in groups.items():
                ds = [freq.periods(dy) for dy in d_years]
                fit = [k for k, d in enumerate(ds) if d >= 2 and n >= (s + 1) * d]
                if fit:
                    wins = [series_list[i].returns[-n:] for i in rows]
                    values, full = _replicate_mrp(
                        lambda k, m: np.stack(wins[k:k + m]), len(rows), n,
                        freq.periods_per_year, s, [ds[k] for k in fit], kind, True)
                    cells[np.ix_(rows, [j], fit)] = (values - full[:, None])[:, None]
    except MinRegimeError:
        if len(series_list) < 2:
            raise
        return [sensitivity_grid(x, lookbacks_years, d_years, s, kind)
                for x in series_list]
    years = tuple(map(float, lookbacks_years)), tuple(map(float, d_years))
    return [SensitivityGrid(x.label, *years, c) for x, c in zip(series_list, cells)]


def sensitivity_grid(series: ReturnSeries,
                     lookbacks_years: Sequence[float] = (10, 15, 20, 25, 30, 35, 40),
                     d_years: Sequence[float] = (1, 2, 3, 4, 5),
                     s: int = 1,
                     kind: MetricKind = SHARPE,
                     jobs: int = 1) -> SensitivityGrid:
    """``sensitivity_grids`` of one series; ``jobs`` has no effect."""
    return sensitivity_grids([series], lookbacks_years, d_years, s, kind)[0]


def robustness_correlations(labels: Sequence[str],
                            metric_vectors: dict[str, Sequence[float]]
                            ) -> tuple[list[str], np.ndarray]:
    """Pearson correlation matrix across cross-sectional metric vectors.

    Each vector holds one value per factor (>= 3 factors). Returns the
    metric names in input order and the symmetric unit-diagonal matrix.
    """
    names = list(metric_vectors)
    if len(names) < 2:
        raise ValueError("need at least two metric vectors")
    if any(len(metric_vectors[k]) != len(labels) for k in names):
        raise ValueError("need one value per factor in each vector")
    mat = np.array([np.asarray(metric_vectors[k], dtype=float) for k in names])
    if len(labels) < 3:
        raise DegenerateVector(f"correlations need >= 3 factors, got "
                               f"{len(labels)}")
    stds = mat.std(axis=1)
    for name, sd in zip(names, stds):
        if sd == 0:
            raise DegenerateVector(f"metric vector {name!r} has zero variance")
    corr = np.corrcoef(mat)
    np.fill_diagonal(corr, 1.0)
    return names, corr


@dataclass(frozen=True)
class PortfolioSpec:
    """Weighted combination of aligned strategies."""

    weights: tuple[float, ...]
    strategies: tuple[ReturnSeries, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        object.__setattr__(self, "strategies", tuple(self.strategies))
        if len(self.weights) != len(self.strategies) or not self.strategies:
            raise ValueError("weights and strategies must align and be non-empty")
        if all(w == 0 for w in self.weights):
            raise ValueError("at least one weight must be nonzero")


def _inner_join(strategies: Sequence[ReturnSeries]
                ) -> tuple[np.ndarray, np.ndarray]:
    """Dates common to all strategies, in order, and the aligned return
    matrix."""
    freq = strategies[0].frequency
    if any(s.frequency is not freq for s in strategies):
        raise DateMismatch("strategies have mixed frequencies")
    dates = strategies[0].dates
    for s in strategies[1:]:
        dates = np.intersect1d(dates, s.dates, assume_unique=True)
    if not dates.size:
        raise DateMismatch("no common dates across strategies")
    # each series' dates are strictly increasing, so a common date's
    # insertion point is its index
    return dates, np.column_stack([s.returns[np.searchsorted(s.dates, dates)]
                                   for s in strategies])


def portfolio_mrp(spec: PortfolioSpec, s: int, d: int,
                  kind: MetricKind = SHARPE) -> MrpResult:
    """MRP of the weighted aggregate return w'X_t (inner-join alignment).
    Where the weighted sum overflows, the aggregate series raises
    NonFiniteReturn, naming the first date, without a numpy warning."""
    dates, matrix = _inner_join(spec.strategies)
    with np.errstate(over="ignore", invalid="ignore"):
        agg = matrix @ np.asarray(spec.weights)
    combined = ReturnSeries(
        dates=dates,
        returns=agg,
        frequency=spec.strategies[0].frequency,
        label="portfolio",
    )
    return mrp_fast(combined, s, d, kind)


@dataclass(frozen=True)
class BootstrapSummary:
    """Distribution of MRP over block-bootstrap replicates."""

    mean: float
    sd: float
    quantiles: dict[float, float]
    values: np.ndarray


def block_bootstrap_mrp(series: ReturnSeries, block_len: int, replicates: int,
                        s: int = 1, d: int = 2, kind: MetricKind = SHARPE,
                        seed: int = 0, jobs: int = 1) -> BootstrapSummary:
    """Circular block bootstrap of the MRP.

    Blocks of ``block_len`` consecutive returns (wrapping at the end) are
    concatenated to the original length, and the MRP is recomputed per
    replicate. The block starts come from one counter-based generator,
    drawn chunk by chunk in replicate order, so the result depends only
    on the seed. ``jobs`` is accepted for compatibility and has no effect.

    Replicates are gathered as rows of a return matrix, from the returns
    extended by their first ``block_len - 1`` values, and searched by
    ``_replicate_mrp``, whose chunks share the split scan's per-call cost
    (see CHANGES.md). A row's search does not depend on its chunk: the
    values are ``mrp_fast``'s, bit for bit. A series whose own sums
    overflow raises NonFiniteReturn as ``mrp_fast`` does, before any draw.
    A replicate repeats blocks, so its sums can overflow where the series'
    do not: that NonFiniteReturn names the first such replicate.
    """
    n = len(series)
    if not (1 <= block_len <= n):
        raise InvalidBlock(f"block_len must be in [1, {n}], got {block_len}")
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    _check_feasible(n, s, d)
    ppy = series.periods_per_year
    _kind_arrays(build_prefix_sums(series), kind)  # the series' own sums
    rng = np.random.Generator(np.random.Philox(seed))
    nblocks = -(-n // block_len)
    # row k of ``blocks`` is the block starting at k, wrapped at the end
    blocks = np.lib.stride_tricks.sliding_window_view(
        np.concatenate((series.returns, series.returns[:block_len - 1])),
        block_len)
    drawn = []  # the last chunk's rows and the first one's index

    def draw(k, rows):
        starts = rng.integers(0, n, size=(rows, nblocks))
        drawn[:] = blocks[starts].reshape(-1, nblocks * block_len)[:, :n], k
        return drawn[0]
    try:
        values = _replicate_mrp(draw, replicates, n, ppy, s, [d], kind)[0][:, 0]
    except NonFiniteReturn as err:
        for t, row in enumerate(*drawn):  # the first whose sums overflow
            try:
                _kind_arrays(_prefix_table(row, ppy), kind)
            except NonFiniteReturn:
                raise NonFiniteReturn(
                    f"{kind.name} sums of bootstrap replicate {t} "
                    "overflow; the series' own do not") from err
        raise
    qs = (0.05, 0.25, 0.5, 0.75, 0.95)
    quants = {q: float(np.quantile(values, q)) for q in qs}
    return BootstrapSummary(
        mean=float(np.mean(values)),
        sd=float(np.std(values, ddof=1)) if replicates > 1 else 0.0,
        quantiles=quants,
        values=values,
    )
