"""Empirical products built on the partition engine.

Per-factor reports, the decay-risk frontier, sensitivity grids over
(lookback, minimum-segment-length), cross-metric robustness correlations,
portfolio-level minimum regime performance, and block-bootstrap stability
checks. Grid cells are milliseconds of numpy work each and run in
process, in grid order. Every product reaches the minimum through the
engine's table-level search (``engine._search``) on one ``PrefixTable``:
a trailing window's, shared by its grid row's cells and full-window
metric, or a chunk of bootstrap replicates', drawn as rows of a return
matrix, with no series per replicate.
"""

from __future__ import annotations

import datetime
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .engine import (_CHUNK, MrpResult, _check_feasible, _first_min, _search,
                     _split_scan, mrp_fast, mrp_one_split)
from .errors import (
    DateMismatch,
    DegenerateVector,
    Infeasible,
    InvalidBlock,
)
from .series import (
    SHARPE,
    MetricKind,
    ReturnSeries,
    _prefix_table,
    build_prefix_sums,
    segment_metric,
    series_metric,
)

#: rolling-Sharpe-volatility window defaults per frequency (periods)
DEFAULT_ROLLING_WINDOW = {"daily": 252, "monthly": 36}


def _periods(years: float, series: ReturnSeries) -> int:
    return int(round(years * series.periods_per_year))


def _trailing_window(series: ReturnSeries, lookback_years: float) -> ReturnSeries:
    """Last lookback_years of data (the whole series if shorter)."""
    w = min(len(series), _periods(lookback_years, series))
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
    """Full-window metric and MRP_1 on the trailing lookback window."""
    win = _trailing_window(series, lookback_years)
    d = _periods(d_years, series)
    if len(win) < 2 * d:
        raise Infeasible(
            f"{series.label!r}: window of {len(win)} periods < 2*d = {2 * d}")
    res = mrp_one_split(win, d, kind)
    return FactorReport(
        label=series.label,
        full_sharpe=series_metric(win, kind),
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


def _grid_row(series: ReturnSeries, lookback: float, ds: list[int], s: int,
              kind: MetricKind) -> list[float]:
    """One lookback's cells, (MRP - metric) at each d of ``ds``; NaN where
    no partition fits.

    The trailing window, its prefix table and its metric are computed
    once, the metric right after the first cell's MRP; every cell reads
    that table. At s = 1 one split scan, at the least fitting d, holds
    every cell: a cell is the first least entry of its slice of that
    scan, as ``mrp_one_split`` would pick it. At s >= 2 a cell is one
    ``engine._search``. Cells are computed, and raise, in grid order.
    """
    win = _trailing_window(series, lookback)
    n = len(win)
    fits = [d >= 2 and n >= (s + 1) * d for d in ds]
    row = [math.nan] * len(ds)
    if not any(fits):
        return row
    table = build_prefix_sums(win)
    if s == 1:
        d0 = min(d for d, ok in zip(ds, fits) if ok)
        pair = np.minimum(*_split_scan(table, d0, kind))
    full = None
    for k, d in enumerate(ds):
        if not fits[k]:
            continue
        if s == 1:
            cut = pair[d - d0:n - d - d0 + 1]
            value = cut[_first_min(cut)]
        else:
            value = _search(table, s, d, kind)[0]
        if full is None:
            full = segment_metric(table, 0, n, kind)
        row[k] = value - full
    return row


def sensitivity_grid(series: ReturnSeries,
                     lookbacks_years: Sequence[float] = (10, 15, 20, 25, 30, 35, 40),
                     d_years: Sequence[float] = (1, 2, 3, 4, 5),
                     s: int = 1,
                     kind: MetricKind = SHARPE,
                     jobs: int = 1) -> SensitivityGrid:
    """(MRP - metric) for every lookback/d combination.

    Each lookback's window and its prefix table are built once: at s = 1
    one split scan is shared by all its d cells, O(n) per lookback; at
    s >= 2 each cell is one window search of that table; s < 1 raises
    Infeasible. ``jobs`` is accepted for compatibility and has no effect.
    """
    if not lookbacks_years or not d_years:
        raise ValueError("lookback and d grids must be non-empty")
    if s < 1:
        raise Infeasible("s must be >= 1")
    ds = [_periods(dy, series) for dy in d_years]
    cells = np.array([_grid_row(series, lb, ds, s, kind)
                      for lb in lookbacks_years])
    return SensitivityGrid(
        label=series.label,
        lookbacks_years=tuple(float(v) for v in lookbacks_years),
        d_years=tuple(float(v) for v in d_years),
        cells=cells,
    )


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
    mat = np.array([np.asarray(metric_vectors[k], dtype=float) for k in names])
    if mat.shape[1] != len(labels) or mat.shape[1] < 3:
        raise ValueError("need equal-length vectors over >= 3 factors")
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
    extended by their first ``block_len - 1`` values, a chunk of rows at
    a time: its prefix arrays hold about ``engine._CHUNK`` values, so its
    memory stays near the window scan's at any replicate count. The
    chunk's one ``PrefixTable`` goes to ``engine._search``, with no series
    per replicate; the values are ``mrp_fast``'s on each, bit for bit.
    """
    n = len(series)
    if not (1 <= block_len <= n):
        raise InvalidBlock(f"block_len must be in [1, {n}], got {block_len}")
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    _check_feasible(n, s, d)
    rng = np.random.Generator(np.random.Philox(seed))
    nblocks = -(-n // block_len)
    # row k of ``blocks`` is the block starting at k, wrapped at the end
    blocks = np.lib.stride_tricks.sliding_window_view(
        np.concatenate((series.returns, series.returns[:block_len - 1])),
        block_len)
    step = max(1, _CHUNK // (2 * n))  # rows of a chunk
    values = np.empty(replicates)
    for k in range(0, replicates, step):
        starts = rng.integers(0, n, size=(min(step, replicates - k), nblocks))
        x = blocks[starts].reshape(-1, nblocks * block_len)[:, :n]
        values[k:k + step] = _search(_prefix_table(x, series.periods_per_year),
                                     s, d, kind)[0]
    qs = (0.05, 0.25, 0.5, 0.75, 0.95)
    quants = {q: float(np.quantile(values, q)) for q in qs}
    return BootstrapSummary(
        mean=float(np.mean(values)),
        sd=float(np.std(values, ddof=1)) if replicates > 1 else 0.0,
        quantiles=quants,
        values=values,
    )
