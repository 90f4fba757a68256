"""Return-series representation and per-segment risk-adjusted metrics.

Segment statistics are served from prefix sums so that any contiguous
segment's Sharpe or Sortino ratio costs O(1) after an O(n) build. The
Sortino threshold ``mar`` is fixed per metric, so its downside sum of
squares and its count of returns below ``mar`` fold into prefix arrays
too, built on first use for each ``mar``.
"""

from __future__ import annotations

import datetime
import enum
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptySeries,
    SegmentTooShort,
    SeriesTooShort,
    WealthNonPositive,
    ZeroVariance,
)


class Frequency(enum.Enum):
    """Sampling frequency of a return series."""

    DAILY = "daily"
    MONTHLY = "monthly"

    @property
    def periods_per_year(self) -> int:
        return 252 if self is Frequency.DAILY else 12


@dataclass(frozen=True)
class MetricKind:
    """Risk-adjusted metric selector.

    ``mar`` is the minimum acceptable per-period return and is only used
    by the Sortino variant.
    """

    name: str  # "sharpe" | "sortino"
    mar: float = 0.0

    def __post_init__(self):
        if self.name not in ("sharpe", "sortino"):
            raise ValueError(f"unknown metric kind {self.name!r}")


SHARPE = MetricKind("sharpe")


def sortino(mar: float = 0.0) -> MetricKind:
    return MetricKind("sortino", mar=mar)


@dataclass(frozen=True)
class ReturnSeries:
    """Dated periodic returns for one strategy.

    Returns are decimal fractions per period (0.01 = 1%) and are assumed
    to be already excess of funding (long-short factor convention).
    """

    dates: tuple[datetime.date, ...]
    returns: np.ndarray
    frequency: Frequency = Frequency.DAILY
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "dates", tuple(self.dates))
        rets = np.asarray(self.returns, dtype=float)
        object.__setattr__(self, "returns", rets)
        if len(self.dates) != rets.shape[0]:
            raise ValueError("dates and returns must have equal length")
        if rets.ndim != 1:
            raise ValueError("returns must be one-dimensional")
        if rets.size and not np.all(np.isfinite(rets)):
            raise ValueError(f"non-finite return in series {self.label!r}")
        for a, b in zip(self.dates, self.dates[1:]):
            if b <= a:
                raise ValueError(f"dates not strictly increasing at {b}")

    def __len__(self) -> int:
        return len(self.dates)

    @property
    def periods_per_year(self) -> int:
        return self.frequency.periods_per_year

    def window(self, start: int, end_exclusive: int, label: str | None = None) -> "ReturnSeries":
        """Contiguous sub-series on [start, end_exclusive)."""
        return ReturnSeries(
            dates=self.dates[start:end_exclusive],
            returns=self.returns[start:end_exclusive],
            frequency=self.frequency,
            label=self.label if label is None else label,
        )

    def reversed(self) -> "ReturnSeries":
        """Series with the return sequence reversed (dates kept in order)."""
        return ReturnSeries(
            dates=self.dates,
            returns=self.returns[::-1].copy(),
            frequency=self.frequency,
            label=self.label,
        )

    def scaled(self, c: float) -> "ReturnSeries":
        return ReturnSeries(
            dates=self.dates,
            returns=c * self.returns,
            frequency=self.frequency,
            label=self.label,
        )


@dataclass(frozen=True)
class PrefixTable:
    """Cumulative sums enabling O(1) segment statistics.

    ``sum1[k]`` / ``sum2[k]`` hold the sum of the first k returns and
    squared returns. ``run_eq[k]`` counts adjacent equal pairs among the
    first k observations, which lets constant (zero-variance) segments be
    detected exactly, independent of floating-point cancellation.

    ``downside(mar)`` adds two prefix arrays for the Sortino ratio: the
    sums of squared shortfalls min(r - mar, 0)^2 and the counts of returns
    whose squared shortfall is > 0. They are built on first use and cached
    per ``mar``, so Sharpe-only work never pays for them.
    """

    sum1: np.ndarray
    sum2: np.ndarray
    run_eq: np.ndarray
    returns: np.ndarray
    periods_per_year: int
    n: int
    dates: tuple[datetime.date, ...] = field(repr=False, default=())
    _downside: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)

    def downside(self, mar: float) -> tuple[np.ndarray, np.ndarray]:
        """Prefix sums of squared shortfalls below ``mar`` and prefix
        counts of returns below it."""
        if mar not in self._downside:
            shortfall = np.minimum(self.returns - mar, 0.0)
            square = shortfall * shortfall
            down2 = np.zeros(self.n + 1)
            below = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(square, out=down2[1:])
            # a shortfall so small that its square underflows counts as none
            np.cumsum(square > 0.0, out=below[1:])
            self._downside[mar] = (down2, below)
        return self._downside[mar]


def build_prefix_sums(series: ReturnSeries) -> PrefixTable:
    """Build the prefix table for a non-empty series."""
    r = series.returns
    n = r.shape[0]
    if n == 0:
        raise EmptySeries(f"series {series.label!r} is empty")
    sum1 = np.zeros(n + 1)
    sum2 = np.zeros(n + 1)
    np.cumsum(r, out=sum1[1:])
    np.cumsum(r * r, out=sum2[1:])
    run_eq = np.zeros(n + 1, dtype=np.int64)
    if n > 1:
        np.cumsum(r[1:] == r[:-1], out=run_eq[2:])
    return PrefixTable(
        sum1=sum1,
        sum2=sum2,
        run_eq=run_eq,
        returns=r,
        periods_per_year=series.periods_per_year,
        n=n,
        dates=series.dates,
    )


def _constant_mask(table: PrefixTable, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Exact zero-variance detection: all values in [start, end) equal."""
    start = np.asarray(start)
    end = np.asarray(end)
    # adjacent-equal pairs fully inside the segment: indices start+1 .. end-1
    pairs = table.run_eq[end] - table.run_eq[np.minimum(start + 1, end)]
    return pairs == (end - start - 1)


def _parts(table: PrefixTable, start, end, kind: MetricKind):
    """Length, excess mean and mean-square spread of segments [start, end)
    from prefix differences. Sharpe's spread is the sample variance,
    Sortino's the mean squared shortfall below ``mar``.

    ``start`` and ``end`` are int arrays (gathered), or a scalar ``start``
    with a ``range`` of ends, read as one slice of each prefix array.
    """
    if isinstance(end, range):
        length = np.arange(end.start - start, end.stop - start)

        def diff(prefix):
            return prefix[end.start:end.stop] - prefix[start]
    else:
        length = end - start

        def diff(prefix):
            return prefix[end] - prefix[start]
    total = diff(table.sum1)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = total / length
        if kind.name == "sortino":
            down2, _ = table.downside(kind.mar)
            return length, mean - kind.mar, diff(down2) / length
        sq = diff(table.sum2)
        return length, mean, (sq - total * total / length) / (length - 1)


def _ratio(excess, spread, periods_per_year: int) -> np.ndarray:
    """Annualized ratio of an excess mean to the root of its spread."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return excess / np.sqrt(spread) * math.sqrt(periods_per_year)


def _flagged(mask: np.ndarray, start, end):
    """(flat index, start, end) of every segment where ``mask`` holds."""
    idx = np.flatnonzero(mask)
    starts, ends = (np.broadcast_to(x, mask.shape).reshape(-1)[idx]
                    for x in (start, end))
    return zip(idx.tolist(), starts.tolist(), ends.tolist())


def _sharpe_parts(table: PrefixTable, start, end) -> tuple[np.ndarray, np.ndarray]:
    """Segment mean and sample variance; NaN variance for length-1
    segments, 0.0 exactly for constant ones."""
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    length, mean, var = _parts(table, start, end, SHARPE)
    var = np.where(length > 1, np.maximum(var, 0.0), np.nan)
    constant = _constant_mask(table, start, end) & (length > 1)
    var = np.where(constant, 0.0, var)
    if np.any(var == 0.0):
        # prefix-sum rounding can cancel the small variance of a segment
        # that holds distinct values; recompute those directly, so a
        # segment has zero variance exactly when it is constant
        flat = var.reshape(-1)
        for k, a, b in _flagged((var == 0.0) & ~constant, start, end):
            flat[k] = np.var(table.returns[a:b], ddof=1)
    return mean, var


def sharpe_many(table: PrefixTable, start, end) -> np.ndarray:
    """Annualized Sharpe of many segments at once; NaN where undefined.

    NaN marks either a too-short (n < 2) or a zero-variance segment.
    """
    mean, var = _sharpe_parts(table, start, end)
    return np.where(var > 0, _ratio(mean, var, table.periods_per_year), np.nan)


def _sortino_one(table: PrefixTable, start: int, end: int, mar: float) -> float:
    """Direct-pass Sortino on [start, end); NaN if downside deviation is 0."""
    seg = table.returns[start:end]
    downside = np.minimum(seg - mar, 0.0)
    dd = math.sqrt(float(np.mean(downside * downside)))
    if dd == 0.0:
        return math.nan
    mean = float(np.mean(seg))
    return (mean - mar) / dd * math.sqrt(table.periods_per_year)


def _sortino_many(table: PrefixTable, start, end, kind: MetricKind) -> np.ndarray:
    """Annualized Sortino of many segments; NaN where a segment has fewer
    than 2 observations or none below ``kind.mar``."""
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    length, excess, spread = _parts(table, start, end, kind)
    _, below = table.downside(kind.mar)
    defined = (length > 1) & (below[end] > below[start])
    out = np.where(defined, _ratio(excess, spread, table.periods_per_year),
                   np.nan)
    # a tiny shortfall after large ones is absorbed by the prefix sum; such
    # a segment is recomputed directly rather than left NaN
    flat = out.reshape(-1)
    for k, a, b in _flagged(defined & ~(spread > 0), start, end):
        flat[k] = _sortino_one(table, a, b, kind.mar)
    return out


def _first_defined(table: PrefixTable, i: int, j: int, kind: MetricKind) -> bool:
    """Whether [i, j) has a defined metric, read from the prefix table:
    a return below ``mar`` for Sortino; for Sharpe, fewer adjacent equal
    pairs inside the segment than it has pairs (see ``_constant_mask``)."""
    if j - i < 2:
        return False
    if kind.name == "sortino":
        _, below = table.downside(kind.mar)
        return bool(below[j] > below[i])
    return bool(table.run_eq[j] - table.run_eq[i + 1] < j - i - 1)


def metric_many(table: PrefixTable, start, end, kind: MetricKind) -> np.ndarray:
    """Vectorized segment metric; NaN for infeasible segments.

    A segment is infeasible when it is shorter than 2 observations or its
    dispersion denominator is zero: a constant segment for Sharpe, one
    with no return below ``mar`` for Sortino. Every segment costs O(1)
    from the prefix table. Where prefix rounding cancels the denominator
    of a feasible segment to 0 (a small variance after large returns, a
    tiny shortfall after large ones), that segment is recomputed by a
    direct pass.

    ``start`` and ``end`` are arrays of segment bounds, or a scalar
    ``start`` with a ``range`` of ends: one row of windows [start, j),
    scored from contiguous slices of the prefix arrays. A row holding an
    infeasible or cancelled window goes through the array path, so both
    forms give the same values, bit for bit.
    """
    if isinstance(end, range):
        i = int(start)
        # a defined metric stays defined as its window grows, so the
        # first window decides whether every window of the row is defined
        if end.step == 1 and end and _first_defined(table, i, end.start, kind):
            _, excess, spread = _parts(table, i, end, kind)
            if spread.min() > 0:  # False on NaN
                return _ratio(excess, spread, table.periods_per_year)
        start = np.full(len(end), i, dtype=np.int64)
        end = np.arange(end.start, end.stop, end.step, dtype=np.int64)
    if kind.name == "sortino":
        return _sortino_many(table, start, end, kind)
    return sharpe_many(table, start, end)


def defined_ends(table: PrefixTable, kind: MetricKind) -> np.ndarray:
    """Per start a, the least end e[a] such that [a, b) has a defined
    metric exactly when b >= e[a]; e[a] = n + 1 where no end works.

    A defined metric stays defined as its segment grows, so one threshold
    per start captures the rule. Sharpe needs two distinct values: e[a] is
    one past the first index after a whose value differs from the one
    before it. Sortino needs a return below ``mar``: e[a] is one past the
    first such index at or after a, read from the prefix counts the
    kernel uses. Both need at least 2 observations.
    """
    r = table.returns
    n = table.n
    starts = np.arange(n, dtype=np.int64)
    if kind.name == "sortino":
        _, below = table.downside(kind.mar)
        hits, side = np.flatnonzero(below[1:] > below[:-1]), "left"
    else:
        hits, side = np.flatnonzero(r[1:] != r[:-1]) + 1, "right"
    hits = np.append(hits, n)
    return np.maximum(hits[np.searchsorted(hits, starts, side)] + 1, starts + 2)

def segment_metric(table: PrefixTable, start: int, end_exclusive: int,
                   kind: MetricKind = SHARPE) -> float:
    """Annualized metric of one segment.

    sharpe = (mean / stdev) * sqrt(periods_per_year); sortino replaces the
    numerator by mean - ``kind.mar`` and the denominator by the downside
    deviation below ``kind.mar``.

    Raises SegmentTooShort for segments of fewer than 2 observations and
    ZeroVariance when the dispersion denominator is zero.
    """
    if not (0 <= start <= end_exclusive <= table.n):
        raise SegmentTooShort(f"invalid segment [{start}, {end_exclusive})")
    if end_exclusive - start < 2:
        raise SegmentTooShort(
            f"segment [{start}, {end_exclusive}) needs >= 2 observations")
    value = float(metric_many(table, np.array([start]), np.array([end_exclusive]), kind)[0])
    if math.isnan(value):
        raise ZeroVariance(
            f"segment [{start}, {end_exclusive}) has zero {kind.name} denominator")
    return value


def series_metric(series: ReturnSeries, kind: MetricKind = SHARPE) -> float:
    """Annualized metric of the whole series."""
    table = build_prefix_sums(series)
    return segment_metric(table, 0, len(series), kind)


def max_drawdown(series: ReturnSeries) -> float:
    """Maximum peak-to-trough decline of the compounded wealth path.

    Returns 1 - min_t(wealth_t / running_max_t) with wealth starting at 1.
    """
    if len(series) == 0:
        raise EmptySeries("max_drawdown of empty series")
    if np.any(series.returns <= -1.0):
        raise WealthNonPositive("return <= -100% makes wealth non-positive")
    wealth = np.concatenate(([1.0], np.cumprod(1.0 + series.returns)))
    peaks = np.maximum.accumulate(wealth)
    return float(1.0 - np.min(wealth / peaks))


def rolling_sharpe_volatility(series: ReturnSeries, window: int) -> float:
    """Standard deviation of annualized Sharpe over all contiguous windows.

    Windows with zero return dispersion are skipped (a warning reports how
    many); the standard deviation uses the n-1 denominator over the
    remaining windows.
    """
    if window < 2:
        raise SeriesTooShort("window must be >= 2")
    n = len(series)
    if n < window + 1:
        raise SeriesTooShort(f"need length >= window + 1 = {window + 1}, got {n}")
    table = build_prefix_sums(series)
    starts = np.arange(0, n - window + 1, dtype=np.int64)
    sharpes = sharpe_many(table, starts, starts + window)
    skipped = int(np.count_nonzero(np.isnan(sharpes)))
    if skipped:
        warnings.warn(f"skipped {skipped} zero-variance windows", stacklevel=2)
    valid = sharpes[~np.isnan(sharpes)]
    if valid.size < 2:
        raise SeriesTooShort("fewer than 2 usable windows")
    return float(np.std(valid, ddof=1))
