"""Return-series representation and per-segment risk-adjusted metrics.

Segment statistics are served from one prefix table, of a series or of
each row of a replicate matrix, so that any contiguous segment's Sharpe
or Sortino ratio costs O(1) after an O(n) build. Each metric kind caches
its spread prefix (``mar`` is fixed per metric, so the Sortino downside
sums are a prefix array too), a witness mask and, once asked for,
``defined_ends``. Gathered paths pass arrays of bounds (``metric_many``);
the split scan reads column slices of the same arrays, faster.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    DateOrderError,
    EmptySeries,
    NonFiniteReturn,
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

    def periods(self, years: float) -> int:
        """The period count of ``years`` at this frequency, rounded."""
        return int(round(years * self.periods_per_year))


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


#: the dtype of ``ReturnSeries.dates``: calendar days
DAY = np.dtype("datetime64[D]")
_EPOCH = 719163  # datetime.date(1970, 1, 1).toordinal(), day 0 of DAY


def _as_days(dates) -> np.ndarray:
    """A new ``datetime64[D]`` array of ``dates``. An array is cast; a
    sequence of dates goes through their day ordinals, about 30x faster
    than numpy's conversion of each date object, which takes the rest."""
    if isinstance(dates, np.ndarray):
        return dates.astype(DAY)
    dates = list(dates)
    try:
        ordinals = np.fromiter((d.toordinal() for d in dates), np.int64,
                               len(dates))
    except AttributeError:
        return np.array(dates, dtype=DAY)
    return (ordinals - _EPOCH).astype(DAY)


@dataclass(frozen=True)
class ReturnSeries:
    """Dated periodic returns for one strategy.

    Returns are decimal fractions per period (0.01 = 1%) and are assumed
    to be already excess of funding (long-short factor convention).
    ``dates`` is held as one read-only ``datetime64[D]`` array; any
    sequence of ``datetime.date`` is accepted and converted once, and a
    read-only ``datetime64[D]`` array (a slice of another series' dates)
    is kept as it is. Returns must be finite, else NonFiniteReturn, and
    dates must strictly increase, else DateOrderError.
    """

    dates: np.ndarray
    returns: np.ndarray
    frequency: Frequency = Frequency.DAILY
    label: str = ""

    def __post_init__(self):
        dates = self.dates
        if not (isinstance(dates, np.ndarray) and dates.dtype == DAY
                and not dates.flags.writeable):
            dates = _as_days(dates)
            dates.flags.writeable = False
            object.__setattr__(self, "dates", dates)
        rets = np.asarray(self.returns, dtype=float)
        object.__setattr__(self, "returns", rets)
        if rets.ndim != 1:
            raise ValueError("returns must be one-dimensional")
        if len(dates) != rets.shape[0]:
            raise ValueError("dates and returns must have equal length")
        finite = np.isfinite(rets)
        if not finite.all():
            raise NonFiniteReturn(f"series {self.label!r}: return on "
                                  f"{dates[np.argmin(finite)]} is not finite")
        late = np.flatnonzero(~(dates[1:] > dates[:-1]))  # NaT compares False
        if late.size:
            raise DateOrderError(f"series {self.label!r}: date "
                                 f"{dates[late[0] + 1]} not after {dates[late[0]]}")

    def __len__(self) -> int:
        return len(self.dates)

    @property
    def periods_per_year(self) -> int:
        return self.frequency.periods_per_year

    def window(self, start: int, end_exclusive: int) -> "ReturnSeries":
        """Contiguous sub-series on [start, end_exclusive), same label."""
        return replace(self, dates=self.dates[start:end_exclusive],
                       returns=self.returns[start:end_exclusive])

    def reversed(self) -> "ReturnSeries":
        """Series with the return sequence reversed (dates kept in order)."""
        return replace(self, returns=self.returns[::-1].copy())

    def scaled(self, c: float) -> "ReturnSeries":
        return replace(self, returns=c * self.returns)


@dataclass(frozen=True)
class PrefixTable:
    """Cumulative sums enabling O(1) segment statistics, of one series or
    of each row of a replicate matrix (rows along the last axis).

    ``sum1[..., k]`` holds the sum of the first k returns. Each
    ``MetricKind`` caches its own arrays, its spread prefix among them, on
    first use (``_kind_arrays``), so a kind never pays for another's.
    """

    sum1: np.ndarray
    returns: np.ndarray
    periods_per_year: int
    n: int
    # kind: (spread prefix, witness mask, lag); (kind, "ends"): defined ends
    _cache: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)


def _prefix(v: np.ndarray) -> np.ndarray:
    """Prefix sums along the last axis, led by a 0: entry k sums the first
    k values. A row's sums are those of the row on its own, bit for bit."""
    out = np.zeros(v.shape[:-1] + (v.shape[-1] + 1,))
    np.cumsum(v, axis=-1, out=out[..., 1:])
    return out


def _prefix_table(r: np.ndarray, periods_per_year: int) -> PrefixTable:
    """The prefix table of the returns ``r`` along its last axis: of one
    series, or of each row of a return matrix, a row's arrays those of
    the row on its own, bit for bit."""
    with np.errstate(over="ignore"):  # ``_kind_arrays`` checks the ends
        return PrefixTable(sum1=_prefix(r), returns=r,
                           periods_per_year=periods_per_year, n=r.shape[-1])


def build_prefix_sums(series: ReturnSeries) -> PrefixTable:
    """Build the prefix table for a non-empty series."""
    if len(series) == 0:
        raise EmptySeries(f"series {series.label!r} is empty")
    return _prefix_table(series.returns, series.periods_per_year)


def _kind_arrays(table: PrefixTable, kind: MetricKind):
    """``kind``'s spread prefix, witness mask and lag, built once per kind
    and cached in the table: the one place a spread prefix is built. It
    sums the terms of the spread: squared returns (Sharpe) or squared
    shortfalls min(r - mar, 0)^2 (Sortino). The mask marks, of n entries,
    each k where a ``defined_ends`` witness starts: [k, k + lag) holds it.
    NonFiniteReturn if a row's ``sum1`` or spread prefix ends in an inf."""
    if kind not in table._cache:
        r = table.returns
        with np.errstate(over="ignore"):
            if kind.name == "sortino":
                shortfall = np.minimum(r - kind.mar, 0.0)
                terms = shortfall * shortfall
                entry = _prefix(terms), terms > 0.0, 1
            else:  # the pair (k, k + 1) differs; k = n - 1 starts no pair
                hit = np.zeros(r.shape, dtype=bool)
                np.not_equal(r[..., 1:], r[..., :-1], out=hit[..., :-1])
                entry = _prefix(r * r), hit, 2
        if not np.isfinite((table.sum1[..., -1], entry[0][..., -1])).all():
            raise NonFiniteReturn(f"{kind.name} sums of the returns overflow")
        table._cache[kind] = entry
    return table._cache[kind]


def defined_ends(table: PrefixTable, kind: MetricKind) -> np.ndarray:
    """Per start a, the least end e[a] such that [a, b) has a defined
    metric exactly when b >= e[a], along the last axis: n + 1 entries per
    row; e[n] and every start with no such end read more than n.

    A defined metric stays defined as its segment grows, so one threshold
    per start states the whole rule. A segment needs 2 observations and
    a witness: for Sharpe two adjacent distinct values, for Sortino a
    return whose squared shortfall below ``mar`` is > 0 (one that
    underflows counts as none). e[a] is the least end past a witness at
    or after a, a suffix minimum built in O(n) on first use, cached.
    """
    if (kind, "ends") not in table._cache:
        (_, hit, lag), n = _kind_arrays(table, kind), table.n
        witness = np.full(hit.shape[:-1] + (n + 1,), n + 1, dtype=np.int64)
        witness[..., :n] = np.where(hit, np.arange(lag, n + lag), n + 1)
        least = np.minimum.accumulate(witness[..., ::-1], axis=-1)[..., ::-1]
        table._cache[kind, "ends"] = np.maximum(least, np.arange(2, n + 3))
    return table._cache[kind, "ends"]


def _witness_span(table: PrefixTable, kind: MetricKind):
    """Per row, e[0] and the last start a with e[a] <= n (-1 if none) of
    e = ``defined_ends``, from the witness mask without building e. As
    e[a] is the greater of a + 2 and the least end past a witness at or
    after a, e[0] is the first witness's end (at least 2; n + 1 if none),
    and e[a] <= n exactly up to a = min(n - 2, the last witness's start).
    """
    (_, hit, lag), n = _kind_arrays(table, kind), table.n
    found, first = hit.any(axis=-1), hit.argmax(axis=-1)
    last = n - 1 - hit[..., ::-1].argmax(axis=-1)
    return (np.where(found, np.maximum(first + lag, 2), n + 1),
            np.where(found, np.minimum(last, n - 2), -1))


def _parts(table: PrefixTable, start: np.ndarray, end: np.ndarray,
           kind: MetricKind):
    """Length (as floats), excess mean and mean-square spread of segments
    [start, end) of a one-series table, int arrays of bounds."""
    spread = _kind_arrays(table, kind)[0]
    length = np.subtract(end, start, dtype=float)
    return (length, *_moments(length, table.sum1[end] - table.sum1[start],
                              spread[end] - spread[start], kind))


def _moments(length, total, spread_sum, kind: MetricKind):
    """Excess mean and mean-square spread of segments of ``length``
    observations, from their sums of returns (``total``) and of squared
    returns (Sharpe) or squared shortfalls below ``mar`` (Sortino).
    Sharpe's spread is the sample variance, Sortino's the mean squared
    shortfall. It writes in place only into its own new results, never
    into an argument, which may be a view of a table."""
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        mean = total / length
        if kind.name == "sortino":
            mean -= kind.mar
            return mean, spread_sum / length
        spread = total * total
        spread /= length
        np.subtract(spread_sum, spread, out=spread)
        spread /= length - 1
        return mean, spread


def _ratio(excess, spread, periods_per_year: int) -> np.ndarray:
    """Annualized ratio of an excess mean to the root of its spread."""
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        out = excess / np.sqrt(spread)
        out *= math.sqrt(periods_per_year)
        return out


def _direct(seg: np.ndarray, kind: MetricKind, periods_per_year: int) -> float:
    """Two-pass metric of the segment of >= 2 returns ``seg``; NaN if its
    spread is not > 0.

    Where the spread of a defined segment underflows (deviations below
    about 1e-154, subnormal ones too), its excess and deviations are
    rescaled by an exact power of two and the spread taken again. The
    ratio does not depend on scale: a segment ``defined_ends`` calls
    defined never scores NaN, and one whose excess overflows scores +-inf.
    """
    mean = float(np.mean(seg))
    if kind.name == "sortino":
        excess, dev, dof = mean - kind.mar, np.minimum(seg - kind.mar, 0.0), 0
    else:
        excess, dev, dof = mean, seg - mean, 1
    spread = float(np.sum(dev * dev)) / (seg.size - dof)
    if spread < 2.0 ** -1022 and np.any(dev):  # zero or subnormal
        e = math.frexp(float(np.max(np.abs(dev))))[1]
        with np.errstate(over="ignore"):
            excess, dev = np.ldexp(excess, -e), np.ldexp(dev, -e)
        spread = float(np.sum(dev * dev)) / (seg.size - dof)
    if not spread > 0.0:
        return math.nan
    return float(_ratio(excess, spread, periods_per_year))


def _score(table: PrefixTable, defined, excess, spread, kind: MetricKind,
           start, end) -> np.ndarray:
    """Ratios of excess means and spreads from ``_moments`` where
    ``defined`` (a mask of their shape, or True), NaN elsewhere. ``start``
    and ``end`` are the segments' bounds, broadcast to that shape, whose
    leading axes index the table's rows. Where prefix rounding cancels the
    spread of a defined segment to <= 0 (a small variance after large
    returns, a tiny shortfall after large ones), that segment is
    recomputed by ``_direct`` from its returns. It writes only into its
    own new array of ratios: NaN where undefined, and recomputed values."""
    out = _ratio(excess, spread, table.periods_per_year)
    if defined is not True:
        np.copyto(out, np.nan, where=~defined)
    if np.minimum.reduce(spread, None, initial=np.inf) > 0:  # a NaN fails too
        return out
    start, end = (np.broadcast_to(v, out.shape) for v in (start, end))
    for at in zip(*np.nonzero(defined & ~(spread > 0))):
        row = table.returns[at[:table.returns.ndim - 1]]
        out[at] = _direct(row[start[at]:end[at]], kind, table.periods_per_year)
    return out


def metric_many(table: PrefixTable, start, end, kind: MetricKind) -> np.ndarray:
    """Vectorized segment metric; NaN for segments without a defined one.

    ``defined_ends`` decides which segments are defined: those of at
    least 2 observations holding two distinct values (Sharpe) or a return
    whose squared shortfall below ``mar`` is > 0 (Sortino). Every segment
    costs O(1) from the prefix table, bar the rare ones ``_score``
    recomputes.

    ``start`` and ``end`` are int arrays of bounds in a one-series table
    that broadcast against each other; each is gathered at its own shape.
    """
    start, end = np.asarray(start, dtype=np.int64), np.asarray(end, dtype=np.int64)
    defined = end >= defined_ends(table, kind)[start]
    _, excess, spread = _parts(table, start, end, kind)
    return _score(table, defined, excess, spread, kind, start, end)


def sharpe_many(table: PrefixTable, start, end) -> np.ndarray:
    """Annualized Sharpe of many segments at once; NaN where undefined."""
    return metric_many(table, start, end, SHARPE)


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
