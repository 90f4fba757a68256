"""Exact Minimum Regime Performance over constrained partitions.

A partition places s splits in a length-n series, creating s+1 contiguous
segments of at least d observations each. The engine provides:

* ``count_valid_partitions`` - closed-form stars-and-bars count,
* ``enumerate_partitions`` - lexicographic stream of all split tuples,
  read from one numpy array of rows,
* ``mrp_brute_force``     - exact minimum by full enumeration (oracle),
* ``mrp_one_split``       - O(n) scan for the single-split case,
* ``mrp_fast``            - feasible-window algorithm, value-identical to
  brute force: the worst segment of the optimal partition is itself a
  contiguous window whose prefix and suffix can each be cut into feasible
  segments, so minimizing over such windows suffices. O(n) at s = 1 and
  O(n^2) windows at s >= 2, on any data.

Partitions containing a segment with an undefined metric (zero variance,
or no return below ``mar`` for Sortino) are infeasible rather than scored
at -inf; a constant sub-window must not hijack the minimum. One rule says
which segments are defined: [a, b) is exactly when b >= e[a], with e from
``series.defined_ends``, the array the metric kernel reads too. A defined
metric stays defined as its segment grows in either direction, so [a, b)
is feasible exactly when b >= max(a + d, e[a]), and whether a prefix or
suffix can be cut into k feasible segments reduces to one threshold per k.
"""

from __future__ import annotations

import datetime
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import Infeasible, NoValidPartition
from .series import (
    SHARPE,
    MetricKind,
    PrefixTable,
    ReturnSeries,
    build_prefix_sums,
    defined_ends,
    metric_many,
)


@dataclass(frozen=True)
class PartitionSpec:
    """An ordered split set defining s+1 contiguous segments.

    Split index t means the boundary sits before observation t: the
    segment to its left ends at t (exclusive). Valid single splits are
    t in [d, n-d].
    """

    splits: tuple[int, ...]
    n: int
    d: int

    def __post_init__(self):
        bounds = (0,) + self.splits + (self.n,)
        for a, b in zip(bounds, bounds[1:]):
            if b - a < self.d:
                raise ValueError(f"segment [{a}, {b}) shorter than d={self.d}")

    @property
    def s(self) -> int:
        return len(self.splits)

    @property
    def segments(self) -> tuple[tuple[int, int], ...]:
        bounds = (0,) + self.splits + (self.n,)
        return tuple(zip(bounds, bounds[1:]))


@dataclass(frozen=True)
class MrpResult:
    """Minimum regime performance with its achieving partition."""

    value: float
    optimal_splits: PartitionSpec
    segment_metrics: tuple[float, ...]
    argmin_segment: int
    split_dates: tuple[datetime.date, ...]


def count_valid_partitions(n: int, s: int, d: int) -> int:
    """Number of valid split sets: C(n - s*d - d + s, s); 0 if n < (s+1)*d."""
    if n < 1 or s < 1 or d < 1:
        raise ValueError("n, s, d must all be >= 1")
    if n < (s + 1) * d:
        return 0
    return math.comb(n - s * d - d + s, s)


def enumerate_partitions(n: int, s: int, d: int) -> Iterator[tuple[int, ...]]:
    """Yield every valid split tuple (s >= 1) exactly once, in
    lexicographic order."""
    yield from zip(*_splits_array(n, s, d).T.tolist())


def _splits_array(n: int, s: int, d: int) -> np.ndarray:
    """All valid split sets as a (P, s) int array, lexicographic row order.

    Split sets map one-to-one onto nondecreasing slack tuples: with
    w_i = t_i - i*d, validity is exactly 0 <= w_1 <= ... <= w_s <= n - (s+1)*d.
    The tuples grow one column per split: a row whose last entry is v is
    repeated once for each next entry v, v + 1, ..., slack, in that order.
    """
    slack = n - (s + 1) * d
    w = np.zeros((1 if slack >= 0 else 0, 0), dtype=np.int64)
    last = np.zeros(w.shape[0], dtype=np.int64)
    for _ in range(s):
        reps = slack + 1 - last
        first = np.repeat(np.cumsum(reps) - reps, reps)
        w = np.repeat(w, reps, axis=0)
        last = np.repeat(last, reps) + np.arange(w.shape[0]) - first
        w = np.column_stack((w, last))
    return w + d * np.arange(1, s + 1, dtype=np.int64)


def _result_from_splits(series: ReturnSeries, splits: tuple[int, ...], d: int,
                        metrics: np.ndarray) -> MrpResult:
    spec = PartitionSpec(splits=splits, n=len(series), d=d)
    argmin = int(np.nanargmin(metrics))
    return MrpResult(
        value=float(metrics[argmin]),
        optimal_splits=spec,
        segment_metrics=tuple(float(v) for v in metrics),
        argmin_segment=argmin,
        split_dates=tuple(series.dates[np.asarray(splits) - 1].tolist()),
    )


def _check_feasible(n: int, s: int, d: int) -> None:
    if d < 2:
        raise Infeasible("d must be >= 2 so every segment supports the metric")
    if s < 1:
        raise Infeasible("s must be >= 1")
    if n < (s + 1) * d:
        raise Infeasible(f"series length {n} < (s+1)*d = {(s + 1) * d}")


def mrp_brute_force(series: ReturnSeries, s: int, d: int,
                    kind: MetricKind = SHARPE) -> MrpResult:
    """Exact MRP_s by enumerating every valid partition.

    Ties are broken by the earliest lexicographic split set; within the
    winning partition the lowest-index worst segment is reported.
    """
    n = len(series)
    _check_feasible(n, s, d)
    table = build_prefix_sums(series)
    splits = _splits_array(n, s, d)
    p = splits.shape[0]
    bounds = np.empty((p, s + 2), dtype=np.int64)
    bounds[:, 0] = 0
    bounds[:, 1:-1] = splits
    bounds[:, -1] = n
    metrics = metric_many(
        table, bounds[:, :-1].ravel(), bounds[:, 1:].ravel(), kind
    ).reshape(p, s + 1)
    row_min = np.min(metrics, axis=1)  # NaN propagates: invalid partitions -> NaN
    valid = ~np.isnan(row_min)
    if not np.any(valid):
        raise NoValidPartition("every partition contains a zero-variance segment")
    best_value = np.nanmin(row_min)
    best_row = int(np.flatnonzero(valid & (row_min == best_value))[0])
    return _result_from_splits(series, tuple(splits[best_row].tolist()), d,
                               metrics[best_row])


def mrp_one_split(series: ReturnSeries, d: int,
                  kind: MetricKind = SHARPE) -> MrpResult:
    """MRP with a single split: O(n) scan of t in [d, n-d].

    Equivalent to ``mrp_brute_force(series, 1, d)`` including tie-breaks.
    """
    n = len(series)
    _check_feasible(n, 1, d)
    left, right, pair = _split_scan(build_prefix_sums(series), d, kind)
    i = _first_min(pair)
    return _result_from_splits(series, (d + i,), d, np.array([left[i], right[i]]))


def _split_scan(table: PrefixTable, d: int, kind: MetricKind):
    """Left and right segment metrics of every single split t in [d, n-d]
    (entry t - d), and their minimum: NaN where either side is undefined.

    Each entry depends only on its own split, so the scan at the least d
    holds the scan at every larger d as the slice [d - d0, n - d - d0].
    """
    n = table.n
    ts = np.arange(d, n - d + 1, dtype=np.int64)
    left = metric_many(table, np.zeros_like(ts), ts, kind)
    right = metric_many(table, ts, np.full_like(ts, n), kind)
    return left, right, np.minimum(left, right)


def _first_min(pair: np.ndarray) -> int:
    """Index of the first least defined entry of a split scan."""
    if np.all(np.isnan(pair)):
        raise NoValidPartition("every split yields a zero-variance segment")
    return int(np.flatnonzero(pair == np.nanmin(pair))[0])


def _reach(f: np.ndarray, n: int, s: int) -> tuple[list[int], list[int]]:
    """Thresholds for cutting a prefix or a suffix into feasible segments.

    ``f[a]`` is the least end of a feasible segment starting at a; it is
    nondecreasing in a. [0, i) cuts into k feasible segments exactly when
    i >= lo[k], and [j, n) into m >= 1 exactly when j <= hi[m]. Both lists
    come from greedy cuts; unreachable entries read n + 1 and -1.
    """
    lo = [0]
    for _ in range(s + 1):
        lo.append(int(f[lo[-1]]) if lo[-1] < n else n + 1)
    hi = [n]
    for _ in range(s):
        hi.append(int(np.searchsorted(f, hi[-1], "right")) - 1)
    return lo, hi


def _window_ends(n: int, s: int, lo: list[int], hi: list[int]) -> np.ndarray:
    """Greatest end j < n of a candidate window [i, j), for every start i.

    A feasible window [i, j) can be a segment of some valid partition iff
    there exist k, m >= 0 with k + m = s such that [0, i) cuts into k
    feasible segments and [j, n) into m. At i = 0 only k = 0 applies;
    otherwise the loosest choice is the largest k in [1, s-1] with
    lo[k] <= i, which allows j <= hi[s - k]. Windows ending at n (m = 0)
    are scanned apart. -1 marks a start with no such window.
    """
    k = np.searchsorted(lo[1:s], np.arange(n), "right")
    j_hi = np.where(k >= 1, np.asarray(hi)[s - k], -1)
    j_hi[0] = hi[s]
    return j_hi


def _complete_partition(f: np.ndarray, s: int, lo: list[int], hi: list[int],
                        i: int, j: int) -> tuple[int, ...]:
    """A valid partition having the window [i, j) as a segment.

    The suffix [j, n) takes m segments: all s when i = 0, otherwise the
    most it can hold up to s - 1. The prefix [0, i) takes k = s - m,
    cut at lo[1], ..., lo[k-1]. Each suffix segment ends as early as it
    feasibly can. Without constant runs this cuts at d, 2d, ... and at
    j, j + d, ..., the last segment on each side absorbing the remainder.
    """
    m = s if i == 0 else max(m for m in range(s) if hi[m] >= j)
    k = s - m
    splits = lo[1:k] + ([i] if k else [])
    cut = j
    for _ in range(m):
        splits.append(cut)
        cut = int(f[cut])
    return tuple(splits)


def mrp_fast(series: ReturnSeries, s: int, d: int,
             kind: MetricKind = SHARPE) -> MrpResult:
    """MRP_s via the feasible-window search; value-identical to brute force.

    s = 1 is ``mrp_one_split``, O(n). For s >= 2 every window that can be
    a segment of a valid partition is scored, O(n^2) windows at O(1) each
    via prefix sums, on any data; the windows sharing a start are one
    slice-indexed ``metric_many`` row. A segment with an undefined metric
    only makes its partitions infeasible, and feasibility is read off
    ``defined_ends`` and greedy cuts, so brute force is never needed.
    Ties go to the lexicographically first window (i, j).
    """
    n = len(series)
    _check_feasible(n, s, d)
    if s == 1:
        return mrp_one_split(series, d, kind)
    table = build_prefix_sums(series)
    f = np.maximum(np.arange(n, dtype=np.int64) + d, defined_ends(table, kind)[:n])
    lo, hi = _reach(f, n, s)
    if lo[s + 1] > n:
        raise NoValidPartition("every partition has a segment with an "
                               "undefined metric")

    best = (math.inf, -1, -1)  # (value, i, j), lexicographic tie-break on (i, j)
    j_hi = _window_ends(n, s, lo, hi)
    rows = np.flatnonzero(f <= j_hi)
    for i, j_lo, j_top in zip(rows.tolist(), f[rows].tolist(),
                              j_hi[rows].tolist()):
        vals = metric_many(table, i, range(j_lo, j_top + 1), kind)
        k = int(np.argmin(vals))
        best = min(best, (float(vals[k]), i, j_lo + k))
    # windows [i, n): the prefix [0, i) takes all s splits
    is_ = np.arange(lo[s], hi[1] + 1, dtype=np.int64)
    vals = metric_many(table, is_, np.full_like(is_, n), kind)
    k = int(np.argmin(vals))
    best = min(best, (float(vals[k]), int(is_[k]), n))
    if not math.isfinite(best[0]):
        raise NoValidPartition("no window with a defined metric")
    _, i, j = best
    splits = _complete_partition(f, s, lo, hi, i, j)
    bounds = np.array((0,) + splits + (n,), dtype=np.int64)
    metrics = metric_many(table, bounds[:-1], bounds[1:], kind)
    return _result_from_splits(series, splits, d, metrics)
