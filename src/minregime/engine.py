"""Exact Minimum Regime Performance over constrained partitions.

A partition places s splits in a length-n series, creating s+1 contiguous
segments of at least d observations each. The engine provides:

* ``count_valid_partitions`` - closed-form stars-and-bars count,
* ``enumerate_partitions`` - lexicographic stream of all split tuples,
  read from one numpy array of rows,
* ``mrp_brute_force``     - exact minimum by full enumeration (oracle),
* ``mrp_one_split``       - ``mrp_fast`` at s = 1,
* ``mrp_fast``            - feasible-window algorithm, value-identical to
  brute force: the worst segment of the optimal partition is itself a
  contiguous window whose prefix and suffix can each be cut into feasible
  segments, so minimizing over such windows suffices. O(n) at s = 1; at
  s >= 2 a tile certificate skips the windows that cannot be the least.

Every caller reaches the minimum through one search of a prefix table,
``_search``, and every ``MrpResult`` comes from ``_result``, which scores
the chosen partition's segments.

Partitions containing a segment with an undefined metric (zero variance,
or no return below ``mar`` for Sortino) are infeasible rather than scored
at -inf; a constant sub-window must not hijack the minimum. One rule says
which segments are defined: [a, b) is exactly when b >= e[a], with e from
``series.defined_ends``, read by gathered bounds and once by the window
scan; the split scan reads e[0] and the last a with e[a] <= n via
``_witness_span``; ``_scores`` re-checks no segment proven feasible. A
defined metric stays defined as its segment grows in either direction,
so [a, b) is feasible exactly when b >= max(a + d, e[a]), and whether a
prefix or suffix can be cut into k feasible segments is one threshold per k.
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
    _kind_arrays,
    _moments,
    _parts,
    _ratio,
    _score,
    _witness_span,
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


def _scores(table: PrefixTable, start, end, kind: MetricKind):
    """Metrics of the segments [start, end), broadcast int bounds, each
    proven feasible by the caller (see ``_search``): not re-checked."""
    return _score(table, True, *_parts(table, start, end, kind)[1:], kind,
                  start, end)


def _result(series: ReturnSeries, table: PrefixTable, splits, d: int,
            kind: MetricKind) -> MrpResult:
    """The ``MrpResult`` of ``series`` split at the ints ``splits``, a
    search's feasible partition: its segments are scored on its prefix
    ``table`` by ``_scores``, the first least reported."""
    bounds = np.array((0, *splits, len(series)), dtype=np.int64)
    metrics = _scores(table, bounds[:-1], bounds[1:], kind)
    argmin = int(np.argmin(metrics))
    return MrpResult(
        value=float(metrics[argmin]),
        optimal_splits=PartitionSpec(tuple(bounds[1:-1].tolist()), len(series), d),
        segment_metrics=tuple(metrics.tolist()),
        argmin_segment=argmin,
        split_dates=tuple(series.dates[bounds[1:-1] - 1].tolist()),
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
    edge = np.zeros((len(splits), 1), dtype=np.int64)
    bounds = np.hstack((edge, splits, edge + n))
    metrics = metric_many(table, bounds[:, :-1].ravel(), bounds[:, 1:].ravel(),
                          kind).reshape(len(splits), s + 1)
    # NaN propagates: a partition with an undefined segment is never picked
    return _result(series, table, splits[_first_min(np.min(metrics, axis=1))],
                   d, kind)


def mrp_one_split(series: ReturnSeries, d: int,
                  kind: MetricKind = SHARPE) -> MrpResult:
    """MRP with a single split: O(n) scan of t in [d, n-d].

    Equivalent to ``mrp_brute_force(series, 1, d)`` including tie-breaks.
    """
    return mrp_fast(series, 1, d, kind)


def _split_scan(table: PrefixTable, d: int, kind: MetricKind):
    """Left and right segment metrics of every single split t in [d, n-d]
    (column t - d) of the table's series, or of each row of a replicate
    matrix's table: NaN where that side is undefined. A row's metrics are
    those of the row as a series on its own, bit for bit.

    The left windows [0, t) and right windows [t, n) are column slices of
    the table's prefix arrays (the left sums are the columns at t, as
    prefixes start at 0.0), scored by the kernel's ``_moments`` and
    ``_score``; [0, t) is defined exactly when t >= e[0], and [t, n) when
    e[t] <= n, both from ``_witness_span``. Slices, not bounds gathered
    as ``metric_many`` gathers them: the values are the same, but a
    200-replicate bootstrap of a 10-year daily series at d = 252 took
    43.8 ms gathered against 22.9 ms sliced (medians of six runs of 20
    interleaved pairs, 2-vCPU Xeon). Each entry depends only on its own
    split, so the scan at the least d holds the scan at every larger d as
    the columns [d - d0, n - d - d0].
    """
    n = table.n
    cut = slice(d, n - d + 1)
    t = np.arange(d, n - d + 1, dtype=np.int64)
    length = t.astype(float)
    sum1, q = table.sum1, _kind_arrays(table, kind)[0]  # q: spread prefix
    # each side's mask, True where every row holds at its worst split
    first, last = _witness_span(table, kind)
    left_ok = True if np.all(first <= d) else t >= first[..., None]
    right_ok = True if np.all(last >= n - d) else t <= last[..., None]
    left = _moments(length, sum1[..., cut], q[..., cut], kind)
    right = _moments(n - length, sum1[..., n:] - sum1[..., cut],
                     q[..., n:] - q[..., cut], kind)
    return (_score(table, left_ok, *left, kind, 0, t),
            _score(table, right_ok, *right, kind, t, n))


def _first_min(pair: np.ndarray):
    """Index of the first least non-NaN entry along the last axis: the tie
    rule of the split scan and of brute force. Raises NoValidPartition
    if a row (or the one array) is all NaN."""
    least = np.fmin.reduce(pair, axis=-1, keepdims=True)  # NaN: all NaN
    if np.isnan(least).any():
        raise NoValidPartition("every partition has a segment with an "
                               "undefined metric")
    return np.argmax(pair == least, axis=-1)


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


#: unit roundoff of float64
_U = 2.0 ** -53


def _certified_ends(table: PrefixTable, kind: MetricKind, d: int,
                    f: np.ndarray, j_hi: np.ndarray, incumbent: float):
    """The windows still to score: the tiles [i, j) for j0 <= j <= j1
    that no certificate rules out, as arrays (i, j0, j1) in (i, j) order.

    Row i holds the windows [i, j) for f[i] <= j <= j_hi[i]. A tile is a
    block of starts I0..I1 by a block of ends J0..J1; it is skipped when
    every window in it provably scores above ``incumbent``, the value of
    a window already scored, so the optimum and all its ties lie in the
    kept tiles. The (start, end) plane is cut into B x B tiles first;
    each kept tile is then cut into its rows, 1 x B tiles of the same
    bound, and the kept row tiles are returned.

    The bound. Write a window's metric as S = phi / sqrt(Q) sqrt(ppy),
    with phi = mean h(L), mean its excess mean, L its length, h(L) =
    sqrt(L - dof), and Q its spread sum: the sum of squared deviations
    from the window mean (Sharpe, dof = 1) or of squared shortfalls below
    mar (Sortino, dof = 0). Pivot the excess on the series' mean pbar =
    P[n] / n, P the prefix sum of r - mar: with T = P - pbar k and M =
    T[j] - T[i], mean = pbar + M / L, so phi = pbar h(L) + M g(L), g(L) =
    h(L) / L. For every window [i, j) of a tile:

    * M >= M_lo = min(T over the end block) - max(T over the start block).
    * [i, j) contains the core [I1, J0) and lies in the hull [I0, J1).
      (J0 is raised to f[I0] and J1 lowered to the block's greatest
      j_hi, which bound the rows' ends; f is nondecreasing.)
    * Q only grows with the window: a squared shortfall is >= 0, and the
      least sum of squares about any centre of a set is at most that of
      a superset about its own mean. So Q_core <= Q <= Q_hull.
    * h rises with L, and g falls with L for L >= 2 (g^2 = (L - 1) / L^2
      has derivative (2 - L) / L^3; 1 / sqrt(L) falls).

    So each term is bounded on its own: phi >= phi_lo = pbar h(L_core if
    pbar >= 0, else L_hull) + M_lo g(L_hull if M_lo >= 0, else L_core),
    for L_core >= 2. If phi_lo >= 0, S >= phi_lo / sqrt(Q_hull); if
    phi_lo < 0, S >= phi_lo / sqrt(Q_core) when phi < 0, and S >= 0 above
    that otherwise. No window need split into better parts, so the rule
    holds for both metrics and either sign. At pbar = 0 it is the bound
    on the excess sum P[j] - P[i]; where returns drift far above their
    noise, pivoting keeps the drift off the core-to-hull slack.

    It is computed as the kernel scores a window, by ``_ratio`` of phi_lo
    / h(L_x) and the spread Q_x / (L_x - dof) from ``_parts``, with
    margins for the kernel's computed values. With A = max|P| + |mar| n
    and u the unit roundoff, the computed T and M_lo are within 14 u A of
    exact sums of the stored sum1 (T with the computed pbar), and the
    kernel's mean (from sum1, then mar) within 11 u A / L; so the
    kernel's mean h(L) is >= phi - 25 u A g(L), and g(L) <= g(L_core).
    The pbar term is at most sqrt(2) A g(L_core), so phi_lo's own
    rounding is within 6 u A g(L_core) and a few u of phi_lo: phi_lo is
    lowered by 32 u A g(L_core), and an excess that cancels to rounding
    noise keeps its tile. The Sortino spread sums are differences of a
    nondecreasing stored prefix, monotone as stored, and the spread gets
    a relative 4 u. The Sharpe spread sums come from q - sum1^2 / L, q
    its spread prefix (of r^2), and only the exact ones are monotone. The
    stored prefixes drift from the exact sums by up to n u times their
    magnitude, so a computed Q is within E = (2n + 10) u q[n] + 2 max|r|
    e + e^2, e = 2 n u sum|r|, of the exact one; the window's Q and the
    core's (or hull's) each carry E, and the spread moves by 4 E / (L -
    1), which also covers the division's rounding (2 u Q <= 2 u q[n]).
    All move in the safe direction, and the finished bound is lowered by
    64 u of itself. Where the lowered spread is not > 0 (a cancelled or
    constant core) the tile is kept, and so is every window the kernel
    would recompute.
    """
    n = table.n
    sharpe = kind.name == "sharpe"
    dof = 1 if sharpe else 0
    p = table.sum1 if sharpe else table.sum1 - kind.mar * np.arange(n + 1)
    margin = 32 * _U * (float(np.max(np.abs(p))) + abs(kind.mar) * n)
    pbar = float(p[n]) / n
    pt = p - pbar * np.arange(n + 1)
    if sharpe:  # Sortino's spread takes a relative margin, below
        r, q = table.returns, _kind_arrays(table, kind)[0]
        e_t = 2 * n * _U * float(np.sum(np.abs(r)))
        q_margin = 4 * ((2 * n + 10) * _U * float(q[n])
                        + 2 * float(np.max(np.abs(r))) * e_t + e_t * e_t)

    def parts(start, end, side):
        """Length, h and spread of [start, end), a core's (side -1)
        margin down and a hull's (side 1) up."""
        length, _, spread = _parts(table, start, end, kind)
        return length, np.sqrt(length - dof), (
            spread + side * q_margin / (length - 1) if sharpe
            else spread * (1 + side * 4 * _U))

    def may_beat(i0, i1, j0, j1, m_lo):
        """Whether a window [i, j), i0 <= i <= i1, j0 <= j <= j1, with
        T[j] - T[i] >= m_lo can score <= ``incumbent``."""
        with np.errstate(invalid="ignore", divide="ignore"):
            l_core, h_core, v_core = parts(i1, j0, -1.0)
            l_hull, h_hull, v_hull = parts(i0, j1, 1.0)
            g_core = h_core / l_core
            phi = (pbar * (h_core if pbar >= 0 else h_hull)
                   + m_lo * np.where(m_lo >= 0, h_hull / l_hull, g_core)
                   - margin * g_core)
            hull = phi >= 0
            spread = np.where(hull, v_hull, v_core)
            bound = _ratio(phi / np.where(hull, h_hull, h_core), spread,
                           table.periods_per_year)
            bound -= 64 * _U * np.abs(bound)
            return ~((l_core >= 2) & (spread > 0) & (bound > incumbent))

    # a quarter of d, so that tiles next to the diagonal keep a core,
    # within n/128 .. n/64, so that there are at most 128 x 128 tiles
    size = max(-(-n // 128), min(-(-d // 4), -(-n // 64)))
    first = np.arange(0, n, size, dtype=np.int64)
    last = np.minimum(first + size, n) - 1
    pt_end = np.minimum.reduceat(pt[:n], first)
    # B x B tiles (a, b) that hold a window
    j0 = np.maximum(first[None, :], f[first][:, None])
    j1 = np.minimum(last[None, :], np.maximum.reduceat(j_hi, first)[:, None])
    a, b = np.nonzero(j0 <= j1)
    j0, j1 = j0[a, b], j1[a, b]
    keep = may_beat(first[a], last[a], j0, j1,
                    pt_end[b] - np.maximum.reduceat(pt[:n], first)[a])
    a, b = a[keep], b[keep]
    # their rows: 1 x B tiles
    count = last[a] - first[a] + 1
    offset = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    i = np.repeat(first[a], count) + offset
    b = np.repeat(b, count)
    j0 = np.maximum(first[b], f[i])
    j1 = np.minimum(last[b], j_hi[i])
    keep = j0 <= j1
    i, b, j0, j1 = i[keep], b[keep], j0[keep], j1[keep]
    keep = may_beat(i, i, j0, j1, pt_end[b] - pt[i])
    i, j0, j1 = i[keep], j0[keep], j1[keep]
    order = np.lexsort((j0, i))
    return i[order], j0[order], j1[order]


#: the most windows per ``_scores`` call of the window scan, bar one
#: wider row tile; a larger chunk raises peak memory for little speed
_CHUNK = 2 ** 14


def mrp_fast(series: ReturnSeries, s: int, d: int,
             kind: MetricKind = SHARPE) -> MrpResult:
    """MRP_s via the feasible-window search; value-identical to brute force.

    ``_search`` finds the partition on the series' prefix table, and
    ``_result`` scores it.
    """
    _check_feasible(len(series), s, d)
    table = build_prefix_sums(series)
    return _result(series, table, _search(table, s, d, kind)[1], d, kind)


def _search(table: PrefixTable, s: int, d: int, kind: MetricKind):
    """MRP_s of the table's series, and a partition achieving it: (value,
    splits). At s = 1 the table may hold a replicate matrix, each row
    searched as a series on its own, bit for bit, with s splits per row.
    The caller checks that s and d fit (``_check_feasible``).

    At s = 1 one O(n) split scan covers every row, and each row takes its
    first least worse side. At s >= 2 the table is one series' (the
    replicate driver gives each row a table of its own, a view): the
    answer is the least window that can be a segment of a valid partition,
    read off f[a] = max(a + d, e[a]), e = ``defined_ends``, and greedy cuts,
    so brute force is never needed; windows cost O(1) each via prefix sums. A
    tile certificate (``_certified_ends``) first skips every block of windows
    that provably scores above an incumbent, the least window of least length
    per start or of the windows ending at n. The kept row tiles are scored in
    (i, j) order, as many whole tiles per ``_scores`` call as fit ``_CHUNK``
    windows at the widest tile's width. On the benchmark's clean two-regime
    series it scores 0.01-0.25% of the windows, and on its large-offset ones
    1-12%; where every window scores within a tile's slack of the least (a
    short periodic pattern), a large share of all O(n^2). Ties go to the least
    (i, j), and ``_complete_partition`` builds a partition around it. f is the
    scan's one read of definedness: each window [i, j) it scores has j >= f[i]
    >= e[i], so ``_scores`` checks none. Once lo[s + 1] <= n the windows [i,
    n), i in [lo[s], hi[1]], exist and are defined (f[i] <= n, f being
    nondecreasing), so the least is never NaN; it is +inf, as in brute force,
    only where every ratio overflows. The incumbent's windows end at f[i]; a
    chunk's ends lie in [j0, j1], j0 >= f[i], padding included.
    """
    if s == 1:
        worse = np.minimum(*_split_scan(table, d, kind))
        i = _first_min(worse)[..., None]
        return np.take_along_axis(worse, i, -1)[..., 0], d + i
    n = table.n
    f = np.maximum(np.arange(n, dtype=np.int64) + d, defined_ends(table, kind)[:n])
    lo, hi = _reach(f, n, s)
    if lo[s + 1] > n:
        raise NoValidPartition("every partition has a segment with an "
                               "undefined metric")

    # windows [i, n): the prefix [0, i) takes all s splits
    is_ = np.arange(lo[s], hi[1] + 1, dtype=np.int64)
    vals = _scores(table, is_, n, kind)
    k = int(np.argmin(vals))
    best = (float(vals[k]), int(is_[k]), n)  # (value, i, j): ties go to (i, j)
    j_hi = _window_ends(n, s, lo, hi)
    rows = np.flatnonzero(f <= j_hi)
    incumbent = min(best[0], float(np.min(_scores(table, rows, f[rows], kind))))
    i, j0, j1 = _certified_ends(table, kind, d, f, j_hi, incumbent)
    # each chunk is a block of whole row tiles, one per row, padded to the
    # widest by copies of the tile's last window: they score bit-equal to
    # it and come after it, so the block's first least is the first window
    width = int(np.max(j1 - j0, initial=0)) + 1
    step = max(1, _CHUNK // width)
    for c in range(0, i.size, step):
        start = i[c:c + step, None]
        end = np.minimum(j0[c:c + step, None] + np.arange(width), j1[c:c + step, None])
        vals = _scores(table, start, end, kind)
        t, k = np.unravel_index(np.argmin(vals), vals.shape)
        best = min(best, (float(vals[t, k]), int(start[t, 0]), int(end[t, k])))
    value, i, j = best
    return value, np.array(_complete_partition(f, s, lo, hi, i, j))
