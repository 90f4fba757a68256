import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minregime import (
    SHARPE,
    Infeasible,
    MetricKind,
    MinRegimeError,
    NoValidPartition,
    block_bootstrap_mrp,
    count_valid_partitions,
    enumerate_partitions,
    mrp_brute_force,
    mrp_fast,
    mrp_one_split,
    sensitivity_grid,
    sortino,
)
from minregime import analytics, engine
from minregime import series as series_module
from minregime.engine import PartitionSpec
from minregime.series import build_prefix_sums, defined_ends, metric_many

from conftest import make_series, series_from


def exhaustive_split_count(n, s, d):
    """Independent oracle: try every strictly increasing split tuple."""
    count = 0
    for splits in itertools.combinations(range(1, n), s):
        bounds = (0,) + splits + (n,)
        if all(b - a >= d for a, b in zip(bounds, bounds[1:])):
            count += 1
    return count


class TestCountValidPartitions:
    @pytest.mark.parametrize("n,s,d,expected", [
        (10, 1, 2, 7),
        (6, 2, 2, 1),
        (5, 2, 2, 0),
        (4, 1, 2, 1),
        (8, 3, 2, 1),
    ])
    def test_known_values(self, n, s, d, expected):
        assert count_valid_partitions(n, s, d) == expected
        assert exhaustive_split_count(n, s, d) == expected

    def test_against_exhaustive(self):
        for n in range(2, 21):
            for s in range(1, 4):
                for d in range(1, 5):
                    assert count_valid_partitions(n, s, d) == \
                        exhaustive_split_count(n, s, d), (n, s, d)

    def test_domain(self):
        with pytest.raises(ValueError):
            count_valid_partitions(0, 1, 1)


class TestEnumeratePartitions:
    def test_single_partition(self):
        assert list(enumerate_partitions(4, 1, 2)) == [(2,)]

    def test_packed(self):
        assert list(enumerate_partitions(8, 3, 2)) == [(2, 4, 6)]

    def test_infeasible_empty(self):
        assert list(enumerate_partitions(5, 2, 2)) == []

    def test_count_and_validity(self):
        for n, s, d in [(10, 1, 2), (12, 2, 3), (20, 3, 4), (15, 2, 2)]:
            seen = set()
            for splits in enumerate_partitions(n, s, d):
                bounds = (0,) + splits + (n,)
                assert all(b - a >= d for a, b in zip(bounds, bounds[1:]))
                seen.add(splits)
            assert len(seen) == count_valid_partitions(n, s, d)

    def test_lexicographic_order(self):
        out = list(enumerate_partitions(12, 2, 2))
        assert out == sorted(out)

    def test_equals_exhaustive_in_order(self):
        # combinations() yields in lexicographic order, so the valid tuples
        # it yields are the expected stream itself
        for n in range(1, 16):
            for s in range(1, 4):
                for d in range(1, 5):
                    want = [t for t in itertools.combinations(range(1, n), s)
                            if all(b - a >= d
                                   for a, b in zip((0,) + t, t + (n,)))]
                    assert list(enumerate_partitions(n, s, d)) == want, (n, s, d)


class TestMrpOneSplit:
    def test_forced_single_partition(self):
        s = make_series(8, seed=1)
        res = mrp_one_split(s, 4)
        assert res.optimal_splits.splits == (4,)
        assert res.value == min(res.segment_metrics)

    def test_equals_brute_force(self):
        for seed in range(100):
            s = make_series(20, seed=seed)
            a = mrp_one_split(s, 3)
            b = mrp_brute_force(s, 1, 3)
            assert a.value == b.value
            assert a.optimal_splits == b.optimal_splits

    def test_two_regime_argmin_is_right_segment(self):
        rng = np.random.default_rng(0)
        vals = np.concatenate([rng.normal(0.005, 0.01, 60),
                               rng.normal(-0.005, 0.01, 30)])
        s = series_from(vals)
        res = mrp_one_split(s, 10)
        assert res.argmin_segment == 1
        assert res.value < 0
        # brute-force oracle agrees
        assert res.value == mrp_brute_force(s, 1, 10).value

    def test_constructed_break_recovered(self):
        rng = np.random.default_rng(42)
        vals = np.concatenate([rng.normal(0.003, 0.01, 80),
                               rng.normal(-0.003, 0.01, 40)])
        res = mrp_one_split(series_from(vals), 25)
        assert abs(res.optimal_splits.splits[0] - 80) <= 25

    def test_split_date_is_last_left_observation(self):
        s = make_series(20, seed=6)
        res = mrp_one_split(s, 4)
        t = res.optimal_splits.splits[0]
        assert res.split_dates[0] == s.dates[t - 1]

    def test_reversal_symmetry(self):
        for seed in range(30):
            s = make_series(40, seed=seed)
            a = mrp_one_split(s, 5)
            b = mrp_one_split(s.reversed(), 5)
            assert a.value == pytest.approx(b.value, abs=1e-12)
            assert b.optimal_splits.splits[0] == 40 - a.optimal_splits.splits[0]

    def test_infeasible(self):
        with pytest.raises(Infeasible):
            mrp_one_split(make_series(5), 3)

    def test_all_constant_no_valid_partition(self):
        with pytest.raises(NoValidPartition):
            mrp_one_split(series_from([0.01] * 10), 2)


class TestMrpBruteForce:
    def test_value_is_min_of_segments(self):
        s = make_series(24, seed=3)
        res = mrp_brute_force(s, 2, 3)
        assert res.value == min(res.segment_metrics)
        assert res.segment_metrics[res.argmin_segment] == res.value

    def test_lower_bound_over_all_partitions(self):
        from minregime.series import build_prefix_sums, segment_metric
        s = make_series(16, seed=9)
        res = mrp_brute_force(s, 2, 2)
        table = build_prefix_sums(s)
        for splits in enumerate_partitions(16, 2, 2):
            bounds = (0,) + splits + (16,)
            m = min(segment_metric(table, a, b)
                    for a, b in zip(bounds, bounds[1:]))
            assert res.value <= m + 1e-12

    def test_scale_invariance(self):
        for seed in range(20):
            s = make_series(18, seed=seed)
            a = mrp_brute_force(s, 2, 2)
            b = mrp_brute_force(s.scaled(7.5), 2, 2)
            assert b.value == pytest.approx(a.value, rel=1e-12, abs=1e-12)
            assert a.optimal_splits == b.optimal_splits

    def test_zero_variance_partition_excluded(self):
        # constant first half: any partition whose first segment sits fully
        # inside it is infeasible, but mixed partitions survive
        vals = [0.01] * 6 + [0.02, -0.01, 0.03, -0.02, 0.015, -0.005]
        s = series_from(vals)
        res = mrp_brute_force(s, 1, 2)
        assert all(math.isfinite(v) for v in res.segment_metrics)

    def test_split_dates(self):
        s = make_series(12, seed=4)
        res = mrp_brute_force(s, 1, 3)
        t = res.optimal_splits.splits[0]
        assert res.split_dates == (s.dates[t - 1],)


class TestMrpFast:
    @pytest.mark.parametrize("s_count,d", [(1, 2), (2, 2), (2, 3), (3, 2), (3, 4)])
    def test_equals_brute_force(self, s_count, d):
        for n in range((s_count + 1) * d, 30, 3):
            for seed in range(5):
                x = make_series(n, seed=seed * 31 + n)
                a = mrp_brute_force(x, s_count, d)
                b = mrp_fast(x, s_count, d)
                assert b.value == a.value, (n, s_count, d, seed)
                assert b.value == min(b.segment_metrics)

    def test_packed_case(self):
        x = make_series(12, seed=2)
        res = mrp_fast(x, 2, 4)
        assert res.optimal_splits.splits == (4, 8)

    def test_result_partition_valid(self):
        x = make_series(30, seed=8)
        res = mrp_fast(x, 3, 3)
        spec = res.optimal_splits
        assert spec.s == 3
        for a, b in spec.segments:
            assert b - a >= 3

    def test_degenerate_data_falls_back(self):
        vals = [0.01] * 6 + [0.02, -0.01, 0.03, -0.02, 0.015, -0.005]
        s = series_from(vals)
        assert mrp_fast(s, 1, 2).value == mrp_brute_force(s, 1, 2).value

    def test_reversal_symmetry(self):
        for seed in range(20):
            x = make_series(26, seed=seed)
            a = mrp_fast(x, 2, 3)
            b = mrp_fast(x.reversed(), 2, 3)
            assert b.value == pytest.approx(a.value, rel=1e-12, abs=1e-12)

    def test_determinism(self):
        x = make_series(28, seed=5)
        a = mrp_fast(x, 2, 3)
        b = mrp_fast(x, 2, 3)
        assert a == b


ALPHABET = (0.0, 0.01, -0.01, 0.02, -0.03)


@st.composite
def degenerate_cases(draw):
    """Short series over a small alphabet, so values tie, with injected
    constant runs (zero runs among them)."""
    s = draw(st.sampled_from([1, 2, 3]))
    d = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.integers((s + 1) * d, 30))
    values = draw(st.lists(st.sampled_from(ALPHABET), min_size=n, max_size=n))
    for _ in range(draw(st.integers(0, 3))):
        start = draw(st.integers(0, n - 1))
        stop = min(n, start + draw(st.integers(2, 12)))
        values[start:stop] = [draw(st.sampled_from(ALPHABET))] * (stop - start)
    kind = draw(st.sampled_from([SHARPE, sortino(0.0)]))
    return series_from(values), s, d, kind


def worst_windows(series, s, d, kind, value):
    """Every segment that scores ``value`` in a feasible partition whose
    minimum is ``value``, by enumeration."""
    n = len(series)
    bounds = np.array([(0,) + t + (n,) for t in enumerate_partitions(n, s, d)])
    metrics = metric_many(build_prefix_sums(series), bounds[:, :-1].ravel(),
                          bounds[:, 1:].ravel(), kind).reshape(-1, s + 1)
    optimal = ~np.isnan(metrics).any(axis=1) & (metrics.min(axis=1) == value)
    rows, segs = np.nonzero(metrics[optimal] == value)
    found = bounds[optimal]
    return {(int(found[r, q]), int(found[r, q + 1])) for r, q in zip(rows, segs)}


def two_pass_metric(returns, kind, periods_per_year):
    """Segment metric recomputed directly with compensated sums."""
    seg = list(returns)
    mean = math.fsum(seg) / len(seg)
    if kind.name == "sortino":
        down = math.fsum(min(x - kind.mar, 0.0) ** 2 for x in seg) / len(seg)
        return (mean - kind.mar) / math.sqrt(down) * math.sqrt(periods_per_year)
    var = math.fsum((x - mean) ** 2 for x in seg) / (len(seg) - 1)
    return mean / math.sqrt(var) * math.sqrt(periods_per_year)


def assert_valid_result(series, s, d, kind, res):
    spec = PartitionSpec(splits=res.optimal_splits.splits, n=len(series), d=d)
    assert spec.s == s
    assert res.value == min(res.segment_metrics)
    assert res.segment_metrics[res.argmin_segment] == res.value
    for (a, b), got in zip(spec.segments, res.segment_metrics):
        assert math.isfinite(got)
        want = two_pass_metric(series.returns[a:b], kind,
                               series.periods_per_year)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


class TestDegenerateData:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(degenerate_cases())
    def test_fast_equals_brute_force(self, case):
        series, s, d, kind = case
        try:
            oracle = mrp_brute_force(series, s, d, kind)
        except NoValidPartition:
            with pytest.raises(NoValidPartition):
                mrp_fast(series, s, d, kind)
            return
        res = mrp_fast(series, s, d, kind)
        assert abs(res.value - oracle.value) <= 1e-12
        assert_valid_result(series, s, d, kind, res)
        # on an exact tie the engines may report different worst segments
        worst = worst_windows(series, s, d, kind, oracle.value)
        if len(worst) == 1:
            assert worst == {res.optimal_splits.segments[res.argmin_segment]}

    @pytest.fixture
    def no_brute_force(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("mrp_fast fell back to brute force")
        monkeypatch.setattr(engine, "mrp_brute_force", refuse)

    @pytest.mark.parametrize("s_count", [1, 2, 3])
    @pytest.mark.parametrize("values", [
        [0.01] * 6 + [0.02, -0.01, 0.03, -0.02, 0.015, -0.005, 0.01, -0.01],
        [0.0] * 5 + [0.02, -0.01, 0.0, 0.0, 0.0, 0.03, -0.02, 0.015, -0.005,
                      -0.01, 0.005, -0.01],
        # prefix sums cancel the variance of [3, 6), which is not constant
        [-3.1, 3.1, 5.7, 0.1, 0.1, 0.1 + 2 ** -55, 0.1, -0.05, 0.2, -0.03,
         0.07, -0.02],
    ])
    @pytest.mark.parametrize("kind", [SHARPE, sortino(0.0)])
    def test_constant_runs_without_fallback(self, values, s_count, kind,
                                            no_brute_force):
        series = series_from(values)
        # the test module's name still binds the unpatched oracle
        oracle = mrp_brute_force(series, s_count, 2, kind)
        res = mrp_fast(series, s_count, 2, kind)
        assert res.value == oracle.value
        assert_valid_result(series, s_count, 2, kind, res)

    def test_underflowing_spread_keeps_its_row(self):
        # [5, 7) has distinct returns whose two-pass variance underflows;
        # it once scored NaN, and the row minimum then dropped its row
        series = series_from([0.0, 0.01, 0.02, 0.01, -0.03, 1e-170, 2e-170])
        oracle = mrp_brute_force(series, 2, 2)
        res = mrp_fast(series, 2, 2)
        assert res.value == oracle.value
        assert res.optimal_splits.splits == oracle.optimal_splits.splits == (2, 4)
        assert_valid_result(series, 2, 2, SHARPE, res)

    def test_padded_ten_years_without_fallback(self, no_brute_force):
        rng = np.random.default_rng(11)
        values = np.concatenate([np.zeros(252), rng.normal(0.0003, 0.01, 2268)])
        series = series_from(values)
        assert count_valid_partitions(2520, 3, 252) > 5e8
        res = mrp_fast(series, 3, 252)
        assert_valid_result(series, 3, 252, SHARPE, res)
        assert res.optimal_splits.splits[0] > 252


#: Sortino segments whose every ratio overflows: 1e300 over a tiny
#: shortfall; at s = 3 some segment has no shortfall
ALL_INF = np.where(np.isin(np.arange(12), [1, 5, 9]), -1e-160, 1e300)
#: returns whose deviations are subnormal, as is every spread
SUBNORMAL = np.random.default_rng(3).normal(0.0, 1.0, 40) * 1e-310


def outcome(search, series, s, d, kind):
    """A search's MRP value, or the class of the error it raised."""
    try:
        return search(series, s, d, kind).value
    except MinRegimeError as exc:
        return type(exc)


@st.composite
def float_range_cases(draw):
    """Short series whose returns take one or two magnitudes within 1e-320
    to 1e300, so that sums overflow and spreads underflow."""
    s = draw(st.integers(1, 3))
    d = draw(st.integers(2, 16 // (s + 1)))
    n = draw(st.integers((s + 1) * d, 16))
    edges = st.sampled_from([-320, -310, -160, -150, 150, 160, 300])
    scales = draw(st.lists(st.one_of(edges, st.integers(-320, 300)),
                           min_size=1, max_size=2))
    unit = st.one_of(st.sampled_from([0.0, 1.0, -1.0]), st.floats(-1.5, 1.5))
    values = [draw(unit) * 10.0 ** draw(st.sampled_from(scales))
              for _ in range(n)]
    kind = draw(st.sampled_from([SHARPE, sortino(0.0)]))
    return values, s, d, kind


class TestFloatRange:
    """A ratio beyond the float range is +-inf on every path, and a spread
    that underflows is rescaled exactly, so the engines agree there too."""

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_overflowing_ratios_agree(self, s):
        # the window scan raised NoValidPartition at s = 2, where brute
        # force returns +inf, and every call warned of the overflow
        series = series_from(ALL_INF)
        for search in (mrp_fast, mrp_brute_force):
            if s == 3:
                with pytest.raises(NoValidPartition):
                    search(series, s, 2, sortino(0.0))
                continue
            res = search(series, s, 2, sortino(0.0))
            assert res.value == math.inf
            assert res.optimal_splits.splits == (2, 6)[:s]

    @pytest.mark.parametrize("s", [1, 2])
    def test_subnormal_spreads_are_rescaled(self, s):
        # the rescale by 2.0 ** -e raised OverflowError once e <= -1024
        series = series_from(SUBNORMAL)
        res = mrp_fast(series, s, 5)
        assert math.isfinite(res.value)
        assert res.value == mrp_brute_force(series, s, 5).value
        twin = mrp_fast(series_from(np.ldexp(SUBNORMAL, 1030)), s, 5)
        assert res.value == pytest.approx(twin.value, rel=1e-9)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(float_range_cases())
    @example((ALL_INF.tolist(), 2, 2, sortino(0.0)))
    @example((SUBNORMAL[:16].tolist(), 2, 5, SHARPE))
    def test_fast_equals_brute_force(self, case):
        values, s, d, kind = case
        series = series_from(values)
        assert (outcome(mrp_fast, series, s, d, kind)
                == outcome(mrp_brute_force, series, s, d, kind))


def reference_window_scan(series, s, d, kind=SHARPE):
    """The window scan without a certificate: every feasible window of
    every row is scored, one ``metric_many`` call per row, then the
    windows [i, n). The oracle for ``mrp_fast`` at s >= 2."""
    n = len(series)
    engine._check_feasible(n, s, d)
    table = build_prefix_sums(series)
    f = np.maximum(np.arange(n, dtype=np.int64) + d,
                   defined_ends(table, kind)[:n])
    lo, hi = engine._reach(f, n, s)
    if lo[s + 1] > n:
        raise NoValidPartition("every partition has an undefined segment")
    best = (math.inf, -1, -1)
    j_hi = engine._window_ends(n, s, lo, hi)
    rows = np.flatnonzero(f <= j_hi)
    for i, j_lo, j_top in zip(rows.tolist(), f[rows].tolist(),
                              j_hi[rows].tolist()):
        vals = metric_many(table, np.full(j_top - j_lo + 1, i),
                           np.arange(j_lo, j_top + 1), kind)
        k = int(np.argmin(vals))
        best = min(best, (float(vals[k]), i, j_lo + k))
    is_ = np.arange(lo[s], hi[1] + 1, dtype=np.int64)
    vals = metric_many(table, is_, np.full_like(is_, n), kind)
    k = int(np.argmin(vals))
    best = min(best, (float(vals[k]), int(is_[k]), n))
    _, i, j = best
    splits = engine._complete_partition(f, s, lo, hi, i, j)
    return engine._result(series, table, splits, d, kind)


def feasible_window_count(series, s, d, kind):
    """Windows the uncertified scan scores: its rows and the windows [i, n)."""
    n = len(series)
    table = build_prefix_sums(series)
    f = np.maximum(np.arange(n) + d, defined_ends(table, kind)[:n])
    lo, hi = engine._reach(f, n, s)
    j_hi = engine._window_ends(n, s, lo, hi)
    return int(np.maximum(j_hi - f + 1, 0).sum()) + hi[1] - lo[s] + 1


def assert_same_as_reference(series, s, d, kind):
    try:
        want = reference_window_scan(series, s, d, kind)
    except NoValidPartition:
        with pytest.raises(NoValidPartition):
            mrp_fast(series, s, d, kind)
        return
    got = mrp_fast(series, s, d, kind)
    assert got.value == want.value
    assert got.optimal_splits == want.optimal_splits
    assert got.segment_metrics == want.segment_metrics
    assert got == want


def assert_kept_tiles_hold(series, s, d, kind, share):
    """Every feasible window scoring <= the incumbent, the value at
    ``share`` of the sorted feasible windows, lies in a kept tile."""
    n, table = len(series), build_prefix_sums(series)
    f = np.maximum(np.arange(n) + d, defined_ends(table, kind)[:n])
    lo, hi = engine._reach(f, n, s)
    j_hi = engine._window_ends(n, s, lo, hi)
    width = np.maximum(j_hi - f + 1, 0)
    if lo[s + 1] > n or not width.any():
        return
    i = np.repeat(np.arange(n), width)
    j = f[i] + np.arange(i.size) - np.repeat(np.cumsum(width) - width, width)
    vals = metric_many(table, i, j, kind)
    incumbent = float(np.sort(vals)[int(share * (vals.size - 1))])
    kept = np.zeros((n, n), dtype=bool)
    for row, j0, j1 in zip(*engine._certified_ends(table, kind, d, f, j_hi,
                                                     incumbent)):
        kept[row, j0:j1 + 1] = True
    assert kept[i, j][vals <= incumbent].all()


@st.composite
def certificate_cases(draw):
    """Series for s = 2, 3 and d = 2..8 of up to 120 observations: a small
    alphabet with ties, periodic data, or a large offset at vol 1e-3,
    with injected constant runs (zero runs among them); a Sortino mar
    within 2e-3 of the offset is drawn for the offset shape too."""
    s = draw(st.sampled_from([2, 3]))
    d = draw(st.integers(2, 8))
    n = draw(st.integers((s + 1) * d, 120))
    shape = draw(st.sampled_from(["alphabet", "periodic", "offset"]))
    if shape == "alphabet":
        values = draw(st.lists(st.sampled_from(ALPHABET), min_size=n,
                               max_size=n))
    elif shape == "periodic":
        period = draw(st.lists(st.sampled_from(ALPHABET), min_size=1,
                               max_size=5))
        values = (period * n)[:n]
    else:
        offset = draw(st.floats(1.0, 1e3)) * draw(st.sampled_from([1, -1]))
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        values = (offset + 1e-3 * rng.standard_normal(n)).tolist()
    for _ in range(draw(st.integers(0, 2))):
        start = draw(st.integers(0, n - 1))
        stop = min(n, start + draw(st.integers(2, 15)))
        values[start:stop] = [draw(st.sampled_from(ALPHABET))] * (stop - start)
    if shape == "offset" and draw(st.booleans()):
        # mar near the offset: P = sum1 - mar k rounds at u |mar| n
        kind = sortino(offset + draw(st.floats(-2e-3, 2e-3)))
    else:
        kind = draw(st.sampled_from([SHARPE, sortino(0.0), sortino(0.005),
                                     sortino(-0.005)]))
    return series_from(values), s, d, kind


def two_regime_series(n, seed):
    rng = np.random.default_rng(seed)
    brk = n * 3 // 5
    return np.concatenate([rng.normal(0.0006, 0.01, brk),
                           rng.normal(-0.0005, 0.013, n - brk)])


class TestWindowCertificate:
    """``mrp_fast`` at s >= 2 skips tiles of windows that provably score
    above an incumbent; it must return what the full scan returns."""

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(certificate_cases())
    def test_equals_full_scan(self, case):
        assert_same_as_reference(*case)

    @pytest.mark.parametrize("kind", [SHARPE, sortino(0.0)])
    @pytest.mark.parametrize("shape", ["clean", "padded", "offset1",
                                       "offset10"])
    def test_ten_years_equal_full_scan(self, shape, kind):
        rng = np.random.default_rng(21)
        if shape == "clean":
            values = two_regime_series(2520, 21)
        elif shape == "padded":
            values = two_regime_series(2520, 22)
            values[:252] = 0.0
            values[rng.choice(np.arange(252, 2520), 45, replace=False)] = 0.0
        else:
            offset = 1.0 if shape == "offset1" else 10.0
            values = offset + 1e-3 * rng.standard_normal(2520)
        assert_same_as_reference(series_from(values), 2, 252, kind)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(certificate_cases(), st.floats(0.0, 1.0))
    def test_kept_tiles_hold_every_window_at_or_below_any_incumbent(
            self, case, share):
        # the certificate's contract holds for any incumbent, not only the
        # scan's: every feasible window scoring <= it lies in a kept tile
        assert_kept_tiles_hold(*case, share)

    def test_deviation_term_at_the_hull_where_it_is_positive(self):
        # at this incumbent a tile with M_lo >= 0 holds a window scoring
        # at or below it: its M term is bounded at the hull's g, since
        # g(L_core) >= g(L) would bound it from above
        values = np.random.default_rng(0).choice(ALPHABET, 120)
        assert_kept_tiles_hold(series_from(values), 2, 7, SHARPE, 0.75)

    def test_sharpe_long_window_below_its_parts(self):
        # the sample variance lets [6, 11) score below every feasible
        # split of it, so a scan of short windows alone misses it
        series = series_from([-0.01, 0.01, -0.02, 0.01, -0.02, 0.01, -0.01,
                              0, 0, 0, -0.01])
        res = mrp_fast(series, 3, 2)
        assert res.value == -11.593101396951552
        assert res.optimal_splits.segments[res.argmin_segment] == (6, 11)
        assert_same_as_reference(series, 3, 2, SHARPE)

    def test_excess_cancelling_to_rounding_noise(self):
        # every window of even length has an exact excess of 0 over mar;
        # the kernel scores them at +-1e-14, and a margin relative to the
        # incumbent once skipped the least of them
        series = series_from([0.02, 0.0, 0.01] * 25)
        res = mrp_fast(series, 2, 2, sortino(0.005))
        assert res.value == -1.168333363421782e-14
        assert res.optimal_splits.splits == (10, 12)
        assert_same_as_reference(series, 2, 2, sortino(0.005))

    def test_cancelled_spread_sums(self):
        # at offset -100 and vol 1e-5 the prefix sums of squares keep few
        # digits of a window's variance; without a margin on the spread
        # sums the certificate skips the least window
        rng = np.random.default_rng(8)
        series = series_from(-100.0 + 1e-5 * rng.standard_normal(120))
        assert_same_as_reference(series, 2, 10, SHARPE)

    def test_core_of_one_keeps_its_tile(self):
        # at n >= 128 d tiles are wider than d: here 8 at d = 2, and the
        # tile of starts 496..503 by ends 504..511 has a core of one
        # observation, where g(1) = 0 does not bound g(L) from above.
        # It holds the least window [502, 504) and must be kept
        rng = np.random.default_rng(3)
        values = 0.01 + 1e-3 * rng.standard_normal(1024)
        values[502:507] = [-0.02, -0.021, -0.019, -0.02, -0.022]
        series = series_from(values)
        res = mrp_fast(series, 2, 2)
        assert res.optimal_splits.splits == (502, 504)
        assert res == reference_window_scan(series, 2, 2)

    @pytest.fixture
    def scored(self, monkeypatch):
        """The number of windows of each call to ``engine._scores``, the
        window scan's scoring entry (and the result's)."""
        sizes = []
        kernel = engine._scores

        def counting(table, start, end, kind):
            sizes.append(np.broadcast(start, end).size)
            return kernel(table, start, end, kind)
        monkeypatch.setattr(engine, "_scores", counting)
        return sizes

    def test_prunes_clean_two_regime(self, scored):
        series = series_from(two_regime_series(2520, 5))
        res = mrp_fast(series, 2, 252)
        assert scored and min(scored) > 0
        assert sum(scored) < 0.1 * feasible_window_count(series, 2, 252, SHARPE)
        assert res.value < 0
        assert res == reference_window_scan(series, 2, 252)

    @pytest.mark.parametrize("kind", [SHARPE, sortino(2 ** -4)])
    def test_ties_across_chunks_go_to_first_window(self, kind, scored,
                                                   monkeypatch):
        # exact binary fractions: windows of one phase and length score
        # bit-equal, so the least value recurs every 4 starts, across the
        # chunks of the scan, and only the first of its windows may win
        values = np.tile([2 ** -6, -2 ** -7, 2 ** -5, -2 ** -8], 150) + 2 ** -4
        series = series_from(values)
        widths = []
        certify = engine._certified_ends

        def reading_width(*args):
            i, j0, j1 = certify(*args)
            widths.append(int(np.max(j1 - j0)) + 1)
            return i, j0, j1
        monkeypatch.setattr(engine, "_certified_ends", reading_width)
        res = mrp_fast(series, 2, 20, kind)
        # calls: the windows [i, n), the incumbent, the chunks, and last
        # the result's scoring of its partition
        chunks = scored[2:-1]
        assert scored[-1] == 3
        # a chunk is whole row tiles, each padded to the widest tile's w
        (w,) = widths
        assert len(chunks) >= 2 and max(chunks) <= engine._CHUNK
        assert chunks[0] == (engine._CHUNK // w) * w
        assert res == reference_window_scan(series, 2, 20, kind)

    def test_positive_minimum_on_offset_series(self):
        # a positive minimum: the pivoted mean pbar = 10 > 0 bounds its
        # term at the core's h, and the pivot does the pruning
        rng = np.random.default_rng(8)
        series = series_from(10.0 + 1e-3 * rng.standard_normal(1000))
        res = mrp_fast(series, 2, 100)
        assert res.value > 0
        assert res == reference_window_scan(series, 2, 100)

    @pytest.mark.parametrize("offset", [10.0, -10.0])
    def test_prunes_offset_ten_years(self, offset, scored):
        # a drift 1e4 times the noise: a bound on the raw excess sum gives
        # up the drift's whole L_core / L_hull and keeps about a quarter
        # of the windows; pivoted on the mean, only the noise's slack is
        # kept. At -10 pbar < 0 takes the hull's h
        rng = np.random.default_rng(21)
        series = series_from(offset + 1e-3 * rng.standard_normal(2520))
        res = mrp_fast(series, 2, 252)
        assert sum(scored) < 0.1 * feasible_window_count(series, 2, 252, SHARPE)
        assert res == reference_window_scan(series, 2, 252)

    def test_prunes_sortino_offset_series(self, scored):
        # mar above the offset: a negative minimum, dof = 0 and mar inside
        # the pivot; a bound on the raw excess sum keeps about a fifth
        rng = np.random.default_rng(21)
        series = series_from(1.0 + 1e-3 * rng.standard_normal(2520))
        kind = sortino(1.001)
        res = mrp_fast(series, 2, 252, kind)
        assert sum(scored) < 0.15 * feasible_window_count(series, 2, 252, kind)
        assert res.value < 0
        assert res == reference_window_scan(series, 2, 252, kind)

    @pytest.mark.parametrize("seed", [8, 14])
    def test_sortino_mar_at_large_offset(self, seed):
        # mar at an offset of 10: the prefix of r - mar is computed from
        # sums near 10 k, so it and the kernel's excess carry rounding of a
        # few ulps of |mar| n, far above max|P|; the bound's margin must
        # scale with it, or a least window of 5 is skipped
        rng = np.random.default_rng(seed)
        series = series_from(10.0 + 1e-3 * rng.standard_normal(300))
        assert_same_as_reference(series, 2, 5, sortino(10.0))

    def test_memory_of_unpruned_scan_is_a_chunk(self, scored):
        # every window of this period-4 pattern scores within a few percent
        # of the least, inside a tile's slack, so the bound keeps a fifth
        # of the 1.56 M windows: about 3.3e5, which at once would peak near
        # 19 MB; one chunk at a time it peaks near 4 MB, most of it the
        # certificate's tile arrays
        series = series_from(np.resize([0.02, -0.01, 0.0, -0.005], 2520))
        tracemalloc.start()
        try:
            mrp_fast(series, 2, 252)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(scored) > 0.2 * feasible_window_count(series, 2, 252, SHARPE)
        assert peak < 6_000_000


class TestScanReadsOnlyItsKind:
    """The window scan reads definedness once, through f, and a search
    builds only the arrays of the kind it scores."""

    def test_searches_at_s2_never_gather(self, monkeypatch):
        def gathering(*args):
            raise AssertionError("metric_many called")
        monkeypatch.setattr(engine, "metric_many", gathering)
        monkeypatch.setattr(series_module, "metric_many", gathering)
        series = series_from(two_regime_series(600, 3))
        for kind in (SHARPE, sortino(1e-4)):
            mrp_fast(series, 2, 40, kind)
            mrp_fast(series, 3, 40, kind)
            sensitivity_grid(series, (1.0, 2.0), (0.2, 0.4), s=2, kind=kind)
            block_bootstrap_mrp(series, 20, 4, s=2, d=40, kind=kind)

    @pytest.mark.parametrize("s", [1, 2])
    def test_sortino_search_builds_no_sharpe_arrays(self, s, monkeypatch):
        tables = []

        def recording(search):
            def call(table, *args):
                tables.append(table)
                return search(table, *args)
            return call
        monkeypatch.setattr(engine, "_search", recording(engine._search))
        monkeypatch.setattr(analytics, "_search", engine._search)
        # at s = 1 the replicate driver scans the bootstrap's chunks itself
        monkeypatch.setattr(analytics, "_split_scan",
                            recording(engine._split_scan))
        series = series_from(two_regime_series(300, 4))
        kind = sortino(1e-4)
        mrp_fast(series, s, 30, kind)
        mrp_one_split(series, 30, kind)
        block_bootstrap_mrp(series, 20, 3, s=s, d=30, kind=kind)
        # at s = 2 the bootstrap's 3 rows are searched on tables of their
        # own, views of the chunk's, which no search is given
        assert len(tables) == (3 if s == 1 else 5)
        kinds = [key if isinstance(key, MetricKind) else key[0]
                 for table in tables for key in table._cache]
        assert kinds and set(kinds) == {kind}


class TestPartitionSpec:
    def test_short_segment_rejected(self):
        with pytest.raises(ValueError):
            PartitionSpec(splits=(1,), n=10, d=2)

    def test_segments(self):
        spec = PartitionSpec(splits=(3, 6), n=10, d=2)
        assert spec.segments == ((0, 3), (3, 6), (6, 10))
