import datetime
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import minregime.series as series_module
from minregime import (
    DateOrderError,
    EmptySeries,
    Frequency,
    NonFiniteReturn,
    ReturnSeries,
    SegmentTooShort,
    SeriesTooShort,
    WealthNonPositive,
    ZeroVariance,
    block_bootstrap_mrp,
    build_prefix_sums,
    max_drawdown,
    mrp_brute_force,
    mrp_fast,
    rolling_sharpe_volatility,
    segment_metric,
    series_metric,
    sortino,
)
from minregime.engine import _split_scan
from minregime.series import (
    SHARPE,
    _direct,
    _kind_arrays,
    _parts,
    _prefix_table,
    _witness_span,
    defined_ends,
    metric_many,
)

from conftest import make_series, series_from


def two_pass_sharpe(values, ppy):
    """Independent oracle: plain two-pass mean/std Sharpe."""
    values = np.asarray(values)
    mean = values.mean()
    sd = math.sqrt(((values - mean) ** 2).sum() / (len(values) - 1))
    return mean / sd * math.sqrt(ppy)


class TestPrefixSums:
    def test_constant_ones(self):
        s = series_from(np.ones(5))
        table = build_prefix_sums(s)
        assert table.sum1.tolist() == [0, 1, 2, 3, 4, 5]
        assert _kind_arrays(table, SHARPE)[0].tolist() == [0, 1, 2, 3, 4, 5]

    def test_empty_series_rejected(self):
        s = series_from([])
        with pytest.raises(EmptySeries):
            build_prefix_sums(s)

    def test_matches_two_pass(self, rng):
        s = make_series(300, seed=7)
        table = build_prefix_sums(s)
        for _ in range(200):
            a = int(rng.integers(0, 298))
            b = int(rng.integers(a + 2, 301))
            _, mean, var = _parts(table, np.array([a]), np.array([b]), SHARPE)
            seg = s.returns[a:b]
            assert mean[0] == pytest.approx(seg.mean(), abs=1e-12)
            assert math.sqrt(var[0]) == pytest.approx(seg.std(ddof=1), abs=1e-12)

    def test_single_observation_stdev_flagged(self):
        table = build_prefix_sums(make_series(10))
        assert math.isnan(metric_many(table, np.array([3]), np.array([4]),
                                      SHARPE)[0])


class TestSegmentMetric:
    def test_alternating_zero_mean(self):
        s = series_from([0.01, -0.01] * 5)
        table = build_prefix_sums(s)
        assert segment_metric(table, 0, 10) == pytest.approx(0.0, abs=1e-15)

    def test_constant_zero_variance(self):
        table = build_prefix_sums(series_from([0.02] * 6))
        with pytest.raises(ZeroVariance):
            segment_metric(table, 0, 6)

    def test_too_short(self):
        table = build_prefix_sums(make_series(10))
        with pytest.raises(SegmentTooShort):
            segment_metric(table, 3, 4)

    def test_matches_direct_oracle(self, rng):
        s = make_series(500, seed=3)
        table = build_prefix_sums(s)
        for _ in range(100):
            a = int(rng.integers(0, 490))
            b = int(rng.integers(a + 2, 501))
            expected = two_pass_sharpe(s.returns[a:b], 252)
            assert segment_metric(table, a, b) == pytest.approx(expected, abs=1e-10)

    def test_scale_invariance(self, rng):
        s = make_series(200, seed=5)
        table = build_prefix_sums(s)
        for c in (0.5, 3.0, 1e-4):
            scaled = build_prefix_sums(s.scaled(c))
            for a, b in [(0, 200), (10, 90), (150, 199)]:
                assert segment_metric(scaled, a, b) == pytest.approx(
                    segment_metric(table, a, b), abs=1e-12)

    def test_sortino_downside_only(self):
        s = series_from([0.02, -0.01, 0.03, -0.02, 0.01, 0.0])
        table = build_prefix_sums(s)
        kind = sortino(0.0)
        downside = np.minimum(s.returns, 0.0)
        dd = math.sqrt(np.mean(downside ** 2))
        expected = s.returns.mean() / dd * math.sqrt(252)
        assert segment_metric(table, 0, 6, kind) == pytest.approx(expected)

    def test_sortino_all_positive_zero_denominator(self):
        table = build_prefix_sums(series_from([0.01, 0.02, 0.03]))
        with pytest.raises(ZeroVariance):
            segment_metric(table, 0, 3, sortino(0.0))

    def test_metric_many_nan_flags(self):
        s = series_from([0.01, 0.01, 0.01, 0.02, -0.01])
        table = build_prefix_sums(s)
        vals = metric_many(table, np.array([0, 0, 4]), np.array([3, 5, 5]), SHARPE)
        assert math.isnan(vals[0])       # constant segment
        assert not math.isnan(vals[1])
        assert math.isnan(vals[2])       # length 1

    def test_cancelled_variance_of_distinct_values_recomputed(self):
        # after large returns the prefix sums cancel the tiny variance of
        # [3, 6); it holds two distinct values, so its Sharpe is defined
        values = [3.1, 3.1, 5.7, 0.1, 0.1, 0.1 + 2 ** -55, 0.1, -0.05]
        table = build_prefix_sums(series_from(values))
        got = metric_many(table, np.array([3, 0]), np.array([6, 3]), SHARPE)
        assert got[0] == pytest.approx(two_pass_sharpe(values[3:6], 252),
                                       rel=1e-6)
        assert got[1] == pytest.approx(two_pass_sharpe(values[0:3], 252),
                                       rel=1e-12)

    @pytest.mark.parametrize("values, kind, recomputed", [
        # [3, 6) and [2, 5) cancel their spread to 0, so ``_direct``
        # scores them
        ([3.1, 3.1, 5.7, 0.1, 0.1, 0.1 + 2 ** -55, 0.1, -0.05], SHARPE, True),
        ([0.01, -0.5, -1e-13, 0.0, -1e-13, 0.02, 0.03], sortino(0.0), True),
        # [1, 5) and [1, 4) keep a wrong spread > 0 after the large first
        # return, so the kernel's value stands
        ([0.3, -0.1, -0.1, -0.1, -0.1 - 2 ** -55, 0.2, -0.1, 0.05], SHARPE,
         False),
        ([-0.5, -1e-6, 0.0, 0.001], sortino(0.0), False),
    ])
    def test_metric_many_broadcast_bounds(self, values, kind, recomputed,
                                          monkeypatch):
        # a (T, 1) start against a (T, W) end scores, bit for bit and NaN
        # for NaN, as the same bounds materialized flat
        table = build_prefix_sums(series_from(values))
        n = len(values)
        start = np.arange(n)[:, None]
        end = np.minimum(start + np.arange(n + 1), n)
        direct = []
        monkeypatch.setattr(series_module, "_direct",
                            lambda *a: direct.append(a) or _direct(*a))
        got = metric_many(table, start, end, kind)
        assert bool(direct) == recomputed
        flat = metric_many(table, np.broadcast_to(start, end.shape).ravel(),
                           end.ravel(), kind)
        assert got.shape == end.shape
        assert got.tobytes() == flat.tobytes()


class TestSortinoPrefix:
    def test_absorbed_shortfall_recomputed(self):
        # the prefix sum of squared shortfalls absorbs the two 1e-26 terms
        # after 0.25, so [2, 5) reads a zero downside there; it holds
        # returns below mar, so it is recomputed directly, not NaN
        values = [0.01, -0.5, -1e-13, 0.0, -1e-13, 0.02, 0.03]
        table = build_prefix_sums(series_from(values))
        kind = sortino(0.0)
        got = metric_many(table, np.array([2]), np.array([5]), kind)[0]
        assert got == _direct(table.returns[2:5], kind, table.periods_per_year)
        assert got == pytest.approx(-12.9615, abs=1e-4)
        row = metric_many(table, np.full(4, 2), np.arange(4, 8), kind)
        assert row[1] == got

    def test_no_return_below_mar_is_nan(self):
        table = build_prefix_sums(series_from([-0.02, 0.01, 0.0, 0.03, -0.01]))
        got = metric_many(table, np.array([1, 1, 0]), np.array([4, 5, 1]),
                          sortino(0.0))
        assert math.isnan(got[0])        # no return below 0
        assert got[1] == pytest.approx(_direct(table.returns[1:5], sortino(0.0),
                                               table.periods_per_year),
                                       rel=1e-12)
        assert math.isnan(got[2])        # length 1

    def test_one_entry_per_kind(self):
        series = make_series(50)
        table = build_prefix_sums(series)
        # a kind's spread prefix and witness mask are one entry, built
        # once; its defined ends another, built on the first gathered call
        assert not table._cache  # the table holds no kind's arrays yet
        segment_metric(table, 0, 50)  # Sharpe only: no Sortino entry
        assert set(table._cache) == {SHARPE, (SHARPE, "ends")}
        sharpe = table._cache[SHARPE]
        assert np.array_equal(sharpe[0], np.concatenate(
            ([0.0], np.cumsum(series.returns ** 2))))
        segment_metric(table, 10, 40)
        assert table._cache[SHARPE] is sharpe
        low, high = sortino(0.0), sortino(0.001)
        entry = _kind_arrays(table, low)
        assert (low, "ends") not in table._cache
        metric_many(table, np.arange(10), np.arange(10) + 5, low)
        assert table._cache[low] is entry
        ends = table._cache[low, "ends"]
        metric_many(table, np.arange(10), np.arange(10) + 7, low)
        assert defined_ends(table, low) is ends
        assert table._cache[low] is entry
        down2 = _kind_arrays(table, high)[0]
        assert set(table._cache) == {SHARPE, (SHARPE, "ends"), low,
                                     (low, "ends"), high}
        shortfall = np.minimum(table.returns - 0.001, 0.0)
        assert np.allclose(down2, np.concatenate(([0.0],
                                                  np.cumsum(shortfall ** 2))))


SMALL_ALPHABET = (0.0, 0.01, -0.01, 0.02, -0.03)
LARGE_LOSS, TINY_LOSS = -0.5, -1e-13


@st.composite
def kernel_values(draw, n):
    """n returns over a small alphabet with injected constant runs (zero
    runs among them) and runs of tiny losses and zeros after a large
    loss."""
    values = draw(st.lists(st.sampled_from(SMALL_ALPHABET),
                           min_size=n, max_size=n))
    for _ in range(draw(st.integers(0, 3))):
        start = draw(st.integers(0, n - 1))
        stop = min(n, start + draw(st.integers(2, 12)))
        values[start:stop] = [draw(st.sampled_from(SMALL_ALPHABET))] * (stop - start)
    for _ in range(draw(st.integers(0, 2))):
        start = draw(st.integers(0, n - 1))
        tail = draw(st.lists(st.sampled_from([TINY_LOSS, 0.0]), max_size=6))
        chunk = [LARGE_LOSS] + tail
        values[start:start + len(chunk)] = chunk[:n - start]
    return values


@st.composite
def kernel_cases(draw):
    """A short series from ``kernel_values``, a Sortino threshold, and
    segment bounds."""
    n = draw(st.integers(2, 40))
    values = draw(kernel_values(n))
    mar = draw(st.sampled_from([0.0, 0.001, -0.001]))
    bound = st.integers(0, n)
    segments = draw(st.lists(st.tuples(bound, bound), min_size=1, max_size=20))
    return values, mar, [tuple(sorted(ab)) for ab in segments]


@st.composite
def matrix_cases(draw):
    """One to four rows from ``kernel_values`` of a common length, a
    least segment d, and a Sortino threshold."""
    n = draw(st.integers(4, 30))
    rows = draw(st.lists(kernel_values(n), min_size=1, max_size=4))
    return (rows, draw(st.integers(2, n // 2)),
            draw(st.sampled_from([0.0, 0.001, -0.001])))


class TestKernelProperties:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(kernel_cases())
    def test_sortino_matches_direct_pass(self, case):
        values, mar, segments = case
        table = build_prefix_sums(series_from(values))
        starts, ends = (np.array(x) for x in zip(*segments))
        got = metric_many(table, starts, ends, sortino(mar))
        for (a, b), value in zip(segments, got.tolist()):
            want = _direct(table.returns[a:b], sortino(mar),
                           table.periods_per_year) if b - a > 1 else math.nan
            assert math.isnan(value) == math.isnan(want), (a, b)
            if not math.isnan(want):
                assert math.isclose(value, want, rel_tol=1e-9, abs_tol=1e-9)


def bits(values: np.ndarray) -> list[int]:
    return values.view(np.int64).ravel().tolist()


class TestMatrixTable:
    # row 0: a zero run and then tiny losses after a large one, whose
    # prefix sums cancel or absorb the right side's spread (recomputed by
    # ``_direct``); row 1: constant sides with no defined metric (NaN)
    @example(([[0.01, -0.01, 0.0, 0.0, 0.0, LARGE_LOSS, TINY_LOSS, 0.0,
                TINY_LOSS, 0.0],
               [0.0, 0.0, 0.0, 0.0, 0.0, 0.02, 0.02, 0.02, 0.02, 0.02]],
              3, 0.0))
    # rows lacking a witness near the left edge, near the right edge, and
    # neither: each side's mask holds on some rows and fails on others
    @example(([[0.01] * 5 + [0.02, -0.01, 0.03, -0.02, 0.01],
               [0.02, -0.01, 0.03, -0.02, 0.01] + [0.01] * 5,
               [0.01, -0.02, 0.015, 0.0, -0.01, 0.02, -0.005, 0.01, -0.015,
                0.005]],
              2, 0.0))
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(matrix_cases())
    def test_split_scan_matches_each_row(self, case):
        rows, d, mar = case
        table = _prefix_table(np.array(rows), 252)
        for kind in (SHARPE, sortino(mar)):
            left, right = _split_scan(table, d, kind)
            for k, row in enumerate(rows):
                want = _split_scan(build_prefix_sums(series_from(row)), d, kind)
                assert bits(left[k]) == bits(want[0]), (kind, k)
                assert bits(right[k]) == bits(want[1]), (kind, k)


#: a large loss, then tiny ones: the downside prefix absorbs the tiny
#: shortfalls, so the right sides after the loss are recomputed
ABSORBED_SORTINO_ROW = [LARGE_LOSS] + [TINY_LOSS] * 11
#: the same for Sharpe: the squared returns after 1e3 are absorbed
ABSORBED_SHARPE_ROW = [1e3] + [1e-13, -1e-13] * 6


class TestSplitScanOracle:
    def test_sides_match_gathered_kernel(self):
        """Every split's left and right side, from the table of one
        series and from a matrix table's row, against ``metric_many`` of
        [0, t) and [t, n) on the row's own table, bit for bit, NaN
        included; some scans must take the direct recompute."""
        recomputed = []
        direct = series_module._direct

        def counted(*args):
            recomputed.append(args)
            return direct(*args)

        def scan(table, d, kind):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(series_module, "_direct", counted)
                return _split_scan(table, d, kind)

        @example(([ABSORBED_SORTINO_ROW], 2, 0.0))
        @example(([ABSORBED_SHARPE_ROW], 2, 0.0))
        @settings(max_examples=300, deadline=None, derandomize=True)
        @given(matrix_cases())
        def check(case):
            rows, d, mar = case
            matrix = _prefix_table(np.array(rows), 252)
            n = matrix.n
            t = np.arange(d, n - d + 1)
            for kind in (SHARPE, sortino(mar)):
                left, right = scan(matrix, d, kind)
                for k, row in enumerate(rows):
                    one = build_prefix_sums(series_from(row))
                    want = (metric_many(one, np.zeros_like(t), t, kind),
                            metric_many(one, t, np.full_like(t, n), kind))
                    for got in ((left[k], right[k]), scan(one, d, kind)):
                        assert bits(got[0]) == bits(want[0]), (kind, k)
                        assert bits(got[1]) == bits(want[1]), (kind, k)

        check()
        assert recomputed


UNDERFLOW_LOSS = -1e-170  # its squared shortfall below 0 underflows to 0.0
ENDS_ALPHABET = SMALL_ALPHABET + (UNDERFLOW_LOSS,)


@st.composite
def ends_cases(draw):
    """A short series over a small alphabet holding a loss whose square
    underflows, with injected constant runs (zero runs among them), and
    a Sortino threshold."""
    n = draw(st.integers(1, 30))
    values = draw(st.lists(st.sampled_from(ENDS_ALPHABET),
                           min_size=n, max_size=n))
    for _ in range(draw(st.integers(0, 3))):
        start = draw(st.integers(0, n - 1))
        stop = min(n, start + draw(st.integers(2, 12)))
        values[start:stop] = [draw(st.sampled_from(ENDS_ALPHABET))] * (stop - start)
    return values, draw(st.sampled_from([0.0, 0.001, -0.001]))


def least_defined_end(values, a, kind):
    """Direct loop: the least b with [a, b) of >= 2 observations holding
    two distinct values (Sharpe) or a return with a squared shortfall
    below ``mar`` that is > 0 (Sortino); None if no b <= n works."""
    for b in range(a + 2, len(values) + 1):
        seg = values[a:b]
        if kind.name == "sortino":
            if any(min(r - kind.mar, 0.0) ** 2 > 0 for r in seg):
                return b
        elif len(set(seg)) > 1:
            return b
    return None


class TestDefinedEnds:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(ends_cases())
    def test_matches_direct_loop(self, case):
        values, mar = case
        n = len(values)
        table = build_prefix_sums(series_from(values))
        for kind in (SHARPE, sortino(mar)):
            ends = defined_ends(table, kind)
            assert ends is defined_ends(table, kind)
            assert ends.shape == (n + 1,) and ends[n] > n
            for a in range(n):
                want = least_defined_end(values, a, kind)
                if want is None:
                    assert ends[a] > n, (kind, a)
                else:
                    assert ends[a] == want, (kind, a)

    @example(([UNDERFLOW_LOSS, UNDERFLOW_LOSS, 0.01, UNDERFLOW_LOSS], 0.0))
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(ends_cases())
    def test_witness_span_reads_first_and_last(self, case):
        # the split scan's rule: e[0] and the last start a with e[a] <= n,
        # per row, of a series and of a two-row matrix table
        values, mar = case
        n = len(values)
        rows = np.array([values, values[::-1]])
        matrix = _prefix_table(rows, 252)
        for kind in (SHARPE, sortino(mar)):
            first, last = _witness_span(matrix, kind)
            for k, row in enumerate(rows):
                table = build_prefix_sums(series_from(row))
                ends = defined_ends(table, kind)
                covered = np.flatnonzero(ends <= n)
                want = ends[0], covered[-1] if covered.size else -1
                assert (first[k], last[k]) == want, (kind, k)
                assert _witness_span(table, kind) == want, (kind, k)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(ends_cases())
    def test_defined_segments_score_finite(self, case):
        # a two-pass spread of returns within 1e-154 of each other
        # underflows; the metric must not read NaN where the rule says
        # defined
        values, mar = case
        n = len(values)
        table = build_prefix_sums(series_from(values))
        starts, ends = np.triu_indices(n + 1, k=1)
        for kind in (SHARPE, sortino(mar)):
            got = metric_many(table, starts, ends, kind)
            defined = ends >= defined_ends(table, kind)[starts]
            assert np.isfinite(got[defined]).all()
            assert np.isnan(got[~defined]).all()


class TestMaxDrawdown:
    def test_monotone_wealth_zero(self):
        assert max_drawdown(series_from([0.01, 0.0, 0.02])) == 0.0

    def test_known_path(self):
        # wealth: 1.1 -> 0.55 -> 0.66; peak 1.1, trough 0.55
        assert max_drawdown(series_from([0.1, -0.5, 0.2])) == pytest.approx(0.5)

    def test_bounds(self, rng):
        for seed in range(50):
            s = make_series(100, seed=seed, sigma=0.05)
            if np.any(s.returns <= -1):
                continue
            dd = max_drawdown(s)
            assert 0.0 <= dd < 1.0
            nondecreasing = np.all(s.returns >= 0)
            assert (dd == 0.0) == nondecreasing

    def test_total_loss_rejected(self):
        with pytest.raises(WealthNonPositive):
            max_drawdown(series_from([0.1, -1.0, 0.1]))


class TestRollingSharpeVolatility:
    def test_identical_blocks_zero(self):
        block = [0.01, -0.02, 0.03, 0.005]
        s = series_from(block * 6)
        # every window of length 4 starting at multiples of 4 is identical,
        # but intermediate windows differ; use direct oracle instead
        got = rolling_sharpe_volatility(s, 4)
        sharpes = [two_pass_sharpe(s.returns[i:i + 4], 252)
                   for i in range(len(s) - 3)]
        assert got == pytest.approx(np.std(sharpes, ddof=1), abs=1e-10)

    def test_length_equal_window_rejected(self):
        with pytest.raises(SeriesTooShort):
            rolling_sharpe_volatility(make_series(10), 10)

    def test_matches_direct_oracle(self):
        s = make_series(150, seed=11)
        got = rolling_sharpe_volatility(s, 30)
        sharpes = [two_pass_sharpe(s.returns[i:i + 30], 252)
                   for i in range(121)]
        assert got == pytest.approx(np.std(sharpes, ddof=1), abs=1e-10)

    def test_zero_variance_window_skipped_with_warning(self):
        vals = [0.01] * 6 + [0.03, -0.02, 0.04, -0.01, 0.02, 0.015]
        s = series_from(vals)
        with pytest.warns(UserWarning, match="zero-variance"):
            rolling_sharpe_volatility(s, 5)


class TestReturnSeries:
    def test_duplicate_dates_rejected(self):
        s = series_from([0.01, 0.02])
        with pytest.raises(DateOrderError,
                           match="'test': date 2000-01-01 not after 2000-01-01"):
            ReturnSeries(dates=(s.dates[0], s.dates[0]),
                         returns=np.array([0.1, 0.2]), label="test")

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            series_from([0.01, np.nan])
        with pytest.raises(NonFiniteReturn, match=(
                "series 'test': return on 2000-01-03 is not finite")) as info:
            series_from([0.01, -0.02, np.inf, np.nan])
        # callers that catch ValueError still catch it
        assert isinstance(info.value, ValueError)

    @pytest.mark.parametrize("kind", [SHARPE, sortino(0.0)],
                             ids=["sharpe", "sortino"])
    def test_overflowing_sums_rejected(self, kind):
        # finite returns whose squares overflow scored 0.0 or -0.0, a
        # minimum above the -20.5 (Sharpe) and -13.0 (Sortino) of the
        # same series at scale 1
        large = make_series(40, seed=5).scaled(1e160)
        # positive returns whose sum overflows: no shortfall, so only
        # sum1 ends in an inf under Sortino
        summed = series_from([1e308, 1e308] + [0.01, -0.02] * 19)
        calls = [lambda s: mrp_fast(s, 1, 5, kind),
                 lambda s: mrp_fast(s, 2, 5, kind),
                 lambda s: mrp_brute_force(s, 1, 5, kind),
                 lambda s: series_metric(s, kind),
                 lambda s: block_bootstrap_mrp(s, 5, 4, d=5, kind=kind)]
        for s in (large, summed):
            for call in calls:
                with pytest.raises(NonFiniteReturn,
                                   match=f"{kind.name} sums") as info:
                    call(s)
                assert isinstance(info.value, ValueError)

    def test_bootstrap_replicate_overflow(self):
        # one return near 1.2e154: the series' squared sum is finite and
        # mrp_fast scores it, but a replicate that draws that return twice
        # holds a squared sum of about 2.9e308, which overflows: an error
        # naming the replicate, not a replicate scored from an infinite
        # prefix. A series whose own sums overflow gets mrp_fast's error.
        values = [0.01, -0.02] * 20
        values[7] = 1.2e154
        s = series_from(values)
        assert np.isfinite(mrp_fast(s, 1, 5).value)
        for splits in (1, 2):
            with pytest.raises(NonFiniteReturn,
                               match="^sharpe sums of bootstrap replicate 7 "
                                     "overflow; the series' own do not$"):
                block_bootstrap_mrp(s, 1, 50, s=splits, d=5, seed=1)
        values[7] = 1.2e155
        s = series_from(values)
        for call in (lambda: mrp_fast(s, 1, 5),
                     lambda: block_bootstrap_mrp(s, 1, 50, s=1, d=5, seed=1)):
            with pytest.raises(NonFiniteReturn,
                               match="^sharpe sums of the returns overflow$"):
                call()

    def test_squared_sum_overflow_is_recomputed(self):
        # returns near 1.3e153: every prefix is finite, but a window's
        # squared sum overflows in the kernel, so its spread reads -inf
        # and the window is scored directly, with no RuntimeWarning
        base = make_series(100, seed=6, mu=1.0, sigma=0.01)
        large = base.scaled(1.3e153)
        value = mrp_fast(large, 1, 10).value
        assert value == mrp_brute_force(large, 1, 10).value
        assert value == pytest.approx(mrp_fast(base, 1, 10).value, rel=1e-9)

    def test_scalar_returns_rejected(self):
        # the shape is checked before the lengths, which a 0-d array lacks
        with pytest.raises(ValueError, match="returns must be one-dimensional"):
            ReturnSeries(dates=[datetime.date(2000, 1, 3)], returns=0.5)

    def test_frequency_periods(self):
        assert Frequency.DAILY.periods_per_year == 252
        assert Frequency.MONTHLY.periods_per_year == 12

    def test_dates_one_read_only_day_array(self):
        days = [datetime.date(1999, 12, 30), datetime.date(2000, 1, 3),
                datetime.date(2000, 1, 4)]
        s = ReturnSeries(dates=tuple(days), returns=[0.01, -0.02, 0.03])
        assert s.dates.dtype == np.dtype("datetime64[D]")
        assert not s.dates.flags.writeable
        assert s.dates.tolist() == days
        # numpy scalars and strings take numpy's own conversion
        same = ReturnSeries(dates=["1999-12-30", s.dates[1], s.dates[2]],
                            returns=s.returns)
        assert np.array_equal(same.dates, s.dates)

    def test_derived_series_share_the_date_array(self):
        s = series_from([0.01, -0.02, 0.03, 0.0])
        assert np.shares_memory(s.window(1, 3).dates, s.dates)
        assert s.reversed().dates is s.dates
        assert s.scaled(2.0).dates is s.dates

    def test_unordered_dates_rejected(self):
        s = series_from([0.01, 0.02, 0.03])
        with pytest.raises(DateOrderError, match="2000-01-02") as info:
            ReturnSeries(dates=s.dates[[0, 2, 1]], returns=s.returns)
        # callers that catch ValueError still catch it
        assert isinstance(info.value, ValueError)

    @pytest.mark.parametrize("days, want", [
        (["NaT", "2000-01-03", "2000-01-04"], "2000-01-03 not after NaT"),
        (["2000-01-01", "NaT", "2000-01-04"], "NaT not after 2000-01-01"),
        (["2000-01-01", "2000-01-03", "NaT"], "NaT not after 2000-01-03"),
        (["2000-01-01", "2000-01-04", "2000-01-04"],
         "2000-01-04 not after 2000-01-04"),
        (["2000-01-01", "2000-01-04", "2000-01-03"],
         "2000-01-03 not after 2000-01-04"),
    ], ids=["nat-first", "nat-middle", "nat-last", "equal", "decreasing"])
    def test_date_order_messages(self, days, want):
        # NaT is after no date and no date is after it; the message names
        # the first pair out of order
        with pytest.raises(DateOrderError, match=f"^series 't': date {want}$"):
            ReturnSeries(dates=np.array(days, dtype="datetime64[D]"),
                         returns=[0.0] * 3, label="t")
