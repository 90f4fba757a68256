import datetime
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minregime import (
    SHARPE,
    DateMismatch,
    DegenerateVector,
    Frequency,
    Infeasible,
    InvalidBlock,
    NoValidPartition,
    PortfolioSpec,
    ReturnSeries,
    ZeroVariance,
    block_bootstrap_mrp,
    factor_report,
    frontier,
    mrp_brute_force,
    mrp_fast,
    portfolio_mrp,
    robustness_correlations,
    sensitivity_grid,
    series_metric,
    sortino,
)
import minregime.analytics as analytics_module
import minregime.engine as engine_module
import minregime.series as series_module
from minregime.analytics import FactorReport, _trailing_window
from minregime.engine import mrp_one_split

from conftest import make_series, series_from


class TestFactorReport:
    def test_mrp_is_min_of_sides(self):
        s = make_series(600, seed=2)
        rep = factor_report(s, lookback_years=2.0, d_years=0.25)
        assert rep.mrp1 == min(rep.left_sr, rep.right_sr)

    def test_trailing_window_used(self):
        s = make_series(800, seed=3)
        rep = factor_report(s, lookback_years=1.0, d_years=0.25)
        win = _trailing_window(s, 1.0)
        assert len(win) == 252
        assert rep.full_sharpe == pytest.approx(series_metric(win))
        assert rep.mrp1 == mrp_one_split(win, 63).value

    def test_window_too_short(self):
        with pytest.raises(Infeasible):
            factor_report(make_series(100), lookback_years=1.0, d_years=1.0)

    def test_min_selection_bias(self):
        # stationary series: the split minimum sits below the full metric
        # in nearly all draws
        hits = 0
        trials = 200
        for seed in range(trials):
            s = make_series(260, seed=seed)
            rep = factor_report(s, lookback_years=1.0, d_years=0.2)
            hits += rep.mrp1 < rep.full_sharpe
        assert hits / trials >= 0.95


def _rep(label, sharpe, mrp):
    return FactorReport(label, sharpe, mrp, mrp, sharpe,
                        datetime.date(2000, 1, 1))


class TestFrontier:
    def test_single_point_not_dominated(self):
        pts = frontier([_rep("a", 0.5, -0.2)])
        assert not pts[0].dominated

    def test_definition(self):
        pts = frontier([_rep("a", 0.5, -0.2), _rep("b", 0.6, -0.1)])
        flags = {p.label: p.dominated for p in pts}
        assert flags == {"a": True, "b": False}

    def test_irreflexive_and_acyclic(self, rng):
        reports = [_rep(f"f{i}", rng.normal(), rng.normal()) for i in range(12)]
        pts = frontier(reports)
        best = max(pts, key=lambda p: (p.x, p.y))
        # a maximal point can never be dominated
        assert not any(p.dominated for p in pts
                       if p.x >= best.x and p.y >= best.y)

    def test_ties_not_dominated(self):
        pts = frontier([_rep("a", 0.5, -0.2), _rep("b", 0.5, -0.2)])
        assert not any(p.dominated for p in pts)


class TestSensitivityGrid:
    def test_infeasible_cells_marked(self):
        s = make_series(260, seed=1)  # just over one year of data
        grid = sensitivity_grid(s, lookbacks_years=[1.0], d_years=[0.25, 0.75])
        assert not math.isnan(grid.cells[0, 0])
        assert math.isnan(grid.cells[0, 1])  # 2*d > lookback

    def test_cells_match_recomputation(self):
        s = make_series(600, seed=4)
        grid = sensitivity_grid(s, lookbacks_years=[1.0, 2.0],
                                d_years=[0.2, 0.4])
        for i, lb in enumerate(grid.lookbacks_years):
            for j, dy in enumerate(grid.d_years):
                win = _trailing_window(s, lb)
                d = int(round(dy * 252))
                expected = (mrp_brute_force(win, 1, d).value
                            - series_metric(win))
                assert grid.cells[i, j] == pytest.approx(expected, abs=1e-12)

    def test_jobs_independent(self):
        s = make_series(400, seed=5)
        g1 = sensitivity_grid(s, [1.0, 1.5], [0.2, 0.3], jobs=1)
        g2 = sensitivity_grid(s, [1.0, 1.5], [0.2, 0.3], jobs=4)
        assert np.array_equal(g1.cells, g2.cells, equal_nan=True)

    @pytest.mark.parametrize("s, d_years", [(0, (1 / 252,)), (-3, (1 / 252,)),
                                            (-3, (5,)), (0, (0.2,))])
    def test_s_below_one_infeasible(self, s, d_years):
        # where no cell fits (d = 1), the grid once came back all NaN
        with pytest.raises(Infeasible, match="s must be >= 1"):
            sensitivity_grid(make_series(600, seed=6), (1, 2), d_years, s=s)

    def test_one_prefix_table_per_lookback(self, monkeypatch):
        built = []
        build = series_module._prefix_table

        def counting(*args):
            built.append(args)
            return build(*args)
        monkeypatch.setattr(series_module, "_prefix_table", counting)
        # the 1.0-year window fits d = 0.1 and 0.2 years at s = 2, the
        # 0.5-year window only 0.1; no window fits 1.0
        sensitivity_grid(make_series(400, seed=7), (0.5, 1.0), (0.1, 0.2, 1.0),
                         s=2)
        assert len(built) == 2


ALPHABET = (0.0, 0.01, -0.01, 0.02, -0.03)
#: monthly: windows of 6 to 60 periods, d of 1 (never fits) to 12 periods
GRID_LOOKBACKS = (0.5, 1.0, 2.0, 3.0, 5.0)
GRID_DS = (1 / 12, 2 / 12, 0.25, 0.5, 1.0)


@st.composite
def grid_cases(draw):
    """Monthly series over a small alphabet with injected constant runs
    (zero runs among them), at s = 1, 2 or 3, Sharpe or Sortino."""
    n = draw(st.integers(4, 48))
    values = draw(st.lists(st.sampled_from(ALPHABET), min_size=n, max_size=n))
    for _ in range(draw(st.integers(0, 3))):
        start = draw(st.integers(0, n - 1))
        stop = min(n, start + draw(st.integers(2, 16)))
        values[start:stop] = [draw(st.sampled_from(ALPHABET))] * (stop - start)
    kind = draw(st.sampled_from([SHARPE, sortino(0.0), sortino(0.01)]))
    return (series_from(values, frequency=Frequency.MONTHLY),
            draw(st.sampled_from([1, 2, 3])), kind)


def reference_grid(series, s, kind):
    """Each cell computed on its own, as (MRP - metric) of its window."""
    cells = []
    for lb in GRID_LOOKBACKS:
        win = _trailing_window(series, lb)
        row = []
        for dy in GRID_DS:
            d = int(round(dy * series.periods_per_year))
            if d < 2 or len(win) < (s + 1) * d:
                row.append(math.nan)
            else:
                row.append(mrp_fast(win, s, d, kind).value
                           - series_metric(win, kind))
        cells.append(row)
    return np.array(cells)


class TestSensitivityGridOracle:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(grid_cases())
    def test_matches_per_cell_reference(self, case):
        series, s, kind = case
        try:
            want = reference_grid(series, s, kind)
        except (NoValidPartition, ZeroVariance) as exc:
            with pytest.raises(type(exc)) as info:
                sensitivity_grid(series, GRID_LOOKBACKS, GRID_DS, s, kind)
            assert str(info.value) == str(exc)
            return
        got = sensitivity_grid(series, GRID_LOOKBACKS, GRID_DS, s, kind).cells
        assert np.array_equal(got, want, equal_nan=True)


class TestRobustnessCorrelations:
    def test_self_and_negation(self):
        v = [0.1, 0.5, -0.2, 0.3]
        names, corr = robustness_correlations(
            ["a", "b", "c", "d"], {"x": v, "y": v, "z": [-u for u in v]})
        assert corr[0, 1] == pytest.approx(1.0)
        assert corr[0, 2] == pytest.approx(-1.0)
        assert np.allclose(corr, corr.T)
        assert np.allclose(np.diag(corr), 1.0)

    def test_matches_direct_formula(self, rng):
        vecs = {k: rng.normal(size=8) for k in ("a", "b", "c")}
        labels = [f"f{i}" for i in range(8)]
        _, corr = robustness_correlations(labels, vecs)
        for i, ki in enumerate(vecs):
            for j, kj in enumerate(vecs):
                x, y = np.asarray(vecs[ki]), np.asarray(vecs[kj])
                expected = (np.mean((x - x.mean()) * (y - y.mean()))
                            / (x.std() * y.std()))
                assert corr[i, j] == pytest.approx(expected, abs=1e-12)

    def test_degenerate_vector(self):
        with pytest.raises(DegenerateVector):
            robustness_correlations(["a", "b", "c"],
                                    {"x": [1, 1, 1], "y": [1, 2, 3]})


class TestPortfolioMrp:
    def test_single_strategy_weight_one(self):
        s = make_series(60, seed=7)
        spec = PortfolioSpec((1.0,), (s,))
        direct = mrp_fast(s, 1, 10)
        combined = portfolio_mrp(spec, 1, 10)
        assert combined.value == pytest.approx(direct.value, abs=1e-12)
        assert combined.optimal_splits.splits == direct.optimal_splits.splits

    def test_two_identical_half_weights(self):
        s = make_series(60, seed=8)
        spec = PortfolioSpec((0.5, 0.5), (s, s))
        assert portfolio_mrp(spec, 1, 10).value == \
            pytest.approx(mrp_fast(s, 1, 10).value, abs=1e-12)

    def test_matches_pre_aggregated_brute_force(self, rng):
        a = make_series(50, seed=9, label="a")
        b = make_series(50, seed=10, label="b")
        w = (0.3, 0.7)
        spec = PortfolioSpec(w, (a, b))
        agg = series_from(w[0] * a.returns + w[1] * b.returns)
        assert portfolio_mrp(spec, 2, 5).value == \
            pytest.approx(mrp_brute_force(agg, 2, 5).value, abs=1e-12)

    def test_weight_scale_invariance(self):
        a = make_series(50, seed=11, label="a")
        b = make_series(50, seed=12, label="b")
        r1 = portfolio_mrp(PortfolioSpec((0.3, 0.7), (a, b)), 1, 10)
        r2 = portfolio_mrp(PortfolioSpec((3.0, 7.0), (a, b)), 1, 10)
        assert r2.value == pytest.approx(r1.value, rel=1e-12, abs=1e-12)
        assert r1.optimal_splits.splits == r2.optimal_splits.splits

    def test_alignment_inner_join(self):
        a = make_series(30, seed=13, label="a")
        # b covers a shifted range: only the overlap should be used
        b = ReturnSeries(dates=np.concatenate(
            [a.dates[10:], a.dates[-1] + np.arange(1, 11)]),
            returns=make_series(30, seed=14).returns, label="b")
        spec = PortfolioSpec((0.5, 0.5), (a, b))
        agg = 0.5 * a.returns[10:] + 0.5 * b.returns[:20]
        expected = mrp_brute_force(series_from(agg), 1, 5).value
        assert portfolio_mrp(spec, 1, 5).value == pytest.approx(expected, abs=1e-12)

    def test_no_overlap(self):
        a = make_series(10, seed=15, label="a")
        b = ReturnSeries(
            dates=tuple(a.dates[-1] + datetime.timedelta(days=i)
                        for i in range(1, 11)),
            returns=make_series(10, seed=16).returns, label="b")
        with pytest.raises(DateMismatch):
            portfolio_mrp(PortfolioSpec((0.5, 0.5), (a, b)), 1, 2)

    def test_all_zero_weights_rejected(self):
        s = make_series(20, seed=17)
        with pytest.raises(ValueError):
            PortfolioSpec((0.0,), (s,))


class TestBlockBootstrap:
    def test_reproducible_single_replicate(self):
        s = make_series(120, seed=18)
        a = block_bootstrap_mrp(s, block_len=20, replicates=1, d=20, seed=5)
        b = block_bootstrap_mrp(s, block_len=20, replicates=1, d=20, seed=5)
        assert a.values[0] == b.values[0]

    def test_block_too_long(self):
        with pytest.raises(InvalidBlock):
            block_bootstrap_mrp(make_series(50), block_len=51, replicates=10)

    def test_jobs_independent(self):
        s = make_series(150, seed=19)
        a = block_bootstrap_mrp(s, 25, 16, d=25, seed=7, jobs=1)
        b = block_bootstrap_mrp(s, 25, 16, d=25, seed=7, jobs=4)
        assert np.array_equal(a.values, b.values)

    def test_mean_matches_fresh_series_simulation(self):
        # i.i.d. input: bootstrap replicates and fresh draws share the MRP
        # law up to the empirical-distribution plug-in, so compare at the
        # scale of the fresh-series MRP spread
        mu, sigma, n, d = 0.0005, 0.01, 252, 63
        s = make_series(n, seed=20, mu=mu, sigma=sigma)
        boot = block_bootstrap_mrp(s, block_len=63, replicates=120, d=d, seed=1)
        fresh = [mrp_fast(make_series(n, seed=500 + i, mu=mu, sigma=sigma),
                          1, d).value for i in range(120)]
        fresh = np.asarray(fresh)
        assert abs(boot.mean - fresh.mean()) <= 3 * fresh.std(ddof=1)

    def test_envelope_contains_original(self):
        hits = 0
        for seed in range(30):
            s = make_series(120, seed=700 + seed)
            original = mrp_fast(s, 1, 20).value
            boot = block_bootstrap_mrp(s, 15, 60, d=20, seed=seed)
            hits += boot.values.min() <= original <= boot.values.max()
        assert hits / 30 >= 0.9

    def test_builds_no_series_per_replicate(self, monkeypatch):
        s = make_series(120, seed=22)
        built = []
        post_init = ReturnSeries.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)
        monkeypatch.setattr(ReturnSeries, "__post_init__", counting)
        block_bootstrap_mrp(s, 10, 12, s=2, d=20, seed=3)
        assert not built

    def test_one_prefix_table_per_chunk(self, monkeypatch):
        # at s = 2 each replicate row is searched on its row of the
        # chunk's table, with no table of its own
        s = make_series(120, seed=22)
        built = []
        build = series_module._prefix_table

        def counting(*args):
            built.append(args)
            return build(*args)
        # every module that may bind the builder under its own name
        for module in (series_module, analytics_module, engine_module):
            monkeypatch.setattr(module, "_prefix_table", counting,
                                raising=False)
        replicates = 150
        block_bootstrap_mrp(s, 10, replicates, s=2, d=20, seed=3)
        rows = analytics_module._CHUNK // (2 * len(s))
        assert len(built) == -(-replicates // rows) == 3

    def test_memory_flat_in_replicates(self):
        # the block starts are drawn chunk by chunk: 20,000 replicates of
        # 200 draws each would hold 32 MB of them at once
        s = make_series(200, seed=23)
        peaks = []
        for replicates in (1_000, 20_000):
            tracemalloc.start()
            try:
                block_bootstrap_mrp(s, 1, replicates, d=20, seed=4)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] + 2_000_000

    def test_summary_fields(self):
        s = make_series(100, seed=21)
        boot = block_bootstrap_mrp(s, 10, 40, d=15, seed=2)
        assert boot.values.shape == (40,)
        assert boot.quantiles[0.05] <= boot.quantiles[0.5] <= boot.quantiles[0.95]
        assert boot.mean == pytest.approx(boot.values.mean())


def drawn_replicates(series, block_len, replicates, seed):
    """The replicates ``block_bootstrap_mrp`` draws, gathered through an
    index matrix taken modulo n."""
    n = len(series)
    rng = np.random.Generator(np.random.Philox(seed))
    nblocks = -(-n // block_len)
    starts = rng.integers(0, n, size=(replicates, nblocks))
    idx = (starts[:, :, None] + np.arange(block_len)).reshape(replicates, -1)
    return series.returns[idx[:, :n] % n]


def reference_values(series, s, d, kind, block_len, replicates, seed):
    """Each replicate scored on its own by ``mrp_brute_force``: at s = 1
    ``mrp_fast`` runs the batched path's split scan, so enumeration is the
    reference that shares none of it."""
    return [mrp_brute_force(replace(series, returns=row), s, d, kind).value
            for row in drawn_replicates(series, block_len, replicates, seed)]


@st.composite
def bootstrap_cases(draw):
    """Series over a small alphabet with ties, or at a large offset with
    vol 1e-3 or 1e-12 (prefix sums cancel), with injected constant runs
    (zero runs among them) and runs of tiny returns after a large one; s = 1, 2 or 3, Sharpe or Sortino, and
    a chunk of 1 to 7 rows that need not divide the replicates."""
    s = draw(st.sampled_from([1, 2, 3]))
    d = draw(st.integers(2, 6))
    n = draw(st.integers((s + 1) * d, 40))
    if draw(st.booleans()):
        values = draw(st.lists(st.sampled_from(ALPHABET), min_size=n,
                               max_size=n))
    else:
        offset = draw(st.floats(1.0, 1e3)) * draw(st.sampled_from([1, -1]))
        vol = draw(st.sampled_from([1e-3, 1e-12]))
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        values = (offset + vol * rng.standard_normal(n)).tolist()
    for _ in range(draw(st.integers(0, 2))):
        start = draw(st.integers(0, n - 1))
        stop = min(n, start + draw(st.integers(2, 12)))
        values[start:stop] = [draw(st.sampled_from(ALPHABET))] * (stop - start)
    for _ in range(draw(st.integers(0, 2))):
        start = draw(st.integers(0, n - 1))
        large = draw(st.sampled_from([-0.5, 1e3]))
        tiny = draw(st.lists(st.sampled_from([1e-13, -1e-13, 0.0]),
                             max_size=10))
        run = [large] + tiny
        values[start:start + len(run)] = run[:n - start]
    kind = draw(st.sampled_from([SHARPE, sortino(0.0), sortino(0.005),
                                 sortino(-0.005)]))
    return (values, s, d, kind, draw(st.integers(1, n)),
            draw(st.integers(1, 20)), draw(st.integers(1, 7)),
            draw(st.integers(0, 2 ** 32 - 1)))


#: a large loss then tiny ones, Sortino: the downside prefix absorbs the
#: tiny shortfalls, so right windows after the loss are recomputed
ABSORBED_SORTINO = ([-0.5] + [-1e-13] * 11, 1, 2, sortino(0.0), 12, 9, 2, 4)
#: the same for Sharpe: the squared returns after 1e3 are absorbed
ABSORBED_SHARPE = ([1e3] + [1e-13, -1e-13] * 6, 1, 2, SHARPE, 13, 9, 4, 6)
#: returns within a few ulps of -1e3, then ordinary ones: the variance of
#: left windows in the first part cancels, and their recomputed Sharpe,
#: near -1e15, is the minimum
CANCELLED_LEFT = ([-1e3 - 2.5e-13 * (k % 3) for k in range(20)]
                  + [0.01, -0.01, 0.02, -0.03] * 5, 1, 2, SHARPE, 40, 9, 3, 8)


class TestBootstrapReplicateOracle:
    def test_values_match_per_replicate_reference(self):
        """The batched replicate path against the brute-force MRP of each
        drawn replicate as a series, bit for bit, NoValidPartition included;
        some cases must take the kernel's direct recompute."""
        recomputed = []
        direct = series_module._direct

        def counted(*args):
            recomputed.append(args)
            return direct(*args)

        @settings(max_examples=200, deadline=None, derandomize=True)
        @given(bootstrap_cases())
        @example(ABSORBED_SORTINO)
        @example(ABSORBED_SHARPE)
        @example(CANCELLED_LEFT)
        def check(case):
            values, s, d, kind, block_len, replicates, rows, seed = case
            series = series_from(values)
            try:
                want = reference_values(series, s, d, kind, block_len,
                                        replicates, seed)
            except NoValidPartition:
                want = None
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(analytics_module, "_CHUNK", 2 * len(series) * rows)
                if s == 1:
                    mp.setattr(series_module, "_direct", counted)
                if want is None:
                    with pytest.raises(NoValidPartition):
                        block_bootstrap_mrp(series, block_len, replicates, s=s,
                                            d=d, kind=kind, seed=seed)
                    return
                got = block_bootstrap_mrp(series, block_len, replicates, s=s,
                                          d=d, kind=kind, seed=seed).values
            assert got.tobytes() == np.array(want).tobytes()

        check()
        assert recomputed

    @pytest.mark.parametrize("s", [1, 2])
    @pytest.mark.parametrize("kind", [SHARPE, sortino(0.0)],
                             ids=["sharpe", "sortino"])
    def test_no_feasible_split(self, s, kind):
        # constant positive returns: no segment has a defined metric
        series = series_from([0.01] * 30)
        with pytest.raises(NoValidPartition):
            reference_values(series, s, 5, kind, 7, 3, 1)
        with pytest.raises(NoValidPartition):
            block_bootstrap_mrp(series, 7, 3, s=s, d=5, kind=kind, seed=1)
