"""Input checks that raise: each pins its exception type and message."""

import math
import warnings

import pytest

from minregime import (
    BiasModel,
    DateMismatch,
    EmptySeries,
    FixtureSpec,
    Frequency,
    Infeasible,
    IngestConfig,
    InvalidModel,
    MetricKind,
    PortfolioSpec,
    ReturnSeries,
    SegmentTooShort,
    SeriesTooShort,
    block_bootstrap_mrp,
    build_prefix_sums,
    frontier,
    gumbel_constants,
    max_drawdown,
    mrp_brute_force,
    mrp_fast,
    portfolio_mrp,
    robustness_correlations,
    rolling_sharpe_volatility,
    segment_metric,
    sensitivity_grid,
    simulate_min_model,
)

from conftest import make_series, series_from


def constant_rolling_volatility():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the skipped windows
        rolling_sharpe_volatility(series_from([0.01] * 20), 5)


CASES = {
    "fast d < 2": (lambda: mrp_fast(make_series(20), 1, 1),
                   Infeasible, "d must be >= 2"),
    "fast s < 1": (lambda: mrp_fast(make_series(20), 0, 5),
                   Infeasible, "s must be >= 1"),
    "brute force d < 2": (lambda: mrp_brute_force(make_series(20), 1, 1),
                          Infeasible, "d must be >= 2"),
    "brute force s < 1": (lambda: mrp_brute_force(make_series(20), 0, 5),
                          Infeasible, "s must be >= 1"),
    "empty frontier": (lambda: frontier([]),
                       ValueError, "need at least one report"),
    "empty grid": (lambda: sensitivity_grid(make_series(300), (), (1,)),
                   ValueError, "grids must be non-empty"),
    "no replicates": (lambda: block_bootstrap_mrp(make_series(20), 5, 0),
                      ValueError, "replicates must be >= 1"),
    "one vector": (lambda: robustness_correlations(["a", "b", "c"],
                                                   {"x": [1, 2, 3]}),
                   ValueError, "need at least two metric vectors"),
    "misaligned weights": (
        lambda: PortfolioSpec((1.0,), (make_series(20), make_series(20, 1))),
        ValueError, "weights and strategies must align"),
    "mixed frequencies": (
        lambda: portfolio_mrp(PortfolioSpec((1.0, 1.0), (
            make_series(20),
            make_series(20, 1, frequency=Frequency.MONTHLY))), 1, 5),
        DateMismatch, "strategies have mixed frequencies"),
    "misaligned dates": (
        lambda: ReturnSeries(make_series(3).dates, [0.01, 0.02]),
        ValueError, "dates and returns must have equal length"),
    "unknown kind": (lambda: MetricKind("x"),
                     ValueError, "unknown metric kind 'x'"),
    "segment out of range": (
        lambda: segment_metric(build_prefix_sums(make_series(10)), 0, 11),
        SegmentTooShort, "invalid segment [0, 11)"),
    "empty drawdown": (lambda: max_drawdown(series_from([])),
                       EmptySeries, "max_drawdown of empty series"),
    "rolling window < 2": (
        lambda: rolling_sharpe_volatility(make_series(20), 1),
        SeriesTooShort, "window must be >= 2"),
    "rolling constant": (constant_rolling_volatility,
                         SeriesTooShort, "fewer than 2 usable windows"),
    "missing policy": (lambda: IngestConfig("x.csv", missing_policy="drop"),
                       ValueError, "unknown missing_policy 'drop'"),
    "empty regime": (lambda: FixtureSpec(n_pre=0),
                     ValueError, "regime lengths must be >= 1"),
    "no split groups": (lambda: BiasModel(0, 1, 0, 1),
                        InvalidModel, "s and n_s must be >= 1"),
    "N beyond floats": (lambda: BiasModel(0, 1, 2 ** 512, 2 ** 512),
                        InvalidModel, "N = s * n_s is too large for a float"),
    "no trials": (lambda: simulate_min_model(BiasModel(0, 1), trials=0),
                  InvalidModel, "trials must be >= 1"),
}


@pytest.mark.parametrize("case", list(CASES))
def test_raises(case):
    call, error, message = CASES[case]
    with pytest.raises(error) as info:
        call()
    assert message in str(info.value)


def test_gumbel_constants_at_two_take_the_leading_order():
    consts = gumbel_constants(2)
    assert consts.b == math.sqrt(2.0 * math.log(2))
    assert consts.a == 1.0 / consts.b
