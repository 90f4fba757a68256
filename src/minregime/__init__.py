"""Minimum Regime Performance analytics.

Library for measuring strategy-decay risk: the worst risk-adjusted
performance over all constrained partitions of a return series, together
with the bias and extreme-value behavior of that minimum under an
idealized i.i.d.-normal model.
"""

from .errors import (
    DateMismatch,
    DateOrderError,
    DegenerateVector,
    EmptySeries,
    Infeasible,
    InvalidBlock,
    InvalidModel,
    MinRegimeError,
    NoValidPartition,
    NonFiniteReturn,
    ParseError,
    QuadratureFailed,
    SegmentTooShort,
    SeriesTooShort,
    WealthNonPositive,
    ZeroVariance,
)
from .series import (
    SHARPE,
    Frequency,
    MetricKind,
    PrefixTable,
    ReturnSeries,
    build_prefix_sums,
    max_drawdown,
    rolling_sharpe_volatility,
    segment_metric,
    series_metric,
    sortino,
)
from .engine import (
    MrpResult,
    PartitionSpec,
    count_valid_partitions,
    enumerate_partitions,
    mrp_brute_force,
    mrp_fast,
    mrp_one_split,
)
from .bias import (
    BiasModel,
    GumbelConstants,
    GumbelDiagnostic,
    bias_asymptotic,
    bias_exact,
    expected_min_exact,
    gumbel_constants,
    gumbel_limit_diagnostic,
    simulate_min_model,
)
from .analytics import (
    BootstrapSummary,
    FactorReport,
    FrontierPoint,
    PortfolioSpec,
    SensitivityGrid,
    block_bootstrap_mrp,
    factor_report,
    frontier,
    portfolio_mrp,
    robustness_correlations,
    sensitivity_grid,
    sensitivity_grids,
)
from .ingest import FixtureSpec, IngestConfig, load_csv, make_fixture

__version__ = "0.1.0"
