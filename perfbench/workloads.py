"""The four workloads: each a fixed list of calls into minregime's public
API, a reduced-size warm-up list from the same generators, and the checks
for both.

Calls look functions up through their module at call time (for example
``engine.mrp_fast``), so the traced run's rebinding reaches them.

Why these workloads:

* ``panel`` is the only one where CSV parsing, CLI formatting and the
  sensitivity grid's process pool carry the time; the engine runs only
  O(n) one-split scans.
* ``multisplit`` is the window scan and the per-segment Sortino loop on
  clean data; ingest and the CLI do no work.
* ``degenerate`` drives the same engine entry points through the
  brute-force fallback (zero-padded inception, holiday zeros) and the
  prefix sums at their accuracy limit (large offsets). s = 3 uses
  monthly data because at daily sizes the fallback needs more memory
  than a small machine has.
* ``bias`` is the only one where the bias module works: Monte Carlo
  draws dominate and quadrature is cheap.

Every call is kept under about two seconds, smaller than some ROADMAP
reference sizes where needed, so that a run of the benchmark's length
times each call several times and reports medians.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from minregime import analytics, bias, cli, engine
from minregime.series import SHARPE, Frequency, MetricKind, ReturnSeries, sortino

import checks
import inputs

SORTINO = sortino(0.0)
#: simulated means must lie within this many standard errors of the
#: quadrature expectation
MC_SE_BOUND = 5.0
#: CLI cells carry 6 decimal places
CLI_TOL = 1e-6
WARMUP = "warmup."


@dataclass
class Call:
    """A named call; ``parallel`` if it starts worker processes."""

    name: str
    fn: Callable[[], object]
    parallel: bool = False


@dataclass
class Workload:
    """Timed calls, reduced-size warm-up calls and their checks.

    ``check(name, output, errors)`` returns failure messages for one
    call's output and appends segment-metric relative errors to
    ``errors``; ``check_all(outputs)`` checks relations between calls and
    returns (call name, message) pairs.
    """

    calls: list[Call]
    warmup: list[Call]
    check: Callable[[str, object, list[float]], list[str]]
    check_all: Callable[[dict[str, object]], list[tuple[str, str]]] = (
        lambda outputs: [])


# ---------------------------------------------------------------- panel


def run_cli(argv: list[str]) -> tuple[int, str]:
    """In-process CLI call; returns the exit code and captured stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def csv_rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


PANEL_D = 2 * inputs.DAILY_PPY  # the CLI default --min-segment 2y
PORTFOLIO = (("f0", 0.5), ("f3", 0.3), ("f8", 0.2))  # f8 starts late
GRID_CELLS = 7 * 5  # default --lookbacks 10:40:5y x --ds 1:5:1y


def panel_calls(path: Path, prefix: str) -> list[Call]:
    base = ["--input", str(path)]
    weights = ",".join(f"{k}={w}" for k, w in PORTFOLIO)
    calls = [
        ("report", ["report"] + base, False),
        ("frontier", ["frontier"] + base, False),
        ("correlations", ["correlations"] + base, False),
        ("sensitivity_j1", ["sensitivity"] + base + ["--jobs", "1"], False),
        ("sensitivity_j2", ["sensitivity"] + base + ["--jobs", "2"], True),
        ("portfolio", ["portfolio"] + base + ["--weights", weights], False),
    ]
    return [Call(prefix + name, lambda a=argv: run_cli(a), parallel)
            for name, argv, parallel in calls]


def portfolio_series(panel: inputs.Panel) -> ReturnSeries:
    """The weighted aggregate over the dates where every leg is live."""
    idx = [panel.labels.index(k) for k, _ in PORTFOLIO]
    first = max(panel.inception[k] for k in idx)
    matrix = np.column_stack([panel.columns[k][first:] for k in idx])
    agg = matrix @ np.array([w for _, w in PORTFOLIO])
    return ReturnSeries(dates=panel.dates[first:], returns=agg,
                        label="portfolio")


def check_one_split_rows(series: ReturnSeries, cells: dict[str, str],
                         errors: list[float]) -> list[str]:
    """CLI cells of a one-split result against brute force and two-pass."""
    oracle = engine.mrp_brute_force(series, 1, PANEL_D)
    bad = checks.check_result(series, 1, PANEL_D, SHARPE, oracle, errors)
    want = {"mrp1": oracle.value, "mrp": oracle.value,
            "left_sr": oracle.segment_metrics[0],
            "right_sr": oracle.segment_metrics[1]}
    for col, text in cells.items():
        if col == "splits":
            if text != " ".join(map(str, oracle.optimal_splits.splits)):
                bad.append(f"{series.label} split {text} vs "
                           f"{oracle.optimal_splits.splits}")
        elif not abs(float(text) - want[col]) <= CLI_TOL:
            bad.append(f"{series.label} {col} {text} vs {want[col]:.6f}")
    return bad


def check_panel(panel: inputs.Panel, name: str, output,
                errors: list[float]) -> list[str]:
    code, text = output
    if code != 0:
        return [f"exit code {code}"]
    rows = csv_rows(text)
    labels = list(panel.labels)
    if name == "report":
        if [r["label"] for r in rows] != labels:
            return ["report rows do not match the factors"]
        bad = []
        for k, row in enumerate(rows):
            cells = {c: row[c] for c in ("mrp1", "left_sr", "right_sr")}
            bad += check_one_split_rows(panel.series(k), cells, errors)
        return bad
    if name == "frontier":
        ok = [r["label"] for r in rows] == labels
        return [] if ok else ["frontier rows do not match the factors"]
    if name == "correlations":
        cell = {(r["metric"], c): v for r in rows for c, v in r.items()
                if c != "metric"}
        bad = [f"correlation {a},{b} is {v}, {b},{a} is {cell[b, a]}"
               for (a, b), v in cell.items() if cell[b, a] != v]
        bad += [f"correlation diagonal {a} is {v}"
                for (a, b), v in cell.items() if a == b and v != "1.000000"]
        return bad
    if name.startswith("sensitivity"):
        if len(rows) != len(labels) * GRID_CELLS:
            return [f"{len(rows)} sensitivity cells, expected {GRID_CELLS} "
                    "per factor"]
        return []
    if name == "portfolio":
        cells = {c: rows[0][c] for c in ("mrp", "splits")}
        return check_one_split_rows(portfolio_series(panel), cells, errors)
    raise KeyError(name)


def make_panel(seed: int, workdir: Path) -> Workload:
    full = inputs.make_panel(seed)
    small = inputs.make_panel(seed, n=inputs.PANEL_N // 4)
    full_path = workdir / f"panel-{seed}.csv"
    small_path = workdir / f"panel-{seed}-small.csv"
    full_path.write_text(full.csv_text)
    small_path.write_text(small.csv_text)

    def check_all(outputs):
        if outputs.get("sensitivity_j1") != outputs.get("sensitivity_j2"):
            return [("sensitivity_j2", "stdout differs from --jobs 1")]
        return []

    def check(name, output, errors):
        if name.startswith(WARMUP):
            return check_panel(small, name.removeprefix(WARMUP), output, errors)
        return check_panel(full, name, output, errors)

    return Workload(panel_calls(full_path, ""),
                    panel_calls(small_path, WARMUP), check, check_all)


# ------------------------------------------------ multisplit, degenerate


@dataclass(frozen=True)
class Case:
    """One engine call: entry point, series, s, d and metric."""

    entry: str  # "fast" | "one_split"
    series: ReturnSeries
    s: int
    d: int
    kind: MetricKind = SHARPE

    def __call__(self):
        if self.entry == "one_split":
            return engine.mrp_one_split(self.series, self.d, self.kind)
        return engine.mrp_fast(self.series, self.s, self.d, self.kind)

    def check(self, output, errors: list[float], reduced: bool) -> list[str]:
        """A valid partition and two-pass segment metrics; on a
        reduced-size instance also the brute-force answer."""
        args = (self.series, self.s, self.d, self.kind)
        bad = checks.check_result(*args, output, errors)
        if reduced:
            bad += checks.check_against_brute_force(*args, output)
        return bad


@dataclass(frozen=True)
class Bootstrap:
    """One block-bootstrap call, s = 1."""

    series: ReturnSeries
    block: int
    replicates: int
    d: int
    seed: int

    def __call__(self):
        return analytics.block_bootstrap_mrp(self.series, self.block,
                                             self.replicates, s=1, d=self.d,
                                             seed=self.seed)

    def check(self, output, errors: list[float], reduced: bool) -> list[str]:
        values = output.values.tolist()
        if len(values) != self.replicates or not all(map(math.isfinite, values)):
            return ["bootstrap values missing or not finite"]
        bad = []
        if not math.isclose(output.mean, math.fsum(values) / len(values),
                            rel_tol=1e-12, abs_tol=1e-12):
            bad.append("bootstrap mean does not match its values")
        qs = list(output.quantiles.values())
        if qs != sorted(qs) or not min(values) <= qs[0] <= qs[-1] <= max(values):
            bad.append("bootstrap quantiles out of order")
        return bad


def engine_workload(full: dict, reduced: dict) -> Workload:
    """Calls named by ``full``, warm-up calls by ``reduced``; each value
    is a Case or a Bootstrap."""

    def check(name, output, errors):
        if name.startswith(WARMUP):
            return reduced[name.removeprefix(WARMUP)].check(output, errors, True)
        return full[name].check(output, errors, False)

    return Workload([Call(name, c) for name, c in full.items()],
                    [Call(WARMUP + name, c) for name, c in reduced.items()],
                    check)


def make_multisplit(seed: int, workdir: Path) -> Workload:
    y10 = inputs.make_clean(seed, 10 * inputs.DAILY_PPY, "y10")
    y40 = inputs.make_clean(seed, 40 * inputs.DAILY_PPY, "y40")
    n500 = inputs.make_clean(seed, 500, "n500")
    small = {tag: inputs.make_clean(seed, 60, tag)
             for tag in ("y10", "y40", "n500")}
    # the Sortino window scan costs O(n^3): n = 500 keeps one call near
    # half a second, so a run repeats every call several times
    full = {
        "fast_s2_10y": Case("fast", y10, 2, 252),
        "fast_s3_10y": Case("fast", y10, 3, 252),
        "fast_s2_40y": Case("fast", y40, 2, 504),
        "sortino_one_split_40y": Case("one_split", y40, 1, 504, SORTINO),
        "sortino_fast_s2_n500": Case("fast", n500, 2, 50, SORTINO),
        "bootstrap_s1_10y": Bootstrap(y10, 63, 200, 252, seed),
    }
    reduced = {
        "fast_s2_10y": Case("fast", small["y10"], 2, 6),
        "fast_s3_10y": Case("fast", small["y10"], 3, 6),
        "fast_s2_40y": Case("fast", small["y40"], 2, 12),
        "sortino_one_split_40y": Case("one_split", small["y40"], 1, 12, SORTINO),
        "sortino_fast_s2_n500": Case("fast", small["n500"], 2, 6, SORTINO),
        "bootstrap_s1_10y": Bootstrap(small["y10"], 6, 8, 6, seed),
    }
    return engine_workload(full, reduced)


PAD_HOLIDAYS = 0.02
OFFSET_VOL = 1e-3


def make_degenerate(seed: int, workdir: Path) -> Workload:
    daily, monthly = Frequency.DAILY, Frequency.MONTHLY

    def series_set(n_padded, pad_daily, n_monthly, pad_monthly, n_offset):
        return {
            "padded": inputs.make_padded(seed, n_padded, pad_daily,
                                         PAD_HOLIDAYS, daily, "padded"),
            "monthly": inputs.make_padded(seed, n_monthly, pad_monthly, 0.0,
                                          monthly, "monthly"),
            "offset1": inputs.make_offset(seed, n_offset, 1.0, OFFSET_VOL,
                                          "offset1"),
            "offset10": inputs.make_offset(seed, n_offset, 10.0, OFFSET_VOL,
                                           "offset10"),
        }

    def cases(ser, d_padded, d_monthly, d_offset):
        return {
            "padded_s1": Case("fast", ser["padded"], 1, d_padded),
            "padded_s2": Case("fast", ser["padded"], 2, d_padded),
            "padded_sortino_s1": Case("fast", ser["padded"], 1, d_padded,
                                      SORTINO),
            "monthly_s3": Case("fast", ser["monthly"], 3, d_monthly),
            "offset1_s1": Case("fast", ser["offset1"], 1, d_offset),
            "offset1_s2": Case("fast", ser["offset1"], 2, d_offset),
            "offset10_s1": Case("fast", ser["offset10"], 1, d_offset),
            "offset10_s2": Case("fast", ser["offset10"], 2, d_offset),
        }

    ppy = inputs.DAILY_PPY
    # 5y daily and 15y monthly keep each brute-force fallback near one
    # second and 150 MB, so a run repeats every call several times
    full = cases(series_set(5 * ppy, ppy, 15 * 12, 12, 10 * ppy),
                 ppy // 2, 12, ppy)
    reduced = cases(series_set(60, 6, 48, 4, 60), 6, 4, 6)
    return engine_workload(full, reduced)


# ----------------------------------------------------------------- bias


#: simulate's N: the default 1e4 makes one call 12 s; at 1e3 a run
#: repeats every call several times. Trials stay at the default.
SIMULATE_N = 1000
SIMULATE_TRIALS = 20_000  # the CLI default


def check_bias(name: str, output, trials: int) -> list[str]:
    """Simulated means against the quadrature expectation; the bias
    table's closed forms at N = 1, 2; simulate's KS distance against the
    exact distance of the minimum's law from the Gumbel limit."""
    code, text = output
    if code != 0:
        return [f"exit code {code}"]
    rows = csv_rows(text)
    bad = []
    for row in rows:
        if not row["simulated_mean"]:
            continue
        n = int(row["N"])
        want = bias.expected_min_exact(bias.BiasModel(0.0, 1.0, 1, n))
        got, se = float(row["simulated_mean"]), float(row["se"])
        if not abs(got - want) <= MC_SE_BOUND * se + CLI_TOL:
            bad.append(f"N={n}: simulated mean {got} is more than "
                       f"{MC_SE_BOUND} SE ({se}) from {want:.6f}")
    if "exact_bias" in rows[0]:
        exact = {int(r["N"]): float(r["exact_bias"]) for r in rows}
        if exact[1] != 0.0 or not abs(exact[2] - 1 / math.sqrt(math.pi)) <= CLI_TOL:
            bad.append("exact bias at N=1 or N=2 does not match its closed form")
    else:
        n, ks = int(rows[-1]["N"]), float(rows[-1]["ks_distance"])
        want = checks.gumbel_limit_ks(n)
        if not abs(ks - want) <= checks.ks_margin(trials) + CLI_TOL:
            bad.append(f"KS distance {ks} vs {want:.6f} for N={n}, beyond "
                       f"the {checks.ks_margin(trials):.4f} sampling margin")
    return bad


def make_bias(seed: int, workdir: Path) -> Workload:
    s = ["--seed", str(seed)]
    sim = ["simulate", "--N", str(SIMULATE_N)] + s
    calls = [Call("bias", lambda: run_cli(["bias"] + s)),
             Call("simulate", lambda: run_cli(sim))]
    warm = [Call(WARMUP + "bias", lambda: run_cli(["bias", "--trials", "2000"] + s)),
            Call(WARMUP + "simulate", lambda: run_cli(sim + ["--trials", "500"]))]

    def check(name, output, errors):
        trials = 500 if name.startswith(WARMUP) else SIMULATE_TRIALS
        return check_bias(name, output, trials)

    return Workload(calls, warm, check)


WORKLOADS = {
    "panel": make_panel,
    "multisplit": make_multisplit,
    "degenerate": make_degenerate,
    "bias": make_bias,
}
