"""Command-line surface.

Subcommands: report, frontier, sensitivity, correlations, portfolio,
bias, simulate, fixture. All outputs are deterministic given flags and
seed; numbers are serialized with 6 decimal places in CSV, and the JSON
encoding carries the same values. Exit codes: 0 success, 1 data/compute
error (diagnostic on stderr), 2 usage error.

Each subcommand accepts only the flags it reads, so a flag without an
effect is a usage error, as is --mar without --metric sortino. The
exceptions are kept for compatibility:
report and sensitivity accept --seed and --jobs, unused (sensitivity
runs its grid in process).

main builds only the named subcommand's parser (0.2-0.3 ms, against 1.6
ms for all eight on a 2-vCPU VM); help and usage-error text are unchanged.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import io
import itertools
import json
import math
import sys
from pathlib import Path

from . import analytics, bias as bias_mod, ingest
from .errors import MinRegimeError
from .series import (
    SHARPE,
    Frequency,
    MetricKind,
    ReturnSeries,
    max_drawdown,
    rolling_sharpe_volatility,
    sortino,
)


def _fmt(value: float) -> str:
    return "Infeasible" if math.isnan(value) else f"{value:.6f}"


def _mmddyy(day: datetime.date) -> str:
    return day.strftime("%m/%d/%y")


def parse_duration(text: str, frequency: Frequency) -> int:
    """Parse '2y' (years) or '504p' (periods) into a period count."""
    text = text.strip()
    try:
        if text.endswith("y"):
            return frequency.periods(float(text[:-1]))
        if text.endswith("p"):
            return int(text[:-1])
    except (ValueError, OverflowError):
        raise argparse.ArgumentTypeError(
            f"duration {text!r} is not a finite number") from None
    raise argparse.ArgumentTypeError(
        f"duration {text!r} needs a 'y' or 'p' suffix")


def int_at_least(low: int):
    """argparse type of an integer flag that must be >= ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{text!r} is not >= {low}")
        return value
    parse.__name__ = "int"  # argparse reports a non-number as "invalid int value"
    return parse


def finite(text: str) -> float:
    """argparse type of a number flag that must be finite."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not finite")
    return value


def positive(text: str) -> float:
    """argparse type of a number flag that must be finite and > 0."""
    value = finite(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not > 0")
    return value


def parse_years(text: str) -> float:
    """Parse '40y' (or a bare number) into a finite number of years > 0
    whose period count is finite at every frequency; the argparse type of
    ``--lookback`` and of each ``--lookbacks`` and ``--ds`` value and
    step."""
    value = positive(text.strip().removesuffix("y"))
    if not math.isfinite(value * Frequency.DAILY.periods_per_year):
        raise argparse.ArgumentTypeError(f"{text!r} is too many years")
    return value


def parse_weights(text: str) -> list[tuple[str, float]]:
    """Parse 'label=weight,...' into (label, weight) pairs; the argparse
    type of ``--weights``. Each weight is finite and not all are 0."""
    pairs = []
    for part in text.split(","):
        label, eq, weight = part.partition("=")
        if not eq:
            raise argparse.ArgumentTypeError(f"{part!r} is not label=weight")
        pairs.append((label.strip(), finite(weight)))
    if not any(w for _, w in pairs):
        raise argparse.ArgumentTypeError("every weight is 0")
    return pairs


#: the most values of a 'lo:hi:step' grid
_GRID_CAP = 10_000


def parse_range(text: str) -> list[float]:
    """Parse 'lo:hi:step[y]' or a comma list into a list of year values;
    the argparse type of ``--lookbacks`` and ``--ds``. The grid must not
    be empty, and a range has at most ``_GRID_CAP`` values, counted from
    lo, hi and step before the grid is built."""
    text = text.strip().removesuffix("y")
    if ":" in text:
        lo, hi, step = (parse_years(p) for p in text.split(":"))
        steps = (hi + 1e-9 - lo) / step  # from lo to the last value <= hi
        if steps < 0:
            raise argparse.ArgumentTypeError(f"grid {text!r} is empty")
        if steps >= _GRID_CAP:
            raise argparse.ArgumentTypeError(
                f"grid {text!r} has more than {_GRID_CAP:,} values")
        # lo, then step added to the value before, as a running sum
        return list(itertools.accumulate(itertools.repeat(step, int(steps)),
                                         initial=lo))
    return [parse_years(p) for p in text.split(",")]


def _emit(rows: list[dict], out: str | None, fmt: str) -> None:
    """Write non-empty ``rows``; the CSV header is the first row's keys."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        text = json.dumps(rows, indent=2) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _metric_kind(args) -> MetricKind:
    if args.metric == "sortino":
        return sortino(0.0 if args.mar is None else args.mar)
    return SHARPE


def _load(args) -> list[ReturnSeries]:
    config = ingest.IngestConfig(
        path=args.input,
        start_date=args.start_date,
        frequency=Frequency(args.frequency),
        percent=args.percent,
    )
    return ingest.load_csv(config)


def _reports(series_list, args) -> list[analytics.FactorReport]:
    kind = _metric_kind(args)
    freq = Frequency(args.frequency)
    d_years = args.min_segment / freq.periods_per_year
    return [analytics.factor_report(s, args.lookback, d_years, kind)
            for s in series_list]


def cmd_report(args) -> None:
    rows = []
    for r in _reports(_load(args), args):
        rows.append({
            "label": r.label,
            "sharpe": _fmt(r.full_sharpe),
            "mrp1": _fmt(r.mrp1),
            "left_sr": _fmt(r.left_sr),
            "right_sr": _fmt(r.right_sr),
            "split_date": _mmddyy(r.split_date),
        })
    _emit(rows, args.out, args.format)


def cmd_frontier(args) -> None:
    points = analytics.frontier(_reports(_load(args), args))
    rows = [{"label": p.label, "sharpe": _fmt(p.x), "mrp": _fmt(p.y),
             "dominated": str(p.dominated).lower()} for p in points]
    _emit(rows, args.out, args.format)


def cmd_sensitivity(args) -> None:
    kind = _metric_kind(args)
    rows = []
    for grid in analytics.sensitivity_grids(_load(args), args.lookbacks,
                                            args.ds, s=args.splits, kind=kind):
        for i, lb in enumerate(grid.lookbacks_years):
            for j, dy in enumerate(grid.d_years):
                rows.append({
                    "label": grid.label,
                    "lookback_years": f"{lb:g}",
                    "d_years": f"{dy:g}",
                    "mrp_minus_sharpe": _fmt(float(grid.cells[i, j])),
                })
    _emit(rows, args.out, args.format)


def cmd_correlations(args) -> None:
    series_list = _load(args)
    reports = _reports(series_list, args)
    roll_w = analytics.DEFAULT_ROLLING_WINDOW[args.frequency]
    labels, mrp_v, sr_v, rv_v, dd_v = [], [], [], [], []
    for s, r in zip(series_list, reports):
        win = analytics._trailing_window(s, args.lookback)
        labels.append(r.label)
        mrp_v.append(r.mrp1)
        sr_v.append(r.full_sharpe)
        rv_v.append(rolling_sharpe_volatility(win, roll_w))
        dd_v.append(max_drawdown(win))
    names, corr = analytics.robustness_correlations(labels, {
        "mrp": mrp_v,
        "sharpe": sr_v,
        "rolling_sharpe_vol": rv_v,
        "max_drawdown": dd_v,
    })
    rows = []
    for i, name in enumerate(names):
        row = {"metric": name}
        for j, other in enumerate(names):
            row[other] = _fmt(float(corr[i, j]))
        rows.append(row)
    _emit(rows, args.out, args.format)


def cmd_portfolio(args) -> None:
    series_list = _load(args)
    by_label = {s.label: s for s in series_list}
    for name, _ in args.weights:
        if name not in by_label:
            raise MinRegimeError(f"unknown strategy {name!r} in --weights")
    spec = analytics.PortfolioSpec(tuple(w for _, w in args.weights),
                                   tuple(by_label[name] for name, _ in args.weights))
    res = analytics.portfolio_mrp(spec, args.splits, args.min_segment,
                                  _metric_kind(args))
    rows = [{
        "mrp": _fmt(res.value),
        "splits": " ".join(str(t) for t in res.optimal_splits.splits),
        "split_dates": " ".join(day.isoformat() for day in res.split_dates),
        "argmin_segment": str(res.argmin_segment),
    }]
    _emit(rows, args.out, args.format)


def cmd_bias(args) -> None:
    rows = []
    log_v = bias_mod._log_uniforms(args.trials, args.seed)  # one for every N
    for n in args.N:
        model = bias_mod.BiasModel(mu=args.mu, sigma=args.sigma, s=1, n_s=n)
        # the extreme-value form only exists for N >= 3; leave the cell blank
        asym = _fmt(bias_mod.bias_asymptotic(model)) if n >= 3 else ""
        mean, se = bias_mod._mean_se(bias_mod._min_draws(model, log_v))
        rows.append({"N": str(n),
                     "exact_bias": _fmt(bias_mod.bias_exact(model)),
                     "asymptotic_bias": asym, "simulated_mean": _fmt(mean),
                     "se": _fmt(se)})
    _emit(rows, args.out, args.format)


def cmd_simulate(args) -> None:
    model = bias_mod.BiasModel(mu=args.mu, sigma=args.sigma, s=1, n_s=args.N)
    diag = bias_mod.gumbel_limit_diagnostic(model, args.trials, seed=args.seed)
    rows = [{"N": str(n), "simulated_mean": _fmt(mean), "se": _fmt(se),
             "ks_distance": ""} for n, mean, se in diag.drift]
    rows.append({"N": str(model.N), "simulated_mean": "", "se": "",
                 "ks_distance": _fmt(diag.ks_distance)})
    _emit(rows, args.out, args.format)


def cmd_fixture(args) -> None:
    spec = ingest.FixtureSpec(**{f: getattr(args, f) for f, _ in FIXTURE})
    series = ingest.make_fixture(args.seed, spec)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            ingest.write_csv(series, fh)
    else:
        ingest.write_csv(series, sys.stdout)


#: every shared flag, defined once; each subcommand names those it reads
FLAGS = {
    "--input": dict(required=True, help="input CSV path"),
    "--start-date": dict(default="1980-01-01", type=datetime.date.fromisoformat,
                         dest="start_date"),
    "--frequency": dict(choices=["daily", "monthly"], default="daily"),
    "--percent": dict(action="store_true", help="input values are percentages"),
    "--metric": dict(choices=["sharpe", "sortino"], default="sharpe"),
    "--mar": dict(type=finite, help="minimum acceptable per-period return, "
                  "read only with --metric sortino (default 0)"),
    "--min-segment": dict(default="2y", dest="min_segment",
                          help="minimum segment length, e.g. 2y or 504p"),
    "--lookback": dict(default="40y", type=parse_years),
    "--splits": dict(type=int_at_least(1), default=1),
    "--jobs": dict(type=int_at_least(1), default=1),
    "--seed": dict(type=int, default=0),
    "--mu": dict(type=finite, default=0.0),
    "--sigma": dict(type=positive, default=1.0),
    "--out": dict(default=None),
    "--format": dict(choices=["csv", "json"], default="csv"),
}
INPUT = ("--input", "--start-date", "--frequency", "--percent", "--metric",
         "--mar")
OUTPUT = ("--out", "--format")
#: the ``FixtureSpec`` fields that ``fixture`` takes as flags, with their types
FIXTURE = (("label", str), ("n_pre", int_at_least(1)),
           ("n_post", int_at_least(1)), ("drift_pre", finite),
           ("drift_post", finite), ("vol_pre", finite), ("vol_post", finite))


def _add_flags(p: argparse.ArgumentParser, *names: str,
               unused: tuple[str, ...] = ()) -> None:
    """Add the named shared flags; ``unused`` ones are accepted for
    compatibility and have no effect."""
    for name in names:
        p.add_argument(name, **FLAGS[name])
    for name in unused:
        p.add_argument(name, **{**FLAGS[name], "help":
                                "accepted for compatibility; has no effect"})


#: every subcommand, in the order the top-level help lists them
COMMANDS = {"report": cmd_report, "frontier": cmd_frontier,
            "correlations": cmd_correlations, "sensitivity": cmd_sensitivity,
            "portfolio": cmd_portfolio, "bias": cmd_bias,
            "simulate": cmd_simulate, "fixture": cmd_fixture}


def parse_counts(text: str) -> list[int]:
    """argparse type of ``bias --N``: a comma list of integers >= 1."""
    return [int_at_least(1)(x) for x in text.split(",")]


parse_counts.__name__ = "int"  # as int_at_least names its parser


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser. Given ``command``, only that subcommand's parser
    is registered and filled; the top-level usage line still lists every
    subcommand, so its help and error text are the full parser's."""
    parser = argparse.ArgumentParser(
        prog="minregime",
        description="Minimum regime performance analytics")
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if command is None else "{%s}" % ",".join(COMMANDS))
    for name in COMMANDS if command is None else (command,):
        p = sub.add_parser(name)
        # parser: for checks of more than one flag
        p.set_defaults(func=COMMANDS[name], parser=p)
        if name in ("report", "frontier", "correlations"):
            # report has no randomness and no pool; it keeps accepting
            # --seed and --jobs so invocations that pass them still run
            _add_flags(p, *INPUT, "--min-segment", "--lookback", *OUTPUT,
                       unused=("--seed", "--jobs") if name == "report" else ())
        elif name == "sensitivity":
            _add_flags(p, *INPUT, "--splits", *OUTPUT,
                       unused=("--seed", "--jobs"))
            p.add_argument("--lookbacks", default="10:40:5y", type=parse_range,
                           help="lookback grid in years, lo:hi:step or comma list")
            p.add_argument("--ds", default="1:5:1y", type=parse_range,
                           help="minimum-segment grid in years")
        elif name == "portfolio":
            _add_flags(p, *INPUT, "--splits", "--min-segment", *OUTPUT)
            p.add_argument("--weights", required=True, type=parse_weights,
                           help="comma list of label=weight")
        elif name == "bias":
            _add_flags(p, "--mu", "--sigma", "--seed", *OUTPUT)
            p.add_argument("--N", default=[1, 2, 5, 10, 100], type=parse_counts,
                           help="comma list of order-statistic counts")
            p.add_argument("--trials", type=int_at_least(2), default=100_000,
                           help="Monte Carlo trials per N (>= 2 for a standard error)")
        elif name == "simulate":
            _add_flags(p, "--mu", "--sigma", "--seed", *OUTPUT)
            p.add_argument("--N", type=int_at_least(10), default=10_000,
                           help="order-statistic count (>= 10 for the diagnostic)")
            p.add_argument("--trials", type=int_at_least(2), default=20_000,
                           help="Monte Carlo trials per N (>= 2 for a standard error)")
        else:
            _add_flags(p, "--seed", "--out")
            for field, type_ in FIXTURE:
                p.add_argument("--" + field.replace("_", "-"), type=type_,
                               default=getattr(ingest.FixtureSpec, field))
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv and argv[0] in COMMANDS
                        else None).parse_args(argv)
    if getattr(args, "mar", None) is not None and args.metric != "sortino":
        args.parser.error("argument --mar: only read with --metric sortino")

    def at_least_2(flag: str, text: str, count: int) -> int:
        """``count``, the period count of a duration at the input's
        frequency, if it is at least 2."""
        if count < 2:
            args.parser.error(f"argument {flag}: duration {text!r} is fewer "
                              f"than 2 periods at the {args.frequency} "
                              "frequency")
        return count
    if "min_segment" in args:
        try:
            count = parse_duration(args.min_segment, Frequency(args.frequency))
        except argparse.ArgumentTypeError as exc:
            args.parser.error(f"argument --min-segment: {exc}")
        args.min_segment = at_least_2("--min-segment", args.min_segment, count)
    for years in getattr(args, "ds", ()):
        at_least_2("--ds", f"{years!r}y",
                   Frequency(args.frequency).periods(years))
    try:
        args.func(args)
    except (MinRegimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
