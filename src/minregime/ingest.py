"""CSV ingestion of factor returns and synthetic fixture generation.

Default schema is wide: one date column plus one decimal-return column
per factor, ISO-8601 dates, header row. A long format (name, date, ret)
is supported via the config. Rows before ``start_date`` are dropped
(factor histories are truncated so every factor is live at the start).
"""

from __future__ import annotations

import csv
import datetime
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TextIO

import numpy as np

from .errors import EmptySeries, ParseError
from .series import Frequency, ReturnSeries, _as_days


@dataclass(frozen=True)
class IngestConfig:
    path: str | Path
    date_column: str = "date"
    value_columns: tuple[str, ...] | None = None  # None: every other column
    long_format: bool = False
    name_column: str = "name"
    return_column: str = "ret"
    start_date: datetime.date = datetime.date(1980, 1, 1)
    frequency: Frequency = Frequency.DAILY
    missing_policy: str = "skip"  # "skip" | "error"
    percent: bool = False         # values are percentages, divide by 100
    log_returns: bool = False     # values are log returns, convert to simple

    def __post_init__(self):
        if self.missing_policy not in ("skip", "error"):
            raise ValueError(f"unknown missing_policy {self.missing_policy!r}")


def _parse_date(text: str | None, row: int, column: str) -> datetime.date:
    if text is None:
        raise ParseError(row, column, "missing date cell")
    try:
        return datetime.date.fromisoformat(text.strip())
    except ValueError as exc:
        raise ParseError(row, column, f"bad date {text!r}") from exc


def _parse_ret(text: str | None, row: int, column: str,
               config: IngestConfig) -> float | None:
    """One return cell; None for an empty one that ``missing_policy``
    skips."""
    if text is None or not text.strip():
        if config.missing_policy == "error":
            raise ParseError(row, column, "missing value")
        return None
    try:
        value = float(text)
    except ValueError as exc:
        raise ParseError(row, column, f"bad number {text!r}") from exc
    if not math.isfinite(value):
        raise ParseError(row, column, f"non-finite return {text!r}")
    if config.percent:
        value /= 100.0
    if config.log_returns:
        value = math.expm1(value)
    return value


def load_csv(config: IngestConfig) -> list[ReturnSeries]:
    """Load one ReturnSeries per factor column (or long-format name).

    Dates must be strictly increasing within each series; rows before
    ``start_date`` are dropped before that check. Empty cells follow
    ``missing_policy``. A series left empty after truncation raises
    EmptySeries. Errors are those of a row-by-row read: a bad cell raises
    ParseError with the first failing (row, column) in row order, then
    series are checked in label order, each for emptiness, then for
    date order (``ReturnSeries`` raises DateOrderError).
    """
    path = Path(config.path)
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise EmptySeries(f"{path}: no header row")
        if config.long_format:
            per_factor = _read_long(reader, config)
        else:
            per_factor = _read_wide(reader.fieldnames, reader.reader, config)
    out = []
    for label, (dates, returns) in per_factor.items():
        if not dates.size:
            raise EmptySeries(f"{path}: series {label!r} empty after truncation")
        out.append(ReturnSeries(dates=dates, returns=returns,
                                frequency=config.frequency, label=label))
    if not out:
        raise EmptySeries(f"{path}: no factor columns found")
    return out


def _read_wide(fieldnames: list[str], rows, config: IngestConfig):
    """Per label, the dates and returns of its non-empty cells on rows
    from ``start_date`` on, read column by column.

    Rows stream into one list of cells per column. The date column is
    parsed once, each value column's non-empty cells in one ``float``
    pass checked by vectorized code. A step that fails hands its column
    to a per-cell scan that finds the offending cell, and the first error
    in row order is raised, as a row-by-row read would raise it.
    """
    labels = config.value_columns
    if labels is None:
        labels = tuple(c for c in fieldnames if c != config.date_column)
    if not labels:
        raise EmptySeries("no value columns")
    width = len(fieldnames)
    where = {name: k for k, name in enumerate(fieldnames)}  # last one wins
    di = where.get(config.date_column)
    cols = [[] for _ in range(width)]
    nrows = 0
    for nrows, row in enumerate(filter(None, rows), start=1):  # no blank lines
        if len(row) != width:
            # a short row's absent cells read as empty and its absent date
            # as missing; a long row's extra cells are dropped
            cut = row[:width] + [""] * (width - len(row))
            if di is not None and len(row) <= di:
                cut[di] = None
            row = cut
        for col, cell in zip(cols, row):
            col.append(cell)

    # a row-by-row read stops at a bad date, after the cells of the rows
    # before it; so rows from a bad date on are not read
    text = cols[di] if di is not None else [None] * nrows
    errors = []
    try:
        days = [datetime.date.fromisoformat(t.strip()) for t in text]
    except (AttributeError, ValueError):
        at, error = _first_error(text, range(2, nrows + 2), lambda t, r:
                                 _parse_date(t, r, config.date_column))
        errors.append((at, -1, error))
        days = [datetime.date.fromisoformat(t.strip()) for t in text[:at - 2]]
    dates = _as_days(days)
    live = np.flatnonzero(dates >= np.datetime64(config.start_date, "D"))

    per_factor = {}
    for pos, label in enumerate(labels):
        if label in per_factor:
            continue  # the same cells again; see the repeat below
        cells = cols[where[label]] if label in where else [""] * nrows
        if live.size < nrows:
            cells = [cells[k] for k in live.tolist()]
        keep = np.flatnonzero(np.fromiter(map(bool, map(str.strip, cells)),
                                          bool, len(cells)))
        values = _column_values(cells, keep, config)
        if values is None:
            at, error = _first_error(cells, (live + 2).tolist(), lambda t, r:
                                     _parse_ret(t, r, label, config))
            errors.append((at, pos, error))
        per_factor[label] = (dates[live[keep]], values)
    if errors:
        raise min(errors, key=lambda e: e[:2])[2]
    # a label named m times reads each of its cells m times, row by row
    return {label: (np.repeat(day, labels.count(label)),
                    np.repeat(ret, labels.count(label)))
            for label, (day, ret) in per_factor.items()}


def _column_values(cells: list, keep: np.ndarray,
                   config: IngestConfig) -> np.ndarray | None:
    """Returns of one column's non-empty cells, at indices ``keep``, or
    None if a cell fails: one ``float`` pass, then vectorized checks."""
    if config.missing_policy == "error" and keep.size < len(cells):
        return None
    if keep.size < len(cells):
        cells = [cells[k] for k in keep.tolist()]
    try:
        values = np.fromiter(map(float, cells), float, keep.size)
    except ValueError:
        return None
    if not np.isfinite(values).all():
        return None
    if config.percent:
        values /= 100.0
    if config.log_returns:
        # np.expm1 differs from math.expm1 in the last bit on some inputs
        try:
            values = np.fromiter(map(math.expm1, values.tolist()), float,
                                 keep.size)
        except OverflowError:
            return None
    return values


def _first_error(cells: list, rows, parse):
    """(row, error) of the first cell that ``parse(cell, row)`` rejects:
    the per-cell scan that locates what a column-wide step found."""
    for row, cell in zip(rows, cells):
        try:
            parse(cell, row)
        except (ParseError, OverflowError) as exc:
            return row, exc
    raise AssertionError("every cell parsed one by one")


def _read_long(reader: csv.DictReader, config: IngestConfig):
    per_factor: dict[str, tuple[list, list]] = {}
    for rownum, record in enumerate(reader, start=2):
        day = _parse_date(record.get(config.date_column), rownum,
                          config.date_column)
        if day < config.start_date:
            continue
        name = (record.get(config.name_column) or "").strip()
        if not name:
            raise ParseError(rownum, config.name_column, "missing series name")
        value = _parse_ret(record.get(config.return_column), rownum,
                           config.return_column, config)
        if value is not None:
            days, values = per_factor.setdefault(name, ([], []))
            days.append(day)
            values.append(value)
    return {name: (_as_days(days), np.array(values))
            for name, (days, values) in per_factor.items()}


@dataclass(frozen=True)
class FixtureSpec:
    """Two-regime Gaussian fixture: a drift/vol break at a known index."""

    label: str = "synthetic"
    n_pre: int = 252
    n_post: int = 252
    drift_pre: float = 0.0008
    drift_post: float = -0.0008
    vol_pre: float = 0.01
    vol_post: float = 0.01
    frequency: Frequency = Frequency.DAILY
    start: datetime.date = datetime.date(1990, 1, 1)

    def __post_init__(self):
        if self.n_pre < 1 or self.n_post < 1:
            raise ValueError("regime lengths must be >= 1")

    @property
    def break_index(self) -> int:
        return self.n_pre


def make_fixture(seed: int, spec: FixtureSpec,
                 path: str | Path | None = None) -> ReturnSeries:
    """Generate a two-regime Gaussian series; optionally write it as CSV.

    Written values carry 12 significant digits so the file round-trips
    through ``load_csv`` at that precision. Identical seeds produce
    identical series and files.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    pre = spec.drift_pre + spec.vol_pre * rng.standard_normal(spec.n_pre)
    post = spec.drift_post + spec.vol_post * rng.standard_normal(spec.n_post)
    rets = np.concatenate([pre, post])
    n = rets.shape[0]
    dates = np.datetime64(spec.start, "D") + np.arange(n)
    series = ReturnSeries(dates=dates, returns=rets,
                          frequency=spec.frequency, label=spec.label)
    if path is not None:
        with open(path, "w", newline="") as fh:
            write_csv(series, fh)
    return series


def write_csv(series: ReturnSeries, fh: TextIO) -> None:
    """Write one series as a two-column (date, label) CSV, 12 significant
    digits per return."""
    writer = csv.writer(fh)
    writer.writerow(["date", series.label])
    for day, r in zip(series.dates.tolist(), series.returns):
        writer.writerow([day.isoformat(), f"{r:.12g}"])
