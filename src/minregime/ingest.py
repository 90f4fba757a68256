"""CSV ingestion of factor returns and synthetic fixture generation.

Default schema is wide: one date column plus one decimal-return column
per factor, ISO-8601 dates, header row. The long format (name, date,
ret) is read the same way, as one value column split by name. A leading
byte-order mark is dropped. Rows before ``start_date`` are dropped
(factor histories are truncated so every factor is live at the start).

A plain file (no quote, no overlong line, rows as wide as the header)
is split by ``str.split``, any other by ``csv.reader``: the same rows.
"""

from __future__ import annotations

import csv
import datetime
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TextIO

import numpy as np

from .errors import EmptySeries, MinRegimeError, ParseError
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
    """One date cell, parsed alone only to locate a column's first error."""
    if text is None:
        raise ParseError(row, column, "missing date cell")
    try:
        return datetime.date.fromisoformat(text.strip())
    except ValueError as exc:
        raise ParseError(row, column, f"bad date {text!r}") from exc


def _parse_ret(text: str, row: int, column: str,
               config: IngestConfig) -> None:
    """One return cell, read by ``_column_values`` alone only to locate a
    column's first error: the ParseError of the rule it breaks names the
    cell's text, unless the cell is blank ("missing value")."""
    try:
        _column_values([text], config)
    except ValueError as exc:
        raise ParseError(row, column, f"{exc} {text!r}" if text.strip()
                         else str(exc)) from None


def load_csv(config: IngestConfig) -> list[ReturnSeries]:
    """Load one ReturnSeries per factor column (or long-format name).

    Both layouts are read column by column, with the result and errors
    of a row-by-row read. The rows are ``csv.reader``'s, which a plain
    file (see ``_split``) gets from ``str.split``; a file that is not
    UTF-8, or has a field over the ``csv`` field size limit, raises a
    MinRegimeError that names it. Blank lines are skipped; a short row's
    absent cells read as empty and its absent date as missing; a long
    row's extra cells are dropped; a repeated header name means its last
    column. Rows before ``start_date`` are dropped. In the long layout a
    name column splits the rows of one value column, and series come in
    order of each name's first appearance. A failing column's first bad
    cell is found by the column rules (``_column_values``) run on one
    cell at a time, and the least (row, position) is raised: a row's
    date, then its name, then its values.
    Rows from a bad date on are not read. Then series are checked in
    label order for emptiness (EmptySeries), then for date order
    (``ReturnSeries`` raises DateOrderError).
    """
    path = Path(config.path)
    try:  # a byte-order mark is not part of the first header name
        text = path.read_bytes().decode("utf-8").removeprefix("\ufeff")
        if not text:
            raise EmptySeries(f"{path}: no header row")
        header, table, nrows = (_split(text)
                                or _columns(text, config.date_column))
    except UnicodeDecodeError as exc:
        raise MinRegimeError(f"{path}: not UTF-8 text ({exc.reason}) at byte "
                             f"{exc.start}") from None
    except csv.Error as exc:  # a field over the field size limit
        raise MinRegimeError(f"{path}: {exc}") from None
    labels = config.value_columns
    if labels is None:
        labels = tuple(c for c in header if c != config.date_column)
    if not labels and not config.long_format:
        raise EmptySeries("no value columns")

    def column(name: str, absent: str | None = "") -> tuple:
        return table.get(name, (absent,) * nrows)

    text = column(config.date_column, None)
    errors = []  # (row, position in the row, error); the least is raised
    try:
        days = [datetime.date.fromisoformat(t.strip()) for t in text]
    except (AttributeError, ValueError):
        at, error = _first_error(text, range(2, nrows + 2), lambda t, r:
                                 _parse_date(t, r, config.date_column))
        errors.append((at, -1, error))
        days = [datetime.date.fromisoformat(t.strip()) for t in text[:at - 2]]
    dates = _as_days(days)
    live = np.flatnonzero(dates >= np.datetime64(config.start_date, "D"))

    def read(name: str, pos: int) -> tuple:
        """Indices into ``live`` of non-empty cells, and their returns."""
        cells = _take(column(name), live)
        try:
            return _column_values(cells, config)
        except (ValueError, OverflowError):
            at, error = _first_error(cells, (live + 2).tolist(), lambda t, r:
                                     _parse_ret(t, r, name, config))
            errors.append((at, pos, error))
            return None, None

    if config.long_format:
        names = list(map(str.strip, _take(column(config.name_column), live)))
        if "" in names:
            at = int(live[names.index("")]) + 2
            errors.append((at, 0, ParseError(at, config.name_column,
                                             "missing series name")))
        keep, values = read(config.return_column, 1)
    else:  # a repeated label is read once, and repeated below
        read_once = {label: read(label, labels.index(label))
                     for label in dict.fromkeys(labels)}
    if errors:
        raise min(errors, key=lambda e: e[:2])[2]

    if config.long_format:
        names = _take(names, keep)
        labels = list(dict.fromkeys(names))  # order of first appearance
        code = np.fromiter(map(dict(zip(labels, range(len(labels)))).get,
                               names), np.intp, len(names))
        order = np.argsort(code, kind="stable")
        cuts = np.cumsum(np.bincount(code))[:-1]
        per_factor = zip(labels, np.split(dates[live[keep]][order], cuts),
                         np.split(values[order], cuts))
    else:
        # a label named m times reads each of its cells m times, row by row
        per_factor = [(label, np.repeat(dates[live[keep]], labels.count(label)),
                       np.repeat(values, labels.count(label)))
                      for label, (keep, values) in read_once.items()]
    out = []
    for label, day, ret in per_factor:
        if not day.size:
            raise EmptySeries(f"{path}: series {label!r} empty after truncation")
        out.append(ReturnSeries(dates=day, returns=ret,
                                frequency=config.frequency, label=label))
    if not out:
        raise EmptySeries(f"{path}: no factor columns found")
    return out


def _split(text: str) -> tuple[list[str], dict, int] | None:
    """``_columns``'s result by ``str.split``, where that gives the rows of
    ``csv.reader``: no quote, no line over the field size limit, and each
    non-blank body line (ended by \\n, \\r\\n or \\r) as wide as the
    header. None for any other text."""
    if "\r" in text:  # one scan, where the replaces take two
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    header = lines[0].split(",")
    width = len(header)
    body = [line for line in lines[1:] if line]
    if ('"' in text or not lines[0]
            or max(map(len, lines)) > csv.field_size_limit()
            or any(line.count(",") != width - 1 for line in body)):
        return None
    nrows, joined = len(body), ",".join(body)
    del lines, body  # the line strings go before the cells are made
    cells = joined.split(",") if nrows else []
    columns = (cells[k::width] for k in range(width))
    return header, dict(zip(header, columns)), nrows


def _columns(text: str, date_column: str) -> tuple:
    """Header, cells by header name and count of the non-blank rows of a
    non-empty text, read by ``csv.reader``. Each row is cut or padded to
    the header's width: a short row's absent cells read as empty, its
    absent date as None. A repeated header name means its last column."""
    rows = csv.reader(io.StringIO(text, newline=""))
    header = next(rows)
    width = len(header)
    di = {name: k for k, name in enumerate(header)}.get(date_column)

    def pad(row: list[str]) -> list:
        cut = row[:width] + [""] * (width - len(row))
        if di is not None and len(row) <= di:
            cut[di] = None
        return cut
    rows = [row if len(row) == width else pad(row) for row in rows if row]
    return header, dict(zip(header, zip(*rows))), len(rows)


def _take(cells, at: np.ndarray):
    """The cells at indices ``at``; ``cells`` itself when that is all."""
    return cells if at.size == len(cells) else [cells[k] for k in at.tolist()]


def _column_values(cells, config: IngestConfig) -> tuple:
    """Indices of a column's non-empty cells and their returns: one
    ``float`` pass, then vectorized checks. Cells are stripped only if
    ``float`` fails on one. These are the return-cell rules: a cell that
    breaks one raises ValueError naming it ("missing value", "bad
    number", "non-finite return"), or ``math.expm1``'s OverflowError.
    Run on one cell, they raise that cell's error."""
    n = len(cells)
    keep = (np.flatnonzero(np.fromiter(map(bool, cells), bool, n))
            if "" in cells else np.arange(n))
    try:
        values = np.fromiter(map(float, filter(None, cells)), float, keep.size)
    except ValueError:
        keep = np.flatnonzero(np.fromiter(map(bool, map(str.strip, cells)),
                                          bool, n))
        try:
            values = np.fromiter(map(float, _take(cells, keep)), float,
                                 keep.size)
        except ValueError:
            raise ValueError("bad number") from None
    if config.missing_policy == "error" and keep.size < n:
        raise ValueError("missing value")
    if np.count_nonzero(np.isfinite(values)) < keep.size:
        raise ValueError("non-finite return")
    if config.percent:
        values /= 100.0
    if config.log_returns:
        # np.expm1 differs from math.expm1 in the last bit on some inputs
        values = np.fromiter(map(math.expm1, values.tolist()), float,
                             keep.size)
    return keep, values


def _first_error(cells, rows, parse):
    """(row, error) of the first cell that ``parse(cell, row)`` rejects:
    the per-cell scan that locates what a column-wide step found."""
    for row, cell in zip(rows, cells):
        try:
            parse(cell, row)
        except (ParseError, OverflowError) as exc:
            return row, exc
    raise AssertionError("every cell parsed one by one")


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


def make_fixture(seed: int, spec: FixtureSpec) -> ReturnSeries:
    """Generate a two-regime Gaussian series. Identical seeds produce
    identical series. Returns that overflow raise NonFiniteReturn from
    ``ReturnSeries``, without a numpy warning."""
    rng = np.random.Generator(np.random.Philox(seed))
    with np.errstate(over="ignore", invalid="ignore"):
        pre = spec.drift_pre + spec.vol_pre * rng.standard_normal(spec.n_pre)
        post = spec.drift_post + spec.vol_post * rng.standard_normal(spec.n_post)
    rets = np.concatenate([pre, post])
    n = rets.shape[0]
    dates = np.datetime64(spec.start, "D") + np.arange(n)
    return ReturnSeries(dates=dates, returns=rets,
                        frequency=spec.frequency, label=spec.label)


def write_csv(series: ReturnSeries, fh: TextIO) -> None:
    """Write one series as a two-column (date, label) CSV, 12 significant
    digits per return, so the file round-trips through ``load_csv`` at
    that precision."""
    writer = csv.writer(fh)
    writer.writerow(["date", series.label])
    for day, r in zip(series.dates.tolist(), series.returns):
        writer.writerow([day.isoformat(), f"{r:.12g}"])
