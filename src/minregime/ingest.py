"""CSV ingestion of factor returns and synthetic fixture generation.

Default schema is wide: one date column plus one decimal-return column
per factor, ISO-8601 dates, header row. The long format (name, date,
ret) is read the same way, as one value column split by name. A leading
byte-order mark is dropped. Rows before ``start_date`` are dropped
(factor histories are truncated so every factor is live at the start).

The header record is read once, and the body after it in blocks of rows
(a quoted field may lengthen one, at worst to the end of the file). A
plain block (no quote, NUL or overlong line; rows as wide as the header)
is split by ``str.split``, any other by ``csv.reader``: the same rows. A
wide block of digits, ``.,-+eE`` and line ends only, dates first, is read by
``np.loadtxt`` in C; where that or a later step fails, it is read as before.
Cells are converted as they stand; the cell rules run only where that fails.
"""

from __future__ import annotations

import contextlib
import csv
import datetime
import io
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import TextIO

import numpy as np

from .errors import EmptySeries, MinRegimeError, ParseError
from .series import Frequency, ReturnSeries, _as_days

_BLOCK = 1 << 17  # least characters of text per block of rows
_EOL = re.compile(r"\r\n?|\n|\Z")  # a line end, as csv.reader's, or the end
_DATED = re.compile(r"\n*[0-9]{4}-[0-9]{2}-[0-9]{2}[,\n]")  # a dated first row
_NUMBERS = b"0123456789.,-+eE\n"  # the bytes of a block np.loadtxt may read


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


def _dates(cells) -> list[datetime.date]:
    """The date-cell rule: a cell stripped of blanks is an ASCII ISO-8601
    date, with "-" at index 4 if 10 long (3.11 takes "1990010299"). A
    missing cell (None) raises AttributeError, a bad one ValueError. Cells
    of 10 characters with "-" at index 4 are read as they stand."""
    with contextlib.suppress(TypeError, ValueError):  # None, or a bad cell
        text = "".join(cells)
        if len(text) == 10 * len(cells) and text[4::10] == "-" * len(cells):
            return list(map(datetime.date.fromisoformat, cells))
    return [datetime.date.fromisoformat(  # "" raises the ValueError
        t if t.isascii() and (len(t) != 10 or t[4] == "-") else "")
        for t in (cell.strip() for cell in cells)]


def load_csv(config: IngestConfig) -> list[ReturnSeries]:
    """Load one ReturnSeries per factor column (or long-format name).

    Both layouts are read column by column: the header record once, then
    the body in blocks of rows, with the rows of ``csv.reader`` and the
    result and errors of a row-by-row read. A block ends at the first line
    end ``_BLOCK`` characters on; one that may end inside a quoted field
    (``_columns``) is read again, cut at least twice as long: at worst,
    where each record's last cell ends in a quoted line end, to the end of
    the file. The header is the first line where ``csv.reader`` reads it
    strictly as one record, else the text's first record, read as a file.
    Blank lines are skipped; a short row's absent cells read as empty and
    its absent date as missing; a long row's extra cells are dropped; a
    repeated header name means its last column. Rows before ``start_date``
    are dropped. In the long layout a name column splits the rows of one
    value column, and series come in the order their names first appear.

    Errors come in file order. A file that is not UTF-8 raises a
    MinRegimeError that names it, before any row is read. A field over the
    ``csv`` field size limit (or a NUL, on Python 3.10) raises a
    MinRegimeError that names it, when the header or its block is read. If
    a column-wise step fails, one row-by-row read of that block's text
    (``_first_bad_cell``) raises the first bad cell's ParseError, which is
    the file's first, as every earlier block passed: a row's date, then
    its name, then its values, each cell read by the same rules
    (``_dates``, ``_column_values``) run on that cell alone. Then series
    are checked in label order for emptiness (EmptySeries), then for date
    order (``ReturnSeries`` raises DateOrderError).
    """
    path = Path(config.path)
    try:  # a byte-order mark is not part of the first header name
        text = path.read_bytes().decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise MinRegimeError(f"{path}: not UTF-8 text ({exc.reason}) at byte "
                             f"{exc.start}") from None
    if not text:
        raise EmptySeries(f"{path}: no header row")
    try:
        line = text[:_EOL.search(text).end()]
        try:  # the header record, where the first line holds all of it
            header, start = next(csv.reader([line], strict=True)), len(line)
        except csv.Error:  # a quote hides the line end, or a bad line
            lines = io.StringIO(text, newline="")
            header, start = next(csv.reader(lines)), lines.tell()
        width = len(header)
        index = {name: k for k, name in enumerate(header)}  # last one wins
        labels = config.value_columns
        if labels is None:
            labels = tuple(c for c in header if c != config.date_column)
        if not labels and not config.long_format:
            raise EmptySeries("no value columns")
        parts = ({} if config.long_format else  # label: blocks' kept cells
                 {label: [] for label in dict.fromkeys(labels)})
        date = index.get(config.date_column)
        done, pos, cut, size = 0, start, -1, _BLOCK  # rows before the block
        while cut < len(text):
            cut = _EOL.search(text, pos + size).end()
            block = text[pos:cut]
            read = _split(block, width) or _columns(block, width, date,
                                                    cut == len(text))
            if read is None:  # a quoted field may run on past the cut
                size = 2 * (cut - pos)
                continue
            if ((config.long_format or date) and width > 1
                    and isinstance(read[0][1], np.ndarray)):
                read = _columns(block, width, date, True)  # text, not numbers
            try:
                got = _read_block(config, labels, _table(read, index))
            except (AttributeError, ValueError):  # locate it in the text
                cells = _table(_columns(block, width, date, True), index)
                raise _first_bad_cell(config, cells, labels, done) from None
            for label, day, ret in got:
                parts.setdefault(label, []).append((day, ret))
            done += read[1]
            pos, size = cut, _BLOCK
    except csv.Error as exc:  # a field over the size limit; NUL on 3.10
        raise MinRegimeError(f"{path}: {exc}") from None

    out = []
    for label, pieces in parts.items():
        # a label named m times reads each of its cells m times, row by row
        times = 1 if config.long_format else labels.count(label)
        day, ret = (np.repeat(v, times) if times > 1 else v
                    for v in map(np.concatenate, zip(*pieces)))
        if not day.size:
            raise EmptySeries(f"{path}: series {label!r} empty after truncation")
        out.append(ReturnSeries(dates=day, returns=ret,
                                frequency=config.frequency, label=label))
    if not out:
        raise EmptySeries(f"{path}: no factor columns found")
    return out


def _table(read: tuple, index: dict):
    """``column(name, absent)``: the cells of a block's named column, or
    ``absent`` in each row for a name not in ``index``."""
    columns, nrows = read
    return lambda name, absent="": (columns[index[name]] if name in index
                                    else (absent,) * nrows)


def _read_block(config: IngestConfig, labels, column):
    """(label, dates, returns) of the kept cells of one block, whose
    columns ``column(name)`` gives: each label once, or each name in order
    of first appearance. A bad cell raises AttributeError or ValueError."""
    dates = _as_days(_dates(column(config.date_column, None)))
    live = np.flatnonzero(dates >= np.datetime64(config.start_date, "D"))
    if not config.long_format:
        read = []
        for label in dict.fromkeys(labels):
            keep, values = _column_values(_take(column(label), live), config)
            read.append((label, dates[live[keep]], values))
        return read
    names = list(map(str.strip, _take(column(config.name_column), live)))
    if "" in names:
        raise ValueError("missing series name")
    keep, values = _column_values(
        _take(column(config.return_column), live), config)
    names = _take(names, keep)
    found = list(dict.fromkeys(names))  # order of first appearance
    code = np.fromiter(map(dict(zip(found, range(len(found)))).get, names),
                       np.intp, len(names))
    order = np.argsort(code, kind="stable")
    cuts = np.cumsum(np.bincount(code))[:-1]
    return zip(found, np.split(dates[live[keep]][order], cuts),
               np.split(values[order], cuts))


def _split(text: str, width: int) -> tuple[list, int] | None:
    """``_columns``'s result by ``str.split`` where that gives the rows of
    ``csv.reader``: no quote, no NUL (3.10's ``csv.reader`` rejects it), no
    line over the field size limit, each non-blank line (ended by \\n,
    \\r\\n or \\r, all made \\n) ``width`` cells wide. None for any other
    text. A text of ``_NUMBERS`` with a dated first row goes to ``_numbers``."""
    if '"' in text or "\0" in text:
        return None
    if "\r" in text:  # one scan, where the replaces take two
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    numbers = _DATED.match(text) and not text.encode().translate(
        None, _NUMBERS)
    lines = text.split("\n")
    if max(map(len, lines)) > csv.field_size_limit():
        return None
    if numbers and (read := _numbers(lines, width)):
        return read
    lines = [line for line in lines if line]
    if any(line.count(",") != width - 1 for line in lines):
        return None
    nrows, joined = len(lines), ",".join(lines)
    del lines  # the line strings go before the cells are made
    cells = joined.split(",") if nrows else []
    return [cells[k::width] for k in range(width)], nrows


def _numbers(lines: list[str], width: int) -> tuple[list, int] | None:
    """``_split``'s result by ``np.loadtxt``, each column but the first (cut
    to 11 characters, still no date) a float64 array of its cells' ``float``:
    None where a row is not ``width`` cells wide or a cell no number."""
    with contextlib.suppress(ValueError):
        dates, *values = np.loadtxt(
            lines, [("", "U11")] + [("", float)] * (width - 1), delimiter=",",
            comments=None, ndmin=1, unpack=True)  # an array per field
        return [dates.tolist(), *values], len(dates)


def _columns(text: str, width: int, date: int | None,
             last: bool) -> tuple[list, int] | None:
    """The cells, column by column, and the count of the non-blank rows of
    a text, read by ``csv.reader``, each row cut or padded to ``width``
    cells: absent cells read as empty, an absent date (index ``date``) as
    None. None if the text, not the file's ``last``, may end in a quoted
    field, as ``csv.reader`` then ends its last cell with a line end."""
    rows = [row for row in csv.reader(io.StringIO(text, newline="")) if row]
    if not last and rows and rows[-1][-1].endswith(("\n", "\r")):
        return None
    for k, row in enumerate(rows):
        if len(row) != width:
            rows[k] = row[:width] + [""] * (width - len(row))
            if date is not None and len(row) <= date:
                rows[k][date] = None
    return [[row[k] for row in rows] for k in range(width)], len(rows)


def _take(cells, at: np.ndarray):
    """The cells at indices ``at``; ``cells`` itself when that is all."""
    return cells if at.size == len(cells) else [cells[k] for k in at.tolist()]


def _column_values(cells, config: IngestConfig) -> tuple:
    """Indices of a column's non-empty cells and their returns: a ``float``
    pass over the cells as they stand, or a float64 array's copy (where it
    fails, one more without empty cells, then blank ones), then vectorized
    checks. These are the return-cell rules: a cell that breaks one raises
    ValueError naming it
    ("missing value", "bad number", "non-finite return", also where
    ``math.expm1`` overflows). Run on one cell, they raise its error."""
    n = len(cells)
    try:  # float rejects an empty or blank cell, so this keeps every one
        keep, values = np.arange(n), (
            cells.astype(float) if isinstance(cells, np.ndarray)
            else np.fromiter(map(float, cells), float, n))
    except ValueError:
        keep = np.flatnonzero(np.fromiter(map(bool, cells), bool, n))
        try:
            values = np.fromiter(map(float, filter(None, cells)), float,
                                 keep.size)
        except ValueError:
            keep = np.flatnonzero(np.fromiter(
                map(bool, map(str.strip, cells)), bool, n))
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
        try:
            values = np.fromiter(map(math.expm1, values.tolist()), float,
                                 keep.size)
        except OverflowError:
            raise ValueError("non-finite return") from None
    return keep, values


def _first_bad_cell(config: IngestConfig, column, labels,
                    done: int) -> ParseError:
    """The error of a row-by-row read of the cells ``column(name)`` gives,
    once a column-wise step has failed, for a block that follows ``done``
    non-blank rows. Each row's date is read first,
    and a row before ``start_date`` is skipped; then, in the long layout,
    its series name; then its cell of each value column, in order of
    first position in ``labels``. A cell is read by its column's rule run
    on that one cell."""
    start = np.datetime64(config.start_date, "D")
    names = column(config.name_column) if config.long_format else None
    values = {name: column(name) for name in
              ((config.return_column,) if config.long_format else labels)}
    for k, text in enumerate(column(config.date_column, None)):
        row = done + k + 2
        try:
            day = np.datetime64(_dates([text])[0], "D")
        except (AttributeError, ValueError):
            return ParseError(row, config.date_column, "missing date cell"
                              if text is None else f"bad date {text!r}")
        if day < start:
            continue
        if names is not None and not names[k].strip():
            return ParseError(row, config.name_column, "missing series name")
        for name, cells in values.items():
            try:
                _column_values([cells[k]], config)
            except ValueError as exc:
                return ParseError(row, name, f"{exc} {cells[k]!r}"
                                  if cells[k].strip() else str(exc))
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
