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

from .errors import DateOrderError, EmptySeries, ParseError
from .series import Frequency, ReturnSeries


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


def _parse_date(text: str, row: int, column: str) -> datetime.date:
    try:
        return datetime.date.fromisoformat(text.strip())
    except ValueError as exc:
        raise ParseError(row, column, f"bad date {text!r}") from exc


def _parse_ret(text: str, row: int, column: str, config: IngestConfig) -> float:
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
    EmptySeries.
    """
    path = Path(config.path)
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise EmptySeries(f"{path}: no header row")
        if config.long_format:
            per_factor = _read_long(reader, config)
        else:
            per_factor = _read_wide(reader, config)
    out = []
    for label, rows in per_factor.items():
        if not rows:
            raise EmptySeries(f"{path}: series {label!r} empty after truncation")
        prev = None
        for day, _ in rows:
            if prev is not None and day <= prev:
                raise DateOrderError(
                    f"series {label!r}: date {day} not after {prev}")
            prev = day
        out.append(ReturnSeries(
            dates=tuple(day for day, _ in rows),
            returns=np.array([v for _, v in rows]),
            frequency=config.frequency,
            label=label,
        ))
    if not out:
        raise EmptySeries(f"{path}: no factor columns found")
    return out


def _read_wide(reader: csv.DictReader, config: IngestConfig):
    columns = config.value_columns
    if columns is None:
        columns = tuple(c for c in reader.fieldnames if c != config.date_column)
    if not columns:
        raise EmptySeries("no value columns")
    per_factor: dict[str, list] = {c: [] for c in columns}
    for rownum, record in enumerate(reader, start=2):
        raw_date = record.get(config.date_column)
        if raw_date is None:
            raise ParseError(rownum, config.date_column, "missing date cell")
        day = _parse_date(raw_date, rownum, config.date_column)
        if day < config.start_date:
            continue
        for col in columns:
            cell = record.get(col)
            if cell is None or cell.strip() == "":
                if config.missing_policy == "error":
                    raise ParseError(rownum, col, "missing value")
                continue
            per_factor[col].append((day, _parse_ret(cell, rownum, col, config)))
    return per_factor


def _read_long(reader: csv.DictReader, config: IngestConfig):
    per_factor: dict[str, list] = {}
    for rownum, record in enumerate(reader, start=2):
        raw_date = record.get(config.date_column)
        if raw_date is None:
            raise ParseError(rownum, config.date_column, "missing date cell")
        day = _parse_date(raw_date, rownum, config.date_column)
        if day < config.start_date:
            continue
        name = (record.get(config.name_column) or "").strip()
        if not name:
            raise ParseError(rownum, config.name_column, "missing series name")
        cell = record.get(config.return_column)
        if cell is None or cell.strip() == "":
            if config.missing_policy == "error":
                raise ParseError(rownum, config.return_column, "missing value")
            continue
        per_factor.setdefault(name, []).append(
            (day, _parse_ret(cell, rownum, config.return_column, config)))
    return per_factor


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
    dates = tuple(spec.start + datetime.timedelta(days=i) for i in range(n))
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
    for day, r in zip(series.dates, series.returns):
        writer.writerow([day.isoformat(), f"{r:.12g}"])
