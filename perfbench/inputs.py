"""Seeded input generators for the benchmark workloads.

Every input is built here from the workload seed, with numpy's Philox
generator keyed by (seed, workload tag), so the same seed gives the same
inputs. Nothing comes from ``minregime.ingest.make_fixture``: the program
under test receives only what these functions produce.

Reduced-size instances come from the same generators with smaller n and
d; the benchmark checks them against ``mrp_brute_force``.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass

import numpy as np

from minregime.series import Frequency, ReturnSeries

DAILY_PPY = 252
PANEL_FACTORS = 10
PANEL_N = 40 * DAILY_PPY  # 10080 business days
PANEL_LATE_FACTORS = 3  # written as empty cells before inception
PANEL_START = datetime.date(1985, 1, 1)


def rng_for(seed: int, tag: str) -> np.random.Generator:
    key = [seed] + [ord(c) for c in tag]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


def business_days(start: datetime.date, n: int) -> tuple[datetime.date, ...]:
    """The first n Monday-to-Friday dates on or after ``start``."""
    out = []
    day = start
    while len(out) < n:
        if day.weekday() < 5:
            out.append(day)
        day += datetime.timedelta(days=1)
    return tuple(out)


def month_ends(start: datetime.date, n: int) -> tuple[datetime.date, ...]:
    out = []
    year, month = start.year, start.month
    for _ in range(n):
        nxt = datetime.date(year + month // 12, month % 12 + 1, 1)
        out.append(nxt - datetime.timedelta(days=1))
        year, month = nxt.year, nxt.month
    return tuple(out)


def two_regime(rng: np.random.Generator, n: int) -> np.ndarray:
    """Gaussian returns with one drift and volatility break in the middle third."""
    brk = int(rng.integers(n // 3, 2 * n // 3))
    drift = rng.uniform([0.0002, -0.0006], [0.0008, 0.0001])
    vol = rng.uniform(0.005, 0.015, 2)
    pre = drift[0] + vol[0] * rng.standard_normal(brk)
    post = drift[1] + vol[1] * rng.standard_normal(n - brk)
    return np.concatenate([pre, post])


def dated_series(returns: np.ndarray, label: str,
                 frequency: Frequency = Frequency.DAILY) -> ReturnSeries:
    start = datetime.date(1990, 1, 1)
    if frequency is Frequency.DAILY:
        dates = business_days(start, returns.shape[0])
    else:
        dates = month_ends(start, returns.shape[0])
    return ReturnSeries(dates=dates, returns=returns, frequency=frequency,
                        label=label)


# ---------------------------------------------------------------- panel


@dataclass(frozen=True)
class Panel:
    """A wide daily factor CSV and the exact values it encodes."""

    csv_text: str
    labels: tuple[str, ...]
    dates: tuple[datetime.date, ...]
    columns: tuple[np.ndarray, ...]  # values as the CSV writes them
    inception: tuple[int, ...]  # first live row per factor

    def series(self, k: int) -> ReturnSeries:
        first = self.inception[k]
        return ReturnSeries(dates=self.dates[first:],
                            returns=self.columns[k][first:],
                            label=self.labels[k])


def make_panel(seed: int, n: int = PANEL_N) -> Panel:
    """40y x 10-factor daily panel, one regime break per factor.

    The last three factors start between one and eight years late (in
    proportion, for a shorter panel); their rows before inception hold
    empty cells. Values carry 12 significant digits, and ``columns``
    holds them as parsed back from that text.
    """
    rng = rng_for(seed, "panel")
    labels = tuple(f"f{k}" for k in range(PANEL_FACTORS))
    dates = business_days(PANEL_START, n)
    late_from = PANEL_FACTORS - PANEL_LATE_FACTORS
    inception = tuple(
        0 if k < late_from else int(rng.integers(DAILY_PPY * n // PANEL_N,
                                                 8 * DAILY_PPY * n // PANEL_N))
        for k in range(PANEL_FACTORS))
    text_cols = []
    columns = []
    for k in range(PANEL_FACTORS):
        cells = [f"{v:.12g}" for v in two_regime(rng, n)]
        columns.append(np.array([float(c) for c in cells]))
        cells[:inception[k]] = [""] * inception[k]
        text_cols.append(cells)
    lines = ["date," + ",".join(labels)]
    for i, day in enumerate(dates):
        lines.append(day.isoformat() + ","
                     + ",".join(col[i] for col in text_cols))
    return Panel("\n".join(lines) + "\n", labels, dates, tuple(columns),
                 inception)


# ----------------------------------------------------------- multisplit


def make_clean(seed: int, n: int, tag: str) -> ReturnSeries:
    """Clean two-regime daily series of length n."""
    return dated_series(two_regime(rng_for(seed, tag), n), tag)


# ----------------------------------------------------------- degenerate


def make_padded(seed: int, n: int, pad: int, holiday_share: float,
                frequency: Frequency, tag: str) -> ReturnSeries:
    """Two-regime series whose first ``pad`` periods are zero (before
    inception) and with ``holiday_share`` of the live periods set to zero."""
    rng = rng_for(seed, tag)
    rets = two_regime(rng, n)
    rets[:pad] = 0.0
    live = np.arange(pad, n)
    holidays = rng.choice(live, size=int(round(holiday_share * live.size)),
                          replace=False)
    rets[holidays] = 0.0
    return dated_series(rets, tag, frequency)


def make_offset(seed: int, n: int, offset: float, vol: float,
                tag: str) -> ReturnSeries:
    """Returns at a constant offset with tiny volatility: prefix sums of
    squares lose most of their digits to cancellation here."""
    rng = rng_for(seed, tag)
    return dated_series(offset + vol * rng.standard_normal(n), tag)
