"""CLI stdout, byte for byte, on a small deterministic factor panel.

The expected outputs under ``tests/data/cli_golden/`` were written by the
release before the column-wise CSV reader, the ``datetime64[D]`` date
array and the shared one-split grid pass, from the panel that
``write_panel`` builds. Every case must still print exactly those bytes.
To add a case, write its stdout from a checkout of that release.
"""

import contextlib
import datetime
import io
from pathlib import Path

import numpy as np
import pytest

from minregime.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden"

#: 8 years of business days, four factors; f2 and f3 start late
N_ROWS = 8 * 252
INCEPTION = {"f0": 0, "f1": 0, "f2": 252, "f3": 630}

CASES = {
    "report": ["report"],
    "frontier": ["frontier"],
    "correlations": ["correlations"],
    "portfolio": ["portfolio", "--weights", "f0=0.5,f1=0.3,f3=0.2"],
    "portfolio_sortino_s2": ["portfolio", "--weights", "f0=0.4,f2=0.6",
                             "--metric", "sortino", "--splits", "2",
                             "--min-segment", "1y"],
    "sensitivity": ["sensitivity"],
    "sensitivity_lookbacks": ["sensitivity", "--lookbacks", "2:8:1y",
                              "--ds", "0.5:3:0.5y"],
    "sensitivity_sortino": ["sensitivity", "--metric", "sortino",
                            "--mar", "0.0005", "--lookbacks", "2:8:1.5y"],
    "sensitivity_s2": ["sensitivity", "--splits", "2", "--lookbacks", "4,8",
                       "--ds", "1,2"],
}


def write_panel(path: Path) -> None:
    """Wide daily CSV: four two-regime factors, 12 significant digits,
    empty cells before each late factor's inception."""
    rng = np.random.Generator(np.random.Philox(2024))
    day, dates = datetime.date(2001, 1, 1), []
    while len(dates) < N_ROWS:
        if day.weekday() < 5:
            dates.append(day)
        day += datetime.timedelta(days=1)
    cols = []
    for label, first in INCEPTION.items():
        brk = int(rng.integers(N_ROWS // 3, 2 * N_ROWS // 3))
        drift = rng.uniform([0.0002, -0.0006], [0.0008, 0.0001])
        vol = rng.uniform(0.005, 0.015, 2)
        rets = np.concatenate([drift[0] + vol[0] * rng.standard_normal(brk),
                               drift[1] + vol[1] * rng.standard_normal(N_ROWS - brk)])
        cols.append([""] * first + [f"{v:.12g}" for v in rets[first:]])
    lines = ["date," + ",".join(INCEPTION)]
    lines += [day.isoformat() + "," + ",".join(col[i] for col in cols)
              for i, day in enumerate(dates)]
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def panel(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "panel.csv"
    write_panel(path)
    return path


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(panel, name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(CASES[name] + ["--input", str(panel)])
    assert code == 0
    assert out.getvalue() == (GOLDEN / f"{name}.csv").read_text()
