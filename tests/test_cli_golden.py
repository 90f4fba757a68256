"""CLI stdout, byte for byte, on a small deterministic factor panel and
for the bias model's subcommands.

The expected outputs under ``tests/data/cli_golden/`` of the panel cases
were written by the release before the column-wise CSV reader, the
``datetime64[D]`` date array and the shared one-split grid pass, from
the panel that ``write_panel`` builds. Those of ``bias`` and ``simulate``
were written by the release before the Kolmogorov-Smirnov statistic was
computed in ``minregime.bias`` and ``bias`` drew one stream of uniforms
per call. Every case must still print exactly those bytes. To add a
case, write its stdout from a checkout of the matching release.
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

#: subcommands that read no input; a case named ``*_json`` is JSON
MODEL_CASES = {
    "bias": ["bias", "--seed", "301"],
    "bias_large_n": ["bias", "--N", "1,3,1000000", "--trials", "5000",
                     "--seed", "7"],
    "bias_mu_sigma": ["bias", "--mu", "0.3", "--sigma", "2", "--seed", "1"],
    "bias_json": ["bias", "--seed", "301", "--format", "json"],
    "simulate": ["simulate", "--N", "1000", "--seed", "301"],
    "simulate_large_n": ["simulate", "--N", "100000", "--trials", "3000",
                         "--seed", "5"],
}


def stdout_of(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0
    return out.getvalue()


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
    got = stdout_of(CASES[name] + ["--input", str(panel)])
    assert got == (GOLDEN / f"{name}.csv").read_text()


@pytest.mark.parametrize("name", sorted(MODEL_CASES))
def test_model_stdout_matches_golden(name):
    suffix = ".json" if name.endswith("_json") else ".csv"
    got = stdout_of(MODEL_CASES[name])
    assert got == (GOLDEN / f"{name}{suffix}").read_text()
