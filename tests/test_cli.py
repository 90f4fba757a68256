import argparse
import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from minregime import cli
from minregime.cli import build_parser, main, parse_duration, parse_range
from minregime.series import Frequency


@pytest.fixture
def factors_csv(tmp_path):
    """Three synthetic factors, ~2.5 years of daily data."""
    import datetime

    import numpy as np

    rng = np.random.default_rng(7)
    day = datetime.date(1995, 1, 2)
    lines = ["date,alpha,beta,gamma"]
    for i in range(630):
        vals = rng.normal([0.0006, 0.0, -0.0003], 0.01)
        lines.append(f"{day + datetime.timedelta(days=i)},"
                     + ",".join(f"{v:.8f}" for v in vals))
    path = tmp_path / "factors.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


class TestParsing:
    def test_duration_years(self):
        assert parse_duration("2y", Frequency.DAILY) == 504
        assert parse_duration("2y", Frequency.MONTHLY) == 24

    def test_duration_periods(self):
        assert parse_duration("504p", Frequency.DAILY) == 504

    def test_range_colon(self):
        assert parse_range("10:40:10y") == [10, 20, 30, 40]

    def test_range_list(self):
        assert parse_range("1,2.5,4") == [1, 2.5, 4]


class TestReport:
    def test_columns_and_exit_code(self, factors_csv, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = main(["report", "--input", str(factors_csv),
                     "--lookback", "2y", "--min-segment", "0.25y",
                     "--out", str(out)])
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert [r["label"] for r in rows] == ["alpha", "beta", "gamma"]
        assert list(rows[0]) == ["label", "sharpe", "mrp1", "left_sr",
                                 "right_sr", "split_date"]
        for r in rows:
            assert float(r["mrp1"]) == min(float(r["left_sr"]),
                                           float(r["right_sr"]))
            month, day, year = r["split_date"].split("/")
            assert len(year) == 2

    def test_byte_identical_reruns(self, factors_csv, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["report", "--input", str(factors_csv), "--lookback", "2y",
                "--min-segment", "0.25y"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_csv_json_same_values(self, factors_csv, tmp_path):
        c, j = tmp_path / "r.csv", tmp_path / "r.json"
        argv = ["report", "--input", str(factors_csv), "--lookback", "2y",
                "--min-segment", "0.25y"]
        assert main(argv + ["--out", str(c), "--format", "csv"]) == 0
        assert main(argv + ["--out", str(j), "--format", "json"]) == 0
        csv_rows = list(csv.DictReader(c.open()))
        json_rows = json.load(j.open())
        assert csv_rows == json_rows

    def test_missing_input_is_data_error(self, tmp_path):
        code = main(["report", "--input", str(tmp_path / "missing.csv")])
        assert code == 1

    @pytest.mark.parametrize("data, message", [
        (b"date,f\xe9\n2020-01-01,0.01\n",
         "not UTF-8 text (invalid continuation byte) at byte 6"),
        # the offset counts a leading byte-order mark
        (b"\xef\xbb\xbfdate,f\n2020-01-01,\xff\n",
         "not UTF-8 text (invalid start byte) at byte 21"),
        (b"date,f\n2020-01-01,0." + b"1" * 131_072 + b"\n",
         "field larger than field limit (131072)"),
    ], ids=["not-utf8", "not-utf8-after-bom", "over-field-limit"])
    def test_unreadable_file_is_data_error(self, tmp_path, capsys, data,
                                           message):
        path = tmp_path / "bad.csv"
        path.write_bytes(data)
        assert main(["report", "--input", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}: {message}\n"
        assert "Traceback" not in err

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as info:
            main(["report", "--nonsense"])
        assert info.value.code == 2

    @pytest.mark.parametrize("duration", ["2", "y", "twop"])
    def test_bad_min_segment_exit_2(self, factors_csv, duration):
        with pytest.raises(SystemExit) as info:
            main(["report", "--input", str(factors_csv),
                  "--min-segment", duration])
        assert info.value.code == 2

    def test_bad_min_segment_names_subcommand(self, factors_csv, capsys):
        with pytest.raises(SystemExit) as info:
            main(["portfolio", "--input", str(factors_csv),
                  "--weights", "alpha=1", "--min-segment", "2"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: minregime portfolio")
        assert "--min-segment" in err

    @pytest.mark.parametrize("argv", [
        ["bias", "--min-segment", "2"],
        ["bias", "--metric", "sortino"],
        ["simulate", "--lookback", "10y"],
        ["fixture", "--jobs", "2"],
        ["fixture", "--format", "json"],
        ["frontier", "--splits", "3"],
        ["sensitivity", "--min-segment", "2y"],
        # --mar is read only by Sortino, and the fixture's dates are
        # consecutive days at either frequency: both printed the bytes of
        # a run without them
        ["report", "--mar", "0.01"],
        ["portfolio", "--mar", "0.01", "--weights", "alpha=1"],
        ["correlations", "--metric", "sharpe", "--mar", "-0.0"],
        ["fixture", "--frequency", "monthly"],
    ])
    def test_flag_without_effect_exit_2(self, factors_csv, argv):
        if argv[0] not in ("bias", "simulate", "fixture"):
            argv = argv + ["--input", str(factors_csv)]
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2

    @pytest.mark.parametrize("flag", ["--N", "--trials"])
    def test_bias_count_not_a_number_exit_2(self, flag, capsys):
        # bias --N abc reported "invalid <lambda> value"
        with pytest.raises(SystemExit) as info:
            main(["bias", flag, "abc"])
        assert info.value.code == 2
        assert (f"argument {flag}: invalid int value: 'abc'"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_exit_2(self, factors_csv, jobs):
        with pytest.raises(SystemExit) as info:
            main(["sensitivity", "--input", str(factors_csv), "--jobs", jobs])
        assert info.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["sensitivity", "--lookbacks", "1:2:0"],
        ["sensitivity", "--lookbacks", "1:2:-0.5y"],
        ["sensitivity", "--lookbacks", "1:inf:1y"],
        ["sensitivity", "--lookbacks", "1:2:half"],
        ["sensitivity", "--lookbacks", "5:1:1y"],
        ["sensitivity", "--ds", "0.25:1:0y"],
        ["sensitivity", "--ds", "one,two"],
        ["report", "--lookback", "forty"],
        ["correlations", "--lookback", "nany"],
        ["sensitivity", "--lookbacks", "-2"],
        ["sensitivity", "--lookbacks", "0,10"],
        ["sensitivity", "--lookbacks", "0:2:1y"],
        ["sensitivity", "--ds", "0"],
        ["report", "--lookback", "0y"],
        ["correlations", "--lookback", "-5"],
        ["sensitivity", "--splits", "0"],
        ["portfolio", "--splits", "0", "--weights", "alpha=1"],
        ["report", "--mar", "inf"],
        ["sensitivity", "--mar", "nan"],
        ["bias", "--N", "0"],
        ["bias", "--N", "2,0"],
        ["bias", "--N", "abc"],
        ["portfolio", "--weights", "alpha=abc"],
        ["portfolio", "--weights", "alpha"],
        ["portfolio", "--weights", "alpha=inf"],
        ["portfolio", "--weights", "alpha=0"],
        ["portfolio", "--weights", "alpha=0,beta=0.0"],
        ["fixture", "--n-pre", "0"],
        ["fixture", "--n-post", "0"],
        ["fixture", "--vol-pre", "inf"],
        ["bias", "--mu", "inf"],
        ["simulate", "--sigma", "nan"],
        ["simulate", "--N", "0"],
        ["report", "--min-segment", "infy"],
        ["report", "--min-segment", "1e400y"],
        ["report", "--min-segment", "0p"],
        ["portfolio", "--min-segment", "1p", "--weights", "alpha=1"],
        ["correlations", "--min-segment", "0y"],
        ["report", "--lookback", "1e308"],
        ["sensitivity", "--lookbacks", "1e308"],
        ["sensitivity", "--ds", "1e308"],
        ["report", "--min-segment", "0.1y", "--frequency", "monthly",
         "--input", "missing.csv"],
        ["sensitivity", "--lookbacks", "1:1e6:1y"],
        ["sensitivity", "--lookbacks", "1:1e12:1y"],
        ["sensitivity", "--ds", "1:2:1e-12y"],
        ["sensitivity", "--ds", "0.001,0.5"],
        ["sensitivity", "--ds", "0.5,0.005"],
        ["sensitivity", "--ds", "0.1,1", "--frequency", "monthly",
         "--input", "missing.csv"],
        ["sensitivity", "--ds", "0.1:1:0.3y", "--frequency", "monthly"],
        ["simulate", "--N", "5"],
        ["simulate", "--N", "9"],
        ["bias", "--sigma", "0"],
        ["bias", "--sigma", "-1"],
        ["simulate", "--sigma", "0"],
        ["simulate", "--sigma", "-1"],
    ])
    def test_bad_year_flags_exit_2(self, factors_csv, argv, capsys):
        # a step <= 0 once looped without end, a non-number or an empty
        # grid raised a traceback (exit 1) once the data had been read, a
        # year <= 0 printed rows of Infeasible cells (exit 0), and
        # --splits 0, a count N of 0 or an infinite --mar failed only in
        # the computation (exit 1); a bad --weights entry, a regime length
        # of 0 or an infinite volatility ended in a traceback, and an
        # infinite --mu exited 0; an infinite --min-segment, or a year
        # count whose period count overflows, raised OverflowError, and a
        # --min-segment below 2 periods failed only in the computation, at
        # a monthly frequency once the input had been read; a grid of
        # more than 10,000 values was built until memory ran out; a --ds
        # value below 2 periods at the input's frequency printed a column
        # of Infeasible cells (exit 0); a simulate --N below 10 and a
        # --sigma <= 0 failed only in the computation (exit 1)
        if (argv[0] not in ("bias", "simulate", "fixture")
                and "--input" not in argv):
            argv = argv + ["--input", str(factors_csv)]
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert f"argument {argv[1]}:" in capsys.readouterr().err


class TestSensitivity:
    def test_infeasible_markers(self, factors_csv, tmp_path):
        out = tmp_path / "grid.csv"
        code = main(["sensitivity", "--input", str(factors_csv),
                     "--lookbacks", "1:2:1y", "--ds", "0.25,0.75",
                     "--out", str(out)])
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        cell = {(r["label"], r["lookback_years"], r["d_years"]):
                r["mrp_minus_sharpe"] for r in rows}
        assert cell[("alpha", "1", "0.75")] == "Infeasible"
        assert cell[("alpha", "1", "0.25")] != "Infeasible"

    @pytest.mark.parametrize("ds,frequency", [("0.008", "daily"),
                                               ("0.17", "monthly")])
    def test_ds_of_two_periods_runs(self, factors_csv, tmp_path, ds,
                                    frequency):
        # 0.008y is 2 periods daily and 0.17y 2 monthly: the least d kept
        out = tmp_path / "grid.csv"
        assert main(["sensitivity", "--input", str(factors_csv),
                     "--lookbacks", "1", "--ds", ds, "--frequency", frequency,
                     "--out", str(out)]) == 0
        assert len(list(csv.DictReader(out.open()))) == 3

    def test_jobs_byte_identical(self, factors_csv, tmp_path):
        a, b = tmp_path / "g1.csv", tmp_path / "g8.csv"
        argv = ["sensitivity", "--input", str(factors_csv),
                "--lookbacks", "1:2:0.5y", "--ds", "0.2,0.3"]
        assert main(argv + ["--jobs", "1", "--out", str(a)]) == 0
        assert main(argv + ["--jobs", "8", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestBias:
    def test_analytic_row(self, tmp_path):
        out = tmp_path / "bias.csv"
        code = main(["bias", "--N", "2", "--sigma", "1",
                     "--trials", "200000", "--out", str(out)])
        assert code == 0
        (row,) = list(csv.DictReader(out.open()))
        assert float(row["exact_bias"]) == pytest.approx(
            1.0 / math.sqrt(math.pi), abs=1e-6)
        assert float(row["simulated_mean"]) == pytest.approx(
            -1.0 / math.sqrt(math.pi), abs=3 * float(row["se"]))

    def test_n1_exact_bias_is_positive_zero(self, tmp_path):
        out = tmp_path / "bias.csv"
        assert main(["bias", "--N", "1", "--trials", "100",
                     "--out", str(out)]) == 0
        (row,) = list(csv.DictReader(out.open()))
        assert row["exact_bias"] == "0.000000"
        assert math.copysign(1.0, float(row["exact_bias"])) == 1.0

    def test_model_flags(self, tmp_path):
        for argv in (["bias", "--N", "2", "--trials", "500"],
                     ["simulate", "--N", "50", "--trials", "200"]):
            out = tmp_path / f"{argv[0]}.csv"
            assert main(argv + ["--mu", "0.1", "--sigma", "2", "--seed", "3",
                                "--format", "json", "--out", str(out)]) == 0
            assert json.loads(out.read_text())

    @pytest.mark.parametrize("command", ["bias", "simulate"])
    @pytest.mark.parametrize("trials", ["1", "0"])
    def test_trials_below_two_exit_2(self, command, trials):
        # one trial has no standard error
        with pytest.raises(SystemExit) as info:
            main([command, "--N", "100", "--trials", trials])
        assert info.value.code == 2

    def test_deterministic_given_seed(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["bias", "--N", "2,5", "--trials", "5000", "--seed", "3"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


#: (subcommand, N, trials) of the overflow cases
MODEL_RUNS = [("bias", "5", "3"), ("simulate", "10", "3")]

#: (subcommand, mu, sigma, N, trials) of models whose sample sums or
#: squared deviations overflow while their mean and standard error fit
LARGE_MODELS = [("bias", 1e200, 1e200, "5", "50"),
                ("simulate", 8e307, 1e307, "100", "50")]


def moments(capsys, command, mu, sigma, n, trials):
    """The (simulated_mean, se) pairs that a run prints."""
    assert main([command, "--mu", repr(mu), "--sigma", repr(sigma), "--N", n,
                 "--trials", trials, "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    return [(float(r["simulated_mean"]), float(r["se"]))
            for r in rows if r["se"]]


class TestOthers:
    def test_frontier(self, factors_csv, tmp_path):
        out = tmp_path / "frontier.json"
        code = main(["frontier", "--input", str(factors_csv),
                     "--lookback", "2y", "--min-segment", "0.25y",
                     "--format", "json", "--out", str(out)])
        assert code == 0
        points = json.load(out.open())
        assert len(points) == 3
        assert set(points[0]) == {"label", "sharpe", "mrp", "dominated"}

    def test_correlations(self, factors_csv, tmp_path):
        out = tmp_path / "corr.csv"
        code = main(["correlations", "--input", str(factors_csv),
                     "--lookback", "2y", "--min-segment", "0.25y",
                     "--out", str(out)])
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert [r["metric"] for r in rows] == [
            "mrp", "sharpe", "rolling_sharpe_vol", "max_drawdown"]
        assert float(rows[0]["mrp"]) == pytest.approx(1.0)

    def test_correlations_of_two_factors_is_an_error(self, factors_csv,
                                                     tmp_path, capsys):
        # fewer than 3 factors ended in a traceback
        path = tmp_path / "two.csv"
        path.write_text("".join(line.rsplit(",", 1)[0] + "\n" for line in
                                factors_csv.read_text().splitlines()))
        code = main(["correlations", "--input", str(path),
                     "--lookback", "2y", "--min-segment", "0.25y"])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err == "error: correlations need >= 3 factors, got 2\n"

    def test_portfolio(self, factors_csv, tmp_path):
        out = tmp_path / "port.csv"
        code = main(["portfolio", "--input", str(factors_csv),
                     "--weights", "alpha=0.5,beta=0.5",
                     "--min-segment", "0.25y", "--out", str(out)])
        assert code == 0
        (row,) = list(csv.DictReader(out.open()))
        assert row["splits"]

    def test_portfolio_unknown_strategy(self, factors_csv):
        assert main(["portfolio", "--input", str(factors_csv),
                     "--weights", "nope=1.0", "--min-segment", "0.25y"]) == 1

    def test_portfolio_overflow_is_an_error(self, tmp_path, capsys):
        import datetime

        import numpy as np

        # N(0, 3) returns; at weights 1e308 the second day's sum overflows
        rets = np.random.default_rng(0).normal(0.0, 3.0, (800, 2))
        rets[:2] = [[0.5, -0.5], [2.0, 1.0]]
        day = datetime.date(2000, 1, 3)
        lines = ["date,a,b"] + [
            f"{day + datetime.timedelta(days=i)},{a:.8f},{b:.8f}"
            for i, (a, b) in enumerate(rets)]
        path = tmp_path / "large.csv"
        path.write_text("\n".join(lines) + "\n")
        code = main(["portfolio", "--input", str(path),
                     "--weights", "a=1e308,b=1e308", "--min-segment", "100p"])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err == ("error: series 'portfolio': return on 2000-01-04 is "
                       "not finite\n")

    def test_portfolio_overflowing_squares_are_an_error(self, tmp_path,
                                                        capsys):
        import datetime

        import numpy as np

        # at weights 1e160 each aggregate return is finite but its square
        # is not: the run printed mrp 0.000000 after a RuntimeWarning,
        # where weights 1 and 1e150 give the same negative minimum
        rets = np.random.default_rng(0).normal(0.0, 0.01, (600, 2))
        day = datetime.date(2000, 1, 3)
        lines = ["date,a,b"] + [
            f"{day + datetime.timedelta(days=i)},{a:.8f},{b:.8f}"
            for i, (a, b) in enumerate(rets)]
        path = tmp_path / "scaled.csv"
        path.write_text("\n".join(lines) + "\n")
        runs = [main(["portfolio", "--input", str(path), "--weights",
                      f"a={w},b={w}", "--min-segment", "100p"])
                for w in ("1", "1e150", "1e160")]
        out, err = capsys.readouterr()
        assert runs == [0, 0, 1]
        small, scaled = out.splitlines()[1::2]
        assert small == scaled and float(small.split(",")[0]) < 0
        assert err == "error: sharpe sums of the returns overflow\n"

    def test_subnormal_returns_print_as_their_scaled_twin(self, tmp_path,
                                                          capsys):
        import datetime

        import numpy as np

        # every spread of returns near 1e-310 underflows and is rescaled
        # by 2^-e; e below -1023 made 2.0 ** -e raise OverflowError, a
        # traceback. The ratios do not depend on scale: the output is that
        # of the same values times 2^1030, exactly.
        small = np.random.default_rng(3).normal(0.0, 1.0, 40) * 1e-310
        day = datetime.date(2000, 1, 3)
        outs = []
        for values in (small, np.ldexp(small, 1030)):
            lines = ["date,a"] + [f"{day + datetime.timedelta(days=i)},{v!r}"
                                  for i, v in enumerate(values.tolist())]
            path = tmp_path / "a.csv"
            path.write_text("\n".join(lines) + "\n")
            runs = [main(["report", "--input", str(path), "--min-segment",
                          "5p"]),
                    main(["portfolio", "--input", str(path), "--weights",
                          "a=1", "--splits", "2", "--min-segment", "5p"])]
            assert runs == [0, 0]
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert "a,-0.555379,-7.427308,0.880143,-7.427308,02/06/00" in outs[0]

    @pytest.mark.parametrize("command, n, trials", MODEL_RUNS,
                             ids=["bias", "simulate"])
    def test_model_overflow_is_an_error(self, command, n, trials, capsys):
        # draws that overflow printed -inf and Infeasible with exit 0
        code = main([command, "--sigma", "1e308", "--N", n, "--trials",
                     trials])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err == "error: a draw of Z overflows: mu or sigma too large\n"

    @pytest.mark.parametrize("command", ["bias", "simulate"])
    def test_n_beyond_float_range_is_an_error(self, command, capsys):
        # log V / N raised OverflowError, a traceback
        code = main([command, "--N", str(2 ** 1024), "--trials", "3"])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err == "error: N = s * n_s is too large for a float\n"
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, n, trials", MODEL_RUNS,
                             ids=["bias", "simulate"])
    def test_large_mean_is_finite(self, command, n, trials, capsys):
        # every draw is 1e308, whose sum overflowed: inf, inf was printed
        assert moments(capsys, command, 1e308, 1.0, n, trials) == [
            (1e308, 0.0)]

    @pytest.mark.parametrize("command, mu, sigma, n, trials", LARGE_MODELS,
                             ids=["bias", "simulate"])
    def test_large_moments_scale(self, command, mu, sigma, n, trials,
                                 capsys):
        # np.std's squared deviations (bias) or np.mean's sum (simulate)
        # overflowed, so se or both columns read inf; they are the moments
        # of the same model at a scale of 1e-200 or 1e-307, scaled back
        scale = sigma
        large = moments(capsys, command, mu, sigma, n, trials)
        small = moments(capsys, command, mu / scale, 1.0, n, trials)
        assert len(large) == len(small) >= 1
        for (m, se), (m1, se1) in zip(large, small):
            assert m == pytest.approx(m1 * scale, rel=1e-4)
            assert se == pytest.approx(se1 * scale, rel=1e-4)

    def test_fixture_overflow_is_an_error(self, capsys):
        # returns that overflow ended in a traceback
        code = main(["fixture", "--drift-pre", "1e308", "--vol-pre", "1e308"])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith("error: series 'synthetic': return on ")
        assert err.count("\n") == 1

    def test_simulate(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = main(["simulate", "--N", "100", "--trials", "2000",
                     "--out", str(out)])
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert rows[-1]["ks_distance"] != ""

    def test_fixture_roundtrip(self, tmp_path):
        out = tmp_path / "fix.csv"
        code = main(["fixture", "--out", str(out), "--seed", "4",
                     "--n-pre", "30", "--n-post", "30"])
        assert code == 0
        assert main(["report", "--input", str(out), "--lookback", "1y",
                     "--min-segment", "10p"]) == 0

    def test_fixture_without_out_writes_stdout(self, tmp_path, capsys):
        out = tmp_path / "fix.csv"
        argv = ["fixture", "--seed", "4", "--n-pre", "30", "--n-post", "30"]
        assert main(argv + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out == out.read_bytes().decode()


#: a value other than the default of each option of the subcommands that
#: read an input, as the argv that follows the flag
INPUT_VALUES = {
    "--help": [], "--input": ["{short}"], "--start-date": ["1995-06-01"],
    "--frequency": ["monthly"], "--percent": [], "--metric": ["sortino"],
    "--mar": ["0.0005"], "--min-segment": ["90p"], "--lookback": ["2y"],
    "--splits": ["2"], "--out": ["{out}"], "--format": ["json"],
    "--lookbacks": ["1,1.5"], "--ds": ["0.1,0.3"],
    "--weights": ["alpha=1,beta=-1"],
}
MODEL_VALUES = {
    "--help": [], "--mu": ["0.5"], "--sigma": ["2"], "--seed": ["1"],
    "--out": ["{out}"], "--format": ["json"], "--trials": ["30"],
}
#: per subcommand, the argv of a small run and the options' values
RUNS = {
    "report": (["--input", "{csv}", "--min-segment", "60p"], INPUT_VALUES),
    "frontier": (["--input", "{csv}", "--min-segment", "60p"], INPUT_VALUES),
    "correlations": (["--input", "{csv}", "--min-segment", "60p"],
                     INPUT_VALUES),
    "sensitivity": (["--input", "{csv}", "--lookbacks", "1,2",
                     "--ds", "0.2,0.3"], INPUT_VALUES),
    "portfolio": (["--input", "{csv}", "--weights", "alpha=1,beta=1",
                   "--min-segment", "60p"], INPUT_VALUES),
    "bias": (["--N", "1,3", "--trials", "20"],
             {**MODEL_VALUES, "--N": ["1,4"]}),
    "simulate": (["--N", "10", "--trials", "20"],
                 {**MODEL_VALUES, "--N": ["11"]}),
    "fixture": (["--n-pre", "5", "--n-post", "5"], {
        "--help": [], "--seed": ["1"], "--out": ["{out}"],
        "--label": ["other"], "--n-pre": ["6"], "--n-post": ["6"],
        "--drift-pre": ["0.1"], "--drift-post": ["0.1"],
        "--vol-pre": ["0.02"], "--vol-post": ["0.02"]}),
}
#: accepted for compatibility, without an effect (see the README)
COMPAT = {("report", "--seed"), ("report", "--jobs"),
          ("sensitivity", "--seed"), ("sensitivity", "--jobs")}


class TestFlagContract:
    def test_every_flag_has_an_effect(self, factors_csv, tmp_path, capsys):
        """Each option of each subcommand, at a listed value other than
        its default, changes stdout of a small run or is a usage error
        (exit 2). ``--percent`` scales the returns, which moves no Sharpe
        figure, so both of its runs are Sortino at a fixed threshold."""
        short = tmp_path / "short.csv"
        lines = factors_csv.open().readlines()
        short.write_text("".join(lines[:1] + lines[100:500]))
        paths = {"{csv}": str(factors_csv), "{short}": str(short),
                 "{out}": str(tmp_path / "out.txt")}

        def run(argv):
            try:
                code = main([paths.get(a, a) for a in argv])
            except SystemExit as exc:
                code = exc.code
            return code, capsys.readouterr().out

        parser = build_parser()
        subparsers = next(a for a in parser._actions
                          if isinstance(a, argparse._SubParsersAction))
        assert set(subparsers.choices) == set(RUNS)
        bases, failures = {}, []
        for name, p in subparsers.choices.items():
            argv, values = RUNS[name]
            for flag in (a.option_strings[-1] for a in p._actions
                         if a.option_strings):
                if (name, flag) in COMPAT:
                    continue
                if flag not in values:
                    failures.append((name, flag, "no value listed"))
                    continue
                shared = ([name, *argv, "--metric", "sortino", "--mar",
                           "0.0005"] if flag == "--percent" else [name, *argv])
                if tuple(shared) not in bases:
                    bases[tuple(shared)] = run(shared)
                code, base = bases[tuple(shared)]
                assert code == 0 and base, shared
                code, out = run(shared + [flag, *values[flag]])
                if code != 2 and out == base:
                    failures.append((name, flag, values[flag]))
        assert not failures


def subcommands(parser: argparse.ArgumentParser) -> dict:
    """The registered subparsers of ``parser``, by name."""
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def outcome(argv: list[str], capsys) -> tuple[object, str, str]:
    """Exit code, stdout and stderr of ``main(argv)``."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


#: per subcommand, a flag value that argparse or ``main`` rejects
BAD_VALUES = {
    "report": ["--lookback", "0"], "frontier": ["--format", "xml"],
    "correlations": ["--frequency", "weekly"],
    "sensitivity": ["--ds", "1:0:1"], "portfolio": ["--weights", "alpha"],
    "bias": ["--N", "0"], "simulate": ["--N", "9"],
    "fixture": ["--n-pre", "0"],
}


class TestNarrowedParser:
    """``main`` builds only the named subcommand's parser; its help and
    usage errors are the full parser's, byte for byte. Both sides are
    formatted in process, as argparse's layout varies across Python
    versions."""

    def test_every_subcommand_is_in_the_table(self):
        assert list(subcommands(build_parser())) == list(cli.COMMANDS)
        assert set(BAD_VALUES) == set(cli.COMMANDS)

    @pytest.mark.parametrize("name", list(cli.COMMANDS))
    def test_help_and_usage_match_the_full_parser(self, name):
        narrowed, full = build_parser(name), build_parser()
        assert list(subcommands(narrowed)) == [name]
        assert (subcommands(narrowed)[name].format_help()
                == subcommands(full)[name].format_help())
        assert narrowed.format_usage() == full.format_usage()

    def test_main_matches_the_full_parser(self, monkeypatch, capsys):
        argvs = [[], ["bogus"], ["--help"]]
        for name, bad in BAD_VALUES.items():
            argvs += [[name, "--bogus"], [name, "-h"], [name, *bad]]
        narrowed = [outcome(argv, capsys) for argv in argvs]
        full = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
        assert [outcome(argv, capsys) for argv in argvs] == narrowed
        assert [code for code, _, _ in narrowed] == [
            0 if {"-h", "--help"} & set(argv) else 2 for argv in argvs]

    def test_main_registers_one_subparser(self, monkeypatch, capsys):
        built = []
        real = cli.build_parser

        def spy(command=None):
            built.append(real(command))
            return built[-1]
        monkeypatch.setattr(cli, "build_parser", spy)
        assert main(["bias", "--N", "2", "--trials", "20"]) == 0
        for name in cli.COMMANDS:
            outcome([name, "-h"], capsys)
        assert [list(subcommands(p)) for p in built] == (
            [["bias"]] + [[name] for name in cli.COMMANDS])


def run_module(*argv: str) -> subprocess.CompletedProcess:
    """``python -m minregime.cli argv``, so ``main`` reads ``sys.argv``."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "minregime.cli", *argv],
                          env=env, capture_output=True, text=True)


class TestConsoleScript:
    def test_run_matches_in_process_main(self, capsys):
        done = run_module("bias", "--N", "2", "--trials", "20")
        assert main(["bias", "--N", "2", "--trials", "20"]) == 0
        assert done.returncode == 0 and done.stderr == ""
        assert done.stdout == capsys.readouterr().out

    def test_usage_error_lists_every_subcommand(self):
        done = run_module("bias", "--bogus")
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.startswith("usage: minregime [-h]")
        assert "{%s}" % ",".join(cli.COMMANDS) in done.stderr
        assert done.stderr.endswith(
            "minregime: error: unrecognized arguments: --bogus\n")
