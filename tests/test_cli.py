import csv
import json
import math

import pytest

from minregime.cli import main, parse_duration, parse_range
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
    ])
    def test_flag_without_effect_exit_2(self, factors_csv, argv):
        if argv[0] in ("frontier", "sensitivity"):
            argv = argv + ["--input", str(factors_csv)]
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2

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
        # more than 10,000 values was built until memory ran out
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
