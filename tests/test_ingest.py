import csv
import datetime
import io
import math
import tempfile
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minregime import (
    DateOrderError,
    EmptySeries,
    Frequency,
    MinRegimeError,
    ParseError,
    ZeroVariance,
    series_metric,
)
from minregime import ingest
from minregime.engine import mrp_one_split
from minregime.ingest import (FixtureSpec, IngestConfig, load_csv, make_fixture,
                              write_csv)


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_truncation_at_start_date(self, tmp_path):
        path = write(tmp_path, "date,f1\n1979-12-31,0.01\n1980-01-02,0.02\n")
        series = load_csv(IngestConfig(path))
        assert len(series) == 1
        assert series[0].dates == (datetime.date(1980, 1, 2),)
        assert series[0].returns.tolist() == [0.02]

    def test_rows_on_start_date_kept(self, tmp_path):
        path = write(tmp_path, "date,f1\n1980-01-01,0.01\n1980-01-02,0.02\n")
        (s,) = load_csv(IngestConfig(path))
        assert len(s) == 2

    def test_header_only_empty(self, tmp_path):
        path = write(tmp_path, "date,f1\n")
        with pytest.raises(EmptySeries):
            load_csv(IngestConfig(path))

    def test_wide_many_factors(self, tmp_path):
        cols = [f"f{i}" for i in range(13)]
        lines = ["date," + ",".join(cols)]
        day = datetime.date(1990, 1, 1)
        rng = np.random.default_rng(0)
        for i in range(40):
            vals = ",".join(f"{v:.6f}" for v in rng.normal(0, 0.01, 13))
            lines.append(f"{day + datetime.timedelta(days=i)},{vals}")
        path = write(tmp_path, "\n".join(lines) + "\n")
        series = load_csv(IngestConfig(path))
        assert len(series) == 13
        assert {s.label for s in series} == set(cols)
        assert all(len(s) == 40 for s in series)

    def test_bad_number_reports_row_and_column(self, tmp_path):
        path = write(tmp_path, "date,f1\n1990-01-01,0.01\n1990-01-02,oops\n")
        with pytest.raises(ParseError) as info:
            load_csv(IngestConfig(path))
        assert info.value.row == 3
        assert info.value.column == "f1"

    def test_bad_date(self, tmp_path):
        path = write(tmp_path, "date,f1\nnot-a-date,0.01\n")
        with pytest.raises(ParseError) as info:
            load_csv(IngestConfig(path))
        assert info.value.column == "date"

    def test_non_monotone_dates(self, tmp_path):
        path = write(tmp_path,
                     "date,f1\n1990-01-02,0.01\n1990-01-01,0.02\n")
        with pytest.raises(DateOrderError):
            load_csv(IngestConfig(path))

    def test_missing_policy(self, tmp_path):
        text = "date,f1\n1990-01-01,0.01\n1990-01-02,\n1990-01-03,0.02\n"
        path = write(tmp_path, text)
        (s,) = load_csv(IngestConfig(path))
        assert len(s) == 2
        with pytest.raises(ParseError):
            load_csv(IngestConfig(path, missing_policy="error"))

    def test_whitespace_cells(self, tmp_path):
        # "\x1c" is whitespace to str.strip but not to float
        text = "date,f1\n1990-01-01, 0.01\n1990-01-02,\x1c\n1990-01-03,\t\n"
        (s,) = load_csv(IngestConfig(write(tmp_path, text)))
        assert s.returns.tolist() == [0.01]
        path = write(tmp_path, "date,f1\n1990-01-01,0.01\x1c\n")
        with pytest.raises(ParseError, match="bad number"):
            load_csv(IngestConfig(path))

    def test_percent_flag(self, tmp_path):
        path = write(tmp_path, "date,f1\n1990-01-01,1.5\n1990-01-02,-0.5\n")
        (s,) = load_csv(IngestConfig(path, percent=True))
        assert s.returns.tolist() == [0.015, -0.005]

    def test_log_returns_flag(self, tmp_path):
        path = write(tmp_path, "date,f1\n1990-01-01,0.01\n1990-01-02,-0.02\n")
        (s,) = load_csv(IngestConfig(path, log_returns=True))
        assert s.returns == pytest.approx(np.expm1([0.01, -0.02]))

    def test_overflowing_log_return_wide(self, tmp_path):
        # math.expm1(800) overflows: the cell is named like any bad cell
        path = write(tmp_path, "date,a\n1990-01-01,0.01\n1990-01-02,800\n")
        with pytest.raises(ParseError) as info:
            load_csv(IngestConfig(path, log_returns=True))
        assert (info.value.row, info.value.column) == (3, "a")
        assert str(info.value) == "row 3, column 'a': non-finite return '800'"

    def test_overflowing_log_return_long(self, tmp_path):
        path = write(tmp_path, "name,date,ret\nmom,1990-01-01,0.01\n"
                               "mom,1990-01-02,800\n")
        with pytest.raises(ParseError) as info:
            load_csv(IngestConfig(path, long_format=True, log_returns=True))
        assert (info.value.row, info.value.column) == (3, "ret")
        assert str(info.value) == "row 3, column 'ret': non-finite return '800'"

    def test_long_format(self, tmp_path):
        text = ("name,date,ret\n"
                "mom,1990-01-01,0.01\n"
                "val,1990-01-01,0.02\n"
                "mom,1990-01-02,-0.01\n"
                "val,1990-01-02,0.005\n")
        path = write(tmp_path, text)
        series = load_csv(IngestConfig(path, long_format=True))
        by_label = {s.label: s for s in series}
        assert by_label["mom"].returns.tolist() == [0.01, -0.01]
        assert by_label["val"].returns.tolist() == [0.02, 0.005]

    def test_long_format_missing_cells(self, tmp_path):
        text = ("name,date,ret\n"
                "mom,1990-01-01,0.01\n"
                "mom,1990-01-02,\n"
                "mom,1990-01-03,-0.01\n"
                "mom\n")
        path = write(tmp_path, text)
        with pytest.raises(ParseError) as info:
            load_csv(IngestConfig(path, long_format=True))
        assert (info.value.row, info.value.column) == (5, "date")
        path = write(tmp_path, text.rsplit("mom\n", 1)[0])
        (s,) = load_csv(IngestConfig(path, long_format=True))
        assert s.returns.tolist() == [0.01, -0.01]
        with pytest.raises(ParseError) as info:
            load_csv(IngestConfig(path, long_format=True, missing_policy="error"))
        assert (info.value.row, info.value.column) == (3, "ret")

    def test_byte_order_mark(self, tmp_path):
        # Excel's "CSV UTF-8" export starts the file with a byte-order mark
        path = tmp_path / "bom.csv"
        path.write_text("date,f1\n1990-01-01,0.01\n", encoding="utf-8-sig")
        (s,) = load_csv(IngestConfig(path))
        assert (s.label, s.returns.tolist()) == ("f1", [0.01])
        path.write_text("name,date,ret\nmom,1990-01-01,0.01\n",
                        encoding="utf-8-sig")
        (s,) = load_csv(IngestConfig(path, long_format=True))
        assert (s.label, s.returns.tolist()) == ("mom", [0.01])

    def test_value_columns_subset(self, tmp_path):
        path = write(tmp_path,
                     "date,a,b\n1990-01-01,0.01,0.02\n1990-01-02,0.03,0.04\n")
        series = load_csv(IngestConfig(path, value_columns=("b",)))
        assert [s.label for s in series] == ["b"]


    def test_clean_load_skips_the_locator(self, tmp_path, monkeypatch):
        # the row-by-row read runs only once a column-wise step has failed;
        # cells before start_date are not read at all
        def locate(*args):
            raise AssertionError("the locator ran on a clean file")
        monkeypatch.setattr(ingest, "_first_bad_cell", locate)
        path = write(tmp_path, "date,a,b\n1979-12-31,x,\n"
                     "1990-01-01,0.01,\n1990-01-02, 0.02 ,0.03\n")
        a, b = load_csv(IngestConfig(path))
        assert (a.returns.tolist(), b.returns.tolist()) == ([0.01, 0.02], [0.03])
        path = write(tmp_path, "name,date,ret\n,1979-12-31,x\nmom,1990-01-01,"
                     "0.01\nval,1990-01-01,\nmom,1990-01-02,0.02\n")
        (s,) = load_csv(IngestConfig(path, long_format=True))
        assert (s.label, s.returns.tolist()) == ("mom", [0.01, 0.02])


class TestMakeFixture:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "fix.csv"
        spec = FixtureSpec(n_pre=40, n_post=30)
        original = make_fixture(3, spec)
        with open(path, "w", newline="") as fh:
            write_csv(original, fh)
        (loaded,) = load_csv(IngestConfig(path))
        assert np.array_equal(loaded.dates, original.dates)
        assert loaded.returns == pytest.approx(original.returns, rel=1e-11)

    def test_identical_seeds_identical_files(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        spec = FixtureSpec(n_pre=20, n_post=20)
        for path in (p1, p2):
            with open(path, "w", newline="") as fh:
                write_csv(make_fixture(9, spec), fh)
        assert p1.read_bytes() == p2.read_bytes()

    def test_break_recovery_strong_signal(self):
        spec = FixtureSpec(n_pre=336, n_post=126,
                           drift_pre=0.003, drift_post=-0.003)
        hits = 0
        for seed in range(50):
            s = make_fixture(seed, spec)
            res = mrp_one_split(s, 84)
            hits += abs(res.optimal_splits.splits[0] - spec.break_index) <= 84
        assert hits / 50 >= 0.9

    def test_zero_vol_surfaces_downstream(self):
        spec = FixtureSpec(n_pre=10, n_post=10, vol_pre=0.0, vol_post=0.0,
                           drift_pre=0.01, drift_post=0.01)
        s = make_fixture(0, spec)
        with pytest.raises(ZeroVariance):
            series_metric(s)

    def test_frequency_propagates(self):
        s = make_fixture(0, FixtureSpec(n_pre=5, n_post=5,
                                        frequency=Frequency.MONTHLY))
        assert s.periods_per_year == 12


# ------------------------------------------------- row-by-row reference


def reference_load_wide(config):
    """The wide-layout reader as it was before the column-wise one: a
    ``csv.DictReader`` read one cell at a time, then a per-series check.
    Returns (label, ISO dates, returns) per series, or raises."""
    path = Path(config.path)
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise EmptySeries(f"{path}: no header row")
        columns = config.value_columns
        if columns is None:
            columns = tuple(c for c in reader.fieldnames
                            if c != config.date_column)
        if not columns:
            raise EmptySeries("no value columns")
        per_factor = {c: [] for c in columns}
        for rownum, record in enumerate(reader, start=2):
            raw_date = record.get(config.date_column)
            if raw_date is None:
                raise ParseError(rownum, config.date_column, "missing date cell")
            try:
                day = datetime.date.fromisoformat(raw_date.strip())
            except ValueError as exc:
                raise ParseError(rownum, config.date_column,
                                 f"bad date {raw_date!r}") from exc
            if day < config.start_date:
                continue
            for col in columns:
                cell = record.get(col)
                if cell is None or cell.strip() == "":
                    if config.missing_policy == "error":
                        raise ParseError(rownum, col, "missing value")
                    continue
                try:
                    value = float(cell)
                except ValueError as exc:
                    raise ParseError(rownum, col, f"bad number {cell!r}") from exc
                if not math.isfinite(value):
                    raise ParseError(rownum, col, f"non-finite return {cell!r}")
                if config.percent:
                    value /= 100.0
                if config.log_returns:
                    try:
                        value = math.expm1(value)
                    except OverflowError:
                        raise ParseError(rownum, col, "non-finite return "
                                         f"{cell!r}") from None
                per_factor[col].append((day, value))
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
        out.append((label, [day.isoformat() for day, _ in rows],
                    np.array([v for _, v in rows])))
    return out


GOOD_CELLS = ("0.01", "-0.02", " 0.003 ", "1e-3", "-0.5", "0", "2.5", "-7",
              "0.07", "-1e-9", "250", "", "", "  ")
# "800" and "1e308" are numbers whose expm1 overflows
BAD_CELLS = ("nan", "inf", "-Infinity", "abc", "1_0", "0x1", "1e999", "800",
             "1e308")
LABELS = ("a", "b", "c")
# quoted cells and whitespace that read as a number or as empty, and
# ones that read as a bad number: a comma inside quotes, a doubled quote,
# a character that str.strip removes and float does not
MESSY_CELLS = ('"0.01"', '" -0.02 "', '""', "\x1c", "\t\x0b")
MESSY_BAD_CELLS = ('"1,5"', '"0.0""1"', '""""', "0.01\x1c")


def file_text(lines, choice):
    """CSV lines as the text of a file: lines ended by "\\n", "\\r\\n", "\\r"
    or a mix of them, the last line ended or not, and sometimes a blank
    first line or a whitespace-only line, or no text at all. ``choice``
    picks one item of a sequence."""
    shape = choice(("plain",) * 9 + ("blank_first", "whitespace", "empty"))
    if shape == "empty":
        return ""
    lines = list(lines)
    if shape == "blank_first":
        lines.insert(0, "")
    elif shape == "whitespace":
        lines.insert(choice(range(1, len(lines) + 1)), choice((" ", "\t ")))
    return ended(lines, choice)


def ended(lines, choice):
    """Lines ended by "\\n", "\\r\\n", "\\r" or a mix of them, the last
    one ended or not."""
    ends = choice(("\n",) * 3 + ("\r\n", "\r", "mixed"))
    text = "".join(line + (choice(("\n", "\r\n", "\r")) if ends == "mixed"
                           else ends) for line in lines)
    return text if choice((True, True, False)) else text.rstrip("\r\n")


def count_tokenizers(monkeypatch) -> Counter:
    """Counts, kept as ``load_csv`` runs, of the files it splits with
    ``str.split`` and of those it leaves to ``csv.reader``."""
    counts = Counter()
    split = ingest._split

    def spy(text, width):
        got = split(text, width)
        counts["split" if got is not None else "csv.reader"] += 1
        return got
    monkeypatch.setattr(ingest, "_split", spy)
    return counts


@st.composite
def wide_csvs(draw):
    """A wide CSV's text and the IngestConfig options to read it with.

    Half the cases are clean apart from empty cells. The others may have
    blank, short, long or out-of-order rows, whitespace or quoted cells, a
    quoted header name, a missing date column, and, in a third of all
    cases, bad or non-finite numbers and bad dates. Rows may fall before
    ``start_date``, and labels repeat. Any case may take one of the
    shapes of ``file_text``.
    """
    messy, junk = draw(st.sampled_from(((False, False), (False, False),
                                        (True, False), (True, True))))
    names = draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=3))
    header = list(names)
    if not messy or draw(st.sampled_from((True,) * 5 + (False,))):
        header.insert(draw(st.integers(0, len(names))), "date")
    cells = st.sampled_from(GOOD_CELLS + (MESSY_CELLS if messy else ())
                            + (BAD_CELLS + MESSY_BAD_CELLS if junk else ()))
    kinds = ("row",) * 8 + (("blank", "short", "long", "back", "empty_back")
                            if messy else ())
    day = datetime.date(1979, 12, 28)
    shown_header = list(header)
    if messy and draw(st.booleans()):
        k = draw(st.integers(0, len(header) - 1))
        shown_header[k] = f'"{header[k]}"'
    lines = [",".join(shown_header)]
    for _ in range(draw(st.integers(0 if messy else 3, 14))):
        kind = draw(st.sampled_from(kinds))
        if kind == "blank":
            lines.append("")
            continue
        day += datetime.timedelta(days=draw(st.integers(1, 2)))
        shown = day - datetime.timedelta(days=3) if "back" in kind else day
        date_text = draw(st.sampled_from(
            (shown.isoformat(),) * 8 + ((f" {shown.isoformat()} ",) if messy else ())
            + (("1980-13-01", "x", "") if junk else ())))
        row = [date_text if h == "date" else
               ("" if kind == "empty_back" else draw(cells)) for h in header]
        if kind == "short":
            row = row[:draw(st.integers(1, len(row)))]
        elif kind == "long":
            row.append(draw(cells))
        lines.append(",".join(row))
    value_columns = draw(st.sampled_from(
        (None,) * 8 + (("b",), ("c", "a"), ("a", "a"))
        + ((("a", "zzz"), ("date",)) if messy else ())))
    options = dict(
        value_columns=value_columns,
        start_date=draw(st.sampled_from((datetime.date(1979, 12, 1),
                                         datetime.date(1979, 12, 31),
                                         datetime.date(1980, 1, 2)))),
        missing_policy=draw(st.sampled_from(("skip", "skip", "error"))),
        percent=draw(st.booleans()),
        log_returns=draw(st.booleans()),
    )
    return file_text(lines, lambda items: draw(st.sampled_from(items))), options


def outcome(load, config):
    """Per series (label, ISO dates, return bits), or the error raised."""
    try:
        result = load(config)
    except MinRegimeError as exc:
        where = (exc.row, exc.column) if isinstance(exc, ParseError) else None
        return type(exc), where, str(exc)
    return result


class TestColumnWiseReader:
    def test_matches_row_by_row_reference(self, monkeypatch):
        tokenizers = count_tokenizers(monkeypatch)

        @settings(max_examples=600, deadline=None, derandomize=True)
        @given(wide_csvs())
        def check(case):
            text, options = case
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "wide.csv"
                path.write_text(text)
                config = IngestConfig(path, **options)
                want = outcome(reference_load_wide, config)
                got = outcome(lambda c: [
                    (s.label, np.datetime_as_string(s.dates).tolist(),
                     s.returns) for s in load_csv(c)], config)
            if isinstance(want, tuple):
                assert got == want
                return
            assert [g[0] for g in got] == [w[0] for w in want]
            for (_, got_dates, got_rets), (_, want_dates, want_rets) in zip(
                    got, want):
                assert got_dates == want_dates
                assert got_rets.tobytes() == want_rets.tobytes()
        check()
        assert tokenizers["split"] > 100 and tokenizers["csv.reader"] > 100


def reference_load_long(config):
    """The long-layout reader as it was before the column-wise one: a
    ``csv.DictReader`` read one row at a time, then a per-series check.
    Returns (label, ISO dates, returns) per series, or raises."""
    path = Path(config.path)
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise EmptySeries(f"{path}: no header row")
        per_factor = {}
        for rownum, record in enumerate(reader, start=2):
            raw_date = record.get(config.date_column)
            if raw_date is None:
                raise ParseError(rownum, config.date_column, "missing date cell")
            try:
                day = datetime.date.fromisoformat(raw_date.strip())
            except ValueError as exc:
                raise ParseError(rownum, config.date_column,
                                 f"bad date {raw_date!r}") from exc
            if day < config.start_date:
                continue
            name = (record.get(config.name_column) or "").strip()
            if not name:
                raise ParseError(rownum, config.name_column, "missing series name")
            col = config.return_column
            cell = record.get(col)
            if cell is None or cell.strip() == "":
                if config.missing_policy == "error":
                    raise ParseError(rownum, col, "missing value")
                continue
            try:
                value = float(cell)
            except ValueError as exc:
                raise ParseError(rownum, col, f"bad number {cell!r}") from exc
            if not math.isfinite(value):
                raise ParseError(rownum, col, f"non-finite return {cell!r}")
            if config.percent:
                value /= 100.0
            if config.log_returns:
                try:
                    value = math.expm1(value)
                except OverflowError:
                    raise ParseError(rownum, col,
                                     f"non-finite return {cell!r}") from None
            per_factor.setdefault(name, []).append((day, value))
    out = []
    for label, rows in per_factor.items():
        prev = None
        for day, _ in rows:
            if prev is not None and day <= prev:
                raise DateOrderError(
                    f"series {label!r}: date {day} not after {prev}")
            prev = day
        out.append((label, [day.isoformat() for day, _ in rows],
                    np.array([v for _, v in rows])))
    if not out:
        raise EmptySeries(f"{path}: no factor columns found")
    return out


# bad numbers, non-finite literals and (with log_returns, without percent)
# numbers whose expm1 overflows, the last two weighted up
LONG_BAD_CELLS = ("abc", "0x1", "nan", "-inf", "800", "1e308", "1e308")


@st.composite
def long_csvs(draw):
    """A long CSV's text and the IngestConfig options to read it with.

    Half the cases are clean apart from empty cells, with the names
    interleaved. The others may have blank, short, long or out-of-order
    rows, whitespace cells, several rows of a name on one date, and a
    missing or repeated column, quoted cells and a quoted header name; in
    a third of all cases bad or non-finite numbers, and in half of those
    blank names or bad dates. Rows may fall before ``start_date``. Any
    case may take one of the shapes of ``file_text``. The rows come from
    one seeded ``Random``, which keeps generation cheap.
    """
    rnd = draw(st.randoms(use_true_random=True))
    messy, junk = rnd.choice(((False, False), (False, False),
                              (True, False), (True, True)))
    blank_names, bad_dates = (junk and rnd.random() < 0.5 for _ in range(2))
    header = rnd.sample(("name", "date", "ret"), 3)
    if messy and rnd.random() < 0.5:
        if rnd.random() < 0.5:
            header.remove(rnd.choice(header))
        else:
            header.insert(rnd.randint(0, 3), rnd.choice(header))
    names = ("a", "b", " c ", "a") * 3 + (("", "  ") if blank_names else ())
    cells = (GOOD_CELLS + (MESSY_CELLS if messy else ())
             + (LONG_BAD_CELLS + MESSY_BAD_CELLS if junk else ()))
    kinds = ("row",) * 8 + (("blank", "short", "long", "back") if messy else ())
    day = datetime.date(1979, 12, 28)
    shown_header = list(header)
    if messy and header and rnd.random() < 0.5:
        k = rnd.randrange(len(header))
        shown_header[k] = f'"{header[k]}"'
    lines = [",".join(shown_header)]
    for _ in range(rnd.randint(0 if messy else 3, 16)):
        kind = rnd.choice(kinds)
        if kind == "blank":
            lines.append("")
            continue
        day += datetime.timedelta(days=rnd.randint(0 if messy else 1, 2))
        shown = day - datetime.timedelta(days=3) if kind == "back" else day
        date_text = rnd.choice(
            (shown.isoformat(),) * 8 + ((f" {shown.isoformat()} ",) if messy else ())
            + (("1980-13-01", "x", "") if bad_dates else ()))
        row = [date_text if h == "date" else rnd.choice(names if h == "name" else cells)
               for h in header]
        if kind == "short":
            row = row[:rnd.randint(1, len(row))]
        elif kind == "long":
            row.append(rnd.choice(cells))
        lines.append(",".join(row))
    options = dict(
        long_format=True,
        start_date=draw(st.sampled_from((datetime.date(1979, 12, 1),
                                         datetime.date(1979, 12, 31),
                                         datetime.date(1980, 1, 2)))),
        missing_policy=draw(st.sampled_from(("skip", "skip", "error"))),
        percent=draw(st.booleans()),
        log_returns=draw(st.booleans()),
    )
    return file_text(lines, rnd.choice), options


class TestLongLayoutReader:
    def test_matches_row_by_row_reference(self, monkeypatch):
        tokenizers = count_tokenizers(monkeypatch)

        @settings(max_examples=500, deadline=None, derandomize=True)
        @given(long_csvs())
        def check(case):
            text, options = case
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "long.csv"
                path.write_text(text)
                config = IngestConfig(path, **options)
                want = outcome(reference_load_long, config)
                got = outcome(lambda c: [
                    (s.label, np.datetime_as_string(s.dates).tolist(),
                     s.returns) for s in load_csv(c)], config)
            if isinstance(want, tuple):
                assert got == want
                return
            assert [g[0] for g in got] == [w[0] for w in want]
            assert all(type(g[0]) is str for g in got)
            for (_, got_dates, got_rets), (_, want_dates, want_rets) in zip(
                    got, want):
                assert got_dates == want_dates
                assert got_rets.tobytes() == want_rets.tobytes()
        check()
        assert tokenizers["split"] > 100 and tokenizers["csv.reader"] > 100


# --------------------------------------------------------- the tokenizers

# cells hold no comma, quote or line end; the alphabet has characters that
# str.strip or str.splitlines treat specially and csv.reader does not
TOKEN_CELLS = st.text("a1.- \t\0\x0b\x0c\x1c\x85\xa0 ", max_size=3)


@st.composite
def token_texts(draw):
    """(text, whether ``_split`` may read it): a header and rows of cells,
    with blank lines, ended as ``ended`` ends them. The rows may be ragged,
    one cell may be longer than the field size limit, the first line may
    be blank and a row may hold a NUL; such a text is for ``csv.reader``."""
    header = draw(st.lists(TOKEN_CELLS.filter(bool), min_size=1, max_size=4))
    width = len(header)
    rows = draw(st.lists(st.lists(TOKEN_CELLS, min_size=width,
                                  max_size=width), max_size=6))
    ragged = draw(st.sampled_from((False,) * 3 + (True,)))
    if ragged:  # at least two cells, so the line is not blank
        size = draw(st.sampled_from([width + 1, width + 2]
                                    + list(range(2, width))))
        rows.insert(draw(st.integers(0, len(rows))),
                    draw(st.lists(TOKEN_CELLS, min_size=size, max_size=size)))
    too_long = draw(st.sampled_from((False,) * 9 + (True,)))
    if too_long:
        line = draw(st.sampled_from([header] + rows))
        line[-1] = "1" * (csv.field_size_limit() + 1)
    blank_first = draw(st.sampled_from((False,) * 9 + (True,)))
    lines = [""] * blank_first + [",".join(line) for line in [header] + rows]
    lines[1:] = [line for row in lines[1:] for line in
                 [row] + [""] * draw(st.integers(0, 1))]
    text = ended(lines, lambda items: draw(st.sampled_from(items)))
    nul = any("\0" in cell for row in rows for cell in row)
    return text, not (ragged or too_long or blank_first or nul)


def first_record(text):
    """The first record of a text as ``csv.reader`` reads a file ([] where
    there is none), and the index of the body's start after it."""
    lines = io.StringIO(text, newline="")
    return next(csv.reader(lines), []), lines.tell()


class TestSplitTokenizer:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(token_texts())
    @example(("", True))  # an empty body under an empty header
    @example(("\na\nb\n", False))  # csv.reader's header is [] here
    @example(("a\n\n b\r\rc\r\n", True))
    @example(("a,b\r\n1,2", True))
    def test_matches_csv_reader(self, case):
        text, readable = case
        try:
            header, start = first_record(text)
        except csv.Error:  # a header cell over the field size limit, or a
            # NUL, which csv.reader rejects on Python 3.10
            assert not readable or "\0" in text
            return
        # the header rule of load_csv: the first line, where it reads
        # strictly as one record, is that record
        line = text[:ingest._EOL.search(text).end()]
        assert next(csv.reader([line], strict=True)) == header
        assert len(line) == start
        body, width = text[start:], len(header)
        got = ingest._split(body, width)
        assert (got is not None) == readable
        if got is None:
            return
        assert got == ingest._columns(body, width, None, True)


# ------------------------------------------------------------- row blocks


def count_blocks(text, block):
    """The number of blocks of rows the body of ``text`` makes with
    ``_BLOCK`` at ``block``, whether or not a read stops in one. Each ends
    at the first line end ``block`` characters on, unless its last record,
    as ``csv.reader`` reads the block, ends in a cell that ends in a line
    end (a quoted field may run on past the cut) and it is not the last
    block: then it is cut again, at least twice as long. A block that
    ``csv.reader`` rejects is the last."""
    pos, size, blocks = first_record(text)[1], block, 0
    while True:
        cut = ingest._EOL.search(text, pos + size).end()
        lines = io.StringIO(text[pos:cut], newline="")
        try:
            rows = [row for row in csv.reader(lines) if row]
        except csv.Error:
            return blocks + 1
        if cut < len(text) and rows and rows[-1][-1][-1:] in ("\n", "\r"):
            size = 2 * (cut - pos)
            continue
        blocks += 1
        if cut == len(text):
            return blocks
        pos, size = cut, block


READ_BLOCK = ingest._read_block

# blocks end at the first line end 32 characters on: one to three rows of
# the oracles' files, two for most
SMALL_BLOCK = 32


class TestRowBlocks:
    """``load_csv`` reads the text in blocks of rows; each block is read as
    a file of its own, and a failed block is located at its row offset."""

    def test_wide_oracle_in_small_blocks(self, monkeypatch):
        monkeypatch.setattr(ingest, "_BLOCK", SMALL_BLOCK)
        TestColumnWiseReader().test_matches_row_by_row_reference(monkeypatch)

    def test_long_oracle_in_small_blocks(self, monkeypatch):
        monkeypatch.setattr(ingest, "_BLOCK", SMALL_BLOCK)
        TestLongLayoutReader().test_matches_row_by_row_reference(monkeypatch)

    @staticmethod
    def read(monkeypatch, tmp_path, text, block, **options):
        """``outcome`` of ``load_csv`` in blocks of ``block`` characters,
        and the number of blocks the cut rule makes of the body, which
        ``load_csv`` reads all of unless it raises first."""
        monkeypatch.setattr(ingest, "_BLOCK", block)
        path = write(tmp_path, text)
        reads = []
        monkeypatch.setattr(ingest, "_read_block", lambda *args: (
            reads.append(None) or READ_BLOCK(*args)))
        got = outcome(lambda c: [(s.label, np.datetime_as_string(s.dates)
                                  .tolist(), s.returns.tolist())
                                 for s in load_csv(c)],
                      IngestConfig(path, **options))
        blocks = count_blocks(text, block)
        assert len(reads) == blocks or (isinstance(got, tuple)
                                        and len(reads) < blocks)
        return got, blocks

    @staticmethod
    def reference(tmp_path, text, **options):
        """``outcome`` of the row-by-row reference of the layout on a text,
        as ``read`` gives it."""
        reference = (reference_load_long if options.get("long_format")
                     else reference_load_wide)
        return outcome(lambda c: [
            (label, dates, rets.tolist())
            for label, dates, rets in reference(c)],
            IngestConfig(write(tmp_path, text), **options))

    def same_in_any_blocks(self, monkeypatch, tmp_path, text, **options):
        """The outcome, which is the same in blocks of one row, of a few
        rows and of the whole file, and where ``csv.reader`` reads every
        block."""
        whole, _ = self.read(monkeypatch, tmp_path, text, len(text), **options)
        for block in (1, 24):
            got, blocks = self.read(monkeypatch, tmp_path, text, block,
                                    **options)
            assert blocks > 1 and got == whole
        monkeypatch.setattr(ingest, "_split", lambda text, width: None)
        for block in (1, len(text)):
            assert self.read(monkeypatch, tmp_path, text, block,
                             **options)[0] == whole
        return whole

    def test_bad_cell_in_a_later_block(self, monkeypatch, tmp_path):
        rows = [f"1990-01-{k:02d},0.01,0.02" for k in range(1, 9)]
        rows[5] = "1990-01-06,0.01,x"
        rows[6] = "1990-01-07,y,0.02"
        text = "date,a,b\n" + "\n".join(rows) + "\n"
        got = self.same_in_any_blocks(monkeypatch, tmp_path, text)
        assert got[:2] == (ParseError, (7, "b"))
        # a bad date after it, in its block or a later one, comes second
        text = text.replace("1990-01-08", "1990-13-08")
        got = self.same_in_any_blocks(monkeypatch, tmp_path, text)
        assert got[:2] == (ParseError, (7, "b"))

    def test_blank_lines_on_block_edges(self, monkeypatch, tmp_path):
        text = ("date,a\n\n1990-01-01,0.01\n\n\n1990-01-02,0.02\r\n\r\n"
                "1990-01-03,oops\r\r1990-01-04,0.04\n")
        got = self.same_in_any_blocks(monkeypatch, tmp_path, text)
        assert got[:2] == (ParseError, (4, "a"))  # blank lines are not rows
        text = text.replace("oops", "0.03")
        (got,) = self.same_in_any_blocks(monkeypatch, tmp_path, text)
        assert got[2] == [0.01, 0.02, 0.03, 0.04]

    def test_start_date_on_a_block_edge(self, monkeypatch, tmp_path):
        text = ("date,a,b\n1979-12-30,x,\n1979-12-31,,y\n1980-01-01,0.01,\n"
                "1980-01-02,0.02,0.03\n")
        a, b = self.same_in_any_blocks(monkeypatch, tmp_path, text)
        assert a[1:] == (["1980-01-01", "1980-01-02"], [0.01, 0.02])
        assert b[1:] == (["1980-01-02"], [0.03])
        # a block of rows all before start_date leaves no cell of a column
        got = self.same_in_any_blocks(monkeypatch, tmp_path, text,
                                      start_date=datetime.date(1980, 1, 2))
        assert [s[1] for s in got] == [["1980-01-02"]] * 2

    @pytest.mark.parametrize("late, error", [
        ('1990-01-04,"0.04",0.05', None),
        ('1990-01-04,"1,5",0.05', (5, "a")),
        ('1990-01-04,"0.04\n1990-01-05",0.05', (5, "a")),
        ("1990-01-04,0.04", (5, "b")),  # a short row
        ("1990-01-04,0.04,0.05,0.06", None),  # a long row
        ("1990-01-04", (5, "a")),
    ])
    def test_quote_or_ragged_row_after_block_one(self, monkeypatch, tmp_path,
                                                  late, error):
        rows = "".join(f"1990-01-0{k},0.0{k},0.1{k}\n" for k in (1, 2, 3))
        text = f"date,a,b\n{rows}{late}\n1990-01-06,0.06,0.16\n"
        options = dict(missing_policy="error")
        got = self.same_in_any_blocks(monkeypatch, tmp_path, text, **options)
        assert got == self.reference(tmp_path, text, **options)
        assert (got[1] if error else None) == error

    # a line end inside quotes on a cut, ended by "\n", "\r\n" or a lone
    # "\r", or after a doubled quote; a quoted last cell that does end in a
    # line end, on a cut after its record; every name quoted
    @pytest.mark.parametrize("text, options", [
        ("date,a,b\n" + "".join(
            f'1990-01-0{k},"0.0{k}{end}",0.1{k}\n' if k in (2, 5) else
            f"1990-01-0{k},0.0{k},0.1{k}\n" for k in range(1, 7)), {})
        for end in ("\n", "\r\n", "\r")] + [
        ("name,date,ret\n" + "".join(
            f'"{n}""\n",1990-01-0{k},0.0{k}\n' for k in range(1, 7)
            for n in "ab"), {"long_format": True}),
        ("date,a,b\n" + "".join(
            f"1990-01-0{k},0.0{k},0.1{k}\n" for k in range(1, 7)
        ).replace(",0.13\n", ',"0.135\n"\n'), {}),
        ('"name","date","ret"\n' + "".join(
            f'"{n}",1990-01-0{k},0.0{k}\n' for k in range(1, 7)
            for n in "ab"), {"long_format": True}),
    ], ids=["lf", "crlf", "lone-cr", "doubled-quote", "last-cell-line-end",
            "long-all-quoted"])
    def test_quoted_line_ends(self, monkeypatch, tmp_path, text, options):
        got = self.same_in_any_blocks(monkeypatch, tmp_path, text, **options)
        assert got == self.reference(tmp_path, text, **options)
        assert not isinstance(got, tuple)

    def test_every_record_ends_in_a_quoted_line_end(self, monkeypatch,
                                                    tmp_path):
        # every cut may fall inside a quoted field, so each block is read
        # again, at least twice as long, up to the end: the text read stays
        # under three times the body's
        text = "date,a\n" + "".join(f'1990-01-{k:02d},"0.{k:02d}\n"\n'
                                    for k in range(1, 29))
        sizes = []
        columns = ingest._columns
        monkeypatch.setattr(ingest, "_columns", lambda text, *args: (
            sizes.append(len(text)) or columns(text, *args)))
        for block in (1, 24):
            sizes.clear()
            got, blocks = self.read(monkeypatch, tmp_path, text, block)
            assert blocks == 1 and 1 < len(sizes)
            assert sum(sizes) < 3 * len(text)
            assert got == self.reference(tmp_path, text)

    def test_bad_cell_before_an_overlong_field(self, monkeypatch, tmp_path):
        # a quote before the bad cell does not join its block to the
        # overlong field's, so the bad cell raises first, as row by row;
        # where both are in one block, the field raises as it is read
        limit = csv.field_size_limit()
        text = ('date,a,b\n1990-01-01,"0.01",0.11\n1990-01-02,x,0.12\n'
                + "".join(f"1990-01-0{k},0.0{k},0.1{k}\n" for k in range(3, 9))
                + f"1990-01-09,{'1' * (limit + 1)},0.19\n")
        want = self.reference(tmp_path, text)
        assert want[:2] == (ParseError, (3, "a"))
        for block in (1, 24):
            assert self.read(monkeypatch, tmp_path, text, block)[0] == want
        got, _ = self.read(monkeypatch, tmp_path, text, len(text))
        assert got[:2] == (MinRegimeError, None)
        assert got[2].endswith(f"field larger than field limit ({limit})")

    def test_nul_on_python_310(self, monkeypatch, tmp_path):
        # Python 3.10's csv.reader raises on a NUL, where later ones read
        # it: a NUL raises that error in a plain block as in a quoted one
        reader = csv.reader

        def reader_310(lines, *args, **kwargs):
            def checked():
                for line in lines:
                    if "\0" in line:
                        raise csv.Error("line contains NUL")
                    yield line
            return reader(checked(), *args, **kwargs)
        monkeypatch.setattr(csv, "reader", reader_310)
        for row in ("1990-01-02,0.02\0", '"1990-01-02",0.02\0'):
            got, _ = self.read(monkeypatch, tmp_path,
                               f"date,a\n1990-01-01,0.01\n{row}\n", 1)
            assert got == (MinRegimeError, None,
                           f"{tmp_path / 'data.csv'}: line contains NUL")

    def test_memory_of_quoted_names(self, tmp_path):
        # a long file whose names are quoted, as R's write.csv writes them,
        # is read in blocks, as the same file unquoted is
        days = [datetime.date(1990, 1, 1) + datetime.timedelta(days=k)
                for k in range(2_000)]
        rows = "".join(f"{{q}}f{n}{{q}},{day},0.0{n}1\n" for day in days
                       for n in range(10))
        peaks = []
        for quote in ("", '"'):
            path = write(tmp_path, "name,date,ret\n" + rows.format(q=quote))
            tracemalloc.start()
            try:
                load_csv(IngestConfig(path, long_format=True))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0]

    def test_header_only(self, monkeypatch, tmp_path):
        for text, options, message in (
                ("date,a,b\n", {}, "series 'a' empty"),
                ("date,a,b", {}, "series 'a' empty"),
                ("name,date,ret\n\n\n", {"long_format": True},
                 "no factor columns")):
            monkeypatch.setattr(ingest, "_BLOCK", 1)
            with pytest.raises(EmptySeries, match=message):
                load_csv(IngestConfig(write(tmp_path, text), **options))

    def test_long_names_split_across_blocks(self, monkeypatch, tmp_path):
        # "val" first has a value in the third row, "mom" in the fourth, so
        # series come in that order; " mom " is "mom"
        text = ("name,date,ret\nmom,1990-01-01,\nval,1990-01-01,\n"
                "val,1990-01-02,0.02\n mom ,1990-01-02,0.01\n"
                "qmj,1990-01-02,\nmom,1990-01-03,0.03\nval,1990-01-03,0.04\n")
        got = self.same_in_any_blocks(monkeypatch, tmp_path, text,
                                      long_format=True)
        assert got == [("val", ["1990-01-02", "1990-01-03"], [0.02, 0.04]),
                       ("mom", ["1990-01-02", "1990-01-03"], [0.01, 0.03])]
        text = text.replace("qmj", "  ")
        got = self.same_in_any_blocks(monkeypatch, tmp_path, text,
                                      long_format=True)
        assert got[:2] == (ParseError, (6, "name"))

    # header lines: quoted as R's write.csv quotes names, a quoted line end
    # in a name, lines the strict read of one line rejects (read as
    # csv.reader reads a file), a byte-order mark, a lone "\r" end, and a
    # blank first line, whose header is []
    ROWS = "".join(f"1990-01-0{k},0.0{k},0.1{k}\n" for k in range(1, 7))

    @pytest.mark.parametrize("text, options", [
        ('"date","a","b"\n' + ROWS, {}),
        ('"date","a","b"\r\n' + ROWS.replace("\n", "\r\n"), {}),
        ('date,"a\r\nb",b\n' + ROWS, {}),
        ('date,"a"b,c\n' + ROWS, {}),
        ('date,a"b,"c\n' + ROWS[:42] + '"\n' + ROWS[42:], {}),
        ('\ufeff"date","a","b"\n' + ROWS, {}),
        ('"date","a","b"\r' + ROWS.replace("\n", "\r"), {}),
        ('"date",a,b\r' + ROWS, {"missing_policy": "error"}),
        ('"date","a"' + "\r\n" * 20, {}),
        ("\ndate,a,b\n" + ROWS, {}),
        ("\nname,date,ret\n" + ROWS, {"long_format": True}),
        ('"name","date","ret"\n' + "".join(
            f"{n},1990-01-0{k},0.0{k}\n" for k in range(1, 7) for n in "ab"),
         {"long_format": True}),
    ], ids=["quoted", "quoted-crlf", "line-end-in-name", "text-after-quote",
            "open-quote", "bom", "lone-cr", "lone-cr-half-quoted",
            "header-only", "blank-first", "blank-first-long", "long-quoted"])
    def test_header_rule(self, monkeypatch, tmp_path, text, options):
        got = self.same_in_any_blocks(monkeypatch, tmp_path, text, **options)
        # the reference reads a byte-order mark into the first name
        assert got == self.reference(tmp_path, text.removeprefix("\ufeff"),
                                     **options)

    def test_quoted_header_over_plain_rows(self, monkeypatch, tmp_path):
        tokenizers = count_tokenizers(monkeypatch)
        got, blocks = self.read(monkeypatch, tmp_path,
                                '"date","a","b"\n' + self.ROWS, 24)
        assert blocks > 1 and [s[0] for s in got] == ["a", "b"]
        assert tokenizers == {"split": blocks}

    @pytest.mark.parametrize("text", ['"date","a"\n', '"date","a"',
                                      '"date","a"\r'])
    def test_quoted_header_only(self, tmp_path, text):
        path = write(tmp_path, text)
        with pytest.raises(EmptySeries, match="series 'a' empty"):
            reference_load_wide(IngestConfig(path))
        with pytest.raises(EmptySeries, match="series 'a' empty"):
            load_csv(IngestConfig(path))

    # A column of a block is converted as it stands, by the cell rules only
    # where that fails. Each cell below is put in every row in turn, so in
    # blocks of one row, of two and of the whole file it is the first cell
    # of its block that fails the strict pass, first and last in a block.
    # " 0.1 " passes it: float strips blanks itself.
    @pytest.mark.parametrize("options", [{}, {"missing_policy": "error"}],
                             ids=["skip", "error"])
    @pytest.mark.parametrize("long_format", [False, True],
                             ids=["wide", "long"])
    @pytest.mark.parametrize("cell", ["", "  ", " 0.1 ", "nan", "x"])
    def test_value_cell_off_the_strict_pass(self, monkeypatch, tmp_path,
                                            cell, long_format, options):
        if long_format:
            rows = [f"{n},1990-01-0{k},0.0{k}" for k in range(1, 7)
                    for n in "ab"]
            header, options = "name,date,ret", dict(options, long_format=True)
        else:
            rows = [f"1990-01-0{k},0.0{k},0.1{k}" for k in range(1, 7)]
            header = "date,a,b"
        for at in range(len(rows)):
            late = rows.copy()
            late[at] = late[at].rsplit(",", 1)[0] + "," + cell
            text = "\n".join([header] + late) + "\n"
            with monkeypatch.context() as patch:
                got = self.same_in_any_blocks(patch, tmp_path, text, **options)
            assert got == self.reference(tmp_path, text, **options)
            failed = cell in ("nan", "x") or (
                not cell.strip() and options.get("missing_policy") == "error")
            assert isinstance(got, tuple) == failed

    # date cells: padded by blanks, absent from a short row, in the basic
    # format (a date on Python 3.11 and later, a bad one on 3.10), and
    # "199001020 ", a bad date that Python 3.11's fromisoformat reads as
    # 1990-01-02 unstripped, so the strict pass must not take it
    @pytest.mark.parametrize("long_format", [False, True],
                             ids=["wide", "long"])
    @pytest.mark.parametrize("cell", [" {iso}", "{iso}\t", "\t{iso} ",
                                      None, "{basic}", "{basic}0 "],
                             ids=["space", "tab", "both", "missing", "basic",
                                  "basic-digit-blank"])
    def test_date_cell_off_the_strict_pass(self, monkeypatch, tmp_path,
                                           cell, long_format):
        # the date column comes last, so a short row leaves it missing
        days = [(f"1990-01-0{k}", f"1990010{k}") for k in range(1, 7)]
        if long_format:
            rows = [(f"{n},0.0{k}", day) for k, day in enumerate(days)
                    for n in "ab"]
            header, options = "name,ret,date", {"long_format": True}
        else:
            rows = [(f"0.0{k},0.1{k}", day) for k, day in enumerate(days)]
            header, options = "a,b,date", {}
        for at in range(len(rows)):
            lines = [f"{head},{iso}" for head, (iso, _) in rows]
            head, (iso, basic) = rows[at]
            lines[at] = (head if cell is None else
                         f"{head},{cell.format(iso=iso, basic=basic)}")
            text = "\n".join([header] + lines) + "\n"
            with monkeypatch.context() as patch:
                got = self.same_in_any_blocks(patch, tmp_path, text, **options)
            assert got == self.reference(tmp_path, text, **options)
            if cell is None or cell.endswith("0 "):
                assert got[0] is ParseError


BLANKS = ("", " ", "\t", "\n", "\x0b", "\x1c", "\x85", "\xa0", "\u3000")


@st.composite
def date_cells(draw):
    """A date cell: ISO or basic format, or text of date characters, with
    blanks around it, sometimes with a digit or a dash after the date."""
    day = draw(st.dates())
    core = draw(st.sampled_from((
        day.isoformat(), f"{day.year:04d}{day.month:02d}{day.day:02d}",
        draw(st.text("0129-WT: ", max_size=12)))))
    return (draw(st.sampled_from(BLANKS)) + core
            + draw(st.sampled_from(("", "", "0", "-")))
            + draw(st.sampled_from(BLANKS)))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.lists(st.one_of(date_cells(), st.none()), max_size=5))
@example(["199001020 "])
@example(["1990-01-02", " 1990-01-03", None])
def test_dates_are_the_strip_rule(cells):
    # _dates, strict pass and all, gives the dates of the date-cell rule
    # (each cell stripped, then read by fromisoformat) or its error type
    def result(read):
        try:
            return read(cells)
        except (AttributeError, TypeError, ValueError) as exc:
            return type(exc)
    assert result(ingest._dates) == result(
        lambda cells: [datetime.date.fromisoformat(t.strip()) for t in cells])


# ------------------------------------------------------ the numbers reader

# cells that stress float parsing: 17 or more significant digits, halfway
# and subnormal cases, underflow and overflow, and the shapes of a number
# float takes that are easy to get wrong
FLOAT_CELLS = ("9007199254740993", "2.4703282292062328e-324", "1e-400",
               "-1e-400", "-0", ".5", "5.", "+1E5", "1e400", "-1e400",
               "2.2250738585072011e-308", "4.9406564584124654e-324",
               "1.7976931348623157e308", "1.7976931348623159e308",
               "0.10000000000000000555111512312578270211815834045410156251",
               "123456789012345678901234567890", "00.0100", "+.5e-3", "1E+2")
# cells of the same bytes that are no number, the empty one among them
NOT_FLOAT_CELLS = ("", "e5", "1e", "-", ".", "1-2", "+-1", "1e5.5", "--0")
# date cells of the same bytes: bad ones that look like dates, two that
# a 10-character field would cut to a good date, and a basic-format one (a
# date on Python 3.11 and later)
DATE_CELLS = ("1990010299", "1990-13-01", "1990-01-0100", "1990-01-01-1",
              "19900102", "1990-1-1", "")


@st.composite
def float_cells(draw):
    """A cell float reads: an edge case, the text of a double, or a long
    mantissa with a sign and an exponent."""
    kind = draw(st.sampled_from(("edge", "double", "digits")))
    if kind == "edge":
        return draw(st.sampled_from(FLOAT_CELLS))
    if kind == "double":
        x = draw(st.floats(allow_nan=False, allow_infinity=False))
        return draw(st.sampled_from((repr(x), f"{x:.17e}", f"{x:.12g}")))
    digits = draw(st.text("0123456789", min_size=17, max_size=40))
    point = draw(st.integers(0, len(digits)))
    return (draw(st.sampled_from(("", "-", "+"))) + digits[:point] + "."
            + digits[point:]
            + draw(st.sampled_from(("", "e-300", "E+5", "e-330", "e308",
                                    "e-20"))))


@st.composite
def numeric_csvs(draw):
    """A wide CSV of dates and numbers only, ended by \\n, and options to
    read it with. Half the cases may hold blank lines, a cell that is no
    number, a bad date, a short or a long row."""
    junk = draw(st.booleans())
    width = draw(st.integers(1, 3))
    lines = ["date," + ",".join("abc"[:width])]
    day = datetime.date(1979, 12, 28)
    for _ in range(draw(st.integers(1, 12))):
        day += datetime.timedelta(days=1)
        row = [day.isoformat()] + [draw(float_cells()) for _ in range(width)]
        kind = draw(st.sampled_from(("row",) * 6 + (
            ("blank", "cell", "date", "short", "long") if junk else ())))
        if kind == "blank":
            lines.append("")
        elif kind == "cell":
            row[draw(st.integers(1, width))] = draw(
                st.sampled_from(NOT_FLOAT_CELLS))
        elif kind == "date":
            row[0] = draw(st.sampled_from(DATE_CELLS))
        lines.append(",".join(row[:-1] if kind == "short" else
                              row + ["1"] if kind == "long" else row))
    options = dict(
        start_date=draw(st.sampled_from((datetime.date(1979, 12, 1),
                                         datetime.date(1980, 1, 1)))),
        missing_policy=draw(st.sampled_from(("skip", "error"))),
        percent=draw(st.booleans()),
        log_returns=draw(st.booleans()),
    )
    return "\n".join(lines) + draw(st.sampled_from(("\n", ""))), options


def exact_outcome(path, **options):
    """``outcome`` of ``load_csv``, each series' returns as their bytes."""
    got = outcome(load_csv, IngestConfig(path, **options))
    if isinstance(got, tuple):
        return got
    return [(s.label, np.datetime_as_string(s.dates).tolist(),
             s.returns.tobytes()) for s in got]


def count_numbers(monkeypatch) -> Counter:
    """Counts, kept as ``load_csv`` runs, of the blocks ``np.loadtxt``
    reads and of those it fails on."""
    counts = Counter()
    numbers = ingest._numbers

    def spy(lines, width):
        got = numbers(lines, width)
        counts["read" if got is not None else "failed"] += 1
        return got
    monkeypatch.setattr(ingest, "_numbers", spy)
    return counts


class TestNumbersReader:
    """A block of dates and numbers is read by ``np.loadtxt``; with the same
    results and errors, in any blocks, as without it."""

    @staticmethod
    def both_ways(monkeypatch, path, **options):
        """The outcome with the numbers reader, in blocks of 1 and 24
        characters and the whole file, each the one without it."""
        got = []
        for block in (1, 24, 1 << 17):
            monkeypatch.setattr(ingest, "_BLOCK", block)
            got.append(exact_outcome(path, **options))
            with monkeypatch.context() as patch:
                patch.setattr(ingest, "_numbers", lambda lines, width: None)
                assert exact_outcome(path, **options) == got[-1]
        assert got[0] == got[1] == got[2]
        return got[0]

    def test_matches_the_split_reader(self, monkeypatch):
        counts = count_numbers(monkeypatch)

        @settings(max_examples=150, deadline=None, derandomize=True)
        @given(numeric_csvs())
        @example(("date,a\n1990-01-01,1e400\n", {}))
        @example(("date,a\n1990-01-01,0.1\n1990010299,0.2\n", {}))
        # a date cell over 11 characters: cut to 10, it would read as a date
        @example(("date,a\n1990-01-01,0.1\n1990-01-0200,0.2\n", {}))
        def check(case):
            text, options = case
            with tempfile.TemporaryDirectory() as tmp:
                self.both_ways(monkeypatch, write(Path(tmp), text), **options)
        check()
        assert counts["read"] > 500 and counts["failed"] > 100

    @pytest.mark.parametrize("cell", ["1e400", "-1e400", "1.8e308"])
    def test_overflow_names_its_text(self, monkeypatch, tmp_path, cell):
        counts = count_numbers(monkeypatch)
        path = write(tmp_path, f"date,a,b\n1990-01-01,0.1,0.2\n"
                               f"1990-01-02,0.3,{cell}\n")
        assert self.both_ways(monkeypatch, path) == (
            ParseError, (3, "b"), f"row 3, column 'b': non-finite return "
                                  f"{cell!r}")
        assert counts["read"] > 0

    def test_reads_a_panel(self, monkeypatch, tmp_path):
        # dated rows of numbers, the last factor empty for a while: the
        # blocks after that are read by np.loadtxt
        rng = np.random.default_rng(5)
        days = [datetime.date(1990, 1, 1) + datetime.timedelta(days=k)
                for k in range(3000)]
        rows = "".join(
            f"{day}," + ",".join(f"{v:.12g}" for v in rng.normal(0, 0.01, 4))
            + (",\n" if k < 700 else f",{rng.normal(0, 0.01):.12g}\n")
            for k, day in enumerate(days))
        path = write(tmp_path, "date,a,b,c,d,e\n" + rows)
        counts = count_numbers(monkeypatch)
        got = exact_outcome(path)
        assert counts["read"] >= 1 and counts["failed"] >= 1
        monkeypatch.setattr(ingest, "_numbers", lambda lines, width: None)
        assert exact_outcome(path) == got
        assert [len(s[1]) for s in got] == [3000] * 4 + [2300]

    def test_reads_crlf_line_ends(self, monkeypatch, tmp_path):
        # the two-regime fixture ends its lines in \r\n: they are made \n
        # before the byte check, so np.loadtxt reads it as the LF copy
        crlf = Path(__file__).parent / "data" / "fixture_two_regime.csv"
        text = crlf.read_bytes().decode()
        assert text.count("\r\n") == text.count("\n") > 400
        lf = tmp_path / "lf.csv"
        lf.write_bytes(text.replace("\r\n", "\n").encode())
        counts = count_numbers(monkeypatch)
        got = self.both_ways(monkeypatch, crlf)
        assert counts["read"] >= 3 and not counts["failed"]
        assert got == self.both_ways(monkeypatch, lf)
        assert [len(s[1]) for s in got] == [text.count("\n") - 1]

    @pytest.mark.parametrize("text, error", [
        ("date,a\n1990-01-01,0.1\n1990-01-02,0.2,0.3\n1990-01-03,0.4\n", None),
        ("date,a,b\n1990-01-01,0.1,0.2\n1990-01-02,0.3\n1990-01-03,0.4,0.5\n",
         (3, "b")),
        ("date,a,b\n1990-01-01,0.1,0.2\n1990-01-02\n1990-01-03,0.4,0.5\n",
         (3, "a")),
    ], ids=["long-row", "short-row", "date-only-row"])
    def test_width_change_in_a_block(self, monkeypatch, tmp_path, text,
                                     error):
        options = dict(missing_policy="error")
        got = self.both_ways(monkeypatch, write(tmp_path, text), **options)
        want = TestRowBlocks.reference(tmp_path, text, **options)
        if error:
            assert got == want and got[1] == error
        else:
            assert [g[:2] for g in got] == [w[:2] for w in want]

    def test_blank_or_one_row_block_warns_nothing(self, monkeypatch,
                                                  tmp_path):
        # np.loadtxt warns where a text has no row: a block of blank lines
        # never reaches it, and one of one row reads that row
        text = "date,a\n\n\n1990-01-01,0.1\n\n\n\n1990-01-02,0.2\n\n\n"
        path = write(tmp_path, text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for block in (1, 2, len(text)):
                monkeypatch.setattr(ingest, "_BLOCK", block)
                (got,) = exact_outcome(path)
                assert got[1] == ["1990-01-01", "1990-01-02"]
            assert ingest._split("\n\n\n", 2) == ([[], []], 0)
            assert ingest._split("1990-01-01,0.1\n", 2)[1] == 1

    @pytest.mark.parametrize("text, options", [
        ("x,date,a\n1990-01-01,19900101,0.1\n1990-01-02,19900102,0.2\n",
         {"value_columns": ("a",)}),
        ("name,date,ret\n1990-01-01,19900101,0.1\n1990-01-02,19900102,0.2\n",
         {"long_format": True}),
    ], ids=["wide-date-not-first", "long"])
    def test_numbers_in_a_text_column(self, monkeypatch, tmp_path, text,
                                      options):
        # np.loadtxt reads the block, dates in its first column, but the
        # layout reads text from another one: the block is split again
        counts = count_numbers(monkeypatch)
        got = self.both_ways(monkeypatch, write(tmp_path, text), **options)
        assert counts["read"] > 0
        # basic-format dates are bad dates on Python 3.10
        want = TestRowBlocks.reference(tmp_path, text, **options)
        assert got == want if isinstance(want, tuple) else (
            [g[:2] for g in got] == [w[:2] for w in want])


# bad date cells that Python 3.11's fromisoformat reads as 1990-01-02: a
# basic date with text after it in a 10-byte string
@pytest.mark.parametrize("cell", ["1990010299", "19900102 0",
                                  "19900102\xe9", "1990W01123"])
@pytest.mark.parametrize("layout", ["numbers", "split", "csv", "long"])
def test_bad_date_in_ten_bytes(monkeypatch, tmp_path, cell, layout):
    if layout == "long":
        text = (f"name,date,ret\na,1990-01-01,0.1\na,{cell},0.2\n"
                "a,1990-01-03,0.3\na,1990-01-04,0.4\n")
    else:
        text = (f"date,a\n1990-01-01,0.1\n{cell},0.2\n1990-01-03,0.3\n"
                "1990-01-04,0.4\n")
    if layout == "split":  # a number no np.loadtxt reads, in another row
        text = text.replace("0.1", "0.1 ")
    elif layout == "csv":  # csv.reader reads a quoted cell
        text = text.replace("0.1", '"0.1"')
    with monkeypatch.context() as patch:
        got = TestRowBlocks().same_in_any_blocks(
            patch, tmp_path, text, long_format=layout == "long")
    assert got == (ParseError, (3, "date"),
                   f"row 3, column 'date': bad date {cell!r}")
    # read as one block, np.loadtxt reads the cell "1990010299" only
    counts = count_numbers(monkeypatch)
    TestRowBlocks.read(monkeypatch, tmp_path, text, len(text),
                       long_format=layout == "long")
    assert counts["read"] == (layout == "numbers" and cell == "1990010299")


@pytest.mark.parametrize("cell", ["1990-01-02", "\t1990-01-02 ", "19900102",
                                  "1990-W01-2", "1990W012", "1990-W01"])
def test_dates_keep_whole_formats(cell):
    # a cell fromisoformat reads in full reads as it did
    def result(read):
        try:
            return read()
        except ValueError:  # Python 3.10 reads YYYY-MM-DD only
            return ValueError
    assert result(lambda: ingest._dates([cell])) == result(
        lambda: [datetime.date.fromisoformat(cell.strip())])
