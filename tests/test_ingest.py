import csv
import datetime
import math
import tempfile
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
                    value = math.expm1(value)
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

    def spy(text):
        got = split(text)
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
    except (MinRegimeError, OverflowError) as exc:
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
                value = math.expm1(value)
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
    one cell may be longer than the field size limit, and the first line
    may be blank; such a text is for ``csv.reader``."""
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
    return text, not (ragged or too_long or blank_first)


class TestSplitTokenizer:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(token_texts())
    @example(("", False))
    @example(("\na\nb\n", False))  # csv.reader's header is [] here
    @example(("a\n\n b\r\rc\r\n", True))
    @example(("a,b\r\n1,2", True))
    def test_matches_csv_reader(self, case):
        text, readable = case
        got = ingest._split(text)
        assert (got is not None) == readable
        if got is None:
            return
        header, table, nrows = ingest._columns(text, "date")
        assert got[0] == header and got[2] == nrows
        assert {name: list(cells) for name, cells in got[1].items()} == {
            name: list(table.get(name, ())) for name in header}
