import csv
import io
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netsom import dataio
from netsom.dataio import (
    CsvFormatError,
    Dataset,
    apply_normalizer,
    fit_normalizer,
    load_csv,
    normalizer_from_json_dict,
    normalizer_to_json_dict,
    save_csv,
    split,
)


def _ds(values, names, labels=None):
    return Dataset(np.array(values, dtype=np.float64), names, labels)


# The dialect of load_csv, pinned case by case: each input gives this exact
# dataset (bit for bit, so -0.0 stays negative) or this exact error message.
DIALECT = [
    pytest.param(b"a,b\r1,2\r3,4\r", None, _ds([[1, 2], [3, 4]], ["a", "b"]), id="lone-cr"),
    pytest.param(b"a\x0b1\x0b2", None, _ds([[1], [2]], ["a"]), id="vt-line-break"),
    pytest.param(b"a\x0c1\x0c2\n", None, _ds([[1], [2]], ["a"]), id="ff-line-break"),
    pytest.param(b"a,b\r\n1,2\r3,4\n", None, _ds([[1, 2], [3, 4]], ["a", "b"]),
                 id="mixed-breaks"),
    pytest.param(b"a,b\n\n1,2\n\n\n3,4\n", None, _ds([[1, 2], [3, 4]], ["a", "b"]),
                 id="blank-lines"),
    pytest.param(b"a,b\n1,2\n  \n3,4\n", None, "expected 2 fields, found 1 (row 3)",
                 id="whitespace-line"),
    pytest.param(b"a\n1\n \n", None, "not a number: ' ' (row 3, column 1)",
                 id="whitespace-line-one-column"),
    pytest.param(b"\n1\n", None, "expected 0 fields, found 1 (row 2)", id="empty-header-line"),
    pytest.param(b'"a",b\n1,2\n', None, _ds([[1, 2]], ["a", "b"]), id="quoted-header"),
    pytest.param(b'"a,b",c\n1,2\n', None, _ds([[1, 2]], ["a,b", "c"]), id="quoted-comma"),
    pytest.param(b"a,b\n1,2\n3,4,5\n", None, "expected 2 fields, found 3 (row 3)",
                 id="extra-field"),
    pytest.param(b"a,b\n1,2,3\n4,5,6\n", None, "expected 2 fields, found 3 (row 2)",
                 id="extra-field-in-every-row"),
    pytest.param(b"a,b\n1,2\n3\n", None, "expected 2 fields, found 1 (row 3)",
                 id="missing-field"),
    pytest.param(b"x,label\n1,normal\n2,normal,3\n", "label",
                 "expected 2 fields, found 3 (row 3)", id="extra-field-behind-label"),
    pytest.param(b"x,label\n1,normal\n2\n", "label", "expected 2 fields, found 1 (row 3)",
                 id="missing-label-field"),
    pytest.param(b"x,label,y\n1, anomalous ,2\n", "label", _ds([[1, 2]], ["x", "y"], [True]),
                 id="label-inside"),
    pytest.param(b"x,label\n1,Normal\n", "label",
                 "label must be 'normal' or 'anomalous', got 'Normal' (row 2, column 2)",
                 id="unknown-label"),
    pytest.param(b"label\nnormal\n", "label", "no feature columns besides the label",
                 id="label-only"),
    pytest.param(b"a\n1\nnan\n", None, "non-finite value: 'nan' (row 3, column 1)", id="nan"),
    pytest.param(b"a\nInfinity\n", None, "non-finite value: 'Infinity' (row 2, column 1)",
                 id="infinity"),
    pytest.param(b"a\n1e400\n", None, "non-finite value: '1e400' (row 2, column 1)",
                 id="overflow"),
    pytest.param(b"a\n1e-400\n", None, _ds([[0]], ["a"]), id="underflow"),
    pytest.param(b"a\n1_000\n", None, _ds([[1000]], ["a"]), id="underscore"),
    pytest.param(b'a\n"1.5"\n', None, _ds([[1.5]], ["a"]), id="quoted"),
    pytest.param("a\n\u0661\n".encode(), None, _ds([[1]], ["a"]), id="arabic-indic-digit"),
    pytest.param(b"a\n 1.5 \n", None, _ds([[1.5]], ["a"]), id="padded"),
    pytest.param(b"a\n\t1.5\n", None, _ds([[1.5]], ["a"]), id="tab-padded"),
    pytest.param(b"a\n\x1f1\n", None, r"not a number: '\x1f1' (row 2, column 1)",
                 id="unit-separator-padded"),
    pytest.param(b"a,b,c\n+1,-0,.5\n", None, _ds([[1, -0.0, 0.5]], ["a", "b", "c"]),
                 id="signs-and-point"),
    pytest.param(b"a\n0x10\n", None, "not a number: '0x10' (row 2, column 1)", id="hex"),
    pytest.param(b"a\n1\x002\n", None, r"not a number: '1\x002' (row 2, column 1)", id="nul"),
    # A row is the physical line on which its record starts.
    pytest.param(b'a,b\n"1\n",2\n3,x\n', None, "not a number: 'x' (row 4, column 2)",
                 id="after-a-field-on-two-lines"),
    pytest.param(b'"a\nb",c\n1,x\n', None, "not a number: 'x' (row 3, column 2)",
                 id="after-a-header-on-two-lines"),
    pytest.param(b'a,b\n"1\n\n",2\n3\n', None, "expected 2 fields, found 1 (row 5)",
                 id="after-a-field-over-a-blank-line"),
]


def _outcome(parse):
    """What ``parse()`` makes of its input: the dataset's bytes, or the error."""
    try:
        ds = parse()
    except CsvFormatError as exc:
        return str(exc)
    labels = None if ds.labels is None else ds.labels.tobytes()
    return ds.vectors.shape, ds.vectors.tobytes(), ds.column_names, labels


# The differential test's alphabet: plain numbers and labels, and the odd
# fields, header names and line breaks of DIALECT and its neighbours.
NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**20, 10**20).map(str),
)
LABELS = st.sampled_from(["normal", "anomalous", " normal"])
ODD_FIELDS = st.sampled_from([
    "-0", "+1", ".5", "5.", "1E-400", "1e400", "007", " 1.5 ", "\t2", "1_000", '"1.5"',
    "\u0661", "\xa01", "1\u2009", "\x1f1", "1\x1c", "1\x00", "nan", "-inf", "Infinity", "0x10",
    "", " ", "oops", "normal", " anomalous ", "Normal", '"1\n"', '"2\r\n\n"',
])
ODD_NAMES = st.sampled_from(
    ["", " c ", '"c"', '"c,d"', '"c\nd"', "ç", "label", " label", '"label"']
)
ODD_BREAKS = st.sampled_from(
    ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", " ", "\n\n", "\n \n"]
)


@st.composite
def csv_texts(draw):
    """(text, has_header, label_column): a CSV of plain numbers, up to 4
    columns by 6 rows, with up to two odd fields, line breaks or row widths."""
    width = draw(st.integers(1, 4))
    has_header = draw(st.booleans())
    label = draw(st.sampled_from([None, "label"])) if has_header else None
    where = draw(st.integers(0, width - 1))
    lines = [[draw(NUMBERS) for _ in range(width)] for _ in range(draw(st.integers(0, 6)))]
    if label is not None:
        for line in lines:
            line[where] = draw(LABELS)
    if has_header:
        lines.insert(0, [label if i == where and label else f"c{i}" for i in range(width)])
    breaks = [draw(st.sampled_from(["\n", "\r\n"]))] * len(lines)
    for _ in range(draw(st.integers(0, 2)) if lines else 0):
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["field", "break", "width"]))
        if kind == "field" and lines[i]:
            odd = ODD_NAMES if has_header and i == 0 else ODD_FIELDS
            lines[i][draw(st.integers(0, len(lines[i]) - 1))] = draw(odd)
        elif kind == "break":
            breaks[i] = draw(ODD_BREAKS)
        elif kind == "width":
            lines[i] = lines[i][:-1] if draw(st.booleans()) else lines[i] + ["1"]
    text = "".join(",".join(line) + brk for line, brk in zip(lines, breaks))
    return text, has_header, label


def _load_rows(text, has_header, label_column):
    """What :func:`load_csv` reads from ``text`` with the loadtxt step
    skipped: the row loop alone. The byte-order mark keeps a leading one in
    ``text``, since load_csv drops exactly one."""
    with mock.patch.object(dataio, "_loadtxt", lambda *args: None):
        return load_csv(io.StringIO("\ufeff" + text), has_header, label_column)


def _reference_load_rows(text, has_header, label_column):
    """A list-based row-by-row parser: every record kept as a list of str
    with the physical line it starts on, then every value as a float.
    ``_load_rows``, which streams, must match it in values and in every
    error."""
    rows = []
    reader = csv.reader(text.splitlines())
    line = 1
    try:
        for row in reader:
            rows.append((line, row))
            line = reader.line_num + 1
    except csv.Error as exc:
        raise CsvFormatError(str(exc), row=line) from None
    if not rows:
        raise CsvFormatError("empty input: no rows")
    if label_column is not None and not has_header:
        raise CsvFormatError("a label column requires a header line")
    names = None
    label_idx = None
    start = 0
    if has_header:
        header = [h.strip() for h in rows[0][1]]
        if label_column is not None:
            if label_column not in header:
                raise CsvFormatError(f"label column {label_column!r} not found in header")
            label_idx = header.index(label_column)
            names = [h for i, h in enumerate(header) if i != label_idx]
        else:
            names = header
        start = 1
    vectors = []
    labels = []
    expected = len(rows[0][1]) if has_header else None
    for lineno, row in rows[start:]:
        if not row:
            continue
        if expected is None:
            expected = len(row)
        if len(row) != expected:
            raise CsvFormatError(f"expected {expected} fields, found {len(row)}", row=lineno)
        values = []
        for c, field in enumerate(row):
            colno = c + 1
            if c == label_idx:
                lab = field.strip()
                if lab not in ("normal", "anomalous"):
                    raise CsvFormatError(
                        f"label must be 'normal' or 'anomalous', got {field!r}",
                        row=lineno, column=colno,
                    )
                labels.append(lab == "anomalous")
                continue
            try:
                value = float(field)
            except ValueError:
                raise CsvFormatError(f"not a number: {field!r}", row=lineno,
                                     column=colno) from None
            if not np.isfinite(value):
                raise CsvFormatError(f"non-finite value: {field!r}", row=lineno, column=colno)
            values.append(value)
        vectors.append(values)
    if not vectors:
        raise CsvFormatError("no data rows")
    if label_idx is not None and expected - 1 == 0:
        raise CsvFormatError("no feature columns besides the label")
    return Dataset(np.asarray(vectors, dtype=np.float64), names,
                   np.asarray(labels, dtype=bool) if label_idx is not None else None)


def _loadtxt_results(monkeypatch):
    """What each call of the loadtxt step returns, in order, from now on."""
    results = []
    loadtxt = dataio._loadtxt

    def recorded(*args):
        results.append(loadtxt(*args))
        return results[-1]

    monkeypatch.setattr(dataio, "_loadtxt", recorded)
    return results


# A quote that never closes: csv reads on until the field outgrows its limit.
_UNCLOSED_QUOTE = '"' + "1,2\n" * 50_000


class TestLoadCsv:
    def test_header_and_values(self):
        ds = load_csv(b"a,b\n1,2\n3,4")
        assert ds.column_names == ["a", "b"]
        assert np.array_equal(ds.vectors, [[1.0, 2.0], [3.0, 4.0]])
        assert ds.labels is None

    def test_ragged_row_names_row(self):
        with pytest.raises(CsvFormatError, match=r"expected 2 fields, found 1 \(row 2\)"):
            load_csv(b"1,2\n3", has_header=False)

    def test_label_column(self):
        ds = load_csv(b"x,label\n1,normal\n2,anomalous", label_column="label")
        assert ds.dim == 1
        assert ds.column_names == ["x"]
        assert np.array_equal(ds.labels, [False, True])

    def test_label_requires_header(self):
        with pytest.raises(CsvFormatError, match="header"):
            load_csv(b"1,normal\n", has_header=False, label_column="label")

    def test_missing_label_column_named(self):
        with pytest.raises(CsvFormatError, match="'verdict' not found"):
            load_csv(b"a,b\n1,2\n", label_column="verdict")

    def test_bad_label_value_located(self):
        with pytest.raises(CsvFormatError, match=r"row 3, column 2"):
            load_csv(b"x,label\n1,normal\n2,weird\n", label_column="label")

    def test_non_numeric_field_located(self):
        with pytest.raises(CsvFormatError, match=r"not a number: 'oops' \(row 2, column 2\)"):
            load_csv(b"a,b\n1,oops\n")

    def test_nan_and_inf_rejected(self):
        with pytest.raises(CsvFormatError, match="non-finite"):
            load_csv(b"a\nnan\n")
        with pytest.raises(CsvFormatError, match="non-finite"):
            load_csv(b"a\n-inf\n")

    def test_empty_input_rejected(self):
        with pytest.raises(CsvFormatError, match="empty input"):
            load_csv(b"")

    def test_header_only_rejected(self):
        with pytest.raises(CsvFormatError, match="no data rows"):
            load_csv(b"a,b\n")

    def test_crlf_accepted(self):
        ds = load_csv(b"a,b\r\n1,2\r\n3,4\r\n")
        assert np.array_equal(ds.vectors, [[1.0, 2.0], [3.0, 4.0]])

    def test_headerless(self):
        ds = load_csv(b"1.5,2.5\n-3,0.25\n", has_header=False)
        assert ds.column_names is None
        assert np.array_equal(ds.vectors, [[1.5, 2.5], [-3.0, 0.25]])

    def test_reads_path_and_stream(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a\n1\n2\n")
        assert np.array_equal(load_csv(p).vectors, [[1.0], [2.0]])
        with open(p, "rb") as fh:
            assert np.array_equal(load_csv(fh).vectors, [[1.0], [2.0]])

    @pytest.mark.parametrize("text, has_header, label_column", [
        ("label,a\nnormal,0.5\nanomalous,-1\n", True, "label"),
        ("0.6369616873214543,1\n-1,2\n", False, None),
        ("a,b\n0.5,1\n-1,2\n", True, None),
    ])
    def test_leading_byte_order_mark_is_dropped(self, tmp_path, text, has_header, label_column):
        # As spreadsheet "CSV UTF-8" exports write it.
        expected = _outcome(lambda: load_csv(text.encode(), has_header, label_column))
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        sources = [lambda: path.read_bytes(), lambda: path, lambda: io.BytesIO(path.read_bytes()),
                   lambda: io.StringIO(path.read_text(encoding="utf-8"))]
        for source in sources:
            got = _outcome(lambda: load_csv(source(), has_header, label_column))
            assert got == expected

    @pytest.mark.parametrize("data, has_header, message", [
        (b"\xef\xbb\xbfa,b\n1,2\n3,x\n", True, "not a number: 'x' (row 3, column 2)"),
        (b"\xef\xbb\xbfx,1\n", False, "not a number: 'x' (row 1, column 1)"),
        # Only one leading mark is dropped; any other is a field character.
        (b"\xef\xbb\xbf\xef\xbb\xbf1,2\n", False, "not a number: '\\ufeff1' (row 1, column 1)"),
        (b"a,b\n1,\xef\xbb\xbf2\n", True, "not a number: '\\ufeff2' (row 2, column 2)"),
    ])
    def test_byte_order_mark_keeps_row_and_column_in_errors(self, data, has_header, message):
        with pytest.raises(CsvFormatError) as raised:
            load_csv(data, has_header)
        assert str(raised.value) == message

    def test_invalid_utf8_rejected(self):
        with pytest.raises(CsvFormatError) as raised:
            load_csv(b"\xef\xbb\xbfa\n\xff\n")
        assert str(raised.value) == ("input is not valid UTF-8: 'utf-8' codec can't decode "
                                     "byte 0xff in position 5: invalid start byte")

    @pytest.mark.parametrize("data, label_column, expected", DIALECT)
    def test_dialect(self, data, label_column, expected):
        if isinstance(expected, Dataset):
            expected = _outcome(lambda: expected)
        assert _outcome(lambda: load_csv(data, label_column=label_column)) == expected

    def test_plain_csv_takes_the_fast_path(self, monkeypatch):
        results = _loadtxt_results(monkeypatch)
        text = "a,label,b\r\n1, normal,-2.5e-3\r\n\r\n+7,anomalous,.5\r\n"
        ds = load_csv(text.encode(), label_column="label")
        assert len(results) == 1 and results[0] is not None
        assert ds.column_names == ["a", "b"]
        assert ds.vectors.tobytes() == np.array([[1.0, -2.5e-3], [7.0, 0.5]]).tobytes()
        assert ds.labels.tolist() == [False, True]
        assert _outcome(lambda: ds) == _outcome(lambda: _load_rows(text, True, "label"))
        ds = load_csv(b"1,2\n3,4", has_header=False)
        assert len(results) == 2 and results[1] is not None
        assert ds.column_names is None
        assert np.array_equal(ds.vectors, [[1.0, 2.0], [3.0, 4.0]])

    def test_quoted_header_takes_the_fast_path(self, monkeypatch):
        # A spreadsheet export quotes its header; only the data lines decide.
        body = b"1,normal,-2.5e-3\r\n+7,anomalous,.5\r\n"
        plain = load_csv(b"a,label,b c\r\n" + body, label_column="label")
        results = _loadtxt_results(monkeypatch)
        quoted = load_csv(b'"a","label","b c"\r\n' + body, label_column="label")
        assert len(results) == 1 and results[0] is not None
        assert _outcome(lambda: quoted) == _outcome(lambda: plain)
        text = '"naïve, or not",b\n1,2\n'
        ds = load_csv(text.encode())
        assert len(results) == 2 and results[1] is not None
        assert ds.column_names == ["naïve, or not", "b"]
        assert ds.vectors.tolist() == [[1.0, 2.0]]
        assert _outcome(lambda: ds) == _outcome(lambda: _load_rows(text, True, None))

    @pytest.mark.parametrize("text", [
        '"a","b"\n1,"2"\n',  # a quoted data field
        '"a","b"\n1,٢\n',  # a non-ASCII data field
        '"a\nb",c\n1,2\n',  # a header field that runs on past its line
        '"a,b\n1,2\n',  # a header quote that never closes
    ])
    def test_quoted_or_odd_data_takes_the_row_by_row_path(self, monkeypatch, text):
        results = _loadtxt_results(monkeypatch)
        outcome = _outcome(lambda: load_csv(text.encode()))
        assert results == [None]
        assert outcome == _outcome(lambda: _load_rows(text, True, None))

    @pytest.mark.parametrize("data, message", [
        (b'"a","b"\n1,2\n3,x\n', "not a number: 'x' (row 3, column 2)"),
        (b'"a","b"\n1,2\n\n3\n', "expected 2 fields, found 1 (row 4)"),
        (b'"x","label"\n1,normal\n2,Normal\n',
         "label must be 'normal' or 'anomalous', got 'Normal' (row 3, column 2)"),
        # A header quote that never closes: csv reads on until the field
        # outgrows its size limit.
        pytest.param(b'"a,b\n' + b"1,2\n" * 50_000,
                     f"field larger than field limit ({csv.field_size_limit()}) (row 1)",
                     id="unclosed-header-quote"),
    ])
    def test_quoted_header_keeps_row_and_column_in_errors(self, data, message):
        label_column = "label" if b"label" in data else None
        with pytest.raises(CsvFormatError) as raised:
            load_csv(data, label_column=label_column)
        assert str(raised.value) == message

    @settings(max_examples=300)
    @given(csv_texts())
    # An error after a record that spans lines, numbered by the line the
    # bad record starts on; random draws seldom make one.
    @example(('"c\nd",1\n0.0\n', True, None))
    def test_row_by_row_matches_the_reference(self, case):
        text, has_header, label_column = case
        assert _outcome(lambda: _load_rows(text, has_header, label_column)) == _outcome(
            lambda: _reference_load_rows(text, has_header, label_column)
        )

    @pytest.mark.parametrize("text, label_column, message", [
        # Two bad records: the first one's error, whatever the kinds.
        pytest.param("a,b\n1,x\n3\n", None, "not a number: 'x' (row 2, column 2)",
                     id="number-then-width"),
        pytest.param("a,b\n1\n3,x\n", None, "expected 2 fields, found 1 (row 2)",
                     id="width-then-number"),
        pytest.param("a,b\n1,inf\nx,2\n", None, "non-finite value: 'inf' (row 2, column 2)",
                     id="non-finite-then-number"),
        pytest.param("a,label\nx,Normal\n", "label", "not a number: 'x' (row 2, column 1)",
                     id="number-before-label"),
        pytest.param("a,label\n1,Normal\nx,normal\n", "label",
                     "label must be 'normal' or 'anomalous', got 'Normal' (row 2, column 2)",
                     id="label-then-number"),
        # A csv error comes first, even after a bad record or header.
        pytest.param("a,b\n1,x\n" + _UNCLOSED_QUOTE, None,
                     f"field larger than field limit ({csv.field_size_limit()}) (row 3)",
                     id="number-then-csv-error"),
        pytest.param("a\n1\n" + _UNCLOSED_QUOTE, "label",
                     f"field larger than field limit ({csv.field_size_limit()}) (row 3)",
                     id="missing-label-column-then-csv-error"),
        pytest.param("a\n" + _UNCLOSED_QUOTE, None,
                     f"field larger than field limit ({csv.field_size_limit()}) (row 2)",
                     id="csv-error"),
        pytest.param('a,b\n"1\n",2\n' + _UNCLOSED_QUOTE, None,
                     f"field larger than field limit ({csv.field_size_limit()}) (row 4)",
                     id="field-on-two-lines-then-csv-error"),
    ])
    def test_row_by_row_reports_the_reference_error(self, text, label_column, message):
        for parse in (_load_rows, _reference_load_rows):
            with pytest.raises(CsvFormatError) as raised:
                parse(text, True, label_column)
            assert str(raised.value) == message

    def test_row_by_row_keeps_finite_values_whose_sum_overflows(self):
        text = '"a",b,label\n1e308,1e308,normal\n-1e308,-1e308,anomalous\n'
        ds = load_csv(text.encode(), label_column="label")
        assert ds.vectors.tolist() == [[1e308, 1e308], [-1e308, -1e308]]
        assert ds.labels.tolist() == [False, True]

    @settings(max_examples=300)
    @given(csv_texts())
    def test_fast_path_matches_row_by_row(self, case):
        text, has_header, label_column = case
        assert _outcome(lambda: load_csv(text.encode(), has_header, label_column)) == _outcome(
            lambda: _load_rows(text, has_header, label_column)
        )


class TestSaveCsv:
    def test_round_trip_preserves_values_exactly(self):
        values = np.array(
            [[0.1, 1.0 / 3.0], [1e-300, 6.02214076e23], [-7.25, 0.0]]
        )
        ds = Dataset(vectors=values, column_names=["p", "q"])
        buf = io.StringIO()
        save_csv(ds, buf)
        again = load_csv(buf.getvalue().encode())
        assert np.array_equal(again.vectors, values)
        assert again.column_names == ["p", "q"]

    def test_labels_round_trip(self):
        ds = Dataset(
            vectors=np.array([[1.0], [2.0]]),
            column_names=["x"],
            labels=np.array([False, True]),
        )
        buf = io.StringIO()
        save_csv(ds, buf)
        again = load_csv(buf.getvalue().encode(), label_column="label")
        assert np.array_equal(again.labels, [False, True])

    def test_failed_write_keeps_existing_file(self, tmp_path, monkeypatch):
        path = tmp_path / "held.csv"
        path.write_bytes(b"old\n")

        def failing_fsync(fd):
            raise OSError("disk full")

        monkeypatch.setattr(os, "fsync", failing_fsync)
        with pytest.raises(OSError, match="disk full"):
            save_csv(Dataset(vectors=np.ones((2, 1))), path)
        assert path.read_bytes() == b"old\n"
        assert os.listdir(tmp_path) == ["held.csv"]


class TestNormalizer:
    def test_minmax_example(self):
        ds = Dataset(vectors=np.array([[0.0], [5.0], [10.0]]))
        out = apply_normalizer(fit_normalizer(ds, "minmax"), ds)
        assert np.array_equal(out.vectors, [[0.0], [0.5], [1.0]])

    def test_zscore_symmetric_example(self):
        ds = Dataset(vectors=np.array([[-1.0], [1.0]]))
        out = apply_normalizer(fit_normalizer(ds, "zscore"), ds)
        assert np.array_equal(out.vectors, [[-1.0], [1.0]])

    def test_zscore_derived_example(self):
        ds = Dataset(vectors=np.array([[0.0], [10.0]]))
        model = fit_normalizer(ds, "zscore")
        out = apply_normalizer(model, Dataset(vectors=np.array([[10.0]])))
        assert out.vectors[0, 0] == 1.0  # (10 - 5) / 5

    @pytest.mark.parametrize("method", ["minmax", "zscore"])
    def test_constant_column_flagged_and_zeroed(self, method):
        ds = Dataset(vectors=np.array([[7.0, 1.0], [7.0, 2.0], [7.0, 3.0]]))
        model = fit_normalizer(ds, method)
        assert model.degenerate.tolist() == [True, False]
        out = apply_normalizer(model, ds)
        assert np.array_equal(out.vectors[:, 0], [0.0, 0.0, 0.0])

    @pytest.mark.parametrize("method", ["minmax", "zscore"])
    @pytest.mark.parametrize("value", [1.7e308, -1.7e308])
    def test_constant_column_near_the_float_limit(self, method, value):
        # The column's sum overflows, but it is constant: degenerate, not an error.
        ds = Dataset(vectors=np.array([[value, 1.0], [value, 2.0], [value, 3.0]]))
        model = fit_normalizer(ds, method)
        assert model.degenerate.tolist() == [True, False]
        out = apply_normalizer(model, ds)
        assert np.array_equal(out.vectors[:, 0], [0.0, 0.0, 0.0])
        if method == "zscore":
            assert model.stats["mean"][0] == value
            assert model.stats["stddev"][0] == 0.0

    def test_zscore_keeps_the_summed_mean_of_a_finite_constant_column(self):
        # Three 0.1s sum to a mean one bit above 0.1, which norm.json keeps.
        model = fit_normalizer(Dataset(vectors=np.full((3, 1), 0.1)), "zscore")
        assert model.stats["mean"][0] == 0.10000000000000002

    @pytest.mark.parametrize("names, column", [(["a", "b"], "'b'"), (None, "2")])
    def test_minmax_range_that_overflows_rejected(self, names, column):
        # Every value is finite, but max - min of the second column is not.
        values = np.tile([[0.0, 1.7e308], [1.0, -1.7e308]], (25, 1))
        with pytest.raises(ValueError) as info:
            fit_normalizer(Dataset(values, names), "minmax")
        assert str(info.value) == (
            f"cannot fit minmax normalization: the range (max - min) of column {column} "
            "is not finite; scale the data down"
        )

    @pytest.mark.parametrize(
        "values, stat",
        [
            (np.tile([[0.0, 1e200], [1.0, -1e200]], (25, 1)), "stddev"),
            (np.tile([[0.0, 1.7e308], [1.0, 1.6e308]], (25, 1)), "mean"),
        ],
    )
    def test_zscore_statistic_that_overflows_rejected(self, values, stat):
        with pytest.raises(ValueError) as info:
            fit_normalizer(Dataset(values, ["a", "b"]), "zscore")
        assert str(info.value) == (
            f"cannot fit zscore normalization: the {stat} of column 'b' "
            "is not finite; scale the data down"
        )

    @pytest.mark.parametrize("names, column", [(["a", "b"], "'b'"), (None, "2")])
    def test_zscore_stddev_that_underflows_rejected(self, names, column):
        # The second column is not constant, but its deviations square to 0.
        values = np.array([[0.0, 1e-200], [1.0, 2e-200], [2.0, 3e-200]])
        with pytest.raises(ValueError) as info:
            fit_normalizer(Dataset(values, names), "zscore")
        assert str(info.value) == (
            f"cannot fit zscore normalization: the stddev of column {column} "
            "underflows to 0; scale the data up"
        )

    def test_zscore_keeps_a_tiny_stddev_that_does_not_underflow(self):
        # Its squared deviations are subnormal, so it is not exact, but it is not 0.
        ds = Dataset(vectors=np.array([[1e-160], [3e-160]]))
        out = apply_normalizer(fit_normalizer(ds, "zscore"), ds)
        assert np.allclose(out.vectors, [[-1.0], [1.0]], rtol=1e-3)

    @pytest.mark.parametrize(
        "fitted, names, scored, where",
        [
            ([[0.0], [1e-10]], None, [[1e300]], "data row 1, column 1"),
            ([[0.0, 0.0], [1.0, 1e-10]], ["a", "b"], [[0.0, 0.0], [5.0, 1e300], [1e300, 0.0]],
             "data row 2, column 'b'"),
            ([[0.0, 0.0], [1e-10, 1e-10]], None, [[0.0, 0.0], [0.0, 1e300], [1e300, 0.0]],
             "data row 2, column 2"),
        ],
    )
    def test_zscore_value_that_overflows_rejected(self, fitted, names, scored, where):
        model = fit_normalizer(Dataset(np.array(fitted), names), "zscore")
        with pytest.raises(ValueError) as info:
            apply_normalizer(model, Dataset(np.array(scored), names))
        assert str(info.value) == (
            f"cannot apply zscore normalization: {where} scales to a non-finite value; "
            "scale the data down"
        )

    def test_zscore_zero_stddev_from_json_rejected(self):
        # A hand-edited normalizer may hold stddev 0 in a column not flagged degenerate.
        model = normalizer_from_json_dict({
            **normalizer_to_json_dict(fit_normalizer(Dataset(vectors=np.eye(2)), "zscore")),
            "stats": {"mean": [0.5, 0.5], "stddev": [0.5, 0.0]},
        })
        with pytest.raises(ValueError, match=r"data row 1, column 2 scales to a non-finite"):
            apply_normalizer(model, Dataset(vectors=np.array([[0.5, 0.5]])))

    def test_minmax_clamps_out_of_range(self):
        ds = Dataset(vectors=np.array([[0.0], [10.0]]))
        model = fit_normalizer(ds, "minmax")
        out = apply_normalizer(model, Dataset(vectors=np.array([[15.0], [-2.0]])))
        assert np.array_equal(out.vectors, [[1.0], [0.0]])

    def test_minmax_clamps_a_value_that_overflows(self):
        model = fit_normalizer(Dataset(vectors=np.array([[-1e308], [-5e307]])), "minmax")
        out = apply_normalizer(model, Dataset(vectors=np.array([[1e308], [-1.7e308]])))
        assert np.array_equal(out.vectors, [[1.0], [0.0]])

    def test_none_is_identity(self):
        ds = Dataset(vectors=np.array([[1.0, -2.0], [3.5, 0.0]]))
        out = apply_normalizer(fit_normalizer(ds, "none"), ds)
        assert np.array_equal(out.vectors, ds.vectors)

    def test_minmax_output_stays_in_unit_interval(self):
        rng = np.random.default_rng(4)
        ds = Dataset(vectors=rng.normal(3.0, 10.0, size=(100, 5)))
        out = apply_normalizer(fit_normalizer(ds, "minmax"), ds)
        assert np.all(out.vectors >= 0.0)
        assert np.all(out.vectors <= 1.0)

    def test_dimension_mismatch_rejected(self):
        model = fit_normalizer(Dataset(vectors=np.ones((2, 2))), "minmax")
        with pytest.raises(ValueError, match="dimension mismatch"):
            apply_normalizer(model, Dataset(vectors=np.ones((2, 3))))

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown normalization method"):
            fit_normalizer(Dataset(vectors=np.ones((1, 1))), "robust")

    def test_json_round_trip_exact(self):
        rng = np.random.default_rng(8)
        ds = Dataset(vectors=rng.normal(0, 3, size=(50, 4)))
        for method in ("minmax", "zscore", "none"):
            model = fit_normalizer(ds, method)
            again = normalizer_from_json_dict(normalizer_to_json_dict(model))
            assert again.method == model.method
            assert np.array_equal(again.degenerate, model.degenerate)
            for key, arr in model.stats.items():
                assert np.array_equal(again.stats[key], arr)

    @pytest.mark.parametrize(
        "method, change, message",
        [
            ("minmax", {"stats": {"min": [0.0], "max": [1.0]}}, "must hold 2 finite values"),
            ("minmax", {"stats": {"min": [0.0, 0.0], "max": [1.0, None]}}, "finite values"),
            ("zscore", {"stats": {"mean": [0.0, float("inf")], "stddev": [1.0, 1.0]}},
             "finite values"),
            ("minmax", {"stats": {"min": [0.0, 0.0]}}, "must be exactly"),
            ("none", {"stats": {"min": [0.0, 0.0]}}, "must be exactly"),
            ("minmax", {"dim": 3}, "does not match"),
            ("minmax", {"degenerate": [0, 1]}, "booleans"),
            ("minmax", {"method": "robust"}, "unknown normalization method"),
            ("minmax", {"stats": None}, "malformed"),
            ("minmax", {"format_version": True}, "'format_version' must be an integer"),
            ("minmax", {"dim": True}, "'dim' must be an integer"),
            ("minmax", {"dim": 2.0}, "'dim' must be an integer"),
            ("minmax", {"method": 1}, "'method' must be a string"),
            ("minmax", {"degenerate": None}, "'degenerate' must be an array"),
            ("minmax", {"stats": {"min": ["0", "2"], "max": [1.0, 3.0]}}, "finite values"),
            ("minmax", {"stats": {"min": [False, 2.0], "max": [1.0, 3.0]}}, "finite values"),
            ("minmax", {"stats": {"min": "02", "max": [1.0, 3.0]}}, "finite values"),
            ("minmax", {"stats": {"min": [0.0, 10**400], "max": [1.0, 3.0]}}, "finite values"),
            # Statistics that fit_normalizer never writes.
            ("minmax", {"stats": {"min": [0.0, 2.0], "max": [1.0, 2.0]}},
             "^minmax column 2: max equals min but the column is not flagged degenerate$"),
            ("minmax", {"stats": {"min": [1.0, 2.0], "max": [0.0, 3.0]}},
             "^minmax column 1: max is below min$"),
            ("zscore", {"stats": {"mean": [0.5, 2.5], "stddev": [0.5, -1.0]}},
             "^zscore column 2: stddev is negative$"),
            ("minmax", {"format_version": 2},
             r"^unsupported normalizer format version 2 \(expected 1\)$"),
        ],
    )
    def test_malformed_json_rejected(self, method, change, message):
        model = fit_normalizer(Dataset(vectors=np.array([[0.0, 2.0], [1.0, 3.0]])), method)
        payload = {**normalizer_to_json_dict(model), **change}
        with pytest.raises(ValueError, match=message):
            normalizer_from_json_dict(payload)

    @pytest.mark.parametrize("payload", [[1], "x", None, 1])
    def test_non_object_rejected(self, payload):
        with pytest.raises(ValueError, match="expected a JSON object"):
            normalizer_from_json_dict(payload)

    def test_missing_field_rejected(self):
        payload = normalizer_to_json_dict(fit_normalizer(Dataset(vectors=np.ones((2, 2))), "none"))
        del payload["degenerate"]
        with pytest.raises(ValueError, match="malformed normalizer record"):
            normalizer_from_json_dict(payload)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: Dataset(np.zeros(3)), r"^vectors must be 2-D, got shape \(3,\)$",
                 id="vectors-1d"),
    pytest.param(lambda: Dataset(np.zeros((2, 2)), ["a"]),
                 "^column_names length must equal the feature dimension$", id="names"),
    pytest.param(lambda: Dataset(np.zeros((2, 2)), labels=[True]),
                 "^labels must have one entry per row$", id="labels"),
    pytest.param(lambda: dataio.NormalizationModel("none", {}, np.array(False)),
                 "^degenerate must hold one flag per dimension$", id="degenerate-0d"),
    pytest.param(lambda: fit_normalizer(Dataset(np.zeros((0, 2))), "minmax"),
                 "^cannot fit a normalizer on an empty dataset$", id="fit-empty"),
    pytest.param(lambda: split(Dataset(np.zeros((0, 2))), (0.8, 0.1, 0.1), seed=0),
                 "^cannot split an empty dataset$", id="split-empty"),
])
def test_refusal_names_its_cause(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestSplit:
    def _dataset(self, n=10):
        return Dataset(
            vectors=np.arange(n, dtype=np.float64).reshape(n, 1),
            labels=np.arange(n) % 2 == 0,
        )

    def test_everything_to_train(self):
        tr, cal, te = split(self._dataset(), (1.0, 0.0, 0.0), seed=1)
        assert (len(tr), len(cal), len(te)) == (10, 0, 0)

    def test_exact_rounding(self):
        tr, cal, te = split(self._dataset(), (0.8, 0.1, 0.1), seed=1)
        assert (len(tr), len(cal), len(te)) == (8, 1, 1)

    def test_rounding_overshoot_leaves_train_empty_not_negative(self):
        # One row: 0.5 rounds up to one row for both calibrate and test.
        ds = self._dataset(1)
        tr, cal, te = split(ds, (0.0, 0.5, 0.5), seed=1)
        assert (len(tr), len(cal), len(te)) == (0, 1, 0)
        assert np.array_equal(cal.vectors, ds.vectors)
        assert np.array_equal(cal.labels, ds.labels)

    def test_same_seed_same_partitions(self):
        a = split(self._dataset(), (0.6, 0.2, 0.2), seed=5)
        b = split(self._dataset(), (0.6, 0.2, 0.2), seed=5)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.vectors, pb.vectors)
            assert np.array_equal(pa.labels, pb.labels)

    def test_partitions_cover_input_as_multiset(self):
        ds = self._dataset(37)
        parts = split(ds, (0.5, 0.25, 0.25), seed=9)
        merged = np.sort(np.concatenate([p.vectors[:, 0] for p in parts]))
        assert np.array_equal(merged, np.sort(ds.vectors[:, 0]))
        assert sum(len(p) for p in parts) == 37

    def test_labels_follow_rows(self):
        ds = self._dataset(20)
        tr, cal, te = split(ds, (0.5, 0.25, 0.25), seed=2)
        for part in (tr, cal, te):
            for row, lab in zip(part.vectors[:, 0], part.labels):
                assert lab == (int(row) % 2 == 0)

    def test_bad_fractions_rejected(self):
        with pytest.raises(ValueError):
            split(self._dataset(), (0.5, 0.2, 0.2), seed=1)
        with pytest.raises(ValueError):
            split(self._dataset(), (1.2, -0.1, -0.1), seed=1)
        for bad in (float("nan"), float("inf")):
            for position in range(3):
                fractions = [0.8, 0.1, 0.1]
                fractions[position] = bad
                with pytest.raises(ValueError, match="three nonnegative numbers"):
                    split(self._dataset(), fractions, seed=1)
