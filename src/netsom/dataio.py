"""CSV ingestion, feature normalization, and seeded dataset splitting.

Accepted CSV dialect: UTF-8 text, whose one leading byte-order mark, if
any, is dropped (a U+FEFF anywhere else is a field character), cut into
lines where ``str.splitlines`` cuts it: at LF and CRLF, but also at a lone
CR, VT, FF, \\x1c-\\x1e, NEL, U+2028 and U+2029. Empty lines are skipped;
a line of spaces is a row. Fields are split at commas by the ``csv``
module's default dialect, so a field that starts with a double quote is
unquoted, may hold commas, and may run on into the next line (the line
break is dropped). An optional first line is the header. An optional label
column, named in the header, holds ``normal`` or ``anomalous``, with
surrounding whitespace ignored. Every other field must be a number that
Python's ``float()`` reads as finite: surrounding whitespace, a sign, a
leading or trailing '.', an exponent, underscores between digits and
non-ASCII decimal digits are accepted; ``nan``, ``inf`` and values beyond
the float range are rejected. Categorical features must be pre-encoded to
numbers upstream (as KDD-style pipelines do).

One parser reads the text: ``csv`` reads the header record, which may be
quoted, and the data lines go to one ``np.loadtxt`` call when they are ASCII
with no double quote and no control character but tab, CR and LF. Other
data lines, and any malformed input, are read record by record by ``csv``
and ``float()``, which gives the same values and names the 1-based row and
column of the first error.
"""

from __future__ import annotations

import csv
import math
import reprlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from netsom.mapfile import write_text

LABEL_NORMAL = "normal"
LABEL_ANOMALOUS = "anomalous"
# What the CSV parser reads a label as; in the loadtxt step an unknown label
# reads as NaN.
_LABEL_VALUES = {LABEL_NORMAL: 0.0, LABEL_ANOMALOUS: 1.0}
# Characters that keep CSV data lines from the loadtxt step: the quote,
# which csv unquotes, and the ASCII control characters but tab, LF and CR,
# some of which np.loadtxt strips around a number where float() rejects them.
_ROW_BY_ROW_CHARS = '"' + "".join(map(chr, (*range(9), 11, 12, *range(14, 32), 127)))
# The per-dimension statistics each normalization method keeps.
_STAT_KEYS = {"minmax": ("min", "max"), "zscore": ("mean", "stddev"), "none": ()}
NORMALIZATION_METHODS = tuple(_STAT_KEYS)
NORMALIZER_FORMAT_VERSION = 1
# The kinds json_fields checks, by the name its errors give them.
_JSON_KINDS = {int: "an integer", float: "a number", str: "a string", list: "an array",
               dict: "an object"}


class CsvFormatError(ValueError):
    """Malformed CSV input, with a 1-based row/column diagnostic when known."""

    def __init__(self, message: str, row: int | None = None, column: int | None = None):
        self.row = row
        self.column = column
        where = ""
        if row is not None:
            where = f" (row {row}" + (f", column {column})" if column is not None else ")")
        super().__init__(message + where)


@dataclass(frozen=True)
class Dataset:
    """A batch of feature vectors with optional column names and labels.

    ``labels`` is a per-row boolean array, True meaning anomalous.
    """

    vectors: np.ndarray
    column_names: list[str] | None = None
    labels: np.ndarray | None = None

    def __post_init__(self) -> None:
        v = np.ascontiguousarray(self.vectors, dtype=np.float64)
        if v.ndim != 2:
            raise ValueError(f"vectors must be 2-D, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("dataset contains non-finite values")
        object.__setattr__(self, "vectors", v)
        if self.column_names is not None and len(self.column_names) != v.shape[1]:
            raise ValueError("column_names length must equal the feature dimension")
        if self.labels is not None:
            lab = np.asarray(self.labels, dtype=bool)
            if lab.shape != (v.shape[0],):
                raise ValueError("labels must have one entry per row")
            object.__setattr__(self, "labels", lab)

    def __len__(self) -> int:
        return int(self.vectors.shape[0])

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])


@dataclass(frozen=True)
class NormalizationModel:
    """Fitted per-dimension scaling.

    ``stats`` holds {"min", "max"} for minmax, {"mean", "stddev"} (population
    stddev) for zscore, and is empty for none, each statistic holding one
    finite value per dimension. ``degenerate`` flags constant columns, which
    both methods map to 0. A max below its min, a max equal to its min in a
    column not flagged degenerate, and a negative stddev are refused.
    """

    method: str
    stats: dict
    degenerate: np.ndarray

    def __post_init__(self) -> None:
        if self.method not in NORMALIZATION_METHODS:
            raise ValueError(f"unknown normalization method {self.method!r}")
        keys = _STAT_KEYS[self.method]
        if sorted(self.stats) != sorted(keys):
            raise ValueError(
                f"{self.method} statistics must be exactly {list(keys)}, got {list(self.stats)}"
            )
        if np.ndim(self.degenerate) != 1:
            raise ValueError("degenerate must hold one flag per dimension")
        stats = {key: np.asarray(self.stats[key], dtype=np.float64) for key in keys}
        for key, values in stats.items():
            if values.shape != (self.dim,) or not np.all(np.isfinite(values)):
                raise ValueError(f"statistic {key!r} must hold {self.dim} finite values")
        checks = []
        if self.method == "minmax":
            low, high = stats["min"], stats["max"]
            checks = [
                (high < low, "max is below min"),
                ((high == low) & ~np.asarray(self.degenerate, dtype=bool),
                 "max equals min but the column is not flagged degenerate"),
            ]
        elif self.method == "zscore":
            checks = [(stats["stddev"] < 0.0, "stddev is negative")]
        for bad, what in checks:
            if bad.any():
                raise ValueError(f"{self.method} column {int(np.argmax(bad)) + 1}: {what}")

    @property
    def dim(self) -> int:
        return int(self.degenerate.shape[0])


def load_csv(source, has_header: bool = True, label_column: str | None = None) -> Dataset:
    """Parse CSV feature data.

    ``source`` may be a path, bytes, or a text/binary file object. Rejects
    ragged rows, non-numeric feature fields, and non-finite values, naming
    the offending 1-based row and column. Physical line numbers are used,
    so with a header the first data row is row 2.
    """
    return _load(_read_text(source), has_header, label_column, loadtxt=True)


def _load_rows(text: str, has_header: bool, label_column: str | None) -> Dataset:
    """What :func:`load_csv` reads from ``text`` with the loadtxt step
    skipped; the reference that :func:`_loadtxt` must match."""
    return _load(text, has_header, label_column, loadtxt=False)


def _load(text: str, has_header: bool, label_column: str | None, loadtxt: bool) -> Dataset:
    """Read the header record through csv, then the data lines by
    :func:`_loadtxt` if ``loadtxt``, or where that gives None, record by
    record from the same csv reader: the only code that raises
    :class:`CsvFormatError`.

    The first bad record's error is raised once csv has read the rest of the
    text, since a csv error comes first wherever it is.
    """
    import itertools

    lines = text.splitlines()
    reader = csv.reader(lines)
    records = _records(reader)
    try:
        first = next(records, None)
        if first is None:
            raise CsvFormatError("empty input: no rows")
        names = label_idx = expected = None
        if has_header:
            names = [h.strip() for h in first]
            if label_column is not None:
                if label_column not in names:
                    raise CsvFormatError(f"label column {label_column!r} not found in header")
                label_idx = names.index(label_column)
                del names[label_idx]
            expected = len(first)
        elif label_column is not None:
            raise CsvFormatError("a label column requires a header line")
        else:
            records = itertools.chain([first], records)
        arrays = None
        if loadtxt:
            arrays = _loadtxt(text, lines, reader.line_num if has_header else 0, expected,
                              label_idx)
        vectors, labels = arrays or _convert_records(records, int(has_header), expected,
                                                     label_idx)
    except CsvFormatError:
        for _ in records:
            pass
        raise
    return Dataset(vectors=vectors, column_names=names, labels=labels)


def _loadtxt(text: str, lines: list[str], header_lines: int, width: int | None,
             label_idx: int | None):
    """The vectors and labels (None without a label column) that the row
    loop reads from the data lines ``lines[header_lines:]``, parsed by one
    ``np.loadtxt`` call, or None wherever the two could disagree. Never
    raises.

    Both convert numbers with the same correctly rounded routine, so they
    agree on data lines of ASCII text without quotes and control characters
    (tab, CR and LF aside) below a header of at most one line. loadtxt
    rejects a row whose field count differs from the first row's; the
    header's count ``width``, the row count, finite values and known labels
    are checked here.
    """
    import warnings

    # Only the data lines must be plain. The whole text is tested first,
    # which spares a copy of the data lines when it passes.
    if header_lines > 1 or not (
        _plain(text) or (header_lines and _plain(text[len(lines[0]):]))
    ):
        return None
    body = lines[header_lines:]
    rows = len(body) - body.count("")  # csv reads no row from an empty line
    if rows == 0 or (label_idx is not None and width == 1):
        return None
    converters = None
    if label_idx is not None:
        converters = {label_idx: lambda field: _LABEL_VALUES.get(field.strip(), math.nan)}
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            data = np.loadtxt(
                body, delimiter=",", dtype=np.float64, comments=None, ndmin=2,
                converters=converters,
            )
    except (ValueError, Warning):
        return None
    if len(data) != rows or width not in (None, data.shape[1]) or not np.isfinite(data).all():
        return None
    if label_idx is None:
        return data, None
    anomalous = data[:, label_idx] == _LABEL_VALUES[LABEL_ANOMALOUS]
    return np.delete(data, label_idx, axis=1), anomalous


def _plain(text: str) -> bool:
    """True if ``text`` is ASCII with none of :data:`_ROW_BY_ROW_CHARS`."""
    return text.isascii() and not any(c in text for c in _ROW_BY_ROW_CHARS)


def _records(reader):
    """The records a csv ``reader`` reads; a csv error raises
    :class:`CsvFormatError` naming the record where it began."""
    count = 0
    try:
        for count, row in enumerate(reader, 1):
            yield row
    except csv.Error as exc:  # such as a quoted field longer than csv's limit
        raise CsvFormatError(str(exc), row=count + 1) from None


def _convert_records(records, lineno: int, expected: int | None, label_idx: int | None):
    """The vectors and labels (None without a label column) of the data
    ``records``, numbered from ``lineno + 1``, or the :class:`CsvFormatError`
    of the first bad one. Each record is converted as csv reads it, into
    one float64 buffer."""
    import array

    values = array.array("d")
    labels: list[float] = []
    rows = 0
    for row in records:
        lineno += 1
        if not row:  # blank line
            continue
        if expected is None:
            expected = len(row)
        if len(row) != expected:
            raise CsvFormatError(
                f"expected {expected} fields, found {len(row)}", row=lineno
            )
        try:
            if label_idx is None:
                converted = list(map(float, row))
            else:
                labels.append(_LABEL_VALUES[row[label_idx].strip()])
                converted = list(map(float, row[:label_idx] + row[label_idx + 1:]))
            # A NaN or infinity makes the sum non-finite; so does an overflow
            # of finite values, which _check_fields lets through.
            valid = math.isfinite(sum(converted))
        except (KeyError, ValueError):
            valid = False
        if not valid:
            _check_fields(row, lineno, label_idx)
        values.extend(converted)
        rows += 1

    if rows == 0:
        raise CsvFormatError("no data rows")
    if label_idx is not None and expected - 1 == 0:
        raise CsvFormatError("no feature columns besides the label")
    data = np.frombuffer(values, dtype=np.float64).reshape(rows, -1)
    return data, np.asarray(labels, dtype=bool) if label_idx is not None else None


def _check_fields(row: list[str], lineno: int, label_idx: int | None) -> None:
    """Raise the error of the first bad field of ``row``, a record of the
    expected length, if it has one."""
    for c, field in enumerate(row):
        colno = c + 1
        if c == label_idx:
            if field.strip() not in _LABEL_VALUES:
                raise CsvFormatError(
                    f"label must be '{LABEL_NORMAL}' or '{LABEL_ANOMALOUS}', got {field!r}",
                    row=lineno,
                    column=colno,
                )
            continue
        try:
            value = float(field)
        except ValueError:
            raise CsvFormatError(
                f"not a number: {field!r}", row=lineno, column=colno
            ) from None
        if not math.isfinite(value):
            raise CsvFormatError(
                f"non-finite value: {field!r}", row=lineno, column=colno
            )


def save_csv(dataset: Dataset, destination, label_column: str = "label") -> None:
    """Serialize a dataset back to CSV at full precision.

    Values are written with shortest round-trip float formatting, so
    load -> save -> load preserves every value exactly. A path destination
    is written atomically.
    """
    lines = [",".join(map(repr, row)) for row in dataset.vectors.tolist()]
    if dataset.labels is not None:
        flags = (LABEL_ANOMALOUS if flag else LABEL_NORMAL for flag in dataset.labels.tolist())
        lines = [f"{line},{flag}" for line, flag in zip(lines, flags)]
    if dataset.column_names is not None:
        header = list(dataset.column_names)
        if dataset.labels is not None:
            header.append(label_column)
        lines.insert(0, ",".join(header))
    write_text(destination, "".join(line + "\n" for line in lines))


def fit_normalizer(data: Dataset, method: str) -> NormalizationModel:
    """Fit per-dimension statistics. Constant columns are flagged degenerate
    and map to 0 under either method. Raises ValueError naming a column
    whose range (minmax) or mean or stddev (zscore) overflows, or whose
    stddev underflows to 0 though the column is not constant."""
    if method not in NORMALIZATION_METHODS:
        raise ValueError(f"unknown normalization method {method!r}")
    if len(data) == 0:
        raise ValueError("cannot fit a normalizer on an empty dataset")
    v = data.vectors
    mins = v.min(axis=0)
    maxs = v.max(axis=0)
    degenerate = mins == maxs
    with np.errstate(over="ignore", invalid="ignore"):
        if method == "minmax":
            stats = {"min": mins, "max": maxs}
            checked = {"range (max - min)": maxs - mins}
        elif method == "zscore":
            means = v.mean(axis=0)
            # The sum of a constant column near the float limit overflows;
            # its one value is its mean. Other means stay as summed, which
            # can differ from the value in the last bit.
            means = np.where(degenerate & ~np.isfinite(means), mins, means)
            stds = np.sqrt(np.mean((v - means) ** 2, axis=0))
            stds = np.where(degenerate, 0.0, stds)
            stats = checked = {"mean": means, "stddev": stds}
        else:
            stats = checked = {}
            degenerate = np.zeros(data.dim, dtype=bool)
    for what, values in checked.items():
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise ValueError(
                f"cannot fit {method} normalization: the {what} of column "
                f"{_column_label(data, bad[0])} is not finite; scale the data down"
            )
    if method == "zscore":
        # Deviations below about 1e-162 square to 0, so a column that is not
        # constant can get stddev 0; dividing by it would give infinities.
        bad = np.flatnonzero(~degenerate & (stds == 0.0))
        if bad.size:
            raise ValueError(
                f"cannot fit zscore normalization: the stddev of column "
                f"{_column_label(data, bad[0])} underflows to 0; scale the data up"
            )
    return NormalizationModel(method=method, stats=stats, degenerate=degenerate)


def apply_normalizer(model: NormalizationModel, data: Dataset) -> Dataset:
    """Scale a dataset with fitted statistics; a pure transform.

    minmax clamps values outside the fitted range into [0, 1]; degenerate
    columns always map to 0. A zscore value too far from the fitted mean to
    scale to a float raises ValueError naming its 1-based data row and column.
    """
    if data.dim != model.dim:
        raise ValueError(f"dimension mismatch: model has {model.dim}, data has {data.dim}")
    v = data.vectors
    if model.method == "none":
        return data
    # Far outside the fitted spread a value overflows: minmax clamps it to 0
    # or 1, and zscore reports it below.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if model.method == "minmax":
            span = model.stats["max"] - model.stats["min"]
            safe = np.where(model.degenerate, 1.0, span)
            out = np.clip((v - model.stats["min"]) / safe, 0.0, 1.0)
        else:
            safe = np.where(model.degenerate, 1.0, model.stats["stddev"])
            out = (v - model.stats["mean"]) / safe
    out[:, model.degenerate] = 0.0
    if model.method == "zscore" and not np.isfinite(out).all():
        row, c = np.argwhere(~np.isfinite(out))[0]
        raise ValueError(
            f"cannot apply zscore normalization: data row {row + 1}, column "
            f"{_column_label(data, c)} scales to a non-finite value; scale the data down"
        )
    return replace(data, vectors=out)


def split(data: Dataset, fractions, seed: int) -> tuple[Dataset, Dataset, Dataset]:
    """Seeded shuffle, then contiguous partition into (train, calibrate, test).

    Calibrate and test sizes are round(N * fraction) (half away from zero);
    the remainder goes to train. Partitions are disjoint and cover the data.
    """
    f = [float(x) for x in fractions]
    if len(f) != 3 or not all(math.isfinite(x) and x >= 0.0 for x in f):
        raise ValueError("fractions must be three nonnegative numbers")
    if abs(sum(f) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {sum(f)}")
    n = len(data)
    if n == 0:
        raise ValueError("cannot split an empty dataset")
    n_cal = int(math.floor(n * f[1] + 0.5))
    n_test = int(math.floor(n * f[2] + 0.5))
    if n_cal + n_test > n:  # rounding overshoot; keep train nonnegative
        n_test = max(0, n - n_cal)
        n_cal = min(n_cal, n)
    n_train = n - n_cal - n_test
    perm = np.random.default_rng(seed).permutation(n)
    parts = (
        perm[:n_train],
        perm[n_train : n_train + n_cal],
        perm[n_train + n_cal :],
    )
    return tuple(_take(data, p) for p in parts)  # type: ignore[return-value]


def normalizer_to_json_dict(model: NormalizationModel) -> dict:
    """JSON-ready representation; floats survive exactly via repr formatting."""
    return {
        "format_version": NORMALIZER_FORMAT_VERSION,
        "method": model.method,
        "dim": model.dim,
        "stats": {k: [float(x) for x in v] for k, v in model.stats.items()},
        "degenerate": [bool(b) for b in model.degenerate],
    }


def normalizer_from_json_dict(payload: dict) -> NormalizationModel:
    (version,) = json_fields(payload, "normalizer", format_version=int)
    if version != NORMALIZER_FORMAT_VERSION:
        raise ValueError(
            f"unsupported normalizer format version {version} (expected {NORMALIZER_FORMAT_VERSION})"
        )
    method, dim, raw_stats, degenerate = json_fields(
        payload, "normalizer", method=str, dim=int, stats=dict, degenerate=list
    )
    if not all(isinstance(b, bool) for b in degenerate):
        raise ValueError("normalizer degenerate flags must be a list of booleans")
    if dim != len(degenerate):
        raise ValueError(f"normalizer dim {dim} does not match {len(degenerate)} flags")
    stats = {}
    for key, values in raw_stats.items():
        numbers = [json_number(v) for v in values] if isinstance(values, list) else [None]
        if None in numbers:
            raise ValueError(f"statistic {key!r} must hold {dim} finite values")
        stats[key] = np.asarray(numbers, dtype=np.float64)
    return NormalizationModel(
        method=method, stats=stats, degenerate=np.asarray(degenerate, dtype=bool)
    )


def json_fields(payload, record: str, **kinds) -> list:
    """Values of the named fields of a JSON ``record``, in the order given.

    ``payload`` must be a JSON object holding every field with its kind, one
    of ``int`` (an integer), ``float`` (any number, returned as a float, see
    :func:`json_number`), ``str``, ``list`` or ``dict``. A boolean is not a
    number. Raises ValueError naming the record and the field.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"malformed {record} record: expected a JSON object, got {reprlib.repr(payload)}")
    values = []
    for key, kind in kinds.items():
        if key not in payload:
            raise ValueError(f"malformed {record} record: missing field {key!r}")
        value = payload[key]
        if kind is float:
            value = json_number(value)
        elif isinstance(value, bool) or not isinstance(value, kind):
            value = None
        if value is None:
            raise ValueError(
                f"malformed {record} record: {key!r} must be {_JSON_KINDS[kind]}, "
                f"got {reprlib.repr(payload[key])}"
            )
        values.append(value)
    return values


def json_number(value) -> float | None:
    """``value`` as a float if it is a JSON number, else None: booleans,
    numeric strings and integers beyond the float range are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        return float(value)
    except OverflowError:
        return None


def _column_label(data: Dataset, c) -> str:
    """Column ``c`` (0-based) as errors name it: its quoted header name, or
    its 1-based number."""
    c = int(c)
    return repr(data.column_names[c]) if data.column_names else str(c + 1)


def _take(data: Dataset, indices: np.ndarray) -> Dataset:
    return Dataset(
        vectors=data.vectors[indices],
        column_names=data.column_names,
        labels=None if data.labels is None else data.labels[indices],
    )


def _read_text(source) -> str:
    """The text of ``source`` (bytes, a path, or a binary or text file
    object), without one leading byte-order mark."""
    if isinstance(source, bytes):
        text = source
    elif hasattr(source, "read"):
        text = source.read()
    else:
        text = Path(source).read_bytes()
    if not isinstance(text, str):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CsvFormatError(f"input is not valid UTF-8: {exc}") from None
    return text.removeprefix("\ufeff")
