"""Output checks for one pipeline run, computed without netsom's code.

Every check reads the artifacts the CLI wrote and recomputes what it can
with plain numpy: the map file is parsed from its documented layout, CSVs
are read with ``numpy.loadtxt``, and nearest nodes are found by brute force,
accumulating squared distances one dimension at a time as the kernel
specification prescribes, so distances must agree bit for bit.
"""

from __future__ import annotations

import json
import math
import struct
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

_MAP_HEADER = struct.Struct("<6sIIIIQQ")
# Recomputed means sum in another order than the program's, so they agree
# to rounding only.
_MEAN_RTOL = 1e-9


class Checks:
    """Named pass/fail results; each counts once toward the error rate."""

    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        self.results.append((name, bool(ok), detail))
        return bool(ok)

    def guard(self, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)``, or None after recording a failed check
        ``name`` if it raises, as it does on malformed or missing output.
        The traceback goes to standard error."""
        try:
            return fn(*args, **kwargs)
        except Exception as e:  # any crash of a check is a failed check
            traceback.print_exc()
            self.record(name, False, f"{type(e).__name__}: {e}")
            return None

    @property
    def failures(self) -> list[tuple[str, bool, str]]:
        return [r for r in self.results if not r[1]]


def read_map(path) -> np.ndarray:
    """Weights of a ``.som`` file, (rows * cols, dim) float64."""
    data = Path(path).read_bytes()
    magic, _, rows, cols, dim, _, _ = _MAP_HEADER.unpack_from(data)
    if magic != b"NETSOM":
        raise ValueError(f"bad map magic in {path}")
    return np.frombuffer(data, dtype="<f8", offset=_MAP_HEADER.size).reshape(rows * cols, dim)


def read_features(path, dim: int) -> np.ndarray:
    """The ``dim`` feature columns of a headed CSV whose last column is the label."""
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=range(dim), ndmin=2)


def read_labels(path) -> np.ndarray:
    with open(path, encoding="utf-8") as f:
        next(f)
        return np.array([line.rstrip("\n").rsplit(",", 1)[1] == "anomalous" for line in f])


def normalize(norm: dict, x: np.ndarray) -> np.ndarray:
    """Min-max scaling as documented: clamp to [0, 1], constant columns to 0."""
    if norm["method"] != "minmax":
        raise ValueError(f"unexpected normalization {norm['method']!r}")
    lo = np.asarray(norm["stats"]["min"])
    hi = np.asarray(norm["stats"]["max"])
    degenerate = np.asarray(norm["degenerate"], dtype=bool)
    out = np.clip((x - lo) / np.where(degenerate, 1.0, hi - lo), 0.0, 1.0)
    out[:, degenerate] = 0.0
    return out


def nearest(weights: np.ndarray, x: np.ndarray, chunk: int = 512):
    """Brute-force winner (lowest index on ties) and distance per row."""
    idx = np.empty(len(x), dtype=np.int64)
    dist = np.empty(len(x))
    for s in range(0, len(x), chunk):
        xs = x[s : s + chunk]
        d2 = np.zeros((len(xs), len(weights)))
        for k in range(weights.shape[1]):
            diff = weights[None, :, k] - xs[:, k, None]
            d2 += diff * diff
        best = d2.argmin(axis=1)
        idx[s : s + chunk] = best
        dist[s : s + chunk] = np.sqrt(d2[np.arange(len(xs)), best])
    return idx, dist


def training_rows(all_rows: np.ndarray, held_out: list[np.ndarray]):
    """Rows of ``all_rows`` left after removing the held-out rows, as a
    multiset; None if some held-out row is not among the input rows."""
    remaining = Counter(map(bytes, all_rows))
    for part in held_out:
        for row in map(bytes, part):
            if remaining[row] == 0:
                return None
            remaining[row] -= 1
    return np.array(
        [np.frombuffer(row) for row, n in remaining.items() for _ in range(n)]
    ).reshape(-1, all_rows.shape[1])


def check_training(checks: Checks, train_csv, held_out_csvs, map_path, norm_path,
                   final_qe: float, dim: int) -> None:
    """The held-out files partition the input, the normalizer was fitted on
    the remaining rows, and the reported final QE is their mean distance to
    the map."""
    x = read_features(train_csv, dim)
    held = [read_features(p, dim) for p in held_out_csvs]
    rows = training_rows(x, held)
    if not checks.record("split.partition", rows is not None and len(rows) > 0,
                         "held-out rows are not a part of the input"):
        return
    norm = json.loads(Path(norm_path).read_text(encoding="utf-8"))
    checks.record(
        "normalizer.fit",
        np.array_equal(norm["stats"]["min"], rows.min(axis=0))
        and np.array_equal(norm["stats"]["max"], rows.max(axis=0)),
        "normalizer min/max differ from the training rows",
    )
    _, dist = nearest(read_map(map_path), normalize(norm, rows))
    qe = float(dist.mean())
    checks.record("train.final_qe", math.isclose(qe, final_qe, rel_tol=_MEAN_RTOL),
                  f"reported {final_qe!r}, recomputed {qe!r}")


def check_detect(checks: Checks, calibration_csv, input_csv, map_path, norm_path,
                 baseline_path, verdicts_path, percentile: float, dim: int,
                 sample_seed: int, sample_size: int = 256) -> np.ndarray:
    """Threshold is the nearest-rank percentile of the calibration
    residuals; a seeded sample of verdicts matches brute force. Returns the
    verdict flags."""
    norm = json.loads(Path(norm_path).read_text(encoding="utf-8"))
    weights = read_map(map_path)
    threshold = json.loads(Path(baseline_path).read_text(encoding="utf-8"))["threshold"]

    _, residuals = nearest(weights, normalize(norm, read_features(calibration_csv, dim)))
    n = len(residuals)
    rank = min(n, max(1, math.ceil(percentile * n / 100.0)))
    expected = float(np.sort(residuals)[rank - 1])
    checks.record("detect.threshold", expected == threshold,
                  f"baseline {threshold!r}, nearest-rank percentile {expected!r}")

    verdicts = np.loadtxt(verdicts_path, delimiter=",", skiprows=1, dtype=str, ndmin=2)
    x = read_features(input_csv, dim)
    index = verdicts[:, 0].astype(np.int64)
    flags = verdicts[:, 3] == "true"
    if not checks.record("detect.rows", np.array_equal(index, np.arange(len(x))),
                         f"{len(index)} verdicts for {len(x)} input rows"):
        return flags
    rng = np.random.default_rng(sample_seed)
    pick = np.sort(rng.choice(len(x), size=min(sample_size, len(x)), replace=False))
    bmu, dist = nearest(weights, normalize(norm, x[pick]))
    got_bmu = verdicts[pick, 1].astype(np.int64)
    got_residual = verdicts[pick, 2].astype(np.float64)
    checks.record("detect.bmu", np.array_equal(bmu, got_bmu),
                  f"{int(np.sum(bmu != got_bmu))} of {len(pick)} sampled winners differ")
    checks.record("detect.residual", np.array_equal(dist, got_residual),
                  f"{int(np.sum(dist != got_residual))} of {len(pick)} sampled residuals differ")
    checks.record("detect.flags", np.array_equal(flags[pick], got_residual > threshold),
                  "flag differs from residual > threshold")
    return flags


def check_eval(checks: Checks, counts: tuple[int, int, int, int], labels: np.ndarray,
               flags: np.ndarray) -> None:
    """Eval's confusion counts cover every row and agree with the labels and
    with detect's flags on the same input."""
    tp, fp, tn, fn = counts
    checks.record("eval.total", tp + fp + tn + fn == len(labels),
                  f"counts sum to {tp + fp + tn + fn}, input has {len(labels)} rows")
    if not checks.record("eval.rows", len(flags) == len(labels),
                         f"{len(flags)} verdicts for {len(labels)} labelled rows"):
        return
    expected = (
        int(np.sum(flags & labels)),
        int(np.sum(flags & ~labels)),
        int(np.sum(~flags & ~labels)),
        int(np.sum(~flags & labels)),
    )
    checks.record("eval.counts", tuple(counts) == expected,
                  f"eval {counts}, from detect flags and labels {expected}")


def check_pgm(checks: Checks, path, rows: int, cols: int) -> None:
    """Plain PGM: P2 header with the map's size, then rows x cols gray values."""
    lines = Path(path).read_text(encoding="ascii").split("\n")
    header_ok = lines[:3] == ["P2", f"{cols} {rows}", "255"]
    body = [line.split() for line in lines[3:] if line]
    size_ok = len(body) == rows and all(len(r) == cols for r in body)
    values_ok = size_ok and all(0 <= int(v) <= 255 for r in body for v in r)
    checks.record("umatrix.pgm", header_ok and size_ok and values_ok,
                  f"header {lines[:3]}, {len(body)} pixel rows")
