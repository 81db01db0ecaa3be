"""Baseline-driven anomaly detection over a trained map.

A baseline is a trained map plus a residual threshold: the residual of an
input is its distance to the best matching unit, and the threshold is a
nearest-rank percentile of the residuals seen on normal calibration data.
Inputs whose residual strictly exceeds the threshold are flagged anomalous;
the boundary counts as normal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from netsom.core import SomMap, find_bmus
from netsom.dataio import Dataset, json_fields

BASELINE_FORMAT_VERSION = 1
VERDICT_CSV_HEADER = "index,bmu,residual,is_anomalous"


@dataclass(frozen=True)
class AnomalyBaseline:
    """A trained map plus the residual threshold that defines 'normal'."""

    map: SomMap
    threshold: float
    threshold_percentile: float
    calibration_size: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.threshold) and self.threshold >= 0.0):
            raise ValueError(f"threshold must be finite and nonnegative, got {self.threshold}")
        if not 0.0 < self.threshold_percentile <= 100.0:
            raise ValueError("threshold_percentile must lie in (0, 100]")
        if self.calibration_size < 1:
            raise ValueError("calibration_size must be at least 1")


@dataclass(frozen=True)
class EvalSummary:
    """Confusion counts and rates against ground-truth labels.

    When a class is absent its rate is reported as 0 and the matching
    ``no_*_labels`` flag is set.
    """

    true_positives: int
    false_positives: int
    true_negatives: int
    false_negatives: int
    detection_rate: float
    false_positive_rate: float
    no_anomalous_labels: bool = False
    no_normal_labels: bool = False


def calibrate(som: SomMap, normal_data, percentile: float) -> AnomalyBaseline:
    """Build a baseline from normal calibration data.

    The threshold is the nearest-rank percentile of the sorted residuals:
    rank ceil(p/100 * N), 1-based.
    """
    if not 0.0 < percentile <= 100.0:
        raise ValueError(f"percentile must lie in (0, 100], got {percentile}")
    _, residual = find_bmus(som, normal_data)
    n = residual.shape[0]
    if n == 0:
        raise ValueError("calibration set is empty")
    ordered = np.sort(residual)
    rank = min(n, max(1, math.ceil(percentile * n / 100.0)))
    return AnomalyBaseline(
        map=som,
        threshold=float(ordered[rank - 1]),
        threshold_percentile=float(percentile),
        calibration_size=n,
    )


def residuals(baseline: AnomalyBaseline, data) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Winner, residual and anomaly flag of every row of ``data``, as arrays
    in row order. A row is anomalous when its residual strictly exceeds the
    threshold."""
    bmu, residual = find_bmus(baseline.map, data)
    return bmu, residual, residual > baseline.threshold


def evaluate(baseline: AnomalyBaseline, labeled: Dataset) -> EvalSummary:
    """Score a labeled dataset and tally the confusion matrix."""
    if labeled.labels is None:
        raise ValueError("dataset has no labels")
    if len(labeled) == 0:
        raise ValueError("labeled dataset is empty")
    _, _, flagged = residuals(baseline, labeled.vectors)
    truth = labeled.labels
    tp = int(np.sum(flagged & truth))
    fp = int(np.sum(flagged & ~truth))
    tn = int(np.sum(~flagged & ~truth))
    fn = int(np.sum(~flagged & truth))
    no_anom = (tp + fn) == 0
    no_norm = (fp + tn) == 0
    return EvalSummary(
        true_positives=tp,
        false_positives=fp,
        true_negatives=tn,
        false_negatives=fn,
        detection_rate=0.0 if no_anom else tp / (tp + fn),
        false_positive_rate=0.0 if no_norm else fp / (fp + tn),
        no_anomalous_labels=no_anom,
        no_normal_labels=no_norm,
    )


def render_verdicts(bmu, residual, flags) -> str:
    """Render the arrays that ``residuals`` returns as CSV with the header
    ``index,bmu,residual,is_anomalous``, one line per row in row order, indexed
    from 0. A residual prints as a Python float's ``repr``, at full precision."""
    rows = zip(bmu.tolist(), residual.tolist(), flags.tolist())
    lines = [f"{i},{b},{r!r},{'true' if f else 'false'}\n" for i, (b, r, f) in enumerate(rows)]
    return VERDICT_CSV_HEADER + "\n" + "".join(lines)


def baseline_to_json_dict(baseline: AnomalyBaseline) -> dict:
    """JSON-ready threshold record (the map itself lives in its own file)."""
    return {
        "format_version": BASELINE_FORMAT_VERSION,
        "threshold": baseline.threshold,
        "percentile": baseline.threshold_percentile,
        "calibration_size": baseline.calibration_size,
    }


def baseline_from_json_dict(payload: dict, som: SomMap) -> AnomalyBaseline:
    (version,) = json_fields(payload, "baseline", format_version=int)
    if version != BASELINE_FORMAT_VERSION:
        raise ValueError(
            f"unsupported baseline format version {version} (expected {BASELINE_FORMAT_VERSION})"
        )
    threshold, percentile, size = json_fields(
        payload, "baseline", threshold=float, percentile=float, calibration_size=int
    )
    return AnomalyBaseline(
        map=som, threshold=threshold, threshold_percentile=percentile, calibration_size=size
    )
