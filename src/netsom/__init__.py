"""netsom: self-organising map engine with U-Matrix export and
baseline-driven anomaly detection for numeric feature data."""

__version__ = "0.1.0"

from netsom._backend import backend_name
from netsom.anomaly import (
    AnomalyBaseline,
    EvalSummary,
    calibrate,
    evaluate,
    residuals,
)
from netsom.core import (
    SomMap,
    TrainingReport,
    TrainingSchedule,
    adapt,
    find_bmu,
    initialize,
    kernel,
    quantization_error,
    schedule_at,
    select_stimulus,
    train,
)
from netsom.dataio import (
    CsvFormatError,
    Dataset,
    NormalizationModel,
    apply_normalizer,
    fit_normalizer,
    load_csv,
    save_csv,
    split,
)
from netsom.grid import (
    GridPosition,
    GridShape,
    grid_distance,
    index_of,
    neighbors_of,
    position_of,
)
from netsom.mapfile import MapFormatError, load_map, save_map
from netsom.umatrix import UMatrix, compute_umatrix, export_umatrix

__all__ = [
    "AnomalyBaseline",
    "CsvFormatError",
    "Dataset",
    "EvalSummary",
    "GridPosition",
    "GridShape",
    "MapFormatError",
    "NormalizationModel",
    "SomMap",
    "TrainingReport",
    "TrainingSchedule",
    "UMatrix",
    "adapt",
    "apply_normalizer",
    "backend_name",
    "calibrate",
    "compute_umatrix",
    "evaluate",
    "export_umatrix",
    "find_bmu",
    "fit_normalizer",
    "grid_distance",
    "index_of",
    "initialize",
    "kernel",
    "load_csv",
    "load_map",
    "neighbors_of",
    "position_of",
    "quantization_error",
    "residuals",
    "save_csv",
    "save_map",
    "schedule_at",
    "select_stimulus",
    "split",
    "train",
]
