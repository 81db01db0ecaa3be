"""Unified distance matrix: per-node mean weight distance to lattice neighbors.

High values mark ridges between clusters on the trained map; low values mark
cluster interiors. Distances sum squared differences one dimension at a time,
as the kernel does, so the values do not depend on the BLAS or the CPU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from netsom._core_py import sq_norms
from netsom.core import SomMap
from netsom.grid import GridShape

EXPORT_FORMATS = ("grid-csv", "grayscale-image")


@dataclass(frozen=True)
class UMatrix:
    """Row-major per-node values, in weight-space distance units."""

    shape: GridShape
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.ascontiguousarray(self.values, dtype=np.float64)
        if v.shape != (self.shape.node_count,):
            raise ValueError(
                f"values must have {self.shape.node_count} entries, got shape {v.shape}"
            )
        if not np.all(np.isfinite(v)) or np.any(v < 0.0):
            raise ValueError("U-Matrix values must be finite and nonnegative")
        object.__setattr__(self, "values", v)


def compute_umatrix(som: SomMap) -> UMatrix:
    """Mean Euclidean weight distance from each node to its 4-connected
    neighbors. A 1x1 map has no neighbors and yields the single value 0."""
    shape = som.shape
    w = som.weights.reshape(shape.rows, shape.cols, som.dim)
    vertical = np.sqrt(sq_norms(w[1:] - w[:-1]))  # (r, c) to (r + 1, c)
    horizontal = np.sqrt(sq_norms(w[:, 1:] - w[:, :-1]))  # (r, c) to (r, c + 1)
    total = np.zeros((shape.rows, shape.cols))
    count = np.zeros((shape.rows, shape.cols))
    # Each node adds its neighbor distances up, down, left, right, the order
    # of grid.neighbors_of, so the sums round as a per-node loop's would.
    sides = ((np.s_[1:], vertical), (np.s_[:-1], vertical),
             (np.s_[:, 1:], horizontal), (np.s_[:, :-1], horizontal))
    for nodes, edges in sides:
        total[nodes] += edges
        count[nodes] += 1.0
    return UMatrix(shape=shape, values=(total / np.maximum(count, 1.0)).reshape(-1))


def export_umatrix(u: UMatrix, format: str) -> bytes:
    """Serialize a U-Matrix.

    ``grid-csv``: one grid row per line, comma-separated full-precision
    values in row-major order.

    ``grayscale-image``: plain PGM (P2), values min-max scaled to 0..255
    with round-half-away-from-zero; an all-equal matrix maps to all zeros.
    """
    grid = (u.shape.rows, u.shape.cols)
    if format == "grid-csv":
        lines = [",".join(map(repr, row)) for row in u.values.reshape(grid).tolist()]
    elif format == "grayscale-image":
        vmin = float(u.values.min())
        vmax = float(u.values.max())
        if vmax > vmin:
            scaled = (u.values - vmin) / (vmax - vmin) * 255.0
        else:
            scaled = np.zeros_like(u.values)
        lines = [f"P2\n{u.shape.cols} {u.shape.rows}\n255"]
        for row in scaled.reshape(grid).tolist():
            lines.append(" ".join(str(math.floor(x + 0.5)) for x in row))
    else:
        raise ValueError(
            f"unsupported export format {format!r}; expected one of {', '.join(EXPORT_FORMATS)}"
        )
    return ("\n".join(lines) + "\n").encode("ascii")
