"""Pure numpy implementation of the training hot path.

Fallback for when the compiled extension is not built. Squared distances
accumulate one dimension at a time so that results are bit-identical to the
compiled kernels wherever no transcendental function is involved.
"""

from __future__ import annotations

import math

import numpy as np

NAME = "python"


def bmu_batch(weights: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best matching unit for each row of ``xs`` against ``weights``.

    Returns ``(indices, distances)``; ties break to the lowest node index.
    """
    n_inputs = xs.shape[0]
    idx = np.empty(n_inputs, dtype=np.int64)
    dist = np.empty(n_inputs, dtype=np.float64)
    for j in range(n_inputs):
        d2 = sq_norms(weights - xs[j])
        best = int(np.argmin(d2))  # argmin keeps the first minimum
        idx[j] = best
        dist[j] = math.sqrt(d2[best])
    return idx, dist


def run_steps(
    weights: np.ndarray,
    xs: np.ndarray,
    stimuli: np.ndarray,
    alphas: np.ndarray,
    sigmas: np.ndarray,
    cols: int,
) -> None:
    """Run one winner-search-and-update step per stimulus, in place."""
    lattice = node_coords(weights.shape[0], cols)
    for t in range(stimuli.shape[0]):
        diff = xs[stimuli[t]] - weights
        c = int(np.argmin(sq_norms(diff)))
        pull(weights, diff, c, alphas[t], sigmas[t], lattice)


def node_coords(n_nodes: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Lattice row and column of every node, in row-major node order."""
    nodes = np.arange(n_nodes)
    return (nodes // cols).astype(np.float64), (nodes % cols).astype(np.float64)


def pull(
    weights: np.ndarray,
    diff: np.ndarray,
    c: int,
    alpha: float,
    sigma: float,
    lattice: tuple[np.ndarray, np.ndarray],
) -> None:
    """Gaussian neighbourhood pull toward an input ``x`` around winner ``c``,
    in place: ``w_i += alpha * exp(-|r_c - r_i|^2 / (2 sigma^2)) * (x - w_i)``.

    ``diff`` is ``x - weights`` before the pull and ``lattice`` is
    :func:`node_coords` of the map.
    """
    node_rows, node_cols = lattice
    dr = node_rows - node_rows[c]
    dc = node_cols - node_cols[c]
    lat2 = dr * dr + dc * dc
    h = alpha * np.exp(-lat2 / (2.0 * sigma * sigma))
    weights += h[:, None] * diff


def sq_norms(diff: np.ndarray) -> np.ndarray:
    """Squared length of each vector along the last axis of ``diff``, summed
    one dimension at a time in the compiled kernel's order. A square or sum
    beyond the float64 range is inf, silently, as in the compiled kernel."""
    with np.errstate(over="ignore"):
        sq = diff * diff
        d2 = sq[..., 0].copy()
        for k in range(1, diff.shape[-1]):
            d2 += sq[..., k]
    return d2
