"""Pure numpy implementation of the training hot path.

Fallback for when the compiled extension is not built. It follows the
compiled kernel's rules, so both give the same bits: squared distances
accumulate one dimension at a time, the winner is the first strict minimum,
and the neighbourhood factors come from libm's ``exp``.
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
        best = first_min(d2)
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
    offsets = lattice_offsets(weights.shape[0] // cols, cols)
    for t in range(stimuli.shape[0]):
        if t == 0 or sigmas[t] != sigmas[t - 1]:
            table = factor_table(offsets, float(sigmas[t]))
        diff = xs[stimuli[t]] - weights
        pull(weights, diff, first_min(sq_norms(diff)), alphas[t], table)


def first_min(d2: np.ndarray) -> int:
    """Index of the first strict minimum of ``d2``, the compiled kernel's
    winner: a NaN compares below nothing, so it wins only at index 0."""
    c = int(np.argmin(d2))  # the first minimum, or the first NaN
    if c and math.isnan(d2[c]):
        c = int(np.nanargmin(d2))
    return c


def lattice_offsets(rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Squared lengths of the lattice offsets (dr, dc) of a ``rows`` x
    ``cols`` map: the distinct lengths, and at ``[rows - 1 + dr,
    cols - 1 + dc]`` the index of each offset's length among them."""
    dr = np.arange(1 - rows, rows)[:, None]
    dc = np.arange(1 - cols, cols)
    lengths, at = np.unique(dr * dr + dc * dc, return_inverse=True)
    return lengths.astype(np.float64), at.reshape(dr.size, dc.size)


def factor_table(offsets: tuple[np.ndarray, np.ndarray], sigma: float) -> np.ndarray:
    """Gaussian factor ``exp(-(dr^2 + dc^2) / (2 sigma^2))``, by libm's exp,
    of every offset of :func:`lattice_offsets`, at the same place: the
    compiled kernel's table, which keeps it at ``|dr| * cols + |dc|``."""
    lengths, at = offsets
    with np.errstate(over="ignore"):  # a tiny 2 sigma^2: -inf, so factor 0
        arg = -lengths / (2.0 * sigma * sigma)
    return np.fromiter(map(math.exp, arg.tolist()), np.float64, lengths.size)[at]


def pull(
    weights: np.ndarray, diff: np.ndarray, c: int, alpha: float, table: np.ndarray
) -> None:
    """``w_i += alpha * g_i * (x - w_i)`` in place, where ``diff`` is ``x -
    weights`` and ``g_i`` is the :func:`factor_table` entry of node i's
    lattice offset from winner ``c``."""
    rows, cols = (table.shape[0] + 1) // 2, (table.shape[1] + 1) // 2
    r, q = divmod(c, cols)
    h = alpha * table[rows - 1 - r:2 * rows - 1 - r, cols - 1 - q:2 * cols - 1 - q]
    weights += h.reshape(-1, 1) * diff


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
