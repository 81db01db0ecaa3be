"""Compiled training hot path: the plain C kernel in ``_kernel.c``, called
through ctypes.

``python3 setup.py build_ext --inplace`` (or installing the package) builds
the kernel into this package directory; :func:`built_library` finds it and
:class:`Kernel` binds any copy of it. The kernel trusts its pointers, so every
array is checked here first: a bad argument raises instead of reading or
writing arbitrary memory.
"""

from __future__ import annotations

import ctypes
import importlib.machinery
from pathlib import Path

import numpy as np

_I64 = ctypes.c_int64
_PTR = ctypes.c_void_p


def built_library() -> Path | None:
    """The kernel library built into this package, or None if not built."""
    here = Path(__file__).resolve().parent
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = here / f"_kernel{suffix}"
        if path.is_file():
            return path
    return None


class Kernel:
    """One loaded copy of the kernel library, with the signatures of
    ``netsom._core_py``."""

    NAME = "compiled"

    def __init__(self, path) -> None:
        lib = ctypes.CDLL(str(path))
        self._bmu = lib.netsom_bmu_batch
        self._bmu.argtypes = [_PTR, _I64, _I64, _PTR, _I64, _PTR, _PTR]
        self._bmu.restype = None
        self._steps = lib.netsom_run_steps
        self._steps.argtypes = [_PTR, _I64, _I64, _PTR, _PTR, _PTR, _PTR, _I64, _I64, _PTR]
        self._steps.restype = None

    def bmu_batch(self, weights: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Best matching unit for each row of ``xs`` against ``weights``.

        Returns ``(indices, distances)``; ties break to the lowest node index.
        """
        n_nodes, dim, n_inputs = _search_shape(weights, xs)
        idx = np.empty(n_inputs, dtype=np.int64)
        dist = np.empty(n_inputs, dtype=np.float64)
        self._bmu(weights.ctypes.data, n_nodes, dim, xs.ctypes.data, n_inputs,
                  idx.ctypes.data, dist.ctypes.data)
        return idx, dist

    def run_steps(
        self,
        weights: np.ndarray,
        xs: np.ndarray,
        stimuli: np.ndarray,
        alphas: np.ndarray,
        sigmas: np.ndarray,
        cols: int,
    ) -> None:
        """Run one winner-search-and-update step per stimulus, in place."""
        n_nodes, dim, n_inputs = _search_shape(weights, xs)
        if not weights.flags.writeable:
            raise ValueError("weights must be writeable")
        (n_steps,) = _shape(stimuli, np.int64, 1, "stimuli")
        if (_shape(alphas, np.float64, 1, "alphas") != (n_steps,)
                or _shape(sigmas, np.float64, 1, "sigmas") != (n_steps,)):
            raise ValueError("stimuli, alphas and sigmas must have the same length")
        if n_steps and (stimuli.min() < 0 or stimuli.max() >= n_inputs):
            raise IndexError(f"stimulus index outside [0, {n_inputs})")
        if cols < 1:
            raise ValueError(f"cols must be at least 1, got {cols}")
        if n_nodes % cols:
            raise ValueError(f"{n_nodes} nodes do not fill a lattice with {cols} columns")
        # The kernel's working memory: dim-major weights, distances, factors
        # and the factor table. Allocated here, so a failure is a MemoryError.
        scratch = np.empty(n_nodes * (dim + 3), dtype=np.float64)
        self._steps(weights.ctypes.data, n_nodes, dim, xs.ctypes.data, stimuli.ctypes.data,
                    alphas.ctypes.data, sigmas.ctypes.data, n_steps, cols, scratch.ctypes.data)


def _shape(a, dtype, ndim: int, name: str) -> tuple[int, ...]:
    """Shape of ``a``, after checking it is a C-contiguous array of ``dtype``
    with ``ndim`` dimensions."""
    if not (isinstance(a, np.ndarray) and a.dtype == dtype and a.ndim == ndim
            and a.flags.c_contiguous):
        raise ValueError(
            f"{name} must be a C-contiguous {ndim}-D {np.dtype(dtype)} array, got "
            f"{getattr(a, 'dtype', type(a).__name__)} of shape {np.shape(a)}"
        )
    return a.shape


def _search_shape(weights, xs) -> tuple[int, int, int]:
    """(nodes, dim, inputs) of a winner search of ``xs`` against ``weights``."""
    n_nodes, dim = _shape(weights, np.float64, 2, "weights")
    n_inputs, xs_dim = _shape(xs, np.float64, 2, "xs")
    if n_nodes == 0:
        raise ValueError("weights have no nodes")
    if xs_dim != dim:
        raise ValueError(f"dimension mismatch: weights have {dim}, xs have {xs_dim}")
    return n_nodes, dim, n_inputs
