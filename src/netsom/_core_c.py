"""Compiled training hot path: the plain C kernel in ``_kernel.c``, called
through ctypes.

``python3 setup.py build_ext --inplace`` (or installing the package) builds
the kernel into this package directory; :func:`built_library` finds it and
:class:`Kernel` binds any copy of it whose ``netsom_abi()`` is :data:`ABI`.
The kernel trusts its pointers, so every array is checked here first: a bad
argument raises instead of reading or writing arbitrary memory.

Every :meth:`Kernel.bmu_batch` call, a single row too, copies the weights
into dim-major scratch and searches each row against that copy. A large one
runs on several threads, one contiguous block of rows each. ctypes releases
the GIL for the length of a kernel call, so the blocks run at once, and each
worker thread first moves itself off the calling thread's CPU (see
:meth:`Kernel._worker_cpus`).
"""

from __future__ import annotations

import contextlib
import ctypes
import importlib.machinery
import os
import threading
from pathlib import Path

import numpy as np

_I64 = ctypes.c_int64
_PTR = ctypes.c_void_p

# The argument-list version this module binds; NETSOM_ABI in _kernel.c.
ABI = 2

# Distance terms (rows x nodes x dim) that each block of a split bmu_batch
# must get. A batch with fewer than twice as many stays on the calling thread:
# starting, placing and joining a thread costs 0.1-0.3 ms. Two blocks against
# one, 2-vCPU Xeon VM, median of 15 interleaved rounds: 0.5-0.8x as fast at
# 0.5-1M terms, 1.07x (1600x41 map) and 1.4x (100x41 map) at 4M terms, 1.3x
# and 1.7x at 8M terms.
PARALLEL_MIN_TERMS = 2_000_000


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
        """Bind the library at ``path``; raise ImportError if it cannot be
        loaded or was built from a kernel source with other signatures."""
        try:
            lib = ctypes.CDLL(str(path))
        except OSError as exc:
            raise ImportError(f"cannot load the kernel library {path}: {exc}") from exc
        abi = getattr(lib, "netsom_abi", None)
        if abi is None:
            raise ImportError(f"the kernel library {path} has no netsom_abi: it was built "
                              "from an older _kernel.c")
        abi.argtypes = []
        abi.restype = _I64
        if abi() != ABI:
            raise ImportError(f"the kernel library {path} has ABI {abi()}, not {ABI}: it was "
                              "built from another version of _kernel.c")
        self._bmu = lib.netsom_bmu_batch
        self._bmu.argtypes = [_PTR, _I64, _I64, _PTR, _I64, _PTR, _PTR, _PTR]
        self._bmu.restype = None
        self._steps = lib.netsom_run_steps
        self._steps.argtypes = [_PTR, _I64, _I64, _PTR, _PTR, _PTR, _PTR, _I64, _I64, _PTR]
        self._steps.restype = None
        self._getcpu = _bind_sched_getcpu()

    def bmu_batch(self, weights: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Best matching unit for each row of ``xs`` against ``weights``.

        Returns ``(indices, distances)``; ties break to the lowest node index.
        """
        n_nodes, dim, n_inputs = _search_shape(weights, xs)
        idx = np.empty(n_inputs, dtype=np.int64)
        dist = np.empty(n_inputs, dtype=np.float64)
        self._search_blocks(weights, xs, idx, dist, _row_blocks(n_inputs, n_nodes * dim))
        return idx, dist

    def _search_blocks(self, weights, xs, idx, dist, blocks) -> None:
        """Search each (start, stop) block of rows of ``xs`` with its own
        kernel call and scratch: the first on this thread, each other one on a
        thread of its own, so a single block starts no thread. Returns when
        all are done."""
        n_nodes, dim = weights.shape
        w, x, i, d = weights.ctypes.data, xs.ctypes.data, idx.ctypes.data, dist.ctypes.data
        # Dim-major weights and distances for each block. Allocated here, so
        # that a failure raises here. They and the arrays outlive every
        # thread, so the pointers stay valid.
        scratch = [np.empty(n_nodes * (dim + 1)) for _ in blocks]
        calls = [(w, n_nodes, dim, x + xs.strides[0] * lo, hi - lo, i + idx.strides[0] * lo,
                  d + dist.strides[0] * lo, block_scratch.ctypes.data)
                 for (lo, hi), block_scratch in zip(blocks, scratch)]
        threads = [threading.Thread(target=_search_on, args=(cpu, self._bmu, args))
                   for cpu, args in zip(self._worker_cpus(len(calls) - 1), calls[1:])]
        try:
            for thread in threads:
                thread.start()
            self._bmu(*calls[0])
        finally:
            for thread in threads:
                if thread.ident is not None:
                    thread.join()

    def _worker_cpus(self, n_workers: int) -> list[int | None]:
        """A CPU for each worker thread of a split search: the allowed CPUs
        other than the calling thread's current one, in order; None where
        none is left or the platform cannot move a thread.

        A new thread starts on its creator's CPU. Where the scheduler does not
        balance load, as in a cpuset with sched_load_balance off, it stays
        there, and the blocks would run one after another."""
        if n_workers == 0 or self._getcpu is None:
            return [None] * n_workers
        here = self._getcpu()
        others = [cpu for cpu in sorted(os.sched_getaffinity(0)) if cpu != here]
        return (others + [None] * n_workers)[:n_workers]

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


def _bind_sched_getcpu():
    """libc's sched_getcpu, where the platform can move a thread to a given
    CPU and libc has it; else None."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    getcpu = getattr(ctypes.CDLL(None), "sched_getcpu", None)
    if getcpu is not None:
        getcpu.argtypes = []
        getcpu.restype = ctypes.c_int
    return getcpu


def _search_on(cpu: int | None, search, args) -> None:
    """``search(*args)`` on this thread, first moved to ``cpu`` unless it is
    None. The move only places the work: the search runs where it fails."""
    if cpu is not None:
        with contextlib.suppress(OSError):
            os.sched_setaffinity(0, {cpu})
    search(*args)


def _row_blocks(n_rows: int, terms_per_row: int) -> list[tuple[int, int]]:
    """Contiguous (start, stop) row blocks of a winner search, the first for
    the calling thread: one per usable CPU and at most one per row, but no
    more than there are PARALLEL_MIN_TERMS distance terms in the batch."""
    terms = n_rows * terms_per_row
    if n_rows < 2 or terms < 2 * PARALLEL_MIN_TERMS:
        return [(0, n_rows)]
    n_blocks = min(_usable_cpus(), n_rows, terms // PARALLEL_MIN_TERMS)
    bounds = [n_rows * b // n_blocks for b in range(n_blocks + 1)]
    return list(zip(bounds, bounds[1:]))


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    reports one, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
