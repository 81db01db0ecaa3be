"""Compiled training hot path: the plain C kernel in ``_kernel.c``, called
through ctypes.

``python3 setup.py build_ext --inplace`` (or installing the package) builds
the kernel into this package directory; :func:`built_library` finds it and
:class:`Kernel` binds any copy of it whose ``netsom_abi()`` is :data:`ABI`.
The kernel trusts its pointers, so every array is checked here first: a bad
argument raises instead of reading or writing arbitrary memory.

Every :meth:`Kernel.bmu_batch` call, a single row too, copies the weights
into dim-major scratch and searches each row against that copy. A large one
runs on several threads, one contiguous block of rows each, and each block
makes its own copy. A :meth:`Kernel.run_steps` call on a large map runs as
several parts at once, one contiguous block of nodes each, which agree on
every step's winner through shared slots (see ``_kernel.c``); its weights
are the one-part run's, bit for bit. ctypes releases the GIL for the length
of a kernel call, so the calls run at once. Call i of such a split call runs
on the i-th CPU this thread may use, the calling thread's call first (see
:func:`_run_calls`).
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
ABI = 3

# Distance terms (rows x nodes x dim) that each block of a split bmu_batch
# must get. A batch with fewer than twice as many stays on the calling thread:
# starting, placing and joining a thread costs 0.1-0.3 ms, and each block
# copies all the weights. Two blocks against one, 2-vCPU Xeon VM, AVX-512
# copy of the kernel, median of 15 interleaved rounds: 0.4-0.7x as fast at
# 0.5-1M terms; at 4M terms 0.87x on a 1600x41 map and 1.18x on a 100x41
# map; at 8M terms 1.06x and 1.29x. The SSE2 build, measured the same way,
# gave 1.05-1.07x and 1.4-1.5x at 4M terms; the wider kernel moves the
# crossover up for large maps only, so the gate stays.
PARALLEL_MIN_TERMS = 2_000_000

# Node-dimension terms (nodes x dim) that each part of a split run_steps must
# get at every step, and terms (steps x nodes x dim) that a split call must
# have. The parts wait for each other at every step, and each call starts
# its threads anew. Two parts against one, 2-vCPU Xeon VM, AVX-512 copy of
# the kernel, 41 features, calls of 1000 steps with a 500-row winner search
# between them as in train, each trial a new process, in two sessions of 8
# and 12 trials. A 10x10 map (4100 terms a step) gained nothing: 1-2 ms a
# call either way, 4 of 8 and 0 of 12 trials won. At 15x15 to 30x30 (9225
# to 36900 terms) splitting won 6-7 of 8 trials in the first session,
# 1.4-1.7x in the median, but in the second the first split call of a
# process waited 30-60 ms for the other part's CPU, and 15x15 won 0 of 12,
# 20x20 to 30x30 6 of 12. 40x40 won 8 of 8, 1.1-1.8x. The SSE2 build lost
# half its trials at 15x15 and 20x20 to such waits, and 25x25 won 3 of 4;
# the wider kernel makes a step cheaper but not a wait, so the gate stays
# at 25x25. In the first session a 40x40 map gained from calls of 100
# steps (6.6M terms) on, in 8 of 8 trials; the SSE2 build's first call of
# a process lost at 100 steps and won from 300 (20M terms), where the call
# gate stays.
STEP_PART_MIN_TERMS = 12_000
STEP_CALL_MIN_TERMS = 20_000_000


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
        self._steps.argtypes = [_PTR, _I64, _I64, _PTR, _PTR, _PTR, _PTR, _I64, _I64,
                                _I64, _I64, _I64, _I64, _PTR, _PTR]
        self._steps.restype = None

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
        kernel call and scratch, all at once (see :func:`_run_calls`)."""
        n_nodes, dim = weights.shape
        w, x, i, d = weights.ctypes.data, xs.ctypes.data, idx.ctypes.data, dist.ctypes.data
        # Dim-major weights and distances for each block. Allocated here, so
        # that a failure raises here. They and the arrays outlive every
        # thread, so the pointers stay valid.
        scratch = [np.empty(n_nodes * (dim + 1)) for _ in blocks]
        _run_calls(self._bmu, [
            (w, n_nodes, dim, x + xs.strides[0] * lo, hi - lo, i + idx.strides[0] * lo,
             d + dist.strides[0] * lo, block_scratch.ctypes.data)
            for (lo, hi), block_scratch in zip(blocks, scratch)
        ])

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
        parts = _node_parts(n_nodes, dim, n_steps)
        # Each part's working memory: dim-major weights, distances, factors
        # and the factor table; and the slots through which split parts
        # agree on each step's winner. Allocated here, so a failure is a
        # MemoryError. They and the arrays outlive every thread.
        scratch = [np.empty((hi - lo) * (dim + 2) + n_nodes) for lo, hi in parts]
        slots, sync = _slots(len(parts))
        _run_calls(self._steps, [
            (weights.ctypes.data, n_nodes, dim, xs.ctypes.data, stimuli.ctypes.data,
             alphas.ctypes.data, sigmas.ctypes.data, n_steps, cols, lo, hi, part, len(parts),
             sync, part_scratch.ctypes.data)
            for part, ((lo, hi), part_scratch) in enumerate(zip(parts, scratch))
        ], together=True)


def _run_calls(kernel, calls, together: bool = False) -> None:
    """``kernel(*args)`` for every ``args`` of ``calls``, all at once: the
    first on this thread, each other one on a thread of its own, so a single
    call starts no thread. Returns when all are done.

    Calls made ``together``, the parts of a split step loop, wait for each
    other at every step, so were one thread not to start, the others would
    wait for it for ever. Their workers therefore wait at a gate until every
    worker has started; where one cannot start, they return without calling,
    and the error that stopped the start is raised here. Independent calls
    start at once: waking a worker at a gate made a 4M-term winner search
    2-4 ms slower in a new process.

    Call i runs on the i-th CPU of :func:`_call_cpus`: each worker moves
    itself there before it waits at the gate, and this thread stays on the
    first until its call is done. A new thread starts on its creator's CPU,
    and where the scheduler does not balance load, as in a cpuset with
    sched_load_balance off, it stays there. Left free, this thread can be
    woken on a worker's CPU; the parts of a split step loop then take turns
    there, one yield per step, and a 4 ms call took up to 39 ms."""
    if len(calls) == 1:
        kernel(*calls[0])
        return
    gate = threading.Event()
    go = not together
    if go:
        gate.set()
    cpus = _call_cpus(len(calls))

    def worker(cpu, args):
        # The move only places the work: the call runs where it fails.
        if cpu is not None:
            with contextlib.suppress(OSError):
                os.sched_setaffinity(0, {cpu})
        gate.wait()
        if go:
            kernel(*args)

    threads = [threading.Thread(target=worker, args=(cpu, args))
               for cpu, args in zip(cpus[1:], calls[1:])]
    try:
        for thread in threads:
            thread.start()
        go = True
        gate.set()
        with _pinned(cpus[0]):
            kernel(*calls[0])
    finally:
        gate.set()
        for thread in threads:
            if thread.ident is not None:
                thread.join()


def _call_cpus(n_calls: int) -> list[int | None]:
    """A CPU for each call of a split call, the calling thread's first: this
    thread's allowed CPUs in ascending order, then None where none is left
    or the platform cannot move a thread."""
    if not hasattr(os, "sched_setaffinity"):
        return [None] * n_calls
    return (sorted(os.sched_getaffinity(0)) + [None] * n_calls)[:n_calls]


@contextlib.contextmanager
def _pinned(cpu: int | None):
    """Keep the calling thread on ``cpu`` (unless None) for the length of
    the block, then give it back its affinity. The move only places the
    work: a refused one is ignored."""
    if cpu is None:
        yield
        return
    allowed = os.sched_getaffinity(0)
    with contextlib.suppress(OSError):
        os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        with contextlib.suppress(OSError):
            os.sched_setaffinity(0, allowed)


def _row_blocks(n_rows: int, terms_per_row: int) -> list[tuple[int, int]]:
    """Contiguous (start, stop) row blocks of a winner search, the first for
    the calling thread: one per usable CPU and at most one per row, but no
    more than there are PARALLEL_MIN_TERMS distance terms in the batch."""
    terms = n_rows * terms_per_row
    if n_rows < 2 or terms < 2 * PARALLEL_MIN_TERMS:
        return [(0, n_rows)]
    return _blocks(n_rows, min(_usable_cpus(), n_rows, terms // PARALLEL_MIN_TERMS))


def _node_parts(n_nodes: int, dim: int, n_steps: int) -> list[tuple[int, int]]:
    """Contiguous (start, stop) node blocks of a step loop, the first for the
    calling thread: one per usable CPU and at most one per node, but no more
    than there are STEP_PART_MIN_TERMS node-dimension terms in each step, and
    one alone for a call of fewer than STEP_CALL_MIN_TERMS terms."""
    terms = n_nodes * dim
    if terms < 2 * STEP_PART_MIN_TERMS or n_steps * terms < STEP_CALL_MIN_TERMS:
        return [(0, n_nodes)]
    return _blocks(n_nodes, min(_usable_cpus(), n_nodes, terms // STEP_PART_MIN_TERMS))


def _blocks(n: int, n_blocks: int) -> list[tuple[int, int]]:
    """``range(n)`` cut into ``n_blocks`` contiguous (start, stop) blocks
    whose lengths differ by at most one."""
    bounds = [n * b // n_blocks for b in range(n_blocks + 1)]
    return list(zip(bounds, bounds[1:]))


def _slots(n_parts: int) -> tuple[np.ndarray | None, int | None]:
    """Zeroed memory for the kernel's n_parts 64-byte slots, the first at an
    address that is a multiple of 64, so that no two parts write to one
    cache line: the array that holds it, and that address. (None, None) for
    one part, which reads no slot."""
    if n_parts == 1:
        return None, None
    memory = np.zeros(8 * (n_parts + 1), dtype=np.int64)
    return memory, memory.ctypes.data + (-memory.ctypes.data) % 64


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
