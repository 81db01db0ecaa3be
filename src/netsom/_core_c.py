"""Compiled training hot path: the plain C kernel in ``_kernel.c``, called
through ctypes.

``python3 setup.py build_ext --inplace`` (or installing the package) builds
the kernel into this package directory; :func:`built_library` finds it and
:class:`Kernel` binds any copy of it whose ``netsom_abi()`` is :data:`ABI`.
The kernel trusts its pointers, so every array is checked here first: a bad
argument raises instead of reading or writing arbitrary memory.

Every :meth:`Kernel.bmu_batch` call, a single row too, copies the weights
into dim-major scratch and searches each row against that copy. A call of
:data:`CALL_MIN_TERMS` terms or more is cut by :func:`_parts` into one kernel
call per contiguous block: a winner search by rows, each block with its own
copy of the weights, and a :meth:`Kernel.run_steps` call on a large map by
nodes, whose parts agree on every step's winner through shared slots (see
``_kernel.c``) and train the one-part run's weights, bit for bit. ctypes
releases the GIL for a kernel call, so the calls run at once. They start one
way, :func:`_run_calls`: none runs until every worker has started, and call
i runs on the i-th CPU of :func:`_cpus`, the calling thread's call first.
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

# Terms a kernel call must have to be split: rows x nodes x dim in a winner
# search, steps x nodes x dim in a step loop. Each CLI command is a new
# process that makes one to six such calls, where a split call pays for
# starting threads and waking the other CPU. Split against whole, first
# calls of a new process, 41 features, 2-vCPU Xeon VM, AVX-512 copy of the
# kernel, 12-36 interleaved pairs a size. Whole won at 4.1M (six 1000-row
# searches on 10x10, 3.6 against 21 ms), 33M, 41M and 131M (two 2000-row
# searches on 40x40, 14 of 24), and in 40x40 step loops of 20M-131M (300-2000
# steps). At 197M the search was even and the step loop split faster in 31
# of 36, though another session had it whole faster in 8 of 10. Split won at
# 230M, 262M (a 4000-row search on 40x40, 29 of 36; 4000 steps, 35 of 36) and
# 525M (8000 steps, 211 against 280 ms, 24 of 24).
CALL_MIN_TERMS = 200_000_000

# Node-dimension terms (nodes x dim) that each part of a split run_steps must
# get at every step, since the parts wait for each other at every step. Two
# parts against one, 41 features, calls of 1000 steps with a 500-row search
# between them as in train, each trial a new process, 2-vCPU Xeon VM, AVX-512
# copy of the kernel: a 10x10 map (4100 terms a step) won 4 of 20 trials. At
# 15x15 to 30x30 (9225 to 36900) one session won 6-7 of 8 trials, 1.4-1.7x,
# but in another the first split call of a process waited 30-60 ms for the
# other part's CPU, and 15x15 won 0 of 12, 20x20 to 30x30 6 of 12; 40x40 won
# 8 of 8. The SSE2 build lost half its trials at 15x15 and 20x20 to such
# waits, and 25x25 won 3 of 4; a wider kernel shortens a step, not a wait, so
# the gate stays at 25x25.
STEP_PART_MIN_TERMS = 12_000


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
        blocks = _parts(n_inputs, n_inputs * n_nodes * dim, n_inputs)
        # Dim-major weights and distances for each block. Allocated here, so
        # that a failure raises here. They and the arrays outlive every
        # thread, so the pointers stay valid.
        scratch = [np.empty(n_nodes * (dim + 1)) for _ in blocks]
        w, x, i, d = weights.ctypes.data, xs.ctypes.data, idx.ctypes.data, dist.ctypes.data
        _run_calls(self._bmu, [
            (w, n_nodes, dim, x + xs.strides[0] * lo, hi - lo, i + idx.strides[0] * lo,
             d + dist.strides[0] * lo, block_scratch.ctypes.data)
            for (lo, hi), block_scratch in zip(blocks, scratch)
        ])
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
        parts = _parts(n_nodes, n_steps * n_nodes * dim, n_nodes * dim // STEP_PART_MIN_TERMS)
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
        ])


def _run_calls(kernel, calls) -> None:
    """``kernel(*args)`` for every ``args`` of ``calls``, all at once: the
    first on this thread, each other one on a thread of its own, so a single
    call starts no thread. Returns when all are done.

    Every worker waits at a gate until all have started, so either every
    call runs or none does: the parts of a split step loop wait for each
    other at every step, and were one thread not to start, the others would
    wait for it for ever. Where one cannot start, the started ones return
    without calling, and the error that stopped the start is raised here.

    Call i runs on the i-th CPU of :func:`_cpus`, and is not moved where
    that list has no i-th CPU: each worker moves itself there before it
    waits at the gate, and this thread stays on the first until its call is
    done. A new thread starts on its creator's CPU, and where the scheduler
    does not balance load, as in a cpuset with sched_load_balance off, it
    stays there. Left free, this thread can be woken on a worker's CPU; the
    parts of a split step loop then take turns there, one yield per step,
    and a 4 ms call took up to 39 ms."""
    if len(calls) == 1:
        kernel(*calls[0])
        return
    gate = threading.Event()
    go = False
    cpus = _cpus() + [None] * len(calls)

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


def _cpus() -> list[int | None]:
    """The CPUs a split call may use: this thread's allowed CPUs in ascending
    order, or one None per CPU where the platform cannot move a thread."""
    if not hasattr(os, "sched_setaffinity"):
        return [None] * (os.cpu_count() or 1)
    return sorted(os.sched_getaffinity(0))


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


def _parts(n: int, call_terms: int, most_parts: int) -> list[tuple[int, int]]:
    """``range(n)`` cut into contiguous (start, stop) blocks whose lengths
    differ by at most one, the first for the calling thread: one per usable
    CPU, at most ``most_parts`` and at most one per item. A call of fewer
    than :data:`CALL_MIN_TERMS` terms, or one allowed fewer than two blocks,
    gets the one block ``[(0, n)]``, and the CPUs are not read."""
    count = min(n, most_parts)
    if call_terms < CALL_MIN_TERMS or count < 2:
        return [(0, n)]
    count = min(count, len(_cpus()))
    bounds = [n * b // count for b in range(count + 1)]
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
