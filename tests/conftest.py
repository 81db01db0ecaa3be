"""Shared synthetic datasets and independent oracles.

The oracles deliberately avoid the library's vectorized code paths: plain
Python loops over lists, scalar math. They are the reference the kernels
are checked against.
"""

from __future__ import annotations

import contextlib
import math
import shutil
import subprocess
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from netsom import _core_c

# Every @given test draws the same examples on every run and has no time
# limit per example, so tier-1 neither varies nor flakes on a loaded machine.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")

# When a @given test fails, Hypothesis imports its patch module to suggest a
# fix, and a dependency of that module warns DeprecationWarning on import.
# Under filterwarnings = ["error"] that warning became an INTERNALERROR that
# hid the falsifying example and stopped the run. Import it once here, with
# that warning ignored, so a failure is reported like any other. Without
# libcst the module does not import and Hypothesis suggests no patch.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

KERNEL_SOURCE = Path(__file__).resolve().parents[1] / "src" / "netsom" / "_kernel.c"

# ---------------------------------------------------------------- datasets


def four_cluster_data(seed: int = 2024, std: float = 0.3, per_cluster: int = 100) -> np.ndarray:
    """Four well-separated Gaussian clusters in the plane, 400 points total."""
    rng = np.random.default_rng(seed)
    centers = ((0.0, 0.0), (10.0, 0.0), (0.0, 10.0), (10.0, 10.0))
    return np.concatenate([rng.normal(c, std, size=(per_cluster, 2)) for c in centers])


def two_cluster_data(seed: int = 77, per_cluster: int = 200) -> np.ndarray:
    """Two unit-variance clusters at (0,0) and (10,10)."""
    rng = np.random.default_rng(seed)
    a = rng.normal((0.0, 0.0), 1.0, size=(per_cluster, 2))
    b = rng.normal((10.0, 10.0), 1.0, size=(per_cluster, 2))
    return np.concatenate([a, b])


def bounds_of(data: np.ndarray) -> np.ndarray:
    return np.stack([data.min(axis=0), data.max(axis=0)], axis=1)


# ---------------------------------------------------------------- fixtures


def _build_kernel(directory: Path, *flags: str) -> Path:
    """The C kernel compiled from source with cc and ``flags`` into
    ``directory``. Skips only when there is no C compiler."""
    cc = shutil.which("cc")
    if cc is None:
        pytest.skip("no C compiler (cc) to build the kernel")
    lib = directory / "_kernel.so"
    subprocess.run(
        [cc, "-std=c11", "-O3", "-ffp-contract=off", *flags, "-shared", "-fPIC",
         str(KERNEL_SOURCE), "-o", str(lib), "-lm"],
        check=True,
    )
    return lib


@pytest.fixture(scope="session")
def kernel_library(tmp_path_factory):
    """Path of the C kernel compiled from source into a temp directory, so
    parity tests run whether or not the package's own extension was built.
    On x86-64 glibc it holds a copy of each entry point per vector width,
    and the loader picks the widest this CPU runs."""
    return _build_kernel(tmp_path_factory.mktemp("kernel"))


@pytest.fixture(scope="session")
def single_target_library(tmp_path_factory):
    """Path of the C kernel compiled like :func:`kernel_library` but with
    ``-DNETSOM_TARGETS=``: one copy of each entry point, for the compiler's
    baseline target (SSE2 on x86-64), the code a CPU without AVX2 runs."""
    return _build_kernel(tmp_path_factory.mktemp("kernel_single"), "-DNETSOM_TARGETS=")


@pytest.fixture(scope="session")
def compiled(kernel_library):
    """The kernel of :func:`kernel_library`, bound through ctypes."""
    return _core_c.Kernel(kernel_library)


@pytest.fixture(scope="session")
def single_target(single_target_library):
    """The kernel of :func:`single_target_library`, bound through ctypes."""
    return _core_c.Kernel(single_target_library)


# ----------------------------------------------------------------- oracles


def oracle_bmu(weights, x) -> tuple[int, float]:
    """Exhaustive linear scan, squared distances, lowest index wins."""
    rows = [list(map(float, r)) for r in weights]
    xs = list(map(float, x))
    best = 0
    best_d2 = None
    for i, row in enumerate(rows):
        acc = 0.0
        for k in range(len(xs)):
            d = row[k] - xs[k]
            acc += d * d
        if best_d2 is None or acc < best_d2:
            best_d2 = acc
            best = i
    return best, math.sqrt(best_d2)


def oracle_qe(weights, data) -> float:
    """Mean winner distance via nested loops, no caching."""
    total = 0.0
    count = 0
    for row in data:
        _, dist = oracle_bmu(weights, row)
        total += dist
        count += 1
    return total / count


def oracle_kernel(c_row, c_col, i_row, i_col, alpha, sigma) -> float:
    """Scalar Gaussian neighborhood factor."""
    dr = c_row - i_row
    dc = c_col - i_col
    return alpha * math.exp(-float(dr * dr + dc * dc) / (2.0 * sigma * sigma))


def oracle_adapt(weights, x, c, alpha, sigma, cols) -> list[list[float]]:
    """Per-component update rule applied with scalar arithmetic."""
    c_row, c_col = divmod(c, cols)
    out = []
    for i, row in enumerate(weights):
        i_row, i_col = divmod(i, cols)
        h = oracle_kernel(c_row, c_col, i_row, i_col, alpha, sigma)
        out.append([w + h * (xv - w) for w, xv in zip(row, x)])
    return out


def oracle_umatrix(weights, rows, cols) -> list[float]:
    """Neighbor-mean values via double loops over the grid."""
    values = []
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            dists = []
            for nr, nc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                if 0 <= nr < rows and 0 <= nc < cols:
                    j = nr * cols + nc
                    acc = 0.0
                    for k in range(len(weights[i])):
                        d = float(weights[i][k]) - float(weights[j][k])
                        acc += d * d
                    dists.append(math.sqrt(acc))
            values.append(sum(dists) / len(dists) if dists else 0.0)
    return values


def oracle_nearest_rank(values, percentile) -> float:
    """1-based nearest-rank percentile of a sample."""
    ordered = sorted(float(v) for v in values)
    rank = math.ceil(percentile * len(ordered) / 100.0)
    rank = min(len(ordered), max(1, rank))
    return ordered[rank - 1]
