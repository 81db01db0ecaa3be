"""Parity between the compiled kernel and the pure numpy fallback.

The compiled implementation comes from the ``compiled`` fixture, which
builds ``_kernel.c`` from source, so these tests run wherever a C compiler
exists, whether or not the package's own extension was built.
"""

import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from conftest import oracle_adapt, oracle_bmu
from netsom import _backend, _core_c, _core_py
from netsom.core import SomMap, TrainingSchedule, _schedule_arrays, adapt, find_bmu
from netsom.grid import GridShape


def random_case(rng, n_nodes=48, dim=7, n_inputs=64):
    weights = np.ascontiguousarray(rng.uniform(-4, 4, size=(n_nodes, dim)))
    xs = np.ascontiguousarray(rng.uniform(-4, 4, size=(n_inputs, dim)))
    return weights, xs


def bmu_cases(kind):
    """(weights, xs) pairs: random, or built to hit one edge of the search."""
    rng = np.random.default_rng(0)
    if kind == "random":
        return [random_case(rng) for _ in range(20)]
    if kind == "exact_ties":
        # Small integers give many nodes at exactly the same distance.
        return [(rng.integers(0, 3, size=(48, 3)).astype(np.float64),
                 rng.integers(0, 3, size=(64, 3)).astype(np.float64))]
    if kind == "duplicate_nodes":
        weights, xs = random_case(rng, n_nodes=12)
        return [(np.tile(weights, (4, 1))[rng.permutation(48)], xs)]
    if kind == "input_on_node":
        weights, _ = random_case(rng)
        return [(weights, weights[rng.integers(0, 48, size=64)])]
    if kind == "dim_1":
        return [random_case(rng, dim=1), (np.arange(16.0).reshape(-1, 1),
                                          np.arange(-0.5, 16.0, 0.5).reshape(-1, 1))]
    if kind == "magnitudes":
        cases = []
        for scale in (1e-150, 1e-75, 1e75, 1e150):
            weights, xs = random_case(rng)
            cases.append((weights * scale, xs * scale))
        # Every dimension at its own scale, from 1e-150 to 1e150.
        weights, xs = random_case(rng)
        scales = 10.0 ** rng.uniform(-150, 150, size=7)
        cases.append((weights * scales, xs * scales))
        return cases
    raise ValueError(kind)


BMU_KINDS = ["random", "exact_ties", "duplicate_nodes", "input_on_node", "dim_1", "magnitudes"]


class TestBmuParity:
    @pytest.mark.parametrize("kind", BMU_KINDS)
    def test_indices_and_distances_bit_equal(self, compiled, kind):
        for weights, xs in bmu_cases(kind):
            i_py, d_py = _core_py.bmu_batch(weights, xs)
            i_c, d_c = compiled.bmu_batch(weights, xs)
            assert np.array_equal(i_py, i_c)
            assert np.array_equal(d_py, d_c)
            # One row per call, as find_bmu and anomaly.score search.
            for j in range(len(xs)):
                i_1, d_1 = compiled.bmu_batch(weights, xs[j:j + 1])
                assert i_1[0] == i_py[j]
                assert d_1.view(np.uint64)[0] == d_py.view(np.uint64)[j]

    def test_tie_break_is_lowest_index_in_both(self, compiled):
        weights = np.ascontiguousarray([[1.0, 1.0], [5.0, 5.0], [1.0, 1.0]])
        xs = np.ascontiguousarray([[1.0, 1.0]])
        for impl in (_core_py, compiled):
            idx, dist = impl.bmu_batch(weights, xs)
            assert idx[0] == 0
            assert dist[0] == 0.0


def assert_search_bit_equal(kernel, weights, xs):
    """``kernel.bmu_batch`` gives _core_py's winners and distances, bit for bit."""
    i_py, d_py = _core_py.bmu_batch(weights, xs)
    i_c, d_c = kernel.bmu_batch(weights, xs)
    np.testing.assert_array_equal(i_c, i_py)
    np.testing.assert_array_equal(d_c.view(np.uint64), d_py.view(np.uint64))


@pytest.fixture(params=[2, 3, 8])
def split(request, monkeypatch):
    """Split every search of two or more rows into row blocks, one per
    ``param`` CPUs (possibly more than there are) and at most one per row."""
    monkeypatch.setattr(_core_c, "PARALLEL_MIN_TERMS", 1)
    monkeypatch.setattr(_core_c, "_usable_cpus", lambda: request.param)
    return request.param


class TestParallelBmuParity:
    """A batch split across threads gives the single-thread winners."""

    def test_exact_ties_straddling_block_boundaries(self, compiled, split):
        # Nodes 0 and 2 coincide, as do nodes 1 and 3, so every row ties.
        weights = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0]])
        xs = np.array([[1.0, 1.0], [0.5, 0.5], [0.0, 0.0]] * 4)
        assert len(_core_c._row_blocks(len(xs), weights.size)) == split
        assert_search_bit_equal(compiled, weights, xs)
        assert compiled.bmu_batch(weights, xs)[0].tolist() == [1, 0, 0] * 4

    def test_random_ties_on_small_integers(self, compiled, split):
        for weights, xs in bmu_cases("exact_ties") + bmu_cases("duplicate_nodes"):
            assert_search_bit_equal(compiled, weights, xs)

    @pytest.mark.parametrize("n_rows", [0, 1, 2])
    def test_zero_one_and_two_rows(self, compiled, split, n_rows):
        weights, xs = random_case(np.random.default_rng(7), n_inputs=n_rows)
        assert_search_bit_equal(compiled, weights, xs)

    def test_one_node_map(self, compiled, split):
        weights, xs = random_case(np.random.default_rng(8), n_nodes=1, n_inputs=9)
        assert_search_bit_equal(compiled, weights, xs)

    def test_rows_not_divisible_by_workers(self, compiled, split):
        n_rows = 7 * split + 1
        blocks = _core_c._row_blocks(n_rows, 48 * 7)
        assert len(blocks) == split
        assert blocks[0][0] == 0 and blocks[-1][1] == n_rows
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
        weights, xs = random_case(np.random.default_rng(9), n_inputs=n_rows)
        assert_search_bit_equal(compiled, weights, xs)

    def test_40x40_map_with_41_features(self, compiled, split):
        rng = np.random.default_rng(10)
        weights = rng.uniform(0, 1, size=(1600, 41))
        xs = rng.uniform(0, 1, size=(23, 41))
        xs[:5] = weights[[3, 1599, 0, 800, 3]]
        assert_search_bit_equal(compiled, weights, xs)

    def test_default_split_keeps_small_batches_whole(self, monkeypatch):
        monkeypatch.setattr(_core_c, "_usable_cpus", lambda: 4)
        per_block = _core_c.PARALLEL_MIN_TERMS
        assert _core_c._row_blocks(1, 10 * per_block) == [(0, 1)]
        assert _core_c._row_blocks(1000, (2 * per_block - 1) // 1000) == [(0, 1000)]
        assert len(_core_c._row_blocks(1000, 2 * per_block // 1000)) == 2
        assert len(_core_c._row_blocks(1000, 100 * per_block)) == 4

    def test_one_cpu_starts_no_thread(self, compiled, monkeypatch):
        class NoThread:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a thread was started")

        monkeypatch.setattr(_core_c, "PARALLEL_MIN_TERMS", 1)
        monkeypatch.setattr(threading, "Thread", NoThread)
        weights, xs = random_case(np.random.default_rng(11))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        with pytest.raises(AssertionError, match="a thread was started"):
            compiled.bmu_batch(weights, xs)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert_search_bit_equal(compiled, weights, xs)

    @pytest.mark.parametrize("n_rows", [0, 1])
    def test_tiny_batch_starts_no_thread_and_asks_no_cpu(self, compiled, monkeypatch, n_rows):
        moves = []
        monkeypatch.setattr(_core_c, "PARALLEL_MIN_TERMS", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: moves.append(cpus),
                            raising=False)
        weights, xs = random_case(np.random.default_rng(12), n_inputs=2)
        assert_search_bit_equal(compiled, weights, xs)
        assert {0} in moves and {1} in moves
        moves.clear()
        monkeypatch.setattr(threading, "Thread", NoThread)
        assert_search_bit_equal(compiled, weights, xs[:n_rows])
        assert moves == []

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert _core_c._usable_cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _core_c._usable_cpus() == 1

    def test_call_i_goes_to_the_ith_allowed_cpu(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {2, 0, 1}, raising=False)
        monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: None, raising=False)
        assert _core_c._call_cpus(2) == [0, 1]
        assert _core_c._call_cpus(4) == [0, 1, 2, None]
        monkeypatch.delattr(os, "sched_setaffinity")
        assert _core_c._call_cpus(2) == [None, None]

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity")
                        or len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")
    def test_worker_moves_to_its_cpu(self):
        cpus = sorted(os.sched_getaffinity(0))
        seen = {}
        _core_c._run_calls(lambda who: seen.update({who: os.sched_getaffinity(0)}),
                           [("caller",), ("worker",)])
        assert seen["worker"] == {cpus[1]}

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity")
                        or len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")
    def test_calling_thread_keeps_off_the_workers_cpu(self):
        allowed = os.sched_getaffinity(0)
        cpus = sorted(allowed)
        seen = {}
        calls = [(who,) for who in range(min(len(cpus), 3))]
        _core_c._run_calls(lambda who: seen.update({who: os.sched_getaffinity(0)}), calls)
        assert seen[0] == {cpus[0]}
        assert all(seen[0].isdisjoint(seen[who]) for who in range(1, len(calls)))
        assert os.sched_getaffinity(0) == allowed

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity")
                        or len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")
    def test_calling_thread_gets_its_cpus_back_when_its_call_raises(self):
        allowed = os.sched_getaffinity(0)

        def call(who):
            if who == "caller":
                raise RuntimeError("the kernel failed")

        with pytest.raises(RuntimeError, match="the kernel failed"):
            _core_c._run_calls(call, [("caller",), ("worker",)])
        assert os.sched_getaffinity(0) == allowed

    def test_search_runs_where_the_move_fails(self, monkeypatch):
        def refuse(pid, cpus):
            raise OSError("no such CPU")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 12345}, raising=False)
        monkeypatch.setattr(os, "sched_setaffinity", refuse, raising=False)
        ran = []
        _core_c._run_calls(lambda *args: ran.append(args), [(1, 2), (3, 4), (5, 6)])
        assert sorted(ran) == [(1, 2), (3, 4), (5, 6)]


def stub_library(tmp_path, source):
    """A shared library compiled from C ``source`` with cc."""
    src = tmp_path / "stub.c"
    src.write_text("#include <stdint.h>\n" + source)
    lib = tmp_path / "stub.so"
    subprocess.run([shutil.which("cc"), "-shared", "-fPIC", str(src), "-o", str(lib)], check=True)
    return lib


NO_ABI = "void netsom_bmu_batch(void) {}\nvoid netsom_run_steps(void) {}\n"
OLD_ABI = "int64_t netsom_abi(void) { return 1; }\n" + NO_ABI


class TestStaleLibrary:
    """A kernel library built from another _kernel.c, such as one left behind
    by a failed rebuild, is refused instead of called with the wrong
    arguments. (``kernel_library`` skips these where there is no cc.)"""

    @pytest.mark.parametrize("source, message", [(NO_ABI, "no netsom_abi"),
                                                 (OLD_ABI, f"ABI 1, not {_core_c.ABI}")])
    def test_kernel_refuses_it(self, kernel_library, tmp_path, source, message):
        with pytest.raises(ImportError, match=message):
            _core_c.Kernel(stub_library(tmp_path, source))

    def test_kernel_refuses_a_file_that_is_no_library(self, tmp_path):
        path = tmp_path / "_kernel.so"
        path.write_text("not a library")
        with pytest.raises(ImportError, match="cannot load"):
            _core_c.Kernel(path)

    def test_backend_falls_back_to_numpy(self, kernel_library, tmp_path):
        assert _backend._load("", stub_library(tmp_path, OLD_ABI)) is _core_py
        assert _backend._load("", None) is _core_py

    def test_forced_compiled_backend_asks_for_a_rebuild(self, kernel_library, tmp_path):
        stub = stub_library(tmp_path, OLD_ABI)
        with pytest.raises(ImportError, match=r"NETSOM_BACKEND=compiled but .*ABI 1.*rebuild"):
            _backend._load("compiled", stub)
        with pytest.raises(ImportError, match="not built.*rebuild"):
            _backend._load("compiled", None)

    def test_current_kernel_is_bound(self, kernel_library):
        assert isinstance(_backend._load("", kernel_library), _core_c.Kernel)
        assert isinstance(_backend._load("compiled", kernel_library), _core_c.Kernel)
        assert _backend._load("python", kernel_library) is _core_py


def steps_case(kind, rng, shape, n_data=120):
    """(data, start weights, scale) for one training run.

    Weights are compared in units of ``scale``, the magnitude of the data.
    """
    dim = 1 if kind == "dim_1" else 3
    data = rng.uniform(0, 1, size=(n_data, dim))
    start = rng.uniform(0, 1, size=(shape.node_count, dim))
    scale = 1.0
    if kind == "exact_ties":
        data = rng.integers(0, 3, size=data.shape) / 2.0
        start = rng.integers(0, 3, size=start.shape) / 2.0
    elif kind == "duplicate_nodes":
        start = np.tile(start[: shape.node_count // 4], (4, 1))
    elif kind == "input_on_node":
        data[: shape.node_count] = start
    elif kind.startswith("scale_"):
        scale = float(kind[len("scale_"):])
        data, start = data * scale, start * scale
    return np.ascontiguousarray(data), np.ascontiguousarray(start), scale


STEPS_KINDS = ["random", "exact_ties", "duplicate_nodes", "input_on_node", "dim_1",
               "scale_1e-150", "scale_1e150"]


class TestRunStepsParity:
    @pytest.mark.parametrize("kind", STEPS_KINDS)
    def test_trained_weights_agree(self, compiled, kind):
        rng = np.random.default_rng(1)
        shape = GridShape(8, 8)
        data, start, scale = steps_case(kind, rng, shape)
        schedule = TrainingSchedule(total_steps=2000, sigma_start=4.0)
        alphas, sigmas = _schedule_arrays(schedule)
        stimuli = np.ascontiguousarray(
            np.random.default_rng(2).integers(0, 120, size=2000), dtype=np.int64
        )
        w_py = start.copy()
        w_c = start.copy()
        _core_py.run_steps(w_py, data, stimuli, alphas, sigmas, shape.cols)
        compiled.run_steps(w_c, data, stimuli, alphas, sigmas, shape.cols)
        np.testing.assert_allclose(w_c / scale, w_py / scale, rtol=0, atol=1e-12)

    def test_single_step_matches_public_adapt(self, compiled):
        rng = np.random.default_rng(3)
        shape = GridShape(5, 4)
        w = np.ascontiguousarray(rng.uniform(-1, 1, size=(20, 2)))
        som = SomMap(shape, w.copy(), seed=0)
        x = np.ascontiguousarray(rng.uniform(-1, 1, size=(1, 2)))
        c, _ = find_bmu(som, x[0])
        expected = adapt(som, x[0], c, alpha=0.4, sigma=1.5).weights
        for impl in (_core_py, compiled):
            got = w.copy()
            impl.run_steps(
                got, x,
                np.zeros(1, dtype=np.int64),
                np.full(1, 0.4), np.full(1, 1.5),
                shape.cols,
            )
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


def oracle_steps(weights, xs, stimuli, alphas, sigmas, cols) -> np.ndarray:
    """``weights`` after a chain of oracle winner searches and updates."""
    w = weights.tolist()
    for s, alpha, sigma in zip(stimuli.tolist(), alphas.tolist(), sigmas.tolist()):
        x = xs[s].tolist()
        c, _ = oracle_bmu(w, x)
        w = oracle_adapt(w, x, c, alpha, sigma, cols)
    return np.array(w, dtype=np.float64).reshape(weights.shape)


def assert_same_bits(got, expected):
    """Equal as bit patterns, so -0.0 differs from 0.0."""
    np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))


def oracle_case(rows, cols, dim=3, total_steps=60, seed=5):
    """(start weights, data, stimuli, alphas, sigmas) of a short schedule that
    crosses from the ordering stage, where sigma changes at every step, to the
    fine-tuning stage, where it repeats."""
    rng = np.random.default_rng(seed)
    start = np.ascontiguousarray(rng.uniform(0, 1, size=(rows * cols, dim)))
    data = np.ascontiguousarray(rng.uniform(0, 1, size=(30, dim)))
    schedule = TrainingSchedule(
        total_steps=total_steps, ordering_steps=total_steps // 3,
        sigma_start=max(rows, cols, 2) / 2.0,
    )
    alphas, sigmas = _schedule_arrays(schedule)
    stimuli = rng.integers(0, 30, size=total_steps).astype(np.int64)
    return start, data, stimuli, alphas, sigmas


class TestRunStepsMatchesOracle:
    """The compiled step loop, bit for bit, against the scalar oracle's
    search-then-update chain. Both call the same libm exp."""

    @pytest.mark.parametrize("rows, cols", [(5, 3), (3, 5), (1, 7), (7, 1), (4, 4)])
    def test_lattice_shapes(self, compiled, rows, cols):
        start, data, stimuli, alphas, sigmas = oracle_case(rows, cols)
        got = start.copy()
        compiled.run_steps(got, data, stimuli, alphas, sigmas, cols)
        assert_same_bits(got, oracle_steps(start, data, stimuli, alphas, sigmas, cols))

    @pytest.mark.parametrize("bounds", [(0, 10, 40, 60), (0, 19, 21, 60), (0, 1, 2, 60)])
    def test_calls_split_around_the_stage_boundary(self, compiled, bounds):
        start, data, stimuli, alphas, sigmas = oracle_case(5, 3)
        got = start.copy()
        for lo, hi in zip(bounds, bounds[1:]):
            compiled.run_steps(got, data, stimuli[lo:hi], alphas[lo:hi], sigmas[lo:hi], 3)
        assert_same_bits(got, oracle_steps(start, data, stimuli, alphas, sigmas, 3))

    @pytest.mark.parametrize("n_steps", [0, 1])
    def test_zero_and_one_step_calls(self, compiled, n_steps):
        start, data, stimuli, alphas, sigmas = oracle_case(3, 5)
        args = (data, stimuli[:n_steps], alphas[:n_steps], sigmas[:n_steps], 5)
        got = start.copy()
        compiled.run_steps(got, *args)
        assert_same_bits(got, oracle_steps(start, *args))

    @pytest.mark.parametrize("kind", ["tiny_weights", "zero_weights", "huge_data", "signed_zeros"])
    def test_factors_below_the_negligible_cutoff(self, compiled, kind):
        # With sigma 0.08, nodes 3 lattice units from the winner get factors
        # near 1e-306, below the kernel's 2^-900 cutoff; nodes further away
        # get 0. Only updates too small to change a weight may be dropped.
        start, data, stimuli, alphas, _ = oracle_case(5, 3, total_steps=40)
        sigmas = np.full(40, 0.08)
        rng = np.random.default_rng(6)
        if kind == "tiny_weights":
            start = 2.0 ** rng.uniform(-1070, -950, size=start.shape)
        elif kind == "zero_weights":
            start = np.where(rng.random(start.shape) < 0.5, 0.0, -0.0)
        elif kind == "huge_data":
            data = data * 1e300
        elif kind == "signed_zeros":
            data[:, 0] = 0.0
            start[:, 0] = np.where(rng.random(start.shape[0]) < 0.5, 0.0, -0.0)
        got = start.copy()
        compiled.run_steps(got, data, stimuli, alphas, sigmas, 3)
        assert_same_bits(got, oracle_steps(start, data, stimuli, alphas, sigmas, 3))


def force_parts(monkeypatch, n_parts):
    """Split every run_steps call of at least one step into ``n_parts`` node
    blocks (possibly more than there are CPUs), at most one per node."""
    monkeypatch.setattr(_core_c, "STEP_PART_MIN_TERMS", 1)
    monkeypatch.setattr(_core_c, "STEP_CALL_MIN_TERMS", 1)
    monkeypatch.setattr(_core_c, "_usable_cpus", lambda: n_parts)


class TestSplitRunStepsMatchesOracle(TestRunStepsMatchesOracle):
    """Every oracle case again, with the map's nodes split into 2 or 3 parts
    that run at once."""

    @pytest.fixture(autouse=True, params=[2, 3])
    def parts(self, request, monkeypatch):
        force_parts(monkeypatch, request.param)
        return request.param

    @pytest.mark.parametrize("rows, cols", [(5, 3), (1, 7), (7, 1)])
    def test_the_map_is_split(self, parts, rows, cols):
        blocks = _core_c._node_parts(rows * cols, 3, 1)
        assert len(blocks) == parts
        assert blocks[0][0] == 0 and blocks[-1][1] == rows * cols
        assert all(a[1] == b[0] and a[0] < a[1] for a, b in zip(blocks, blocks[1:]))


def run_in_parts(kernel, monkeypatch, n_parts, start, *args):
    """The weights after ``kernel.run_steps(start copy, *args)`` with the
    nodes split into ``n_parts`` parts."""
    force_parts(monkeypatch, n_parts)
    got = start.copy()
    kernel.run_steps(got, *args)
    return got


class TestSplitRunStepsMatchesOnePart:
    """A split step loop trains the one-part loop's weights, bit for bit."""

    @pytest.mark.parametrize("n_parts", [2, 3])
    @pytest.mark.parametrize("kind", STEPS_KINDS)
    def test_steps_kinds(self, compiled, monkeypatch, kind, n_parts):
        shape = GridShape(8, 8)
        data, start, _ = steps_case(kind, np.random.default_rng(1), shape)
        alphas, sigmas = _schedule_arrays(TrainingSchedule(total_steps=2000, sigma_start=4.0))
        stimuli = np.random.default_rng(2).integers(0, 120, size=2000).astype(np.int64)
        args = (data, stimuli, alphas, sigmas, shape.cols)
        assert_same_bits(run_in_parts(compiled, monkeypatch, n_parts, start, *args),
                         run_in_parts(compiled, monkeypatch, 1, start, *args))

    @pytest.mark.parametrize("n_parts", [2, 3])
    def test_nan_node_first_in_a_later_part(self, compiled, monkeypatch, n_parts):
        # A part that took its first node's NaN distance as its minimum
        # would never find a smaller one, and lose its real winners.
        start, data, stimuli, alphas, sigmas = oracle_case(4, 4, total_steps=120)
        last_part = _core_c._blocks(16, n_parts)[-1]
        start[last_part[0], 1] = np.nan
        args = (data, stimuli, alphas, sigmas, 4)
        one = run_in_parts(compiled, monkeypatch, 1, start, *args)
        assert_same_bits(run_in_parts(compiled, monkeypatch, n_parts, start, *args), one)
        assert np.argwhere(np.isnan(one)).tolist() == [[last_part[0], 1]]

    @pytest.mark.parametrize("n_parts", [2, 3])
    def test_40x40_map_with_41_features(self, compiled, monkeypatch, n_parts):
        rng = np.random.default_rng(13)
        start = rng.uniform(0, 1, size=(1600, 41))
        data = rng.uniform(0, 1, size=(50, 41))
        alphas, sigmas = _schedule_arrays(
            TrainingSchedule(total_steps=300, ordering_steps=100, sigma_start=20.0))
        stimuli = rng.integers(0, 50, size=300).astype(np.int64)
        args = (data, stimuli, alphas, sigmas, 40)
        assert_same_bits(run_in_parts(compiled, monkeypatch, n_parts, start, *args),
                         run_in_parts(compiled, monkeypatch, 1, start, *args))


class OnTheSingleTargetBuild:
    """Put first in a test class's bases, it runs that class's tests against
    the single-target build of the kernel instead of the dispatched one."""

    @pytest.fixture
    def compiled(self, single_target):
        return single_target


class TestBmuParitySingleTarget(OnTheSingleTargetBuild, TestBmuParity):
    pass


class TestParallelBmuParitySingleTarget(OnTheSingleTargetBuild, TestParallelBmuParity):
    pass


class TestRunStepsParitySingleTarget(OnTheSingleTargetBuild, TestRunStepsParity):
    pass


class TestRunStepsMatchesOracleSingleTarget(OnTheSingleTargetBuild, TestRunStepsMatchesOracle):
    pass


class TestSplitRunStepsMatchesOracleSingleTarget(OnTheSingleTargetBuild,
                                                 TestSplitRunStepsMatchesOracle):
    pass


class TestSplitRunStepsMatchesOnePartSingleTarget(OnTheSingleTargetBuild,
                                                  TestSplitRunStepsMatchesOnePart):
    pass


def builds_agree_case(kind):
    """(start weights, data, stimuli, alphas, sigmas, cols) of one run that
    the dispatched and single-target builds must train alike."""
    rng = np.random.default_rng(14)
    if kind == "40x40_default_schedule":
        shape = GridShape(40, 40)
        start = rng.uniform(0, 1, size=(1600, 41))
        data = rng.uniform(0, 1, size=(200, 41))
        schedule = TrainingSchedule.default_for(shape, total_steps=4000)
    else:
        # 63 nodes and 5 features: no vector width divides either.
        shape = GridShape(9, 7)
        start = rng.uniform(0, 1, size=(63, 5))
        data = rng.uniform(0, 1, size=(40, 5))
        schedule = TrainingSchedule(total_steps=600, ordering_steps=200, sigma_start=4.5)
    alphas, sigmas = _schedule_arrays(schedule)
    if kind == "exact_ties":
        start = rng.integers(0, 3, size=start.shape) / 2.0
        data = rng.integers(0, 3, size=data.shape) / 2.0
    elif kind == "nan_node_and_inf_component":
        start[17] = np.nan
        data[5, 2] = np.inf
    elif kind == "subnormal_factors":
        # Weights on both sides of the 2^-200 test, and a sigma that leaves
        # a ring of subnormal factors three lattice units from the winner.
        start = 2.0 ** rng.uniform(-210, -190, size=start.shape)
        data = 2.0 ** rng.uniform(-210, -190, size=data.shape)
        sigmas = np.full(len(sigmas), 0.08)
    stimuli = rng.integers(0, len(data), size=len(alphas)).astype(np.int64)
    return (np.ascontiguousarray(start), np.ascontiguousarray(data), stimuli, alphas, sigmas,
            shape.cols)


class TestBuildsAgree:
    """The kernel built once per vector width, with the loader picking one
    copy, gives the single-target build's weights, winners and distances,
    bit for bit."""

    @pytest.mark.parametrize("n_parts", [1, 2])
    @pytest.mark.parametrize("kind", ["40x40_default_schedule", "exact_ties",
                                      "nan_node_and_inf_component", "subnormal_factors"])
    def test_steps_and_search(self, compiled, single_target, monkeypatch, kind, n_parts):
        start, data, *args = builds_agree_case(kind)
        trained = run_in_parts(compiled, monkeypatch, n_parts, start, data, *args)
        assert_same_bits(trained,
                         run_in_parts(single_target, monkeypatch, n_parts, start, data, *args))
        for weights in (start, trained):
            i_c, d_c = compiled.bmu_batch(weights, data)
            i_s, d_s = single_target.bmu_batch(weights, data)
            np.testing.assert_array_equal(i_c, i_s)
            assert_same_bits(d_c, d_s)


class NoThread:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a thread was started")


class TestSplitRunStepsThreads:
    def test_default_split_keeps_small_maps_and_calls_whole(self, monkeypatch):
        monkeypatch.setattr(_core_c, "_usable_cpus", lambda: 4)
        per_step = 2 * _core_c.STEP_PART_MIN_TERMS
        many = _core_c.STEP_CALL_MIN_TERMS
        assert _core_c._node_parts(1, per_step, many) == [(0, 1)]
        assert _core_c._node_parts(100, (per_step - 1) // 100, many) == [(0, 100)]
        assert len(_core_c._node_parts(100, per_step // 100, many)) == 2
        assert len(_core_c._node_parts(1600, 41, many)) == 4
        assert _core_c._node_parts(1600, 41, many // (1600 * 41)) == [(0, 1600)]

    def test_one_cpu_or_a_small_call_starts_no_thread(self, compiled, monkeypatch):
        start, data, stimuli, alphas, sigmas = oracle_case(5, 3)
        expected = oracle_steps(start, data, stimuli, alphas, sigmas, 3)
        monkeypatch.setattr(threading, "Thread", NoThread)
        for n_cpus, min_call_terms in [(2, 1), (1, 1), (2, 60 * 15 * 3 + 1)]:
            monkeypatch.setattr(_core_c, "STEP_PART_MIN_TERMS", 1)
            monkeypatch.setattr(_core_c, "STEP_CALL_MIN_TERMS", min_call_terms)
            monkeypatch.setattr(_core_c, "_usable_cpus", lambda: n_cpus)
            got = start.copy()
            if n_cpus == 2 and min_call_terms == 1:
                with pytest.raises(AssertionError, match="a thread was started"):
                    compiled.run_steps(got, data, stimuli, alphas, sigmas, 3)
            else:
                compiled.run_steps(got, data, stimuli, alphas, sigmas, 3)
                assert_same_bits(got, expected)

    def test_failed_thread_start_leaves_no_part_waiting(self, compiled, monkeypatch):
        # The second of two workers cannot start. The first must not be
        # left waiting at its first step for a part that never runs.
        real_thread = threading.Thread
        starts = []

        class SecondFails(real_thread):
            def start(self):
                starts.append(self)
                if len(starts) == 2:
                    raise RuntimeError("can't start new thread")
                super().start()

        force_parts(monkeypatch, 3)
        start, data, stimuli, alphas, sigmas = oracle_case(5, 3)
        got = start.copy()
        raised = []

        def call():
            try:
                compiled.run_steps(got, data, stimuli, alphas, sigmas, 3)
            except RuntimeError as exc:
                raised.append(str(exc))

        runner = real_thread(target=call, daemon=True)
        monkeypatch.setattr(threading, "Thread", SecondFails)
        runner.start()
        runner.join(timeout=60)
        assert not runner.is_alive()
        assert raised == ["can't start new thread"]
        assert len(starts) == 2 and not starts[0].is_alive()
        assert_same_bits(got, start)


# Splits a winner search and a step loop in two, forks, and makes both calls
# again in the child, which exits 0 only if it got the parent's bits. A pool
# of threads made before the fork, which the child does not have, would
# leave the child waiting; SIGALRM then kills it.
FORK_SCRIPT = """
import os, signal, sys, traceback
import numpy as np
from netsom import _core_c

kernel = _core_c.Kernel(sys.argv[1])
_core_c._usable_cpus = lambda: 2
_core_c.PARALLEL_MIN_TERMS = 1
_core_c.STEP_PART_MIN_TERMS = _core_c.STEP_CALL_MIN_TERMS = 1
rng = np.random.default_rng(3)
start = rng.uniform(0, 1, size=(64, 5))
data = rng.uniform(0, 1, size=(40, 5))
stimuli = rng.integers(0, 40, size=300).astype(np.int64)
alphas, sigmas = np.linspace(0.5, 0.01, 300), np.linspace(3.0, 0.5, 300)


def both():
    assert len(_core_c._row_blocks(40, 64 * 5)) == len(_core_c._node_parts(64, 5, 300)) == 2
    weights = start.copy()
    kernel.run_steps(weights, data, stimuli, alphas, sigmas, 8)
    return [a.tobytes() for a in (weights, *kernel.bmu_batch(weights, data))]


parent = both()
pid = os.fork()
if pid == 0:
    code = 4
    try:
        signal.alarm(30)
        code = 0 if both() == parent else 3
    except BaseException:
        traceback.print_exc()
    finally:
        os._exit(code)
print("child exit", os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork")
def test_split_calls_work_after_fork(kernel_library):
    src = Path(_core_c.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", FORK_SCRIPT, str(kernel_library)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, "child exit 0\n", "")


def steps_args(**changes):
    """Valid run_steps arguments (3 nodes in one row, 2 dims, 4 steps), with
    some replaced."""
    args = {
        "weights": np.zeros((3, 2)),
        "xs": np.ones((5, 2)),
        "stimuli": np.arange(4, dtype=np.int64),
        "alphas": np.full(4, 0.5),
        "sigmas": np.full(4, 1.0),
        "cols": 3,
    }
    args.update(changes)
    return args


class TestCompiledRejectsBadInput:
    """The C kernel trusts its pointers; the wrapper must refuse what would
    make it read or write outside the arrays."""

    def test_valid_arguments_accepted(self, compiled):
        args = steps_args()
        compiled.run_steps(**args)
        np.testing.assert_array_equal(args["weights"] > 0, True)

    def test_wrong_dtype(self, compiled):
        with pytest.raises(ValueError, match="float64"):
            compiled.bmu_batch(np.zeros((3, 2), dtype=np.float32), np.zeros((1, 2)))
        with pytest.raises(ValueError, match="int64"):
            compiled.run_steps(**steps_args(stimuli=np.arange(4, dtype=np.int32)))

    def test_not_c_contiguous(self, compiled):
        with pytest.raises(ValueError, match="C-contiguous"):
            compiled.bmu_batch(np.zeros((3, 2)), np.zeros((2, 4))[:, ::2])
        with pytest.raises(ValueError, match="C-contiguous"):
            compiled.run_steps(**steps_args(weights=np.asfortranarray(np.zeros((3, 2)))))

    def test_not_2d(self, compiled):
        with pytest.raises(ValueError, match="2-D"):
            compiled.bmu_batch(np.zeros((3, 2)), np.zeros(2))
        with pytest.raises(ValueError, match="2-D"):
            compiled.run_steps(**steps_args(weights=np.zeros(6)))

    def test_dimension_mismatch(self, compiled):
        with pytest.raises(ValueError, match="dimension mismatch"):
            compiled.bmu_batch(np.zeros((3, 2)), np.zeros((1, 3)))
        with pytest.raises(ValueError, match="dimension mismatch"):
            compiled.run_steps(**steps_args(xs=np.ones((5, 1))))

    def test_read_only_weights(self, compiled):
        weights = np.zeros((3, 2))
        weights.flags.writeable = False
        with pytest.raises(ValueError, match="writeable"):
            compiled.run_steps(**steps_args(weights=weights))

    @pytest.mark.parametrize("bad", [-1, 5])
    def test_stimulus_out_of_range(self, compiled, bad):
        stimuli = np.array([0, 1, bad, 2], dtype=np.int64)
        with pytest.raises(IndexError, match=r"\[0, 5\)"):
            compiled.run_steps(**steps_args(stimuli=stimuli))

    def test_schedule_length_mismatch(self, compiled):
        with pytest.raises(ValueError, match="same length"):
            compiled.run_steps(**steps_args(sigmas=np.full(3, 1.0)))

    def test_cols_below_one(self, compiled):
        with pytest.raises(ValueError, match="cols"):
            compiled.run_steps(**steps_args(cols=0))

    def test_nodes_not_a_multiple_of_cols(self, compiled):
        with pytest.raises(ValueError, match="3 nodes do not fill a lattice with 2 columns"):
            compiled.run_steps(**steps_args(cols=2))


class TestBackendSelection:
    def test_env_var_forces_python_backend(self):
        code = "import netsom; print(netsom.backend_name())"
        env = dict(os.environ, NETSOM_BACKEND="python")
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert out.stdout.strip() == "python"

    def test_default_prefers_compiled(self):
        code = "import netsom; print(netsom.backend_name())"
        env = {k: v for k, v in os.environ.items() if k != "NETSOM_BACKEND"}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        expected = "compiled" if _core_c.built_library() is not None else "python"
        assert out.stdout.strip() == expected
