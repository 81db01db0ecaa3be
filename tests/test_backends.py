"""Parity between the compiled kernel and the pure numpy fallback.

The compiled implementation comes from the ``compiled`` fixture, which
builds ``_kernel.c`` from source, so these tests run wherever a C compiler
exists, whether or not the package's own extension was built.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from netsom import _core_c, _core_py
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

    def test_tie_break_is_lowest_index_in_both(self, compiled):
        weights = np.ascontiguousarray([[1.0, 1.0], [5.0, 5.0], [1.0, 1.0]])
        xs = np.ascontiguousarray([[1.0, 1.0]])
        for impl in (_core_py, compiled):
            idx, dist = impl.bmu_batch(weights, xs)
            assert idx[0] == 0
            assert dist[0] == 0.0


def steps_case(kind, rng, shape, n_data=120):
    """(data, start weights, kernel cutoff, scale) for one training run.

    Weights are compared in units of ``scale``, the magnitude of the data.
    """
    dim = 1 if kind == "dim_1" else 3
    data = rng.uniform(0, 1, size=(n_data, dim))
    start = rng.uniform(0, 1, size=(shape.node_count, dim))
    cutoff, scale = 0.0, 1.0
    if kind == "exact_ties":
        data = rng.integers(0, 3, size=data.shape) / 2.0
        start = rng.integers(0, 3, size=start.shape) / 2.0
    elif kind == "duplicate_nodes":
        start = np.tile(start[: shape.node_count // 4], (4, 1))
    elif kind == "input_on_node":
        data[: shape.node_count] = start
    elif kind == "cutoff":
        cutoff = 1.5
    elif kind.startswith("scale_"):
        scale = float(kind[len("scale_"):])
        data, start = data * scale, start * scale
    return np.ascontiguousarray(data), np.ascontiguousarray(start), cutoff, scale


STEPS_KINDS = ["random", "exact_ties", "duplicate_nodes", "input_on_node", "dim_1",
               "cutoff", "scale_1e-150", "scale_1e150"]


class TestRunStepsParity:
    @pytest.mark.parametrize("kind", STEPS_KINDS)
    def test_trained_weights_agree(self, compiled, kind):
        rng = np.random.default_rng(1)
        shape = GridShape(8, 8)
        data, start, cutoff, scale = steps_case(kind, rng, shape)
        schedule = TrainingSchedule(total_steps=2000, sigma_start=4.0)
        alphas, sigmas = _schedule_arrays(schedule)
        stimuli = np.ascontiguousarray(
            np.random.default_rng(2).integers(0, 120, size=2000), dtype=np.int64
        )
        w_py = start.copy()
        w_c = start.copy()
        _core_py.run_steps(w_py, data, stimuli, alphas, sigmas, shape.cols, cutoff)
        compiled.run_steps(w_c, data, stimuli, alphas, sigmas, shape.cols, cutoff)
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
                shape.cols, 0.0,
            )
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_cutoff_skips_far_nodes_identically(self, compiled):
        rng = np.random.default_rng(4)
        shape = GridShape(6, 6)
        data = np.ascontiguousarray(rng.uniform(0, 1, size=(30, 2)))
        start = np.ascontiguousarray(rng.uniform(0, 1, size=(36, 2)))
        stimuli = np.ascontiguousarray(rng.integers(0, 30, size=200), dtype=np.int64)
        alphas = np.full(200, 0.3)
        sigmas = np.full(200, 1.0)
        w_py = start.copy()
        w_c = start.copy()
        _core_py.run_steps(w_py, data, stimuli, alphas, sigmas, shape.cols, 2.0)
        compiled.run_steps(w_c, data, stimuli, alphas, sigmas, shape.cols, 2.0)
        np.testing.assert_allclose(w_c, w_py, rtol=0, atol=1e-12)


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
        "cutoff": 0.0,
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
