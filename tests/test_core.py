import math
import os
import struct
import sys
import threading

import numpy as np
import pytest

from conftest import (
    bounds_of,
    four_cluster_data,
    oracle_adapt,
    oracle_bmu,
    oracle_kernel,
    oracle_qe,
)
from netsom import _backend, _core_py, anomaly
from netsom.core import (
    SomMap,
    TrainingSchedule,
    _check_rates,
    _schedule_arrays,
    adapt,
    find_bmu,
    find_bmus,
    initialize,
    kernel,
    quantization_error,
    schedule_at,
    select_stimulus,
    train,
)
from netsom.dataio import Dataset
from netsom.grid import GridPosition, GridShape
from netsom.mapfile import ArtifactSet, MapFormatError, load_map, save_map, write_atomic


def make_map(weights, rows, cols, seed=0):
    return SomMap(
        shape=GridShape(rows, cols),
        weights=np.asarray(weights, dtype=np.float64),
        seed=seed,
    )


def no_step_schedule():
    return TrainingSchedule(total_steps=0, ordering_steps=0, sigma_start=1.0)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: SomMap(GridShape(1, 1), np.zeros((1, 0)), seed=0),
                 "^map dimension must be at least 1$", id="map-dim-0"),
    pytest.param(lambda: SomMap(GridShape(1, 1), [[math.nan]], seed=0),
                 "^map weights must be finite$", id="map-nan"),
    pytest.param(lambda: SomMap(GridShape(1, 1), [[0.0]], seed=0, steps_trained=-1),
                 "^steps_trained must be nonnegative$", id="map-steps"),
    pytest.param(lambda: initialize(GridShape(1, 1), 0, np.zeros((0, 2)), seed=0),
                 "^dim must be at least 1$", id="initialize-dim-0"),
    pytest.param(lambda: initialize(GridShape(1, 1), 2, [(0.0, 1.0)], seed=0),
                 r"^data_bounds must be 2 \(min, max\) pairs, got shape \(1, 2\)$",
                 id="initialize-bounds-shape"),
    pytest.param(lambda: initialize(GridShape(1, 1), 1, [(0.0, math.inf)], seed=0),
                 "^data_bounds must be finite$", id="initialize-bounds-inf"),
    pytest.param(lambda: train(make_map([[0.0]], 1, 1), np.zeros((0, 1)), no_step_schedule()),
                 "^training set is empty$", id="train-empty"),
    pytest.param(lambda: train(make_map([[0.0]], 1, 1), [[0.0]], no_step_schedule(),
                               qe_sample_every=0),
                 "^qe_sample_every must be at least 1$", id="train-sample-every-0"),
])
def test_refusal_names_its_cause(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestInitialize:
    def test_degenerate_bounds_force_value(self):
        som = initialize(GridShape(1, 1), 2, [(0.0, 0.0), (0.0, 0.0)], seed=5)
        assert np.array_equal(som.weights, [[0.0, 0.0]])

    def test_contract_case(self):
        bounds = [(-1.0, 1.0)] * 5
        som = initialize(GridShape(3, 4), 5, bounds, seed=42)
        assert som.weights.shape == (12, 5)
        assert som.steps_trained == 0
        assert som.seed == 42
        assert np.all(som.weights >= -1.0) and np.all(som.weights <= 1.0)

    def test_deterministic(self):
        a = initialize(GridShape(2, 2), 1, [(0.0, 1.0)], seed=7)
        b = initialize(GridShape(2, 2), 1, [(0.0, 1.0)], seed=7)
        assert np.array_equal(a.weights, b.weights)

    def test_min_above_max_rejected(self):
        with pytest.raises(ValueError, match="min > max"):
            initialize(GridShape(2, 2), 2, [(0.0, 1.0), (2.0, 1.0)], seed=1)

    def test_range_that_overflows_rejected(self):
        # max - min of finite bounds can still overflow to inf.
        with pytest.raises(ValueError, match="range of dimension 1 overflows"):
            initialize(GridShape(3, 3), 2, [(0.0, 1.0), (-1.7e308, 1.7e308)], seed=1)

    def test_per_dimension_bounds_respected(self):
        som = initialize(GridShape(4, 4), 2, [(0.0, 1.0), (100.0, 200.0)], seed=3)
        assert np.all(som.weights[:, 0] <= 1.0)
        assert np.all(som.weights[:, 1] >= 100.0)


class TestFindBmu:
    def test_clearly_nearest(self):
        som = make_map([[0.0, 0.0], [1.0, 1.0]], 1, 2)
        idx, dist = find_bmu(som, (0.1, 0.1))
        assert idx == 0
        assert dist == pytest.approx(math.sqrt(0.02), abs=1e-15)

    def test_exact_weight_hit(self):
        w = np.arange(10, dtype=np.float64).reshape(5, 2)
        som = make_map(w, 5, 1)
        idx, dist = find_bmu(som, w[3])
        assert idx == 3
        assert dist == 0.0

    def test_tie_breaks_to_lowest_index(self):
        som = make_map([[0.0, 0.0], [2.0, 2.0]], 1, 2)
        idx, _ = find_bmu(som, (1.0, 1.0))
        assert idx == 0
        som2 = make_map([[5.0, 5.0], [1.0, 1.0], [1.0, 1.0]], 1, 3)
        idx2, dist2 = find_bmu(som2, (1.0, 1.0))
        assert idx2 == 1
        assert dist2 == 0.0

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            w = rng.uniform(-5, 5, size=(36, rng.integers(1, 6)))
            som = make_map(w, 6, 6)
            x = rng.uniform(-5, 5, size=w.shape[1])
            idx, dist = find_bmu(som, x)
            oidx, odist = oracle_bmu(w, x)
            assert idx == oidx
            assert dist == odist

    def test_dimension_mismatch(self):
        som = make_map([[0.0, 0.0]], 1, 1)
        with pytest.raises(ValueError, match="dimension mismatch"):
            find_bmu(som, (1.0, 2.0, 3.0))


class TestFindBmus:
    def test_matches_find_bmu_row_by_row(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            dim = int(rng.integers(1, 6))
            # Small integers make exact ties between nodes common.
            w = rng.integers(-2, 3, size=(12, dim)).astype(np.float64)
            som = make_map(w, 3, 4)
            data = rng.integers(-3, 4, size=(40, dim)).astype(np.float64)
            idx, dist = find_bmus(som, data)
            assert (idx.dtype, dist.dtype) == (np.int64, np.float64)
            assert idx.shape == dist.shape == (40,)
            rows = [find_bmu(som, x) for x in data]
            assert list(zip(idx.tolist(), dist.tolist())) == rows
            assert float(dist.mean()) == quantization_error(som, data)

    def test_one_dimensional_input_for_a_one_feature_map(self):
        som = make_map([[0.0], [4.0]], 1, 2)
        idx, dist = find_bmus(som, [1.0, 3.0, 2.0])
        assert idx.tolist() == [0, 1, 0]
        assert dist.tolist() == [1.0, 1.0, 2.0]

    def test_messages(self):
        som = make_map([[0.0, 0.0]], 1, 1)
        with pytest.raises(ValueError, match=r"^dimension mismatch: expected 2, got 3$"):
            find_bmus(som, np.ones((2, 3)))
        with pytest.raises(ValueError, match=r"^dimension mismatch: expected 2, got 3$"):
            find_bmu(som, (1.0, 2.0, 3.0))
        with pytest.raises(ValueError, match=r"^dimension mismatch: expected 2, got 3$"):
            quantization_error(som, np.ones((2, 3)))
        with pytest.raises(ValueError, match=r"^feature data contains non-finite values$"):
            find_bmus(som, [(0.0, np.nan)])
        with pytest.raises(ValueError, match=r"^data is empty$"):
            quantization_error(som, np.empty((0, 2)))
        idx, dist = find_bmus(som, np.empty((0, 2)))
        assert idx.shape == dist.shape == (0,)

    def test_every_search_goes_through_the_backend_at_call_time(self, monkeypatch):
        # Wrapping _backend.bmu_batch after import must see every winner
        # search that the library and the anomaly layer make.
        calls = []
        search = _backend.bmu_batch

        def counted(weights, xs):
            calls.append(xs.shape[0])
            return search(weights, xs)

        monkeypatch.setattr(_backend, "bmu_batch", counted)
        som = make_map([[0.0, 0.0], [1.0, 1.0]], 1, 2)
        data = np.array([[0.1, 0.0], [0.9, 1.0], [3.0, 3.0]])
        find_bmu(som, data[0])
        find_bmus(som, data)
        quantization_error(som, data)
        baseline = anomaly.calibrate(som, data, 50.0)
        anomaly.residuals(baseline, data)
        anomaly.evaluate(baseline, Dataset(vectors=data, labels=np.array([False, False, True])))
        assert calls == [1, 3, 3, 3, 3, 3]


class TestKernel:
    def test_winner_gets_alpha_exactly(self):
        p = GridPosition(2, 3)
        assert kernel(p, p, 0.8, 2.5) == 0.8

    def test_matches_scalar_evaluation(self):
        got = kernel(GridPosition(0, 0), GridPosition(0, 1), 0.5, 1.0)
        assert got == oracle_kernel(0, 0, 0, 1, 0.5, 1.0)
        assert got == pytest.approx(0.3032653298563167, abs=1e-15)

    def test_far_nodes_get_negligible_weight(self):
        got = kernel(GridPosition(0, 0), GridPosition(0, 10), 0.5, 1.0)
        assert got == oracle_kernel(0, 0, 0, 10, 0.5, 1.0)
        assert got < 1e-21  # 0.5 * e^-50 ~ 9.6e-23

    def test_bounds_property(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            alpha = float(rng.uniform(0.01, 1.0))
            sigma = float(rng.uniform(0.5, 8.0))
            c = GridPosition(int(rng.integers(0, 12)), int(rng.integers(0, 12)))
            i = GridPosition(int(rng.integers(0, 12)), int(rng.integers(0, 12)))
            h = kernel(c, i, alpha, sigma)
            assert 0.0 < h <= alpha
            assert (h == alpha) == (c == i)

    def test_numpy_sigma_gives_the_float_result_without_a_warning(self):
        # 2 sigma^2 overflows to inf for sigma 1e200; in numpy scalars that
        # overflow warns, and warnings are errors here.
        c, i = GridPosition(0, 0), GridPosition(0, 1)
        assert kernel(c, i, 0.5, np.float64(1e200)) == kernel(c, i, 0.5, 1e200) == 0.5
        assert (struct.pack("<d", kernel(c, i, 0.5, np.float64(2.0)))
                == struct.pack("<d", kernel(c, i, 0.5, 2.0)))

    def test_invalid_rates_rejected(self):
        p = GridPosition(0, 0)
        with pytest.raises(ValueError):
            kernel(p, p, 0.5, 0.0)
        with pytest.raises(ValueError):
            kernel(p, p, 0.0, 1.0)
        with pytest.raises(ValueError):
            kernel(p, p, 1.5, 1.0)


class TestAdapt:
    def test_full_rate_snaps_winner_onto_stimulus(self):
        # dyadic values keep the arithmetic exact
        rng = np.random.default_rng(5)
        w = rng.integers(-8, 8, size=(9, 3)).astype(np.float64) / 16.0
        som = make_map(w, 3, 3, seed=1)
        x = rng.integers(-8, 8, size=3).astype(np.float64) / 16.0
        out = adapt(som, x, c=4, alpha=1.0, sigma=2.0)
        assert np.array_equal(out.weights[4], x)
        assert out.steps_trained == som.steps_trained + 1

    def test_vanishing_rate_leaves_weights(self):
        som = make_map(np.random.default_rng(0).uniform(-1, 1, (4, 2)), 2, 2)
        out = adapt(som, (0.5, 0.5), c=0, alpha=1e-18, sigma=1.0)
        np.testing.assert_allclose(out.weights, som.weights, atol=1e-15)

    def test_half_kernel_moves_halfway(self):
        som = make_map([[0.0, 0.0]], 1, 1)
        out = adapt(som, (1.0, 1.0), c=0, alpha=0.5, sigma=1.0)
        assert np.array_equal(out.weights, [[0.5, 0.5]])

    def test_matches_per_component_rule(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            w = rng.uniform(-3, 3, size=(12, 4))
            som = make_map(w, 3, 4)
            x = rng.uniform(-3, 3, size=4)
            c = int(rng.integers(0, 12))
            alpha = float(rng.uniform(0.05, 1.0))
            sigma = float(rng.uniform(0.5, 5.0))
            out = adapt(som, x, c, alpha, sigma)
            expected = np.array(oracle_adapt(w.tolist(), x.tolist(), c, alpha, sigma, cols=4))
            # Bit for bit: adapt applies kernel()'s factor, libm's exp included.
            np.testing.assert_array_equal(out.weights.view(np.uint64), expected.view(np.uint64))

    def test_winner_contracts_toward_stimulus(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            w = rng.uniform(-3, 3, size=(16, 3))
            som = make_map(w, 4, 4)
            x = rng.uniform(-3, 3, size=3)
            c, before = find_bmu(som, x)
            out = adapt(som, x, c, float(rng.uniform(0.05, 1.0)), float(rng.uniform(0.5, 4.0)))
            after = float(np.linalg.norm(out.weights[c] - x))
            assert after <= before

    def test_original_map_unchanged(self):
        som = make_map([[0.0, 0.0], [1.0, 1.0]], 1, 2)
        snapshot = som.weights.copy()
        adapt(som, (0.3, 0.3), c=0, alpha=0.5, sigma=1.0)
        assert np.array_equal(som.weights, snapshot)

    def test_invalid_winner_rejected(self):
        som = make_map([[0.0, 0.0]], 1, 1)
        with pytest.raises(ValueError, match="winner index"):
            adapt(som, (0.0, 0.0), c=1, alpha=0.5, sigma=1.0)


class TestSchedule:
    def test_validation(self):
        with pytest.raises(ValueError, match="^ordering_steps must"):
            TrainingSchedule(total_steps=10, sigma_start=2.0, ordering_steps=11)
        with pytest.raises(ValueError, match="^alpha must"):
            TrainingSchedule(total_steps=10, ordering_steps=5, sigma_start=2.0, alpha_end=0.0)
        with pytest.raises(ValueError, match="^widths must"):
            TrainingSchedule(total_steps=10, ordering_steps=5, sigma_start=0.5, sigma_end=1.0)

    def test_left_endpoint_exact(self):
        s = TrainingSchedule(total_steps=2000, sigma_start=5.0)
        assert schedule_at(s, 0) == (s.alpha_start, s.sigma_start)

    def test_stage_boundary_hits_alpha_mid_exactly(self):
        s = TrainingSchedule(total_steps=2000, sigma_start=5.0)
        alpha, sigma = schedule_at(s, s.ordering_steps)
        assert alpha == s.alpha_mid == 0.2
        assert sigma == s.sigma_end

    def test_linear_midpoint(self):
        s = TrainingSchedule(
            total_steps=2000, sigma_start=5.0, ordering_steps=1000,
            alpha_start=0.9, alpha_mid=0.2,
        )
        alpha, _ = schedule_at(s, 500)
        assert alpha == pytest.approx(0.55, abs=1e-15)

    def test_monotone_non_increasing(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            total = int(rng.integers(2, 500))
            ordering = int(rng.integers(0, total + 1))
            a = np.sort(rng.uniform(0.001, 1.0, size=3))
            sg = np.sort(rng.uniform(0.1, 9.0, size=2))
            s = TrainingSchedule(
                total_steps=total, ordering_steps=ordering,
                alpha_start=float(a[2]), alpha_mid=float(a[1]), alpha_end=float(a[0]),
                sigma_start=float(sg[1]), sigma_end=float(sg[0]),
            )
            values = [schedule_at(s, t) for t in range(total)]
            for (a1, s1), (a2, s2) in zip(values, values[1:]):
                assert a2 <= a1
                assert s2 <= s1

    @pytest.mark.parametrize("ordering", [0, 377, 997])
    def test_arrays_match_schedule_at_bit_for_bit(self, ordering):
        s = TrainingSchedule(
            total_steps=997, ordering_steps=ordering, sigma_start=4.3, sigma_end=0.7,
            alpha_start=0.83, alpha_mid=0.29, alpha_end=0.013,
        )
        alphas, sigmas = _schedule_arrays(s)
        expected = np.array([schedule_at(s, t) for t in range(s.total_steps)])
        assert alphas.tobytes() == expected[:, 0].tobytes()
        assert sigmas.tobytes() == expected[:, 1].tobytes()

    def test_step_out_of_range(self):
        s = TrainingSchedule(total_steps=10, sigma_start=2.0, ordering_steps=5)
        with pytest.raises(ValueError):
            schedule_at(s, 10)
        with pytest.raises(ValueError):
            schedule_at(s, -1)

    def test_default_total_steps_is_500_per_unit(self):
        s = TrainingSchedule.default_for(GridShape(10, 10))
        assert s.total_steps == 50_000
        assert s.sigma_start == 5.0
        assert TrainingSchedule.default_for(GridShape(3, 4)).total_steps == 6000

    def test_default_for_tiny_map_stays_valid(self):
        s = TrainingSchedule.default_for(GridShape(1, 1))
        assert s.ordering_steps <= s.total_steps
        assert s.sigma_start >= s.sigma_end


def schedule_of(alpha, sigma):
    return TrainingSchedule(
        total_steps=10, ordering_steps=5,
        alpha_start=alpha, alpha_mid=alpha, alpha_end=alpha, sigma_start=sigma, sigma_end=sigma,
    )


RATE_CALLERS = {
    "schedule": schedule_of,
    "kernel": lambda alpha, sigma: kernel(GridPosition(0, 0), GridPosition(0, 0), alpha, sigma),
    "adapt": lambda alpha, sigma: adapt(make_map([[0.0], [1.0]], 1, 2), (0.5,), 0, alpha, sigma),
}


def smallest_accepted_sigma() -> float:
    """The least double the schedule accepts as a width, by bisection."""

    def accepted(sigma):
        try:
            schedule_of(0.5, sigma)
        except ValueError:
            return False
        return True

    lo, hi = 0.0, 1.0
    while math.nextafter(lo, hi) < hi:
        mid = (lo + hi) / 2
        lo, hi = (lo, mid) if accepted(mid) else (mid, hi)
    return hi


class TestRateRule:
    """One rule on learning rates and widths for every caller. A width must be
    finite, and 2 sigma^2, the denominator of both kernels' factor, must not
    underflow to 0."""

    @pytest.mark.parametrize("caller", RATE_CALLERS)
    @pytest.mark.parametrize("sigma", [1e-200, math.inf, math.nan, 0.0, -1.0])
    def test_bad_sigma_refused(self, caller, sigma):
        with pytest.raises(ValueError, match="^sigma must be finite and large enough"):
            RATE_CALLERS[caller](0.5, sigma)

    @pytest.mark.parametrize("caller", RATE_CALLERS)
    @pytest.mark.parametrize("alpha", [0.0, 1.5, math.nan])
    def test_bad_alpha_refused(self, caller, alpha):
        with pytest.raises(ValueError, match=r"^alpha must lie in \(0, 1\]"):
            RATE_CALLERS[caller](alpha, 1.0)

    def test_width_whose_square_overflows_is_accepted_silently(self):
        # 2 sigma^2 is inf, so every factor is exp(-0) = 1, in both kernels.
        assert schedule_of(0.5, np.float64(1e200)).sigma_end == 1e200

    def test_floor_is_where_two_sigma_squared_underflows(self):
        floor = smallest_accepted_sigma()
        assert floor == pytest.approx(1.1114e-162, rel=1e-4)
        assert 2.0 * floor * floor > 0.0
        assert 2.0 * math.nextafter(floor, 0.0) * math.nextafter(floor, 0.0) == 0.0

    @pytest.mark.parametrize("ulps", [1, 2, 1000, 10**6, 10**12, 2**52])
    def test_schedule_ending_at_the_floor_stays_above_it(self, ulps):
        floor = smallest_accepted_sigma()
        s = TrainingSchedule(
            total_steps=2000, ordering_steps=1999,
            sigma_start=floor + ulps * math.ulp(floor), sigma_end=floor,
        )
        alphas, sigmas = _schedule_arrays(s)
        for alpha, sigma in zip(alphas.tolist(), sigmas.tolist()):
            _check_rates(alpha, sigma)

    @pytest.mark.parametrize("sigma", [1e-160, "floor"])
    def test_tiny_sigma_trains_alike_on_both_backends(self, compiled, monkeypatch, sigma):
        # -d^2 / (2 sigma^2) overflows to -inf off the winner, so every factor
        # there is exp(-inf) = 0, silently, on both backends.
        sigma = smallest_accepted_sigma() if sigma == "floor" else sigma
        data = four_cluster_data(per_cluster=50)
        som = initialize(GridShape(3, 3), 2, bounds_of(data), seed=1)
        schedule = TrainingSchedule(
            total_steps=50, ordering_steps=10, sigma_start=sigma, sigma_end=sigma
        )
        maps = []
        for impl in (compiled, _core_py):
            monkeypatch.setattr(_backend, "run_steps", impl.run_steps)
            monkeypatch.setattr(_backend, "bmu_batch", impl.bmu_batch)
            maps.append(train(som, data, schedule, seed=2)[0].weights)
        assert not np.array_equal(maps[0], som.weights)
        np.testing.assert_array_equal(maps[0].view(np.uint64), maps[1].view(np.uint64))


class TestSelectStimulus:
    def test_singleton_forced(self):
        rng = np.random.default_rng(0)
        data = [(1.0, 2.0)]
        for _ in range(5):
            assert np.array_equal(select_stimulus(data, rng), [1.0, 2.0])

    def test_deterministic_sequence(self):
        data = [(0.0,), (1.0,), (2.0,)]
        first = [select_stimulus(data, np.random.default_rng(42))[0] for _ in range(1)]
        rng_a = np.random.default_rng(42)
        rng_b = np.random.default_rng(42)
        seq_a = [float(select_stimulus(data, rng_a)[0]) for _ in range(10)]
        seq_b = [float(select_stimulus(data, rng_b)[0]) for _ in range(10)]
        assert seq_a == seq_b
        assert first[0] == seq_a[0]

    def test_draws_are_close_to_uniform(self):
        data = np.arange(4, dtype=np.float64).reshape(4, 1)
        rng = np.random.default_rng(123)
        counts = np.zeros(4, dtype=int)
        for _ in range(100_000):
            counts[int(select_stimulus(data, rng)[0])] += 1
        # each frequency within 25% +/- 1.5 percentage points
        assert np.all(counts >= 23_500)
        assert np.all(counts <= 26_500)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            select_stimulus(np.empty((0, 2)), np.random.default_rng(0))


class TestQuantizationError:
    def test_zero_when_data_equals_weights(self):
        w = np.random.default_rng(1).uniform(-2, 2, size=(6, 3))
        som = make_map(w, 2, 3)
        assert quantization_error(som, w.copy()) == 0.0

    def test_pythagorean_single_node(self):
        som = make_map([[0.0, 0.0]], 1, 1)
        assert quantization_error(som, [(3.0, 4.0)]) == 5.0

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            w = rng.uniform(-4, 4, size=(12, 3))
            som = make_map(w, 4, 3)
            data = rng.uniform(-4, 4, size=(30, 3))
            assert quantization_error(som, data) == pytest.approx(
                oracle_qe(w, data), abs=1e-12
            )

    def test_empty_data_rejected(self):
        som = make_map([[0.0]], 1, 1)
        with pytest.raises(ValueError):
            quantization_error(som, np.empty((0, 1)))

    def test_overflowing_distances_rejected(self):
        # As train refuses them, but with no step to name.
        som = initialize(GridShape(2, 2), 2, [(0.0, 1e200), (0.0, 1e200)], seed=1)
        with pytest.raises(ValueError, match=r"^squared distances overflow: the quantization "
                                             r"error is inf; scale the data"):
            quantization_error(som, [(1e200, 0.0), (0.0, 1e200)])


class TestTrain:
    def test_single_stimulus_pulls_every_weight_onto_it(self):
        x0 = np.array([[2.0, -1.0]])
        som = initialize(GridShape(5, 5), 2, [(-5.0, 5.0)] * 2, seed=3)
        schedule = TrainingSchedule(
            total_steps=2000, ordering_steps=1000, sigma_start=50.0, sigma_end=50.0
        )
        trained, report = train(som, x0, schedule, seed=4)
        np.testing.assert_allclose(trained.weights, np.tile(x0, (25, 1)), atol=1e-6)
        assert report.final_qe <= report.initial_qe

    def test_zero_steps_is_identity(self):
        som = initialize(GridShape(3, 3), 2, [(0.0, 1.0)] * 2, seed=6)
        schedule = TrainingSchedule(total_steps=0, ordering_steps=0, sigma_start=2.0)
        trained, report = train(som, [(0.5, 0.5)], schedule, seed=1)
        assert np.array_equal(trained.weights, som.weights)
        assert report.steps == 0
        assert report.initial_qe == report.final_qe

    def test_deterministic_given_seed(self):
        data = four_cluster_data()
        schedule = TrainingSchedule(total_steps=3000, sigma_start=5.0)
        som = initialize(GridShape(6, 6), 2, bounds_of(data), seed=42)
        a, _ = train(som, data, schedule, seed=9)
        b, _ = train(som, data, schedule, seed=9)
        assert np.array_equal(a.weights, b.weights)

    def test_qe_history_sampling(self):
        data = four_cluster_data(per_cluster=10)
        som = initialize(GridShape(3, 3), 2, bounds_of(data), seed=1)
        schedule = TrainingSchedule(total_steps=10, ordering_steps=5, sigma_start=2.0)
        trained, report = train(som, data, schedule, qe_sample_every=3, seed=2)
        assert [step for step, _ in report.qe_history] == [0, 3, 6, 9, 10]
        assert report.steps == 10
        assert trained.steps_trained == 10

    def test_early_termination_on_threshold(self):
        data = four_cluster_data(per_cluster=10)
        som = initialize(GridShape(3, 3), 2, bounds_of(data), seed=1)
        schedule = TrainingSchedule(total_steps=1000, ordering_steps=100, sigma_start=2.0)
        trained, report = train(
            som, data, schedule, qe_sample_every=50, qe_threshold=1e9, seed=2
        )
        assert report.steps == 50
        assert trained.steps_trained == 50

    def test_qe_sampling_does_not_change_the_compiled_map(self, compiled, monkeypatch):
        # Sampling splits the steps into one kernel call per interval, and
        # each call starts with its own winner search.
        monkeypatch.setattr(_backend, "run_steps", compiled.run_steps)
        monkeypatch.setattr(_backend, "bmu_batch", compiled.bmu_batch)
        data = four_cluster_data(per_cluster=25)
        som = initialize(GridShape(5, 4), 2, bounds_of(data), seed=3)
        schedule = TrainingSchedule(total_steps=300, ordering_steps=100, sigma_start=2.5)
        maps = [
            train(som, data, schedule, qe_sample_every=every, seed=8)[0].weights
            for every in (1, 7, None)
        ]
        for weights in maps[1:]:
            np.testing.assert_array_equal(weights.view(np.uint64), maps[0].view(np.uint64))

    def test_overflowing_distances_rejected(self, monkeypatch):
        # Finite data whose squared distances to the map overflow to inf.
        data = np.tile([[8e307, 0.0], [-8e307, 1.0]], (25, 1))
        som = initialize(GridShape(3, 3), 2, bounds_of(data), seed=1)
        schedule = TrainingSchedule(total_steps=10, ordering_steps=5, sigma_start=1.0)
        with pytest.raises(ValueError, match="squared distances overflow: .* at step 0 is inf"):
            train(som, data, schedule, seed=1)

        # A later sample that overflows is rejected too.
        def step_far_away(weights, *args):
            weights[:] = 1e200

        monkeypatch.setattr(_backend, "run_steps", step_far_away)
        som = initialize(GridShape(3, 3), 2, [(0.0, 1.0)] * 2, seed=1)
        with pytest.raises(ValueError, match="at step 5 is inf"):
            train(som, [(0.5, 0.5)], schedule, qe_sample_every=5, seed=1)

    def test_threshold_requires_sampling_interval(self):
        som = initialize(GridShape(2, 2), 1, [(0.0, 1.0)], seed=1)
        schedule = TrainingSchedule(total_steps=10, ordering_steps=5, sigma_start=1.0)
        with pytest.raises(ValueError, match="qe_sample_every"):
            train(som, [(0.5,)], schedule, qe_threshold=0.1, seed=1)

    def test_dimension_mismatch_rejected(self):
        som = initialize(GridShape(2, 2), 2, [(0.0, 1.0)] * 2, seed=1)
        schedule = TrainingSchedule(total_steps=10, ordering_steps=5, sigma_start=1.0)
        with pytest.raises(ValueError, match="dimension mismatch"):
            train(som, [(0.5, 0.5, 0.5)], schedule, seed=1)


class TestMapPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        som = initialize(GridShape(4, 5), 3, [(-2.0, 2.0)] * 3, seed=99)
        som2, _ = train(
            som,
            np.random.default_rng(0).uniform(-2, 2, (50, 3)),
            TrainingSchedule(total_steps=500, ordering_steps=100, sigma_start=2.5),
            seed=5,
        )
        path = tmp_path / "m.som"
        save_map(som2, path)
        loaded = load_map(path)
        assert np.array_equal(loaded.weights, som2.weights)
        assert loaded.shape == som2.shape
        assert loaded.seed == som2.seed
        assert loaded.steps_trained == som2.steps_trained
        save_map(loaded, tmp_path / "again.som")
        assert (tmp_path / "again.som").read_bytes() == path.read_bytes()

    def test_truncated_file_rejected(self, tmp_path):
        som = initialize(GridShape(2, 2), 2, [(0.0, 1.0)] * 2, seed=1)
        path = tmp_path / "m.som"
        save_map(som, path)
        path.write_bytes(path.read_bytes()[:-9])
        with pytest.raises(MapFormatError, match="unexpected end of map file"):
            load_map(path)

    @pytest.mark.parametrize("edit, message", [
        pytest.param(lambda blob: blob[:37], "unexpected end of map file", id="short-header"),
        pytest.param(lambda blob: blob[:10] + bytes(4) + blob[14:],
                     r"invalid map header \(rows=0, cols=2, dim=2\)", id="rows-0"),
        pytest.param(lambda blob: blob[:14] + bytes(4) + blob[18:],
                     r"invalid map header \(rows=2, cols=0, dim=2\)", id="cols-0"),
        pytest.param(lambda blob: blob[:18] + bytes(4) + blob[22:],
                     r"invalid map header \(rows=2, cols=2, dim=0\)", id="dim-0"),
        pytest.param(lambda blob: blob[:38] + struct.pack("<d", math.nan) + blob[46:],
                     "map file contains non-finite weights", id="nan-weight"),
    ])
    def test_malformed_file_refused(self, tmp_path, edit, message):
        # The header is 38 bytes: magic, then version, rows, cols and dim as
        # uint32 from byte 6, then seed and steps; the weights follow.
        som = initialize(GridShape(2, 2), 2, [(0.0, 1.0)] * 2, seed=1)
        path = tmp_path / "m.som"
        save_map(som, path)
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(MapFormatError, match=message):
            load_map(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "m.som"
        path.write_bytes(b"GARBAGE!" * 16)
        with pytest.raises(MapFormatError, match="bad magic"):
            load_map(path)

    def test_version_mismatch_rejected(self, tmp_path):
        som = initialize(GridShape(2, 2), 2, [(0.0, 1.0)] * 2, seed=1)
        path = tmp_path / "m.som"
        save_map(som, path)
        blob = bytearray(path.read_bytes())
        blob[6] = 99  # version field
        path.write_bytes(bytes(blob))
        with pytest.raises(MapFormatError, match="version"):
            load_map(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        som = initialize(GridShape(2, 2), 2, [(0.0, 1.0)] * 2, seed=1)
        path = tmp_path / "m.som"
        save_map(som, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(MapFormatError, match="trailing"):
            load_map(path)

    def test_artifact_set_refuses_two_files_for_one_path(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ValueError, match=r"two files to be written to \./a"):
            with ArtifactSet() as files:
                files.stage("a", b"first")
                files.stage("./a", b"second")
        assert os.listdir(tmp_path) == []

    def test_concurrent_writers_leave_one_whole_payload(self, tmp_path):
        path = tmp_path / "out.bin"
        payloads = [bytes([i]) * 65536 for i in (1, 2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                barrier = threading.Barrier(len(payloads))
                errors = []

                def writer(payload):
                    barrier.wait(timeout=10)
                    try:
                        write_atomic(path, payload)
                    except OSError as exc:
                        errors.append(exc)

                threads = [threading.Thread(target=writer, args=(p,)) for p in payloads]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                assert not any(t.is_alive() for t in threads)
                assert errors == []
                assert path.read_bytes() in payloads
                assert os.listdir(tmp_path) == ["out.bin"]
        finally:
            sys.setswitchinterval(interval)
