"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import time

import numpy as np
import pytest

from conftest import (
    bounds_of,
    four_cluster_data,
    oracle_adapt,
    oracle_bmu,
    oracle_kernel,
    oracle_qe,
    oracle_umatrix,
    two_cluster_data,
)
from netsom.anomaly import calibrate, residuals
from netsom.cli import main
from netsom.core import (
    SomMap,
    TrainingSchedule,
    adapt,
    find_bmu,
    initialize,
    kernel,
    quantization_error,
    schedule_at,
    train,
)
from netsom.grid import GridPosition, GridShape
from netsom.mapfile import load_map, save_map
from netsom.umatrix import compute_umatrix


@pytest.fixture(scope="module")
def cluster_training():
    """Seed-fixed 4-cluster experiment shared by criteria 5 and 6."""
    data = four_cluster_data(seed=2024, std=0.3, per_cluster=100)
    som = initialize(GridShape(10, 10), 2, bounds_of(data), seed=42)
    schedule = TrainingSchedule.default_for(som.shape)
    started = time.perf_counter()
    trained, report = train(som, data, schedule, qe_sample_every=10_000, seed=43)
    elapsed = time.perf_counter() - started
    return trained, report, elapsed


def test_01_bmu_oracle_equivalence():
    rng = np.random.default_rng(1001)
    started = time.perf_counter()
    for _ in range(1000):
        rows = int(rng.integers(1, 13))
        cols = int(rng.integers(1, 13))
        dim = int(rng.integers(1, 17))
        weights = rng.uniform(-5.0, 5.0, size=(rows * cols, dim))
        som = SomMap(GridShape(rows, cols), weights, seed=0)
        x = rng.uniform(-5.0, 5.0, size=dim)
        idx, dist = find_bmu(som, x)
        oracle_idx, oracle_dist = oracle_bmu(weights, x)
        assert idx == oracle_idx
        assert dist == oracle_dist
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 01 PASS - BMU matches exhaustive scan on 1000 instances ({elapsed:.2f}s)")


def test_02_update_rule_exactness():
    rng = np.random.default_rng(1002)
    for _ in range(1000):
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(1, 7))
        dim = int(rng.integers(1, 6))
        weights = rng.uniform(-3.0, 3.0, size=(rows * cols, dim))
        som = SomMap(GridShape(rows, cols), weights, seed=0)
        x = rng.uniform(-3.0, 3.0, size=dim)
        c = int(rng.integers(0, rows * cols))
        alpha = float(rng.uniform(0.01, 1.0))
        sigma = float(rng.uniform(0.3, 6.0))
        got = adapt(som, x, c, alpha, sigma).weights
        expected = oracle_adapt(weights.tolist(), x.tolist(), c, alpha, sigma, cols)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
    print("\nACCEPTANCE 02 PASS - 1000 single-step updates match the per-component rule within 1e-12")


def test_03_kernel_exactness():
    rng = np.random.default_rng(1003)
    for _ in range(1000):
        alpha = float(rng.uniform(0.01, 1.0))
        sigma = float(rng.uniform(0.3, 8.0))
        c = GridPosition(int(rng.integers(0, 12)), int(rng.integers(0, 12)))
        assert kernel(c, c, alpha, sigma) == alpha
        i = GridPosition(int(rng.integers(0, 12)), int(rng.integers(0, 12)))
        got = kernel(c, i, alpha, sigma)
        expected = oracle_kernel(c.row, c.col, i.row, i.col, alpha, sigma)
        assert abs(got - expected) <= 1e-15
    print("\nACCEPTANCE 03 PASS - kernel(c,c) = alpha exactly; 1000 random cases within 1e-15")


def test_04_schedule_contract():
    rng = np.random.default_rng(1004)
    for _ in range(100):
        total = int(rng.integers(2, 2000))
        ordering = int(rng.integers(0, total + 1))
        a = np.sort(rng.uniform(0.001, 1.0, size=3))
        s = np.sort(rng.uniform(0.1, 9.0, size=2))
        schedule = TrainingSchedule(
            total_steps=total,
            ordering_steps=ordering,
            alpha_start=float(a[2]), alpha_mid=float(a[1]), alpha_end=float(a[0]),
            sigma_start=float(s[1]), sigma_end=float(s[0]),
        )
        alphas, sigmas = zip(*(schedule_at(schedule, t) for t in range(total)))
        assert all(b <= a_ for a_, b in zip(alphas, alphas[1:]))
        assert all(b <= a_ for a_, b in zip(sigmas, sigmas[1:]))
        assert (alphas[0], sigmas[0]) == (schedule.alpha_start, schedule.sigma_start)
        if 0 < ordering < total:
            assert schedule_at(schedule, ordering) == (schedule.alpha_mid, schedule.sigma_end)
    assert TrainingSchedule.default_for(GridShape(10, 10)).total_steps == 500 * 100
    assert TrainingSchedule.default_for(GridShape(7, 9)).total_steps == 500 * 63
    print("\nACCEPTANCE 04 PASS - 100 random schedules are non-increasing with exact endpoints; default steps = 500 x units")


def test_05_convergence(cluster_training):
    trained, report, elapsed = cluster_training
    assert elapsed < 30.0
    assert report.final_qe <= 0.30 * report.initial_qe
    print(
        f"\nACCEPTANCE 05 PASS - final qe {report.final_qe:.4f} <= 0.30 x initial "
        f"{report.initial_qe:.4f} in {elapsed:.2f}s"
    )


def test_06_topology_preservation(cluster_training):
    trained, _, _ = cluster_training
    w = trained.weights
    rows, cols = trained.shape.rows, trained.shape.cols
    adjacent = []
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            if c + 1 < cols:
                adjacent.append(float(np.linalg.norm(w[i] - w[i + 1])))
            if r + 1 < rows:
                adjacent.append(float(np.linalg.norm(w[i] - w[i + cols])))
    rng = np.random.default_rng(1006)
    non_adjacent = []
    n = trained.shape.node_count
    while len(non_adjacent) < 1000:
        a, b = (int(v) for v in rng.integers(0, n, size=2))
        if a == b:
            continue
        ra, ca = divmod(a, cols)
        rb, cb = divmod(b, cols)
        if abs(ra - rb) + abs(ca - cb) == 1:
            continue
        non_adjacent.append(float(np.linalg.norm(w[a] - w[b])))
    adj_mean = float(np.mean(adjacent))
    non_mean = float(np.mean(non_adjacent))
    assert adj_mean < 0.8 * non_mean  # >= 20% margin
    print(
        f"\nACCEPTANCE 06 PASS - adjacent mean {adj_mean:.3f} < 0.8 x non-adjacent mean {non_mean:.3f}"
    )


def test_07_anomaly_detection_across_seeds():
    shape = GridShape(10, 10)
    schedule = TrainingSchedule.default_for(shape)
    for s in range(5):
        rng = np.random.default_rng(7000 + s)
        normal_train = rng.normal((0.0, 0.0), 1.0, size=(500, 2))
        normal_held = rng.normal((0.0, 0.0), 1.0, size=(500, 2))
        far = rng.normal((20.0, 20.0), 1.0, size=(500, 2))
        som = initialize(shape, 2, bounds_of(normal_train), seed=100 + s)
        trained, _ = train(som, normal_train, schedule, seed=200 + s)
        baseline = calibrate(trained, normal_train, 99.0)
        detection = float(np.mean(residuals(baseline, far)[2]))
        fpr = float(np.mean(residuals(baseline, normal_held)[2]))
        assert detection >= 0.95, f"seed {s}: detection {detection}"
        assert fpr <= 0.05, f"seed {s}: false positive rate {fpr}"
    print("\nACCEPTANCE 07 PASS - detection >= 0.95 and FPR <= 0.05 on all 5 seeds")


def test_08_umatrix_oracle_and_separability():
    rng = np.random.default_rng(1008)
    for _ in range(20):
        weights = rng.uniform(-3.0, 3.0, size=(64, 4))
        som = SomMap(GridShape(8, 8), weights, seed=0)
        got = compute_umatrix(som).values
        expected = oracle_umatrix(weights.tolist(), 8, 8)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    data = two_cluster_data(seed=77, per_cluster=200)
    som = initialize(GridShape(10, 10), 2, bounds_of(data), seed=7)
    trained, _ = train(som, data, TrainingSchedule.default_for(som.shape), seed=8)
    u = compute_umatrix(trained).values
    assert float(u.max()) >= 2.0 * float(np.median(u))
    print(
        f"\nACCEPTANCE 08 PASS - U-Matrix matches oracle within 1e-12; "
        f"ridge max {u.max():.3f} >= 2 x median {np.median(u):.3f}"
    )


def test_09_end_to_end_determinism(tmp_path):
    rng = np.random.default_rng(1009)
    data = rng.normal((0.0, 0.0), 1.0, size=(300, 2))
    csv = tmp_path / "data.csv"
    csv.write_text(
        "a,b\n" + "\n".join(f"{float(x)!r},{float(y)!r}" for x, y in data) + "\n"
    )
    out_a = tmp_path / "a.som"
    out_b = tmp_path / "b.som"
    argv = ["train", "--input", str(csv), "--rows", "8", "--cols", "8", "--seed", "42"]
    assert main(argv + ["--out", str(out_a)]) == 0
    assert main(argv + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()

    som = load_map(out_a)
    again = tmp_path / "resaved.som"
    save_map(som, again)
    assert again.read_bytes() == out_a.read_bytes()
    loaded = load_map(again)
    assert np.array_equal(loaded.weights, som.weights)
    assert (loaded.shape, loaded.seed, loaded.steps_trained) == (
        som.shape, som.seed, som.steps_trained,
    )
    print("\nACCEPTANCE 09 PASS - identical train invocations byte-identical; save/load bit-exact")


def test_10_quantization_error_oracle():
    rng = np.random.default_rng(1010)
    for _ in range(100):
        rows = int(rng.integers(1, 8))
        cols = int(rng.integers(1, 8))
        dim = int(rng.integers(1, 6))
        weights = rng.uniform(-4.0, 4.0, size=(rows * cols, dim))
        som = SomMap(GridShape(rows, cols), weights, seed=0)
        data = rng.uniform(-4.0, 4.0, size=(int(rng.integers(1, 40)), dim))
        got = quantization_error(som, data)
        assert got == pytest.approx(oracle_qe(weights, data), abs=1e-12)
    weights = rng.uniform(-1.0, 1.0, size=(12, 3))
    som = SomMap(GridShape(3, 4), weights, seed=0)
    assert quantization_error(som, weights.copy()) == 0.0
    print("\nACCEPTANCE 10 PASS - quantization error matches double-loop oracle within 1e-12; exact 0 on node weights")
