#!/usr/bin/env python3
"""Timing comparison of the compiled and pure numpy training kernels.

Run after installing the package:

    python3 benchmarks/bench_backends.py
    python3 benchmarks/bench_backends.py --rows 20 --cols 20 --dim 16 --steps 20000
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from netsom import _core_c, _core_py
from netsom.core import TrainingSchedule, _schedule_arrays
from netsom.grid import GridShape


def best_of(repeat, fn):
    best = float("inf")
    for _ in range(repeat):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def bench(impl, name, args):
    rng = np.random.default_rng(0)
    shape = GridShape(args.rows, args.cols)
    weights = np.ascontiguousarray(
        rng.uniform(0, 1, size=(shape.node_count, args.dim))
    )
    data = np.ascontiguousarray(rng.uniform(0, 1, size=(args.points, args.dim)))
    schedule = TrainingSchedule(
        total_steps=args.steps,
        ordering_steps=min(1000, args.steps),
        sigma_start=max(args.rows, args.cols) / 2.0,
    )
    alphas, sigmas = _schedule_arrays(schedule)
    stimuli = np.ascontiguousarray(
        rng.integers(0, args.points, size=args.steps), dtype=np.int64
    )

    t_bmu = best_of(args.repeat, lambda: impl.bmu_batch(weights, data))

    def one_training_run():
        w = weights.copy()
        impl.run_steps(w, data, stimuli, alphas, sigmas, shape.cols, 0.0)

    t_train = best_of(args.repeat, one_training_run)
    return {"backend": name, "bmu_batch": t_bmu, "train": t_train}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=10)
    parser.add_argument("--cols", type=int, default=10)
    parser.add_argument("--dim", type=int, default=8)
    parser.add_argument("--points", type=int, default=2000)
    parser.add_argument("--steps", type=int, default=50_000)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    results = [bench(_core_py, "python", args)]
    library = _core_c.built_library()
    if library is not None:
        results.append(bench(_core_c.Kernel(library), "compiled", args))
    else:
        print("note: compiled kernel not built; benchmarking pure backend only")

    print(
        f"\nmap {args.rows}x{args.cols}, dim {args.dim}, "
        f"{args.points} points, {args.steps} steps (best of {args.repeat})"
    )
    print(f"{'backend':<10} {'bmu_batch':>12} {'train':>12}")
    for r in results:
        print(f"{r['backend']:<10} {r['bmu_batch']:>11.4f}s {r['train']:>11.4f}s")
    if len(results) == 2:
        py, cy = results
        print(
            f"\nspeedup: bmu_batch x{py['bmu_batch'] / cy['bmu_batch']:.1f}, "
            f"train x{py['train'] / cy['train']:.1f}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
