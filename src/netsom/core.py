"""Incremental self-organising map training engine.

Training runs the classic competitive-learning cycle: draw one stimulus,
find the best matching unit (the node whose weight vector is nearest in
Euclidean distance), then pull every node toward the stimulus by a Gaussian
neighborhood factor. The learning rate and neighborhood width both decay
monotonically over two stages: a global-ordering stage that lays out the
map's rough topography, then a long fine-tuning stage of small local
adjustments.

One training *step* presents exactly one input vector (elsewhere sometimes
called an epoch); the default step budget is 500 steps per map unit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from netsom import _backend, _core_py
from netsom.grid import GridPosition, GridShape

STEPS_PER_UNIT_DEFAULT = 500
ORDERING_STEPS_DEFAULT = 1000
ALPHA_START_DEFAULT = 0.9
ALPHA_MID_DEFAULT = 0.2
ALPHA_END_DEFAULT = 0.01
SIGMA_END_DEFAULT = 1.0

_MAX_SEED = 2**64


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Validate one input vector: 1-D, float64, finite, optionally of ``dim``."""
    v = np.ascontiguousarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D feature vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("feature vector contains non-finite values")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {v.shape[0]}")
    return v


def as_matrix(data, dim: int | None = None) -> np.ndarray:
    """Validate a batch of input vectors as a (n_rows, dim) float64 matrix."""
    m = np.ascontiguousarray(data, dtype=np.float64)
    if m.ndim == 1 and dim == 1:
        m = m.reshape(-1, 1)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D batch of feature vectors, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("feature data contains non-finite values")
    if dim is not None and m.shape[1] != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {m.shape[1]}")
    return m


@dataclass(frozen=True)
class SomMap:
    """A map: one weight vector per lattice node, plus its provenance.

    ``weights`` is (node_count, dim) float64 in row-major node order. Treat a
    map as immutable; training and adaptation return new instances.
    """

    shape: GridShape
    weights: np.ndarray
    seed: int
    steps_trained: int = 0

    def __post_init__(self) -> None:
        w = np.ascontiguousarray(self.weights, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] != self.shape.node_count:
            raise ValueError(
                f"weights must be ({self.shape.node_count}, dim), got {w.shape}"
            )
        if w.shape[1] < 1:
            raise ValueError("map dimension must be at least 1")
        if not np.all(np.isfinite(w)):
            raise ValueError("map weights must be finite")
        if not 0 <= self.seed < _MAX_SEED:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if self.steps_trained < 0:
            raise ValueError("steps_trained must be nonnegative")
        object.__setattr__(self, "weights", w)

    @property
    def dim(self) -> int:
        return int(self.weights.shape[1])


@dataclass(frozen=True)
class TrainingSchedule:
    """Piecewise-linear decay of learning rate and neighborhood width.

    During the ordering stage (steps 0..ordering_steps) alpha falls linearly
    from ``alpha_start`` to ``alpha_mid`` and sigma from ``sigma_start`` to
    ``sigma_end``; for the remaining steps alpha falls from ``alpha_mid`` to
    ``alpha_end`` while sigma holds at ``sigma_end``.
    """

    total_steps: int
    sigma_start: float
    ordering_steps: int = ORDERING_STEPS_DEFAULT
    alpha_start: float = ALPHA_START_DEFAULT
    alpha_mid: float = ALPHA_MID_DEFAULT
    alpha_end: float = ALPHA_END_DEFAULT
    sigma_end: float = SIGMA_END_DEFAULT

    def __post_init__(self) -> None:
        if self.total_steps < 0:
            raise ValueError("total_steps must be nonnegative")
        if not 0 <= self.ordering_steps <= self.total_steps:
            raise ValueError("ordering_steps must lie in [0, total_steps]")
        if not 0.0 < self.alpha_end <= self.alpha_mid <= self.alpha_start <= 1.0:
            raise ValueError(
                "learning rates must satisfy 0 < alpha_end <= alpha_mid <= alpha_start <= 1"
            )
        if not 0.0 < self.sigma_end <= self.sigma_start:
            raise ValueError("widths must satisfy 0 < sigma_end <= sigma_start")

    @classmethod
    def default_for(
        cls,
        shape: GridShape,
        total_steps: int | None = None,
        sigma_end: float = SIGMA_END_DEFAULT,
    ) -> "TrainingSchedule":
        """Defaults for a shape: 500 steps per map unit, sigma from half the
        longer side (but at least ``sigma_end``) down to ``sigma_end``,
        ordering stage of 1000 steps (clamped)."""
        if total_steps is None:
            total_steps = STEPS_PER_UNIT_DEFAULT * shape.node_count
        return cls(
            total_steps=total_steps,
            sigma_start=max(max(shape.rows, shape.cols) / 2.0, sigma_end),
            ordering_steps=min(ORDERING_STEPS_DEFAULT, total_steps),
            sigma_end=sigma_end,
        )


@dataclass(frozen=True)
class TrainingReport:
    """Outcome of one training run.

    ``qe_history`` holds (step, quantization_error) samples including the
    initial state at step 0 and the final state.
    """

    steps: int
    initial_qe: float
    final_qe: float
    qe_history: tuple[tuple[int, float], ...] = field(default=())

    def __post_init__(self) -> None:
        if self.steps < 0 or self.initial_qe < 0.0 or self.final_qe < 0.0:
            raise ValueError("report fields must be nonnegative")


def initialize(shape: GridShape, dim: int, data_bounds, seed: int) -> SomMap:
    """Create a map whose weights are drawn uniformly inside per-dimension
    bounds. Identical arguments give a bit-identical map."""
    if dim < 1:
        raise ValueError("dim must be at least 1")
    bounds = np.asarray(data_bounds, dtype=np.float64)
    if bounds.shape != (dim, 2):
        raise ValueError(f"data_bounds must be {dim} (min, max) pairs, got shape {bounds.shape}")
    if not np.all(np.isfinite(bounds)):
        raise ValueError("data_bounds must be finite")
    lo, hi = bounds[:, 0], bounds[:, 1]
    bad = np.nonzero(lo > hi)[0]
    if bad.size:
        raise ValueError(f"min > max in dimension {int(bad[0])}")
    if not 0 <= seed < _MAX_SEED:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    rng = np.random.default_rng(seed)
    weights = rng.uniform(lo, hi, size=(shape.node_count, dim))
    return SomMap(shape=shape, weights=weights, seed=seed, steps_trained=0)


def find_bmu(som: SomMap, x) -> tuple[int, float]:
    """Winner node for input ``x``: index of the node with the smallest
    Euclidean distance to ``x``, ties to the lowest index. Returns
    (index, distance)."""
    v = as_vector(x, som.dim)
    idx, dist = _backend.bmu_batch(som.weights, v.reshape(1, -1))
    return int(idx[0]), float(dist[0])


def kernel(c: GridPosition, i: GridPosition, alpha: float, sigma: float) -> float:
    """Gaussian neighborhood factor for node ``i`` when ``c`` wins:
    ``alpha * exp(-||r_c - r_i||^2 / (2 sigma^2))``."""
    _check_rates(alpha, sigma)
    dr = c.row - i.row
    dc = c.col - i.col
    lat2 = float(dr * dr + dc * dc)
    return alpha * math.exp(-lat2 / (2.0 * sigma * sigma))


def adapt(som: SomMap, x, c: int, alpha: float, sigma: float) -> SomMap:
    """Pull every node toward ``x``: w_i <- w_i + h_ci (x - w_i), where h_ci
    is the Gaussian factor of the node's lattice distance to winner ``c``.
    All updates read the pre-step weights."""
    v = as_vector(x, som.dim)
    if not 0 <= c < som.shape.node_count:
        raise ValueError(f"winner index {c} out of range for {som.shape.node_count} nodes")
    _check_rates(alpha, sigma)
    w = som.weights.copy()
    _core_py.pull(w, v - w, c, alpha, sigma, _core_py.node_coords(w.shape[0], som.shape.cols))
    return replace(som, weights=w, steps_trained=som.steps_trained + 1)


def schedule_at(schedule: TrainingSchedule, t: int) -> tuple[float, float]:
    """Learning rate and neighborhood width at step ``t``."""
    if not 0 <= t < schedule.total_steps:
        raise ValueError(f"step {t} outside [0, {schedule.total_steps})")
    alpha, sigma = _schedule_values(schedule, np.array([t]))
    return float(alpha[0]), float(sigma[0])


def select_stimulus(training_set, rng: np.random.Generator) -> np.ndarray:
    """Draw one training vector uniformly at random, with replacement."""
    data = as_matrix(training_set)
    if data.shape[0] == 0:
        raise ValueError("training set is empty")
    return data[int(rng.integers(0, data.shape[0]))]


def quantization_error(som: SomMap, data) -> float:
    """Mean distance from each vector in ``data`` to its best matching unit."""
    m = as_matrix(data, som.dim)
    if m.shape[0] == 0:
        raise ValueError("data is empty")
    _, dist = _backend.bmu_batch(som.weights, m)
    return float(dist.mean())


def train(
    som: SomMap,
    training_set,
    schedule: TrainingSchedule,
    *,
    qe_sample_every: int | None = None,
    qe_threshold: float | None = None,
    seed: int | None = None,
) -> tuple[SomMap, TrainingReport]:
    """Run ``schedule.total_steps`` stimulus/winner/update cycles.

    Quantization error is recorded before the first step, after the last,
    and every ``qe_sample_every`` steps in between. When ``qe_threshold`` is
    given, training stops early at the first sample strictly below it
    (requires ``qe_sample_every``). ``seed`` feeds the stimulus stream and
    defaults to the map's creation seed.

    Returns the trained map and a TrainingReport.
    """
    data = as_matrix(training_set, som.dim)
    if data.shape[0] == 0:
        raise ValueError("training set is empty")
    if qe_sample_every is not None and qe_sample_every < 1:
        raise ValueError("qe_sample_every must be at least 1")
    if qe_threshold is not None and qe_sample_every is None:
        raise ValueError("qe_threshold requires qe_sample_every")
    stimulus_seed = som.seed if seed is None else seed
    rng = np.random.default_rng(stimulus_seed)

    total = schedule.total_steps
    stimuli = np.ascontiguousarray(rng.integers(0, data.shape[0], size=total), dtype=np.int64)
    alphas, sigmas = _schedule_arrays(schedule)
    weights = som.weights.copy()

    def qe_of(w: np.ndarray) -> float:
        return float(_backend.bmu_batch(w, data)[1].mean())

    initial_qe = qe_of(weights)
    history: list[tuple[int, float]] = [(0, initial_qe)]
    final_qe = initial_qe
    done = 0
    chunk = qe_sample_every if qe_sample_every is not None else max(total, 1)
    while done < total:
        end = min(total, done + chunk)
        _backend.run_steps(
            weights, data, stimuli[done:end], alphas[done:end], sigmas[done:end],
            som.shape.cols,
        )
        done = end
        final_qe = qe_of(weights)
        history.append((done, final_qe))
        if qe_threshold is not None and final_qe < qe_threshold:
            break

    trained = replace(som, weights=weights, steps_trained=som.steps_trained + done)
    report = TrainingReport(
        steps=done, initial_qe=initial_qe, final_qe=final_qe, qe_history=tuple(history)
    )
    return trained, report


def _schedule_arrays(schedule: TrainingSchedule) -> tuple[np.ndarray, np.ndarray]:
    """Alpha and sigma at every step of the schedule."""
    return _schedule_values(schedule, np.arange(schedule.total_steps))


def _schedule_values(
    schedule: TrainingSchedule, steps: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Alpha and sigma at each of ``steps``, all in [0, total_steps).

    Each stage interpolates linearly from its first value to its last, so a
    tail step's sigma is ``sigma_end + 0 * frac``, exactly ``sigma_end``.
    """
    s = schedule
    ordering = steps < s.ordering_steps
    stage_start = np.where(ordering, 0, s.ordering_steps)
    stage_len = np.where(ordering, s.ordering_steps, s.total_steps - s.ordering_steps)
    frac = (steps - stage_start) / stage_len

    def lerp(first: float, mid: float, last: float) -> np.ndarray:
        start = np.where(ordering, first, mid)
        end = np.where(ordering, mid, last)
        return start + (end - start) * frac

    alphas = lerp(s.alpha_start, s.alpha_mid, s.alpha_end)
    sigmas = lerp(s.sigma_start, s.sigma_end, s.sigma_end)
    return alphas, sigmas


def _check_rates(alpha: float, sigma: float) -> None:
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if not sigma > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
