import numpy as np
import pytest

from conftest import oracle_umatrix
from netsom.core import SomMap
from netsom.grid import GridShape
from netsom.umatrix import UMatrix, compute_umatrix, export_umatrix


def make_map(weights, rows, cols):
    return SomMap(GridShape(rows, cols), np.asarray(weights, dtype=np.float64), seed=0)


class TestComputeUmatrix:
    def test_identical_weights_give_zeros(self):
        som = make_map(np.full((9, 4), 1.5), 3, 3)
        assert np.array_equal(compute_umatrix(som).values, np.zeros(9))

    def test_two_node_pythagorean(self):
        som = make_map([[0.0, 0.0], [3.0, 4.0]], 1, 2)
        assert np.array_equal(compute_umatrix(som).values, [5.0, 5.0])

    def test_single_node_is_zero(self):
        som = make_map([[7.0]], 1, 1)
        assert np.array_equal(compute_umatrix(som).values, [0.0])

    @pytest.mark.parametrize(
        "rows,cols,dim",
        [(1, 1, 3), (1, 7, 4), (7, 1, 4), (5, 6, 1), (8, 8, 5), (40, 40, 41)],
    )
    def test_matches_neighbor_mean_oracle(self, rows, cols, dim):
        # Bit for bit: distances follow the kernel's per-dimension rule.
        rng = np.random.default_rng(31)
        for _ in range(10):
            w = rng.uniform(-3, 3, size=(rows * cols, dim))
            got = compute_umatrix(make_map(w, rows, cols)).values
            assert np.array_equal(got, oracle_umatrix(w.tolist(), rows, cols))

    def test_depends_only_on_the_map(self):
        w = np.random.default_rng(2).uniform(0, 1, size=(12, 3))
        a = SomMap(GridShape(3, 4), w.copy(), seed=1, steps_trained=10)
        b = SomMap(GridShape(3, 4), w.copy(), seed=999, steps_trained=0)
        assert np.array_equal(compute_umatrix(a).values, compute_umatrix(b).values)


class TestExportGridCsv:
    def test_single_value(self):
        u = UMatrix(GridShape(1, 1), np.array([0.0]))
        assert export_umatrix(u, "grid-csv") == b"0.0\n"

    def test_row_major_lines_full_precision(self):
        values = np.array([0.1, 2.0, 1.0 / 3.0, 4.5e-7, 1.25, 9.0])
        u = UMatrix(GridShape(2, 3), values)
        text = export_umatrix(u, "grid-csv").decode("ascii")
        lines = text.splitlines()
        assert len(lines) == 2
        parsed = [float(f) for line in lines for f in line.split(",")]
        assert np.array_equal(parsed, values)


class TestExportPgm:
    def test_degenerate_range_maps_to_zero(self):
        u = UMatrix(GridShape(1, 2), np.array([5.0, 5.0]))
        assert export_umatrix(u, "grayscale-image") == b"P2\n2 1\n255\n0 0\n"

    def test_linear_scale_with_round_half_away(self):
        # 1*255/4 = 63.75 -> 64, 2*255/4 = 127.5 -> 128 (half away from zero)
        u = UMatrix(GridShape(2, 2), np.array([0.0, 1.0, 2.0, 4.0]))
        assert export_umatrix(u, "grayscale-image") == b"P2\n2 2\n255\n0 64\n128 255\n"

    def test_header_shape_is_width_then_height(self):
        u = UMatrix(GridShape(3, 2), np.arange(6, dtype=np.float64))
        lines = export_umatrix(u, "grayscale-image").decode("ascii").splitlines()
        assert lines[0] == "P2"
        assert lines[1] == "2 3"
        assert lines[2] == "255"
        assert len(lines) == 3 + 3

    def test_unknown_format_rejected(self):
        u = UMatrix(GridShape(1, 1), np.array([0.0]))
        with pytest.raises(ValueError, match="unsupported export format"):
            export_umatrix(u, "svg")


class TestUMatrixValidation:
    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            UMatrix(GridShape(2, 2), np.zeros(3))

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            UMatrix(GridShape(1, 2), np.array([0.0, -1.0]))
