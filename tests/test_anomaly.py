import numpy as np
import pytest

from conftest import bounds_of, oracle_nearest_rank
from netsom.anomaly import (
    AnomalyBaseline,
    baseline_from_json_dict,
    baseline_to_json_dict,
    calibrate,
    evaluate,
    render_verdicts,
    residuals,
)
from netsom.core import SomMap, TrainingSchedule, initialize, train
from netsom.dataio import Dataset
from netsom.grid import GridShape


def single_node_map(weight=(0.0,)):
    return SomMap(GridShape(1, 1), np.asarray([weight], dtype=np.float64), seed=0)


class TestCalibrate:
    def test_constant_residuals(self):
        som = single_node_map((0.0, 0.0))
        points = [(2.0, 0.0), (0.0, 2.0), (-2.0, 0.0), (0.0, -2.0)]
        for pct in (1.0, 50.0, 99.0, 100.0):
            assert calibrate(som, points, pct).threshold == 2.0

    def test_nearest_rank_percentile(self):
        som = single_node_map()
        residuals_1_to_10 = [(float(v),) for v in range(1, 11)]
        baseline = calibrate(som, residuals_1_to_10, 90.0)
        assert baseline.threshold == 9.0  # ceil(0.9 * 10) = 9th of sorted
        assert baseline.threshold == oracle_nearest_rank(range(1, 11), 90.0)
        assert baseline.calibration_size == 10

    def test_percentile_100_is_max(self):
        som = single_node_map()
        rng = np.random.default_rng(0)
        data = rng.uniform(0, 9, size=(25, 1))
        baseline = calibrate(som, data, 100.0)
        assert baseline.threshold == np.abs(data).max()

    def test_matches_nearest_rank_oracle(self):
        som = single_node_map()
        rng = np.random.default_rng(13)
        for _ in range(25):
            data = rng.uniform(0.0, 5.0, size=(int(rng.integers(1, 40)), 1))
            pct = float(rng.uniform(0.5, 100.0))
            expected = oracle_nearest_rank(np.abs(data[:, 0]), pct)
            assert calibrate(som, data, pct).threshold == expected

    def test_invalid_inputs(self):
        som = single_node_map()
        with pytest.raises(ValueError, match="percentile"):
            calibrate(som, [(1.0,)], 0.0)
        with pytest.raises(ValueError, match="percentile"):
            calibrate(som, [(1.0,)], 100.5)
        with pytest.raises(ValueError, match="empty"):
            calibrate(som, np.empty((0, 1)), 99.0)


class TestScore:
    def test_exact_weight_is_normal(self):
        som = single_node_map((1.0, 2.0))
        baseline = AnomalyBaseline(som, threshold=0.5, threshold_percentile=99.0, calibration_size=1)
        bmu, residual, flagged = residuals(baseline, [(1.0, 2.0)])
        assert residual.tolist() == [0.0]
        assert flagged.tolist() == [False]
        assert bmu.tolist() == [0]

    def test_boundary_counts_as_normal(self):
        som = single_node_map((0.0, 0.0))
        baseline = AnomalyBaseline(som, threshold=5.0, threshold_percentile=99.0, calibration_size=1)
        _, residual, flagged = residuals(baseline, [(3.0, 4.0)])
        assert residual.tolist() == [5.0]
        assert flagged.tolist() == [False]

    def test_pythagorean_anomaly(self):
        som = single_node_map((0.0, 0.0))
        baseline = AnomalyBaseline(som, threshold=1.0, threshold_percentile=99.0, calibration_size=1)
        _, residual, flagged = residuals(baseline, [(3.0, 4.0)])
        assert residual.tolist() == [5.0]
        assert flagged.tolist() == [True]

    def test_dimension_mismatch(self):
        som = single_node_map((0.0, 0.0))
        baseline = AnomalyBaseline(som, threshold=1.0, threshold_percentile=99.0, calibration_size=1)
        with pytest.raises(ValueError, match="dimension mismatch"):
            residuals(baseline, [(1.0,)])


class TestMonotonicity:
    def test_percentile_never_lowers_threshold(self):
        som = single_node_map()
        data = np.random.default_rng(3).uniform(0, 10, size=(50, 1))
        thresholds = [calibrate(som, data, p).threshold for p in np.linspace(1, 100, 34)]
        assert all(b >= a for a, b in zip(thresholds, thresholds[1:]))

    def test_raising_threshold_never_flags_more(self):
        som = single_node_map()
        xs = np.random.default_rng(4).uniform(0, 10, size=(40, 1))
        low = AnomalyBaseline(som, 2.0, 50.0, 10)
        high = AnomalyBaseline(som, 6.0, 90.0, 10)
        _, _, flagged_low = residuals(low, xs)
        _, _, flagged_high = residuals(high, xs)
        assert flagged_low.any() and not flagged_low.all()
        assert not np.any(flagged_high & ~flagged_low)

    def test_percentile_100_classifies_all_calibration_normal(self):
        rng = np.random.default_rng(6)
        data = rng.normal(0, 1, size=(200, 2))
        som = initialize(GridShape(4, 4), 2, bounds_of(data), seed=2)
        baseline = calibrate(som, data, 100.0)
        _, _, flagged = residuals(baseline, data)
        assert not flagged.any()


class TestEvaluate:
    def _baseline(self):
        return AnomalyBaseline(single_node_map(), 1.0, 99.0, 10)

    def test_all_correct(self):
        ds = Dataset(
            vectors=np.array([[0.1], [0.2], [5.0], [7.0]]),
            labels=np.array([False, False, True, True]),
        )
        summary = evaluate(self._baseline(), ds)
        assert summary.detection_rate == 1.0
        assert summary.false_positive_rate == 0.0
        assert (summary.true_positives, summary.true_negatives) == (2, 2)

    def test_counting_arithmetic(self):
        # 10 anomalies, 8 flagged; 90 normals, 3 flagged
        vectors = np.concatenate(
            [
                np.full((8, 1), 2.0),   # anomalous, flagged (TP)
                np.full((2, 1), 0.5),   # anomalous, missed (FN)
                np.full((3, 1), 2.0),   # normal, flagged (FP)
                np.full((87, 1), 0.5),  # normal, quiet (TN)
            ]
        )
        labels = np.concatenate([np.ones(10, bool), np.zeros(90, bool)])
        summary = evaluate(self._baseline(), Dataset(vectors=vectors, labels=labels))
        assert (
            summary.true_positives,
            summary.false_positives,
            summary.true_negatives,
            summary.false_negatives,
        ) == (8, 3, 87, 2)
        assert summary.detection_rate == 8 / 10
        assert summary.false_positive_rate == 3 / 90

    def test_residual_at_threshold_is_not_flagged(self):
        # Residual 1.0 equals the threshold: normal, as in residuals, so the
        # anomalous row is missed (FN) and the normal rows stay quiet (TN).
        baseline = self._baseline()
        vectors = np.array([[1.0], [-1.0], [1.0]])
        _, residual, flagged = residuals(baseline, vectors)
        assert list(zip(residual.tolist(), flagged.tolist())) == [(1.0, False)] * 3
        summary = evaluate(baseline, Dataset(vectors=vectors, labels=np.array([True, False, False])))
        assert (
            summary.true_positives,
            summary.false_positives,
            summary.true_negatives,
            summary.false_negatives,
        ) == (0, 0, 2, 1)

    def test_degenerate_no_anomalous_labels(self):
        ds = Dataset(vectors=np.array([[0.1], [5.0]]), labels=np.array([False, False]))
        summary = evaluate(self._baseline(), ds)
        assert summary.no_anomalous_labels
        assert summary.detection_rate == 0.0
        assert summary.false_positive_rate == 0.5

    def test_unlabeled_rejected(self):
        with pytest.raises(ValueError, match="no labels"):
            evaluate(self._baseline(), Dataset(vectors=np.array([[1.0]])))

    def test_dimension_mismatch(self):
        # One message on either backend, as in calibrate and residuals.
        som = SomMap(GridShape(3, 3), np.zeros((9, 4)), seed=0)
        ds = Dataset(vectors=np.ones((2, 3)), labels=np.array([False, True]))
        with pytest.raises(ValueError, match=r"^dimension mismatch: expected 4, got 3$"):
            evaluate(AnomalyBaseline(som, 1.0, 99.0, 10), ds)


class TestResiduals:
    def _trained_baseline(self):
        rng = np.random.default_rng(77)
        data = rng.normal(0.0, 1.0, size=(300, 3))
        som = initialize(GridShape(4, 4), 3, bounds_of(data), seed=5)
        trained, _ = train(som, data, TrainingSchedule.default_for(som.shape), seed=6)
        return calibrate(trained, data, 90.0), rng

    def test_agrees_with_evaluate_and_calibrate(self):
        baseline, rng = self._trained_baseline()
        data = rng.normal(0.0, 1.5, size=(250, 3))
        labels = rng.random(250) < 0.3
        bmu, residual, flagged = residuals(baseline, data)
        assert (bmu.dtype, residual.dtype, flagged.dtype) == (np.int64, np.float64, bool)
        assert bmu.shape == residual.shape == flagged.shape == (250,)
        assert 0 < flagged.sum() < 250

        summary = evaluate(baseline, Dataset(vectors=data, labels=labels))
        assert (
            summary.true_positives,
            summary.false_positives,
            summary.true_negatives,
            summary.false_negatives,
        ) == (
            int(np.sum(flagged & labels)),
            int(np.sum(flagged & ~labels)),
            int(np.sum(~flagged & ~labels)),
            int(np.sum(~flagged & labels)),
        )

        for pct in (0.5, 10.0, 50.0, 99.0, 100.0):
            rebuilt = calibrate(baseline.map, data, pct)
            assert rebuilt.threshold == oracle_nearest_rank(residual, pct)
            assert rebuilt.calibration_size == 250

    def test_verdict_fields_are_python_scalars(self):
        # A numpy scalar would print as np.float64(...) in the verdict CSV.
        baseline, rng = self._trained_baseline()
        bmu, residual, flagged = residuals(baseline, rng.normal(0.0, 3.0, size=(20, 3)))
        assert set(flagged.tolist()) == {False, True}
        text = render_verdicts(bmu, residual, flagged)
        assert "np." not in text
        expected = [f"{i},{b},{r!r},{str(f).lower()}" for i, (b, r, f)
                    in enumerate(zip(bmu.tolist(), residual.tolist(), flagged.tolist()))]
        assert text.splitlines()[1:] == expected

    def test_residual_equal_to_threshold_is_not_flagged(self):
        baseline = AnomalyBaseline(single_node_map((0.0, 0.0)), 5.0, 99.0, 1)
        bmu, residual, flagged = residuals(baseline, [(3.0, 4.0), (0.0, -5.0), (3.0, 4.5)])
        assert bmu.tolist() == [0, 0, 0]
        assert residual.tolist()[:2] == [5.0, 5.0]
        assert flagged.tolist() == [False, False, True]

    def test_messages(self):
        baseline = AnomalyBaseline(single_node_map((0.0, 0.0)), 1.0, 99.0, 1)
        with pytest.raises(ValueError, match=r"^dimension mismatch: expected 2, got 3$"):
            residuals(baseline, np.ones((4, 3)))
        with pytest.raises(ValueError, match=r"^dimension mismatch: expected 2, got 3$"):
            calibrate(baseline.map, np.ones((4, 3)), 99.0)
        with pytest.raises(ValueError, match=r"^calibration set is empty$"):
            calibrate(baseline.map, np.empty((0, 2)), 99.0)
        with pytest.raises(ValueError, match=r"^labeled dataset is empty$"):
            evaluate(baseline, Dataset(vectors=np.empty((0, 2)), labels=np.empty(0, bool)))
        bmu, residual, flagged = residuals(baseline, np.empty((0, 2)))
        assert bmu.shape == residual.shape == flagged.shape == (0,)
        assert render_verdicts(bmu, residual, flagged) == "index,bmu,residual,is_anomalous\n"


class TestVerdictCsv:
    def test_exact_format(self):
        som = single_node_map((0.0, 0.0))
        baseline = AnomalyBaseline(som, 1.0, 99.0, 1)
        text = render_verdicts(*residuals(baseline, [(0.5, 0.0), (3.0, 4.0)]))
        assert text == "index,bmu,residual,is_anomalous\n0,0,0.5,false\n1,0,5.0,true\n"

    def test_row_order_is_input_order(self):
        som = single_node_map((0.0,))
        baseline = AnomalyBaseline(som, 10.0, 99.0, 1)
        text = render_verdicts(*residuals(baseline, [(3.0,), (1.0,), (2.0,)]))
        assert text.splitlines()[1:] == ["0,0,3.0,false", "1,0,1.0,false", "2,0,2.0,false"]


class TestBaselineJson:
    def test_round_trip(self):
        som = single_node_map()
        baseline = AnomalyBaseline(som, 1.25, 97.5, 42)
        again = baseline_from_json_dict(baseline_to_json_dict(baseline), som)
        assert again == baseline

    def test_version_check(self):
        som = single_node_map()
        with pytest.raises(ValueError, match="format version"):
            baseline_from_json_dict({"format_version": 3, "threshold": 1.0}, som)

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -1.0])
    def test_threshold_must_be_finite_and_nonnegative(self, threshold):
        som = single_node_map()
        payload = baseline_to_json_dict(AnomalyBaseline(som, 1.25, 97.5, 42))
        payload["threshold"] = threshold
        with pytest.raises(ValueError, match="threshold must be finite and nonnegative"):
            baseline_from_json_dict(payload, som)

    def test_missing_field_rejected(self):
        som = single_node_map()
        payload = baseline_to_json_dict(AnomalyBaseline(som, 1.25, 97.5, 42))
        del payload["calibration_size"]
        with pytest.raises(ValueError, match="malformed baseline record"):
            baseline_from_json_dict(payload, som)

    @pytest.mark.parametrize(
        "field, value, kind",
        [
            ("format_version", True, "an integer"),
            ("calibration_size", 2.7, "an integer"),
            ("calibration_size", "12", "an integer"),
            ("calibration_size", True, "an integer"),
            ("threshold", True, "a number"),
            ("threshold", "1.25", "a number"),
            pytest.param("threshold", 10**400, "a number", id="threshold-int-beyond-float"),
            ("percentile", "97.5", "a number"),
            ("percentile", None, "a number"),
        ],
    )
    def test_field_of_wrong_kind_rejected(self, field, value, kind):
        som = single_node_map()
        payload = baseline_to_json_dict(AnomalyBaseline(som, 1.25, 97.5, 42))
        payload[field] = value
        with pytest.raises(ValueError, match=f"malformed baseline record: '{field}' must be {kind}"):
            baseline_from_json_dict(payload, som)

    @pytest.mark.parametrize("payload", ["x", [1], None])
    def test_non_object_rejected(self, payload):
        with pytest.raises(ValueError, match="expected a JSON object"):
            baseline_from_json_dict(payload, single_node_map())


class TestSyntheticDetection:
    def test_far_cluster_flagged_held_out_normal_quiet(self):
        rng = np.random.default_rng(1000)
        normal_train = rng.normal((0.0, 0.0), 1.0, size=(500, 2))
        normal_held = rng.normal((0.0, 0.0), 1.0, size=(500, 2))
        far = rng.normal((20.0, 20.0), 1.0, size=(500, 2))
        som = initialize(GridShape(10, 10), 2, bounds_of(normal_train), seed=100)
        trained, _ = train(
            som, normal_train, TrainingSchedule.default_for(som.shape), seed=200
        )
        baseline = calibrate(trained, normal_train, 99.0)
        detection = np.mean(residuals(baseline, far)[2])
        fpr = np.mean(residuals(baseline, normal_held)[2])
        assert detection >= 0.95
        assert fpr <= 0.05
