import io
import os

import numpy as np
import pytest

from netsom.dataio import (
    CsvFormatError,
    Dataset,
    apply_normalizer,
    fit_normalizer,
    load_csv,
    normalizer_from_json_dict,
    normalizer_to_json_dict,
    save_csv,
    split,
)


class TestLoadCsv:
    def test_header_and_values(self):
        ds = load_csv(b"a,b\n1,2\n3,4")
        assert ds.column_names == ["a", "b"]
        assert np.array_equal(ds.vectors, [[1.0, 2.0], [3.0, 4.0]])
        assert ds.labels is None

    def test_ragged_row_names_row(self):
        with pytest.raises(CsvFormatError, match=r"expected 2 fields, found 1 \(row 2\)"):
            load_csv(b"1,2\n3", has_header=False)

    def test_label_column(self):
        ds = load_csv(b"x,label\n1,normal\n2,anomalous", label_column="label")
        assert ds.dim == 1
        assert ds.column_names == ["x"]
        assert np.array_equal(ds.labels, [False, True])

    def test_label_requires_header(self):
        with pytest.raises(CsvFormatError, match="header"):
            load_csv(b"1,normal\n", has_header=False, label_column="label")

    def test_missing_label_column_named(self):
        with pytest.raises(CsvFormatError, match="'verdict' not found"):
            load_csv(b"a,b\n1,2\n", label_column="verdict")

    def test_bad_label_value_located(self):
        with pytest.raises(CsvFormatError, match=r"row 3, column 2"):
            load_csv(b"x,label\n1,normal\n2,weird\n", label_column="label")

    def test_non_numeric_field_located(self):
        with pytest.raises(CsvFormatError, match=r"not a number: 'oops' \(row 2, column 2\)"):
            load_csv(b"a,b\n1,oops\n")

    def test_nan_and_inf_rejected(self):
        with pytest.raises(CsvFormatError, match="non-finite"):
            load_csv(b"a\nnan\n")
        with pytest.raises(CsvFormatError, match="non-finite"):
            load_csv(b"a\n-inf\n")

    def test_empty_input_rejected(self):
        with pytest.raises(CsvFormatError, match="empty input"):
            load_csv(b"")

    def test_header_only_rejected(self):
        with pytest.raises(CsvFormatError, match="no data rows"):
            load_csv(b"a,b\n")

    def test_crlf_accepted(self):
        ds = load_csv(b"a,b\r\n1,2\r\n3,4\r\n")
        assert np.array_equal(ds.vectors, [[1.0, 2.0], [3.0, 4.0]])

    def test_headerless(self):
        ds = load_csv(b"1.5,2.5\n-3,0.25\n", has_header=False)
        assert ds.column_names is None
        assert np.array_equal(ds.vectors, [[1.5, 2.5], [-3.0, 0.25]])

    def test_reads_path_and_stream(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a\n1\n2\n")
        assert np.array_equal(load_csv(p).vectors, [[1.0], [2.0]])
        with open(p, "rb") as fh:
            assert np.array_equal(load_csv(fh).vectors, [[1.0], [2.0]])


class TestSaveCsv:
    def test_round_trip_preserves_values_exactly(self):
        values = np.array(
            [[0.1, 1.0 / 3.0], [1e-300, 6.02214076e23], [-7.25, 0.0]]
        )
        ds = Dataset(vectors=values, column_names=["p", "q"])
        buf = io.StringIO()
        save_csv(ds, buf)
        again = load_csv(buf.getvalue().encode())
        assert np.array_equal(again.vectors, values)
        assert again.column_names == ["p", "q"]

    def test_labels_round_trip(self):
        ds = Dataset(
            vectors=np.array([[1.0], [2.0]]),
            column_names=["x"],
            labels=np.array([False, True]),
        )
        buf = io.StringIO()
        save_csv(ds, buf)
        again = load_csv(buf.getvalue().encode(), label_column="label")
        assert np.array_equal(again.labels, [False, True])

    def test_failed_write_keeps_existing_file(self, tmp_path, monkeypatch):
        path = tmp_path / "held.csv"
        path.write_bytes(b"old\n")

        def failing_fsync(fd):
            raise OSError("disk full")

        monkeypatch.setattr(os, "fsync", failing_fsync)
        with pytest.raises(OSError, match="disk full"):
            save_csv(Dataset(vectors=np.ones((2, 1))), path)
        assert path.read_bytes() == b"old\n"
        assert os.listdir(tmp_path) == ["held.csv"]


class TestNormalizer:
    def test_minmax_example(self):
        ds = Dataset(vectors=np.array([[0.0], [5.0], [10.0]]))
        out = apply_normalizer(fit_normalizer(ds, "minmax"), ds)
        assert np.array_equal(out.vectors, [[0.0], [0.5], [1.0]])

    def test_zscore_symmetric_example(self):
        ds = Dataset(vectors=np.array([[-1.0], [1.0]]))
        out = apply_normalizer(fit_normalizer(ds, "zscore"), ds)
        assert np.array_equal(out.vectors, [[-1.0], [1.0]])

    def test_zscore_derived_example(self):
        ds = Dataset(vectors=np.array([[0.0], [10.0]]))
        model = fit_normalizer(ds, "zscore")
        out = apply_normalizer(model, Dataset(vectors=np.array([[10.0]])))
        assert out.vectors[0, 0] == 1.0  # (10 - 5) / 5

    @pytest.mark.parametrize("method", ["minmax", "zscore"])
    def test_constant_column_flagged_and_zeroed(self, method):
        ds = Dataset(vectors=np.array([[7.0, 1.0], [7.0, 2.0], [7.0, 3.0]]))
        model = fit_normalizer(ds, method)
        assert model.degenerate.tolist() == [True, False]
        out = apply_normalizer(model, ds)
        assert np.array_equal(out.vectors[:, 0], [0.0, 0.0, 0.0])

    def test_minmax_clamps_out_of_range(self):
        ds = Dataset(vectors=np.array([[0.0], [10.0]]))
        model = fit_normalizer(ds, "minmax")
        out = apply_normalizer(model, Dataset(vectors=np.array([[15.0], [-2.0]])))
        assert np.array_equal(out.vectors, [[1.0], [0.0]])

    def test_none_is_identity(self):
        ds = Dataset(vectors=np.array([[1.0, -2.0], [3.5, 0.0]]))
        out = apply_normalizer(fit_normalizer(ds, "none"), ds)
        assert np.array_equal(out.vectors, ds.vectors)

    def test_minmax_output_stays_in_unit_interval(self):
        rng = np.random.default_rng(4)
        ds = Dataset(vectors=rng.normal(3.0, 10.0, size=(100, 5)))
        out = apply_normalizer(fit_normalizer(ds, "minmax"), ds)
        assert np.all(out.vectors >= 0.0)
        assert np.all(out.vectors <= 1.0)

    def test_dimension_mismatch_rejected(self):
        model = fit_normalizer(Dataset(vectors=np.ones((2, 2))), "minmax")
        with pytest.raises(ValueError, match="dimension mismatch"):
            apply_normalizer(model, Dataset(vectors=np.ones((2, 3))))

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown normalization method"):
            fit_normalizer(Dataset(vectors=np.ones((1, 1))), "robust")

    def test_json_round_trip_exact(self):
        rng = np.random.default_rng(8)
        ds = Dataset(vectors=rng.normal(0, 3, size=(50, 4)))
        for method in ("minmax", "zscore", "none"):
            model = fit_normalizer(ds, method)
            again = normalizer_from_json_dict(normalizer_to_json_dict(model))
            assert again.method == model.method
            assert np.array_equal(again.degenerate, model.degenerate)
            for key, arr in model.stats.items():
                assert np.array_equal(again.stats[key], arr)

    @pytest.mark.parametrize(
        "method, change, message",
        [
            ("minmax", {"stats": {"min": [0.0], "max": [1.0]}}, "must hold 2 finite values"),
            ("minmax", {"stats": {"min": [0.0, 0.0], "max": [1.0, None]}}, "finite values"),
            ("zscore", {"stats": {"mean": [0.0, float("inf")], "stddev": [1.0, 1.0]}},
             "finite values"),
            ("minmax", {"stats": {"min": [0.0, 0.0]}}, "must be exactly"),
            ("none", {"stats": {"min": [0.0, 0.0]}}, "must be exactly"),
            ("minmax", {"dim": 3}, "does not match"),
            ("minmax", {"degenerate": [0, 1]}, "booleans"),
            ("minmax", {"method": "robust"}, "unknown normalization method"),
            ("minmax", {"stats": None}, "malformed"),
        ],
    )
    def test_malformed_json_rejected(self, method, change, message):
        model = fit_normalizer(Dataset(vectors=np.array([[0.0, 2.0], [1.0, 3.0]])), method)
        payload = {**normalizer_to_json_dict(model), **change}
        with pytest.raises(ValueError, match=message):
            normalizer_from_json_dict(payload)

    def test_missing_field_rejected(self):
        payload = normalizer_to_json_dict(fit_normalizer(Dataset(vectors=np.ones((2, 2))), "none"))
        del payload["degenerate"]
        with pytest.raises(ValueError, match="malformed normalizer record"):
            normalizer_from_json_dict(payload)


class TestSplit:
    def _dataset(self, n=10):
        return Dataset(
            vectors=np.arange(n, dtype=np.float64).reshape(n, 1),
            labels=np.arange(n) % 2 == 0,
        )

    def test_everything_to_train(self):
        tr, cal, te = split(self._dataset(), (1.0, 0.0, 0.0), seed=1)
        assert (len(tr), len(cal), len(te)) == (10, 0, 0)

    def test_exact_rounding(self):
        tr, cal, te = split(self._dataset(), (0.8, 0.1, 0.1), seed=1)
        assert (len(tr), len(cal), len(te)) == (8, 1, 1)

    def test_same_seed_same_partitions(self):
        a = split(self._dataset(), (0.6, 0.2, 0.2), seed=5)
        b = split(self._dataset(), (0.6, 0.2, 0.2), seed=5)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.vectors, pb.vectors)
            assert np.array_equal(pa.labels, pb.labels)

    def test_partitions_cover_input_as_multiset(self):
        ds = self._dataset(37)
        parts = split(ds, (0.5, 0.25, 0.25), seed=9)
        merged = np.sort(np.concatenate([p.vectors[:, 0] for p in parts]))
        assert np.array_equal(merged, np.sort(ds.vectors[:, 0]))
        assert sum(len(p) for p in parts) == 37

    def test_labels_follow_rows(self):
        ds = self._dataset(20)
        tr, cal, te = split(ds, (0.5, 0.25, 0.25), seed=2)
        for part in (tr, cal, te):
            for row, lab in zip(part.vectors[:, 0], part.labels):
                assert lab == (int(row) % 2 == 0)

    def test_bad_fractions_rejected(self):
        with pytest.raises(ValueError):
            split(self._dataset(), (0.5, 0.2, 0.2), seed=1)
        with pytest.raises(ValueError):
            split(self._dataset(), (1.2, -0.1, -0.1), seed=1)
        for bad in (float("nan"), float("inf")):
            for position in range(3):
                fractions = [0.8, 0.1, 0.1]
                fractions[position] = bad
                with pytest.raises(ValueError, match="three nonnegative numbers"):
                    split(self._dataset(), fractions, seed=1)
