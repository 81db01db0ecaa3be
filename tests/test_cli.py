import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import netsom
from conftest import two_cluster_data
from netsom.anomaly import (
    AnomalyBaseline,
    baseline_from_json_dict,
    baseline_to_json_dict,
    calibrate,
    residuals,
)
from netsom.cli import main
from netsom.core import SomMap
from netsom.dataio import (
    Dataset,
    apply_normalizer,
    fit_normalizer,
    load_csv,
    normalizer_from_json_dict,
    normalizer_to_json_dict,
)
from netsom.grid import GridShape
from netsom.mapfile import load_map, save_map
from netsom.umatrix import compute_umatrix, export_umatrix


def write_csv(path, array, header=None):
    lines = []
    if header:
        lines.append(",".join(header))
    lines += [",".join(repr(float(v)) for v in row) for row in np.atleast_2d(array)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture()
def normal_cluster(tmp_path):
    rng = np.random.default_rng(515)
    data = rng.normal((0.0, 0.0), 1.0, size=(400, 2))
    return write_csv(tmp_path / "normal.csv", data, header=["f0", "f1"])


def quick_train_args(csv_path, out_path, **overrides):
    args = {
        "--rows": "6",
        "--cols": "6",
        "--total-steps": "4000",
        "--seed": "42",
    }
    args.update(overrides)
    argv = ["train", "--input", csv_path, "--out", str(out_path)]
    for k, v in args.items():
        argv += [k, v]
    return argv


class TestTrainCommand:
    def test_writes_map_and_normalizer(self, tmp_path, normal_cluster, capsys):
        out = tmp_path / "map.som"
        assert main(quick_train_args(normal_cluster, out)) == 0
        assert out.is_file()
        assert (tmp_path / "map.som.norm.json").is_file()
        som = load_map(out)
        assert som.shape == GridShape(6, 6)
        assert som.steps_trained == 4000
        report = capsys.readouterr().out
        assert "steps: 4000" in report
        assert "final_qe" in report

    def test_final_qe_not_worse_than_initial(self, tmp_path, normal_cluster, capsys):
        out = tmp_path / "map.som"
        main(quick_train_args(normal_cluster, out))
        lines = capsys.readouterr().out.splitlines()
        initial = float(next(l for l in lines if l.startswith("initial_qe:")).split(": ")[1])
        final = float(next(l for l in lines if l.startswith("final_qe:")).split(": ")[1])
        assert final <= initial

    def test_identical_invocations_are_byte_identical(self, tmp_path, normal_cluster):
        a, b = tmp_path / "a.som", tmp_path / "b.som"
        assert main(quick_train_args(normal_cluster, a)) == 0
        assert main(quick_train_args(normal_cluster, b)) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.som.norm.json").read_bytes() == (
            tmp_path / "b.som.norm.json"
        ).read_bytes()

    def test_different_seed_changes_map(self, tmp_path, normal_cluster):
        a, b = tmp_path / "a.som", tmp_path / "b.som"
        main(quick_train_args(normal_cluster, a))
        main(quick_train_args(normal_cluster, b, **{"--seed": "43"}))
        assert a.read_bytes() != b.read_bytes()

    def test_missing_input_names_path(self, tmp_path, capsys):
        rc = main(["train", "--input", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "m.som")])
        assert rc != 0
        err = capsys.readouterr().err
        assert "nope.csv" in err

    def test_failed_run_leaves_no_partial_map(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,oops\n")
        out = tmp_path / "m.som"
        assert main(["train", "--input", str(bad), "--out", str(out)]) != 0
        assert not out.exists()

    def test_negative_seed_is_an_error(self, tmp_path, normal_cluster, capsys):
        out = tmp_path / "m.som"
        assert main(quick_train_args(normal_cluster, out, **{"--seed": "-1"})) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --seed must be a non-negative integer, got -1\n"
        assert not out.exists()

    def test_data_range_that_overflows_is_an_error(self, tmp_path, capsys):
        data = np.tile([[1.7e308, 0.0], [-1.7e308, 1.0]], (25, 1))
        csv_path = write_csv(tmp_path / "huge.csv", data, header=["f0", "f1"])
        out = tmp_path / "m.som"
        argv = quick_train_args(csv_path, out, **{"--rows": "3", "--cols": "3",
                                                  "--normalize": "none"})
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: range of dimension 0 overflows")
        assert not out.exists()

    @pytest.mark.parametrize("method, stat", [("minmax", "range (max - min)"),
                                              ("zscore", "stddev")])
    def test_normalizer_that_overflows_is_an_error(self, tmp_path, capsys, method, stat):
        data = np.tile([[0.0, 1.7e308], [1.0, -1.7e308]], (25, 1))
        csv_path = write_csv(tmp_path / "huge.csv", data, header=["f0", "f1"])
        out = tmp_path / "m.som"
        argv = quick_train_args(csv_path, out, **{"--rows": "3", "--cols": "3",
                                                  "--normalize": method})
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: cannot fit {method} normalization: the {stat} of column 'f1' "
            "is not finite; scale the data down\n"
        )
        assert list(tmp_path.iterdir()) == [tmp_path / "huge.csv"]

    def test_zscore_stddev_that_underflows_is_an_error(self, tmp_path, capsys):
        data = np.tile([[0.0, 1e-200], [1.0, 2e-200], [2.0, 3e-200]], (10, 1))
        csv_path = write_csv(tmp_path / "tiny.csv", data, header=["f0", "f1"])
        out = tmp_path / "m.som"
        argv = quick_train_args(csv_path, out, **{"--rows": "3", "--cols": "3",
                                                  "--normalize": "zscore"})
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: cannot fit zscore normalization: the stddev of column 'f1' "
            "underflows to 0; scale the data up\n"
        )
        assert list(tmp_path.iterdir()) == [tmp_path / "tiny.csv"]

    def test_overflowing_distances_are_an_error(self, tmp_path, capsys):
        # The range fits a float64, but squared distances overflow to inf.
        data = np.tile([[8e307, 0.0], [-8e307, 1.0]], (25, 1))
        csv_path = write_csv(tmp_path / "huge.csv", data, header=["f0", "f1"])
        out = tmp_path / "m.som"
        argv = quick_train_args(csv_path, out, **{"--rows": "3", "--cols": "3",
                                                  "--normalize": "none"})
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: squared distances overflow")
        assert len(captured.err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == [tmp_path / "huge.csv"]

    def test_report_file(self, tmp_path, normal_cluster, capsys):
        out = tmp_path / "map.som"
        report = tmp_path / "report.txt"
        main(quick_train_args(normal_cluster, out, **{"--report": str(report)}))
        assert report.read_text() == capsys.readouterr().out

    def test_split_writes_held_out_files(self, tmp_path, normal_cluster, capsys):
        out = tmp_path / "map.som"
        rc = main(quick_train_args(normal_cluster, out, **{"--split": "0.8,0.1,0.1"}))
        assert rc == 0
        cal = tmp_path / "map.som.calibration.csv"
        test = tmp_path / "map.som.test.csv"
        assert cal.is_file() and test.is_file()
        assert len(cal.read_text().splitlines()) == 1 + 40  # header + 10% of 400
        assert len(test.read_text().splitlines()) == 1 + 40
        capsys.readouterr()
        # held-out calibration feeds detect directly
        rc = main([
            "detect", "--map", str(out), "--calibration", str(cal),
            "--input", str(test), "--percentile", "99",
            "--out", str(tmp_path / "v.csv"),
        ])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "total: 40" in stdout

    def test_split_is_deterministic(self, tmp_path, normal_cluster):
        a, b = tmp_path / "a.som", tmp_path / "b.som"
        main(quick_train_args(normal_cluster, a, **{"--split": "0.8,0.1,0.1"}))
        main(quick_train_args(normal_cluster, b, **{"--split": "0.8,0.1,0.1"}))
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.som.calibration.csv").read_bytes() == (
            tmp_path / "b.som.calibration.csv"
        ).read_bytes()

    @pytest.mark.parametrize("failing_call", [1, 2, 4])
    def test_failed_write_keeps_the_old_artifact_set(
        self, tmp_path, normal_cluster, capsys, monkeypatch, failing_call
    ):
        # Four files: normalizer, calibration CSV, test CSV, then the map.
        out = tmp_path / "map.som"
        assert main(quick_train_args(normal_cluster, out, **{"--split": "0.6,0.2,0.2"})) == 0
        old = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.name.startswith("map.som")}
        assert len(old) == 4
        capsys.readouterr()

        real_fsync = os.fsync
        calls = []

        def fsync_failing_once(fd):
            calls.append(fd)
            if len(calls) == failing_call:
                raise OSError("disk full")
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync_failing_once)
        rc = main(quick_train_args(normal_cluster, out, **{
            "--split": "0.6,0.2,0.2", "--normalize": "zscore", "--seed": "7",
        }))
        assert rc == 1
        assert "error: disk full" in capsys.readouterr().err
        now = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.name.startswith("map.som")}
        assert now == old
        assert not any(p.name.endswith(".tmp") for p in tmp_path.iterdir())

    def test_failed_report_write_keeps_the_old_artifact_set(
        self, tmp_path, normal_cluster, capsys
    ):
        out = tmp_path / "map.som"
        assert main(quick_train_args(normal_cluster, out)) == 0
        old = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        capsys.readouterr()
        rc = main(quick_train_args(normal_cluster, out, **{
            "--normalize": "zscore", "--seed": "7",
            "--report": str(tmp_path / "nodir" / "r.txt"),
        }))
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: [Errno 2]")
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == old


@pytest.mark.parametrize("command", ["train", "umatrix", "detect"])
def test_unwritable_out_names_the_given_path(tmp_path, normal_cluster, capsys, command):
    out = tmp_path / "map.som"
    assert main(quick_train_args(normal_cluster, out)) == 0
    capsys.readouterr()
    target = str(tmp_path / "nodir" / "out")
    argv = {
        "train": quick_train_args(normal_cluster, target),
        "umatrix": ["umatrix", "--map", str(out), "--out", target],
        "detect": ["detect", "--map", str(out), "--calibration", normal_cluster,
                   "--input", normal_cluster, "--out", target],
    }[command]
    assert main(argv) == 1
    # train stages <out>.norm.json first, so its error names that path.
    named = target + ".norm.json" if command == "train" else target
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: {named!r}\n"


class TestUmatrixCommand:
    def test_grid_csv_matches_library(self, tmp_path, normal_cluster):
        out = tmp_path / "map.som"
        main(quick_train_args(normal_cluster, out))
        target = tmp_path / "u.csv"
        assert main(["umatrix", "--map", str(out), "--format", "grid-csv", "--out", str(target)]) == 0
        expected = export_umatrix(compute_umatrix(load_map(out)), "grid-csv")
        assert target.read_bytes() == expected

    def test_pgm_output(self, tmp_path, normal_cluster):
        out = tmp_path / "map.som"
        main(quick_train_args(normal_cluster, out))
        target = tmp_path / "u.pgm"
        rc = main(["umatrix", "--map", str(out), "--format", "grayscale-image", "--out", str(target)])
        assert rc == 0
        lines = target.read_text().splitlines()
        assert lines[0] == "P2"
        assert lines[1] == "6 6"
        assert lines[2] == "255"
        pixels = [int(p) for line in lines[3:] for p in line.split()]
        assert len(pixels) == 36
        assert all(0 <= p <= 255 for p in pixels)

    def test_truncated_map_diagnostic(self, tmp_path, normal_cluster, capsys):
        out = tmp_path / "map.som"
        main(quick_train_args(normal_cluster, out))
        capsys.readouterr()
        out.write_bytes(out.read_bytes()[:-4])
        rc = main(["umatrix", "--map", str(out), "--out", str(tmp_path / "u.csv")])
        assert rc != 0
        assert "unexpected end of map file" in capsys.readouterr().err


class TestDetectCommand:
    @pytest.mark.parametrize("command", ["detect", "eval"])
    @pytest.mark.parametrize(
        "sources, message",
        [
            (["--calibration", "c.csv", "--baseline", "b.json"],
             "argument --baseline: not allowed with argument --calibration"),
            ([], "one of the arguments --calibration --baseline is required"),
            # A saved baseline is not recalibrated, so these flags would do nothing.
            (["--baseline", "b.json", "--percentile", "50"],
             "argument --percentile: not allowed with argument --baseline"),
            (["--baseline", "b.json", "--percentile", "99"],
             "argument --percentile: not allowed with argument --baseline"),
            (["--baseline", "b.json", "--calibration-label-column", "label"],
             "argument --calibration-label-column: not allowed with argument --baseline"),
        ],
        ids=["both", "neither", "baseline-percentile", "baseline-default-percentile",
             "baseline-calibration-label"],
    )
    def test_calibration_or_baseline_exactly_one(self, tmp_path, capsys, command,
                                                 sources, message):
        # A usage error before any file is read: none of these paths exist.
        argv = [command, "--map", str(tmp_path / "m.som"),
                "--input", str(tmp_path / "x.csv"), *sources]
        if command == "detect":
            argv += ["--out", str(tmp_path / "v.csv")]
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == f"netsom {command}: error: {message}"
        assert list(tmp_path.iterdir()) == []

    def test_eval_no_header_refused_with_baseline(self, tmp_path, capsys):
        # eval's --no-header only names the calibration CSV's header; detect's
        # also covers the scored CSV and stays allowed (TestDetectMatchesLibrary).
        argv = ["eval", "--map", str(tmp_path / "m.som"), "--baseline", str(tmp_path / "b.json"),
                "--input", str(tmp_path / "x.csv"), "--no-header"]
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "netsom eval: error: argument --no-header: not allowed with argument --baseline"
        )
        assert list(tmp_path.iterdir()) == []

    def test_self_scoring_at_percentile_100_flags_nothing(self, tmp_path, normal_cluster, capsys):
        out = tmp_path / "map.som"
        main(quick_train_args(normal_cluster, out))
        capsys.readouterr()
        verdicts = tmp_path / "v.csv"
        rc = main([
            "detect", "--map", str(out),
            "--calibration", normal_cluster, "--input", normal_cluster,
            "--percentile", "100", "--out", str(verdicts),
        ])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "anomalous: 0" in stdout
        assert "rate: 0.0000" in stdout
        body = verdicts.read_text().splitlines()
        assert body[0] == "index,bmu,residual,is_anomalous"
        assert len(body) == 1 + 400

    def test_far_cluster_mostly_flagged(self, tmp_path, capsys):
        rng = np.random.default_rng(606)
        normal = rng.normal((0.0, 0.0), 1.0, size=(500, 2))
        far = rng.normal((20.0, 20.0), 1.0, size=(500, 2))
        normal_csv = write_csv(tmp_path / "normal.csv", normal, header=["a", "b"])
        far_csv = write_csv(tmp_path / "far.csv", far, header=["a", "b"])
        out = tmp_path / "map.som"
        main(["train", "--input", normal_csv, "--out", str(out), "--seed", "42"])
        capsys.readouterr()
        rc = main([
            "detect", "--map", str(out),
            "--calibration", normal_csv, "--input", far_csv,
            "--percentile", "99", "--out", str(tmp_path / "v.csv"),
        ])
        assert rc == 0
        stdout = capsys.readouterr().out
        flagged = int(next(l for l in stdout.splitlines() if l.startswith("anomalous:")).split(": ")[1])
        assert flagged >= 475  # >= 95% of 500

    def test_empty_scoring_file(self, tmp_path, normal_cluster, capsys):
        out = tmp_path / "map.som"
        main(quick_train_args(normal_cluster, out))
        capsys.readouterr()
        empty = tmp_path / "empty.csv"
        empty.write_text("f0,f1\n")
        rc = main([
            "detect", "--map", str(out), "--calibration", normal_cluster,
            "--input", str(empty), "--out", str(tmp_path / "v.csv"),
        ])
        assert rc != 0
        assert "no data rows" in capsys.readouterr().err

    def test_missing_normalizer_refused(self, tmp_path, normal_cluster, capsys):
        out = tmp_path / "map.som"
        main(quick_train_args(normal_cluster, out))
        capsys.readouterr()
        (tmp_path / "map.som.norm.json").unlink()
        rc = main([
            "detect", "--map", str(out), "--calibration", normal_cluster,
            "--input", normal_cluster, "--out", str(tmp_path / "v.csv"),
        ])
        assert rc != 0
        assert "normalizer" in capsys.readouterr().err

    @pytest.mark.parametrize("artifact", ["normalizer", "baseline"])
    def test_non_object_json_refused(self, tmp_path, normal_cluster, capsys, artifact):
        out = tmp_path / "map.som"
        main(quick_train_args(normal_cluster, out))
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text(json.dumps(
            baseline_to_json_dict(AnomalyBaseline(load_map(out), 1.0, 99.0, 400))
        ))
        bad = tmp_path / "map.som.norm.json" if artifact == "normalizer" else baseline_path
        bad.write_text("[1]\n")
        capsys.readouterr()
        rc = main([
            "detect", "--map", str(out), "--baseline", str(baseline_path),
            "--input", normal_cluster, "--out", str(tmp_path / "v.csv"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: malformed {artifact} record: expected a JSON object, got [1]\n"
        assert not (tmp_path / "v.csv").exists()

    @pytest.mark.parametrize("artifact", ["normalizer", "baseline"])
    def test_truncated_json_names_the_file(self, tmp_path, normal_cluster, capsys, artifact):
        out = tmp_path / "map.som"
        main(quick_train_args(normal_cluster, out))
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text(json.dumps(
            baseline_to_json_dict(AnomalyBaseline(load_map(out), 1.0, 99.0, 400))
        ))
        bad = tmp_path / "map.som.norm.json" if artifact == "normalizer" else baseline_path
        bad.write_text('{"format_version": 1,')
        capsys.readouterr()
        rc = main([
            "detect", "--map", str(out), "--baseline", str(baseline_path),
            "--input", normal_cluster, "--out", str(tmp_path / "v.csv"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == (
            f"error: cannot read {artifact} {bad}: Expecting property name enclosed in "
            "double quotes: line 1 column 22 (char 21)\n"
        )
        assert not (tmp_path / "v.csv").exists()

    def test_dimension_mismatch_states_both(self, tmp_path, normal_cluster, capsys):
        out = tmp_path / "map.som"
        main(quick_train_args(normal_cluster, out))
        capsys.readouterr()
        three_dim = write_csv(
            tmp_path / "wide.csv", np.zeros((3, 3)), header=["a", "b", "c"]
        )
        rc = main([
            "detect", "--map", str(out), "--calibration", normal_cluster,
            "--input", three_dim, "--out", str(tmp_path / "v.csv"),
        ])
        assert rc != 0
        err = capsys.readouterr().err
        assert "2" in err and "3" in err and "mismatch" in err

    def test_save_and_reuse_baseline(self, tmp_path, normal_cluster, capsys):
        out = tmp_path / "map.som"
        main(quick_train_args(normal_cluster, out))
        baseline_path = tmp_path / "baseline.json"
        rc = main([
            "detect", "--map", str(out), "--calibration", normal_cluster,
            "--input", normal_cluster, "--out", str(tmp_path / "v1.csv"),
            "--save-baseline", str(baseline_path),
        ])
        assert rc == 0
        payload = json.loads(baseline_path.read_text())
        assert payload["format_version"] == 1
        assert payload["percentile"] == 99.0
        capsys.readouterr()
        rc = main([
            "detect", "--map", str(out), "--baseline", str(baseline_path),
            "--input", normal_cluster, "--out", str(tmp_path / "v2.csv"),
        ])
        assert rc == 0
        assert (tmp_path / "v1.csv").read_bytes() == (tmp_path / "v2.csv").read_bytes()

    def test_non_finite_baseline_threshold_refused(self, tmp_path, normal_cluster, capsys):
        out = tmp_path / "map.som"
        main(quick_train_args(normal_cluster, out))
        baseline_path = tmp_path / "baseline.json"
        som = load_map(out)
        payload = baseline_to_json_dict(AnomalyBaseline(som, 1.0, 99.0, 400))
        payload["threshold"] = float("nan")
        baseline_path.write_text(json.dumps(payload))  # json writes NaN, and reads it back
        capsys.readouterr()
        rc = main([
            "detect", "--map", str(out), "--baseline", str(baseline_path),
            "--input", normal_cluster, "--out", str(tmp_path / "v.csv"),
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: threshold must be finite")
        assert not (tmp_path / "v.csv").exists()

    def test_failed_verdict_write_keeps_old_file(
        self, tmp_path, normal_cluster, capsys, monkeypatch
    ):
        out = tmp_path / "map.som"
        main(quick_train_args(normal_cluster, out))
        verdicts = tmp_path / "v.csv"
        verdicts.write_bytes(b"old verdicts\n")
        capsys.readouterr()

        def failing_fsync(fd):
            raise OSError("disk full")

        monkeypatch.setattr(os, "fsync", failing_fsync)
        rc = main([
            "detect", "--map", str(out), "--calibration", normal_cluster,
            "--input", normal_cluster, "--out", str(verdicts),
        ])
        assert rc == 1
        assert "error: disk full" in capsys.readouterr().err
        assert verdicts.read_bytes() == b"old verdicts\n"
        assert not any(p.name.endswith(".tmp") for p in tmp_path.iterdir())

    def test_failed_baseline_write_keeps_old_verdicts(self, tmp_path, normal_cluster, capsys):
        out = tmp_path / "map.som"
        main(quick_train_args(normal_cluster, out))
        verdicts = tmp_path / "v.csv"
        verdicts.write_bytes(b"old verdicts\n")
        capsys.readouterr()
        rc = main([
            "detect", "--map", str(out), "--calibration", normal_cluster,
            "--input", normal_cluster, "--out", str(verdicts),
            "--save-baseline", str(tmp_path / "nodir" / "b.json"),
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: [Errno 2]")
        assert verdicts.read_bytes() == b"old verdicts\n"
        assert not any(p.name.endswith(".tmp") for p in tmp_path.iterdir())


class TestDetectMatchesLibrary:
    """detect's verdict file and counts are the library's, byte for byte."""

    def _pipeline(self, tmp_path):
        """A 2x2 map on the unit square with the identity normalizer, and
        inputs that lie at equal distance from two or four nodes, many of
        them at residual 0.5."""
        weights = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        map_path = tmp_path / "m.som"
        save_map(SomMap(GridShape(2, 2), weights, seed=0), map_path)
        model = fit_normalizer(Dataset(vectors=np.zeros((1, 2))), "none")
        (tmp_path / "m.som.norm.json").write_text(json.dumps(normalizer_to_json_dict(model)))
        points = [(0.5, 0.0), (0.5, 0.5), (0.0, 0.0), (2.0, 2.0), (1.5, 1.0),
                  (0.5, 1.0), (0.0, 0.5), (0.25, 0.25), (1.0, -0.5)] * 3
        return map_path, points

    def _library(self, map_path, input_path, has_header, baseline):
        model = normalizer_from_json_dict(json.loads(Path(f"{map_path}.norm.json").read_text()))
        scored = apply_normalizer(model, load_csv(input_path, has_header=has_header))
        bmu, residual, flagged = residuals(baseline, scored.vectors)
        rows = zip(bmu.tolist(), residual.tolist(), flagged.tolist())
        text = "index,bmu,residual,is_anomalous\n" + "".join(
            f"{i},{b},{r!r},{str(f).lower()}\n" for i, (b, r, f) in enumerate(rows))
        total, anomalous = len(flagged), int(flagged.sum())
        assert baseline.threshold in residual.tolist()
        assert 0 < anomalous < total
        return text, f"total: {total}\nanomalous: {anomalous}\nrate: {anomalous / total:.4f}\n"

    def test_with_saved_baseline(self, tmp_path, capsys):
        map_path, points = self._pipeline(tmp_path)
        som = load_map(map_path)
        baseline_path = tmp_path / "b.json"
        baseline_path.write_text(json.dumps(
            baseline_to_json_dict(AnomalyBaseline(som, 0.5, 99.0, 10))
        ))
        # --no-header applies to the scored CSV, so it is allowed with --baseline.
        input_path = write_csv(tmp_path / "x.csv", points)
        verdicts = tmp_path / "v.csv"
        rc = main(["detect", "--map", str(map_path), "--baseline", str(baseline_path),
                   "--input", input_path, "--no-header", "--out", str(verdicts)])
        assert rc == 0
        baseline = baseline_from_json_dict(json.loads(baseline_path.read_text()), som)
        text, counts = self._library(map_path, input_path, False, baseline)
        assert verdicts.read_bytes() == text.encode()
        assert capsys.readouterr().out == counts

    def test_with_calibration(self, tmp_path, capsys):
        map_path, points = self._pipeline(tmp_path)
        input_path = write_csv(tmp_path / "x.csv", points, header=["a", "b"])
        verdicts, saved = tmp_path / "v.csv", tmp_path / "b.json"
        rc = main(["detect", "--map", str(map_path), "--calibration", input_path,
                   "--percentile", "50", "--input", input_path, "--out", str(verdicts),
                   "--save-baseline", str(saved)])
        assert rc == 0
        som = load_map(map_path)
        baseline = calibrate(som, np.array(points), 50.0)
        assert baseline_from_json_dict(json.loads(saved.read_text()), som) == baseline
        text, counts = self._library(map_path, input_path, True, baseline)
        assert verdicts.read_bytes() == text.encode()
        assert capsys.readouterr().out == counts


class TestEvalCommand:
    def _fixture(self, tmp_path):
        """Hand-built single-node pipeline with threshold 1: residual = |x|."""
        som = SomMap(GridShape(1, 1), np.array([[0.0]]), seed=0)
        map_path = tmp_path / "m.som"
        save_map(som, map_path)
        model = fit_normalizer(Dataset(vectors=np.array([[0.0]])), "none")
        (tmp_path / "m.som.norm.json").write_text(
            json.dumps(normalizer_to_json_dict(model))
        )
        baseline = AnomalyBaseline(som, 1.0, 99.0, 10)
        baseline_path = tmp_path / "b.json"
        baseline_path.write_text(json.dumps(baseline_to_json_dict(baseline)))
        return map_path, baseline_path

    def test_machine_line_counts(self, tmp_path, capsys):
        map_path, baseline_path = self._fixture(tmp_path)
        rows = ["x,label"]
        rows += ["2.0,anomalous"] * 8 + ["0.5,anomalous"] * 2
        rows += ["2.0,normal"] * 3 + ["0.5,normal"] * 87
        labeled = tmp_path / "labeled.csv"
        labeled.write_text("\n".join(rows) + "\n")
        rc = main([
            "eval", "--map", str(map_path), "--baseline", str(baseline_path),
            "--input", str(labeled), "--label-column", "label",
        ])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-1] == "8,3,87,2,0.8000,0.0333"
        assert "TP: 8  FP: 3  TN: 87  FN: 2" in out[0]

    def test_perfect_separation(self, tmp_path, capsys):
        map_path, baseline_path = self._fixture(tmp_path)
        labeled = tmp_path / "labeled.csv"
        labeled.write_text("x,label\n5.0,anomalous\n0.1,normal\n")
        main([
            "eval", "--map", str(map_path), "--baseline", str(baseline_path),
            "--input", str(labeled), "--label-column", "label",
        ])
        out = capsys.readouterr().out
        assert "detection_rate: 1.0000" in out

    def test_degenerate_class_flagged(self, tmp_path, capsys):
        map_path, baseline_path = self._fixture(tmp_path)
        labeled = tmp_path / "labeled.csv"
        labeled.write_text("x,label\n5.0,normal\n0.1,normal\n")
        rc = main([
            "eval", "--map", str(map_path), "--baseline", str(baseline_path),
            "--input", str(labeled), "--label-column", "label",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "no anomalous-labeled rows" in out
        assert out.splitlines()[-1] == "0,1,1,0,0.0000,0.5000"

    def test_no_header_applies_to_the_calibration_csv(self, tmp_path, capsys):
        map_path, _ = self._fixture(tmp_path)
        calibration = tmp_path / "cal.csv"
        calibration.write_text("0.5\n1.0\n")
        labeled = tmp_path / "labeled.csv"
        labeled.write_text("x,label\n5.0,anomalous\n0.1,normal\n1.0,normal\n")
        rc = main([
            "eval", "--map", str(map_path), "--calibration", str(calibration),
            "--no-header", "--percentile", "100", "--input", str(labeled),
        ])
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[-1] == "1,0,2,0,1.0000,0.0000"

    def test_missing_label_column(self, tmp_path, capsys):
        map_path, baseline_path = self._fixture(tmp_path)
        labeled = tmp_path / "labeled.csv"
        labeled.write_text("x\n5.0\n")
        rc = main([
            "eval", "--map", str(map_path), "--baseline", str(baseline_path),
            "--input", str(labeled), "--label-column", "label",
        ])
        assert rc != 0
        assert "'label' not found" in capsys.readouterr().err


class TestVersionFlag:
    def test_prints_artifact_format_versions(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "map format 1" in out
        assert "normalizer format 1" in out
        assert "baseline format 1" in out

    def test_module_run_prints_version(self):
        src = Path(netsom.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])
        )}
        result = subprocess.run(
            [sys.executable, "-m", "netsom.cli", "--version"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert result.returncode == 0
        assert result.stdout.startswith(f"netsom {netsom.__version__} (map format 1")


class TestEndToEndPipeline:
    def test_two_cluster_eval_via_files(self, tmp_path, capsys):
        """Full pipeline: train on one cluster, eval labeled mix from files."""
        data = two_cluster_data(seed=99)
        normal, far = data[:200], data[200:]
        normal_csv = write_csv(tmp_path / "normal.csv", normal, header=["a", "b"])
        labeled = tmp_path / "labeled.csv"
        rows = ["a,b,label"]
        rows += [f"{float(x)!r},{float(y)!r},normal" for x, y in normal[:100]]
        rows += [f"{float(x)!r},{float(y)!r},anomalous" for x, y in far[:100]]
        labeled.write_text("\n".join(rows) + "\n")

        out = tmp_path / "map.som"
        assert main(["train", "--input", normal_csv, "--out", str(out), "--seed", "7"]) == 0
        capsys.readouterr()
        rc = main([
            "eval", "--map", str(out), "--calibration", normal_csv,
            "--input", str(labeled), "--label-column", "label",
        ])
        assert rc == 0
        machine = capsys.readouterr().out.strip().splitlines()[-1]
        tp, fp, tn, fn, dr, fpr = machine.split(",")
        assert float(dr) >= 0.95
        assert float(fpr) <= 0.05
