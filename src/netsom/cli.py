"""Command line front end: train a map, export its U-Matrix, calibrate a
baseline, score data, and evaluate against labels.

All randomness flows from the single --seed flag; identical invocations on
identical inputs produce byte-identical artifacts. Diagnostics go to stderr
and the exit status is 0 only when every requested artifact was fully
written.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from netsom import __version__
from netsom._backend import backend_name
from netsom.anomaly import (
    BASELINE_FORMAT_VERSION,
    baseline_from_json_dict,
    baseline_to_json_dict,
    calibrate,
    evaluate,
    render_verdicts,
    residuals,
)
from netsom.core import (
    ALPHA_END_DEFAULT,
    ALPHA_MID_DEFAULT,
    ALPHA_START_DEFAULT,
    PERCENTILE_DEFAULT,
    QE_SAMPLES_DEFAULT,
    SIGMA_END_DEFAULT,
    STEPS_PER_UNIT_DEFAULT,
    GridShape,
    TrainingSchedule,
    initialize,
    train,
)
from netsom.dataio import (
    NORMALIZATION_METHODS,
    NORMALIZER_FORMAT_VERSION,
    Dataset,
    apply_normalizer,
    fit_normalizer,
    load_csv,
    normalizer_from_json_dict,
    normalizer_to_json_dict,
    save_csv,
    split,
)
from netsom.mapfile import (
    MAP_FORMAT_VERSION,
    ArtifactSet,
    load_map,
    save_map,
    write_atomic,
    write_text,
)
from netsom.umatrix import EXPORT_FORMATS, compute_umatrix, export_umatrix

_VERSION_TEXT = (
    f"netsom {__version__} "
    f"(map format {MAP_FORMAT_VERSION}, "
    f"normalizer format {NORMALIZER_FORMAT_VERSION}, "
    f"baseline format {BASELINE_FORMAT_VERSION})"
)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


def run_train(args) -> int:
    init_seed, train_seed, split_seed = _derive_seeds(args.seed)
    dataset = load_csv(args.input, has_header=not args.no_header, label_column=args.label_column)

    held_out: list[tuple[str, Dataset]] = []
    if args.split is not None:
        fractions = _parse_fractions(args.split)
        train_part, cal_part, test_part = split(dataset, fractions, split_seed)
        if len(train_part) == 0:
            raise ValueError("split left no rows to train on")
        dataset = train_part
        if len(cal_part):
            held_out.append((f"{args.out}.calibration.csv", cal_part))
        if len(test_part):
            held_out.append((f"{args.out}.test.csv", test_part))

    model = fit_normalizer(dataset, args.normalize)
    normalized = apply_normalizer(model, dataset)

    shape = GridShape(args.rows, args.cols)
    schedule = TrainingSchedule.default_for(shape, args.total_steps, args.sigma_end)
    overrides = {"sigma_start": args.sigma_start, "ordering_steps": args.ordering_steps}
    schedule = replace(
        schedule,
        alpha_start=args.alpha_start,
        alpha_mid=args.alpha_mid,
        alpha_end=args.alpha_end,
        **{name: value for name, value in overrides.items() if value is not None},
    )
    qe_every = args.qe_sample_every
    if qe_every is None:
        qe_every = max(1, schedule.total_steps // QE_SAMPLES_DEFAULT)

    som = initialize(shape, normalized.dim, _bounds_of(normalized), init_seed)
    trained, report = train(
        som,
        normalized.vectors,
        schedule,
        qe_sample_every=qe_every,
        qe_threshold=args.qe_threshold,
        seed=train_seed,
    )

    lines = [
        f"backend: {backend_name()}",
        f"map: {args.out} ({shape.rows}x{shape.cols}, dim {trained.dim})",
        f"steps: {report.steps}",
        f"initial_qe: {report.initial_qe!r}",
        f"final_qe: {report.final_qe!r}",
    ]
    lines += [f"held_out: {path} ({len(part)} rows)" for path, part in held_out]
    lines.append("qe_history:")
    lines += [f"  step {step}: {qe!r}" for step, qe in report.qe_history]
    text = "\n".join(lines) + "\n"

    # One set, map last: a failed write, the report's too, leaves the old map
    # with its old normalizer, never one run's map beside another run's
    # statistics.
    with ArtifactSet() as artifacts:
        _write_json(artifacts.file(_normalizer_path(args.out, args.normalizer)),
                    normalizer_to_json_dict(model))
        for path, part in held_out:
            save_csv(part, artifacts.file(path), label_column=args.label_column or "label")
        if args.report is not None:
            write_text(artifacts.file(args.report), text)
        save_map(trained, artifacts.file(args.out))
    sys.stdout.write(text)
    return 0


def run_umatrix(args) -> int:
    som = load_map(args.map)
    payload = export_umatrix(compute_umatrix(som), args.format)
    write_atomic(args.out, payload)
    return 0


def run_detect(args) -> int:
    baseline, scored = _load_pipeline(args, input_has_header=not args.no_header)
    bmu, residual, flags = residuals(baseline, scored.vectors)

    # One set, verdicts last: a failed baseline write leaves the old verdicts.
    with ArtifactSet() as artifacts:
        if args.save_baseline is not None:
            _write_json(artifacts.file(args.save_baseline), baseline_to_json_dict(baseline))
        render_verdicts(bmu, residual, flags, artifacts.file(args.out))

    total = len(flags)
    flagged = int(flags.sum())
    print(f"total: {total}")
    print(f"anomalous: {flagged}")
    print(f"rate: {flagged / total:.4f}")
    return 0


def run_eval(args) -> int:
    baseline, labeled = _load_pipeline(args, input_has_header=True)
    summary = evaluate(baseline, labeled)

    print(
        f"TP: {summary.true_positives}  FP: {summary.false_positives}  "
        f"TN: {summary.true_negatives}  FN: {summary.false_negatives}"
    )
    print(f"detection_rate: {summary.detection_rate:.4f}")
    print(f"false_positive_rate: {summary.false_positive_rate:.4f}")
    if summary.no_anomalous_labels:
        print("warning: no anomalous-labeled rows; detection_rate reported as 0")
    if summary.no_normal_labels:
        print("warning: no normal-labeled rows; false_positive_rate reported as 0")
    print(
        f"{summary.true_positives},{summary.false_positives},"
        f"{summary.true_negatives},{summary.false_negatives},"
        f"{summary.detection_rate:.4f},{summary.false_positive_rate:.4f}"
    )
    return 0


def _load_pipeline(args, input_has_header: bool):
    """The baseline, loaded or calibrated, and the normalized input CSV."""
    # With --baseline nothing is calibrated, so a calibration flag would be ignored.
    if args.baseline is not None:
        for flag in args.calibration_only:
            if getattr(args, flag[2:].replace("-", "_")) is not None:
                args.usage_error(f"argument {flag}: not allowed with argument --baseline")
    som = load_map(args.map)
    norm_path = _normalizer_path(args.map, args.normalizer)
    if not Path(norm_path).is_file():
        raise ValueError(
            f"normalizer file not found: {norm_path} "
            "(train writes it alongside the map; pass --normalizer to point at it)"
        )
    model = normalizer_from_json_dict(_read_json(norm_path, "normalizer"))

    def normalized(path, has_header, label_column):
        return apply_normalizer(model, load_csv(path, has_header, label_column))

    if args.baseline is not None:
        baseline = baseline_from_json_dict(_read_json(args.baseline, "baseline"), som)
    else:
        cal = normalized(args.calibration, not args.no_header, args.calibration_label_column)
        percentile = PERCENTILE_DEFAULT if args.percentile is None else args.percentile
        baseline = calibrate(som, cal.vectors, percentile)
    return baseline, normalized(args.input, input_has_header, args.label_column)


def _bounds_of(dataset: Dataset) -> np.ndarray:
    v = dataset.vectors
    return np.stack([v.min(axis=0), v.max(axis=0)], axis=1)


def _derive_seeds(seed: int) -> tuple[int, int, int]:
    """Independent child seeds (init, stimulus, split) from the one user seed."""
    if seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {seed}")
    children = np.random.SeedSequence(seed).spawn(3)
    return tuple(int(c.generate_state(1, dtype=np.uint64)[0]) for c in children)


def _parse_fractions(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError("--split needs three comma-separated fractions, e.g. 0.8,0.1,0.1")
    return tuple(float(p) for p in parts)


def _normalizer_path(map_path, override) -> str:
    return str(override) if override is not None else f"{map_path}.norm.json"


def _read_json(path, artifact: str):
    """The JSON value in ``path``; a file that is not UTF-8 JSON raises a
    ValueError naming the artifact and the path."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"cannot read {artifact} {path}: {exc}") from None


def _write_json(path, payload: dict) -> None:
    write_text(path, json.dumps(payload, indent=2) + "\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netsom",
        description="Self-organising map training, U-Matrix export, and "
        "baseline anomaly detection over CSV feature data.",
    )
    parser.add_argument("--version", action="version", version=_VERSION_TEXT)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a map from a CSV of features")
    p_train.add_argument("--input", required=True, help="training CSV")
    p_train.add_argument("--out", required=True, help="output map file")
    p_train.add_argument("--rows", type=int, default=10)
    p_train.add_argument("--cols", type=int, default=10)
    p_train.add_argument("--seed", type=int, default=1)
    p_train.add_argument("--normalize", choices=NORMALIZATION_METHODS, default="minmax")
    p_train.add_argument("--normalizer", default=None,
                         help="where to write the fitted normalizer (default: <out>.norm.json)")
    p_train.add_argument("--total-steps", type=int, default=None,
                         help=f"default: {STEPS_PER_UNIT_DEFAULT} x map units")
    p_train.add_argument("--ordering-steps", type=int, default=None)
    p_train.add_argument("--alpha-start", type=float, default=ALPHA_START_DEFAULT)
    p_train.add_argument("--alpha-mid", type=float, default=ALPHA_MID_DEFAULT)
    p_train.add_argument("--alpha-end", type=float, default=ALPHA_END_DEFAULT)
    p_train.add_argument("--sigma-start", type=float, default=None,
                         help="default: max(rows, cols) / 2, but at least --sigma-end")
    p_train.add_argument("--sigma-end", type=float, default=SIGMA_END_DEFAULT)
    p_train.add_argument("--qe-sample-every", type=int, default=None,
                         help=f"default: total steps / {QE_SAMPLES_DEFAULT}")
    p_train.add_argument("--qe-threshold", type=float, default=None,
                         help="stop early once quantization error falls below this")
    p_train.add_argument("--split", default=None, metavar="TRAIN,CAL,TEST",
                         help="hold out seeded fractions of the input; writes "
                         "<out>.calibration.csv and <out>.test.csv")
    p_train.add_argument("--report", default=None, help="also write the report here")
    _add_csv_flags(p_train)
    p_train.set_defaults(func=run_train)

    p_umx = sub.add_parser("umatrix", help="compute and export the U-Matrix of a map")
    p_umx.add_argument("--map", required=True)
    p_umx.add_argument("--format", choices=EXPORT_FORMATS, default="grid-csv")
    p_umx.add_argument("--out", required=True)
    p_umx.set_defaults(func=run_umatrix)

    p_det = sub.add_parser("detect", help="score a CSV against a calibrated baseline")
    _add_pipeline_flags(p_det)
    p_det.add_argument("--out", required=True, help="verdict CSV output")
    p_det.add_argument("--save-baseline", default=None,
                       help="also save the calibrated baseline as JSON")
    _add_csv_flags(p_det)
    p_det.set_defaults(func=run_detect)

    p_eval = sub.add_parser("eval", help="evaluate detection against labeled data")
    _add_pipeline_flags(p_eval, "--no-header")
    p_eval.add_argument("--label-column", default="label",
                        help="label column of the scored CSV (default: label)")
    p_eval.add_argument("--no-header", action="store_true", default=None,
                        help="calibration CSV has no header line")
    p_eval.set_defaults(func=run_eval)

    return parser


def _add_pipeline_flags(p, *calibration_only) -> None:
    p.add_argument("--map", required=True)
    p.add_argument("--normalizer", default=None,
                   help="persisted normalizer (default: <map>.norm.json)")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--calibration", default=None, help="normal-data CSV for calibration")
    source.add_argument("--baseline", default=None, help="previously saved baseline JSON")
    p.add_argument("--percentile", type=float, default=None, help=f"default: {PERCENTILE_DEFAULT}")
    p.add_argument("--calibration-label-column", default=None,
                   help="label column to strip from the calibration CSV, if any")
    p.add_argument("--input", required=True, help="CSV of vectors to score")
    calibration_only = ("--percentile", "--calibration-label-column", *calibration_only)
    p.set_defaults(usage_error=p.error, calibration_only=calibration_only)


def _add_csv_flags(p) -> None:
    p.add_argument("--no-header", action="store_true", help="input CSVs have no header line")
    p.add_argument("--label-column", default=None,
                   help="name of a label column to strip from feature input")


if __name__ == "__main__":
    entry()
