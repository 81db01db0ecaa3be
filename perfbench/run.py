#!/usr/bin/env python3
"""End-to-end benchmark of the netsom CLI pipeline on KDD-shaped data.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark builds the package in place
with the repository's own ``setup.py``, generates the workload's CSV inputs
from the seed, then repeats the workload's command sequence

    train --split  ->  umatrix  ->  detect  ->  eval

until S seconds have passed, at least twice. The loop is closed with one
client: each command runs in its own child process, started only after the
previous one exited. The children import netsom from ``src/``.

With ``--trace 0`` every repetition runs untraced and the end-to-end
metrics are reported as medians over repetitions. With ``--trace 1`` the
repetitions alternate between untraced and traced; a traced child wraps
netsom's functions in spans (see ``spans.py``) and the per-layer metrics,
including the trace overhead, are reported instead.

After the timed loop the outputs are checked (see ``checks.py``) and all
repetitions must have written byte-identical artifacts. The last line of
standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` (commands plus checks) and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks as output_checks
import kddgen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
COMMAND_TIMEOUT_S = 120.0
BUILD_TIMEOUT_S = 840.0
# A low percentile keeps several hundred calibration residuals above the
# threshold, so the false positive rate varies little from seed to seed.
PERCENTILE = 80.0
# train --split fractions: 20% of train.csv trains the map, 80% becomes the
# calibration CSV that detect reads.
SPLIT = "0.2,0.8,0"
LABEL = "label"
ARTIFACTS = ("map.som", "map.som.norm.json", "map.som.calibration.csv", "umatrix.pgm",
             "baseline.json", "verdicts.csv")


@dataclass(frozen=True)
class Workload:
    """Input sizes and CLI settings of one workload.

    ``train.csv`` holds ``train_normal`` normal rows, which ``train --split``
    divides into training and calibration rows. ``score.csv``, which detect
    and eval score, holds ``score_normal`` + ``score_anomalous`` rows.
    """

    train_normal: int
    score_normal: int
    score_anomalous: int
    rows: int
    cols: int
    steps: int
    qe_every: int


# Each workload lets a different layer dominate; sizes are chosen so that
# one repetition takes a few seconds and a run holds several repetitions.
WORKLOADS = {
    # Ingest and batch scoring: detect and eval each parse and score 10k
    # rows (plus 4k calibration rows) against a 10x10 map trained on 1k rows.
    "score-10k": Workload(
        train_normal=5000,
        score_normal=8000, score_anomalous=2000,
        rows=10, cols=10, steps=5000, qe_every=1000,
    ),
    # Training steps: a 40x40 map with QE sampled only at start and end,
    # then a small detect and eval, whose winner searches span 1600 nodes.
    "train-40x40": Workload(
        train_normal=2500,
        score_normal=1600, score_anomalous=400,
        rows=40, cols=40, steps=8000, qe_every=8000,
    ),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_s": "s",
    "score_rows_per_s": "1/s",
    "total_s": "s",
    "peak_rss_mib": "MiB",
    "final_qe": "distance",
    "detection_rate": "ratio",
    "false_positive_rate": "ratio",
}


@dataclass
class Command:
    name: str
    code: int
    start: float
    end: float
    ready: float | None
    maxrss_kib: int
    stdout: str
    stderr: str
    backend: str | None = None
    spans: list = field(default_factory=list)
    overhead: float = 0.0

    @property
    def wall(self) -> float:
        return self.end - self.start


@dataclass
class Rep:
    directory: Path
    traced: bool
    commands: list[Command]

    def command(self, name: str) -> Command:
        return next(c for c in self.commands if c.name == name)

    @property
    def ok(self) -> bool:
        return len(self.commands) == 4 and all(c.code == 0 for c in self.commands)

    @property
    def total(self) -> float:
        return self.commands[-1].end - self.commands[0].start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "setup.py").is_file() or not (ROOT / "src" / "netsom" / "cli.py").is_file():
        print(f"error: no netsom sources under {ROOT}; run from a repository checkout",
              file=sys.stderr)
        return 2
    build()

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return run(WORKLOADS[args.workload], args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(WORK.iterdir()):
            WORK.rmdir()


def build() -> None:
    """Build the package in place, as the repository's setup.py defines it."""
    done = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        timeout=BUILD_TIMEOUT_S, check=False,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stdout.decode("utf-8", "replace"))
        raise SystemExit(f"error: build failed with exit code {done.returncode}")


def run(w: Workload, args, work: Path) -> int:
    inputs = work / "inputs"
    inputs.mkdir()
    generate(w, args.seed, inputs)

    checks = output_checks.Checks()
    reps: list[Rep] = []
    start = time.monotonic()
    # Start another repetition only if a typical one still fits.
    while len(reps) < 2 or (time.monotonic() - start
                            + statistics.median(r.total for r in reps) <= args.seconds):
        traced = bool(args.trace) and len(reps) % 2 == 1
        rep = run_pipeline(w, args.seed, inputs, work / f"rep{len(reps)}", traced)
        reps.append(rep)
        for c in rep.commands:
            checks.record(f"exit.{c.name}", c.code == 0, f"exited with {c.code}")
        if not rep.ok:
            failed = rep.commands[-1]
            sys.stderr.write(failed.stderr)
            print(f"error: netsom {failed.name} exited with {failed.code}", file=sys.stderr)
            break
    elapsed = time.monotonic() - start

    ok = [r for r in reps if r.ok]
    if ok:
        run_checks(checks, w, args.seed, inputs, ok)
    untraced = [r for r in ok if not r.traced]
    e2e = checks.guard("report.end_to_end", end_to_end, untraced) if untraced else None

    print(f"workload {args.workload}, seed {args.seed}: {len(reps)} repetitions "
          f"({sum(r.traced for r in reps)} traced) in {elapsed:.1f} s")
    print("  repetition totals: " + " ".join(
        f"{r.total:.3f}{'t' if r.traced else ''}" for r in reps) + " s")
    for i, name in enumerate(("train", "umatrix", "detect", "eval")):
        print(f"  {name} walls: " + " ".join(
            f"{r.commands[i].wall:.3f}" for r in reps if len(r.commands) > i) + " s")
    if e2e is not None:
        for name, unit in END_TO_END_UNITS.items():
            print(f"  {name:<22} {e2e[name]:.6g} {unit}")

    metrics = {}
    if args.trace and any(r.traced for r in ok):
        layers = checks.guard("report.layers", layer_metrics, ok)
        if layers is not None:
            layers, self_times, paired = layers
            for name, (value, unit) in layers.items():
                print(f"  {name:<40} {value:.6g} {unit}")
            if paired is not None:
                print(f"  traced minus untraced wall, median over adjacent pairs: {paired:.4f} s")
            spanned = sum(self_times.values())
            print(f"  largest self-time spans (share of {spanned:.3f} s in spans):")
            for name in sorted(self_times, key=self_times.get, reverse=True)[:5]:
                print(f"    {name:<36} {self_times[name]:.3f} s  {self_times[name] / spanned:.1%}")
            metrics = {name: {"value": value, "unit": unit}
                       for name, (value, unit) in layers.items()}
    elif not args.trace and e2e is not None:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    attempted, failed = len(checks.results), len(checks.failures)
    print(f"  {'error_rate':<22} {failed / attempted:.6g} ({failed} of {attempted} "
          f"commands and checks failed)")
    for name, _, detail in checks.failures:
        print(f"  FAILED {name}: {detail}")
    if ok:
        print("labels " + json.dumps(labels(args, ok[0]), sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def generate(w: Workload, seed: int, inputs: Path) -> None:
    """Write the workload's input CSVs."""
    rng = np.random.default_rng(seed)
    kddgen.write_csv(inputs / "train.csv", *kddgen.records(rng, w.train_normal, 0))
    kddgen.write_csv(inputs / "score.csv", *kddgen.records(rng, w.score_normal, w.score_anomalous))


def run_pipeline(w: Workload, seed: int, inputs: Path, directory: Path, traced: bool) -> Rep:
    """Run the four commands one after another; stop at the first that fails."""
    directory.mkdir()
    som = str(directory / "map.som")
    scored = str(inputs / "score.csv")
    sequence = [
        ("train", ["train", "--input", str(inputs / "train.csv"), "--label-column", LABEL,
                   "--split", SPLIT, "--rows", str(w.rows), "--cols", str(w.cols),
                   "--total-steps", str(w.steps), "--qe-sample-every", str(w.qe_every),
                   "--seed", str(seed), "--out", som]),
        ("umatrix", ["umatrix", "--map", som, "--format", "grayscale-image",
                     "--out", str(directory / "umatrix.pgm")]),
        ("detect", ["detect", "--map", som, "--calibration", f"{som}.calibration.csv",
                    "--calibration-label-column", LABEL, "--percentile", str(PERCENTILE),
                    "--input", scored, "--label-column", LABEL,
                    "--out", str(directory / "verdicts.csv"),
                    "--save-baseline", str(directory / "baseline.json")]),
        ("eval", ["eval", "--map", som, "--baseline", str(directory / "baseline.json"),
                  "--input", scored, "--label-column", LABEL]),
    ]
    rep = Rep(directory, traced, [])
    for name, argv in sequence:
        command = spawn(name, argv, directory, traced)
        rep.commands.append(command)
        if command.code != 0:
            break
    return rep


def spawn(name: str, argv: list[str], directory: Path, traced: bool) -> Command:
    """Run one CLI command in a child process and wait for it to exit."""
    record = directory / f"{name}.record.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(record), "1" if traced else "0",
           "--", *argv]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    out_path, err_path = directory / f"{name}.out", directory / f"{name}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=env, cwd=directory)
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    rec = json.loads(record.read_text(encoding="utf-8")) if record.is_file() else {}
    return Command(
        name=name,
        code=proc.returncode,
        start=start,
        end=end,
        ready=rec.get("ready"),
        maxrss_kib=usage.ru_maxrss,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        backend=rec.get("backend"),
        spans=rec.get("spans", []),
        overhead=rec.get("overhead_s", 0.0),
    )


def report_value(text: str, key: str) -> str:
    """Value of the ``key: value`` line of a command's output."""
    prefix = key + ": "
    for line in text.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):]
    raise ValueError(f"no {key!r} line in the command's output")


def eval_counts(text: str) -> tuple[int, int, int, int]:
    """TP, FP, TN, FN from eval's machine-readable last line."""
    fields = text.strip().splitlines()[-1].split(",")
    return tuple(int(f) for f in fields[:4])


def data_rows(path) -> int:
    with open(path, "rb") as f:
        return sum(1 for line in f if line.strip()) - 1


def end_to_end(reps: list[Rep]) -> dict[str, float]:
    """End-to-end metrics as medians over repetitions."""
    first = reps[0].directory
    calibration_rows = data_rows(first / "map.som.calibration.csv")
    scored_rows = data_rows(first / "verdicts.csv")
    values = defaultdict(list)
    for rep in reps:
        detect, evaluate = rep.command("detect"), rep.command("eval")
        tp, fp, tn, fn = eval_counts(evaluate.stdout)
        values["setup_s"].extend(c.ready - c.start for c in rep.commands)
        values["train_s"].append(rep.command("train").wall)
        values["score_rows_per_s"].append(
            (calibration_rows + 2 * scored_rows) / (detect.wall + evaluate.wall)
        )
        values["total_s"].append(rep.total)
        values["peak_rss_mib"].append(max(c.maxrss_kib for c in rep.commands) / 1024.0)
        values["final_qe"].append(float(report_value(rep.command("train").stdout, "final_qe")))
        values["detection_rate"].append(tp / (tp + fn))
        values["false_positive_rate"].append(fp / (fp + tn))
    return {name: statistics.median(v) for name, v in values.items()}


def run_checks(checks, w: Workload, seed: int, inputs: Path, reps: list[Rep]) -> None:
    """Check the outputs of successful repetitions. A check that cannot read
    what it checks, such as a missing report line, fails."""
    first = reps[0].directory
    som = first / "map.som"
    norm = first / "map.som.norm.json"
    calibration = first / "map.som.calibration.csv"
    scored = inputs / "score.csv"
    dim = kddgen.DIM

    checks.guard(
        "train", lambda: output_checks.check_training(
            checks, inputs / "train.csv", [calibration], som, norm,
            float(report_value(reps[0].command("train").stdout, "final_qe")), dim,
        ))
    flags = checks.guard(
        "detect", output_checks.check_detect, checks, calibration, scored, som, norm,
        first / "baseline.json", first / "verdicts.csv", PERCENTILE, dim, sample_seed=seed,
    )
    if flags is None:
        return
    total = checks.guard(
        "detect.total", lambda: int(report_value(reps[0].command("detect").stdout, "total")))
    if total is not None:
        checks.record("detect.total", total == len(flags),
                      f"detect reports {total} rows, verdicts hold {len(flags)}")
    checks.guard(
        "eval", lambda: output_checks.check_eval(
            checks, eval_counts(reps[0].command("eval").stdout),
            output_checks.read_labels(scored), flags,
        ))
    checks.guard("umatrix.pgm", output_checks.check_pgm, checks, first / "umatrix.pgm",
                 w.rows, w.cols)

    for name in ARTIFACTS:
        digests = checks.guard(f"determinism.{name}",
                               lambda: {sha256(r.directory / name) for r in reps})
        if digests is not None:
            checks.record(f"determinism.{name}", len(digests) == 1,
                          f"{len(digests)} different contents over {len(reps)} repetitions")


def layer_metrics(reps: list[Rep]):
    """Per-layer metrics as medians over the traced repetitions. Also returns
    the median self time of every span name, and the median wall difference
    between each traced repetition and the untraced one before it (None
    without such a pair)."""
    per_rep = [_layers_of(rep) for rep in reps if rep.traced]
    metrics = {name: (statistics.median(m[name][0] for m, _ in per_rep), unit)
               for name, (_, unit) in per_rep[0][0].items()}
    names = {name for _, self_time in per_rep for name in self_time}
    self_times = {name: statistics.median(st.get(name, 0.0) for _, st in per_rep)
                  for name in names}
    pairs = [b.total - a.total for a, b in zip(reps, reps[1:]) if b.traced and not a.traced]
    return metrics, self_times, statistics.median(pairs) if pairs else None


def _layers_of(rep: Rep):
    total = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    under = defaultdict(float)
    under_calls = defaultdict(int)
    rss_growth = 0
    for command in rep.commands:
        spans = command.spans
        covered = [0.0] * len(spans)
        for s in spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        for i, s in enumerate(spans):
            name, span = s["name"], s["end"] - s["start"]
            total[name] += span
            self_time[name] += span - covered[i]
            calls[name] += 1
            c = s.get("counts", {})
            if name == "dataio.load_csv":
                counts["load_rows"] += c["rows"]
                rss_growth = max(rss_growth, s["rss_growth_kib"])
            elif name == "backend.bmu_batch":
                counts["bmu_rows"] += c["rows"]
                counts["distance_terms"] += c["rows"] * c["nodes"] * c["dim"]
            elif name == "backend.run_steps":
                counts["steps"] += c["steps"]
                counts["node_dim_updates"] += c["steps"] * c["nodes"] * c["dim"]
            if s["parent"] is not None:
                key = (spans[s["parent"]]["name"], name)
                under[key] += span
                under_calls[key] += 1

    qe_s = under[("core.train", "backend.bmu_batch")]
    bmu_s = total["backend.bmu_batch"]
    steps_s = total["backend.run_steps"]
    m = {
        "dataio.load_csv.s": (total["dataio.load_csv"], "s"),
        "dataio.load_csv.rows": (counts["load_rows"], "count"),
        "dataio.load_csv.rss_growth_mib": (rss_growth / 1024.0, "MiB"),
        "core.train.qe_s": (qe_s, "s"),
        "core.train.qe_passes": (under_calls[("core.train", "backend.bmu_batch")], "count"),
        "core.train.qe_share": (qe_s / total["core.train"], "ratio"),
        "core.train.steps_s": (under[("core.train", "backend.run_steps")], "s"),
        "backend.bmu_batch.s": (bmu_s, "s"),
        "backend.bmu_batch.calls": (calls["backend.bmu_batch"], "count"),
        "backend.bmu_batch.rows": (counts["bmu_rows"], "count"),
        "backend.bmu_batch.distance_terms": (counts["distance_terms"], "count"),
        "backend.bmu_batch.ns_per_term": (bmu_s * 1e9 / counts["distance_terms"], "ns"),
        "backend.run_steps.s": (steps_s, "s"),
        "backend.run_steps.steps": (counts["steps"], "count"),
        "backend.run_steps.node_dim_updates": (counts["node_dim_updates"], "count"),
        "backend.run_steps.ns_per_update": (steps_s * 1e9 / counts["node_dim_updates"], "ns"),
        "anomaly.calibrate.s": (total["anomaly.calibrate"], "s"),
        "anomaly.score_batch.self_s": (self_time["anomaly.score_batch"], "s"),
        "anomaly.evaluate.s": (total["anomaly.evaluate"], "s"),
        "anomaly.verdicts_to_csv.s": (total["anomaly.verdicts_to_csv"], "s"),
        "dataio.normalize.s": (total["dataio.fit_normalizer"] + total["dataio.apply_normalizer"], "s"),
        "dataio.split.s": (total["dataio.split"], "s"),
        "dataio.save_csv.s": (total["dataio.save_csv"], "s"),
        "mapfile.save_map.s": (total["mapfile.save_map"], "s"),
        "mapfile.load_map.s": (total["mapfile.load_map"], "s"),
        "umatrix.compute_umatrix.s": (total["umatrix.compute_umatrix"], "s"),
        "umatrix.export_umatrix.s": (total["umatrix.export_umatrix"], "s"),
    }
    for command in ("train", "umatrix", "detect", "eval"):
        m[f"cli.{command}.self_s"] = (self_time[f"cli.{command}"], "s")
    m["trace.overhead_s"] = (sum(c.overhead for c in rep.commands), "s")
    return m, dict(self_time)


def labels(args, rep: Rep) -> dict:
    """Facts about the run that are not metrics."""
    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "backend": rep.commands[0].backend,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "sha256": {name: sha256(rep.directory / name) for name in ARTIFACTS
                   if (rep.directory / name).is_file()},
    }
    return out


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


if __name__ == "__main__":
    sys.exit(main())
