"""Command-line entry point: parse an experiment config, run it, and
serialize the artifacts.

Config files are plain ``key = value`` lines ('#' starts a comment).
``experiment`` selects the pipeline; the remaining keys have defaults:

    experiment     = teacher_student | encoding_pca | labelling | normalization
    teacher        = architecture name (teacher_student only), e.g. reuploading:2
    students       = comma-separated architecture names, none twice (teacher_student only)
    encoding       = rx | rot_h                  (default rx)
    n_seeds        = teacher initializations      (default 10)
    resolution     = training grid per axis       (default 21)
    map_resolution = prediction-map grid per axis (default 51)
    epochs         = training epochs              (default 150)
    learning_rate  = optimizer step               (default 0.05)
    optimizer      = adam | gd                    (default adam)
    seed           = base seed, below 2^32        (default 0)
    n_points       = circular dataset size        (default 500, encoding_pca/labelling)
    radius         = circular dataset radius      (default pi/sqrt(2))
    out            = output directory             (default qteach_out)

Every run writes ``summary.json`` plus per-run CSV curves and prediction
maps; reruns with the same config are byte-identical.  A run first deletes
from its output directory the files a run writes, and no others, so a
rerun leaves no stale file of an earlier one.  All seeds train together,
in lockstep on one thread, and BLAS runs on one thread too (see
``qteach/__init__.py``): ``--threads`` is accepted and ignored, though a
value below 1 is still a usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .circuits import Encoding, parse_architecture
from .errors import ConfigParseError, QTeachError, TrainingDivergedError
from .metrics import prediction_map, write_prediction_map
from .teacher_student import DEFAULT_RADIUS, ExperimentResult, make_grid, run_experiment
from .training import Optimizer, TrainConfig, TrainRun

# the encoding_pca, labelling and normalization runners import ``analysis``
# themselves, so a teacher_student run does not load it

EXPERIMENT_KINDS = ("teacher_student", "encoding_pca", "labelling", "normalization")


@dataclass
class ExperimentConfig:
    experiment: str
    teacher: str = ""
    students: tuple[str, ...] = ()
    encoding: str = "rx"
    n_seeds: int = 10
    resolution: int = 21
    map_resolution: int = 51
    epochs: int = 150
    learning_rate: float = 0.05
    optimizer: str = "adam"
    seed: int = 0
    n_points: int = 500
    radius: float = DEFAULT_RADIUS
    out: str = "qteach_out"

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            learning_rate=self.learning_rate,
            epochs=self.epochs,
            optimizer=Optimizer(self.optimizer),
            seed=self.seed,
        )


# One parser per ExperimentConfig field: the required ``experiment`` is a
# string, ``students`` splits on commas, every other value parses as the
# type of its default.
_PARSERS = {f.name: str if f.default is MISSING else type(f.default) for f in fields(ExperimentConfig)}
_PARSERS["students"] = lambda v: tuple(s.strip() for s in v.split(",") if s.strip())


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a ``key = value`` config; errors carry the line."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigParseError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _PARSERS:
            raise ConfigParseError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigParseError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _PARSERS[key](value)
        except ValueError:
            raise ConfigParseError(f"line {lineno}: malformed value for {key!r}: {value!r}") from None

    if "experiment" not in values:
        raise ConfigParseError("missing required key 'experiment'")
    config = ExperimentConfig(**values)
    _validate(config)
    return config


def _validate(config: ExperimentConfig) -> None:
    if config.experiment not in EXPERIMENT_KINDS:
        raise ConfigParseError(
            f"unknown experiment {config.experiment!r} (known: {', '.join(EXPERIMENT_KINDS)})"
        )
    try:
        encoding = Encoding(config.encoding)
    except ValueError:
        raise ConfigParseError(f"unknown encoding {config.encoding!r}") from None
    if config.experiment == "teacher_student":
        if not config.teacher or not config.students:
            raise ConfigParseError("teacher_student needs 'teacher' and 'students'")
        try:
            parse_architecture(config.teacher, encoding)
            students = [parse_architecture(name, encoding) for name in config.students]
        except QTeachError as exc:
            raise ConfigParseError(str(exc)) from None
        # a student's artifacts are named after it, so a repeat would overwrite them
        for k, student in enumerate(students):
            if student in students[:k]:
                raise ConfigParseError(f"student {student.name!r} is listed twice "
                                       f"(as {config.students[students.index(student)]!r} "
                                       f"and {config.students[k]!r})")
    try:
        Optimizer(config.optimizer)
    except ValueError:
        raise ConfigParseError(f"unknown optimizer {config.optimizer!r}") from None
    try:
        config.train_config()
    except QTeachError as exc:
        raise ConfigParseError(str(exc)) from None
    if config.seed >= 2**32:
        raise ConfigParseError(f"seed must be below 2^32, got {config.seed}")
    if config.n_seeds < 1 or config.resolution < 2 or config.map_resolution < 2:
        raise ConfigParseError("n_seeds must be >= 1 and resolutions >= 2")
    if config.n_points < 1 or not (np.isfinite(config.radius) and config.radius > 0):
        raise ConfigParseError("n_points must be >= 1 and radius finite and > 0")


def format_config(config: ExperimentConfig) -> str:
    """Render a config as parseable text; parse_config round-trips it."""
    lines = []
    for f in fields(config):
        value = getattr(config, f.name)
        if f.name == "students":
            value = ", ".join(value)
        elif isinstance(value, float):
            value = repr(float(value))
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# artifact writers
# ---------------------------------------------------------------------------

def _safe_name(name: str) -> str:
    return name.replace(":", "_").replace("@", "_")


def _write_curve(path: Path, header: str, values: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", header])
        for epoch, value in enumerate(values):
            writer.writerow([epoch, repr(float(value))])


def _write_run_curves(out: Path, prefix: str, run: TrainRun) -> None:
    _write_curve(out / f"loss_{prefix}.csv", "loss", run.loss_curve)
    if run.accuracy_curve is not None:
        _write_curve(out / f"accuracy_{prefix}.csv", "accuracy", run.accuracy_curve)


def _write_experiment_artifacts(out: Path, result: ExperimentResult, tag: str = "") -> None:
    for s, teacher_map in enumerate(result.teacher_maps):
        write_prediction_map(teacher_map, out / f"map_{tag}teacher_{s}.csv")
    for student in result.students:
        name = _safe_name(student.architecture.name)
        for s in range(result.n_seeds):
            _write_run_curves(out, f"{tag}{name}_{s}", student.runs[s])
            if student.binary_runs:
                _write_run_curves(out, f"{tag}{name}_binary_{s}", student.binary_runs[s])
            write_prediction_map(student.maps[s], out / f"map_{tag}{name}_{s}.csv")


def _check_finite(obj, context="summary") -> None:
    if isinstance(obj, dict):
        for key, value in obj.items():
            _check_finite(value, f"{context}.{key}")
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            _check_finite(value, f"{context}[{i}]")
    elif isinstance(obj, float) and not np.isfinite(obj):
        raise QTeachError(f"non-finite metric at {context}")


def _write_summary(out: Path, summary: dict) -> None:
    _check_finite(summary)
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# experiment dispatch
# ---------------------------------------------------------------------------

# Each runner computes its experiment and returns (summary, write), where
# write(out) writes every artifact but summary.json; ``run`` calls it in
# the "writing artifacts" phase.

def _run_teacher_student(config: ExperimentConfig) -> tuple[dict, Callable[[Path], None]]:
    encoding = Encoding(config.encoding)
    teacher = parse_architecture(config.teacher, encoding)
    students = [parse_architecture(name, encoding) for name in config.students]
    grid = make_grid(config.resolution)
    result = run_experiment(
        teacher, students, config.n_seeds, config.train_config(), grid,
        map_resolution=config.map_resolution,
    )
    return result.summary(), lambda out: _write_experiment_artifacts(out, result)


def _run_encoding_pca(config: ExperimentConfig) -> tuple[dict, Callable[[Path], None]]:
    from .analysis import encoding_study

    study = encoding_study(config.n_points, config.radius, config.seed)
    labels = study.dataset.labels

    def write(out: Path) -> None:
        for encoding_name, projection in study.projections.items():
            path = out / f"projection_{_safe_name(encoding_name)}.csv"
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["x1", "x2", "projection_1", "projection_2", "label"])
                for point, proj, label in zip(study.dataset.points, projection.projected, labels):
                    writer.writerow([repr(float(point[0])), repr(float(point[1])),
                                     repr(float(proj[0])), repr(float(proj[1])), int(label)])

    return {
        "experiment": "encoding_pca",
        "n_points": config.n_points,
        "radius": study.dataset.radius,
        "separability": study.scores,
        "separability_gap": study.score_gap,
        "explained_variance": {
            name: [float(v) for v in proj.explained_variance]
            for name, proj in study.projections.items()
        },
    }, write


def _run_labelling(config: ExperimentConfig) -> tuple[dict, Callable[[Path], None]]:
    from .analysis import labelling_experiment

    report = labelling_experiment(
        config.train_config(), config.n_points, config.radius, config.seed
    )
    maps = [prediction_map(case.circuit, case.run.final_params, config.map_resolution) for case in report.cases]

    def write(out: Path) -> None:
        for case, case_map in zip(report.cases, maps):
            _write_run_curves(out, case.name, case.run)
            write_prediction_map(case_map, out / f"map_{case.name}.csv")

    summary = report.summary()
    summary["experiment"] = "labelling"
    return summary, write


def _run_normalization(config: ExperimentConfig) -> tuple[dict, Callable[[Path], None]]:
    from .analysis import normalization_experiment

    report = normalization_experiment(
        config.train_config(), config.n_seeds, config.resolution, config.map_resolution
    )

    def write(out: Path) -> None:
        _write_experiment_artifacts(out, report.full_range, tag="pi_")
        _write_experiment_artifacts(out, report.unit_range, tag="unit_")

    summary = report.summary()
    summary["experiment"] = "normalization"
    return summary, write


_RUNNERS = {
    "teacher_student": _run_teacher_student,
    "encoding_pca": _run_encoding_pca,
    "labelling": _run_labelling,
    "normalization": _run_normalization,
}


#: every file a run may write; a run first deletes these and nothing else,
#: so the output directory describes exactly one run
_OWNED_FILES = ("summary.json", "config.txt", "FAILED.txt", "loss_*.csv", "accuracy_*.csv",
                "map_*.csv", "projection_*.csv")


def run(config: ExperimentConfig, n_workers: int = 1) -> int:
    """Execute one experiment; returns a process exit status.

    A failure writes ``FAILED.txt``: a diverging training run names its
    student, seed and label kind, any other failure (a typed error, an OS
    error or running out of memory) the phase it stopped in ("preparing the output directory", "running the <experiment>
    experiment" or "writing artifacts"), then the exception text."""
    # n_workers is ignored: seeds train in lockstep on one thread.  perfbench's
    # child.py still passes it positionally; both go together (ROADMAP
    # item 1).
    out = Path(config.out)
    phase = "preparing the output directory"
    try:
        out.mkdir(parents=True, exist_ok=True)
        for pattern in _OWNED_FILES:
            for path in out.glob(pattern):
                if path.is_file():
                    path.unlink()
        (out / "config.txt").write_text(format_config(config))
        phase = f"running the {config.experiment} experiment"
        summary, write = _RUNNERS[config.experiment](config)
        phase = "writing artifacts"
        write(out)
        _write_summary(out, summary)
    except (QTeachError, OSError, MemoryError) as exc:
        message = str(exc) if isinstance(exc, TrainingDivergedError) else f"{phase}: {exc}"
        if out.is_dir():
            (out / "FAILED.txt").write_text(f"{message}\n")
        print(f"error: {message}", file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="qteach",
        description="Teacher-student comparison experiments for variational quantum models.",
    )
    parser.add_argument("--config", required=True, help="path to a key = value config file")
    parser.add_argument("--out", help="override the config's output directory")
    parser.add_argument("--seeds", type=int, help="override the config's n_seeds")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility and ignored; a run uses one thread, BLAS included")
    args = parser.parse_args(argv)

    try:
        if args.seeds is not None and args.seeds < 1:
            raise ConfigParseError(f"--seeds must be >= 1, got {args.seeds}")
        if args.threads < 1:
            raise ConfigParseError(f"--threads must be >= 1, got {args.threads}")
        config = parse_config(Path(args.config).read_text())
    except (OSError, ConfigParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        config.out = args.out
    if args.seeds is not None:
        config.n_seeds = args.seeds
    return run(config)


if __name__ == "__main__":
    raise SystemExit(main())
