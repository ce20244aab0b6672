"""The teacher-student protocol.

A teacher is an architecture with randomly initialized parameters; it
labels a grid of input points with its own outputs (continuous labels in
[-1, 1] plus their signs as binary labels).  Students are trained on
those labels from fresh random initializations, and compared through the
final loss, the accuracy score, and the relative entropy between the
teacher's and the student's prediction maps.  Everything is averaged
over several independent teacher initializations ("seeds").
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import seeding
from .circuits import ArchitectureId, build, forward_batch
from .errors import ConfigurationError, StructuralError, TrainingDivergedError
from .metrics import PredictionMap, _grid_axis, accuracy, prediction_map, relative_entropy
# train is not called here, but stays importable as teacher_student.train,
# the name perfbench/spans.py wraps
from .training import INIT_HIGH, TrainConfig, TrainRun, binarize, train, train_lockstep  # noqa: F401

#: role tags for deriving independent seed streams
_ROLE_TEACHER = 0
_ROLE_STUDENT = 1
_ROLE_STUDENT_BINARY = 2

DEFAULT_MAP_RESOLUTION = 51

#: circle enclosing ~39% of [-pi, pi]^2: both classes well represented,
#: boundary away from the grid edges (the circular datasets of ``analysis``)
DEFAULT_RADIUS = float(np.pi / np.sqrt(2.0))


def derive_seed(*parts: int) -> int:
    """Deterministic 64-bit seed from a tuple of integers in [0, 2^32)
    (independent streams for teachers and students come from distinct role
    tags): numpy's ``SeedSequence(parts).generate_state(1, np.uint64)[0]``,
    computed by ``seeding.generate_state`` without numpy's random package.  A
    part that is not an integer is a ConfigurationError, as is one outside
    that range: the hash splits a larger part into 32-bit words and pads a
    short entropy list with zeros, so (11 + 2^32, 0, 0) would hash as
    (11, 1, 0)."""
    parts = [seeding.integer(p, "seed parts") for p in parts]
    if not all(0 <= p < 2**32 for p in parts):
        raise ConfigurationError(f"seed parts must be in [0, 2^32), got {parts}")
    return seeding.generate_state(parts, 1)[0]


@dataclass
class LabeledGrid:
    """Input points with continuous labels in [-1, 1] and their signs.

    The teacher-student protocol uses a regular grid over [-pi, pi]^2,
    but any finite point set is accepted (the labelling experiments train
    on scattered points).  Teacher metadata is absent for synthetic data.
    """

    points: np.ndarray
    y_continuous: np.ndarray
    y_binary: np.ndarray
    teacher: Optional[ArchitectureId] = None
    teacher_params: Optional[np.ndarray] = None
    teacher_seed: Optional[int] = None

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        self.y_continuous = np.asarray(self.y_continuous, dtype=float)
        self.y_binary = np.asarray(self.y_binary, dtype=float)
        if self.points.ndim != 2 or self.points.shape[1] != 2:
            raise StructuralError(f"points must be shaped (n, 2), got {self.points.shape}")
        n = len(self.points)
        if self.y_continuous.shape != (n,) or self.y_binary.shape != (n,):
            raise StructuralError("points and labels must have matching lengths")
        if not (np.all(np.isfinite(self.points)) and np.all(np.isfinite(self.y_continuous))):
            raise StructuralError("points and labels must be finite")
        if not np.array_equal(self.y_binary, binarize(self.y_continuous)):
            raise StructuralError("y_binary must equal sign(y_continuous)")

    def __len__(self) -> int:
        return len(self.points)


def make_grid(resolution: int, lo: float = -np.pi, hi: float = np.pi) -> np.ndarray:
    """(resolution^2, 2) regular grid, endpoints inclusive, x1 varying slowest."""
    resolution, lo, hi = _grid_axis(resolution, lo, hi)
    axis = np.linspace(lo, hi, resolution)
    x1, x2 = np.meshgrid(axis, axis, indexing="ij")
    return np.column_stack([x1.ravel(), x2.ravel()])


def generate_dataset(teacher: ArchitectureId, grid: np.ndarray, seed: int) -> LabeledGrid:
    """Label a grid with a teacher drawn from the seeded uniform
    [0, ``INIT_HIGH``) initialization that students start from too."""
    circuit = build(teacher)
    params = seeding.uniform(seed, 0.0, INIT_HIGH, circuit.n_params)
    grid = np.asarray(grid, dtype=float)
    y = forward_batch(circuit, grid, params)
    return LabeledGrid(
        points=grid,
        y_continuous=y,
        y_binary=binarize(y),
        teacher=teacher,
        teacher_params=params,
        teacher_seed=seed,
    )


@dataclass
class StudentOutcome:
    """Per-seed results of one student architecture against one teacher."""

    architecture: ArchitectureId
    runs: list[TrainRun]                      # continuous-label trainings
    binary_runs: Optional[list[TrainRun]]     # accuracy protocol trainings
    maps: list[PredictionMap]
    rel_entropies: np.ndarray
    accuracies: np.ndarray

    @property
    def mean_final_loss(self) -> float:
        return float(np.mean([run.final_loss for run in self.runs]))

    @property
    def mean_rel_entropy(self) -> float:
        return float(np.mean(self.rel_entropies))

    @property
    def mean_accuracy(self) -> float:
        return float(np.mean(self.accuracies))


@dataclass
class ExperimentResult:
    teacher: ArchitectureId
    n_seeds: int
    students: list[StudentOutcome]
    datasets: list[LabeledGrid]
    teacher_maps: list[PredictionMap]

    def summary(self) -> dict:
        return {
            "teacher": self.teacher.name,
            "n_seeds": self.n_seeds,
            "students": [
                {
                    "architecture": s.architecture.name,
                    "mean_final_loss": s.mean_final_loss,
                    "mean_rel_entropy": s.mean_rel_entropy,
                    "mean_accuracy": s.mean_accuracy,
                    "final_losses": [float(r.final_loss) for r in s.runs],
                    "rel_entropies": [float(v) for v in s.rel_entropies],
                    "accuracies": [float(v) for v in s.accuracies],
                }
                for s in self.students
            ],
        }


def _grid_bounds(grid: np.ndarray) -> tuple[float, float]:
    if grid.size == 0:
        raise ConfigurationError("grid is empty")
    return float(grid.min()), float(grid.max())


def run_experiment(
    teacher: ArchitectureId,
    students: Sequence[ArchitectureId],
    n_seeds: int,
    cfg: TrainConfig,
    grid: np.ndarray,
    map_resolution: int = DEFAULT_MAP_RESOLUTION,
    include_binary: bool = True,
) -> ExperimentResult:
    """Train every student on ``n_seeds`` independently initialized teachers.

    Per seed and student this runs one continuous-label training (loss
    curves, relative entropy between prediction maps) and, when
    ``include_binary``, one binary-label training from which the accuracy
    score is taken; otherwise the accuracy is the sign-accuracy of the
    continuous run.  Every seed draws its own teacher and student
    initializations from ``derive_seed``.  All seeds' datasets and teacher
    maps come first; then each student trains all its runs, every seed and
    label kind, in one ``train_lockstep`` call, with the same results as
    one ``train`` call per run.  A diverging run is named by student, seed
    and label kind.  Every map is held as its Fourier coefficients
    (``metrics.prediction_map``), so the result keeps a few hundred
    numbers per map whatever ``map_resolution`` is.
    """
    if n_seeds < 1:
        raise ConfigurationError(f"n_seeds must be >= 1, got {n_seeds}")
    grid = np.asarray(grid, dtype=float)
    bounds = _grid_bounds(grid)
    teacher_circuit = build(teacher)
    datasets = [generate_dataset(teacher, grid, derive_seed(cfg.seed, s, _ROLE_TEACHER)) for s in range(n_seeds)]
    teacher_maps = [prediction_map(teacher_circuit, dataset.teacher_params, map_resolution, bounds)
                    for dataset in datasets]
    kinds = ("continuous", "binary") if include_binary else ("continuous",)
    roles = {"continuous": _ROLE_STUDENT, "binary": _ROLE_STUDENT_BINARY}
    tags = [(s, kind) for s in range(n_seeds) for kind in kinds]  # (seed, label kind) of each run

    outcomes = []
    for k, student in enumerate(students):
        student_circuit = build(student)
        runs = [(datasets[s], replace(cfg, seed=derive_seed(cfg.seed, s, roles[kind], k)), kind)
                for s, kind in tags]
        try:
            trained = train_lockstep(student_circuit, runs)
        except TrainingDivergedError as exc:
            s, kind = tags[exc.run]
            raise TrainingDivergedError(f"student {student.name}, seed {s}, {kind} labels: {exc}",
                                        run=exc.run) from exc
        cont_runs = trained[::len(kinds)]
        bin_runs = trained[1::len(kinds)] if include_binary else None
        maps = [prediction_map(student_circuit, run.final_params, map_resolution, bounds) for run in cont_runs]
        outcomes.append(StudentOutcome(
            architecture=student,
            runs=cont_runs,
            binary_runs=bin_runs,
            maps=maps,
            rel_entropies=np.array([relative_entropy(t, m) for t, m in zip(teacher_maps, maps)]),
            accuracies=np.array([accuracy(run.final_preds, dataset.y_binary)
                                 for run, dataset in zip(bin_runs or cont_runs, datasets)]),
        ))
    return ExperimentResult(
        teacher=teacher,
        n_seeds=n_seeds,
        students=outcomes,
        datasets=datasets,
        teacher_maps=teacher_maps,
    )
