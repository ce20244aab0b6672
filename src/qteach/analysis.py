"""Encoding, labelling, and input-normalization studies.

The encoding study applies only the data-encoding gates (no processing
unitaries) to a two-qubit register for every point of a circular
dataset, collects the four-outcome probability vectors, projects them to
2-D with PCA, and scores how linearly separable the two classes already
are after the encoding alone.

The labelling study trains the dissipative perceptron on the circular
data under both label orientations and shows the asymmetry of the
ancilla activation (reaching <Z> = -1 requires driving the control
qubits to |11>), plus the Pauli-X fix that negates the output exactly.

The normalization study reruns the deep-teacher comparison with inputs
rescaled from [-pi, pi] to [-1, 1], where the restricted input window
hides most of the structure and both students fit comparably well.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import circuits, qsim
from .circuits import (
    ArchitectureId,
    CircuitSpec,
    Encoding,
    Family,
    append_x_on_measured,
    ancilla_probabilities,
    build,
    dissipative_qp,
    reuploading,
)
from .errors import ConfigurationError, StructuralError, TrainingDivergedError
from .metrics import accuracy
from .teacher_student import DEFAULT_RADIUS, ExperimentResult, LabeledGrid, derive_seed, make_grid, run_experiment
from .training import TrainConfig, TrainRun, train

_ROLE_LABELLING = 3


@dataclass
class CircularDataset:
    """Uniform points on [-pi, pi]^2 labelled -1 inside a centered circle."""

    points: np.ndarray
    labels: np.ndarray
    radius: float
    seed: int


def circular_dataset(n: int = 500, radius: float = DEFAULT_RADIUS, seed: int = 0) -> CircularDataset:
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    if not (np.isfinite(radius) and radius > 0):
        raise ConfigurationError(f"radius must be finite and > 0, got {radius}")
    if seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    points = rng.uniform(-np.pi, np.pi, size=(n, 2))
    labels = np.where(np.sum(points**2, axis=1) < radius**2, -1.0, 1.0)
    return CircularDataset(points=points, labels=labels, radius=float(radius), seed=seed)


def encoding_probability_vectors(encoding: Encoding, data: CircularDataset) -> np.ndarray:
    """(n, 4) outcome probabilities of the two data qubits after applying
    only the encoding gates the architecture builders emit to |00>, as a
    circuit measuring an idle third qubit, which ``_program`` drops."""
    builder = circuits._Builder(encoding)
    builder.encode(0, 1)
    return circuits._measured(builder.finish(3, 2), data.points, np.empty(0),
                              lambda amps, signs: qsim.probability_vector_kernel(amps, 2, (0, 1)), (4,))


@dataclass
class PcaProjection:
    components: np.ndarray          # (2, d) orthonormal rows
    projected: np.ndarray           # (n, 2)
    explained_variance: np.ndarray  # (2,), non-increasing


def pca_2d(matrix: np.ndarray) -> PcaProjection:
    """Top-2 principal components of the rows via the explicit covariance.

    The covariance is the sample covariance (divisor n - 1) of the
    mean-centered rows; component signs are canonicalized so the entry of
    largest magnitude is positive.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] < 3:
        raise ConfigurationError(f"need at least 3 rows, got shape {matrix.shape}")
    centered = matrix - matrix.mean(axis=0)
    cov = centered.T @ centered / (matrix.shape[0] - 1)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1][:2]
    components = evecs[:, order].T.copy()
    for row in components:
        pivot = np.argmax(np.abs(row))
        if row[pivot] < 0:
            row *= -1.0
    explained = np.clip(evals[order], 0.0, None)
    return PcaProjection(
        components=components,
        projected=centered @ components.T,
        explained_variance=explained,
    )


def separability_score(projection: PcaProjection, labels: np.ndarray) -> float:
    """Best accuracy of a linear threshold classifier on the 2-D projection.

    Fisher direction (within-class scatter solve against the centroid
    difference) followed by an exact sweep over all thresholds, both
    orientations; always in [0.5, 1].
    """
    X = np.asarray(projection.projected, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if len(X) != len(labels):
        raise StructuralError(f"length mismatch: {len(X)} points vs {len(labels)} labels")
    plus = X[labels > 0]
    minus = X[labels < 0]
    if len(plus) == 0 or len(minus) == 0:
        return 1.0
    scatter = np.zeros((2, 2))
    for cls in (plus, minus):
        diff = cls - cls.mean(axis=0)
        scatter += diff.T @ diff
    scatter += 1e-9 * np.eye(2)
    direction = np.linalg.solve(scatter, plus.mean(axis=0) - minus.mean(axis=0))
    z = X @ direction
    order = np.argsort(z, kind="stable")
    sorted_labels = labels[order]
    n = len(labels)
    # plus_left[i]: +1 labels among the first i sorted points
    plus_left = np.concatenate([[0], np.cumsum(sorted_labels > 0)])
    minus_left = np.arange(n + 1) - plus_left
    total_plus = plus_left[-1]
    # threshold after position i: left side predicted -1, right side +1
    correct = minus_left + (total_plus - plus_left)
    best = max(int(correct.max()), int((n - correct).max()))
    return best / n


@dataclass
class EncodingStudy:
    dataset: CircularDataset
    projections: dict  # encoding value -> PcaProjection
    scores: dict       # encoding value -> float

    @property
    def score_gap(self) -> float:
        return self.scores[Encoding.RX_ANGLE.value] - self.scores[Encoding.ROT_H.value]


def encoding_study(n: int = 500, radius: float = DEFAULT_RADIUS, seed: int = 0) -> EncodingStudy:
    """Run the full encoding comparison on one circular dataset."""
    data = circular_dataset(n, radius, seed)
    projections = {}
    scores = {}
    for encoding in (Encoding.RX_ANGLE, Encoding.ROT_H):
        vectors = encoding_probability_vectors(encoding, data)
        projection = pca_2d(vectors)
        projections[encoding.value] = projection
        scores[encoding.value] = separability_score(projection, data.labels)
    return EncodingStudy(dataset=data, projections=projections, scores=scores)


# ---------------------------------------------------------------------------
# labelling experiment
# ---------------------------------------------------------------------------

@dataclass
class LabellingCase:
    name: str
    circuit: CircuitSpec
    run: TrainRun
    accuracy: float
    minus_class_ancilla: np.ndarray  # mean [p0, p1] over the -1-labeled inputs


@dataclass
class LabellingReport:
    dataset: CircularDataset
    cases: list[LabellingCase]

    def case(self, name: str) -> LabellingCase:
        for c in self.cases:
            if c.name == name:
                return c
        raise KeyError(name)

    def summary(self) -> dict:
        return {
            "radius": self.dataset.radius,
            "n_points": len(self.dataset.points),
            "cases": [
                {
                    "name": c.name,
                    "final_loss": float(c.run.final_loss),
                    "accuracy": float(c.accuracy),
                    "minus_class_ancilla": [float(v) for v in c.minus_class_ancilla],
                }
                for c in self.cases
            ],
        }


def _labelled(points: np.ndarray, labels: np.ndarray) -> LabeledGrid:
    return LabeledGrid(points=points, y_continuous=labels, y_binary=labels)


def labelling_experiment(cfg: TrainConfig, n_points: int = 500,
                         radius: float = DEFAULT_RADIUS, seed: int = 0) -> LabellingReport:
    """Train the dissipative perceptron on circular data three ways:
    inner = -1 (works), flipped labels (fails), flipped labels with a
    Pauli X before measurement (works again).  A diverging training is
    named by its case; a dataset with no point of one class is refused
    before any training."""
    data = circular_dataset(n_points, radius, seed)
    for label, name in ((-1.0, "inside"), (1.0, "outside")):
        if not np.any(data.labels == label):
            raise ConfigurationError(f"labelling needs both classes: none of the {n_points} points lies "
                                     f"{name} the circle of radius {radius:g} (class {label:+g})")
    base_circuit = build(dissipative_qp())
    x_circuit = append_x_on_measured(base_circuit)
    cases = []
    setups = [
        ("inner_minus", base_circuit, data.labels),
        ("flipped", base_circuit, -data.labels),
        ("flipped_with_x", x_circuit, -data.labels),
    ]
    for i, (name, circuit, labels) in enumerate(setups):
        dataset = _labelled(data.points, labels)
        run_cfg = replace(cfg, seed=derive_seed(cfg.seed, i, _ROLE_LABELLING))
        try:
            run = train(circuit, dataset, run_cfg, "binary")
        except TrainingDivergedError as exc:
            raise TrainingDivergedError(f"labelling case {name}: {exc}", run=exc.run) from exc
        acc = accuracy(run.final_preds, labels)
        probs = ancilla_probabilities(circuit, data.points, run.final_params)
        minus_mean = probs[labels < 0].mean(axis=0)
        cases.append(
            LabellingCase(
                name=name,
                circuit=circuit,
                run=run,
                accuracy=acc,
                minus_class_ancilla=minus_mean,
            )
        )
    return LabellingReport(dataset=data, cases=cases)


# ---------------------------------------------------------------------------
# input-normalization experiment
# ---------------------------------------------------------------------------

@dataclass
class NormalizationReport:
    full_range: ExperimentResult   # grid over [-pi, pi]
    unit_range: ExperimentResult   # grid over [-1, 1]

    @staticmethod
    def _gap(result: ExperimentResult) -> float:
        losses = [s.mean_final_loss for s in result.students]
        return abs(losses[0] - losses[1])

    @property
    def full_range_gap(self) -> float:
        return self._gap(self.full_range)

    @property
    def unit_range_gap(self) -> float:
        return self._gap(self.unit_range)

    @property
    def gap_ratio(self) -> float:
        return self.unit_range_gap / self.full_range_gap

    def summary(self) -> dict:
        return {
            "full_range": self.full_range.summary(),
            "unit_range": self.unit_range.summary(),
            "full_range_gap": self.full_range_gap,
            "unit_range_gap": self.unit_range_gap,
            "gap_ratio": self.gap_ratio,
        }


def normalization_experiment(cfg: TrainConfig, n_seeds: int = 10, resolution: int = 21,
                             map_resolution: int = 51) -> NormalizationReport:
    """Deep-teacher comparison on [-pi, pi] inputs versus [-1, 1] inputs.
    A diverging run is named by its input range, then as
    ``run_experiment`` names it."""
    teacher = ArchitectureId(Family.DEEP_TEACHER4)
    students = [dissipative_qp(), reuploading(2)]
    results = []
    for lo, hi, label in ((-np.pi, np.pi, "[-pi, pi]"), (-1.0, 1.0, "[-1, 1]")):
        try:
            results.append(run_experiment(teacher, students, n_seeds, cfg, make_grid(resolution, lo, hi),
                                          map_resolution=map_resolution, include_binary=False))
        except TrainingDivergedError as exc:
            raise TrainingDivergedError(f"inputs on {label}: {exc}", run=exc.run) from exc
    return NormalizationReport(full_range=results[0], unit_range=results[1])
