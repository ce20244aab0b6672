"""Evaluation tools: prediction maps, relative entropy, accuracy.

A prediction map is the model output evaluated on a dense square grid of
input points; it is the object the relative-entropy comparison works on.
It is summed from the model's exact Fourier series, which a few circuit
evaluations fix whatever the resolution.
To compare two maps they are first offset and renormalized into strictly
positive distributions, then S(P||Q) = sum p ln(p/q) with P the teacher
map and Q the student map (S is asymmetric; this order is fixed
everywhere).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .circuits import CircuitSpec, forward_batch, periodic_samples
from .circuits import fourier_degrees  # noqa: F401  (metrics.fourier_degrees is public)
from .errors import ConfigurationError, StructuralError
from .training import binarize

#: offset floor: keeps the normalized distribution strictly positive even
#: when the offset map is zero everywhere (constant maps)
EPSILON = 1e-9

#: Fourier coefficients below this magnitude are the rounding noise of the
#: circuit samples and are dropped, so a map that does not depend on the
#: input comes out exactly constant
COEFFICIENT_CUT = 64 * np.finfo(float).eps


@dataclass(frozen=True)
class PredictionMap:
    """Dense grid of model outputs over [lo, hi]^2.

    values[i, j] is the output at (axis[i], axis[j]) where axis is the
    inclusive linspace of length ``resolution``.  A resolution below 2,
    bounds that are not finite with lo < hi, or values outside [-1, 1]
    are a StructuralError.
    """

    resolution: int
    lo: float
    hi: float
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.resolution < 2:
            raise StructuralError(f"resolution must be >= 2, got {self.resolution}")
        if not (np.isfinite(self.lo) and np.isfinite(self.hi) and self.lo < self.hi):
            raise StructuralError(f"bounds must be finite with lo < hi, got ({self.lo}, {self.hi})")
        if self.values.shape != (self.resolution, self.resolution):
            raise StructuralError(
                f"values must be {self.resolution}x{self.resolution}, got {self.values.shape}"
            )
        if not np.all(np.abs(self.values) <= 1.0):  # also rejects NaN
            raise StructuralError("prediction-map values must be finite and lie in [-1, 1]")

    def axis(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.resolution)

    def same_grid(self, other: "PredictionMap") -> bool:
        return (self.resolution, self.lo, self.hi) == (other.resolution, other.lo, other.hi)


def prediction_map(circuit: CircuitSpec, w: np.ndarray, resolution: int,
                   bounds: tuple[float, float] = (-np.pi, np.pi)) -> PredictionMap:
    """Evaluate the model on a resolution x resolution grid.

    The model is a trigonometric polynomial of degree at most d_c in x_c,
    the number of angle slots x_c fills (``circuits.fourier_degrees``;
    Schuld, Sweke & Meyer, arXiv:2008.08605).  So (2 d1 + 1)(2 d2 + 1)
    circuit evaluations on the periodic grid t_j = 2 pi j / (2 d_c + 1)
    (``circuits.periodic_samples``) fix it exactly, whatever the
    resolution.  Their 2-D DFT gives the coefficients; those below
    ``COEFFICIENT_CUT`` are rounding noise and set to zero; the series is
    then summed on the requested grid and clipped to [-1, 1].
    """
    if resolution < 2:
        raise ConfigurationError(f"resolution must be >= 2, got {resolution}")
    lo, hi = float(bounds[0]), float(bounds[1])
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ConfigurationError(f"map bounds must be finite with lo < hi, got {bounds}")
    axes, points = periodic_samples(circuit)
    sizes = [len(t) for t in axes]
    samples = forward_batch(circuit, points, w)
    coeffs = np.fft.fft2(samples.reshape(sizes)) / samples.size
    coeffs[np.abs(coeffs) < COEFFICIENT_CUT] = 0.0
    axis = np.linspace(lo, hi, resolution)
    # (resolution, n_c) waves exp(i k x) over the DFT's integer frequencies;
    # einsum keeps the sums in numpy's own loops (no threaded BLAS)
    waves1, waves2 = (np.exp(1j * axis[:, None] * np.fft.fftfreq(n, 1.0 / n)) for n in sizes)
    values = np.einsum("ik,kj->ij", waves1, np.einsum("kl,jl->kj", coeffs, waves2)).real
    return PredictionMap(resolution, lo, hi, np.clip(values, -1.0, 1.0))


def normalize_to_distribution(pmap: PredictionMap) -> np.ndarray:
    """Offset map values into a strictly positive distribution summing to 1.

    The offset is the map's own minimum (plus the EPSILON floor), so the
    distribution reflects the map's relief rather than its absolute
    level; constant maps normalize to uniform.
    """
    flat = pmap.values.ravel()
    shifted = flat - flat.min() + EPSILON
    return shifted / shifted.sum()


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """sum p ln(p/q) for two strictly positive distributions."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise StructuralError(f"distribution shape mismatch: {p.shape} vs {q.shape}")
    return float(np.sum(p * np.log(p / q)))


def relative_entropy(teacher_map: PredictionMap, student_map: PredictionMap) -> float:
    """S(P||Q) = sum p ln(p/q), P = teacher, Q = student; >= 0."""
    if not teacher_map.same_grid(student_map):
        raise StructuralError(
            f"grid mismatch: {(teacher_map.resolution, teacher_map.lo, teacher_map.hi)} vs "
            f"{(student_map.resolution, student_map.lo, student_map.hi)}"
        )
    return kl_divergence(normalize_to_distribution(teacher_map), normalize_to_distribution(student_map))


def accuracy(predictions: Sequence[float], y_binary: Sequence[float]) -> float:
    """Fraction of points where sign(prediction) matches the +-1 label."""
    predictions = np.asarray(predictions, dtype=float)
    y_binary = np.asarray(y_binary, dtype=float)
    if predictions.shape != y_binary.shape:
        raise StructuralError(
            f"length mismatch: {predictions.shape} predictions vs {y_binary.shape} labels"
        )
    return float(np.mean(binarize(predictions) == y_binary))


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------

def write_prediction_map(pmap: PredictionMap, path) -> None:
    """Header block (resolution, lo, hi) followed by the full-precision matrix.

    The bytes are those of ``csv.writer`` with its default dialect: commas,
    CRLF line ends, and no quoting, which ``repr`` of a float never needs.
    """
    with open(path, "w", newline="") as fh:
        fh.write(f"resolution,lo,hi\r\n{pmap.resolution},{float(pmap.lo)!r},{float(pmap.hi)!r}\r\n")
        fh.writelines(",".join(map(repr, row)) + "\r\n" for row in pmap.values.tolist())


def read_prediction_map(path) -> PredictionMap:
    """Inverse of ``write_prediction_map``; any other layout, including
    ragged rows and values that do not parse, is a StructuralError."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 3 or rows[0] != ["resolution", "lo", "hi"] or len(rows[1]) != 3:
        raise StructuralError(f"{path} is not a prediction-map CSV")
    try:
        resolution = int(rows[1][0])
        lo, hi = float(rows[1][1]), float(rows[1][2])
        values = np.array([[float(v) for v in row] for row in rows[2:]])
    except ValueError as exc:
        raise StructuralError(f"{path} is not a prediction-map CSV: {exc}") from None
    return PredictionMap(resolution, lo, hi, values)
