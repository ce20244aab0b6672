"""Evaluation tools: prediction maps, relative entropy, accuracy.

A prediction map is the model output evaluated on a dense square grid of
input points; it is the object the relative-entropy comparison works on.
A model's map is kept as its exact Fourier series, which a few circuit
evaluations fix whatever the resolution (``fourier_coefficients``), and
summed in row blocks of at most ``circuits._BLOCK_BYTES`` of complex
partial sums whenever its values are used: comparing two maps and
writing one need memory for a block or two, not for the whole grid.
To compare two maps they are first offset and renormalized into strictly
positive distributions, then S(P||Q) = sum p ln(p/q) with P the teacher
map and Q the student map (S is asymmetric; this order is fixed
everywhere).
"""

from __future__ import annotations

import csv
import os
from typing import Iterator, Optional, Sequence

import numpy as np

from . import circuits
from .circuits import CircuitSpec, forward_batch, periodic_samples
from .errors import ConfigurationError, StructuralError
from .training import binarize

#: offset floor: keeps the normalized distribution strictly positive even
#: when the offset map is zero everywhere (constant maps)
EPSILON = 1e-9

#: Fourier coefficients below this magnitude are the rounding noise of the
#: circuit samples and are dropped, so a map that does not depend on the
#: input comes out exactly constant
COEFFICIENT_CUT = 64 * np.finfo(float).eps


def _waves(axis: np.ndarray, n: int) -> np.ndarray:
    """(len(axis), n) waves exp(i k x) over the integer frequencies k of an
    n-point DFT, in ``np.fft`` order."""
    return np.exp(1j * axis[:, None] * np.fft.fftfreq(n, 1.0 / n))


def _clipped_real(sums: np.ndarray) -> np.ndarray:
    """The real part of complex ``sums`` clipped to [-1, 1] in place: a
    view, so a block needs no second array."""
    real = sums.real
    return np.clip(real, -1.0, 1.0, out=real)


class PredictionMap:
    """Model outputs on the resolution x resolution grid over [lo, hi]^2.

    values[i, j] is the output at (axis[i], axis[j]) where axis is the
    inclusive linspace of length ``resolution``.  A map holds either those
    values, or the model's Fourier coefficients (``prediction_map``), from
    which ``blocks`` sums the values a row block at a time and ``values``
    the whole grid.  A resolution below 2, bounds that are not finite with
    lo < hi, values outside [-1, 1], or coefficients that are not a finite
    2-D array are a StructuralError.
    """

    def __init__(self, resolution: int, lo: float, hi: float, values=None, *,
                 coefficients: Optional[np.ndarray] = None):
        if resolution < 2:
            raise StructuralError(f"resolution must be >= 2, got {resolution}")
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise StructuralError(f"bounds must be finite with lo < hi, got ({lo}, {hi})")
        self.resolution, self.lo, self.hi = resolution, lo, hi
        self.coefficients = None if coefficients is None else np.asarray(coefficients, dtype=complex)
        if self.coefficients is not None:
            if values is not None or self.coefficients.ndim != 2 or not np.all(np.isfinite(self.coefficients)):
                raise StructuralError("a map holds either values or a finite 2-D array of coefficients")
            return
        self._values = np.asarray(values, dtype=float)
        if self._values.shape != (resolution, resolution):
            raise StructuralError(f"values must be {resolution}x{resolution}, got {self._values.shape}")
        if not np.all(np.abs(self._values) <= 1.0):  # also rejects NaN
            raise StructuralError("prediction-map values must be finite and lie in [-1, 1]")

    def axis(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.resolution)

    def same_grid(self, other: "PredictionMap") -> bool:
        return (self.resolution, self.lo, self.hi) == (other.resolution, other.lo, other.hi)

    def block_rows(self) -> int:
        """Rows per block: a block's complex partial sums fill at most
        ``circuits._BLOCK_BYTES`` (one block up to a 256 x 256 map)."""
        return max(1, circuits._BLOCK_BYTES // (16 * self.resolution))

    def blocks(self, rows: Optional[int] = None) -> Iterator[np.ndarray]:
        """The values as consecutive blocks of ``rows`` rows (default
        ``block_rows``; the last block may have fewer), each the caller's
        own array to write to.  A coefficient map sums each block's series
        when it is asked for, equal bit for bit to the same rows of the
        whole grid summed at once; the block is a view of the real parts of
        its complex sums."""
        rows = rows or self.block_rows()
        if self.coefficients is None:
            for start in range(0, self.resolution, rows):
                yield self._values[start:start + rows].copy()
            return
        axis = self.axis()
        n1, n2 = self.coefficients.shape
        # einsum keeps the sums in numpy's own loops (no threaded BLAS)
        partial = np.einsum("kl,jl->kj", self.coefficients, _waves(axis, n2))
        for start in range(0, self.resolution, rows):
            yield _clipped_real(np.einsum("ik,kj->ij", _waves(axis[start:start + rows], n1), partial))

    @property
    def values(self) -> np.ndarray:
        """The whole (resolution, resolution) grid of outputs."""
        if self.coefficients is None:
            return self._values
        values = np.empty((self.resolution, self.resolution))
        rows = self.block_rows()
        for k, block in enumerate(self.blocks()):
            values[k * rows:(k + 1) * rows] = block
        return values


def fourier_coefficients(circuit: CircuitSpec, w: np.ndarray) -> np.ndarray:
    """The model's Fourier series f(x) = sum_k c_k exp(i k . x), exactly.

    The model is a trigonometric polynomial of degree at most d_c in x_c,
    the number of angle slots x_c fills (``circuits.fourier_degrees``;
    Schuld, Sweke & Meyer, arXiv:2008.08605).  So (2 d1 + 1)(2 d2 + 1)
    circuit evaluations on the periodic grid t_j = 2 pi j / (2 d_c + 1)
    (``circuits.periodic_samples``) fix it.  Returns their 2-D DFT, the
    (2 d1 + 1, 2 d2 + 1) complex c_k in ``np.fft`` order (frequency k_c at
    index k_c mod (2 d_c + 1)), with the coefficients below
    ``COEFFICIENT_CUT``, which are rounding noise, set to zero.
    """
    axes, points = periodic_samples(circuit)
    samples = forward_batch(circuit, points, w)
    coeffs = np.fft.fft2(samples.reshape([len(t) for t in axes])) / samples.size
    coeffs[np.abs(coeffs) < COEFFICIENT_CUT] = 0.0
    return coeffs


def prediction_map(circuit: CircuitSpec, w: np.ndarray, resolution: int,
                   bounds: tuple[float, float] = (-np.pi, np.pi)) -> PredictionMap:
    """The model's map on a resolution x resolution grid over ``bounds``,
    kept as its ``fourier_coefficients``: the series is summed on the grid,
    and clipped to [-1, 1], block by block when the values are used."""
    if resolution < 2:
        raise ConfigurationError(f"resolution must be >= 2, got {resolution}")
    lo, hi = float(bounds[0]), float(bounds[1])
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ConfigurationError(f"map bounds must be finite with lo < hi, got {bounds}")
    return PredictionMap(resolution, lo, hi, coefficients=fourier_coefficients(circuit, w))


def _offset(block: np.ndarray, low) -> np.ndarray:
    """block - low + EPSILON, in place."""
    block -= low
    block += EPSILON
    return block


def _offset_sum(pmap: PredictionMap, rows: int) -> tuple[float, float, Optional[np.ndarray]]:
    """First pass of ``relative_entropy`` over a map's blocks: its minimum
    m, the sum S of v - m + EPSILON over the map, and, for a map of one
    block, that block's v - m + EPSILON (else None).

    Each block is offset by its own minimum m_b, so S adds nonnegative
    terms, sum(v - m_b + EPSILON) + n_b (m_b - m), and a constant map
    gives exactly n EPSILON; with one block S is sum(v - m + EPSILON).
    """
    parts = []
    for block in pmap.blocks(rows):
        low = block.min()
        parts.append((low, block.size, _offset(block, low).sum()))
    low = min(part[0] for part in parts)
    total = sum(part_sum + size * (part_low - low) for part_low, size, part_sum in parts)
    return low, total, block if len(parts) == 1 else None


def _entropy_term(p: np.ndarray, q: np.ndarray, p_sum: float, q_sum: float) -> float:
    """sum p ln(p/q) over a pair of offset blocks normalized by the sums of
    their maps, computed in place in p and q."""
    p /= p_sum
    q /= q_sum
    np.divide(p, q, out=q)
    np.log(q, out=q)
    q *= p
    return q.sum()


def relative_entropy(teacher_map: PredictionMap, student_map: PredictionMap) -> float:
    """S(P||Q) = sum p ln(p/q), P = teacher, Q = student; >= 0.

    Two passes over the maps' row blocks: the minimum and normalizing sum
    of each map, then the sum of p ln(p/q).  A map of one block keeps its
    offset block between the passes, so the result is bit for bit that of
    the dense reference the tests keep (the whole maps offset by their
    minima and EPSILON, normalized, then sum p ln(p/q)); above one block
    only the order of the sums differs.
    """
    if not teacher_map.same_grid(student_map):
        raise StructuralError(
            f"grid mismatch: {(teacher_map.resolution, teacher_map.lo, teacher_map.hi)} vs "
            f"{(student_map.resolution, student_map.lo, student_map.hi)}"
        )
    rows = teacher_map.block_rows()
    if rows < teacher_map.resolution:
        # the second pass holds a block of each map: half blocks keep the
        # pair within _BLOCK_BYTES
        rows = max(1, rows // 2)
    (p_low, p_sum, p), (q_low, q_sum, q) = _offset_sum(teacher_map, rows), _offset_sum(student_map, rows)
    if p is not None:
        return float(_entropy_term(p, q, p_sum, q_sum))
    # map, unlike a for loop, drops each pair of blocks before it sums the next
    terms = map(lambda p, q: _entropy_term(_offset(p, p_low), _offset(q, q_low), p_sum, q_sum),
                teacher_map.blocks(rows), student_map.blocks(rows))
    total = 0.0
    for term in terms:
        total += term
    return float(total)


def accuracy(predictions: Sequence[float], y_binary: Sequence[float]) -> float:
    """Fraction of points where sign(prediction) matches the +-1 label."""
    predictions = np.asarray(predictions, dtype=float)
    y_binary = np.asarray(y_binary, dtype=float)
    if predictions.shape != y_binary.shape:
        raise StructuralError(
            f"length mismatch: {predictions.shape} predictions vs {y_binary.shape} labels"
        )
    if predictions.size == 0:
        raise StructuralError("accuracy of no points is undefined")
    return float(np.mean(binarize(predictions) == y_binary))


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------

def write_prediction_map(pmap: PredictionMap, path) -> None:
    """Header block (resolution, lo, hi) followed by the full-precision matrix.

    The bytes are those of ``csv.writer`` with its default dialect: commas,
    CRLF line ends, and no quoting, which ``repr`` of a float never needs.
    The values are summed a block at a time and formatted a row at a time.
    """
    with open(path, "w", newline="") as fh:
        fh.write(f"resolution,lo,hi\r\n{pmap.resolution},{float(pmap.lo)!r},{float(pmap.hi)!r}\r\n")
        for block in pmap.blocks():
            fh.writelines(",".join(map(repr, row.tolist())) + "\r\n" for row in block)
            del block  # frees the block before the next one is summed


def read_prediction_map(path) -> PredictionMap:
    """Inverse of ``write_prediction_map``, parsed row by row into the
    (resolution, resolution) array; any other layout, including ragged
    rows, a wrong row count and values that do not parse, is a
    StructuralError."""
    def malformed(reason):
        return StructuralError(f"{path} is not a prediction-map CSV: {reason}")

    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header, meta = next(reader, None), next(reader, None)
        if header != ["resolution", "lo", "hi"] or meta is None or len(meta) != 3:
            raise malformed("no resolution,lo,hi header")
        try:
            resolution = int(meta[0])
            lo, hi = float(meta[1]), float(meta[2])
        except ValueError as exc:
            raise malformed(exc) from None
        # every value takes at least two bytes of the file (a digit and a
        # separator), so a resolution too large for the file is rejected
        # before its array is allocated
        if resolution < 2 or resolution * resolution > os.fstat(fh.fileno()).st_size:
            raise malformed(f"resolution {resolution} does not fit the file")
        values = np.empty((resolution, resolution))
        count = 0
        for count, row in enumerate(reader, start=1):
            if count > resolution or len(row) != resolution:
                raise malformed(f"row {count} is not one of {resolution} rows of {resolution} values")
            try:
                values[count - 1] = [float(v) for v in row]
            except ValueError as exc:
                raise malformed(exc) from None
    if count != resolution:
        raise malformed(f"{count} rows, not {resolution}")
    return PredictionMap(resolution, lo, hi, values)
