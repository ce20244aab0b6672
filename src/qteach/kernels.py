"""In-place batched statevector kernels (the hot path).

Amplitudes live in a C-contiguous (rows, 2^n) complex128 array, one row
per (parameter set, data point) pair with row = s * n_points + b.  Every
kernel mutates the array in place with numpy.  Row-dependent 2x2
matrices index by data point (row % n_points), by parameter set (row //
n_points), or by row.

With qubit 0 as MSB, a basis index splits as l * (2 * right) + bit *
right + r where left = 2^qubit and right = 2^(n - 1 - qubit); kernels
take (left, right) instead of the qubit index.
"""

from __future__ import annotations

import numpy as np


def _split(amps, left, right):
    a = amps.reshape(amps.shape[0], left, 2, right)
    return a, a[:, :, 0, :], a[:, :, 1, :]


def _apply_np(a, a0, a1, m00, m01, m10, m11):
    old0 = a0.copy()
    a[:, :, 0, :] = m00 * a0 + m01 * a1
    a[:, :, 1, :] = m10 * old0 + m11 * a1


def _mat_const(amps, left, right, m00, m01, m10, m11):
    a, a0, a1 = _split(amps, left, right)
    _apply_np(a, a0, a1, m00, m01, m10, m11)


def _mat_rows_np(amps, left, right, row_mats):
    a, a0, a1 = _split(amps, left, right)
    m = row_mats[:, :, :, None, None]  # (N, 2, 2, 1, 1)
    _apply_np(a, a0, a1, m[:, 0, 0], m[:, 0, 1], m[:, 1, 0], m[:, 1, 1])


def _mat_per_b(amps, left, right, mats, n_points):
    reps = amps.shape[0] // n_points
    _mat_rows_np(amps, left, right, np.tile(mats, (reps, 1, 1)))


def _mat_per_s(amps, left, right, mats, n_points):
    _mat_rows_np(amps, left, right, np.repeat(mats, n_points, axis=0))


def _mat_per_row(amps, left, right, mats):
    _mat_rows_np(amps, left, right, mats)


def _flip_pairs(amps, idx0, idx1):
    tmp = amps[:, idx0].copy()
    amps[:, idx0] = amps[:, idx1]
    amps[:, idx1] = tmp


def _phase_flip(amps, idx):
    amps[:, idx] *= -1.0


# dispatch modes for planned operations
MODE_CONST = 0    # one 2x2 matrix shared by all rows
MODE_PER_B = 1    # matrix indexed by data point (row % n_points)
MODE_PER_S = 2    # matrix indexed by parameter set (row // n_points)
MODE_PER_ROW = 3  # matrix indexed by row
MODE_FLIP = 4     # basis-permutation pairs (X / CNOT / MCX)
MODE_PHASE = 5    # sign flip on listed indices (CZ)


class PlannedOp:
    """One gate lowered to a kernel call: mode + payload + bit split."""

    __slots__ = ("mode", "left", "right", "payload")

    def __init__(self, mode: int, left: int, right: int, payload):
        self.mode = mode
        self.left = left
        self.right = right
        self.payload = payload


def apply_planned(op: PlannedOp, amps: np.ndarray, n_points: int) -> None:
    """Apply one lowered gate to (rows, dim) amplitudes in place."""
    if op.mode == MODE_CONST:
        m = op.payload
        _mat_const(amps, op.left, op.right, m[0, 0], m[0, 1], m[1, 0], m[1, 1])
    elif op.mode == MODE_PER_B:
        _mat_per_b(amps, op.left, op.right, op.payload, n_points)
    elif op.mode == MODE_PER_S:
        _mat_per_s(amps, op.left, op.right, op.payload, n_points)
    elif op.mode == MODE_PER_ROW:
        _mat_per_row(amps, op.left, op.right, op.payload)
    elif op.mode == MODE_FLIP:
        idx0, idx1 = op.payload
        _flip_pairs(amps, idx0, idx1)
    else:
        _phase_flip(amps, op.payload)


def fresh_rows(n_rows: int, dim: int) -> np.ndarray:
    """(n_rows, dim) amplitudes, every row initialized to |0...0>."""
    amps = np.zeros((n_rows, dim), dtype=complex)
    amps[:, 0] = 1.0
    return amps
