"""In-place batched statevector kernels: the only code that applies gates
to amplitudes.

Amplitudes live in a C-contiguous (B, 2^n) complex128 array, one row per
data point; every row evolves under the same parameter vector.  Every
kernel mutates the array in place with numpy.

A 2x2 matrix payload broadcasts against the amplitudes viewed as (B,
left, 2, right), so its shape says what it indexes by: (2, 2) is shared
by all points and (B, 2, 2) holds one matrix per point.  With qubit 0 as
MSB, a basis index splits as l * (2 * right) + bit * right + r where
left = 2^qubit and right = 2^(n - 1 - qubit).  A FLIP payload is the
pair of index arrays (target bit 0, target bit 1) to swap; a PHASE
payload lists the indices to negate.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# dispatch modes for planned operations; the matrix modes share one
# kernel and differ only in the payload shape above
MODE_CONST = 0    # one 2x2 matrix shared by all points
MODE_PER_B = 1    # matrix indexed by data point
# Never produced since the engine evolves one parameter vector at a
# time; kept distinct because perfbench/spans.py looks up all six names.
MODE_PER_S = 2
MODE_PER_ROW = 3
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


def _apply_matrix(amps, left, right, mats):
    a = amps.reshape(-1, left, 2, right)
    a0 = a[..., 0, :]
    a1 = a[..., 1, :]
    m = mats[..., None, None]  # (..., 2, 2, 1, 1) against (B, left, right)
    old0 = a0.copy()
    a[..., 0, :] = m[..., 0, 0, :, :] * a0 + m[..., 0, 1, :, :] * a1
    a[..., 1, :] = m[..., 1, 0, :, :] * old0 + m[..., 1, 1, :, :] * a1


def apply_planned(op: PlannedOp, amps: np.ndarray) -> None:
    """Apply one lowered gate to (B, dim) amplitudes in place."""
    if op.mode == MODE_FLIP:
        idx0, idx1 = op.payload
        tmp = amps[:, idx0]
        amps[:, idx0] = amps[:, idx1]
        amps[:, idx1] = tmp
    elif op.mode == MODE_PHASE:
        amps[:, op.payload] *= -1.0
    else:
        _apply_matrix(amps, op.left, op.right, op.payload)


def bit_split(n_qubits: int, qubit: int) -> tuple[int, int]:
    """(left, right) of one qubit: 2^qubit and 2^(n - 1 - qubit)."""
    return 1 << qubit, 1 << (n_qubits - 1 - qubit)


@lru_cache(maxsize=None)
def flip_pairs(n_qubits: int, controls: tuple[int, ...], target: int):
    """Index pairs (target bit 0 / 1) to swap for X / CNOT / MCX."""
    idx = np.arange(1 << n_qubits)
    tmask = 1 << (n_qubits - 1 - target)
    hit = (idx & tmask) == 0
    for c in controls:
        cmask = 1 << (n_qubits - 1 - c)
        hit &= (idx & cmask) == cmask
    idx0 = idx[hit]
    idx1 = idx0 | tmask
    idx0.setflags(write=False)
    idx1.setflags(write=False)
    return idx0, idx1


@lru_cache(maxsize=None)
def cz_indices(n_qubits: int, a: int, b: int) -> np.ndarray:
    """Basis indices where both qubits are 1 (the states CZ negates)."""
    idx = np.arange(1 << n_qubits)
    mask = (1 << (n_qubits - 1 - a)) | (1 << (n_qubits - 1 - b))
    out = idx[(idx & mask) == mask]
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def z_signs(n_qubits: int, qubit: int) -> np.ndarray:
    """+1 / -1 per basis index: the diagonal of Z on one qubit."""
    idx = np.arange(1 << n_qubits)
    signs = 1.0 - 2.0 * ((idx >> (n_qubits - 1 - qubit)) & 1)
    signs.setflags(write=False)
    return signs

