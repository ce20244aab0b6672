"""In-place batched statevector kernels: the only code that applies gates
to amplitudes.

A batch of states is stored batch-minor, as a C-contiguous (2^n, rows)
complex128 array, and the kernels receive its (rows, 2^n) transpose, one
row per state, so the long rows axis is innermost.  The rows may hold R
runs of N points each, every run under its own parameter vector.  Every
kernel mutates the amplitudes in place, in any memory order.

A 2x2 matrix payload is stored as (2, 2, *batch): each entry [i, j] is a
contiguous block broadcast against the stored array viewed as
(left, 2, right) + batch.  (2, 2) is shared by all rows, (2, 2, B) holds
one matrix per row, (2, 2, R, 1) one per run and (2, 2, R, N) one per run
and point.  With qubit 0 as MSB, a basis index splits as
l * (2 * right) + bit * right + r where left = 2^qubit and
right = 2^(n - 1 - qubit).  A FLIP payload is the pair of index arrays
(target bit 0, target bit 1) whose rows of the stored array swap; a
PHASE payload lists the rows to negate.

Every intermediate array of a gate is a view of one of two flat scratch
buffers per thread, which grow to the largest half-state served, so a
gate allocates no array of its own once they are large enough (numpy may
still buffer an operand inside one call).
"""

from __future__ import annotations

import math
import threading
from functools import lru_cache

import numpy as np

# dispatch modes for planned operations; the matrix modes share one
# kernel and differ only in the payload shape above
MODE_CONST = 0    # one 2x2 matrix shared by all rows
MODE_PER_B = 1    # matrix indexed by row (data point)
MODE_PER_S = 2    # matrix indexed by run (parameter vector)
MODE_PER_ROW = 3  # matrix indexed by run and data point
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


class _Scratch(threading.local):
    """The calling thread's two flat complex buffers.  Kernels only write
    them before reading them, so nothing carries over from one gate to
    the next; one set per thread keeps concurrent callers apart."""

    def __init__(self):
        self.flat = (np.empty(0, dtype=complex), np.empty(0, dtype=complex))


_scratch = _Scratch()


def _buffers(shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Two scratch arrays of ``shape``, views of the thread's flat buffers,
    which are replaced by larger ones when too small."""
    size = math.prod(shape)
    if _scratch.flat[0].size < size:
        _scratch.flat = (np.empty(size, dtype=complex), np.empty(size, dtype=complex))
    return _scratch.flat[0][:size].reshape(shape), _scratch.flat[1][:size].reshape(shape)


def payload(mats: np.ndarray) -> np.ndarray:
    """A (..., 2, 2) stack of matrices as a (2, 2, ...) matrix payload."""
    return np.ascontiguousarray(np.moveaxis(mats, (-2, -1), (0, 1)))


def _apply_matrix(stored, left, right, mats):
    # (left, 2, right) + batch: the batch is (rows,), or (R, N) for a
    # payload indexed by run
    a = stored.reshape((left, 2, right) + mats.shape[2:-1] + (-1,))
    a0 = a[:, 0]
    a1 = a[:, 1]
    new0, tmp = _buffers(a0.shape)
    np.multiply(mats[0, 0], a0, out=new0)
    np.multiply(mats[0, 1], a1, out=tmp)
    np.add(new0, tmp, out=new0)
    np.multiply(mats[1, 0], a0, out=tmp)
    np.copyto(a0, new0)
    np.multiply(mats[1, 1], a1, out=new0)
    np.add(tmp, new0, out=a1)


def apply_planned(op: PlannedOp, amps: np.ndarray) -> None:
    """Apply one lowered gate to (rows, dim) amplitudes in place."""
    stored = amps.T
    if op.mode == MODE_FLIP:
        idx0, idx1 = op.payload
        at0, at1 = _buffers((len(idx0), stored.shape[1]))
        # mode="clip" lets take write straight into out; the indices are in range
        np.take(stored, idx0, axis=0, out=at0, mode="clip")
        np.take(stored, idx1, axis=0, out=at1, mode="clip")
        stored[idx0] = at1
        stored[idx1] = at0
    elif op.mode == MODE_PHASE:
        hit, _ = _buffers((len(op.payload), stored.shape[1]))
        np.take(stored, op.payload, axis=0, out=hit, mode="clip")
        np.multiply(hit, -1.0, out=hit)
        stored[op.payload] = hit
    else:
        _apply_matrix(stored, op.left, op.right, op.payload)


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

