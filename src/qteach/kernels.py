"""In-place batched statevector kernels: the only code that applies gates
to amplitudes.

A batch of states is stored batch-minor, as a C-contiguous (2^n, rows)
complex128 array, and the kernels receive its (rows, 2^n) transpose, one
row per state, so the long rows axis is innermost.  The rows may hold R
runs of N points each, every run under its own parameter vector.  Every
kernel mutates the amplitudes in place, in any memory order.

A matrix payload acts on one qubit (2, 2, *batch) or on a qubit pair
(4, 4, *batch), and is applied as is: each entry [i, j] is a contiguous
block broadcast against the stored array viewed as (left, 2, right) +
batch, or (left, 2, middle, 2, right) + batch for a pair.  (d, d) is
shared by all rows (MODE_CONST), (d, d, B) holds one matrix per row
(MODE_PER_B), (d, d, R, 1) one per run (MODE_PER_S) and (d, d, R, N) one
per run and point (MODE_PER_ROW).  ``PlannedOp`` reads this mode from
the shape, as a label only: one kernel applies every shape.  With qubit 0
as MSB, a basis index splits as l * (2 * right) + bit * right + r where
left = 2^qubit and right = 2^(n - 1 - qubit); a pair a < b splits as
((l * 2 + bit_a) * middle + m) * 2 * right + bit_b * right + r with
left = 2^a, middle = 2^(b - a - 1) and right = 2^(n - 1 - b), and its
matrix index is 2 * bit_a + bit_b.  New amplitudes are sums of the
matrix entries times the old amplitudes in input-index order, one
numpy call per term, so every row's arithmetic is the same whatever the
payload's batch shape.  A FLIP payload is the pair of index arrays
(target bit 0, target bit 1) whose rows of the stored array swap; a
PHASE payload lists the rows to negate.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# kernel modes of planned operations; the four matrix modes share one
# kernel and name the payload shapes above
MODE_CONST = 0    # one matrix shared by all rows
MODE_PER_B = 1    # matrix indexed by row (data point)
MODE_PER_S = 2    # matrix indexed by run (parameter vector)
MODE_PER_ROW = 3  # matrix indexed by run and data point
MODE_FLIP = 4     # basis-permutation pairs (X / CNOT / MCX)
MODE_PHASE = 5    # sign flip on listed indices (CZ)


class PlannedOp:
    """One gate or fused block lowered to a kernel call: payload + bit
    split; ``middle`` is 0 for one qubit and 2^(b - a - 1) for a pair
    a < b.  A FLIP or PHASE payload comes with its ``mode``; a matrix
    payload's mode is read from its shape."""

    __slots__ = ("mode", "left", "right", "payload", "middle")

    def __init__(self, payload, left: int = 0, right: int = 0, middle: int = 0, mode: int | None = None):
        if mode is None:
            mode = (MODE_CONST, MODE_PER_B,
                    MODE_PER_S if payload.shape[-1] == 1 else MODE_PER_ROW)[payload.ndim - 2]
        self.mode = mode
        self.left = left
        self.right = right
        self.payload = payload
        self.middle = middle


def _apply_matrix(stored, op):
    # the batch is (rows,), or (R, N) for a payload indexed by run; the
    # target bits lead the view q, the spectator axes follow
    mats = op.payload
    batch = mats.shape[2:-1] + (-1,)
    # a shared (d, d) payload broadcasts against the rows axis too
    shape = (1,) * (mats.ndim == 2) + mats.shape[2:]
    if op.middle:
        a = stored.reshape((op.left, 2, op.middle, 2, op.right) + batch)
        q = a.transpose((1, 3, 0, 2) + tuple(range(4, a.ndim)))
        terms = mats.reshape((2, 2, 2, 2, 1, 1, 1) + shape)
        inputs = ((0, 0), (0, 1), (1, 0), (1, 1))
    else:
        a = stored.reshape((op.left, 2, op.right) + batch)
        q = a.transpose((1, 0) + tuple(range(2, a.ndim)))
        terms = mats.reshape((2, 2, 1, 1) + shape)
        inputs = ((0,), (1,))
    index = (slice(None),) * len(inputs[0])
    total = terms[index + inputs[0]] * q[inputs[0]]
    term = np.empty_like(total)
    for j in inputs[1:]:
        np.multiply(terms[index + j], q[j], out=term)
        total += term
    q[...] = total


def apply_planned(op: PlannedOp, amps: np.ndarray) -> None:
    """Apply one lowered gate to (rows, dim) amplitudes in place."""
    stored = amps.T
    if op.mode == MODE_FLIP:
        idx0, idx1 = op.payload
        stored[idx0], stored[idx1] = stored[idx1], stored[idx0]
    elif op.mode == MODE_PHASE:
        stored[op.payload] *= -1.0
    else:
        _apply_matrix(stored, op)


def bit_split(n_qubits: int, qubit: int) -> tuple[int, int]:
    """(left, right) of one qubit: 2^qubit and 2^(n - 1 - qubit)."""
    return 1 << qubit, 1 << (n_qubits - 1 - qubit)


def pair_split(n_qubits: int, a: int, b: int) -> tuple[int, int, int]:
    """(left, middle, right) of the qubit pair a < b."""
    return 1 << a, 1 << (b - a - 1), 1 << (n_qubits - 1 - b)


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

