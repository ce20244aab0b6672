"""Dense statevector simulation of few-qubit circuits.

Bit convention: qubit 0 is the most significant bit of a basis-state
index, i.e. for n qubits the state |b0 b1 ... b(n-1)> sits at index
sum_q b_q * 2**(n-1-q).  Every function in this module follows it.

Every rotation matrix comes from one formula, ``rot_matrix``: RX, RY and
RZ are Rots at the angles ``ROT_ANGLES`` gives (``matrix_builder``).  It
returns its matrices in the one layout the kernels apply: angles of
shape ``batch`` give a (2, 2) + batch array, so each entry [i, j] is one
contiguous block, and scalar angles give a plain (2, 2) matrix.

``lower_gate`` turns a gate into a ``kernels.PlannedOp`` whose payload is
the builder's output as is, and ``kernels.apply_planned`` applies it;
that is the one path by which any gate reaches amplitudes
(``circuits`` fuses gates into 4 x 4 blocks built from
``matrix_builder``, and applies those the same way).  Its angles are
scalars or one value per data point, so a lowered gate acts on a batch
of points under one parameter vector.  ``apply_gate`` runs it on a
(1, 2^n) copy of a state.  The measurement kernels
(``expectation_z_kernel``, ``probability_vector_kernel``) accept
arbitrary leading batch axes, in any memory order.

Rotation conventions: Rx(phi) = exp(-i*phi*sigma_x/2) (likewise Ry/Rz),
and Rot(phi, theta, omega) = Rz(omega) @ Ry(theta) @ Rz(phi).  The tests
check the builders and kernels against a naive Kronecker-product oracle
(``tests/conftest.py``) that forms its own 2x2 matrices from these
definitions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from . import kernels
from .errors import ConfigurationError, StructuralError

MAX_QUBITS = 20

_SQRT2_INV = 1.0 / np.sqrt(2.0)
HADAMARD = np.array([[_SQRT2_INV, _SQRT2_INV], [_SQRT2_INV, -_SQRT2_INV]], dtype=complex)


class GateKind(str, Enum):
    RX = "RX"
    RY = "RY"
    RZ = "RZ"
    ROT = "ROT"
    H = "H"
    X = "X"
    CZ = "CZ"
    CNOT = "CNOT"
    MCX = "MCX"


#: number of real angles each gate kind carries
ANGLE_COUNTS = {
    GateKind.RX: 1,
    GateKind.RY: 1,
    GateKind.RZ: 1,
    GateKind.ROT: 3,
    GateKind.H: 0,
    GateKind.X: 0,
    GateKind.CZ: 0,
    GateKind.CNOT: 0,
    GateKind.MCX: 0,
}

#: gate kinds that may carry controls
CONTROLLED_KINDS = (GateKind.CZ, GateKind.CNOT, GateKind.MCX)


@dataclass(frozen=True)
class GateOp:
    """One concrete gate: kind, wiring, and resolved angles in radians."""

    kind: GateKind
    targets: tuple[int, ...]
    controls: tuple[int, ...] = ()
    params: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(int(q) for q in self.targets))
        object.__setattr__(self, "controls", tuple(int(q) for q in self.controls))
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if len(self.targets) != 1:
            raise StructuralError(f"{self.kind.value} expects exactly one target, got {self.targets}")
        if self.controls and self.kind not in CONTROLLED_KINDS:
            raise StructuralError(f"{self.kind.value} takes no controls")
        if self.kind in (GateKind.CZ, GateKind.CNOT) and len(self.controls) != 1:
            raise StructuralError(f"{self.kind.value} expects exactly one control")
        if self.kind is GateKind.MCX and not self.controls:
            raise StructuralError("MCX expects at least one control")
        if len(set(self.controls + self.targets)) != len(self.controls) + len(self.targets):
            raise StructuralError(f"controls and targets overlap: {self.controls} / {self.targets}")
        if any(q < 0 for q in self.controls + self.targets):
            raise StructuralError("negative qubit index")
        if len(self.params) != ANGLE_COUNTS[self.kind]:
            raise StructuralError(
                f"{self.kind.value} expects {ANGLE_COUNTS[self.kind]} angle(s), got {len(self.params)}"
            )


@dataclass
class QuantumState:
    """Dense complex amplitude vector over n qubits."""

    n_qubits: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (1 << self.n_qubits,):
            raise StructuralError(
                f"amplitude vector must have length {1 << self.n_qubits}, got {self.amplitudes.shape}"
            )

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def new_state(n_qubits: int) -> QuantumState:
    """All-zeros computational basis state |0...0>."""
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ConfigurationError(f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}")
    amps = np.zeros(1 << n_qubits, dtype=complex)
    amps[0] = 1.0
    return QuantumState(n_qubits, amps)


# ---------------------------------------------------------------------------
# the one rotation formula: angles of shape batch (scalars or broadcastable
# arrays) give a (2, 2) + batch array
# ---------------------------------------------------------------------------

# the phases of Rot's top row, e = exp(-i (phi + omega) / 2) and f = exp(i (phi - omega) / 2)
_ROT_PHI = np.array([-1.0, 1.0])
_ROT_OMEGA = np.array([-1.0, -1.0])


def rot_matrix(phi, theta, omega) -> np.ndarray:
    """Rz(omega) @ Ry(theta) @ Rz(phi) in closed form: [[e c, -f s],
    [conj(f) s, conj(e) c]] with e = exp(-i (phi + omega) / 2), f =
    exp(i (phi - omega) / 2), c = cos(theta / 2) and s = sin(theta / 2)."""
    phi, theta, omega = (np.asarray(a, dtype=float) for a in (phi, theta, omega))
    axes = (1,) * max(phi.ndim, theta.ndim, omega.ndim)
    half = 0.5 * theta.reshape(axes[theta.ndim:] + theta.shape)
    cos_sin = np.empty((2,) + half.shape)
    np.cos(half, out=cos_sin[0, ...])
    np.sin(half, out=cos_sin[1, ...])
    phases = np.exp(0.5j * (_ROT_PHI.reshape((2,) + axes) * phi + _ROT_OMEGA.reshape((2,) + axes) * omega))
    m = np.empty((2,) + np.broadcast(phases, cos_sin).shape, dtype=complex)
    np.multiply(phases, cos_sin, out=m[0])
    np.multiply(np.conj(phases[::-1]), cos_sin[::-1], out=m[1])
    np.negative(m[0, 1, ...], out=m[0, 1, ...])
    return m


#: the Rot angles (phi, theta, omega) of each rotation kind from its own angles
#: ``a``, ``fixed`` making a float a fixed angle (Rx(t) = Rz(-pi/2) Ry(t) Rz(pi/2));
#: ``matrix_builder`` and the trainable blocks of ``circuits`` both read it
ROT_ANGLES = {
    GateKind.ROT: lambda a, fixed: tuple(a),
    GateKind.RZ: lambda a, fixed: (a[0], fixed(0.0), fixed(0.0)),
    GateKind.RY: lambda a, fixed: (fixed(0.0), a[0], fixed(0.0)),
    GateKind.RX: lambda a, fixed: (fixed(np.pi / 2), a[0], fixed(-np.pi / 2)),
}


def matrix_builder(kind: GateKind):
    """Angle-sequence -> (2, 2) + batch builder: ``rot_matrix`` at the kind's ``ROT_ANGLES``."""
    if kind not in ROT_ANGLES:
        raise StructuralError(f"{kind.value} has no angle-parameterized matrix")
    return lambda angles: rot_matrix(*ROT_ANGLES[kind](angles, float))


def _check_indices(n_qubits: int, qubits: Iterable[int]) -> None:
    for q in qubits:
        if not 0 <= q < n_qubits:
            raise StructuralError(f"qubit index {q} out of range for {n_qubits} qubits")


# ---------------------------------------------------------------------------
# lowering and batched measurement kernels
# ---------------------------------------------------------------------------

def lower_gate(kind: GateKind, n_qubits: int, target: int, controls: tuple[int, ...] = (),
               angles: Sequence = ()) -> kernels.PlannedOp:
    """One gate as a kernel call, with qubit indices already checked.

    ``angles`` are scalars or (B,) arrays, one entry per data point.  A
    rotation whose angles are all scalars lowers to one (2, 2) matrix;
    any (B,) angle gives one matrix per point, whether the other angles
    are data, parameters or constants: the builder's (2, 2, B) output is
    the payload, and ``kernels.PlannedOp`` reads its mode from the shape.
    """
    if kind is GateKind.CZ:
        return kernels.PlannedOp(kernels.cz_indices(n_qubits, controls[0], target), mode=kernels.MODE_PHASE)
    if kind in (GateKind.X, GateKind.CNOT, GateKind.MCX):
        return kernels.PlannedOp(kernels.flip_pairs(n_qubits, tuple(controls), target), mode=kernels.MODE_FLIP)
    mats = HADAMARD if kind is GateKind.H else matrix_builder(kind)(angles)
    return kernels.PlannedOp(mats, *kernels.bit_split(n_qubits, target))


def _probabilities(amps: np.ndarray) -> np.ndarray:
    """|amps|^2 as a new C-ordered real array, whatever the order of ``amps``."""
    probs = np.square(amps.real, out=np.empty(amps.shape))
    probs += np.square(amps.imag)
    return probs


def expectation_z_kernel(amps: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """<O> of a +-1 diagonal observable O (``signs``, one entry per basis
    index; Z on one qubit is ``kernels.z_signs``) for every state in the
    batch, clipped to [-1, 1] (the exact value lies there; roundoff can
    exceed it by ~1e-16).

    The reduction runs per row with a fixed order, so a state's value
    does not depend on how many others share the batch, nor on the
    memory order of ``amps``."""
    probs = _probabilities(amps)
    probs *= signs
    vals = np.add.reduce(probs, axis=-1)
    return np.minimum(np.maximum(vals, -1.0), 1.0)


def probability_vector_kernel(amps: np.ndarray, n_qubits: int, qubits: Sequence[int]) -> np.ndarray:
    """Marginal probabilities of the listed qubits, lexicographic bit order
    (first listed qubit = most significant bit of the outcome index)."""
    qubits = [int(q) for q in qubits]
    if len(set(qubits)) != len(qubits):
        raise StructuralError(f"duplicate qubit indices: {qubits}")
    _check_indices(n_qubits, qubits)
    batch = amps.shape[:-1]
    nb = len(batch)
    probs = _probabilities(amps).reshape(batch + (2,) * n_qubits)
    drop = tuple(nb + q for q in range(n_qubits) if q not in qubits)
    marg = probs.sum(axis=drop) if drop else probs
    # remaining qubit axes sit in ascending index order; permute to the listed order
    ascending = sorted(qubits)
    src = [nb + ascending.index(q) for q in qubits]
    dst = [nb + i for i in range(len(qubits))]
    marg = np.moveaxis(marg, src, dst)
    return marg.reshape(batch + (1 << len(qubits),))


# ---------------------------------------------------------------------------
# single-state operations
# ---------------------------------------------------------------------------

def apply_gate(state: QuantumState, gate: GateOp) -> QuantumState:
    """Return the state transformed by one gate (the input is not mutated)."""
    n_qubits = state.n_qubits
    _check_indices(n_qubits, gate.targets + gate.controls)
    amps = state.amplitudes[None, :].copy()
    planned = lower_gate(gate.kind, n_qubits, gate.targets[0], gate.controls, gate.params)
    kernels.apply_planned(planned, amps)
    return QuantumState(n_qubits, amps[0])


def run_gates(state: QuantumState, gates: Iterable[GateOp]) -> QuantumState:
    for gate in gates:
        state = apply_gate(state, gate)
    return state


def expectation_z(state: QuantumState, qubit: int) -> float:
    _check_indices(state.n_qubits, (qubit,))
    return float(expectation_z_kernel(state.amplitudes, kernels.z_signs(state.n_qubits, qubit)))


def probability_vector(state: QuantumState, qubits: Sequence[int]) -> np.ndarray:
    return probability_vector_kernel(state.amplitudes, state.n_qubits, qubits)

