"""Dense statevector simulation of few-qubit circuits.

Bit convention: qubit 0 is the most significant bit of a basis-state
index, i.e. for n qubits the state |b0 b1 ... b(n-1)> sits at index
sum_q b_q * 2**(n-1-q).  Every function in this module follows it.

The rotation builders return their matrices in the one layout the
kernels apply: angles of shape ``batch`` give a (2, 2) + batch array, so
each entry [i, j] is one contiguous block, and scalar angles give a
plain (2, 2) matrix.

``lower_gate`` turns a gate into a ``kernels.PlannedOp`` whose payload is
the builder's output as is, and ``kernels.apply_planned`` applies it;
that is the one path by which any gate reaches amplitudes
(``circuits.CompiledCircuit`` plans its trainable rotations itself, from
``matrix_builder``).  Its angles are scalars or one value per data
point, so a lowered gate acts on a batch of points under one parameter
vector.  ``apply_gate`` runs it on a (1, 2^n) copy of a state.  The
measurement kernels (``expectation_z_kernel``,
``probability_vector_kernel``) accept arbitrary leading batch axes, in
any memory order.

Rotation conventions: Rx(phi) = exp(-i*phi*sigma_x/2) (likewise Ry/Rz),
and Rot(phi, theta, omega) = Rz(omega) @ Ry(theta) @ Rz(phi).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import reduce
from typing import Iterable, Sequence

import numpy as np

from . import kernels
from .errors import ConfigurationError, StructuralError

MAX_QUBITS = 20
ORACLE_MAX_QUBITS = 10

_SQRT2_INV = 1.0 / np.sqrt(2.0)
HADAMARD = np.array([[_SQRT2_INV, _SQRT2_INV], [_SQRT2_INV, -_SQRT2_INV]], dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_PROJ0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
_PROJ1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
_ID2 = np.eye(2, dtype=complex)


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
# 2x2 matrix builders: angles of shape batch (scalars or broadcastable
# arrays) give a (2, 2) + batch array
# ---------------------------------------------------------------------------

def rx_matrix(theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    c = np.cos(theta / 2.0)
    s = np.sin(theta / 2.0)
    m = np.empty((2, 2) + theta.shape, dtype=complex)
    m[0, 0] = c
    m[0, 1] = -1j * s
    m[1, 0] = -1j * s
    m[1, 1] = c
    return m


def ry_matrix(theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    c = np.cos(theta / 2.0)
    s = np.sin(theta / 2.0)
    m = np.empty((2, 2) + theta.shape, dtype=complex)
    m[0, 0] = c
    m[0, 1] = -s
    m[1, 0] = s
    m[1, 1] = c
    return m


def rz_matrix(theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    phase = np.exp(-0.5j * theta)
    m = np.zeros((2, 2) + theta.shape, dtype=complex)
    m[0, 0] = phase
    m[1, 1] = np.conj(phase)
    return m


def rot_matrix(phi, theta, omega) -> np.ndarray:
    """Rz(omega) @ Ry(theta) @ Rz(phi) in closed form."""
    phi, theta, omega = np.broadcast_arrays(
        np.asarray(phi, dtype=float),
        np.asarray(theta, dtype=float),
        np.asarray(omega, dtype=float),
    )
    c = np.cos(theta / 2.0)
    s = np.sin(theta / 2.0)
    m = np.empty((2, 2) + np.shape(c), dtype=complex)
    m[0, 0] = np.exp(-0.5j * (phi + omega)) * c
    m[0, 1] = -np.exp(0.5j * (phi - omega)) * s
    m[1, 0] = np.exp(-0.5j * (phi - omega)) * s
    m[1, 1] = np.exp(0.5j * (phi + omega)) * c
    return m


_MATRIX_BUILDERS = {
    GateKind.RX: lambda p: rx_matrix(p[0]),
    GateKind.RY: lambda p: ry_matrix(p[0]),
    GateKind.RZ: lambda p: rz_matrix(p[0]),
    GateKind.ROT: lambda p: rot_matrix(p[0], p[1], p[2]),
}


def matrix_builder(kind: GateKind):
    """Angle-sequence -> (2, 2) + batch matrix builder for a rotation gate kind."""
    try:
        return _MATRIX_BUILDERS[kind]
    except KeyError:
        raise StructuralError(f"{kind.value} has no angle-parameterized matrix") from None


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
    rotation whose angles are all scalars lowers to one (2, 2) matrix
    (MODE_CONST); any (B,) angle gives one matrix per point (MODE_PER_B),
    whether the other angles are data, parameters or constants: the
    builder's (2, 2, B) output is the payload.
    """
    if kind is GateKind.CZ:
        return kernels.PlannedOp(kernels.MODE_PHASE, 0, 0,
                                 kernels.cz_indices(n_qubits, controls[0], target))
    if kind in (GateKind.X, GateKind.CNOT, GateKind.MCX):
        return kernels.PlannedOp(kernels.MODE_FLIP, 0, 0,
                                 kernels.flip_pairs(n_qubits, tuple(controls), target))
    left, right = kernels.bit_split(n_qubits, target)
    if kind is GateKind.H:
        return kernels.PlannedOp(kernels.MODE_CONST, left, right, HADAMARD)
    mats = matrix_builder(kind)(angles)
    mode = kernels.MODE_CONST if mats.shape == (2, 2) else kernels.MODE_PER_B
    return kernels.PlannedOp(mode, left, right, mats)


def _probabilities(amps: np.ndarray) -> np.ndarray:
    """|amps|^2 as a new C-ordered real array, whatever the order of ``amps``."""
    probs = np.square(amps.real, out=np.empty(amps.shape))
    probs += np.square(amps.imag)
    return probs


def expectation_z_kernel(amps: np.ndarray, n_qubits: int, qubit: int) -> np.ndarray:
    """<Z> of one qubit for every state in the batch, clipped to [-1, 1]
    (the exact value lies there; roundoff can exceed it by ~1e-16).

    The reduction runs per row with a fixed order, so a state's value
    does not depend on how many others share the batch, nor on the
    memory order of ``amps``."""
    _check_indices(n_qubits, (qubit,))
    probs = _probabilities(amps)
    vals = (probs * kernels.z_signs(n_qubits, qubit)).sum(axis=-1)
    return np.clip(vals, -1.0, 1.0)


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
    return float(expectation_z_kernel(state.amplitudes, state.n_qubits, qubit))


def probability_vector(state: QuantumState, qubits: Sequence[int]) -> np.ndarray:
    return probability_vector_kernel(state.amplitudes, state.n_qubits, qubits)


# ---------------------------------------------------------------------------
# dense-matrix oracle (intentionally naive: explicit Kronecker products)
# ---------------------------------------------------------------------------

def _kron_chain(factors: Sequence[np.ndarray]) -> np.ndarray:
    return reduce(np.kron, factors)


def _base_matrix(gate: GateOp) -> np.ndarray:
    if gate.kind in _MATRIX_BUILDERS:
        return _MATRIX_BUILDERS[gate.kind](gate.params)
    if gate.kind is GateKind.H:
        return HADAMARD
    if gate.kind in (GateKind.X, GateKind.CNOT, GateKind.MCX):
        return PAULI_X
    if gate.kind is GateKind.CZ:
        return PAULI_Z
    raise StructuralError(f"unknown gate kind {gate.kind!r}")


def gate_unitary(gate: GateOp, n_qubits: int) -> np.ndarray:
    """Full 2^n x 2^n matrix of one gate, built from Kronecker products.

    Controlled gates expand as a sum over control bit patterns with
    projectors on the control slots.
    """
    _check_indices(n_qubits, gate.targets)
    _check_indices(n_qubits, gate.controls)
    base = _base_matrix(gate)
    target = gate.targets[0]
    if not gate.controls:
        factors = [_ID2] * n_qubits
        factors[target] = base
        return _kron_chain(factors)
    dim = 1 << n_qubits
    full = np.zeros((dim, dim), dtype=complex)
    k = len(gate.controls)
    for pattern in range(1 << k):
        factors = [_ID2] * n_qubits
        bits = [(pattern >> (k - 1 - i)) & 1 for i in range(k)]
        for c, b in zip(gate.controls, bits):
            factors[c] = _PROJ1 if b else _PROJ0
        factors[target] = base if all(bits) else _ID2
        full += _kron_chain(factors)
    return full


def circuit_unitary(gates: Iterable[GateOp], n_qubits: int) -> np.ndarray:
    """Product of full gate matrices, later gates multiplied on the left."""
    if n_qubits > ORACLE_MAX_QUBITS:
        raise ConfigurationError(
            f"dense oracle refuses more than {ORACLE_MAX_QUBITS} qubits (got {n_qubits})"
        )
    full = np.eye(1 << n_qubits, dtype=complex)
    for gate in gates:
        full = gate_unitary(gate, n_qubits) @ full
    return full


def dense_unitary_oracle(circuit, x, w) -> np.ndarray:
    """Full circuit unitary for a bound architecture (naive test oracle)."""
    from .circuits import bind  # local import: circuits depends on this module

    return circuit_unitary(bind(circuit, x, w), circuit.n_qubits)
