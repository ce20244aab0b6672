"""Shared test helpers: random circuit generation, small datasets, the
references production code is checked against (the Kronecker-product
oracle, parameter shift, the dense relative entropy), and the environment
of a fresh interpreter."""

import itertools
import os
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

import qteach
from qteach.circuits import (ArchitectureId, CircuitSpec, Const, DataRef, Encoding, Family, ParamRef, SlotOp,
                             bind, forward_batch)
from qteach.metrics import EPSILON
from qteach.qsim import ANGLE_COUNTS, GateKind, GateOp
from qteach.teacher_student import LabeledGrid
from qteach.training import binarize

SINGLE_QUBIT_KINDS = [GateKind.RX, GateKind.RY, GateKind.RZ, GateKind.ROT, GateKind.H, GateKind.X]

ALL_ARCHITECTURES = [
    ArchitectureId(Family.DISSIPATIVE_QP),
    ArchitectureId(Family.REUPLOADING, layers=2),
    ArchitectureId(Family.DEEP_TEACHER4),
    ArchitectureId(Family.EIGHT_GATE_QP),
    ArchitectureId(Family.DEEP_DISSIPATIVE_QP),
    ArchitectureId(Family.QNN_TWO_QP),
    ArchitectureId(Family.RANDOM_DEEP_QP),
]



def all_models():
    """Every architecture under every encoding, as pytest params."""
    return [
        pytest.param(ArchitectureId(arch.family, arch.layers, encoding), id=f"{arch.name}@{encoding.value}")
        for arch in ALL_ARCHITECTURES for encoding in Encoding
    ]


def random_gate(rng: np.random.Generator, n_qubits: int) -> GateOp:
    pool = SINGLE_QUBIT_KINDS if n_qubits == 1 else list(GateKind)
    kind = pool[rng.integers(len(pool))]
    qubits = rng.permutation(n_qubits)
    target = int(qubits[0])
    if kind in (GateKind.CZ, GateKind.CNOT):
        return GateOp(kind, (target,), controls=(int(qubits[1]),))
    if kind is GateKind.MCX:
        n_controls = int(rng.integers(1, min(n_qubits, 4))) if n_qubits > 2 else 1
        controls = tuple(int(q) for q in qubits[1:1 + n_controls])
        return GateOp(kind, (target,), controls=controls)
    angles = tuple(rng.uniform(-np.pi, np.pi, ANGLE_COUNTS[kind]))
    return GateOp(kind, (target,), params=angles)


def random_circuit(rng: np.random.Generator, n_qubits: int, n_gates: int) -> list[GateOp]:
    return [random_gate(rng, n_qubits) for _ in range(n_gates)]


def mixed_spec() -> CircuitSpec:
    """Trainable RX, RY and RZ, and ROTs mixing data, parameter and constant
    angles (lowered to one matrix per point)."""
    ops = (
        SlotOp(GateKind.RX, (0,), angles=(DataRef(0),)),
        SlotOp(GateKind.H, (1,)),
        SlotOp(GateKind.RX, (0,), angles=(ParamRef(0),)),
        SlotOp(GateKind.RY, (1,), angles=(ParamRef(1),)),
        SlotOp(GateKind.CNOT, (1,), controls=(0,)),
        SlotOp(GateKind.RZ, (1,), angles=(ParamRef(2),)),
        SlotOp(GateKind.ROT, (0,), angles=(DataRef(1), ParamRef(3), Const(0.3))),
        SlotOp(GateKind.CZ, (1,), controls=(0,)),
        SlotOp(GateKind.ROT, (1,), angles=(ParamRef(4), DataRef(0), ParamRef(5))),
        SlotOp(GateKind.MCX, (2,), controls=(0, 1)),
        SlotOp(GateKind.RY, (2,), angles=(ParamRef(6),)),
    )
    return CircuitSpec(n_qubits=3, ops=ops, measured_qubit=2, n_params=7, encoding_count=1)


def param_shift_reference(circuit: CircuitSpec, xs, w):
    """Predictions and their exact parameter-shift derivatives, the
    reference the adjoint method is checked against.

    Returns ``(preds, dpreds)`` with preds (B,) the outputs at ``w`` and
    dpreds (P, B) where dpreds[j] = (preds(w + pi/2 e_j) - preds(w -
    pi/2 e_j)) / 2, one ``forward_batch`` call per shifted vector.
    """
    w = np.asarray(w, dtype=float)
    shifts = 0.5 * np.pi * np.eye(circuit.n_params)
    plus = np.array([forward_batch(circuit, xs, w + s) for s in shifts])
    minus = np.array([forward_batch(circuit, xs, w - s) for s in shifts])
    return forward_batch(circuit, xs, w), 0.5 * (plus - minus)


# ---------------------------------------------------------------------------
# dense-matrix oracle (intentionally naive: explicit Kronecker products of
# textbook 2x2 matrices, none taken from qsim, so it checks qsim's builders
# as well as the kernels)
# ---------------------------------------------------------------------------

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_H = (_X + _Z) / np.sqrt(2.0)
_PROJECTORS = (np.diag([1, 0]).astype(complex), np.diag([0, 1]).astype(complex))
_ROTATION_AXES = {GateKind.RX: _X, GateKind.RY: _Y, GateKind.RZ: _Z}
_FIXED = {GateKind.H: _H, GateKind.X: _X, GateKind.CNOT: _X, GateKind.MCX: _X, GateKind.CZ: _Z}


def _rotation(pauli: np.ndarray, angle: float) -> np.ndarray:
    """exp(-i angle P / 2) = cos(angle / 2) I - i sin(angle / 2) P."""
    return np.cos(angle / 2) * _I2 - 1j * np.sin(angle / 2) * pauli


def _base_matrix(gate: GateOp) -> np.ndarray:
    """The 2x2 matrix a gate applies to its target (when every control is set)."""
    if gate.kind is GateKind.ROT:
        phi, theta, omega = gate.params
        return _rotation(_Z, omega) @ _rotation(_Y, theta) @ _rotation(_Z, phi)
    if gate.kind in _ROTATION_AXES:
        return _rotation(_ROTATION_AXES[gate.kind], gate.params[0])
    return _FIXED[gate.kind]


def gate_unitary(gate: GateOp, n_qubits: int) -> np.ndarray:
    """Full 2^n x 2^n matrix of one gate, built from Kronecker products
    (qubit 0 is the leftmost factor).

    Controlled gates expand as a sum over control bit patterns with
    projectors on the control slots.
    """
    assert max(gate.targets + gate.controls) < n_qubits
    base = _base_matrix(gate)
    full = np.zeros((1 << n_qubits, 1 << n_qubits), dtype=complex)
    k = len(gate.controls)
    for pattern in range(1 << k):
        factors = [_I2] * n_qubits
        bits = [(pattern >> (k - 1 - i)) & 1 for i in range(k)]
        for c, b in zip(gate.controls, bits):
            factors[c] = _PROJECTORS[b]
        factors[gate.targets[0]] = base if all(bits) else _I2
        full += reduce(np.kron, factors)
    return full


def pair_unitary(matrix: np.ndarray, qa: int, qb: int, n_qubits: int) -> np.ndarray:
    """Full 2^n x 2^n matrix of a 4 x 4 ``matrix`` on the qubits (qa, qb),
    its index 2 * bit(qa) + bit(qb), as a sum over its entries of
    Kronecker products of |i><j| on qa, |k><l| on qb and the identity."""
    full = np.zeros((1 << n_qubits, 1 << n_qubits), dtype=complex)
    for (i, k), (j, l) in itertools.product(itertools.product((0, 1), repeat=2), repeat=2):
        factors = [_I2] * n_qubits
        factors[qa] = np.outer(_I2[i], _I2[j])
        factors[qb] = np.outer(_I2[k], _I2[l])
        full += matrix[2 * i + k, 2 * j + l] * reduce(np.kron, factors)
    return full


def circuit_unitary(gates, n_qubits: int) -> np.ndarray:
    """Product of full gate matrices, later gates multiplied on the left."""
    assert n_qubits <= 10
    full = np.eye(1 << n_qubits, dtype=complex)
    for gate in gates:
        full = gate_unitary(gate, n_qubits) @ full
    return full


def dense_unitary_oracle(circuit: CircuitSpec, x, w) -> np.ndarray:
    """Full circuit unitary for a bound architecture."""
    return circuit_unitary(bind(circuit, x, w), circuit.n_qubits)


# ---------------------------------------------------------------------------
# dense relative-entropy reference
# ---------------------------------------------------------------------------

def normalize_to_distribution(pmap) -> np.ndarray:
    """A map's values offset into a strictly positive distribution summing
    to 1: the offset is the map's own minimum plus EPSILON, so constant
    maps normalize to uniform.  This is the normalization
    ``metrics.relative_entropy`` applies block by block."""
    flat = pmap.values.ravel()
    shifted = flat - flat.min() + EPSILON
    return shifted / shifted.sum()


def kl_divergence(p, q) -> float:
    """sum p ln(p/q) for two strictly positive distributions."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    assert p.shape == q.shape and np.all(p > 0) and np.all(q > 0)
    return float(np.sum(p * np.log(p / q)))


def tiny_dataset(rng: np.random.Generator, n_points: int = 5) -> LabeledGrid:
    points = rng.uniform(-np.pi, np.pi, (n_points, 2))
    y = rng.uniform(-1.0, 1.0, n_points)
    return LabeledGrid(points=points, y_continuous=y, y_binary=binarize(y))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def fresh_env(**overrides) -> dict:
    """``os.environ`` for a fresh interpreter that imports this checkout's
    qteach: its source directory first on ``PYTHONPATH``, and each override
    set, or removed where it is None."""
    src = str(Path(qteach.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for name, value in overrides.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return env
