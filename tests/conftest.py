"""Shared test helpers: random circuit generation and small datasets."""

import numpy as np
import pytest

from qteach.circuits import ArchitectureId, CircuitSpec, Const, DataRef, Family, ParamRef, SlotOp
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


def tiny_dataset(rng: np.random.Generator, n_points: int = 5) -> LabeledGrid:
    points = rng.uniform(-np.pi, np.pi, (n_points, 2))
    y = rng.uniform(-1.0, 1.0, n_points)
    return LabeledGrid(points=points, y_continuous=y, y_binary=binarize(y))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
