"""Circuit IR and builders for every model architecture.

A CircuitSpec is an ordered gate program whose angles are slots: fixed
constants, references to a component of the 2-D input point, or
references to a trainable-parameter index.  ``bind`` resolves the slots
into executable ``qsim.GateOp``s; ``forward`` evaluates the Z expectation
of the measured ancilla, which is the model output in [-1, 1].

Architecture zoo (all use two data qubits and one or more ancillas):

* dissipative quantum perceptron: one encoding block, a processing block
  (rotation pair, CZ, rotation pair), then a multi-controlled NOT from
  the data qubits onto the ancilla that is measured.
* re-uploading model: L repetitions of [encoding block; processing
  block] before the final MCX; one layer reproduces the perceptron
  exactly.
* deep_teacher4: the 4-layer re-uploading model, used as a data
  generator with richer structure.
* eight_gate_qp: single encoding, then four [rotation pair; CNOT]
  repetitions (eight processing rotations, four entanglers) and the MCX.
* deep_dissipative_qp: the perceptron's data-qubit stage feeding two
  intermediate ancillas via CNOTs, which are processed and coupled into
  a final ancilla with CZ gates (deferred-measurement stacking of two
  perceptron stages without re-encoding).
* qnn_two_qp: two full perceptrons on disjoint qubit pairs, each
  encoding the same input, with their ancillas processed and combined
  through a final MCX (the same input enters the circuit twice).
* random_deep_qp: deep_dissipative_qp with three extra [rotation pair;
  CZ] blocks on the data qubits; more processing depth but still a
  single encoding.

Encodings: ``rx`` loads (x1, x2) as Rx(x1) and Rx(x2) on the two data
qubits; ``rot_h`` applies H then Rot(x1, x2, 0) on each data qubit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Sequence, Union

import numpy as np

from . import kernels, qsim
from .errors import ConfigurationError, StructuralError
from .qsim import ANGLE_COUNTS, GateKind, GateOp


class Encoding(Enum):
    RX_ANGLE = "rx"
    ROT_H = "rot_h"


class Family(Enum):
    DISSIPATIVE_QP = "dissipative_qp"
    REUPLOADING = "reuploading"
    DEEP_TEACHER4 = "deep_teacher4"
    EIGHT_GATE_QP = "eight_gate_qp"
    DEEP_DISSIPATIVE_QP = "deep_dissipative_qp"
    QNN_TWO_QP = "qnn_two_qp"
    RANDOM_DEEP_QP = "random_deep_qp"


@dataclass(frozen=True)
class ArchitectureId:
    """Which model to build: family, re-uploading depth, data encoding."""

    family: Family
    layers: int = 1
    encoding: Encoding = Encoding.RX_ANGLE

    def __post_init__(self):
        if self.layers < 1:
            raise ConfigurationError(f"layers must be >= 1, got {self.layers}")
        if self.family is not Family.REUPLOADING and self.layers != 1:
            raise ConfigurationError(f"{self.family.value} does not take a layer count")

    @property
    def name(self) -> str:
        base = self.family.value
        if self.family is Family.REUPLOADING:
            base = f"{base}:{self.layers}"
        if self.encoding is not Encoding.RX_ANGLE:
            base = f"{base}@{self.encoding.value}"
        return base


def parse_architecture(name: str, encoding: Encoding = Encoding.RX_ANGLE) -> ArchitectureId:
    """Parse names like ``dissipative_qp`` or ``reuploading:2``."""
    text = name.strip()
    if "@" in text:
        text, enc_name = text.rsplit("@", 1)
        try:
            encoding = Encoding(enc_name.strip())
        except ValueError:
            raise ConfigurationError(f"unknown encoding {enc_name!r}") from None
    layers = 1
    if ":" in text:
        text, layer_text = text.split(":", 1)
        try:
            layers = int(layer_text)
        except ValueError:
            raise ConfigurationError(f"bad layer count in {name!r}") from None
    try:
        family = Family(text.strip())
    except ValueError:
        known = ", ".join(f.value for f in Family)
        raise ConfigurationError(f"unknown architecture {name!r} (known: {known})") from None
    if family is not Family.REUPLOADING and ":" in name:
        raise ConfigurationError(f"{family.value} does not take a layer count")
    return ArchitectureId(family, layers, encoding)


# convenience constructors for the common cases
def dissipative_qp(encoding: Encoding = Encoding.RX_ANGLE) -> ArchitectureId:
    return ArchitectureId(Family.DISSIPATIVE_QP, encoding=encoding)


def reuploading(layers: int, encoding: Encoding = Encoding.RX_ANGLE) -> ArchitectureId:
    return ArchitectureId(Family.REUPLOADING, layers=layers, encoding=encoding)


# ---------------------------------------------------------------------------
# angle slots
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class DataRef:
    component: int  # 0 or 1: which component of the 2-D input

    def __post_init__(self):
        if self.component not in (0, 1):
            raise StructuralError(f"data component must be 0 or 1, got {self.component}")


@dataclass(frozen=True)
class ParamRef:
    index: int

    def __post_init__(self):
        if self.index < 0:
            raise StructuralError(f"parameter index must be >= 0, got {self.index}")


AngleExpr = Union[Const, DataRef, ParamRef]


@dataclass(frozen=True)
class SlotOp:
    """Gate with symbolic angles; wiring as in qsim.GateOp."""

    kind: GateKind
    targets: tuple[int, ...]
    controls: tuple[int, ...] = ()
    angles: tuple[AngleExpr, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(self.targets))
        object.__setattr__(self, "controls", tuple(self.controls))
        object.__setattr__(self, "angles", tuple(self.angles))
        if len(self.angles) != ANGLE_COUNTS[self.kind]:
            raise StructuralError(
                f"{self.kind.value} expects {ANGLE_COUNTS[self.kind]} angle(s), got {len(self.angles)}"
            )
        # wiring checks are shared with GateOp; build one to validate
        GateOp(self.kind, self.targets, self.controls, (0.0,) * ANGLE_COUNTS[self.kind])

    def is_encoding(self) -> bool:
        return any(isinstance(a, DataRef) for a in self.angles)


@dataclass(frozen=True)
class CircuitSpec:
    """Ordered gate program with data and trainable-parameter slots."""

    n_qubits: int
    ops: tuple[SlotOp, ...]
    measured_qubit: int
    n_params: int
    encoding_count: int

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))
        if not 0 <= self.measured_qubit < self.n_qubits:
            raise StructuralError(f"measured qubit {self.measured_qubit} out of range")
        seen: list[int] = []
        for op in self.ops:
            for q in op.targets + op.controls:
                if not 0 <= q < self.n_qubits:
                    raise StructuralError(f"qubit index {q} out of range in {op}")
            for angle in op.angles:
                if isinstance(angle, ParamRef):
                    seen.append(angle.index)
            if op.is_encoding() and self.measured_qubit in op.targets:
                raise StructuralError("measured qubit must not carry a data-encoding gate")
        if sorted(seen) != list(range(self.n_params)):
            raise StructuralError(
                f"parameter slots must be 0..{self.n_params - 1} each exactly once, got {sorted(seen)}"
            )


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

class _Builder:
    def __init__(self, encoding: Encoding):
        self.encoding = encoding
        self.ops: list[SlotOp] = []
        self.next_param = 0
        self.encodings = 0

    def encode(self, q1: int, q2: int) -> None:
        self.encodings += 1
        if self.encoding is Encoding.RX_ANGLE:
            self.ops.append(SlotOp(GateKind.RX, (q1,), angles=(DataRef(0),)))
            self.ops.append(SlotOp(GateKind.RX, (q2,), angles=(DataRef(1),)))
        else:
            for q in (q1, q2):
                self.ops.append(SlotOp(GateKind.H, (q,)))
                self.ops.append(SlotOp(GateKind.ROT, (q,), angles=(DataRef(0), DataRef(1), Const(0.0))))

    def rot(self, q: int) -> None:
        i = self.next_param
        self.next_param += 3
        self.ops.append(SlotOp(GateKind.ROT, (q,), angles=(ParamRef(i), ParamRef(i + 1), ParamRef(i + 2))))

    def cz(self, a: int, b: int) -> None:
        self.ops.append(SlotOp(GateKind.CZ, (b,), controls=(a,)))

    def cnot(self, control: int, target: int) -> None:
        self.ops.append(SlotOp(GateKind.CNOT, (target,), controls=(control,)))

    def mcx(self, controls: Sequence[int], target: int) -> None:
        self.ops.append(SlotOp(GateKind.MCX, (target,), controls=tuple(controls)))

    def processing_block(self, q1: int, q2: int) -> None:
        self.rot(q1)
        self.rot(q2)
        self.cz(q1, q2)
        self.rot(q1)
        self.rot(q2)

    def finish(self, n_qubits: int, measured_qubit: int) -> CircuitSpec:
        return CircuitSpec(
            n_qubits=n_qubits,
            ops=tuple(self.ops),
            measured_qubit=measured_qubit,
            n_params=self.next_param,
            encoding_count=self.encodings,
        )


def _build_reuploading(b: _Builder, layers: int) -> CircuitSpec:
    for _ in range(layers):
        b.encode(0, 1)
        b.processing_block(0, 1)
    b.mcx((0, 1), 2)
    return b.finish(3, 2)


def _build_eight_gate(b: _Builder) -> CircuitSpec:
    b.encode(0, 1)
    for _ in range(4):
        b.rot(0)
        b.rot(1)
        b.cnot(0, 1)
    b.mcx((0, 1), 2)
    return b.finish(3, 2)


def _build_deep_dissipative(b: _Builder, extra_blocks: int = 0) -> CircuitSpec:
    b.encode(0, 1)
    b.processing_block(0, 1)
    for _ in range(extra_blocks):
        b.rot(0)
        b.rot(1)
        b.cz(0, 1)
    b.cnot(0, 2)
    b.cnot(1, 3)
    b.rot(2)
    b.rot(3)
    b.cz(2, 4)
    b.cz(3, 4)
    b.rot(4)
    return b.finish(5, 4)


def _build_qnn_two_qp(b: _Builder) -> CircuitSpec:
    for d1, d2, anc in ((0, 1, 2), (3, 4, 5)):
        b.encode(d1, d2)
        b.processing_block(d1, d2)
        b.mcx((d1, d2), anc)
    b.rot(2)
    b.rot(5)
    b.cz(2, 5)
    b.rot(2)
    b.rot(5)
    b.mcx((2, 5), 6)
    return b.finish(7, 6)


def build(arch: ArchitectureId) -> CircuitSpec:
    """Construct the gate program for one architecture."""
    b = _Builder(arch.encoding)
    family = arch.family
    if family in (Family.DISSIPATIVE_QP, Family.REUPLOADING, Family.DEEP_TEACHER4):
        layers = {Family.DISSIPATIVE_QP: 1, Family.DEEP_TEACHER4: 4}.get(family, arch.layers)
        return _build_reuploading(b, layers)
    if family is Family.EIGHT_GATE_QP:
        return _build_eight_gate(b)
    if family is Family.DEEP_DISSIPATIVE_QP:
        return _build_deep_dissipative(b)
    if family is Family.RANDOM_DEEP_QP:
        return _build_deep_dissipative(b, extra_blocks=3)
    if family is Family.QNN_TWO_QP:
        return _build_qnn_two_qp(b)
    raise ConfigurationError(f"unknown architecture family {family!r}")


def append_x_on_measured(circuit: CircuitSpec) -> CircuitSpec:
    """Append a Pauli X on the measured qubit (negates every prediction)."""
    x_op = SlotOp(GateKind.X, (circuit.measured_qubit,))
    return replace(circuit, ops=circuit.ops + (x_op,))


# ---------------------------------------------------------------------------
# binding and evaluation
# ---------------------------------------------------------------------------

def _check_bind_args(circuit: CircuitSpec, x, w) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    if x.shape[-1] != 2:
        raise ConfigurationError(f"input points must be 2-D, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ConfigurationError("input point components must be finite")
    if w.shape[-1] != circuit.n_params:
        raise ConfigurationError(
            f"expected {circuit.n_params} parameters, got {w.shape[-1]}"
        )
    return x, w


def _lowered_angles(op: SlotOp, xs: np.ndarray, w: np.ndarray) -> list:
    """Angles of an op for the points ``xs`` under one parameter vector
    ``w``: data angles as (B,) arrays (scalars for a single (2,) point),
    parameters and constants as scalars."""
    def resolve(angle: AngleExpr):
        if isinstance(angle, Const):
            return angle.value
        if isinstance(angle, DataRef):
            return xs[..., angle.component]
        return w[angle.index]

    return [resolve(a) for a in op.angles]


def bind(circuit: CircuitSpec, x, w) -> list[GateOp]:
    """Resolve all slots into executable gates for one point and one
    parameter vector."""
    x, w = _check_bind_args(circuit, x, w)
    if x.ndim != 1 or w.ndim != 1:
        raise ConfigurationError("bind takes a single point and a single parameter vector")
    return [GateOp(op.kind, op.targets, op.controls, tuple(_lowered_angles(op, x, w)))
            for op in circuit.ops]


def _plan(ops: Sequence[SlotOp], n_qubits: int, xs: np.ndarray,
          w: np.ndarray) -> list[kernels.PlannedOp]:
    """Lower ops to kernel calls for the points ``xs`` under ``w``."""
    return [qsim.lower_gate(op.kind, n_qubits, op.targets[0], op.controls, _lowered_angles(op, xs, w))
            for op in ops]


def _evolve(plans: Sequence[kernels.PlannedOp], amps: np.ndarray) -> np.ndarray:
    """Apply lowered gates in order to ``amps`` in place; returns ``amps``."""
    for planned in plans:
        kernels.apply_planned(planned, amps)
    return amps


def _states(circuit: CircuitSpec, xs: np.ndarray,
            w: np.ndarray) -> tuple[list[kernels.PlannedOp], np.ndarray]:
    """(plans, amps): the circuit lowered for the points ``xs`` under one
    parameter vector ``w``, and the (B, 2^n) states it takes |0...0> to."""
    plans = _plan(circuit.ops, circuit.n_qubits, xs, w)
    return plans, _evolve(plans, kernels.fresh_rows(len(xs), 1 << circuit.n_qubits))


# Bytes of amplitudes forward_many evolves at once.  Rows evolve
# independently, so splitting the points into blocks leaves every output
# bit-identical; it bounds the working set (a block's state plus the
# kernels' temporaries) at a few MiB however many points a call asks
# for, so peak memory no longer grows with the map resolution.
_BLOCK_BYTES = 1 << 20


def forward_many(circuit: CircuitSpec, xs: np.ndarray, ws: np.ndarray) -> np.ndarray:
    """Model outputs for every (parameter vector, data point) pair.

    ``xs``: (B, 2) points; ``ws``: (S, P) parameter vectors.  Returns an
    (S, B) array of ancilla Z expectations.  Each parameter vector
    evolves the points in blocks of about ``_BLOCK_BYTES`` of amplitudes.
    """
    xs, ws = _check_bind_args(circuit, xs, ws)
    if xs.ndim != 2 or ws.ndim != 2:
        raise ConfigurationError("forward_many takes (B, 2) points and (S, P) parameters")
    step = max(1, _BLOCK_BYTES // (16 << circuit.n_qubits))
    vals = np.empty((ws.shape[0], xs.shape[0]))
    for s, w in enumerate(ws):
        for start in range(0, xs.shape[0], step):
            _, amps = _states(circuit, xs[start:start + step], w)
            vals[s, start:start + step] = qsim.expectation_z_kernel(amps, circuit.n_qubits,
                                                                    circuit.measured_qubit)
    return vals


def forward_batch(circuit: CircuitSpec, xs: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Model outputs at many points for one parameter vector; shape (B,)."""
    w = np.asarray(w, dtype=float)
    return forward_many(circuit, np.asarray(xs, dtype=float), w[None, :])[0]


def forward(circuit: CircuitSpec, x, w) -> float:
    """Model output (ancilla Z expectation) at one point; in [-1, 1]."""
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    return float(forward_many(circuit, x[None, :], w[None, :])[0, 0])


def _param_slots(op: SlotOp) -> list[tuple[int, int]]:
    """(angle position, parameter index) pairs of one op's trainable angles."""
    return [(pos, a.index) for pos, a in enumerate(op.angles) if isinstance(a, ParamRef)]


def forward_with_param_shift(circuit: CircuitSpec, xs: np.ndarray, w: np.ndarray):
    """Predictions and their exact parameter-shift derivatives.

    Returns ``(preds, dpreds)`` with preds (B,) the outputs at ``w`` and
    dpreds (P, B) where dpreds[j] = (preds(w_j + pi/2) - preds(w_j -
    pi/2)) / 2, from one ``forward_many`` call on the stacked parameter
    sets [w; w + pi/2 I; w - pi/2 I].  Training uses
    ``forward_with_adjoint``; this is the reference the tests check it
    against.
    """
    xs, w = _check_bind_args(circuit, np.asarray(xs, dtype=float), np.asarray(w, dtype=float))
    shifts = 0.5 * np.pi * np.eye(circuit.n_params)
    vals = forward_many(circuit, xs, np.vstack([w, w + shifts, w - shifts]))
    plus, minus = vals[1:circuit.n_params + 1], vals[circuit.n_params + 1:]
    return vals[0], 0.5 * (plus - minus)


def _inverse(planned: kernels.PlannedOp) -> kernels.PlannedOp:
    """The adjoint of a lowered gate: FLIP and PHASE are their own
    inverses, a 2x2 payload is conjugate-transposed."""
    if planned.mode in (kernels.MODE_FLIP, kernels.MODE_PHASE):
        return planned
    dagger = np.ascontiguousarray(np.conj(np.swapaxes(planned.payload, -1, -2)))
    return kernels.PlannedOp(planned.mode, planned.left, planned.right, dagger)


def _derivative_matrices(op: SlotOp, slots, xs: np.ndarray, w: np.ndarray) -> np.ndarray:
    """dU/dw for each trainable angle of a rotation op, stacked on axis 0.

    Every angle sits on a Pauli rotation R(a) = exp(-i a P / 2), whose
    derivative is (-i P / 2) R(a) = R(a + pi) / 2; shifting one angle of
    Rot(phi, theta, omega) = Rz(omega) Ry(theta) Rz(phi) by pi gives
    M (-iZ/2), Rz(omega) (-iY/2) Ry(theta) Rz(phi) and (-iZ/2) M.  The
    angles come from the op's own lowering, so a rotation mixing data
    and parameters gets one matrix per point.
    """
    angles = _lowered_angles(op, xs, w)
    shape = (len(slots),) + np.broadcast(*angles).shape
    shifted = [np.broadcast_to(a, shape).copy() for a in angles]
    for t, (pos, _) in enumerate(slots):
        shifted[pos][t] += np.pi
    # (slots, 2, 2) or (slots, B, 2, 2) -> (slots, 1 or B, 2, 2) against (B, 2, 2)
    return 0.5 * qsim.matrix_builder(op.kind)(shifted).reshape(len(slots), -1, 2, 2)


def _overlaps(lam: np.ndarray, psi: np.ndarray, left: int, right: int) -> np.ndarray:
    """(B, 2, 2) per-row S_ij = sum of conj(lam) on target bit i times psi
    on target bit j, over the other qubits."""
    lam4 = lam.conj().reshape(lam.shape[0], left, 2, right)
    psi4 = psi.reshape(psi.shape[0], left, 2, right)
    pairs = [np.einsum("blr,blr->b", lam4[:, :, i], psi4[:, :, j]) for i in (0, 1) for j in (0, 1)]
    return np.stack(pairs, axis=-1).reshape(-1, 2, 2)


def forward_with_adjoint(circuit: CircuitSpec, xs: np.ndarray, w: np.ndarray):
    """Predictions and their exact derivatives by the adjoint method.

    Same contract as ``forward_with_param_shift``: preds (B,) equal
    ``forward_many`` at ``w`` bit for bit, and dpreds (P, B) holds
    d preds / d w_j.  After one forward sweep, a backward sweep (Jones
    & Gacon, arXiv:2009.02823) carries the state psi and lam = Z psi
    back through the gate inverses.  At trainable gate k, with psi the
    state entering it and lam the measured Z pulled back to its output,
    d<Z>/dw = 2 Re <lam| dU_k |psi> = 2 Re sum_ij dU_ij S_ij, where S_ij
    sums conj(lam) on target bit i times psi on target bit j.
    """
    xs, w = _check_bind_args(circuit, np.asarray(xs, dtype=float), np.asarray(w, dtype=float))
    if xs.ndim != 2 or w.ndim != 1:
        raise ConfigurationError("forward_with_adjoint takes (B, 2) points and (P,) parameters")
    n_qubits, measured = circuit.n_qubits, circuit.measured_qubit
    plans, psi = _states(circuit, xs, w)
    preds = qsim.expectation_z_kernel(psi, n_qubits, measured)

    dpreds = np.zeros((circuit.n_params, len(xs)))
    op_slots = [_param_slots(op) for op in circuit.ops]
    trainable = [i for i, slots in enumerate(op_slots) if slots]
    if not trainable:
        return preds, dpreds
    lam = psi * kernels.z_signs(n_qubits, measured)
    for i in range(len(plans) - 1, trainable[0] - 1, -1):
        inverse = _inverse(plans[i])
        kernels.apply_planned(inverse, psi)
        op, slots = circuit.ops[i], op_slots[i]
        if slots:
            left, right = kernels.bit_split(n_qubits, op.targets[0])
            derivs = _derivative_matrices(op, slots, xs, w)
            overlaps = _overlaps(lam, psi, left, right)
            dpreds[[index for _, index in slots]] = 2.0 * (derivs * overlaps).sum(axis=(-2, -1)).real
        if i > trainable[0]:
            kernels.apply_planned(inverse, lam)
    return preds, dpreds


def ancilla_probabilities(circuit: CircuitSpec, xs: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(B, 2) array of [p(|0>), p(|1>)] of the measured qubit per point."""
    xs, w = _check_bind_args(circuit, np.asarray(xs, dtype=float), np.asarray(w, dtype=float))
    _, amps = _states(circuit, xs, w)
    return qsim.probability_vector_kernel(amps, circuit.n_qubits, (circuit.measured_qubit,))


# ---------------------------------------------------------------------------
# human-readable listing (documentation + golden tests)
# ---------------------------------------------------------------------------

def _angle_text(angle: AngleExpr) -> str:
    if isinstance(angle, Const):
        return repr(angle.value)
    if isinstance(angle, DataRef):
        return f"x[{angle.component}]"
    return f"w[{angle.index}]"


def describe(circuit: CircuitSpec) -> str:
    """One gate per line, plus a header with the circuit's shape."""
    lines = [
        f"qubits: {circuit.n_qubits}  measured: {circuit.measured_qubit}  "
        f"params: {circuit.n_params}  encodings: {circuit.encoding_count}"
    ]
    for op in circuit.ops:
        args = ", ".join(_angle_text(a) for a in op.angles)
        head = f"{op.kind.value}({args})" if args else op.kind.value
        wires = ", ".join(f"q{q}" for q in op.controls + op.targets)
        if op.controls:
            wires = ", ".join(f"q{q}" for q in op.controls) + f" -> q{op.targets[0]}"
        lines.append(f"{head} {wires}")
    return "\n".join(lines)
