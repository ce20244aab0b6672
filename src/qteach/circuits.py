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

def _points(xs) -> np.ndarray:
    """``xs`` as (B, 2) finite float points."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != 2:
        raise ConfigurationError(f"input points must be a (B, 2) array, got shape {xs.shape}")
    if not np.all(np.isfinite(xs)):
        raise ConfigurationError("input point components must be finite")
    return xs


def _params(circuit: CircuitSpec, w) -> np.ndarray:
    """``w`` as one (P,) finite float parameter vector."""
    w = np.asarray(w, dtype=float)
    if w.shape != (circuit.n_params,):
        raise ConfigurationError(f"expected one vector of {circuit.n_params} parameters, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ConfigurationError("parameters must be finite")
    return w


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
    xs, w = _points(np.asarray(x, dtype=float)[None]), _params(circuit, w)
    return [GateOp(op.kind, op.targets, op.controls, tuple(_lowered_angles(op, xs[0], w)))
            for op in circuit.ops]


def _states(ops: Sequence[SlotOp], n_qubits: int, xs: np.ndarray,
            w: np.ndarray) -> tuple[list[kernels.PlannedOp], np.ndarray]:
    """(plans, amps): ``ops`` lowered for the points ``xs`` under one
    parameter vector ``w``, and the states they take |0...0> to, as the
    (B, 2^n) transpose of a batch-minor (2^n, B) array (``kernels``)."""
    plans = [qsim.lower_gate(op.kind, n_qubits, op.targets[0], op.controls, _lowered_angles(op, xs, w))
             for op in ops]
    amps = np.zeros((1 << n_qubits, len(xs)), dtype=complex).T
    amps[:, 0] = 1.0
    for planned in plans:
        kernels.apply_planned(planned, amps)
    return plans, amps


# Bytes of amplitudes ``_measured`` evolves at once.  Rows evolve
# independently, so splitting the points into blocks leaves every output
# bit-identical; it bounds the working set (a block's state plus the
# kernels' temporaries) at a few MiB however many points a call asks
# for, so peak memory does not grow with the number of points.
_BLOCK_BYTES = 1 << 20


def _measured(ops: Sequence[SlotOp], n_qubits: int, xs: np.ndarray, w: np.ndarray, measure,
              width: tuple[int, ...] = ()) -> np.ndarray:
    """(B,) + width array of ``measure(amps)`` for the states ``ops`` take
    |0...0> to at the (B, 2) points ``xs`` under one parameter vector
    ``w``; the points evolve in blocks of about ``_BLOCK_BYTES`` of
    amplitudes."""
    step = max(1, _BLOCK_BYTES // (16 << n_qubits))
    out = np.empty((len(xs),) + width)
    for start in range(0, len(xs), step):
        # no name holds a block's state, so it is freed before the next block evolves
        out[start:start + step] = measure(_states(ops, n_qubits, xs[start:start + step], w)[1])
    return out


def forward_many(circuit: CircuitSpec, xs: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Model outputs (ancilla Z expectations) at the (B, 2) points ``xs``
    under one parameter vector ``w``; shape (B,)."""
    xs, w = _points(xs), _params(circuit, w)
    n, measured = circuit.n_qubits, circuit.measured_qubit
    return _measured(circuit.ops, n, xs, w, lambda amps: qsim.expectation_z_kernel(amps, n, measured))


def forward_batch(circuit: CircuitSpec, xs: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Model outputs at many points for one parameter vector; shape (B,)."""
    # A call, not an alias: metrics and teacher_student import
    # forward_batch by value, and perfbench/spans.py traces their
    # evaluations by wrapping circuits.forward_many after that import.
    return forward_many(circuit, xs, w)


def forward(circuit: CircuitSpec, x, w) -> float:
    """Model output (ancilla Z expectation) at one point; in [-1, 1]."""
    return float(forward_many(circuit, np.asarray(x, dtype=float)[None], w)[0])


def _param_rows(op: SlotOp) -> list[int]:
    """The parameter indices of one op's trainable angles, in angle order."""
    return [a.index for a in op.angles if isinstance(a, ParamRef)]


def _inverse(planned: kernels.PlannedOp) -> kernels.PlannedOp:
    """The adjoint of a lowered gate: FLIP and PHASE are their own
    inverses, a matrix payload is conjugate-transposed."""
    if planned.mode in (kernels.MODE_FLIP, kernels.MODE_PHASE):
        return planned
    return kernels.PlannedOp(planned.mode, planned.left, planned.right, _dagger(planned.payload))


def _dagger(mats: np.ndarray) -> np.ndarray:
    """Conjugate transpose of every matrix in a (2, 2, ...) payload; each
    entry [i, j] of the result is again one contiguous block."""
    return np.conj(np.swapaxes(mats, 0, 1))


def _overlaps(lam: np.ndarray, psi: np.ndarray, left: int, right: int, conj: np.ndarray) -> np.ndarray:
    """(2, 2, rows) S_ij per row: the sum of conj(lam) on target bit i
    times psi on target bit j, over the other qubits, as one contraction
    of the stored (left, 2, right, rows) views; ``conj`` is a buffer shaped
    like ``lam`` that receives its conjugate."""
    lam4 = np.conjugate(lam.T, out=conj.T).reshape(left, 2, right, -1)
    psi4 = psi.T.reshape(left, 2, right, -1)
    return np.einsum("lirb,ljrb->ijb", lam4, psi4)


class _RotationGroup:
    """The trainable ops of one rotation kind whose matrices have one
    shape: one matrix per run, or one per run and point when an angle is
    data.  ``bind`` sets their plans' matrices for R parameter vectors.

    ``table`` (angles, M) indexes the rows of ``angles`` (rows, R, 1 or
    N): the P parameters, the P parameters shifted by pi, then the
    constants and data columns of the ops, filled once.  Its first K
    columns are the K ops' own angles; then, op after op, one copy of the
    op's column per trainable angle, with that angle's row moved to its
    shifted parameter.  So one gather and one ``qsim.matrix_builder`` call
    give every matrix and every derivative matrix of the group, for all R
    runs."""

    def __init__(self, kind: GateKind, ops: list[SlotOp], n_qubits: int, n_params: int,
                 xs: np.ndarray, per_point: bool, runs: int):
        self.kind, self.n_params = kind, n_params
        fixed: list = []  # constants and data columns, the rows after the 2 P parameter rows

        def row(angle: AngleExpr) -> int:
            if isinstance(angle, ParamRef):
                return angle.index
            fixed.append(angle.value if isinstance(angle, Const) else xs[:, angle.component])
            return 2 * n_params + len(fixed) - 1

        columns = [[row(a) for a in op.angles] for op in ops]
        #: per op, the slice of its derivative matrices in ``bind``'s result
        self.slices = []
        for op, rows in zip(ops, columns[:len(ops)]):
            slots = [pos for pos, a in enumerate(op.angles) if isinstance(a, ParamRef)]
            start = len(columns) - len(ops)
            columns += [[r + n_params * (pos == shift) for pos, r in enumerate(rows)] for shift in slots]
            self.slices.append(slice(start, start + len(slots)))
        self.table = np.array(columns).T
        self.angles = np.empty((2 * n_params + len(fixed), runs, len(xs) if per_point else 1))
        for k, value in enumerate(fixed):
            self.angles[2 * n_params + k] = value
        mode = kernels.MODE_PER_ROW if per_point else kernels.MODE_PER_S
        splits = [kernels.bit_split(n_qubits, op.targets[0]) for op in ops]
        self.plans = [kernels.PlannedOp(mode, left, right, None) for left, right in splits]
        self.inverses = [kernels.PlannedOp(mode, left, right, None) for left, right in splits]

    def bind(self, w: np.ndarray) -> np.ndarray:
        """Set the ops' (2, 2, R, 1 or N) matrix payloads and inverses at
        the (R, P) parameters ``w`` in ``plans`` and ``inverses``; return the
        (2, 2, D, R, 1 or N) derivative matrices U(a + pi) of all D
        trainable angles, op after op.  All three are views of one
        ``matrix_builder`` output and of its one dagger.

        Every angle sits on a Pauli rotation R(a) = exp(-i a P / 2), whose
        derivative is (-i P / 2) R(a) = R(a + pi) / 2; shifting one angle
        of Rot(phi, theta, omega) = Rz(omega) Ry(theta) Rz(phi) by pi gives
        twice M (-iZ/2), Rz(omega) (-iY/2) Ry(theta) Rz(phi) and (-iZ/2) M.
        So a derivative matrix is U(a + pi) = 2 dU/da."""
        p, k = self.n_params, len(self.plans)
        self.angles[:p] = w.T[:, :, None]
        np.add(self.angles[:p], np.pi, out=self.angles[p:2 * p])
        mats = qsim.matrix_builder(self.kind)(self.angles[self.table])  # (2, 2, K + D, R, 1 or N)
        daggers = _dagger(mats[:, :, :k])
        for j, (planned, inverse) in enumerate(zip(self.plans, self.inverses)):
            planned.payload, inverse.payload = mats[:, :, j], daggers[:, :, j]
        return mats[:, :, k:]


class CompiledCircuit:
    """``forward_with_adjoint`` for one circuit at fixed points ``xs`` and
    ``runs`` parameter vectors at a time, compiled once and then evaluated
    at any number of (runs, P) parameter arrays.

    The runs are stacked as rows: the state holds runs * N amplitude rows,
    run r in rows r N .. (r + 1) N - 1, stored batch-minor as a
    (2^n, runs * N) array (``kernels``), and every gate is one kernel call
    for all of them; at each trainable gate one contraction gives the
    overlaps of every row.  Built once: the plans of the fixed gates after the
    first trainable op and their inverses (data angles at the points
    tiled once per run), the state that the data-only prefix before that
    op takes |0...0> to, and one ``_RotationGroup`` per rotation kind and
    matrix shape of the trainable ops.  Per evaluation: every group's
    matrices, inverses and derivative matrices U(a + pi), all (2, 2, ...)
    views of one builder call per group and of its dagger, then both
    sweeps from the prefix state; at a trainable gate d<Z>/dw = Re sum_ij
    U(a + pi)_ij S_ij with S the ``_overlaps`` of that gate.  Trainable
    gates stay separate ops.  The psi, lam and conj buffers are reused, so
    one instance must not be evaluated from two threads at once; the
    arrays it returns are new on every call.
    """

    def __init__(self, circuit: CircuitSpec, xs, runs: int = 1):
        xs = _points(xs)
        self.circuit, self.runs = circuit, runs
        n, ops = circuit.n_qubits, circuit.ops
        trainable = [i for i, op in enumerate(ops) if _param_rows(op)]
        first = trainable[0] if trainable else len(ops)
        _, self._prefix = _states(ops[:first], n, xs, np.empty(0))
        self._psi, self._lam, self._conj = (np.empty((1 << n, runs * len(xs)), dtype=complex).T
                                            for _ in range(3))

        members: dict[tuple[GateKind, bool], list[int]] = {}
        for i in trainable:
            members.setdefault((ops[i].kind, ops[i].is_encoding()), []).append(i)
        self._groups = [_RotationGroup(kind, [ops[i] for i in idx], n, circuit.n_params, xs, per_point, runs)
                        for (kind, per_point), idx in members.items()]
        place = {i: (g, k) for g, idx in enumerate(members.values()) for k, i in enumerate(idx)}
        tiled = np.tile(xs, (runs, 1))
        # ops[first:]: each plan and its inverse; for a trainable op also
        # (group, slice of the group's derivatives, parameter rows)
        self._plans, self._inverses, self._slots = [], [], []
        for i, op in enumerate(ops[first:], first):
            if i in place:
                g, k = place[i]
                group = self._groups[g]
                planned, inverse = group.plans[k], group.inverses[k]
                self._slots.append((g, group.slices[k], _param_rows(op)))
            else:
                planned = qsim.lower_gate(op.kind, n, op.targets[0], op.controls,
                                          _lowered_angles(op, tiled, np.empty(0)))
                inverse = _inverse(planned)
                self._slots.append(None)
            self._plans.append(planned)
            self._inverses.append(inverse)

    def forward_with_adjoint(self, w) -> tuple[np.ndarray, np.ndarray]:
        """``(preds, dpreds)`` at the (runs, P) parameters ``w``: preds
        (runs, N) and dpreds (runs, P, N), row r as the function
        ``forward_with_adjoint`` defines them at ``w[r]``."""
        circuit, runs = self.circuit, self.runs
        n, measured, n_params = circuit.n_qubits, circuit.measured_qubit, circuit.n_params
        w = np.asarray(w, dtype=float)
        if w.shape != (runs, n_params):
            raise ConfigurationError(f"expected a ({runs}, {n_params}) parameter array, got shape {w.shape}")
        derivs = [group.bind(w) for group in self._groups]
        psi = self._psi
        n_points = len(self._prefix)
        np.copyto(psi.T.reshape(-1, runs, n_points), self._prefix.T[:, None])
        for planned in self._plans:
            kernels.apply_planned(planned, psi)
        preds = qsim.expectation_z_kernel(psi, n, measured).reshape(runs, n_points)

        dpreds = np.zeros((runs, n_params, n_points))
        lam = np.multiply(psi, kernels.z_signs(n, measured), out=self._lam)
        for i in range(len(self._plans) - 1, -1, -1):
            inverse = self._inverses[i]
            kernels.apply_planned(inverse, psi)
            if self._slots[i] is not None:
                g, part, rows = self._slots[i]
                overlaps = _overlaps(lam, psi, inverse.left, inverse.right, self._conj)
                grads = (derivs[g][:, :, part] * overlaps.reshape(2, 2, 1, runs, n_points)).sum(axis=(0, 1)).real
                dpreds[:, rows] = np.swapaxes(grads, 0, 1)
            if i:
                kernels.apply_planned(inverse, lam)
        return preds, dpreds


def forward_with_adjoint(circuit: CircuitSpec, xs: np.ndarray, w: np.ndarray):
    """Predictions and their exact derivatives by the adjoint method.

    Returns ``(preds, dpreds)``: preds (B,) equal
    ``forward_many`` at ``w`` bit for bit, and dpreds (P, B) holds
    d preds / d w_j.  After one forward sweep, a backward sweep (Jones
    & Gacon, arXiv:2009.02823) carries the state psi and lam = Z psi
    back through the gate inverses.  At trainable gate k, with psi the
    state entering it and lam the measured Z pulled back to its output,
    d<Z>/dw = 2 Re <lam| dU_k |psi> = 2 Re sum_ij dU_ij S_ij, where S_ij
    sums conj(lam) on target bit i times psi on target bit j; as
    dU/da = U(a + pi) / 2 for every angle a, this is Re sum_ij
    U(a + pi)_ij S_ij.  The backward sweep stops at the first trainable
    gate.

    This compiles the circuit at ``xs`` for one run and evaluates it
    once; a caller that evaluates the same points at many parameter
    vectors keeps one ``CompiledCircuit`` instead.
    """
    xs, w = _points(xs), _params(circuit, w)
    preds, dpreds = CompiledCircuit(circuit, xs).forward_with_adjoint(w[None])
    return preds[0], dpreds[0]


def ancilla_probabilities(circuit: CircuitSpec, xs: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(B, 2) array of [p(|0>), p(|1>)] of the measured qubit per point."""
    xs, w = _points(xs), _params(circuit, w)
    n, measured = circuit.n_qubits, circuit.measured_qubit
    return _measured(circuit.ops, n, xs, w, lambda amps: qsim.probability_vector_kernel(amps, n, (measured,)),
                     (2,))


# ---------------------------------------------------------------------------
# Fourier structure in the input
# ---------------------------------------------------------------------------

def fourier_degrees(circuit: CircuitSpec) -> tuple[int, int]:
    """(d1, d2): how many angle slots input components x1 and x2 fill.

    Every angle slot is one Pauli rotation exp(-i a P / 2), whether in
    RX/RY/RZ or in one slot of ROT, so the model output is a
    trigonometric polynomial of degree at most d_c in x_c (Schuld, Sweke
    & Meyer, arXiv:2008.08605).  Parameters fill no data slots, so every
    d output / d w_j obeys the same bound.
    """
    counts = [0, 0]
    for op in circuit.ops:
        for angle in op.angles:
            if isinstance(angle, DataRef):
                counts[angle.component] += 1
    return counts[0], counts[1]


def periodic_samples(circuit: CircuitSpec) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """``((t1, t2), points)``: the periodic sample axes t_c = 2 pi j /
    (2 d_c + 1), j = 0 .. 2 d_c, and their (N, 2) product grid in row-major
    (t1, t2) order, N = (2 d1 + 1)(2 d2 + 1).  The model's values there fix
    it, and its parameter derivatives, exactly at every input."""
    t1, t2 = (2 * np.pi * np.arange(2 * d + 1) / (2 * d + 1) for d in fourier_degrees(circuit))
    s1, s2 = np.meshgrid(t1, t2, indexing="ij")
    return (t1, t2), np.column_stack([s1.ravel(), s2.ravel()])


def _dirichlet_weights(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """(B, n) weights that carry the values of any trigonometric
    polynomial of degree <= d = (n - 1) / 2 at t_j = 2 pi j / n to the
    points x: the Dirichlet kernel (1 + 2 sum_{m=1..d} cos m(x - t_j)) / n,
    summed as cosines, not as the closed form sin((d + 1/2) u) / sin(u / 2),
    which is 0/0 at x = t_j."""
    m = np.arange(1, len(t) // 2 + 1)
    return (1.0 + 2.0 * np.cos((x[:, None] - t)[..., None] * m).sum(axis=-1)) / len(t)


def interpolation_weights(circuit: CircuitSpec, xs) -> np.ndarray:
    """(B, N) matrix K with f(xs) = K f(t) for the model f, and for each
    d f / d w_j, at any parameters, where t are the N
    ``periodic_samples``: row b is the product of the 1-D Dirichlet
    weights of x_b1 and x_b2."""
    xs = _points(xs)
    (t1, t2), _ = periodic_samples(circuit)
    k1, k2 = _dirichlet_weights(xs[:, 0], t1), _dirichlet_weights(xs[:, 1], t2)
    return (k1[:, :, None] * k2[:, None, :]).reshape(len(xs), -1)


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
