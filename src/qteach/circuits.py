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
from functools import lru_cache
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


def bind(circuit: CircuitSpec, x, w) -> list[GateOp]:
    """Resolve all slots into executable gates for one point and one
    parameter vector."""
    x, w = _check_bind_args(circuit, x, w)
    if x.ndim != 1 or w.ndim != 1:
        raise ConfigurationError("bind takes a single point and a single parameter vector")

    def resolve(angle: AngleExpr) -> float:
        if isinstance(angle, Const):
            return angle.value
        if isinstance(angle, DataRef):
            return float(x[angle.component])
        return float(w[angle.index])

    return [
        GateOp(op.kind, op.targets, op.controls, tuple(resolve(a) for a in op.angles))
        for op in circuit.ops
    ]


@lru_cache(maxsize=None)
def _flip_pair_indices(n_qubits: int, controls: tuple[int, ...], target: int):
    """Index pairs (target bit 0 / 1) to swap for X / CNOT / MCX."""
    dim = 1 << n_qubits
    idx = np.arange(dim)
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
def _cz_flip_indices(n_qubits: int, a: int, b: int) -> np.ndarray:
    idx = np.arange(1 << n_qubits)
    mask = (1 << (n_qubits - 1 - a)) | (1 << (n_qubits - 1 - b))
    out = idx[(idx & mask) == mask]
    out.setflags(write=False)
    return out


def _bit_split(n_qubits: int, qubit: int) -> tuple[int, int]:
    return 1 << qubit, 1 << (n_qubits - 1 - qubit)


def _lowered_angles(op: SlotOp, xs: np.ndarray, ws: np.ndarray):
    """(mode, angles) of a rotation op: the matrix-builder input and whether
    it indexes by data point, by parameter set, or, when data and
    parameters mix, by row."""
    has_data = any(isinstance(a, DataRef) for a in op.angles)
    has_param = any(isinstance(a, ParamRef) for a in op.angles)

    def resolve(angle: AngleExpr):
        if isinstance(angle, Const):
            return angle.value
        if isinstance(angle, DataRef):
            return xs[:, angle.component]          # (B,)
        return ws[:, angle.index]                  # (S,)

    if has_data and has_param:
        # not produced by the builders; lower to one matrix per row
        def expand(angle: AngleExpr):
            v = resolve(angle)
            if isinstance(angle, DataRef):
                return np.broadcast_to(v[None, :], (len(ws), len(xs)))
            if isinstance(angle, ParamRef):
                return np.broadcast_to(v[:, None], (len(ws), len(xs)))
            return np.full((len(ws), len(xs)), v)

        return kernels.MODE_PER_ROW, [expand(a).ravel() for a in op.angles]
    mode = kernels.MODE_PER_B if has_data else kernels.MODE_PER_S
    return mode, [resolve(a) for a in op.angles]


def _plan_op(op: SlotOp, n_qubits: int, xs: np.ndarray, ws: np.ndarray) -> kernels.PlannedOp:
    """Lower one SlotOp to a kernel call for the given points/parameters."""
    target = op.targets[0]
    if op.kind is GateKind.CZ:
        return kernels.PlannedOp(kernels.MODE_PHASE, 0, 0,
                                 _cz_flip_indices(n_qubits, op.controls[0], target))
    if op.kind in (GateKind.X, GateKind.CNOT, GateKind.MCX):
        return kernels.PlannedOp(kernels.MODE_FLIP, 0, 0,
                                 _flip_pair_indices(n_qubits, op.controls, target))
    left, right = _bit_split(n_qubits, target)
    if op.kind is GateKind.H:
        return kernels.PlannedOp(kernels.MODE_CONST, left, right, qsim.HADAMARD)
    mode, angles = _lowered_angles(op, xs, ws)
    mats = qsim.matrix_builder(op.kind)(angles)
    if mode == kernels.MODE_PER_ROW:
        return kernels.PlannedOp(mode, left, right, mats)
    if mats.ndim == 2:
        return kernels.PlannedOp(kernels.MODE_CONST, left, right, mats)
    if mats.shape[0] == 1:
        return kernels.PlannedOp(kernels.MODE_CONST, left, right, mats[0])
    return kernels.PlannedOp(mode, left, right, np.ascontiguousarray(mats))


def _plan(circuit: CircuitSpec, xs: np.ndarray, ws: np.ndarray) -> list[kernels.PlannedOp]:
    return [_plan_op(op, circuit.n_qubits, xs, ws) for op in circuit.ops]


def _evolve(plans: Sequence[kernels.PlannedOp], amps: np.ndarray, n_points: int) -> np.ndarray:
    """Apply lowered gates in order to ``amps`` in place; returns ``amps``."""
    for planned in plans:
        kernels.apply_planned(planned, amps, n_points)
    return amps


# Bytes of amplitudes forward_many evolves at once.  Rows evolve
# independently, so splitting the points into blocks leaves every output
# bit-identical; it bounds the working set (a block's state plus the
# kernels' temporaries) at a few MiB however many points a call asks
# for, so peak memory no longer grows with the map resolution.
_BLOCK_BYTES = 1 << 20


def forward_many(circuit: CircuitSpec, xs: np.ndarray, ws: np.ndarray) -> np.ndarray:
    """Model outputs for every (parameter vector, data point) pair.

    ``xs``: (B, 2) points; ``ws``: (S, P) parameter vectors.  Returns an
    (S, B) array of ancilla Z expectations.  The points are evolved in
    blocks of about ``_BLOCK_BYTES`` of amplitudes.
    """
    xs, ws = _check_bind_args(circuit, xs, ws)
    if xs.ndim != 2 or ws.ndim != 2:
        raise ConfigurationError("forward_many takes (B, 2) points and (S, P) parameters")
    n_sets, dim = ws.shape[0], 1 << circuit.n_qubits
    step = max(1, _BLOCK_BYTES // (16 * dim * max(n_sets, 1)))
    vals = np.empty((n_sets, xs.shape[0]))
    for start in range(0, xs.shape[0], step):
        block = xs[start:start + step]
        amps = _evolve(_plan(circuit, block, ws), kernels.fresh_rows(n_sets * len(block), dim),
                       len(block))
        block_vals = qsim.expectation_z_kernel(amps, circuit.n_qubits, circuit.measured_qubit)
        vals[:, start:start + step] = block_vals.reshape(n_sets, len(block))
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
    pi/2)) / 2.  The base evolution caches the state entering every
    trainable gate, so each shifted evaluation only replays the circuit
    suffix behind that gate.  Training uses ``forward_with_adjoint``;
    this is the reference the tests check it against.
    """
    xs = np.asarray(xs, dtype=float)
    w = np.asarray(w, dtype=float)
    xs, w = _check_bind_args(circuit, xs, w)
    n_points = xs.shape[0]
    dim = 1 << circuit.n_qubits
    ws = w[None, :]
    plans = _plan(circuit, xs, ws)

    shift_ops = [(i, op, _param_slots(op)) for i, op in enumerate(circuit.ops) if _param_slots(op)]
    cached: dict[int, np.ndarray] = {}
    amps = kernels.fresh_rows(n_points, dim)
    done = 0
    for i, _, _ in shift_ops:
        _evolve(plans[done:i], amps, n_points)
        cached[i] = amps.copy()
        done = i
    _evolve(plans[done:], amps, n_points)
    preds = qsim.expectation_z_kernel(amps, circuit.n_qubits, circuit.measured_qubit)

    dpreds = np.zeros((circuit.n_params, n_points))
    half_pi = 0.5 * np.pi
    for i, op, slots in shift_ops:
        n_var = 2 * len(slots)
        # base angle values per point, tiled per shifted variant
        base = [
            np.broadcast_to(
                xs[:, a.component] if isinstance(a, DataRef)
                else (w[a.index] if isinstance(a, ParamRef) else a.value),
                (n_points,),
            )
            for a in op.angles
        ]
        variant_angles = [np.tile(col, (n_var, 1)) for col in base]
        for t, (pos, _) in enumerate(slots):
            variant_angles[pos][2 * t] += half_pi
            variant_angles[pos][2 * t + 1] -= half_pi
        builder = qsim.matrix_builder(op.kind)
        mats = builder([v.ravel() for v in variant_angles])
        left, right = _bit_split(circuit.n_qubits, op.targets[0])
        stack = np.tile(cached[i], (n_var, 1))
        kernels.apply_planned(
            kernels.PlannedOp(kernels.MODE_PER_ROW, left, right, np.ascontiguousarray(mats)),
            stack, n_points,
        )
        # the stack holds n_var copies of one parameter set; per-row
        # payloads must be lowered for that many
        stacked_ws = np.repeat(ws, n_var, axis=0)
        _evolve([_plan_op(later, circuit.n_qubits, xs, stacked_ws) for later in circuit.ops[i + 1:]],
                stack, n_points)
        vals = qsim.expectation_z_kernel(
            stack, circuit.n_qubits, circuit.measured_qubit
        ).reshape(n_var, n_points)
        for t, (_, param_index) in enumerate(slots):
            dpreds[param_index] = 0.5 * (vals[2 * t] - vals[2 * t + 1])
    return preds, dpreds


def _inverse(planned: kernels.PlannedOp) -> kernels.PlannedOp:
    """The adjoint of a lowered gate: FLIP and PHASE are their own
    inverses, a 2x2 payload is conjugate-transposed."""
    if planned.mode in (kernels.MODE_FLIP, kernels.MODE_PHASE):
        return planned
    dagger = np.ascontiguousarray(np.conj(np.swapaxes(planned.payload, -1, -2)))
    return kernels.PlannedOp(planned.mode, planned.left, planned.right, dagger)


def _derivative_matrices(op: SlotOp, slots, xs: np.ndarray, ws: np.ndarray) -> np.ndarray:
    """dU/dw for each trainable angle of a rotation op, stacked on axis 0.

    Every angle sits on a Pauli rotation R(a) = exp(-i a P / 2), whose
    derivative is (-i P / 2) R(a) = R(a + pi) / 2; shifting one angle of
    Rot(phi, theta, omega) = Rz(omega) Ry(theta) Rz(phi) by pi gives
    M (-iZ/2), Rz(omega) (-iY/2) Ry(theta) Rz(phi) and (-iZ/2) M.  The
    angles come from the op's own lowering, so a rotation mixing data
    and parameters gets one matrix per row.
    """
    _, angles = _lowered_angles(op, xs, ws)
    shape = (len(slots),) + np.broadcast(*angles).shape
    shifted = [np.broadcast_to(a, shape).copy() for a in angles]
    for t, (pos, _) in enumerate(slots):
        shifted[pos][t] += np.pi
    return 0.5 * qsim.matrix_builder(op.kind)(shifted)


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
    n_points = xs.shape[0]
    ws = w[None, :]
    plans = _plan(circuit, xs, ws)
    psi = _evolve(plans, kernels.fresh_rows(n_points, 1 << n_qubits), n_points)
    preds = qsim.expectation_z_kernel(psi, n_qubits, measured)

    dpreds = np.zeros((circuit.n_params, n_points))
    op_slots = [_param_slots(op) for op in circuit.ops]
    trainable = [i for i, slots in enumerate(op_slots) if slots]
    if not trainable:
        return preds, dpreds
    lam = psi * qsim._z_signs(n_qubits, measured)
    for i in range(len(plans) - 1, trainable[0] - 1, -1):
        inverse = _inverse(plans[i])
        kernels.apply_planned(inverse, psi, n_points)
        op, slots = circuit.ops[i], op_slots[i]
        if slots:
            left, right = _bit_split(n_qubits, op.targets[0])
            derivs = _derivative_matrices(op, slots, xs, ws)
            overlaps = _overlaps(lam, psi, left, right)
            dpreds[[index for _, index in slots]] = 2.0 * (derivs * overlaps).sum(axis=(-2, -1)).real
        if i > trainable[0]:
            kernels.apply_planned(inverse, lam, n_points)
    return preds, dpreds


def ancilla_probabilities(circuit: CircuitSpec, xs: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(B, 2) array of [p(|0>), p(|1>)] of the measured qubit per point."""
    xs, w = _check_bind_args(circuit, np.asarray(xs, dtype=float), np.asarray(w, dtype=float))
    n_points = xs.shape[0]
    amps = _evolve(_plan(circuit, xs, w[None, :]), kernels.fresh_rows(n_points, 1 << circuit.n_qubits),
                   n_points)
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
