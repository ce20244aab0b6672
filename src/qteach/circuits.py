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


def _evolve(plans: Sequence[kernels.PlannedOp], n_qubits: int, rows: int) -> np.ndarray:
    """(rows, 2^n) view of the batch-minor states ``plans`` take |0...0> to."""
    amps = np.zeros((1 << n_qubits, rows), dtype=complex).T
    amps[:, 0] = 1.0
    for planned in plans:
        kernels.apply_planned(planned, amps)
    return amps


# gates that map basis states to basis states, up to sign: pulled back
# through them, a +-1 diagonal observable stays one
_FLIPS = (GateKind.X, GateKind.CNOT, GateKind.MCX)


def _program(circuit: CircuitSpec) -> tuple[tuple[SlotOp, ...], int, np.ndarray]:
    """``(ops, n_qubits, signs)``: what every evaluator simulates so that
    <signs> of the state ``ops`` take |0...0> to on ``n_qubits`` qubits
    equals the circuit's measured <Z>.

    The measured Z is pulled back through the trailing X / CNOT / MCX / CZ
    gates: a flip permutes the +-1 diagonal (``kernels.flip_pairs``), a CZ
    commutes with it.  A qubit no remaining gate touches stays |0>, so it
    is dropped with the sign entries where its bit is 1, and the others
    are renumbered in order.  A gate without parameters whose wires no
    earlier gate left in place touches commutes to the front, into the
    data-only prefix ``CompiledCircuit`` evolves once."""
    ops, n = list(circuit.ops), circuit.n_qubits
    signs = kernels.z_signs(n, circuit.measured_qubit).copy()
    while ops and ops[-1].kind in _FLIPS + (GateKind.CZ,):
        op = ops.pop()
        if op.kind in _FLIPS:
            idx0, idx1 = kernels.flip_pairs(n, op.controls, op.targets[0])
            signs[idx0], signs[idx1] = signs[idx1], signs[idx0]
    kept = sorted({q for op in ops for q in op.targets + op.controls})
    renumber = {q: i for i, q in enumerate(kept)}
    signs = signs.reshape((2,) * n)[tuple(slice(None) if q in renumber else 0 for q in range(n))].ravel()
    hoisted, rest, busy = [], [], set()
    for op in ops:
        op = replace(op, targets=tuple(renumber[q] for q in op.targets),
                     controls=tuple(renumber[q] for q in op.controls))
        wires = set(op.targets + op.controls)
        if _param_rows(op) or wires & busy:
            rest.append(op)
            busy |= wires
        else:
            hoisted.append(op)
    return tuple(hoisted + rest), len(kept), signs


# Bytes of amplitudes ``_measured`` evolves at once.  Rows evolve
# independently, so splitting the points into blocks leaves every output
# bit-identical; it bounds the working set (a block's state plus the
# kernels' temporaries) at a few MiB however many points a call asks
# for, so peak memory does not grow with the number of points.
_BLOCK_BYTES = 1 << 20


def _measured(circuit: CircuitSpec, xs: np.ndarray, w: np.ndarray, measure,
              width: tuple[int, ...] = ()) -> np.ndarray:
    """(B,) + width array of ``measure(amps, signs)`` for the states the
    compiled readout program (``_compile``, with ``signs`` its +-1
    diagonal) takes |0...0> to at the (B, 2) points ``xs`` under the
    parameter vector ``w``: one ``CompiledCircuit`` per block of about
    ``_BLOCK_BYTES`` of amplitudes, counting at least 16 per point, since
    a fused data block holds a 4 x 4 matrix per point, evolved without
    derivative matrices."""
    step = max(1, _BLOCK_BYTES // (16 << max(_compile(circuit).n_qubits, 4)))
    out = np.empty((len(xs),) + width)
    for start in range(0, len(xs), step):
        # once measured, a block keeps only its compiled prefix state, freed when the next block compiles
        compiled = CompiledCircuit(circuit, xs[start:start + step])
        out[start:start + step] = measure(compiled.evolve(w[None], derivatives=False)[0], compiled.signs)
    return out


def forward_many(circuit: CircuitSpec, xs: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Model outputs (ancilla Z expectations) at the (B, 2) points ``xs``
    under one parameter vector ``w``; shape (B,)."""
    xs, w = _points(xs), _params(circuit, w)
    return _measured(circuit, xs, w, qsim.expectation_z_kernel)


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
    """The adjoint of a lowered gate or block: FLIP and PHASE are their own
    inverses, a matrix payload is conjugate-transposed."""
    if planned.mode in (kernels.MODE_FLIP, kernels.MODE_PHASE):
        return planned
    return kernels.PlannedOp(_dagger(planned.payload), planned.left, planned.right, planned.middle)


def _dagger(mats: np.ndarray) -> np.ndarray:
    """Conjugate transpose of every matrix in a (d, d, ...) payload; each
    entry [i, j] of the result is again one contiguous block."""
    return np.conj(np.swapaxes(mats, 0, 1))


def _dot(a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """a @ b for (4, 4, *batch) stacks broadcast over the batch, into
    ``out`` if given; a 1-D operand is the diagonal of a fixed matrix.
    einsum keeps the sums in numpy's own loops (no BLAS), and with one
    summed index each entry's sum runs in the same order for every batch
    shape."""
    if a.ndim == 1:
        return np.multiply(a.reshape((4,) + (1,) * (b.ndim - 1)), b, out=out)
    if b.ndim == 1:
        return np.multiply(a, b.reshape((1, 4) + (1,) * (a.ndim - 2)), out=out)
    return np.einsum("ij...,jk...->ik...", a, b, out=out)


_NO_PARAMS = np.empty(0)
_NO_POINTS = np.empty((0, 2))


class _Step:
    """One kernel call of a fused program: a lone gate without parameters
    ``op``, lowered by ``qsim.lower_gate``, or a block of gates on the
    qubit ``pair`` a < b, renumbered onto a -> 0 and b -> 1.  A block
    without parameters keeps its ``data`` chain (``_chain``; a fixed
    block's is its one (4, 4) matrix).  A trainable block's ``chain``
    lists, first applied first, its fixed segments ((4, 4), or the
    diagonal of a diagonal one) and the kron stack entries of its layers,
    and ``span`` is the slice of its trainable angles among all of them;
    its ``head``, if any, is the data chain of a block it is applied with;
    ``parts`` maps each layer to its slice of the kron stack and its
    offset among the ``size`` matrices ``_Fused.block`` returns."""

    __slots__ = ("op", "pair", "split", "data", "chain", "head", "span", "parts", "size")

    def __init__(self, op, pair=None, n_qubits=0, data=None, chain=None):
        self.op, self.pair, self.data, self.chain, self.head = op, pair, data, chain, None
        self.split = kernels.pair_split(n_qubits, *pair) if pair else None

    def plan(self, matrix: np.ndarray, head=None) -> kernels.PlannedOp:
        """This pair block's kernel call with the (4, 4, *batch) payload
        ``matrix``, applied after the matrix ``head`` if given."""
        left, middle, right = self.split
        return kernels.PlannedOp(matrix if head is None else _dot(matrix, head), left, right, middle)


def _pair_matrix(ops: Sequence[SlotOp]) -> np.ndarray:
    """The (4, 4) matrix of gates without parameters or data on qubits 0
    and 1: the states the gates take the 4 basis states to, through the
    kernels."""
    amps = np.eye(4, dtype=complex)  # row j is |j>, stored batch-minor as its transpose
    for op in ops:
        kernels.apply_planned(qsim.lower_gate(op.kind, 2, op.targets[0], op.controls,
                                              _lowered_angles(op, _NO_POINTS, _NO_PARAMS)), amps)
    return amps.T.copy()


def _chain(ops: Sequence[SlotOp], in_layer) -> list:
    """A block's gates on qubits 0 and 1, first applied first, as fixed
    segments (``_segment``) of the gates ``in_layer`` rejects, between
    layers [gate on qubit 0, gate on qubit 1] of the one-qubit gates it
    takes (None for the identity)."""
    chain: list = []
    pending: list[SlotOp] = []
    for op in ops:
        if not in_layer(op):
            pending.append(op)
            continue
        side = op.targets[0]
        if not chain or pending or chain[-1][side] is not None:
            if pending:
                chain.append(_segment(pending))
                pending = []
            chain.append([None, None])
        chain[-1][side] = op
    return chain + [_segment(pending)] if pending else chain


_IDENTITY = np.eye(2, dtype=complex)[:, :, None]


def _data_matrix(chain: list, xs: np.ndarray) -> np.ndarray:
    """The (4, 4, B) matrix per point of a ``_chain`` of gates that take
    data at the points ``xs``: its layers' krons and fixed segments
    multiplied in order; a fixed block's chain gives its (4, 4) matrix."""
    acc = None
    for item in chain:
        if isinstance(item, list):
            a, b = (_IDENTITY if op is None else
                    qsim.matrix_builder(op.kind)(_lowered_angles(op, xs, _NO_PARAMS)) for op in item)
            item = (a[:, None, :, None] * b[None, :, None, :]).reshape((4, 4, -1))
        acc = item if acc is None else _dot(item, acc)
    return acc


def _segment(ops: Sequence[SlotOp]) -> np.ndarray:
    """A trainable block's fixed segment: its matrix, or its diagonal."""
    mats = _pair_matrix(ops)
    diagonal = np.diagonal(mats).copy()
    return diagonal if np.array_equal(mats, np.diag(diagonal)) else mats


def _gate_blocks(ops: Sequence[SlotOp]) -> list[list]:
    """``ops`` taken in order into blocks ``[wires, ops, kind]``, kind "p"
    trainable, "d" taking data and "c" neither: a gate joins the last
    block while the block stays on two qubits and does not mix gates that
    take data with trainable ones."""
    blocks: list[list] = []
    for op in ops:
        wires = set(op.targets + op.controls)
        kind = "p" if _param_rows(op) else "d" if op.is_encoding() else "c"
        if blocks and len(blocks[-1][0] | wires) <= 2 and {blocks[-1][2], kind} != {"d", "p"}:
            blocks[-1][0] |= wires
            blocks[-1][1].append(op)
            blocks[-1][2] = kind if blocks[-1][2] == "c" else blocks[-1][2]
        else:
            blocks.append([wires, [op], kind])
    return blocks


class _Fused:
    """A gate program on ``n_qubits`` fused into steps of at most two
    qubits (Suzuki et al., arXiv:2011.13524).

    Gates are taken in order into blocks (``_gate_blocks``); a gate on three
    or more qubits (MCX) is a step of its own.  A block of one gate
    without parameters stays that gate (FLIP, PHASE or 2 x 2); every
    other block is one 4 x 4 matrix on a qubit pair, a lone qubit taking
    the nearest other qubit as its idle partner (a one-qubit program runs
    on two qubits for this).  A block without parameters is fixed, one
    matrix per point when it takes data.  A trainable block is the
    product of its ``chain``: fixed segments and layers, each layer
    kron(A, B) of at most one trainable rotation per qubit (the identity
    where there is none).

    Every trainable rotation is a Rot (``qsim.ROT_ANGLES``), so one
    ``qsim.matrix_builder(GateKind.ROT)`` call on one gather of the angle
    rows (``angles``: the P parameters, the P parameters shifted by pi,
    then constants and data) gives every layer factor and, for every
    trainable angle, U(a + pi) = 2 dU/da.  ``krons`` pairs the builder's
    columns into a stack: per layer in order, the layer, then for each of
    its trainable angles K, the layer with U(a + pi) in place of U
    (``table`` holds the angle rows of every first factor, then of every
    second one).  ``order`` sorts the trainable angles, taken in stack
    order, by parameter index (a plain slice when they are in that order
    already)."""

    def __init__(self, ops: tuple[SlotOp, ...], n_qubits: int):
        self.n_qubits = n = 2 if n_qubits == 1 else n_qubits
        self.n_params = p = 1 + max((i for op in ops for i in _param_rows(op)), default=-1)
        self.fixed: list[AngleExpr] = []  # the angle rows after the 2 P parameter rows
        identity = [self._row(Const(0.0), p)] * 3
        stack: list[list[list[int]]] = []  # each kron's factors (A, B) as angle rows
        params: list[int] = []  # the parameter of each trainable angle, in stack order
        self.steps: list[_Step] = []
        self.groups: list[list[_Step]] = []
        shape = None  # the chain shape of the last trainable block
        for wires, members, kind in _gate_blocks(ops):
            if len(members) == 1 and kind != "p":
                self.steps.append(_Step(members[0]))
                continue
            (q,) = wires if len(wires) == 1 else (None,)
            pair = tuple(sorted(wires)) if q is None else tuple(sorted((q, q + 1 if q + 1 < n else q - 1)))
            place = {pair[0]: 0, pair[1]: 1}
            members = [replace(op, targets=tuple(place[t] for t in op.targets),
                               controls=tuple(place[c] for c in op.controls)) for op in members]
            if kind != "p":
                data = _chain(members, SlotOp.is_encoding) if kind == "d" else [_pair_matrix(members)]
                self.steps.append(_Step(None, pair, n, data=data))
                continue
            step = _Step(None, pair, n, chain=_chain(members, _param_rows))
            step.parts, step.size, start = {}, 0, len(params)
            for k, item in enumerate(step.chain):
                if not isinstance(item, list):
                    continue
                angles = [() if op is None else qsim.ROT_ANGLES[op.kind](op.angles, Const) for op in item]
                rows = [[self._row(a, p) for a in side] if side else identity for side in angles]
                step.chain[k] = at = len(stack)
                stack.append(rows)
                for side, slots in enumerate(angles):
                    for slot, angle in enumerate(slots):
                        if isinstance(angle, ParamRef):
                            # the layer with U(a + pi): a's row moved to its shifted copy
                            stack.append(list(rows))
                            stack[-1][side] = [r + p * (i == slot) for i, r in enumerate(rows[side])]
                            params.append(angle.index)
                begin = at + bool(step.parts)  # a later layer's own kron is not needed
                step.parts[at] = (begin, len(stack), step.size)
                step.size += len(stack) - begin
            step.span = slice(start, len(params))
            # a data block right before this one on its pair, after an earlier
            # trainable block, is applied with this one as one matrix per point
            # and run: one kernel call forward and one on lam, not two.  Only a
            # data block can be there: any other would have joined this one.
            if self.groups and self.steps[-1].pair == pair:
                step.head = self.steps.pop().data
            self.steps.append(step)
            # consecutive trainable blocks of one shape (fixed segments and
            # layer sizes) form one group, built together (``blocks``)
            last, shape = shape, [step.parts[i][1] - i if isinstance(i, int) else i.tobytes() for i in step.chain]
            if shape == last:
                self.groups[-1].append(step)
            else:
                self.groups.append([step])
        self.table = np.array(stack, dtype=int).reshape(-1, 2, 3).swapaxes(0, 1).reshape(-1, 3).T
        order = np.argsort(params, kind="stable")
        self.order = slice(None) if np.array_equal(order, np.arange(len(order))) else order
        self.per_point = any(isinstance(a, DataRef) for a in self.fixed)

    def _row(self, angle: AngleExpr, n_params: int) -> int:
        if isinstance(angle, ParamRef):
            return angle.index
        if angle not in self.fixed:
            self.fixed.append(angle)
        return 2 * n_params + self.fixed.index(angle)

    def angles(self, xs: np.ndarray, runs: int) -> np.ndarray:
        """(rows, runs, B or 1) angle rows with the constants and data set:
        one column per point when a trainable rotation takes data."""
        p = self.n_params
        out = np.empty((2 * p + len(self.fixed), runs, len(xs) if self.per_point else 1))
        for k, angle in enumerate(self.fixed):
            out[2 * p + k] = angle.value if isinstance(angle, Const) else xs[:, angle.component]
        return out

    def krons(self, angles: np.ndarray, w: np.ndarray) -> np.ndarray:
        """The (4, 4, K, R, 1 or B) kron stack at the (R, P) parameters
        ``w``, from one builder call on ``angles`` (``angles``)."""
        p = self.n_params
        angles[:p] = w.T[:p, :, None]
        np.add(angles[:p], np.pi, out=angles[p:2 * p])
        mats = qsim.matrix_builder(GateKind.ROT)(angles[self.table])
        half = mats.shape[2] // 2
        krons = mats[:, :, :half][:, None, :, None] * mats[:, :, half:][None, :, None, :]
        return krons.reshape((4, 4) + krons.shape[4:])

    def block(self, step: _Step, krons: np.ndarray, base: int, derivatives: bool = True) -> np.ndarray:
        """(4, 4, 1 + D, ...): a trainable block's matrix S L P, with L its
        first layer and P and S the products of its chain before and after
        L, then for each of its D trainable angles 2 d(matrix)/da = S' K P',
        with K from ``krons`` and S', P' the chain after and before the
        angle's layer; (4, 4, 1, ...), the matrix alone, without
        ``derivatives``.  ``krons`` is the part of the stack from entry
        ``base`` on, with the batch axes after the stack's (``blocks``)."""
        first = min(step.parts)
        last = max(step.parts) if derivatives else first
        befores, acc = {}, None
        for item in step.chain:
            if isinstance(item, int):
                befores[item] = acc
                if item == last:
                    break
                item = krons[:, :, item - base]
            acc = item if acc is None else _dot(item, acc)
        out = np.empty((4, 4, step.size if derivatives else 1) + krons.shape[3:], dtype=complex)
        acc = None
        for item in reversed(step.chain):
            if isinstance(item, int):
                if item in befores:
                    # without derivatives, only L's own kron, the first entry of its part
                    start, stop, offset = step.parts[item] if derivatives else (item, item + 1, 0)
                    stack, part = krons[:, :, start - base:stop - base], out[:, :, offset:offset + stop - start]
                    if befores[item] is None:
                        _dot(acc, stack, part) if acc is not None else np.copyto(part, stack)
                    else:
                        _dot(stack if acc is None else _dot(acc, stack), befores[item], part)
                if item == first:
                    break
                item = krons[:, :, item - base]
            acc = item if acc is None else _dot(acc, item)
        return out

    def blocks(self, krons: np.ndarray, derivatives: bool = True) -> dict:
        """{step: its ``block``} for every trainable step;
        consecutive blocks of one structure are built in one go, as one
        more batch axis of the kron stack."""
        built = {}
        for group in self.groups:
            start = min(group[0].parts)
            # a block's stack entries: the ``size`` it returns and each later layer's own kron
            size = group[0].size + len(group[0].parts) - 1
            stacks = krons[:, :, start:start + len(group) * size]
            stacks = stacks.reshape((4, 4, len(group), size) + krons.shape[3:]).swapaxes(2, 3)
            out = self.block(group[0], stacks, start, derivatives)
            built.update((step, out[:, :, :, g]) for g, step in enumerate(group))
        return built

    def fixed_plan(self, step: _Step, xs: np.ndarray) -> kernels.PlannedOp:
        """A step without parameters lowered for the points ``xs``."""
        if step.op is not None:
            op = step.op
            return qsim.lower_gate(op.kind, self.n_qubits, op.targets[0], op.controls,
                                   _lowered_angles(op, xs, _NO_PARAMS))
        return step.plan(_data_matrix(step.data, xs))


@lru_cache(maxsize=64)
def _compile(circuit: CircuitSpec) -> _Fused:
    """The circuit's readout program (``_program``) fused into steps, with
    ``signs`` its read-only +-1 diagonal over the fused qubits (an idle
    partner repeats each entry); compiled once per circuit, shared, never
    mutated."""
    ops, n, signs = _program(circuit)
    fused = _Fused(ops, n)
    fused.signs = np.repeat(signs, 2) if fused.n_qubits > n else signs
    fused.signs.setflags(write=False)
    return fused


class CompiledCircuit:
    """The one evaluator of a circuit: compiled once at fixed points
    ``xs`` for ``runs`` parameter vectors at a time, then evaluated at any
    number of (runs, P) parameter arrays.  ``forward_many``,
    ``ancilla_probabilities`` and the encoding study evolve one instance
    per block of points (``_measured``); ``forward_with_adjoint`` keeps
    one, and training one for its epochs and its final predictions.

    It evolves the circuit's compiled readout program (``_compile``: n'
    qubits fused into blocks and a +-1 diagonal observable O, ``signs``).
    The runs are stacked as rows: the state holds runs * N amplitude rows,
    run r in rows r N .. (r + 1) N - 1, stored batch-minor as a (2^n',
    runs * N) array (``kernels``), and every step is one kernel call for
    all of them.  Built once: the state that the steps before the first
    trainable block take |0...0> to, the plans of the later fixed steps
    (data at the points tiled once per run) and the per-point matrix of
    each trainable block's head.  ``evolve`` builds, from one ROT builder
    call, every trainable block's (4, 4, runs, 1) matrix T and its
    derivative matrices G = 2 dT/da for every trainable angle a (T alone
    when no backward sweep follows), and evolves the state; ``forward``
    measures O on it.  ``backward`` then
    sweeps back through the step inverses (Jones & Gacon,
    arXiv:2009.02823), carrying psi and lam = c O psi for a cotangent c.
    At a trainable block with input psi and output cotangent lam, the
    derivative of sum c <O> is 2 Re Tr(dT/da M) = Re Tr(G M) with M = psi
    lam^dagger summed over the other qubits and over the points (per point
    for the Jacobian): one contraction per block gives all of its
    derivatives.  ``forward`` keeps its state for the ``backward`` that
    follows, so one instance must not be evaluated from two threads at
    once; the arrays returned are new on every call.
    """

    def __init__(self, circuit: CircuitSpec, xs, runs: int = 1):
        xs = _points(xs)
        self.circuit, self.runs, self.n_points = circuit, runs, len(xs)
        self._fused = fused = _compile(circuit)
        self.signs = fused.signs
        steps = fused.steps
        first = next((i for i, step in enumerate(steps) if step.chain is not None), len(steps))
        self._prefix = _evolve([fused.fixed_plan(step, xs) for step in steps[:first]], fused.n_qubits, len(xs))
        self._steps = steps[first:]
        self._trainable = [k for k, step in enumerate(self._steps) if step.chain is not None]
        tiled = np.tile(xs, (runs, 1))
        self._plans = [None if step.chain is not None else fused.fixed_plan(step, tiled) for step in self._steps]
        self._angles = fused.angles(xs, runs)
        self._heads = {k: None if self._steps[k].head is None else _data_matrix(self._steps[k].head, xs)[:, :, None]
                       for k in self._trainable}
        self._sweep = None

    def evolve(self, w, derivatives: bool = True) -> tuple[np.ndarray, list, dict]:
        """``(psi, plans, blocks)`` at the (runs, P) parameters ``w``: the
        (runs * N, 2^n') states the program takes |0...0> to, every step
        after the prefix lowered, and each trainable step's ``_Fused.block``
        by its index among them, with the derivative matrices a backward
        sweep needs only if ``derivatives``."""
        runs, n_points, fused = self.runs, self.n_points, self._fused
        w = np.asarray(w, dtype=float)
        if w.shape != (runs, self.circuit.n_params):
            raise ConfigurationError(
                f"expected a ({runs}, {self.circuit.n_params}) parameter array, got shape {w.shape}")
        plans, blocks = list(self._plans), {}
        built = fused.blocks(fused.krons(self._angles, w), derivatives) if self._trainable else {}
        for k in self._trainable:
            step = self._steps[k]
            blocks[k] = built[step]
            plans[k] = step.plan(blocks[k][:, :, 0], self._heads[k])
        psi = np.empty((self._prefix.shape[1], runs * n_points), dtype=complex).T
        np.copyto(psi.T.reshape(-1, runs, n_points), self._prefix.T[:, None])
        for planned in plans:
            kernels.apply_planned(planned, psi)
        return psi, plans, blocks

    def forward(self, w) -> np.ndarray:
        """(runs, N) predictions at the (runs, P) parameters ``w``; keeps
        the sweep for ``backward``."""
        self._sweep = self.evolve(w)
        return qsim.expectation_z_kernel(self._sweep[0], self.signs).reshape(self.runs, self.n_points)

    def backward(self, cotangent=None) -> np.ndarray:
        """Derivatives of the last ``forward``'s predictions: with a (runs,
        N) ``cotangent`` c, the (runs, P) sums over points of c times
        d preds / d w; without one, the (runs, P, N) Jacobian.  Each
        ``forward`` is taken back once."""
        runs, n_points, fused = self.runs, self.n_points, self._fused
        if self._sweep is None:
            raise ConfigurationError("backward needs a forward first, and takes each forward back once")
        cotangent = None if cotangent is None else np.asarray(cotangent, dtype=float)
        if cotangent is not None and cotangent.shape != (runs, n_points):
            raise ConfigurationError(f"expected a ({runs}, {n_points}) cotangent, got shape {cotangent.shape}")
        psi, plans, blocks = self._sweep
        self._sweep = None  # the sweep walks psi back in place
        if not self._trainable:
            return np.zeros((runs, 0, n_points)[:2 + (cotangent is None)])
        # lam = c O psi, stored batch-minor like psi (``empty_like`` keeps its order)
        lam = np.multiply(psi, self.signs if cotangent is None else np.multiply.outer(cotangent.ravel(), self.signs),
                          out=np.empty_like(psi))
        summed = cotangent is not None and not fused.per_point
        grads = np.empty((self.circuit.n_params, runs, 1 if summed else n_points), dtype=complex)
        # psi is swept back to the output of the second trainable block: a
        # later block's M at its input is T^dagger times M at its output,
        # and the first block's input is the prefix
        stop = self._trainable[1] if len(self._trainable) > 1 else len(plans)
        for k in range(len(plans) - 1, -1, -1):
            if k in blocks:
                step, block = self._steps[k], blocks[k]
                mt = self._overlaps(step, psi if k else self._prefix, lam, summed)
                if k:
                    mt = _dot(mt, np.conj(block[:, :, 0]))
                derivs = block[:, :, 1:]
                np.einsum("xd...,x...->d...", derivs.reshape((16,) + derivs.shape[2:]),
                          mt.reshape((16,) + mt.shape[2:]), out=grads[step.span])
            if k:
                inverse = _inverse(plans[k])
                if k > stop:
                    kernels.apply_planned(inverse, psi)
                kernels.apply_planned(inverse, lam)
        grads = grads.real[fused.order]
        return (grads if cotangent is None else np.add.reduce(grads, axis=-1)).swapaxes(0, 1)

    def _overlaps(self, step: _Step, psi: np.ndarray, lam: np.ndarray, summed: bool) -> np.ndarray:
        """(4, 4, runs, N) M^T of one block per run and point, the sum over
        the other qubits of conj(lam) on pair index y times psi on x at
        [y, x]; (4, 4, runs, 1) summed over the points when ``summed``."""
        left, middle, right = step.split
        view = (left, 2, middle, 2, right, -1, self.n_points)
        mt = np.einsum("lambt...,lcmdt...->abcd...", np.conj(lam.T).reshape(view), psi.T.reshape(view))
        mt = mt.reshape((4, 4) + mt.shape[4:])
        return np.add.reduce(mt, axis=-1, keepdims=True) if summed else mt

    def forward_with_adjoint(self, w) -> tuple[np.ndarray, np.ndarray]:
        """``(preds, dpreds)`` at the (runs, P) parameters ``w``: preds
        (runs, N) and dpreds (runs, P, N), row r as the function
        ``forward_with_adjoint`` defines them at ``w[r]``."""
        preds = self.forward(w)
        return preds, self.backward()


def forward_with_adjoint(circuit: CircuitSpec, xs: np.ndarray, w: np.ndarray):
    """Predictions and their exact derivatives by the adjoint method.

    Returns ``(preds, dpreds)``: preds (B,) equal ``forward_many`` at
    ``w`` bit for bit, and dpreds (P, B) holds d preds / d w_j.  Both
    sweeps run on the circuit's readout program fused into blocks of at
    most two qubits (``_compile``), whose +-1 diagonal O is the measured Z
    pulled back through the trailing flips and CZs.  After one
    forward sweep, a backward sweep (Jones & Gacon, arXiv:2009.02823)
    carries the state psi and lam = O psi back through the block inverses.
    At a trainable block T with psi its input and lam the observable
    pulled back to its output, d<Z>/dw = 2 Re <lam| dT/dw |psi> = 2 Re
    Tr(dT/dw M) with M = psi lam^dagger; a layer L of T, between the
    products P before and S after it, gives Tr(dL P M S), and as dU/da =
    U(a + pi) / 2 for every angle a, d<Z>/dw is Re Tr(K P M S) with K the
    layer with U(a + pi) in place of U.  The first trainable block's
    input is the evolved fixed prefix, and a later block's M is T^dagger
    times the M of its output, so psi goes back no further than the second
    trainable block's output.  ``CompiledCircuit.backward`` with a
    cotangent sums M over the points first, which is how training gets
    its gradient.

    This compiles the circuit at ``xs`` for one run and evaluates it
    once; a caller that evaluates the same points at many parameter
    vectors keeps one ``CompiledCircuit`` instead.
    """
    xs, w = _points(xs), _params(circuit, w)
    preds, dpreds = CompiledCircuit(circuit, xs).forward_with_adjoint(w[None])
    return preds[0], dpreds[0]


def ancilla_probabilities(circuit: CircuitSpec, xs: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(B, 2) array of [p(|0>), p(|1>)] of the measured qubit per point:
    the weights of the readout program's +1 and -1 sign entries."""
    def measure(amps, signs):
        return (qsim._probabilities(amps)[:, None] * np.array([signs > 0, signs < 0], dtype=float)).sum(axis=-1)

    return _measured(circuit, _points(xs), _params(circuit, w), measure, (2,))


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

