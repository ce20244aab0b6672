"""The planned kernels on stacked runs, and their reused scratch buffers."""

import itertools
import sys
import threading

import numpy as np
import pytest

from qteach import kernels, qsim
from qteach.circuits import ArchitectureId, CompiledCircuit, Family, build, forward_batch, reuploading
from qteach.kernels import PlannedOp
from qteach.qsim import GateKind, GateOp

def per_row(values, runs, points):
    """Values shaped like a payload's batch ((), (R N,), (R, 1) or (R, N))
    as one value per row of R stacked runs of N points."""
    values = np.asarray(values)
    if values.ndim == 1:
        values = values.reshape(runs, points)
    return np.broadcast_to(values, (runs, points)).reshape(-1)


def plain_apply(op, amps, runs, points):
    """The gate arithmetic of ``apply_planned`` written row by row with
    fresh temporaries and no scratch: the reference it must equal bit for
    bit."""
    if op.mode == kernels.MODE_FLIP:
        idx0, idx1 = op.payload
        tmp = amps[:, idx0]
        amps[:, idx0] = amps[:, idx1]
        amps[:, idx1] = tmp
    elif op.mode == kernels.MODE_PHASE:
        amps[:, op.payload] *= -1.0
    else:
        m = [[per_row(op.payload[i, j], runs, points) for j in (0, 1)] for i in (0, 1)]
        for b, row in enumerate(amps):
            a = row.reshape(op.left, 2, op.right)
            old0 = a[:, 0].copy()
            a[:, 0] = m[0][0][b] * old0 + m[0][1][b] * a[:, 1]
            a[:, 1] = m[1][0][b] * old0 + m[1][1][b] * a[:, 1]


def random_state(rng, rows, n_qubits, order="C"):
    amps = rng.standard_normal((rows, 1 << n_qubits)) + 1j * rng.standard_normal((rows, 1 << n_qubits))
    return np.asarray(amps, order=order)


def random_matrices(rng, shape):
    """Random (2, 2, *shape) matrix payloads."""
    return rng.standard_normal((2, 2) + shape) + 1j * rng.standard_normal((2, 2) + shape)


def random_op(rng, n_qubits, runs, points):
    """A random gate on ``runs`` stacked runs of ``points`` rows: a matrix
    shared by all rows, per row, per run or per run and point, or a FLIP
    or PHASE (on two qubits or more)."""
    kind = int(rng.integers(6 if n_qubits > 1 else 4))
    if kind == 4:
        target, control = rng.permutation(n_qubits)[:2]
        return PlannedOp(kernels.MODE_FLIP, 0, 0, kernels.flip_pairs(n_qubits, (int(control),), int(target)))
    if kind == 5:
        a, b = rng.permutation(n_qubits)[:2]
        return PlannedOp(kernels.MODE_PHASE, 0, 0, kernels.cz_indices(n_qubits, int(a), int(b)))
    left, right = kernels.bit_split(n_qubits, int(rng.integers(n_qubits)))
    shape = [(), (runs * points,), (runs, 1), (runs, points)][kind]
    return PlannedOp(kind, left, right, random_matrices(rng, shape))


class TestStackedRuns:
    @pytest.mark.parametrize("n_qubits", [1, 3, 5])
    @pytest.mark.parametrize("runs", [1, 2, 5])
    def test_per_run_payload_equals_it_repeated_per_row(self, runs, n_qubits, rng):
        """A (2, 2, R, 1) payload acts on each run's N rows as the same
        matrices repeated to (2, 2, R N) do, and (2, 2, R, N) as its
        (2, 2, R N) reshape, bit for bit, on C- and F-ordered states."""
        points = 7
        for qubit, order in itertools.product(range(n_qubits), "CF"):
            left, right = kernels.bit_split(n_qubits, qubit)
            amps = random_state(rng, runs * points, n_qubits, order)
            per_run = random_matrices(rng, (runs, 1))
            per_point = random_matrices(rng, (runs, points))
            cases = [(kernels.MODE_PER_S, per_run, np.repeat(per_run[..., 0], points, axis=-1)),
                     (kernels.MODE_PER_ROW, per_point, per_point.reshape(2, 2, -1))]
            for mode, stacked, rows in cases:
                got, want = amps.copy(order="K"), amps.copy(order="K")
                kernels.apply_planned(PlannedOp(mode, left, right, stacked), got)
                kernels.apply_planned(PlannedOp(kernels.MODE_PER_B, left, right, rows), want)
                np.testing.assert_array_equal(got, want)

    def test_each_run_evolves_as_alone(self, rng):
        """Run r of a stacked state ends where it ends evolved by itself
        under matrices [:, :, r], with the stacked state and the lone runs
        in either memory order."""
        runs, points, n_qubits = 3, 4, 4
        ops = [random_op(rng, n_qubits, runs, points) for _ in range(30)]
        for order, alone_order in ("CF", "FC"):
            amps = random_state(rng, runs * points, n_qubits, order)
            alone = [np.array(amps[r * points:(r + 1) * points], order=alone_order) for r in range(runs)]
            for op in ops:
                kernels.apply_planned(op, amps)
                for r, rows in enumerate(alone):
                    payload = op.payload
                    if op.mode in (kernels.MODE_PER_S, kernels.MODE_PER_ROW):
                        payload = payload[:, :, r:r + 1]
                    elif op.mode == kernels.MODE_PER_B:
                        payload = payload[:, :, r * points:(r + 1) * points]
                    kernels.apply_planned(PlannedOp(op.mode, op.left, op.right, payload), rows)
            np.testing.assert_array_equal(amps, np.concatenate(alone))

    @pytest.mark.parametrize("n_qubits", [1, 3, 5, 7])
    def test_memory_order_does_not_change_a_bit(self, n_qubits, rng):
        """The same gates on C- and F-ordered copies of one state give
        array_equal results, for every payload shape."""
        runs, points = 4, 5
        amps = random_state(rng, runs * points, n_qubits)
        c_amps, f_amps = amps.copy(order="C"), amps.copy(order="F")
        for _ in range(40):
            op = random_op(rng, n_qubits, runs, points)
            kernels.apply_planned(op, c_amps)
            kernels.apply_planned(op, f_amps)
        np.testing.assert_array_equal(c_amps, f_amps)


def random_gate_rows(rng, n_qubits, runs, points):
    """A random gate as a lowered op plus the ``GateOp`` each row gets:
    a rotation whose angles have one of the four payload batch shapes, or
    H, X, CNOT, MCX or CZ shared by every row."""
    qubits = [int(q) for q in rng.permutation(n_qubits)]
    target = qubits[0]
    if n_qubits > 1 and rng.integers(3) == 0:
        kind = [GateKind.X, GateKind.CNOT, GateKind.MCX, GateKind.CZ][int(rng.integers(4))]
        controls = {GateKind.X: (), GateKind.CNOT: tuple(qubits[1:2]), GateKind.CZ: tuple(qubits[1:2]),
                    GateKind.MCX: tuple(qubits[1:1 + int(rng.integers(1, n_qubits))])}[kind]
        gate = GateOp(kind, (target,), controls)
        return qsim.lower_gate(kind, n_qubits, target, controls), [gate] * (runs * points)
    kind = [GateKind.RX, GateKind.RY, GateKind.RZ, GateKind.ROT, GateKind.H][int(rng.integers(5))]
    if kind is GateKind.H:
        return qsim.lower_gate(kind, n_qubits, target), [GateOp(kind, (target,))] * (runs * points)
    mode = int(rng.integers(4))
    shape = [(), (runs * points,), (runs, 1), (runs, points)][mode]
    angles = [rng.uniform(-np.pi, np.pi, shape) for _ in range(qsim.ANGLE_COUNTS[kind])]
    left, right = kernels.bit_split(n_qubits, target)
    op = PlannedOp(mode, left, right, qsim.matrix_builder(kind)(angles))
    rows = np.stack([per_row(a, runs, points) for a in angles], axis=1)
    return op, [GateOp(kind, (target,), params=tuple(row)) for row in rows]


class TestDenseOracle:
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n_qubits", [1, 2, 4, 6])
    def test_gate_sequences_match_per_row_unitaries(self, n_qubits, order, rng):
        """Random gate sequences on R stacked runs of N rows, with every
        payload shape, give in each row what that row's own gates do as
        full Kronecker-product unitaries."""
        runs, points = 3, 4
        amps = random_state(rng, runs * points, n_qubits, order)
        amps /= np.linalg.norm(amps, axis=1, keepdims=True)
        want = amps.copy()
        for _ in range(25):
            op, gates = random_gate_rows(rng, n_qubits, runs, points)
            kernels.apply_planned(op, amps)
            for b, gate in enumerate(gates):
                want[b] = qsim.gate_unitary(gate, n_qubits) @ want[b]
        np.testing.assert_allclose(amps, want, rtol=0, atol=1e-12)


class TestScratch:
    def test_alternating_shapes_leak_no_state(self, rng, monkeypatch):
        """Gates on two states of different shapes, interleaved, give what
        the plain fresh-temporary arithmetic gives on each alone: nothing a
        gate leaves in the scratch buffers reaches the next gate.  The two
        buffers grow to the larger half-state and no further."""
        empty = np.empty(0, dtype=complex)
        monkeypatch.setattr(kernels._scratch, "flat", (empty, empty))
        shapes = [(2, 3, 5), (4, 2, 3)]  # (runs, points, qubits)
        states = [random_state(rng, r * p, n, order) for (r, p, n), order in zip(shapes, "FC")]
        refs = [s.copy() for s in states]
        for step in range(60):
            k = step % 2
            runs, points, n_qubits = shapes[k]
            op = random_op(rng, n_qubits, runs, points)
            kernels.apply_planned(op, states[k])
            plain_apply(op, refs[k], runs, points)
            np.testing.assert_array_equal(states[k], refs[k], err_msg=f"step {step}")
        assert [buf.size for buf in kernels._scratch.flat] == [max(s.size for s in states) // 2] * 2

    def test_threads_keep_their_own_buffers(self, rng):
        """Two threads that evaluate their own ``CompiledCircuit`` and
        ``forward_batch`` at once, with the interpreter switching threads as
        often as it can, get the serial results bit for bit: each thread's
        gates use that thread's scratch buffers."""
        jobs = []
        for circuit, runs in ((build(ArchitectureId(Family.QNN_TWO_QP)), 2), (build(reuploading(2)), 3)):
            xs = rng.uniform(-np.pi, np.pi, (12, 2))
            w = rng.uniform(0, 2 * np.pi, (runs, circuit.n_params))
            jobs.append((CompiledCircuit(circuit, xs, runs), circuit, xs, w))

        def evaluate(compiled, circuit, xs, w):
            preds, dpreds = compiled.forward_with_adjoint(w)
            return preds, dpreds, forward_batch(circuit, xs, w[0])

        serial = [evaluate(*job) for job in jobs]
        results = [[] for _ in jobs]
        start = threading.Barrier(len(jobs))

        def worker(k):
            start.wait()
            for _ in range(20):
                results[k].append(evaluate(*jobs[k]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(len(jobs))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        for want, got in zip(serial, results):
            assert len(got) == 20
            for outputs in got:
                for a, b in zip(outputs, want):
                    np.testing.assert_array_equal(a, b)
