"""The planned kernels on stacked runs, and their reused scratch buffers."""

import numpy as np
import pytest

from qteach import kernels
from qteach.kernels import PlannedOp


def plain_apply(op, amps):
    """The gate arithmetic of ``apply_planned`` written with fresh
    temporaries and no scratch: the reference it must equal bit for bit."""
    if op.mode == kernels.MODE_FLIP:
        idx0, idx1 = op.payload
        tmp = amps[:, idx0]
        amps[:, idx0] = amps[:, idx1]
        amps[:, idx1] = tmp
    elif op.mode == kernels.MODE_PHASE:
        amps[:, op.payload] *= -1.0
    else:
        mats = op.payload
        a = amps.reshape(mats.shape[:-3] + (-1, op.left, 2, op.right))
        m = mats[..., None, None]
        old0 = a[..., 0, :].copy()
        a[..., 0, :] = m[..., 0, 0, :, :] * old0 + m[..., 0, 1, :, :] * a[..., 1, :]
        a[..., 1, :] = m[..., 1, 0, :, :] * old0 + m[..., 1, 1, :, :] * a[..., 1, :]


def random_state(rng, rows, n_qubits):
    return rng.standard_normal((rows, 1 << n_qubits)) + 1j * rng.standard_normal((rows, 1 << n_qubits))


def random_matrices(rng, shape):
    return rng.standard_normal(shape + (2, 2)) + 1j * rng.standard_normal(shape + (2, 2))


def random_op(rng, n_qubits, runs, points):
    """A random gate on ``runs`` stacked runs of ``points`` rows: a matrix
    shared by all rows, per row, per run or per run and point, or a FLIP
    or PHASE."""
    kind = int(rng.integers(6))
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
        """An (R, 1, 2, 2) payload acts on each run's N rows as the same
        matrices repeated to (R N, 2, 2) do, and (R, N, 2, 2) as its
        (R N, 2, 2) reshape, bit for bit."""
        points = 7
        for qubit in range(n_qubits):
            left, right = kernels.bit_split(n_qubits, qubit)
            amps = random_state(rng, runs * points, n_qubits)
            per_run = random_matrices(rng, (runs, 1))
            per_point = random_matrices(rng, (runs, points))
            cases = [(kernels.MODE_PER_S, per_run, np.repeat(per_run[:, 0], points, axis=0)),
                     (kernels.MODE_PER_ROW, per_point, per_point.reshape(-1, 2, 2))]
            for mode, stacked, rows in cases:
                got, want = amps.copy(), amps.copy()
                kernels.apply_planned(PlannedOp(mode, left, right, stacked), got)
                kernels.apply_planned(PlannedOp(kernels.MODE_PER_B, left, right, rows), want)
                np.testing.assert_array_equal(got, want)

    def test_each_run_evolves_as_alone(self, rng):
        """Run r of a stacked state ends where it ends evolved by itself
        under matrices [r]."""
        runs, points, n_qubits = 3, 4, 4
        ops = [random_op(rng, n_qubits, runs, points) for _ in range(30)]
        amps = random_state(rng, runs * points, n_qubits)
        alone = [amps[r * points:(r + 1) * points].copy() for r in range(runs)]
        for op in ops:
            kernels.apply_planned(op, amps)
            for r, rows in enumerate(alone):
                payload = op.payload
                if op.mode in (kernels.MODE_PER_S, kernels.MODE_PER_ROW):
                    payload = payload[r:r + 1]
                elif op.mode == kernels.MODE_PER_B:
                    payload = payload[r * points:(r + 1) * points]
                kernels.apply_planned(PlannedOp(op.mode, op.left, op.right, payload), rows)
        np.testing.assert_array_equal(amps, np.concatenate(alone))


class TestScratch:
    def test_alternating_shapes_leak_no_state(self, rng, monkeypatch):
        """Gates on two states of different shapes, interleaved, give what
        the plain fresh-temporary arithmetic gives on each alone: nothing a
        gate leaves in the scratch buffers reaches the next gate.  The two
        buffers grow to the larger half-state and no further."""
        empty = np.empty(0, dtype=complex)
        monkeypatch.setattr(kernels._scratch, "flat", (empty, empty))
        shapes = [(2, 3, 5), (4, 2, 3)]  # (runs, points, qubits)
        states = [random_state(rng, r * p, n) for r, p, n in shapes]
        refs = [s.copy() for s in states]
        for step in range(60):
            k = step % 2
            runs, points, n_qubits = shapes[k]
            op = random_op(rng, n_qubits, runs, points)
            kernels.apply_planned(op, states[k])
            plain_apply(op, refs[k])
            np.testing.assert_array_equal(states[k], refs[k], err_msg=f"step {step}")
        assert [buf.size for buf in kernels._scratch.flat] == [max(s.size for s in states) // 2] * 2
