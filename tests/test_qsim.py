"""Simulator correctness: known states, the dense-matrix oracle, and the
invariants of the gate kernels."""

import numpy as np
import pytest

from qteach import circuits, kernels, qsim
from qteach.circuits import ParamRef, SlotOp
from qteach.errors import ConfigurationError, StructuralError
from qteach.qsim import (
    GateKind,
    GateOp,
    apply_gate,
    expectation_z,
    new_state,
    probability_vector,
    run_gates,
)

from conftest import circuit_unitary, gate_unitary, random_circuit, random_gate

SQRT2_INV = 1 / np.sqrt(2)


class TestNewState:
    def test_one_qubit(self):
        s = new_state(1)
        np.testing.assert_array_equal(s.amplitudes, [1, 0])

    def test_two_qubits(self):
        np.testing.assert_array_equal(new_state(2).amplitudes, [1, 0, 0, 0])

    def test_three_qubits(self):
        s = new_state(3)
        assert s.amplitudes.shape == (8,)
        assert s.amplitudes[0] == 1

    @pytest.mark.parametrize("n", [0, -1, 21])
    def test_out_of_range(self, n):
        with pytest.raises(ConfigurationError):
            new_state(n)


class TestApplyGate:
    def test_rx_pi_gives_minus_i_one(self):
        s = apply_gate(new_state(1), GateOp(GateKind.RX, (0,), params=(np.pi,)))
        np.testing.assert_allclose(s.amplitudes, [0, -1j], atol=1e-12)

    def test_mcx_toffoli_truth_table(self):
        # |110> with qubit 0 as MSB sits at index 6
        s = new_state(3)
        s = apply_gate(s, GateOp(GateKind.X, (0,)))
        s = apply_gate(s, GateOp(GateKind.X, (1,)))
        s = apply_gate(s, GateOp(GateKind.MCX, (2,), controls=(0, 1)))
        expected = np.zeros(8, dtype=complex)
        expected[7] = 1
        np.testing.assert_allclose(s.amplitudes, expected, atol=1e-12)

    def test_cz_phase_on_11(self):
        s = new_state(2)
        s = apply_gate(s, GateOp(GateKind.H, (0,)))
        s = apply_gate(s, GateOp(GateKind.H, (1,)))
        s = apply_gate(s, GateOp(GateKind.CZ, (1,), controls=(0,)))
        np.testing.assert_allclose(s.amplitudes, [0.5, 0.5, 0.5, -0.5], atol=1e-12)

    def test_x_on_msb_qubit(self):
        s = apply_gate(new_state(3), GateOp(GateKind.X, (0,)))
        assert np.argmax(np.abs(s.amplitudes)) == 4

    def test_cnot_flips_when_control_set(self):
        s = apply_gate(new_state(2), GateOp(GateKind.X, (0,)))
        s = apply_gate(s, GateOp(GateKind.CNOT, (1,), controls=(0,)))
        np.testing.assert_allclose(s.amplitudes, [0, 0, 0, 1], atol=1e-12)

    def test_index_out_of_range(self):
        with pytest.raises(StructuralError):
            apply_gate(new_state(2), GateOp(GateKind.X, (2,)))

    def test_input_state_not_mutated(self):
        s = new_state(1)
        apply_gate(s, GateOp(GateKind.X, (0,)))
        np.testing.assert_array_equal(s.amplitudes, [1, 0])


class TestGateOpValidation:
    def test_rot_needs_three_angles(self):
        with pytest.raises(StructuralError):
            GateOp(GateKind.ROT, (0,), params=(1.0,))

    def test_h_takes_no_angles(self):
        with pytest.raises(StructuralError):
            GateOp(GateKind.H, (0,), params=(1.0,))

    def test_controls_and_targets_disjoint(self):
        with pytest.raises(StructuralError):
            GateOp(GateKind.CNOT, (1,), controls=(1,))

    def test_mcx_needs_controls(self):
        with pytest.raises(StructuralError):
            GateOp(GateKind.MCX, (0,))


class TestExpectationZ:
    def test_zero_state(self):
        assert expectation_z(new_state(1), 0) == 1.0

    def test_flipped_state(self):
        s = apply_gate(new_state(1), GateOp(GateKind.RX, (0,), params=(np.pi,)))
        assert expectation_z(s, 0) == pytest.approx(-1.0, abs=1e-12)

    def test_equal_superposition(self):
        s = apply_gate(new_state(1), GateOp(GateKind.RX, (0,), params=(np.pi / 2,)))
        assert expectation_z(s, 0) == pytest.approx(0.0, abs=1e-12)

    def test_result_never_leaves_unit_interval(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 5))
            state = run_gates(new_state(n), random_circuit(rng, n, 20))
            for q in range(n):
                assert -1.0 <= expectation_z(state, q) <= 1.0


class TestProbabilityVector:
    def test_basis_state(self):
        np.testing.assert_array_equal(probability_vector(new_state(2), [0, 1]), [1, 0, 0, 0])

    def test_half_flipped_first_qubit(self):
        s = apply_gate(new_state(2), GateOp(GateKind.RX, (0,), params=(np.pi / 2,)))
        np.testing.assert_allclose(probability_vector(s, [0, 1]), [0.5, 0, 0.5, 0], atol=1e-12)

    def test_rot_h_encoding_matches_dense_product(self):
        # Rot(0,0,0) = I, so the encoding at x=(0,0) is H per qubit: uniform
        gates = [
            GateOp(GateKind.H, (0,)),
            GateOp(GateKind.ROT, (0,), params=(0.0, 0.0, 0.0)),
            GateOp(GateKind.H, (1,)),
            GateOp(GateKind.ROT, (1,), params=(0.0, 0.0, 0.0)),
        ]
        state = run_gates(new_state(2), gates)
        oracle = circuit_unitary(gates, 2)[:, 0]
        np.testing.assert_allclose(state.amplitudes, oracle, atol=1e-12)
        np.testing.assert_allclose(probability_vector(state, [0, 1]), [0.25] * 4, atol=1e-12)

    def test_qubit_order_controls_bit_order(self, rng):
        state = run_gates(new_state(3), random_circuit(rng, 3, 15))
        p_01 = probability_vector(state, [0, 1])
        p_10 = probability_vector(state, [1, 0])
        # swapping the listed qubits permutes the middle outcomes
        np.testing.assert_allclose(p_01[[0, 2, 1, 3]], p_10, atol=1e-14)

    def test_duplicate_qubits_rejected(self):
        with pytest.raises(StructuralError):
            probability_vector(new_state(2), [0, 0])

    def test_full_register_equals_amplitude_squares(self, rng):
        state = run_gates(new_state(4), random_circuit(rng, 4, 25))
        np.testing.assert_allclose(
            probability_vector(state, [0, 1, 2, 3]),
            np.abs(state.amplitudes) ** 2,
            atol=1e-14,
        )


class TestDenseOracle:
    def test_single_rx_matrix(self):
        theta = 0.7
        expected = np.array(
            [[np.cos(theta / 2), -1j * np.sin(theta / 2)],
             [-1j * np.sin(theta / 2), np.cos(theta / 2)]]
        )
        np.testing.assert_allclose(
            gate_unitary(GateOp(GateKind.RX, (0,), params=(theta,)), 1), expected, atol=1e-15
        )

    def test_empty_circuit_is_identity(self):
        np.testing.assert_array_equal(circuit_unitary([], 2), np.eye(4))

    def test_oracle_equivalence_on_random_circuits(self, rng):
        """Fast engine vs naive Kronecker-product oracle, 120 circuits."""
        worst = 0.0
        worst_norm = 0.0
        for _ in range(120):
            n = int(rng.integers(1, 8))
            gates = random_circuit(rng, n, int(rng.integers(1, 51)))
            state = run_gates(new_state(n), gates)
            reference = circuit_unitary(gates, n)[:, 0]
            worst = max(worst, float(np.max(np.abs(state.amplitudes - reference))))
            worst_norm = max(worst_norm, abs(state.norm() - 1.0))
        assert worst < 1e-9
        assert worst_norm < 1e-10

    def test_oracle_checks_the_planned_kernels(self, rng, monkeypatch):
        """run_gates applies every gate through kernels.apply_planned, so
        the oracle test above checks the engine circuits use."""
        calls = []
        apply_planned = kernels.apply_planned

        def counting(op, amps):
            calls.append(op.mode)
            apply_planned(op, amps)

        monkeypatch.setattr(kernels, "apply_planned", counting)
        gates = random_circuit(rng, 4, 40)
        run_gates(new_state(4), gates)
        assert len(calls) == len(gates)

    def test_every_gate_matrix_is_unitary(self, rng):
        for _ in range(150):
            gate = random_gate(rng, 5)
            u = gate_unitary(gate, 5)
            assert np.max(np.abs(u.conj().T @ u - np.eye(32))) < 1e-12

    def test_x_conjugation_negates_expectation(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 6))
            gates = random_circuit(rng, n, 20)
            q = int(rng.integers(n))
            state = run_gates(new_state(n), gates)
            flipped = apply_gate(state, GateOp(GateKind.X, (q,)))
            assert abs(expectation_z(flipped, q) + expectation_z(state, q)) < 1e-12


def test_rot_is_rz_ry_rz_product(rng):
    """rot_matrix against the oracle's textbook Rz(omega) Ry(theta) Rz(phi)."""
    def textbook(kind, angle):
        return gate_unitary(GateOp(kind, (0,), params=(angle,)), 1)

    for _ in range(20):
        phi, theta, omega = rng.uniform(-2 * np.pi, 2 * np.pi, 3)
        product = textbook(GateKind.RZ, omega) @ textbook(GateKind.RY, theta) @ textbook(GateKind.RZ, phi)
        np.testing.assert_allclose(qsim.rot_matrix(phi, theta, omega), product, atol=1e-14)


@pytest.mark.parametrize("kind", [GateKind.RX, GateKind.RY, GateKind.RZ], ids=lambda k: k.value)
def test_rotation_matrix_is_the_trainable_blocks_rot(kind, rng):
    """A data or fixed rotation's matrix equals, bit for bit, the one a
    trainable block builds for that rotation: the first factor of the
    block's kron(U, I), which the ROT builder makes at the kind's Rot
    angles."""
    angles = rng.uniform(-2 * np.pi, 2 * np.pi, 7)
    fused = circuits._fuse((SlotOp(kind, (0,), angles=(ParamRef(0),)),), 2)
    krons = fused.krons(fused.angles(np.zeros((1, 2)), len(angles)), angles[:, None])
    np.testing.assert_array_equal(qsim.matrix_builder(kind)([angles]), krons[0::2, 0::2, 0, :, 0])


@pytest.mark.parametrize("shape", [(), (5,), (3, 1), (3, 4)], ids=str)
@pytest.mark.parametrize("kind", [k for k, n in qsim.ANGLE_COUNTS.items() if n], ids=lambda k: k.value)
def test_builders_return_matrices_batch_minor(kind, shape, rng):
    """Angles of shape ``batch`` give a (2, 2) + batch array, the layout
    the kernels apply as is, and every batch entry is bit for bit the
    matrix built from that entry's scalar angles."""
    angles = [rng.uniform(-2 * np.pi, 2 * np.pi, shape) for _ in range(qsim.ANGLE_COUNTS[kind])]
    mats = qsim.matrix_builder(kind)(angles)
    assert mats.shape == (2, 2) + shape
    for idx in np.ndindex(shape):
        scalar = qsim.matrix_builder(kind)([float(a[idx]) for a in angles])
        assert scalar.shape == (2, 2)
        np.testing.assert_array_equal(mats[(slice(None), slice(None)) + idx], scalar)
