"""Architecture builders, slot binding, and model evaluation."""

import tracemalloc

import numpy as np
import pytest

from qteach import analysis, circuits, kernels, qsim
from qteach.circuits import (
    ArchitectureId,
    CompiledCircuit,
    Const,
    DataRef,
    Encoding,
    Family,
    ParamRef,
    SlotOp,
    ancilla_probabilities,
    append_x_on_measured,
    bind,
    build,
    describe,
    dissipative_qp,
    forward,
    forward_batch,
    forward_many,
    forward_with_adjoint,
    parse_architecture,
    periodic_samples,
    reuploading,
)
from qteach.errors import ConfigurationError
from qteach.qsim import GateKind, dense_unitary_oracle

from conftest import ALL_ARCHITECTURES, all_models, mixed_spec, param_shift_reference, random_circuit

EXPECTED_SHAPES = {
    # family -> (n_qubits, n_params, encoding_count, measured_qubit)
    Family.DISSIPATIVE_QP: (3, 12, 1, 2),
    Family.REUPLOADING: (3, 24, 2, 2),
    Family.DEEP_TEACHER4: (3, 48, 4, 2),
    Family.EIGHT_GATE_QP: (3, 24, 1, 2),
    Family.DEEP_DISSIPATIVE_QP: (5, 21, 1, 4),
    Family.QNN_TWO_QP: (7, 36, 2, 6),
    Family.RANDOM_DEEP_QP: (5, 39, 1, 4),
}


class TestBuild:
    @pytest.mark.parametrize("arch", ALL_ARCHITECTURES, ids=lambda a: a.name)
    def test_shapes(self, arch):
        circuit = build(arch)
        n_qubits, n_params, encodings, measured = EXPECTED_SHAPES[arch.family]
        assert circuit.n_qubits == n_qubits
        assert circuit.n_params == n_params
        assert circuit.encoding_count == encodings
        assert circuit.measured_qubit == measured

    def test_dissipative_qp_gate_sequence(self):
        kinds = [op.kind for op in build(dissipative_qp()).ops]
        assert kinds == [
            GateKind.RX, GateKind.RX,
            GateKind.ROT, GateKind.ROT, GateKind.CZ, GateKind.ROT, GateKind.ROT,
            GateKind.MCX,
        ]

    def test_eight_gate_census(self):
        circuit = build(ArchitectureId(Family.EIGHT_GATE_QP))
        kinds = [op.kind for op in circuit.ops]
        assert kinds.count(GateKind.ROT) == 8
        assert kinds.count(GateKind.CNOT) == 4

    def test_reuploading_layer_count_scales_params(self):
        for layers in (1, 2, 3, 5):
            circuit = build(reuploading(layers))
            assert circuit.n_params == 12 * layers
            assert circuit.encoding_count == layers

    def test_reuploading_one_matches_dissipative_qp(self):
        assert build(reuploading(1)).ops == build(dissipative_qp()).ops

    @pytest.mark.parametrize("arch", ALL_ARCHITECTURES, ids=lambda a: a.name)
    def test_encoding_count_matches_data_gate_pairs(self, arch):
        for encoding in Encoding:
            circuit = build(ArchitectureId(arch.family, arch.layers, encoding))
            data_gates = sum(1 for op in circuit.ops if op.is_encoding())
            assert data_gates == 2 * circuit.encoding_count

    def test_rot_h_encoding_structure(self):
        circuit = build(dissipative_qp(encoding=Encoding.ROT_H))
        kinds = [op.kind for op in circuit.ops[:4]]
        assert kinds == [GateKind.H, GateKind.ROT, GateKind.H, GateKind.ROT]
        rot = circuit.ops[1]
        assert rot.angles[0] == DataRef(0)
        assert rot.angles[1] == DataRef(1)

    def test_layers_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            reuploading(0)

    def test_param_slots_enumerated_in_gate_order(self):
        circuit = build(reuploading(2))
        seen = []
        for op in circuit.ops:
            seen.extend(a.index for a in op.angles if isinstance(a, ParamRef))
        assert seen == list(range(circuit.n_params))


class TestParseArchitecture:
    def test_plain_name(self):
        assert parse_architecture("dissipative_qp") == dissipative_qp()

    def test_layered_name(self):
        assert parse_architecture("reuploading:2") == reuploading(2)

    def test_zero_layers_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_architecture("reuploading:0")

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            parse_architecture("percepto_tron")

    def test_encoding_suffix(self):
        arch = parse_architecture("dissipative_qp@rot_h")
        assert arch.encoding is Encoding.ROT_H

    def test_name_round_trip(self):
        for arch in ALL_ARCHITECTURES:
            assert parse_architecture(arch.name) == arch


class TestBind:
    def test_zero_parameters_give_identity_rotations(self):
        circuit = build(dissipative_qp())
        gates = bind(circuit, (0.0, 0.0), np.zeros(12))
        assert all(p == 0.0 for g in gates for p in g.params)
        assert forward(circuit, (0.0, 0.0), np.zeros(12)) == pytest.approx(1.0, abs=1e-12)

    def test_pi_inputs_flip_ancilla(self):
        circuit = build(dissipative_qp())
        assert forward(circuit, (np.pi, np.pi), np.zeros(12)) == pytest.approx(-1.0, abs=1e-12)

    def test_wrong_parameter_count(self):
        circuit = build(dissipative_qp())
        with pytest.raises(ConfigurationError):
            bind(circuit, (0.0, 0.0), np.zeros(11))

    def test_non_finite_input_rejected(self):
        circuit = build(dissipative_qp())
        with pytest.raises(ConfigurationError):
            bind(circuit, (np.nan, 0.0), np.zeros(12))


class TestForward:
    def test_half_pi_activation(self):
        """At x = (pi/2, pi/2) and zero parameters the ancilla activates
        with probability 1/4 (|11> weight after CZ), so <Z> = 0.5.  The
        dense oracle confirms the full state."""
        circuit = build(dissipative_qp())
        w = np.zeros(12)
        x = (np.pi / 2, np.pi / 2)
        unitary = dense_unitary_oracle(circuit, x, w)
        state = unitary[:, 0]
        p_ancilla_1 = float(np.sum(np.abs(state[1::2]) ** 2))
        assert p_ancilla_1 == pytest.approx(0.25, abs=1e-12)
        assert forward(circuit, x, w) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("arch", ALL_ARCHITECTURES, ids=lambda a: a.name)
    def test_engine_matches_dense_oracle(self, arch, rng):
        circuit = build(arch)
        for _ in range(3):
            x = rng.uniform(-np.pi, np.pi, 2)
            w = rng.uniform(0, 2 * np.pi, circuit.n_params)
            reference = dense_unitary_oracle(circuit, x, w)[:, 0]
            signs = 1.0 - 2.0 * (
                (np.arange(len(reference)) >> (circuit.n_qubits - 1 - circuit.measured_qubit)) & 1
            )
            expected = float(np.abs(reference) ** 2 @ signs)
            assert forward(circuit, x, w) == pytest.approx(expected, abs=1e-9)

    def test_output_range(self, rng):
        circuit = build(reuploading(2))
        xs = rng.uniform(-4 * np.pi, 4 * np.pi, (50, 2))
        w = rng.uniform(0, 2 * np.pi, circuit.n_params)
        out = forward_batch(circuit, xs, w)
        assert np.all(out >= -1.0) and np.all(out <= 1.0)

    def test_periodicity_4pi(self, rng):
        circuit = build(dissipative_qp())
        for _ in range(20):
            x = rng.uniform(-np.pi, np.pi, 2)
            w = rng.uniform(0, 2 * np.pi, circuit.n_params)
            base = forward(circuit, x, w)
            assert forward(circuit, (x[0] + 4 * np.pi, x[1]), w) == pytest.approx(base, abs=1e-9)
            assert forward(circuit, (x[0], x[1] + 4 * np.pi), w) == pytest.approx(base, abs=1e-9)

    def test_reuploading_one_equals_dissipative_qp_outputs(self, rng):
        qp = build(dissipative_qp())
        r1 = build(reuploading(1))
        xs = rng.uniform(-np.pi, np.pi, (100, 2))
        for _ in range(5):
            w = rng.uniform(0, 2 * np.pi, 12)
            np.testing.assert_allclose(
                forward_batch(qp, xs, w), forward_batch(r1, xs, w), atol=1e-14
            )

    def test_forward_many_grid_matches_scalar_forward(self, rng):
        # mixed_spec's data/parameter rotations lower to one matrix per point
        for circuit in (build(reuploading(2)), mixed_spec()):
            xs = rng.uniform(-np.pi, np.pi, (4, 2))
            for w in rng.uniform(0, 2 * np.pi, (3, circuit.n_params)):
                row = forward_many(circuit, xs, w)
                for j, x in enumerate(xs):
                    assert row[j] == forward(circuit, x, w)

    def test_batched_evaluation_bit_identical_to_single(self, rng):
        """Results must not depend on how evaluations are batched."""
        circuit = build(dissipative_qp())
        xs = rng.uniform(-np.pi, np.pi, (30, 2))
        w = rng.uniform(0, 2 * np.pi, circuit.n_params)
        batched = forward_batch(circuit, xs, w)
        singles = np.array([forward(circuit, x, w) for x in xs])
        np.testing.assert_array_equal(batched, singles)

    @pytest.mark.parametrize("block_rows", [3, 7, 49])
    def test_point_blocks_bit_identical(self, block_rows, rng, monkeypatch):
        """forward_many's point blocks, ragged last one included (one point
        for 49), must not change any output."""
        circuit = build(ArchitectureId(Family.QNN_TWO_QP))
        xs = rng.uniform(-np.pi, np.pi, (50, 2))
        assert len(xs) % block_rows != 0  # the last block is ragged
        w = rng.uniform(0, 2 * np.pi, circuit.n_params)
        whole = forward_many(circuit, xs, w)
        monkeypatch.setattr(circuits, "_BLOCK_BYTES", block_rows * 16 << circuit.n_qubits)
        sizes = []
        states = circuits._states

        def spy(ops, n_qubits, block, w):
            sizes.append(len(block))
            return states(ops, n_qubits, block, w)

        monkeypatch.setattr(circuits, "_states", spy)
        np.testing.assert_array_equal(forward_many(circuit, xs, w), whole)
        assert sizes == [block_rows] * (len(xs) // block_rows) + [len(xs) % block_rows]

    def test_working_set_bounded_by_block(self, rng):
        """A large map allocates a few blocks' worth, not its whole state."""
        circuit = build(ArchitectureId(Family.QNN_TWO_QP))
        xs = rng.uniform(-np.pi, np.pi, (8000, 2))
        w = rng.uniform(0, 2 * np.pi, circuit.n_params)
        tracemalloc.start()
        try:
            forward_batch(circuit, xs, w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        whole_state = xs.shape[0] * 16 << circuit.n_qubits  # 16 MB
        assert peak < 8 * circuits._BLOCK_BYTES < whole_state

    @pytest.mark.parametrize("path", ["ancilla_probabilities", "encoding_probability_vectors"])
    def test_probability_working_sets_bounded_by_block(self, path, rng):
        """The measured-qubit and encoding probabilities evolve their points
        in forward_many's blocks: beyond their result they allocate a few
        blocks' worth, not their whole 12.8 MB state."""
        if path == "ancilla_probabilities":
            circuit = build(dissipative_qp())
            n_qubits, xs = circuit.n_qubits, rng.uniform(-np.pi, np.pi, (100_000, 2))
            w = rng.uniform(0, 2 * np.pi, circuit.n_params)
            evaluate = lambda: ancilla_probabilities(circuit, xs, w)  # noqa: E731
        else:
            data = analysis.circular_dataset(200_000, seed=1)
            n_qubits, xs = 2, data.points
            evaluate = lambda: analysis.encoding_probability_vectors(Encoding.ROT_H, data)  # noqa: E731
        tracemalloc.start()
        try:
            result = evaluate()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        whole_state = xs.shape[0] * 16 << n_qubits
        assert peak - result.nbytes < 8 * circuits._BLOCK_BYTES < whole_state

    @pytest.mark.parametrize("block_rows", [1, 3, 49])
    def test_probability_blocks_bit_identical(self, block_rows, rng, monkeypatch):
        """Blocks of any size, one point included, leave the measured-qubit
        and encoding probabilities unchanged."""
        circuit = mixed_spec()
        data = analysis.circular_dataset(50, seed=2)
        w = rng.uniform(0, 2 * np.pi, circuit.n_params)
        whole = [ancilla_probabilities(circuit, data.points, w)] + [
            analysis.encoding_probability_vectors(encoding, data) for encoding in Encoding]
        monkeypatch.setattr(circuits, "_BLOCK_BYTES", block_rows * 16 << 2)
        blocked = [ancilla_probabilities(circuit, data.points, w)] + [
            analysis.encoding_probability_vectors(encoding, data) for encoding in Encoding]
        for got, want in zip(blocked, whole):
            np.testing.assert_array_equal(got, want)


def random_slot_ops(rng, n_qubits, n_gates, n_params):
    """Random SlotOps whose angles are constants, data or parameters."""
    def slot(value):
        pick = rng.integers(3)
        if pick == 0:
            return Const(value)
        return DataRef(int(rng.integers(2))) if pick == 1 else ParamRef(int(rng.integers(n_params)))

    return [SlotOp(gate.kind, gate.targets, gate.controls, tuple(slot(v) for v in gate.params))
            for gate in random_circuit(rng, n_qubits, n_gates)]


class TestEvolveInvariants:
    """Oracle-free checks of the planned kernels on B > 1 points under one
    parameter vector, with rotations that mix data and parameters, so
    payloads are shared by all points or indexed by point."""

    def test_norm_kept_and_inverse_returns_zero_state(self, rng):
        n_points, n_params = 4, 5
        modes, mixing = set(), 0
        for _ in range(60):
            n = int(rng.integers(1, 6))
            ops = random_slot_ops(rng, n, int(rng.integers(1, 40)), n_params)
            xs = rng.uniform(-np.pi, np.pi, (n_points, 2))
            w = rng.uniform(0, 2 * np.pi, n_params)
            plans, amps = circuits._states(ops, n, xs, w)
            modes.update(p.mode for p in plans)
            mixing += sum({DataRef, ParamRef} <= {type(a) for a in op.angles} for op in ops)
            np.testing.assert_allclose(np.linalg.norm(amps, axis=1), 1.0, rtol=0, atol=1e-12)
            for planned in reversed(plans):
                kernels.apply_planned(circuits._inverse(planned), amps)
            zero = np.zeros_like(amps)
            zero[:, 0] = 1.0
            np.testing.assert_allclose(amps, zero, rtol=0, atol=1e-12)
        assert modes == {kernels.MODE_CONST, kernels.MODE_PER_B, kernels.MODE_FLIP,
                         kernels.MODE_PHASE}
        assert mixing > 0


class TestAdjoint:
    """The adjoint gradients against the parameter-shift reference."""

    def _check(self, circuit, rng):
        xs = rng.uniform(-np.pi, np.pi, (25, 2))
        for _ in range(2):
            w = rng.uniform(0, 2 * np.pi, circuit.n_params)
            preds, dpreds = forward_with_adjoint(circuit, xs, w)
            ref_preds, ref_dpreds = param_shift_reference(circuit, xs, w)
            assert dpreds.shape == (circuit.n_params, len(xs))
            np.testing.assert_array_equal(preds, forward_many(circuit, xs, w))
            np.testing.assert_array_equal(preds, ref_preds)
            np.testing.assert_allclose(dpreds, ref_dpreds, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("encoding", list(Encoding), ids=lambda e: e.value)
    @pytest.mark.parametrize("arch", ALL_ARCHITECTURES, ids=lambda a: a.name)
    def test_matches_param_shift(self, arch, encoding, rng):
        self._check(build(ArchitectureId(arch.family, arch.layers, encoding)), rng)

    def test_every_trainable_kind_and_mixed_rotation(self, rng):
        circuit = mixed_spec()
        trainable = {op.kind for op in circuit.ops if any(isinstance(a, ParamRef) for a in op.angles)}
        assert trainable == {k for k, n in qsim.ANGLE_COUNTS.items() if n}
        self._check(circuit, rng)


COMPILED_MODELS = {
    "dissipative_qp": build(dissipative_qp()),
    "reuploading:2@rot_h": build(reuploading(2, Encoding.ROT_H)),  # data gates after trainable ones
    "qnn_two_qp": build(ArchitectureId(Family.QNN_TWO_QP)),
    "mixed_spec": mixed_spec(),  # trainable RX/RY/RZ and per-point trainable ROTs
}


class TestCompiledCircuit:
    """One compilation evaluated at many parameter vectors, as training
    does, against fresh ``forward_with_adjoint`` calls."""

    @pytest.mark.parametrize("name", list(COMPILED_MODELS))
    def test_repeated_evaluations_equal_fresh_calls(self, name, rng):
        circuit = COMPILED_MODELS[name]
        xs = rng.uniform(-np.pi, np.pi, (13, 2))
        compiled = CompiledCircuit(circuit, xs)
        w1, w2 = rng.uniform(0, 2 * np.pi, (2, circuit.n_params))
        results = [(w, compiled.forward_with_adjoint(w[None])) for w in (w1, w2, w1)]
        for w, (preds, dpreds) in results:
            ref_preds, ref_dpreds = forward_with_adjoint(circuit, xs, w)
            np.testing.assert_array_equal(preds[0], ref_preds)
            np.testing.assert_array_equal(dpreds[0], ref_dpreds)

    @pytest.mark.parametrize("model", all_models() + [pytest.param(None, id="mixed_spec")])
    def test_stacked_runs_equal_single_runs(self, model, rng):
        """Compiled for R runs, an (R, P) evaluation gives in row r what one
        run at w[r] gives, bit for bit, at random points and at the
        periodic samples."""
        circuit = mixed_spec() if model is None else build(model)
        for xs in (rng.uniform(-np.pi, np.pi, (11, 2)), periodic_samples(circuit)[1]):
            single = CompiledCircuit(circuit, xs)
            for runs in (1, 2, 3, 5):
                w = rng.uniform(0, 2 * np.pi, (runs, circuit.n_params))
                preds, dpreds = CompiledCircuit(circuit, xs, runs).forward_with_adjoint(w)
                assert preds.shape == (runs, len(xs))
                assert dpreds.shape == (runs, circuit.n_params, len(xs))
                for r in range(runs):
                    ref_preds, ref_dpreds = single.forward_with_adjoint(w[r:r + 1])
                    np.testing.assert_array_equal(preds[r], ref_preds[0])
                    np.testing.assert_array_equal(dpreds[r], ref_dpreds[0])

    @pytest.mark.parametrize("model", all_models())
    def test_stacked_runs_match_dense_oracle(self, model, rng):
        """The hot path on R = 3 stacked runs of many points, and
        ``forward_many`` at those points, against the Kronecker-product
        oracle for every point and run; gradients against parameter
        shift."""
        circuit = build(model)
        xs = rng.uniform(-np.pi, np.pi, (10, 2))
        w = rng.uniform(0, 2 * np.pi, (3, circuit.n_params))
        preds, dpreds = CompiledCircuit(circuit, xs, runs=3).forward_with_adjoint(w)
        signs = kernels.z_signs(circuit.n_qubits, circuit.measured_qubit)
        for r in range(3):
            oracle = [np.abs(dense_unitary_oracle(circuit, x, w[r])[:, 0]) ** 2 @ signs for x in xs]
            np.testing.assert_allclose(preds[r], oracle, rtol=0, atol=1e-12)
            np.testing.assert_allclose(forward_many(circuit, xs, w[r]), oracle, rtol=0, atol=1e-12)
            np.testing.assert_allclose(dpreds[r], param_shift_reference(circuit, xs, w[r])[1], rtol=0, atol=1e-12)

    def test_kernels_receive_rows_by_amplitudes(self, rng, monkeypatch):
        """Every gate that ``CompiledCircuit`` and ``forward_many`` apply
        gets a (rows, 2^n) view of a batch-minor (2^n, rows) array: the
        shape the benchmark tracer reads rows and amplitudes from."""
        circuit = COMPILED_MODELS["reuploading:2@rot_h"]
        dim, runs, xs = 1 << circuit.n_qubits, 3, rng.uniform(-np.pi, np.pi, (9, 2))
        shapes = []
        apply_planned = kernels.apply_planned

        def recording(planned, amps):
            assert amps.T.flags.c_contiguous
            shapes.append(amps.shape)
            apply_planned(planned, amps)

        monkeypatch.setattr(kernels, "apply_planned", recording)
        compiled = CompiledCircuit(circuit, xs, runs)
        prefix = len(shapes)
        compiled.forward_with_adjoint(rng.uniform(0, 2 * np.pi, (runs, circuit.n_params)))
        assert set(shapes[:prefix]) == {(len(xs), dim)}
        assert set(shapes[prefix:]) == {(runs * len(xs), dim)}
        shapes.clear()
        forward_many(circuit, xs, rng.uniform(0, 2 * np.pi, circuit.n_params))
        assert set(shapes) == {(len(xs), dim)} and len(shapes) == len(circuit.ops)

    def test_returned_arrays_survive_the_next_call(self, rng):
        circuit = COMPILED_MODELS["reuploading:2@rot_h"]
        compiled = CompiledCircuit(circuit, rng.uniform(-np.pi, np.pi, (9, 2)))
        preds, dpreds = compiled.forward_with_adjoint(rng.uniform(0, 2 * np.pi, (1, circuit.n_params)))
        kept = preds.copy(), dpreds.copy()
        compiled.forward_with_adjoint(rng.uniform(0, 2 * np.pi, (1, circuit.n_params)))
        np.testing.assert_array_equal(preds, kept[0])
        np.testing.assert_array_equal(dpreds, kept[1])

    def test_evaluation_skips_the_data_only_prefix(self, rng, monkeypatch):
        """dissipative_qp opens with two data-only RX gates.  An evaluation
        applies the F later ops forward and backward to psi, and all but the
        first trainable one backward to lam: 3 F - 1 gates, none of the
        prefix."""
        circuit = COMPILED_MODELS["dissipative_qp"]
        first = next(i for i, op in enumerate(circuit.ops)
                     if any(isinstance(a, ParamRef) for a in op.angles))
        assert first == 2
        compiled = CompiledCircuit(circuit, rng.uniform(-np.pi, np.pi, (9, 2)))
        applied = []
        apply_planned = kernels.apply_planned

        def counting(planned, amps):
            applied.append(planned)
            apply_planned(planned, amps)

        monkeypatch.setattr(kernels, "apply_planned", counting)
        compiled.forward_with_adjoint(rng.uniform(0, 2 * np.pi, (1, circuit.n_params)))
        assert len(applied) == 3 * (len(circuit.ops) - first) - 1
        assert all(planned.mode != kernels.MODE_PER_B for planned in applied)  # no data gate

    @pytest.mark.parametrize("w", [np.zeros((1, 13)), np.zeros((1, 11)), np.zeros((2, 12)), np.zeros(()),
                                   np.zeros(12)],
                             ids=["too_long", "too_short", "parameter_batch", "scalar", "one_unstacked_vector"])
    def test_bad_parameter_vector_rejected(self, w):
        """Compiled for one run, an evaluation takes a (1, 12) array."""
        compiled = CompiledCircuit(COMPILED_MODELS["dissipative_qp"], np.zeros((3, 2)))  # 12 parameters
        with pytest.raises(ConfigurationError):
            compiled.forward_with_adjoint(w)


QP = build(dissipative_qp())
BAD_BATCH_ARGS = {
    "single_point": (np.zeros(2), np.zeros(QP.n_params)),
    "three_columns": (np.zeros((3, 3)), np.zeros(QP.n_params)),
    "non_finite_point": (np.array([[0.0, 1.0], [np.inf, 0.0]]), np.zeros(QP.n_params)),
    "parameter_batch": (np.zeros((3, 2)), np.zeros((2, QP.n_params))),
    "wrong_length": (np.zeros((3, 2)), np.zeros(QP.n_params + 1)),
    "non_finite_parameter": (np.zeros((3, 2)), np.where(np.arange(QP.n_params) == 4, np.nan, 0.0)),
}


class TestArguments:
    """Every evaluation takes (B, 2) finite points and one (P,) finite
    parameter vector; anything else is a ConfigurationError, never a wrong
    result."""

    @pytest.mark.parametrize("case", list(BAD_BATCH_ARGS))
    @pytest.mark.parametrize("evaluate", [forward_batch, forward_with_adjoint, ancilla_probabilities],
                             ids=lambda f: f.__name__)
    def test_batch_evaluators_reject(self, evaluate, case):
        xs, w = BAD_BATCH_ARGS[case]
        with pytest.raises(ConfigurationError):
            evaluate(QP, xs, w)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("evaluate", [forward, bind], ids=lambda f: f.__name__)
    def test_single_point_evaluators_reject_non_finite_parameters(self, evaluate, value):
        w = np.zeros(QP.n_params)
        w[-1] = value
        with pytest.raises(ConfigurationError):
            evaluate(QP, np.zeros(2), w)

    @pytest.mark.parametrize("evaluate", [forward, bind], ids=lambda f: f.__name__)
    def test_single_point_evaluators_reject_batch(self, evaluate):
        with pytest.raises(ConfigurationError):
            evaluate(QP, np.zeros((3, 2)), np.zeros(QP.n_params))


class TestAppendX:
    def test_negates_every_output(self, rng):
        circuit = build(dissipative_qp())
        flipped = append_x_on_measured(circuit)
        xs = rng.uniform(-np.pi, np.pi, (40, 2))
        w = rng.uniform(0, 2 * np.pi, circuit.n_params)
        np.testing.assert_allclose(
            forward_batch(flipped, xs, w), -forward_batch(circuit, xs, w), atol=1e-12
        )


class TestDescribe:
    def test_dissipative_qp_listing(self):
        expected = "\n".join([
            "qubits: 3  measured: 2  params: 12  encodings: 1",
            "RX(x[0]) q0",
            "RX(x[1]) q1",
            "ROT(w[0], w[1], w[2]) q0",
            "ROT(w[3], w[4], w[5]) q1",
            "CZ q0 -> q1",
            "ROT(w[6], w[7], w[8]) q0",
            "ROT(w[9], w[10], w[11]) q1",
            "MCX q0, q1 -> q2",
        ])
        assert describe(build(dissipative_qp())) == expected

    @pytest.mark.parametrize("arch", ALL_ARCHITECTURES, ids=lambda a: a.name)
    def test_one_line_per_gate(self, arch):
        circuit = build(arch)
        lines = describe(circuit).splitlines()
        assert len(lines) == len(circuit.ops) + 1
