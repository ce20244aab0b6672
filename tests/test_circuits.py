"""Architecture builders, slot binding, and model evaluation."""

import itertools
import pickle
import re
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from qteach import analysis, circuits, cli, kernels, qsim
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
from qteach.qsim import GateKind

from conftest import (ALL_ARCHITECTURES, all_models, circuit_unitary, dense_unitary_oracle, mixed_spec,
                      param_shift_reference, random_circuit)

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


class TestCompile:
    """``_compile`` is the one cache of compiled circuits, keyed on the
    ``CircuitSpec``, whose hash and equality are the frozen dataclass's
    own, computed from the fields."""

    @pytest.mark.parametrize("arch", ALL_ARCHITECTURES, ids=lambda a: a.name)
    def test_equal_circuits_share_one_compile(self, arch):
        circuit, again = build(arch), build(arch)
        assert circuit is not again and circuits._compile(circuit) is circuits._compile(again)
        flipped = circuits._compile(append_x_on_measured(circuit))
        assert flipped is not circuits._compile(circuit)
        np.testing.assert_array_equal(flipped.signs, -circuits._compile(circuit).signs)
        assert not flipped.signs.flags.writeable

    @pytest.mark.parametrize("arch", ALL_ARCHITECTURES, ids=lambda a: a.name)
    def test_hash_and_equality_are_the_fields(self, arch):
        circuit, again = build(arch), build(arch)
        assert circuit == again and hash(circuit) == hash(again)
        assert hash(circuit) == hash(tuple(getattr(circuit, f.name) for f in fields(circuit)))
        for op in circuit.ops:
            assert hash(op) == hash((op.kind, op.targets, op.controls, op.angles))
        flipped = append_x_on_measured(circuit)
        assert flipped != circuit and hash(flipped) == hash(tuple(getattr(flipped, f.name) for f in fields(flipped)))
        op = circuit.ops[0]
        assert replace(op, targets=(1,)) != op and replace(op, targets=op.targets) == op

    def test_pickle_round_trip(self, rng):
        """A pickled circuit loads equal, with an equal hash, and evaluates
        bit for bit as the original."""
        circuit = build(parse_architecture("qnn_two_qp@rot_h"))
        again = pickle.loads(pickle.dumps(circuit))
        assert again is not circuit and again == circuit and hash(again) == hash(circuit)
        xs, w = rng.uniform(-np.pi, np.pi, (7, 2)), rng.uniform(0, 2 * np.pi, circuit.n_params)
        np.testing.assert_array_equal(forward_batch(again, xs, w), forward_batch(circuit, xs, w))

    def test_readme_run_compiles_each_circuit_once(self, tmp_path, monkeypatch):
        """The README config at 2 seeds fuses one program per distinct
        circuit: 2, since its teacher reuploading:2 is also a student."""
        text = (Path(__file__).parents[1] / "README.md").read_text()
        config = cli.parse_config(re.search(r"```ini\n(.*?)```", text, re.S).group(1))
        config.out, config.n_seeds = str(tmp_path), 2
        built = []
        fused = circuits._Fused

        def spy(ops, n_qubits):
            built.append(ops)
            return fused(ops, n_qubits)

        monkeypatch.setattr(circuits, "_Fused", spy)
        circuits._compile.cache_clear()
        try:
            assert cli.run(config) == 0
        finally:
            circuits._compile.cache_clear()
        assert len(built) == 2 and built[0] != built[1]


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
        monkeypatch.setattr(circuits, "_BLOCK_BYTES", block_rows * 16 << circuits._compile(circuit).n_qubits)
        sizes = []
        compiled = circuits.CompiledCircuit

        def spy(circuit, block, runs=1):
            sizes.append(len(block))
            return compiled(circuit, block, runs)

        monkeypatch.setattr(circuits, "CompiledCircuit", spy)
        np.testing.assert_array_equal(forward_many(circuit, xs, w), whole)
        assert sizes == [block_rows] * (len(xs) // block_rows) + [len(xs) % block_rows]

    @pytest.mark.parametrize("block_rows", [3, 49])
    def test_probabilities_compile_once_per_block(self, block_rows, rng, monkeypatch):
        """``ancilla_probabilities`` compiles once per block of points, and
        its (B, 2) rows do not change with the blocks."""
        circuit = build(ArchitectureId(Family.QNN_TWO_QP))
        xs = rng.uniform(-np.pi, np.pi, (50, 2))
        w = rng.uniform(0, 2 * np.pi, circuit.n_params)
        whole = ancilla_probabilities(circuit, xs, w)
        monkeypatch.setattr(circuits, "_BLOCK_BYTES", block_rows * (16 << max(circuits._compile(circuit).n_qubits, 4)))
        sizes = []
        compiled = circuits.CompiledCircuit

        def spy(circuit, block, runs=1):
            sizes.append(len(block))
            return compiled(circuit, block, runs)

        monkeypatch.setattr(circuits, "CompiledCircuit", spy)
        np.testing.assert_array_equal(ancilla_probabilities(circuit, xs, w), whole)
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
    """Oracle-free checks of the fused programs on B > 1 points under one
    parameter vector, with rotations that mix data and parameters, so
    payloads are shared by all points or indexed by point."""

    @staticmethod
    def _spec(ops, n_qubits):
        """``ops`` after a trainable Rot on every qubit, so that no step is
        in the data-only prefix and ``evolve`` returns every step, as a
        circuit measuring an idle extra qubit (``_program`` drops it), each
        parameter slot its own index in order."""
        index = itertools.count()
        ops = [SlotOp(GateKind.ROT, (q,), angles=(ParamRef(0),) * 3) for q in range(n_qubits)] + list(ops)
        ops = [replace(op, angles=tuple(ParamRef(next(index)) if isinstance(a, ParamRef) else a for a in op.angles))
               for op in ops]
        n_params = sum(isinstance(a, ParamRef) for op in ops for a in op.angles)
        return circuits.CircuitSpec(n_qubits + 1, ops, n_qubits, n_params, 0)

    def test_norm_kept_and_inverse_returns_zero_state(self, rng):
        """Each step of a fused program keeps the norm, and the steps'
        inverses (``circuits._inverse``) in reverse order take the state
        back to |0...0>.  The random programs reach every kernel mode: a
        block shared by all points, one matrix per point (data), per run
        (parameters) and per run and point (a rotation that takes both),
        FLIP and PHASE."""
        n_points = 4
        modes, mixing = set(), 0
        for _ in range(60):
            n = int(rng.integers(1, 6))
            ops = random_slot_ops(rng, n, int(rng.integers(1, 40)), 5)
            circuit = self._spec(ops, n)
            xs = rng.uniform(-np.pi, np.pi, (n_points, 2))
            w = rng.uniform(0, 2 * np.pi, circuit.n_params)
            compiled = CompiledCircuit(circuit, xs)
            amps, plans, _ = compiled.evolve(w[None])
            assert len(plans) == len(compiled._fused.steps)
            modes.update(p.mode for p in plans)
            mixing += sum({DataRef, ParamRef} <= {type(a) for a in op.angles} for op in ops)
            np.testing.assert_allclose(np.linalg.norm(amps, axis=1), 1.0, rtol=0, atol=1e-12)
            for planned in reversed(plans):
                kernels.apply_planned(circuits._inverse(planned), amps)
            zero = np.zeros_like(amps)
            zero[:, 0] = 1.0
            np.testing.assert_allclose(amps, zero, rtol=0, atol=1e-12)
        assert modes == {kernels.MODE_CONST, kernels.MODE_PER_B, kernels.MODE_PER_S, kernels.MODE_PER_ROW,
                         kernels.MODE_FLIP, kernels.MODE_PHASE}
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

    @pytest.mark.parametrize("encoding", list(Encoding), ids=lambda e: e.value)
    @pytest.mark.parametrize("arch", [dissipative_qp(), reuploading(2), ArchitectureId(Family.DEEP_TEACHER4)],
                             ids=lambda a: a.name)
    def test_omega_of_the_last_two_rots_is_dead(self, arch, encoding, rng):
        """The last two ROTs end in Rz(omega) on the MCX's controls, which
        commutes with the MCX and the readout, so the output does not
        depend on those two angles, entries P - 4 and P - 1: their
        gradients are rounding noise and moving them moves no prediction."""
        circuit = build(ArchitectureId(arch.family, arch.layers, encoding))
        dead = [circuit.n_params - 4, circuit.n_params - 1]
        last_rots = [op for op in circuit.ops if op.kind is GateKind.ROT][-2:]
        assert [op.angles[2] for op in last_rots] == [ParamRef(j) for j in dead]
        assert circuit.ops[-3:] == (*last_rots, circuit.ops[-1]) and circuit.ops[-1].kind is GateKind.MCX
        assert [op.targets[0] for op in last_rots] == list(circuit.ops[-1].controls)
        xs = rng.uniform(-np.pi, np.pi, (25, 2))
        for _ in range(3):
            w = rng.uniform(0, 2 * np.pi, circuit.n_params)
            preds, dpreds = forward_with_adjoint(circuit, xs, w)
            assert np.abs(dpreds[dead]).max() <= 1e-14
            moved = w.copy()
            moved[dead] = rng.uniform(0, 2 * np.pi, 2)
            np.testing.assert_allclose(forward_many(circuit, xs, moved), preds, rtol=0, atol=1e-14)


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

    @pytest.mark.parametrize("model", all_models() + [pytest.param(None, id="mixed_spec")])
    def test_forward_only_evolve_equals_the_evolve_a_backward_sweep_needs(self, model, rng):
        """Without derivatives, ``evolve`` builds each trainable block's
        matrix alone, and the states and plans are bit for bit the ones
        ``forward`` keeps for ``backward``."""
        circuit = mixed_spec() if model is None else build(model)
        xs = rng.uniform(-np.pi, np.pi, (7, 2))
        for runs in (1, 3):
            compiled = CompiledCircuit(circuit, xs, runs)
            w = rng.uniform(0, 2 * np.pi, (runs, circuit.n_params))
            psi, plans, blocks = compiled.evolve(w)
            alone, alone_plans, matrices = compiled.evolve(w, derivatives=False)
            np.testing.assert_array_equal(alone, psi)
            assert matrices.keys() == blocks.keys()
            for k, matrix in matrices.items():
                assert matrix.shape[2] == 1
                np.testing.assert_array_equal(matrix, blocks[k][:, :, :1])
                np.testing.assert_array_equal(alone_plans[k].payload, plans[k].payload)

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
        """Every step of the fused readout program that ``CompiledCircuit``
        and ``forward_many`` apply gets a (rows, 2^n') view of a
        batch-minor (2^n', rows) array, n' the program's qubits: the shape
        the benchmark tracer reads rows and amplitudes from.  A
        ``forward_many`` makes one kernel call per block or flip."""
        circuit = COMPILED_MODELS["reuploading:2@rot_h"]
        fused = circuits._compile(circuit)  # compiled once, before the count
        dim, runs, xs = 1 << fused.n_qubits, 3, rng.uniform(-np.pi, np.pi, (9, 2))
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
        assert set(shapes) == {(len(xs), dim)} and len(shapes) == len(fused.steps)

    def test_returned_arrays_survive_the_next_call(self, rng):
        circuit = COMPILED_MODELS["reuploading:2@rot_h"]
        compiled = CompiledCircuit(circuit, rng.uniform(-np.pi, np.pi, (9, 2)))
        preds, dpreds = compiled.forward_with_adjoint(rng.uniform(0, 2 * np.pi, (1, circuit.n_params)))
        kept = preds.copy(), dpreds.copy()
        compiled.forward_with_adjoint(rng.uniform(0, 2 * np.pi, (1, circuit.n_params)))
        np.testing.assert_array_equal(preds, kept[0])
        np.testing.assert_array_equal(dpreds, kept[1])

    def test_backward_needs_its_own_forward(self, rng):
        """backward without a forward, or a second time after one, is a
        ConfigurationError, not a failed unpacking of no sweep."""
        circuit = COMPILED_MODELS["reuploading:2@rot_h"]
        compiled = CompiledCircuit(circuit, rng.uniform(-np.pi, np.pi, (9, 2)))
        with pytest.raises(ConfigurationError, match="forward first"):
            compiled.backward()
        compiled.forward(rng.uniform(0, 2 * np.pi, (1, circuit.n_params)))
        compiled.backward()
        with pytest.raises(ConfigurationError, match="forward first"):
            compiled.backward()

    @pytest.mark.parametrize("shape", [(18,), (2, 10), (9,), (1, 2, 9)], ids=str)
    def test_backward_rejects_a_misshaped_cotangent(self, shape, rng):
        """A cotangent not shaped (runs, N) is a ConfigurationError naming
        that shape, not a numpy broadcast error, and leaves the sweep for a
        well-shaped one."""
        circuit = COMPILED_MODELS["reuploading:2@rot_h"]
        compiled = CompiledCircuit(circuit, rng.uniform(-np.pi, np.pi, (9, 2)), runs=2)
        w = rng.uniform(0, 2 * np.pi, (2, circuit.n_params))
        cotangent = rng.uniform(-1, 1, (2, 9))
        compiled.forward(w)
        expected = compiled.backward(cotangent)
        compiled.forward(w)
        with pytest.raises(ConfigurationError, match=r"expected a \(2, 9\) cotangent"):
            compiled.backward(np.ones(shape))
        np.testing.assert_array_equal(compiled.backward(cotangent), expected)

    def test_non_finite_parameters_flow_through_forward(self, rng):
        """forward does not check that parameters are finite: training
        trains on, and names the diverging run from the non-finite loss."""
        circuit = COMPILED_MODELS["reuploading:2@rot_h"]
        compiled = CompiledCircuit(circuit, rng.uniform(-np.pi, np.pi, (9, 2)), runs=2)
        w = rng.uniform(0, 2 * np.pi, (2, circuit.n_params))
        w[1, 3] = np.nan
        preds = compiled.forward(w)
        assert np.all(np.isfinite(preds[0])) and np.all(np.isnan(preds[1]))

    def test_warm_evaluation_peaks_below_six_states(self, rng):
        """A warm evaluation of qnn_two_qp on R = 40 runs of its 25
        periodic samples (a 1 MiB state on the program's 6 qubits) holds
        psi, lam and the temporaries of one gate or contraction at a time:
        its traced peak stays below 6 states."""
        circuit = build(ArchitectureId(Family.QNN_TWO_QP))
        xs, runs = periodic_samples(circuit)[1], 40
        state = runs * len(xs) * 16 << circuits._compile(circuit).n_qubits
        compiled = CompiledCircuit(circuit, xs, runs)
        w = rng.uniform(0, 2 * np.pi, (runs, circuit.n_params))
        compiled.forward_with_adjoint(w)
        tracemalloc.start()
        try:
            compiled.forward_with_adjoint(w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert state == 1_024_000
        assert peak < 6 * state

    def test_evaluation_skips_the_data_only_prefix(self, rng, monkeypatch):
        """dissipative_qp's program opens with two data-only RX gates, which
        fuse into one data block, and then is one trainable block.  An
        evaluation applies that block once: its input is the evolved
        prefix, so neither psi nor lam is swept back.  reuploading:2 has
        T1, D2, T2 after its prefix, and D2 is applied with T2 as one
        matrix per point and run: 2 calls forward, then lam back through
        that one (T2's M comes from its output, T1's input is the prefix
        again): 3.  No call applies a data block alone."""
        for circuit, blocks, calls in ((COMPILED_MODELS["dissipative_qp"], 1, 1), (build(reuploading(2)), 2, 3)):
            fused = circuits._compile(circuit)
            assert fused.steps[0].data is not None
            assert [step.chain is not None for step in fused.steps[1:]] == [True] * blocks
            compiled = CompiledCircuit(circuit, rng.uniform(-np.pi, np.pi, (9, 2)))
            applied = []
            apply_planned = kernels.apply_planned

            def counting(planned, amps):
                applied.append(planned)
                apply_planned(planned, amps)

            monkeypatch.setattr(kernels, "apply_planned", counting)
            compiled.forward_with_adjoint(rng.uniform(0, 2 * np.pi, (1, circuit.n_params)))
            monkeypatch.undo()
            assert len(applied) == calls
            assert all(planned.mode != kernels.MODE_PER_B for planned in applied)

    @pytest.mark.parametrize("w", [np.zeros((1, 13)), np.zeros((1, 11)), np.zeros((2, 12)), np.zeros(()),
                                   np.zeros(12)],
                             ids=["too_long", "too_short", "parameter_batch", "scalar", "one_unstacked_vector"])
    def test_bad_parameter_vector_rejected(self, w):
        """Compiled for one run, an evaluation takes a (1, 12) array."""
        compiled = CompiledCircuit(COMPILED_MODELS["dissipative_qp"], np.zeros((3, 2)))  # 12 parameters
        with pytest.raises(ConfigurationError):
            compiled.forward_with_adjoint(w)


class TestBlockGroups:
    """``_Fused.blocks`` builds consecutive trainable blocks of one shape
    together, as one more batch axis of the kron stack."""

    @pytest.mark.parametrize("name, sizes", [("reuploading:2", [2]), ("deep_teacher4", [4]), ("qnn_two_qp", [3])])
    def test_models_group_their_trainable_blocks(self, name, sizes):
        fused = circuits._compile(build(parse_architecture(name)))
        assert [len(group) for group in fused.groups] == sizes

    def test_grouped_build_equals_each_block_alone(self, rng):
        """Every trainable step's matrix and derivative matrices, built in
        its group, equal ``block`` on that step alone, bit for bit, at
        R = 3 parameter rows, for the grouped models, ``mixed_spec`` and
        random programs."""
        programs = [circuits._program(circuit)[:2] for circuit in
                    [build(parse_architecture(name)) for name in ("reuploading:2", "deep_teacher4", "qnn_two_qp")]
                    + [mixed_spec()]]
        for _ in range(20):
            n = int(rng.integers(1, 5))
            programs.append((tuple(random_slot_ops(rng, n, int(rng.integers(1, 40)), 5)), n))
        for ops, n in programs:
            fused = circuits._Fused(tuple(ops), n)
            xs = rng.uniform(-np.pi, np.pi, (5, 2))
            krons = fused.krons(fused.angles(xs, 3), rng.uniform(0, 2 * np.pi, (3, fused.n_params)))
            built = fused.blocks(krons)
            assert len(built) == sum(step.chain is not None for step in fused.steps)
            for step, block in built.items():
                np.testing.assert_array_equal(block, fused.block(step, krons, 0))

    def test_matrix_alone_equals_the_first_entry_of_the_full_build(self, rng):
        """Without derivatives, ``blocks`` gives each trainable step's
        matrix alone, bit for bit the first entry of the full build, for
        the grouped models, ``mixed_spec`` and random programs."""
        programs = [circuits._program(circuit)[:2] for circuit in
                    [build(parse_architecture(name)) for name in ("reuploading:2", "deep_teacher4", "eight_gate_qp")]
                    + [mixed_spec()]]
        for _ in range(20):
            n = int(rng.integers(1, 5))
            programs.append((tuple(random_slot_ops(rng, n, int(rng.integers(1, 40)), 5)), n))
        for ops, n in programs:
            fused = circuits._Fused(tuple(ops), n)
            xs = rng.uniform(-np.pi, np.pi, (5, 2))
            krons = fused.krons(fused.angles(xs, 3), rng.uniform(0, 2 * np.pi, (3, fused.n_params)))
            full, alone = fused.blocks(krons), fused.blocks(krons, derivatives=False)
            assert alone.keys() == full.keys()
            for step, matrix in alone.items():
                assert matrix.shape == (4, 4, 1) + full[step].shape[3:]
                np.testing.assert_array_equal(matrix, full[step][:, :, :1])


def folded_spec():
    """Trailing CNOT, CZ, MCX, CZ and CNOT gates; the CNOTs target q1 and
    q2, not the measured q3, and the first one changes which data-qubit
    patterns the MCX reads out."""
    ops = (
        SlotOp(GateKind.RX, (0,), angles=(DataRef(0),)),
        SlotOp(GateKind.RX, (1,), angles=(DataRef(1),)),
        SlotOp(GateKind.ROT, (0,), angles=(ParamRef(0), ParamRef(1), ParamRef(2))),
        SlotOp(GateKind.ROT, (1,), angles=(ParamRef(3), ParamRef(4), ParamRef(5))),
        SlotOp(GateKind.RY, (2,), angles=(ParamRef(6),)),
        SlotOp(GateKind.CNOT, (1,), controls=(0,)),
        SlotOp(GateKind.CZ, (2,), controls=(1,)),
        SlotOp(GateKind.MCX, (3,), controls=(1, 2)),
        SlotOp(GateKind.CZ, (3,), controls=(0,)),
        SlotOp(GateKind.CNOT, (2,), controls=(3,)),
    )
    return circuits.CircuitSpec(n_qubits=4, ops=ops, measured_qubit=3, n_params=7, encoding_count=1)


FOLDING_KINDS = (GateKind.X, GateKind.CNOT, GateKind.MCX, GateKind.CZ)
SPEC_VARIANTS = ("plain", "idle_measured", "no_parameters", "all_folded")


def random_spec(rng, n_qubits, variant):
    """A valid random CircuitSpec: up to 20 ``random_slot_ops`` and then up
    to 3 parameter-free X / CNOT / MCX / CZ gates, with each ParamRef
    renumbered in order so that the parameters are 0..P-1, and a constant
    in place of data on the measured qubit.  "idle_measured" drops every
    gate that touches the measured qubit, "no_parameters" turns every
    parameter into a constant, and "all_folded" keeps only the flips and
    CZs, which the readout program folds away entirely."""
    measured = int(rng.integers(n_qubits))
    ops = random_slot_ops(rng, n_qubits, int(rng.integers(21)), 1)
    ops += [SlotOp(g.kind, g.targets, g.controls) for g in random_circuit(rng, n_qubits, 6)
            if g.kind in FOLDING_KINDS][:3]
    if variant == "idle_measured":
        ops = [op for op in ops if measured not in op.targets + op.controls]
    elif variant == "all_folded":
        ops = [op for op in ops if op.kind in FOLDING_KINDS]
    index = itertools.count()

    def slot(angle, op):
        if isinstance(angle, ParamRef):
            return Const(float(rng.uniform(-np.pi, np.pi))) if variant == "no_parameters" else ParamRef(next(index))
        if isinstance(angle, DataRef) and measured in op.targets:
            return Const(0.5)
        return angle

    ops = tuple(replace(op, angles=tuple(slot(a, op) for a in op.angles)) for op in ops)
    n_params = sum(isinstance(a, ParamRef) for op in ops for a in op.angles)
    return circuits.CircuitSpec(n_qubits, ops, measured, n_params, 0)


def readout_variants():
    """Every model, with and without a trailing X on its measured qubit."""
    return [pytest.param(arch, flip, id=f"{arch.name}{'+x' if flip else ''}")
            for arch in (p.values[0] for p in all_models()) for flip in (False, True)]


def with_x(circuit, flip):
    return append_x_on_measured(circuit) if flip else circuit


class TestReadoutProgram:
    """``circuits._program``: the qubits and gates every evaluator
    simulates, and the +-1 diagonal it reads out."""

    @staticmethod
    def _readouts(circuit, x, w):
        """(program, full circuit) readouts at one point, both from the
        Kronecker-product oracle."""
        ops, n, signs = circuits._program(circuit)
        gates = [qsim.GateOp(op.kind, op.targets, op.controls, tuple(circuits._lowered_angles(op, x, w)))
                 for op in ops]
        program = np.abs(circuit_unitary(gates, n)[:, 0]) ** 2 @ signs
        full = np.abs(dense_unitary_oracle(circuit, x, w)[:, 0]) ** 2 @ kernels.z_signs(
            circuit.n_qubits, circuit.measured_qubit)
        return program, full

    @pytest.mark.parametrize("arch, flip", readout_variants())
    def test_readout_matches_dense_oracle(self, arch, flip, rng):
        circuit = with_x(build(arch), flip)
        for _ in range(2):
            x = rng.uniform(-np.pi, np.pi, 2)
            w = rng.uniform(0, 2 * np.pi, circuit.n_params)
            program, full = self._readouts(circuit, x, w)
            assert abs(program - full) <= 1e-12
            assert abs(forward(circuit, x, w) - full) <= 1e-12

    @pytest.mark.parametrize("flip", [False, True])
    @pytest.mark.parametrize("arch", [a.values[0] for a in all_models()
                                      if a.values[0].family not in (Family.DEEP_DISSIPATIVE_QP,
                                                                    Family.RANDOM_DEEP_QP)],
                             ids=lambda a: a.name)
    def test_mcx_readout_drops_the_ancilla(self, arch, flip):
        """The trailing MCX (and eight_gate_qp's last CNOT, and the X) fold
        into the signs, so no FLIP or PHASE op ends the program and the
        ancilla is never simulated."""
        circuit = with_x(build(arch), flip)
        ops, n, signs = circuits._program(circuit)
        assert n == circuit.n_qubits - 1 and signs.shape == (1 << n,)
        assert ops[-1].kind not in (GateKind.X, GateKind.CNOT, GateKind.MCX, GateKind.CZ)
        folded = (2 if arch.family is Family.EIGHT_GATE_QP else 1) + flip
        assert len(ops) == len(circuit.ops) - folded

    def test_perceptron_reads_the_and_of_its_data_qubits(self):
        """<Z> of the ancilla after MCX is <(-1)^(q0 AND q1)>, and -1 times
        that after an appended X."""
        circuit = build(dissipative_qp())
        np.testing.assert_array_equal(circuits._program(circuit)[2], [1, 1, 1, -1])
        np.testing.assert_array_equal(circuits._program(append_x_on_measured(circuit))[2], [-1, -1, -1, 1])

    @pytest.mark.parametrize("encoding", list(Encoding), ids=lambda e: e.value)
    def test_random_deep_qp_keeps_every_qubit(self, encoding):
        """A ROT acts on its measured qubit last: nothing folds or drops."""
        circuit = build(ArchitectureId(Family.RANDOM_DEEP_QP, encoding=encoding))
        ops, n, signs = circuits._program(circuit)
        assert n == 5 == circuit.n_qubits
        assert ops == circuit.ops
        np.testing.assert_array_equal(signs, kernels.z_signs(5, circuit.measured_qubit))

    def test_second_encoding_joins_the_prefix(self):
        """qnn_two_qp's second perceptron encodes on qubits the first never
        touches, so both encodings lead its program."""
        circuit = build(ArchitectureId(Family.QNN_TWO_QP))
        ops, n, _ = circuits._program(circuit)
        assert n == 6
        assert [op.is_encoding() for op in ops[:5]] == [True] * 4 + [False]
        assert [op.targets for op in ops[:4]] == [(0,), (1,), (3,), (4,)]

    def test_trailing_cz_and_cnots_off_the_measured_qubit(self, rng):
        circuit = folded_spec()
        ops, n, _ = circuits._program(circuit)
        assert n == 3 and len(ops) == 5
        xs = rng.uniform(-np.pi, np.pi, (6, 2))
        for _ in range(3):
            w = rng.uniform(0, 2 * np.pi, circuit.n_params)
            program, full = np.array([self._readouts(circuit, x, w) for x in xs]).T
            np.testing.assert_allclose(program, full, rtol=0, atol=1e-12)
            preds, dpreds = forward_with_adjoint(circuit, xs, w)
            np.testing.assert_array_equal(preds, forward_many(circuit, xs, w))
            np.testing.assert_allclose(preds, full, rtol=0, atol=1e-12)
            np.testing.assert_allclose(dpreds, param_shift_reference(circuit, xs, w)[1], rtol=0, atol=1e-12)

    def test_a_circuit_of_trailing_gates_simulates_no_qubit(self, rng):
        circuit = circuits.CircuitSpec(n_qubits=2, ops=(SlotOp(GateKind.X, (1,)),), measured_qubit=1,
                                       n_params=0, encoding_count=0)
        assert circuits._program(circuit)[:2] == ((), 0)
        xs = rng.uniform(-np.pi, np.pi, (3, 2))
        np.testing.assert_array_equal(forward_many(circuit, xs, np.zeros(0)), [-1.0] * 3)
        np.testing.assert_array_equal(ancilla_probabilities(circuit, xs, np.zeros(0)), [[0.0, 1.0]] * 3)
        preds, dpreds = forward_with_adjoint(circuit, xs, np.zeros(0))
        np.testing.assert_array_equal(preds, [-1.0] * 3)
        assert dpreds.shape == (0, 3)

    def test_random_specs_match_the_dense_oracle(self):
        """200 random specs of 1-7 qubits (``random_spec``): ``forward_many``,
        ``CompiledCircuit`` on 2 stacked runs and ``ancilla_probabilities``
        against the Kronecker-product oracle of the whole circuit, and the
        gradients against parameter shift."""
        rng = np.random.default_rng(1607)
        xs = rng.uniform(-np.pi, np.pi, (2, 2))
        for k in range(200):
            variant = SPEC_VARIANTS[k % len(SPEC_VARIANTS)]
            circuit = random_spec(rng, 1 + k % 7, variant)
            ops, n, _ = circuits._program(circuit)
            if variant == "idle_measured":
                assert n < circuit.n_qubits
            if variant == "all_folded":
                assert ops == ()
            w = rng.uniform(0, 2 * np.pi, (2, circuit.n_params))
            signs = kernels.z_signs(circuit.n_qubits, circuit.measured_qubit)
            probs = np.array([[np.abs(dense_unitary_oracle(circuit, x, w_r)[:, 0]) ** 2 for x in xs] for w_r in w])
            oracle = probs @ signs
            preds, dpreds = CompiledCircuit(circuit, xs, runs=2).forward_with_adjoint(w)
            np.testing.assert_allclose(preds, oracle, rtol=0, atol=1e-12)
            assert dpreds.shape == (2, circuit.n_params, len(xs))
            for r in range(2):
                np.testing.assert_allclose(forward_many(circuit, xs, w[r]), oracle[r], rtol=0, atol=1e-12)
                np.testing.assert_allclose(ancilla_probabilities(circuit, xs, w[r]),
                                           probs[r] @ np.array([signs > 0, signs < 0]).T, rtol=0, atol=1e-12)
                if circuit.n_params:
                    np.testing.assert_allclose(dpreds[r], param_shift_reference(circuit, xs, w[r])[1],
                                               rtol=0, atol=1e-12)

    @pytest.mark.parametrize("arch, flip", readout_variants())
    def test_ancilla_probabilities_match_the_full_marginal(self, arch, flip, rng):
        """The program's +1 / -1 weights against the measured qubit's
        marginal of the whole circuit's state."""
        circuit = with_x(build(arch), flip)
        xs = rng.uniform(-np.pi, np.pi, (8, 2))
        w = rng.uniform(0, 2 * np.pi, circuit.n_params)
        probs = np.array([np.abs(dense_unitary_oracle(circuit, x, w)[:, 0]) ** 2 for x in xs])
        signs = kernels.z_signs(circuit.n_qubits, circuit.measured_qubit)
        full = probs @ np.array([signs > 0, signs < 0]).T
        np.testing.assert_allclose(ancilla_probabilities(circuit, xs, w), full, rtol=0, atol=1e-12)


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


def _angle_text(angle) -> str:
    if isinstance(angle, Const):
        return repr(angle.value)
    if isinstance(angle, DataRef):
        return f"x[{angle.component}]"
    return f"w[{angle.index}]"


def describe(circuit) -> str:
    """A circuit as one gate per line, under a header with its shape."""
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
