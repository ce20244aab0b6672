"""Every typed-error check of the package raises its own ``QTeachError``
subclass: one case per raise site that no behavioural test reaches."""

import numpy as np
import pytest

from qteach import cli, metrics, qsim
from qteach.analysis import PcaProjection, circular_dataset, separability_score
from qteach.circuits import (ArchitectureId, CircuitSpec, DataRef, Family, ParamRef, SlotOp, build,
                             dissipative_qp, parse_architecture)
from qteach.errors import ConfigParseError, ConfigurationError, QTeachError, StructuralError
from qteach.qsim import GateKind, GateOp, QuantumState
from qteach.teacher_student import derive_seed, generate_dataset, make_grid
from qteach.training import TrainConfig, loss

from conftest import tiny_dataset


def _circuit(n_qubits, ops, measured, n_params, encodings=0):
    return CircuitSpec(n_qubits=n_qubits, ops=ops, measured_qubit=measured, n_params=n_params,
                       encoding_count=encodings)


TYPED_ERRORS = {
    # circuits
    "layer_count_on_a_fixed_family": (ConfigurationError, lambda: ArchitectureId(Family.DISSIPATIVE_QP, layers=2)),
    "unknown_encoding_suffix": (ConfigurationError, lambda: parse_architecture("dissipative_qp@amplitude")),
    "malformed_layer_count": (ConfigurationError, lambda: parse_architecture("reuploading:two")),
    "layer_suffix_on_a_fixed_family": (ConfigurationError, lambda: parse_architecture("dissipative_qp:1")),
    "data_component_out_of_range": (StructuralError, lambda: DataRef(2)),
    "negative_parameter_index": (StructuralError, lambda: ParamRef(-1)),
    "slot_angle_count": (StructuralError, lambda: SlotOp(GateKind.RX, (0,), angles=())),
    "measured_qubit_out_of_range": (StructuralError, lambda: _circuit(2, (), 2, 0)),
    "op_qubit_out_of_range": (StructuralError, lambda: _circuit(2, (SlotOp(GateKind.H, (2,)),), 0, 0)),
    "data_gate_on_measured_qubit": (
        StructuralError, lambda: _circuit(2, (SlotOp(GateKind.RX, (1,), angles=(DataRef(0),)),), 1, 0, 1)),
    "parameter_slots_not_enumerated": (
        StructuralError, lambda: _circuit(1, (SlotOp(GateKind.RX, (0,), angles=(ParamRef(1),)),), 0, 1)),
    "unknown_family": (ConfigurationError, lambda: build(ArchitectureId("not_a_family"))),
    # qsim
    "gate_with_two_targets": (StructuralError, lambda: GateOp(GateKind.H, (0, 1))),
    "controls_on_an_uncontrolled_kind": (StructuralError, lambda: GateOp(GateKind.H, (0,), controls=(1,))),
    "cnot_with_two_controls": (StructuralError, lambda: GateOp(GateKind.CNOT, (0,), controls=(1, 2))),
    "negative_qubit_index": (StructuralError, lambda: GateOp(GateKind.X, (-1,))),
    "amplitude_vector_length": (StructuralError, lambda: QuantumState(2, np.zeros(3))),
    "matrix_builder_of_a_fixed_gate": (StructuralError, lambda: qsim.matrix_builder(GateKind.H)),
    # cli
    "config_line_without_equals": (ConfigParseError, lambda: cli.parse_config("experiment = labelling\nepochs\n")),
    "unknown_encoding": (ConfigParseError, lambda: cli.parse_config("experiment = labelling\nencoding = amplitude\n")),
    "unknown_optimizer": (ConfigParseError, lambda: cli.parse_config("experiment = labelling\noptimizer = sgd\n")),
    "resolution_below_two": (ConfigParseError, lambda: cli.parse_config("experiment = labelling\nresolution = 1\n")),
    "negative_config_seed": (ConfigParseError, lambda: cli.parse_config("experiment = encoding_pca\nseed = -1\n")),
    "non_finite_summary_metric": (QTeachError, lambda: cli._check_finite({"cases": [{"loss": float("nan")}]})),
    # metrics
    "prediction_map_values_shape": (StructuralError, lambda: metrics.PredictionMap(3, -1.0, 1.0, np.zeros((2, 2)))),
    # analysis
    "negative_dataset_seed": (ConfigurationError, lambda: circular_dataset(10, seed=-1)),
    "fractional_dataset_seed": (ConfigurationError, lambda: circular_dataset(10, seed=1.5)),
    "separability_lengths": (
        StructuralError,
        lambda: separability_score(PcaProjection(np.eye(2), np.zeros((3, 2)), np.ones(2)), np.ones(2))),
    # training
    "negative_train_seed": (ConfigurationError, lambda: TrainConfig(seed=-1)),
    "fractional_train_seed": (ConfigurationError, lambda: TrainConfig(seed=1.5)),
    "fractional_epochs": (ConfigurationError, lambda: TrainConfig(epochs=2.5)),
    "unknown_train_optimizer": (ConfigurationError, lambda: TrainConfig(optimizer="sgd")),
    # teacher_student
    "fractional_seed_part": (ConfigurationError, lambda: derive_seed(1.5, 0)),
    "fractional_teacher_seed": (ConfigurationError, lambda: generate_dataset(dissipative_qp(), make_grid(3), 1.5)),
    "unknown_label_kind": (
        ConfigurationError,
        lambda: loss(build(dissipative_qp()), np.zeros(12), tiny_dataset(np.random.default_rng(0)), "ternary")),
}


@pytest.mark.parametrize("case", list(TYPED_ERRORS))
def test_raises_its_typed_error(case):
    expected, call = TYPED_ERRORS[case]
    with pytest.raises(QTeachError) as info:
        call()
    assert info.type is expected
