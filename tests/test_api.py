"""The package's public names."""

import qteach

PUBLIC_NAMES = [
    "ArchitectureId", "CircuitSpec", "ConfigParseError", "ConfigurationError", "Encoding",
    "Family", "GateKind", "GateOp", "LabeledGrid", "Optimizer", "PredictionMap", "QTeachError",
    "QuantumState", "StructuralError", "TrainConfig", "TrainRun", "TrainingDivergedError",
    "UnsupportedArchitectureError", "accuracy", "apply_gate", "binarize", "bind", "build",
    "dissipative_qp", "expectation_z", "forward", "forward_batch", "generate_dataset",
    "gradient", "loss", "make_grid", "new_state", "parse_architecture", "prediction_map",
    "probability_vector", "relative_entropy", "reuploading", "run_experiment", "train",
]


def test_public_names_stay():
    """Removing a public name is a deliberate change, made here too."""
    assert sorted(qteach.__all__) == PUBLIC_NAMES
    assert all(hasattr(qteach, name) for name in PUBLIC_NAMES)
