"""The package's public names, and what ``import qteach`` does to a fresh
interpreter."""

import os
import subprocess
import sys

import pytest

import qteach
from conftest import fresh_env

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
    assert not hasattr(qteach, "os") and not hasattr(qteach, "numpy")


def fresh_import(probe: str, **env) -> str:
    """Stdout of a new interpreter that runs ``probe`` (which imports
    qteach) under ``fresh_env(**env)``; pytest's own process has imported
    numpy already, so only a new one shows what the import does."""
    done = subprocess.run([sys.executable, "-c", probe], check=True, capture_output=True, text=True,
                          env=fresh_env(**env), timeout=120)
    return done.stdout.strip()


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux /proc")
def test_import_starts_no_blas_thread():
    probe = "import os, qteach; print(len(os.listdir('/proc/self/task')))"
    assert fresh_import(probe, OPENBLAS_NUM_THREADS=None) == "1"


def test_import_leaves_the_environment_as_it_was():
    probe = ("import os; before = dict(os.environ); import qteach; "
             "print('OPENBLAS_NUM_THREADS' in os.environ, dict(os.environ) == before)")
    assert fresh_import(probe, OPENBLAS_NUM_THREADS=None) == "False True"


def test_import_keeps_a_preset_blas_thread_count():
    probe = "import os, qteach; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert fresh_import(probe, OPENBLAS_NUM_THREADS="2") == "2"
