"""qteach: statevector simulation and teacher-student comparison of
dissipative quantum perceptrons and data re-uploading models.

qteach runs on one thread, and of its experiments only ``encoding_pca``
calls BLAS (small products and one eigendecomposition).  So ``import
qteach`` loads numpy with a one-thread OpenBLAS: unless
``OPENBLAS_NUM_THREADS`` is set, it is set to 1 while the package's modules
import numpy and removed again, so ``os.environ`` and subprocesses see the
environment the caller had.  Otherwise OpenBLAS starts a worker thread at
load that spins for about 0.1 s of CPU and does no work.  OpenBLAS reads
the variable once, when numpy loads it: a caller that needs threaded BLAS
sets ``OPENBLAS_NUM_THREADS`` before importing qteach, and a process that
imported numpy before qteach keeps the BLAS threads it has.
"""

import os

# The first of these imports loads numpy.  Importing numpy ahead of them
# instead reorders the imports, which raised the RSS after import by about
# 0.7 MB and a run's peak RSS by up to 0.5 MB.
_default_blas = "OPENBLAS_NUM_THREADS" not in os.environ
if _default_blas:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    from .circuits import (
        ArchitectureId,
        CircuitSpec,
        Encoding,
        Family,
        bind,
        build,
        dissipative_qp,
        forward,
        forward_batch,
        parse_architecture,
        reuploading,
    )
    from .errors import (
        ConfigParseError,
        ConfigurationError,
        QTeachError,
        StructuralError,
        TrainingDivergedError,
        UnsupportedArchitectureError,
    )
    from .metrics import PredictionMap, accuracy, prediction_map, relative_entropy
    from .qsim import GateKind, GateOp, QuantumState, apply_gate, expectation_z, new_state, probability_vector
    from .teacher_student import LabeledGrid, generate_dataset, make_grid, run_experiment
    from .training import Optimizer, TrainConfig, TrainRun, binarize, gradient, loss, train
finally:
    if _default_blas:
        del os.environ["OPENBLAS_NUM_THREADS"]
del os, _default_blas

__version__ = "0.1.0"

__all__ = [
    "ArchitectureId",
    "CircuitSpec",
    "ConfigParseError",
    "ConfigurationError",
    "Encoding",
    "Family",
    "GateKind",
    "GateOp",
    "LabeledGrid",
    "Optimizer",
    "PredictionMap",
    "QTeachError",
    "QuantumState",
    "StructuralError",
    "TrainConfig",
    "TrainRun",
    "TrainingDivergedError",
    "UnsupportedArchitectureError",
    "accuracy",
    "apply_gate",
    "binarize",
    "bind",
    "build",
    "dissipative_qp",
    "expectation_z",
    "forward",
    "forward_batch",
    "generate_dataset",
    "gradient",
    "loss",
    "make_grid",
    "new_state",
    "parse_architecture",
    "prediction_map",
    "probability_vector",
    "relative_entropy",
    "reuploading",
    "run_experiment",
    "train",
]
