"""Loss, analytic gradients, and gradient-descent training.

The loss is the mean squared error between the labels and the ancilla Z
expectations (the mean is a constant rescaling of the summed cost; the
argmin is unchanged and magnitudes stay comparable across grid sizes).

Gradients are exact and come from the adjoint method
(``circuits.forward_with_adjoint``): one forward sweep, then one backward
sweep through the gate inverses that yields d<Z>/dw_j for every
trainable angle, chained through the squared error.

A model whose input x_c fills d_c angle slots is a trigonometric
polynomial of degree at most d_c in x_c, and so is each d<Z>/dw_j
(``circuits.fourier_degrees``; Schuld, Sweke & Meyer, arXiv:2008.08605).
Its values at the N = (2 d1 + 1)(2 d2 + 1) ``circuits.periodic_samples``
therefore fix it, and its gradient, exactly at every training point,
through the (B, N) interpolation matrix K
(``circuits.interpolation_weights``).  Training compiles the circuit once
at the N samples (``circuits.CompiledCircuit``: the data-only prefix is
evolved once), and every epoch evaluates the compiled adjoint at the
current parameters; preds = K f(t) and the loss gradient is
(2 / B) df(t) (K^T r) with r = preds - y.  For any B this equals the
adjoint on the B points themselves up to rounding.

``train_lockstep`` trains R runs of one circuit that share the points,
``epochs``, ``learning_rate``, ``optimizer`` and ``init_scale`` (seeds and
labels may differ) in one epoch loop: the runs' states are stacked as
rows, so each epoch makes one forward and one backward sweep for all of
them, and the optimizer steps an (R, P) parameter array.  Every
operation acts on each run's numbers as a single run's would, so each
result equals ``train``'s bit for bit; ``train`` is the loop with R = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from . import circuits
from .circuits import (ArchitectureId, CircuitSpec, CompiledCircuit, forward_many, interpolation_weights,
                       periodic_samples)
from .errors import ConfigurationError, TrainingDivergedError

LABEL_KINDS = ("continuous", "binary")


class Optimizer(Enum):
    VANILLA_GD = "gd"
    ADAPTIVE_MOMENT = "adam"


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.05
    epochs: int = 150
    optimizer: Optimizer = Optimizer.ADAPTIVE_MOMENT
    seed: int = 0
    init_scale: float = 2.0 * np.pi  # parameters drawn uniformly from [0, init_scale)

    def __post_init__(self):
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigurationError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not (np.isfinite(self.init_scale) and self.init_scale >= 0):
            raise ConfigurationError(f"init_scale must be finite and >= 0, got {self.init_scale}")
        if self.epochs < 1:
            raise ConfigurationError(f"epochs must be >= 1, got {self.epochs}")


@dataclass
class TrainRun:
    """Result of one training: per-epoch curves plus the final parameters.

    loss_curve[t] is the loss at the parameters before update t (entry 0
    is the initialization loss); final_preds are the model outputs at
    final_params on the training points, and final_loss is their loss.
    """

    loss_curve: np.ndarray
    accuracy_curve: Optional[np.ndarray]
    final_params: np.ndarray
    final_preds: np.ndarray
    final_loss: float
    config: TrainConfig
    architecture: Optional[ArchitectureId] = None

    def metadata(self) -> dict:
        """JSON-ready summary (curves are serialized separately as CSV)."""
        return {
            "architecture": self.architecture.name if self.architecture else None,
            "epochs": int(len(self.loss_curve)),
            "final_loss": float(self.final_loss),
            "final_accuracy": float(self.accuracy_curve[-1]) if self.accuracy_curve is not None else None,
            "seed": int(self.config.seed),
            "learning_rate": float(self.config.learning_rate),
            "optimizer": self.config.optimizer.value,
            "init_scale": float(self.config.init_scale),
            "n_params": int(len(self.final_params)),
        }


def binarize(y):
    """sign(y) with the tie sign(0) -> +1, elementwise on arrays."""
    y = np.asarray(y, dtype=float)
    out = np.where(y >= 0.0, 1.0, -1.0)
    return float(out) if out.ndim == 0 else out


def _targets(data, label_kind: str) -> np.ndarray:
    if label_kind not in LABEL_KINDS:
        raise ConfigurationError(f"label_kind must be one of {LABEL_KINDS}, got {label_kind!r}")
    if len(data.points) == 0:
        raise ConfigurationError("dataset is empty")
    return data.y_continuous if label_kind == "continuous" else data.y_binary


def loss(circuit: CircuitSpec, w: np.ndarray, data, label_kind: str = "continuous") -> float:
    """Mean squared error of the predictions against the chosen labels."""
    y = _targets(data, label_kind)
    preds = forward_many(circuit, data.points, w)
    return float(np.mean((y - preds) ** 2))


def _sampling(circuit: CircuitSpec, points: np.ndarray, runs: int = 1) -> tuple[CompiledCircuit, np.ndarray]:
    """``(compiled, weights)``: the circuit compiled for ``runs`` parameter
    vectors at the N periodic samples each epoch runs it on, and the (B, N)
    interpolation matrix from them to ``points``."""
    weights = interpolation_weights(circuit, points)
    return CompiledCircuit(circuit, periodic_samples(circuit)[1], runs), weights


def _loss_grad_preds(w, sampling, y):
    """Losses (R,), gradients (R, P) and predictions at the training points
    (R, B) of R runs, run r at the parameters ``w[r]`` against the labels
    ``y[r]``, from one adjoint evaluation of all of them on the
    ``_sampling`` samples."""
    compiled, weights = sampling
    values, dvalues = compiled.forward_with_adjoint(w)
    # einsum keeps the sums in numpy's own loops (no threaded BLAS); each
    # run's sums are the ones a single run makes, bit for bit
    preds = np.einsum("bn,rn->rb", weights, values)
    residual = preds - y
    grad = (2.0 / y.shape[1]) * np.einsum("rpn,rn->rp", dvalues, np.einsum("bn,rb->rn", weights, residual))
    return np.mean(residual**2, axis=1), grad, preds


def gradient(circuit: CircuitSpec, w: np.ndarray, data, label_kind: str = "continuous") -> np.ndarray:
    """Exact gradient of ``loss`` via the adjoint method on the model's
    periodic samples (see the module docstring); equal to what ``train``
    steps with at ``w``."""
    y = _targets(data, label_kind)
    points = np.asarray(data.points, dtype=float)
    w = circuits._params(circuit, w)
    _, grad, _ = _loss_grad_preds(w[None], _sampling(circuit, points), y[None])
    return grad[0]


def train(circuit: CircuitSpec, data, cfg: TrainConfig, label_kind: str = "continuous",
          architecture: Optional[ArchitectureId] = None) -> TrainRun:
    """Full-batch gradient descent from a seeded uniform initialization:
    ``train_lockstep`` with one run."""
    return train_lockstep(circuit, [(data, cfg, label_kind)], architecture)[0]


def train_lockstep(circuit: CircuitSpec, runs: Sequence[tuple], architecture: Optional[ArchitectureId] = None
                   ) -> list[TrainRun]:
    """Train one circuit in several runs at once; one ``TrainRun`` per run.

    Each run is a ``(data, cfg, label_kind)`` triple, trained as ``train``
    trains it and with the same result bit for bit.  The runs must share
    the training points and every ``TrainConfig`` field but ``seed``, so
    that one epoch loop serves them all: each epoch evaluates the compiled
    adjoint for every run of a block in one sweep (module docstring).
    Blocks hold as many runs as fit ``circuits._BLOCK_BYTES`` of
    amplitudes, and at least one.  A ``TrainingDivergedError`` names in
    ``run`` the index of the run it stopped; within a block that is the
    first run to diverge, at the earliest epoch.
    """
    runs = list(runs)
    if not runs:
        raise ConfigurationError("no runs to train")
    targets = [_targets(data, label_kind) for data, _, label_kind in runs]
    points = np.asarray(runs[0][0].points, dtype=float)
    shared = ("epochs", "learning_rate", "optimizer", "init_scale")
    first = runs[0][1]
    for data, cfg, _ in runs[1:]:
        if any(getattr(cfg, name) != getattr(first, name) for name in shared):
            raise ConfigurationError(f"runs trained in lockstep must share {', '.join(shared)}")
        if not np.array_equal(np.asarray(data.points, dtype=float), points):
            raise ConfigurationError("runs trained in lockstep must share their training points")
    n_samples = len(periodic_samples(circuit)[1])
    per_block = max(1, circuits._BLOCK_BYTES // (n_samples * 16 << circuit.n_qubits))
    trained: list[TrainRun] = []
    for start in range(0, len(runs), per_block):
        block = slice(start, start + per_block)
        trained += _train_block(circuit, points, runs[block], targets[block], start, architecture)
    return trained


def _train_block(circuit, points, runs, targets, start, architecture) -> list[TrainRun]:
    """The runs of one lockstep block, the first of them run ``start``."""
    cfg = runs[0][1]
    sampling = _sampling(circuit, points, len(runs))
    y = np.array(targets)
    y_binary = np.array([np.asarray(data.y_binary, dtype=float) for data, _, _ in runs])
    w = np.array([np.random.default_rng(run_cfg.seed).uniform(0.0, cfg.init_scale, circuit.n_params)
                  for _, run_cfg, _ in runs])

    loss_curves = np.empty((len(runs), cfg.epochs))
    acc_curves = np.empty((len(runs), cfg.epochs))
    m = np.zeros_like(w)
    v = np.zeros_like(w)
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    for t in range(cfg.epochs):
        values, grad, preds = _loss_grad_preds(w, sampling, y)
        diverged = np.flatnonzero(~np.isfinite(values))
        if len(diverged):
            raise TrainingDivergedError(f"loss is not finite at epoch {t}", run=start + int(diverged[0]))
        loss_curves[:, t] = values
        acc_curves[:, t] = np.mean(binarize(preds) == y_binary, axis=1)
        if cfg.optimizer is Optimizer.VANILLA_GD:
            w = w - cfg.learning_rate * grad
        else:
            m = beta1 * m + (1.0 - beta1) * grad
            v = beta2 * v + (1.0 - beta2) * grad**2
            m_hat = m / (1.0 - beta1 ** (t + 1))
            v_hat = v / (1.0 - beta2 ** (t + 1))
            w = w - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + eps)

    del sampling  # frees the block's state buffers before the final evaluations
    trained = []
    for r, ((_, run_cfg, label_kind), y_run) in enumerate(zip(runs, targets)):
        if not np.all(np.isfinite(w[r])):
            raise TrainingDivergedError(f"parameters are not finite after {cfg.epochs} epochs", run=start + r)
        final_preds = forward_many(circuit, points, w[r])
        final_loss = float(np.mean((y_run - final_preds) ** 2))
        if not np.isfinite(final_loss):
            raise TrainingDivergedError(f"final loss is not finite after {cfg.epochs} epochs", run=start + r)
        trained.append(TrainRun(
            loss_curve=loss_curves[r].copy(),
            accuracy_curve=acc_curves[r].copy() if label_kind == "binary" else None,
            final_params=w[r].copy(),
            final_preds=final_preds,
            final_loss=final_loss,
            config=run_cfg,
            architecture=architecture,
        ))
    return trained
