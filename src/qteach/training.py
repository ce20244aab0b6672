"""Loss, analytic gradients, and gradient-descent training.

The loss is the mean squared error between the labels and the ancilla Z
expectations (the mean is a constant rescaling of the summed cost; the
argmin is unchanged and magnitudes stay comparable across grid sizes).

Gradients are exact and come from the adjoint method
(``circuits.forward_with_adjoint``): one forward sweep over the full
dataset, then one backward sweep through the gate inverses that yields
d<Z>/dw_j for every trainable angle at every point, chained through the
squared error.  The parameter-shift rule
(``circuits.forward_with_param_shift``) gives the same derivatives and is
kept as the reference the tests check the adjoint against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from .circuits import ArchitectureId, CircuitSpec, forward_many, forward_with_adjoint
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
        if not self.learning_rate > 0:
            raise ConfigurationError(f"learning_rate must be > 0, got {self.learning_rate}")
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
    preds = forward_many(circuit, np.asarray(data.points, dtype=float), np.asarray(w, dtype=float)[None, :])[0]
    return float(np.mean((y - preds) ** 2))


def _loss_grad_preds(circuit, w, points, y):
    """Loss, its gradient, and the predictions in one evaluation."""
    preds, dpreds = forward_with_adjoint(circuit, points, w)
    residual = preds - y
    grad = 2.0 * np.mean(residual[None, :] * dpreds, axis=1)
    return float(np.mean(residual**2)), grad, preds


def gradient(circuit: CircuitSpec, w: np.ndarray, data, label_kind: str = "continuous") -> np.ndarray:
    """Exact gradient of ``loss`` via the adjoint method."""
    y = _targets(data, label_kind)
    w = np.asarray(w, dtype=float)
    _, grad, _ = _loss_grad_preds(circuit, w, np.asarray(data.points, dtype=float), y)
    return grad


def train(circuit: CircuitSpec, data, cfg: TrainConfig, label_kind: str = "continuous",
          architecture: Optional[ArchitectureId] = None) -> TrainRun:
    """Full-batch gradient descent from a seeded uniform initialization."""
    y = _targets(data, label_kind)
    points = np.asarray(data.points, dtype=float)
    y_binary = np.asarray(data.y_binary, dtype=float)

    rng = np.random.default_rng(cfg.seed)
    w = rng.uniform(0.0, cfg.init_scale, circuit.n_params)

    loss_curve = np.empty(cfg.epochs)
    acc_curve = np.empty(cfg.epochs) if label_kind == "binary" else None
    m = np.zeros_like(w)
    v = np.zeros_like(w)
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    for t in range(cfg.epochs):
        value, grad, preds = _loss_grad_preds(circuit, w, points, y)
        if not np.isfinite(value):
            raise TrainingDivergedError(f"loss is not finite at epoch {t}")
        loss_curve[t] = value
        if acc_curve is not None:
            acc_curve[t] = float(np.mean(binarize(preds) == y_binary))
        if cfg.optimizer is Optimizer.VANILLA_GD:
            w = w - cfg.learning_rate * grad
        else:
            m = beta1 * m + (1.0 - beta1) * grad
            v = beta2 * v + (1.0 - beta2) * grad**2
            m_hat = m / (1.0 - beta1 ** (t + 1))
            v_hat = v / (1.0 - beta2 ** (t + 1))
            w = w - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + eps)

    if not np.all(np.isfinite(w)):
        raise TrainingDivergedError(f"parameters are not finite after {cfg.epochs} epochs")
    final_preds = forward_many(circuit, points, w[None, :])[0]
    final_loss = float(np.mean((y - final_preds) ** 2))
    if not np.isfinite(final_loss):
        raise TrainingDivergedError(f"final loss is not finite after {cfg.epochs} epochs")
    return TrainRun(
        loss_curve=loss_curve,
        accuracy_curve=acc_curve,
        final_params=w,
        final_preds=final_preds,
        final_loss=final_loss,
        config=cfg,
        architecture=architecture,
    )
