"""Loss, analytic gradients, and gradient-descent training.

The loss is the mean squared error between the labels and the ancilla Z
expectations (the mean is a constant rescaling of the summed cost; the
argmin is unchanged and magnitudes stay comparable across grid sizes).

Gradients are exact and come from the adjoint method
(``circuits.CompiledCircuit``): one forward sweep through the circuit's
fused two-qubit blocks, then one backward sweep through their inverses
that carries the squared error's cotangent and sums over the points
before it takes the derivatives of every trainable angle.

A model whose input x_c fills d_c angle slots is a trigonometric
polynomial of degree at most d_c in x_c, and so is each d<Z>/dw_j
(``circuits.fourier_degrees``; Schuld, Sweke & Meyer, arXiv:2008.08605).
Its values at the N = (2 d1 + 1)(2 d2 + 1) ``circuits.periodic_samples``
therefore fix it, and its gradient, exactly at every training point,
through the (B, N) interpolation matrix K
(``circuits.interpolation_weights``).  Training compiles the circuit once
at the N samples (``circuits.CompiledCircuit``: the data-only prefix is
evolved once), and every epoch evaluates it forward at the current
parameters, preds = K f(t), and sweeps back with the cotangent
(2 / B) K^T r, r = preds - y, which gives the loss gradient
(2 / B) df(t) (K^T r) without the (P, N) Jacobian df(t).  For any B this
equals the adjoint on the B points themselves up to rounding.  The final
predictions are K f(t) at the final parameters, from one forward
evaluation of the samples: within 1e-12 of ``forward_batch`` on the points.

``train_lockstep`` trains R runs of one circuit that share the points,
``epochs``, ``learning_rate`` and ``optimizer`` (seeds and labels may
differ) in one epoch loop: the runs' states are stacked as rows, so each
epoch makes one forward and one backward sweep for all of them, and the
optimizer steps an (R, P) parameter array.  Every
operation acts on each run's numbers as a single run's would, so each
result equals ``train``'s bit for bit; ``train`` is the loop with R = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from . import circuits, seeding
from .circuits import CircuitSpec, CompiledCircuit, forward_many, interpolation_weights, periodic_samples
from .errors import ConfigurationError, TrainingDivergedError

LABEL_KINDS = ("continuous", "binary")

#: every initial parameter, a teacher's or a student's, is drawn uniformly
#: from [0, INIT_HIGH)
INIT_HIGH = 2.0 * np.pi


class Optimizer(Enum):
    VANILLA_GD = "gd"
    ADAPTIVE_MOMENT = "adam"


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.05
    epochs: int = 150
    optimizer: Optimizer = Optimizer.ADAPTIVE_MOMENT
    seed: int = 0

    def __post_init__(self):
        try:
            object.__setattr__(self, "optimizer", Optimizer(self.optimizer))  # "gd" and "adam" too
        except ValueError:
            raise ConfigurationError(f"unknown optimizer {self.optimizer!r}") from None
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigurationError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if seeding.integer(self.epochs, "epochs") < 1:
            raise ConfigurationError(f"epochs must be >= 1, got {self.epochs}")
        if seeding.integer(self.seed, "seed") < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")


@dataclass
class TrainRun:
    """Result of one training: per-epoch curves plus the final parameters.

    loss_curve[t] is the loss at the parameters before update t (entry 0
    is the initialization loss); final_preds are K f(t) at final_params,
    within 1e-12 of ``forward_batch``, and final_loss is their loss.
    """

    loss_curve: np.ndarray
    accuracy_curve: Optional[np.ndarray]
    final_params: np.ndarray
    final_preds: np.ndarray
    final_loss: float
    config: TrainConfig


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
    vectors at the N periodic samples each epoch runs it on, and the
    transpose, C-contiguous (N, B), of the interpolation matrix K from them
    to ``points`` (so each einsum over it runs along the B points)."""
    weights = np.ascontiguousarray(interpolation_weights(circuit, points).T)
    return CompiledCircuit(circuit, periodic_samples(circuit)[1], runs), weights


def _sampled_preds(sampling, w) -> np.ndarray:
    """Predictions K f(t) (R, B) at the training points of R runs, run r at
    ``w[r]``; the compiled circuit keeps the sweep for ``backward``."""
    compiled, weights = sampling
    # einsum keeps the sums in numpy's own loops (no threaded BLAS); each
    # run's sums are the ones a single run makes, bit for bit
    return np.einsum("nb,rn->rb", weights, compiled.forward(w))


def _loss_grad_preds(w, sampling, y):
    """Losses (R,), gradients (R, P) and predictions at the training points
    (R, B) of R runs, run r at the parameters ``w[r]`` against the labels
    ``y[r]``, from one adjoint evaluation of all of them on the
    ``_sampling`` samples: the backward sweep takes the cotangent
    (2 / B) K^T r of the residuals r."""
    compiled, weights = sampling
    preds = _sampled_preds(sampling, w)
    residual = preds - y
    grad = compiled.backward((2.0 / y.shape[1]) * np.einsum("nb,rb->rn", weights, residual))
    return np.add.reduce(residual**2, axis=1) / y.shape[1], grad, preds


def gradient(circuit: CircuitSpec, w: np.ndarray, data, label_kind: str = "continuous") -> np.ndarray:
    """Exact gradient of ``loss`` via the adjoint method on the model's
    periodic samples (see the module docstring); equal to what ``train``
    steps with at ``w``."""
    y = _targets(data, label_kind)
    points = np.asarray(data.points, dtype=float)
    w = circuits._params(circuit, w)
    _, grad, _ = _loss_grad_preds(w[None], _sampling(circuit, points), y[None])
    return grad[0]


def train(circuit: CircuitSpec, data, cfg: TrainConfig, label_kind: str = "continuous") -> TrainRun:
    """Full-batch gradient descent from a seeded uniform initialization on
    [0, ``INIT_HIGH``): ``train_lockstep`` with one run."""
    return train_lockstep(circuit, [(data, cfg, label_kind)])[0]


def train_lockstep(circuit: CircuitSpec, runs: Sequence[tuple]) -> list[TrainRun]:
    """Train one circuit in several runs at once; one ``TrainRun`` per run.

    Each run is a ``(data, cfg, label_kind)`` triple, trained as ``train``
    trains it and with the same result bit for bit.  The runs must share
    the training points and every ``TrainConfig`` field but ``seed``, so
    that one epoch loop serves them all: each epoch evaluates the compiled
    adjoint for every run of a block in one sweep (module docstring).
    Blocks hold as many runs as fit ``circuits._BLOCK_BYTES`` of
    amplitudes of the circuit's compiled readout program (2^n' per sample
    and run, ``circuits._compile``), and at least one.  A
    ``TrainingDivergedError`` names in ``run`` the index of the run it
    stopped; within a block that is the first run to diverge, at the
    earliest epoch.
    """
    runs = list(runs)
    if not runs:
        raise ConfigurationError("no runs to train")
    targets = [_targets(data, label_kind) for data, _, label_kind in runs]
    points = np.asarray(runs[0][0].points, dtype=float)
    shared = ("epochs", "learning_rate", "optimizer")
    first = runs[0][1]
    for data, cfg, _ in runs[1:]:
        if any(getattr(cfg, name) != getattr(first, name) for name in shared):
            raise ConfigurationError(f"runs trained in lockstep must share {', '.join(shared)}")
        if not np.array_equal(np.asarray(data.points, dtype=float), points):
            raise ConfigurationError("runs trained in lockstep must share their training points")
    n_samples = len(periodic_samples(circuit)[1])
    per_block = max(1, circuits._BLOCK_BYTES // (n_samples * 16 << circuits._compile(circuit).n_qubits))
    trained: list[TrainRun] = []
    for start in range(0, len(runs), per_block):
        block = slice(start, start + per_block)
        trained += _train_block(circuit, points, runs[block], targets[block], start)
    return trained


# A diverging run overflows inside numpy; the finite checks below name it,
# so numpy's overflow and invalid-value warnings would only repeat them.
@np.errstate(over="ignore", invalid="ignore")
def _train_block(circuit, points, runs, targets, start) -> list[TrainRun]:
    """The runs of one lockstep block, the first of them run ``start``."""
    cfg = runs[0][1]
    sampling = _sampling(circuit, points, len(runs))
    y = np.array(targets)
    positive = np.array([np.asarray(data.y_binary, dtype=float) for data, _, _ in runs]) > 0.0
    w = np.array([seeding.uniform(run_cfg.seed, 0.0, INIT_HIGH, circuit.n_params) for _, run_cfg, _ in runs])

    loss_curves = np.empty((len(runs), cfg.epochs))
    acc_curves = np.empty((len(runs), cfg.epochs))
    m = np.zeros_like(w)
    v = np.zeros_like(w)
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    for t in range(cfg.epochs):
        values, grad, preds = _loss_grad_preds(w, sampling, y)
        if not np.isfinite(values).all():
            diverged = np.flatnonzero(~np.isfinite(values))
            raise TrainingDivergedError(f"loss is not finite at epoch {t}", run=start + int(diverged[0]))
        loss_curves[:, t] = values
        # the share of points where binarize(preds) equals the binary label
        acc_curves[:, t] = np.add.reduce((preds >= 0.0) == positive, axis=1) / preds.shape[1]
        if cfg.optimizer is Optimizer.VANILLA_GD:
            w = w - cfg.learning_rate * grad
        else:
            m = beta1 * m + (1.0 - beta1) * grad
            v = beta2 * v + (1.0 - beta2) * grad**2
            m_hat = m / (1.0 - beta1 ** (t + 1))
            v_hat = v / (1.0 - beta2 ** (t + 1))
            w = w - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + eps)

    final_preds = _sampled_preds(sampling, w)
    del sampling
    trained = []
    for r, ((_, run_cfg, label_kind), y_run) in enumerate(zip(runs, targets)):
        if not np.all(np.isfinite(w[r])):
            raise TrainingDivergedError(f"parameters are not finite after {cfg.epochs} epochs", run=start + r)
        final_loss = float(np.mean((y_run - final_preds[r]) ** 2))
        if not np.isfinite(final_loss):
            raise TrainingDivergedError(f"final loss is not finite after {cfg.epochs} epochs", run=start + r)
        trained.append(TrainRun(
            loss_curve=loss_curves[r].copy(),
            accuracy_curve=acc_curves[r].copy() if label_kind == "binary" else None,
            final_params=w[r].copy(),
            final_preds=final_preds[r].copy(),
            final_loss=final_loss,
            config=run_cfg,
        ))
    return trained
