"""Loss, adjoint-method gradients (checked against central finite
differences here, and against the parameter-shift reference in
test_circuits.py), and the training loop."""

import numpy as np
import pytest

from qteach.circuits import build, dissipative_qp, forward_batch, reuploading
from qteach.errors import ConfigurationError, TrainingDivergedError
from qteach.teacher_student import LabeledGrid, generate_dataset, make_grid
from qteach.training import LABEL_KINDS, Optimizer, TrainConfig, binarize, gradient, loss, train

from conftest import ALL_ARCHITECTURES, tiny_dataset


def finite_difference_gradient(circuit, w, data, h=1e-5, label_kind="continuous"):
    """Central-difference oracle for the loss gradient."""
    grad = np.zeros_like(w)
    for j in range(len(w)):
        w_plus = w.copy()
        w_plus[j] += h
        w_minus = w.copy()
        w_minus[j] -= h
        grad[j] = (loss(circuit, w_plus, data, label_kind) - loss(circuit, w_minus, data, label_kind)) / (2 * h)
    return grad


class TestBinarize:
    def test_positive(self):
        assert binarize(0.7) == 1.0

    def test_negative(self):
        assert binarize(-0.2) == -1.0

    def test_zero_maps_to_plus_one(self):
        assert binarize(0.0) == 1.0

    def test_elementwise(self):
        np.testing.assert_array_equal(binarize([-1.0, 0.0, 0.3]), [-1.0, 1.0, 1.0])


class TestLoss:
    def test_teacher_fits_its_own_dataset(self):
        grid = make_grid(5)
        dataset = generate_dataset(reuploading(2), grid, seed=3)
        circuit = build(reuploading(2))
        assert loss(circuit, dataset.teacher_params, dataset) < 1e-12

    def test_single_point_exact_fit(self):
        circuit = build(dissipative_qp())
        data = LabeledGrid(np.zeros((1, 2)), np.ones(1), np.ones(1))
        assert loss(circuit, np.zeros(12), data) == 0.0

    def test_matches_direct_recomputation(self, rng):
        circuit = build(dissipative_qp())
        data = tiny_dataset(rng)
        w = rng.uniform(0, 2 * np.pi, circuit.n_params)
        preds = forward_batch(circuit, data.points, w)
        expected = float(np.mean((data.y_continuous - preds) ** 2))
        assert loss(circuit, w, data) == pytest.approx(expected, abs=1e-15)

    def test_empty_dataset_rejected(self):
        circuit = build(dissipative_qp())
        empty = LabeledGrid(np.zeros((0, 2)), np.zeros(0), np.zeros(0))
        with pytest.raises(ConfigurationError):
            loss(circuit, np.zeros(12), empty)

    def test_binary_labels_used_when_requested(self, rng):
        circuit = build(dissipative_qp())
        data = tiny_dataset(rng)
        w = rng.uniform(0, 2 * np.pi, circuit.n_params)
        preds = forward_batch(circuit, data.points, w)
        expected = float(np.mean((data.y_binary - preds) ** 2))
        assert loss(circuit, w, data, "binary") == pytest.approx(expected, abs=1e-15)


class TestGradient:
    @pytest.mark.parametrize("arch", ALL_ARCHITECTURES, ids=lambda a: a.name)
    def test_matches_finite_differences(self, arch, rng):
        circuit = build(arch)
        for _ in range(3):
            data = tiny_dataset(rng)
            w = rng.uniform(0, 2 * np.pi, circuit.n_params)
            analytic = gradient(circuit, w, data)
            numeric = finite_difference_gradient(circuit, w, data)
            np.testing.assert_allclose(analytic, numeric, atol=1e-5)

    def test_zero_for_constant_output_circuit(self):
        # at x = (0, 0) with all-zero weights the encoded state is |00>;
        # the spec's trivial case: predictions equal labels, gradient of a
        # perfect fit at a symmetric point
        circuit = build(dissipative_qp())
        data = LabeledGrid(np.zeros((1, 2)), np.ones(1), np.ones(1))
        grad = gradient(circuit, np.zeros(circuit.n_params), data)
        np.testing.assert_allclose(grad, np.zeros_like(grad), atol=1e-12)

    def test_small_after_convergence(self):
        grid = make_grid(3)
        dataset = generate_dataset(dissipative_qp(), grid, seed=5)
        circuit = build(dissipative_qp())
        cfg = TrainConfig(learning_rate=0.05, epochs=400, seed=9)
        run = train(circuit, dataset, cfg)
        grad_norm = float(np.linalg.norm(gradient(circuit, run.final_params, dataset)))
        assert grad_norm < 1e-3


class TestTrain:
    def test_loss_curve_length_one_epoch(self, rng):
        circuit = build(dissipative_qp())
        run = train(circuit, tiny_dataset(rng), TrainConfig(epochs=1, seed=0))
        assert len(run.loss_curve) == 1

    def test_same_seed_bit_identical(self, rng):
        circuit = build(dissipative_qp())
        data = tiny_dataset(rng)
        cfg = TrainConfig(epochs=10, seed=123)
        a = train(circuit, data, cfg)
        b = train(circuit, data, cfg)
        np.testing.assert_array_equal(a.loss_curve, b.loss_curve)
        np.testing.assert_array_equal(a.final_params, b.final_params)
        assert a.final_loss == b.final_loss

    def test_different_seeds_differ(self, rng):
        circuit = build(dissipative_qp())
        data = tiny_dataset(rng)
        a = train(circuit, data, TrainConfig(epochs=5, seed=1))
        b = train(circuit, data, TrainConfig(epochs=5, seed=2))
        assert not np.array_equal(a.final_params, b.final_params)

    def test_self_learning_converges(self):
        """A student with the teacher's own architecture reaches near-zero
        loss on the teacher's dataset."""
        grid = make_grid(7)
        dataset = generate_dataset(dissipative_qp(), grid, seed=21)
        circuit = build(dissipative_qp())
        run = train(circuit, dataset, TrainConfig(epochs=200, seed=4))
        assert run.final_loss < 0.01

    def test_vanilla_gd_descends(self, rng):
        circuit = build(dissipative_qp())
        cfg = TrainConfig(learning_rate=0.01, epochs=11, optimizer=Optimizer.VANILLA_GD, seed=0)
        for seed in (0, 1, 2):
            data = tiny_dataset(rng, n_points=8)
            run = train(circuit, data, TrainConfig(
                learning_rate=cfg.learning_rate, epochs=cfg.epochs,
                optimizer=cfg.optimizer, seed=seed,
            ))
            assert run.loss_curve[10] <= run.loss_curve[0]

    def test_binary_run_records_accuracy_curve(self, rng):
        circuit = build(dissipative_qp())
        data = tiny_dataset(rng)
        run = train(circuit, data, TrainConfig(epochs=5, seed=0), "binary")
        assert run.accuracy_curve is not None
        assert len(run.accuracy_curve) == 5
        assert np.all((run.accuracy_curve >= 0) & (run.accuracy_curve <= 1))

    def test_continuous_run_has_no_accuracy_curve(self, rng):
        circuit = build(dissipative_qp())
        run = train(circuit, tiny_dataset(rng), TrainConfig(epochs=2, seed=0))
        assert run.accuracy_curve is None

    @pytest.mark.parametrize("label_kind", LABEL_KINDS)
    def test_final_preds_are_the_model_at_final_params(self, rng, label_kind):
        """Callers score accuracy from final_preds instead of evaluating
        the model again, so they must be those outputs bit for bit."""
        circuit = build(reuploading(2))
        data = tiny_dataset(rng, 12)
        run = train(circuit, data, TrainConfig(epochs=4, seed=3), label_kind)
        np.testing.assert_array_equal(run.final_preds, forward_batch(circuit, data.points, run.final_params))
        assert run.final_loss == loss(circuit, run.final_params, data, label_kind)

    def test_loss_curve_nonnegative(self, rng):
        circuit = build(reuploading(2))
        run = train(circuit, tiny_dataset(rng, 12), TrainConfig(epochs=30, seed=7))
        assert np.all(run.loss_curve >= 0)

    @pytest.mark.parametrize("label_kind", LABEL_KINDS)
    def test_divergence_raises(self, label_kind):
        """A step so large that the parameters overflow must not return a
        NaN final loss."""
        data = generate_dataset(dissipative_qp(), make_grid(3), seed=1)
        cfg = TrainConfig(learning_rate=1e308, epochs=2)
        with np.errstate(over="ignore"), pytest.raises(TrainingDivergedError):
            train(build(dissipative_qp()), data, cfg, label_kind)

    def test_metadata_is_json_ready(self, rng):
        import json

        circuit = build(dissipative_qp())
        run = train(circuit, tiny_dataset(rng), TrainConfig(epochs=2, seed=0),
                    architecture=dissipative_qp())
        text = json.dumps(run.metadata())
        assert "dissipative_qp" in text


class TestTrainConfigValidation:
    def test_learning_rate_positive(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(learning_rate=0.0)

    def test_epochs_at_least_one(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(epochs=0)
