"""Loss, adjoint-method gradients (checked against central finite
differences here, and against the parameter-shift reference in
test_circuits.py), the training loop, and epochs evaluated on the model's
periodic samples (checked against the adjoint on the points)."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from qteach import circuits, training
from qteach.circuits import (ArchitectureId, CircuitSpec, DataRef, Family, ParamRef, SlotOp, build, dissipative_qp,
                             forward_batch, forward_with_adjoint, interpolation_weights, periodic_samples,
                             reuploading)
from qteach.errors import ConfigurationError, TrainingDivergedError
from qteach.qsim import GateKind
from qteach.teacher_student import LabeledGrid, generate_dataset, make_grid
from qteach.training import LABEL_KINDS, Optimizer, TrainConfig, binarize, gradient, loss, train, train_lockstep

from conftest import ALL_ARCHITECTURES, all_models, mixed_spec, tiny_dataset


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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("evaluate", [loss, gradient], ids=lambda f: f.__name__)
    def test_non_finite_parameters_rejected(self, evaluate, value, rng):
        """loss and gradient check ``w`` as the evaluators do, instead of
        returning NaN."""
        circuit = build(dissipative_qp())
        w = np.zeros(circuit.n_params)
        w[3] = value
        with pytest.raises(ConfigurationError):
            evaluate(circuit, w, tiny_dataset(rng))

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

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_learning_rate_finite(self, value):
        with pytest.raises(ConfigurationError):
            TrainConfig(learning_rate=value)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, -1.0])
    def test_init_scale_finite_and_nonnegative(self, value):
        with pytest.raises(ConfigurationError):
            TrainConfig(init_scale=value)

    def test_zero_init_scale_starts_at_zero(self, rng):
        circuit = build(dissipative_qp())
        data = tiny_dataset(rng)
        run = train(circuit, data, TrainConfig(epochs=1, init_scale=0.0))
        w = np.zeros(circuit.n_params)
        sampling = training._sampling(circuit, data.points)
        assert run.loss_curve[0] == sampled_loss_grad_preds(w, sampling, data.y_continuous)[0]
        assert abs(run.loss_curve[0] - loss(circuit, w, data)) <= 1e-12


# ---------------------------------------------------------------------------
# training on the model's periodic samples
# ---------------------------------------------------------------------------

def sampled_loss_grad_preds(w, sampling, y):
    """``training._loss_grad_preds`` for one run: loss, gradient and
    predictions at the (P,) parameters ``w`` against the (B,) labels ``y``."""
    values, grads, preds = training._loss_grad_preds(w[None], sampling, y[None])
    return values[0], grads[0], preds[0]


def direct_loss_grad_preds(circuit, w, points, y):
    """Loss, gradient and predictions from one adjoint evaluation on the
    points themselves: the reference for the sampled epochs."""
    preds, dpreds = forward_with_adjoint(circuit, points, w)
    residual = preds - y
    return float(np.mean(residual**2)), 2.0 * np.mean(residual[None, :] * dpreds, axis=1), preds


def reference_train(circuit, data, cfg, label_kind="continuous", sampled=False):
    """(loss curve, final parameters) of ``train``'s loop with every epoch
    evaluated on the points, or with ``sampled`` by
    ``training._loss_grad_preds`` on the model's periodic samples."""
    y = data.y_continuous if label_kind == "continuous" else data.y_binary
    sampling = training._sampling(circuit, data.points)
    w = np.random.default_rng(cfg.seed).uniform(0.0, cfg.init_scale, circuit.n_params)
    m = np.zeros_like(w)
    v = np.zeros_like(w)
    losses = []
    for t in range(cfg.epochs):
        if sampled:
            value, grad, _ = sampled_loss_grad_preds(w, sampling, y)
        else:
            value, grad, _ = direct_loss_grad_preds(circuit, w, data.points, y)
        losses.append(value)
        if cfg.optimizer is Optimizer.VANILLA_GD:
            w = w - cfg.learning_rate * grad
            continue
        m = 0.9 * m + (1.0 - 0.9) * grad
        v = 0.999 * v + (1.0 - 0.999) * grad**2
        m_hat = m / (1.0 - 0.9 ** (t + 1))
        v_hat = v / (1.0 - 0.999 ** (t + 1))
        w = w - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8)
    return np.array(losses), w


def one_input_spec():
    """Only x1 enters (degrees (1, 0)), so K interpolates along x1 alone."""
    ops = (
        SlotOp(GateKind.RY, (0,), angles=(DataRef(0),)),
        SlotOp(GateKind.ROT, (0,), angles=(ParamRef(0), ParamRef(1), ParamRef(2))),
        SlotOp(GateKind.CNOT, (1,), controls=(0,)),
    )
    return CircuitSpec(n_qubits=2, ops=ops, measured_qubit=1, n_params=3, encoding_count=1)


SAMPLED_POINT_SETS = {
    "grid": make_grid(21),
    "unit_grid": make_grid(21, -1.0, 1.0),
    "scattered": np.random.default_rng(5).uniform(-4.0, 4.0, (300, 2)),
}


class TestSpectralTraining:
    @staticmethod
    def _check(circuit, rng):
        """The sampled epoch against the adjoint on the points, for the B > N
        point sets and for B in {1, 2, 5, N - 1, N}."""
        n_samples = len(periodic_samples(circuit)[1])
        few = {f"B={b}": SAMPLED_POINT_SETS["scattered"][:b] for b in (1, 2, 5, n_samples - 1, n_samples)}
        for name, points in {**SAMPLED_POINT_SETS, **few}.items():
            y = rng.uniform(-1.0, 1.0, len(points))
            w = rng.uniform(0, 2 * np.pi, circuit.n_params)
            value, grad, preds = sampled_loss_grad_preds(w, training._sampling(circuit, points), y)
            ref_value, ref_grad, ref_preds = direct_loss_grad_preds(circuit, w, points, y)
            assert abs(value - ref_value) <= 1e-12, name
            np.testing.assert_allclose(preds, ref_preds, rtol=0, atol=1e-12, err_msg=name)
            np.testing.assert_allclose(grad, ref_grad, rtol=0, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("arch", all_models())
    def test_matches_direct_adjoint(self, arch, rng):
        self._check(build(arch), rng)

    def test_mixed_data_and_parameter_rotations(self, rng):
        self._check(mixed_spec(), rng)

    @pytest.mark.parametrize("circuit", [build(dissipative_qp()), build(reuploading(4)), mixed_spec(),
                                         one_input_spec()], ids=["d11", "d44", "d21", "d10"])
    def test_interpolation_rows_sum_to_one(self, circuit):
        for points in SAMPLED_POINT_SETS.values():
            np.testing.assert_allclose(interpolation_weights(circuit, points).sum(axis=1), 1.0,
                                       rtol=0, atol=1e-14)

    @pytest.mark.parametrize("circuit", [build(dissipative_qp()), build(reuploading(4)), mixed_spec(),
                                         one_input_spec()], ids=["d11", "d44", "d21", "d10"])
    def test_interpolation_row_at_a_sample_is_its_unit_vector(self, circuit):
        _, samples = periodic_samples(circuit)
        weights = interpolation_weights(circuit, samples)
        np.testing.assert_array_equal(np.diag(weights), 1.0)
        np.testing.assert_allclose(weights, np.eye(len(samples)), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n_points", [5, 9])
    def test_adam_matches_sampled_loop_on_few_points(self, n_points, rng):
        """dissipative_qp has N = 9 samples: with B <= 9 points, too, every
        epoch runs on the samples.  Adam matches the sampled reference loop
        bit for bit, and gradient descent the loop on the points to 1e-12."""
        circuit = build(dissipative_qp())
        data = tiny_dataset(rng, n_points)
        w = rng.uniform(0, 2 * np.pi, circuit.n_params)
        _, ref_grad, _ = sampled_loss_grad_preds(w, training._sampling(circuit, data.points), data.y_continuous)
        np.testing.assert_array_equal(gradient(circuit, w, data), ref_grad)
        cfg = TrainConfig(epochs=3, seed=4)
        run = train(circuit, data, cfg)
        ref_losses, ref_w = reference_train(circuit, data, cfg, sampled=True)
        np.testing.assert_array_equal(run.loss_curve, ref_losses)
        np.testing.assert_array_equal(run.final_params, ref_w)
        gd = TrainConfig(learning_rate=0.1, epochs=3, optimizer=Optimizer.VANILLA_GD, seed=4)
        run = train(circuit, data, gd)
        ref_losses, ref_w = reference_train(circuit, data, gd)
        np.testing.assert_allclose(run.loss_curve, ref_losses, rtol=0, atol=1e-12)
        np.testing.assert_allclose(run.final_params, ref_w, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("label_kind", LABEL_KINDS)
    @pytest.mark.parametrize("student", [dissipative_qp(), reuploading(2)], ids=lambda a: a.name)
    def test_short_training_matches_direct_loop(self, student, label_kind):
        """Plain gradient descent, which moves each parameter by the
        learning rate times its gradient drift.  Adam's first step is
        g / (|g| + 1e-8) per entry, so on an entry that is zero in exact
        arithmetic (about 1e-17 either way) it turns rounding into steps
        near 1e-10.  Adam is compared bit for bit against a loop with the
        same arithmetic, in test_adam_matches_sampled_loop_on_few_points."""
        circuit = build(student)
        data = generate_dataset(reuploading(2), make_grid(21), seed=3)
        cfg = TrainConfig(learning_rate=0.1, epochs=3, optimizer=Optimizer.VANILLA_GD, seed=8)
        run = train(circuit, data, cfg, label_kind)
        ref_losses, ref_w = reference_train(circuit, data, cfg, label_kind)
        np.testing.assert_allclose(run.loss_curve, ref_losses, rtol=0, atol=1e-12)
        np.testing.assert_allclose(run.final_params, ref_w, rtol=0, atol=1e-12)

    def test_gradient_is_the_step_train_takes(self, monkeypatch):
        circuit = build(reuploading(2))
        data = generate_dataset(dissipative_qp(), make_grid(21), seed=2)
        steps = []
        evaluate = training._loss_grad_preds

        def spy(w, sampling, y):
            result = evaluate(w, sampling, y)
            steps.append((w[0], result[1][0]))
            return result

        monkeypatch.setattr(training, "_loss_grad_preds", spy)
        train(circuit, data, TrainConfig(epochs=3, seed=1))
        monkeypatch.undo()
        assert len(steps) == 3
        for w, grad in steps:
            np.testing.assert_array_equal(gradient(circuit, w, data), grad)

    @pytest.mark.parametrize("points", [
        np.where(np.arange(40)[:, None] == 7, np.nan, make_grid(21)[:40]),
        np.zeros((40, 3)),
    ], ids=["non_finite", "three_columns"])
    def test_bad_points_rejected_before_sampling(self, points):
        """Interpolation would turn a bad point into a non-finite loss; it
        must be a ConfigurationError instead."""
        circuit = build(dissipative_qp())
        y = np.zeros(len(points))
        data = SimpleNamespace(points=points, y_continuous=y, y_binary=binarize(y))
        with pytest.raises(ConfigurationError):
            gradient(circuit, np.zeros(circuit.n_params), data)
        with pytest.raises(ConfigurationError):
            train(circuit, data, TrainConfig(epochs=1))


# ---------------------------------------------------------------------------
# runs trained in lockstep
# ---------------------------------------------------------------------------

def lockstep_runs(n_seeds=3, **cfg):
    """A continuous and a binary run per seed on one 5 x 5 grid, each with
    its own teacher dataset and initialization seed."""
    grid = make_grid(5)
    runs = []
    for s in range(n_seeds):
        data = generate_dataset(reuploading(2), grid, seed=s)
        runs += [(data, TrainConfig(epochs=4, seed=10 * s + k, **cfg), kind) for k, kind in enumerate(LABEL_KINDS)]
    return runs


def assert_same_runs(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a.loss_curve, b.loss_curve)
        assert (a.accuracy_curve is None) == (b.accuracy_curve is None)
        if a.accuracy_curve is not None:
            np.testing.assert_array_equal(a.accuracy_curve, b.accuracy_curve)
        np.testing.assert_array_equal(a.final_params, b.final_params)
        np.testing.assert_array_equal(a.final_preds, b.final_preds)
        assert a.final_loss == b.final_loss
        assert a.config == b.config


class TestLockstep:
    @pytest.mark.parametrize("optimizer", list(Optimizer), ids=lambda o: o.value)
    @pytest.mark.parametrize("student", [dissipative_qp(), reuploading(2), ArchitectureId(Family.QNN_TWO_QP)],
                             ids=lambda a: a.name)
    def test_block_splits_change_nothing(self, student, optimizer, monkeypatch):
        """All runs in one block, blocks of two runs, and one run per block
        (``train`` called run by run) give the same runs bit for bit."""
        circuit = build(student)
        runs = lockstep_runs(optimizer=optimizer)
        whole = train_lockstep(circuit, runs)
        assert_same_runs([train(circuit, *run) for run in runs], whole)
        sizes = []
        train_block = training._train_block

        def spy(circuit, points, block, *rest):
            sizes.append(len(block))
            return train_block(circuit, points, block, *rest)

        monkeypatch.setattr(training, "_train_block", spy)
        run_bytes = len(periodic_samples(circuit)[1]) * 16 << circuit.n_qubits
        for block_bytes in (2 * run_bytes, 1):  # 1 byte still holds one run
            monkeypatch.setattr(circuits, "_BLOCK_BYTES", block_bytes)
            assert_same_runs(train_lockstep(circuit, runs), whole)
        assert sizes == [2, 2, 2] + [1] * 6

    @pytest.mark.parametrize("change", [{"epochs": 5}, {"learning_rate": 0.1},
                                        {"optimizer": Optimizer.VANILLA_GD}, {"init_scale": 1.0}],
                             ids=lambda c: next(iter(c)))
    def test_runs_must_share_their_settings(self, change):
        runs = lockstep_runs(1)
        data, cfg, kind = runs[1]
        runs[1] = (data, replace(cfg, **change), kind)
        with pytest.raises(ConfigurationError):
            train_lockstep(build(dissipative_qp()), runs)

    def test_runs_must_share_their_points(self):
        runs = lockstep_runs(1)
        data, cfg, kind = runs[1]
        runs[1] = (generate_dataset(reuploading(2), make_grid(5, -1.0, 1.0), seed=0), cfg, kind)
        with pytest.raises(ConfigurationError):
            train_lockstep(build(dissipative_qp()), runs)
        with pytest.raises(ConfigurationError):
            train_lockstep(build(dissipative_qp()), [])

    def test_divergence_names_the_first_diverging_run(self):
        """Run 3's labels overflow the loss at epoch 0; the others train
        on.  The error names run 3, not run 0."""
        runs = lockstep_runs(2)
        data, cfg, _ = runs[3]
        huge = LabeledGrid(data.points, np.full(len(data), 1e200), np.ones(len(data)))
        runs[3] = (huge, cfg, "continuous")
        with np.errstate(over="ignore"), pytest.raises(TrainingDivergedError, match="epoch 0") as info:
            train_lockstep(build(dissipative_qp()), runs)
        assert info.value.run == 3
