"""Grid construction, dataset generation, and the experiment protocol."""

import numpy as np
import pytest

from qteach.circuits import build, dissipative_qp, reuploading
from qteach.errors import ConfigurationError, StructuralError, TrainingDivergedError
from qteach.teacher_student import (
    LabeledGrid,
    derive_seed,
    generate_dataset,
    make_grid,
    run_experiment,
)
from qteach.training import TrainConfig, binarize


class TestMakeGrid:
    def test_two_by_two_corners(self):
        grid = make_grid(2)
        expected = np.array([
            [-np.pi, -np.pi], [-np.pi, np.pi], [np.pi, -np.pi], [np.pi, np.pi],
        ])
        np.testing.assert_allclose(grid, expected)

    def test_three_by_three_contains_origin(self):
        grid = make_grid(3, -1.0, 1.0)
        assert grid.shape == (9, 2)
        assert any(np.array_equal(p, [0.0, 0.0]) for p in grid)

    def test_point_count(self):
        assert make_grid(21).shape == (441, 2)

    def test_resolution_too_small(self):
        with pytest.raises(ConfigurationError):
            make_grid(1)


class TestGenerateDataset:
    def test_explicit_zero_parameters(self):
        grid = make_grid(3)
        dataset = generate_dataset(dissipative_qp(), grid, seed=0, params=np.zeros(12))
        center = np.flatnonzero((grid == 0).all(axis=1))[0]
        assert dataset.y_continuous[center] == pytest.approx(1.0, abs=1e-12)

    def test_same_seed_identical(self):
        grid = make_grid(4)
        a = generate_dataset(reuploading(2), grid, seed=7)
        b = generate_dataset(reuploading(2), grid, seed=7)
        np.testing.assert_array_equal(a.y_continuous, b.y_continuous)
        np.testing.assert_array_equal(a.teacher_params, b.teacher_params)

    def test_labels_in_range_and_signs_consistent(self):
        grid = make_grid(5)
        dataset = generate_dataset(reuploading(3), grid, seed=1)
        assert np.all(np.abs(dataset.y_continuous) <= 1.0)
        np.testing.assert_array_equal(dataset.y_binary, binarize(dataset.y_continuous))

    def test_labeled_grid_validates_lengths(self):
        with pytest.raises(StructuralError):
            LabeledGrid(np.zeros((3, 2)), np.zeros(2), np.zeros(2))

    def test_labeled_grid_validates_sign_consistency(self):
        with pytest.raises(StructuralError):
            LabeledGrid(np.zeros((2, 2)), np.array([0.5, -0.5]), np.array([1.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_labeled_grid_rejects_non_finite_labels(self, bad):
        """binarize(nan) is -1, so the sign check alone lets NaN through."""
        y = np.array([0.5, bad, -0.2])
        with pytest.raises(StructuralError):
            LabeledGrid(np.zeros((3, 2)), y, binarize(y))

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_labeled_grid_rejects_non_finite_points(self, bad):
        points = np.zeros((3, 2))
        points[1, 0] = bad
        y = np.array([0.5, 0.1, -0.2])
        with pytest.raises(StructuralError):
            LabeledGrid(points, y, binarize(y))

    @pytest.mark.parametrize("shape", [(3,), (3, 3), (3, 2, 1)], ids=str)
    def test_labeled_grid_rejects_points_not_shaped_n_by_2(self, shape):
        y = np.array([0.5, 0.1, -0.2])
        with pytest.raises(StructuralError):
            LabeledGrid(np.zeros(shape), y, binarize(y))


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)

    def test_role_separation(self):
        assert derive_seed(1, 0, 0) != derive_seed(1, 0, 1)

    def test_64_bit_range(self):
        assert 0 <= derive_seed(123, 4, 5) < 2**64


@pytest.fixture(scope="module")
def small_result():
    cfg = TrainConfig(epochs=12, seed=3)
    grid = make_grid(5)
    return run_experiment(
        dissipative_qp(), [dissipative_qp(), reuploading(2)],
        n_seeds=2, cfg=cfg, grid=grid, map_resolution=9,
    )


class TestRunExperiment:
    def test_shapes(self, small_result):
        assert small_result.n_seeds == 2
        assert len(small_result.datasets) == 2
        assert len(small_result.teacher_maps) == 2
        for student in small_result.students:
            assert len(student.runs) == 2
            assert len(student.binary_runs) == 2
            assert student.rel_entropies.shape == (2,)
            assert student.accuracies.shape == (2,)

    def test_average_curve_is_pointwise_mean(self, small_result):
        student = small_result.students[0]
        stacked = np.stack([run.loss_curve for run in student.runs])
        np.testing.assert_allclose(student.mean_loss_curve, stacked.mean(axis=0), atol=1e-15)

    def test_deterministic_given_config(self, small_result):
        cfg = TrainConfig(epochs=12, seed=3)
        again = run_experiment(
            dissipative_qp(), [dissipative_qp(), reuploading(2)],
            n_seeds=2, cfg=cfg, grid=make_grid(5), map_resolution=9,
        )
        for s_a, s_b in zip(small_result.students, again.students):
            np.testing.assert_array_equal(s_a.rel_entropies, s_b.rel_entropies)
            np.testing.assert_array_equal(s_a.accuracies, s_b.accuracies)
            for run_a, run_b in zip(s_a.runs, s_b.runs):
                np.testing.assert_array_equal(run_a.loss_curve, run_b.loss_curve)

    def test_summary_schema(self, small_result):
        summary = small_result.summary()
        assert summary["teacher"] == "dissipative_qp"
        assert [s["architecture"] for s in summary["students"]] == ["dissipative_qp", "reuploading:2"]
        for entry in summary["students"]:
            assert len(entry["rel_entropies"]) == 2
            assert entry["mean_final_loss"] >= 0

    def test_single_seed_average_equals_run(self):
        cfg = TrainConfig(epochs=6, seed=5)
        result = run_experiment(
            dissipative_qp(), [reuploading(2)], n_seeds=1, cfg=cfg,
            grid=make_grid(4), map_resolution=7,
        )
        student = result.students[0]
        assert student.mean_final_loss == student.runs[0].final_loss
        assert student.mean_rel_entropy == student.rel_entropies[0]

    def test_n_seeds_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            run_experiment(dissipative_qp(), [reuploading(2)], 0, TrainConfig(), make_grid(3))

    def test_without_binary_runs_accuracy_uses_continuous_run(self):
        cfg = TrainConfig(epochs=6, seed=5)
        result = run_experiment(
            dissipative_qp(), [reuploading(2)], n_seeds=1, cfg=cfg,
            grid=make_grid(4), map_resolution=7, include_binary=False,
        )
        student = result.students[0]
        assert student.binary_runs is None
        assert 0.0 <= student.mean_accuracy <= 1.0

    def test_more_seeds_leave_the_first_seeds_unchanged(self, small_result):
        """Every seed's runs train in one lockstep call per student, yet a
        third seed changes nothing of seeds 0 and 1."""
        three = run_experiment(
            dissipative_qp(), [dissipative_qp(), reuploading(2)],
            n_seeds=3, cfg=TrainConfig(epochs=12, seed=3), grid=make_grid(5), map_resolution=9,
        )
        for s in range(2):
            np.testing.assert_array_equal(three.datasets[s].y_continuous, small_result.datasets[s].y_continuous)
            np.testing.assert_array_equal(three.teacher_maps[s].values, small_result.teacher_maps[s].values)
        for s_three, s_two in zip(three.students, small_result.students):
            np.testing.assert_array_equal(s_three.rel_entropies[:2], s_two.rel_entropies)
            np.testing.assert_array_equal(s_three.accuracies[:2], s_two.accuracies)
            for runs_three, runs_two in ((s_three.runs, s_two.runs), (s_three.binary_runs, s_two.binary_runs)):
                for run_three, run_two in zip(runs_three[:2], runs_two):
                    np.testing.assert_array_equal(run_three.loss_curve, run_two.loss_curve)
                    np.testing.assert_array_equal(run_three.final_params, run_two.final_params)
                    assert run_three.config == run_two.config
            for map_three, map_two in zip(s_three.maps[:2], s_two.maps):
                np.testing.assert_array_equal(map_three.values, map_two.values)

    @pytest.mark.parametrize("include_binary", [True, False])
    def test_divergence_names_student_seed_and_label_kind(self, include_binary):
        cfg = TrainConfig(learning_rate=1e308, epochs=4, seed=9)
        with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError) as info:
            run_experiment(reuploading(2), [dissipative_qp()], n_seeds=2, cfg=cfg, grid=make_grid(5),
                           map_resolution=7, include_binary=include_binary)
        assert str(info.value).startswith("student dissipative_qp, seed 0, continuous labels: ")
