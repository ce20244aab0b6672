"""Encoding study (probability vectors, PCA, separability) and the
labelling / normalization experiment plumbing."""

import numpy as np
import pytest

from qteach.analysis import (
    DEFAULT_RADIUS,
    PcaProjection,
    circular_dataset,
    encoding_probability_vectors,
    encoding_study,
    labelling_experiment,
    pca_2d,
    separability_score,
)
from qteach.circuits import Encoding, append_x_on_measured, build, dissipative_qp, forward_batch
from qteach.errors import ConfigurationError
from qteach.metrics import prediction_map
from qteach.training import TrainConfig


def jacobi_eigensolver(matrix, sweeps=30):
    """Cyclic Jacobi rotations for a small symmetric matrix; independent
    oracle for the PCA eigendecomposition."""
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    v = np.eye(n)
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) < 1e-15:
                    continue
                off += a[p, q] ** 2
                theta = 0.5 * np.arctan2(2 * a[p, q], a[q, q] - a[p, p])
                c, s = np.cos(theta), np.sin(theta)
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                v = v @ rot
        if off < 1e-30:
            break
    order = np.argsort(np.diag(a))[::-1]
    return np.diag(a)[order], v[:, order]


class TestCircularDataset:
    def test_origin_is_inside(self):
        data = circular_dataset(200, radius=1.0, seed=0)
        inside = np.sum(data.points**2, axis=1) < 1.0
        np.testing.assert_array_equal(data.labels[inside], -1.0)
        np.testing.assert_array_equal(data.labels[~inside], 1.0)

    def test_reproducible_and_both_classes_present(self):
        a = circular_dataset(500, seed=4)
        b = circular_dataset(500, seed=4)
        np.testing.assert_array_equal(a.points, b.points)
        assert np.any(a.labels < 0) and np.any(a.labels > 0)

    def test_bad_arguments(self):
        with pytest.raises(ConfigurationError):
            circular_dataset(0)
        with pytest.raises(ConfigurationError):
            circular_dataset(10, radius=0.0)


class TestEncodingProbabilityVectors:
    def test_rx_at_origin(self):
        data = circular_dataset(3, seed=0)
        data.points[0] = (0.0, 0.0)
        vectors = encoding_probability_vectors(Encoding.RX_ANGLE, data)
        np.testing.assert_allclose(vectors[0], [1, 0, 0, 0], atol=1e-12)

    def test_rx_first_qubit_flipped(self):
        data = circular_dataset(1, seed=0)
        data.points[0] = (np.pi, 0.0)
        vectors = encoding_probability_vectors(Encoding.RX_ANGLE, data)
        np.testing.assert_allclose(vectors[0], [0, 0, 1, 0], atol=1e-12)

    def test_rot_h_at_origin_is_uniform(self):
        # Rot(0, 0, 0) = identity, so the state is H|0> per qubit
        data = circular_dataset(1, seed=0)
        data.points[0] = (0.0, 0.0)
        vectors = encoding_probability_vectors(Encoding.ROT_H, data)
        np.testing.assert_allclose(vectors[0], [0.25] * 4, atol=1e-12)

    def test_rows_sum_to_one(self):
        data = circular_dataset(200, seed=3)
        for encoding in Encoding:
            vectors = encoding_probability_vectors(encoding, data)
            np.testing.assert_allclose(vectors.sum(axis=1), 1.0, atol=1e-10)

    def test_rot_h_product_state_structure(self):
        """Both qubits receive the same encoding gate, so the joint
        probabilities factor as the square of one qubit's marginals."""
        data = circular_dataset(50, seed=9)
        vectors = encoding_probability_vectors(Encoding.ROT_H, data)
        a = vectors[:, 0] + vectors[:, 1]  # p(first qubit = 0)
        np.testing.assert_allclose(vectors[:, 0], a * a, atol=1e-10)


class TestPca2d:
    def test_rank_one_data_has_zero_second_variance(self):
        rng = np.random.default_rng(0)
        direction = np.array([1.0, -2.0, 0.5, 3.0])
        rows = np.outer(rng.uniform(-1, 1, 40), direction)
        projection = pca_2d(rows)
        assert projection.explained_variance[1] == pytest.approx(0.0, abs=1e-9)

    def test_embedded_plane_recovered_isometrically(self):
        rng = np.random.default_rng(1)
        flat = rng.uniform(-1, 1, (60, 2))
        basis = np.linalg.qr(rng.normal(size=(4, 2)))[0]
        rows = flat @ basis.T
        projection = pca_2d(rows)
        original = np.linalg.norm(flat[None, :, :] - flat[:, None, :], axis=-1)
        recovered = np.linalg.norm(
            projection.projected[None, :, :] - projection.projected[:, None, :], axis=-1
        )
        np.testing.assert_allclose(recovered, original, atol=1e-9)

    def test_matches_jacobi_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            rows = rng.uniform(-1, 1, (10, 4))
            projection = pca_2d(rows)
            centered = rows - rows.mean(axis=0)
            cov = centered.T @ centered / (len(rows) - 1)
            evals, evecs = jacobi_eigensolver(cov)
            np.testing.assert_allclose(projection.explained_variance, evals[:2], atol=1e-8)
            for k in range(2):
                dot = abs(float(projection.components[k] @ evecs[:, k]))
                assert dot == pytest.approx(1.0, abs=1e-8)

    def test_components_orthonormal(self):
        rng = np.random.default_rng(3)
        projection = pca_2d(rng.uniform(0, 1, (30, 4)))
        gram = projection.components @ projection.components.T
        np.testing.assert_allclose(gram, np.eye(2), atol=1e-10)

    def test_variances_non_increasing(self):
        rng = np.random.default_rng(4)
        projection = pca_2d(rng.uniform(0, 1, (30, 4)))
        assert projection.explained_variance[0] >= projection.explained_variance[1] >= 0

    def test_degenerate_rows_give_zero_projection(self):
        rows = np.ones((5, 4))
        projection = pca_2d(rows)
        np.testing.assert_allclose(projection.projected, 0.0, atol=1e-12)
        np.testing.assert_allclose(projection.explained_variance, 0.0, atol=1e-12)

    def test_too_few_rows(self):
        with pytest.raises(ConfigurationError):
            pca_2d(np.zeros((2, 4)))

    def test_oracle_on_experiment_matrices(self):
        """PCA oracle equivalence on the exact 500x4 matrices the encoding
        study uses."""
        data = circular_dataset(500, seed=0)
        for encoding in Encoding:
            rows = encoding_probability_vectors(encoding, data)
            projection = pca_2d(rows)
            centered = rows - rows.mean(axis=0)
            cov = centered.T @ centered / (len(rows) - 1)
            evals, _ = jacobi_eigensolver(cov)
            np.testing.assert_allclose(projection.explained_variance, evals[:2], atol=1e-8)


class TestSeparabilityScore:
    def test_separated_clusters(self):
        points = np.vstack([np.full((20, 2), -3.0), np.full((20, 2), 3.0)])
        labels = np.concatenate([-np.ones(20), np.ones(20)])
        projection = PcaProjection(np.eye(2, 2), points, np.array([1.0, 1.0]))
        assert separability_score(projection, labels) == 1.0

    def test_random_labels_near_chance(self):
        rng = np.random.default_rng(12)
        points = rng.normal(size=(400, 2))
        labels = np.where(rng.uniform(size=400) < 0.5, -1.0, 1.0)
        projection = PcaProjection(np.eye(2, 2), points, np.array([1.0, 1.0]))
        score = separability_score(projection, labels)
        assert 0.5 <= score <= 0.6

    def test_score_bounded_below_by_half(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            points = rng.normal(size=(50, 2))
            labels = np.where(rng.uniform(size=50) < 0.3, -1.0, 1.0)
            projection = PcaProjection(np.eye(2, 2), points, np.array([1.0, 1.0]))
            assert 0.5 <= separability_score(projection, labels) <= 1.0


class TestEncodingStudy:
    def test_rx_separates_rot_h_does_not(self):
        study = encoding_study(n=500, seed=0)
        assert study.scores[Encoding.RX_ANGLE.value] > 0.9
        assert study.score_gap >= 0.15

    def test_rot_h_projection_is_nearly_one_dimensional(self):
        study = encoding_study(n=500, seed=0)
        variance = study.projections[Encoding.ROT_H.value].explained_variance
        assert variance[1] < 0.25 * variance[0]


@pytest.fixture(scope="module")
def report():
    return labelling_experiment(TrainConfig(seed=0), n_points=200)


class TestLabellingExperiment:
    def test_reports_three_cases(self, report):
        assert [c.name for c in report.cases] == ["inner_minus", "flipped", "flipped_with_x"]
        base = build(dissipative_qp())
        assert [c.circuit for c in report.cases] == [base, base, append_x_on_measured(base)]

    def test_inner_minus_activates_ancilla(self, report):
        case = report.case("inner_minus")
        assert case.minus_class_ancilla[1] > case.minus_class_ancilla[0]

    def test_flipped_degrades_accuracy(self, report):
        assert report.case("flipped").accuracy < report.case("inner_minus").accuracy - 0.1

    def test_x_fix_restores_accuracy(self, report):
        assert abs(report.case("flipped_with_x").accuracy - report.case("inner_minus").accuracy) < 0.05

    def test_summary_schema(self, report):
        import json

        summary = json.loads(json.dumps(report.summary()))
        assert len(summary["cases"]) == 3
        assert all(len(c["minus_class_ancilla"]) == 2 for c in summary["cases"])


class TestXFixExactness:
    def test_prediction_map_negation(self):
        rng = np.random.default_rng(2)
        circuit = build(dissipative_qp())
        flipped = append_x_on_measured(circuit)
        w = rng.uniform(0, 2 * np.pi, circuit.n_params)
        base_map = prediction_map(circuit, w, 15)
        flipped_map = prediction_map(flipped, w, 15)
        np.testing.assert_allclose(flipped_map.values, -base_map.values, atol=1e-12)
