"""Prediction maps, the relative-entropy comparison, and accuracy."""

import csv
import tracemalloc

import numpy as np
import pytest

from qteach import circuits, metrics
from qteach.circuits import (
    ArchitectureId,
    CircuitSpec,
    DataRef,
    Encoding,
    Family,
    ParamRef,
    SlotOp,
    build,
    dissipative_qp,
    forward_batch,
    fourier_degrees,
)
from qteach.errors import ConfigurationError, StructuralError
from qteach.metrics import (
    PredictionMap,
    accuracy,
    fourier_coefficients,
    prediction_map,
    read_prediction_map,
    relative_entropy,
    write_prediction_map,
)
from qteach.qsim import GateKind
from qteach.teacher_student import generate_dataset, make_grid

from conftest import all_models, kl_divergence, mixed_spec, normalize_to_distribution


def random_map(rng, resolution=8):
    values = rng.uniform(-1.0, 1.0, (resolution, resolution))
    return PredictionMap(resolution, -np.pi, np.pi, values)


class TestPredictionMap:
    def test_zero_weights_value_at_origin(self):
        circuit = build(dissipative_qp())
        pmap = prediction_map(circuit, np.zeros(12), resolution=5)
        # odd resolution puts (0, 0) at the center cell
        assert pmap.values[2, 2] == pytest.approx(1.0, abs=1e-12)

    def test_recomputing_from_stored_params_is_identical(self):
        grid = make_grid(5)
        dataset = generate_dataset(dissipative_qp(), grid, seed=8)
        circuit = build(dissipative_qp())
        a = prediction_map(circuit, dataset.teacher_params, 17)
        b = prediction_map(circuit, dataset.teacher_params, 17)
        np.testing.assert_array_equal(a.values, b.values)

    def test_deep_teacher_has_high_frequency_structure(self):
        """The 4-layer teacher's slice along x1 at x2 = 0 oscillates
        through at least 4 sign changes (richer frequency content than
        one encoding supports)."""
        circuit = build(ArchitectureId(Family.DEEP_TEACHER4))
        rng = np.random.default_rng(11)
        w = rng.uniform(0, 2 * np.pi, circuit.n_params)
        pmap = prediction_map(circuit, w, 51)
        center = pmap.resolution // 2
        slice_x1 = pmap.values[:, center]
        signs = np.sign(slice_x1)
        changes = int(np.sum(signs[1:] != signs[:-1]))
        assert changes >= 4

    def test_values_must_be_bounded(self):
        with pytest.raises(StructuralError):
            PredictionMap(2, -1.0, 1.0, np.array([[0.0, 2.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_values_must_be_finite(self, bad):
        with pytest.raises(StructuralError):
            PredictionMap(2, -1.0, 1.0, np.array([[0.0, bad], [0.0, 0.0]]))

    def test_resolution_must_be_at_least_two(self):
        with pytest.raises(ConfigurationError):
            prediction_map(build(dissipative_qp()), np.zeros(12), resolution=1)

    def test_resolution_must_be_an_integer(self, monkeypatch):
        """Refused before the circuit is sampled, not when the values are used."""
        monkeypatch.setattr(metrics, "fourier_coefficients", None)
        with pytest.raises(ConfigurationError):
            prediction_map(build(dissipative_qp()), np.zeros(12), resolution=5.5)

    @pytest.mark.parametrize("bounds", [(np.nan, 1.0), (-np.inf, 1.0), (0.0, np.inf)])
    def test_bounds_must_be_finite(self, bounds):
        with pytest.raises(ConfigurationError):
            prediction_map(build(dissipative_qp()), np.zeros(12), 5, bounds)

    @pytest.mark.parametrize("bounds", [(1.0, 1.0), (1.0, -1.0)])
    def test_bounds_must_be_ordered(self, bounds):
        with pytest.raises(ConfigurationError):
            prediction_map(build(dissipative_qp()), np.zeros(12), 5, bounds)

    @pytest.mark.parametrize("resolution", [1, 0, -2])
    def test_map_resolution_below_two_rejected(self, resolution):
        values = np.zeros((max(resolution, 0),) * 2)
        with pytest.raises(StructuralError):
            PredictionMap(resolution, 0.0, 1.0, values)

    @pytest.mark.parametrize("lo, hi", [(np.nan, 1.0), (0.0, np.inf), (-np.inf, 0.0), (1.0, 1.0), (1.0, -1.0)])
    def test_map_bounds_must_be_finite_and_ordered(self, lo, hi):
        with pytest.raises(StructuralError):
            PredictionMap(2, lo, hi, np.zeros((2, 2)))


def _direct_map(circuit, w, resolution, bounds):
    """One forward evaluation per grid point: the reference the spectral
    maps are checked against."""
    axis = np.linspace(bounds[0], bounds[1], resolution)
    x1, x2 = np.meshgrid(axis, axis, indexing="ij")
    points = np.column_stack([x1.ravel(), x2.ravel()])
    return forward_batch(circuit, points, w).reshape(resolution, resolution)


class TestSpectralMap:
    """Maps summed from the Fourier series against direct evaluation."""

    def _check(self, circuit, rng):
        for _ in range(2):
            w = rng.uniform(0, 2 * np.pi, circuit.n_params)
            for resolution in (2, 3, 17, 51):
                for bounds in ((-np.pi, np.pi), (-1.0, 1.0)):
                    pmap = prediction_map(circuit, w, resolution, bounds)
                    assert (pmap.lo, pmap.hi) == bounds
                    np.testing.assert_allclose(
                        pmap.values, _direct_map(circuit, w, resolution, bounds), rtol=0, atol=1e-12
                    )

    @pytest.mark.parametrize("arch", all_models())
    def test_matches_direct_evaluation(self, arch, rng):
        self._check(build(arch), rng)

    def test_mixed_data_and_parameter_rotations(self, rng):
        circuit = mixed_spec()
        assert fourier_degrees(circuit) == (2, 1)
        self._check(circuit, rng)

    def test_measured_qubit_blind_to_data_is_exactly_constant(self, rng):
        ops = (
            SlotOp(GateKind.RX, (0,), angles=(DataRef(0),)),
            SlotOp(GateKind.RY, (0,), angles=(DataRef(1),)),
            SlotOp(GateKind.ROT, (1,), angles=(ParamRef(0), ParamRef(1), ParamRef(2))),
        )
        circuit = CircuitSpec(n_qubits=2, ops=ops, measured_qubit=1, n_params=3, encoding_count=1)
        w = rng.uniform(0, 2 * np.pi, 3)
        values = prediction_map(circuit, w, 31).values
        assert np.ptp(values) == 0.0
        assert values[0, 0] == pytest.approx(np.cos(w[1]), abs=1e-12)

    @pytest.mark.parametrize("arch", all_models())
    def test_no_frequency_above_slot_degree(self, arch, rng):
        """Oracle-free: on a periodic grid finer than the degree bound needs,
        the spectrum of directly evaluated outputs is empty above it."""
        circuit = build(arch)
        d1, d2 = fourier_degrees(circuit)
        m = 2 * max(d1, d2) + 4
        t = 2 * np.pi * np.arange(m) / m
        x1, x2 = np.meshgrid(t, t, indexing="ij")
        w = rng.uniform(0, 2 * np.pi, circuit.n_params)
        samples = forward_batch(circuit, np.column_stack([x1.ravel(), x2.ravel()]), w)
        spectrum = np.abs(np.fft.fft2(samples.reshape(m, m))) / m**2
        k = np.abs(np.fft.fftfreq(m, 1.0 / m))
        above = (k[:, None] > d1) | (k[None, :] > d2)
        assert spectrum[above].max() <= 1e-12
        assert spectrum[~above].max() > 1e-3


def _dense_values(pmap):
    """The whole grid's series summed at once, as maps were summed before
    they were kept as coefficients: the blocked sums must equal it bit for
    bit."""
    axis = pmap.axis()
    waves1, waves2 = (np.exp(1j * axis[:, None] * np.fft.fftfreq(n, 1.0 / n)) for n in pmap.coefficients.shape)
    values = np.einsum("ik,kj->ij", waves1, np.einsum("kl,jl->kj", pmap.coefficients, waves2)).real
    return np.clip(values, -1.0, 1.0)


def _two_maps(rng, resolution, arch=ArchitectureId(Family.DEEP_TEACHER4, encoding=Encoding.ROT_H)):
    """Two maps of random draws of ``arch``, by default the model with the
    largest series (17 x 17 coefficients)."""
    circuit = build(arch)
    return [prediction_map(circuit, rng.uniform(0, 2 * np.pi, circuit.n_params), resolution) for _ in range(2)]


class TestCoefficientMap:
    """Maps kept as Fourier coefficients and summed in row blocks."""

    def test_map_keeps_the_fourier_coefficients(self, rng):
        circuit = build(ArchitectureId(Family.REUPLOADING, layers=2))
        w = rng.uniform(0, 2 * np.pi, circuit.n_params)
        pmap = prediction_map(circuit, w, 31)
        d1, d2 = fourier_degrees(circuit)
        assert pmap.coefficients.shape == (2 * d1 + 1, 2 * d2 + 1)
        np.testing.assert_array_equal(pmap.coefficients, fourier_coefficients(circuit, w))

    @pytest.mark.parametrize("resolution", [51, 251, 1001])
    @pytest.mark.parametrize("arch", all_models())
    def test_blocks_equal_the_dense_sum_bit_for_bit(self, arch, resolution, rng, monkeypatch):
        """1-row blocks, ragged blocks (6 and 64 rows divide none of the
        resolutions), and the default blocks: one up to 256 rows, 65 rows
        at 1001."""
        circuit = build(arch)
        pmap = prediction_map(circuit, rng.uniform(0, 2 * np.pi, circuit.n_params), resolution)
        dense = _dense_values(pmap)
        for rows in (1, 6, 64, None):
            if rows is not None:
                monkeypatch.setattr(circuits, "_BLOCK_BYTES", 16 * resolution * rows)
            full, rest = divmod(resolution, pmap.block_rows())
            assert [len(block) for block in pmap.blocks()] == [pmap.block_rows()] * full + [rest] * (rest > 0)
            np.testing.assert_array_equal(pmap.values, dense)
            monkeypatch.undo()
        if resolution == 1001:
            assert pmap.block_rows() == 65
        else:
            assert pmap.block_rows() >= resolution  # a whole map of up to 256 x 256 is one block

    def test_stored_array_map_gives_its_values_in_blocks(self, rng):
        pmap = random_map(rng, resolution=9)
        expected = pmap.values.copy()
        blocks = list(pmap.blocks(4))
        assert [len(block) for block in blocks] == [4, 4, 1]
        np.testing.assert_array_equal(np.concatenate(blocks), expected)
        blocks[0][:] = 0.0  # a block is the caller's own copy
        np.testing.assert_array_equal(pmap.values, expected)

    def test_relative_entropy_in_blocks_matches_the_dense_formula(self, rng):
        teacher, student = _two_maps(rng, 1001)
        assert teacher.block_rows() < teacher.resolution
        dense = [PredictionMap(1001, m.lo, m.hi, _dense_values(m)) for m in (teacher, student)]
        expected = kl_divergence(*map(normalize_to_distribution, dense))
        assert relative_entropy(teacher, student) == pytest.approx(expected, rel=1e-12, abs=0)
        assert relative_entropy(*dense) == pytest.approx(expected, rel=1e-12, abs=0)

    @pytest.mark.parametrize("resolution", [251, 1001])
    def test_relative_entropy_of_one_block_is_bit_identical(self, rng, monkeypatch, resolution):
        teacher, student = _two_maps(rng, resolution)
        monkeypatch.setattr(circuits, "_BLOCK_BYTES", max(circuits._BLOCK_BYTES, 16 * resolution**2))
        assert teacher.block_rows() >= resolution
        expected = kl_divergence(normalize_to_distribution(teacher), normalize_to_distribution(student))
        assert relative_entropy(teacher, student) == expected

    @pytest.mark.parametrize("level", [-1.0, 0.3, 1.0])
    def test_constant_maps_in_blocks_have_zero_relative_entropy(self, monkeypatch, level):
        monkeypatch.setattr(circuits, "_BLOCK_BYTES", 16 * 7 * 2)
        a = PredictionMap(7, 0.0, 1.0, np.full((7, 7), level))
        b = PredictionMap(7, 0.0, 1.0, np.zeros((7, 7)))
        assert relative_entropy(a, b) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("rows", [1, 6, 64, None])
    def test_csv_bytes_equal_the_whole_map_writer(self, tmp_path, rng, monkeypatch, rows):
        pmap = _two_maps(rng, 251, ArchitectureId(Family.QNN_TWO_QP))[0]
        if rows is not None:
            monkeypatch.setattr(circuits, "_BLOCK_BYTES", 16 * 251 * rows)
        write_prediction_map(pmap, tmp_path / "map.csv")
        whole = (f"resolution,lo,hi\r\n251,{pmap.lo!r},{pmap.hi!r}\r\n"
                 + "".join(",".join(map(repr, row)) + "\r\n" for row in _dense_values(pmap).tolist()))
        assert (tmp_path / "map.csv").read_bytes() == whole.encode()

    def test_writing_and_comparing_large_maps_stay_within_two_mib(self, tmp_path, rng):
        teacher, student = _two_maps(rng, 1001)
        tracemalloc.start()
        try:
            write_prediction_map(teacher, tmp_path / "map.csv")
            relative_entropy(teacher, student)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20 < 1001**2 * 8

    def test_coefficients_must_be_a_finite_matrix(self):
        for coefficients in (np.zeros(3), np.full((3, 3), np.nan)):
            with pytest.raises(StructuralError):
                PredictionMap(5, -1.0, 1.0, coefficients=coefficients)
        with pytest.raises(StructuralError):
            PredictionMap(2, -1.0, 1.0, np.zeros((2, 2)), coefficients=np.zeros((3, 3)))


class TestNormalizeToDistribution:
    def test_constant_zero_map_is_uniform(self):
        pmap = PredictionMap(2, 0.0, 1.0, np.zeros((2, 2)))
        np.testing.assert_allclose(normalize_to_distribution(pmap), [0.25] * 4)

    def test_constant_minus_one_map_is_uniform(self):
        pmap = PredictionMap(2, 0.0, 1.0, -np.ones((2, 2)))
        np.testing.assert_allclose(normalize_to_distribution(pmap), [0.25] * 4)

    def test_strictly_positive_and_normalized(self, rng):
        for _ in range(20):
            p = normalize_to_distribution(random_map(rng))
            assert p.min() > 0
            assert abs(p.sum() - 1.0) < 1e-12


class TestRelativeEntropy:
    def test_self_entropy_is_zero(self, rng):
        pmap = random_map(rng)
        assert relative_entropy(pmap, pmap) == pytest.approx(0.0, abs=1e-12)

    def test_constant_maps_of_different_levels_agree(self):
        a = PredictionMap(3, 0.0, 1.0, np.full((3, 3), 0.5))
        b = PredictionMap(3, 0.0, 1.0, np.full((3, 3), -0.5))
        assert relative_entropy(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_distribution_value(self):
        # S([0.5, 0.5] || [0.25, 0.75]) = 0.5 ln 2 + 0.5 ln(2/3)
        expected = 0.5 * np.log(2.0) + 0.5 * np.log(2.0 / 3.0)
        assert kl_divergence([0.5, 0.5], [0.25, 0.75]) == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(0.14384103622589045, abs=1e-15)

    def test_gibbs_inequality_on_random_maps(self, rng):
        for _ in range(200):
            assert relative_entropy(random_map(rng), random_map(rng)) >= 0.0

    def test_asymmetric_direction_pinned(self, rng):
        teacher = random_map(rng)
        student = random_map(rng)
        forward_value = relative_entropy(teacher, student)
        backward_value = relative_entropy(student, teacher)
        assert forward_value != pytest.approx(backward_value, abs=1e-12)
        p = normalize_to_distribution(teacher)
        q = normalize_to_distribution(student)
        assert forward_value == pytest.approx(float(np.sum(p * np.log(p / q))), abs=1e-12)

    def test_grid_mismatch_rejected(self, rng):
        a = random_map(rng, resolution=8)
        b = random_map(rng, resolution=9)
        with pytest.raises(StructuralError):
            relative_entropy(a, b)


class TestAccuracy:
    def test_exact_match(self):
        assert accuracy([0.5, -0.5], [1.0, -1.0]) == 1.0

    def test_all_flipped(self):
        assert accuracy([-0.5, 0.5], [1.0, -1.0]) == 0.0

    def test_two_of_three(self):
        assert accuracy([0.3, -0.2, 0.9], [1.0, 1.0, 1.0]) == pytest.approx(2 / 3)

    def test_scale_invariance(self, rng):
        preds = rng.uniform(-1, 1, 50)
        labels = np.where(rng.uniform(size=50) < 0.5, -1.0, 1.0)
        assert accuracy(preds, labels) == accuracy(preds * 0.037, labels)

    def test_length_mismatch_rejected(self):
        with pytest.raises(StructuralError):
            accuracy([1.0], [1.0, -1.0])

    def test_no_points_rejected(self):
        """The accuracy of no points is an error, not NaN."""
        with pytest.raises(StructuralError, match="no points"):
            accuracy([], [])


class TestMapCsv:
    def test_round_trip(self, tmp_path, rng):
        pmap = random_map(rng, resolution=6)
        path = tmp_path / "map.csv"
        write_prediction_map(pmap, path)
        loaded = read_prediction_map(path)
        assert loaded.resolution == pmap.resolution
        assert loaded.lo == pmap.lo and loaded.hi == pmap.hi
        np.testing.assert_array_equal(loaded.values, pmap.values)

    def test_bytes_match_csv_writer(self, tmp_path):
        values = np.array([[0.0, -0.0, 1e-300], [1.0, -1.0, 0.1], [-1e-300, 0.5, -0.123456789]])
        pmap = PredictionMap(3, -np.pi, 1.0, values)
        path = tmp_path / "map.csv"
        write_prediction_map(pmap, path)
        expected = tmp_path / "expected.csv"
        with open(expected, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["resolution", "lo", "hi"])
            writer.writerow([pmap.resolution, repr(float(pmap.lo)), repr(float(pmap.hi))])
            for row in pmap.values:
                writer.writerow([repr(float(v)) for v in row])
        assert path.read_bytes() == expected.read_bytes()
        assert b"-0.0," in path.read_bytes()

    @pytest.mark.parametrize("text", [
        "a,b\n1,2\n",
        "resolution,lo,hi\n2,-1.0,1.0\n0.1,0.2\n0.3\n",
        "resolution,lo,hi\n2,-1.0,1.0\n0.1,0.2\n0.3,high\n",
        "resolution,lo,hi\n2.5,-1.0,1.0\n0.1,0.2\n0.3,0.4\n",
        "resolution,lo,hi\n2\n0.1,0.2\n0.3,0.4\n",
        "resolution,lo,hi\n2,nan,inf\n0.1,0.2\n0.3,0.4\n",
        "resolution,lo,hi\n2,1.0,-1.0\n0.1,0.2\n0.3,0.4\n",
        "resolution,lo,hi\n1,-1.0,1.0\n0.1\n",
        "resolution,lo,hi\n2,-1.0,1.0\n0.1,0.2\n",
        "resolution,lo,hi\n2,-1.0,1.0\n0.1,0.2\n0.3,0.4\n0.5,0.6\n",
        "resolution,lo,hi\n2,-1.0,1.0\n0.1,0.2\n\n0.3,0.4\n",
        "resolution,lo,hi\n100000,-1.0,1.0\n0.1,0.2\n0.3,0.4\n",
        "",
    ], ids=["foreign_header", "ragged_rows", "non_numeric_value", "non_integer_resolution",
            "one_field_header_row", "non_finite_bounds", "inverted_bounds", "resolution_one",
            "missing_row", "extra_row", "blank_row", "resolution_beyond_the_file", "empty_file"])
    def test_rejects_foreign_csv(self, tmp_path, text):
        path = tmp_path / "junk.csv"
        path.write_text(text)
        with pytest.raises(StructuralError):
            read_prediction_map(path)
