"""numpy's SeedSequence and PCG64 streams, recomputed without numpy.random.

numpy.random stays here as the reference the streams must equal bit for bit.
"""

import numpy as np
import pytest

from qteach import seeding
from qteach.errors import ConfigurationError
from qteach.teacher_student import derive_seed

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1, 2**64, 2**100 + 7]


def random_seed(rng) -> int:
    """A seed of 1 to 3 32-bit words, or one at a word boundary."""
    if rng.integers(4) == 0:
        return EDGE_SEEDS[rng.integers(len(EDGE_SEEDS))]
    return int.from_bytes(rng.bytes(4 * int(rng.integers(1, 4))), "little") >> int(rng.integers(0, 32))


def test_generate_state_equals_seed_sequence(rng):
    """One to seven parts, each of one or more 32-bit words (more than the
    4-word pool holds, too), and 0 to 5 output words."""
    cases = [([seed], 4) for seed in EDGE_SEEDS] + [([], 2), ([0, 0, 0, 0, 0], 3)]
    for _ in range(2000):
        cases.append(([random_seed(rng) for _ in range(rng.integers(1, 8))], int(rng.integers(0, 6))))
    for parts, n in cases:
        want = np.random.SeedSequence(parts).generate_state(n, np.uint64)
        assert seeding.generate_state(parts, n) == [int(v) for v in want], parts


@pytest.mark.parametrize("size", [0, 1, 7, 24, np.int64(3), (5, 2), (0, 2)], ids=repr)
def test_uniform_equals_default_rng(size, rng):
    for seed in EDGE_SEEDS + [random_seed(rng) for _ in range(300)]:
        low = float(rng.uniform(-5.0, 5.0))
        high = low + float(rng.uniform(0.0, 10.0))
        want = np.random.default_rng(seed).uniform(low, high, size)
        got = seeding.uniform(seed, low, high, size)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), (seed, low, high, size)


def test_initial_draws_equal_default_rng():
    """The draw every teacher and student starts from."""
    for seed in range(200):
        want = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, 48)
        np.testing.assert_array_equal(seeding.uniform(seed, 0.0, 2.0 * np.pi, 48), want)


@pytest.mark.parametrize("n", [1, 3, 500, 2048])
def test_point_draws_equal_default_rng(n):
    """The (n, 2) draws of ``analysis.circular_dataset``."""
    for seed in (0, 4, 2**32, 2**64 - 1):
        want = np.random.default_rng(seed).uniform(-np.pi, np.pi, size=(n, 2))
        assert seeding.uniform(seed, -np.pi, np.pi, (n, 2)).tobytes() == want.tobytes(), (seed, n)


def test_derive_seed_equals_seed_sequence(rng):
    for _ in range(500):
        parts = [int(p) for p in rng.integers(0, 2**32, rng.integers(1, 5))] + [2**32 - 1] * int(rng.integers(2))
        want = np.random.SeedSequence(parts).generate_state(1, np.uint64)[0]
        assert derive_seed(*parts) == int(want)


def test_negative_seed_rejected():
    with pytest.raises(ConfigurationError, match=">= 0"):
        seeding.generate_state([3, -1], 1)
    with pytest.raises(ConfigurationError, match=">= 0"):
        seeding.uniform(-1, 0.0, 1.0, 2)
