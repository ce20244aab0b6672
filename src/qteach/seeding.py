"""numpy's seed streams, computed without importing numpy's random package.

``generate_state(parts, n)`` equals numpy's ``SeedSequence(parts)
.generate_state(n, np.uint64)`` and ``uniform(seed, low, high, size)``
equals numpy's ``default_rng(seed).uniform(low, high, size)``, bit for
bit: both are plain integer arithmetic, the SeedSequence hash and the
PCG64 generator (O'Neill, HMC-CS-2014-0905, XSL-RR output), redone here
on Python integers.  So the seeds and draws do not change with the
installed numpy, and a run does not pay for importing the random package
(which loads ``secrets``, ``hashlib`` and OpenSSL).  A draw costs about
0.5 us (0.5 ms for ``analysis.circular_dataset``'s default 500 points),
so against the import's 8 ms or so it breaks even near 16,000 draws.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import ConfigurationError

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def integer(value, what: str) -> int:
    """``value`` as a Python int: Python and numpy integers pass, anything
    else is a ConfigurationError naming ``what``, not truncated by
    ``int`` (numpy's SeedSequence rejects a float seed too)."""
    try:
        return operator.index(value)
    except TypeError:
        raise ConfigurationError(f"{what} must be an integer, got {value!r}") from None


def _words(parts) -> list[int]:
    """The non-negative integers ``parts`` as one list of little-endian
    32-bit words (0 gives one zero word)."""
    words = []
    for part in parts:
        part = integer(part, "seed parts")
        if part < 0:
            raise ConfigurationError(f"seed parts must be >= 0, got {part}")
        words.append(part & _M32)
        while part > _M32:
            part >>= 32
            words.append(part & _M32)
    return words


def _mix(x: int, y: int) -> int:
    x = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
    return x ^ x >> 16


def _pool(words: list[int]) -> list[int]:
    """SeedSequence's 4-word entropy pool for the 32-bit ``words``."""
    const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * 0x931E8875 & _M32
        value = value * const & _M32
        return value ^ value >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    return pool


def generate_state(parts, n: int) -> list[int]:
    """The ``n`` 64-bit words of ``SeedSequence(parts).generate_state(n,
    np.uint64)``, as Python integers."""
    pool, const, out = _pool(_words(parts)), 0x8B51F9DD, []
    for i in range(2 * n):
        value = pool[i % 4] ^ const
        const = const * 0x58F38DED & _M32
        value = value * const & _M32
        out.append(value ^ value >> 16)
    return [out[2 * i] | out[2 * i + 1] << 32 for i in range(n)]


def uniform(seed: int, low: float, high: float, size) -> np.ndarray:
    """numpy's ``default_rng(seed).uniform(low, high, size)``: PCG64
    seeded from ``SeedSequence(seed)``, one 53-bit double per draw."""
    s0, s1, s2, s3 = generate_state([seed], 4)
    inc = ((s2 << 64 | s3) << 1 | 1) & _M128
    # state 0 stepped once is inc; add the initial state and step again
    state = ((inc + (s0 << 64 | s1)) * _PCG_MULTIPLIER + inc) & _M128
    shape = (size,) if np.ndim(size) == 0 else tuple(size)
    span, draws = high - low, []
    for _ in range(int(np.prod(shape))):
        state = (state * _PCG_MULTIPLIER + inc) & _M128
        x, rot = (state >> 64 ^ state) & _M64, state >> 122
        x = (x >> rot | x << (64 - rot)) & _M64
        draws.append(low + span * ((x >> 11) * 2.0**-53))
    return np.array(draws, dtype=float).reshape(shape)
