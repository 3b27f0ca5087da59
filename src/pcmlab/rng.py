"""Deterministic random-stream derivation.

Every stochastic routine in this package draws from a Philox4x64 counter-based
generator (fixed, published round constants), keyed by a 64-bit value derived
from the run's master seed and a stream index through the SplitMix64 finalizer
(constants 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB).  The
same (master_seed, stream) pair therefore yields the same bits on every
platform, which is what makes emitted tables byte-reproducible on one
machine and library build (the PCM and distance bits still follow the
BLAS and SIMD kernels dispatched).
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def mix64(master_seed: int, stream: int) -> int:
    """SplitMix64 finalizer applied to ``master_seed + GOLDEN * stream``.

    Both must lie in ``[0, 2**64)``: the finalizer works modulo 2**64, so a
    value outside would alias one inside.
    """
    return int(mix64_streams(master_seed, stream, 1)[0])


def mix64_streams(master_seed: int, first: int, count: int) -> np.ndarray:
    """``mix64(master_seed, s)`` for the ``count`` streams ``s`` from
    ``first`` on, as a uint64 array, in one pass of array arithmetic
    (uint64 arrays wrap modulo 2**64, as the finalizer does)."""
    master_seed, first, count = int(master_seed), int(first), int(count)
    last = first + max(count, 1) - 1
    for name, value in (("seed", master_seed), ("stream", first), ("stream", last)):
        if not 0 <= value <= _MASK64:
            raise ValueError(f"{name} must lie in [0, 2**64), got {value}")
    z = np.arange(count, dtype=np.uint64)
    z += np.uint64(first)
    z += np.uint64(1)
    z *= np.uint64(0x9E3779B97F4A7C15)
    z += np.uint64(master_seed)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def stream_rng(master_seed: int, stream: int = 0) -> np.random.Generator:
    """Independent generator for stream ``stream`` of a master seed."""
    return np.random.Generator(np.random.Philox(key=mix64(master_seed, stream)))
