"""Deterministic random-stream derivation.

Every stochastic routine in this package draws from a Philox4x64 counter-based
generator (fixed, published round constants), keyed by a 64-bit value derived
from the run's master seed and a stream index through the SplitMix64 finalizer
(constants 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB).  The
same (master_seed, stream) pair therefore yields the same bits on every
platform, which is what makes emitted tables byte-reproducible.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def mix64(master_seed: int, stream: int) -> int:
    """SplitMix64 finalizer applied to ``master_seed + GOLDEN * stream``.

    Both must lie in ``[0, 2**64)``: the finalizer works modulo 2**64, so a
    value outside would alias one inside.
    """
    master_seed, stream = int(master_seed), int(stream)
    for name, value in (("seed", master_seed), ("stream", stream)):
        if not 0 <= value <= _MASK64:
            raise ValueError(f"{name} must lie in [0, 2**64), got {value}")
    z = (master_seed + 0x9E3779B97F4A7C15 * (stream + 1)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def stream_rng(master_seed: int, stream: int = 0) -> np.random.Generator:
    """Independent generator for stream ``stream`` of a master seed."""
    return np.random.Generator(np.random.Philox(key=mix64(master_seed, stream)))
