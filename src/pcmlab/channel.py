"""Two-state Markov (Gilbert-Elliot) measurement-arrival channel.

The arrival indicator takes values in {0, 1}; ``alpha`` is the probability of
staying at 1, ``beta`` the probability of staying at 0.  Both must lie
strictly inside (0, 1): boundary values would freeze the chain in one state
and the stationarity results no longer apply.

One rule draws every word: a step with uniform ``u`` is 1 when
``u < min(alpha, 1 - beta)`` and 0 when ``u >= max(alpha, 1 - beta)``,
whatever the state before it.  In between it copies that state when
``alpha > 1 - beta`` and flips it otherwise, so each step is the value of
the last fixed step at or before it (its anchor), XOR, for flips, the
parity of the distance to the anchor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import mix64_streams

# Rows of uniforms that sample_chain_batch holds at a time.
_CHUNK = 256


@dataclass(frozen=True)
class ChannelParams:
    """Transition parameters: alpha = P(1 -> 1), beta = P(0 -> 0)."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie strictly in (0, 1), got {self.alpha}")
        if not (0.0 < self.beta < 1.0):
            raise ValueError(f"beta must lie strictly in (0, 1), got {self.beta}")


def stationary_probability(params: ChannelParams) -> float:
    """Stationary probability of arrival, ``(1 - beta) / (2 - alpha - beta)``."""
    return (1.0 - params.beta) / (2.0 - params.alpha - params.beta)


def sample_chain(
    params: ChannelParams, init_p1: float, length: int, seed: int, stream: int = 0
) -> np.ndarray:
    """The one-row case of :func:`sample_chain_batch`, on stream ``stream``."""
    return sample_chain_batch(params, init_p1, length, seed, 1, stream)[0]


def sample_chain_batch(
    params: ChannelParams,
    init_p1: float,
    length: int,
    seed: int,
    n_chains: int,
    stream_offset: int = 0,
) -> np.ndarray:
    """Independent chain realizations, shape ``(n_chains, length + 1)``, uint8.

    Row ``i`` draws ``length + 1`` uniforms from stream ``stream_offset + i``
    of ``seed``: the initial state is Bernoulli(``init_p1``) and the later
    steps follow the anchor and parity rule of the module docstring.  One
    generator is re-keyed per row (key, counter and buffer set as
    :func:`pcmlab.rng.stream_rng` leaves them; the keys of all rows come
    from one :func:`pcmlab.rng.mix64_streams` pass), and the uniforms are
    drawn and resolved ``_CHUNK`` rows at a time.  Each row's anchors come
    from a running maximum of the packed code ``2k + value`` of its fixed
    steps, held in the narrowest unsigned type that holds ``2 * length + 1``.
    """
    if length < 0:
        raise ValueError("length must be nonnegative")
    if not (0.0 <= init_p1 <= 1.0):
        raise ValueError("init_p1 must lie in [0, 1]")
    keys = mix64_streams(seed, stream_offset, n_chains).tolist()
    words = np.empty((n_chains, length + 1), dtype=np.uint8)
    a, nb = params.alpha, 1.0 - params.beta
    lo, hi = min(a, nb), max(a, nb)
    bitgen = np.random.Philox(0)
    gen = np.random.Generator(bitgen)
    state = bitgen.state
    key = state["state"]["key"]
    key[1] = 0
    state["state"]["counter"][:] = 0
    state["buffer_pos"] = 4
    u = np.empty((min(n_chains, _CHUNK), length + 1))
    # Twice each step index, in the narrowest type that holds a packed code.
    k2 = np.arange(0, 2 * length + 1, 2, dtype=np.min_scalar_type(2 * length + 1))
    codes = np.empty(u.shape, dtype=k2.dtype)
    for start in range(0, n_chains, _CHUNK):
        rows = u[: min(_CHUNK, n_chains - start)]
        for row, row_key in zip(rows, keys[start : start + rows.shape[0]]):
            key[0] = row_key
            bitgen.state = state
            gen.random(out=row)
        out = words[start : start + rows.shape[0]]
        np.less(rows, lo, out=out, casting="unsafe")
        out[:, 0] = rows[:, 0] < init_p1
        if lo < hi:
            # Code 2k + value at each fixed step k, 0 elsewhere; column 0
            # anchors itself.  The running maximum is the last fixed step's
            # code, so the anchor is its upper bits and its value the lowest.
            code = codes[: rows.shape[0]]
            np.multiply(k2, out | (rows >= hi), out=code)
            code |= out
            np.maximum.accumulate(code, axis=1, out=code)
            np.bitwise_and(code, 1, out=out, casting="unsafe")
            if a < nb:
                # Flip by the parity of k - anchor, the lowest bit of k ^ anchor.
                code ^= k2
                code >>= 1
                np.bitwise_xor(out, code, out=out, casting="unsafe")
                out &= 1
    return words
