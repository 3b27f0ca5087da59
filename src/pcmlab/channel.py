"""Two-state Markov (Gilbert-Elliot) measurement-arrival channel.

The arrival indicator takes values in {0, 1}; ``alpha`` is the probability of
staying at 1, ``beta`` the probability of staying at 0.  Both must lie
strictly inside (0, 1): boundary values would freeze the chain in one state
and the stationarity results no longer apply.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import mix64, stream_rng

# Rows of uniforms that sample_chain_batch holds at a time.
_CHUNK = 512


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
    """Sample one chain realization of ``length`` steps after the initial draw.

    The initial state is Bernoulli(``init_p1``); each subsequent state follows
    the channel transition law.  Output has ``length + 1`` entries (uint8) and
    is a deterministic function of ``(params, init_p1, length, seed, stream)``.
    """
    if length < 0:
        raise ValueError("length must be nonnegative")
    if not (0.0 <= init_p1 <= 1.0):
        raise ValueError("init_p1 must lie in [0, 1]")
    u = stream_rng(seed, stream).random(length + 1)
    a, nb = params.alpha, 1.0 - params.beta
    lo, hi = min(a, nb), max(a, nb)
    # Step k is 1 when u[k] < lo and 0 when u[k] >= hi, whatever the state
    # before it.  In between it copies that state when a > nb and flips it
    # when a < nb, so each step follows from the last fixed step at or
    # before it and, for flips, the parity of the distance to that step.
    fixed = (u < lo) | (u >= hi)
    fixed[0] = True
    value = u < lo
    value[0] = u[0] < init_p1
    k = np.arange(length + 1)
    anchor = np.maximum.accumulate(np.where(fixed, k, 0))
    word = value[anchor]
    if a < nb:
        word ^= ((k - anchor) & 1).astype(bool)
    return word.view(np.uint8)


def sample_chain_batch(
    params: ChannelParams,
    init_p1: float,
    length: int,
    seed: int,
    n_chains: int,
    stream_offset: int = 0,
) -> np.ndarray:
    """Independent chain realizations, one derived stream per row.

    Row ``i`` uses stream ``stream_offset + i`` of ``seed``, so a batch is
    bit-identical to ``n_chains`` separate :func:`sample_chain` calls with the
    same stream indices.  Shape: ``(n_chains, length + 1)``.

    One generator is re-keyed per row (key, counter and buffer set as
    :func:`stream_rng` leaves them), and the uniforms are drawn ``_CHUNK``
    rows at a time.  Each uniform is classified by the rule of
    :func:`sample_chain` into 1, 0 or "follows the previous state", and the
    last class is resolved column by column in place.
    """
    words = np.empty((n_chains, length + 1), dtype=np.uint8)
    a, nb = params.alpha, 1.0 - params.beta
    lo, hi = min(a, nb), max(a, nb)
    bitgen = np.random.Philox(0)
    gen = np.random.Generator(bitgen)
    state = bitgen.state
    u = np.empty((min(n_chains, _CHUNK), length + 1))
    for start in range(0, n_chains, _CHUNK):
        rows = u[: min(_CHUNK, n_chains - start)]
        for i, row in enumerate(rows, start + stream_offset):
            state["state"]["key"][:] = (mix64(seed, i), 0)
            state["state"]["counter"][:] = 0
            state["buffer_pos"] = 4
            bitgen.state = state
            gen.random(out=row)
        # A step is 1 where u < lo and 0 where u >= hi, whatever the state
        # before it; in between it is marked 2, to copy or flip that state.
        out = words[start : start + rows.shape[0]]
        np.less(rows, lo, out=out, casting="unsafe")
        np.copyto(out, 2, where=(rows >= lo) & (rows < hi))
        out[:, 0] = rows[:, 0] < init_p1
    if lo < hi:
        flip = np.uint8(a < nb)
        for k in range(1, length + 1):
            col = words[:, k]
            np.copyto(col, words[:, k - 1] ^ flip, where=col == 2)
    return words
