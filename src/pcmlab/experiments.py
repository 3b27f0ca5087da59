"""Monte-Carlo protocol: empirical law, ergodic averaging, cluster tables.

Two sampling regimes produce distance samples (decimal-log units):

- *empirical*: many independent trials, each evolving the PCM from a large
  multiple of the identity over a fresh arrival word, sampled at the final
  horizon;
- *ergodic*: a single long trajectory started at the fixed point with the
  arrival chain initialized at its stationary law.

Samples are binned into equal-width histograms and, for table output,
assigned to clusters around the open-loop orbit distances.  Empirical trials
use one derived generator stream per trial (streams ``0..trials-1``); the
ergodic and synthetic-run chains use dedicated high stream offsets so the
two regimes never share bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams, sample_chain, sample_chain_batch, stationary_probability
from .pdm import NotPositiveDefiniteError, PDMatrix, distances_to, not_positive_definite
from .plant import (
    ModifiedPlant,
    NominalPlant,
    _advance,
    _branch_blocks,
    _walk,
    build_modified_plant,
)
from .riccati import orbit_distances, solve_dare
from .stationary import LN10, delta_distribution

# Stream offsets reserved for non-trial chains (trials take 0..trials-1).
ERGODIC_STREAM = 1 << 48
SIMULATE_CHAIN_STREAM = (1 << 48) + 1
SIMULATE_NOISE_STREAM = (1 << 48) + 2

# Steps per segment of the parallel-in-time ergodic grid, and the most
# segments of a 2x2 word that the ergodic run walks in plain floats instead
# (see run_ergodic).  They set the run's speed only, never its output.
_SEGMENT = 1000
_WALK_SEGMENTS = 100


class NonFiniteSampleError(FloatingPointError):
    """A distance sample is NaN or infinite, so no bin or cluster holds it."""


def _finite_samples(samples) -> np.ndarray:
    samples = np.asarray(samples, dtype=float)
    bad = np.flatnonzero(~np.isfinite(samples))
    if bad.size:
        raise NonFiniteSampleError(
            f"{bad.size} of {samples.size} distance samples are not finite "
            f"(first at index {bad[0]}: {samples[bad[0]]!r})"
        )
    return samples


@dataclass(frozen=True)
class Histogram:
    """Equal-width histogram of distance samples over ``[0, delta_max)``.

    Bin ``i`` covers ``[i * delta_max / n_bins, (i+1) * delta_max / n_bins)``.
    Samples at or beyond ``delta_max`` are counted in ``overflow`` rather
    than silently dropped, so ``sum(counts) + overflow == total``.
    """

    delta_max: float
    n_bins: int
    counts: np.ndarray
    total: int
    normalized: np.ndarray
    overflow: int = 0


@dataclass(frozen=True)
class ClusterTable:
    """Cluster masses over one distance ladder, one column per method.

    ``columns`` maps each method's name, in table order, to ``(fractions,
    unassigned)``: the mass of the cluster around each distance, and the
    mass outside every cluster.
    """

    distances: np.ndarray
    columns: dict[str, tuple[np.ndarray, float]]

    def __post_init__(self):
        k = len(self.distances)
        for name, (col, _) in self.columns.items():
            if len(col) != k:
                raise ValueError(f"column {name} has length {len(col)}, expected {k}")
            if np.sum(col) > 1.0 + 1e-9:
                raise ValueError(f"column {name} sums above 1")


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one simulation/approximation run.

    ``horizon`` is the per-trial word length for empirical runs;
    ``ergodic_length`` (falling back to ``horizon`` when unset) is the total
    length of single-trajectory runs.  ``master_seed`` lies in
    ``[0, 2**64)``, or is None for purely deterministic commands; stochastic
    routines then refuse to run rather than pulling silent entropy.
    """

    plant: NominalPlant
    channel: ChannelParams
    trials: int = 5_000
    horizon: int = 400
    ergodic_length: int | None = None
    init_p1: float = 0.7
    init_pcm_scale: float = 1_000.0
    n_e_bins: int = 200
    delta_max: float = 1.6
    n_d: int = 5
    n_s: int = 10
    master_seed: int | None = None

    @property
    def effective_ergodic_length(self) -> int:
        return self.horizon if self.ergodic_length is None else self.ergodic_length

    def __post_init__(self):
        for name in ("trials", "horizon", "ergodic_length", "n_e_bins", "n_d", "n_s", "master_seed"):
            value = getattr(self, name)
            unset = value is None and name in ("ergodic_length", "master_seed")
            if type(value) is not int and not unset:  # bool and float are refused
                raise TypeError(f"{name} must be an integer, got {value!r}")
            # With n_s = 1, interior cluster i covers (d_{i-1}, d_{i+1}] and
            # overlaps its neighbours.
            least = 2 if name == "n_s" else 1
            if not unset and name != "master_seed" and value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")
        # The seed mixer works modulo 2**64; a seed outside would alias one inside.
        if self.master_seed is not None and not 0 <= self.master_seed < 1 << 64:
            raise ValueError(f"master_seed must lie in [0, 2**64), got {self.master_seed}")
        if not (0.0 <= self.init_p1 <= 1.0):
            raise ValueError("init_p1 must lie in [0, 1]")
        if not self.init_pcm_scale > 0:
            raise ValueError("init_pcm_scale must be positive")
        if not self.delta_max > 0:
            raise ValueError("delta_max must be positive")

    def require_seed(self) -> int:
        if self.master_seed is None:
            raise ValueError(
                "master_seed is required for stochastic commands; set it in the "
                "config or pass --seed"
            )
        return self.master_seed


@dataclass(frozen=True)
class PreparedPlant:
    """Solved artifacts shared by every experiment on one config."""

    mp: ModifiedPlant
    p_star: PDMatrix
    ladder: np.ndarray  # decimal-log orbit distances d_0..d_{n_d}


def prepare(cfg: ExperimentConfig) -> PreparedPlant:
    """Build the modified plant and solve the (structure-checked) fixed point."""
    mp = build_modified_plant(cfg.plant)
    p_star = solve_dare(mp).p_star
    ladder = orbit_distances(mp, p_star, cfg.n_d) / LN10
    return PreparedPlant(mp=mp, p_star=p_star, ladder=ladder)


def make_histogram(samples: np.ndarray, delta_max: float, n_bins: int) -> Histogram:
    """Bin finite samples; raises :class:`NonFiniteSampleError` otherwise."""
    samples = _finite_samples(samples)
    with np.errstate(over="ignore"):
        idx = samples / (delta_max / n_bins)
    np.floor(idx, out=idx)
    in_range = (samples >= 0) & (idx < n_bins)
    # Park the rest in bin n_bins before the cast: a quotient past 2**63 or
    # past the largest float (a tiny width) would not survive it.
    idx[~in_range] = n_bins
    counts = np.bincount(idx.astype(np.int64), minlength=n_bins)[:n_bins]
    overflow = int(samples.size - np.count_nonzero(in_range))
    return Histogram(
        delta_max=delta_max,
        n_bins=n_bins,
        counts=counts,
        total=int(samples.size),
        normalized=counts / samples.size,
        overflow=overflow,
    )


def run_empirical(
    cfg: ExperimentConfig, prep: PreparedPlant | None = None
) -> tuple[np.ndarray, Histogram]:
    """Independent-trial sampling of the PCM law at the final horizon.

    Each trial draws its own arrival word (stream ``i`` of the master seed),
    evolves the PCM from ``init_pcm_scale * I``, and records the decimal-log
    distance of the final PCM to the fixed point.  Trials are evolved as one
    batched array; the result is deterministic in the config.

    When the distances fail because a final PCM breaks ``PDMatrix``'s rules
    (non-finite entries included), the first such trial is replayed alone
    and :class:`NotPositiveDefiniteError` names it, the first step at which
    it breaks the rules and the drop run ending there.  A run whose
    distances succeed does no checking beyond them.
    """
    seed = cfg.require_seed()
    if prep is None:
        prep = prepare(cfg)
    blocks = _branch_blocks(prep.mp)
    n = prep.mp.n

    words = sample_chain_batch(cfg.channel, cfg.init_p1, cfg.horizon, seed, cfg.trials)
    p0 = cfg.init_pcm_scale * np.eye(n)
    p = np.broadcast_to(p0, (cfg.trials, n, n)).copy()
    # A breakdown lets inf/NaN through the loop; it is found after the run.
    _advance(blocks, p, words[:, 1:])
    samples = _checked_distances(prep.p_star, p)
    if samples is None:
        bad = np.flatnonzero(not_positive_definite(p))
        trial = int(bad[0])
        path = _walk(blocks, p0, words[trial, 1:])
        raise NotPositiveDefiniteError(
            f"empirical trial {trial}: {_breakdown(path, words[trial])}; "
            f"{bad.size} of {cfg.trials} trials end not positive definite"
        )
    return samples, make_histogram(samples, cfg.delta_max, cfg.n_e_bins)


def _checked_distances(p_star: PDMatrix, mats: np.ndarray) -> np.ndarray | None:
    """Decimal-log distances of ``mats`` to ``p_star``, or None when they
    fail because a matrix of the stack breaks ``PDMatrix``'s rules."""
    try:
        return distances_to(p_star, mats) / LN10
    except NotPositiveDefiniteError:
        if not_positive_definite(mats).any():
            return None
        raise


def _breakdown(path: np.ndarray, word: np.ndarray) -> str:
    """Name the first step of ``path`` that fails ``PDMatrix``'s rules and
    the drop run of ``word`` ending there."""
    step = int(np.flatnonzero(not_positive_definite(path))[0])
    arrivals = np.flatnonzero(word[1 : step + 1])
    drops = step - 1 - int(arrivals[-1]) if arrivals.size else step
    return f"the PCM at step {step} is not positive definite, after {drops} consecutive drops"


def run_ergodic(
    cfg: ExperimentConfig, prep: PreparedPlant | None = None
) -> tuple[np.ndarray, Histogram]:
    """Single-trajectory time sampling started at the fixed point.

    The arrival chain is initialized at its stationary probability (not the
    empirical ``init_p1``) and the PCM at the fixed point, which is what
    makes time averages converge to the stationary law.  Samples include the
    initial step, so ``horizon + 1`` distances are returned.

    The path is bit-identical to applying the branch maps one step after
    another, and it is built one of two ways, chosen by the size of the
    input alone.  A 2x2 word of at most ``_WALK_SEGMENTS`` segments of
    ``_SEGMENT`` steps (the desk tables and the full-scale run) is walked in
    Python floats by ``plant._walk``: on a word that short, numpy call
    overhead, not arithmetic, is the cost of any batched evaluation.  Longer
    words and other sizes are evaluated parallel in time on a segment grid,
    whose overhead is then spread over hundreds of rows, and then verified.

    The grid pads the arrival word with arrivals to whole segments of
    ``_SEGMENT`` steps; segment ``j`` owns the steps after its seam, step
    ``j * _SEGMENT``.  One batched pass runs every segment over its own
    steps from the fixed point.  The recursion forgets its start, and in
    floating point the forgetting is exact: two runs driven by the same word
    become bit-identical after some hundreds of steps and stay so.  So
    segment 0 is exact, and every later one is exact from the first step at
    which it meets the true path.

    A verify walk finds that step.  Segment by segment, in order, it walks
    from the exact state at the seam through ``plant._walk``'s maps and
    stops at the first step whose state equals, bit for bit, the value the
    batched pass stored there.  The maps are deterministic functions of
    their input bits (batched and single calls agree bit for bit), so the
    stored rest of the segment, and with it the next seam, is the exact
    path.  A segment that never meets its stored values is walked to its
    end, which leaves its seam exact just the same.  The result is exact
    whatever the values, NaN and inf included, and ``_SEGMENT`` and
    ``_WALK_SEGMENTS`` change the speed only, never the result.  On the
    moderate config at 200k steps a segment meets the true path after a
    median of about 220 steps.

    A path whose distances fail because a PCM breaks ``PDMatrix``'s rules
    raises :class:`NotPositiveDefiniteError` naming the first such step and
    the drop run ending there.
    """
    seed = cfg.require_seed()
    if prep is None:
        prep = prepare(cfg)
    length = cfg.effective_ergodic_length
    gamma_st = stationary_probability(cfg.channel)
    word = sample_chain(cfg.channel, gamma_st, length, seed, stream=ERGODIC_STREAM)
    path = _ergodic_path(prep.mp, prep.p_star.entries, word)
    samples = _checked_distances(prep.p_star, path)
    if samples is None:
        raise NotPositiveDefiniteError(f"ergodic run: {_breakdown(path, word)}")
    return samples, make_histogram(samples, cfg.delta_max, cfg.n_e_bins)


def _ergodic_path(mp: ModifiedPlant, p_star: np.ndarray, word: np.ndarray) -> np.ndarray:
    """PCM path driven by ``word[1:]`` from ``p_star``: ``path[0] = p_star``
    and ``path[k]`` is the branch map of ``word[k]`` applied to
    ``path[k - 1]``.  A 2x2 word of at most ``_WALK_SEGMENTS`` segments is
    walked one step after another, any other on the segment grid; see
    :func:`run_ergodic`."""
    blocks = _branch_blocks(mp)
    bits = word[1:]
    if p_star.shape[0] == 2 and bits.size <= _WALK_SEGMENTS * _SEGMENT:
        return _walk(blocks, p_star, bits)
    return _segment_grid(blocks, p_star, bits)[0]


def _segment_grid(blocks, p_star: np.ndarray, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The path of :func:`_ergodic_path` over ``bits`` (the word after its
    first symbol), evaluated parallel in time on a grid of ``_SEGMENT``-step
    segments and made exact by a verify walk, and the steps that walk took
    in each segment; see :func:`run_ergodic` for why it is exact."""
    length = bits.size
    n = p_star.shape[0]
    count = -(-length // _SEGMENT)
    padded = np.ones(count * _SEGMENT, dtype=bits.dtype)
    padded[:length] = bits
    path = np.empty((count * _SEGMENT + 1, n, n))
    path[0] = p_star
    start = np.broadcast_to(p_star, (count, n, n)).copy()
    grid = path[1:].reshape(count, _SEGMENT, n, n)
    _advance(blocks, start, padded.reshape(count, _SEGMENT), grid)
    walked = np.zeros(count, dtype=np.int64)
    for j in range(1, count):
        seam, end = j * _SEGMENT, (j + 1) * _SEGMENT
        exact = _walk(blocks, path[seam], padded[seam:end], path[seam + 1 : end + 1])
        path[seam : seam + len(exact)] = exact
        walked[j] = len(exact) - 1
    return path[: length + 1], walked


def cluster_intervals(distances: np.ndarray, n_s: int) -> list:
    """Half-open assignment intervals around each orbit distance.

    Cluster 0 takes ``[0, d1/n_s]``; interior cluster ``i`` takes
    ``(d_i - (d_i - d_{i-1})/n_s, d_i + (d_{i+1} - d_i)/n_s]``; the last
    cluster is capped at its own distance.  Anything outside every interval
    belongs to no cluster.
    """
    d = np.asarray(distances, dtype=float)
    if d[0] != 0.0:
        raise ValueError("distances must start at 0")
    if np.any(np.diff(d) <= 0):
        raise ValueError("distances must be strictly increasing")
    last = len(d) - 1
    out = [(0.0, d[1] / n_s, True)]
    for i in range(1, last + 1):
        lo = d[i] - (d[i] - d[i - 1]) / n_s
        hi = d[i] + (d[i + 1] - d[i]) / n_s if i < last else d[last]
        out.append((lo, hi, False))
    return out


def cluster_probabilities(
    samples: np.ndarray, distances: np.ndarray, n_s: int
) -> tuple[np.ndarray, float]:
    """Fraction of samples in each cluster interval, plus the leftover.

    Returns ``(fractions, unassigned)`` where ``fractions[i]`` is the share
    of samples inside interval ``i`` and ``unassigned`` the share outside
    every interval.  Non-finite samples raise :class:`NonFiniteSampleError`.
    """
    samples = _finite_samples(samples)
    fractions = np.zeros(len(distances))
    for i, (lo, hi, closed_lo) in enumerate(cluster_intervals(distances, n_s)):
        if closed_lo:
            mask = (samples >= lo) & (samples <= hi)
        else:
            mask = (samples > lo) & (samples <= hi)
        fractions[i] = np.count_nonzero(mask) / samples.size
    return fractions, float(1.0 - fractions.sum())


def compare_table(cfg: ExperimentConfig, prep: PreparedPlant | None = None) -> ClusterTable:
    """Cluster table with the columns ``delta`` (lumping on the open-loop
    orbit; its geometric tail is unassigned), ``ergodic`` and ``empirical``,
    computed and kept in that order."""
    if prep is None:
        prep = prepare(cfg)
    gamma_st = stationary_probability(cfg.channel)
    # Delta atom i is computed exactly as ladder entry i (the same homographic
    # orbit step and the same distance call), so it always lands in cluster i
    # and its masses are the delta column as they stand.
    delta = delta_distribution(prep.mp, prep.p_star, gamma_st, cfg.n_d)
    return ClusterTable(prep.ladder, {
        "delta": (delta.masses(), delta.residual_mass),
        "ergodic": cluster_probabilities(run_ergodic(cfg, prep)[0], prep.ladder, cfg.n_s),
        "empirical": cluster_probabilities(run_empirical(cfg, prep)[0], prep.ladder, cfg.n_s),
    })


def rate_study(
    cfg: ExperimentConfig,
    checkpoints,
    prep: PreparedPlant | None = None,
) -> list[tuple[int, float, float]]:
    """Convergence diagnostics of the ergodic time average.

    Runs one trajectory of length ``cfg.effective_ergodic_length`` (the
    reference run), evaluates the running distribution function on the
    cluster-boundary grid at each checkpoint, and reports the sup gap to the
    full-length reference together with the gap divided by
    ``(ln n / n)^(1/4)``.  Checkpoints must be at least 2, where that
    envelope is finite and positive.
    """
    checkpoints = [int(c) for c in checkpoints]
    if any(c < 2 for c in checkpoints):
        raise ValueError(f"checkpoints must be at least 2, got {min(checkpoints)}")
    if any(c2 <= c1 for c1, c2 in zip(checkpoints, checkpoints[1:])):
        raise ValueError("checkpoints must be strictly increasing")
    if checkpoints and checkpoints[-1] > cfg.effective_ergodic_length:
        raise ValueError("checkpoints cannot exceed the trajectory length")
    if prep is None:
        prep = prepare(cfg)
    samples, _ = run_ergodic(cfg, prep)
    grid = np.array([hi for (_, hi, _) in cluster_intervals(prep.ladder, cfg.n_s)])
    inside = samples[:, None] <= grid[None, :]
    reference = np.count_nonzero(inside, axis=0) / samples.size
    out = []
    for c in checkpoints:
        running = np.count_nonzero(inside[: c + 1], axis=0) / (c + 1)
        gap = float(np.max(np.abs(running - reference)))
        envelope = float(gap / (np.log(c) / c) ** 0.25)
        out.append((c, gap, envelope))
    return out
