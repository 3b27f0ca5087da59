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
from numpy.lib.stride_tricks import sliding_window_view

from .channel import ChannelParams, sample_chain, sample_chain_batch, stationary_probability
from .pdm import _CHUNK, NotPositiveDefiniteError, PDMatrix, distances_to, not_positive_definite
from .plant import (
    ModifiedPlant,
    NominalPlant,
    _advance,
    _branch_blocks,
    _walk,
    _walk_pieces,
    build_modified_plant,
)
from .riccati import orbit_distances, solve_dare
from .stationary import LN10, delta_distribution

# Stream offsets reserved for non-trial chains (trials take 0..trials-1).
ERGODIC_STREAM = 1 << 48
SIMULATE_CHAIN_STREAM = (1 << 48) + 1
SIMULATE_NOISE_STREAM = (1 << 48) + 2

# Steps per row of the parallel-in-time ergodic grid, the steps each row
# runs before its seam to forget its start, the most steps of a 2x2 word
# that the ergodic run walks in plain floats instead, and the fewest
# arrivals per _WARMUP steps, on the word's mean, for which a longer 2x2
# word takes the grid (see run_ergodic).  They set the run's speed and
# memory only, never its output.
_SEGMENT = 250
_WARMUP = 500
_WALK_STEPS = 100_000
_GRID_ARRIVALS = 100


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
        if self.delta_max / self.n_e_bins == 0.0:
            raise ValueError(
                f"delta_max {self.delta_max!r} over n_e_bins {self.n_e_bins} gives a bin "
                "width of 0.0"
            )

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

    When the distances fail and a final PCM breaks ``PDMatrix``'s rules
    (non-finite entries included), the first such trial is walked again
    alone, up to the piece of ``pdm._CHUNK`` steps that holds its first
    such step, and :class:`NotPositiveDefiniteError` names the trial, that
    step and the drop run ending there; when no final PCM breaks the rules,
    the distance's own error is raised.  A run whose distances succeed does
    no checking beyond them.
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
    try:
        samples = distances_to(prep.p_star, p)
    except NotPositiveDefiniteError:
        bad = np.flatnonzero(not_positive_definite(p))
        if not bad.size:
            raise
        trial = int(bad[0])
        step = _first_breakdown(blocks, p0, words[trial, 1:])
        raise NotPositiveDefiniteError(
            f"empirical trial {trial}: {_breakdown(step, words[trial])}; "
            f"{bad.size} of {cfg.trials} trials end not positive definite"
        ) from None
    samples /= LN10
    return samples, make_histogram(samples, cfg.delta_max, cfg.n_e_bins)


def _first_breakdown(blocks, start: np.ndarray, bits: np.ndarray) -> int | None:
    """The first step of the path of ``start`` over ``bits`` whose PCM
    fails ``PDMatrix``'s rules, or None when none does.  The path is walked
    in pieces of ``pdm._CHUNK`` steps, up to the piece holding that step."""
    lo = 0
    for piece in _walk_pieces(blocks, start, bits, _CHUNK):
        bad = np.flatnonzero(not_positive_definite(piece))
        if bad.size:
            return lo + int(bad[0])
        lo += len(piece) - 1
    return None


def _breakdown(step: int, word: np.ndarray) -> str:
    """Name the PCM at ``step``, the first that fails ``PDMatrix``'s rules,
    and the drop run of ``word`` ending there."""
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

    The samples are the decimal-log distances of the path that applies the
    branch maps one step after another, bit for bit.  Each PCM is measured
    as the path is built, a few thousand states at a time, and then
    dropped: the run holds the samples (8 bytes a step) and block-sized
    scratch, not the path.  The path is built one of two ways, chosen by
    the input word alone.  A 2x2 word of at most ``_WALK_STEPS`` steps (the
    desk tables and the full-scale run) is walked in Python floats by
    ``plant._walk_pieces``: on a word that short, numpy call overhead, not
    arithmetic, is the cost of any batched evaluation.  So is a longer 2x2
    word whose mean arrivals over ``_WARMUP`` steps fall below
    ``_GRID_ARRIVALS``: the recursion forgets its start through arrivals,
    so on such a word most grid rows fail their seam check (below) and are
    walked anyway.  Other words and sizes are evaluated parallel in time on
    a grid of rows, whose overhead is then spread over hundreds of rows,
    and then checked.

    The grid cuts the word, padded with arrivals to whole rows, into rows
    of ``_SEGMENT`` steps; row ``j`` owns the steps after its seam, step
    ``j * _SEGMENT``.  One batched pass starts every row from the fixed
    point ``_WARMUP`` steps before its seam (arrivals stand in for the
    steps before step 0), runs the warm-up without storing it, and then
    runs the rows' own steps in column blocks of about ``pdm._CHUNK``
    states, measuring each block.  Of the stored states it keeps each row's
    first and its last.  The recursion forgets its start, and in floating
    point the forgetting is exact: two runs driven by the same word become
    bit-identical after some hundreds of steps and stay so.  So most rows
    are already exact at their seam.

    One batched step from every seam state, as stored (the fixed point for
    row 0, the last stored state of row ``j - 1`` for row ``j``), is then
    compared, as bits, with each row's first stored state.  The rows are
    taken in order.  Row ``j`` is left as stored when its check passed and
    row ``j - 1`` was not given a new last state; otherwise
    ``plant._walk`` walks the whole row from the exact state at its seam,
    and its states are measured.  Its last state, when its bits differ from
    the stored one, is the new seam of row ``j + 1``.  The maps are
    deterministic functions of their input bits (batched and single calls
    agree bit for bit), so by induction from the fixed point every seam
    and every row is the exact path, inf included.  A NaN keeps its place
    but not always its sign and payload bits, which numpy picks by array
    length (see :mod:`pcmlab.plant`); a path holding one fails its
    distances either way.  ``_SEGMENT``, ``_WARMUP``, ``_WALK_STEPS`` and
    ``_GRID_ARRIVALS`` change the speed and memory only, never the result.
    The 2x2 distance is an elementwise closed form, so a sample has the
    same bits whichever block measured it.

    The distances are strict: the first that fails raises.  The grid
    measures stored states that a walk may replace, so when the path's
    measurement fails, the exact path is walked and measured once more,
    piece by piece; a sound path then gives the run's samples.  When a
    distance of the exact path fails too, the word is walked again up to
    the piece of ``pdm._CHUNK`` steps that holds the first PCM that breaks
    ``PDMatrix``'s rules, and :class:`NotPositiveDefiniteError` names that
    step and the drop run ending there; when no PCM breaks the rules, the
    distance's own error is raised.  No walk of a broken word goes past the
    first piece whose measurement fails.
    """
    samples = _ergodic_samples(cfg, prep)
    return samples, make_histogram(samples, cfg.delta_max, cfg.n_e_bins)


def _ergodic_samples(cfg: ExperimentConfig, prep: PreparedPlant | None) -> np.ndarray:
    """The samples of :func:`run_ergodic`, without its histogram."""
    seed = cfg.require_seed()
    if prep is None:
        prep = prepare(cfg)
    length = cfg.effective_ergodic_length
    gamma_st = stationary_probability(cfg.channel)
    word = sample_chain(cfg.channel, gamma_st, length, seed, stream=ERGODIC_STREAM)
    p_star = prep.p_star.entries

    def measure(mats: np.ndarray) -> np.ndarray:
        return distances_to(prep.p_star, mats)

    try:
        samples = _ergodic_path(prep.mp, p_star, word, measure)
    except NotPositiveDefiniteError:
        blocks = _branch_blocks(prep.mp)
        try:
            samples = _walked(blocks, p_star, word[1:], measure)
        except NotPositiveDefiniteError:
            step = _first_breakdown(blocks, p_star, word[1:])
            if step is None:
                raise
            raise NotPositiveDefiniteError(f"ergodic run: {_breakdown(step, word)}") from None
    samples /= LN10
    return samples


def _states(mats: np.ndarray) -> np.ndarray:
    """The measurement that keeps every state: the path itself."""
    return mats


def _ergodic_path(mp: ModifiedPlant, p_star: np.ndarray, word: np.ndarray,
                  measure=_states) -> np.ndarray:
    """``measure`` of every state of the PCM path driven by ``word[1:]``
    from ``p_star``: ``path[0] = p_star`` and ``path[k]`` is the branch map
    of ``word[k]`` applied to ``path[k - 1]``.  ``measure`` maps a stack of
    states to one measurement each, along the first axis; by default the
    states themselves, so the result is the path.  A 2x2 word of at most
    ``_WALK_STEPS`` steps, or with fewer than ``_GRID_ARRIVALS`` arrivals
    per ``_WARMUP`` steps on its mean, is walked one step after another,
    any other on the segment grid; see :func:`run_ergodic`."""
    blocks = _branch_blocks(mp)
    bits = word[1:]
    sparse = np.count_nonzero(bits) * _WARMUP < _GRID_ARRIVALS * bits.size
    if p_star.shape[0] == 2 and (bits.size <= _WALK_STEPS or sparse):
        return _walked(blocks, p_star, bits, measure)
    return _segment_grid(blocks, p_star, bits, measure)[0]


def _walked(blocks, p_star: np.ndarray, bits: np.ndarray, measure) -> np.ndarray:
    """``measure`` of every state of the path of :func:`_ergodic_path`,
    walked step by step and measured a piece of ``pdm._CHUNK`` steps at a
    time; a measurement that raises stops the walk at its piece."""
    out = _measured_start(measure, p_star, bits.size + 1)
    lo = 1
    for piece in _walk_pieces(blocks, p_star, bits, _CHUNK):
        out[lo : lo + len(piece) - 1] = measure(piece[1:])
        lo += len(piece) - 1
    return out


def _measured_start(measure, p_star: np.ndarray, size: int) -> np.ndarray:
    """An array for ``size`` measurements of ``measure``, the first of them
    that of ``p_star``."""
    first = measure(p_star[None])
    out = np.empty((size,) + first.shape[1:], first.dtype)
    out[0] = first[0]
    return out


def _segment_grid(blocks, p_star: np.ndarray, bits: np.ndarray,
                  measure=_states) -> tuple[np.ndarray, np.ndarray]:
    """``measure`` of the path of :func:`_ergodic_path` over ``bits`` (the
    word after its first symbol), evaluated parallel in time on a grid of
    warm-started ``_SEGMENT``-step rows, checked at every seam in one batch
    and made exact by walking only the rows that need it, and the steps
    walked in each row; see :func:`run_ergodic` for why it is exact."""
    length = bits.size
    n = p_star.shape[0]
    count = -(-length // _SEGMENT)
    # Row j reads the _WARMUP steps before its seam, then its own steps; the
    # word is padded with arrivals before its start and after its end.
    padded = np.ones(_WARMUP + count * _SEGMENT, dtype=bits.dtype)
    padded[_WARMUP : _WARMUP + length] = bits
    window = sliding_window_view(padded, _WARMUP + _SEGMENT)[::_SEGMENT]
    rows = window[:, _WARMUP:]
    out = _measured_start(measure, p_star, count * _SEGMENT + 1)
    grid = out[1:].reshape((count, _SEGMENT) + out.shape[1:])
    state = np.broadcast_to(p_star, (count, n, n)).copy()
    _advance(blocks, state, window[:, :_WARMUP])
    width = max(1, _CHUNK // count)
    for lo in range(0, _SEGMENT, width):
        hi = min(lo + width, _SEGMENT)
        block = np.empty((count, hi - lo, n, n))
        _advance(blocks, state, rows[:, lo:hi], block)
        if lo == 0:
            first = block[:, 0].copy()
        grid[:, lo:hi] = measure(block.reshape(-1, n, n)).reshape(grid[:, lo:hi].shape)
    # state now holds each row's last stored state.  One step from every
    # seam state, as stored, against each row's first stored state,
    # compared as bits.
    seams = np.concatenate([p_star[None], state[:-1]])
    _advance(blocks, seams, rows[:, :1])
    met = (seams.view(np.uint64) == first.view(np.uint64)).reshape(count, -1).all(axis=1)
    walked = np.zeros(count, dtype=np.int64)
    # Walked rows and their states, measured together about _CHUNK at a time.
    waiting, states = [], []
    replaced = False
    for j in range(count):
        if replaced or not met[j]:
            exact = _walk(blocks, p_star if j == 0 else state[j - 1], rows[j])
            walked[j] = _SEGMENT
            waiting.append(j)
            states.append(exact[1:])
            # The walk writes a new seam for the next row if its bits differ.
            replaced = exact[-1].tobytes() != state[j].tobytes()
            state[j] = exact[-1]
        if waiting and (len(waiting) * _SEGMENT >= _CHUNK or j == count - 1):
            values = measure(np.concatenate(states))
            grid[waiting] = values.reshape((len(waiting),) + grid.shape[1:])
            waiting, states = [], []
    return out[: length + 1], walked


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
        "ergodic": cluster_probabilities(_ergodic_samples(cfg, prep), prep.ladder, cfg.n_s),
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
    samples = _ergodic_samples(cfg, prep)
    grid = np.array([hi for (_, hi, _) in cluster_intervals(prep.ladder, cfg.n_s)])
    # Sample k lies at or below grid[i] exactly when i >= first[k] (the grid
    # ascends), so a prefix sum of the counts of ``first`` counts each point.
    first = np.searchsorted(grid, samples, side="left")

    def below(stop: int) -> np.ndarray:
        return np.cumsum(np.bincount(first[:stop], minlength=grid.size)[: grid.size])

    reference = below(samples.size) / samples.size
    out = []
    for c in checkpoints:
        running = below(c + 1) / (c + 1)
        gap = float(np.max(np.abs(running - reference)))
        envelope = float(gap / (np.log(c) / c) ** 0.25)
        out.append((c, gap, envelope))
    return out
