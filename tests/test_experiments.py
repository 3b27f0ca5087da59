import json
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pcmlab.experiments as experiments
import pcmlab.plant as plant_module
from pcmlab import ChannelParams, ExperimentConfig
from pcmlab.channel import sample_chain, stationary_probability
from pcmlab.cli import load_config
from pcmlab.experiments import (
    ERGODIC_STREAM,
    LN10,
    NonFiniteSampleError,
    _ergodic_path,
    _segment_grid,
    cluster_intervals,
    cluster_probabilities,
    compare_table,
    distances_to,
    make_histogram,
    prepare,
    rate_study,
    run_empirical,
    run_ergodic,
)
from pcmlab.pdm import NotPositiveDefiniteError, PDMatrix, not_positive_definite
from pcmlab.plant import _advance, _branch_blocks, _walk, _walk_pieces, build_modified_plant
from pcmlab.stationary import delta_distribution

from conftest import random_plant
from oracles import distribution_clusters, pcm_trajectory, step_float

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
DESK_CONFIGS = ("paper_section5.json", "paper_section5_moderate.json", "paper_section5_heavy.json")

@pytest.fixture(scope="module")
def desk_samples(ref_cfg, ref_prep):
    return run_empirical(ref_cfg, ref_prep)


class TestHistogram:
    def test_counts_partition_samples(self):
        samples = np.array([0.0, 0.1, 0.15, 0.79, 0.81])
        hist = make_histogram(samples, delta_max=0.8, n_bins=8)
        assert hist.counts.sum() + hist.overflow == hist.total == 5
        assert hist.overflow == 1  # 0.81 beyond the range
        assert hist.counts[0] == 1 and hist.counts[1] == 2
        assert hist.counts[7] == 1  # 0.79 in the last bin

    def test_bin_edges_half_open(self):
        hist = make_histogram(np.array([0.2]), delta_max=1.0, n_bins=5)
        assert hist.counts[1] == 1  # 0.2 belongs to [0.2, 0.4)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=0.999), min_size=1, max_size=200))
    def test_total_always_conserved(self, values):
        hist = make_histogram(np.array(values), delta_max=1.0, n_bins=13)
        assert hist.counts.sum() + hist.overflow == hist.total
        assert hist.normalized.sum() + hist.overflow / hist.total == pytest.approx(1.0)

    @pytest.mark.parametrize("delta_max", [1e-20, 1e-310])
    def test_tiny_range_sends_every_sample_to_overflow(self, delta_max):
        # The quotients pass 2**63 (and, at 1e-310, the largest float).
        hist = make_histogram(np.array([0.0, 0.5, 1.0, 1.7]), delta_max=delta_max, n_bins=200)
        assert hist.counts.sum() == 1 and hist.counts[0] == 1  # 0.0 is in range
        assert hist.overflow == 3 and hist.total == 4

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_rejected(self, bad):
        with pytest.raises(NonFiniteSampleError, match="1 of 3 .* index 1"):
            make_histogram(np.array([0.1, bad, 0.2]), delta_max=1.0, n_bins=4)


class TestClusterAssignment:
    def test_all_zero_samples(self):
        distances = np.array([0.0, 1.0, 2.0])
        fracs, unassigned = cluster_probabilities(np.zeros(10), distances, n_s=4)
        assert fracs[0] == 1.0
        assert fracs[1] == fracs[2] == 0.0
        assert unassigned == 0.0

    def test_samples_at_first_orbit_point(self):
        # samples hugging d_1 land in cluster 1 regardless of side
        distances = np.array([0.0, 1.0, 2.0])
        samples = np.array([1.0 - 1e-6, 1.0, 1.0 + 1e-6])
        fracs, unassigned = cluster_probabilities(samples, distances, n_s=4)
        assert fracs[1] == 1.0 and unassigned == 0.0

    def test_interval_shapes(self):
        distances = np.array([0.0, 1.0, 2.0, 3.0])
        intervals = cluster_intervals(distances, n_s=4)
        assert intervals[0] == (0.0, 0.25, True)
        assert intervals[1] == (0.75, 1.25, False)
        assert intervals[2] == (1.75, 2.25, False)
        assert intervals[3] == (2.75, 3.0, False)  # last one capped

    def test_gap_samples_unassigned(self):
        distances = np.array([0.0, 1.0, 2.0])
        fracs, unassigned = cluster_probabilities(np.array([0.5]), distances, n_s=4)
        assert np.all(fracs == 0.0)
        assert unassigned == 1.0

    def test_monotonicity_required(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            cluster_probabilities(np.array([0.1]), np.array([0.0, 2.0, 1.0]), n_s=2)
        with pytest.raises(ValueError, match="start at 0"):
            cluster_probabilities(np.array([0.1]), np.array([0.5, 1.0]), n_s=2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_rejected(self, bad):
        distances = np.array([0.0, 1.0, 2.0])
        with pytest.raises(NonFiniteSampleError, match="not finite"):
            cluster_probabilities(np.array([0.0, 1.0, bad]), distances, n_s=4)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=0.0, max_value=4.0))
    def test_sample_lands_in_at_most_one_cluster(self, x):
        distances = np.array([0.0, 1.0, 2.0, 3.0])
        fracs, unassigned = cluster_probabilities(np.array([x]), distances, n_s=3)
        assert fracs.sum() + unassigned == pytest.approx(1.0)
        assert np.count_nonzero(fracs) <= 1


class TestEmpirical:
    def test_reference_cluster_masses(self, ref_cfg, ref_prep, desk_samples):
        samples, hist = desk_samples
        assert samples.size == ref_cfg.trials
        fracs, unassigned = cluster_probabilities(samples, ref_prep.ladder, ref_cfg.n_s)
        assert fracs[0] == pytest.approx(0.9494, abs=0.012)
        assert unassigned <= 0.01

    def test_deterministic_bitwise(self, ref_cfg, ref_prep, desk_samples):
        samples, _ = desk_samples
        again, _ = run_empirical(ref_cfg, ref_prep)
        np.testing.assert_array_equal(samples, again)

    def test_histogram_total_is_trial_count(self, ref_cfg, desk_samples):
        _, hist = desk_samples
        assert hist.total == ref_cfg.trials
        assert hist.counts.sum() + hist.overflow == hist.total

    def test_initial_value_independence(self, ref_plant, ref_prep):
        from dataclasses import replace

        base = ExperimentConfig(
            plant=ref_plant, channel=ChannelParams(0.95, 0.05),
            trials=2_000, horizon=400, master_seed=515,
        )
        big = run_empirical(replace(base, init_pcm_scale=1e3), ref_prep)[0]
        small = run_empirical(replace(base, init_pcm_scale=1e-3), ref_prep)[0]
        fr_big, _ = cluster_probabilities(big, ref_prep.ladder, base.n_s)
        fr_small, _ = cluster_probabilities(small, ref_prep.ladder, base.n_s)
        assert np.max(np.abs(fr_big - fr_small)) <= 0.01

    def test_seed_required(self, ref_plant):
        cfg = ExperimentConfig(plant=ref_plant, channel=ChannelParams(0.9, 0.1), trials=10, horizon=5)
        with pytest.raises(ValueError, match="master_seed"):
            run_empirical(cfg)

    def test_traced_memory_peak(self):
        # The run holds the uint8 words (trials x (horizon + 1) bytes, 2.0 MB
        # here), the stack and one 256-row chunk of uniforms: a traced peak of
        # 4.70 MB.  The 0.8 MB margin is below the 2.0 MB of any whole-word
        # temporary (a boolean mask copy, say), which would also show in the
        # benchmark's peak RSS.
        cfg = load_config(CONFIGS / "paper_section5_moderate.json")
        prep = prepare(cfg)
        tracemalloc.start()
        try:
            run_empirical(cfg, prep)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5_500_000


class TestErgodic:
    def test_reference_cluster_masses(self, ref_cfg, ref_prep):
        samples, _ = run_ergodic(ref_cfg, ref_prep)
        assert samples.size == ref_cfg.effective_ergodic_length + 1
        fracs, _ = cluster_probabilities(samples, ref_prep.ladder, ref_cfg.n_s)
        assert fracs[0] == pytest.approx(0.95044, abs=0.01)
        assert fracs[1] == pytest.approx(0.04676, abs=0.005)

    def test_starts_at_fixed_point(self, ref_cfg, ref_prep):
        samples, _ = run_ergodic(ref_cfg, ref_prep)
        assert samples[0] <= 1e-12

    def test_million_step_traced_memory_peak(self):
        # A million steps on moderate loss: the sampler pass peaks at 19.0 MB
        # (8 bytes of uniforms a step), the grid at 11.5 MB (the samples,
        # 8 MB, the word and block-sized scratch), and the histogram's 17 MB
        # of temporaries beside the samples give a traced peak of 25.1 MB.
        # Holding the path took it to 58.1 MB; the bound is half of that.
        cfg = replace(load_config(CONFIGS / "paper_section5_moderate.json"),
                      ergodic_length=1_000_000)
        prep = prepare(cfg)
        assert traced_peak(lambda: run_ergodic(cfg, prep)) <= 29_000_000

    def test_moderate_loss_markov_pattern_oracle(self, ref_plant):
        # Under the genuine two-state chain the first-orbit cluster mass is
        # the stationary (arrival, drop) pattern probability pi1 * (1 - alpha),
        # not the product of marginals.
        alpha, beta = 0.80, 0.30
        cfg = ExperimentConfig(
            plant=ref_plant, channel=ChannelParams(alpha, beta),
            ergodic_length=20_000, n_d=10, n_s=9, delta_max=2.3, master_seed=99,
        )
        prep = prepare(cfg)
        samples, _ = run_ergodic(cfg, prep)
        fracs, _ = cluster_probabilities(samples, prep.ladder, cfg.n_s)
        pi1 = (1 - beta) / (2 - alpha - beta)
        assert fracs[0] == pytest.approx(pi1, abs=0.01)
        assert fracs[1] == pytest.approx(pi1 * (1 - alpha), abs=0.01)
        assert fracs[2] == pytest.approx(pi1 * (1 - alpha) * beta, abs=0.005)


def traced_peak(run) -> int:
    """Peak bytes that tracemalloc sees allocated while ``run()`` runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def log_distances(p_star):
    """The ergodic run's measurement in decimal-log units: the distances to
    ``p_star`` of a stack of states."""
    return lambda mats: distances_to(p_star, mats) / LN10


def sequential_ergodic(cfg, prep):
    """Oracle: the step-by-step loop that the segmented run replaced."""
    word, path = sequential_path(cfg, prep)
    samples = distances_to(prep.p_star, path) / LN10
    return word, path, samples


def sequential_path(cfg, prep):
    """The ergodic arrival word and the PCM path it drives, one plain-float
    step at a time (2x2 plants)."""
    blocks = _branch_blocks(prep.mp)
    length = cfg.effective_ergodic_length
    gamma_st = stationary_probability(cfg.channel)
    word = sample_chain(cfg.channel, gamma_st, length, cfg.master_seed, stream=ERGODIC_STREAM)
    path = np.empty((length + 1, 2, 2))
    path[0] = prep.p_star.entries
    for k in range(1, length + 1):
        path[k] = step_float(blocks, path[k - 1], word[k])
    return word, path


def assert_segmented_exact(cfg, prep):
    """The segment grid's path, the distances it measures as it builds the
    path and the run's samples equal the oracle's bit for bit; returns the
    steps walked in each row."""
    word, path, samples = sequential_ergodic(cfg, prep)
    blocks = _branch_blocks(prep.mp)
    grid, walked = _segment_grid(blocks, prep.p_star.entries, word[1:])
    assert grid.tobytes() == path.tobytes()
    measured, again = _segment_grid(blocks, prep.p_star.entries, word[1:],
                                    log_distances(prep.p_star))
    assert measured.tobytes() == samples.tobytes()
    assert again.tobytes() == walked.tobytes()
    assert run_ergodic(cfg, prep)[0].tobytes() == samples.tobytes()
    # A row whose seam check passed is not walked; any other walks whole.
    assert ((walked == 0) | (walked == experiments._SEGMENT)).all()
    return walked


def assert_walked_exact(cfg, prep):
    """The ergodic path equals the oracle's bit for bit; returns it."""
    word, path = sequential_path(cfg, prep)
    walked = _ergodic_path(prep.mp, prep.p_star.entries, word)
    assert walked.tobytes() == path.tobytes()
    return walked


def first_meets(cfg, prep):
    """For each row of the segment grid, the first of its steps at which the
    warm-started pass (the fixed point ``_WARMUP`` steps before the row's
    seam, arrivals before step 0) holds the exact path's bits, or None.
    Both paths run over the word padded with arrivals to whole rows."""
    segment, warmup = experiments._SEGMENT, experiments._WARMUP
    length = cfg.effective_ergodic_length
    word = sample_chain(cfg.channel, stationary_probability(cfg.channel), length,
                        cfg.master_seed, stream=ERGODIC_STREAM)
    count = -(-length // segment)
    padded = np.ones(warmup + count * segment, np.uint8)
    padded[warmup : warmup + length] = word[1:]
    blocks, p_star = _branch_blocks(prep.mp), prep.p_star.entries
    exact = _walk(blocks, p_star, padded[warmup:])[1:].reshape(count, segment, 2, 2)
    meets = []
    for j in range(count):
        stored = _walk(blocks, p_star, padded[j * segment : (j + 1) * segment + warmup])
        same = (stored[warmup + 1 :].view(np.uint64) == exact[j].view(np.uint64)).all(axis=(1, 2))
        meets.append(int(np.argmax(same)) + 1 if same.any() else None)
    return meets


def spy(monkeypatch, name):
    """Replace ``experiments.<name>`` by a wrapper that counts its calls."""
    real, calls = getattr(experiments, name), []

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(experiments, name, wrapper)
    return calls


class TestSegmentedErgodic:
    """The segment grid, called directly: words of at most ``_WALK_STEPS``
    take the walk in the run, so these keep the grid's warm-started rows,
    seam check and walks tested."""

    @pytest.mark.parametrize("name", DESK_CONFIGS)
    def test_desk_configs_bitwise(self, name):
        cfg = load_config(CONFIGS / name)
        assert_segmented_exact(cfg, prepare(cfg))

    def test_heavy_loss_rerun_rounds_bitwise(self):
        # Under heavy loss many rows do not forget their warm-up start: they
        # are walked whole, and a walk that ends on new bits sends the next
        # row walking from the new seam.
        cfg = replace(load_config(CONFIGS / "paper_section5_heavy.json"), master_seed=18)
        walked = assert_segmented_exact(cfg, prepare(cfg))
        assert walked.max() == experiments._SEGMENT

    def test_moderate_long_word_bitwise_against_walk(self):
        # The benchmark's rate word: 800 rows, most of them exact at their
        # seam after the warm-up, so only a few thousand steps are walked.
        cfg = load_config(CONFIGS / "paper_section5_moderate.json")
        prep = prepare(cfg)
        word = sample_chain(cfg.channel, stationary_probability(cfg.channel),
                            200_000, cfg.master_seed, stream=ERGODIC_STREAM)
        blocks = _branch_blocks(prep.mp)
        grid, walked = _segment_grid(blocks, prep.p_star.entries, word[1:])
        assert grid.tobytes() == _walk(blocks, prep.p_star.entries, word[1:]).tobytes()
        assert np.count_nonzero(walked) < walked.size // 4
        assert walked.sum() < 200_000 // 10

    @pytest.mark.parametrize("name", ["paper_section5.json", "paper_section5_moderate.json"])
    def test_million_step_words_bitwise_against_walk(self, name):
        cfg = load_config(CONFIGS / name)
        prep = prepare(cfg)
        word = sample_chain(cfg.channel, stationary_probability(cfg.channel),
                            1_000_000, cfg.master_seed, stream=ERGODIC_STREAM)
        blocks = _branch_blocks(prep.mp)
        grid, walked = _segment_grid(blocks, prep.p_star.entries, word[1:])
        assert grid.tobytes() == _walk(blocks, prep.p_star.entries, word[1:]).tobytes()
        assert np.count_nonzero(walked) < walked.size // 4

    @pytest.mark.parametrize(
        "length",
        sorted(
            {1, 349, 350, 351, 599, 600, 601, 999, 1000, 1001, 2507}
            | {k + d for k in (experiments._SEGMENT, experiments._WARMUP,
                               experiments._WARMUP + experiments._SEGMENT) for d in (-1, 0, 1)}
        ),
    )
    def test_lengths_around_segment_bitwise(self, ref_cfg, ref_prep, length):
        assert_segmented_exact(replace(ref_cfg, ergodic_length=length), ref_prep)

    @pytest.mark.parametrize("segment", [7, 3, 1, 13])
    def test_exact_for_any_segment_lengths(self, monkeypatch, segment):
        monkeypatch.setattr(experiments, "_SEGMENT", segment)
        cfg = replace(
            load_config(CONFIGS / "paper_section5_heavy.json"), ergodic_length=500
        )
        prep = prepare(cfg)
        for warmup in (0, 1, 40, 600):
            monkeypatch.setattr(experiments, "_WARMUP", warmup)
            walked = assert_segmented_exact(cfg, prep)
            assert (walked == segment).any()

    @pytest.mark.parametrize("warmup", [1, 2, 251, experiments._WARMUP])
    @pytest.mark.parametrize("fields", [{"ergodic_length": 500}, {"master_seed": 18}])
    def test_exact_for_any_kept_states(self, monkeypatch, warmup, fields):
        # The warm-up decides which rows the grid keeps as stored.  Whatever
        # it keeps, a walked row walks all of its steps, and a row left as
        # stored met the exact path at its first step.  Both words hold rows
        # that meet only later, or never, within their own steps.
        monkeypatch.setattr(experiments, "_WARMUP", warmup)
        cfg = replace(load_config(CONFIGS / "paper_section5_heavy.json"), **fields)
        prep = prepare(cfg)
        walked = assert_segmented_exact(cfg, prep)
        meets = first_meets(cfg, prep)
        assert any(meet != 1 for meet in meets)
        for steps, meet in zip(walked, meets):
            assert steps in (0, experiments._SEGMENT)
            if steps == 0:
                assert meet == 1

    def test_rounds_bounded_without_coalescence(self, tmp_path):
        # With a scaled by 8 the recursion forgets its start far more slowly:
        # no row meets the true path within its warm-up or its own steps, so
        # every seam check fails, every row is walked whole, and the path
        # stays exact.
        cfg = overflow_config(tmp_path, ergodic_length=5_000)
        with np.errstate(all="ignore"):
            walked = assert_segmented_exact(cfg, prepare(cfg))
        assert (walked == experiments._SEGMENT).all()


class TestWalk:
    """The plain-float walk that serves 2x2 words of at most
    ``_WALK_STEPS`` steps, against the step-by-step oracle."""

    @pytest.mark.parametrize("name", DESK_CONFIGS)
    def test_desk_configs_bitwise(self, monkeypatch, name):
        grid = spy(monkeypatch, "_segment_grid")
        cfg = load_config(CONFIGS / name)
        assert_walked_exact(cfg, prepare(cfg))
        assert not grid

    def test_heavy_loss_seed_18_bitwise(self):
        cfg = replace(load_config(CONFIGS / "paper_section5_heavy.json"), master_seed=18)
        assert_walked_exact(cfg, prepare(cfg))

    @pytest.mark.parametrize(
        "length",
        [1, 999, 1000, 1001],
    )
    def test_lengths_around_segment_bitwise(self, ref_cfg, ref_prep, length):
        assert_walked_exact(replace(ref_cfg, ergodic_length=length), ref_prep)

    def test_overflow_plant_bitwise_through_nan(self, tmp_path):
        cfg = overflow_config(tmp_path, ergodic_length=20_000)
        with np.errstate(all="ignore"):
            path = assert_walked_exact(cfg, prepare(cfg))
        assert np.isnan(path).any()

    def test_word_over_the_limit_takes_the_grid(self, monkeypatch, ref_cfg, ref_prep):
        limit = 2 * experiments._SEGMENT
        monkeypatch.setattr(experiments, "_WALK_STEPS", limit)
        route, grid = spy(monkeypatch, "_walk_pieces"), spy(monkeypatch, "_segment_grid")
        walk = spy(monkeypatch, "_walk")
        assert_walked_exact(replace(ref_cfg, ergodic_length=limit), ref_prep)
        assert (len(route), len(grid), len(walk)) == (1, 0, 0)
        assert_walked_exact(replace(ref_cfg, ergodic_length=limit + 1), ref_prep)
        assert (len(route), len(grid)) == (1, 1)
        # Past the limit the only walks are the grid's, each of one row.
        assert all(len(args) == 3 for args in walk)

    @pytest.mark.parametrize("name, route", [
        ("paper_section5.json", "_segment_grid"),
        ("paper_section5_moderate.json", "_segment_grid"),
        ("paper_section5_heavy.json", "_walk"),
    ])
    def test_long_word_route_follows_its_arrivals(self, monkeypatch, name, route):
        # At 200k steps low (475 arrivals per warm-up) and moderate (389)
        # take the grid; heavy (39) would walk most grid rows anyway.
        cfg = load_config(CONFIGS / name)
        prep = prepare(cfg)
        word = sample_chain(cfg.channel, stationary_probability(cfg.channel),
                            200_000, cfg.master_seed, stream=ERGODIC_STREAM)
        want = _walk(_branch_blocks(prep.mp), prep.p_star.entries, word[1:])
        pieces, grid = spy(monkeypatch, "_walk_pieces"), spy(monkeypatch, "_segment_grid")
        walk = spy(monkeypatch, "_walk")
        path = _ergodic_path(prep.mp, prep.p_star.entries, word)
        assert path.tobytes() == want.tobytes()
        if route == "_walk":
            assert not grid and not walk and len(pieces) == 1
        else:
            # The grid's own walks each cover one row.
            assert len(grid) == 1 and not pieces and all(len(args) == 3 for args in walk)
        # Measured as it is built, block by block, the path keeps the bits
        # of its distances taken all at once.
        samples = _ergodic_path(prep.mp, prep.p_star.entries, word, log_distances(prep.p_star))
        assert samples.tobytes() == (distances_to(prep.p_star, want) / LN10).tobytes()

    def test_grid_arrivals_threshold(self, monkeypatch, ref_prep):
        # Past the walk limit a word walks exactly when its arrivals per
        # _WARMUP steps, on its mean, fall below _GRID_ARRIVALS.
        monkeypatch.setattr(experiments, "_WALK_STEPS", 10)
        grid = spy(monkeypatch, "_segment_grid")
        size = 2 * experiments._WARMUP
        for arrivals, takes_grid in [(2 * experiments._GRID_ARRIVALS, True),
                                     (2 * experiments._GRID_ARRIVALS - 1, False)]:
            word = np.zeros(size + 1, np.uint8)
            word[1 : arrivals + 1] = 1
            before = len(grid)
            path = _ergodic_path(ref_prep.mp, ref_prep.p_star.entries, word)
            want = _walk(_branch_blocks(ref_prep.mp), ref_prep.p_star.entries, word[1:])
            assert path.tobytes() == want.tobytes()
            assert len(grid) - before == takes_grid

    def test_three_state_plant_takes_the_grid(self, monkeypatch):
        grid = spy(monkeypatch, "_segment_grid")
        plant = random_plant(np.random.default_rng(7), n=3, m=2, p=2, n_err=1)
        cfg = ExperimentConfig(
            plant=plant, channel=ChannelParams(0.8, 0.3), ergodic_length=300, master_seed=3,
        )
        prep = prepare(cfg)
        word = sample_chain(cfg.channel, stationary_probability(cfg.channel),
                            cfg.ergodic_length, cfg.master_seed, stream=ERGODIC_STREAM)
        path = _ergodic_path(prep.mp, prep.p_star.entries, word)
        assert len(grid) == 1
        want = _walk(_branch_blocks(prep.mp), prep.p_star.entries, word[1:])
        assert path.tobytes() == want.tobytes()

    def test_zero_determinant_falls_back_to_the_kernel(self):
        blocks, p, bits = zero_determinant_word()
        want = np.empty((bits.size + 1, 2, 2))
        want[0] = p
        _advance(blocks, p[None].copy(), bits[None], want[None, 1:])
        got = _walk(blocks, p, bits)
        assert np.isfinite(got[:3]).all() and np.isnan(got[3:]).all()
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("size", [1, 2, 3, 7])
    def test_pieces_join_into_the_walk(self, size):
        # The word of the test above, where every piece after the hand-off
        # to the kernel stays with the kernel, and a 3x3 plant, which the
        # kernel walks from the start.
        plant = random_plant(np.random.default_rng(7), n=3, m=2, p=2, n_err=1)
        zero = zero_determinant_word()
        three = (_branch_blocks(build_modified_plant(plant)), 2.0 * np.eye(3), zero[2])
        for blocks, p, bits in (zero, three):
            pieces = [piece.copy() for piece in _walk_pieces(blocks, p, bits, size)]
            assert all(len(piece) <= size + 1 for piece in pieces)
            assert all(a[-1].tobytes() == b[0].tobytes() for a, b in zip(pieces, pieces[1:]))
            joined = np.concatenate([pieces[0]] + [piece[1:] for piece in pieces[1:]])
            assert joined.tobytes() == _walk(blocks, p, bits).tobytes()

    @pytest.mark.parametrize("size, steps", [(3, [1, 3, 1]), (7, [5])])
    def test_kernel_walks_each_piece_in_one_call(self, monkeypatch, size, steps):
        # After the zero determinant at step 3, each piece's remaining steps
        # take one kernel call.
        blocks, p, bits = zero_determinant_word()
        real, calls = plant_module._advance, []

        def wrapper(blocks, p, words, out=None):
            calls.append(words.shape[1])
            return real(blocks, p, words, out)

        monkeypatch.setattr(plant_module, "_advance", wrapper)
        for _ in _walk_pieces(blocks, p, bits, size):
            pass
        assert calls == steps


def zero_determinant_word():
    """A 2x2 plant, a start and a word whose first arrival, at step 3, meets
    a zero determinant: a1 = 0, w1 = I, k1 = -I make every arrival's
    I + k1 z = 0, which Python floats refuse to divide by and numpy turns
    into NaN."""
    blocks = (np.array([[1.1, 0.2], [0.0, 0.9]]), np.eye(2), np.zeros((2, 2)),
              np.eye(2), -np.eye(2))
    p = np.array([[2.0, 0.5], [0.5, 1.0]])
    return blocks, p, np.array([0, 0, 1, 0, 1, 1, 0], dtype=np.uint8)


def overflow_config(tmp_path, **fields):
    """The heavy-loss config with the transition scaled by 8: long drop runs
    take the PCM out of the positive-definite cone."""
    raw = json.loads((CONFIGS / "paper_section5_heavy.json").read_text())
    raw["plant"]["a"] = [[8 * x for x in row] for row in raw["plant"]["a"]]
    raw.update(fields)
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(raw))
    return load_config(path)


def consecutive_drops(word, step):
    drops = 0
    while step - drops >= 1 and word[step - drops] == 0:
        drops += 1
    return drops


def failing_distances(monkeypatch, times=None):
    """Make ``experiments.distances_to`` raise on its first ``times`` calls
    (on every call when None); returns the list of its calls."""
    real, calls = experiments.distances_to, []

    def flaky(reference, mats):
        calls.append(len(mats))
        if times is None or len(calls) <= times:
            raise NotPositiveDefiniteError("injected distance failure")
        return real(reference, mats)

    monkeypatch.setattr(experiments, "distances_to", flaky)
    return calls


def take_route(monkeypatch, route):
    """Send every ergodic word to the segment grid when ``route`` is
    "grid"; "walk" leaves the routes as they are."""
    if route == "grid":
        monkeypatch.setattr(experiments, "_WALK_STEPS", 0)
        monkeypatch.setattr(experiments, "_GRID_ARRIVALS", 0)


def piece_spy(monkeypatch):
    """Replace ``experiments._walk_pieces`` by a generator that records the
    length of each piece it yields."""
    real, pieces = experiments._walk_pieces, []

    def wrapper(*args):
        for piece in real(*args):
            pieces.append(len(piece))
            yield piece

    monkeypatch.setattr(experiments, "_walk_pieces", wrapper)
    return pieces


class TestBreakdown:
    def test_ergodic_names_first_bad_step(self, tmp_path):
        # The run fails where the PCM overflows (step 19 849); the step named
        # is the first one that breaks PDMatrix's rules, much earlier.
        cfg = overflow_config(tmp_path, ergodic_length=20_000)
        prep = prepare(cfg)
        with np.errstate(all="ignore"):
            word, path = sequential_path(cfg, prep)
        step = int(np.flatnonzero(not_positive_definite(path))[0])
        with pytest.raises(NotPositiveDefiniteError) as err:
            run_ergodic(cfg, prep)
        assert str(err.value) == (
            f"ergodic run: the PCM at step {step} is not positive definite, "
            f"after {consecutive_drops(word, step)} consecutive drops"
        )

    def test_ergodic_grid_names_the_walks_step(self, monkeypatch, tmp_path):
        # The grid measures stored states before it knows which rows are
        # exact; a failed distance sends the run to walk the word again, so
        # both routes name the same step.
        cfg = overflow_config(tmp_path, ergodic_length=20_000)
        prep = prepare(cfg)
        with pytest.raises(NotPositiveDefiniteError) as walked:
            run_ergodic(cfg, prep)
        monkeypatch.setattr(experiments, "_WALK_STEPS", 0)
        monkeypatch.setattr(experiments, "_GRID_ARRIVALS", 0)
        grid = spy(monkeypatch, "_segment_grid")
        with np.errstate(all="ignore"), pytest.raises(NotPositiveDefiniteError) as gridded:
            run_ergodic(cfg, prep)
        assert len(grid) == 1
        assert str(gridded.value) == str(walked.value)

    @pytest.mark.parametrize("route", ["walk", "grid"])
    def test_a_distance_failing_once_leaves_the_samples(self, monkeypatch, ref_cfg, ref_prep,
                                                        route):
        # The first measurement fails as a stored state that a walk replaces
        # would; the exact path, measured again, gives the sound run's bytes.
        want = run_ergodic(ref_cfg, ref_prep)[0]
        take_route(monkeypatch, route)
        grid = spy(monkeypatch, "_segment_grid")
        calls = failing_distances(monkeypatch, times=1)
        assert run_ergodic(ref_cfg, ref_prep)[0].tobytes() == want.tobytes()
        assert len(grid) == (route == "grid") and len(calls) > 1

    @pytest.mark.parametrize("route", ["walk", "grid"])
    def test_a_distance_always_failing_raises_its_error(self, monkeypatch, ref_cfg, ref_prep,
                                                        route):
        # No PCM of the sound path breaks PDMatrix's rules, so no step is
        # named: the distance's own error is raised.
        take_route(monkeypatch, route)
        failing_distances(monkeypatch)
        with pytest.raises(NotPositiveDefiniteError, match="^injected distance failure$"):
            run_ergodic(ref_cfg, ref_prep)

    def test_empirical_distance_always_failing_raises_its_error(self, monkeypatch, ref_cfg,
                                                                ref_prep):
        failing_distances(monkeypatch)
        with pytest.raises(NotPositiveDefiniteError, match="^injected distance failure$"):
            run_empirical(replace(ref_cfg, trials=50), ref_prep)

    @pytest.mark.parametrize("route", ["walk", "grid"])
    def test_breakdown_walk_stops_at_its_first_failing_piece(self, monkeypatch, route):
        # A persistent channel on the desk plant overflows the PCM early in
        # a 200k-step word; naming the step walks a few pieces of _CHUNK
        # steps, not the word.
        cfg = load_config(CONFIGS / "paper_section5.json")
        cfg = replace(cfg, channel=ChannelParams(0.9, 0.995), ergodic_length=200_000)
        prep = prepare(cfg)
        take_route(monkeypatch, route)
        grid = spy(monkeypatch, "_segment_grid")
        pieces = piece_spy(monkeypatch)
        with pytest.raises(NotPositiveDefiniteError) as err:
            run_ergodic(cfg, prep)
        assert str(err.value) == (
            "ergodic run: the PCM at step 121 is not positive definite, "
            "after 121 consecutive drops"
        )
        assert len(grid) == (route == "grid")
        assert len(pieces) <= 3

    def test_empirical_names_first_bad_trial_and_step(self, tmp_path):
        cfg = overflow_config(tmp_path, trials=60, horizon=400)
        prep = prepare(cfg)
        blocks = _branch_blocks(prep.mp)
        failing = []
        for trial in range(cfg.trials):
            word = sample_chain(cfg.channel, cfg.init_p1, cfg.horizon, cfg.master_seed, stream=trial)
            p, bad_steps = cfg.init_pcm_scale * np.eye(2), []
            with np.errstate(all="ignore"):
                for k in range(1, cfg.horizon + 1):
                    p = step_float(blocks, p, word[k])
                    if not_positive_definite(p):
                        bad_steps.append(k)
            if bad_steps and bad_steps[-1] == cfg.horizon:
                failing.append((trial, bad_steps[0], consecutive_drops(word, bad_steps[0])))
        assert failing
        trial, step, drops = failing[0]
        with pytest.raises(NotPositiveDefiniteError) as err:
            run_empirical(cfg, prep)
        assert str(err.value) == (
            f"empirical trial {trial}: the PCM at step {step} is not positive definite, "
            f"after {drops} consecutive drops; {len(failing)} of {cfg.trials} trials end "
            "not positive definite"
        )


class TestGeneralPlantSize:
    """A 3-state plant takes the LAPACK branch of the kernel through the
    production loops; the homographic recursion is the oracle."""

    @pytest.fixture(scope="class")
    def setup(self):
        plant = random_plant(np.random.default_rng(7), n=3, m=2, p=2, n_err=1)
        cfg = ExperimentConfig(
            plant=plant, channel=ChannelParams(0.8, 0.3), trials=12, horizon=40,
            ergodic_length=300, master_seed=3,
        )
        return cfg, prepare(cfg)

    def test_empirical(self, setup):
        cfg, prep = setup
        samples, _ = run_empirical(cfg, prep)
        p0 = PDMatrix(cfg.init_pcm_scale * np.eye(3))
        for trial in range(cfg.trials):
            word = sample_chain(cfg.channel, cfg.init_p1, cfg.horizon, cfg.master_seed, stream=trial)
            want = pcm_trajectory(prep.mp, p0, word[1:], prep.p_star).distances[-1] / LN10
            assert samples[trial] == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_ergodic(self, setup):
        cfg, prep = setup
        samples, _ = run_ergodic(cfg, prep)
        word = sample_chain(cfg.channel, stationary_probability(cfg.channel),
                            cfg.ergodic_length, cfg.master_seed, stream=ERGODIC_STREAM)
        want = pcm_trajectory(prep.mp, prep.p_star, word[1:], prep.p_star).distances / LN10
        np.testing.assert_allclose(samples, want, rtol=1e-9, atol=1e-12)

    @pytest.fixture(scope="class")
    def breakdown(self):
        # a and da scaled by 30 under heavy loss: long drop runs take the
        # PCM out of the positive-definite cone.
        plant = random_plant(np.random.default_rng(7), n=3, m=2, p=2, n_err=1)
        plant = replace(plant, a=30 * plant.a, da=tuple(30 * d for d in plant.da))
        cfg = ExperimentConfig(
            plant=plant, channel=ChannelParams(0.08, 0.92), trials=60, horizon=400,
            ergodic_length=4000, master_seed=3,
        )
        return cfg, prepare(cfg)

    def test_empirical_breakdown_names_trial_and_step(self, breakdown):
        with pytest.raises(NotPositiveDefiniteError) as err:
            run_empirical(*breakdown)
        assert str(err.value) == (
            "empirical trial 22: the PCM at step 360 is not positive definite, after 92 "
            "consecutive drops; 1 of 60 trials end not positive definite"
        )

    def test_ergodic_breakdown_names_step(self, breakdown):
        with pytest.raises(NotPositiveDefiniteError) as err:
            run_ergodic(*breakdown)
        assert str(err.value) == (
            "ergodic run: the PCM at step 2103 is not positive definite, after 92 "
            "consecutive drops"
        )


@pytest.fixture(scope="module")
def table(ref_cfg, ref_prep):
    return compare_table(ref_cfg, ref_prep)


class TestCompareTable:

    def test_columns_mutually_consistent(self, table):
        # the three methods agree per cluster at desk scale
        for i in range(len(table.distances)):
            trio = [fracs[i] for fracs, _ in table.columns.values()]
            assert max(trio) - min(trio) <= 0.015

    def test_columns_sum_below_one(self, table):
        for col, _ in table.columns.values():
            assert col.sum() <= 1.0 + 1e-9

    def test_unassigned_reported(self, table):
        assert 0.0 <= table.columns["empirical"][1] <= 1.0
        assert 0.0 <= table.columns["ergodic"][1] <= 1.0
        total = table.columns["delta"][0].sum() + table.columns["delta"][1]
        assert total == pytest.approx(1.0, abs=1e-9)


@pytest.fixture(scope="module")
def heavy_table(ref_plant):
    # Heavy loss with C7's ladder and cluster width (n_d = 40, n_s = 2), at small run sizes.
    cfg = ExperimentConfig(
        plant=ref_plant, channel=ChannelParams(0.08, 0.92),
        trials=400, horizon=200, ergodic_length=4_000,
        n_d=40, n_s=2, delta_max=20.0, master_seed=2024,
    )
    prep = prepare(cfg)
    return cfg, prep, compare_table(cfg, prep)


class TestCompareColumns:
    """Each column of the compare table is its own method's cluster law."""

    def test_sampled_columns_are_their_runs_laws(self, heavy_table):
        cfg, prep, table = heavy_table
        for name, run in (("ergodic", run_ergodic), ("empirical", run_empirical)):
            fracs, unassigned = cluster_probabilities(run(cfg, prep)[0], prep.ladder, cfg.n_s)
            got, got_unassigned = table.columns[name]
            assert got.tobytes() == fracs.tobytes(), name
            assert got_unassigned == unassigned, name

    def test_delta_column_is_its_atoms_law(self, heavy_table):
        # Delta atom i lands in cluster i, so the atom masses are the column.
        cfg, prep, table = heavy_table
        gamma_st = stationary_probability(cfg.channel)
        delta = delta_distribution(prep.mp, prep.p_star, gamma_st, cfg.n_d)
        fracs, unassigned = distribution_clusters(delta, prep.ladder, cfg.n_s)
        got, got_unassigned = table.columns["delta"]
        assert got.tobytes() == fracs.tobytes()
        assert got_unassigned == unassigned


@pytest.fixture(scope="module")
def study(ref_plant, ref_prep):
    cfg = ExperimentConfig(
        plant=ref_plant, channel=ChannelParams(0.95, 0.05),
        ergodic_length=50_000, master_seed=17,
    )
    return rate_study(cfg, [500, 2_000, 10_000], ref_prep)


class TestRateStudy:

    def test_reference_checkpoint_gap_zero(self, ref_plant, ref_prep):
        cfg = ExperimentConfig(
            plant=ref_plant, channel=ChannelParams(0.95, 0.05),
            ergodic_length=2_000, master_seed=18,
        )
        results = rate_study(cfg, [500, 2_000], ref_prep)
        assert results[-1][1] == 0.0  # final checkpoint is the reference

    def test_matches_the_running_cumsum_bitwise(self, ref_plant, ref_prep):
        # The law read only at the checkpoints has the bits of the full
        # running cumulative sum that it replaced.
        cfg = ExperimentConfig(
            plant=ref_plant, channel=ChannelParams(0.95, 0.05),
            ergodic_length=2_000, master_seed=19,
        )
        checkpoints = [2, 3, 500, 2_000]
        samples, _ = run_ergodic(cfg, ref_prep)
        grid = np.array([hi for (_, hi, _) in cluster_intervals(ref_prep.ladder, cfg.n_s)])
        inside = samples[:, None] <= grid[None, :]
        running = np.cumsum(inside, axis=0) / np.arange(1, samples.size + 1)[:, None]
        want = []
        for c in checkpoints:
            gap = float(np.max(np.abs(running[c] - running[-1])))
            want.append((c, gap, float(gap / (np.log(c) / c) ** 0.25)))
        got = rate_study(cfg, checkpoints, ref_prep)
        assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_gaps_shrink(self, study):
        gaps = [gap for _, gap, _ in study]
        assert gaps[0] >= gaps[-1]

    def test_envelope_ratio_bounded(self, study):
        ratios = [env for _, _, env in study if env > 0]
        assert max(ratios) / min(ratios) < 20

    def test_traced_memory_peak(self):
        # The benchmark's rate run: 200k steps on moderate loss.  The path is
        # measured as it is built, so the grid holds the word (0.2 MB), the
        # samples (1.6 MB) and block-sized scratch, 3.1 MB in all, and the
        # traced peak is the sampler pass before it: 3.8 MB (4.5 MB in a
        # process's first draw).  Holding the path took it to 12.3 MB.
        cfg = replace(load_config(CONFIGS / "paper_section5_moderate.json"), ergodic_length=200_000)
        prep = prepare(cfg)
        assert traced_peak(lambda: rate_study(cfg, [1_000, 10_000, 100_000], prep)) < 6_000_000

    def test_checkpoints_validated(self, ref_cfg, ref_prep):
        with pytest.raises(ValueError, match="increasing"):
            rate_study(ref_cfg, [100, 100], ref_prep)
        with pytest.raises(ValueError, match="exceed"):
            rate_study(ref_cfg, [10**7], ref_prep)


class TestConfig:
    def test_validation(self, ref_plant):
        with pytest.raises(ValueError):
            ExperimentConfig(plant=ref_plant, channel=ChannelParams(0.9, 0.1), trials=0)
        with pytest.raises(ValueError):
            ExperimentConfig(plant=ref_plant, channel=ChannelParams(0.9, 0.1), init_p1=1.5)
        with pytest.raises(ValueError):
            ExperimentConfig(plant=ref_plant, channel=ChannelParams(0.9, 0.1), delta_max=-1.0)

    def test_ergodic_length_fallback(self, ref_plant):
        cfg = ExperimentConfig(plant=ref_plant, channel=ChannelParams(0.9, 0.1), horizon=123)
        assert cfg.effective_ergodic_length == 123
        cfg2 = ExperimentConfig(
            plant=ref_plant, channel=ChannelParams(0.9, 0.1), horizon=123, ergodic_length=77,
        )
        assert cfg2.effective_ergodic_length == 77
