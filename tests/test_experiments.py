import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pcmlab.experiments as experiments
from pcmlab import ChannelParams, ExperimentConfig
from pcmlab.channel import sample_chain, stationary_probability
from pcmlab.cli import load_config
from pcmlab.experiments import (
    ERGODIC_STREAM,
    LN10,
    NonFiniteSampleError,
    _ergodic_path,
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
from pcmlab.plant import _branch_blocks, _gamma0_update, _gamma1_update

from conftest import random_plant
from oracles import pcm_trajectory

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


def sequential_ergodic(cfg, prep):
    """Oracle: the step-by-step loop that the segmented run replaced."""
    word, path = sequential_path(cfg, prep)
    samples = distances_to(prep.p_star, path) / LN10
    return word, path, samples


def sequential_path(cfg, prep):
    """The ergodic arrival word and the PCM path it drives, one step at a time."""
    a0, w0, a1, w1, k1 = _branch_blocks(prep.mp)
    n = a0.shape[0]

    length = cfg.effective_ergodic_length
    gamma_st = stationary_probability(cfg.channel)
    word = sample_chain(cfg.channel, gamma_st, length, cfg.master_seed, stream=ERGODIC_STREAM)
    path = np.empty((length + 1, n, n))
    path[0] = prep.p_star.entries
    p = path[0]
    for k in range(1, length + 1):
        p = (
            _gamma1_update(a1, w1, k1, p)
            if word[k]
            else _gamma0_update(a0, w0, p)
        )
        path[k] = p
    return word, path


def assert_segmented_exact(cfg, prep):
    """The segmented path and samples equal the oracle's bit for bit;
    returns the number of rounds the segmented path took."""
    word, path, samples = sequential_ergodic(cfg, prep)
    segmented, rounds = _ergodic_path(prep.mp, prep.p_star.entries, word)
    assert segmented.tobytes() == path.tobytes()
    assert run_ergodic(cfg, prep)[0].tobytes() == samples.tobytes()
    assert 1 <= rounds <= -(-(word.size - 1) // experiments._SEGMENT)
    return rounds


class TestSegmentedErgodic:
    @pytest.mark.parametrize("name", DESK_CONFIGS)
    def test_desk_configs_bitwise(self, name):
        cfg = load_config(CONFIGS / name)
        assert_segmented_exact(cfg, prepare(cfg))

    def test_heavy_loss_rerun_rounds_bitwise(self):
        # Under heavy loss some segments do not forget the first round's
        # guess within their steps; this word needs re-run rounds beyond the
        # second, which must still be exact.
        cfg = replace(load_config(CONFIGS / "paper_section5_heavy.json"), master_seed=18)
        assert assert_segmented_exact(cfg, prepare(cfg)) >= 3

    @pytest.mark.parametrize(
        "length",
        [
            1,
            experiments._SEGMENT - 1,
            experiments._SEGMENT,
            experiments._SEGMENT + 1,
            5 * experiments._SEGMENT // 2 + 7,
        ],
    )
    def test_lengths_around_segment_bitwise(self, ref_cfg, ref_prep, length):
        assert_segmented_exact(replace(ref_cfg, ergodic_length=length), ref_prep)

    @pytest.mark.parametrize("segment", [7, 3, 1, 13])
    def test_exact_for_any_segment_lengths(self, monkeypatch, segment):
        monkeypatch.setattr(experiments, "_SEGMENT", segment)
        cfg = replace(
            load_config(CONFIGS / "paper_section5_heavy.json"), ergodic_length=500
        )
        assert assert_segmented_exact(cfg, prepare(cfg)) > 1

    def test_rounds_bounded_without_coalescence(self, tmp_path):
        # With a scaled by 8 the recursion forgets its start far more slowly:
        # no segment forgets the first round's guess within its steps,
        # re-run rounds accept about one segment each, and the loop still
        # ends within the segment count.
        cfg = overflow_config(tmp_path, ergodic_length=5 * experiments._SEGMENT)
        assert assert_segmented_exact(cfg, prepare(cfg)) >= 4


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

    def test_empirical_names_first_bad_trial_and_step(self, tmp_path):
        cfg = overflow_config(tmp_path, trials=60, horizon=400)
        prep = prepare(cfg)
        a0, w0, a1, w1, k1 = _branch_blocks(prep.mp)
        failing = []
        for trial in range(cfg.trials):
            word = sample_chain(cfg.channel, cfg.init_p1, cfg.horizon, cfg.master_seed, stream=trial)
            p, bad_steps = cfg.init_pcm_scale * np.eye(2), []
            with np.errstate(all="ignore"):
                for k in range(1, cfg.horizon + 1):
                    p = _gamma1_update(a1, w1, k1, p) if word[k] else _gamma0_update(a0, w0, p)
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


@pytest.fixture(scope="module")
def table(ref_cfg, ref_prep):
    return compare_table(ref_cfg, ref_prep)


class TestCompareTable:

    def test_columns_mutually_consistent(self, table):
        # the three methods agree per cluster at desk scale
        for i in range(len(table.distances)):
            trio = [table.delta_approx[i], table.ergodic[i], table.empirical[i]]
            assert max(trio) - min(trio) <= 0.015

    def test_columns_sum_below_one(self, table):
        for col in (table.delta_approx, table.ergodic, table.empirical):
            assert col.sum() <= 1.0 + 1e-9

    def test_unassigned_reported(self, table):
        assert 0.0 <= table.unassigned_empirical <= 1.0
        assert 0.0 <= table.unassigned_ergodic <= 1.0
        total = table.delta_approx.sum() + table.unassigned_delta
        assert total == pytest.approx(1.0, abs=1e-9)


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
