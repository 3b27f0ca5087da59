import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pcmlab.channel as channel
from pcmlab import ChannelParams
from pcmlab.channel import sample_chain, sample_chain_batch, stationary_probability
from pcmlab.rng import mix64, mix64_streams, stream_rng

probs = st.floats(min_value=0.01, max_value=0.99)


class TestParams:
    @pytest.mark.parametrize("alpha,beta", [(0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0), (-0.1, 0.5), (0.5, 1.2)])
    def test_boundary_and_outside_rejected(self, alpha, beta):
        with pytest.raises(ValueError):
            ChannelParams(alpha, beta)

    @pytest.mark.parametrize(
        "alpha,beta,expected",
        [(0.95, 0.05, 0.95), (0.80, 0.30, 0.77778), (0.08, 0.92, 0.08)],
    )
    def test_stationary_probability_reference_values(self, alpha, beta, expected):
        assert stationary_probability(ChannelParams(alpha, beta)) == pytest.approx(expected, abs=5e-6)

    @settings(max_examples=100, deadline=None)
    @given(alpha=probs, beta=probs)
    def test_stationary_vector_is_transition_fixed_point(self, alpha, beta):
        params = ChannelParams(alpha, beta)
        pi1 = stationary_probability(params)
        vec = np.array([pi1, 1.0 - pi1])
        # Column-stochastic transition matrix acting on (P(1), P(0)).
        transition = np.array([[alpha, 1.0 - beta], [1.0 - alpha, beta]])
        out = transition @ vec
        np.testing.assert_allclose(out, vec, atol=1e-14)


def step_loop_chain(params, init_p1, length, seed, stream):
    """Oracle: draw the chain one transition at a time."""
    u = stream_rng(seed, stream).random(length + 1)
    word = np.empty(length + 1, dtype=np.uint8)
    word[0] = u[0] < init_p1
    a, nb = params.alpha, 1.0 - params.beta
    prev = bool(word[0])
    for k in range(1, length + 1):
        prev = u[k] < (a if prev else nb)
        word[k] = prev
    return word


class TestSampleChain:
    def test_deterministic_given_seed(self):
        params = ChannelParams(0.7, 0.4)
        w1 = sample_chain(params, 0.5, 500, seed=77)
        w2 = sample_chain(params, 0.5, 500, seed=77)
        np.testing.assert_array_equal(w1, w2)
        w3 = sample_chain(params, 0.5, 500, seed=78)
        assert np.any(w1 != w3)

    def test_length_and_dtype(self):
        w = sample_chain(ChannelParams(0.5, 0.5), 1.0, 10, seed=1)
        assert w.shape == (11,)
        assert w.dtype == np.uint8
        assert w[0] == 1  # init_p1 = 1 forces the initial state

    def test_near_degenerate_stays_up(self):
        # alpha -> 1, beta -> 0: leaving state 1 is essentially impossible.
        w = sample_chain(ChannelParams(0.999999, 0.000001), 1.0, 10**5, seed=5)
        assert np.count_nonzero(w == 0) < 1

    def test_bernoulli_special_case_uncorrelated(self):
        # alpha = 1 - beta makes successive symbols independent.
        params = ChannelParams(0.7, 0.3)
        w = sample_chain(params, 0.7, 10**5, seed=6).astype(float)
        x, y = w[:-1] - w.mean(), w[1:] - w.mean()
        rho = np.mean(x * y) / np.var(w)
        assert abs(rho) <= 4.0 / np.sqrt(w.size)

    def test_law_of_large_numbers_at_stationarity(self):
        params = ChannelParams(0.95, 0.05)
        w = sample_chain(params, stationary_probability(params), 10**5, seed=7)
        assert np.mean(w) == pytest.approx(0.95, abs=0.01)

    def test_batch_matches_single_streams(self):
        # Every row against the step-loop oracle on its own stream: alpha >
        # 1 - beta, alpha < 1 - beta and alpha = 1 - beta; a batch that
        # crosses a chunk of uniforms; a stream offset; lengths 0, 1, 2, 200.
        for alpha, beta in [(0.8, 0.3), (0.2, 0.3), (0.7, 0.3)]:
            params = ChannelParams(alpha, beta)
            for n_chains, offset in [(5, 0), (channel._CHUNK + 88, 0), (channel._CHUNK + 88, 12_345)]:
                for length in (0, 1, 2, 200):
                    batch = sample_chain_batch(params, 0.7, length, 42, n_chains, offset)
                    assert batch.shape == (n_chains, length + 1) and batch.dtype == np.uint8
                    for i in range(n_chains):
                        want = step_loop_chain(params, 0.7, length, seed=42, stream=offset + i)
                        assert batch[i].tobytes() == want.tobytes()

    @pytest.mark.parametrize("init_p1, length", [(0.5, -1), (-0.5, 10), (1.7, 10)])
    def test_batch_rejects_bad_length_and_init_probability(self, init_p1, length):
        with pytest.raises(ValueError):
            sample_chain_batch(ChannelParams(0.8, 0.3), init_p1, length, 1, 3)

    def test_transition_frequencies_match_parameters(self):
        params = ChannelParams(0.80, 0.30)
        w = sample_chain(params, 0.7, 2 * 10**5, seed=8).astype(int)
        p11 = np.mean(w[1:][w[:-1] == 1])
        p00 = 1.0 - np.mean(w[1:][w[:-1] == 0])
        assert p11 == pytest.approx(0.80, abs=0.01)
        assert p00 == pytest.approx(0.30, abs=0.01)

    # alpha > 1 - beta (states persist), alpha < 1 - beta (states alternate)
    # and alpha = 1 - beta (independent symbols).
    @pytest.mark.parametrize("alpha, beta", [(0.95, 0.05), (0.8, 0.3), (0.08, 0.92),
                                             (0.2, 0.3), (0.1, 0.05), (0.7, 0.3)])
    @pytest.mark.parametrize("init_p1", [0.0, 0.35, 1.0])
    def test_bitwise_equal_to_step_loop(self, alpha, beta, init_p1):
        params = ChannelParams(alpha, beta)
        for seed in range(4):
            for length in (0, 1, 2, 2_000):
                assert sample_chain(params, init_p1, length, seed, stream=seed + 3).tobytes() == (
                    step_loop_chain(params, init_p1, length, seed, stream=seed + 3).tobytes()
                )


    @pytest.mark.parametrize("alpha, beta", [(0.8, 0.3), (0.2, 0.3)])
    def test_lengths_across_the_anchor_dtype_switch(self, alpha, beta):
        # Anchors are packed as 2k + value, held as uint8 up to length 127,
        # uint16 up to 32767 and uint32 from 32768 on; one and two rows at
        # the lengths on both sides of each switch, and around 65536, where
        # bare step indices used to switch.  Only the last steps would suffer
        # from too narrow a type, so eight rows are checked at the first
        # length of each wider type.
        params = ChannelParams(alpha, beta)
        for length in (127, 128, 32767, 32768, *range(65533, 65537)):
            rows = 8 if length in (128, 32768, 65536) else 2
            want = [step_loop_chain(params, 0.35, length, 11, 40 + i) for i in range(rows)]
            for n_chains in sorted({1, 2, rows}):
                batch = sample_chain_batch(params, 0.35, length, 11, n_chains, 40)
                for i in range(n_chains):
                    assert batch[i].tobytes() == want[i].tobytes()


def splitmix64(seed, stream):
    """Oracle: the SplitMix64 finalizer of ``seed + GOLDEN * (stream + 1)``
    in Python integers, reduced modulo 2**64 after every step."""
    mask = (1 << 64) - 1
    z = (seed + 0x9E3779B97F4A7C15 * (stream + 1)) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


class TestSeedRange:
    # The seed mixer works modulo 2**64, so -1 would alias 2**64 - 1.
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_refused(self, seed):
        with pytest.raises(ValueError, match=rf"seed must lie in \[0, 2\*\*64\), got {seed}$"):
            sample_chain(ChannelParams(0.8, 0.3), 0.7, 1000, seed, stream=0)

    def test_stream_outside_refused(self):
        with pytest.raises(ValueError, match=r"stream must lie in \[0, 2\*\*64\), got -1$"):
            mix64(5, -1)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_range_ends_accepted(self, seed):
        word = sample_chain(ChannelParams(0.8, 0.3), 0.7, 1000, seed, stream=0)
        assert word.tobytes() == step_loop_chain(ChannelParams(0.8, 0.3), 0.7, 1000, seed, 0).tobytes()

    @pytest.mark.parametrize("seed", [0, 20260809, 2**64 - 1])
    def test_stream_keys_equal_the_integer_finalizer(self, seed):
        for first, count in [(0, 300), (1 << 48, 5), (2**64 - 4, 4)]:
            keys = mix64_streams(seed, first, count)
            assert keys.dtype == np.uint64
            want = [splitmix64(seed, first + i) for i in range(count)]
            assert keys.tolist() == want
            assert [mix64(seed, first + i) for i in range(count)] == want

    def test_stream_range_past_the_end_refused(self):
        with pytest.raises(ValueError, match=rf"stream must lie in \[0, 2\*\*64\), got {2**64}$"):
            mix64_streams(5, 2**64 - 4, 5)
