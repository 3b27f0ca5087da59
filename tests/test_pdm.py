import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcmlab.channel import sample_chain, sample_chain_batch, stationary_probability
from pcmlab.cli import load_config
from pcmlab.experiments import ERGODIC_STREAM, _ergodic_path, prepare
from pcmlab.pdm import (
    NotPositiveDefiniteError,
    PDMatrix,
    SingularMatrixError,
    SymplecticPair,
    build_symplectic_pair,
    _CHUNK,
    _fma,
    _whitened_eigvalsh_2x2,
    distances_to,
    homographic,
    not_positive_definite,
    riemannian_distance,
    sym_sqrt,
    sym_sqrt_inv,
)
from pcmlab.plant import _advance, _branch_blocks, build_modified_plant
from pcmlab.riccati import orbit_distances, solve_dare

from conftest import random_pd, random_plant
from oracles import exact_distance_2x2, scipy_riemannian_distance

ROOT = Path(__file__).resolve().parents[1]


class TestPDMatrix:
    def test_identity_valid(self):
        p = PDMatrix.identity(3)
        assert p.dim == 3
        assert np.array_equal(p.entries, np.eye(3))

    def test_rejects_asymmetric(self):
        with pytest.raises(NotPositiveDefiniteError, match="not symmetric"):
            PDMatrix([[1.0, 0.5], [0.2, 1.0]])

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError, match="not positive definite"):
            PDMatrix([[1.0, 0.0], [0.0, -2.0]])

    def test_rejects_near_singular(self):
        with pytest.raises(NotPositiveDefiniteError):
            PDMatrix([[1.0, 0.0], [0.0, 1e-15]])

    def test_absorbs_roundoff_asymmetry(self):
        p = PDMatrix([[1.0, 0.5 + 1e-12], [0.5, 1.0]])
        assert np.allclose(p.entries, p.entries.T)

    def test_entries_immutable(self):
        p = PDMatrix.identity(2)
        with pytest.raises(ValueError):
            p.entries[0, 0] = 5.0

    def test_stack_check_follows_constructor_rules(self):
        rng = np.random.default_rng(7)
        stack = np.array([
            np.eye(2),
            random_pd(rng, 2, spread=3.0),
            [[1.0, 0.0], [0.0, -2.0]],
            [[1.0, 0.0], [0.0, 1e-15]],
            [[1.0, 0.0], [0.0, 2e-12]],
            [[0.0, 0.0], [0.0, 0.0]],
            [[np.nan, 0.0], [0.0, 1.0]],
            [[1.0, np.inf], [np.inf, 1.0]],
        ])
        rejected = []
        for mat in stack:
            try:
                PDMatrix(mat)
            except ValueError:
                rejected.append(True)
            else:
                rejected.append(False)
        assert rejected == [False, False, True, True, False, True, True, True]
        assert not_positive_definite(stack).tolist() == rejected
        assert not_positive_definite(stack.reshape(2, 4, 2, 2)).ravel().tolist() == rejected


class TestRiemannianDistance:
    def test_identity_case(self):
        assert riemannian_distance(PDMatrix.identity(2), PDMatrix.identity(2)) == 0.0

    def test_scaled_identity(self):
        # eigenvalues of (2I)(I)^-1 are both 2: sqrt(2) * ln 2
        d = riemannian_distance(PDMatrix(2.0 * np.eye(2)), PDMatrix.identity(2))
        assert d == pytest.approx(math.sqrt(2.0) * math.log(2.0), abs=1e-12)
        assert d == pytest.approx(0.980258, abs=1e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            riemannian_distance(PDMatrix.identity(2), PDMatrix.identity(3))

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_metric_axioms(self, dim):
        rng = np.random.default_rng(100 + dim)
        for _ in range(50):
            p = random_pd(rng, dim)
            q = random_pd(rng, dim)
            d_pq = riemannian_distance(p, q)
            d_qp = riemannian_distance(q, p)
            assert d_pq == pytest.approx(d_qp, rel=1e-9, abs=1e-12)
            assert riemannian_distance(p, p) <= 1e-12
            assert d_pq > 0.0

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_congruence_invariance(self, dim):
        rng = np.random.default_rng(200 + dim)
        for _ in range(50):
            p = random_pd(rng, dim)
            q = random_pd(rng, dim)
            m = rng.standard_normal((dim, dim)) + 2.0 * np.eye(dim)
            d0 = riemannian_distance(p, q)
            d1 = riemannian_distance(m @ p @ m.T, m @ q @ m.T)
            assert d1 == pytest.approx(d0, rel=1e-9, abs=1e-11)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_inversion_invariance(self, dim):
        rng = np.random.default_rng(300 + dim)
        for _ in range(50):
            p = random_pd(rng, dim)
            q = random_pd(rng, dim)
            d0 = riemannian_distance(p, q)
            d1 = riemannian_distance(np.linalg.inv(p), np.linalg.inv(q))
            assert d1 == pytest.approx(d0, rel=1e-9, abs=1e-11)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(7)
        ref = random_pd(rng, 3)
        mats = np.stack([random_pd(rng, 3) for _ in range(20)])
        batch = distances_to(ref, mats)
        single = [riemannian_distance(m, ref) for m in mats]
        np.testing.assert_allclose(batch, single, rtol=1e-10)

    @pytest.mark.parametrize("arg", [0, 1])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_non_finite_input_is_a_numerical_failure(self, arg, bad, dim):
        pair = [np.eye(dim), 2.0 * np.eye(dim)]
        pair[arg][dim - 1, 0] = bad
        with pytest.raises(NotPositiveDefiniteError, match="non-finite"):
            riemannian_distance(*pair)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_overflowing_whitening_is_a_numerical_failure(self, dim):
        # Raised without a numpy RuntimeWarning first.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotPositiveDefiniteError, match="eigenproblem failed"):
                riemannian_distance(1e300 * np.eye(dim), 1e-300 * np.eye(dim))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_batch_rejects_a_non_finite_slice(self, bad):
        mats = np.stack([np.eye(2), np.eye(2)])
        mats[1, 0, 0] = bad
        with pytest.raises(NotPositiveDefiniteError, match="non-finite"):
            distances_to(np.eye(2), mats)

    @pytest.mark.parametrize("bad", ["indefinite", "nan", "inf"])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_batch_rejects_a_bad_reference(self, bad, dim):
        ref = np.eye(dim)
        ref[1, 0] = ref[0, 1] = 2.0 if bad == "indefinite" else float(bad)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotPositiveDefiniteError, match="reference matrix"):
                distances_to(ref, np.eye(dim)[None])

    @pytest.mark.parametrize("dim", [2, 3])
    def test_batch_overflowing_whitening_is_a_numerical_failure(self, dim):
        mats = np.stack([np.eye(dim), 1e300 * np.eye(dim)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotPositiveDefiniteError):
                distances_to(1e-300 * np.eye(dim), mats)


def _random_pd_pairs(count: int, seed: int, exponents=(-3.0, 8.0)):
    """Seeded 2x2 PD pairs, each matrix at a log-uniform scale in
    ``10**exponents``, [1e-3, 1e8] by default."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        pair = []
        for scale in 10.0 ** rng.uniform(*exponents, size=2):
            m = rng.standard_normal((2, 2))
            pair.append(scale * (m @ m.T + 0.1 * np.eye(2)))
        yield pair


def _bundled_distance_pairs():
    """Every pair the bundled configs measure before any table: each DARE
    step from the identity to p*, then each ladder rung against p*."""
    pairs = []
    for path in sorted((ROOT / "configs").glob("*.json")):
        cfg = load_config(path)
        mp = build_modified_plant(cfg.plant)
        p = np.eye(mp.n)
        step = np.inf
        while step >= 1e-12:
            nxt = homographic(mp.sym.m1, p).entries
            pairs.append((nxt, p))
            step = riemannian_distance(nxt, p)
            p = nxt
        p_star = p
        p = p_star
        for _ in range(cfg.n_d):
            p = homographic(mp.sym.m0, p).entries
            pairs.append((p, p_star))
    return pairs


class TestScipyOracle:
    """The numpy-only distance keeps every bit of scipy's generalized
    eigensolver for n = 2, the size every pinned table uses."""

    @pytest.fixture(autouse=True)
    def _needs_scipy(self):
        pytest.importorskip("scipy.linalg")

    def test_bitwise_on_random_pairs(self):
        mismatches = [
            (p, q) for p, q in _random_pd_pairs(5000, seed=10)
            if riemannian_distance(p, q) != scipy_riemannian_distance(p, q)
        ]
        assert not mismatches, f"{len(mismatches)} of 5000 differ, first {mismatches[0]}"

    def test_bitwise_on_random_pairs_at_extreme_scales(self):
        # Entries up to 1e150 and down to 1e-150, where LAPACK rescales
        # before its eigensolver runs.
        for p, q in _random_pd_pairs(3000, seed=11, exponents=(-150.0, 150.0)):
            got = riemannian_distance(p, q)
            assert got == scipy_riemannian_distance(p, q)
            assert got == pytest.approx(exact_distance_2x2(p, q), rel=1e-14)

    def test_bitwise_on_bundled_dare_steps_and_ladders(self):
        pairs = _bundled_distance_pairs()
        assert len(pairs) > 200
        for p, q in pairs:
            assert riemannian_distance(p, q) == scipy_riemannian_distance(p, q)

    def test_ladder_and_fixed_point_match_scipy_route(self, ref_mp):
        # solve_dare and orbit_distances through the production distance
        # stop at the same iterate and emit the same rungs as the oracle.
        sol = solve_dare(ref_mp)
        p = np.eye(ref_mp.n)
        for _ in range(sol.iterations):
            nxt = homographic(ref_mp.sym.m1, p).entries
            delta = scipy_riemannian_distance(nxt, p)
            p = nxt
        assert delta < 1e-12 and delta == sol.final_step_delta
        np.testing.assert_array_equal(p, sol.p_star.entries)
        ladder = orbit_distances(ref_mp, sol.p_star, 8)
        rung = sol.p_star
        for i in range(1, 9):
            rung = homographic(ref_mp.sym.m0, rung)
            assert ladder[i] == scipy_riemannian_distance(rung, sol.p_star)

    @pytest.mark.parametrize("dim", [3, 4])
    def test_larger_plants_agree(self, dim):
        rng = np.random.default_rng(400 + dim)
        for _ in range(200):
            p = random_pd(rng, dim, spread=3.0)
            q = random_pd(rng, dim, spread=3.0)
            assert riemannian_distance(p, q) == pytest.approx(
                scipy_riemannian_distance(p, q), rel=1e-12
            )


class TestClosedFormEigenvalues:
    """``distances_to`` takes the closed-form eigenvalues chunk by chunk."""

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("count", [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1])
    def test_chunked_distances_equal_one_call(self, dim, count):
        rng = np.random.default_rng(23)
        ref = random_pd(rng, dim, spread=2.0)
        mats = np.stack([random_pd(rng, dim, spread=3.0) for _ in range(count)] or [np.eye(dim)])
        mats = mats[:count]
        chol = np.linalg.cholesky(ref)
        if dim == 2:
            w = _whitened_eigvalsh_2x2(chol, mats)
        else:
            inv_chol = np.linalg.inv(chol)
            w = np.linalg.eigvalsh(inv_chol @ mats @ inv_chol.T)
        expected = np.sqrt(np.sum(np.log(w) ** 2, axis=-1))
        got = distances_to(ref, mats)
        assert got.shape == (count,)
        assert got.tobytes() == expected.tobytes()


DESK_CONFIGS = ("paper_section5.json", "paper_section5_moderate.json", "paper_section5_heavy.json")


def _assert_near_exact(ref, mats, atol):
    got = distances_to(ref, mats)
    exact = np.array([exact_distance_2x2(m, ref) for m in mats])
    worst = np.max(np.abs(got - exact))
    assert worst <= atol, f"worst error {worst:.3e}"


class TestClosedFormDistance:
    """The batched 2x2 distance against the 50-digit oracle, on the PCMs the
    sampled laws measure and at extreme scales."""

    @pytest.mark.parametrize("name", DESK_CONFIGS)
    def test_desk_empirical_pcms_near_exact(self, name):
        # The first 2000 trials of the desk run at its master seed; the
        # heavy-loss ones include ill-conditioned PCMs after long drop runs.
        cfg = load_config(ROOT / "configs" / name)
        prep = prepare(cfg)
        words = sample_chain_batch(cfg.channel, cfg.init_p1, cfg.horizon, cfg.master_seed, 2000)
        p = np.broadcast_to(cfg.init_pcm_scale * np.eye(2), (2000, 2, 2)).copy()
        _advance(_branch_blocks(prep.mp), p, words[:, 1:])
        _assert_near_exact(prep.p_star.entries, p, 1e-13)

    def test_heavy_ergodic_path_near_exact(self):
        cfg = load_config(ROOT / "configs" / "paper_section5_heavy.json")
        prep = prepare(cfg)
        word = sample_chain(
            cfg.channel, stationary_probability(cfg.channel), cfg.effective_ergodic_length,
            cfg.master_seed, stream=ERGODIC_STREAM,
        )
        path = _ergodic_path(prep.mp, prep.p_star.entries, word)
        assert len(path) == 20_001
        _assert_near_exact(prep.p_star.entries, path, 1e-13)

    @pytest.mark.parametrize("exponent", range(-300, 301, 50))
    def test_extreme_scales_stay_finite_and_near_exact(self, exponent):
        rng = np.random.default_rng(24)
        ref = random_pd(rng, 2, spread=2.0)
        mats = np.stack([random_pd(rng, 2, spread=3.0) for _ in range(50)]) * 10.0**exponent
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = distances_to(ref, mats)
            shifted = distances_to(ref * 10.0**exponent, mats * 10.0**-exponent)
        exact = np.array([exact_distance_2x2(m, ref) for m in mats])
        assert np.isfinite(got).all() and np.isfinite(shifted).all()
        np.testing.assert_allclose(got, exact, rtol=1e-14, atol=1e-14)

    def test_indefinite_slice_is_refused(self):
        mats = np.stack([np.eye(2), [[1.0, 2.0], [2.0, 1.0]]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotPositiveDefiniteError, match="not positive definite"):
                distances_to(np.eye(2), mats)


def test_fma_rounds_once():
    x, y = 1.0 + 2.0**-30, 1.0 - 2.0**-30
    assert x * y - 1.0 == 0.0  # the unfused product rounds to 1
    assert _fma(x, y, -1.0) == -(2.0**-60)
    assert _fma(0.1, 10.0, -1.0) == 2.0**-54
    assert _fma(3.0, 5.0, 7.0) == 22.0
    assert np.copysign(1.0, _fma(0.0, 1.0, -0.0)) == 1.0  # an exact zero sum is +0
    with pytest.raises(OverflowError):
        _fma(1e308, 10.0, 0.0)


class TestHomographic:
    def test_identity_transform(self):
        rng = np.random.default_rng(1)
        p = PDMatrix(random_pd(rng, 3))
        out = homographic(np.eye(6), p)
        np.testing.assert_allclose(out.entries, p.entries, atol=1e-14)

    def test_open_loop_branch_equals_direct_form(self, ref_mp):
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = random_pd(rng, 2, spread=2.0)
            out = homographic(ref_mp.sym.m0, PDMatrix(x)).entries
            direct = ref_mp.a0 @ x @ ref_mp.a0.T + ref_mp.g0 @ ref_mp.g0.T
            assert np.max(np.abs(out - direct)) <= 1e-10 * (1 + np.max(np.abs(direct)))

    def test_composition_law_on_random_words(self, ref_mp):
        rng = np.random.default_rng(3)
        mats = {0: ref_mp.sym.m0, 1: ref_mp.sym.m1}
        for _ in range(30):
            length = rng.integers(1, 7)
            word = rng.integers(0, 2, size=length)
            p = PDMatrix(random_pd(rng, 2, spread=1.5))
            stepped = p
            product = np.eye(4)
            for gamma in word:
                stepped = homographic(mats[int(gamma)], stepped)
                product = mats[int(gamma)] @ product
            direct = homographic(product, p)
            scale = np.max(np.abs(stepped.entries))
            assert np.max(np.abs(direct.entries - stepped.entries)) <= 1e-9 * scale

    def test_pd_closure(self, ref_mp):
        rng = np.random.default_rng(4)
        for _ in range(25):
            p = PDMatrix(random_pd(rng, 2, spread=3.0))
            for phi in (ref_mp.sym.m0, ref_mp.sym.m1):
                out = homographic(phi, p)  # construction validates PD
                assert out.dim == 2

    def test_singular_denominator(self):
        phi = np.zeros((4, 4))
        phi[:2, :2] = np.eye(2)
        with pytest.raises(SingularMatrixError):
            homographic(phi, PDMatrix.identity(2))


class TestSymSqrt:
    def test_identity(self):
        np.testing.assert_array_equal(sym_sqrt(np.eye(3)), np.eye(3))

    def test_scaled_identity(self):
        np.testing.assert_allclose(sym_sqrt(4.0 * np.eye(2)), 2.0 * np.eye(2), atol=1e-14)

    def test_multiply_back(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            p = random_pd(rng, 4, spread=2.0)
            s = sym_sqrt(p)
            np.testing.assert_allclose(s @ s, p, rtol=1e-10, atol=1e-12)
            np.testing.assert_allclose(s, s.T, atol=1e-12)

    def test_inverse_root(self):
        rng = np.random.default_rng(6)
        p = random_pd(rng, 3)
        s_inv = sym_sqrt_inv(p)
        np.testing.assert_allclose(s_inv @ p @ s_inv, np.eye(3), atol=1e-10)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            sym_sqrt(np.diag([1.0, -1.0]))


class TestSymplecticPair:
    def test_trivial_pair_is_identity(self):
        pair = build_symplectic_pair(np.eye(2), np.zeros((2, 2)), np.eye(2), np.eye(2), np.eye(2))
        np.testing.assert_array_equal(pair.m0, np.eye(4))

    def test_symplectic_identity_random_plants(self):
        rng = np.random.default_rng(8)
        j = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]])
        for _ in range(50):
            plant = random_plant(rng)
            from pcmlab.plant import _advance, _branch_blocks, build_modified_plant

            pair = build_modified_plant(plant).sym
            for m in (pair.m0, pair.m1):
                assert np.max(np.abs(m.T @ j @ m - j)) <= 1e-8

    def test_measurement_branch_identity_direct_blocks(self):
        # Random invertible a1, arbitrary g1/h1: direct block assembly vs the
        # builder, then the symplectic identity by block multiplication.
        rng = np.random.default_rng(9)
        for _ in range(20):
            a1 = rng.standard_normal((3, 3)) + 2 * np.eye(3)
            g1 = rng.standard_normal((3, 2))
            h1 = rng.standard_normal((2, 3))
            pair = build_symplectic_pair(a1, g1, a1, g1, h1)
            w = g1 @ g1.T
            k = h1.T @ h1
            a_inv_t = np.linalg.inv(a1).T
            expect = np.block(
                [[a1, w @ a_inv_t], [k @ a1, (np.eye(3) + k @ w) @ a_inv_t]]
            )
            np.testing.assert_allclose(pair.m1, expect, atol=1e-12)
            j = np.block([[np.zeros((3, 3)), np.eye(3)], [-np.eye(3), np.zeros((3, 3))]])
            assert np.max(np.abs(expect.T @ j @ expect - j)) <= 1e-8

    def test_rejects_singular_transition(self):
        with pytest.raises(SingularMatrixError):
            build_symplectic_pair(np.zeros((2, 2)), np.eye(2), np.eye(2), np.eye(2), np.eye(2))

    def test_fixed_point_of_measurement_branch(self, ref_mp, ref_prep):
        image = homographic(ref_mp.sym.m1, ref_prep.p_star)
        assert riemannian_distance(image, ref_prep.p_star) <= 1e-6


@settings(max_examples=50, deadline=None)
@given(scale=st.floats(min_value=0.01, max_value=100.0), dim=st.integers(min_value=1, max_value=5))
def test_distance_of_scaled_identity_closed_form(scale, dim):
    d = riemannian_distance(scale * np.eye(dim), np.eye(dim))
    assert d == pytest.approx(math.sqrt(dim) * abs(math.log(scale)), rel=1e-9, abs=1e-12)
