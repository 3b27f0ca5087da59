import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcmlab.pdm import (
    NotPositiveDefiniteError,
    PDMatrix,
    SingularMatrixError,
    SymplecticPair,
    build_symplectic_pair,
    distances_to,
    homographic,
    not_positive_definite,
    riemannian_distance,
    sym_sqrt,
    sym_sqrt_inv,
)

from conftest import random_pd, random_plant


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
            from pcmlab.plant import build_modified_plant

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
