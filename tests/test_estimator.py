import numpy as np
import pytest

from pcmlab import PDMatrix, pcm_step, riemannian_distance
from pcmlab.estimator import (
    EstimatorState,
    filter_step,
    pcm_update_compact_form,
    pcm_update_hat_form,
    simulate_trajectory,
)
from pcmlab.plant import build_modified_plant

from conftest import random_pd, random_plant
from oracles import pcm_trajectory


class TestPcmStep:
    def test_fixed_point_under_arrival(self, ref_mp, ref_prep):
        out = pcm_step(ref_mp, ref_prep.p_star, 1)
        assert riemannian_distance(out, ref_prep.p_star) <= 1e-8

    def test_open_loop_equals_direct_formula(self, ref_plant, ref_mp):
        rng = np.random.default_rng(21)
        for _ in range(20):
            x = random_pd(rng, 2, spread=2.0)
            out = pcm_step(ref_mp, PDMatrix(x), 0).entries
            direct = ref_plant.a @ x @ ref_plant.a.T + ref_plant.b @ ref_plant.q.entries @ ref_plant.b.T
            assert np.max(np.abs(out - direct)) <= 1e-10 * (1 + np.max(np.abs(direct)))

    def test_arrival_branch_three_forms_agree(self):
        rng = np.random.default_rng(22)
        worst = 0.0
        for trial in range(100):
            plant = random_plant(rng, n=3, m=2, p=2, n_err=2)
            mp = build_modified_plant(plant)
            x = random_pd(rng, 3, spread=1.5)
            via_hm = pcm_step(mp, PDMatrix(x), 1).entries
            via_compact = pcm_update_compact_form(mp, x)
            via_hat = pcm_update_hat_form(plant, x)
            scale = np.max(np.abs(via_hm))
            worst = max(worst, np.max(np.abs(via_compact - via_hm)) / scale)
            worst = max(worst, np.max(np.abs(via_hat - via_hm)) / scale)
        assert worst <= 1e-8

    def test_rejects_bad_branch(self, ref_mp, ref_prep):
        with pytest.raises(ValueError, match="gamma"):
            pcm_step(ref_mp, ref_prep.p_star, 2)


class TestRseioStep:
    def test_open_loop_is_linear_in_estimate(self, ref_plant, ref_mp):
        st = EstimatorState(x_hat=np.zeros(2), p=PDMatrix.identity(2))
        nxt = filter_step(ref_mp, ref_plant, st, None, 0)
        assert np.array_equal(nxt.x_hat, np.zeros(2))
        direct = ref_plant.a @ np.eye(2) @ ref_plant.a.T + ref_plant.b @ ref_plant.q.entries @ ref_plant.b.T
        np.testing.assert_allclose(nxt.p.entries, direct, atol=1e-12)
        assert nxt.k == 1

    def test_measurement_required_iff_arrival(self, ref_plant, ref_mp):
        st = EstimatorState(x_hat=np.zeros(2), p=PDMatrix.identity(2))
        with pytest.raises(ValueError, match="requires a measurement"):
            filter_step(ref_mp, ref_plant, st, None, 1)
        with pytest.raises(ValueError, match="must not carry"):
            filter_step(ref_mp, ref_plant, st, np.zeros(1), 0)

    def test_reduces_to_kalman_filter(self):
        # No sensitivity directions, mu = 1: the update must match the
        # textbook predict/update cycle exactly.
        rng = np.random.default_rng(23)
        from pcmlab.plant import NominalPlant

        for _ in range(20):
            n, m, p = 2, 2, 1
            plant = NominalPlant(
                a=rng.standard_normal((n, n)) + 2 * np.eye(n),
                b=rng.standard_normal((n, m)),
                c=rng.standard_normal((p, n)),
                q=PDMatrix(random_pd(rng, m)),
                r=PDMatrix(random_pd(rng, p)),
                mu=1.0,
            )
            mp = build_modified_plant(plant)
            x_hat = rng.standard_normal(n)
            p0 = random_pd(rng, n)
            y = rng.standard_normal(p)
            st = filter_step(mp, plant, EstimatorState(x_hat=x_hat, p=PDMatrix(p0)), y, 1)

            a, b, c = plant.a, plant.b, plant.c
            q, r = plant.q.entries, plant.r.entries
            p_pred = a @ p0 @ a.T + b @ q @ b.T
            k_gain = p_pred @ c.T @ np.linalg.inv(c @ p_pred @ c.T + r)
            x_pred = a @ x_hat
            x_expect = x_pred + k_gain @ (y - c @ x_pred)
            p_expect = (np.eye(n) - k_gain @ c) @ p_pred
            np.testing.assert_allclose(st.x_hat, x_expect, rtol=1e-8, atol=1e-10)
            np.testing.assert_allclose(st.p.entries, p_expect, rtol=1e-8, atol=1e-10)

    def test_pcm_path_ignores_data(self, ref_plant, ref_mp, ref_prep):
        # Run the full estimator with synthetic noise and compare its PCM
        # sequence with the data-free recursion on the same arrival word.
        rng = np.random.default_rng(24)
        word = rng.integers(0, 2, size=1000).astype(np.uint8)
        p0 = PDMatrix(10.0 * np.eye(2))
        run = simulate_trajectory(ref_plant, ref_mp, word, np.array([1.0, 0.0]), p0, seed=99)
        traj = pcm_trajectory(ref_mp, p0, word)
        for a, b in zip(run["pcms"], traj.pcms):
            np.testing.assert_array_equal(a.entries, b.entries)


class TestPcmTrajectory:
    def test_all_arrivals_from_fixed_point_is_constant(self, ref_mp, ref_prep):
        traj = pcm_trajectory(ref_mp, ref_prep.p_star, np.ones(30, dtype=np.uint8), ref_prep.p_star)
        assert np.max(traj.distances) <= 1e-8

    def test_empty_word(self, ref_mp, ref_prep):
        traj = pcm_trajectory(ref_mp, ref_prep.p_star, [], ref_prep.p_star)
        assert len(traj.pcms) == 1
        assert traj.distances[0] <= 1e-12

    def test_word_form_equals_step_form(self, ref_mp):
        rng = np.random.default_rng(25)
        from pcmlab.pdm import homographic

        for _ in range(20):
            length = rng.integers(1, 9)
            word = rng.integers(0, 2, size=length).astype(np.uint8)
            p0 = PDMatrix(random_pd(rng, 2, spread=1.5))
            traj = pcm_trajectory(ref_mp, p0, word)
            product = np.eye(4)
            for gamma in word:
                product = (ref_mp.sym.m1 if gamma else ref_mp.sym.m0) @ product
            direct = homographic(product, p0)
            scale = np.max(np.abs(direct.entries))
            assert np.max(np.abs(direct.entries - traj.pcms[-1].entries)) <= 1e-9 * scale

    def test_initial_conditions_contract_with_arrivals(self, ref_mp):
        rng = np.random.default_rng(26)
        word = rng.integers(0, 2, size=12).astype(np.uint8)
        word[3] = 1  # ensure at least one contraction step
        x = PDMatrix(random_pd(rng, 2, spread=2.0))
        y = PDMatrix(random_pd(rng, 2, spread=2.0))
        tx = pcm_trajectory(ref_mp, x, word)
        ty = pcm_trajectory(ref_mp, y, word)
        d0 = riemannian_distance(x, y)
        d1 = riemannian_distance(tx.pcms[-1], ty.pcms[-1])
        assert d1 < d0


class TestBranchMapProperties:
    def _pairs(self, seed, count=200):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            x = random_pd(rng, 2, spread=2.0)
            y = random_pd(rng, 2, spread=2.0)
            d = riemannian_distance(x, y)
            if d > 1e-4:
                yield PDMatrix(x), PDMatrix(y), d

    def test_strict_contraction_under_arrival(self, ref_mp):
        for x, y, d in self._pairs(27):
            d_im = riemannian_distance(pcm_step(ref_mp, x, 1), pcm_step(ref_mp, y, 1))
            assert d_im < d

    def test_non_expansive_without_arrival(self, ref_mp):
        for x, y, d in self._pairs(28):
            d_im = riemannian_distance(pcm_step(ref_mp, x, 0), pcm_step(ref_mp, y, 0))
            assert d_im <= d * (1 + 1e-9)

    def test_injectivity_both_branches(self, ref_mp):
        for x, y, d in self._pairs(29):
            for gamma in (0, 1):
                d_im = riemannian_distance(
                    pcm_step(ref_mp, x, gamma), pcm_step(ref_mp, y, gamma)
                )
                assert d_im > 1e-8
