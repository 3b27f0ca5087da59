import numpy as np
import pytest

from pcmlab import PDMatrix, riemannian_distance, solve_dare
from pcmlab.channel import ChannelParams, sample_chain
from pcmlab.riccati import orbit_distances

from conftest import REF_P_STAR
from oracles import (
    _tangent_perturbation,
    estimate_contraction,
    pcm_trajectory,
    riccati_map,
    solve_dare_direct,
)


class TestSolveDare:
    def test_reference_fixed_point(self, ref_prep):
        assert np.max(np.abs(ref_prep.p_star.entries - REF_P_STAR)) <= 5e-4

    def test_scalar_no_dynamics(self):
        # a1 = 0 kills the state carry-over: the fixed point solves
        # p = 1 / (1/g^2 + h^2) directly.
        sol = solve_dare_direct([[0.0]], [[1.0]], [[1.0]])
        assert sol.p_star.entries[0, 0] == pytest.approx(0.5, abs=1e-10)

    def test_scalar_unit_dynamics(self):
        # p = (p + 1) / (p + 2) has the positive root of p^2 + p - 1 = 0.
        sol = solve_dare_direct([[1.0]], [[1.0]], [[1.0]])
        golden = (np.sqrt(5.0) - 1.0) / 2.0
        assert sol.p_star.entries[0, 0] == pytest.approx(golden, abs=1e-10)

    def test_direct_and_homographic_paths_agree(self, ref_mp, ref_prep):
        sol = solve_dare_direct(ref_mp.a1, ref_mp.g1, ref_mp.h1)
        assert riemannian_distance(sol.p_star, ref_prep.p_star) <= 1e-8

    def test_fixed_point_residual(self, ref_mp, ref_prep):
        image = riccati_map(ref_mp.a1, ref_mp.g1, ref_mp.h1, ref_prep.p_star.entries)
        assert riemannian_distance(image, ref_prep.p_star) <= 1e-8

    def test_initial_value_independence(self, ref_mp):
        starts = [PDMatrix(np.eye(2)), PDMatrix(100.0 * np.eye(2)), PDMatrix(0.01 * np.eye(2))]
        solutions = [solve_dare(ref_mp, p0=p0).p_star for p0 in starts]
        for other in solutions[1:]:
            assert riemannian_distance(solutions[0], other) <= 1e-8

    def test_structure_gate(self):
        from pcmlab.plant import NominalPlant, build_modified_plant

        plant = NominalPlant(
            a=np.diag([2.0, 3.0]), b=[[1.0], [0.0]], c=[[1.0, 1.0]],
            q=PDMatrix([[1.0]]), r=PDMatrix([[1.0]]), mu=1.0,
        )
        with pytest.raises(ValueError, match="controllable"):
            solve_dare(build_modified_plant(plant))

    def test_convergence_budget_respected(self, ref_mp):
        from pcmlab.riccati import ConvergenceError

        with pytest.raises(ConvergenceError):
            solve_dare(ref_mp, tol=1e-12, max_iter=3)


@pytest.fixture(scope="module")
def estimate(ref_mp, ref_prep):
    return estimate_contraction(ref_mp, n_samples=200, radius=5.0, seed=123, p_star=ref_prep.p_star)


class TestContraction:

    def test_measurement_branch_contracts(self, estimate):
        assert 0.0 < estimate.alpha1_hat < 1.0

    def test_open_loop_non_expansive(self, estimate):
        assert estimate.alpha0_hat <= 1.0 + 1e-9

    def test_growth_bound_coefficients_positive(self, estimate):
        assert estimate.a_hat > 0 and estimate.b_hat > 0
        assert estimate.n_samples == 200

    def test_growth_bound_covers_fresh_samples(self, ref_mp, ref_prep, estimate):
        # The fitted affine bound must cover every sample it was built from;
        # check it holds on a fresh draw up to the sampled-supremum caveat.
        from pcmlab.pdm import homographic

        ref_half = np.linalg.cholesky(ref_prep.p_star.entries)
        rng = np.random.default_rng(321)
        violations = 0
        for _ in range(100):
            x = _tangent_perturbation(ref_half, float(np.exp(rng.uniform(np.log(1e-3), np.log(5.0)))), rng)
            d_in = riemannian_distance(x, ref_prep.p_star)
            d_out = riemannian_distance(homographic(ref_mp.sym.m0, PDMatrix(x)), ref_prep.p_star)
            if d_out > estimate.a_hat * d_in + estimate.b_hat * (1 + 1e-9):
                violations += 1
        assert violations <= 2

    def test_sampler_never_emits_coincident_pairs(self, ref_prep):
        ref_half = np.linalg.cholesky(ref_prep.p_star.entries)
        rng = np.random.default_rng(55)
        for _ in range(50):
            x = _tangent_perturbation(ref_half, 1e-3, rng)
            assert riemannian_distance(x, ref_prep.p_star) == pytest.approx(1e-3, rel=1e-6)

    def test_input_validation(self, ref_mp):
        with pytest.raises(ValueError, match="n_samples"):
            estimate_contraction(ref_mp, n_samples=5, radius=1.0, seed=1)
        with pytest.raises(ValueError, match="radius"):
            estimate_contraction(ref_mp, n_samples=20, radius=-1.0, seed=1)

    def test_exponential_envelope_along_stationary_words(self, ref_mp, ref_prep, estimate):
        # Along stationary arrival words the pair distance must sit under
        # alpha1_hat^(#arrivals) times the initial distance.  A 1e-12
        # absolute floor absorbs the eigenvalue-log noise once trajectories
        # have contracted to within machine precision of each other.
        params = ChannelParams(0.95, 0.05)
        ref_half = np.linalg.cholesky(ref_prep.p_star.entries)
        rng = np.random.default_rng(77)
        for k_idx, k in enumerate((50, 100, 200)):
            satisfied = 0
            total = 40
            for i in range(total):
                word = sample_chain(params, 0.95, k, seed=1000 + i, stream=k_idx)[1:]
                x = PDMatrix(_tangent_perturbation(ref_half, float(rng.uniform(0.5, 3.0)), rng))
                y = PDMatrix(_tangent_perturbation(ref_half, float(rng.uniform(0.5, 3.0)), rng))
                d0 = riemannian_distance(x, y)
                tx = pcm_trajectory(ref_mp, x, word)
                ty = pcm_trajectory(ref_mp, y, word)
                dk = riemannian_distance(tx.pcms[-1], ty.pcms[-1])
                bound = estimate.alpha1_hat ** int(np.sum(word)) * d0 * (1 + 1e-6)
                if dk <= bound + 1e-12:
                    satisfied += 1
            assert satisfied / total >= 0.99


class TestOrbit:
    def test_orbit_distances_increasing(self, ref_mp, ref_prep):
        ladder = orbit_distances(ref_mp, ref_prep.p_star, 8)
        assert ladder[0] == 0.0
        assert np.all(np.diff(ladder) > 0)
