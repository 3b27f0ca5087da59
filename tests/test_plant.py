import numpy as np
import pytest

from pcmlab import PDMatrix, build_modified_plant
from pcmlab.pdm import SingularMatrixError
from pcmlab.plant import NominalPlant, check_structure, sensitivity_matrices

from conftest import make_reference_plant, random_plant


def kalman_plant(n=2, m=2, p=1, mu=1.0, seed=0):
    """Plant with no sensitivity directions at all (n_err = 0)."""
    rng = np.random.default_rng(seed)
    return NominalPlant(
        a=rng.standard_normal((n, n)) + 2 * np.eye(n),
        b=rng.standard_normal((n, m)),
        c=rng.standard_normal((p, n)),
        q=PDMatrix(np.eye(m)),
        r=PDMatrix(np.eye(p)),
        mu=mu,
    )


class TestSensitivityMatrices:
    def test_zero_derivatives_vanish(self):
        plant = make_reference_plant()
        zeroed = NominalPlant(
            a=plant.a, b=plant.b, c=plant.c, q=plant.q, r=plant.r,
            da=(np.zeros((2, 2)),), db=(np.zeros((2, 2)),), dc=(np.zeros((1, 2)),),
            mu=0.8,
        )
        s, t = sensitivity_matrices(zeroed)
        assert not np.any(s) and not np.any(t)
        assert s.shape == (2, 2) and t.shape == (2, 2)

    def test_reference_plant_hand_derivative(self, ref_plant):
        # d/de of the transition is the rank-one block [[0, .099], [0, 0]];
        # stacking [c @ da; dc @ a] gives one nonzero row.
        s, t = sensitivity_matrices(ref_plant)
        np.testing.assert_allclose(s, [[0.0, 0.099], [0.0, 0.0]], atol=1e-15)
        np.testing.assert_array_equal(t, np.zeros((2, 2)))

    def test_no_error_components_gives_empty_stacks(self):
        plant = kalman_plant()
        s, t = sensitivity_matrices(plant)
        assert s.shape == (0, 2)
        assert t.shape == (0, 2)

    def test_row_count_scales_with_components(self):
        rng = np.random.default_rng(3)
        plant = random_plant(rng, n=3, m=2, p=2, n_err=3)
        s, t = sensitivity_matrices(plant)
        assert s.shape == (2 * 2 * 3, 3)
        assert t.shape == (2 * 2 * 3, 2)


class TestModifiedPlant:
    def test_lambda_from_mu(self, ref_mp):
        assert ref_mp.lam == pytest.approx(0.25, abs=1e-12)

    def test_kalman_degeneracy_zero_derivatives(self):
        rng = np.random.default_rng(11)
        base = random_plant(rng, n=3, m=2, p=2, n_err=2)
        zeroed = NominalPlant(
            a=base.a, b=base.b, c=base.c, q=base.q, r=base.r,
            da=tuple(np.zeros_like(d) for d in base.da),
            db=tuple(np.zeros_like(d) for d in base.db),
            dc=tuple(np.zeros_like(d) for d in base.dc),
            mu=base.mu,
        )
        mp = build_modified_plant(zeroed)
        np.testing.assert_allclose(mp.a1, zeroed.a, atol=1e-12)
        np.testing.assert_allclose(mp.q_tilde, zeroed.q.entries, atol=1e-12)
        np.testing.assert_allclose(mp.c_tilde, zeroed.c, atol=1e-12)
        np.testing.assert_allclose(mp.r_tilde, zeroed.r.entries, atol=1e-12)

    def test_mu_one_collapses_corrections(self):
        rng = np.random.default_rng(12)
        base = random_plant(rng, n=2, m=2, p=1, n_err=1)
        relaxed = NominalPlant(
            a=base.a, b=base.b, c=base.c, q=base.q, r=base.r,
            da=base.da, db=base.db, dc=base.dc, mu=1.0,
        )
        mp = build_modified_plant(relaxed)
        assert mp.lam == 0.0
        np.testing.assert_allclose(mp.a1, relaxed.a, atol=1e-12)
        np.testing.assert_allclose(mp.g1, mp.g0, atol=1e-12)
        # measurement stack reduces to the whitened nominal output map
        from pcmlab.pdm import sym_sqrt_inv

        np.testing.assert_allclose(
            mp.h1, sym_sqrt_inv(relaxed.r.entries) @ relaxed.c, atol=1e-12
        )

    def test_square_root_consistency(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            plant = random_plant(rng, n=2, m=2, p=1, n_err=1)
            mp = build_modified_plant(plant)
            lhs = mp.g1 @ mp.g1.T
            rhs = plant.b @ mp.q_tilde @ plant.b.T
            assert np.max(np.abs(lhs - rhs)) <= 1e-10 * (1 + np.max(np.abs(rhs)))

    def test_rebuild_is_bit_stable(self, ref_plant):
        mp1 = build_modified_plant(ref_plant)
        mp2 = build_modified_plant(ref_plant)
        for field in ("a1", "g1", "h1", "q_tilde", "c_tilde", "r_tilde"):
            np.testing.assert_array_equal(getattr(mp1, field), getattr(mp2, field))

    def test_intermediates_follow_definitions(self, ref_plant, ref_mp):
        lam = ref_plant.lam
        s, t = sensitivity_matrices(ref_plant)
        q = ref_plant.q.entries
        q_check = np.linalg.inv(np.linalg.inv(q) + lam * t.T @ t)
        np.testing.assert_allclose(ref_mp.q_check, q_check, atol=1e-10)
        a_check = ref_plant.a - lam * ref_plant.b @ q_check @ t.T @ s
        np.testing.assert_allclose(ref_mp.a_check, a_check, atol=1e-10)
        np.testing.assert_allclose(
            ref_mp.b_tilde, np.linalg.solve(a_check, ref_plant.b), atol=1e-10
        )

    def test_singular_transition_rejected(self):
        plant = NominalPlant(
            a=np.zeros((2, 2)), b=np.eye(2), c=[[1.0, 0.0]],
            q=PDMatrix(np.eye(2)), r=PDMatrix([[1.0]]),
        )
        with pytest.raises(SingularMatrixError, match="nominal state transition"):
            build_modified_plant(plant)


class TestStructure:
    def test_reference_plant_structure(self, ref_mp):
        report = check_structure(ref_mp)
        assert report.controllable and report.observable
        assert report.ctrb_rank == 2 and report.obsv_rank == 2
        assert report.a0_invertible and report.a1_invertible
        # triangular transition: radius is the top-left entry
        assert report.spectral_radius_a0 == pytest.approx(1.1234, abs=1e-9)

    def test_unreachable_mode_detected(self):
        plant = NominalPlant(
            a=np.diag([2.0, 3.0]), b=[[1.0], [0.0]], c=[[1.0, 1.0]],
            q=PDMatrix([[1.0]]), r=PDMatrix([[1.0]]), mu=1.0,
        )
        report = check_structure(build_modified_plant(plant))
        assert not report.controllable
        assert report.ctrb_rank == 1

    def test_unobservable_mode_detected(self):
        plant = NominalPlant(
            a=np.diag([2.0, 3.0]), b=np.eye(2), c=[[1.0, 0.0]],
            q=PDMatrix(np.eye(2)), r=PDMatrix([[1.0]]), mu=1.0,
        )
        report = check_structure(build_modified_plant(plant))
        assert not report.observable
        assert report.obsv_rank == 1


class TestNominalPlantValidation:
    def test_mu_bounds(self):
        with pytest.raises(ValueError, match="mu"):
            make_reference_plant(mu=0.0)
        with pytest.raises(ValueError, match="mu"):
            make_reference_plant(mu=1.5)

    def test_dimension_consistency(self):
        with pytest.raises(ValueError):
            NominalPlant(
                a=np.eye(2), b=np.eye(2), c=[[1.0, 0.0]],
                q=PDMatrix(np.eye(3)), r=PDMatrix([[1.0]]),
            )

    def test_derivative_shape_checked(self):
        with pytest.raises(ValueError, match="derivative"):
            NominalPlant(
                a=np.eye(2), b=np.eye(2), c=[[1.0, 0.0]],
                q=PDMatrix(np.eye(2)), r=PDMatrix([[1.0]]),
                da=(np.zeros((3, 3)),), db=(np.zeros((2, 2)),), dc=(np.zeros((1, 2)),),
            )

    def test_derivative_list_lengths_checked(self):
        with pytest.raises(ValueError, match="equal length"):
            NominalPlant(
                a=np.eye(2), b=np.eye(2), c=[[1.0, 0.0]],
                q=PDMatrix(np.eye(2)), r=PDMatrix([[1.0]]),
                da=(np.zeros((2, 2)),), db=(), dc=(),
            )
