from pathlib import Path

import numpy as np
import pytest

from pcmlab import PDMatrix, build_modified_plant, prepare
import pcmlab.plant as plant
from pcmlab.channel import sample_chain, sample_chain_batch, stationary_probability
from pcmlab.cli import load_config
from pcmlab.experiments import ERGODIC_STREAM, _ergodic_path
from pcmlab.pdm import SingularMatrixError, homographic
from pcmlab.plant import (
    NominalPlant,
    _advance,
    _branch_blocks,
    _coefficients,
    _gamma0_planes,
    _gamma1_planes,
    _planes,
    _walk,
    check_structure,
    sensitivity_matrices,
)

from conftest import make_reference_plant, random_pd, random_plant
from oracles import gamma0_float, gamma0_lapack, gamma1_float, gamma1_lapack, step_float


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


CONFIGS = Path(__file__).resolve().parents[1] / "configs"
BUNDLED_CONFIGS = sorted(CONFIGS.glob("*.json"))


def random_pd_stack(rng, n, k, spread):
    """``k`` random PD matrices whose scales span ``exp(±spread)``."""
    return np.stack([random_pd(rng, n, spread) for _ in range(k)])


def assert_close_per_matrix(got, want, rtol):
    scale = np.abs(want).max(axis=(-2, -1), keepdims=True)
    assert np.all(np.abs(got - want) <= rtol * scale)


def one_step(blocks, p, got):
    """The stack ``p`` after a one-column ``_advance``; ``got`` is the
    column's arrival mask, or one bool for the whole column."""
    out = p.copy()
    _advance(blocks, out, np.broadcast_to(got, len(p))[:, None])
    return out


class TestBranchKernel:
    """One-column steps of ``_advance``: the closed-form 2x2 maps against
    the LAPACK maps, and the general ``n`` maps against ``homographic``."""

    def check_2x2(self, mp, p):
        blocks = _branch_blocks(mp)
        a0, w0, a1, w1, k1 = blocks
        for got, want in [
            (one_step(blocks, p, False), gamma0_lapack(a0, w0, p)),
            (one_step(blocks, p, True), gamma1_lapack(a1, w1, k1, p)),
        ]:
            assert got.shape == p.shape
            assert np.array_equal(got[..., 0, 1], got[..., 1, 0])
            assert_close_per_matrix(got, want, 1e-13)

    @pytest.mark.parametrize("spread", [0.5, 1.0, 3.0])
    def test_random_plants_and_stacks(self, spread):
        rng = np.random.default_rng(int(spread * 10))
        for _ in range(10):
            mp = build_modified_plant(random_plant(rng))
            self.check_2x2(mp, random_pd_stack(rng, 2, 200, spread))

    @pytest.mark.parametrize("config", BUNDLED_CONFIGS, ids=lambda p: p.stem)
    def test_bundled_plants(self, config):
        prep = prepare(load_config(config))
        stack = random_pd_stack(np.random.default_rng(5), 2, 500, 1.0)
        stack[0] = prep.p_star.entries
        self.check_2x2(prep.mp, stack)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs 80-bit long double")
    def test_large_pcms_as_accurate_as_lapack(self):
        # Heavy-loss drop runs take the PCM to 1e10 times the fixed point,
        # where the measurement map itself is ill-conditioned and neither
        # form keeps 1e-13.  Against the same map in long double the closed
        # form stays within a small factor of the LAPACK form's error.
        cfg = load_config(CONFIGS / "paper_section5_heavy.json")
        prep = prepare(cfg)
        word = sample_chain(cfg.channel, stationary_probability(cfg.channel), 5000,
                            cfg.master_seed, stream=ERGODIC_STREAM)
        path = _ergodic_path(prep.mp, prep.p_star.entries, word)
        assert np.abs(path).max() > 1e8
        blocks = _branch_blocks(prep.mp)
        a0, w0, a1, w1, k1 = blocks
        a, w, k, p = (x.astype(np.longdouble) for x in (a1, w1, k1, path))
        z = a @ p @ a.T + w
        m = np.eye(2, dtype=np.longdouble) + k @ z
        det = m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]
        adj = np.stack([m[:, 1, 1], -m[:, 0, 1], -m[:, 1, 0], m[:, 0, 0]], -1)
        exact = z @ adj.reshape(-1, 2, 2) / det[:, None, None]
        exact = 0.5 * (exact + np.swapaxes(exact, -1, -2))

        scale = np.abs(exact).max(axis=(1, 2), keepdims=True)
        closed = float(np.max(np.abs(one_step(blocks, path, True) - exact) / scale))
        lapack = float(np.max(np.abs(gamma1_lapack(a1, w1, k1, path) - exact) / scale))
        assert lapack > 1e-13
        assert closed <= 4 * lapack

    def test_one_row_and_sub_stacks_equal_the_whole_stack(self):
        # A row's result does not depend on the rest of the stack, which the
        # segmented ergodic run relies on to accept a segment.
        rng = np.random.default_rng(9)
        for n in (2, 3):
            blocks = _branch_blocks(build_modified_plant(random_plant(rng, n=n, p=2)))
            flat = random_pd_stack(rng, n, 12, 2.0)
            for got in (np.zeros(12, bool), np.ones(12, bool), np.arange(12) % 3 == 0):
                out = one_step(blocks, flat, got)
                for rows in (slice(7, 8), slice(2, 9)):
                    sub = one_step(blocks, flat[rows], got[rows])
                    assert sub.tobytes() == out[rows].tobytes()

    def test_general_branch_matches_homographic(self):
        rng = np.random.default_rng(11)
        for n, m, p in [(3, 2, 2), (3, 3, 1), (4, 2, 2)]:
            mp = build_modified_plant(random_plant(rng, n=n, m=m, p=p, n_err=2))
            blocks = _branch_blocks(mp)
            stack = random_pd_stack(rng, n, 20, 1.0)
            want0 = np.stack([homographic(mp.sym.m0, x).entries for x in stack])
            want1 = np.stack([homographic(mp.sym.m1, x).entries for x in stack])
            assert_close_per_matrix(one_step(blocks, stack, False), want0, 1e-12)
            assert_close_per_matrix(one_step(blocks, stack, True), want1, 1e-12)

    def test_general_mixed_column_matches_homographic(self):
        # For n != 2 a mixed column selects each matrix's map by a masked
        # copy; every matrix gets the map its symbol names.
        rng = np.random.default_rng(12)
        for n in (3, 4):
            mp = build_modified_plant(random_plant(rng, n=n, m=2, p=2, n_err=2))
            stack = random_pd_stack(rng, n, 40, 1.0)
            got = rng.random(40) < 0.5
            got[0], got[-1] = True, False
            want = np.stack([homographic(mp.sym.m1 if g else mp.sym.m0, x).entries
                             for g, x in zip(got, stack)])
            assert_close_per_matrix(one_step(_branch_blocks(mp), stack, got), want, 1e-12)


STACK_SIZES = [1, 2, 255, 257, 5000]


@pytest.fixture(scope="module")
def blocks():
    """The branch blocks of every bundled config."""
    return [_branch_blocks(prepare(load_config(config)).mp) for config in BUNDLED_CONFIGS]


def masks(rng, k):
    """All arrivals, all drops, and a mixed column of length ``k``."""
    mixed = rng.random(k) < 0.6
    mixed[0], mixed[-1] = True, False
    return {"arrivals": np.ones(k, bool), "drops": np.zeros(k, bool), "mixed": mixed}


def float_step(blocks, stack, got):
    """The plain-float oracle step of each matrix of ``stack``, by its symbol."""
    return np.stack([step_float(blocks, p, g) for p, g in zip(stack, got)])


class TestPlaneKernel:
    """The entry-plane maps and the kernel's one-column step, bit for bit
    against the plain-float maps."""

    @pytest.mark.parametrize("k", STACK_SIZES)
    def test_plane_maps_equal_plain_float_maps(self, blocks, k):
        rng = np.random.default_rng(k)
        stack = random_pd_stack(rng, 2, k, 3.0)
        for block in blocks:
            a0, w0, a1, w1, k1 = block
            planes = tuple(np.ascontiguousarray(x) for x in _planes(stack))
            for got_planes, got_stack, want in [
                (_gamma0_planes(_coefficients(a0, w0), *planes),
                 one_step(block, stack, False),
                 [gamma0_float(a0, w0, p) for p in stack]),
                (_gamma1_planes(_coefficients(a1, w1, k1), *planes),
                 one_step(block, stack, True),
                 [gamma1_float(a1, w1, k1, p) for p in stack]),
            ]:
                want = np.array(want).T
                assert np.stack(got_planes).tobytes() == want.tobytes()
                assert np.stack(_planes(got_stack)).tobytes() == want.tobytes()
                assert got_stack[:, 1, 0].tobytes() == want[1].tobytes()

    @pytest.mark.parametrize("k", STACK_SIZES)
    def test_masked_step_equals_gather_scatter_step(self, blocks, k):
        # A gather/scatter step sends each matrix through its own map; the
        # plain-float maps, selected per matrix, compute that bit for bit.
        rng = np.random.default_rng(100 + k)
        stack = random_pd_stack(rng, 2, k, 3.0)
        for mask in masks(rng, k).values():
            for block in blocks:
                want = float_step(block, stack, mask)
                assert one_step(block, stack, mask).tobytes() == want.tobytes()

    def test_advance_equals_the_stack_step_loop(self, blocks):
        # The plane loop, its per-column output and its write-back, against
        # the plain-float step applied to the whole stack column by column.
        rng = np.random.default_rng(3)
        words = (rng.random((257, 60)) < 0.7).astype(np.uint8)
        words[:, :5] = 1
        words[:, 5:10] = 0
        start = random_pd_stack(rng, 2, 257, 2.0)
        for block in blocks:
            want = start.copy()
            want_out = np.empty((257, 60, 2, 2))
            for k in range(60):
                want = float_step(block, want, words[:, k])
                want_out[:, k] = want
            got, got_out = start.copy(), np.empty((257, 60, 2, 2))
            _advance(block, got, words, got_out)
            assert got.tobytes() == want.tobytes()
            assert got_out.tobytes() == want_out.tobytes()

    # a0 = 1e100 I, w0 = I; a1 = 1e-100 I, w1 = I, k1 = -I.  On p = I the
    # measurement map divides 0 by 0; on p = 1e200 I the open-loop map
    # overflows.  Each entry selects the other map, which stays finite.
    BLOCKS = (1e100 * np.eye(2), np.eye(2), 1e-100 * np.eye(2), np.eye(2), -np.eye(2))
    BAD_STACK = np.array([np.eye(2), 1e200 * np.eye(2)])

    def bad_planes(self):
        return tuple(np.ascontiguousarray(x) for x in _planes(self.BAD_STACK))

    def test_unselected_map_does_not_leak_inf_or_nan(self):
        a0, w0, a1, w1, k1 = self.BLOCKS
        got = np.array([False, True])
        with np.errstate(all="ignore"):
            both0 = _gamma0_planes(_coefficients(a0, w0), *self.bad_planes())
            both1 = _gamma1_planes(_coefficients(a1, w1, k1), *self.bad_planes())
        out = one_step(self.BLOCKS, self.BAD_STACK, got)
        assert np.isnan(both1[0][0]) and np.isinf(both0[0][1])
        assert np.all(np.isfinite(out))
        for x, x0, x1 in zip(_planes(out), both0, both1):
            assert x.tobytes() == np.where(got, x1, x0).tobytes()

    def test_no_warning_under_the_callers_errstate(self):
        # pytest turns every warning into an error.  The unselected maps do
        # raise floating-point errors, which the kernel silences whatever
        # the caller's errstate.
        a0, w0, a1, w1, k1 = self.BLOCKS
        got = np.array([False, True])
        with pytest.raises(FloatingPointError), np.errstate(all="raise"):
            _gamma1_planes(_coefficients(a1, w1, k1), *self.bad_planes())
        with pytest.raises(FloatingPointError), np.errstate(all="raise"):
            _gamma0_planes(_coefficients(a0, w0), *self.bad_planes())
        for mode in ("raise", "warn"):
            with np.errstate(all=mode):
                one_step(self.BLOCKS, self.BAD_STACK, got)


def walk_rows(blocks, start, words):
    """Each row's states after every column, each row walked alone by
    ``_walk``: the oracle of a stack step whose rows select their maps."""
    return np.stack([_walk(blocks, p, w)[1:] for p, w in zip(start, words)])


def assert_same_values(got, want):
    """Bit for bit, except that a NaN matches any NaN: numpy picks the sign
    and payload of a NaN by array length and in-place use."""
    nan = np.isnan(want)
    assert (np.isnan(got) == nan).all()
    assert got[~nan].tobytes() == want[~nan].tobytes()


def mixed_words(rng, rows, width=40):
    """A word matrix whose columns cover every way a column can select its
    maps: all drops, all arrivals, exactly half (ties run the open-loop map
    on the whole stack), half plus one, a single arrival, a single drop,
    and random columns with either map in the majority."""
    special = [np.zeros(rows, bool), np.ones(rows, bool)]
    if rows > 1:
        half = np.arange(rows) < rows // 2
        special += [half, ~half, np.arange(rows) <= rows // 2]
        special += [np.arange(rows) == rows // 3, np.arange(rows) != rows - 1]
    columns = [rng.permutation(c) for c in special for _ in range(2)]
    columns += [rng.random(rows) < rng.choice([0.1, 0.3, 0.7, 0.9]) for _ in range(width)]
    order = rng.permutation(len(columns))
    return np.stack([columns[i] for i in order], axis=1).astype(np.uint8)


class TestMinoritySubset:
    """A mixed column runs the map most of its rows select on the whole
    stack and the other map only on the rows that select it, gathered and
    scattered back; each row must end with the bits of its own walk."""

    @pytest.mark.parametrize("rows", [1, 2, 3, 9, 10, 257])
    def test_advance_equals_the_per_row_walk(self, blocks, rows):
        rng = np.random.default_rng(rows)
        words = mixed_words(rng, rows)
        start = random_pd_stack(rng, 2, rows, 2.0)
        for block in blocks:
            want = walk_rows(block, start, words)
            got, got_out = start.copy(), np.empty(want.shape)
            _advance(block, got, words, got_out)
            assert got_out.tobytes() == want.tobytes()
            assert got.tobytes() == want[:, -1].tobytes()

    def test_three_state_stacks_equal_the_per_row_walk(self):
        # For n != 2 the subset runs batched products and LAPACK solves on
        # the gathered matrices; a row's bits do not depend on the batch.
        rng = np.random.default_rng(31)
        blocks = _branch_blocks(build_modified_plant(random_plant(rng, n=3, m=2, p=2, n_err=1)))
        for rows in (1, 9, 10):
            words = mixed_words(rng, rows, width=12)
            start = random_pd_stack(rng, 3, rows, 1.0)
            want = walk_rows(blocks, start, words)
            got, got_out = start.copy(), np.empty(want.shape)
            _advance(blocks, got, words, got_out)
            assert got_out.tobytes() == want.tobytes()
            assert got.tobytes() == want[:, -1].tobytes()

    def test_overflow_plant_passes_inf_and_nan_through(self):
        # The heavy config with a scaled by 8: long drop runs overflow, and
        # the rows that break down carry inf and NaN through later columns,
        # gathered into the minority or not.
        cfg = load_config(CONFIGS / "paper_section5_heavy.json")
        mp = build_modified_plant(NominalPlant(
            a=8 * cfg.plant.a, b=cfg.plant.b, c=cfg.plant.c, q=cfg.plant.q, r=cfg.plant.r,
            da=cfg.plant.da, db=cfg.plant.db, dc=cfg.plant.dc, mu=cfg.plant.mu,
        ))
        blocks = _branch_blocks(mp)
        words = sample_chain_batch(cfg.channel, cfg.init_p1, 400, cfg.master_seed, 60)[:, 1:]
        start = np.broadcast_to(cfg.init_pcm_scale * np.eye(2), (60, 2, 2)).copy()
        with np.errstate(all="ignore"):
            want = walk_rows(blocks, start, words)
        assert np.isnan(want[:, -1]).any() and np.isfinite(want[:, -1]).any()
        got, got_out = start.copy(), np.empty(want.shape)
        _advance(blocks, got, words, got_out)
        assert_same_values(got_out, want)
        assert_same_values(got, want[:, -1])

    def test_minority_map_runs_on_its_rows_only(self, monkeypatch, blocks):
        sizes = []
        for name in ("_gamma0_planes", "_gamma1_planes"):
            real = getattr(plant, name)

            def spy(coef, *planes, real=real, name=name):
                sizes.append((name, planes[0].size))
                return real(coef, *planes)

            monkeypatch.setattr(plant, name, spy)
        words = np.zeros((10, 4), np.uint8)
        words[:3, 0] = 1  # three arrivals: open loop on all ten, measurement on three
        words[:, 1] = 1  # all arrivals
        words[:9, 2] = 1  # one drop
        words[:5, 3] = 1  # a tie
        _advance(blocks[0], random_pd_stack(np.random.default_rng(0), 2, 10, 1.0), words)
        assert sizes == [
            ("_gamma1_planes", 3), ("_gamma0_planes", 10),
            ("_gamma1_planes", 10),
            ("_gamma0_planes", 1), ("_gamma1_planes", 10),
            ("_gamma1_planes", 5), ("_gamma0_planes", 10),
        ]
