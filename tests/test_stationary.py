import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import pcmlab.stationary as stationary
from pcmlab import (
    ChannelParams,
    ExperimentConfig,
    enumerate_reachable,
    delta_distribution,
)
from pcmlab.experiments import (
    cluster_probabilities,
    prepare,
    run_ergodic,
)
from pcmlab.channel import stationary_probability
from pcmlab.cli import load_config
from pcmlab.stationary import (
    LN10,
    Atom,
    AtomicDistribution,
    decimal_distance,
    enumeration_distribution,
)
from pcmlab.pdm import NotPositiveDefiniteError, homographic, riemannian_distance

from conftest import negate_first_at_call
from oracles import distribution_clusters

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def dfs_enumeration(mp, p_star, gamma_st, max_len, eps_p):
    """Oracle: the depth-first walk that the level-synchronous expansion
    replaced, one validated ``homographic`` and one scalar distance per node.
    Returns ``(atoms, residual)`` with the residual summed in walk order."""
    g = gamma_st
    atoms = [Atom(matrix=p_star, distance=0.0, mass=g**max_len, code="")]
    root = homographic(mp.sym.m0, p_star)
    # DFS over suffixes w (applied after the initial drop); suffix
    # probability only shrinks along a branch, so pruning is subtree-safe.
    stack = [(root, "0", 0, 1.0)]
    while stack:
        mat, code, depth, p_suffix = stack.pop()
        if p_suffix < eps_p:
            # Entire subtree pruned; its mass lands in the residual below.
            continue
        mass = g ** (max_len - 1 - depth) * (1.0 - g) * p_suffix
        atoms.append(
            Atom(
                matrix=mat,
                distance=decimal_distance(mat, p_star),
                mass=mass,
                code=code,
            )
        )
        if depth < max_len - 1:
            stack.append(
                (homographic(mp.sym.m0, mat), code + "0", depth + 1, p_suffix * (1.0 - g))
            )
            stack.append(
                (homographic(mp.sym.m1, mat), code + "1", depth + 1, p_suffix * g)
            )
    # Float the residual so the validated sum is exact.
    residual = 1.0 - sum(a.mass for a in atoms)
    return atoms, residual


def assert_matches_dfs(mp, p_star, g, max_len, eps_p):
    """Same codes, bitwise masses, distances within 1e-12, and the residual
    as the correctly rounded complement of the same masses; returns the
    level-synchronous distribution."""
    dist = enumeration_distribution(mp, p_star, g, max_len=max_len, eps_p=eps_p)
    oracle, oracle_residual = dfs_enumeration(mp, p_star, g, max_len, eps_p)
    got = {a.code: a for a in dist.atoms}
    want = {a.code: a for a in oracle}
    assert len(got) == len(dist.atoms)
    assert set(got) == set(want)
    for code, atom in got.items():
        assert atom.mass == want[code].mass, code
        assert abs(atom.distance - want[code].distance) <= 1e-12, code
    assert dist.residual_mass == 1.0 - math.fsum(a.mass for a in oracle)
    # The walk's left-to-right sum is off by at most one rounding per term.
    assert abs(dist.residual_mass - oracle_residual) <= len(oracle) * 2.0**-53
    return dist


class TestEnumerateReachable:
    def test_zero_steps(self, ref_mp, ref_prep):
        atoms = enumerate_reachable(ref_mp, ref_prep.p_star, 0)
        assert len(atoms) == 1
        assert atoms[0].code == ""
        assert atoms[0].distance == 0.0

    def test_one_step(self, ref_mp, ref_prep):
        atoms = enumerate_reachable(ref_mp, ref_prep.p_star, 1)
        assert len(atoms) == 2
        assert {a.code for a in atoms} == {"", "0"}
        assert atoms[1].distance == pytest.approx(0.81725, abs=5e-4)

    def test_three_steps_all_distinct(self, ref_mp, ref_prep):
        atoms = enumerate_reachable(ref_mp, ref_prep.p_star, 3)
        assert len(atoms) == 8
        for i in range(8):
            for j in range(i + 1, 8):
                assert riemannian_distance(atoms[i].matrix, atoms[j].matrix) > 1e-6

    def test_cardinality_doubles(self, ref_mp, ref_prep):
        for n in range(6):
            assert len(enumerate_reachable(ref_mp, ref_prep.p_star, n)) == 2**n

    def test_cap_enforced(self, ref_mp, ref_prep):
        with pytest.raises(ValueError, match=r"\[0, 12\]"):
            enumerate_reachable(ref_mp, ref_prep.p_star, 13)

    def test_stored_distance_matches_metric(self, ref_mp, ref_prep):
        for atom in enumerate_reachable(ref_mp, ref_prep.p_star, 4):
            direct = riemannian_distance(atom.matrix, ref_prep.p_star) / LN10
            assert atom.distance == pytest.approx(direct, abs=1e-10)

    def test_largest_n_is_distinct_and_read_only(self, ref_mp, ref_prep):
        atoms = enumerate_reachable(ref_mp, ref_prep.p_star, 12)
        assert len(atoms) == 2**12
        assert len({a.code for a in atoms}) == 2**12
        assert not atoms[-1].matrix.flags.writeable

    def test_coincident_atoms_rejected(self, ref_mp, ref_prep):
        atoms = enumerate_reachable(ref_mp, ref_prep.p_star, 4)
        twin = atoms[5]
        # A second atom at metric distance ~7e-7 from atom 5: the prefilter
        # must keep the pair as a candidate and the exact check must fire.
        near = twin.matrix * (1.0 + 5e-7)
        to_ref = np.array([riemannian_distance(a.matrix, ref_prep.p_star) for a in atoms])
        extra = Atom(matrix=near, distance=0.0, mass=0.0, code="twin")
        extended = np.append(to_ref, riemannian_distance(near, ref_prep.p_star))
        with pytest.raises(AssertionError, match=f"{twin.code!r} and 'twin'|'twin' and {twin.code!r}"):
            stationary._assert_distinct(atoms + [extra], extended)
        far = Atom(matrix=twin.matrix * 1.01, distance=0.0, mass=0.0, code="far")
        stationary._assert_distinct(
            atoms + [far], np.append(to_ref, riemannian_distance(far.matrix, ref_prep.p_star))
        )


class TestEnumerationDistribution:
    def test_mass_conservation(self, ref_mp, ref_prep):
        for g, eps in [(0.95, 1e-9), (0.7, 1e-6), (0.3, 1e-5)]:
            dist = enumeration_distribution(ref_mp, ref_prep.p_star, g, max_len=8, eps_p=eps)
            total = sum(a.mass for a in dist.atoms) + dist.residual_mass
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_distances_sorted(self, ref_mp, ref_prep):
        dist = enumeration_distribution(ref_mp, ref_prep.p_star, 0.95, max_len=8, eps_p=1e-8)
        d = dist.distances()
        assert np.all(np.diff(d) >= 0)

    def test_no_drop_limit_concentrates_at_fixed_point(self, ref_mp, ref_prep):
        dist = enumeration_distribution(ref_mp, ref_prep.p_star, 0.999999, max_len=10, eps_p=1e-30)
        by_code = {a.code: a.mass for a in dist.atoms}
        assert by_code[""] == pytest.approx(1.0, abs=1e-5)
        assert all(m < 1e-5 for code, m in by_code.items() if code)

    def test_first_orbit_cluster_mass(self, ref_mp, ref_prep):
        # Mass near the first open-loop image: one drop preceded by a long
        # arrival run, i.e. g * (1 - g) to within the horizon transient.
        dist = enumeration_distribution(ref_mp, ref_prep.p_star, 0.95, max_len=12, eps_p=1e-9)
        fracs, _ = distribution_clusters(dist, ref_prep.ladder, 10)
        assert fracs[1] == pytest.approx(0.0475, abs=0.002)

    def test_pruned_mass_reported_not_dropped(self, ref_mp, ref_prep):
        tight = enumeration_distribution(ref_mp, ref_prep.p_star, 0.95, max_len=10, eps_p=1e-3)
        loose = enumeration_distribution(ref_mp, ref_prep.p_star, 0.95, max_len=10, eps_p=1e-12)
        assert tight.residual_mass > loose.residual_mass
        assert len(tight.atoms) < len(loose.atoms)
        assert tight.residual_mass + sum(a.mass for a in tight.atoms) == pytest.approx(1.0, abs=1e-9)

    def test_gamma_bounds(self, ref_mp, ref_prep):
        with pytest.raises(ValueError, match="gamma_st"):
            enumeration_distribution(ref_mp, ref_prep.p_star, 1.0, max_len=5, eps_p=1e-6)

    @pytest.mark.parametrize("config", ["paper_section5.json", "paper_section5_heavy.json"])
    @pytest.mark.parametrize("eps_p", [1e-9, 1e-30])
    def test_matches_depth_first_oracle(self, config, eps_p):
        cfg = load_config(CONFIGS / config)
        prep = prepare(cfg)
        g = stationary_probability(cfg.channel)
        dist = assert_matches_dfs(prep.mp, prep.p_star, g, 12, eps_p)
        # 1e-9 prunes on both channels; 1e-30 keeps the whole tree.
        assert (len(dist.atoms) < 2**12) == (eps_p == 1e-9)

    def test_suffix_probability_equal_to_cutoff_is_kept(self, ref_mp, ref_prep):
        # g = 1/2: suffixes of length 2 have probability 0.25 == eps_p
        # exactly and are kept; length 3 (0.125) is pruned.
        dist = assert_matches_dfs(ref_mp, ref_prep.p_star, 0.5, 6, 0.25)
        lengths = sorted(len(a.code) for a in dist.atoms)
        assert lengths == [0, 1, 2, 2, 3, 3, 3, 3]

    def test_breakdown_names_word_and_depth(self, ref_mp, ref_prep, monkeypatch):
        monkeypatch.setattr(stationary, "_advance", negate_first_at_call(3))
        with pytest.raises(NotPositiveDefiniteError, match=r"'0001' \(depth 3\)"):
            enumeration_distribution(ref_mp, ref_prep.p_star, 0.5, max_len=6, eps_p=1e-9)

    @pytest.mark.slow
    @pytest.mark.parametrize("config", ["paper_section5.json", "paper_section5_heavy.json"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_agrees_with_ergodic_run_at_max_len_16(self, config, seed):
        # Both channels are memoryless (alpha = 1 - beta), which is what the
        # enumeration's i.i.d. arrival law assumes.  The moderate-loss
        # channel is left out: its arrivals are serially correlated, so the
        # enumeration misses its cluster masses by about 0.017, the same
        # cause as the strict moderate-loss xfail of the acceptance gate.
        cfg = replace(load_config(CONFIGS / config), ergodic_length=200_000, master_seed=seed)
        prep = prepare(cfg)
        g = stationary_probability(cfg.channel)
        dist = enumeration_distribution(prep.mp, prep.p_star, g, max_len=16, eps_p=1e-9)
        enum_fracs, _ = distribution_clusters(dist, prep.ladder, cfg.n_s)
        samples, _ = run_ergodic(cfg, prep)
        mc_fracs, _ = cluster_probabilities(samples, prep.ladder, cfg.n_s)
        k = min(8, len(prep.ladder))
        assert np.max(np.abs(enum_fracs[:k] - mc_fracs[:k])) <= 0.01

    @pytest.mark.slow
    def test_matches_long_monte_carlo(self, ref_plant, ref_mp, ref_prep):
        # Independent oracle: time averaging along a million-step stationary
        # trajectory.  The enumeration masses must match the occupation
        # frequencies of the first four clusters.
        cfg = ExperimentConfig(
            plant=ref_plant, channel=ChannelParams(0.95, 0.05),
            ergodic_length=10**6, master_seed=3,
        )
        samples, _ = run_ergodic(cfg, ref_prep)
        mc_fracs, _ = cluster_probabilities(samples, ref_prep.ladder, cfg.n_s)
        dist = enumeration_distribution(ref_mp, ref_prep.p_star, 0.95, max_len=10, eps_p=1e-9)
        enum_fracs, _ = distribution_clusters(dist, ref_prep.ladder, cfg.n_s)
        assert np.max(np.abs(enum_fracs[:4] - mc_fracs[:4])) <= 0.01


class TestDeltaDistribution:
    def test_reference_masses_and_distances(self, ref_mp, ref_prep):
        dist = delta_distribution(ref_mp, ref_prep.p_star, 0.95, n_d=5)
        expected_mass = [0.95, 4.75e-2, 2.375e-3, 1.1875e-4, 5.9375e-6, 2.96875e-7]
        expected_dist = [0.0, 0.81725, 1.1519, 1.3900, 1.5855, 1.7572]
        assert len(dist.atoms) == 6
        for atom, m, d in zip(dist.atoms, expected_mass, expected_dist):
            assert atom.mass == pytest.approx(m, rel=1e-12)
            assert atom.distance == pytest.approx(d, abs=5e-4)

    def test_heavy_loss_second_mass(self, ref_mp, ref_prep):
        dist = delta_distribution(ref_mp, ref_prep.p_star, 0.08, n_d=3)
        assert dist.atoms[1].mass == pytest.approx(0.08 * 0.92, rel=1e-12)

    def test_near_certain_arrival_single_atom(self, ref_mp, ref_prep):
        dist = delta_distribution(ref_mp, ref_prep.p_star, 1.0 - 1e-12, n_d=3)
        assert dist.atoms[0].mass == pytest.approx(1.0, abs=1e-9)

    def test_residual_is_geometric_tail(self, ref_mp, ref_prep):
        g, n_d = 0.8, 6
        dist = delta_distribution(ref_mp, ref_prep.p_star, g, n_d=n_d)
        assert dist.residual_mass == pytest.approx((1 - g) ** (n_d + 1), rel=1e-9)

    def test_consistent_with_enumeration_clusters(self, ref_mp, ref_prep):
        # The lumped masses and the enumeration refinement agree per cluster
        # once the arrival probability is high enough.
        for g in (0.95, 7.0 / 9.0):
            delta = delta_distribution(ref_mp, ref_prep.p_star, g, n_d=5)
            enum = enumeration_distribution(ref_mp, ref_prep.p_star, g, max_len=12, eps_p=1e-10)
            d_fracs, _ = distribution_clusters(delta, ref_prep.ladder, 10)
            e_fracs, _ = distribution_clusters(enum, ref_prep.ladder, 10)
            assert np.max(np.abs(d_fracs[:4] - e_fracs[:4])) <= 5e-3


class TestTimeAverage:
    def test_reference_low_loss_fraction(self, ref_plant, ref_prep):
        # Half the first orbit distance separates the fixed-point cluster
        # from everything else; the time fraction inside it is the arrival
        # majority mass.
        cfg = ExperimentConfig(
            plant=ref_plant, channel=ChannelParams(0.95, 0.05),
            ergodic_length=50_000, master_seed=11,
        )
        samples, _ = run_ergodic(cfg, ref_prep)
        eps = ref_prep.ladder[1] / 2.0
        fraction = float(np.mean(samples <= eps))
        assert fraction == pytest.approx(0.95044, abs=0.01)


class TestAtomicDistributionType:
    def test_cdf_monotone(self, ref_mp, ref_prep):
        dist = enumeration_distribution(ref_mp, ref_prep.p_star, 0.9, max_len=8, eps_p=1e-8)
        grid = np.linspace(0.0, 3.0, 20)
        values = [dist.cdf(e) for e in grid]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    def test_mass_violation_rejected(self, ref_prep):
        with pytest.raises(ValueError, match="sum"):
            AtomicDistribution(
                atoms=(Atom(matrix=ref_prep.p_star.entries, distance=0.0, mass=0.5),),
                residual_mass=0.0,
            )

    def test_atom_distance_convention(self, ref_mp, ref_prep):
        # Stored distances are on the decimal-log scale of the canonical
        # metric; conversion is exact up to round-off.
        dist = delta_distribution(ref_mp, ref_prep.p_star, 0.9, n_d=3)
        for atom in dist.atoms:
            nat = riemannian_distance(atom.matrix, ref_prep.p_star)
            assert atom.distance == pytest.approx(nat / LN10, abs=1e-10)
            assert atom.distance == pytest.approx(
                decimal_distance(atom.matrix, ref_prep.p_star), abs=1e-12
            )
