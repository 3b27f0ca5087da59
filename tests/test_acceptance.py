"""Acceptance gate: one test per exit criterion, fixed seeds, stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Criterion 6 is an expected failure: its reference values for the
moderate-loss case were generated by a simulation whose arrival sequence was
effectively independent at the stationary rate, and a faithful two-state
Markov channel provably concentrates different pattern probabilities (see
test_c06_* below and the companion rate-matched check).
"""

import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pcmlab import (
    ChannelParams,
    ExperimentConfig,
    PDMatrix,
    build_modified_plant,
    enumerate_reachable,
    pcm_step,
    riemannian_distance,
    solve_dare,
    delta_distribution,
)
from pcmlab.estimator import pcm_update_compact_form, pcm_update_hat_form
from pcmlab.experiments import (
    cluster_probabilities,
    compare_table,
    prepare,
    rate_study,
    run_empirical,
    run_ergodic,
)
from pcmlab.pdm import homographic
from pcmlab.stationary import enumeration_distribution
from pcmlab.cli import load_config

from conftest import REF_LADDER, REF_P_STAR, random_pd, random_plant

ROOT = Path(__file__).resolve().parents[1]


def report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS  [{detail}]")


def round_sig(x: float, digits: int = 5) -> float:
    if x == 0.0:
        return 0.0
    exp = math.floor(math.log10(abs(x)))
    return round(x, digits - 1 - exp)


# -- C1: fixed-point reproduction -------------------------------------------

def test_c01_fixed_point_reproduction(ref_mp):
    start = time.perf_counter()
    sol = solve_dare(ref_mp)
    elapsed = time.perf_counter() - start
    err = np.max(np.abs(sol.p_star.entries - REF_P_STAR))
    assert err <= 5e-4, f"fixed-point error {err:.2e}"
    assert elapsed < 1.0, f"solve took {elapsed:.2f}s"
    report("C1", f"max entry error {err:.2e}, {elapsed * 1e3:.0f} ms")


# -- C2: distance ladder ------------------------------------------------------

def test_c02_distance_ladder(ref_prep, ref_mp):
    from pcmlab.riccati import orbit_distances
    from pcmlab.stationary import LN10

    ladder = orbit_distances(ref_mp, ref_prep.p_star, 6)[1:] / LN10
    errs = np.abs(ladder - REF_LADDER)
    assert np.max(errs) <= 5e-4, f"ladder errors {errs}"
    report("C2", f"max ladder error {np.max(errs):.2e}")


# -- C3: lumped masses, all three tables -------------------------------------

TABLE_MASSES = {
    0.95: [9.5000e-1, 4.7500e-2, 2.3750e-3, 1.1875e-4, 5.9375e-6, 2.9688e-7],
    7.0 / 9.0: [7.7778e-1, 1.7284e-1, 3.8409e-2, 8.5353e-3, 1.8967e-3],
    0.08: [8.0000e-2, 7.3600e-2, 6.7712e-2, 6.2295e-2, 5.7311e-2],
}


@pytest.mark.parametrize("gamma_st", sorted(TABLE_MASSES))
def test_c03_delta_masses(ref_mp, ref_prep, gamma_st):
    expected = TABLE_MASSES[gamma_st]
    dist = delta_distribution(ref_mp, ref_prep.p_star, gamma_st, n_d=len(expected) - 1)
    got = [round_sig(a.mass, 5) for a in dist.atoms]
    for g, e in zip(got, expected):
        assert abs(g - e) <= 1e-6 * abs(e), f"mass {g!r} vs {e!r}"
    report("C3", f"gamma_st={gamma_st:.4f}: {len(expected)} masses at 1e-6 relative")


# -- C4: ergodic approximation, desk scale ------------------------------------

def test_c04_ergodic_desk_scale(ref_plant, ref_prep):
    cfg = ExperimentConfig(
        plant=ref_plant, channel=ChannelParams(0.95, 0.05),
        ergodic_length=20_000, master_seed=20260809,
    )
    start = time.perf_counter()
    samples, _ = run_ergodic(cfg, ref_prep)
    elapsed = time.perf_counter() - start
    fracs, _ = cluster_probabilities(samples, ref_prep.ladder, cfg.n_s)
    assert abs(fracs[0] - 0.95044) <= 0.01, f"cluster 0 {fracs[0]:.5f}"
    assert abs(fracs[1] - 0.04676) <= 0.005, f"cluster 1 {fracs[1]:.5f}"
    assert elapsed < 60.0
    report("C4", f"clusters ({fracs[0]:.5f}, {fracs[1]:.5f}), {elapsed:.1f} s")


# -- C5: empirical distribution, desk scale -----------------------------------

def test_c05_empirical_desk_scale(ref_cfg, ref_prep):
    assert ref_cfg.trials == 5_000 and ref_cfg.horizon == 400
    assert ref_cfg.init_pcm_scale == 1e3 and ref_cfg.init_p1 == 0.7
    samples, _ = run_empirical(ref_cfg, ref_prep)
    fracs, _ = cluster_probabilities(samples, ref_prep.ladder, ref_cfg.n_s)
    assert abs(fracs[0] - 0.94940) <= 0.012, f"cluster 0 {fracs[0]:.5f}"
    report("C5", f"cluster 0 mass {fracs[0]:.5f}")


def test_c05_full_scale_config_is_valid():
    cfg = load_config(ROOT / "configs" / "paper_full_scale.json")
    assert cfg.trials == 50_000 and cfg.horizon == 1_000
    assert cfg.effective_ergodic_length == 50_000
    prepare(replace(cfg, trials=1))  # structure + fixed point solve
    report("C5b", "full-scale config validates without running")


# -- C6: moderate-loss case ----------------------------------------------------

TABLE_II_CLUSTERS = [7.7920e-1, 1.7318e-1, 3.7120e-2, 8.2800e-3]


@pytest.mark.xfail(
    strict=True,
    reason=(
        "moderate-loss reference values follow independent-draw pattern "
        "probabilities g*(1-g) = 0.1728 per orbit step; a faithful two-state "
        "Markov channel with (alpha, beta) = (0.80, 0.30) concentrates "
        "pi1*(1-alpha) = 0.1556 on the first orbit cluster instead, so the "
        "stated +/-0.012 band around 0.17318 is unreachable (see the "
        "rate-matched companion test and the decisions ledger)"
    ),
)
def test_c06_moderate_loss_as_stated(ref_plant):
    cfg = ExperimentConfig(
        plant=ref_plant, channel=ChannelParams(0.80, 0.30),
        ergodic_length=20_000, n_d=10, n_s=9, delta_max=2.3, master_seed=20260809,
    )
    prep = prepare(cfg)
    samples, _ = run_ergodic(cfg, prep)
    fracs, _ = cluster_probabilities(samples, prep.ladder, cfg.n_s)
    print(f"ACCEPTANCE C6 (as stated): clusters {np.round(fracs[:4], 5)} "
          f"vs {TABLE_II_CLUSTERS} at +/-0.012")
    for i, expected in enumerate(TABLE_II_CLUSTERS):
        assert abs(fracs[i] - expected) <= 0.012, (
            f"cluster {i}: {fracs[i]:.5f} vs {expected:.5f}"
        )


def test_c06_moderate_loss_rate_matched_companion(ref_plant):
    # Same stationary arrival rate realized by an uncorrelated channel
    # (alpha = 1 - beta = 7/9): the protocol reproduces the reference
    # moderate-loss clusters, which localizes the criterion-6 failure to the
    # channel's serial correlation, not to the estimator or the tables.
    g = 7.0 / 9.0
    cfg = ExperimentConfig(
        plant=ref_plant, channel=ChannelParams(g, 1.0 - g),
        ergodic_length=20_000, n_d=10, n_s=9, delta_max=2.3, master_seed=20260809,
    )
    prep = prepare(cfg)
    samples, _ = run_ergodic(cfg, prep)
    fracs, _ = cluster_probabilities(samples, prep.ladder, cfg.n_s)
    for i, expected in enumerate(TABLE_II_CLUSTERS):
        assert abs(fracs[i] - expected) <= 0.012
    report("C6-companion", f"rate-matched clusters {np.round(fracs[:4], 5)}")


def test_c06_markov_pattern_prediction(ref_plant):
    # The faithful-channel cluster masses match the two-state chain's own
    # stationary pattern probabilities, confirming the simulation is sound.
    alpha, beta = 0.80, 0.30
    cfg = ExperimentConfig(
        plant=ref_plant, channel=ChannelParams(alpha, beta),
        ergodic_length=20_000, n_d=10, n_s=9, delta_max=2.3, master_seed=20260809,
    )
    prep = prepare(cfg)
    samples, _ = run_ergodic(cfg, prep)
    fracs, _ = cluster_probabilities(samples, prep.ladder, cfg.n_s)
    pi1 = (1 - beta) / (2 - alpha - beta)
    predicted = [pi1, pi1 * (1 - alpha), pi1 * (1 - alpha) * beta]
    for i, expected in enumerate(predicted):
        assert abs(fracs[i] - expected) <= 0.012
    report("C6-markov", f"faithful-channel clusters {np.round(fracs[:3], 5)} "
                        f"match pattern law {np.round(predicted, 5)}")


# -- C7: heavy-loss case -------------------------------------------------------

def test_c07_heavy_loss(ref_plant):
    cfg = ExperimentConfig(
        plant=ref_plant, channel=ChannelParams(0.08, 0.92),
        trials=5_000, horizon=400, ergodic_length=20_000,
        n_d=40, n_s=2, delta_max=20.0, n_e_bins=2_000, master_seed=20260809,
    )
    table = compare_table(cfg)
    assert len(table.distances) == 41
    empirical, delta = table.columns["empirical"][0], table.columns["delta"][0]
    assert abs(empirical[1] - 7.3020e-2) <= 0.012, f"cluster 1 {empirical[1]:.5f}"
    # The lumped approximation degrades at large distances; report, don't assert.
    tail_gap = float(np.max(np.abs(delta[20:] - empirical[20:])))
    report("C7", f"empirical cluster 1 {empirical[1]:.5f}; "
                 f"lumped-vs-empirical tail gap {tail_gap:.4f} (reported only)")


# -- C8: property suites -------------------------------------------------------

def test_c08a_metric_axioms_and_invariances():
    rng = np.random.default_rng(81)
    checked = 0
    for dim in (2, 3, 4, 5):
        for _ in range(50):
            p = random_pd(rng, dim)
            q = random_pd(rng, dim)
            m = rng.standard_normal((dim, dim)) + 2.0 * np.eye(dim)
            d = riemannian_distance(p, q)
            assert abs(d - riemannian_distance(q, p)) <= 1e-9 * (1 + d)
            assert riemannian_distance(p, p) <= 1e-11
            assert d > 0
            assert abs(riemannian_distance(m @ p @ m.T, m @ q @ m.T) - d) <= 1e-9 * (1 + d)
            assert abs(riemannian_distance(np.linalg.inv(p), np.linalg.inv(q)) - d) <= 1e-9 * (1 + d)
            checked += 1
    assert checked == 200
    report("C8a", "metric axioms + congruence/inversion on 200 pairs, dims 2-5")


def test_c08b_symplectic_identity_random_plants():
    rng = np.random.default_rng(82)
    j2 = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]])
    j3 = np.block([[np.zeros((3, 3)), np.eye(3)], [-np.eye(3), np.zeros((3, 3))]])
    for k in range(50):
        n = 2 if k % 2 == 0 else 3
        plant = random_plant(rng, n=n, m=2, p=1, n_err=1)
        pair = build_modified_plant(plant).sym
        j = j2 if n == 2 else j3
        for m in (pair.m0, pair.m1):
            assert np.max(np.abs(m.T @ j @ m - j)) <= 1e-8
    report("C8b", "symplectic identity on 50 random plants at 1e-8")


def test_c08c_composition_law(ref_mp):
    rng = np.random.default_rng(83)
    mats = {0: ref_mp.sym.m0, 1: ref_mp.sym.m1}
    for _ in range(40):
        word = rng.integers(0, 2, size=rng.integers(1, 7))
        p = PDMatrix(random_pd(rng, 2, spread=1.5))
        stepped = p
        product = np.eye(4)
        for gamma in word:
            stepped = homographic(mats[int(gamma)], stepped)
            product = mats[int(gamma)] @ product
        direct = homographic(product, p)
        scale = np.max(np.abs(stepped.entries))
        assert np.max(np.abs(direct.entries - stepped.entries)) <= 1e-9 * scale
    report("C8c", "word/step composition at 1e-9 relative, lengths <= 6")


def test_c08d_update_form_equivalence():
    rng = np.random.default_rng(84)
    worst = 0.0
    for _ in range(100):
        plant = random_plant(rng, n=3, m=2, p=2, n_err=2)
        mp = build_modified_plant(plant)
        x = random_pd(rng, 3, spread=1.5)
        hat = pcm_update_hat_form(plant, x)
        compact = pcm_update_compact_form(mp, x)
        worst = max(worst, np.max(np.abs(hat - compact)) / np.max(np.abs(compact)))
    assert worst <= 1e-8
    report("C8d", f"penalized vs compact update on 100 inputs, worst {worst:.2e}")


def test_c08e_injectivity_and_cardinality(ref_mp, ref_prep):
    atoms = enumerate_reachable(ref_mp, ref_prep.p_star, 8)
    assert len(atoms) == 2**8
    mats = [a.matrix for a in atoms]
    worst = np.inf
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            worst = min(worst, riemannian_distance(mats[i], mats[j]))
            assert worst > 1e-6
    report("C8e", f"2^8 reachable atoms, min pairwise distance {worst:.2e}")


def test_c08f_contraction_properties(ref_mp):
    rng = np.random.default_rng(86)
    pairs = 0
    while pairs < 200:
        x = PDMatrix(random_pd(rng, 2, spread=2.0))
        y = PDMatrix(random_pd(rng, 2, spread=2.0))
        d = riemannian_distance(x, y)
        if d <= 1e-4:
            continue
        d1 = riemannian_distance(pcm_step(ref_mp, x, 1), pcm_step(ref_mp, y, 1))
        d0 = riemannian_distance(pcm_step(ref_mp, x, 0), pcm_step(ref_mp, y, 0))
        assert d1 < d
        assert d0 <= d * (1 + 1e-9)
        pairs += 1
    report("C8f", "strict contraction (arrival) and non-expansion (drop) on 200 pairs")


def test_c08g_fixed_point_start_independence(ref_mp):
    sols = [
        solve_dare(ref_mp, p0=PDMatrix(s * np.eye(2))).p_star
        for s in (1.0, 100.0, 0.01)
    ]
    worst = max(riemannian_distance(sols[0], s) for s in sols[1:])
    assert worst <= 1e-8
    report("C8g", f"three starts agree to {worst:.2e}")


def test_c08h_mass_conservation_and_monotone_cdf(ref_mp, ref_prep):
    grid = np.linspace(0.0, 3.0, 25)
    for dist in (
        delta_distribution(ref_mp, ref_prep.p_star, 0.95, n_d=6),
        delta_distribution(ref_mp, ref_prep.p_star, 0.08, n_d=10),
        enumeration_distribution(ref_mp, ref_prep.p_star, 0.95, max_len=10, eps_p=1e-9),
        enumeration_distribution(ref_mp, ref_prep.p_star, 0.5, max_len=8, eps_p=1e-7),
    ):
        total = sum(a.mass for a in dist.atoms) + dist.residual_mass
        assert abs(total - 1.0) <= 1e-9
        values = [dist.cdf(e) for e in grid]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))
    report("C8h", "mass conservation + monotone CDF on four distributions")


def test_c08i_byte_identical_outputs(tmp_path, ref_cfg):
    from pcmlab.cli import main

    cfg_path = ROOT / "configs" / "paper_section5.json"
    outs = []
    for name in ("one", "two"):
        out = tmp_path / name
        assert main(["empirical", "--config", str(cfg_path), "--trials", "300",
                     "--out", str(out)]) == 0
        outs.append((out / "samples.csv").read_bytes())
    assert outs[0] == outs[1]
    report("C8i", "byte-identical empirical outputs for identical configs")


# -- C9: rate sanity -----------------------------------------------------------

def test_c09_rate_sanity(ref_plant, ref_prep):
    cfg = ExperimentConfig(
        plant=ref_plant, channel=ChannelParams(0.95, 0.05),
        ergodic_length=200_000, master_seed=202,
    )
    results = rate_study(cfg, [10**3, 10**4, 10**5], ref_prep)
    gaps = [gap for _, gap, _ in results]
    ratios = [env for _, _, env in results]
    assert all(a >= b for a, b in zip(gaps, gaps[1:])), f"gaps not decreasing: {gaps}"
    assert max(ratios) / min(ratios) < 20, f"envelope ratios {ratios}"
    report("C9", f"gaps {['%.5f' % g for g in gaps]}, "
                 f"ratio spread {max(ratios) / min(ratios):.1f}x < 20x")
