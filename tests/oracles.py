"""Reference implementations the tests compare production code against.

None of these is reached by the CLI.  Each one is an independent route to a
quantity that ``pcmlab`` computes another way:

- :func:`riccati_map` / :func:`solve_dare_direct`: the information-form
  measurement branch and its fixed-point iteration, against
  :func:`pcmlab.riccati.solve_dare`;
- :func:`gamma0_lapack` / :func:`gamma1_lapack`: the batched branch maps
  through matrix products and LAPACK solves, for any ``n``, against the
  closed-form 2x2 branch of :mod:`pcmlab.plant`;
- :func:`gamma0_float` / :func:`gamma1_float`: the closed-form 2x2 maps on
  one matrix in plain Python floats, in the kernel's operation order, so
  against the numpy kernel they agree bit for bit; :func:`step_float`
  applies the one an arrival symbol selects;
- :func:`scipy_riemannian_distance`: the distance through scipy's
  generalized symmetric eigensolver (LAPACK ``dsygvd``), against the
  numpy-only :func:`pcmlab.pdm.riemannian_distance`; it is the one oracle
  that needs scipy, imported when called;
- :func:`pcm_trajectory`: the PCM recursion along a word, one
  :func:`pcmlab.estimator.pcm_step` at a time, against
  :func:`pcmlab.estimator.simulate_trajectory` and the word products;
- :func:`distribution_clusters`: cluster masses of an atomic law, one atom
  at a time, against the enumeration and delta columns;
- :func:`estimate_contraction`: sampled Lipschitz constants of the branch
  maps, which bound the production recursion along stationary words.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pcmlab.estimator import pcm_step
from pcmlab.experiments import cluster_intervals
from pcmlab.pdm import NotPositiveDefiniteError, PDMatrix, homographic, riemannian_distance
from pcmlab.plant import ModifiedPlant
from pcmlab.riccati import ConvergenceError, RiccatiSolution, solve_dare
from pcmlab.rng import stream_rng
from pcmlab.stationary import AtomicDistribution


def riccati_map(a1: np.ndarray, g1: np.ndarray, h1: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Direct information-form evaluation of the measurement-branch map.

    ``[(a1 p a1' + g1 g1')^{-1} + h1' h1]^{-1}``; valid for singular ``a1``
    as well, which the homographic route is not.
    """
    pred = a1 @ p @ a1.T + g1 @ g1.T
    out = np.linalg.inv(np.linalg.inv(pred) + h1.T @ h1)
    return 0.5 * (out + out.T)


def gamma0_lapack(a0: np.ndarray, w0: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Batched open-loop map ``a0 p a0' + w0``, symmetrized."""
    out = a0 @ p @ a0.T + w0
    return 0.5 * (out + np.swapaxes(out, -1, -2))


def gamma1_lapack(
    a1: np.ndarray, w1: np.ndarray, k1: np.ndarray, p: np.ndarray
) -> np.ndarray:
    """Batched measurement map ``z (I + k1 z)^{-1}``, ``z = a1 p a1' + w1``,
    through one LAPACK solve per matrix, symmetrized."""
    z = a1 @ p @ a1.T + w1
    eye = np.eye(a1.shape[0])
    lhs = eye + k1 @ z
    out = np.linalg.solve(np.swapaxes(lhs, -1, -2), np.swapaxes(z, -1, -2))
    out = np.swapaxes(out, -1, -2)
    return 0.5 * (out + np.swapaxes(out, -1, -2))


def gamma0_float(a0: np.ndarray, w0: np.ndarray, p: np.ndarray) -> tuple:
    """Entries ``(x00, x01, x11)`` of the open-loop map of one symmetric 2x2
    ``p``, in plain floats (the recursion of perfbench's ``rate_oracle``)."""
    (a00, a01), (a10, a11) = a0.tolist()
    (w00, w01), (_, w11) = w0.tolist()
    (p00, p01), (_, p11) = p.tolist()
    r00 = a00 * p00 + a01 * p01
    r01 = a00 * p01 + a01 * p11
    r10 = a10 * p00 + a11 * p01
    r11 = a10 * p01 + a11 * p11
    return (
        r00 * a00 + r01 * a01 + w00,
        0.5 * ((r00 * a10 + r01 * a11) + (r10 * a00 + r11 * a01)) + w01,
        r10 * a10 + r11 * a11 + w11,
    )


def gamma1_float(a1: np.ndarray, w1: np.ndarray, k1: np.ndarray, p: np.ndarray) -> tuple:
    """Entries ``(x00, x01, x11)`` of the measurement map of one symmetric
    2x2 ``p`` through the adjugate, in plain floats."""
    (b00, b01), (b10, b11) = a1.tolist()
    (v00, v01), (_, v11) = w1.tolist()
    (k00, k01), (k10, k11) = k1.tolist()
    (p00, p01), (_, p11) = p.tolist()
    r00 = b00 * p00 + b01 * p01
    r01 = b00 * p01 + b01 * p11
    r10 = b10 * p00 + b11 * p01
    r11 = b10 * p01 + b11 * p11
    z00 = r00 * b00 + r01 * b01 + v00
    z01 = r00 * b10 + r01 * b11 + v01
    z11 = r10 * b10 + r11 * b11 + v11
    m00 = 1.0 + k00 * z00 + k01 * z01
    m01 = k00 * z01 + k01 * z11
    m10 = k10 * z00 + k11 * z01
    m11 = 1.0 + k10 * z01 + k11 * z11
    det = m00 * m11 - m01 * m10
    return (
        (z00 * m11 - z01 * m10) / det,
        0.5 * ((-z00 * m01 + z01 * m00) + (z01 * m11 - z11 * m10)) / det,
        (-z01 * m01 + z11 * m00) / det,
    )


def step_float(blocks: tuple, p: np.ndarray, arrival) -> np.ndarray:
    """The symmetric 2x2 matrix after one plain-float step from ``p``: the
    measurement map when ``arrival`` is nonzero, the open-loop map
    otherwise.  ``blocks`` is ``pcmlab.plant._branch_blocks(mp)``."""
    a0, w0, a1, w1, k1 = blocks
    x00, x01, x11 = gamma1_float(a1, w1, k1, p) if arrival else gamma0_float(a0, w0, p)
    return np.array([[x00, x01], [x01, x11]])


def scipy_riemannian_distance(p, q) -> float:
    """Riemannian distance from ``scipy.linalg.eigh(p, q)``'s generalized
    eigenvalues, as :func:`pcmlab.pdm.riemannian_distance` computed it
    before pcmlab dropped scipy."""
    import scipy.linalg

    a = np.asarray(p, dtype=float)
    b = np.asarray(q, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    try:
        w = scipy.linalg.eigh(a, b, eigvals_only=True)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise NotPositiveDefiniteError(f"generalized eigenproblem failed: {exc}") from exc
    if np.any(w <= 0.0):
        raise NotPositiveDefiniteError("inputs are not a positive-definite pair")
    return float(np.sqrt(np.sum(np.log(w) ** 2)))


def solve_dare_direct(
    a1,
    g1,
    h1,
    tol: float = 1e-12,
    max_iter: int = 100_000,
    p0: PDMatrix | None = None,
) -> RiccatiSolution:
    """Fixed-point iteration of :func:`riccati_map` from ``p0`` (default I).

    Convergence is declared when the Riemannian step size drops below
    ``tol``.  Works for plants with singular ``a1`` as well.
    """
    a1 = np.atleast_2d(np.asarray(a1, dtype=float))
    g1 = np.atleast_2d(np.asarray(g1, dtype=float))
    h1 = np.atleast_2d(np.asarray(h1, dtype=float))
    p = p0.entries if p0 is not None else np.eye(a1.shape[0])
    delta = np.inf
    for i in range(1, max_iter + 1):
        nxt = riccati_map(a1, g1, h1, p)
        delta = riemannian_distance(nxt, p)
        p = nxt
        if delta < tol:
            return RiccatiSolution(
                p_star=PDMatrix(p), iterations=i, final_step_delta=float(delta)
            )
    raise ConvergenceError(f"no convergence after {max_iter} iterations (last step {delta:.3e})")


@dataclass(frozen=True)
class PcmTrajectory:
    """A PCM path driven by an arrival word, with optional reference distances.

    ``pcms[k]`` is the PCM after the first ``k`` symbols of ``word``
    (``pcms[0]`` is the initial value); ``distances[k]`` is the Riemannian
    distance to the reference when one was supplied.
    """

    initial: PDMatrix
    word: np.ndarray
    pcms: tuple
    distances: np.ndarray | None = None


def pcm_trajectory(
    mp: ModifiedPlant,
    p0: PDMatrix,
    word,
    reference: PDMatrix | None = None,
) -> PcmTrajectory:
    """Iterate the PCM recursion along a finite arrival word.

    Returns the full PCM path (initial value included) and, when a reference
    matrix is supplied, the per-step Riemannian distances to it.
    """
    word = np.asarray(word, dtype=np.uint8).ravel()
    pcms = [p0]
    for gamma in word:
        pcms.append(pcm_step(mp, pcms[-1], int(gamma)))
    distances = None
    if reference is not None:
        distances = np.array([riemannian_distance(p, reference) for p in pcms])
    return PcmTrajectory(initial=p0, word=word, pcms=tuple(pcms), distances=distances)


def distribution_clusters(
    dist: AtomicDistribution, distances: np.ndarray, n_s: int
) -> tuple[np.ndarray, float]:
    """Cluster masses of an atomic distribution under the table intervals."""
    fractions = np.zeros(len(distances))
    assigned = 0.0
    intervals = cluster_intervals(distances, n_s)
    for atom in dist.atoms:
        for i, (lo, hi, closed_lo) in enumerate(intervals):
            inside = (atom.distance >= lo) if closed_lo else (atom.distance > lo)
            if inside and atom.distance <= hi:
                fractions[i] += atom.mass
                assigned += atom.mass
                break
    return fractions, float(1.0 - assigned)


@dataclass(frozen=True)
class ContractionEstimate:
    """Sampled Lipschitz/growth diagnostics of the two branch maps.

    ``alpha1_hat`` / ``alpha0_hat`` are maxima of observed distance ratios,
    hence lower bounds of the true suprema.  ``(a_hat, b_hat)`` bound the
    open-loop branch's distance growth ``d(T0(x), ref) <= a * d(x, ref) + b``
    over every drawn sample (least-squares fit, intercept inflated to cover).
    """

    alpha0_hat: float
    alpha1_hat: float
    a_hat: float
    b_hat: float
    n_samples: int


def _tangent_perturbation(ref_half: np.ndarray, distance: float, rng) -> np.ndarray:
    """PD matrix at exactly ``distance`` from the reference (in the metric).

    Congruence transport of a unit-norm symmetric direction: with
    ``ref = L L'``, the point ``L expm(distance * D) L'`` for ``||D||_F = 1``
    sits at Riemannian distance ``distance`` from ``ref``.
    """
    n = ref_half.shape[0]
    d = rng.standard_normal((n, n))
    d = 0.5 * (d + d.T)
    d /= np.linalg.norm(d)
    w, v = np.linalg.eigh(distance * d)
    exp_d = (v * np.exp(w)) @ v.T
    out = ref_half @ exp_d @ ref_half.T
    return 0.5 * (out + out.T)


def estimate_contraction(
    mp: ModifiedPlant,
    n_samples: int,
    radius: float,
    seed: int,
    p_star: PDMatrix | None = None,
) -> ContractionEstimate:
    """Sample distance ratios of both branch maps around the fixed point.

    Draws ``n_samples`` pairs ``(x, y)`` with ``d(x, y)`` log-uniform in
    ``[1e-3, radius]`` (and ``x`` itself log-uniformly spread around the
    fixed point), records the worst observed contraction ratio for each
    branch, and fits the affine growth bound of the open-loop branch.
    Reported ratios are empirical lower bounds of the true suprema.
    """
    if n_samples < 10:
        raise ValueError("n_samples must be at least 10")
    if radius <= 0:
        raise ValueError("radius must be positive")
    if p_star is None:
        p_star = solve_dare(mp).p_star
    ref_half = np.linalg.cholesky(p_star.entries)
    rng = stream_rng(seed, 0)

    lo, hi = np.log(1e-3), np.log(radius)
    alpha0 = 0.0
    alpha1 = 0.0
    growth_in = []
    growth_out = []
    for _ in range(n_samples):
        r_x = np.exp(rng.uniform(lo, hi))
        r_xy = np.exp(rng.uniform(lo, hi))
        x = _tangent_perturbation(ref_half, r_x, rng)
        x_half = np.linalg.cholesky(x)
        y = _tangent_perturbation(x_half, r_xy, rng)
        d_xy = riemannian_distance(x, y)
        if d_xy < 1e-12:  # sampler guarantees separation; guard regardless
            continue
        im0_x = homographic(mp.sym.m0, PDMatrix(x)).entries
        im0_y = homographic(mp.sym.m0, PDMatrix(y)).entries
        im1_x = homographic(mp.sym.m1, PDMatrix(x)).entries
        im1_y = homographic(mp.sym.m1, PDMatrix(y)).entries
        alpha0 = max(alpha0, riemannian_distance(im0_x, im0_y) / d_xy)
        alpha1 = max(alpha1, riemannian_distance(im1_x, im1_y) / d_xy)
        growth_in.append(riemannian_distance(x, p_star))
        growth_out.append(riemannian_distance(im0_x, p_star))
    if len(growth_in) < 2:
        raise ValueError("degenerate sampling: too few separated pairs")

    growth_in = np.asarray(growth_in)
    growth_out = np.asarray(growth_out)
    design = np.column_stack([growth_in, np.ones_like(growth_in)])
    (a_fit, b_fit), *_ = np.linalg.lstsq(design, growth_out, rcond=None)
    a_hat = max(float(a_fit), 1e-12)
    # Inflate the intercept so the bound covers every drawn sample.
    b_hat = max(float(b_fit), 0.0) + max(
        0.0, float(np.max(growth_out - a_hat * growth_in - max(float(b_fit), 0.0)))
    )
    b_hat = max(b_hat, 1e-12)
    return ContractionEstimate(
        alpha0_hat=float(alpha0),
        alpha1_hat=float(alpha1),
        a_hat=a_hat,
        b_hat=b_hat,
        n_samples=n_samples,
    )
