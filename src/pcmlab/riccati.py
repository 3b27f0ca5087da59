"""Fixed points of the covariance maps and empirical contraction estimates.

The measurement-branch map has a unique stabilizing fixed point whenever the
modified plant is controllable and observable; the open-loop branch has a
positive-definite fixed point only when the transition matrix is stable.
Both solvers live here, together with a sampler that estimates the
branch-wise Lipschitz constants of the maps in the Riemannian metric (lower
bounds of the true suprema) and the affine growth bound of the open-loop
branch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pdm import PDMatrix, homographic, riemannian_distance
from .plant import ModifiedPlant, check_structure
from .rng import stream_rng


@dataclass(frozen=True)
class RiccatiSolution:
    """Converged fixed point of the measurement-branch map."""

    p_star: PDMatrix
    iterations: int
    final_step_delta: float


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


class ConvergenceError(RuntimeError):
    """Fixed-point iteration exhausted its budget without converging."""


def riccati_map(a1: np.ndarray, g1: np.ndarray, h1: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Direct information-form evaluation of the measurement-branch map.

    ``[(a1 p a1' + g1 g1')^{-1} + h1' h1]^{-1}``; valid for singular ``a1``
    as well, which the homographic route is not.
    """
    pred = a1 @ p @ a1.T + g1 @ g1.T
    out = np.linalg.inv(np.linalg.inv(pred) + h1.T @ h1)
    return 0.5 * (out + out.T)


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
    ``tol``.  Used directly for plants with singular ``a1`` and as the
    cross-check oracle for :func:`solve_dare`.
    """
    a1 = np.atleast_2d(np.asarray(a1, dtype=float))
    g1 = np.atleast_2d(np.asarray(g1, dtype=float))
    h1 = np.atleast_2d(np.asarray(h1, dtype=float))
    p = p0.entries if p0 is not None else np.eye(a1.shape[0])
    return _iterate(lambda x: riccati_map(a1, g1, h1, x), p, tol, max_iter)


def solve_dare(
    mp: ModifiedPlant,
    tol: float = 1e-12,
    max_iter: int = 100_000,
    p0: PDMatrix | None = None,
) -> RiccatiSolution:
    """Stabilizing fixed point of the measurement-branch map.

    Always checks first that the modified plant is controllable and
    observable, the hypothesis under which the fixed point exists and the
    iteration converges.  Then iterates :func:`~pcmlab.pdm.homographic` (the
    same audited path the estimator uses) from ``p0`` (default identity)
    until the Riemannian step size falls below ``tol``.

    Raises
    ------
    ValueError
        If the modified plant fails the controllability/observability check.
    ConvergenceError
        If ``max_iter`` steps do not reach ``tol``.
    """
    report = check_structure(mp)
    if not (report.controllable and report.observable):
        raise ValueError(
            "modified plant is not controllable and observable "
            f"(ranks {report.ctrb_rank}/{report.obsv_rank} of {mp.n}); "
            "fixed-point convergence is not guaranteed"
        )
    p = p0.entries if p0 is not None else np.eye(mp.n)
    m1 = mp.sym.m1
    return _iterate(lambda x: homographic(m1, x).entries, p, tol, max_iter)


def _iterate(step, p: np.ndarray, tol: float, max_iter: int) -> RiccatiSolution:
    delta = np.inf
    for i in range(1, max_iter + 1):
        nxt = step(p)
        delta = riemannian_distance(nxt, p)
        p = nxt
        if delta < tol:
            return RiccatiSolution(
                p_star=PDMatrix(p), iterations=i, final_step_delta=float(delta)
            )
    raise ConvergenceError(
        f"no convergence after {max_iter} iterations (last step {delta:.3e}); "
        "check the controllability/observability hypotheses"
    )


def solve_lyapunov(a0, g0) -> PDMatrix | None:
    """Positive-definite solution of ``p = a0 p a0' + g0 g0'`` if one exists.

    Returns ``None`` when the spectral radius of ``a0`` is not strictly
    below one (no PD solution).  Uses the Kronecker-vectorized linear solve
    up to dimension 30 and a doubling accumulation of the matrix power
    series beyond that.
    """
    a0 = np.atleast_2d(np.asarray(a0, dtype=float))
    g0 = np.atleast_2d(np.asarray(g0, dtype=float))
    rho = np.max(np.abs(np.linalg.eigvals(a0)))
    if rho >= 1.0 - 1e-9:
        return None
    n = a0.shape[0]
    w = g0 @ g0.T
    if n <= 30:
        lhs = np.eye(n * n) - np.kron(a0, a0)
        p = np.linalg.solve(lhs, w.reshape(-1)).reshape(n, n)
    else:
        # sum_k a^k w a'^k by repeated squaring: p_{2m} = p_m + a^m p_m a'^m
        p = w.copy()
        power = a0.copy()
        for _ in range(200):
            step = power @ p @ power.T
            p += step
            if np.max(np.abs(step)) <= 1e-16 * np.max(np.abs(p)):
                break
            power = power @ power
    return PDMatrix(0.5 * (p + p.T))


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


def orbit_distances(mp: ModifiedPlant, p_star: PDMatrix, count: int) -> np.ndarray:
    """Distances from the open-loop orbit of the fixed point back to it.

    Entry ``i`` is the Riemannian distance between ``i`` applications of the
    open-loop branch to the fixed point and the fixed point itself
    (``i = 0`` gives 0).  This ladder anchors every reported distance table.
    """
    out = np.zeros(count + 1)
    p = p_star
    for i in range(1, count + 1):
        p = homographic(mp.sym.m0, p)
        out[i] = riemannian_distance(p, p_star)
    return out
