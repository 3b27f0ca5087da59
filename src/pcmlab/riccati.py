"""Fixed point of the measurement-branch map and the open-loop orbit.

The measurement-branch map has a unique stabilizing fixed point whenever the
modified plant is controllable and observable.  :func:`solve_dare` finds it
by iterating that map; :func:`orbit_distances` measures the open-loop orbit
of the fixed point, the distance ladder behind every reported table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pdm import PDMatrix, homographic, riemannian_distance
from .plant import ModifiedPlant, check_structure


@dataclass(frozen=True)
class RiccatiSolution:
    """Converged fixed point of the measurement-branch map."""

    p_star: PDMatrix
    iterations: int
    final_step_delta: float


class ConvergenceError(RuntimeError):
    """Fixed-point iteration exhausted its budget without converging."""


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
    delta = np.inf
    for i in range(1, max_iter + 1):
        nxt = homographic(m1, p).entries
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
