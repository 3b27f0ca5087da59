"""Approximations of the stationary law of the covariance recursion.

Three complementary routes:

1. time averaging along one ergodic trajectory started at the fixed point
   (:func:`pcmlab.experiments.run_ergodic`, read out per cluster by
   :func:`~pcmlab.experiments.cluster_probabilities` and per distance by
   :func:`~pcmlab.experiments.rate_study`);
2. weighted enumeration of the finite-horizon reachable set, i.e. the exact
   law of the idealized atom chain pushed ``max_len`` steps forward under the
   stationary arrival probability, with low-probability subtrees pruned into
   a reported residual (:func:`enumeration_distribution`);
3. lumping onto the open-loop orbit of the fixed point with geometric masses
   (:func:`delta_distribution`).

The reachable set is built level-synchronously: all words of one length are
one ``(k, n, n)`` stack, checked for positive definiteness, measured against
the fixed point and mapped to the next length by one call of the batched
branch kernel of :mod:`pcmlab.plant`, over a column that holds the drop
children first and the arrival children after them.

Distances carried by atoms and emitted tables use the decimal-log scale
(``sqrt(sum log10^2 eigenvalues)``, i.e. the canonical metric divided by
``ln 10``) so that distance columns line up across toolchains; the canonical
natural-log metric stays the unit of the core layers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pdm import (
    NotPositiveDefiniteError,
    PDMatrix,
    distances_to,
    homographic,
    not_positive_definite,
    riemannian_distance,
)
from .plant import ModifiedPlant, _advance, _branch_blocks

LN10 = math.log(10.0)


def decimal_distance(p, q) -> float:
    """Riemannian distance on the decimal-log scale used by emitted tables."""
    return riemannian_distance(p, q) / LN10


@dataclass(frozen=True)
class Atom:
    """One support point of an approximate stationary law.

    ``matrix`` is a read-only symmetric positive-definite array (for
    enumerated atoms, a row of a validated level stack); ``distance`` is the
    decimal-log Riemannian distance to the reference fixed point; ``code`` is
    the time-ordered arrival word that generated the matrix from the fixed
    point (empty for the fixed point itself).
    """

    matrix: np.ndarray
    distance: float
    mass: float
    code: str = ""


@dataclass(frozen=True)
class AtomicDistribution:
    """Atoms sorted by distance plus the mass left unassigned to any atom."""

    atoms: tuple
    residual_mass: float

    def __post_init__(self):
        atoms = tuple(sorted(self.atoms, key=lambda a: a.distance))
        total = sum(a.mass for a in atoms) + self.residual_mass
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"masses plus residual sum to {total!r}, not 1")
        if any(a.mass < -1e-15 for a in atoms):
            raise ValueError("negative atom mass")
        object.__setattr__(self, "atoms", atoms)

    def masses(self) -> np.ndarray:
        return np.array([a.mass for a in self.atoms])

    def distances(self) -> np.ndarray:
        return np.array([a.distance for a in self.atoms])

    def cdf(self, epsilon: float) -> float:
        """Total atom mass within decimal-log distance ``epsilon``."""
        return float(sum(a.mass for a in self.atoms if a.distance <= epsilon))


def _levels(mp: ModifiedPlant, p_star: PDMatrix, depths: int, g: float, eps_p: float):
    """Level-synchronous expansion of the arrival words that start with a drop.

    Yields ``(codes, mats, to_ref, p_suffix)`` for ``depth = 0 .. depths - 1``:
    the words ``"0" + w`` with ``len(w) == depth`` that survive pruning, their
    matrices as one read-only ``(k, n, n)`` stack, the canonical distances of
    those matrices to ``p_star`` and the suffix probabilities
    ``g^#1(w) * (1-g)^#0(w)``.  A suffix probability is the product of its
    factors in word order, one multiplication per level, so it is bitwise the
    value a depth-first walk computes.  Within a level the open-loop
    children come first, then the measurement children, each in the order
    of their parents.

    A child is computed only when its suffix probability is at least
    ``eps_p``; suffix probabilities only shrink along a word, so every
    descendant of a pruned child would be pruned too.  ``eps_p = 0`` keeps
    every child.  Each level is checked as a whole against ``PDMatrix``'s
    rules before its distances are taken; the first failing matrix is named
    by its word and depth.
    """
    blocks = _branch_blocks(mp)
    codes = ["0"]
    mats = p_star.entries[None].copy()
    _advance(blocks, mats, np.zeros((1, 1)))
    p = np.ones(1)
    for depth in range(depths):
        bad = np.flatnonzero(not_positive_definite(mats))
        if bad.size:
            raise NotPositiveDefiniteError(
                f"reachable-set matrix of arrival word {codes[bad[0]]!r} (depth {depth}) "
                f"is not positive definite; {bad.size} of {len(codes)} at this depth fail"
            )
        mats.setflags(write=False)
        yield codes, mats, distances_to(p_star, mats), p
        if depth == depths - 1:
            return
        p0 = p * (1.0 - g)
        p1 = p * g
        keep0 = np.flatnonzero(p0 >= eps_p)
        keep1 = np.flatnonzero(p1 >= eps_p)
        if keep0.size + keep1.size == 0:
            return
        codes = [codes[i] + "0" for i in keep0] + [codes[i] + "1" for i in keep1]
        mats = np.concatenate([mats[keep0], mats[keep1]])
        _advance(blocks, mats, (np.arange(len(codes)) >= keep0.size)[:, None])
        p = np.concatenate([p0[keep0], p1[keep1]])


def enumerate_reachable(mp: ModifiedPlant, p_star: PDMatrix, n: int) -> list:
    """All matrices reachable from the fixed point in at most ``n`` steps.

    Exactly ``2**n`` atoms, level by level: the fixed point itself plus one
    matrix per arrival word that starts with a drop (words whose first symbol
    is 1 reduce away because the measurement branch fixes the fixed point).
    Pairwise distinctness is asserted (minimum separation 1e-6 in the
    canonical metric); a violation means the numerics are too coarse or the
    injectivity hypotheses fail.  Masses are left at 0.

    ``n`` is capped at 12, which bounds the returned list at 4096 atoms;
    building and checking them takes about 0.1 s there.
    """
    if not 0 <= n <= 12:
        raise ValueError(f"n must lie in [0, 12], got {n}")
    atoms = [Atom(matrix=p_star.entries, distance=0.0, mass=0.0, code="")]
    to_ref = [np.zeros(1)]
    # Every suffix probability is positive, so eps_p = 0 prunes nothing.
    for codes, mats, dist, _ in _levels(mp, p_star, n, 0.5, 0.0):
        atoms.extend(map(Atom, mats, (dist / LN10).tolist(), [0.0] * len(codes), codes))
        to_ref.append(dist)
    if len(atoms) != 2**n:
        raise AssertionError(f"expected {2**n} atoms, got {len(atoms)}")
    _assert_distinct(atoms, np.concatenate(to_ref))
    return atoms


# Round-off allowance on distances to the fixed point in the distinctness
# prefilter; batched distances agree with the pairwise metric to ~1e-14.
_DISTINCT_SLACK = 1e-12


def _assert_distinct(atoms, to_ref: np.ndarray, min_delta: float = 1e-6) -> None:
    """Check pairwise Riemannian separation of ``atoms``.

    ``to_ref[i]`` is the canonical distance of atom ``i`` to the fixed point.
    By the triangle inequality ``|d(A, p*) - d(B, p*)| <= d(A, B)``, so a
    pair closer than ``min_delta`` is also closer than ``min_delta`` in
    distance to the fixed point.  After sorting by that distance, only pairs
    within ``min_delta + _DISTINCT_SLACK`` of each other are candidates, and
    only those are measured; the prefilter misses no coincidence.
    """
    order = np.argsort(to_ref, kind="stable")
    d = to_ref[order]
    for k in range(1, d.size):
        near = np.flatnonzero(d[k:] - d[:-k] <= min_delta + _DISTINCT_SLACK)
        if near.size == 0:
            # d is sorted, so pairs further apart in the order are too.
            return
        for i in near:
            a, b = atoms[order[i]], atoms[order[i + k]]
            dist = riemannian_distance(a.matrix, b.matrix)
            if dist <= min_delta:
                raise AssertionError(
                    f"atoms {a.code!r} and {b.code!r} coincide (distance {dist:.3e}); "
                    "injectivity violated or numerics too coarse"
                )


def enumeration_distribution(
    mp: ModifiedPlant,
    p_star: PDMatrix,
    gamma_st: float,
    max_len: int,
    eps_p: float,
) -> AtomicDistribution:
    """Weighted enumeration of the reachable set at horizon ``max_len``.

    Pushes the stationary arrival law ``max_len`` steps forward over the
    reachable atoms: the fixed point keeps the all-arrivals mass
    ``g^max_len``; the atom generated by a drop followed by suffix ``w``
    carries ``g^(max_len - 1 - len(w)) * (1 - g) * g^#1(w) * (1-g)^#0(w)``
    (the documented per-suffix stationary weight times the leading-arrivals
    factor that makes the whole law sum to one exactly).

    Subtrees whose suffix probability ``g^#1 * (1-g)^#0`` falls below
    ``eps_p`` are pruned; their total mass goes to ``residual_mass`` in
    closed form rather than being dropped.

    The atoms are built one word length at a time (see :func:`_levels`): each
    level is one stack that is validated, measured and mapped to the next
    level in one batched call each, and a child is computed only when it
    survives pruning.  Each mass is the same product, in the same order, as
    in a depth-first walk of the words, so masses are bitwise those of that
    walk.

    Parameters
    ----------
    max_len : int
        Horizon length, at most 20.  The atom count grows like ``2**max_len``
        until pruning bites, and every atom is a Python object: at 20 the
        moderate-loss config (``eps_p = 1e-9``) yields 991 k atoms, about
        7.5 s and 540 MB peak on a 2-vCPU host.
    eps_p : float
        Suffix-probability cutoff in (0, 1).

    Raises
    ------
    NotPositiveDefiniteError
        If a reachable matrix fails ``PDMatrix``'s rules; the message names
        its arrival word and depth.
    """
    if not (0.0 < gamma_st < 1.0):
        raise ValueError("gamma_st must lie in (0, 1)")
    if not 1 <= max_len <= 20:
        raise ValueError(f"max_len must lie in [1, 20], got {max_len}")
    if not (0.0 < eps_p < 1.0):
        raise ValueError("eps_p must lie in (0, 1)")

    g = gamma_st
    atoms = [Atom(matrix=p_star.entries, distance=0.0, mass=g**max_len, code="")]
    for depth, (codes, mats, dist, p_suffix) in enumerate(
        _levels(mp, p_star, max_len, g, eps_p)
    ):
        mass = g ** (max_len - 1 - depth) * (1.0 - g) * p_suffix
        atoms.extend(map(Atom, mats, (dist / LN10).tolist(), mass.tolist(), codes))
    # A correctly rounded sum: the residual does not depend on atom order.
    residual = 1.0 - math.fsum(a.mass for a in atoms)
    return AtomicDistribution(atoms=tuple(atoms), residual_mass=residual)


def delta_distribution(
    mp: ModifiedPlant,
    p_star: PDMatrix,
    gamma_st: float,
    n_d: int,
) -> AtomicDistribution:
    """Delta-function lumping on the open-loop orbit of the fixed point.

    The fixed point gets mass ``g``; the ``i``-th open-loop image gets
    ``g * (1 - g)^i`` for ``i = 1..n_d``; the geometric tail
    ``(1 - g)^(n_d + 1)`` is reported as residual.
    """
    if not (0.0 < gamma_st < 1.0):
        raise ValueError("gamma_st must lie in (0, 1)")
    if n_d < 1:
        raise ValueError("n_d must be >= 1")
    g = gamma_st
    atoms = [Atom(matrix=p_star.entries, distance=0.0, mass=g, code="")]
    mat = p_star
    for i in range(1, n_d + 1):
        mat = homographic(mp.sym.m0, mat)
        atoms.append(
            Atom(
                matrix=mat.entries,
                distance=decimal_distance(mat, p_star),
                mass=g * (1.0 - g) ** i,
                code="0" * i,
            )
        )
    residual = 1.0 - sum(a.mass for a in atoms)
    return AtomicDistribution(atoms=tuple(atoms), residual_mass=residual)
