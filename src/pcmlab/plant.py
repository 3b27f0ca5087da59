"""Nominal plant description and construction of the modified plant.

The robust filter penalizes the sensitivity of the innovation process to
parametric model errors.  All of that machinery collapses into an equivalent
"modified plant": a transition/noise pair for the dropped-measurement branch
and a transition/noise/output triple for the received-measurement branch.
This module computes the sensitivity stacks, every named intermediate, and
the final branch matrices, and runs the structural (controllability /
observability) checks the convergence theory requires.  It also holds the
batched branch-map kernel (``_gamma0_update`` / ``_gamma1_update``) that the
Monte-Carlo runs and the reachable-set enumeration apply to stacks of PCMs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pdm import (
    PDMatrix,
    SingularMatrixError,
    SymplecticPair,
    build_symplectic_pair,
    require_invertible,
    sym_sqrt,
    sym_sqrt_inv,
)


@dataclass(frozen=True)
class NominalPlant:
    """Nominal model with first-order error sensitivities.

    Fields
    ------
    a, b, c : ndarray
        State transition (n x n), noise input (n x m), output (p x n) at the
        nominal parameter value.
    q, r : PDMatrix
        Process-noise (m x m) and measurement-noise (p x p) covariances.
    da, db, dc : tuple of ndarray
        Derivatives of a, b, c with respect to each scalar error component;
        all three tuples share length ``n_err`` (possibly zero).
    mu : float
        Accuracy/robustness trade-off weight in (0, 1]; ``mu == 1`` recovers
        the plain Kalman filter.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    q: PDMatrix
    r: PDMatrix
    da: tuple = ()
    db: tuple = ()
    dc: tuple = ()
    mu: float = 1.0

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        b = np.atleast_2d(np.asarray(self.b, dtype=float))
        c = np.atleast_2d(np.asarray(self.c, dtype=float))
        n = a.shape[0]
        if a.shape != (n, n):
            raise ValueError(f"a must be square, got {a.shape}")
        if b.shape[0] != n:
            raise ValueError(f"b must have {n} rows, got {b.shape}")
        if c.shape[1] != n:
            raise ValueError(f"c must have {n} columns, got {c.shape}")
        m, p = b.shape[1], c.shape[0]
        if self.q.dim != m:
            raise ValueError(f"q must be {m} x {m}, got {self.q.dim}")
        if self.r.dim != p:
            raise ValueError(f"r must be {p} x {p}, got {self.r.dim}")
        if not (0.0 < self.mu <= 1.0):
            raise ValueError(f"mu must lie in (0, 1], got {self.mu}")
        da = tuple(np.atleast_2d(np.asarray(d, dtype=float)) for d in self.da)
        db = tuple(np.atleast_2d(np.asarray(d, dtype=float)) for d in self.db)
        dc = tuple(np.atleast_2d(np.asarray(d, dtype=float)) for d in self.dc)
        if not (len(da) == len(db) == len(dc)):
            raise ValueError("da, db, dc must have equal length")
        for i, (x, y, z) in enumerate(zip(da, db, dc)):
            if x.shape != a.shape or y.shape != b.shape or z.shape != c.shape:
                raise ValueError(f"derivative {i} has inconsistent shape")
        a.setflags(write=False)
        b.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "da", da)
        object.__setattr__(self, "db", db)
        object.__setattr__(self, "dc", dc)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def m(self) -> int:
        return self.b.shape[1]

    @property
    def p(self) -> int:
        return self.c.shape[0]

    @property
    def n_err(self) -> int:
        return len(self.da)

    @property
    def lam(self) -> float:
        """Sensitivity penalization weight (1 - mu) / mu."""
        return (1.0 - self.mu) / self.mu


@dataclass(frozen=True)
class ModifiedPlant:
    """Branch matrices of the equivalent filtering problem plus intermediates.

    ``a0, g0`` drive the no-measurement branch; ``a1, g1, h1`` the
    measurement branch.  The intermediates (``a_check`` through ``r_tilde``)
    are retained because tests and diagnostics recompute the derivation both
    ways.  ``sym`` carries the validated symplectic update pair.
    """

    a0: np.ndarray
    g0: np.ndarray
    a1: np.ndarray
    g1: np.ndarray
    h1: np.ndarray
    lam: float
    s_mat: np.ndarray
    t_mat: np.ndarray
    a_check: np.ndarray
    q_check: np.ndarray
    s_tilde: np.ndarray
    b_tilde: np.ndarray
    q_tilde: np.ndarray
    c_tilde: np.ndarray
    r_tilde: np.ndarray
    sym: SymplecticPair

    @property
    def n(self) -> int:
        return self.a0.shape[0]


def _gamma0_update(a0: np.ndarray, w0: np.ndarray, p: np.ndarray) -> np.ndarray:
    out = a0 @ p @ a0.T + w0
    return 0.5 * (out + np.swapaxes(out, -1, -2))


def _gamma1_update(
    a1: np.ndarray, w1: np.ndarray, k1: np.ndarray, p: np.ndarray
) -> np.ndarray:
    """Batched measurement update ``z (I + k1 z)^{-1}`` with ``z`` the
    predicted matrix; algebraically the homographic measurement branch."""
    z = a1 @ p @ a1.T + w1
    eye = np.eye(a1.shape[0])
    lhs = eye + k1 @ z
    out = np.linalg.solve(np.swapaxes(lhs, -1, -2), np.swapaxes(z, -1, -2))
    out = np.swapaxes(out, -1, -2)
    return 0.5 * (out + np.swapaxes(out, -1, -2))


def _branch_blocks(mp: ModifiedPlant):
    return (
        mp.a0,
        mp.g0 @ mp.g0.T,
        mp.a1,
        mp.g1 @ mp.g1.T,
        mp.h1.T @ mp.h1,
    )


def _branch_step(blocks, p: np.ndarray, got: np.ndarray) -> None:
    """Advance the stack ``p`` one step in place: the measurement branch
    where ``got`` is true, the open-loop branch elsewhere."""
    a0, w0, a1, w1, k1 = blocks
    if got.all():
        p[...] = _gamma1_update(a1, w1, k1, p)
    elif not got.any():
        p[...] = _gamma0_update(a0, w0, p)
    else:
        p[got] = _gamma1_update(a1, w1, k1, p[got])
        lost = ~got
        p[lost] = _gamma0_update(a0, w0, p[lost])


@dataclass(frozen=True)
class StructureReport:
    """Structural diagnostics of a modified plant."""

    a0_invertible: bool
    a1_invertible: bool
    ctrb_rank: int
    obsv_rank: int
    controllable: bool
    observable: bool
    spectral_radius_a0: float


def sensitivity_matrices(plant: NominalPlant) -> tuple[np.ndarray, np.ndarray]:
    """Stack the innovation sensitivities over all error components.

    For each error component i the contribution is the block
    ``[c @ da_i; dc_i @ a]`` (to the state stack) and ``[c @ db_i; dc_i @ b]``
    (to the noise stack), evaluated at zero error.  With ``n_err``
    components the stacks have ``2 * p * n_err`` rows; with none they are
    empty (zero-row) and every downstream correction term vanishes.
    """
    n, m, p = plant.n, plant.m, plant.p
    s_blocks = []
    t_blocks = []
    for da_i, db_i, dc_i in zip(plant.da, plant.db, plant.dc):
        s_blocks.append(np.vstack([plant.c @ da_i, dc_i @ plant.a]))
        t_blocks.append(np.vstack([plant.c @ db_i, dc_i @ plant.b]))
    if s_blocks:
        return np.vstack(s_blocks), np.vstack(t_blocks)
    return np.zeros((0, n)), np.zeros((0, m))


def build_modified_plant(plant: NominalPlant) -> ModifiedPlant:
    """Construct the modified plant from a nominal plant.

    Follows the penalization algebra exactly: with weight
    ``lam = (1 - mu) / mu`` and sensitivity stacks ``s, t``,

    - ``q_check = (q^-1 + lam t' t)^-1``
    - ``a_check = a - lam b q_check t' s``        (must be invertible)
    - ``s_tilde = sqrt(lam) (I + lam t q t')^{-1/2} s``
    - ``b_tilde = a_check^-1 b``
    - ``q_tilde = q_check + q_check b_tilde' s_tilde' s_tilde b_tilde q_check``
    - ``a1 = a_check + b q_check b_tilde' s_tilde' s_tilde``
    - ``c_tilde = [s_tilde a_check^-1; c]``,
      ``r_tilde = diag(I + s_tilde b_tilde q_check b_tilde' s_tilde', r)``

    and the branch matrices are ``a0 = a``, ``g0 = b q^{1/2}``,
    ``g1 = b q_tilde^{1/2}``, ``h1 = r_tilde^{-1/2} c_tilde``.  When the
    sensitivity rows vanish identically they are dropped from ``c_tilde``
    and ``r_tilde`` so the measurement stack stays strictly positive
    definite.

    Raises
    ------
    SingularMatrixError
        If ``a`` or ``a_check`` is singular (hypothesis violation), naming
        the offending matrix.
    """
    lam = plant.lam
    a, b, c = plant.a, plant.b, plant.c
    q = plant.q.entries
    r = plant.r.entries
    require_invertible(a, "a (nominal state transition)")
    s_mat, t_mat = sensitivity_matrices(plant)

    q_check = np.linalg.inv(np.linalg.inv(q) + lam * t_mat.T @ t_mat)
    q_check = 0.5 * (q_check + q_check.T)
    a_check = a - lam * b @ q_check @ t_mat.T @ s_mat
    require_invertible(a_check, "a_check (penalized state transition)")
    a_check_inv = np.linalg.inv(a_check)

    n_sens = s_mat.shape[0]
    if n_sens > 0:
        whitener = sym_sqrt_inv(np.eye(n_sens) + lam * t_mat @ q @ t_mat.T)
        s_tilde = np.sqrt(lam) * whitener @ s_mat
    else:
        s_tilde = np.zeros((0, plant.n))

    b_tilde = a_check_inv @ b
    cross = b_tilde.T @ s_tilde.T @ s_tilde
    q_tilde = q_check + q_check @ cross @ b_tilde @ q_check
    q_tilde = 0.5 * (q_tilde + q_tilde.T)
    a1 = a_check + b @ q_check @ cross

    drop_sens = n_sens == 0 or not np.any(s_tilde)
    if drop_sens:
        c_tilde = c.copy()
        r_tilde = r.copy()
    else:
        c_tilde = np.vstack([s_tilde @ a_check_inv, c])
        top = np.eye(n_sens) + s_tilde @ b_tilde @ q_check @ b_tilde.T @ s_tilde.T
        r_tilde = np.block(
            [
                [top, np.zeros((n_sens, plant.p))],
                [np.zeros((plant.p, n_sens)), r],
            ]
        )
        r_tilde = 0.5 * (r_tilde + r_tilde.T)

    g0 = b @ sym_sqrt(q)
    g1 = b @ sym_sqrt(q_tilde)
    h1 = sym_sqrt_inv(r_tilde) @ c_tilde
    sym = build_symplectic_pair(a, g0, a1, g1, h1)

    return ModifiedPlant(
        a0=a,
        g0=g0,
        a1=a1,
        g1=g1,
        h1=h1,
        lam=lam,
        s_mat=s_mat,
        t_mat=t_mat,
        a_check=a_check,
        q_check=q_check,
        s_tilde=s_tilde,
        b_tilde=b_tilde,
        q_tilde=q_tilde,
        c_tilde=c_tilde,
        r_tilde=r_tilde,
        sym=sym,
    )


def check_structure(mp: ModifiedPlant) -> StructureReport:
    """Controllability/observability ranks and related diagnostics.

    Ranks come from singular values of the n-step reachability and
    observability stacks with tolerance ``n * sigma_max * 1e-10`` (pegged to
    the largest singular value so the test is scale invariant).  Always
    returns a report; it never raises.
    """
    n = mp.n
    blocks = [mp.g1]
    for _ in range(n - 1):
        blocks.append(mp.a1 @ blocks[-1])
    ctrb = np.hstack(blocks)
    rows = [mp.h1]
    for _ in range(n - 1):
        rows.append(rows[-1] @ mp.a1)
    obsv = np.vstack(rows)

    ctrb_rank = _rank(ctrb)
    obsv_rank = _rank(obsv)
    return StructureReport(
        a0_invertible=_is_invertible(mp.a0),
        a1_invertible=_is_invertible(mp.a1),
        ctrb_rank=ctrb_rank,
        obsv_rank=obsv_rank,
        controllable=ctrb_rank == n,
        observable=obsv_rank == n,
        spectral_radius_a0=float(np.max(np.abs(np.linalg.eigvals(mp.a0)))),
    )


def _rank(mat: np.ndarray) -> int:
    if mat.size == 0:
        return 0
    sv = np.linalg.svd(mat, compute_uv=False)
    tol = max(mat.shape) * sv[0] * 1e-10 if sv.size else 0.0
    return int(np.sum(sv > tol))


def _is_invertible(a: np.ndarray) -> bool:
    try:
        require_invertible(a, "matrix")
    except SingularMatrixError:
        return False
    return True
