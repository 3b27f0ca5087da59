"""Positive-definite matrices, the Riemannian metric, and homographic maps.

Everything downstream (filter recursions, fixed-point solvers, stationary
approximations) works on the cone of symmetric positive-definite matrices.
This module owns the validated matrix type, the affine-invariant Riemannian
distance, the linear-fractional (homographic) transformation that implements
one covariance update, and the construction of the paired symplectic update
matrices for the dropped/received measurement branches.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

# Relative symmetry slack absorbed at construction; see PDMatrix.
SYMMETRY_RTOL = 1e-10
# Smallest acceptable eigenvalue ratio min/max before construction fails.
PD_EIG_RTOL = 1e-12
# Condition-number ceiling for matrices that must be inverted.
COND_LIMIT = 1e12
# Per-entry absolute tolerance for the symplectic identity M^T J M = J.
SYMPLECTIC_ATOL = 1e-8


class NotPositiveDefiniteError(ValueError):
    """Input failed symmetry or positive-definiteness validation."""


class SingularMatrixError(ValueError):
    """A matrix that must be invertible is singular or too ill-conditioned."""


def _as_square_array(entries, name: str = "matrix") -> np.ndarray:
    arr = np.array(entries, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} has non-finite entries")
    return arr


def _fails_pd(w_min, w_max):
    """PDMatrix's eigenvalue rule, elementwise over extreme eigenvalues."""
    return (w_min <= PD_EIG_RTOL * w_max) | (w_min <= 0.0)


def not_positive_definite(mats: np.ndarray) -> np.ndarray:
    """Mask of the slices of a symmetric stack that ``PDMatrix`` would reject.

    Applies ``PDMatrix``'s rules to every ``(n, n)`` slice of ``mats`` at
    once: a slice fails when it has a non-finite entry, when
    ``lambda_min <= 0`` or when ``lambda_min <= PD_EIG_RTOL * lambda_max``.
    The slices must already be symmetric (the batched branch maps leave them
    so); only their lower triangles are read.  Returns a boolean array of
    shape ``mats.shape[:-2]``.
    """
    mats = np.asarray(mats, dtype=float)
    finite = np.isfinite(mats).all(axis=(-2, -1))
    if not finite.all():
        mats = np.where(finite[..., None, None], mats, np.eye(mats.shape[-1]))
    w = np.linalg.eigvalsh(mats)
    return ~finite | _fails_pd(w[..., 0], w[..., -1])


@dataclass(frozen=True)
class PDMatrix:
    """Validated symmetric positive-definite matrix.

    Construction symmetrizes away floating-point asymmetry up to
    ``SYMMETRY_RTOL`` (relative to the largest entry) and then requires
    ``lambda_min > PD_EIG_RTOL * lambda_max``.  Anything worse fails loudly;
    no silent regularization.  Instances are immutable and safe to share.
    """

    entries: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        arr = _as_square_array(self.entries, "PDMatrix entries")
        scale = 1.0 + np.max(np.abs(arr))
        asym = np.max(np.abs(arr - arr.T))
        if asym > SYMMETRY_RTOL * scale:
            raise NotPositiveDefiniteError(
                f"matrix is not symmetric: max asymmetry {asym:.3e} "
                f"exceeds {SYMMETRY_RTOL * scale:.3e}"
            )
        arr = 0.5 * (arr + arr.T)
        w = np.linalg.eigvalsh(arr)
        if _fails_pd(w[0], w[-1]):
            raise NotPositiveDefiniteError(
                f"matrix is not positive definite: eigenvalue range "
                f"[{w[0]:.3e}, {w[-1]:.3e}]"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)
        object.__setattr__(self, "dim", arr.shape[0])

    @classmethod
    def identity(cls, n: int) -> "PDMatrix":
        return cls(np.eye(n))

    def __array__(self, dtype=None, copy=None):
        if dtype is None and not copy:
            return self.entries
        return np.array(self.entries, dtype=dtype)


@dataclass(frozen=True)
class SymplecticPair:
    """The two 2n x 2n update matrices for the no-measurement / measurement
    branches of the covariance recursion.

    Both members satisfy ``M^T J M = J`` with ``J = [[0, I], [-I, 0]]``,
    which is validated at construction to ``SYMPLECTIC_ATOL`` per entry.
    """

    m0: np.ndarray
    m1: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        m0 = _as_square_array(self.m0, "m0")
        m1 = _as_square_array(self.m1, "m1")
        if m0.shape != m1.shape or m0.shape[0] % 2 != 0:
            raise ValueError(f"expected equal 2n x 2n shapes, got {m0.shape}, {m1.shape}")
        n = m0.shape[0] // 2
        for name, m in (("m0", m0), ("m1", m1)):
            err = np.max(np.abs(m.T @ _j_matrix(n) @ m - _j_matrix(n)))
            if err > SYMPLECTIC_ATOL:
                raise ValueError(
                    f"{name} violates the symplectic identity: max error {err:.3e}"
                )
        m0.setflags(write=False)
        m1.setflags(write=False)
        object.__setattr__(self, "m0", m0)
        object.__setattr__(self, "m1", m1)
        object.__setattr__(self, "dim", n)


def _j_matrix(n: int) -> np.ndarray:
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = np.eye(n)
    j[n:, :n] = -np.eye(n)
    return j


def riemannian_distance(p: PDMatrix | np.ndarray, q: PDMatrix | np.ndarray) -> float:
    """Affine-invariant Riemannian distance between two PD matrices.

    Computed as ``sqrt(sum_i log^2 lambda_i)`` where ``lambda_i`` are the
    generalized eigenvalues of the pair ``(p, q)``.  The spectrum is obtained
    from the Cholesky-whitened symmetric problem rather than by forming
    ``p q^{-1}`` directly, which keeps it real and well conditioned.

    Parameters
    ----------
    p, q : PDMatrix or ndarray
        Matrices of equal dimension.  Raw arrays are accepted for hot paths;
        they must already be symmetric positive definite.

    Returns
    -------
    float
        Nonnegative distance; zero iff ``p == q`` up to round-off.
    """
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


def distances_to(reference: PDMatrix | np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Riemannian distances from a stack of PD matrices to one reference.

    Parameters
    ----------
    reference : PDMatrix or ndarray
        The common reference matrix (n x n).
    mats : ndarray
        Stack of shape (..., n, n); each slice symmetric positive definite.

    Returns
    -------
    ndarray
        Distances with shape ``mats.shape[:-2]``.

    Notes
    -----
    Whitens once with the Cholesky factor of ``reference`` and runs a batched
    symmetric eigensolve, so it is the preferred path for sample sets.
    """
    ref = np.asarray(reference, dtype=float)
    chol = np.linalg.cholesky(ref)
    inv_chol = scipy.linalg.solve_triangular(chol, np.eye(ref.shape[0]), lower=True)
    white = inv_chol @ np.asarray(mats, dtype=float) @ inv_chol.T
    w = np.linalg.eigvalsh(white)
    if np.any(w <= 0.0):
        raise NotPositiveDefiniteError("a sample matrix is not positive definite")
    return np.sqrt(np.sum(np.log(w) ** 2, axis=-1))


def homographic(phi: np.ndarray, p: PDMatrix | np.ndarray) -> PDMatrix:
    """Linear-fractional transform ``(Phi11 P + Phi12)(Phi21 P + Phi22)^{-1}``.

    The output is symmetrized before validation; asymmetry up to the
    ``PDMatrix`` tolerance is expected floating-point noise.  For the
    symplectic update matrices built here the result is guaranteed positive
    definite whenever ``p`` is.

    Raises
    ------
    SingularMatrixError
        If the denominator block is singular.
    NotPositiveDefiniteError
        If the symmetrized result fails PD validation (numerical breakdown).
    """
    phi = np.asarray(phi, dtype=float)
    x = np.asarray(p, dtype=float)
    n = x.shape[0]
    if phi.shape != (2 * n, 2 * n):
        raise ValueError(f"block matrix shape {phi.shape} does not match operand dim {n}")
    num = phi[:n, :n] @ x + phi[:n, n:]
    den = phi[n:, :n] @ x + phi[n:, n:]
    try:
        out = np.linalg.solve(den.T, num.T).T
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"singular denominator block: {exc}") from exc
    return PDMatrix(0.5 * (out + out.T))


def homographic_raw(phi: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Unvalidated homographic transform for hot loops; symmetrizes only."""
    n = x.shape[-1]
    num = phi[:n, :n] @ x + phi[:n, n:]
    den = phi[n:, :n] @ x + phi[n:, n:]
    out = np.linalg.solve(np.swapaxes(den, -1, -2), np.swapaxes(num, -1, -2))
    out = np.swapaxes(out, -1, -2)
    return 0.5 * (out + np.swapaxes(out, -1, -2))


def sym_sqrt(p: PDMatrix | np.ndarray) -> np.ndarray:
    """Unique symmetric PD square root via symmetric eigendecomposition."""
    arr = np.asarray(p, dtype=float)
    w, v = np.linalg.eigh(0.5 * (arr + arr.T))
    if np.any(w <= 0.0):
        raise NotPositiveDefiniteError("square root requires a positive-definite input")
    return (v * np.sqrt(w)) @ v.T


def sym_sqrt_inv(p: PDMatrix | np.ndarray) -> np.ndarray:
    """Symmetric inverse square root, same eigendecomposition route."""
    arr = np.asarray(p, dtype=float)
    w, v = np.linalg.eigh(0.5 * (arr + arr.T))
    if np.any(w <= 0.0):
        raise NotPositiveDefiniteError("inverse square root requires a positive-definite input")
    return (v / np.sqrt(w)) @ v.T


def require_invertible(a: np.ndarray, name: str) -> None:
    """Reject matrices whose condition estimate exceeds ``COND_LIMIT``."""
    arr = np.asarray(a, dtype=float)
    if arr.size == 0:
        return
    cond = np.linalg.cond(arr)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise SingularMatrixError(f"{name} is singular or ill-conditioned (cond ~ {cond:.3e})")


def build_symplectic_pair(a0, g0, a1, g1, h1) -> SymplecticPair:
    """Assemble the paired update matrices from the two plant branches.

    ``m0`` propagates the covariance through the no-measurement branch
    (state transition ``a0``, noise input ``g0``); ``m1`` additionally folds
    in the measurement map ``h1``.  Both ``a0`` and ``a1`` must be invertible
    (condition estimate below ``COND_LIMIT``); the symplectic identity is
    validated at construction.
    """
    a0 = np.asarray(a0, dtype=float)
    a1 = np.asarray(a1, dtype=float)
    g0 = np.atleast_2d(np.asarray(g0, dtype=float))
    g1 = np.atleast_2d(np.asarray(g1, dtype=float))
    h1 = np.atleast_2d(np.asarray(h1, dtype=float))
    require_invertible(a0, "a0")
    require_invertible(a1, "a1")
    n = a0.shape[0]
    a0_inv_t = np.linalg.inv(a0).T
    a1_inv_t = np.linalg.inv(a1).T
    w0 = g0 @ g0.T
    w1 = g1 @ g1.T
    k1 = h1.T @ h1
    m0 = np.block([[a0, w0 @ a0_inv_t], [np.zeros((n, n)), a0_inv_t]])
    m1 = np.block([[a1, w1 @ a1_inv_t], [k1 @ a1, (np.eye(n) + k1 @ w1) @ a1_inv_t]])
    return SymplecticPair(m0, m1)
