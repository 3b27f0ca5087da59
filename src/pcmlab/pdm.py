"""Positive-definite matrices, the Riemannian metric, and homographic maps.

Everything downstream (filter recursions, fixed-point solvers, stationary
approximations) works on the cone of symmetric positive-definite matrices.
This module owns the validated matrix type, the affine-invariant Riemannian
distance, the linear-fractional (homographic) transformation that implements
one covariance update, and the construction of the paired symplectic update
matrices for the dropped/received measurement branches.

The module needs numpy only.  For 2x2 pairs, the size of every bundled
config, :func:`riemannian_distance` reproduces LAPACK's generalized
eigensolver bit for bit: it writes out the ``dsygs2`` reduction (itype 1,
lower) in LAPACK's operation order with exact fused multiply-adds
(:func:`_reduce_2x2`), which numpy does not expose, and passes the whitened
matrix to ``np.linalg.eigvalsh``, which calls ``dsyevd`` as ``dsygvd`` does.
``results/`` and the benchmark reference pin those bits through the distance
ladder.  :func:`distances_to` serves the sampled laws with a plain closed
form instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Relative symmetry slack absorbed at construction; see PDMatrix.
SYMMETRY_RTOL = 1e-10
# Smallest acceptable eigenvalue ratio min/max before construction fails.
PD_EIG_RTOL = 1e-12
# Condition-number ceiling for matrices that must be inverted.
COND_LIMIT = 1e12
# Per-entry absolute tolerance for the symplectic identity M^T J M = J.
SYMPLECTIC_ATOL = 1e-8

# Matrices whitened and solved per pass of distances_to; it bounds the
# temporaries, which would otherwise be several times the input.
_CHUNK = 4096


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


def _j_matrix(n: int) -> np.ndarray:
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = np.eye(n)
    j[n:, :n] = -np.eye(n)
    return j


def _fma(x: float, y: float, z: float) -> float:
    """``x * y + z`` with one rounding: the exact value over integers, then
    Python's correctly rounded integer true division."""
    (a, b), (c, d), (e, f) = x.as_integer_ratio(), y.as_integer_ratio(), z.as_integer_ratio()
    return (a * c * f + e * b * d) / (b * d * f)


def _reduce_2x2(a: np.ndarray, chol: np.ndarray) -> tuple:
    """``inv(L) a inv(L)^T`` for 2x2 ``a``, as LAPACK ``dsygs2`` computes it.

    ``dsygs2`` (itype 1, lower) in its own operation order, with the
    multiply-adds of its BLAS calls fused exactly.  Reads the lower triangle
    of ``a`` and returns the whitened matrix as its entries
    ``(w00, w10, w11)``.
    """
    (a00, _), (a10, a11) = a.tolist()
    (l00, _), (l10, l11) = chol.tolist()
    akk = a00 / (l00 * l00)
    a10 = a10 * (1.0 / l00)
    ct = -0.5 * akk
    a10 = _fma(ct, l10, a10)
    a11 = _fma(-l10, a10, _fma(a10, -l10, a11))
    a10 = _fma(ct, l10, a10)
    a10 = a10 / l11
    a11 = a11 / (l11 * l11)
    return akk, a10, a11


def _whitened_eigvalsh_2x2(chol: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of ``inv(L) mats inv(L)^T`` for a stack of
    symmetric 2x2 ``mats`` (lower triangles read) and a 2x2 Cholesky factor
    ``L``, in closed form: the larger is half the trace plus the hypotenuse
    of half the diagonal gap and the off-diagonal, the smaller is
    ``det(mats) / det(L)**2`` over the larger.  The determinant is read off
    ``mats``, not the whitened entries, where it would cancel, and its
    factors are scaled by ``det(L)`` and the larger eigenvalue first, so
    nothing overflows while the whitened entries are finite."""
    (l00, _), (l10, l11) = chol.tolist()
    p00, p01, p11 = mats[:, 0, 0], mats[:, 1, 0], mats[:, 1, 1]
    w = np.empty(mats.shape[:-1])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        u00 = p00 / l00
        u01 = p01 / l00
        u10 = (p01 - l10 * u00) / l11
        u11 = (p11 - l10 * u01) / l11
        x00 = u00 / l00
        x01 = (u01 - l10 * x00) / l11
        x11 = (u11 - l10 * u10 / l00) / l11
        w[:, 1] = hi = 0.5 * (x00 + x11) + np.hypot(0.5 * (x00 - x11), x01)
        det_l = l00 * l11
        q00, q01, q11 = p00 / det_l, p01 / det_l, p11 / det_l
        w[:, 0] = (q00 / hi) * q11 - (q01 / hi) * q01
    return w


def riemannian_distance(p: PDMatrix | np.ndarray, q: PDMatrix | np.ndarray) -> float:
    """Affine-invariant Riemannian distance between two PD matrices.

    Computed as ``sqrt(sum_i log^2 lambda_i)`` where ``lambda_i`` are the
    generalized eigenvalues of the pair ``(p, q)``.  The spectrum is obtained
    from the Cholesky-whitened symmetric problem ``inv(L) p inv(L)^T``
    (``q = L L^T``) rather than by forming ``p q^{-1}`` directly, which keeps
    it real and well conditioned.

    For n = 2 the whitening is LAPACK ``dsygs2``'s reduction (the one inside
    ``dsygvd``) written out in its operation order, with exact fused
    multiply-adds, and ``np.linalg.eigvalsh`` takes the eigenvalues of its
    lower triangle with ``dsyevd``, the solver ``dsygvd`` calls next.  That
    keeps every distance bit of the generalized eigensolver, which
    ``results/`` and the perfbench reference pin through the distance
    ladder, on FMA-capable kernels.  The exact FMA does not make the result
    independent of the kernel: the Cholesky factor comes from the
    dispatched LAPACK/BLAS, and under ``OPENBLAS_CORETYPE=Nehalem`` (no
    FMA) it, p* and the ladder change in the last digits.  Other sizes are
    the one-matrix case of :func:`distances_to`, with ``q`` as its
    reference.

    Parameters
    ----------
    p, q : PDMatrix or ndarray
        Matrices of equal dimension.  Raw arrays are accepted for hot paths;
        they must already be symmetric positive definite.

    Returns
    -------
    float
        Nonnegative distance; zero iff ``p == q`` up to round-off.

    Raises
    ------
    NotPositiveDefiniteError
        If an input has a non-finite entry or the pair is not positive
        definite.
    """
    a = np.asarray(p, dtype=float)
    b = np.asarray(q, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise NotPositiveDefiniteError("an input to the distance has non-finite entries")
    if a.shape[-1] != 2:
        try:
            return float(distances_to(b, a[None])[0])
        except NotPositiveDefiniteError as exc:
            raise NotPositiveDefiniteError(f"generalized eigenproblem failed: {exc}") from exc
    try:
        white = _reduce_2x2(a, np.linalg.cholesky(b))
        if not all(map(math.isfinite, white)):
            raise ArithmeticError("the whitened matrix has non-finite entries")
        w00, w10, w11 = white
        w = np.linalg.eigvalsh(np.array([[w00, w10], [w10, w11]]))
    except (ArithmeticError, ValueError) as exc:
        # LinAlgError is a ValueError; whitening a pair of extreme scales
        # overflows into an ArithmeticError or a non-finite matrix.
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

    Raises
    ------
    NotPositiveDefiniteError
        If ``reference`` is non-finite or has no Cholesky factor (it is not
        positive definite), if a slice is non-finite, or if a slice's
        whitened eigenvalues are not all finite and positive.

    Notes
    -----
    Works ``_CHUNK`` matrices at a time, so the temporaries stay small
    whatever the stack's size.  2x2 stacks take the closed form of
    :func:`_whitened_eigvalsh_2x2`: within a few units in the last place of
    LAPACK on well-conditioned matrices, and closer to the exact value on
    ill-conditioned ones.  Other sizes whiten with the inverse Cholesky
    factor, as two ``np.matmul`` calls with a contiguous transposed factor
    (the one-expression form's bits at twice its speed), and call
    ``np.linalg.eigvalsh``.
    """
    mats = np.asarray(mats, dtype=float)
    if not np.isfinite(mats).all():
        raise NotPositiveDefiniteError("a sample matrix has non-finite entries")
    ref = np.asarray(reference, dtype=float)
    if not np.isfinite(ref).all():
        raise NotPositiveDefiniteError("the reference matrix has non-finite entries")
    try:
        chol = np.linalg.cholesky(ref)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("the reference matrix is not positive definite") from exc
    if ref.shape[-1] != 2:
        inv_chol = np.linalg.inv(chol)
        inv_chol_t = np.ascontiguousarray(inv_chol.T)
    flat = mats.reshape((-1,) + mats.shape[-2:])
    out = np.empty(flat.shape[0])
    for lo in range(0, flat.shape[0], _CHUNK):
        chunk = flat[lo : lo + _CHUNK]
        if ref.shape[-1] == 2:
            w = _whitened_eigvalsh_2x2(chol, chunk)
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                white = np.matmul(np.matmul(inv_chol, chunk), inv_chol_t)
            try:
                w = np.linalg.eigvalsh(white)
            except np.linalg.LinAlgError as exc:  # an overflowed whitening
                raise NotPositiveDefiniteError(f"a sample matrix failed to whiten: {exc}") from exc
        if not ((w > 0.0) & (w < np.inf)).all():
            raise NotPositiveDefiniteError("a sample matrix is not positive definite")
        out[lo : lo + _CHUNK] = np.sqrt(np.sum(np.log(w) ** 2, axis=-1))
    return out.reshape(mats.shape[:-2])


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
