"""Nominal plant description and construction of the modified plant.

The robust filter penalizes the sensitivity of the innovation process to
parametric model errors.  All of that machinery collapses into an equivalent
"modified plant": a transition/noise pair for the dropped-measurement branch
and a transition/noise/output triple for the received-measurement branch.
This module computes the sensitivity stacks, every named intermediate, and
the final branch matrices, and runs the structural (controllability /
observability) checks the convergence theory requires.  It also holds the
batched branch-map kernel, :func:`_advance`, the one routine that applies
the two branch maps to stacks of PCMs: the empirical trials, the ergodic
segment grid and the reachable-set enumeration all step through it.  Its
one-matrix companion, :func:`_walk`, moves a single PCM along one word and
returns the path: a 2x2 PCM in Python floats through the same closed-form
maps, anything else through ``_advance`` on a one-row stack.
:func:`_walk_pieces` yields the same path a few thousand states at a time,
so a caller can measure each piece and drop it, or stop.  They serve the
shorter ergodic paths, the grid rows of the longer ones that fail their
seam check (where the walk stops as soon as it meets a known path) and the
search for the first failing step of a broken-down empirical trial or
ergodic run (which stops at the piece that holds it), where a numpy call
per step would cost far more than the arithmetic.

The kernel holds one state per matrix size.  For ``n = 2`` it is the three
contiguous entry planes ``p00, p01, p11`` of the symmetric stack, and the
maps are evaluated in closed form, elementwise over the stack
(``_gamma0_planes`` / ``_gamma1_planes``, the inverse in the measurement map
through the 2x2 adjugate and determinant).  Every bundled config and the
acceptance gate use 2x2 plants, and on a stack of 5000 such matrices the
batched LAPACK route takes 8 (open-loop) to 17 (measurement) times as long.
Any other ``n`` holds the stack itself and goes through batched matrix
products and LAPACK solves (``_gamma0_stack`` / ``_gamma1_stack``).

Each step applies one column of arrival symbols.  A column of only arrivals
or only drops runs its one map.  A column that mixes them runs the map most
of its rows select on the whole stack, and the other map only on the rows
that select it: their indices (``np.flatnonzero``) gather those rows of
each plane (``take``), and the results are scattered back by the same
indices.  On the desk tables every column mixes, and the minority is 5-22%
of the rows, so a step costs about one map instead of two.  The majority
map may overflow or divide by zero on a minority row; its value there is
overwritten, and the kernel silences the warning.

Finite and infinite results do not depend on the stack around a row, nor
on the call path (planes, Python floats, a gathered subset).  The sign and
payload of a NaN may: when both operands of an operation are NaN, which one
is returned depends on the loop numpy picks for the array's length and on
whether it works in place.  No output reads those bits: a NaN anywhere in a
path or a trial fails its distances and the run names the first step that
breaks the ``PDMatrix`` rules, which is the same on every path.
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
        all three tuples have one length, the number of error components
        (possibly zero).
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
        for name, nominal in (("da", a), ("db", b), ("dc", c)):
            derivs = tuple(np.atleast_2d(np.asarray(d, dtype=float)) for d in getattr(self, name))
            object.__setattr__(self, name, derivs)
            if len(derivs) != len(self.da):
                raise ValueError(
                    f"{name} has {len(derivs)} matrices; da, db, dc must have equal length"
                )
            for i, d in enumerate(derivs):
                if d.shape != nominal.shape:
                    raise ValueError(f"{name}[{i}] has shape {d.shape}; as a derivative "
                                     f"of {name[1]} it needs {nominal.shape}")
        a.setflags(write=False)
        b.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

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
    def lam(self) -> float:
        """Sensitivity penalization weight (1 - mu) / mu."""
        return (1.0 - self.mu) / self.mu


@dataclass(frozen=True)
class ModifiedPlant:
    """Branch matrices of the equivalent filtering problem plus intermediates.

    ``a0, g0`` drive the no-measurement branch; ``a1, g1, h1`` the
    measurement branch.  The intermediates ``a_check``, ``q_check``,
    ``b_tilde``, ``q_tilde``, ``c_tilde`` and ``r_tilde`` are retained for
    :func:`pcmlab.estimator.pcm_update_compact_form` and the tests, which
    recompute the derivation both ways.  ``sym`` carries the validated
    symplectic update pair.
    """

    a0: np.ndarray
    g0: np.ndarray
    a1: np.ndarray
    g1: np.ndarray
    h1: np.ndarray
    lam: float
    a_check: np.ndarray
    q_check: np.ndarray
    b_tilde: np.ndarray
    q_tilde: np.ndarray
    c_tilde: np.ndarray
    r_tilde: np.ndarray
    sym: SymplecticPair

    @property
    def n(self) -> int:
        return self.a0.shape[0]


def _times_2x2(a00, a01, a10, a11, p00, p01, p11):
    """Entries of ``a p`` for symmetric 2x2 ``p`` given by its entry planes."""
    r00 = a00 * p00
    r00 += a01 * p01
    r01 = a00 * p01
    r01 += a01 * p11
    r10 = a10 * p00
    r10 += a11 * p01
    r11 = a10 * p01
    r11 += a11 * p11
    return r00, r01, r10, r11


def _coefficients(*mats) -> tuple:
    """The entries of the 2x2 ``mats``, row by row, as Python floats."""
    return tuple(x for mat in mats for x in mat.ravel().tolist())


def _planes(p: np.ndarray) -> tuple:
    """The entry planes ``(p00, p01, p11)`` of a symmetric 2x2 stack (views)."""
    return p[..., 0, 0], p[..., 0, 1], p[..., 1, 1]


def _set_planes(out: np.ndarray, x00, x01, x11) -> np.ndarray:
    """Write the entry planes into the 2x2 stack ``out``, ``x01`` to both
    triangles; returns ``out``."""
    out[..., 0, 0] = x00
    out[..., 0, 1] = x01
    out[..., 1, 0] = x01
    out[..., 1, 1] = x11
    return out


# The 2x2 formulas, in the same operation order, are those of the plain-float
# recursion in perfbench/run.py (``rate_oracle``).  On entry planes every
# scalar operation is one numpy call over the whole stack; on Python floats
# (``_walk``) the same ``+ - * /`` round the same way.  Each entry is built
# by augmented assignment: a Python float is rebound, a plane is updated in
# place, so the planes allocate about one array per entry rather than one
# per operation.  Every step keeps the operand order of the formula in the
# docstring (``x = a * b; x += c`` is ``a * b + c``), up to the swap of a
# constant and an expression, which rounds the same.


def _gamma0_planes(coef: tuple, p00, p01, p11) -> tuple:
    """Open-loop map on entry planes; ``coef`` is ``_coefficients(a0, w0)``.

    Returns ``(r00 a00 + r01 a01 + w00,
    0.5 ((r00 a10 + r01 a11) + (r10 a00 + r11 a01)) + w01,
    r10 a10 + r11 a11 + w11)`` with ``r = a0 p``.
    """
    a00, a01, a10, a11, w00, w01, _, w11 = coef
    r00, r01, r10, r11 = _times_2x2(a00, a01, a10, a11, p00, p01, p11)
    x00 = r00 * a00
    x00 += r01 * a01
    x00 += w00
    x01 = r00 * a10
    x01 += r01 * a11
    y01 = r10 * a00
    y01 += r11 * a01
    x01 += y01
    x01 *= 0.5
    x01 += w01
    x11 = r10 * a10
    x11 += r11 * a11
    x11 += w11
    return x00, x01, x11


def _gamma1_planes(coef: tuple, p00, p01, p11) -> tuple:
    """Measurement map on entry planes; ``coef`` is ``_coefficients(a1, w1, k1)``.

    The inverse is ``adj(m) / det(m)`` with ``m = I + k1 z``, and the two
    off-diagonal entries of the product are averaged into one: with
    ``z = a1 p a1' + w1`` (entries as in :func:`_gamma0_planes`) and
    ``det = m00 m11 - m01 m10``, it returns ``((z00 m11 - z01 m10) / det,
    0.5 ((-z00 m01 + z01 m00) + (z01 m11 - z11 m10)) / det,
    (-z01 m01 + z11 m00) / det)``.
    """
    a00, a01, a10, a11, w00, w01, _, w11, k00, k01, k10, k11 = coef
    r00, r01, r10, r11 = _times_2x2(a00, a01, a10, a11, p00, p01, p11)
    z00 = r00 * a00
    z00 += r01 * a01
    z00 += w00
    z01 = r00 * a10
    z01 += r01 * a11
    z01 += w01
    z11 = r10 * a10
    z11 += r11 * a11
    z11 += w11
    m00 = k00 * z00
    m00 += 1.0
    m00 += k01 * z01
    m01 = k00 * z01
    m01 += k01 * z11
    m10 = k10 * z00
    m10 += k11 * z01
    m11 = k10 * z01
    m11 += 1.0
    m11 += k11 * z11
    det = m00 * m11
    det -= m01 * m10
    x00 = z00 * m11
    x00 -= z01 * m10
    x00 /= det
    x01 = -z00
    x01 *= m01
    x01 += z01 * m00
    y01 = z01 * m11
    y01 -= z11 * m10
    x01 += y01
    x01 *= 0.5
    x01 /= det
    x11 = -z01
    x11 *= m01
    x11 += z11 * m00
    x11 /= det
    return x00, x01, x11


def _gamma0_stack(coef: tuple, p: np.ndarray) -> tuple:
    """Open-loop map ``a0 p a0' + w0`` of an ``n x n`` stack, symmetrized,
    as a 1-tuple; ``coef`` is ``(a0, w0)``."""
    a0, w0 = coef
    out = a0 @ p @ a0.T + w0
    return (0.5 * (out + np.swapaxes(out, -1, -2)),)


def _gamma1_stack(coef: tuple, p: np.ndarray) -> tuple:
    """Measurement map ``z (I + k1 z)^{-1}`` of an ``n x n`` stack, with
    ``z`` the predicted matrix, symmetrized, as a 1-tuple; ``coef`` is
    ``(a1, w1, k1)``.  For a valid PCM ``z`` the solve cannot fail:
    ``k1 = h1' h1`` is positive semi-definite, so ``I + k1 z`` is
    nonsingular."""
    a1, w1, k1 = coef
    z = a1 @ p @ a1.T + w1
    lhs = np.eye(a1.shape[0]) + k1 @ z
    out = np.linalg.solve(np.swapaxes(lhs, -1, -2), np.swapaxes(z, -1, -2))
    out = np.swapaxes(out, -1, -2)
    return (0.5 * (out + np.swapaxes(out, -1, -2)),)


def _branch_blocks(mp: ModifiedPlant):
    return (
        mp.a0,
        mp.g0 @ mp.g0.T,
        mp.a1,
        mp.g1 @ mp.g1.T,
        mp.h1.T @ mp.h1,
    )


def _advance(blocks, p: np.ndarray, words: np.ndarray, out: np.ndarray | None = None) -> None:
    """Move each PCM of the stack ``p`` in place over its own row of
    ``words``, one column per step: the measurement map where the column is
    nonzero, the open-loop map elsewhere.  ``out[:, k]``, when given,
    receives the stack after column ``k``.  ``blocks`` is
    ``_branch_blocks(mp)``.

    The loop holds a 2x2 stack as its three contiguous entry planes and
    writes it back once; any other size is held as the stack itself.  A
    column that mixes arrivals and drops applies the map most of its rows
    select to the whole stack, and the other map only to the rows that
    select it, gathered by index; their results are scattered back over the
    first.  Each entry's value depends on that entry alone, so a row gets
    the bits of its own map however the stack is cut (up to the sign and
    payload of a NaN; see the module docstring).  The majority map
    may overflow or divide by zero on a minority row whose value is then
    overwritten, so floating-point errors are ignored here; a breakdown of
    a selected value passes through as inf or NaN for the caller to find.
    """
    a0, w0, a1, w1, k1 = blocks
    if p.shape[-1] == 2:
        gamma0, gamma1, store = _gamma0_planes, _gamma1_planes, _set_planes
        coef0, coef1 = _coefficients(a0, w0), _coefficients(a1, w1, k1)
        state = tuple(np.ascontiguousarray(x) for x in _planes(p))
    else:
        gamma0, gamma1, store = _gamma0_stack, _gamma1_stack, np.copyto
        coef0, coef1 = (a0, w0), (a1, w1, k1)
        state = (p,)
    rows = words.shape[0]
    with np.errstate(all="ignore"):
        for k in range(words.shape[1]):
            column = words[:, k]
            arrivals = np.count_nonzero(column)
            if arrivals == rows:
                state = gamma1(coef1, *state)
            elif arrivals == 0:
                state = gamma0(coef0, *state)
            else:
                if 2 * arrivals > rows:
                    picked = np.flatnonzero(column == 0)
                    minority = gamma0(coef0, *(x.take(picked, axis=0) for x in state))
                    state = gamma1(coef1, *state)
                else:
                    picked = np.flatnonzero(column)
                    minority = gamma1(coef1, *(x.take(picked, axis=0) for x in state))
                    state = gamma0(coef0, *state)
                for x, y in zip(state, minority):
                    x[picked] = y
            if out is not None:
                store(out[:, k], *state)
    store(p, *state)


def _walk(blocks, p: np.ndarray, bits: np.ndarray, known: np.ndarray | None = None) -> np.ndarray:
    """The path of the one PCM ``p`` over the arrival bits ``bits``: an
    array of shape ``(len(bits) + 1, n, n)`` with ``path[0] = p`` and
    ``path[k]`` the branch map of ``bits[k - 1]`` applied to
    ``path[k - 1]``.  ``blocks`` is ``_branch_blocks(mp)``.

    ``known``, when given, is a stack of states: the path over the same
    bits from some other start, ``known[k - 1]`` after step ``k``, for the
    first ``len(known)`` steps at most.  The walk then stops after the first
    step ``k`` whose state equals ``known[k - 1]`` bit for bit and returns
    ``path[: k + 1]``.  The maps are deterministic functions of their input
    bits, so from that step on the other start's path is the exact one.  A
    walk that does not meet ``known`` returns the whole path.

    The one piece of :func:`_walk_pieces` as long as the word.
    """
    return next(_walk_pieces(blocks, p, bits, bits.size, known))


def _walk_pieces(blocks, p: np.ndarray, bits: np.ndarray, size: int,
                 known: np.ndarray | None = None):
    """Yield the path of :func:`_walk` in consecutive pieces of at most
    ``size + 1`` states, each starting with the last state of the piece
    before it (``p`` for the first): a word of no bits yields ``p`` alone.
    Each piece is a view of one buffer that the next piece overwrites.
    ``known`` stops the walk as in :func:`_walk`; the piece holding the
    matching state is then the last.

    A 2x2 PCM is walked in Python floats through ``_gamma0_planes`` /
    ``_gamma1_planes``, which use only ``+ - * /`` and so give the bits of
    the numpy planes; each step is written straight into the buffer.  For
    one matrix a step then costs about as much as two numpy calls, where the
    plane maps make 29 (open loop) or 60 (measurement).  Any other size,
    and the rest of a word after a step whose determinant is exactly 0.0
    (Python raises where numpy gives inf or NaN), step through ``_advance``
    on a one-row stack, in every later piece too.
    """
    n = p.shape[-1]
    buf = np.empty((min(size, bits.size) + 1, n, n))
    buf[0] = p
    matched = 0 if known is None else len(known)
    floats = n == 2
    if floats:
        a0, w0, a1, w1, k1 = blocks
        coef0, coef1 = _coefficients(a0, w0), _coefficients(a1, w1, k1)
        flat = memoryview(buf.reshape(-1))
        # The same entries as integers, so that a match is a match of bits.
        got = memoryview(buf.reshape(-1).view(np.uint64))
        want = None if known is None else memoryview(known.reshape(-1).view(np.uint64))
        x00, x01, x11 = p[0, 0].item(), p[0, 1].item(), p[1, 1].item()
    first = 0  # steps taken before the current piece
    while True:
        stop = min(first + size, bits.size)
        k = 0  # steps taken in the current piece
        limit = matched - first  # steps of the current piece that known covers
        if floats:
            for bit in bits[first:stop].tolist():
                try:
                    if bit:
                        x00, x01, x11 = _gamma1_planes(coef1, x00, x01, x11)
                    else:
                        x00, x01, x11 = _gamma0_planes(coef0, x00, x01, x11)
                except ZeroDivisionError:
                    floats = False
                    break
                k += 1
                i = 4 * k
                flat[i] = x00
                flat[i + 1] = x01
                flat[i + 2] = x01
                flat[i + 3] = x11
                if k <= limit:
                    j = i + 4 * (first - 1)
                    if got[i] == want[j] and got[i : i + 4] == want[j : j + 4]:
                        yield buf[: k + 1]
                        return
        while first + k < stop:
            state = buf[k : k + 1].copy()
            _advance(blocks, state, bits[None, first + k : first + k + 1])
            k += 1
            buf[k] = state[0]
            if k <= limit and buf[k].tobytes() == known[first + k - 1].tobytes():
                yield buf[: k + 1]
                return
        yield buf[: k + 1]
        first = stop
        if first == bits.size:
            return
        buf[0] = buf[k]


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
    (to the noise stack), evaluated at zero error.  With ``k`` error
    components the stacks have ``2 * p * k`` rows; with none they are
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
        a_check=a_check,
        q_check=q_check,
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
