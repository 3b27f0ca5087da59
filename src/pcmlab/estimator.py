"""The robust recursive estimator: state update and covariance recursion.

The covariance-like matrix (the "PCM") evolves by one of two maps depending
on whether the measurement arrived.  Two numeric paths evaluate those maps:

- the validated homographic form (:func:`pcmlab.pdm.homographic`) serves
  the single-matrix jobs: this module's recursion, the fixed-point solver
  and the open-loop orbit behind the distance ladder
  (:mod:`pcmlab.riccati`), and the delta lumping;
- the closed-form branch maps of :mod:`pcmlab.plant` serve the Monte-Carlo
  and enumeration jobs.  The batched kernel ``_advance`` steps the stacks:
  the empirical trials and the ergodic segment grid of
  :mod:`pcmlab.experiments` and the reachable-set enumeration of
  :mod:`pcmlab.stationary`; on a column that mixes arrivals and drops it
  runs each map only on the rows that select it.  Its one-matrix companion
  ``_walk`` (piece by piece, ``_walk_pieces``) evaluates the same maps in
  Python floats, with the same bits, for the 2x2 ergodic paths of at most
  100k steps or with few arrivals (under heavy loss), the rows of the
  segment grid that fail their seam check and the search for the first
  failing step of a broken-down empirical trial or ergodic run.

The two paths agree to about 5e-15 per step but not bit for bit, so neither
replaces the other silently.  That figure holds for PCMs at the scale of
the fixed point: along 20k-step ergodic paths of the three desk configs the
2x2 closed form differs from the homographic form by at most 4.8e-15
relative to the largest entry.  The gap grows with the PCM's scale, as the
conditioning of the measurement map does, for the LAPACK form as well:
5e-14 at the empirical start ``1000 * I`` and about 5e-11 at the 1e10
scales that heavy-loss drop runs reach.  The committed ``results/`` tables
and the benchmark's reference pin the bits of the fixed point and the
ladder.  The two direct algebraic forms below are the acceptance gate's
independent cross-checks of the homographic path.  The PCM law does not
depend on the measured data, only on the arrival word, which is what every
stationary-distribution computation downstream exploits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pdm import PDMatrix, homographic, sym_sqrt
from .plant import ModifiedPlant, NominalPlant, sensitivity_matrices
from .rng import stream_rng


@dataclass(frozen=True)
class EstimatorState:
    """Filter state: estimate vector, PCM, and time index."""

    x_hat: np.ndarray
    p: PDMatrix
    k: int = 0

    def __post_init__(self):
        x = np.asarray(self.x_hat, dtype=float).reshape(-1)
        if x.shape[0] != self.p.dim:
            raise ValueError(f"x_hat has length {x.shape[0]}, PCM dim {self.p.dim}")
        x.setflags(write=False)
        object.__setattr__(self, "x_hat", x)


def pcm_step(mp: ModifiedPlant, p: PDMatrix, gamma: int) -> PDMatrix:
    """One PCM update through the homographic form of the recursion."""
    if gamma not in (0, 1):
        raise ValueError(f"gamma must be 0 or 1, got {gamma}")
    phi = mp.sym.m1 if gamma else mp.sym.m0
    return homographic(phi, p)


def pcm_update_compact_form(mp: ModifiedPlant, p: PDMatrix | np.ndarray) -> np.ndarray:
    """Measurement-branch update in the compact modified-plant form.

    ``[(a1 P a1' + b q_tilde b')^{-1} + c_tilde' r_tilde^{-1} c_tilde]^{-1}``
    evaluated with explicit solves.  Test oracle for :func:`pcm_step`.
    """
    x = np.asarray(p, dtype=float)
    b = mp.a_check @ mp.b_tilde  # b_tilde = a_check^{-1} b
    pred = mp.a1 @ x @ mp.a1.T + b @ mp.q_tilde @ b.T
    info = np.linalg.inv(pred) + mp.c_tilde.T @ np.linalg.solve(mp.r_tilde, mp.c_tilde)
    out = np.linalg.inv(info)
    return 0.5 * (out + out.T)


def hat_quantities(
    plant: NominalPlant, p: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Penalized intermediates (p_hat, q_hat, b_hat, a_hat) at PCM ``p``.

    ``q_hat`` uses the scaled-innovation whitener ``(I + lam s p s')^{-1}``
    inside the noise shaping; by the matrix inversion lemma this equals
    ``I - lam s p_hat s'``, which ties it to ``p_hat`` and makes the
    covariance path below algebraically identical to the compact form.
    """
    lam = plant.lam
    s, t = sensitivity_matrices(plant)
    n_s = s.shape[0]
    if n_s == 0 or lam == 0.0:
        return p.copy(), plant.q.entries.copy(), plant.b.copy(), plant.a.copy()
    p_hat = np.linalg.inv(np.linalg.inv(p) + lam * s.T @ s)
    p_hat = 0.5 * (p_hat + p_hat.T)
    whitened = np.linalg.solve(np.eye(n_s) + lam * s @ p @ s.T, t)
    q_hat = np.linalg.inv(np.linalg.inv(plant.q.entries) + lam * t.T @ whitened)
    q_hat = 0.5 * (q_hat + q_hat.T)
    b_hat = plant.b - lam * plant.a @ p_hat @ s.T @ t
    a_hat = (plant.a - b_hat @ q_hat @ t.T @ s) @ (np.eye(plant.n) - lam * p_hat @ s.T @ s)
    return p_hat, q_hat, b_hat, a_hat


def pcm_update_hat_form(plant: NominalPlant, p: PDMatrix | np.ndarray) -> np.ndarray:
    """Measurement-branch update through the penalized hat quantities.

    Independent of the modified-plant construction; test oracle for the
    compact and homographic paths.
    """
    x = np.asarray(p, dtype=float)
    p_hat, q_hat, b_hat, _ = hat_quantities(plant, x)
    pred = plant.a @ p_hat @ plant.a.T + b_hat @ q_hat @ b_hat.T
    info = np.linalg.inv(pred) + plant.c.T @ np.linalg.solve(plant.r.entries, plant.c)
    out = np.linalg.inv(info)
    return 0.5 * (out + out.T)


def filter_step(
    mp: ModifiedPlant,
    plant: NominalPlant,
    st: EstimatorState,
    y,
    gamma: int,
) -> EstimatorState:
    """One full estimator step (state estimate and PCM).

    With no arrival the estimate propagates through the nominal transition
    and the PCM through the open-loop branch.  With an arrival the PCM
    updates first (homographic path) and the estimate uses the penalized
    mean map ``a_hat`` plus the innovation gain ``P+ c' r^{-1}``.

    Parameters
    ----------
    y : array_like or None
        Received measurement; must be present iff ``gamma == 1``.
    """
    if gamma not in (0, 1):
        raise ValueError(f"gamma must be 0 or 1, got {gamma}")
    if gamma == 1 and y is None:
        raise ValueError("gamma = 1 requires a measurement")
    if gamma == 0 and y is not None:
        raise ValueError("gamma = 0 must not carry a measurement")

    p_next = pcm_step(mp, st.p, gamma)
    if gamma == 0:
        x_next = plant.a @ st.x_hat
    else:
        _, _, _, a_hat = hat_quantities(plant, st.p.entries)
        y = np.asarray(y, dtype=float).reshape(-1)
        predicted = a_hat @ st.x_hat
        innovation = y - plant.c @ predicted
        gain_term = p_next.entries @ plant.c.T @ np.linalg.solve(plant.r.entries, innovation)
        x_next = predicted + gain_term
    return EstimatorState(x_hat=x_next, p=p_next, k=st.k + 1)


def simulate_trajectory(
    plant: NominalPlant,
    mp: ModifiedPlant,
    word,
    x0,
    p0: PDMatrix,
    seed: int,
    stream: int = 0,
):
    """Synthetic closed-loop run: true states, measurements, estimates, PCMs.

    Demo-only driver: Gaussian process/measurement noise with the configured
    covariances, nominal (zero-error) dynamics.  The PCM path it produces is
    identical to iterating :func:`pcm_step` along the same word, since the PCM
    never looks at the data.

    Returns
    -------
    dict with keys ``states``, ``measurements`` (NaN where dropped),
    ``estimates``, ``pcms``.
    """
    word = np.asarray(word, dtype=np.uint8).ravel()
    rng = stream_rng(seed, stream)
    q_half = sym_sqrt(plant.q.entries)
    r_half = sym_sqrt(plant.r.entries)

    x_true = np.asarray(x0, dtype=float).reshape(-1)
    st = EstimatorState(x_hat=np.zeros(plant.n), p=p0, k=0)
    states = [x_true]
    estimates = [st.x_hat]
    measurements = []
    pcms = [p0]
    for gamma in word:
        w = q_half @ rng.standard_normal(plant.m)
        x_true = plant.a @ x_true + plant.b @ w
        states.append(x_true)
        if gamma:
            v = r_half @ rng.standard_normal(plant.p)
            y = plant.c @ x_true + v
            measurements.append(y)
            st = filter_step(mp, plant, st, y, 1)
        else:
            measurements.append(np.full(plant.p, np.nan))
            st = filter_step(mp, plant, st, None, 0)
        estimates.append(st.x_hat)
        pcms.append(st.p)
    return {
        "states": np.array(states),
        "measurements": np.array(measurements),
        "estimates": np.array(estimates),
        "pcms": tuple(pcms),
    }
