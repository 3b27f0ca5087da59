import numpy as np
import pytest

from pcmlab import (
    ChannelParams,
    ExperimentConfig,
    NominalPlant,
    PDMatrix,
    build_modified_plant,
    prepare,
)
from pcmlab.plant import _advance

# Reference two-state plant used throughout: unstable upper-triangular
# transition, identity noise input, scalar difference measurement, one
# rank-one sensitivity direction, trade-off weight 0.8.
REF_A = [[1.1234, 0.0196], [0.0, 0.9802]]
REF_Q = [[1.9608, 0.0195], [0.0195, 1.9605]]
REF_DA = [[0.0, 0.099], [0.0, 0.0]]

# Published reference values reproduced by the acceptance suite.
REF_P_STAR = np.array([[21.3283, 20.2784], [20.2784, 20.0754]])
REF_LADDER = np.array([0.81725, 1.1519, 1.3900, 1.5855, 1.7572, 1.9136])


def make_reference_plant(mu: float = 0.8) -> NominalPlant:
    return NominalPlant(
        a=REF_A,
        b=np.eye(2),
        c=[[1.0, -1.0]],
        q=PDMatrix(REF_Q),
        r=PDMatrix([[1.0]]),
        da=(np.array(REF_DA),),
        db=(np.zeros((2, 2)),),
        dc=(np.zeros((1, 2)),),
        mu=mu,
    )


def random_pd(rng: np.random.Generator, n: int, spread: float = 1.0) -> np.ndarray:
    """Random PD matrix with log-spread eigenvalues (well-conditioned)."""
    a = rng.standard_normal((n, n))
    q, _ = np.linalg.qr(a)
    eigs = np.exp(rng.uniform(-spread, spread, size=n))
    return (q * eigs) @ q.T


def random_plant(rng: np.random.Generator, n: int = 2, m: int = 2, p: int = 1, n_err: int = 1):
    """Random well-posed nominal plant (invertible transition)."""
    while True:
        a = rng.standard_normal((n, n)) + 1.5 * np.eye(n)
        if abs(np.linalg.det(a)) > 0.1:
            break
    return NominalPlant(
        a=a,
        b=rng.standard_normal((n, m)),
        c=rng.standard_normal((p, n)),
        q=PDMatrix(random_pd(rng, m)),
        r=PDMatrix(random_pd(rng, p)),
        da=tuple(0.3 * rng.standard_normal((n, n)) for _ in range(n_err)),
        db=tuple(0.3 * rng.standard_normal((n, m)) for _ in range(n_err)),
        dc=tuple(0.3 * rng.standard_normal((p, n)) for _ in range(n_err)),
        mu=float(rng.uniform(0.5, 1.0)),
    )


def negate_first_at_call(call):
    """Branch kernel that negates the first arrival child of its ``call``-th
    level with arrivals (depth ``call`` of the expansion), whose word with
    no pruning is ``"0" * call + "1"``."""
    real = _advance
    count = [0]

    def kernel(blocks, p, words, out=None):
        real(blocks, p, words, out)
        arrivals = np.flatnonzero(words[:, 0])
        if arrivals.size:
            count[0] += 1
            if count[0] == call:
                p[arrivals[0]] = -p[arrivals[0]]

    return kernel


@pytest.fixture(scope="session")
def ref_plant():
    return make_reference_plant()


@pytest.fixture(scope="session")
def ref_mp(ref_plant):
    return build_modified_plant(ref_plant)


@pytest.fixture(scope="session")
def ref_cfg(ref_plant):
    return ExperimentConfig(
        plant=ref_plant,
        channel=ChannelParams(0.95, 0.05),
        trials=5_000,
        horizon=400,
        ergodic_length=20_000,
        master_seed=20260809,
    )


@pytest.fixture(scope="session")
def ref_prep(ref_cfg):
    return prepare(ref_cfg)
