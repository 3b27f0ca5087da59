"""Stationary-distribution toolkit for a sensitivity-penalized robust filter
driven by a two-state Markov measurement-arrival channel.

Layers, bottom up: validated positive-definite matrices with the
affine-invariant metric and homographic covariance maps (:mod:`.pdm`); the
nominal/modified plant construction (:mod:`.plant`); the estimator recursion
(:mod:`.estimator`); the arrival channel (:mod:`.channel`); the fixed point
and its open-loop distance ladder (:mod:`.riccati`); atomic approximations
of the stationary covariance law (:mod:`.stationary`); the Monte-Carlo table
protocol (:mod:`.experiments`); and the ``pcmlab`` CLI (:mod:`.cli`).

The package namespace exports only the core names below; everything else is
imported from its submodule.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each export resolves on first use, so ``import pcmlab`` imports neither
# numpy nor any submodule; the CLI relies on that to set up numpy's
# environment before numpy loads.
_EXPORTS = {
    "ChannelParams": "channel",
    "ExperimentConfig": "experiments",
    "NominalPlant": "plant",
    "PDMatrix": "pdm",
    "build_modified_plant": "plant",
    "delta_distribution": "stationary",
    "enumerate_reachable": "stationary",
    "pcm_step": "estimator",
    "prepare": "experiments",
    "riemannian_distance": "pdm",
    "solve_dare": "riccati",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
