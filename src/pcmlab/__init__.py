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

__version__ = "0.1.0"

from .channel import ChannelParams
from .estimator import pcm_step
from .experiments import ExperimentConfig, prepare
from .pdm import PDMatrix, riemannian_distance
from .plant import NominalPlant, build_modified_plant
from .riccati import solve_dare
from .stationary import delta_distribution, enumerate_reachable

__all__ = [
    "__version__",
    "ChannelParams",
    "ExperimentConfig",
    "NominalPlant",
    "PDMatrix",
    "build_modified_plant",
    "delta_distribution",
    "enumerate_reachable",
    "pcm_step",
    "prepare",
    "riemannian_distance",
    "solve_dare",
]
