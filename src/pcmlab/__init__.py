"""Stationary-distribution toolkit for a sensitivity-penalized robust filter
driven by a two-state Markov measurement-arrival channel.

Layers, bottom up: validated positive-definite matrices with the
affine-invariant metric and homographic covariance maps (:mod:`.pdm`); the
nominal/modified plant construction (:mod:`.plant`); the estimator recursion
(:mod:`.estimator`); the arrival channel (:mod:`.channel`); fixed-point and
contraction diagnostics (:mod:`.riccati`); atomic approximations of the
stationary covariance law (:mod:`.stationary`); the Monte-Carlo table
protocol (:mod:`.experiments`); and the ``pcmlab`` CLI (:mod:`.cli`).
"""

__version__ = "0.1.0"

from .channel import ChannelParams, RecurrenceStats, recurrence_stats, sample_chain, stationary_probability
from .estimator import EstimatorState, PcmTrajectory, pcm_step, pcm_trajectory, filter_step
from .experiments import (
    ClusterTable,
    ExperimentConfig,
    Histogram,
    cluster_probabilities,
    compare_table,
    prepare,
    rate_study,
    run_empirical,
    run_ergodic,
)
from .pdm import (
    NotPositiveDefiniteError,
    PDMatrix,
    SingularMatrixError,
    SymplecticPair,
    build_symplectic_pair,
    homographic,
    riemannian_distance,
    sym_sqrt,
)
from .plant import ModifiedPlant, NominalPlant, StructureReport, build_modified_plant, check_structure, sensitivity_matrices
from .riccati import (
    ContractionEstimate,
    RiccatiSolution,
    estimate_contraction,
    orbit_distances,
    solve_dare,
    solve_lyapunov,
)
from .stationary import (
    Atom,
    AtomicDistribution,
    enumerate_reachable,
    enumeration_distribution,
    enumeration_weight,
    delta_distribution,
)

__all__ = [
    "__version__",
    "Atom",
    "AtomicDistribution",
    "ChannelParams",
    "ClusterTable",
    "ContractionEstimate",
    "EstimatorState",
    "ExperimentConfig",
    "Histogram",
    "ModifiedPlant",
    "NominalPlant",
    "NotPositiveDefiniteError",
    "PDMatrix",
    "PcmTrajectory",
    "RecurrenceStats",
    "RiccatiSolution",
    "SingularMatrixError",
    "StructureReport",
    "SymplecticPair",
    "build_modified_plant",
    "build_symplectic_pair",
    "check_structure",
    "cluster_probabilities",
    "compare_table",
    "enumerate_reachable",
    "estimate_contraction",
    "homographic",
    "orbit_distances",
    "pcm_step",
    "pcm_trajectory",
    "prepare",
    "rate_study",
    "recurrence_stats",
    "riemannian_distance",
    "filter_step",
    "run_empirical",
    "run_ergodic",
    "sample_chain",
    "sensitivity_matrices",
    "solve_dare",
    "solve_lyapunov",
    "stationary_probability",
    "sym_sqrt",
    "enumeration_distribution",
    "enumeration_weight",
    "delta_distribution",
]
