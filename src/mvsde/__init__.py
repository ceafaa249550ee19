"""Constrained delay SDE simulation with mean-field interaction.

The pieces compose bottom-up: set-valued monotone operators and their
resolvents (:mod:`mvsde.monotone`), time grids and history windows
(:mod:`mvsde.segments`), coefficient catalogues with smoothing
and truncation (:mod:`mvsde.coefficients`), the constrained Euler
scheme plus fixed-point iteration (:mod:`mvsde.solver`), empirical laws
and distribution iteration (:mod:`mvsde.meanfield`), and the named
experiments behind the ``mvsde`` command (:mod:`mvsde.experiments`).
"""
from .coefficients import (
    Coefficient,
    LogModulus,
    diffusion_constant,
    diffusion_zero,
    drift_constant,
    drift_linear_delay,
    drift_log_lipschitz,
    drift_zero,
    eval_kappa,
    mf_drift_linear,
    mf_drift_second_moment,
    smooth_coefficient,
    truncate_coefficient,
)
from .errors import (
    ConfigError,
    InvalidArgumentError,
    MvsdeError,
    StepEvaluationError,
)
from .meanfield import (
    EmpiricalSegmentLaw,
    distribution_iterate,
    flow_distances,
    flow_sup_distance,
    self_consistent_solve,
    solve_ensemble_frozen,
    wasserstein2,
    wasserstein2_exhaustive,
)
from .monotone import (
    Ball,
    Box,
    Graph1D,
    HalfLine,
    Halfspace,
    NormalCone,
    ZeroOperator,
    domain_distance,
    operator_contains,
    operator_domain,
    project,
    resolvent,
    yosida,
)
from .rng import (
    INITIAL_DATA_STREAM,
    NOISE_STREAM,
    SMOOTHING_STREAM,
    TEST_STREAM,
    RngKey,
)
from .segments import TimeGrid
from .solver import (
    EnsembleTrajectories,
    SolverConfig,
    contraction_horizon,
    integrate,
    picard_iterate_paths,
    sample_noise_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "MvsdeError",
    "InvalidArgumentError",
    "StepEvaluationError",
    "ConfigError",
    "RngKey",
    "NOISE_STREAM",
    "SMOOTHING_STREAM",
    "INITIAL_DATA_STREAM",
    "TEST_STREAM",
    "ZeroOperator",
    "NormalCone",
    "Graph1D",
    "HalfLine",
    "Box",
    "Ball",
    "Halfspace",
    "project",
    "domain_distance",
    "resolvent",
    "yosida",
    "operator_domain",
    "operator_contains",
    "TimeGrid",
    "LogModulus",
    "eval_kappa",
    "Coefficient",
    "drift_zero",
    "drift_constant",
    "drift_linear_delay",
    "drift_log_lipschitz",
    "diffusion_constant",
    "diffusion_zero",
    "mf_drift_linear",
    "mf_drift_second_moment",
    "smooth_coefficient",
    "truncate_coefficient",
    "SolverConfig",
    "sample_noise_matrix",
    "integrate",
    "EnsembleTrajectories",
    "picard_iterate_paths",
    "contraction_horizon",
    "EmpiricalSegmentLaw",
    "wasserstein2",
    "wasserstein2_exhaustive",
    "flow_distances",
    "flow_sup_distance",
    "solve_ensemble_frozen",
    "distribution_iterate",
    "self_consistent_solve",
]
