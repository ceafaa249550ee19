"""Constrained delay SDE simulation with mean-field interaction.

The pieces compose bottom-up: set-valued monotone operators and their
resolvents (:mod:`mvsde.monotone`), time grids and history windows
(:mod:`mvsde.segments`), coefficient catalogues with smoothing
and truncation (:mod:`mvsde.coefficients`), the constrained Euler
scheme plus fixed-point iteration (:mod:`mvsde.solver`), empirical laws
and distribution iteration (:mod:`mvsde.meanfield`), and the named
experiments behind the ``mvsde`` command (:mod:`mvsde.experiments`).
"""
from . import coefficients, errors, meanfield, monotone, rng, segments, solver
from .errors import *
from .rng import *
from .monotone import *
from .segments import *
from .coefficients import *
from .solver import *
from .meanfield import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *errors.__all__,
    *rng.__all__,
    *monotone.__all__,
    *segments.__all__,
    *coefficients.__all__,
    *solver.__all__,
    *meanfield.__all__,
]
