"""Independent reference values for experiment checks.

Everything here is computed without the solver: closed forms where they
exist, otherwise a cumulative-sum fold of Brownian steps that the caller
gives, or a deterministic ODE integrator.  Experiments compare their
output against these routes, so nothing in this module may import from
the solver or mean-field code.  A route may read the noise that a scheme
reads, never what the scheme computes from it.
"""
from __future__ import annotations

import math

import numpy as np

from ..errors import InvalidArgumentError
from ..segments import TimeGrid

__all__ = [
    "halfline_reflection_moments",
    "simulate_folded_paths",
    "delay_ode_first_interval",
    "delay_ode_mean",
    "delay_euler_mean",
]

# paths folded at once by simulate_folded_paths, whose one (FOLD_ROWS,
# steps) scratch buffer, 1 MB at 1000 steps, is all it holds besides its
# outputs.  reflected_bm_oracle folds each chunk beside the chunk's solve,
# so the scratch adds to the run's peak: at threads 2 on a 2-vCPU host
# the run peaked at 61.1-61.3 MB resident with 128 rows against
# 61.7-63.7 MB with 256, and a 512-row block folded in 3.7 ms with 128
# rows against 3.9 ms with 256 or 512.  The outputs do not depend on
# the value.
FOLD_ROWS = 128

# delay_ode_mean's Heun steps per grid step
DELAY_ODE_REFINE = 20


def halfline_reflection_moments(horizon: float) -> dict[str, float]:
    """Exact terminal moments for driftless unit reflection at zero.

    The reflected state has the law of |W(T)|; the compensating process
    is its local time at zero, whose mean equals E|W(T)|.
    """
    if horizon <= 0.0:
        raise InvalidArgumentError(f"horizon must be positive, got {horizon}")
    half_normal_mean = math.sqrt(2.0 * horizon / math.pi)
    return {
        "mean": half_normal_mean,
        "second_moment": horizon,
        "local_time_mean": half_normal_mean,
    }


def simulate_folded_paths(dw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Terminal |W(T)| and its local time at zero, by direct path folding.

    ``dw`` has shape (n, steps): row i holds the Brownian steps of path
    i, which starts at 0.  Uses the identity L(T) = |W(T)| - sum
    sgn(W(t_k)) dW(t_k), evaluated on the steps' grid; no projection
    scheme is involved, which makes this an independent check on
    reflection output, even of a scheme that reads the same steps.
    Returns two arrays of length n.

    The paths are folded in sub-batches of at most ``FOLD_ROWS`` rows
    through one scratch buffer, which holds each walk and then its
    products sgn(W) dW, so ``dw`` is only read; every row is summed on
    its own, so the bits do not depend on the sub-batches.
    """
    dw = np.asarray(dw, dtype=np.float64)
    if dw.ndim != 2 or 0 in dw.shape:
        raise InvalidArgumentError(f"dw must be a non-empty (n, steps) array, not {dw.shape}")
    terminal, local_time = np.empty((2, len(dw)))
    walk = np.empty((min(FOLD_ROWS, len(dw)), dw.shape[1]))
    for first in range(0, len(dw), FOLD_ROWS):
        rows = slice(first, first + FOLD_ROWS)
        step = dw[rows]
        w = walk[: step.shape[0]]
        # w[:, k] holds the walk at the left endpoint of step k
        w[:, 0] = 0.0
        np.cumsum(step[:, :-1], axis=1, out=w[:, 1:])
        # the same sequential sum as the last entry of a full cumsum
        terminal[rows] = np.abs(w[:, -1] + step[:, -1])
        np.sign(w, out=w)
        w *= step
        local_time[rows] = terminal[rows] - np.sum(w, axis=1)
    return terminal, local_time


def delay_ode_first_interval(coupling: float, times: np.ndarray) -> np.ndarray:
    """Mean flow before the delayed feedback activates.

    With unit history the mean obeys m' = -m + coupling on the first
    delay interval, giving coupling + (1 - coupling) * exp(-t).
    """
    t = np.asarray(times, dtype=np.float64)
    if np.any(t < 0.0):
        raise InvalidArgumentError("times must be nonnegative")
    return coupling + (1.0 - coupling) * np.exp(-t)


def delay_ode_mean(coupling: float, grid: TimeGrid) -> np.ndarray:
    """Method-of-steps integration of m' = -m + coupling * m(t - r0).

    History is identically 1 on [-r0, 0].  Integrates with Heun steps on
    a grid refined ``DELAY_ODE_REFINE``-fold so every delayed lookup
    lands on a stored node; returns the values at the coarse grid times
    0..horizon (``grid.steps + 1`` entries).
    """
    refine = DELAY_ODE_REFINE
    h = grid.dt / refine
    n_fine = grid.steps * refine
    lag = grid.delay_steps * refine
    # storage covers the history interval so delayed lookups are plain indexing
    values = np.empty(lag + n_fine + 1, dtype=np.float64)
    values[: lag + 1] = 1.0

    def rate(m: float, delayed: float) -> float:
        return -m + coupling * delayed

    for i in range(n_fine):
        j = lag + i
        k1 = rate(values[j], values[j - lag])
        predictor = values[j] + h * k1
        # with lag >= 1 the delayed value at the new node is already
        # written; with no delay it is the predictor itself
        k2 = rate(predictor, values[j + 1 - lag] if lag else predictor)
        values[j + 1] = values[j] + 0.5 * h * (k1 + k2)
    return values[lag::refine].copy()


def delay_euler_mean(coupling: float, grid: TimeGrid) -> np.ndarray:
    """The explicit Euler recursion of m' = -m + coupling * m(t - r0).

    From history identically 1, m_{k+1} = m_k + dt * (-m_k + coupling *
    m_{k-M}) with M = ``grid.delay_steps``: the mean that the scheme's
    particle mean follows up to the mean of its noise, off
    ``delay_ode_mean`` by the scheme's O(dt) bias.  Returns the values
    at the grid times 0..horizon (``grid.steps + 1`` entries).
    """
    lag = grid.delay_steps
    values = np.ones(lag + grid.steps + 1)
    for k in range(grid.steps):
        values[lag + k + 1] = values[lag + k] + grid.dt * (
            -values[lag + k] + coupling * values[k]
        )
    return values[lag:].copy()
