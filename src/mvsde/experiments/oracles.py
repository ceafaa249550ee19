"""Independent reference values for experiment checks.

Everything here is computed without the solver: closed forms where they
exist, otherwise plain cumulative-sum simulation or a deterministic ODE
integrator.  Experiments compare their output against these routes, so
nothing in this module may import from the solver or mean-field code.
"""
from __future__ import annotations

import math

import numpy as np

from ..errors import InvalidArgumentError
from ..rng import RngKey
from ..segments import TimeGrid

__all__ = [
    "halfline_reflection_moments",
    "simulate_folded_paths",
    "delay_ode_first_interval",
    "delay_ode_mean",
    "delay_euler_mean",
]

# paths folded at once inside one RNG block of simulate_folded_paths.
# Its two (FOLD_ROWS, steps) buffers are most of the oracle's memory:
# 512 rows hold 4 MB each at 1000 steps.  Alone, the fold is bound by
# the RNG and took the same time at every row count from 128 to 2048;
# beside the chunk threads at threads 2, whose step loops hold the
# interpreter lock between numpy calls, 256 rows made reflected_bm_oracle
# runs 5-14 % slower on a 2-vCPU host, and 512 rows read within noise
# of 2048.  The outputs do not depend on the value.
FOLD_ROWS = 512

# paths per RNG block of simulate_folded_paths: block i holds paths
# i*FOLD_BLOCK .. (i+1)*FOLD_BLOCK - 1 and draws them from substream
# key.child(i), so the value is part of the reproducibility contract
FOLD_BLOCK = 65536

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


def simulate_folded_paths(
    key: RngKey, grid: TimeGrid, n_paths: int
) -> tuple[np.ndarray, np.ndarray]:
    """Terminal |W(T)| and its local time, by direct path folding.

    Uses the identity L(T) = |W(T)| - sum sgn(W(t_k)) dW(t_k), evaluated
    on the same grid; no projection scheme is involved, which makes this
    an independent check on reflection output.  Returns two arrays of
    length ``n_paths``.

    The paths are drawn in RNG blocks of ``FOLD_BLOCK`` paths, each
    from its own substream.  Each block is drawn and folded in
    sub-batches of at most ``FOLD_ROWS`` paths from the block's one
    generator, which yields the same numbers as a single draw and
    bounds memory by the sub-batch whatever the block size is.
    """
    if n_paths <= 0:
        raise InvalidArgumentError(f"n_paths must be positive, got {n_paths}")
    terminal = np.empty(n_paths, dtype=np.float64)
    local_time = np.empty(n_paths, dtype=np.float64)
    root_dt = math.sqrt(grid.dt)
    rows = min(FOLD_ROWS, FOLD_BLOCK, n_paths)
    # two buffers: w[:, k] holds the walk at the left endpoint of step
    # k, then its sign, and the products overwrite the Brownian steps,
    # each in place and element for element; a product written into a
    # shifted view of its own input would make numpy copy the input
    dw = np.empty((rows, grid.steps))
    w = np.empty((rows, grid.steps))
    w[:, 0] = 0.0
    for block, block_start in enumerate(range(0, n_paths, FOLD_BLOCK)):
        gen = key.child(block).generator()
        block_end = min(block_start + FOLD_BLOCK, n_paths)
        for first in range(block_start, block_end, rows):
            take = min(rows, block_end - first)
            gen.standard_normal(out=dw[:take])
            dw[:take] *= root_dt
            np.cumsum(dw[:take, :-1], axis=1, out=w[:take, 1:])
            # the same sequential sum as the last entry of a full cumsum
            abs_end = np.abs(w[:take, -1] + dw[:take, -1])
            np.sign(w[:take], out=w[:take])
            np.multiply(w[:take], dw[:take], out=dw[:take])
            terminal[first : first + take] = abs_end
            local_time[first : first + take] = abs_end - np.sum(dw[:take], axis=1)
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
