"""Uniform time grids and the constant extension of initial windows.

A segment is the restriction of a path to the sliding delay window
``[t - r0, t]``, sampled on the grid.  Segments and paths are never
wrapped in objects: they are stacked arrays of shape (N, window, d)
and (N, path_len, d), held by
:class:`mvsde.solver.EnsembleTrajectories` and
:class:`mvsde.meanfield.EmpiricalSegmentLaw`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError

__all__ = ["TimeGrid"]

_GRID_REL_TOL = 1e-9


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid with step ``dt``, delay ``r0 = delay_steps*dt`` and
    horizon ``T = steps*dt``.  Both divisibility constraints are enforced
    at construction."""

    dt: float
    delay: float
    horizon: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise InvalidArgumentError("grid dt must be finite and positive")
        if not (math.isfinite(self.delay) and self.delay >= 0.0):
            raise InvalidArgumentError("grid delay r0 must be finite and non-negative")
        if not (math.isfinite(self.horizon) and self.horizon > 0.0):
            raise InvalidArgumentError("grid horizon must be finite and positive")
        m = round(self.delay / self.dt)
        if abs(m * self.dt - self.delay) > _GRID_REL_TOL * max(1.0, self.delay):
            raise InvalidArgumentError(
                f"delay r0 = {self.delay} is not an integer multiple of dt = {self.dt}"
            )
        n = round(self.horizon / self.dt)
        if n < 1 or abs(n * self.dt - self.horizon) > _GRID_REL_TOL * max(1.0, self.horizon):
            raise InvalidArgumentError(
                f"horizon = {self.horizon} is not an integer multiple of dt = {self.dt}"
            )

    @property
    def delay_steps(self) -> int:
        return round(self.delay / self.dt)

    @property
    def steps(self) -> int:
        return round(self.horizon / self.dt)

    @property
    def window_len(self) -> int:
        """Number of samples in one segment."""
        return self.delay_steps + 1

    @property
    def path_len(self) -> int:
        """Number of samples of a path on [-r0, T]."""
        return self.delay_steps + self.steps + 1

    def window_times(self) -> np.ndarray:
        """Offsets theta_j = -r0 + j*dt, j = 0..delay_steps."""
        return (np.arange(self.window_len) - self.delay_steps) * self.dt


def _constant_extension(grid: TimeGrid, xi_values: np.ndarray) -> np.ndarray:
    """Paths (N, path_len, d) that equal the initial windows (N, window,
    d) on [-r0, 0] and stay at their end values afterwards."""
    if xi_values.ndim != 3 or xi_values.shape[1] != grid.window_len:
        raise InvalidArgumentError(f"initial windows need shape (N, {grid.window_len}, d)")
    out = np.empty((xi_values.shape[0], grid.path_len, xi_values.shape[2]))
    out[:, : grid.window_len, :] = xi_values
    out[:, grid.window_len :, :] = xi_values[:, -1:, :]
    return out

