"""Uniform time grids, path segments, and trajectory/reflection pairs.

A segment is the restriction of a path to the sliding delay window
``[t - r0, t]``, sampled on the grid.  A trajectory pair couples the
state path on ``[-r0, T]`` with the per-step increments of the bounded
variation term K produced by the constrained scheme; K(0) = 0 holds by
construction because only increments are stored.

Interval variation is accounted in fixed point (quantum ``2**-32``) so
that ``total_variation`` is exactly additive over adjacent intervals.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidArgumentError

__all__ = [
    "TimeGrid",
    "Segment",
    "TrajectoryPair",
    "sup_norm",
    "segment_at",
    "initial_extension",
    "initial_extension_path",
    "total_variation",
    "constant_segment",
    "write_trajectory_csv",
    "write_trajectory_jsonl",
]

# Quantum for the fixed-point variation ledger.  Fine enough that the
# quantisation (<= 2**-33 per step) is far below scheme error, coarse
# enough that sums stay exactly representable in float64.
VARIATION_QUANTUM = 2.0**-32
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

    def index_of(self, t: float) -> int:
        """Index k with t = k*dt; raises for off-grid times."""
        k = round(t / self.dt)
        if abs(k * self.dt - t) > _GRID_REL_TOL * max(1.0, abs(t)):
            raise InvalidArgumentError(f"time {t} is not on the grid (dt = {self.dt})")
        return k

    def window_times(self) -> np.ndarray:
        """Offsets theta_j = -r0 + j*dt, j = 0..delay_steps."""
        return (np.arange(self.window_len) - self.delay_steps) * self.dt

    def path_times(self) -> np.ndarray:
        """Grid times from -r0 to T."""
        return (np.arange(self.path_len) - self.delay_steps) * self.dt


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


class Segment:
    """Path values on one delay window, immutable after construction."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: TimeGrid, values) -> None:
        v = np.asarray(values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        if v.ndim != 2 or v.shape[0] != grid.window_len:
            raise InvalidArgumentError(
                f"segment needs shape ({grid.window_len}, d), got {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise InvalidArgumentError("segment values must be finite")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", _frozen(v))

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("Segment is immutable")

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def end_value(self) -> np.ndarray:
        """Value at offset 0, i.e. the current state."""
        return self.values[-1]

    def __repr__(self) -> str:
        return f"Segment(window_len={self.grid.window_len}, dim={self.dim})"


def sup_norm(seg) -> float:
    """Max over window samples of the Euclidean norm.

    Accepts a Segment or a bare (window, d) array.
    """
    v = seg.values if isinstance(seg, Segment) else np.asarray(seg, dtype=float)
    return float(np.max(np.linalg.norm(v, axis=-1)))


def constant_segment(grid: TimeGrid, value) -> Segment:
    v = np.atleast_1d(np.asarray(value, dtype=float))
    return Segment(grid, np.tile(v, (grid.window_len, 1)))


class TrajectoryPair:
    """State path on [-r0, T] plus increments of the reflection term K.

    ``states`` has shape (path_len, d); ``increments`` has shape
    (steps, d) with increment k covering (t_k, t_{k+1}].
    """

    __slots__ = ("grid", "states", "increments", "__dict__")

    def __init__(self, grid: TimeGrid, states, increments) -> None:
        s = np.asarray(states, dtype=float)
        if s.ndim == 1:
            s = s[:, None]
        dk = np.asarray(increments, dtype=float)
        if dk.ndim == 1:
            dk = dk[:, None]
        if s.shape != (grid.path_len, s.shape[1]):
            raise InvalidArgumentError(
                f"states need shape ({grid.path_len}, d), got {s.shape}"
            )
        if dk.shape != (grid.steps, s.shape[1]):
            raise InvalidArgumentError(
                f"increments need shape ({grid.steps}, {s.shape[1]}), got {dk.shape}"
            )
        if not (np.all(np.isfinite(s)) and np.all(np.isfinite(dk))):
            raise InvalidArgumentError("trajectory data must be finite")
        self.grid = grid
        self.states = _frozen(s)
        self.increments = _frozen(dk)

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    @cached_property
    def reflection(self) -> np.ndarray:
        """Cumulative K on grid times 0..T, K(0) = 0; shape (steps+1, d)."""
        k = np.vstack([np.zeros((1, self.dim)), np.cumsum(self.increments, axis=0)])
        return _frozen(k)

    @cached_property
    def _variation_units(self) -> np.ndarray:
        # fixed-point cumulative ledger of |dK|; int64 units of the quantum
        step_norms = np.linalg.norm(self.increments, axis=1)
        units = np.rint(step_norms / VARIATION_QUANTUM).astype(np.int64)
        out = np.zeros(self.grid.steps + 1, dtype=np.int64)
        np.cumsum(units, out=out[1:])
        return out

    def state_at(self, t: float) -> np.ndarray:
        k = self.grid.index_of(t)
        m = self.grid.delay_steps
        if not (-m <= k <= self.grid.steps):
            raise InvalidArgumentError(f"time {t} outside [-r0, T]")
        return self.states[m + k]


def segment_at(traj: TrajectoryPair, t: float) -> Segment:
    """Segment ending at grid time t in [0, T]; shares storage with the path."""
    k = traj.grid.index_of(t)
    if not (0 <= k <= traj.grid.steps):
        raise InvalidArgumentError(f"segment time {t} outside [0, T]")
    return Segment(traj.grid, traj.states[k : k + traj.grid.window_len])


def initial_extension(xi: Segment, t: float) -> Segment:
    """Segment of the constant-in-the-future extension of the initial datum.

    The extended path equals xi on [-r0, 0] and stays at xi(0) afterwards;
    this is the zeroth iterate used by the fixed-point constructions.
    """
    grid = xi.grid
    k = grid.index_of(t)
    if not (0 <= k <= grid.steps):
        raise InvalidArgumentError(f"extension time {t} outside [0, T]")
    m = grid.delay_steps
    j = np.minimum(np.arange(grid.window_len) + k, m)
    return Segment(grid, xi.values[j])


def _constant_extension(grid: TimeGrid, xi_values: np.ndarray) -> np.ndarray:
    """Paths (N, path_len, d) that equal the initial windows (N, window,
    d) on [-r0, 0] and stay at their end values afterwards."""
    out = np.empty((xi_values.shape[0], grid.path_len, xi_values.shape[2]))
    out[:, : grid.window_len, :] = xi_values
    out[:, grid.window_len :, :] = xi_values[:, -1:, :]
    return out


def initial_extension_path(xi: Segment, grid: TimeGrid | None = None) -> np.ndarray:
    """Full path array (path_len, d) of the constant extension of xi."""
    return _constant_extension(grid or xi.grid, xi.values[None])[0]


def total_variation(traj: TrajectoryPair, s: float, t: float) -> float:
    """Variation of K over [s, t] for grid times 0 <= s <= t <= T.

    Computed from the fixed-point ledger, so adjacent intervals add
    exactly: total_variation(s,u) == total_variation(s,t) + total_variation(t,u).
    """
    i = traj.grid.index_of(s)
    j = traj.grid.index_of(t)
    if not (0 <= i <= j <= traj.grid.steps):
        raise InvalidArgumentError("variation requires grid times 0 <= s <= t <= T")
    units = traj._variation_units
    diff = int(units[j] - units[i])
    if diff >= 2**53:
        raise InvalidArgumentError("variation too large for exact accounting")
    return diff * VARIATION_QUANTUM


def write_trajectory_csv(traj: TrajectoryPair, path) -> None:
    """Columns: t, state components, K components, cumulative |K|."""
    d = traj.dim
    m = traj.grid.delay_steps
    refl = traj.reflection
    units = traj._variation_units
    header = (
        ["t"]
        + [f"x{i}" for i in range(d)]
        + [f"k{i}" for i in range(d)]
        + ["k_var"]
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row, t in enumerate(traj.grid.path_times()):
            k = row - m
            kvals = refl[k] if k >= 0 else np.zeros(d)
            kvar = units[k] * VARIATION_QUANTUM if k >= 0 else 0.0
            cells = [repr(float(t))]
            cells += [repr(float(x)) for x in traj.states[row]]
            cells += [repr(float(x)) for x in kvals]
            cells.append(repr(float(kvar)))
            fh.write(",".join(cells) + "\n")


def write_trajectory_jsonl(traj: TrajectoryPair, path) -> None:
    """One JSON record per grid time with the same fields as the CSV."""
    d = traj.dim
    m = traj.grid.delay_steps
    refl = traj.reflection
    units = traj._variation_units
    with open(path, "w", encoding="utf-8") as fh:
        for row, t in enumerate(traj.grid.path_times()):
            k = row - m
            rec = {
                "t": float(t),
                "x": [float(v) for v in traj.states[row]],
                "k": [float(v) for v in (refl[k] if k >= 0 else np.zeros(d))],
                "k_var": float(units[k] * VARIATION_QUANTUM) if k >= 0 else 0.0,
            }
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
