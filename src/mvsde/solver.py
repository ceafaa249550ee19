"""Backward-resolvent Euler stepping for constrained delay SDEs and the
fixed-point (successive substitution) machinery built on top of it.

One step from state x with drift a, diffusion G, and noise increment
dW first forms the unconstrained predictor ``p = x + a*dt + G @ dW``
and then applies the constraint:

* ``resolvent_step`` (default): ``x_next = (I + dt*A)^-1 p``.  The
  increment ``dK = p - x_next`` satisfies ``dK in dt*A(x_next)`` by the
  Yosida identity, for every operator family.
* ``project_then_step``: ``x_next`` is the metric projection of p onto
  the constraint set; only normal-cone (and trivially zero) operators
  qualify.  For those operators the two schemes coincide exactly,
  because the resolvent of a normal cone is the projection.

Coefficients are evaluated at the left endpoint of each step.  All
randomness enters through materialised noise increments, so repeated
solves with the same increments are bit-identical.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .coefficients import Coefficient
from .errors import InvalidArgumentError, StepEvaluationError
from .monotone import (
    MonotoneOperatorSpec,
    NormalCone,
    ZeroOperator,
    domain_distance,
    operator_domain,
    project,
    resolvent,
)
from .rng import NOISE_STREAM, RngKey, fill_standard_normal
from .segments import Segment, TimeGrid, TrajectoryPair, _constant_extension

__all__ = [
    "SolverConfig",
    "NoisePath",
    "sample_noise_matrix",
    "euler_step",
    "integrate",
    "EnsembleTrajectories",
    "solve_path",
    "solve_paths",
    "picard_iterate",
    "picard_iterate_paths",
    "ContractionReport",
    "contraction_report",
    "contraction_horizon",
]

SCHEMES = ("resolvent_step", "project_then_step")

# steps per block of integrate's time-major scratch buffer
STEP_BLOCK = 64


@dataclass(frozen=True)
class SolverConfig:
    """Grid, operator, scheme selection, and the membership tolerance
    used when states are validated against the constraint set."""

    grid: TimeGrid
    operator: MonotoneOperatorSpec
    scheme: str = "resolvent_step"
    membership_tol: float = 1e-9

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise InvalidArgumentError(
                f"unknown scheme '{self.scheme}'; expected one of {SCHEMES}"
            )
        if self.scheme == "project_then_step" and not isinstance(
            self.operator, (NormalCone, ZeroOperator)
        ):
            raise InvalidArgumentError(
                "project_then_step requires a normal-cone or zero operator"
            )
        if not (math.isfinite(self.membership_tol) and self.membership_tol > 0.0):
            raise InvalidArgumentError("membership_tol must be finite and positive")

    @property
    def dim(self) -> int:
        return self.operator.dim


@dataclass(frozen=True)
class NoisePath:
    """Materialised Brownian increments on one grid.

    ``values`` has shape (steps, m) with row k ~ N(0, dt*I).  Sampling
    through :meth:`sample` makes the path a pure function of
    (seed, path_index), independent of scheduling.
    """

    grid: TimeGrid
    values: np.ndarray
    path_index: int | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        if v.ndim != 2 or v.shape[0] != self.grid.steps:
            raise InvalidArgumentError(
                f"noise needs shape ({self.grid.steps}, m), got {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise InvalidArgumentError("noise increments must be finite")
        v = np.ascontiguousarray(v)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @classmethod
    def sample(cls, key: RngKey, grid: TimeGrid, width: int, path_index: int = 0) -> "NoisePath":
        """Increments of substream (NOISE_STREAM, path_index): the same
        bits as row ``path_index`` of :func:`sample_noise_matrix`."""
        return cls(grid, sample_noise_matrix(key, grid, width, 1, path_index)[0], path_index)


def sample_noise_matrix(
    key: RngKey, grid: TimeGrid, width: int, n_paths: int, first_index: int = 0
) -> np.ndarray:
    """Stacked increments, shape (n_paths, steps, m); path i uses the
    substream (NOISE_STREAM, first_index + i) so any chunking of a run
    reproduces the same array.  The Philox keys of all paths are derived
    in one array pass and one generator is reset per path, so the cost
    per path is the normal draws themselves (see :mod:`mvsde.rng`)."""
    if n_paths < 1:
        raise InvalidArgumentError("n_paths must be >= 1")
    first = int(first_index)
    if not 0 <= first <= 2**64 - n_paths:
        raise InvalidArgumentError("noise path indices must lie in [0, 2**64)")
    out = np.empty((n_paths, grid.steps, width))
    ids = np.uint64(first) + np.arange(n_paths, dtype=np.uint64)
    fill_standard_normal(key.child(NOISE_STREAM), ids, out)
    out *= math.sqrt(grid.dt)
    return out


def _constrainer(cfg: SolverConfig):
    op = cfg.operator
    if isinstance(op, ZeroOperator):
        return lambda p: p
    if cfg.scheme == "project_then_step":
        dom = operator_domain(op)
        return lambda p: project(dom, p)
    lam = cfg.grid.dt
    return lambda p: resolvent(op, lam, p)


def _check_initial(cfg: SolverConfig, states0: np.ndarray) -> None:
    dom = operator_domain(cfg.operator)
    if dom is None:
        return
    dist = domain_distance(dom, states0)
    scale = 1.0 + np.linalg.norm(states0, axis=-1)
    if np.any(dist > cfg.membership_tol * scale):
        raise InvalidArgumentError(
            "initial segment leaves the constraint set by "
            f"{float(np.max(dist)):.3e}"
        )


def euler_step(cfg: SolverConfig, x, drift, diffusion, dw) -> tuple[np.ndarray, np.ndarray]:
    """One constrained step from state ``x``.

    Returns ``(x_next, dk)`` with ``x_next + dk`` equal to the
    unconstrained predictor up to round-off and ``dk`` a member of
    ``dt * A(x_next)`` within the configured tolerance.
    """
    x = np.asarray(x, dtype=float)
    a = np.asarray(drift, dtype=float)
    g = np.asarray(diffusion, dtype=float)
    w = np.asarray(dw, dtype=float)
    if x.shape[-1] != cfg.dim or a.shape != x.shape:
        raise InvalidArgumentError("state and drift must share shape (..., d)")
    if g.shape[-2] != cfg.dim or g.shape[-1] != w.shape[-1]:
        raise InvalidArgumentError("diffusion must have shape (..., d, m) matching dw")
    _check_initial(cfg, x)
    p = x + a * cfg.grid.dt + np.einsum("...dm,...m->...d", g, w)
    x_next = _constrainer(cfg)(p)
    return x_next, p - x_next


class EnsembleTrajectories:
    """Trajectory pairs of N paths sharing one grid, stored stacked.

    ``states`` has shape (N, path_len, d) and ``increments``
    (N, steps, d).  Individual paths are materialised on demand.
    """

    __slots__ = ("grid", "states", "increments")

    def __init__(self, grid: TimeGrid, states: np.ndarray, increments: np.ndarray) -> None:
        self.grid = grid
        states.flags.writeable = False
        increments.flags.writeable = False
        self.states = states
        self.increments = increments

    @property
    def n_paths(self) -> int:
        return self.states.shape[0]

    @property
    def dim(self) -> int:
        return self.states.shape[2]

    def path(self, i: int) -> TrajectoryPair:
        return TrajectoryPair(self.grid, self.states[i], self.increments[i])

    def windows_at(self, k: int) -> np.ndarray:
        """Stacked segments at step index k, shape (N, window, d)."""
        return self.states[:, k : k + self.grid.window_len, :]

    def variation_totals(self) -> np.ndarray:
        """Per-path variation of K over [0, T]."""
        return np.sum(np.linalg.norm(self.increments, axis=2), axis=1)


DriftEval = Callable[[int, float, np.ndarray], np.ndarray]
DiffusionEval = Callable[[int, float, np.ndarray], np.ndarray]


def integrate(
    cfg: SolverConfig,
    xi_values: np.ndarray,
    drift_eval: DriftEval,
    diffusion_eval: DiffusionEval,
    noise: np.ndarray,
) -> EnsembleTrajectories:
    """Advance N paths through the full horizon.

    ``xi_values`` has shape (N, window, d) and fills the path on
    [-r0, 0]; ``noise`` has shape (N, steps, m).  The evaluation
    callbacks receive (step index, left time, live windows) and return
    stacked drifts (N, d) and diffusions (N, d, m); they are invoked
    once per step, before the state advances.

    The windows, shape (N, window, d), are read-only strided views of
    a scratch buffer and are valid only during the callback: the
    buffer is overwritten as the paths advance, so a caller that keeps
    a window past its call must copy it.
    """
    grid = cfg.grid
    n = grid.steps
    dt = grid.dt
    w = grid.window_len
    xi_values = np.asarray(xi_values, dtype=float)
    if xi_values.ndim != 3 or xi_values.shape[1] != w or xi_values.shape[2] != cfg.dim:
        raise InvalidArgumentError(
            f"initial windows need shape (N, {w}, {cfg.dim})"
        )
    noise = np.asarray(noise, dtype=float)
    if noise.ndim != 3 or noise.shape[0] != xi_values.shape[0] or noise.shape[1] != n:
        raise InvalidArgumentError("noise needs shape (N, steps, m)")
    _check_initial(cfg, xi_values)

    npaths = xi_values.shape[0]
    d = cfg.dim
    states = np.empty((npaths, grid.path_len, d))
    states[:, :w, :] = xi_values
    increments = np.empty((npaths, n, d))
    constrain = _constrainer(cfg)

    # Time-major scratch: during a block, rows j .. j + w - 1 of ``buf``
    # hold the window of the block's step j and row j + w receives its
    # new state, so every per-step read and write is one contiguous
    # (N, d) slab.  Finished blocks go back to the path-major arrays in
    # one transposing copy each.
    buf = np.empty((w + STEP_BLOCK, npaths, d))
    buf[:w] = xi_values.swapaxes(0, 1)
    windows = buf.view()
    windows.flags.writeable = False
    dk = np.empty((STEP_BLOCK, npaths, d))
    dw = np.empty((STEP_BLOCK, npaths, noise.shape[2]))

    for k0 in range(0, n, STEP_BLOCK):
        b = min(STEP_BLOCK, n - k0)
        dw[:b] = noise[:, k0 : k0 + b, :].swapaxes(0, 1)
        for j in range(b):
            k = k0 + j
            t = k * dt
            window = windows[j : j + w].swapaxes(0, 1)
            try:
                a = np.asarray(drift_eval(k, t, window), dtype=float)
                g = np.asarray(diffusion_eval(k, t, window), dtype=float)
            except StepEvaluationError:
                raise
            except Exception as exc:
                raise StepEvaluationError(
                    f"coefficient evaluation failed at step {k} (t = {t})", step=k
                ) from exc
            if a.shape != (npaths, d) or g.shape[:2] != (npaths, d):
                raise StepEvaluationError(
                    f"coefficient returned wrong shape at step {k}", step=k
                )
            if not (np.all(np.isfinite(a)) and np.all(np.isfinite(g))):
                bad = np.flatnonzero(
                    ~(np.all(np.isfinite(a), axis=-1) & np.all(np.isfinite(g), axis=(-2, -1)))
                )
                first = int(bad[0]) if bad.size else None
                raise StepEvaluationError(
                    f"coefficient produced a non-finite value at step {k}"
                    + (f" for particle {first}" if first is not None else ""),
                    step=k,
                    particle=first,
                )
            p = buf[j + w - 1] + a * dt + np.einsum("ndm,nm->nd", g, dw[j])
            y = constrain(p)
            buf[j + w] = y
            np.subtract(p, y, out=dk[j])
        states[:, w + k0 : w + k0 + b, :] = buf[w : w + b].swapaxes(0, 1)
        increments[:, k0 : k0 + b, :] = dk[:b].swapaxes(0, 1)
        buf[:w] = buf[b : b + w]

    return EnsembleTrajectories(grid, states, increments)


def _coefficient_evals(
    f: Coefficient,
    g: Coefficient,
    grid: TimeGrid,
    law_of_step: Callable[[int, np.ndarray], object] | None = None,
    frozen: np.ndarray | None = None,
):
    """Per-step drift and diffusion callbacks for ``integrate``.

    The coefficients see the live windows, or with ``frozen`` (shape
    (N, path_len, d)) that array's windows at the same step, and the
    law ``law_of_step(k, windows)``, or None when no law is given.
    """
    w = grid.window_len

    def drift_eval(k, t, window):
        if frozen is not None:
            window = frozen[:, k : k + w, :]
        law = None if law_of_step is None else law_of_step(k, window)
        return f.eval_batch(t, window, law, grid)

    def diffusion_eval(k, t, window):
        if frozen is not None:
            window = frozen[:, k : k + w, :]
        law = None if law_of_step is None else law_of_step(k, window)
        return g.eval_batch(t, window, law, grid)

    return drift_eval, diffusion_eval


def solve_path(
    cfg: SolverConfig,
    xi: Segment,
    f: Coefficient,
    g: Coefficient,
    noise: NoisePath,
) -> TrajectoryPair:
    """Solve one path of ``dX in -A(X)dt + f(t, X_t)dt + g(t, X_t)dW``.

    The coefficients see the live segment ending at the current state.
    """
    if xi.grid != cfg.grid or noise.grid != cfg.grid:
        raise InvalidArgumentError("initial segment, noise, and config must share one grid")
    de, ge = _coefficient_evals(f, g, cfg.grid)
    ens = integrate(cfg, xi.values[None], de, ge, noise.values[None])
    return ens.path(0)


def solve_paths(
    cfg: SolverConfig,
    xi_values: np.ndarray,
    f: Coefficient,
    g: Coefficient,
    noise: np.ndarray,
) -> EnsembleTrajectories:
    """Solve N independent paths with shared coefficients."""
    de, ge = _coefficient_evals(f, g, cfg.grid)
    return integrate(cfg, xi_values, de, ge, noise)


def picard_iterate_paths(
    cfg: SolverConfig,
    xi_values: np.ndarray,
    f: Coefficient,
    g: Coefficient,
    noise: np.ndarray,
    n_iters: int,
    zeroth: np.ndarray | None = None,
) -> list[EnsembleTrajectories]:
    """Successive substitution in path space, ensemble form.

    Iterate n solves the constrained equation with the coefficient
    arguments frozen at iterate n-1's segments while every iterate
    starts from the same initial windows and reuses the same noise
    increments.  ``zeroth`` (shape (N, path_len, d)) defaults to the
    constant extension of the initial windows.  Returns iterates
    1..n_iters.
    """
    if n_iters < 1:
        raise InvalidArgumentError("n_iters must be >= 1")
    xi_values = np.asarray(xi_values, dtype=float)
    grid = cfg.grid
    if zeroth is None:
        frozen = _constant_extension(grid, xi_values)
    else:
        frozen = np.asarray(zeroth, dtype=float)
        if frozen.shape != (xi_values.shape[0], grid.path_len, xi_values.shape[2]):
            raise InvalidArgumentError("zeroth iterate has wrong shape")
    iterates = []
    for _ in range(n_iters):
        de, ge = _coefficient_evals(f, g, grid, frozen=frozen)
        ens = integrate(cfg, xi_values, de, ge, noise)
        iterates.append(ens)
        frozen = ens.states
    return iterates


def picard_iterate(
    cfg: SolverConfig,
    xi: Segment,
    f: Coefficient,
    g: Coefficient,
    noise: NoisePath,
    n_iters: int,
    zeroth: TrajectoryPair | np.ndarray | None = None,
) -> list[TrajectoryPair]:
    """Single-path successive substitution; see picard_iterate_paths."""
    if xi.grid != cfg.grid or noise.grid != cfg.grid:
        raise InvalidArgumentError("initial segment, noise, and config must share one grid")
    z = None
    if zeroth is not None:
        z = zeroth.states if isinstance(zeroth, TrajectoryPair) else np.asarray(zeroth, dtype=float)
        z = z[None] if z.ndim == 2 else z
    ensembles = picard_iterate_paths(
        cfg, xi.values[None], f, g, noise.values[None], n_iters, z
    )
    return [e.path(0) for e in ensembles]


@dataclass(frozen=True)
class ContractionReport:
    """Mean squared sup-distances between consecutive iterates.

    ``distances[i]`` estimates E sup_{[-r0, t0]} |X^(i+2) - X^(i+1)|^2
    over the ensemble (1-based: row i compares iterates i+1 and i+2);
    ``std_errors`` are the Monte Carlo standard errors and ``ratios``
    the consecutive quotients distances[i+1]/distances[i].
    """

    horizon: float
    distances: tuple[float, ...]
    std_errors: tuple[float, ...]
    ratios: tuple[float, ...]


def contraction_report(
    iterates: Sequence[EnsembleTrajectories], t0: float | None = None
) -> ContractionReport:
    """Measure the decay of consecutive iterate distances up to time t0."""
    if len(iterates) < 3:
        raise InvalidArgumentError("need at least 3 iterates for a contraction report")
    grid = iterates[0].grid
    if iterates[0].n_paths < 2:
        raise InvalidArgumentError("need at least 2 paths for standard errors")
    horizon = grid.horizon if t0 is None else float(t0)
    k0 = grid.index_of(horizon)
    if not (1 <= k0 <= grid.steps):
        raise InvalidArgumentError("t0 must be a grid time in (0, T]")
    cut = grid.delay_steps + k0 + 1
    distances, ses = [], []
    for a, b in zip(iterates[:-1], iterates[1:]):
        diff = b.states[:, :cut, :] - a.states[:, :cut, :]
        per_path = np.max(np.sum(diff * diff, axis=2), axis=1)
        distances.append(float(np.mean(per_path)))
        ses.append(float(np.std(per_path, ddof=1) / math.sqrt(per_path.size)))
    ratios = [
        distances[i + 1] / distances[i] if distances[i] > 0.0 else math.inf
        for i in range(len(distances) - 1)
    ]
    return ContractionReport(
        horizon=k0 * grid.dt,
        distances=tuple(distances),
        std_errors=tuple(ses),
        ratios=tuple(ratios),
    )


def contraction_horizon(lipschitz_sq: float, bdg_constant: float = 4.0) -> float:
    """Largest t with ``2*L*(1 + C)*t*exp(2t) <= 1/2``.

    L is the squared-Lipschitz constant of the coefficients and C a
    martingale moment constant; C = 4 is a workable default.  On
    horizons below the returned value successive substitution halves
    the mean squared sup-distance per iterate, so geometric decay of a
    contraction report is expected there.
    """
    if not (math.isfinite(lipschitz_sq) and lipschitz_sq > 0.0):
        raise InvalidArgumentError("lipschitz_sq must be finite and positive")
    if not (math.isfinite(bdg_constant) and bdg_constant >= 0.0):
        raise InvalidArgumentError("bdg_constant must be finite and >= 0")
    target = 0.5 / (2.0 * lipschitz_sq * (1.0 + bdg_constant))

    def h(t: float) -> float:
        return t * math.exp(2.0 * t)

    lo, hi = 0.0, 1.0
    while h(hi) < target:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if h(mid) <= target:
            lo = mid
        else:
            hi = mid
    return lo
