"""Drift and diffusion coefficients, the log modulus of continuity, and the
regularisation helpers (window mollifier, Monte Carlo smoothing,
sup-norm cutoff).

A drift coefficient maps (t, segment, law) to a vector in R^d; a
diffusion coefficient maps to a d x m matrix.  Path coefficients ignore
the law, so the path equation is the mean-field equation with a
law-blind coefficient.  A law is its samples: mean-field coefficients
read ``law.values``, the (N, window, d) segments of an empirical
segment law, so a drift may integrate any functional of them.

``eval_batch(t, values, law, grid)`` is the only evaluation protocol:
it receives the stacked windows of many particles, shape (N, window, d),
and returns (N, d) or (N, d, m); one window is the case N = 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidArgumentError
from .rng import RngKey
from .segments import TimeGrid

__all__ = [
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
]


# ---------------------------------------------------------------------------
# Modulus of continuity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LogModulus:
    """kappa(x) = x*log(1/x) for 0 < x <= branch, extended affinely beyond.

    The branch point must lie in (0, 1/e]; the extension uses the
    one-sided derivative log(1/branch) - 1, which keeps the modulus
    concave and continuous (and strictly increasing when branch < 1/e).
    """

    branch: float = 0.25

    def __post_init__(self) -> None:
        if not (0.0 < self.branch <= math.exp(-1.0)):
            raise InvalidArgumentError("log modulus branch must lie in (0, 1/e]")


def eval_kappa(kappa: LogModulus, x):
    """Evaluate the modulus; accepts scalars or arrays, requires x >= 0."""
    a = np.asarray(x, dtype=float)
    if np.any(a < 0.0) or not np.all(np.isfinite(a)):
        raise InvalidArgumentError("modulus argument must be finite and >= 0")
    b = kappa.branch
    safe = np.where(a > 0.0, a, 1.0)
    core = safe * np.log(1.0 / safe)
    slope = math.log(1.0 / b) - 1.0
    tail = b * math.log(1.0 / b) + slope * (a - b)
    out = np.where(a > b, tail, np.where(a > 0.0, core, 0.0))
    return float(out) if np.ndim(x) == 0 else out


# ---------------------------------------------------------------------------
# Coefficient base class
# ---------------------------------------------------------------------------


class Coefficient:
    """Base class for (t, segment, law) -> value coefficients.

    Attributes
    ----------
    dim : int
        State dimension d of the segments consumed.
    width : int or None
        Number of noise columns m for a diffusion coefficient, None for
        a drift.
    lipschitz_sq : float or None
        Known constant L with |f(t,z1)-f(t,z2)|^2 <= L*||z1-z2||_inf^2.
    constant : bool
        True when ``eval_batch`` returns the same value for every time,
        window and law, so the solver may evaluate it once per solve.
        Set only by the zero and constant catalogue entries; wrappers
        (smoothing, cutoff) leave it False.

    The law argument is any object exposing its samples as ``values``,
    shape (N, window, d), such as an empirical segment law; path
    coefficients ignore it and accept None.
    """

    dim: int = 1
    width: int | None = None
    lipschitz_sq: float | None = None
    constant: bool = False

    def eval_batch(self, t: float, values: np.ndarray, law, grid: TimeGrid) -> np.ndarray:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Catalogue: path coefficients
# ---------------------------------------------------------------------------


class _ConstantDrift(Coefficient):
    constant = True

    def __init__(self, value) -> None:
        v = np.atleast_1d(np.asarray(value, dtype=float))
        if v.ndim != 1 or not np.all(np.isfinite(v)):
            raise InvalidArgumentError("constant drift needs a finite vector")
        self._v = v
        self.dim = v.size
        self.lipschitz_sq = 0.0

    def eval_batch(self, t, values, law, grid):
        return np.broadcast_to(self._v, (values.shape[0], self.dim)).copy()


class _LinearDelayDrift(Coefficient):
    """f(t, z) = -pull * z(0) + push * z(-r0), componentwise."""

    def __init__(self, pull: float, push: float, dim: int = 1) -> None:
        if not (math.isfinite(pull) and math.isfinite(push)):
            raise InvalidArgumentError("linear delay drift needs finite gains")
        self.pull = float(pull)
        self.push = float(push)
        self.dim = int(dim)
        self.lipschitz_sq = 2.0 * (pull * pull + push * push)

    def eval_batch(self, t, values, law, grid):
        return -self.pull * values[:, -1, :] + self.push * values[:, 0, :]


class _LogLipschitzDrift(Coefficient):
    """Scalar drift -sign(z(0)) * kappa(min(|z(0)|, 1)).

    Nonincreasing in z(0), hence one-sided Lipschitz with any positive
    modulus; bounded by kappa(1).
    """

    def __init__(self, kappa: LogModulus) -> None:
        self.kappa = kappa
        self.dim = 1

    def eval_batch(self, t, values, law, grid):
        z = values[:, -1, 0]
        mag = eval_kappa(self.kappa, np.minimum(np.abs(z), 1.0))
        return (-np.sign(z) * mag)[:, None]


class _ConstantDiffusion(Coefficient):
    constant = True

    def __init__(self, matrix, dim: int | None = None, width: int | None = None) -> None:
        g = np.asarray(matrix, dtype=float)
        if g.ndim == 0:
            d = int(dim or 1)
            w = int(width or 1)
            g = float(g) * np.eye(d, w)
        if g.ndim != 2 or not np.all(np.isfinite(g)):
            raise InvalidArgumentError("constant diffusion needs a finite d x m matrix")
        self._g = g
        self.dim = g.shape[0]
        self.width = g.shape[1]
        self.lipschitz_sq = 0.0
        self._g.flags.writeable = False

    def eval_batch(self, t, values, law, grid):
        return np.broadcast_to(self._g, (values.shape[0],) + self._g.shape)


def drift_zero(dim: int = 1) -> Coefficient:
    return _ConstantDrift(np.zeros(dim))


def drift_constant(value) -> Coefficient:
    return _ConstantDrift(value)


def drift_linear_delay(pull: float, push: float, dim: int = 1) -> Coefficient:
    """Linear delay feedback; Lipschitz with L = 2*(pull^2 + push^2)."""
    return _LinearDelayDrift(pull, push, dim)


def drift_log_lipschitz(kappa: LogModulus | None = None) -> Coefficient:
    return _LogLipschitzDrift(kappa if kappa is not None else LogModulus())


def diffusion_constant(matrix, dim: int | None = None, width: int | None = None) -> Coefficient:
    return _ConstantDiffusion(matrix, dim, width)


def diffusion_zero(dim: int = 1, width: int = 1) -> Coefficient:
    return _ConstantDiffusion(np.zeros((dim, width)))


# ---------------------------------------------------------------------------
# Catalogue: mean-field coefficients
# ---------------------------------------------------------------------------


class _MeanFieldLinearDrift(Coefficient):
    """b(t, z, mu) = -(z(0) - coupling * <mu, z(-r0)>)."""

    def __init__(self, coupling: float = 1.0, dim: int = 1) -> None:
        if not math.isfinite(coupling):
            raise InvalidArgumentError("mean-field coupling must be finite")
        self.coupling = float(coupling)
        self.dim = int(dim)

    def eval_batch(self, t, values, law, grid):
        # np.mean's own sum and division, without its Python overhead
        anchor = np.add.reduce(law.values[:, 0, :], axis=0) / law.size
        return -(values[:, -1, :] - self.coupling * anchor)


class _MeanFieldSecondMomentDrift(Coefficient):
    """b(t, z, mu) = -z(0) / (1 + <mu, ||z||_inf^2>)."""

    def __init__(self, dim: int = 1) -> None:
        self.dim = int(dim)

    def eval_batch(self, t, values, law, grid):
        sups = np.max(np.linalg.norm(law.values, axis=2), axis=1)
        denom = 1.0 + float(np.add.reduce(sups * sups)) / law.size
        return -values[:, -1, :] / denom


def mf_drift_linear(coupling: float = 1.0, dim: int = 1) -> Coefficient:
    return _MeanFieldLinearDrift(coupling, dim)


def mf_drift_second_moment(dim: int = 1) -> Coefficient:
    return _MeanFieldSecondMomentDrift(dim)


# ---------------------------------------------------------------------------
# Window mollifier
# ---------------------------------------------------------------------------
# Output sample s of a window zeta is n times the integral over
# r in [s, min(s + 1/n, 1)] of scale * zeta(min(r, 0)), where
# scale = min(||zeta||_inf, n) / ||zeta||_inf (1 for the zero window),
# so the output sup-norm never exceeds min(||zeta||_inf, n).


@lru_cache(maxsize=64)
def _mollifier_matrix(grid: TimeGrid, n: int) -> np.ndarray:
    """Read-only (window, window) matrix of the unscaled mollifier.

    Row j holds ``n`` times the exact trapezoid weights of the integral
    over ``[s_j, min(s_j + 1/n, 1)]`` of the piecewise-linear
    interpolant of the window samples at ``min(r, 0)``: the integrand
    is linear between the window grid, the integration endpoints and 0,
    so the trapezoid rule on that refinement is exact.
    """
    theta = grid.window_times()
    # a phantom node past 0, which no clipped point passes, gives every
    # point a right neighbour, also in a one-sample window
    nodes = np.append(theta, 1.0)
    matrix = np.empty((theta.size, theta.size))
    for j, s in enumerate(theta):
        hi = min(s + 1.0 / n, 1.0)
        pts = np.unique(np.concatenate([[s, hi], theta[(theta > s) & (theta < hi)]]))
        # the unit basis windows interpolated at min(pts, 0): hat weights
        x = np.minimum(pts, 0.0)
        left = np.searchsorted(nodes, x, side="right") - 1
        lam = (x - nodes[left]) / (nodes[left + 1] - nodes[left])
        hats = np.zeros((x.size, nodes.size))
        hats[np.arange(x.size), left] = 1.0 - lam
        hats[np.arange(x.size), left + 1] = lam
        matrix[j] = n * (0.5 * (np.diff(pts) @ (hats[:-1, :-1] + hats[1:, :-1])))
    matrix.flags.writeable = False
    return matrix


def _mollify(values: np.ndarray, grid: TimeGrid, n: int) -> np.ndarray:
    """Mollify a batch of windows (N, window, d) in one matrix product."""
    values = np.ascontiguousarray(values, dtype=float)
    sups = np.max(np.linalg.norm(values, axis=2), axis=1)
    # scale 1 for the zero window, without dividing 0 by 0
    scale = np.divide(
        np.minimum(sups, float(n)), sups, out=np.ones_like(sups), where=sups != 0.0
    )
    return scale[:, None, None] * (_mollifier_matrix(grid, n) @ values)


# ---------------------------------------------------------------------------
# Monte Carlo smoothing
# ---------------------------------------------------------------------------


class _SmoothedCoefficient(Coefficient):
    def __init__(self, base: Coefficient, n: int, mc_samples: int, key: RngKey) -> None:
        self._base = base
        self._n = int(n)
        self._mc = int(mc_samples)
        self._key = key
        self._cache: dict[tuple[int, float, int], np.ndarray] = {}
        self.dim = base.dim
        self.width = base.width

    def _perturbations(self, grid: TimeGrid, dim: int) -> np.ndarray:
        ck = (grid.delay_steps, grid.dt, dim)
        hit = self._cache.get(ck)
        if hit is not None:
            return hit
        gen = self._key.child(grid.delay_steps, dim).generator()
        m0 = grid.delay_steps
        steps = gen.standard_normal((self._mc, m0, dim)) * math.sqrt(grid.dt)
        walk = np.zeros((self._mc, m0 + 1, dim))
        np.cumsum(steps, axis=1, out=walk[:, 1:, :])
        pert = walk / self._n
        pert.flags.writeable = False
        self._cache[ck] = pert
        return pert

    def eval_batch(self, t, values, law, grid):
        pert = self._perturbations(grid, values.shape[2])
        smooth = _mollify(values, grid, self._n)
        # every particle's mc perturbed windows as consecutive rows
        stacked = (smooth[:, None, :, :] + pert).reshape((-1,) + pert.shape[1:])
        outs = self._base.eval_batch(t, stacked, law, grid)
        return np.mean(outs.reshape((values.shape[0], self._mc) + outs.shape[1:]), axis=1)


def smooth_coefficient(
    f: Coefficient, n: int, mc_samples: int, rng_stream: RngKey
) -> Coefficient:
    """Monte Carlo smoothing of a coefficient in its segment argument.

    Evaluates the base coefficient at the mollified segment plus
    ``1/n`` times an auxiliary Brownian path on the delay window,
    averaged over ``mc_samples`` paths drawn once per grid from the
    given stream; the law is passed to the base unchanged.  A batch of
    N windows is mollified in one matrix product and the base is called
    once, on all N * mc_samples perturbed windows.  Deterministic for a
    fixed stream; as an average of the base's values it keeps any
    uniform bound of the base.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise InvalidArgumentError("smoothing index n must be an integer >= 1")
    if not (isinstance(mc_samples, (int, np.integer)) and mc_samples >= 1):
        raise InvalidArgumentError("mc_samples must be an integer >= 1")
    return _SmoothedCoefficient(f, n, mc_samples, rng_stream)


# ---------------------------------------------------------------------------
# Sup-norm cutoff
# ---------------------------------------------------------------------------


class _TruncatedCoefficient(Coefficient):
    def __init__(self, base: Coefficient, radius: float, ramp: float) -> None:
        self._base = base
        self.radius = float(radius)
        self.ramp = float(ramp)
        self.dim = base.dim
        self.width = base.width

    def _weights(self, values: np.ndarray) -> np.ndarray:
        sups = np.max(np.linalg.norm(values, axis=2), axis=1)
        return np.clip(1.0 - (sups - self.radius) / self.ramp, 0.0, 1.0)

    def eval_batch(self, t, values, law, grid):
        h = self._weights(values)
        out = self._base.eval_batch(t, values, law, grid)
        shape = (-1,) + (1,) * (out.ndim - 1)
        return out * h.reshape(shape)


def truncate_coefficient(f: Coefficient, radius: float, ramp: float) -> Coefficient:
    """Multiply a coefficient by the sup-norm cutoff
    ``h(z) = clip(1 - (||z||_inf - radius)/ramp, 0, 1)``.

    ``h`` is 1 inside the radius, 0 beyond radius + ramp, and
    ``1/ramp``-Lipschitz in the sup-norm in between.  The law is passed
    to the base unchanged.
    """
    if not (math.isfinite(radius) and radius >= 0.0):
        raise InvalidArgumentError("cutoff radius must be finite and >= 0")
    if not (math.isfinite(ramp) and ramp > 0.0):
        raise InvalidArgumentError("cutoff ramp must be finite and positive")
    return _TruncatedCoefficient(f, radius, ramp)
